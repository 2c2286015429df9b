"""Structured grammatical evolution with one gene list per nonterminal.

A genotype keeps an ordered integer list for every grammar nonterminal.
Mapping performs the leftmost derivation: each expansion of nonterminal N
consumes N's next unused gene, reduced modulo the number of alternatives.
If N's list runs out, a fresh uniformly random valid gene is drawn and
recorded back into the genotype (repair), so the repaired genotype maps to
the same phenotype ever after. Recursion is bounded per nonterminal: past
`max_depth` nested expansions of N, only N's non-recursive alternatives may
be chosen (the gene then indexes into that restricted list), and if N has
none the mapping fails — the individual simply scores 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grammar import TOKEN_RE, Grammar, Terminal, load_shipped_grammar
from .tensor import Rng

DEFAULT_MAX_DEPTH = 6

# The classic optimizers as phenotypes of the shipped 'alr' grammar, with
# constants at the grid points nearest the conventional values. The sgd rule
# stages lr*grad through x.
SHIPPED_GENOTYPES = {
    "sgd": "multiply( 1.09869426e-02 , grad ) ; y ; z ; add(alpha, negative( x ) )",
    "momentum":
        "subtract( multiply( 8.80797078e-01 , x ) , multiply( 1.09869426e-02 , grad ) )"
        " ; y ; z ; add(alpha, x )",
    "rmsprop":
        "add( multiply( 9.24141820e-01 , x ) , multiply( 7.58581800e-02 , square( grad ) ) )"
        " ; divide_no_nan( multiply( 1.09869426e-02 , grad ) ,"
        " add( sqrt( x ) , 4.53978687e-05 ) ) ; z ; add(alpha, negative( y ) )",
    "adam_core":
        "add( multiply( 8.80797078e-01 , x ) , multiply( 1.19202922e-01 , grad ) ) ;"
        " add( multiply( 9.70687769e-01 , y ) , multiply( 2.93122308e-02 , square( grad ) ) ) ;"
        " divide_no_nan( multiply( 1.09869426e-02 , x ) , add( sqrt( y ) , 4.53978687e-05 ) ) ;"
        " add(alpha, negative( z ) )",
}


class MappingFailure(Exception):
    """Raised when the depth limit leaves a nonterminal with no alternatives."""


@dataclass
class Genotype:
    genes: dict  # nonterminal -> list[int]
    used: dict = field(default_factory=dict)  # nonterminal -> consumed count

    def __post_init__(self):
        for nt, lst in self.genes.items():
            if any((not isinstance(v, int)) or v < 0 for v in lst):
                raise ValueError(f"genes for <{nt}> must be non-negative ints")
        # unmapped genotypes treat every gene as meaningful
        for nt, lst in self.genes.items():
            self.used.setdefault(nt, len(lst))

    def copy(self) -> "Genotype":
        return Genotype(
            {nt: list(lst) for nt, lst in self.genes.items()}, dict(self.used)
        )


@dataclass
class Individual:
    genotype: Genotype
    phenotype: object = None  # filled lazily by evaluation
    fitness: float = None
    id: int = 0


@dataclass
class EvoParams:
    population_size: int = 20
    generations: int = 1500
    tournament_size: int = 5
    mutation_rate: float = 0.15
    elitism: int = 1
    max_depth: int = DEFAULT_MAX_DEPTH
    rng_seed: int = 0
    crossover_prob: float = 0.9

    def __post_init__(self):
        if not 0 < self.tournament_size <= self.population_size:
            raise ValueError("need 0 < tournament_size <= population_size")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0 <= self.elitism < self.population_size:
            raise ValueError("need 0 <= elitism < population_size")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must be in [0, 1]")


@dataclass
class Derivation:
    """One node of the derivation tree: which alternative expanded where."""

    nonterminal: str
    alternative: int
    children: list  # Derivation nodes and terminal strings, in order

    def text(self) -> str:
        """The derived phenotype: terminal leaves joined by single spaces."""
        return " ".join(self.leaves())

    def leaves(self) -> list:
        out = []
        for child in self.children:
            if isinstance(child, Derivation):
                out.extend(child.leaves())
            else:
                out.append(child)
        return out


def map_genotype(
    g: Grammar,
    geno: Genotype,
    start: str | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    rng: Rng | None = None,
) -> Derivation:
    """Leftmost derivation of `geno` under `g`; repairs are written back.

    After the call, ``geno.used`` records how many genes each nonterminal
    consumed; genes beyond that prefix took no part in the phenotype.
    """
    start = g.start if start is None else start
    cursor: dict = {}

    def expand(nt: str, depths: dict) -> Derivation:
        depth = depths.get(nt, 0) + 1
        alts = g.expansions(nt)
        if depth > max_depth:
            allowed = g.non_recursive_alternatives(nt)
            if not allowed:
                raise MappingFailure(
                    f"<{nt}> exceeded depth {max_depth} with no "
                    f"non-recursive alternative"
                )
        else:
            allowed = range(len(alts))
        genes = geno.genes.setdefault(nt, [])
        pos = cursor.get(nt, 0)
        if pos < len(genes):
            gene = genes[pos]
        else:
            if rng is None:
                raise ValueError(
                    f"genotype exhausted for <{nt}> and no rng given for repair"
                )
            gene = int(rng.integers(0, len(allowed)))
            genes.append(gene)
        cursor[nt] = pos + 1
        chosen = allowed[gene % len(allowed)]
        child_depths = dict(depths)
        child_depths[nt] = depth
        children = []
        for sym in alts[chosen]:
            if isinstance(sym, Terminal):
                children.append(sym.text)
            else:
                children.append(expand(sym.name, child_depths))
        return Derivation(nt, chosen, children)

    tree = expand(start, {})
    geno.used = dict(cursor)
    return tree


def random_derivation(
    g: Grammar,
    max_depth: int = DEFAULT_MAX_DEPTH,
    rng: Rng | None = None,
    start: str | None = None,
    max_attempts: int = 10_000,
) -> tuple[Genotype, Derivation]:
    """(genotype, derivation) of a random derivation recorded as genes.

    Mapping the genotype back (same grammar, same max_depth) reproduces the
    derivation with no repairs. The rare random derivation that dead-ends at
    the depth limit is discarded and redrawn.
    """
    if rng is None:
        raise ValueError("random_derivation needs an rng")
    for _ in range(max_attempts):
        geno = Genotype({})
        try:
            return geno, map_genotype(g, geno, start=start, max_depth=max_depth, rng=rng)
        except MappingFailure:
            continue
    raise RuntimeError(f"no valid random genotype in {max_attempts} attempts")


def mutate(geno: Genotype, rate: float, g: Grammar, rng: Rng) -> Genotype:
    """Per-gene replacement with probability `rate`; dormant genes untouched.

    Replacements are uniform over [0, |alternatives|) for the gene's own
    nonterminal. Genes past the consumed prefix of the last mapping stay as
    they are — they had no phenotypic effect, so mutating them would only
    burn mutation budget.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    child = geno.copy()
    for nt in g.nonterminals:
        lst = child.genes.get(nt)
        if not lst:
            continue
        n_alts = len(g.expansions(nt))
        limit = min(child.used.get(nt, len(lst)), len(lst))
        for i in range(limit):
            if rng.random() < rate:
                lst[i] = int(rng.integers(0, n_alts))
    return child


def crossover(a: Genotype, b: Genotype, rng: Rng) -> Genotype:
    """Uniform per-nonterminal crossover: each gene list inherited whole."""
    genes: dict = {}
    used: dict = {}
    for nt in sorted(set(a.genes) | set(b.genes)):
        donor = a if rng.random() < 0.5 else b
        genes[nt] = list(donor.genes.get(nt, []))
        used[nt] = donor.used.get(nt, len(genes[nt]))
    return Genotype(genes, used)


def encode(g: Grammar, text: str, max_depth: int = DEFAULT_MAX_DEPTH) -> Genotype:
    """A genotype that `map_genotype` (same grammar and max_depth) derives `text` from.

    Backtracking leftmost derivation over the phenotype's token stream, so
    whitespace does not matter. Alternatives are tried lowest index first,
    under the mapper's depth rule; where several derivations give the same
    tokens, the first one found wins. Raises ValueError if none exists.
    """
    tokens = TOKEN_RE.findall(text)
    genes: dict = {}

    def derive(nt: str, depths: dict, pos: int):
        # yields every end position of a derivation of `nt` from tokens[pos:],
        # with that derivation's genes appended to `genes` while suspended
        depth = depths.get(nt, 0) + 1
        alts = g.expansions(nt)
        limited = depth > max_depth
        allowed = g.non_recursive_alternatives(nt) if limited else range(len(alts))
        child_depths = {**depths, nt: depth}
        lst = genes.setdefault(nt, [])
        for gene, chosen in enumerate(allowed):
            lst.append(gene)
            yield from derive_seq(alts[chosen], 0, child_depths, pos)
            lst.pop()

    def derive_seq(symbols, i: int, depths: dict, pos: int):
        if i == len(symbols):
            yield pos
            return
        sym = symbols[i]
        if isinstance(sym, Terminal):
            want = TOKEN_RE.findall(sym.text)
            if tokens[pos : pos + len(want)] == want:
                yield from derive_seq(symbols, i + 1, depths, pos + len(want))
            return
        for mid in derive(sym.name, depths, pos):
            yield from derive_seq(symbols, i + 1, depths, mid)

    for end in derive(g.start, {}, 0):
        if end == len(tokens):
            return Genotype({nt: list(lst) for nt, lst in genes.items() if lst})
    raise ValueError(f"grammar cannot derive {text!r}")


def load_shipped_genotype(name: str) -> Genotype:
    """One of the standard-optimizer genotypes, encoded from SHIPPED_GENOTYPES."""
    if name not in SHIPPED_GENOTYPES:
        raise ValueError(f"unknown shipped genotype {name!r}")
    return encode(load_shipped_grammar("alr"), SHIPPED_GENOTYPES[name])


def tournament_select(pop: list, k: int, rng: Rng) -> Individual:
    """Best of a uniform k-subset; fitness ties go to the lower id."""
    if not pop:
        raise ValueError("empty population")
    if not 0 < k <= len(pop):
        raise ValueError("need 0 < k <= population size")
    picks = rng.choice(len(pop), size=k, replace=False)
    entrants = [pop[int(i)] for i in picks]
    return max(entrants, key=lambda ind: (ind.fitness, -ind.id))
