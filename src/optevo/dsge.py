"""Structured grammatical evolution with one gene list per nonterminal.

A genotype keeps an ordered integer list for every grammar nonterminal.
Mapping performs the leftmost derivation and returns the phenotype text, its
terminals joined by single spaces; no derivation tree is kept, since the
text is all that fitness reads. Each expansion of nonterminal N
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

from numpy.random import Generator

from .grammar import TOKEN_RE, Grammar, Terminal, load_shipped_grammar

DEFAULT_MAX_DEPTH = 6
MAX_ATTEMPTS = 10_000  # random_derivation's draws before it gives up

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
    """Gene lists and what the last mapping consumed of them: `used[N]` genes
    of N took part in the phenotype, and a nonterminal missing from `used`
    has all its genes in play."""

    genes: dict  # nonterminal -> list[int]
    used: dict = field(default_factory=dict)  # nonterminal -> consumed count

    def __post_init__(self):
        for nt, lst in self.genes.items():
            if any(type(v) is not int or v < 0 for v in lst):  # a bool is no gene
                raise ValueError(f"genes for <{nt}> must be non-negative ints")
        for nt, count in self.used.items():
            if nt not in self.genes or type(count) is not int or count < 0:
                raise ValueError(f"used count for <{nt}> must be a non-negative int "
                                 f"of a nonterminal with genes")

    @classmethod
    def _checked(cls, genes: dict, used: dict) -> "Genotype":
        """Genes and counts that passed the checks once, not checked again."""
        geno = cls.__new__(cls)
        geno.genes, geno.used = genes, used
        return geno

    def copy(self) -> "Genotype":
        """A copy sharing no list or dict."""
        return Genotype._checked({nt: list(lst) for nt, lst in self.genes.items()},
                                 dict(self.used))


@dataclass
class Individual:
    genotype: Genotype
    phenotype: str | None = None  # the mapped text, filled lazily by evaluation
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


def map_genotype(
    g: Grammar,
    geno: Genotype,
    max_depth: int = DEFAULT_MAX_DEPTH,
    rng: Generator | None = None,
) -> str:
    """The phenotype of `geno` under `g`: the terminals of its leftmost
    derivation, joined by single spaces. Repairs are written back, each gene
    one draw from `rng`, a numpy Generator such as `Streams.draw` passes.

    After the call, ``geno.used`` records how many genes each nonterminal
    consumed; genes beyond that prefix took no part in the phenotype.
    """
    cursor: dict = {}
    depths: dict = {}  # nonterminal -> expansions of it open on the current path
    terminals: list = []

    def expand(nt: str) -> None:
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
        depths[nt] = depth
        for sym in alts[allowed[gene % len(allowed)]]:
            if isinstance(sym, Terminal):
                terminals.append(sym.text)
            else:
                expand(sym.name)
        depths[nt] = depth - 1

    try:
        expand(g.start)
    finally:  # expand's closure holds expand: free the cycle now, not at a collection
        expand = None
    geno.used = dict(cursor)
    return " ".join(terminals)


def random_derivation(
    g: Grammar,
    max_depth: int = DEFAULT_MAX_DEPTH,
    rng: Generator | None = None,
) -> tuple[Genotype, str]:
    """(genotype, phenotype) of a random derivation recorded as genes, its
    genes drawn from `rng`, a numpy Generator.

    Mapping the genotype back (same grammar, same max_depth) reproduces the
    phenotype with no repairs. The rare random derivation that dead-ends at
    the depth limit is discarded and redrawn from the same generator, up
    to MAX_ATTEMPTS times.
    """
    for _ in range(MAX_ATTEMPTS):
        geno = Genotype({})
        try:
            return geno, map_genotype(g, geno, max_depth, rng)
        except MappingFailure:
            continue
    raise RuntimeError(f"no valid random genotype in {MAX_ATTEMPTS} attempts")


def mutate(geno: Genotype, rate: float, g: Grammar, rng: Generator) -> Genotype:
    """A copy of `geno` with per-gene replacement at probability `rate`;
    dormant genes untouched. Draws from `rng`, a numpy Generator.

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


def crossover(a: Genotype, b: Genotype, rng: Generator) -> Genotype:
    """Uniform per-nonterminal crossover: each gene list inherited whole,
    its donor one draw from `rng`, a numpy Generator."""
    genes: dict = {}
    used: dict = {}
    for nt in sorted(set(a.genes) | set(b.genes)):
        donor = a if rng.random() < 0.5 else b
        genes[nt] = list(donor.genes.get(nt, []))
        used[nt] = donor.used.get(nt, len(genes[nt]))
    return Genotype._checked(genes, used)


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

    try:
        for end in derive(g.start, {}, 0):
            if end == len(tokens):
                return Genotype({nt: list(lst) for nt, lst in genes.items() if lst})
    finally:  # derive and derive_seq hold each other: free the cycle now, not at a collection
        derive = derive_seq = None
    raise ValueError(f"grammar cannot derive {text!r}")


def load_shipped_genotype(name: str) -> Genotype:
    """One of the standard-optimizer genotypes, encoded from SHIPPED_GENOTYPES."""
    if name not in SHIPPED_GENOTYPES:
        raise ValueError(f"unknown shipped genotype {name!r}")
    return encode(load_shipped_grammar("alr"), SHIPPED_GENOTYPES[name])


def tournament_select(pop: list, k: int, rng: Generator) -> Individual:
    """Best of a uniform k-subset, drawn from `rng`, a numpy Generator;
    fitness ties go to the lower id."""
    if not pop:
        raise ValueError("empty population")
    if not 0 < k <= len(pop):
        raise ValueError("need 0 < k <= population size")
    picks = rng.choice(len(pop), size=k, replace=False)
    entrants = [pop[int(i)] for i in picks]
    return max(entrants, key=lambda ind: (ind.fitness, -ind.id))
