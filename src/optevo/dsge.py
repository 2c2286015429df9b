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

import json
from dataclasses import dataclass, field
from importlib import resources

from .grammar import Grammar, Nonterminal, Terminal
from .tensor import Rng

DEFAULT_MAX_DEPTH = 6

SHIPPED_GENOTYPES = ("sgd", "momentum", "rmsprop", "adam_core")


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

    def to_json(self) -> str:
        return json.dumps({"genes": self.genes, "used": self.used}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Genotype":
        d = json.loads(text)
        return cls(
            {nt: [int(v) for v in lst] for nt, lst in d["genes"].items()},
            {nt: int(n) for nt, n in d.get("used", {}).items()},
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


def random_genotype(
    g: Grammar,
    max_depth: int = DEFAULT_MAX_DEPTH,
    rng: Rng | None = None,
    start: str | None = None,
    max_attempts: int = 10_000,
) -> Genotype:
    """A genotype drawn by running a random derivation and recording it.

    Mapping the result back (same grammar, same max_depth) reproduces the
    derivation with no repairs. The rare random derivation that dead-ends at
    the depth limit is discarded and redrawn.
    """
    if rng is None:
        raise ValueError("random_genotype needs an rng")
    for _ in range(max_attempts):
        geno = Genotype({})
        try:
            map_genotype(g, geno, start=start, max_depth=max_depth, rng=rng)
            return geno
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


def load_shipped_genotype(name: str) -> Genotype:
    """One of the packaged standard-optimizer genotypes (see SHIPPED_GENOTYPES)."""
    if name not in SHIPPED_GENOTYPES:
        raise ValueError(f"unknown shipped genotype {name!r}")
    return Genotype.from_json(
        resources.files("optevo").joinpath(f"genotypes/{name}.json").read_text("utf-8")
    )


def tournament_select(pop: list, k: int, rng: Rng) -> Individual:
    """Best of a uniform k-subset; fitness ties go to the lower id."""
    if not pop:
        raise ValueError("empty population")
    if not 0 < k <= len(pop):
        raise ValueError("need 0 < k <= population size")
    picks = rng.choice(len(pop), size=k, replace=False)
    entrants = [pop[int(i)] for i in picks]
    return max(entrants, key=lambda ind: (ind.fitness, -ind.id))
