"""Evolutionary driver: fitness functions and a generation loop that writes no file.

Two fitness protocols share one trial path:

* schedule search — one trial: train once on the full pool, score on the
  held-out test split (the policy only ever steers the learning rate; it
  never reads test data itself);
* update-rule search — up to `trial_number` trainings on disjoint training
  groups, fitness = the minimum test score so far, remaining trials cancelled
  the moment one falls below the acceptance threshold.

Every training behind a fitness, and behind a `tune` objective, is one
seeded trial, `_run_trial`: one phenotype trains as an `nn.Population` of
one, and a list of them as one of many, both in `nn.train`'s one loop,
which alone decides how many members train in each stacked pass. The fitness
adapters score a list of phenotypes trial-major. All of them are parsed
first, an update rule into one compiled `SpecStepper`, which each of its
trials copies. Each trial is one `_run_trial` call on every phenotype still
open, and `fitness_alr` then turns each phenotype's trial outcomes into the
report that holds its fitness. Each phenotype scores what training it
alone scores, bit for bit.

The generation loop is steady-state-free generational GE: elites carry their
fitness, everyone else is bred by tournament + crossover + mutation and
re-evaluated.  Fitness is cached by phenotype text, and every stochastic
choice derives from a keyed stream, so runs (and checkpoint resumes) are
bit-reproducible. A run's whole state is one `EvolveRun`: its population,
fitness cache, log rows and best. `evolve` hands it to its caller's hook
after each generation, and continues one on resume; `cli` decides which run
files to write: the rows that `log_text` prints, and the checkpoint that
`save_checkpoint` writes and `load_checkpoint` reads back equal.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .data import DataError, Dataset
from .dsge import (
    EvoParams,
    Genotype,
    Individual,
    MappingFailure,
    crossover,
    map_genotype,
    mutate,
    random_derivation,
    tournament_select,
)
from .grammar import Grammar
from .nn import TrainConfig, evaluate, train_seeded
from .optim import ExprError, SpecStepper, SpecValidationError, spec_from_phenotype
from .sched import PolicyError, ScheduledSGD, parse_policy, serialize_policy
from .tensor import Rng, Streams, draw_one

LOG_COLUMNS = ("generation", "best", "mean", "median", "evaluations", "seconds")


@dataclass
class TrainingTask:
    """Everything one fitness evaluation needs: data, architecture, schedule."""

    trial_groups: list  # disjoint training Datasets; schedule search uses [0]
    validation: Dataset
    test: Dataset
    layer_sizes: list
    train_config: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    initial_lr: float = 0.01

    def __post_init__(self):
        if not self.trial_groups:
            raise ValueError("need at least one training group")


@dataclass
class FitnessReport:
    trial_scores: list
    fitness: float
    trials_run: int
    cancelled_early: bool
    failed: bool


_MAPPED = None  # parallel_map's fn, inherited by the workers it forks


def _call_mapped(item):
    return _MAPPED(item)


def parallel_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], in item order, on up to `workers`
    forked processes. fn need not pickle, since the workers inherit it; the
    items and results must. Serial, in this process, when workers == 1,
    when there are fewer than 2 items, or when the platform cannot fork."""
    global _MAPPED
    if workers == 1 or len(items) < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    ctx = multiprocessing.get_context("fork")
    _MAPPED = fn
    try:
        with ProcessPoolExecutor(min(workers, len(items)), mp_context=ctx) as pool:
            chunk = -(-len(items) // (4 * workers))
            return list(pool.map(_call_mapped, items, chunksize=chunk))
    finally:
        _MAPPED = None


def _run_trial(task: TrainingTask, stepper, trial_index: int, key):
    """One seeded training on trial group `trial_index`; returns (score, failed).
    Given lists of steppers and keys, one per phenotype, it trains them as
    one Population, which `nn.train` cuts into stacks, and returns a list of
    (score, failed), each that of training the phenotype alone.

    Seeds derive from (task seed, phenotype key, trial index): identical
    phenotypes always see identical initial weights and batch orders, which
    is what makes phenotype-keyed fitness caching sound.
    """
    lone = isinstance(key, str)
    root = Rng(task.seed)
    rng = (root.child("fitness", key, trial_index) if lone
           else Streams.of([root] * len(key)).child("fitness", key, trial_index))
    data = (task.trial_groups[trial_index], task.validation)
    net, hist = train_seeded(task.layer_sizes, stepper, data, task.train_config, rng)
    if lone:
        return (0.0, True) if hist.failed else (evaluate(net, task.test)[0], False)
    outcomes = [(0.0, True)] * len(net)
    passed = [k for k, flag in enumerate(hist.failed) if not flag]
    if passed:
        for k, score in zip(passed, evaluate(net.take(passed), task.test)):
            outcomes[k] = (score, False)
    return outcomes


def _population_fitness(task: TrainingTask, parse, trial_number: int = 1,
                        threshold: float = 0.0):
    """A fitness function of a list of phenotype texts: each text's fitness
    is that of the `fitness_alr` report on its trials, and 0 for a text that
    does not parse. `parse(text)` gives (make_stepper, seed key) or None.

    The trials run trial-major: trial t is one `_run_trial` call on every
    text still open, each with a fresh stepper, and `nn.train` cuts them
    into stacks. A text stays open for trial t + 1 while its score reaches
    `threshold`, up to `trial_number` trials."""

    def fn(texts) -> list:
        parsed = {i: p for i, p in enumerate(map(parse, texts)) if p is not None}
        outcomes = {i: [] for i in parsed}  # text index -> its (score, failed)
        wave = list(parsed)
        for t in range(trial_number):
            if not wave:
                break
            trained = _run_trial(task, [parsed[i][0]() for i in wave], t,
                                 [parsed[i][1] for i in wave])
            for i, outcome in zip(wave, trained):
                outcomes[i].append(outcome)
            wave = [i for i in wave if outcomes[i][-1][0] >= threshold]
        return [fitness_alr(outcomes[i], trial_number, threshold).fitness
                if i in parsed else 0.0 for i in range(len(texts))]

    return fn


def fitness_alr(outcomes, trial_number: int = 5, threshold: float = 0.8) -> FitnessReport:
    """Multi-trial fitness from the (score, failed) of the trials a text ran,
    in trial order: the minimum score, cancelled early when a score below
    `threshold` ended the text before its `trial_number`-th trial."""
    scores = [score for score, _ in outcomes]
    return FitnessReport(
        trial_scores=scores,
        fitness=min(scores),
        trials_run=len(scores),
        cancelled_early=scores[-1] < threshold and len(scores) < trial_number,
        failed=any(failed for _, failed in outcomes),
    )


@dataclass
class GenerationStat:
    generation: int
    best: float
    mean: float
    median: float
    evaluations: int
    seconds: float


@dataclass
class EvolveRun:
    """An evolve run as far as it has got: what its hook gets after each
    generation, what a checkpoint holds, and what a resume continues."""

    seed: int
    search: str | None = None  # digest of what defines the search
    generation: int = -1  # the last generation evaluated
    population: list = field(default_factory=list)  # of Individual
    next_id: int = 0
    cache: dict = field(default_factory=dict)  # phenotype text -> fitness
    stats: list = field(default_factory=list)  # of GenerationStat, one per generation
    best: Individual | None = None  # the first individual to reach the best fitness


def _evaluate_wave(population, grammar, params, fitness_fn, cache, root: Rng,
                   generation: int, workers: int) -> int:
    """Assign fitness to every individual lacking one; returns how many.
    Generation 0 keeps the phenotypes its genotypes were drawn with."""
    pending = [ind for ind in population if ind.fitness is None]
    unmapped = [ind for ind in pending if ind.phenotype is None]
    repairs = Streams.of([root] * len(unmapped)).child(
        "repair", generation, [ind.id for ind in unmapped]).keys()
    for ind, key in zip(unmapped, repairs.tolist()):
        try:  # a failure part way leaves the next stream's draws alone
            ind.phenotype = draw_one(key, partial(map_genotype, grammar, ind.genotype,
                                                  params.max_depth))
        except MappingFailure:
            pass  # no phenotype: scores 0
    fresh = list(dict.fromkeys(
        ind.phenotype for ind in pending
        if ind.phenotype is not None and ind.phenotype not in cache
    ))
    # one piece per worker: fitness_fn trains each piece's texts in populations
    step = max(1, -(-len(fresh) // workers))
    pieces = [fresh[lo : lo + step] for lo in range(0, len(fresh), step)]
    for piece, fits in zip(pieces, parallel_map(fitness_fn, pieces, workers)):
        for text, fit in zip(piece, fits):
            cache[text] = float(fit)
    for ind in pending:
        ind.fitness = 0.0 if ind.phenotype is None else cache[ind.phenotype]
    return len(pending)


def _breed(population, params, grammar, root: Rng, generation: int, next_id: int):
    """Elites survive untouched; the rest come from tournament -> crossover
    (probability crossover_prob) -> mutation."""
    ranked = sorted(population, key=lambda ind: (-ind.fitness, ind.id))
    new_pop = ranked[: params.elitism]
    children = range(params.population_size - params.elitism)

    def streams(tag, rows, *more):  # child i's stream (tag, generation, i, *more)
        return Streams.of([root] * len(rows)).child(tag, generation, rows, *more)

    select = partial(tournament_select, population, params.tournament_size)
    firsts = streams("tour", children, 0).draw(select)
    coins = streams("xo", children).draw(lambda gen: gen.random())
    crossed = [i for i in children if coins[i] < params.crossover_prob]
    seconds = dict(zip(crossed, streams("tour", crossed, 1).draw(select)))
    crosses = iter(streams("cross", crossed).keys().tolist())  # in the order of `crossed`
    mutations = streams("mut", children).keys().tolist()
    for i, first, mutation in zip(children, firsts, mutations):
        geno = first.genotype
        if i in seconds:  # mutated as soon as it is made
            geno = draw_one(next(crosses), partial(crossover, geno, seconds[i].genotype))
        # mutate's copy is the child's one copy of its genes
        geno = draw_one(mutation, partial(mutate, geno, params.mutation_rate, grammar))
        new_pop.append(Individual(geno, id=next_id))
        next_id += 1
    return new_pop, next_id


def _population_stats(population, generation, evaluations, seconds) -> GenerationStat:
    fits = [ind.fitness for ind in population]
    return GenerationStat(
        generation=generation,
        best=max(fits),
        mean=statistics.fmean(fits),
        median=statistics.median(fits),
        evaluations=evaluations,
        seconds=seconds,
    )


def log_text(stats, header: bool) -> str:
    """CSV text of one log row per GenerationStat, after the header if asked."""
    out = io.StringIO()
    w = csv.writer(out)
    if header:
        w.writerow(LOG_COLUMNS)
    w.writerows([
        stat.generation,
        f"{stat.best:.6f}",
        f"{stat.mean:.6f}",
        f"{stat.median:.6f}",
        stat.evaluations,
        f"{stat.seconds:.3f}",
    ] for stat in stats)
    return out.getvalue()


def _individual_state(ind: Individual) -> dict:
    return {"genes": ind.genotype.genes, "used": ind.genotype.used,
            "fitness": ind.fitness, "phenotype": ind.phenotype, "id": ind.id}


def save_checkpoint(path, run: EvolveRun) -> None:
    """Write the run, as `evolve`'s hook gets it, to `path`, whole
    (`write_atomic`); `load_checkpoint` reads back an equal EvolveRun."""
    state = {
        "generation": run.generation,
        "next_id": run.next_id,
        "seed": run.seed,
        "search": run.search,
        "population": [_individual_state(ind) for ind in run.population],
        "cache": run.cache,
        "stats": [vars(s) for s in run.stats],
        "best": _individual_state(run.best),
    }
    write_atomic(path, json.dumps(state))


def write_atomic(path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it over
    `path`: a crash mid-write leaves the previous file, or none, intact. A
    write that raises (a full disk) removes the temporary file first."""
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")  # line ends as given
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _typed(value, *types):
    """`value` when its exact type is one of `types`, so that a bool is no
    int; TypeError otherwise."""
    if type(value) not in types:
        raise TypeError(f"{value!r} is not {' or '.join(t.__name__ for t in types)}")
    return value


_NUMBER = (int, float)


def _individual(d: dict) -> Individual:
    return Individual(
        Genotype(d["genes"], d["used"]),  # checks the genes and used counts
        phenotype=_typed(d["phenotype"], str, type(None)),
        fitness=_typed(d["fitness"], *_NUMBER, type(None)),
        id=_typed(d["id"], int),
    )


def load_checkpoint(path) -> EvolveRun:
    """The EvolveRun a checkpoint file holds; DataError when the file is not
    a checkpoint that save_checkpoint wrote, a field of the wrong type
    included."""
    try:
        state = json.loads(Path(path).read_text(encoding="utf-8"))
        stats = [GenerationStat(**s) for s in state["stats"]]
        for stat in stats:
            for value in (stat.generation, stat.evaluations):
                _typed(value, int)
            for value in (stat.best, stat.mean, stat.median, stat.seconds):
                _typed(value, *_NUMBER)
        cache = _typed(state["cache"], dict)  # JSON keys are text
        for fitness in cache.values():
            _typed(fitness, *_NUMBER)
        best = _individual(state["best"])
        _typed(best.fitness, *_NUMBER)
        return EvolveRun(
            seed=_typed(state["seed"], int), search=state.get("search"),
            generation=_typed(state["generation"], int),
            population=[_individual(d) for d in state["population"]],
            next_id=_typed(state["next_id"], int), cache=cache, stats=stats, best=best)
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise DataError(f"{path}: not an evolve checkpoint ({type(e).__name__}: {e})") from e


def evolve(
    params: EvoParams,
    grammar: Grammar,
    fitness_fn,
    *,
    resume_from=None,
    search: str | None = None,
    workers: int = 1,
    on_generation=None,
):
    """Run the generational loop, continuing `resume_from` (an EvolveRun
    such as `load_checkpoint` returns) where given; returns the EvolveRun.

    `fitness_fn(phenotype_texts) -> fitnesses`, one float per text in text
    order, carries all problem semantics; each text's fitness must not
    depend on the others in its list, since `workers` cuts a generation's
    fresh texts into one list per worker.
    Generation 0 is the evaluated random initialization; each later
    generation breeds, then evaluates exactly population_size - elitism
    newcomers (elites keep their cached fitness). The run's best is the
    first individual to reach the best fitness, ties within a generation
    going to the lower id; an individual is never changed once evaluated.
    `search`, a digest of what defines the search, goes into a fresh run,
    and so into its checkpoints; a resumed run keeps its checkpoint's.
    Nothing is written here: after each generation, `on_generation(run)`
    gets the run, its `stats` ending in that generation's row, and the
    caller decides which files to write. A resumed run with no generation
    left calls it never and returns `resume_from` as it came.
    """
    root = Rng(params.rng_seed).child("evolve")
    run = resume_from
    if run is None:
        seeding = Streams.of([root] * params.population_size).child(
            "seed-pop", range(params.population_size)).keys()
        derive = partial(random_derivation, grammar, params.max_depth)
        run = EvolveRun(
            seed=params.rng_seed, search=search, next_id=params.population_size,
            population=[Individual(*draw_one(key, derive), id=i)  # each made as it is drawn
                        for i, key in enumerate(seeding.tolist())])

    for generation in range(run.generation + 1, params.generations + 1):
        started = time.perf_counter()
        if generation > 0:
            run.population, run.next_id = _breed(
                run.population, params, grammar, root, generation, run.next_id
            )
        evaluations = _evaluate_wave(
            run.population, grammar, params, fitness_fn, run.cache, root, generation, workers
        )
        run.generation = generation
        run.stats.append(_population_stats(
            run.population, generation, evaluations, time.perf_counter() - started
        ))
        top = max(run.population, key=lambda ind: (ind.fitness, -ind.id))
        if run.best is None or top.fitness > run.best.fitness:
            run.best = top
        if on_generation is not None:
            on_generation(run)
    return run


def alr_fitness_fn(task: TrainingTask, trial_number: int = 5, threshold: float = 0.8):
    """Adapter: phenotype texts -> their fitnesses for update-rule search,
    each that of `fitness_alr` over the text's trials (0 for a text that does
    not parse)."""
    if trial_number < 1:
        raise ValueError("trial_number must be >= 1")
    if len(task.trial_groups) < trial_number:
        raise ValueError(
            f"task has {len(task.trial_groups)} training groups, "
            f"need {trial_number}"
        )

    def parse(text):
        try:
            spec = spec_from_phenotype(text)
        except (ExprError, SpecValidationError):
            return None
        # one compile per text: each trial's stepper is a fresh copy of this
        # one, with its own state and the compiled slots shared
        return partial(copy.copy, SpecStepper(spec)), spec.phenotype()

    return _population_fitness(task, parse, trial_number, threshold)


def dlr_fitness_fn(task: TrainingTask):
    """Adapter: phenotype texts -> their fitnesses for schedule search, each
    the test score of one training under the schedule (0 for a text that
    does not parse)."""

    def parse(text):
        try:
            policy = parse_policy(text)
        except PolicyError:
            return None
        return (partial(ScheduledSGD, policy, initial_lr=task.initial_lr),
                serialize_policy(policy))

    return _population_fitness(task, parse)
