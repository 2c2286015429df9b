"""Evolutionary driver: fitness functions, the generation loop, logs, checkpoints.

Two fitness protocols share one trainer:

* schedule search — train once on the full pool, score on the held-out test
  split (the policy only ever steers the learning rate; it never reads test
  data itself);
* update-rule search — up to `trial_number` trainings on disjoint training
  groups, fitness = the minimum test score so far, remaining trials cancelled
  the moment one falls below the acceptance threshold.

The generation loop is steady-state-free generational GE: elites carry their
fitness, everyone else is bred by tournament + crossover + mutation and
re-evaluated.  Fitness is cached by phenotype text, and every stochastic
choice derives from a keyed stream, so runs (and checkpoint resumes) are
bit-reproducible.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
from .optim import (
    ExprError,
    OptimizerSpec,
    SpecStepper,
    SpecValidationError,
    spec_from_phenotype,
)
from .sched import PolicyError, PolicyTree, ScheduledSGD, parse_policy, serialize_policy
from .tensor import Rng

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


def _run_trial(task: TrainingTask, stepper, trial_index: int, key: str):
    """One seeded training on trial group `trial_index`; returns (score, failed).

    Seeds derive from (task seed, phenotype key, trial index): identical
    phenotypes always see identical initial weights and batch orders, which
    is what makes phenotype-keyed fitness caching sound.
    """
    rng = Rng(task.seed).child("fitness", key, trial_index)
    data = (task.trial_groups[trial_index], task.validation)
    net, hist = train_seeded(task.layer_sizes, stepper, data, task.train_config, rng)
    if hist.failed:
        return 0.0, True
    return evaluate(net, task.test), False


def fitness_dlr(policy: PolicyTree, task: TrainingTask) -> float:
    """Train once under the schedule, return test accuracy (0 on failure)."""
    stepper = ScheduledSGD(policy, initial_lr=task.initial_lr)
    score, _ = _run_trial(task, stepper, 0, serialize_policy(policy))
    return score


def fitness_alr(
    spec: OptimizerSpec,
    task: TrainingTask,
    trial_number: int = 5,
    threshold: float = 0.8,
) -> FitnessReport:
    """Multi-trial fitness: running minimum with sub-threshold early cancel."""
    if trial_number < 1:
        raise ValueError("trial_number must be >= 1")
    if len(task.trial_groups) < trial_number:
        raise ValueError(
            f"task has {len(task.trial_groups)} training groups, "
            f"need {trial_number}"
        )
    scores: list[float] = []
    any_failed = False
    cancelled = False
    for t in range(trial_number):
        score, failed = _run_trial(task, SpecStepper(spec), t, spec.phenotype())
        any_failed = any_failed or failed
        scores.append(score)
        if score < threshold and t < trial_number - 1:
            cancelled = True
            break
    return FitnessReport(
        trial_scores=scores,
        fitness=min(scores),
        trials_run=len(scores),
        cancelled_early=cancelled,
        failed=any_failed,
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
class EvolveRunLog:
    seed: int
    stats: list = field(default_factory=list)  # of GenerationStat
    best_fitness: float = 0.0
    best_phenotype: str | None = None
    best_genotype: Genotype | None = None


def _evaluate_wave(population, grammar, params, fitness_fn, cache, root: Rng,
                   generation: int, workers: int) -> int:
    """Assign fitness to every individual lacking one; returns how many.
    Generation 0 keeps the phenotypes its genotypes were drawn with."""
    pending = [ind for ind in population if ind.fitness is None]
    for ind in pending:
        if ind.phenotype is None:
            try:
                ind.phenotype = map_genotype(
                    grammar, ind.genotype, max_depth=params.max_depth,
                    rng=root.child("repair", generation, ind.id),
                ).text()
            except MappingFailure:
                pass  # no phenotype: scores 0
    fresh = []
    seen = set()
    for ind in pending:
        if ind.phenotype is not None and ind.phenotype not in cache \
                and ind.phenotype not in seen:
            seen.add(ind.phenotype)
            fresh.append(ind.phenotype)
    if workers > 1 and len(fresh) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for text, fit in zip(fresh, pool.map(fitness_fn, fresh)):
                cache[text] = float(fit)
    else:
        for text in fresh:
            cache[text] = float(fitness_fn(text))
    for ind in pending:
        ind.fitness = 0.0 if ind.phenotype is None else cache[ind.phenotype]
    return len(pending)


def _breed(population, params, grammar, root: Rng, generation: int, next_id: int):
    """Elites survive untouched; the rest come from tournament -> crossover
    (probability crossover_prob) -> mutation."""
    ranked = sorted(population, key=lambda ind: (-ind.fitness, ind.id))
    new_pop = ranked[: params.elitism]
    for i in range(params.population_size - params.elitism):
        first = tournament_select(
            population, params.tournament_size, root.child("tour", generation, i, 0)
        )
        if root.child("xo", generation, i).random() < params.crossover_prob:
            second = tournament_select(
                population, params.tournament_size, root.child("tour", generation, i, 1)
            )
            geno = crossover(
                first.genotype, second.genotype, root.child("cross", generation, i)
            )
        else:
            geno = first.genotype.copy()
        geno = mutate(geno, params.mutation_rate, grammar, root.child("mut", generation, i))
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


def _write_log_rows(path, stats, mode: str = "a") -> None:
    """Write one log row per GenerationStat, after the header when `mode` is
    "w" or the file is new."""
    header = mode == "w" or not Path(path).exists()
    with open(path, mode, newline="") as f:
        w = csv.writer(f)
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


def save_checkpoint(path, params: EvoParams, generation: int, population,
                    next_id: int, cache: dict, log: EvolveRunLog) -> None:
    state = {
        "generation": generation,
        "next_id": next_id,
        "seed": params.rng_seed,
        "population": [
            {
                "genes": ind.genotype.genes,
                "used": ind.genotype.used,
                "fitness": ind.fitness,
                "phenotype": ind.phenotype,
                "id": ind.id,
            }
            for ind in population
        ],
        "cache": cache,
        "stats": [vars(s) for s in log.stats],
        "best": {
            "fitness": log.best_fitness,
            "phenotype": log.best_phenotype,
            "genotype": None
            if log.best_genotype is None
            else {"genes": log.best_genotype.genes, "used": log.best_genotype.used},
        },
    }
    # a crash mid-write leaves the previous checkpoint intact
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    tmp.write_text(json.dumps(state), encoding="utf-8")
    os.replace(tmp, path)


def load_checkpoint(path):
    """(generation, population, next_id, cache, log) from a checkpoint file;
    DataError when the file is not a checkpoint that save_checkpoint wrote."""
    try:
        state = json.loads(Path(path).read_text(encoding="utf-8"))
        population = [
            Individual(
                Genotype(d["genes"], d["used"]),
                phenotype=d["phenotype"],
                fitness=d["fitness"],
                id=d["id"],
            )
            for d in state["population"]
        ]
        log = EvolveRunLog(seed=state["seed"])
        log.stats = [GenerationStat(**s) for s in state["stats"]]
        log.best_fitness = state["best"]["fitness"]
        log.best_phenotype = state["best"]["phenotype"]
        if state["best"]["genotype"] is not None:
            log.best_genotype = Genotype(
                state["best"]["genotype"]["genes"], state["best"]["genotype"]["used"]
            )
        return state["generation"], population, state["next_id"], state["cache"], log
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise DataError(f"{path}: not an evolve checkpoint ({type(e).__name__}: {e})") from e


def evolve(
    params: EvoParams,
    grammar: Grammar,
    fitness_fn,
    *,
    log_path=None,
    checkpoint_path=None,
    resume_from=None,
    workers: int = 1,
    on_generation=None,
):
    """Run the generational loop; returns (best Individual, EvolveRunLog).

    `fitness_fn(phenotype_text) -> float` carries all problem semantics.
    Generation 0 is the evaluated random initialization; each later
    generation breeds, then evaluates exactly population_size - elitism
    newcomers (elites keep their cached fitness). `resume_from` is a
    checkpoint path or what `load_checkpoint` returned for one; resuming
    rewrites `log_path` from the checkpoint's stats before appending, so the
    log holds each generation once.
    """
    root = Rng(params.rng_seed).child("evolve")
    cache: dict = {}
    if resume_from is not None:
        if isinstance(resume_from, (str, os.PathLike)):
            resume_from = load_checkpoint(resume_from)
        start_gen, population, next_id, cache, log = resume_from
        start_gen += 1
        if log_path is not None:
            # drop rows a crash logged past the checkpoint; a crash mid-write
            # leaves the previous log intact
            tmp = Path(log_path).with_name(Path(log_path).name + ".tmp")
            _write_log_rows(tmp, log.stats, "w")
            os.replace(tmp, log_path)
    else:
        population = []
        for i in range(params.population_size):
            geno, derivation = random_derivation(
                grammar, params.max_depth, root.child("seed-pop", i)
            )
            population.append(Individual(geno, derivation.text(), id=i))
        next_id = params.population_size
        log = EvolveRunLog(seed=params.rng_seed)
        start_gen = 0

    def finish_generation(generation, evaluations, started):
        stat = _population_stats(
            population, generation, evaluations, time.perf_counter() - started
        )
        log.stats.append(stat)
        top = max(population, key=lambda ind: (ind.fitness, -ind.id))
        if top.fitness > log.best_fitness or log.best_genotype is None:
            log.best_fitness = top.fitness
            log.best_phenotype = top.phenotype
            log.best_genotype = top.genotype.copy()
        if log_path is not None:
            _write_log_rows(log_path, [stat])
        if checkpoint_path is not None:
            save_checkpoint(
                checkpoint_path, params, generation, population, next_id, cache, log
            )
        if on_generation is not None:
            on_generation(stat, log)

    for generation in range(start_gen, params.generations + 1):
        started = time.perf_counter()
        if generation > 0:
            population, next_id = _breed(
                population, params, grammar, root, generation, next_id
            )
        evaluations = _evaluate_wave(
            population, grammar, params, fitness_fn, cache, root, generation, workers
        )
        finish_generation(generation, evaluations, started)

    best = max(population, key=lambda ind: (ind.fitness, -ind.id))
    if log.best_fitness > best.fitness:
        best = Individual(
            log.best_genotype, phenotype=log.best_phenotype,
            fitness=log.best_fitness, id=-1,
        )
    return best, log


def alr_fitness_fn(task: TrainingTask, trial_number: int = 5, threshold: float = 0.8):
    """Adapter: phenotype text -> scalar fitness for update-rule search."""

    def fn(text: str) -> float:
        try:
            spec = spec_from_phenotype(text)
        except (ExprError, SpecValidationError):
            return 0.0
        return fitness_alr(spec, task, trial_number, threshold).fitness

    return fn


def dlr_fitness_fn(task: TrainingTask):
    """Adapter: phenotype text -> scalar fitness for schedule search."""

    def fn(text: str) -> float:
        try:
            policy = parse_policy(text)
        except PolicyError:
            return 0.0
        return fitness_dlr(policy, task)

    return fn
