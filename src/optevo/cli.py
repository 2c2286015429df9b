"""Command-line entry point: evolve / benchmark / tune / grammar-check.

Configs are JSON; every field is schema-checked before any compute starts,
and command-line flags override config fields.  `evolve` searches update
rules or learning-rate schedules, whichever its grammar derives.  All outputs
land under a run directory named by timestamp + seed.  Exit codes: 0 success,
1 check failure, 2 config error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import (
    SCENARIO_PRESETS,
    BenchError,
    BenchmarkScenario,
    run_benchmark,
    summarize,
)
from .data import (
    SYNTHETIC_KINDS,
    DataError,
    Dataset,
    SplitPlan,
    load_cifar10,
    load_idx,
    split,
    synthetic,
)
from .dsge import EvoParams, load_shipped_genotype, map_genotype, SHIPPED_GENOTYPES
from .evolve import (
    TrainingTask,
    alr_fitness_fn,
    dlr_fitness_fn,
    evolve,
    load_checkpoint,
)
from .grammar import (
    CONST_GRID_RANGE,
    CONST_GRID_STEPS,
    Grammar,
    GrammarError,
    Nonterminal,
    alternative_text,
    is_scheduler_grammar,
    load_shipped_grammar,
    parse_grammar,
    sigmoidal_constants,
)
from .hyperopt import TuneError, report_best, space_for, tune, write_tune_csv
from .nn import NetworkError, TrainConfig
from .optim import (
    BUILTIN_NAMES,
    HyperParams,
    OptState,
    adam_core_spec,
    builtin,
    spec_from_json,
    spec_from_phenotype,
    spec_to_json,
    step,
)
from .sched import PolicyError, parse_policy, serialize_policy
from .tensor import Rng

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3

DATA_DIR_ENV = "OPTEVO_DATA_DIR"


class ConfigError(Exception):
    pass


class DataMissing(Exception):
    pass


_REQUIRED = object()


def _field(cfg: dict, key: str, kind, default=_REQUIRED, where: str = "config"):
    """Typed field lookup with schema-style diagnostics."""
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required field {key!r}")
        return default
    value = cfg[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is not bool and isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected {kind.__name__}, got bool")
    if not isinstance(value, kind):
        raise ConfigError(
            f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _check_keys(cfg: dict, allowed, where: str = "config") -> None:
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(unknown)}")


def _load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON ({e})") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"{p}: top level must be an object")
    return cfg


def _data_path(p: str) -> Path:
    path = Path(p)
    if not path.is_absolute():
        base = os.environ.get(DATA_DIR_ENV)
        if base:
            path = Path(base) / path
    if not path.is_file():
        raise DataMissing(f"data file not found: {path}")
    return path


def resolve_dataset(cfg: dict, where: str = "config.task.dataset") -> Dataset:
    kind = _field(cfg, "kind", str, where=where)
    if kind in SYNTHETIC_KINDS:
        _check_keys(cfg, {"kind", "n", "noise", "seed"}, where)
        return synthetic(
            kind,
            _field(cfg, "n", int, where=where),
            noise=_field(cfg, "noise", float, 0.1, where=where),
            seed=_field(cfg, "seed", int, 0, where=where),
        )
    if kind == "idx":
        _check_keys(cfg, {"kind", "images", "labels", "name"}, where)
        return load_idx(
            _data_path(_field(cfg, "images", str, where=where)),
            _data_path(_field(cfg, "labels", str, where=where)),
            name=_field(cfg, "name", str, "idx", where=where),
        )
    if kind == "cifar10":
        _check_keys(cfg, {"kind", "batches", "name"}, where)
        batches = _field(cfg, "batches", list, where=where)
        return load_cifar10(
            [_data_path(b) for b in batches],
            name=_field(cfg, "name", str, "cifar10", where=where),
        )
    raise ConfigError(f"{where}.kind: unknown dataset kind {kind!r}")


def build_split_plan(cfg: dict, where: str = "config.task.split") -> SplitPlan:
    """A SplitPlan with at least one non-empty trial group, validation set
    and test set: an empty one would leave nothing to train or score on."""
    _check_keys(
        cfg,
        {"train_total", "per_trial", "trial_count", "validation", "test", "seed"},
        where,
    )
    sizes = {key: _field(cfg, key, int, where=where)
             for key in ("train_total", "per_trial", "trial_count", "validation", "test")}
    for key in ("trial_count", "per_trial", "validation", "test"):
        if sizes[key] < 1:
            raise ConfigError(f"{where}.{key}: must be >= 1")
    try:
        return SplitPlan(**sizes, seed=_field(cfg, "seed", int, 0, where=where))
    except DataError as e:
        raise ConfigError(f"{where}: {e}") from e


def build_task(cfg: dict, seed: int, where: str = "config.task"):
    """Returns (TrainingTask, Splits) from a task config block."""
    _check_keys(
        cfg,
        {"dataset", "split", "layer_sizes", "batch_size", "max_epochs",
         "early_stop", "patience", "initial_lr"},
        where,
    )
    master = resolve_dataset(_field(cfg, "dataset", dict, where=where),
                             f"{where}.dataset")
    plan = build_split_plan(_field(cfg, "split", dict, where=where),
                            f"{where}.split")
    splits = split(master, plan)
    layer_sizes = _field(cfg, "layer_sizes", list, where=where)
    if len(layer_sizes) < 2 or not all(isinstance(s, int) and s > 0 for s in layer_sizes):
        raise ConfigError(f"{where}.layer_sizes: need a list of at least two positive ints")
    if layer_sizes[0] != master.x.shape[1]:
        raise ConfigError(
            f"{where}.layer_sizes: input size {layer_sizes[0]}, but the dataset "
            f"has {master.x.shape[1]} features"
        )
    if layer_sizes[-1] < master.n_classes:
        raise ConfigError(
            f"{where}.layer_sizes: output size {layer_sizes[-1]}, but the dataset "
            f"has {master.n_classes} classes"
        )
    try:
        train_config = TrainConfig(
            batch_size=_field(cfg, "batch_size", int, 1000, where=where),
            max_epochs=_field(cfg, "max_epochs", int, 100, where=where),
            early_stop=_field(cfg, "early_stop", bool, True, where=where),
            patience=_field(cfg, "patience", int, 5, where=where),
        )
    except NetworkError as e:
        raise ConfigError(f"{where}: {e}") from e
    task = TrainingTask(
        trial_groups=splits.trial_groups,
        validation=splits.validation,
        test=splits.test,
        layer_sizes=layer_sizes,
        train_config=train_config,
        seed=seed,
        initial_lr=_field(cfg, "initial_lr", float, 0.01, where=where),
    )
    return task, splits


def build_evo_params(cfg: dict, seed: int, args) -> EvoParams:
    evo = _field(cfg, "evo", dict, {}, where="config")
    _check_keys(
        evo,
        {"population", "generations", "tournament", "mutation", "elitism",
         "max_depth", "crossover"},
        "config.evo",
    )
    values = dict(
        population_size=_field(evo, "population", int, 20, "config.evo"),
        generations=_field(evo, "generations", int, 1500, "config.evo"),
        tournament_size=_field(evo, "tournament", int, 5, "config.evo"),
        mutation_rate=_field(evo, "mutation", float, 0.15, "config.evo"),
        elitism=_field(evo, "elitism", int, 1, "config.evo"),
        max_depth=_field(evo, "max_depth", int, 6, "config.evo"),
        crossover_prob=_field(evo, "crossover", float, 0.9, "config.evo"),
        rng_seed=seed,
    )
    if getattr(args, "generations", None) is not None:
        values["generations"] = args.generations
    if getattr(args, "population", None) is not None:
        values["population_size"] = args.population
    try:
        return EvoParams(**values)
    except ValueError as e:
        raise ConfigError(f"config.evo: {e}") from e


def resolve_grammar(name_or_path: str) -> Grammar:
    if name_or_path in ("alr", "dlr"):
        return load_shipped_grammar(name_or_path)
    p = Path(name_or_path)
    if not p.is_file():
        raise ConfigError(f"grammar file not found: {p}")
    try:
        return parse_grammar(p.read_text(encoding="utf-8"))
    except GrammarError as e:
        raise ConfigError(f"{p}: {e}") from e


def make_run_dir(base, seed: int, pinned=None) -> Path:
    if pinned is not None:
        run = Path(pinned)
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        run = Path(base) / f"{stamp}_s{seed}"
        n = 0
        while run.exists():
            n += 1
            run = Path(base) / f"{stamp}_s{seed}_{n}"
    run.mkdir(parents=True, exist_ok=True)
    return run


def _resolve_seed(cfg: dict, args) -> int:
    seed = _field(cfg, "seed", int, 0)
    return args.seed if getattr(args, "seed", None) is not None else seed


def _resolve_workers(cfg: dict, args) -> int:
    workers = _field(cfg, "workers", int, os.cpu_count() or 1)
    if getattr(args, "workers", None) is not None:
        workers = args.workers
    if workers < 1:
        raise ConfigError("config.workers: must be >= 1")
    return workers


def _echo_config(run_dir: Path, cfg: dict, extras: dict) -> None:
    (run_dir / "config.json").write_text(
        json.dumps({**cfg, **extras}, indent=2, default=str), encoding="utf-8"
    )


# --- evolve -------------------------------------------------------------------


def cmd_evolve(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        {"seed", "evo", "grammar", "task", "trials", "threshold", "workers",
         "out", "resume"},
    )
    seed = _resolve_seed(cfg, args)
    params = build_evo_params(cfg, seed, args)
    grammar = resolve_grammar(_field(cfg, "grammar", str, "alr"))
    scheduler = is_scheduler_grammar(grammar)
    if scheduler and {"trials", "threshold"} & cfg.keys():
        raise ConfigError("config: trials and threshold need an optimizer grammar")
    task, splits = build_task(_field(cfg, "task", dict), seed)
    workers = _resolve_workers(cfg, args)
    if scheduler:
        fitness_fn = dlr_fitness_fn(task)
    else:
        trials = _field(cfg, "trials", int, len(task.trial_groups))
        threshold = _field(cfg, "threshold", float, 0.8)
        if trials > len(task.trial_groups):
            raise ConfigError(
                f"config.trials: {trials} > {len(task.trial_groups)} trial groups"
            )
        fitness_fn = alr_fitness_fn(task, trial_number=trials, threshold=threshold)
    resume = args.resume or _field(cfg, "resume", str, None)
    checkpoint = None
    if resume is not None:
        if not Path(resume).is_file():
            raise DataMissing(f"checkpoint not found: {resume}")
        checkpoint = load_checkpoint(resume)  # malformed: DataError, no run dir
        _, population, _, _, log = checkpoint
        if (log.seed, len(population)) != (seed, params.population_size):
            raise DataError(
                f"{resume}: checkpoint has seed {log.seed} and population "
                f"{len(population)}, the run has seed {seed} and population "
                f"{params.population_size}"
            )
    run_dir = make_run_dir(_field(cfg, "out", str, "runs"), seed, args.run_dir)

    best, log = evolve(
        params,
        grammar,
        fitness_fn,
        log_path=run_dir / "log.csv",
        checkpoint_path=run_dir / "checkpoint.json",
        resume_from=checkpoint,
        workers=workers,
    )

    _echo_config(run_dir, cfg,
                 {"resolved_seed": seed, "mode": "dlr" if scheduler else "alr"})
    record = {"fitness": best.fitness, "phenotype": best.phenotype,
              "genotype": vars(best.genotype)}  # its genes and used counts
    (run_dir / "best.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    if best.phenotype is not None and scheduler:
        policy = serialize_policy(parse_policy(best.phenotype))
        (run_dir / "best_policy.txt").write_text(policy + "\n", encoding="utf-8")
    elif best.phenotype is not None:
        spec = spec_to_json(spec_from_phenotype(best.phenotype, name="evolved"))
        (run_dir / "best_spec.json").write_text(spec, encoding="utf-8")
    (run_dir / "indices.json").write_text(
        json.dumps({"evolution_indices": splits.evolution_indices().tolist()}),
        encoding="utf-8",
    )
    print(f"run dir: {run_dir}")
    print(f"best fitness: {best.fitness:.6f}")
    print(f"best phenotype: {best.phenotype}")
    return EXIT_OK


# --- benchmark ----------------------------------------------------------------


def _stepper_from_config(item, where: str):
    if isinstance(item, str):
        return item
    if isinstance(item, dict):
        _check_keys(item, {"name", "hyperparams", "spec_file", "policy_file"}, where)
        if "spec_file" in item:
            p = Path(_field(item, "spec_file", str, where=where))
            if not p.is_file():
                raise DataMissing(f"spec file not found: {p}")
            return spec_from_json(p.read_text(encoding="utf-8"))
        if "policy_file" in item:
            p = Path(_field(item, "policy_file", str, where=where))
            if not p.is_file():
                raise DataMissing(f"policy file not found: {p}")
            try:
                return parse_policy(p.read_text(encoding="utf-8").strip())
            except PolicyError as e:
                raise ConfigError(f"{where}: {e}") from e
        name = _field(item, "name", str, where=where)
        if name not in BUILTIN_NAMES:
            raise ConfigError(
                f"{where}.name: unknown optimizer {name!r}; "
                f"expected one of {', '.join(BUILTIN_NAMES)}"
            )
        hp_cfg = _field(item, "hyperparams", dict, {}, where=where)
        try:
            hp = replace(HyperParams.defaults_for(name), **hp_cfg)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{where}.hyperparams: {e}") from e
        return (name, hp)
    raise ConfigError(f"{where}: entry must be a name or an object")


def cmd_benchmark(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        {"seed", "name", "preset", "epochs", "early_stop", "repetitions",
         "batch_size", "patience", "steppers", "task", "test_source",
         "workers", "out"},
    )
    seed = _resolve_seed(cfg, args)
    workers = _resolve_workers(cfg, args)
    stepper_cfgs = _field(cfg, "steppers", list)
    if not stepper_cfgs:
        raise ConfigError("config.steppers: must not be empty")
    steppers = [
        _stepper_from_config(item, f"config.steppers[{i}]")
        for i, item in enumerate(stepper_cfgs)
    ]
    task, splits = build_task(_field(cfg, "task", dict), seed)
    test_source = _field(cfg, "test_source", str, "split")
    if test_source not in ("split", "reserve"):
        raise ConfigError("config.test_source: must be 'split' or 'reserve'")
    test_set = splits.reserve if test_source == "reserve" else splits.test
    if len(test_set) == 0:
        raise DataError(f"benchmark test set ({test_source}) is empty")

    preset = _field(cfg, "preset", str, None)
    defaults = {"epochs": 100, "early_stop": True}
    if preset is not None:
        if preset not in SCENARIO_PRESETS:
            raise ConfigError(f"config.preset: unknown preset {preset!r}")
        defaults = SCENARIO_PRESETS[preset]
    repetitions = _field(cfg, "repetitions", int, 5)
    if getattr(args, "repetitions", None) is not None:
        repetitions = args.repetitions
    try:
        scenario = BenchmarkScenario(
            name=_field(cfg, "name", str, preset or "scenario"),
            steppers=steppers,
            train=splits.train_pool,
            validation=task.validation,
            test=test_set,
            layer_sizes=task.layer_sizes,
            epochs=_field(cfg, "epochs", int, defaults["epochs"]),
            early_stop=_field(cfg, "early_stop", bool, defaults["early_stop"]),
            repetitions=repetitions,
            batch_size=task.train_config.batch_size,
            patience=task.train_config.patience,
        )
    except BenchError as e:
        raise ConfigError(str(e)) from e
    run_dir = make_run_dir(_field(cfg, "out", str, "runs"), seed, args.run_dir)
    results = run_benchmark(scenario, seed=seed, out_dir=run_dir, workers=workers)
    _echo_config(run_dir, cfg, {"resolved_seed": seed})
    (run_dir / "indices.json").write_text(
        json.dumps({"test_indices": test_set.source_indices.tolist()}),
        encoding="utf-8",
    )
    print(f"run dir: {run_dir}")
    print(summarize(results), end="")
    return EXIT_OK


# --- tune ---------------------------------------------------------------------


def cmd_tune(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(
        cfg,
        {"seed", "optimizer", "budget", "random_search", "task", "workers", "out"},
    )
    seed = _resolve_seed(cfg, args)
    _resolve_workers(cfg, args)  # checked like the other commands, then unused
    opt = _field(cfg, "optimizer", str)
    try:
        space = space_for(opt)
    except TuneError as e:
        raise ConfigError(str(e)) from e
    budget = _field(cfg, "budget", int, 25)
    if getattr(args, "budget", None) is not None:
        budget = args.budget
    task, _splits = build_task(_field(cfg, "task", dict), seed)
    try:
        best, history = tune(
            opt,
            space,
            budget=budget,
            task=task,
            seed=seed,
            random_search=_field(cfg, "random_search", bool, False),
        )
    except TuneError as e:
        raise ConfigError(str(e)) from e
    run_dir = make_run_dir(_field(cfg, "out", str, "runs"), seed, args.run_dir)
    write_tune_csv(run_dir / f"tune_{opt}.csv", space, history)
    row = report_best(history)
    (run_dir / "best.txt").write_text(row + "\n", encoding="utf-8")
    _echo_config(run_dir, cfg, {"resolved_seed": seed})
    print(f"run dir: {run_dir}")
    print(row)
    return EXIT_OK


# --- grammar-check ------------------------------------------------------------


def _grid_tokens() -> list:
    """The constant grid as spelled in the optimizer grammar's <*_const> rules."""
    return [f"{v:.8e}" for v in
            sigmoidal_constants(*CONST_GRID_RANGE, CONST_GRID_STEPS)]


def _alt_texts(g: Grammar, nt: str) -> list:
    return [alternative_text(alt) for alt in g.expansions(nt)]


def _grid_hyperparams() -> HyperParams:
    """The constant-grid values the shipped genotypes encode."""
    grid = [float(t) for t in _grid_tokens()]

    def at(k: float) -> float:
        return grid[round((k - CONST_GRID_RANGE[0]) * 2)]

    return HyperParams(
        lr=at(-4.5), mom=at(2.0), rho=at(2.5),
        beta1=at(2.0), beta2=at(3.5), epsilon=at(-10.0),
    )


def _genotype_matches_reference(g: Grammar, name: str) -> tuple[bool, str]:
    derivation = map_genotype(g, load_shipped_genotype(name))
    mapped = spec_from_phenotype(derivation.text(), name=name)
    hp = _grid_hyperparams()
    reference = adam_core_spec(hp) if name == "adam_core" else builtin(name, hp)
    rng = Rng(2024).child("grammar-check", name)
    for case in range(20):
        r = rng.child(case)
        w_a = w_b = r.normal(size=4)
        s_a = OptState.zeros((4,))
        s_b = OptState.zeros((4,))
        for t in range(10):
            grad = r.child("g", t).normal(size=4)
            w_a, s_a = step(mapped, s_a, w_a, grad)
            w_b, s_b = step(reference, s_b, w_b, grad)
            if np.max(np.abs(w_a - w_b)) > 1e-9:
                return False, f"trajectory diverged at case {case}, step {t}"
    return True, "20 trajectories × 10 steps within 1e-9"


def _variables_in(terms) -> set:
    """Variable identifiers mentioned by a set of grammar terminals.

    Terminals may be composite tokens such as ``add(x,``; function names
    (identifiers immediately followed by ``(``) don't count as variables.
    """
    found = set()
    for t in terms:
        found.update(re.findall(r"\b[a-z][a-z_]*\b(?!\()", t))
    return found


def _run_checks(named) -> list:
    """(name, passed, detail) for each (name, check function) pair."""
    checks = []
    for name, fn in named:
        try:
            ok, detail = fn()
        except Exception as e:  # a failed precondition is a failed check
            ok, detail = False, f"{type(e).__name__}: {e}"
        checks.append((name, ok, detail))
    return checks


def grammar_health_checks(g: Grammar) -> list:
    """(name, passed, detail) triples for the optimizer-grammar contract."""

    def sections():
        needed = ["x_expr", "y_expr", "z_expr", "weight_expr"]
        missing = [nt for nt in needed if nt not in g.rules]
        if missing:
            return False, f"missing rules: {', '.join(missing)}"
        return True, "x/y/z/weight sections present"

    def barrier():
        if "grad" in _variables_in(g.reachable_terminals("weight_expr")):
            return False, "grad is reachable from the weight update"
        return True, "weight update cannot read the raw gradient"

    def aux_ordering():
        want = {
            "x_expr": ({"x", "grad"}, {"y", "z", "alpha"}),
            "y_expr": ({"y", "x", "grad"}, {"z", "alpha"}),
            "z_expr": ({"z", "x", "y", "grad"}, {"alpha"}),
        }
        for nt, (required, forbidden) in want.items():
            seen = _variables_in(g.reachable_terminals(nt))
            missing = required - seen
            illegal = forbidden & seen
            if missing or illegal:
                return (
                    False,
                    f"<{nt}>: missing {sorted(missing)}, illegal {sorted(illegal)}",
                )
        return True, "each slot sees exactly the earlier slots plus grad"

    def alpha_reaches_weight():
        if "alpha" not in _variables_in(g.reachable_terminals("weight_expr")):
            return False, "weight update cannot accumulate onto alpha"
        return True, "alpha accumulator reachable from the weight update"

    def const_grid():
        grid = _grid_tokens()
        if grid[0] != "4.53978687e-05" or grid[-1] != "9.99954602e-01":
            return False, f"grid endpoints {grid[0]} … {grid[-1]}"
        rules = [nt for nt in g.nonterminals if nt.endswith("_const")]
        if not rules:
            return False, "no <*_const> rules"
        off_grid = [nt for nt in rules if _alt_texts(g, nt) != grid]
        if off_grid:
            return False, f"not exactly the {len(grid)}-point grid: {off_grid}"
        return True, (f"{len(rules)} <*_const> rules × {len(grid)} sigmoid-spaced "
                      f"constants, {grid[0]} … {grid[-1]}")

    return _run_checks([
        ("sections", sections),
        ("weight-gradient-barrier", barrier),
        ("aux-slot-ordering", aux_ordering),
        ("alpha-accumulator", alpha_reaches_weight),
        ("constant-grid", const_grid),
        *((f"genotype-{name}", lambda name=name: _genotype_matches_reference(g, name))
          for name in SHIPPED_GENOTYPES),
    ])


def scheduler_health_checks(g: Grammar) -> list:
    """(name, passed, detail) triples for the scheduler-grammar contract."""

    def tree_shape():
        alts = _alt_texts(g, "expr")
        ok = any(a.startswith("if(") for a in alts) and "<lr_const>" in alts
        return ok, "<expr> ::= " + " | ".join(alts)

    def positive_leaves():
        leaves = set()  # whatever <expr>'s non-recursive alternatives derive
        for i in g.non_recursive_alternatives("expr"):
            for sym in g.expansions("expr")[i]:
                leaves |= (g.reachable_terminals(sym.name)
                           if isinstance(sym, Nonterminal) else {sym.text})

        def positive(token):
            try:
                return 0 < float(token) < np.inf
            except ValueError:
                return False

        bad = sorted(t for t in leaves if not positive(t))
        if bad:
            return False, f"leaves not finite and > 0: {bad}"
        return True, f"{len(leaves)} leaf rates, all finite and > 0"

    def grid(nt, want, what):
        ok = _alt_texts(g, nt) == want
        return ok, f"<{nt}> {'is' if ok else 'is not'} {what}"

    # 0.01, the known-good static rate for the reference network, then the
    # sigmoid grid rescaled onto [1e-5, 1]
    sig = sigmoidal_constants(*CONST_GRID_RANGE, CONST_GRID_STEPS)
    lr_grid = ["1.00000000e-02"] + [
        f"{1e-5 + (v - sig[0]) * (1.0 - 1e-5) / (sig[-1] - sig[0]):.8e}" for v in sig
    ]
    return _run_checks([
        ("tree-shape", tree_shape),
        ("positive-leaves", positive_leaves),
        ("epoch-grid", lambda: grid("epoch_const", [str(e) for e in range(0, 101, 5)],
                                    "0..100 in steps of 5")),
        ("lr-grid", lambda: grid("lr_const", lr_grid,
                                 "0.01, then the sigmoid grid rescaled onto [1e-5, 1]")),
    ])


def cmd_grammar_check(args) -> int:
    try:
        grammar = resolve_grammar(args.grammar)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    checks = (scheduler_health_checks if is_scheduler_grammar(grammar)
              else grammar_health_checks)(grammar)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {name} — {detail}")
    failed = sum(1 for _, ok, _ in checks if not ok)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


# --- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optevo",
        description="Evolve, benchmark, and tune learning-rate optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_config=True):
        if with_config:
            p.add_argument("config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override config seed")
        p.add_argument("--workers", type=int, default=None,
                       help="parallel evaluation cap (default: all cores)")
        p.add_argument("--run-dir", default=None,
                       help="exact output directory (default: runs/<stamp>_s<seed>)")

    p_evolve = sub.add_parser("evolve", help="evolve update rules or LR schedules")
    common(p_evolve)
    p_evolve.add_argument("--generations", type=int, default=None)
    p_evolve.add_argument("--population", type=int, default=None)
    p_evolve.add_argument("--resume", default=None,
                          help="checkpoint file to resume from")

    p_bench = sub.add_parser("benchmark", help="compare optimizers head-to-head")
    common(p_bench)
    p_bench.add_argument("--repetitions", type=int, default=None)

    p_tune = sub.add_parser("tune", help="Bayesian hyperparameter search")
    common(p_tune)
    p_tune.add_argument("--budget", type=int, default=None)

    p_check = sub.add_parser("grammar-check",
                             help="validate an optimizer or scheduler grammar")
    p_check.add_argument(
        "grammar",
        help="grammar file, or 'alr' / 'dlr'; a grammar with an <lr_const> "
             "rule gets the scheduler checks",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "evolve":
            return cmd_evolve(args)
        if args.command == "benchmark":
            return cmd_benchmark(args)
        if args.command == "tune":
            return cmd_tune(args)
        if args.command == "grammar-check":
            return cmd_grammar_check(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except BenchError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataMissing as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
