"""Command-line entry point: evolve / benchmark / tune / grammar-check.

This module validates configs and dispatches; the work is done in the
library, and grammar-check's contract lives in `optevo.check`.  Configs are
JSON, read against one key table per section before any data load; a flag
overrides the key of its name, and a run's config.json is the resolved
config, which reruns it.  `evolve` searches update rules or
learning-rate schedules, whichever its grammar derives.  All outputs land
under a run directory named by timestamp + seed, and this module alone
decides which files a run writes and when: the library hands back state and
text.  Every file is written whole through `write_atomic`, but for the rows
appended to `log.csv`.  Exit codes: 0 success, 1 check failure, 2 config
error, 3 data error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import (
    SCENARIO_PRESETS,
    BenchError,
    BenchmarkScenario,
    bench_csv,
    make_entry,
    run_benchmark,
    summarize,
)
from .data import (
    SYNTHETIC_KINDS,
    DataError,
    SplitPlan,
    load_cifar10,
    load_idx,
    split,
    synthetic,
)
from .check import grammar_health_checks, scheduler_health_checks
from .dsge import EvoParams, Individual
from .evolve import (
    TrainingTask,
    alr_fitness_fn,
    dlr_fitness_fn,
    evolve,
    load_checkpoint,
    log_text,
    save_checkpoint,
    write_atomic,
)
from .grammar import (
    Grammar,
    GrammarError,
    is_scheduler_grammar,
    load_shipped_grammar,
    parse_grammar,
    serialize_grammar,
)
from .hyperopt import TuneError, report_best, space_for, tune, tune_csv
from .nn import NetworkError, TrainConfig
from .optim import BUILTIN_READS, HyperParams, spec_from_json, spec_from_phenotype, spec_to_json
from .sched import parse_policy, serialize_policy

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3

DATA_DIR_ENV = "OPTEVO_DATA_DIR"


class ConfigError(Exception):
    pass


_REQUIRED = object()


def _field(cfg: dict, key: str, kind, default=_REQUIRED, where: str = "config"):
    """Typed field lookup with schema-style diagnostics; an int is promoted to
    float, a bool is no number, and a `list[...]` kind checks each entry."""
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required field {key!r}")
        return default
    value = cfg[key]
    container = getattr(kind, "__origin__", kind)  # list, for list[int]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if container is not bool and isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected {container.__name__}, got bool")
    if not isinstance(value, container):
        raise ConfigError(
            f"{where}.{key}: expected {container.__name__}, got {type(value).__name__}"
        )
    if container is not kind:  # read each entry as the field key[i]
        entries = {f"{key}[{i}]": entry for i, entry in enumerate(value)}
        return [_field(entries, k, kind.__args__[0], where=where) for k in entries]
    return value


def _check_keys(cfg: dict, allowed, where: str = "config") -> None:
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(unknown)}")


def _key(kind, default=_REQUIRED, *, least=None, flag=None) -> tuple:
    """A key table entry: type, default (_REQUIRED: none; None: an unset key
    stays out), least value, and the help of the flag of the key's name."""
    return kind, default, least, flag


def _read(cfg: dict, table: dict, where: str, flags=None) -> dict:
    """Section `cfg` resolved against its key table in one pass: unknown keys,
    ill-typed values, floats that are not finite (JSON as Python reads it
    has NaN and Infinity) and values below their least are refused, and a
    flag set in `flags` wins over the config, which wins over the default."""
    _check_keys(cfg, table, where)
    out = {}
    for key, (kind, default, least, _flag) in table.items():
        value = getattr(flags, key, None)
        if value is None:
            value = _field(cfg, key, kind, default, where)
        if value is None:
            continue
        if kind is float and not np.isfinite(value):
            raise ConfigError(f"{where}.{key}: must be finite")
        if least is not None and value < least:
            raise ConfigError(f"{where}.{key}: must be >= {least}")
        out[key] = value
    return out


# One key table per config section. Defaults that a library dataclass holds
# are read from it. A run writes its resolved config, which reruns it, as
# config.json.
RUN_KEYS = {
    "seed": _key(int, 0, least=0, flag="override config seed"),
    "workers": _key(int, 1, least=1, flag="parallel evaluation cap (default: 1)"),
    "out": _key(str, "runs"),
    "task": _key(dict),
}
EVOLVE_KEYS = {
    **RUN_KEYS,
    "grammar": _key(str, "alr"),
    "evo": _key(dict, {}),
    "trials": _key(int, None, least=1),  # default: one per trial group
    "threshold": _key(float, 0.8),
    "resume": _key(str, None, flag="checkpoint file to resume from"),
}
EVO_KEYS = {  # each sets the EvoParams field its default is read from
    "population": _key(int, EvoParams.population_size,
                       flag="override config.evo.population"),
    "generations": _key(int, EvoParams.generations,
                        flag="override config.evo.generations"),
    "tournament": _key(int, EvoParams.tournament_size),
    "mutation": _key(float, EvoParams.mutation_rate),
    "elitism": _key(int, EvoParams.elitism),
    "max_depth": _key(int, EvoParams.max_depth),
    "crossover": _key(float, EvoParams.crossover_prob),
}
BENCHMARK_KEYS = {
    **RUN_KEYS,
    "name": _key(str, None),  # default: the preset, else "scenario"
    "preset": _key(str, None),  # epochs and early_stop default to its protocol
    "epochs": _key(int, None, least=1),
    "early_stop": _key(bool, None),
    "repetitions": _key(int, 5, least=1, flag="override config repetitions"),
    "steppers": _key(list),
    "test_source": _key(str, "split"),
}
TUNE_KEYS = {
    **RUN_KEYS,
    "optimizer": _key(str),
    "budget": _key(int, 25, least=5, flag="override config budget"),
    "random_search": _key(bool, False),
}
TRAIN_KEYS = {  # the TrainConfig fields of a task
    "batch_size": _key(int, TrainConfig.batch_size),
    "max_epochs": _key(int, TrainConfig.max_epochs),
    "early_stop": _key(bool, TrainConfig.early_stop),
    "patience": _key(int, TrainConfig.patience),
}
TASK_KEYS = {
    "dataset": _key(dict),
    "split": _key(dict),
    "layer_sizes": _key(list[int]),
    **TRAIN_KEYS,
    "initial_lr": _key(float, TrainingTask.initial_lr),  # scheduler grammars only
}
SPLIT_KEYS = {  # an empty trial group, validation or test set is refused
    "train_total": _key(int),
    "per_trial": _key(int, least=1),
    "trial_count": _key(int, least=1),
    "validation": _key(int, least=1),
    "test": _key(int, least=1),
    "seed": _key(int, SplitPlan.seed, least=0),
}
_KIND = {"kind": _key(str)}
DATASET_KEYS = {  # by dataset kind
    **dict.fromkeys(SYNTHETIC_KINDS, {
        **_KIND, "n": _key(int, least=10), "noise": _key(float, 0.1, least=0),
        "seed": _key(int, 0, least=0)}),
    "idx": {**_KIND, "images": _key(str), "labels": _key(str), "name": _key(str, "idx")},
    "cifar10": {**_KIND, "batches": _key(list[str]), "name": _key(str, "cifar10")},
}
STEPPER_KEYS = {  # a benchmark's object entry
    "name": _key(str, None),
    "hyperparams": _key(dict, None),
    "spec_file": _key(str, None),
    "policy_file": _key(str, None),
}


def _load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
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
        raise DataError(f"data file not found: {path}")
    return path


def read_task(cfg: dict, scheduler: bool = False, omit=()) -> tuple:
    """(section, SplitPlan, TrainConfig): a task section resolved with its
    dataset and split sections, and the plan and training config it sets,
    all before any data load. Only a scheduler search reads `initial_lr`, so
    only it may set the key; the keys in `omit`, which the caller has
    refused, stay out."""
    where = "config.task"
    if not scheduler:
        if "initial_lr" in cfg:
            raise ConfigError(f"{where}.initial_lr: needs a scheduler grammar")
        omit = (*omit, "initial_lr")
    else:  # before _read, whose message would not name the bound
        lr = _field(cfg, "initial_lr", float, TrainingTask.initial_lr, where)
        if not (np.isfinite(lr) and lr > 0):
            raise ConfigError(f"{where}.initial_lr: must be finite and > 0")
    task = _read(cfg, {k: v for k, v in TASK_KEYS.items() if k not in omit}, where)
    if len(task["layer_sizes"]) < 2 or min(task["layer_sizes"]) < 1:
        raise ConfigError(f"{where}.layer_sizes: need a list of at least two positive ints")
    kind = _field(task["dataset"], "kind", str, where=f"{where}.dataset")
    if kind not in DATASET_KEYS:
        raise ConfigError(f"{where}.dataset.kind: unknown dataset kind {kind!r}")
    task["dataset"] = _read(task["dataset"], DATASET_KEYS[kind], f"{where}.dataset")
    task["split"] = _read(task["split"], SPLIT_KEYS, f"{where}.split")
    try:
        plan = SplitPlan(**task["split"])
    except DataError as e:
        raise ConfigError(f"{where}.split: {e}") from e
    try:
        train_config = TrainConfig(**{k: task[k] for k in TRAIN_KEYS if k in task})
    except NetworkError as e:
        raise ConfigError(f"{where}: {e}") from e
    return task, plan, train_config


def build_task(cfg: dict, plan: SplitPlan, train_config: TrainConfig, seed: int):
    """(TrainingTask, Splits) from what `read_task` returned."""
    where = "config.task"
    data = cfg["dataset"]
    if data["kind"] == "idx":
        master = load_idx(_data_path(data["images"]), _data_path(data["labels"]),
                          name=data["name"])
    elif data["kind"] == "cifar10":
        master = load_cifar10([_data_path(b) for b in data["batches"]],
                              name=data["name"])
    else:
        master = synthetic(**data)
    splits = split(master, plan)
    layer_sizes = cfg["layer_sizes"]
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
    task = TrainingTask(
        trial_groups=splits.trial_groups,
        validation=splits.validation,
        test=splits.test,
        layer_sizes=layer_sizes,
        train_config=train_config,
        seed=seed,
        initial_lr=cfg.get("initial_lr", TrainingTask.initial_lr),
    )
    return task, splits


def resolve_grammar(name_or_path: str) -> Grammar:
    if name_or_path in ("alr", "dlr"):
        return load_shipped_grammar(name_or_path)
    p = Path(name_or_path)
    if not p.is_file():
        raise ConfigError(f"grammar file not found: {p}")
    try:
        return parse_grammar(p.read_text(encoding="utf-8"))
    except (GrammarError, UnicodeDecodeError) as e:
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


# --- evolve -------------------------------------------------------------------


def cmd_evolve(args) -> int:
    given = _load_config(args.config)
    cfg = _read(given, EVOLVE_KEYS, "config", args)
    seed = cfg["seed"]
    evo = cfg["evo"] = _read(cfg["evo"], EVO_KEYS, "config.evo", args)
    try:
        params = EvoParams(
            population_size=evo["population"], generations=evo["generations"],
            tournament_size=evo["tournament"], mutation_rate=evo["mutation"],
            elitism=evo["elitism"], max_depth=evo["max_depth"],
            crossover_prob=evo["crossover"], rng_seed=seed)
    except ValueError as e:
        raise ConfigError(f"config.evo: {e}") from e
    grammar = resolve_grammar(cfg["grammar"])
    if cfg["grammar"] not in ("alr", "dlr"):  # config.json reruns from anywhere
        cfg["grammar"] = str(Path(cfg["grammar"]).resolve())
    scheduler = is_scheduler_grammar(grammar)
    cfg["task"], plan, train_config = read_task(cfg["task"], scheduler)
    if scheduler:
        if {"trials", "threshold"} & given.keys():
            raise ConfigError("config: trials and threshold need an optimizer grammar")
        del cfg["threshold"]
    else:
        groups = cfg["task"]["split"]["trial_count"]
        if cfg.setdefault("trials", groups) > groups:
            raise ConfigError(f"config.trials: {cfg['trials']} > {groups} trial groups")
    task, splits = build_task(cfg["task"], plan, train_config, seed)
    fitness_fn = (dlr_fitness_fn(task) if scheduler else alr_fitness_fn(
        task, trial_number=cfg["trials"], threshold=cfg["threshold"]))
    search = _search_digest(grammar, cfg)
    resume = cfg.get("resume")
    checkpoint = None
    if resume is not None:
        if not Path(resume).is_file():
            raise DataError(f"checkpoint not found: {resume}")
        checkpoint = load_checkpoint(resume)  # malformed: DataError, no run dir
        if (checkpoint.seed, len(checkpoint.population)) != (seed, params.population_size):
            raise DataError(
                f"{resume}: checkpoint has seed {checkpoint.seed} and population "
                f"{len(checkpoint.population)}, the run has seed {seed} and population "
                f"{params.population_size}"
            )
        if checkpoint.search != search:
            raise DataError(f"{resume}: checkpoint " + (
                "records no search digest" if checkpoint.search is None else
                "is of another search: its grammar, task, trials or threshold differ"))
    run_dir = make_run_dir(cfg["out"], seed, args.run_dir)
    # before generation 0, so a killed run still names its config and rows
    write_atomic(run_dir / "config.json", json.dumps(cfg, indent=2))
    write_atomic(run_dir / "indices.json", json.dumps(
        {"evolution_indices": splits.evolution_indices().tolist()}))

    log_path = run_dir / "log.csv"
    # a fresh log, or the checkpoint's rows without any a crash logged past it
    logged = [] if checkpoint is None else checkpoint.stats
    write_atomic(log_path, log_text(logged, header=True))
    written = []  # the best that best.json holds

    def save(run):
        save_checkpoint(run_dir / "checkpoint.json", run)
        if not written or run.best is not written[-1]:  # a stopped run names it
            _write_best(run_dir, run.best, scheduler)
            written.append(run.best)

    def on_generation(run):
        with open(log_path, "a", newline="") as f:
            f.write(log_text(run.stats[-1:], header=False))
        save(run)

    run = evolve(
        params,
        grammar,
        fitness_fn,
        resume_from=checkpoint,
        search=search,
        workers=cfg["workers"],
        on_generation=on_generation,
    )
    if not written:  # resumed with no generation left: the checkpoint as it came
        save(run)
    print(f"run dir: {run_dir}")
    print(f"best fitness: {run.best.fitness:.6f}")
    print(f"best phenotype: {run.best.phenotype}")
    return EXIT_OK


def _search_digest(grammar: Grammar, cfg: dict) -> str:
    """A digest of what defines an evolve search, which a resumed checkpoint
    must match: the grammar, the task, and trials and threshold where set."""
    defining = {"grammar": serialize_grammar(grammar), "task": cfg["task"],
                **{key: cfg[key] for key in ("trials", "threshold") if key in cfg}}
    return hashlib.sha256(json.dumps(defining, sort_keys=True).encode()).hexdigest()


def _write_best(run_dir: Path, best: Individual, scheduler: bool) -> None:
    """best.json, and the best rule or policy as its artifact, each through
    write_atomic."""
    record = {"fitness": best.fitness, "phenotype": best.phenotype,
              "genotype": vars(best.genotype)}  # its genes and used counts
    write_atomic(run_dir / "best.json", json.dumps(record, indent=2))
    if best.phenotype is not None and scheduler:
        policy = serialize_policy(parse_policy(best.phenotype))
        write_atomic(run_dir / "best_policy.txt", policy + "\n")
    elif best.phenotype is not None:
        spec = spec_to_json(spec_from_phenotype(best.phenotype, name="evolved"))
        write_atomic(run_dir / "best_spec.json", spec)


# --- benchmark ----------------------------------------------------------------


def _stepper_from_config(item, where: str) -> tuple:
    """(stepper source, entry for config.json): a name as given, or the
    object entry with its spec_file or policy_file made absolute, so that
    config.json reruns from any directory."""
    if isinstance(item, str):
        return item, item
    if not isinstance(item, dict):
        raise ConfigError(f"{where}: entry must be a name or an object")
    entry = _read(item, STEPPER_KEYS, where)
    sources = [key for key in entry if key != "hyperparams"]
    if len(sources) != 1:
        got = f", got {', '.join(sources)}" if sources else ""
        raise ConfigError(
            f"{where}: set exactly one of name, spec_file, policy_file{got}")
    if "hyperparams" in entry and "name" not in entry:
        raise ConfigError(f"{where}.hyperparams: needs a name, not {sources[0]}")
    for key in ("spec_file", "policy_file"):
        if key in entry:
            p = Path(entry[key])
            if not p.is_file():
                raise DataError(f"{key.replace('_', ' ')} not found: {p}")
            entry[key] = str(p.resolve())
            try:
                text = p.read_text(encoding="utf-8")
                if key == "spec_file":
                    return spec_from_json(text), entry
                return parse_policy(text.strip()), entry
            except (KeyError, TypeError, AttributeError, ValueError) as e:
                raise ConfigError(f"{where}: {p}: {type(e).__name__}: {e}") from e
    name, given = entry["name"], entry.get("hyperparams", {})
    try:
        hp = HyperParams.defaults_for(name, **given)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}.hyperparams: {e}") from e
    reads = BUILTIN_READS.get(name, given)  # an unknown name exits 2 in make_entry
    unread = [key for key in given if key not in reads]
    if unread:
        raise ConfigError(f"{where}.hyperparams: {name} does not read {', '.join(unread)}")
    return (name, hp), entry


def cmd_benchmark(args) -> int:
    cfg = _read(_load_config(args.config), BENCHMARK_KEYS, "config", args)
    seed = cfg["seed"]
    if not cfg["steppers"]:
        raise ConfigError("config.steppers: must not be empty")
    parsed = [_stepper_from_config(item, f"config.steppers[{i}]")
              for i, item in enumerate(cfg["steppers"])]
    steppers = [stepper for stepper, _ in parsed]
    cfg["steppers"] = [entry for _, entry in parsed]
    for stepper in steppers:
        make_entry(stepper)  # an unknown name exits 2 before any data load
    at_top = ("max_epochs", "early_stop")  # set by epochs, early_stop or preset
    unread = [key for key in at_top if key in cfg["task"]]
    if unread:
        raise ConfigError(
            f"config.task: benchmark does not read {', '.join(unread)}; "
            "set epochs, early_stop or preset at the top level"
        )
    preset = cfg.get("preset")
    if preset is not None and preset not in SCENARIO_PRESETS:
        raise ConfigError(f"config.preset: unknown preset {preset!r}")
    protocol = SCENARIO_PRESETS[preset or "I"]
    cfg.setdefault("name", preset or "scenario")
    cfg.setdefault("epochs", protocol["epochs"])
    cfg.setdefault("early_stop", protocol["early_stop"])
    if cfg["test_source"] not in ("split", "reserve"):
        raise ConfigError("config.test_source: must be 'split' or 'reserve'")
    cfg["task"], plan, train_config = read_task(cfg["task"], omit=at_top)
    task, splits = build_task(cfg["task"], plan, train_config, seed)
    train_config = replace(task.train_config, max_epochs=cfg["epochs"],
                           early_stop=cfg["early_stop"])
    test_set = splits.reserve if cfg["test_source"] == "reserve" else splits.test
    if len(test_set) == 0:
        raise DataError(f"benchmark test set ({cfg['test_source']}) is empty")
    if cfg["test_source"] == "split" and any(
            isinstance(entry, dict) and entry.keys() & {"spec_file", "policy_file"}
            for entry in cfg["steppers"]):
        print('warning: test_source "split" scores evolved rules on the test rows '
              'that evolution on this task scored them on; "reserve" rows it never saw',
              file=sys.stderr)

    scenario = BenchmarkScenario(
        name=cfg["name"],
        steppers=steppers,
        train=splits.train_pool,
        validation=task.validation,
        test=test_set,
        layer_sizes=task.layer_sizes,
        train_config=train_config,
        repetitions=cfg["repetitions"],
    )
    run_dir = make_run_dir(cfg["out"], seed, args.run_dir)
    # before the first training, so a killed run still names its config and rows
    write_atomic(run_dir / "config.json", json.dumps(cfg, indent=2))
    write_atomic(run_dir / "indices.json", json.dumps(
        {"test_indices": test_set.source_indices.tolist()}))
    results = run_benchmark(scenario, seed=seed, workers=cfg["workers"])
    write_atomic(run_dir / f"bench_{scenario.name}.csv", bench_csv(scenario, results))
    table = summarize(results)
    write_atomic(run_dir / f"bench_{scenario.name}.txt", table)
    print(f"run dir: {run_dir}")
    print(table, end="")
    return EXIT_OK


# --- tune ---------------------------------------------------------------------


def cmd_tune(args) -> int:
    cfg = _read(_load_config(args.config), TUNE_KEYS, "config", args)
    seed = cfg["seed"]
    opt = cfg["optimizer"]
    try:
        space = space_for(opt)
    except TuneError as e:
        raise ConfigError(str(e)) from e
    cfg["task"], plan, train_config = read_task(cfg["task"])
    task, _splits = build_task(cfg["task"], plan, train_config, seed)
    run_dir = make_run_dir(cfg["out"], seed, args.run_dir)
    # before the search, so a killed run still names its config
    write_atomic(run_dir / "config.json", json.dumps(cfg, indent=2))
    try:
        best, history = tune(
            opt,
            space,
            budget=cfg["budget"],
            task=task,
            seed=seed,
            random_search=cfg["random_search"],
            workers=cfg["workers"],
        )
    except TuneError as e:
        raise ConfigError(str(e)) from e
    write_atomic(run_dir / f"tune_{opt}.csv", tune_csv(space, history))
    row = report_best(history)
    write_atomic(run_dir / "best.txt", row + "\n")
    print(f"run dir: {run_dir}")
    print(row)
    return EXIT_OK


# --- grammar-check ------------------------------------------------------------


def cmd_grammar_check(args) -> int:
    grammar = resolve_grammar(args.grammar)
    checks = (scheduler_health_checks if is_scheduler_grammar(grammar)
              else grammar_health_checks)(grammar)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {name} — {detail}")
    failed = sum(1 for _, ok, _ in checks if not ok)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


# --- argument parsing ----------------------------------------------------------


COMMANDS = {  # command: (entry point, help, the key tables whose flags it takes)
    "evolve": (cmd_evolve, "evolve update rules or LR schedules",
               (EVOLVE_KEYS, EVO_KEYS)),
    "benchmark": (cmd_benchmark, "compare optimizers head-to-head", (BENCHMARK_KEYS,)),
    "tune": (cmd_tune, "Bayesian hyperparameter search", (TUNE_KEYS,)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optevo",
        description="Evolve, benchmark, and tune learning-rate optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_run, help_text, tables) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("config", help="JSON config file")
        for table in tables:
            for key, (kind, _default, _least, flag) in table.items():
                if flag:
                    p.add_argument(f"--{key}", type=kind, help=flag)
        p.add_argument("--run-dir", default=None,
                       help="exact output directory (default: runs/<stamp>_s<seed>)")

    p_check = sub.add_parser("grammar-check",
                             help="validate an optimizer or scheduler grammar")
    p_check.add_argument(
        "grammar",
        help="grammar file, or 'alr' / 'dlr'; a grammar with an <lr_const> "
             "rule gets the scheduler checks",
    )
    return parser


def _keep_freed_memory() -> None:
    """A process setting: allocate and free one untouched 8 MiB block.
    glibc's malloc then raises its mmap threshold to that block's size and
    its trim threshold to twice that, so smaller blocks come from its heap
    and up to 16 MiB of freed heap stays for reuse. Under the default 128
    KiB thresholds, temporaries freed and made again go back to the system
    and are faulted in afresh: evolve-toy's stacked activations (512 KiB a
    batch) took 16.9k minor page faults instead of 1.0k, and tune's GP
    temporaries (two 1.3 MB arrays a proposal at budget 200) about 120k
    instead of 1.2k. Other allocators just free the block."""
    np.empty(2**20)


def main(argv=None) -> int:
    """Run one optevo command; returns its exit code. Two process settings
    come first: `_keep_freed_memory`, then `gc.freeze()`, which exempts every
    object alive when `main` starts from cyclic collection from then on.
    Those objects (about 23.6k after importing this module) live as long
    as the process, yet each full collection walked them all: 8.5-11 ms in
    an evolve-toy run, whose exit took 33 ms instead of 7. No collection
    runs first: it finds no garbage there, and takes about 6 ms."""
    _keep_freed_memory()
    gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "grammar-check":
            return cmd_grammar_check(args)
        return COMMANDS[args.command][0](args)
    except (ConfigError, BenchError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
