"""Benchmark harness: repeated independent trainings, statistics, report tables.

A scenario names its contenders (built-in optimizers, evolved update rules,
or learning-rate policies), fixes the data and the training protocol (one
TrainConfig), and runs each contender `repetitions` times from independently
seeded initializations. Results carry the test rows' source indices so
callers can prove the test data was never touched by the evolutionary phase.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .evolve import parallel_map
from .nn import TrainConfig, evaluate, train_seeded
from .optim import BUILTIN_NAMES, HyperParams, make_stepper
from .tensor import Rng

# the three training protocols used for head-to-head comparisons
SCENARIO_PRESETS = {
    "I": {"epochs": 100, "early_stop": True},
    "II": {"epochs": 20, "early_stop": False},
    "III": {"epochs": 100, "early_stop": False},
}


class BenchError(ValueError):
    pass


def make_entry(item):
    """Normalize a contender into (name, fresh-stepper factory).

    Accepts a built-in name, (built-in name, HyperParams), an OptimizerSpec,
    or a policy tree: whatever `make_stepper` builds afresh on each call.
    """
    opt, hp = item, None
    if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], HyperParams):
        opt, hp = item
    try:
        stepper = make_stepper(opt, hp)
    except ValueError:
        raise BenchError(f"unknown built-in optimizer {opt!r}; "
                         f"expected one of {', '.join(BUILTIN_NAMES)}") from None
    except TypeError:
        raise BenchError(f"cannot interpret benchmark entry {item!r}") from None
    if stepper is opt:  # a ready stepper would be shared across repetitions
        raise BenchError(f"cannot interpret benchmark entry {item!r}")
    return stepper.name, lambda: make_stepper(opt, hp)


@dataclass
class BenchmarkScenario:
    name: str
    steppers: list  # see make_entry for accepted forms
    train: Dataset
    validation: Dataset
    test: Dataset
    layer_sizes: list
    train_config: TrainConfig
    repetitions: int = 5

    def __post_init__(self):
        if not self.steppers:
            raise BenchError("scenario needs at least one contender")
        if self.repetitions < 1:
            raise BenchError("repetitions must be >= 1")
        # normalize early so bad entries fail before any training happens
        self.entries = [make_entry(s) for s in self.steppers]


def _sample_std(values) -> float:
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


@dataclass
class BenchResult:
    name: str
    val_accuracies: list
    test_accuracies: list
    test_indices: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    @property
    def mean_val(self) -> float:
        return float(np.mean(self.val_accuracies))

    @property
    def mean_test(self) -> float:
        return float(np.mean(self.test_accuracies))

    @property
    def std_val(self) -> float:
        return _sample_std(self.val_accuracies)

    @property
    def std_test(self) -> float:
        return _sample_std(self.test_accuracies)

    @property
    def generalization_rate(self) -> float:
        """Mean test accuracy over mean validation accuracy, as a percentage;
        NaN when every repetition scores 0 on validation."""
        return 100.0 * self.mean_test / self.mean_val if self.mean_val else np.nan


def _one_run(scenario: BenchmarkScenario, name: str, factory, rep: int, seed: int):
    rng = Rng(seed).child("bench", scenario.name, name, rep)
    data = (scenario.train, scenario.validation)
    net, hist = train_seeded(scenario.layer_sizes, factory(), data,
                             scenario.train_config, rng)
    if hist.failed:
        return 0.0, 0.0
    return evaluate(net, scenario.validation)[0], evaluate(net, scenario.test)[0]


def run_benchmark(scenario: BenchmarkScenario, seed: int = 0, workers: int = 1):
    """Train every contender `repetitions` times; returns list of BenchResult.

    Failed trainings score 0 rather than aborting the scenario. Nothing is
    written: `bench_csv` and `summarize` give the texts of the run's files.
    """
    jobs = [
        (name, factory, rep)
        for name, factory in scenario.entries
        for rep in range(scenario.repetitions)
    ]
    outcomes = parallel_map(lambda j: _one_run(scenario, *jobs[j], seed),
                            range(len(jobs)), workers)
    results = []
    for i, (name, _factory) in enumerate(scenario.entries):
        chunk = outcomes[i * scenario.repetitions : (i + 1) * scenario.repetitions]
        results.append(
            BenchResult(
                name=name,
                val_accuracies=[v for v, _ in chunk],
                test_accuracies=[t for _, t in chunk],
                test_indices=np.array(scenario.test.source_indices),
            )
        )
    return results


def bench_csv(scenario: BenchmarkScenario, results) -> str:
    """CSV text of one row per contender and repetition."""
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["scenario", "optimizer", "repetition", "val_accuracy", "test_accuracy"])
    for res in results:
        for rep, (v, t) in enumerate(zip(res.val_accuracies, res.test_accuracies)):
            w.writerow([scenario.name, res.name, rep, f"{v:.6f}", f"{t:.6f}"])
    return out.getvalue()


SUMMARY_COLUMNS = (
    "Optimizer",
    "Validation Accuracy",
    "Test Accuracy",
    "Generalization Rate",
)


def summarize(results) -> str:
    """Aligned text table; accuracies as percent 'mean ± std', rate as percent or n/a."""
    rows = [list(SUMMARY_COLUMNS)]
    for r in results:
        rows.append([
            r.name,
            f"{100 * r.mean_val:.2f} ± {100 * r.std_val:.2f}",
            f"{100 * r.mean_test:.2f} ± {100 * r.std_test:.2f}",
            "n/a" if np.isnan(r.generalization_rate) else f"{r.generalization_rate:.2f}%",
        ])
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
