"""Timing wrappers around the public functions of each optevo module.

Callers bind their imports by name (``from .nn import train`` in evolve and
bench, ``from .hyperopt import tune`` in cli, ``elementwise`` in optim), so
patching the defining module alone would miss them. `rebind` replaces every
optevo module-level name that refers to the original object.

Spans nest on one thread (the benchmark runs ``--workers 1``). Each span's
self time is its duration minus the time of the spans opened directly inside
it. Spans are aggregated as they close, per name and per (name, parent), so
the trace holds a few hundred numbers however long the run is.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter

# (span name, module, attribute): wrapped wherever a module holds a reference.
FUNCTION_SPANS = (
    ("data.load", "optevo.data", "load_idx"),
    ("data.load", "optevo.data", "load_cifar10"),
    ("data.load", "optevo.data", "synthetic"),
    ("data.split", "optevo.data", "split"),
    ("nn.train", "optevo.nn", "train"),
    ("nn.forward", "optevo.nn", "forward"),
    ("nn.backward", "optevo.nn", "backward"),
    ("nn.mean_loss", "optevo.nn", "mean_loss"),
    ("nn.evaluate", "optevo.nn", "evaluate"),
    ("optim.parse", "optevo.optim", "spec_from_phenotype"),
    ("optim.parse", "optevo.optim", "spec_from_json"),
    ("dsge.map", "optevo.dsge", "map_genotype"),
    ("dsge.breed", "optevo.dsge", "mutate"),
    ("dsge.breed", "optevo.dsge", "crossover"),
    ("dsge.breed", "optevo.dsge", "tournament_select"),
    ("evolve.fitness_alr", "optevo.evolve", "fitness_alr"),
    ("evolve.checkpoint", "optevo.evolve", "save_checkpoint"),
    ("bench.run", "optevo.bench", "run_benchmark"),
    ("hyperopt.tune", "optevo.hyperopt", "tune"),
)

# (span name, module, class, method): patched on the class itself.
METHOD_SPANS = (
    ("optim.spec_update", "optevo.optim", "SpecStepper", "update"),
    ("optim.native_update", "optevo.optim", "AdamStepper", "update"),
    ("optim.native_update", "optevo.optim", "NesterovStepper", "update"),
    ("sched.update", "optevo.sched", "ScheduledSGD", "update"),
)

# Called too often for a span to be cheap: counted only.
FUNCTION_COUNTS = (("tensor.elementwise", "optevo.tensor", "elementwise"),)
METHOD_COUNTS = (("tensor.rng_child", "optevo.tensor", "Rng", "child"),)


def _optevo_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "optevo" or name.startswith("optevo."))
    ]


def rebind(original, replacement) -> None:
    """Point every optevo module-level name bound to `original` at
    `replacement`."""
    for module in _optevo_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _lookup(module_name: str, *attrs):
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for attr in attrs:
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


def mark_first_call(module_name: str, attr: str, marks: dict, key: str) -> None:
    """Store time.monotonic() in marks[key] when module.attr is first
    called, then restore the unwrapped references."""
    inner = _lookup(module_name, attr)
    if inner is None:
        return

    def first(*args, **kwargs):
        marks[key] = time.monotonic()
        rebind(first, inner)
        return inner(*args, **kwargs)

    rebind(inner, first)


class Tracer:
    """In-memory span and counter aggregates for one process."""

    def __init__(self):
        self.spans: dict = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._open: list = []  # [name, seconds spent in direct children]

    def span(self, name: str, fn, after=None):
        open_spans = self._open
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            parent = open_spans[-1][0] if open_spans else ""
            entry = [name, 0.0]
            open_spans.append(entry)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{name}.raised"] += 1
                raise
            finally:
                elapsed = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][1] += elapsed
                agg = spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - entry[1]
                counts[f"{name}@{parent}"] += 1
            if after is not None:
                after(result, args)
            return result

        return wrapped

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _after_hooks(self):
        counts = self.counts

        def train(result, _args):
            counts["optim.failed_trainings"] += bool(result[1].failed)

        def backward(_result, args):
            counts["nn.samples"] += len(args[2])

        def fitness_alr(report, _args):
            counts["evolve.trials.run"] += report.trials_run
            counts["evolve.trials.cancelled"] += bool(report.cancelled_early)

        def checkpoint(_result, args):
            counts["evolve.checkpoint.bytes"] += os.path.getsize(args[0])

        def tune(result, _args):
            counts["hyperopt.objective.calls"] += len(result[1])

        return {
            "nn.train": train,
            "nn.backward": backward,
            "evolve.fitness_alr": fitness_alr,
            "evolve.checkpoint": checkpoint,
            "hyperopt.tune": tune,
        }

    def install(self) -> None:
        """Wrap every listed function and method that exists. A missing one
        leaves its span silent, which the coverage check reports."""
        after = self._after_hooks()
        for name, module_name, attr in FUNCTION_SPANS:
            fn = _lookup(module_name, attr)
            if fn is not None:
                rebind(fn, self.span(name, fn, after.get(name)))
        for name, module_name, attr in FUNCTION_COUNTS:
            fn = _lookup(module_name, attr)
            if fn is not None:
                rebind(fn, self.counter(name, fn))
        for name, module_name, cls_name, attr in METHOD_SPANS:
            cls = _lookup(module_name, cls_name)
            if cls is not None and attr in vars(cls):
                setattr(cls, attr, self.span(name, vars(cls)[attr]))
        for name, module_name, cls_name, attr in METHOD_COUNTS:
            cls = _lookup(module_name, cls_name)
            if cls is not None and attr in vars(cls):
                setattr(cls, attr, self.counter(name, vars(cls)[attr]))
        # fitness evaluations are calls of the closure alr_fitness_fn returns
        factory = _lookup("optevo.evolve", "alr_fitness_fn")
        if factory is not None:
            def counted_factory(*args, **kwargs):
                return self.counter("evolve.fitness.calls", factory(*args, **kwargs))

            rebind(factory, counted_factory)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# Per-layer metrics: name -> (unit, better).
LAYER_METRICS = {
    "cli.import_s": ("s", "lower"),
    "data.load_s": ("s", "lower"),
    "data.split_s": ("s", "lower"),
    "nn.train.calls": ("count", "lower"),
    "nn.train.self_s": ("s", "lower"),
    "nn.forward.calls": ("count", "lower"),
    "nn.forward.s": ("s", "lower"),
    "nn.backward.calls": ("count", "lower"),
    "nn.backward.s": ("s", "lower"),
    "nn.mean_loss.calls": ("count", "lower"),
    "nn.mean_loss.s": ("s", "lower"),
    "nn.evaluate.calls": ("count", "lower"),
    "nn.evaluate.s": ("s", "lower"),
    "nn.samples": ("count", "lower"),
    "optim.spec_update.calls": ("count", "lower"),
    "optim.spec_update.s": ("s", "lower"),
    "optim.native_update.calls": ("count", "lower"),
    "optim.native_update.s": ("s", "lower"),
    "optim.parse_s": ("s", "lower"),
    "optim.failed_trainings": ("count", "lower"),
    "tensor.elementwise.calls": ("count", "lower"),
    "tensor.rng_child.calls": ("count", "lower"),
    "sched.update.calls": ("count", "lower"),
    "sched.update.s": ("s", "lower"),
    "dsge.map.calls": ("count", "lower"),
    "dsge.map.failures": ("count", "lower"),
    "dsge.map.s": ("s", "lower"),
    "dsge.breed_s": ("s", "lower"),
    "evolve.fitness.calls": ("count", "lower"),
    "evolve.cache_hit_ratio": ("ratio", "higher"),
    "evolve.trials.run": ("count", "lower"),
    "evolve.trials.cancelled": ("count", "higher"),
    "evolve.checkpoint.calls": ("count", "lower"),
    "evolve.checkpoint.s": ("s", "lower"),
    "evolve.checkpoint.bytes": ("B", "lower"),
    "bench.trainings": ("count", "lower"),
    "bench.self_s": ("s", "lower"),
    "hyperopt.objective.calls": ("count", "lower"),
    "hyperopt.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# Spans and counters that must fire on the workload doing most of their work.
REQUIRED = {
    "evolve-toy": (
        "nn.train", "nn.mean_loss", "nn.evaluate", "optim.spec_update",
        "optim.parse", "tensor.elementwise", "tensor.rng_child", "dsge.map",
        "dsge.breed", "evolve.fitness.calls", "evolve.fitness_alr",
        "evolve.checkpoint",
    ),
    "bench-wide": (
        "data.load", "data.split", "nn.train", "nn.forward", "nn.backward",
        "optim.native_update", "sched.update", "bench.run",
    ),
    "tune-gp": (
        "nn.train", "nn.mean_loss", "nn.evaluate", "optim.native_update",
        "hyperopt.tune", "hyperopt.objective.calls",
    ),
}


def fired(trace: dict, name: str) -> bool:
    span = trace["spans"].get(name)
    return (span is not None and span[0] > 0) or trace["counts"].get(name, 0) > 0


def missing_spans(workload: str, trace: dict) -> list:
    return [name for name in REQUIRED[workload] if not fired(trace, name)]


def layer_metrics(trace: dict, import_s: float) -> dict:
    """Per-layer metric values of one traced process (trace.overhead aside)."""
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    mapped = calls("dsge.map") - counts.get("dsge.map.raised", 0)
    fresh = counts.get("evolve.fitness.calls", 0)
    out = {
        "cli.import_s": import_s,
        "data.load_s": total("data.load"),
        "data.split_s": total("data.split"),
        "nn.train.self_s": self_time("nn.train"),
        "optim.parse_s": total("optim.parse"),
        "dsge.map.failures": counts.get("dsge.map.raised", 0),
        "dsge.breed_s": total("dsge.breed"),
        "evolve.cache_hit_ratio": (mapped - fresh) / mapped if mapped else 0.0,
        "bench.trainings": counts.get("nn.train@bench.run", 0),
        "bench.self_s": self_time("bench.run"),
        "hyperopt.self_s": self_time("hyperopt.tune"),
    }
    for name in ("nn.train", "nn.forward", "nn.backward", "nn.mean_loss",
                 "nn.evaluate", "optim.spec_update", "optim.native_update",
                 "sched.update", "dsge.map", "evolve.checkpoint"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = total(name)
    for name in ("nn.samples", "optim.failed_trainings", "evolve.fitness.calls",
                 "evolve.trials.run", "evolve.trials.cancelled",
                 "evolve.checkpoint.bytes", "hyperopt.objective.calls"):
        out[name] = counts.get(name, 0)
    for name in ("tensor.elementwise", "tensor.rng_child"):
        out[f"{name}.calls"] = counts.get(name, 0)
    return {name: out[name] for name in LAYER_METRICS if name in out}
