"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the checklist lines
as they print; without ``-s`` they appear in captured output on failure.
Criterion 6 needs the four standard idx files under $OPTEVO_DATA_DIR and
skips (visibly) when they are absent; a synthetic stand-in with the same
assertions always runs.
"""

import contextlib
import json
import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import ORACLES
from optevo.bench import BenchmarkScenario, BenchResult, run_benchmark
from optevo.cli import DATA_DIR_ENV, EXIT_OK, main
from optevo.data import SplitPlan, load_idx, split, synthetic
from optevo.dsge import EvoParams, SHIPPED_GENOTYPES, load_shipped_genotype, map_genotype
from optevo.evolve import TrainingTask, alr_fitness_fn, evolve, fitness_alr
import optevo.evolve as evolve_mod
from optevo.grammar import load_shipped_grammar, sigmoidal_constants
from optevo.hyperopt import ParamSpec, SearchSpace, tune
from optevo.nn import Population, TrainConfig, backward, forward, mean_loss
from optevo.optim import (
    HyperParams,
    SpecStepper,
    adam_core_spec,
    builtin,
    make_stepper,
    spec_from_phenotype,
)


@contextlib.contextmanager
def criterion(num: int, rubric: str):
    """Prints exactly one checklist line for the criterion, whatever happens."""
    try:
        yield
    except pytest.skip.Exception:
        print(f"\ncriterion {num:02d} SKIP — {rubric}")
        raise
    except BaseException:
        print(f"\ncriterion {num:02d} FAIL — {rubric}")
        raise
    else:
        print(f"\ncriterion {num:02d} PASS — {rubric}")


def test_01_steppers_match_scalar_oracles():
    """Six update rules, 50 seeded scalar trajectories, 20 steps, |Δ| ≤ 1e-10."""
    with criterion(1, "stepper trajectories match independent scalar oracles"):
        t0 = time.perf_counter()
        names = ("sgd", "momentum", "rmsprop", "adam", "ades", "sign")
        for name in names:
            hp = HyperParams.defaults_for(name)
            for case in range(50):
                r = np.random.default_rng(1000 + case)
                w0 = float(r.normal())
                grads = [float(g) for g in r.normal(size=20)]
                expected = ORACLES[name](w0, grads, hp)
                stepper = make_stepper(name, hp)
                w = np.array([w0], dtype=np.float64)
                for t, g in enumerate(grads):
                    stepper.update(w, np.array([g], dtype=np.float64))
                    assert abs(float(w[0]) - expected[t]) <= 1e-10, (
                        f"{name} case {case} step {t}"
                    )
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_02_backprop_matches_central_differences():
    """2-16-3 network: 10 random parameters, relative error < 1e-4."""
    with criterion(2, "backprop gradients match central finite differences"):
        t0 = time.perf_counter()
        net = Population.seeded([2, 16, 3], [11])
        r = np.random.default_rng(12)
        x = r.normal(size=(12, 2))
        labels = r.integers(0, 3, size=12)

        logits, cache = forward(net, x)
        grads = backward(net, cache, labels)

        params = net.params
        h = 1e-5
        picks = []
        pick_rng = r
        for _ in range(10):
            pi = int(pick_rng.integers(0, len(params)))
            flat = int(pick_rng.integers(0, params[pi].size))
            picks.append((pi, flat))
        for pi, flat in picks:
            p = params[pi]
            idx = np.unravel_index(flat, p.shape)
            orig = p[idx]
            p[idx] = orig + h
            up, _ = forward(net, x)
            loss_up, = mean_loss(up, labels)
            p[idx] = orig - h
            down, _ = forward(net, x)
            loss_down, = mean_loss(down, labels)
            p[idx] = orig
            fd = (loss_up - loss_down) / (2 * h)
            an = grads[pi][idx]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-12)
            assert rel < 1e-4, f"param {pi}{idx}: fd={fd} analytic={an} rel={rel}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_03_shipped_genotypes_encode_reference_rules():
    """Genotypes map through the packaged grammar to the four reference cores."""
    with criterion(3, "shipped genotypes map to the reference update rules"):
        t0 = time.perf_counter()
        grammar = load_shipped_grammar("alr")
        grid = sigmoidal_constants(-10.0, 10.0, 41)

        def at(k):
            return float(f"{grid[round((k + 10.0) * 2)]:.8e}")

        hp = HyperParams(
            lr=at(-4.5), mom=at(2.0), rho=at(2.5),
            beta1=at(2.0), beta2=at(3.5), epsilon=at(-10.0),
        )
        references = {
            "sgd": builtin("sgd", hp),
            "momentum": builtin("momentum", hp),
            "rmsprop": builtin("rmsprop", hp),
            "adam_core": adam_core_spec(hp),
        }
        assert set(SHIPPED_GENOTYPES) == set(references)
        # Semantic equality is of the induced weight update: internal state
        # layouts may differ (the sgd genotype keeps lr·grad in x and applies
        # it in the weight slot; the reference keeps the updated weights in
        # x), so weights along trajectories are what must agree.
        for name, reference in references.items():
            geno = load_shipped_genotype(name)
            mapped = spec_from_phenotype(map_genotype(grammar, geno), name)
            for case in range(100):
                r = np.random.default_rng((77, case))
                w_m = r.normal(size=5)
                w_r = w_m.copy()  # each stepper writes its own weights in place
                s_m, s_r = SpecStepper(mapped), SpecStepper(reference)
                for t in range(10):
                    g = r.normal(size=5)
                    with np.errstate(all="ignore"):
                        s_m.update(w_m, g)
                        s_r.update(w_r, g)
                    assert np.max(np.abs(w_m - w_r)) <= 1e-9, (
                        f"{name} case {case} step {t}"
                    )
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_04_fitness_cancels_below_threshold(monkeypatch):
    """Sub-threshold trial cancels the rest; fitness is the minimum score."""
    with criterion(4, "trial fitness: early cancel below 0.8, min-score aggregation"):
        t0 = time.perf_counter()
        data = synthetic("two_gaussians", 200, seed=2)
        splits = split(data, SplitPlan(100, 20, 5, 20, 20))
        task = TrainingTask(
            trial_groups=splits.trial_groups,
            validation=splits.validation,
            test=splits.test,
            layer_sizes=[2, 4, 2],
        )
        spec = builtin("sgd", HyperParams(lr=0.05))
        calls = []
        reports = []  # what fitness_alr reports, read through a spy

        def spy(*args):
            reports.append(fitness_alr(*args))
            return reports[-1]

        monkeypatch.setattr(evolve_mod, "fitness_alr", spy)

        def stub(scores):
            calls.clear()

            def fake(task_, steppers, trial_index, keys):
                calls.append(trial_index)
                return [(scores[trial_index], False) for _ in keys]

            monkeypatch.setattr(evolve_mod, "_run_trial", fake)

        def wave_report():
            alr_fitness_fn(task, trial_number=5, threshold=0.8)([spec.phenotype()])
            return reports[-1]

        # all five trials clear the threshold: every one runs, min aggregates
        stub([0.85, 0.9, 0.82, 0.88, 0.84])
        report = wave_report()
        assert report.trials_run == 5 and len(calls) == 5
        assert report.fitness == pytest.approx(0.82)
        assert not report.cancelled_early

        # first trial under threshold: remaining four are never trained
        stub([0.3, 0.99, 0.99, 0.99, 0.99])
        report = wave_report()
        assert report.trials_run == 1 and len(calls) == 1
        assert report.cancelled_early
        assert report.fitness == pytest.approx(0.3)

        # mid-run dip cancels the tail
        stub([0.9, 0.85, 0.5, 0.99, 0.99])
        report = wave_report()
        assert report.trials_run == 3 and len(calls) == 3
        assert report.cancelled_early
        assert report.fitness == pytest.approx(0.5)

        assert all(r.trials_run <= 5 for r in [report])
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def same_at_any_workers(run):
    """run(seed, workers) gives the same result at 1, 2 and 3 workers, for
    seeds 0, 1 and 2."""
    for seed in (0, 1, 2):
        serial = run(seed, 1)
        for workers in (2, 3):
            assert run(seed, workers) == serial, f"seed {seed}, {workers} workers"


def test_05_evolution_discovers_a_working_optimizer():
    """Pop 20, tournament 5, mutation 0.15, 30 generations on two_gaussians;
    2-generation runs of the same task are equal at 1, 2 and 3 workers."""
    with criterion(5, "seeded 30-generation run reaches fitness ≥ 0.8, monotone best"):
        t0 = time.perf_counter()
        data = synthetic("two_gaussians", 2000, noise=0.1, seed=1)
        splits = split(data, SplitPlan(1200, 240, 5, 400, 400))
        task = TrainingTask(
            trial_groups=splits.trial_groups,
            validation=splits.validation,
            test=splits.test,
            layer_sizes=[2, 16, 2],
            train_config=TrainConfig(batch_size=200, max_epochs=10,
                                     early_stop=False),
            seed=0,
        )
        params = EvoParams(
            population_size=20, generations=30, tournament_size=5,
            mutation_rate=0.15, rng_seed=0,
        )
        grammar = load_shipped_grammar("alr")
        fitness = alr_fitness_fn(task, trial_number=5, threshold=0.8)
        run = evolve(params, grammar, fitness, workers=2)
        bests = [s.best for s in run.stats]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:])), "best regressed"
        assert run.best.fitness >= 0.8, f"best fitness {run.best.fitness}"

        def short_run(seed, workers):
            short = replace(params, generations=2, rng_seed=seed)
            run = evolve(short, grammar, fitness, workers=workers)
            stats = [(s.best, s.mean, s.median, s.evaluations) for s in run.stats]
            return run.best.phenotype, run.best.fitness, stats

        same_at_any_workers(short_run)
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def _ordering_assertions(results, sign_below_adam=True):
    by = {r.name: r for r in results}
    adam, ades, sign = by["adam"], by["ades"], by["sign"]
    assert ades.mean_test >= adam.mean_test - 0.02, (
        f"ades {ades.mean_test:.4f} more than 2pp below adam {adam.mean_test:.4f}"
    )
    if sign_below_adam:
        assert sign.mean_test < adam.mean_test, (
            f"sign {sign.mean_test:.4f} not below adam {adam.mean_test:.4f}"
        )
    assert sign.mean_test < ades.mean_test, (
        f"sign {sign.mean_test:.4f} not below ades {ades.mean_test:.4f}"
    )


def test_06_evolved_rules_hold_up_on_image_data():
    """784-64-10 on a 5k/1k/1k image subset, 20 epochs, 5 repetitions."""
    with criterion(6, "image-data benchmark: ades within 2pp of adam, sign below both"):
        t0 = time.perf_counter()
        base = os.environ.get(DATA_DIR_ENV)
        if not base:
            pytest.skip(f"${DATA_DIR_ENV} not set; place the idx files and re-run")
        images = Path(base) / "train-images-idx3-ubyte"
        labels = Path(base) / "train-labels-idx1-ubyte"
        if not (images.is_file() and labels.is_file()):
            pytest.skip(f"idx files not found under {base}")
        data = load_idx(images, labels, name="fashion")
        splits = split(data, SplitPlan(5_000, 5_000, 1, 1_000, 1_000))
        scenario = BenchmarkScenario(
            name="image_subset",
            steppers=["adam", "ades", "sign"],
            train=splits.train_pool,
            validation=splits.validation,
            test=splits.test,
            layer_sizes=[784, 64, 10],
            train_config=TrainConfig(batch_size=1000, max_epochs=20,
                                     early_stop=False),
            repetitions=5,
        )
        _ordering_assertions(run_benchmark(scenario, seed=0, workers=2))
        elapsed = time.perf_counter() - t0
        assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_06b_evolved_rules_hold_up_on_synthetic_stand_in():
    """The orderings that transfer to synthetic data always get exercised,
    and 5-epoch runs of the same lineup are equal at 1, 2 and 3 workers.

    Sign-vs-adam is a high-dimensional effect: on 2-D blobs the two are
    statistically tied (their gap flips sign across benchmark seeds), so
    asserting it here would just encode one lucky seed. The two robust
    clauses — ades within 2pp of adam, sign strictly below ades — hold
    across seeds and are asserted unconditionally.
    """
    with criterion(6, "stand-in benchmark: ades within 2pp of adam, sign below ades"):
        t0 = time.perf_counter()
        data = synthetic("two_gaussians", 2000, noise=0.15, seed=1)
        splits = split(data, SplitPlan(1200, 1200, 1, 400, 400))
        scenario = BenchmarkScenario(
            name="stand_in",
            steppers=["adam", "ades", "sign"],
            train=splits.train_pool,
            validation=splits.validation,
            test=splits.test,
            layer_sizes=[2, 16, 2],
            train_config=TrainConfig(batch_size=200, max_epochs=40,
                                     early_stop=False),
            repetitions=5,
        )
        results = run_benchmark(scenario, seed=0, workers=2)
        _ordering_assertions(results, sign_below_adam=False)

        short = replace(scenario, train_config=replace(scenario.train_config,
                                                       max_epochs=5))
        same_at_any_workers(lambda seed, workers: [
            (r.name, r.val_accuracies, r.test_accuracies)
            for r in run_benchmark(short, seed=seed, workers=workers)
        ])
        elapsed = time.perf_counter() - t0
        assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_07_generalization_rate_is_ratio_of_means():
    """93.05 validation / 92.45 test prints as exactly 99.36."""
    with criterion(7, "generalization rate 92.45/93.05 formats to 99.36"):
        result = BenchResult(
            name="probe", val_accuracies=[0.9305], test_accuracies=[0.9245]
        )
        assert f"{result.generalization_rate:.2f}" == "99.36"


def test_08_constant_grid_endpoints():
    """First and last of the 41 sigmoid constants to nine significant digits."""
    with criterion(8, "sigmoid constant grid spans 4.53978687e-05 … 9.99954602e-01"):
        vals = sigmoidal_constants(-10.0, 10.0, 41)
        assert len(vals) == 41
        assert f"{vals[0]:.8e}" == "4.53978687e-05"
        assert f"{vals[-1]:.8e}" == "9.99954602e-01"


def test_09_benchmark_never_tests_on_evolution_rows(tmp_path):
    """Full pipeline: held-back benchmark rows ∩ evolution rows == ∅."""
    with criterion(9, "benchmark test indices disjoint from evolution indices"):
        task = {
            "dataset": {"kind": "two_gaussians", "n": 400, "noise": 0.1, "seed": 5},
            "split": {
                "train_total": 240, "per_trial": 120, "trial_count": 2,
                "validation": 60, "test": 60,
            },
            "layer_sizes": [2, 8, 2],
            "batch_size": 60,
        }
        evolve_cfg = tmp_path / "evolve.json"
        evolve_cfg.write_text(json.dumps({
            "seed": 3,
            "evo": {"population": 5, "generations": 2, "tournament": 3},
            "grammar": "alr", "trials": 2, "workers": 1,
            "task": {**task, "max_epochs": 3, "early_stop": False},
        }))
        bench_cfg = tmp_path / "bench.json"
        bench_cfg.write_text(json.dumps({
            "seed": 3, "name": "holdout", "epochs": 3, "early_stop": False,
            "repetitions": 1, "workers": 1, "steppers": ["sgd"],
            "test_source": "reserve", "task": task,
        }))
        evo_run, bench_run = tmp_path / "evo", tmp_path / "bench"
        assert main(["evolve", str(evolve_cfg), "--run-dir", str(evo_run)]) == EXIT_OK
        assert main(["benchmark", str(bench_cfg), "--run-dir", str(bench_run)]) == EXIT_OK
        evo_idx = set(json.loads(
            (evo_run / "indices.json").read_text())["evolution_indices"])
        test_idx = set(json.loads(
            (bench_run / "indices.json").read_text())["test_indices"])
        assert len(test_idx) == 40  # the 400-row dataset leaves a 40-row reserve
        assert not (evo_idx & test_idx)


def test_10_tuner_recovers_analytic_optimum():
    """Best learning rate within ×1.5 of a known optimum, 25 evals, 10/10 seeds."""
    with criterion(10, "tuner lands within ×1.5 of the analytic optimum, all seeds"):
        t0 = time.perf_counter()
        space = SearchSpace([ParamSpec("lr", 1e-5, 1e-1, scale="log")])
        optimum = 1e-2

        def objective(params, seed):
            return -((math.log10(params["lr"]) - math.log10(optimum)) ** 2)

        for seed in range(10):
            best, history = tune("sgd", space, budget=25, seed=seed,
                                 objective=objective)
            assert len(history) == 25
            lr = best.params["lr"]
            ratio = max(lr / optimum, optimum / lr)
            assert ratio <= 1.5, f"seed {seed}: lr={lr} ratio={ratio:.3f}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
