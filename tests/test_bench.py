"""Benchmark harness: entries, statistics, report formatting, data hygiene."""

import csv

import numpy as np
import pytest

from optevo.bench import (
    SCENARIO_PRESETS,
    SUMMARY_COLUMNS,
    BenchError,
    BenchmarkScenario,
    BenchResult,
    make_entry,
    run_benchmark,
    summarize,
)
from optevo.data import Dataset, SplitPlan, split, synthetic
from optevo.optim import HyperParams, SpecStepper, builtin, spec_from_phenotype
from optevo.sched import Leaf


def indices_disjoint(a, b) -> bool:
    """True when two recorded index sets share no rows."""
    return len(np.intersect1d(np.asarray(a), np.asarray(b))) == 0


class TestMakeEntry:
    def test_builtin_name(self):
        name, factory = make_entry("sgd")
        assert name == "sgd"
        a, b = factory(), factory()
        assert a is not b  # fresh stepper per run

    def test_builtin_with_hyperparams(self):
        name, factory = make_entry(("momentum", HyperParams(lr=0.05)))
        assert name == "momentum"
        assert factory().spec is not None

    def test_optimizer_spec(self):
        spec = builtin("ades")
        name, factory = make_entry(spec)
        assert name == "ades"
        assert isinstance(factory(), SpecStepper)

    def test_policy(self):
        name, factory = make_entry(Leaf(0.01))
        assert name == "scheduled_sgd"
        assert factory().current_lr == 0.01

    def test_rejects_unknown(self):
        with pytest.raises(BenchError, match="unknown built-in"):
            make_entry("adagrad")
        with pytest.raises(BenchError, match="cannot interpret"):
            make_entry(42)
        with pytest.raises(BenchError, match="cannot interpret"):
            make_entry(builtin("adam"))  # one instance cannot serve every repetition


def tiny_scenario(steppers, reps=2, name="toy", **kw):
    return BenchmarkScenario(
        name=name,
        steppers=steppers,
        train=synthetic("two_gaussians", 80, seed=1),
        validation=synthetic("two_gaussians", 40, seed=2),
        test=synthetic("two_gaussians", 40, seed=3),
        layer_sizes=[2, 4, 2],
        epochs=kw.pop("epochs", 2),
        repetitions=reps,
        batch_size=16,
        early_stop=False,
        **kw,
    )


class TestScenario:
    def test_presets(self):
        assert SCENARIO_PRESETS["I"] == {"epochs": 100, "early_stop": True}
        assert SCENARIO_PRESETS["II"] == {"epochs": 20, "early_stop": False}
        assert SCENARIO_PRESETS["III"] == {"epochs": 100, "early_stop": False}

    def test_validation(self):
        with pytest.raises(BenchError, match="at least one"):
            tiny_scenario([])
        with pytest.raises(BenchError, match="repetitions"):
            tiny_scenario(["sgd"], reps=0)

    def test_bad_entry_fails_before_training(self):
        with pytest.raises(BenchError, match="unknown built-in"):
            tiny_scenario(["nope"])


class TestBenchResultStats:
    def test_equal_runs_have_zero_std(self):
        r = BenchResult("sgd", [0.5, 0.5], [0.5, 0.5])
        assert (r.mean_val, r.std_val) == (0.5, 0.0)

    def test_sample_std(self):
        r = BenchResult("sgd", [0.4, 0.6], [0.4, 0.6])
        assert r.std_test == pytest.approx(0.14142135623, rel=1e-9)

    def test_single_run_std_is_zero(self):
        r = BenchResult("sgd", [0.7], [0.6])
        assert r.std_val == 0.0 and r.std_test == 0.0

    def test_generalization_rate_reproduces_published_row(self):
        r = BenchResult("ades", [0.9305], [0.9245])
        assert f"{r.generalization_rate:.2f}" == "99.36"

    def test_generalization_rate_is_ratio_of_means(self):
        r = BenchResult("x", [0.8, 1.0], [0.45, 0.45])
        assert r.generalization_rate == pytest.approx(100 * 0.45 / 0.9)


class TestSummarize:
    def test_column_order_and_rows(self):
        results = [
            BenchResult("adam", [0.9305], [0.9245]),
            BenchResult("sgd", [0.5], [0.25]),
        ]
        text = summarize(results)
        lines = text.splitlines()
        for col in SUMMARY_COLUMNS:
            assert col in lines[0]
        assert lines[0].index("Optimizer") < lines[0].index("Validation Accuracy")
        assert lines[0].index("Validation Accuracy") < lines[0].index("Test Accuracy")
        assert lines[0].index("Test Accuracy") < lines[0].index("Generalization Rate")
        assert "99.36%" in lines[2]
        assert "50.00%" in lines[3]
        assert "93.05" in lines[2] and "92.45" in lines[2]

    def test_deterministic(self):
        results = [BenchResult("sgd", [0.5, 0.6], [0.4, 0.5])]
        assert summarize(results) == summarize(results)


class TestRunBenchmark:
    def test_shapes_and_order(self):
        s = tiny_scenario(["sgd", ("momentum", HyperParams(lr=0.05))])
        results = run_benchmark(s, seed=0)
        assert [r.name for r in results] == ["sgd", "momentum"]
        for r in results:
            assert len(r.val_accuracies) == len(r.test_accuracies) == 2
            assert all(0.0 <= a <= 1.0 for a in r.val_accuracies + r.test_accuracies)

    def test_deterministic_and_worker_invariant(self):
        s = tiny_scenario(["sgd", "adam"])
        a = run_benchmark(s, seed=4)
        b = run_benchmark(s, seed=4)
        c = run_benchmark(s, seed=4, workers=4)
        for x, y in ((a, b), (a, c)):
            for rx, ry in zip(x, y):
                assert rx.val_accuracies == ry.val_accuracies
                assert rx.test_accuracies == ry.test_accuracies
        d = run_benchmark(s, seed=5)
        assert any(
            ra.test_accuracies != rd.test_accuracies for ra, rd in zip(a, d)
        )

    def test_failed_training_scores_zero(self):
        nan_spec = spec_from_phenotype(
            "sqrt(negative(grad)) ; y ; z ; add(alpha, x)", name="nan_maker"
        )
        results = run_benchmark(tiny_scenario([nan_spec]), seed=0)
        assert results[0].val_accuracies == [0.0, 0.0]
        assert results[0].test_accuracies == [0.0, 0.0]

    def test_emits_csv_and_table(self, tmp_path):
        s = tiny_scenario(["sgd"], name="demo")
        run_benchmark(s, seed=0, out_dir=tmp_path)
        with open(tmp_path / "bench_demo.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["scenario", "optimizer", "repetition",
                           "val_accuracy", "test_accuracy"]
        assert len(rows) == 1 + 2  # two repetitions
        assert rows[1][:3] == ["demo", "sgd", "0"]
        table = (tmp_path / "bench_demo.txt").read_text()
        assert "Optimizer" in table and "sgd" in table

    def test_records_test_indices(self):
        s = tiny_scenario(["sgd"])
        results = run_benchmark(s, seed=0)
        np.testing.assert_array_equal(
            results[0].test_indices, s.test.source_indices
        )


class TestDataHygiene:
    def test_reserve_backed_test_set_is_disjoint_from_evolution(self):
        rng = np.random.default_rng(0)
        master = Dataset(rng.random((300, 4)), rng.integers(0, 2, 300), name="m")
        plan = SplitPlan(train_total=120, per_trial=40, trial_count=3,
                         validation=40, test=40, seed=9)
        splits = split(master, plan)
        r = splits.reserve
        bench_test = Dataset(r.x[:50], r.y[:50], name="bench-test",
                             source_indices=r.source_indices[:50])
        s = BenchmarkScenario(
            name="hygiene",
            steppers=["sgd"],
            train=splits.train_pool,
            validation=splits.validation,
            test=bench_test,
            layer_sizes=[4, 4, 2],
            epochs=1,
            repetitions=1,
            batch_size=32,
            early_stop=False,
        )
        results = run_benchmark(s, seed=0)
        assert indices_disjoint(results[0].test_indices, splits.evolution_indices())

    def test_overlap_is_detected(self):
        assert not indices_disjoint([1, 2, 3], [3, 4])
        assert indices_disjoint([1, 2], [3, 4])
        assert indices_disjoint([], [1])
