"""Search spaces, the GP+EI loop, determinism, and the analytic recovery check."""

import csv
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import optevo
from optevo.data import synthetic
from optevo.evolve import TrainingTask
from optevo.hyperopt import (
    FAMILY_SPACES,
    ParamSpec,
    SearchSpace,
    TuneError,
    TuneTrial,
    _kernel,
    _norm_cdf,
    _norm_pdf,
    _sobol_design,
    hyperparams_for,
    report_best,
    space_for,
    tune,
    write_tune_csv,
)
from optevo.nn import TrainConfig
from optevo.tensor import Rng

from oracles import gp_kernel


class TestParamSpec:
    def test_linear_from_unit(self):
        p = ParamSpec("mom", 0.5, 0.9999)
        assert p.from_unit(0.0) == 0.5
        assert p.from_unit(1.0) == pytest.approx(0.9999)
        assert p.from_unit(0.5) == pytest.approx(0.74995)

    def test_log_from_unit_hits_geometric_midpoint(self):
        p = ParamSpec("lr", 1e-5, 1e-1, "log")
        assert p.from_unit(0.0) == pytest.approx(1e-5)
        assert p.from_unit(1.0) == pytest.approx(1e-1)
        assert p.from_unit(0.5) == pytest.approx(1e-3)

    def test_validation(self):
        with pytest.raises(TuneError, match="low < high"):
            ParamSpec("x", 1.0, 1.0)
        with pytest.raises(TuneError, match="finite"):
            ParamSpec("x", 0.0, np.inf)
        with pytest.raises(TuneError, match="positive"):
            ParamSpec("x", 0.0, 1.0, "log")
        with pytest.raises(TuneError, match="unknown scale"):
            ParamSpec("x", 0.0, 1.0, "cubic")


class TestSearchSpace:
    def test_names_and_transform(self):
        s = space_for("adam")
        assert s.names == ["lr", "beta1", "beta2"]
        vals = s.from_unit([0.5, 0.0, 1.0])
        assert vals["lr"] == pytest.approx(1e-3)
        assert vals["beta1"] == 0.5
        assert vals["beta2"] == pytest.approx(0.9999)
        assert s.contains(vals)

    def test_family_spaces(self):
        assert space_for("nesterov").names == ["lr", "mom"]
        assert space_for("rmsprop").names == ["lr", "rho"]
        assert space_for("ades").names == ["beta1", "beta2"]  # no lr: weight
        # update is built entirely from its own accumulator dynamics
        for specs in FAMILY_SPACES.values():
            for p in specs:
                if p.name == "lr":
                    assert p.scale == "log"
                else:
                    assert (p.low, p.high, p.scale) == (0.5, 0.9999, "linear")

    def test_unknown_family(self):
        with pytest.raises(TuneError, match="no search space"):
            space_for("adagrad")

    def test_duplicate_names_rejected(self):
        with pytest.raises(TuneError, match="duplicate"):
            SearchSpace([ParamSpec("a", 0, 1), ParamSpec("a", 0, 1)])

    def test_empty_rejected(self):
        with pytest.raises(TuneError, match="empty"):
            SearchSpace([])

    def test_more_dimensions_than_the_sobol_design_rejected(self):
        with pytest.raises(TuneError, match="at most 3 parameters"):
            SearchSpace([ParamSpec(name, 0, 1) for name in "abcd"])

    @given(st.data())
    def test_from_unit_stays_in_bounds(self, data):
        space = space_for(data.draw(st.sampled_from(sorted(FAMILY_SPACES))))
        unit = st.floats(0.0, 1.0, allow_nan=False)
        u = data.draw(st.lists(unit, min_size=space.dim, max_size=space.dim))
        assert space.contains(space.from_unit(u))


class TestHyperparamsFor:
    def test_adam_fields(self):
        hp = hyperparams_for("adam", {"lr": 0.01, "beta1": 0.8, "beta2": 0.95})
        assert (hp.lr, hp.beta1, hp.beta2) == (0.01, 0.8, 0.95)

    def test_ades_betas_map_to_accumulator_constants(self):
        hp = hyperparams_for("ades", {"beta1": 0.9800744569, "beta2": 0.9968261576})
        assert hp.c2 == pytest.approx(1 - 0.9800744569)
        assert hp.c1 == pytest.approx(1 - 0.9968261576)

    def test_untouched_fields_keep_defaults(self):
        hp = hyperparams_for("rmsprop", {"lr": 0.02, "rho": 0.7})
        assert hp.epsilon == 1e-7


LR_SPACE = SearchSpace([ParamSpec("lr", 1e-5, 1e-1, "log")])


def quadratic_in_log10(params, seed):
    return -((math.log10(params["lr"]) + 2.0) ** 2)


class TestTuneLoop:
    def test_budget_minimum(self):
        with pytest.raises(TuneError, match="budget"):
            tune("sgd", LR_SPACE, budget=4, objective=quadratic_in_log10)

    def test_history_length_and_bounds(self):
        best, history = tune("sgd", LR_SPACE, budget=15,
                             objective=quadratic_in_log10, seed=0)
        assert len(history) == 15
        assert [t.iteration for t in history] == list(range(15))
        assert all(LR_SPACE.contains(t.params) for t in history)
        assert best.objective == max(t.objective for t in history)

    def test_budget_five_is_pure_initial_design(self):
        _, history = tune("sgd", LR_SPACE, budget=5,
                          objective=quadratic_in_log10, seed=1)
        assert len(history) == 5

    def test_constant_objective_ties_go_to_earliest(self):
        best, history = tune("sgd", LR_SPACE, budget=8,
                             objective=lambda p, s: 0.25, seed=2)
        assert best.iteration == 0
        assert best.objective == 0.25

    def test_deterministic_per_seed(self):
        a = tune("sgd", LR_SPACE, budget=12, objective=quadratic_in_log10, seed=3)
        b = tune("sgd", LR_SPACE, budget=12, objective=quadratic_in_log10, seed=3)
        assert [t.params for t in a[1]] == [t.params for t in b[1]]
        c = tune("sgd", LR_SPACE, budget=12, objective=quadratic_in_log10, seed=4)
        assert [t.params for t in a[1]] != [t.params for t in c[1]]

    def test_exceptions_record_zero_and_continue(self):
        def flaky(params, seed):
            if params["lr"] > 1e-3:
                raise RuntimeError("boom")
            return 0.5

        _, history = tune("sgd", LR_SPACE, budget=10, objective=flaky, seed=0)
        assert len(history) == 10
        assert all(t.objective in (0.0, 0.5) for t in history)

    def test_nonfinite_objective_records_zero(self):
        _, history = tune("sgd", LR_SPACE, budget=6,
                          objective=lambda p, s: float("nan"), seed=0)
        assert all(t.objective == 0.0 for t in history)

    def test_random_search_fallback(self):
        a = tune("sgd", LR_SPACE, budget=12, objective=quadratic_in_log10,
                 seed=5, random_search=True)
        b = tune("sgd", LR_SPACE, budget=12, objective=quadratic_in_log10,
                 seed=5, random_search=True)
        assert [t.params for t in a[1]] == [t.params for t in b[1]]
        gp = tune("sgd", LR_SPACE, budget=12, objective=quadratic_in_log10, seed=5)
        assert [t.params for t in a[1]][5:] != [t.params for t in gp[1]][5:]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recovers_analytic_optimum(self, seed):
        best, _ = tune("sgd", LR_SPACE, budget=25,
                       objective=quadratic_in_log10, seed=seed)
        assert 1e-2 / 1.5 <= best.params["lr"] <= 1e-2 * 1.5

    def test_needs_task_or_objective(self):
        with pytest.raises(TuneError, match="task or an explicit objective"):
            tune("sgd", LR_SPACE, budget=5)


class TestSelfContainedDesign:
    """The numpy Sobol design and EI terms against scipy, kept as a test oracle."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [5, 8, 40, 64])
    def test_sobol_design_equals_scipy(self, dim, n):
        qmc = pytest.importorskip("scipy.stats").qmc
        for seed in range(6):
            rng = Rng(seed).child("sobol")
            draw = int(Rng(seed).child("sobol").integers(2**31 - 1))
            pow2 = 1 << (n - 1).bit_length()
            expected = qmc.Sobol(dim, scramble=True, seed=draw).random(pow2)[:n]
            got = _sobol_design(n, dim, rng)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    def test_normal_cdf_and_pdf_match_scipy(self):
        ndtr = pytest.importorskip("scipy.special").ndtr
        norm = pytest.importorskip("scipy.stats").norm
        gamma = np.linspace(-8.0, 8.0, 16001)
        np.testing.assert_allclose(_norm_cdf(gamma), ndtr(gamma), rtol=1e-12, atol=0)
        np.testing.assert_array_equal(_norm_pdf(gamma), norm.pdf(gamma))

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, optevo.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": str(Path(optevo.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.strip() == "[]"


class TestKernel:
    @given(
        st.integers(1, 300),
        st.integers(1, 300),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_matches_broadcast_form_bit_for_bit(self, n, m, d, seed, shared):
        rng = np.random.default_rng(seed)
        a = rng.random((n, d))
        # proposals near the incumbent are clipped onto the cube's faces
        b = np.clip(rng.normal(0.5, 0.4, size=(m, d)), 0.0, 1.0)
        if shared:  # duplicate points: a zero distance
            k = min(n, m)
            b[:k] = a[:k]
            a[-1] = a[0]
        got, want = _kernel(a, b), gp_kernel(a, b)
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype,
                                                          want.tobytes())

    def test_builds_no_three_dimensional_temporary(self):
        """Peak allocation at the largest tune-gp query shape (budget 200,
        3 parameters) stays near the (n, m) output; an (n, m, 3) temporary
        alone is three outputs."""
        rng = np.random.default_rng(0)
        a, b = rng.random((199, 3)), rng.random((832, 3))
        tracemalloc.start()
        try:
            out = _kernel(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * out.nbytes


class TestTaskObjective:
    def test_real_training_objective(self):
        task = TrainingTask(
            trial_groups=[synthetic("two_gaussians", 60, seed=0)],
            validation=synthetic("two_gaussians", 30, seed=1),
            test=synthetic("two_gaussians", 30, seed=2),
            layer_sizes=[2, 4, 2],
            train_config=TrainConfig(batch_size=16, max_epochs=2, early_stop=False),
        )
        best, history = tune("sgd", LR_SPACE, budget=5, task=task, seed=0)
        assert len(history) == 5
        assert all(0.0 <= t.objective <= 1.0 for t in history)
        again, _ = tune("sgd", LR_SPACE, budget=5, task=task, seed=0)
        assert again.params == best.params and again.objective == best.objective


class TestReporting:
    def test_csv_round_trip(self, tmp_path):
        _, history = tune("sgd", LR_SPACE, budget=6,
                          objective=quadratic_in_log10, seed=0)
        write_tune_csv(tmp_path / "h.csv", LR_SPACE, history)
        with open(tmp_path / "h.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["iteration", "lr", "objective"]
        assert len(rows) == 7
        assert float(rows[1][1]) == pytest.approx(history[0].params["lr"])

    def test_report_best_format_and_tie_rule(self):
        history = [
            TuneTrial(0, {"lr": 0.01}, 0.9, 1, "adam"),
            TuneTrial(1, {"lr": 0.02}, 0.9, 2, "adam"),
        ]
        row = report_best(history)
        assert row.startswith("adam | lr=0.01 | 0.9000")

    def test_report_best_empty(self):
        with pytest.raises(TuneError, match="empty history"):
            report_best([])
