"""Search spaces, the GP+EI loop, determinism, and the analytic recovery check."""

import csv
import hashlib
import io
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
import optevo.hyperopt as hyperopt
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
    tune_csv,
)
from optevo.nn import TrainConfig
from optevo.tensor import Rng

from oracles import gp_kernel, gp_posterior_lu


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

    def test_only_the_design_runs_on_workers(self):
        parent = os.getpid()

        def elsewhere(params, seed):
            return float(os.getpid() != parent)

        _, history = tune("sgd", LR_SPACE, budget=12, objective=elsewhere,
                          seed=0, workers=2)
        assert [t.objective for t in history] == [1.0] * 5 + [0.0] * 7

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
            draw = Rng(seed).child("sobol").draw(lambda g: int(g.integers(2**31 - 1)))
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


def posterior_case(seed):
    """A random GP state of the tuner's shapes: n evaluated points in dim
    1-3 and 256*dim + 64 candidates, some of them at evaluated points."""
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(2, 201)), int(rng.integers(1, 4))
    train = rng.random((n, dim))
    if rng.random() < 0.5:  # points clipped onto the cube's faces
        train = np.clip(rng.normal(0.5, 0.5, size=(n, dim)), 0.0, 1.0)
    if rng.random() < 0.5 and n > 2:  # duplicate points
        k = int(rng.integers(1, n // 2 + 1))
        train[n - k:] = train[:k]
    query = np.clip(rng.normal(0.5, 0.5, size=(256 * dim + 64, dim)), 0.0, 1.0)
    query[: min(n, 64)] = train[: min(n, 64)]
    return train, rng.random(n), query


def bowl_in_adam_space(params, seed):
    return (-((math.log10(params["lr"]) + 2.5) ** 2)
            - 10.0 * (params["beta1"] - 0.9) ** 2
            - 30.0 * (params["beta2"] - 0.99) ** 2)


class TestPosterior:
    """The posterior through a grown inverse of the Cholesky factor against
    three LU solves of a factor made afresh: the floats differ, the
    proposals do not."""

    def test_close_to_lu_solves(self):
        """mu's error is in units of y's standard deviation: mu can cross
        zero, so an error relative to mu itself says little. The largest
        errors measured were 1.7e-7 in mu and 5.0e-7 relative in sigma over
        these 400 cases, and 1.8e-7 and 5.0e-7 over 1500 cases of the same
        kind; the bounds leave a factor of about 6 in mu and 60 in sigma for
        other BLAS builds. Without the surrogate's refinement step on alpha,
        mu's error reached 1.5e-6."""
        worst_mu = worst_sigma = 0.0
        for seed in range(400):
            train, y, query = posterior_case(seed)
            mu, sigma = hyperopt._Surrogate(*train.shape, train).posterior(y, query)
            want_mu, want_sigma = gp_posterior_lu(train, y, query)
            worst_mu = max(worst_mu, np.max(np.abs(mu - want_mu)) / y.std())
            worst_sigma = max(worst_sigma,
                              np.max(np.abs(sigma - want_sigma) / want_sigma))
        assert worst_mu < 1e-6
        assert worst_sigma < 3e-5

    @pytest.mark.parametrize("family, space, objective", [
        ("sgd", LR_SPACE, quadratic_in_log10),
        ("adam", space_for("adam"), bowl_in_adam_space),
    ])
    def test_tune_proposes_the_same_points(self, monkeypatch, family, space,
                                           objective):
        for seed in range(12):
            _, got = tune(family, space, budget=60, objective=objective, seed=seed)
            with monkeypatch.context() as m:
                m.setattr(hyperopt._Surrogate, "posterior",
                          lambda gp, ys, query: gp_posterior_lu(gp.points, ys, query))
                _, want = tune(family, space, budget=60, objective=objective,
                               seed=seed)
            assert [t.params for t in got] == [t.params for t in want]


def assert_grown_exactly(gp):
    """K is the jittered train kernel bit for bit, and L^-1 inverts K's
    Cholesky factor. The largest error measured in L^-1 @ L was 9.2e-8 over
    the 400 posterior cases and 3.0e-9 over 80 budget-60 tune runs (seeds
    0-39 of the two trajectories below)."""
    u = gp.points
    want = _kernel(u, u)
    want[np.diag_indices_from(want)] += 1e-6
    assert gp.k.tobytes() == want.tobytes()
    eye = gp.linv @ np.linalg.cholesky(want)
    assert np.max(np.abs(eye - np.eye(len(u)))) < 1e-6


@pytest.fixture
def grown(monkeypatch):
    """Every surrogate `tune` makes, kept for inspection."""
    made = []

    class Kept(hyperopt._Surrogate):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(hyperopt, "_Surrogate", Kept)
    return made


class TestSurrogate:
    """The surrogate grows by one point per trial in O(n^2): one kernel
    column and one row of L^-1, with no factorization."""

    def test_grown_point_by_point(self):
        for seed in range(0, 400, 8):
            train, _, _ = posterior_case(seed)
            gp = hyperopt._Surrogate(*train.shape)
            for i, u in enumerate(train):
                gp.add(u)
                if i in (0, 1, len(train) // 2):
                    assert_grown_exactly(gp)
            assert_grown_exactly(gp)

    @pytest.mark.parametrize("family, space, objective", [
        ("sgd", LR_SPACE, quadratic_in_log10),
        ("adam", space_for("adam"), bowl_in_adam_space),
    ])
    def test_grown_along_a_tune_trajectory(self, grown, family, space,
                                           objective):
        _, history = tune(family, space, budget=60, objective=objective, seed=7)
        (gp,) = grown
        assert gp.n == 60
        assert [space.from_unit(u) for u in gp.points] == [t.params for t in history]
        assert_grown_exactly(gp)

    def test_tune_factors_and_inverts_nothing(self, monkeypatch):
        calls = []

        def counted(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("inv", "cholesky", "solve"):
            monkeypatch.setattr(np.linalg, name,
                                counted(name, getattr(np.linalg, name)))
        tune("adam", space_for("adam"), budget=60, objective=bowl_in_adam_space,
             seed=7)
        assert calls == []

    def test_random_search_grows_no_surrogate(self, grown):
        tune("sgd", LR_SPACE, budget=12, objective=quadratic_in_log10, seed=5,
             random_search=True)
        assert grown == []

    def test_a_kernel_not_positive_definite_raises_like_cholesky(
            self, monkeypatch):
        gp = hyperopt._Surrogate(3, 1)
        gp.add(np.array([0.5]))
        with pytest.raises(np.linalg.LinAlgError):
            gp.add(np.array([np.nan]))
        monkeypatch.setattr(hyperopt, "_JITTER", 0.0)
        gp = hyperopt._Surrogate(3, 1)
        gp.add(np.array([0.5]))
        with pytest.raises(np.linalg.LinAlgError):  # d^2 = 1 - 1 = 0
            gp.add(np.array([0.5]))


def small_task():
    return TrainingTask(
        trial_groups=[synthetic("two_gaussians", 60, seed=0)],
        validation=synthetic("two_gaussians", 30, seed=1),
        test=synthetic("two_gaussians", 30, seed=2),
        layer_sizes=[2, 4, 2],
        train_config=TrainConfig(batch_size=16, max_epochs=2, early_stop=False),
    )


class TestTaskObjective:
    def test_real_training_objective(self):
        task = small_task()
        best, history = tune("sgd", LR_SPACE, budget=5, task=task, seed=0)
        assert len(history) == 5
        assert all(0.0 <= t.objective <= 1.0 for t in history)
        again, _ = tune("sgd", LR_SPACE, budget=5, task=task, seed=0)
        assert again.params == best.params and again.objective == best.objective

    @pytest.mark.parametrize("workers", [1, 2])
    def test_training_exceptions_propagate(self, monkeypatch, workers):
        """Training reports a failure in its history, so an exception from
        the built-in objective is a bug: it fails the search instead of
        scoring 0, as an explicit objective's does."""

        def broken(*args):
            raise RuntimeError("bug in training")

        monkeypatch.setattr(hyperopt, "_run_trial", broken)
        with pytest.raises(RuntimeError, match="bug in training"):
            tune("sgd", LR_SPACE, budget=5, task=small_task(), seed=0, workers=workers)

    def test_quick_adam_tune_writes_the_recorded_csv(self, tmp_path):
        """configs/tune-adam.json at budget 40 (8 Sobol trials, then 32 EI
        proposals) writes these bytes. They were recorded while every trial
        seed and candidate set still came from a generator built for it, so
        the one-shot draws through the shared generator change no number."""
        from optevo.cli import EXIT_OK, main

        config = Path(__file__).resolve().parent.parent / "configs" / "tune-adam.json"
        run = tmp_path / "run"
        argv = ["tune", str(config), "--budget", "40", "--workers", "1", "--run-dir", str(run)]
        assert main(argv) == EXIT_OK
        digest = hashlib.sha256((run / "tune_adam.csv").read_bytes()).hexdigest()
        assert digest == "0ae3568b4b86083cbdba03f854f9995105c29a67a32fea90b879b8c43f5a743d"


class TestReporting:
    def test_csv_round_trip(self):
        _, history = tune("sgd", LR_SPACE, budget=6,
                          objective=quadratic_in_log10, seed=0)
        rows = list(csv.reader(io.StringIO(tune_csv(LR_SPACE, history))))
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
