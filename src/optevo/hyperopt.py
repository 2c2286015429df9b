"""Sequential model-based hyperparameter search over optimizer constants.

Protocol: a self-contained scrambled Sobol initial design, then a Gaussian-
process surrogate (squared-exponential kernel over unit-cube coordinates, so
length scales follow each parameter's bounds) with expected-improvement
proposals maximized by random multi-start.  A random-search fallback flag keeps
the surrogate ablatable.  Every stochastic choice is keyed to the seed, so runs
are exactly repeatable.  NumPy is the only dependency.

Cost, with n evaluated points and m = 256*dim + 64 candidates: `tune` keeps
one `_Surrogate` per run and grows it as trials arrive, so each added point
costs one kernel column and one bordered row of the inverse Cholesky factor,
O(n^2 + n*dim); nothing is factored or inverted. A proposal costs the query
kernel, which `_kernel` accumulates in one (n, m) buffer coordinate by
coordinate (n*m*dim elementwise work, no (n, m, dim) temporary), and one
(n, n) x (n, m) GEMM for v: O(n^2*m + n*m*dim). At budget 200 (n = 199,
m = 832, one BLAS thread), in an `optevo` process, which keeps freed heap
(`cli._keep_freed_memory`), a proposal's posterior takes about 2.5-3 ms and
an added point about 0.08 ms. Without the kept heap each proposal faults its
two 1.3 MB temporaries, kq and v, in afresh: about 4.5-5.5 ms, against about
10.5 ms when each proposal rebuilt the train kernel, factored it and inverted
the factor with a general LU. A trial trains a Population of one (`evolve._run_trial`):
at the quick task (900 rows, batch 300, 8 epochs, 2-16-2) about 3.1 ms, most
of it its 24 batches' arithmetic, since a certified training takes no batch
loss and validates only on its last epoch. Its seed, and a proposal's two
candidate sets, are one-shot draws (`Rng.draw`) that build no generator.

The grown inverse changes the posterior's floats. One refinement step on
alpha keeps mu within about 2e-7 of y's standard deviation of a posterior
through LU solves, and sigma within about 5e-7 relative; without it mu's
error reached 1.5e-6. Neither has moved a proposal or a recorded tune
result (tests/test_hyperopt.py `TestPosterior`, `TestSurrogate`).

Tried and rejected while the posterior's bits had to stay those of the
solves, or because the change did not pay:
- one solve against [y, kq] in place of solve(chol, y) and solve(chol, kq)
  changed the bits in 400 of 400 random cases;
- kq in Fortran order gave the same bits and no measurable gain;
- splitting linv @ kq by linv's triangle changes v's bits in a way that
  depends on the BLAS build;
- computing the query kernel in row blocks gave no gain.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .evolve import TrainingTask, _run_trial, parallel_map
from .optim import HyperParams, make_stepper
from .tensor import Rng, draw_seed


class TuneError(ValueError):
    pass


@dataclass(frozen=True)
class ParamSpec:
    name: str
    low: float
    high: float
    scale: str = "linear"  # "linear" or "log"

    def __post_init__(self):
        if not (np.isfinite(self.low) and np.isfinite(self.high)):
            raise TuneError(f"{self.name}: bounds must be finite")
        if not self.low < self.high:
            raise TuneError(f"{self.name}: need low < high")
        if self.scale not in ("linear", "log"):
            raise TuneError(f"{self.name}: unknown scale {self.scale!r}")
        if self.scale == "log" and self.low <= 0:
            raise TuneError(f"{self.name}: log scale needs positive bounds")

    def from_unit(self, u: float) -> float:
        if self.scale == "log":
            value = float(
                np.exp(np.log(self.low) + u * (np.log(self.high) - np.log(self.low)))
            )
        else:
            value = float(self.low + u * (self.high - self.low))
        # exp/log round-tripping can drift one ulp past a bound
        return min(max(value, self.low), self.high)

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


@dataclass
class SearchSpace:
    params: list  # of ParamSpec, in column order

    def __post_init__(self):
        if not self.params:
            raise TuneError("empty search space")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise TuneError("duplicate parameter names")
        if len(names) > 1 + len(_JOE_KUO):  # dimensions of the Sobol design
            raise TuneError(f"at most {1 + len(_JOE_KUO)} parameters can be tuned")

    @property
    def names(self) -> list:
        return [p.name for p in self.params]

    @property
    def dim(self) -> int:
        return len(self.params)

    def from_unit(self, u) -> dict:
        return {p.name: p.from_unit(float(v)) for p, v in zip(self.params, u)}

    def contains(self, values: dict) -> bool:
        return all(p.contains(values[p.name]) for p in self.params)


def _lr(low=1e-5, high=1e-1) -> ParamSpec:
    return ParamSpec("lr", low, high, "log")


def _decay(name) -> ParamSpec:
    return ParamSpec(name, 0.5, 0.9999, "linear")


# per-family tunable constants; ades searches in beta space (see hyperparams_for)
FAMILY_SPACES = {
    "sgd": [_lr()],
    "momentum": [_lr(), _decay("mom")],
    "nesterov": [_lr(), _decay("mom")],
    "rmsprop": [_lr(), _decay("rho")],
    "adam": [_lr(), _decay("beta1"), _decay("beta2")],
    "ades": [_decay("beta1"), _decay("beta2")],
}


def space_for(opt_family: str) -> SearchSpace:
    if opt_family not in FAMILY_SPACES:
        raise TuneError(f"no search space for optimizer {opt_family!r}")
    return SearchSpace(list(FAMILY_SPACES[opt_family]))


def hyperparams_for(opt_family: str, params: dict) -> HyperParams:
    """Tuned values -> HyperParams; ades betas map to its own constants
    (c2 = 1 - beta1, c1 = 1 - beta2)."""
    if opt_family == "ades":
        params = {"c2": 1.0 - params["beta1"], "c1": 1.0 - params["beta2"]}
    return HyperParams.defaults_for(opt_family, **params)


@dataclass
class TuneTrial:
    iteration: int
    params: dict
    objective: float
    seed: int
    optimizer: str = ""


# --- Gaussian-process surrogate ----------------------------------------------


_LENGTH_SCALE = 0.25  # in unit-cube coordinates
_JITTER = 1e-6  # added to the train kernel's diagonal
_EI_XI = 0.01


def _kernel(a, b) -> np.ndarray:
    """exp(-0.5 * sum_k ((a_k - b_k) / length)^2), summed k = 0, 1, ... into
    one (n, m) buffer: the same ops in the same order as reducing an
    (n, m, d) temporary over its last axis, without building it. The inputs
    are scaled once by 1 / length = 4, a power of two, so a_k / length -
    b_k / length rounds to the same double as (a_k - b_k) / length."""
    a = a * (1.0 / _LENGTH_SCALE)
    b = b * (1.0 / _LENGTH_SCALE)
    d2 = np.subtract.outer(a[:, 0], b[:, 0])
    np.square(d2, out=d2)
    if a.shape[1] > 1:
        term = np.empty_like(d2)
        for k in range(1, a.shape[1]):
            np.subtract.outer(a[:, k], b[:, k], out=term)
            np.square(term, out=term)
            d2 += term
    d2 *= -0.5
    return np.exp(d2, out=d2)


class _Surrogate:
    """The train side of a zero-mean unit-signal GP, grown one evaluated
    point at a time: the points, the jittered train kernel K and the inverse
    of K's lower Cholesky factor, in buffers for `capacity` points. It starts
    from `points`, added in order."""

    def __init__(self, capacity: int, dim: int, points=()):
        self.n = 0
        self._u = np.empty((capacity, dim))
        self._k = np.empty((capacity, capacity))
        self._linv = np.zeros((capacity, capacity))
        for u in points:
            self.add(u)

    @property
    def points(self) -> np.ndarray:
        return self._u[: self.n]

    @property
    def k(self) -> np.ndarray:
        return self._k[: self.n, : self.n]

    @property
    def linv(self) -> np.ndarray:
        return self._linv[: self.n, : self.n]

    def add(self, u) -> None:
        """Border K with u's kernel column and L^-1 with one row: if
        L l = k and d^2 = k_nn - l.l, the new factor is [[L, 0], [l', d]]
        and its inverse gains the row [-(l' L^-1) / d, 1 / d]."""
        n = self.n
        self._u[n] = u
        # (a - b)^2 == (b - a)^2, so the column is also K's new row
        col = _kernel(self._u[: n + 1], self._u[n : n + 1])[:, 0]
        col[n] += _JITTER
        self._k[n, : n + 1] = col
        self._k[:n, n] = col[:n]
        linv = self._linv[:n, :n]
        l = linv @ col[:n]
        d2 = col[n] - l @ l
        if not (np.isfinite(d2) and d2 > 0):
            raise np.linalg.LinAlgError("train kernel is not positive definite")
        d = math.sqrt(d2)
        self._linv[n, :n] = (l @ linv) / -d
        self._linv[n, n] = 1.0 / d
        self.n = n + 1

    def posterior(self, train_y, query_u):
        """Mean and std at the query points, given the objective at each
        point. One refinement step on alpha = K^-1 y against the stored K
        takes up the rounding that L^-1 gathers as it grows."""
        y_mean = train_y.mean()
        y_std = train_y.std()
        scale = y_std if y_std > 0 else 1.0
        y = (train_y - y_mean) / scale
        linv = self.linv
        alpha = linv.T @ (linv @ y)
        alpha += linv.T @ (linv @ (y - self.k @ alpha))
        kq = _kernel(self.points, query_u)
        mu = kq.T @ alpha
        v = linv @ kq
        var = np.clip(1.0 - (v**2).sum(axis=0), 1e-12, None)
        return mu * scale + y_mean, np.sqrt(var) * scale


def _norm_cdf(x):  # erfc keeps the lower tail accurate
    return 0.5 * np.frompyfunc(math.erfc, 1, 1)(-x * math.sqrt(0.5)).astype(float)


def _norm_pdf(x):
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _expected_improvement(mu, sigma, best_y):
    gamma = (mu - best_y - _EI_XI) / sigma
    return sigma * (gamma * _norm_cdf(gamma) + _norm_pdf(gamma))


def _propose(gp: _Surrogate, train_y, dim, rng: Rng):
    """Maximize EI over a random multi-start candidate set."""
    n_candidates = 256 * dim
    cands = rng.child("uniform").draw(lambda gen: gen.random(size=(n_candidates, dim)))
    # restarts near the incumbent help refine a good basin
    best_u = gp.points[int(np.argmax(train_y))]
    local = best_u + 0.05 * rng.child("local").draw(lambda gen: gen.normal(size=(64, dim)))
    cands = np.clip(np.vstack([cands, local]), 0.0, 1.0)
    mu, sigma = gp.posterior(train_y, cands)
    ei = _expected_improvement(mu, sigma, train_y.max())
    return cands[int(np.argmax(ei))]


# Joe & Kuo (2008) degree s, coefficient bits a and initial m values of the
# primitive polynomials of Sobol dimensions 2 and 3; dimension 1 is van der Corput
_JOE_KUO = [(1, 0, (1,)), (2, 1, (1, 3))]
_BITS = 30


def _direction_numbers(dim: int) -> np.ndarray:
    """(dim, 30) direction numbers v[d, j] = m_j << (29 - j)."""
    ms = [[1] * _BITS]
    for s, a, m in _JOE_KUO[: dim - 1]:
        m = list(m)
        for j in range(s, _BITS):
            mj = m[j - s] ^ (m[j - s] << s)
            for k in range(1, s):
                mj ^= ((a >> (s - 1 - k)) & 1) * (m[j - k] << k)
            m.append(mj)
        ms.append(m)
    return np.array([[mj << (_BITS - 1 - j) for j, mj in enumerate(m)] for m in ms],
                    dtype=np.uint32)


def _sobol_design(n: int, dim: int, rng: Rng) -> np.ndarray:
    """First n scrambled Sobol points in Gray-code order: Owen's (1998)
    left-matrix scramble (unit diagonal) and a digital shift, drawn from a
    generator seeded by one draw of rng, shift first."""
    gen = np.random.default_rng(rng.draw(draw_seed))
    bits = np.arange(_BITS, dtype=np.uint32)
    shift = gen.integers(2, size=(dim, _BITS), dtype=np.uint32) @ (1 << bits)
    ltm = np.tril(gen.integers(2, size=(dim, _BITS, _BITS), dtype=np.uint32))
    ltm[:, bits, bits] = 1
    # scrambled direction number = its bits, most significant first, times ltm mod 2
    msb_first = 1 << (_BITS - 1 - bits)
    v_bits = (_direction_numbers(dim)[:, :, None] & msb_first) != 0
    v = (np.einsum("dpi,dji->djp", ltm, v_bits.astype(np.uint32)) & 1) @ msb_first
    flips = [(i & -i).bit_length() - 1 for i in range(1, n)]  # Gray-code order
    return np.bitwise_xor.accumulate(np.vstack([shift, v[:, flips].T])) * 2.0**-_BITS


def _task_objective(opt_family: str, task: TrainingTask):
    def objective(params: dict, seed: int) -> float:
        hp = hyperparams_for(opt_family, params)
        stepper = make_stepper(opt_family, hp)
        score, _failed = _run_trial(
            replace(task, seed=seed), stepper, 0, f"tune-{opt_family}"
        )
        return score

    return objective


def tune(
    opt_family: str,
    space: SearchSpace | None = None,
    budget: int = 25,
    task: TrainingTask | None = None,
    seed: int = 0,
    *,
    objective=None,
    random_search: bool = False,
    workers: int = 1,
):
    """Run the search; returns (best TuneTrial, full history).

    `objective(params, seed) -> float` defaults to one seeded training of
    the family's optimizer on the task, scored on its test split; a failed
    training scores 0, and an exception from it is a bug, which propagates.
    A non-finite score, and an exception from an explicit `objective`,
    record objective 0 and the search continues.  The Sobol trials run on
    `workers` processes; EI runs in order.
    """
    if budget < 5:
        raise TuneError("budget must be >= 5")
    if space is None:
        space = space_for(opt_family)
    caught = Exception  # what an objective may raise and score 0 for
    if objective is None:
        if task is None:
            raise TuneError("need a task or an explicit objective")
        objective = _task_objective(opt_family, task)
        caught = ()  # a failed training scores 0 without raising

    root = Rng(seed).child("tune", opt_family)
    n_init = max(5, budget // 5)
    design = _sobol_design(min(n_init, budget), space.dim, root.child("sobol"))

    def run_point(i: int, u: np.ndarray) -> TuneTrial:
        params = space.from_unit(u)
        trial_seed = root.child("trial", i).draw(draw_seed)
        try:
            score = float(objective(params, trial_seed))
        except caught:
            score = 0.0
        if not np.isfinite(score):
            score = 0.0
        return TuneTrial(i, params, score, trial_seed, opt_family)

    history = parallel_map(lambda i: run_point(i, design[i]), range(len(design)), workers)
    gp = None if random_search else _Surrogate(budget, space.dim, design)
    for i in range(len(design), budget):
        if random_search:
            u = root.child("fallback", i).draw(lambda gen: gen.random(size=space.dim))
        else:
            ys = np.array([t.objective for t in history])
            u = _propose(gp, ys, space.dim, root.child("ei", i))
            gp.add(u)
        history.append(run_point(i, u))

    best = max(history, key=lambda t: (t.objective, -t.iteration))
    return best, history


def tune_csv(space: SearchSpace, history) -> str:
    """CSV text of one row per trial."""
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["iteration", *space.names, "objective"])
    for t in history:
        w.writerow(
            [t.iteration]
            + [repr(t.params[n]) for n in space.names]
            + [f"{t.objective:.6f}"]
        )
    return out.getvalue()


def report_best(history) -> str:
    """One table row: Optimizer | Parameters | Test Accuracy (ties -> earliest)."""
    if not history:
        raise TuneError("empty history")
    best = max(history, key=lambda t: (t.objective, -t.iteration))
    params = ", ".join(f"{k}={v:.10g}" for k, v in best.params.items())
    return f"{best.optimizer or 'optimizer'} | {params} | {best.objective:.4f}"
