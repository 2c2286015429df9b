"""Sequential model-based hyperparameter search over optimizer constants.

Protocol: a self-contained scrambled Sobol initial design, then a Gaussian-
process surrogate (squared-exponential kernel over unit-cube coordinates, so
length scales follow each parameter's bounds) with expected-improvement
proposals maximized by random multi-start.  A random-search fallback flag keeps
the surrogate ablatable.  Every stochastic choice is keyed to the seed, so runs
are exactly repeatable.  NumPy is the only dependency.

Cost per proposal, with n evaluated points and m = 256*dim + 64 candidates:
`_kernel` accumulates one (n, m) buffer coordinate by coordinate (n*m*dim
elementwise work, no (n, m, dim) temporary), and the three `np.linalg.solve`
calls each LU-factor the n x n Cholesky factor (n^3) while the one against
the (n, m) cross-kernel adds n^2*m. Those solves dominate: at budget 200
(n = 199, m = 832, one BLAS thread) the cross-kernel solve takes about 8 ms
and the cross-kernel itself about 2 ms. Tried and rejected, because results
must stay bit-identical or the change did not pay:
- one solve against [y, kq] in place of solve(chol, y) and solve(chol, kq)
  changed the bits in 400 of 400 random cases;
- kq in Fortran order gave the same bits and no measurable gain;
- an incrementally grown train x train kernel: that kernel is about 2% of
  the posterior's time, not worth the extra state.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .evolve import TrainingTask, _run_trial
from .optim import HyperParams, make_stepper
from .tensor import Rng


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
    base = HyperParams.defaults_for(opt_family)
    if opt_family == "ades":
        return replace(base, c2=1.0 - params["beta1"], c1=1.0 - params["beta2"])
    fields = {k: v for k, v in params.items()}
    return replace(base, **fields)


@dataclass
class TuneTrial:
    iteration: int
    params: dict
    objective: float
    seed: int
    optimizer: str = ""


# --- Gaussian-process surrogate ----------------------------------------------


_LENGTH_SCALE = 0.25  # in unit-cube coordinates
_EI_XI = 0.01


def _kernel(a, b) -> np.ndarray:
    """exp(-0.5 * sum_k ((a_k - b_k) / length)^2), summed k = 0, 1, ... into
    one (n, m) buffer: the same ops in the same order as reducing an
    (n, m, d) temporary over its last axis, without building it."""
    d2 = np.subtract.outer(a[:, 0], b[:, 0])
    d2 /= _LENGTH_SCALE
    np.square(d2, out=d2)
    if a.shape[1] > 1:
        term = np.empty_like(d2)
        for k in range(1, a.shape[1]):
            np.subtract.outer(a[:, k], b[:, k], out=term)
            term /= _LENGTH_SCALE
            np.square(term, out=term)
            d2 += term
    d2 *= -0.5
    return np.exp(d2, out=d2)


def _gp_posterior(train_u, train_y, query_u):
    """Mean and std of a zero-mean unit-signal GP at the query points."""
    y_mean = train_y.mean()
    y_std = train_y.std()
    y = (train_y - y_mean) / (y_std if y_std > 0 else 1.0)
    k = _kernel(train_u, train_u)
    k[np.diag_indices_from(k)] += 1e-6
    chol = np.linalg.cholesky(k)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y))
    kq = _kernel(train_u, query_u)
    mu = kq.T @ alpha
    v = np.linalg.solve(chol, kq)
    var = np.clip(1.0 - (v**2).sum(axis=0), 1e-12, None)
    return mu * (y_std if y_std > 0 else 1.0) + y_mean, np.sqrt(var) * (
        y_std if y_std > 0 else 1.0
    )


def _norm_cdf(x):  # erfc keeps the lower tail accurate
    return 0.5 * np.frompyfunc(math.erfc, 1, 1)(-x * math.sqrt(0.5)).astype(float)


def _norm_pdf(x):
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _expected_improvement(mu, sigma, best_y):
    gamma = (mu - best_y - _EI_XI) / sigma
    return sigma * (gamma * _norm_cdf(gamma) + _norm_pdf(gamma))


def _propose(train_u, train_y, dim, rng: Rng):
    """Maximize EI over a random multi-start candidate set."""
    n_candidates = 256 * dim
    cands = rng.child("uniform").random(size=(n_candidates, dim))
    # restarts near the incumbent help refine a good basin
    best_u = train_u[int(np.argmax(train_y))]
    local = best_u + 0.05 * rng.child("local").normal(size=(64, dim))
    cands = np.clip(np.vstack([cands, local]), 0.0, 1.0)
    mu, sigma = _gp_posterior(train_u, train_y, cands)
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
    gen = np.random.default_rng(int(rng.integers(2**31 - 1)))
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
):
    """Run the search; returns (best TuneTrial, full history).

    `objective(params, seed) -> float` defaults to one seeded training of
    the family's optimizer on the task, scored on its test split.  Failures
    (exceptions or non-finite scores) record objective 0 and the search
    continues.
    """
    if budget < 5:
        raise TuneError("budget must be >= 5")
    if space is None:
        space = space_for(opt_family)
    if objective is None:
        if task is None:
            raise TuneError("need a task or an explicit objective")
        objective = _task_objective(opt_family, task)

    root = Rng(seed).child("tune", opt_family)
    n_init = max(5, budget // 5)
    design = _sobol_design(min(n_init, budget), space.dim, root.child("sobol"))

    history: list[TuneTrial] = []
    us: list[np.ndarray] = []
    ys: list[float] = []

    def run_point(i: int, u: np.ndarray) -> None:
        params = space.from_unit(u)
        trial_seed = int(root.child("trial", i).integers(2**31 - 1))
        try:
            score = float(objective(params, trial_seed))
        except Exception:
            score = 0.0
        if not np.isfinite(score):
            score = 0.0
        history.append(TuneTrial(i, params, score, trial_seed, opt_family))
        us.append(np.asarray(u, dtype=np.float64))
        ys.append(score)

    for i in range(len(design)):
        run_point(i, design[i])
    for i in range(len(design), budget):
        if random_search:
            u = root.child("fallback", i).random(size=space.dim)
        else:
            u = _propose(np.vstack(us), np.asarray(ys), space.dim,
                         root.child("ei", i))
        run_point(i, u)

    best = max(history, key=lambda t: (t.objective, -t.iteration))
    return best, history


def write_tune_csv(path, space: SearchSpace, history) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["iteration", *space.names, "objective"])
        for t in history:
            w.writerow(
                [t.iteration]
                + [repr(t.params[n]) for n in space.names]
                + [f"{t.objective:.6f}"]
            )


def report_best(history) -> str:
    """One table row: Optimizer | Parameters | Test Accuracy (ties -> earliest)."""
    if not history:
        raise TuneError("empty history")
    best = max(history, key=lambda t: (t.objective, -t.iteration))
    params = ", ".join(f"{k}={v:.10g}" for k, v in best.params.items())
    return f"{best.optimizer or 'optimizer'} | {params} | {best.objective:.4f}"
