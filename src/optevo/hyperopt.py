"""Sequential model-based hyperparameter search over optimizer constants.

Protocol: a low-discrepancy initial design (Sobol), then a Gaussian-process
surrogate (squared-exponential kernel over unit-cube coordinates, so length
scales follow each parameter's bounds) with expected-improvement proposals
maximized by random multi-start.  A random-search fallback flag keeps the
surrogate ablatable.  Every stochastic choice is keyed to the seed, so runs
are exactly repeatable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import norm, qmc

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
    d2 = ((a[:, None, :] - b[None, :, :]) / _LENGTH_SCALE) ** 2
    return np.exp(-0.5 * d2.sum(axis=2))


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


def _expected_improvement(mu, sigma, best_y):
    gamma = (mu - best_y - _EI_XI) / sigma
    return sigma * (gamma * norm.cdf(gamma) + norm.pdf(gamma))


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


def _sobol_design(n: int, dim: int, rng: Rng) -> np.ndarray:
    sampler = qmc.Sobol(d=dim, scramble=True,
                        seed=int(rng.integers(2**31 - 1)))
    pow2 = 1 << (n - 1).bit_length()  # sample a power of two, keep the first n
    return sampler.random(pow2)[:n]


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
    history_path=None,
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

    if history_path is not None:
        write_tune_csv(history_path, space, history)
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
