"""Independent references used as ground truth for the package.

The trajectory functions advance one scalar weight through a list of
gradients and return the weight value after every step. They are written
directly from the published update rules in plain Python floats and share no
code with the package — that independence is what makes them oracles.
`nesterov_steps` is the array form of one of them, op for op as the native
Nesterov stepper computed it before Nesterov became a spec.
`assert_same_bits` compares float64 results byte for byte,
`stack_networks` stacks copies of one-member Populations' weights into the
(K, P) buffer of a Population, and `member_params` copies one member's
tensors out in the unstacked layout that `_forward`, `_backward` and
`train_per_tensor` take.

`gp_kernel` is the tuner's squared-exponential kernel in its direct
broadcast form, `gp_posterior_lu` is its GP posterior through three LU
solves against the Cholesky factor, and `train_per_tensor` is the training loop over separately
allocated weight tensors, each with a stepper of its own: the layouts the
package replaced with a 2-D accumulation and one flat parameter buffer.

`eager_checksum`, `load_idx_eager`, `load_cifar10_eager` and `split_by_take`
are the data layer as it was before it held one copy of the pixels: a
digest over `tobytes()` copies, scaling through a second full-size
temporary, a list of batches joined by `concatenate`, and a fresh copy of
every split part.

`eval_expr` is the recursive tree interpreter that evolved update rules
ran through before `optim.compile_spec` compiled them: one `elementwise`
call per node, constants broadcast as scalars.

`fitness_alr_lone` and `fitness_dlr_lone` are the fitness protocols as they
ran before trials went trial-major: each text's trials train one lone
network at a time through `evolve._run_trial`, in trial order, cancelled at
the first score below the threshold.

`stream` builds the generator of one keyed stream alone, from numpy's
SeedSequence, as each stream of many draws once built its own generator.
`seed_population_per_stream`, `breed_per_stream` and `repair_per_stream`
are the evolve generation's stochastic steps on those generators: seeding,
tournament, crossover and mutation, and repair, each choice drawing from a
generator of its own stream instead of the re-keyed shared one.
"""

import hashlib
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from optevo import evolve
from optevo.dsge import (Genotype, Individual, MappingFailure, crossover, map_genotype, mutate,
                         random_derivation, tournament_select)
from optevo.nn import Population
from optevo.optim import Apply, Const, ExprError, SpecStepper, Var
from optevo.sched import ScheduledSGD, serialize_policy
from optevo.tensor import elementwise


def sgd_trajectory(w0, grads, lr):
    w = w0
    out = []
    for g in grads:
        w = w - lr * g
        out.append(w)
    return out


def momentum_trajectory(w0, grads, lr, mom):
    w, x = w0, 0.0
    out = []
    for g in grads:
        x = mom * x - lr * g
        w = w + x
        out.append(w)
    return out


def nesterov_trajectory(w0, grads, lr, mom):
    # current-point reformulation: the look-ahead is folded into the update
    w, x = w0, 0.0
    out = []
    for g in grads:
        x = mom * x - lr * g
        w = w + mom * x - lr * g
        out.append(w)
    return out


def nesterov_steps(w, grads, lr, mom):
    """The weight arrays after each gradient, in the native Nesterov stepper's
    float64 array ops and their order: the bytes its spec must write."""
    velocity = np.zeros_like(w)
    out = []
    for g in grads:
        velocity = mom * velocity - lr * g
        w = w + mom * velocity - lr * g
        out.append(w)
    return out


def rmsprop_trajectory(w0, grads, lr, rho, eps):
    w, x = w0, 0.0
    out = []
    for g in grads:
        x = rho * x + (1.0 - rho) * g * g
        w = w - lr * g / (math.sqrt(x) + eps)
        out.append(w)
    return out


def adam_trajectory(w0, grads, lr, beta1, beta2, eps):
    w, x, y = w0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        x = beta1 * x + (1.0 - beta1) * g
        y = beta2 * y + (1.0 - beta2) * g * g
        z = lr * math.sqrt(1.0 - beta2**t) / (1.0 - beta1**t)
        w = w - z * x / (math.sqrt(y) + eps)
        out.append(w)
    return out


def adam_core_trajectory(w0, grads, lr, beta1, beta2, eps):
    # the moving-average core without the step-count rescale
    w, x, y = w0, 0.0, 0.0
    out = []
    for g in grads:
        x = beta1 * x + (1.0 - beta1) * g
        y = beta2 * y + (1.0 - beta2) * g * g
        w = w - lr * x / (math.sqrt(y) + eps)
        out.append(w)
    return out


def sign_trajectory(w0, grads, step=9e-4):
    def sgn(v):
        return (v > 0) - (v < 0)

    w = w0
    out = []
    for g in grads:
        w = w - step * sgn(g)
        out.append(w)
    return out


def ades_trajectory(w0, grads, c1=0.08922, c2=0.0891):
    w, y = w0, 0.0
    out = []
    for g in grads:
        y = (1.0 - c1) * y - (c1 * y * y + c2 * y * g + c2 * g)
        w = w + y
        out.append(w)
    return out


ORACLES = {
    "sgd": lambda w0, grads, hp: sgd_trajectory(w0, grads, hp.lr),
    "momentum": lambda w0, grads, hp: momentum_trajectory(w0, grads, hp.lr, hp.mom),
    "nesterov": lambda w0, grads, hp: nesterov_trajectory(w0, grads, hp.lr, hp.mom),
    "rmsprop": lambda w0, grads, hp: rmsprop_trajectory(
        w0, grads, hp.lr, hp.rho, hp.epsilon
    ),
    "adam": lambda w0, grads, hp: adam_trajectory(
        w0, grads, hp.lr, hp.beta1, hp.beta2, hp.epsilon
    ),
    "adam_core": lambda w0, grads, hp: adam_core_trajectory(
        w0, grads, hp.lr, hp.beta1, hp.beta2, hp.epsilon
    ),
    "sign": lambda w0, grads, hp: sign_trajectory(w0, grads),
    "ades": lambda w0, grads, hp: ades_trajectory(w0, grads, hp.c1, hp.c2),
}


def assert_same_bits(got, want):
    """Byte-equal float64 values, any NaN counting as equal to any NaN."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(want))
    assert got[~nan].tobytes() == want[~nan].tobytes()


def stack_networks(nets):
    """A Population over a fresh (K, P) buffer whose row k is a copy of the
    one row of nets[k].flat."""
    return Population(nets[0].layer_sizes, np.concatenate([net.flat for net in nets]))


def member_params(pop, k):
    """Copies of member k's [w0, b0, w1, b1, ...]: weights (fan_in, fan_out)
    and biases (fan_out,)."""
    return [p[k].copy() if i % 2 == 0 else p[k][0].copy() for i, p in enumerate(pop.params)]


def gp_kernel(a, b, length_scale=0.25):
    """exp(-0.5 * |a_i - b_j|^2 / length_scale^2) through an (n, m, d)
    broadcast temporary reduced over its last axis."""
    d2 = ((a[:, None, :] - b[None, :, :]) / length_scale) ** 2
    return np.exp(-0.5 * d2.sum(axis=2))


def gp_posterior_lu(train_u, train_y, query_u):
    """Mean and std of a zero-mean unit-signal GP, each `np.linalg.solve`
    LU-factoring the lower Cholesky factor again (Rasmussen & Williams
    2006, Alg. 2.1, with general solves in place of triangular ones)."""
    y_mean = train_y.mean()
    y_std = train_y.std()
    scale = y_std if y_std > 0 else 1.0
    y = (train_y - y_mean) / scale
    k = gp_kernel(train_u, train_u)
    k[np.diag_indices_from(k)] += 1e-6
    chol = np.linalg.cholesky(k)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y))
    kq = gp_kernel(train_u, query_u)
    v = np.linalg.solve(chol, kq)
    var = np.clip(1.0 - (v**2).sum(axis=0), 1e-12, None)
    return (kq.T @ alpha) * scale + y_mean, np.sqrt(var) * scale


def _log_softmax(logits):
    with np.errstate(all="ignore"):
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _nll(log_probs, labels):
    return float(-log_probs[np.arange(len(labels)), labels].mean())


def _forward(params, x):
    activations, pre = [x], []
    with np.errstate(all="ignore"):
        for i in range(0, len(params), 2):
            z = activations[-1] @ params[i] + params[i + 1]
            pre.append(z)
            activations.append(np.maximum(z, 0.0) if i + 2 < len(params) else z)
    return activations, pre


def _backward(params, activations, pre, labels, log_probs):
    batch = len(labels)
    with np.errstate(all="ignore"):
        delta = np.exp(log_probs)
        delta[np.arange(batch), labels] -= 1.0
        delta /= batch
        grads = []
        for i in range(len(params) // 2 - 1, -1, -1):
            grads.append(delta.sum(axis=0))
            grads.append(activations[i].T @ delta)
            if i > 0:
                delta = (delta @ params[2 * i].T) * (pre[i - 1] > 0)
    grads.reverse()
    return grads


def train_per_tensor(params, make_stepper, data, cfg, order):
    """The training loop with each tensor of `params` ([w0, b0, w1, b1, ...],
    updated in place) stepped by its own stepper from `make_stepper()`.
    `order(epoch)` is the epoch's row permutation; `cfg` a TrainConfig.
    Returns (train_loss, val_loss, epochs_run, stopped_early, failed)."""
    train_set, val_set = data
    train_loss, val_loss = [], []
    best, bad_epochs = np.inf, 0
    steppers = [make_stepper() for _ in params]
    needs_grad = getattr(steppers[0], "needs_grad", True)
    for epoch in range(cfg.max_epochs):
        for stepper in steppers:
            stepper.begin_epoch(epoch)
        rows = order(epoch)
        total = 0.0
        for lo in range(0, len(rows), cfg.batch_size):
            idx = rows[lo : lo + cfg.batch_size]
            labels = train_set.y[idx]
            activations, pre = _forward(params, train_set.x[idx])
            log_probs = _log_softmax(activations[-1])
            total += _nll(log_probs, labels) * len(idx)
            grads = (_backward(params, activations, pre, labels, log_probs)
                     if needs_grad else [None] * len(params))
            with np.errstate(all="ignore"):  # update runs under the caller's
                for stepper, w, g in zip(steppers, params, grads):
                    stepper.update(w, g)
            if not all(np.isfinite(p).all() for p in params):
                return train_loss, val_loss, len(train_loss), False, True
        epoch_train = total / len(rows)
        epoch_val = _nll(_log_softmax(_forward(params, val_set.x)[0][-1]), val_set.y)
        if not (np.isfinite(epoch_train) and np.isfinite(epoch_val)):
            return train_loss, val_loss, len(train_loss), False, True
        train_loss.append(epoch_train)
        val_loss.append(epoch_val)
        if epoch_val < best:
            best, bad_epochs = epoch_val, 0
        else:
            bad_epochs += 1
        if cfg.early_stop and bad_epochs >= cfg.patience:
            return train_loss, val_loss, len(train_loss), True, False
    return train_loss, val_loss, len(train_loss), False, False


def eager_checksum(x, y):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(y, dtype=np.int64).tobytes())
    return h.hexdigest()


def load_idx_eager(images_path, labels_path):
    """(x, y) of an idx image/label pair."""
    images = Path(images_path).read_bytes()
    count, rows, cols = struct.unpack(">III", images[4:16])
    pixels = np.frombuffer(images[16:], dtype=np.uint8)
    labels = np.frombuffer(Path(labels_path).read_bytes()[8:], dtype=np.uint8)
    x = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    return x, labels.astype(np.int64)


def load_cifar10_eager(batch_paths):
    """(x, y) of CIFAR-10 binary batches."""
    xs, ys = [], []
    for path in batch_paths:
        arr = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8).reshape(-1, 3073)
        ys.append(arr[:, 0].astype(np.int64))
        xs.append(arr[:, 1:].astype(np.float64) / 255.0)
    return np.concatenate(xs), np.concatenate(ys)


def split_by_take(x, y, source_indices, perm, plan):
    """{part name: (x, y, source_indices)}, each part gathered on its own
    from the rows of `perm` the plan assigns it; trial groups are named
    trial0, trial1, ..."""
    bounds = {
        "train": (0, plan.train_total),
        "val": (plan.train_total, plan.train_total + plan.validation),
        "test": (plan.train_total + plan.validation, plan.total),
        "reserve": (plan.total, len(perm)),
    }
    for i in range(plan.trial_count):
        bounds[f"trial{i}"] = (i * plan.per_trial, (i + 1) * plan.per_trial)
    parts = {}
    for name, (lo, hi) in bounds.items():
        idx = perm[lo:hi]
        parts[name] = (x[idx], y[idx], source_indices[idx])
    return parts


class UnboundVariableError(KeyError):
    pass


def eval_expr(e, env):
    """Recursive elementwise evaluation; constants broadcast as scalars."""
    if isinstance(e, Const):
        return np.float64(e.value)
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariableError(e.name)
        return env[e.name]
    if isinstance(e, Apply):
        return elementwise(e.op, *(eval_expr(a, env) for a in e.args))
    raise ExprError(f"not an expression node: {e!r}")


def fitness_alr_lone(spec, task, trial_number=5, threshold=0.8):
    """Multi-trial fitness: running minimum with sub-threshold early cancel,
    each trial a lone training of `spec` on its trial group."""
    scores = []
    any_failed = False
    cancelled = False
    for t in range(trial_number):
        score, failed = evolve._run_trial(task, SpecStepper(spec), t, spec.phenotype())
        any_failed = any_failed or failed
        scores.append(score)
        if score < threshold and t < trial_number - 1:
            cancelled = True
            break
    return evolve.FitnessReport(
        trial_scores=scores,
        fitness=min(scores),
        trials_run=len(scores),
        cancelled_early=cancelled,
        failed=any_failed,
    )


def fitness_dlr_lone(policy, task):
    """Train once under the schedule, return test accuracy (0 on failure)."""
    stepper = ScheduledSGD(policy, initial_lr=task.initial_lr)
    score, _ = evolve._run_trial(task, stepper, 0, serialize_policy(policy))
    return score


def stream(seed, *tags):
    """A fresh generator of the stream of `seed` and `tags`: Philox over
    numpy's SeedSequence(seed, spawn_key=tags), a string tag read as its
    CRC-32."""
    key = tuple(zlib.crc32(t.encode()) if isinstance(t, str) else t for t in tags)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def seed_population_per_stream(grammar, max_depth, seed, size):
    """Generation 0 of `evolve` at rng_seed `seed`: individual i is the
    random derivation of stream ("evolve", "seed-pop", i)."""
    return [Individual(*random_derivation(grammar, max_depth, stream(seed, "evolve", "seed-pop", i)),
                       id=i) for i in range(size)]


def breed_per_stream(population, params, grammar, seed, generation, next_id):
    """`evolve._breed` at rng_seed `seed`: child i's tournaments, crossover
    coin, crossover and mutation each draw from a generator of their own
    stream ("evolve", tag, generation, i, ...), and a parent that is not
    crossed is copied through the checked constructor."""

    def gen(*tags):
        return stream(seed, "evolve", *tags)

    ranked = sorted(population, key=lambda ind: (-ind.fitness, ind.id))
    new_pop = ranked[: params.elitism]
    for i in range(params.population_size - params.elitism):
        first = tournament_select(population, params.tournament_size,
                                  gen("tour", generation, i, 0))
        if gen("xo", generation, i).random() < params.crossover_prob:
            second = tournament_select(population, params.tournament_size,
                                       gen("tour", generation, i, 1))
            geno = crossover(first.genotype, second.genotype, gen("cross", generation, i))
        else:
            geno = Genotype({nt: list(lst) for nt, lst in first.genotype.genes.items()},
                            dict(first.genotype.used))
        geno = mutate(geno, params.mutation_rate, grammar, gen("mut", generation, i))
        new_pop.append(Individual(geno, id=next_id))
        next_id += 1
    return new_pop, next_id


def repair_per_stream(individuals, grammar, max_depth, seed, generation):
    """Map each individual's genotype in place, its repairs drawn from a
    generator of stream ("evolve", "repair", generation, id) of `seed`;
    returns the phenotypes, None where the mapping fails."""
    texts = []
    for ind in individuals:
        try:
            texts.append(map_genotype(grammar, ind.genotype, max_depth,
                                      stream(seed, "evolve", "repair", generation, ind.id)))
        except MappingFailure:
            texts.append(None)
    return texts
