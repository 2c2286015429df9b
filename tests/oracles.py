"""Independent references used as ground truth for the package.

The trajectory functions advance one scalar weight through a list of
gradients and return the weight value after every step. They are written
directly from the published update rules in plain Python floats and share no
code with the package — that independence is what makes them oracles.

`gp_kernel` is the tuner's squared-exponential kernel in its direct
broadcast form, and `train_per_tensor` is the training loop over separately
allocated weight tensors, each with a stepper of its own: the layouts the
package replaced with a 2-D accumulation and one flat parameter buffer.

`eager_checksum`, `load_idx_eager`, `load_cifar10_eager` and `split_by_take`
are the data layer as it was before it held one copy of the pixels: a
digest over `tobytes()` copies, scaling through a second full-size
temporary, a list of batches joined by `concatenate`, and a fresh copy of
every split part.
"""

import hashlib
import math
import struct
from pathlib import Path

import numpy as np


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


def gp_kernel(a, b, length_scale=0.25):
    """exp(-0.5 * |a_i - b_j|^2 / length_scale^2) through an (n, m, d)
    broadcast temporary reduced over its last axis."""
    d2 = ((a[:, None, :] - b[None, :, :]) / length_scale) ** 2
    return np.exp(-0.5 * d2.sum(axis=2))


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
            for stepper, w, g in zip(steppers, params, grads):
                stepper.update(w, g)
            if any(stepper.failed for stepper in steppers):
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
