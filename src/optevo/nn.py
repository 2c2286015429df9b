"""Small dense classifiers trained from scratch.

The training loop drives the optimizer through one contract, `Stepper`
(begin_epoch / update / failed / needs_grad), so the same network code scores
evolved update rules, evolved schedules, and the hand-written baselines. Each
batch takes one log-softmax, shared by its loss and its backward pass; a
stepper whose weights never depend on the gradient (`needs_grad` false) gets
`update(w, None)` and no backward pass at all.

A network keeps all its parameters in one flat float64 buffer, and `train`
hands the stepper that one tensor, `update(net.flat, flat_grad)`, with
`backward` writing every gradient into views of one fresh flat buffer. Every
shipped rule is elementwise, so this gives the bytes that stepping each
weight tensor on its own gives, with one round of numpy calls per batch
instead of one per tensor.

Floating-point errors never raise or warn here: a non-finite loss or weight
becomes a failed run. `train` opens one `np.errstate(all="ignore")` around
its whole epoch loop, and `evaluate` and `mean_loss` each open their own;
`forward`, `backward` and `_log_softmax` open none and run under the
caller's errstate, because each one costs a few microseconds, a real share
of a toy net's batch. Stepper `update` methods keep their own, since they
are called directly too. For the same reason the log-softmax takes its row
max with a loop of `np.maximum(..., out=)` over the columns, which is exact
(max does not depend on order) and several times cheaper than `max(axis=1)`
on narrow logits; its row sum stays numpy's own axis-1 reduction, whose
summation order a column loop would not reproduce at every width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .tensor import Rng, Tensor


class NetworkError(ValueError):
    pass


class Stepper:
    """The per-batch update contract `train` drives.

    `begin_epoch(epoch)` runs before each epoch's first batch;
    `update(w, g)` takes one weight tensor and its gradient and writes the
    new weights through `_assign`, which sets `failed` on any non-finite
    value. `train` passes the network's flat parameter buffer and its flat
    gradient, so an update must act elementwise. Subclasses define `update`
    on their own class. A stepper whose weights never depend on the gradient
    sets `needs_grad` false; `train` then skips backward and calls
    `update(w, None)`.
    """

    name = "stepper"
    failed = False
    needs_grad = True

    def begin_epoch(self, epoch: int) -> None:
        pass

    def _assign(self, w: Tensor, new_w: Tensor) -> None:
        if not np.logical_and.reduce(np.isfinite(new_w), axis=None):
            self.failed = True
        w[...] = new_w


class Network:
    """Fully-connected stack: ReLU after every layer but the last, whose
    logits feed softmax cross-entropy.

    All parameters live in one float64 vector, `flat`. `params` holds views
    into it, [w0, b0, w1, b1, ...], each C order, with weights of shape
    (fan_in, fan_out) and biases of shape (fan_out,): write into them, do not
    rebind them.
    """

    def __init__(self, layer_sizes, seed: int = 0):
        sizes = list(layer_sizes)
        if len(sizes) < 2:
            raise NetworkError("need at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise NetworkError("layer sizes must be positive")
        self.layer_sizes = sizes
        self.seed = seed
        self._layout = []  # (start, stop, shape) of each tensor in `flat`
        stop = 0
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            for shape in ((fan_in, fan_out), (fan_out,)):
                start, stop = stop, stop + math.prod(shape)
                self._layout.append((start, stop, shape))
        self.flat = np.zeros(stop)
        self.params = self._views(self.flat)
        rng = Rng(seed).child("init")
        for i, w in enumerate(self.params[::2]):
            limit = np.sqrt(6.0 / w.shape[0])
            w[...] = rng.child("layer", i).uniform(-limit, limit, size=w.shape)

    def _views(self, flat: Tensor) -> list[Tensor]:
        """Views [w0, b0, w1, b1, ...] into a buffer laid out like `flat`."""
        return [flat[start:stop].reshape(shape) for start, stop, shape in self._layout]


def forward(net: Network, batch_x: Tensor):
    """Return (logits, cache); the cache feeds backward(). Runs under the
    caller's errstate."""
    x = np.asarray(batch_x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.layer_sizes[0]:
        raise NetworkError(
            f"expected inputs of shape (B, {net.layer_sizes[0]}), got {x.shape}"
        )
    activations = [x]
    pre = []
    out = x
    params = net.params
    for i in range(0, len(params), 2):
        z = out @ params[i]
        z += params[i + 1]
        pre.append(z)
        out = np.maximum(z, 0.0) if i + 2 < len(params) else z  # linear output
        activations.append(out)
    return out, {"activations": activations, "pre": pre}


def _log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-softmax of 2-D logits, under the caller's errstate.

    The row max from a column loop equals `max(axis=1)`. Where a row's max
    is a +0/-0 tie the two may differ in its sign, which can flip the sign
    of a zero in `shifted` but not its exp, and such a row's sum is at least
    2, so the output is the same.
    """
    m = logits[:, :1].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(m, logits[:, j : j + 1], out=m)
    shifted = logits - m
    log_sum = np.add.reduce(np.exp(shifted), axis=1, keepdims=True)
    shifted -= np.log(log_sum, out=log_sum)
    return shifted


def _nll(log_probs: Tensor, labels: Tensor) -> float:
    """Mean negative log-probability of the labels: the ops of `.mean()`
    without its Python wrapper."""
    n = len(labels)
    return float(-(np.add.reduce(log_probs[np.arange(n), labels]) / n))


def mean_loss(logits: Tensor, labels: Tensor) -> float:
    """Softmax cross-entropy averaged over the batch."""
    labels = np.asarray(labels, dtype=np.int64)
    with np.errstate(all="ignore"):  # non-finite logits surface as failed runs
        return _nll(_log_softmax(np.asarray(logits, dtype=np.float64)), labels)


def backward(net: Network, cache: dict, labels: Tensor,
             log_probs: Tensor | None = None, out: Tensor | None = None) -> list[Tensor]:
    """Gradients of the mean cross-entropy, ordered like net.params: views
    into `out`, a float64 buffer laid out like net.flat (a fresh one when not
    given). `log_probs`, the log-softmax of the cached logits, is computed
    when not given. Runs under the caller's errstate."""
    labels = np.asarray(labels, dtype=np.int64)
    activations, pre = cache["activations"], cache["pre"]
    batch = len(labels)
    logits = activations[-1]
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= logits.shape[1]:
        raise NetworkError("label outside the network's class range")
    if log_probs is None:
        log_probs = _log_softmax(logits)
    grads = net._views(np.empty_like(net.flat) if out is None else out)
    delta = np.exp(log_probs, order="C")
    # C order keeps reshape(-1) a view, where row r's label entry sits at
    # r * classes + labels[r]
    delta.reshape(-1)[np.arange(0, delta.size, delta.shape[1]) + labels] -= 1.0
    delta /= batch
    params = net.params
    for i in range(len(params) // 2 - 1, -1, -1):
        np.add.reduce(delta, axis=0, out=grads[2 * i + 1])  # bias
        np.matmul(activations[i].T, delta, out=grads[2 * i])  # weights
        if i > 0:
            delta = delta @ params[2 * i].T
            delta *= pre[i - 1] > 0
    return grads


def evaluate(net: Network, data: Dataset) -> float:
    """Accuracy under argmax prediction; ties resolve to the lowest class."""
    if len(data) == 0:
        raise NetworkError("cannot evaluate on an empty dataset")
    with np.errstate(all="ignore"):  # overflowed logits still give an argmax
        logits, _ = forward(net, data.x)
    return float((logits.argmax(axis=1) == data.y).mean())


@dataclass
class TrainConfig:
    batch_size: int = 1000
    max_epochs: int = 100
    early_stop: bool = True
    patience: int = 5
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise NetworkError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise NetworkError("max_epochs must be >= 1")
        if self.early_stop and self.patience < 1:
            raise NetworkError("patience must be >= 1")


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    epochs_run: int = 0
    stopped_early: bool = False
    failed: bool = False


class EarlyStopTracker:
    """Stop once validation loss has gone `patience` epochs without a strict
    improvement over the best seen so far."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.bad_epochs = 0

    def update(self, val_loss: float) -> bool:
        if val_loss < self.best:
            self.best = val_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return self.bad_epochs >= self.patience


def train(net: Network, stepper: Stepper, data, cfg: TrainConfig | None = None):
    """Mini-batch training loop; returns (net, TrainHistory).

    `data` is a (train, validation) Dataset pair.  Any non-finite loss or
    parameter aborts the run with history.failed set — callers treat that
    as a zero-fitness outcome rather than an exception. Every batch still
    runs forward and takes its loss when the stepper does not need the
    gradient: finite weights can overflow the logits.
    """
    cfg = cfg or TrainConfig()
    train_set, val_set = data
    if len(train_set) == 0:
        raise NetworkError("cannot train on an empty dataset")
    width = net.layer_sizes[-1]
    for part in (train_set, val_set):
        if len(part) and not (np.minimum.reduce(part.y) >= 0
                              and np.maximum.reduce(part.y) < width):
            raise NetworkError("label outside the network's class range")
    history = TrainHistory()
    tracker = EarlyStopTracker(cfg.patience)
    shuffle_rng = Rng(cfg.shuffle_seed).child("shuffle")
    needs_grad = getattr(stepper, "needs_grad", True)
    with np.errstate(all="ignore"):  # non-finite values become a failed run
        for epoch in range(cfg.max_epochs):
            stepper.begin_epoch(epoch)
            order = shuffle_rng.child("epoch", epoch).permutation(len(train_set))
            total_loss = 0.0
            for lo in range(0, len(order), cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                labels = train_set.y[idx]
                logits, cache = forward(net, train_set.x[idx])
                log_probs = _log_softmax(logits)
                total_loss += _nll(log_probs, labels) * len(idx)
                if needs_grad:
                    flat_grad = np.empty_like(net.flat)  # fresh: steppers may keep it
                    backward(net, cache, labels, log_probs, flat_grad)
                    stepper.update(net.flat, flat_grad)
                else:
                    stepper.update(net.flat, None)
                if stepper.failed:
                    history.failed = True
                    return net, history
            epoch_train_loss = total_loss / len(order)
            val_logits, _ = forward(net, val_set.x)
            epoch_val_loss = mean_loss(val_logits, val_set.y)
            if not (np.isfinite(epoch_train_loss) and np.isfinite(epoch_val_loss)):
                history.failed = True
                return net, history
            history.train_loss.append(epoch_train_loss)
            history.val_loss.append(epoch_val_loss)
            history.epochs_run += 1
            if cfg.early_stop and tracker.update(epoch_val_loss):
                history.stopped_early = True
                break
    return net, history


def train_seeded(layer_sizes, stepper: Stepper, data, cfg: TrainConfig, rng: Rng):
    """Train a fresh network whose initial weights and batch order both derive
    from `rng`; returns (net, TrainHistory) like `train`."""
    net = Network(layer_sizes, seed=int(rng.child("net").integers(2**31 - 1)))
    cfg = replace(cfg, shuffle_seed=int(rng.child("shuffle").integers(2**31 - 1)))
    return train(net, stepper, data, cfg)
