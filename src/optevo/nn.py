"""Small dense classifiers trained from scratch.

The training loop drives the optimizer through one contract, `Stepper`
(begin_epoch / update / failed / needs_grad / bound), so the same network
code scores evolved update rules, evolved schedules, and the hand-written
baselines. Each batch takes one log-softmax, shared by its loss and its
backward pass; a stepper whose weights never depend on the gradient
(`needs_grad` false) gets `update(w, None)` and no backward pass at all.

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

Most losses a training computes are read only to check that they are
finite, and `train` skips those that a finiteness certificate shows cannot
be anything else. `Stepper._assign` records B = max |w| of the weights it
writes, and each Dataset caches X = max |x| over its rows. Folding the layer
sizes in with a <- fan_in * a * B + B from a = X bounds every logit by L:
ReLU never grows a magnitude. While L stays below `_LOGIT_MARGIN` (1e150),
the logits minus their row max lie in [-2L, 0] and include one exact 0, so
each row's exp-sum lies in [1, classes]: every log-softmax, batch loss and
epoch sum is finite. The margin, 150 orders below overflow, absorbs the
rounding of every matmul. A non-finite X or B, or a product that overflows,
compares false and certifies nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .tensor import Rng, Tensor


# a logit bound below this certifies every loss finite (module docstring)
_LOGIT_MARGIN = 1e150


class NetworkError(ValueError):
    pass


class Stepper:
    """The per-batch update contract `train` drives.

    `begin_epoch(epoch)` runs before each epoch's first batch;
    `update(w, g)` takes one weight tensor and its gradient and writes the
    new weights through `_assign`, which sets `failed` on any non-finite
    value and records their largest magnitude in `bound`, both from one max
    and one min reduction. `train` reads `bound` after each update to
    certify its losses finite (see the module docstring); a stepper without
    one gets no certificate. `train` passes the network's flat parameter
    buffer and its flat gradient, so an update must act elementwise.
    Subclasses define `update` on their own class. A stepper whose weights
    never depend on the gradient sets `needs_grad` false; `train` then skips
    backward and calls `update(w, None)`.
    """

    name = "stepper"
    failed = False
    needs_grad = True
    bound = math.inf  # max |w| of the last `_assign`

    def begin_epoch(self, epoch: int) -> None:
        pass

    def _assign(self, w: Tensor, new_w: Tensor) -> None:
        w[...] = new_w
        self.bound = _abs_max(w)
        if not self.bound < math.inf:  # NaN compares false too
            self.failed = True


def _abs_max(w: Tensor) -> float:
    """max |w| from one max and one min reduction; NaN when `w` holds one."""
    hi = float(np.maximum.reduce(w, axis=None))
    lo = -float(np.minimum.reduce(w, axis=None))
    return hi if hi > lo else lo


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
    epochs_run: int = 0
    stopped_early: bool = False
    failed: bool = False
    val_loss: float | None = None  # at the returned weights; None when failed


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


def _logit_bound(sizes, x_bound: float, w_bound: float) -> float:
    """Bound on |logit| of a net with these layer sizes, inputs bounded by
    `x_bound` and every parameter by `w_bound` (see the module docstring)."""
    a = x_bound
    for fan_in in sizes[:-1]:
        a = fan_in * a * w_bound + w_bound
    return a


def train(net: Network, stepper: Stepper, data, cfg: TrainConfig | None = None):
    """Mini-batch training loop; returns (net, TrainHistory).

    `data` is a (train, validation) Dataset pair. A non-finite parameter
    aborts the run at once with history.failed set; a non-finite training
    loss (summed over an epoch's batches, each at the weights it saw) or
    validation loss fails it at the end of the epoch. Callers treat a
    failure as a zero-fitness outcome rather than an exception. Finite
    weights can still overflow the logits, so the losses matter even to a
    stepper that does not need the gradient.

    A loss that only this check reads is skipped where the module's
    certificate shows it finite, so the outcome is that of computing every
    loss, bit for bit:
    - the validation pass runs under early stopping, on the final epoch
      (for `val_loss`) and after an epoch whose end weights are not
      certified;
    - a stepper with `needs_grad` false runs its epoch's updates first,
      keeping the weights each update saw. Only if one of those is not
      certified does the epoch draw its batch order and take every batch's
      loss from the kept weights, in batch order. A stepper that does need
      the gradient takes each loss from the log-softmax its backward pass
      computes anyway.
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
    # no validation rows: a mean loss of 0/0, never certified
    x_bound = max(train_set.x_bound, val_set.x_bound) if len(val_set) else math.inf

    def certifies(w_bound: float) -> bool:  # every loss at such weights is finite
        return _logit_bound(net.layer_sizes, x_bound, w_bound) < _LOGIT_MARGIN

    starts = range(0, len(train_set), cfg.batch_size)
    if not needs_grad:
        seen = np.empty((len(starts), net.flat.size))  # the weights each update saw
    val_loss = None
    with np.errstate(all="ignore"):  # non-finite values become a failed run
        certified = certifies(_abs_max(net.flat))
        for epoch in range(cfg.max_epochs):
            stepper.begin_epoch(epoch)
            total_loss = 0.0
            if needs_grad:
                order = shuffle_rng.child("epoch", epoch).permutation(len(train_set))
                for lo in starts:
                    idx = order[lo : lo + cfg.batch_size]
                    labels = train_set.y[idx]
                    logits, cache = forward(net, train_set.x[idx])
                    log_probs = _log_softmax(logits)
                    total_loss += _nll(log_probs, labels) * len(idx)
                    flat_grad = np.empty_like(net.flat)  # fresh: steppers may keep it
                    backward(net, cache, labels, log_probs, flat_grad)
                    stepper.update(net.flat, flat_grad)
                    if stepper.failed:
                        history.failed = True
                        return net, history
                certified = certifies(getattr(stepper, "bound", math.inf))
            else:
                all_certified = True
                for k in range(len(starts)):
                    all_certified = all_certified and certified
                    seen[k] = net.flat
                    stepper.update(net.flat, None)
                    if stepper.failed:
                        history.failed = True
                        return net, history
                    certified = certifies(getattr(stepper, "bound", math.inf))
                if not all_certified:
                    total_loss = _replay_losses(net, train_set, seen, cfg.batch_size,
                                                shuffle_rng.child("epoch", epoch))
            loss_finite = math.isfinite(total_loss)
            if cfg.early_stop or epoch == cfg.max_epochs - 1 or not certified:
                val_logits, _ = forward(net, val_set.x)
                val_loss = mean_loss(val_logits, val_set.y)
                loss_finite = loss_finite and math.isfinite(val_loss)
            if not loss_finite:
                history.failed = True
                return net, history
            history.epochs_run += 1
            if cfg.early_stop and tracker.update(val_loss):
                history.stopped_early = True
                break
    history.val_loss = val_loss
    return net, history


def _replay_losses(net: Network, train_set: Dataset, seen: Tensor, batch_size: int,
                   epoch_rng: Rng) -> float:
    """Sum over an epoch's batches of each batch's mean loss times its size,
    at the weights `seen[k]` that batch k's update saw, in batch order: the
    sum `train` takes inline when it runs backward. Restores net.flat."""
    order = epoch_rng.permutation(len(train_set))
    after = net.flat.copy()
    total = 0.0
    for k, lo in enumerate(range(0, len(order), batch_size)):
        idx = order[lo : lo + batch_size]
        net.flat[...] = seen[k]  # the same buffer, so the same bytes as inline
        logits, _ = forward(net, train_set.x[idx])
        total += _nll(_log_softmax(logits), train_set.y[idx]) * len(idx)
    net.flat[...] = after
    return total


def train_seeded(layer_sizes, stepper: Stepper, data, cfg: TrainConfig, rng: Rng):
    """Train a fresh network whose initial weights and batch order both derive
    from `rng`; returns (net, TrainHistory) like `train`."""
    net = Network(layer_sizes, seed=int(rng.child("net").integers(2**31 - 1)))
    cfg = replace(cfg, shuffle_seed=int(rng.child("shuffle").integers(2**31 - 1)))
    return train(net, stepper, data, cfg)
