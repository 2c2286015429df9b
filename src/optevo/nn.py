"""Small dense classifiers, trained from scratch by one loop.

The training loop drives the optimizer through one contract, `Stepper`
(begin_epoch / update / needs_grad), so the same network code scores evolved
update rules, evolved schedules, and the hand-written baselines. Each batch
takes one log-softmax, shared by its loss and its backward pass; a stepper
whose weights never depend on the gradient (`needs_grad` false) gets
`update(w, None)` and no backward pass at all.

A network keeps all its parameters in one flat float64 buffer, and `train`
hands the stepper that one tensor, `update(w, flat_grad)`, with `backward`
writing every gradient into views of one fresh flat buffer. Every shipped
rule is elementwise, so this gives the bytes that stepping each weight
tensor on its own gives, with one round of numpy calls per batch instead of
one per tensor. `train` owns the weight check: after each batch's updates
one max and one min reduction over the weights give each failed flag (a
non-finite weight) and the bound B = max |w| that the certificate below
reads.

A `Population` is K networks of one shape held as their parameters alone:
one (K, P) buffer, the caller's, whose row k is member k's flat buffer. It
is the one network type: a lone network is a population of one. `forward`,
`_nll`, `mean_loss`, `backward` and `evaluate` each have one form, which
takes the leading member axis, and `train` has one epoch loop. `nn` alone
decides how members stack. `train` splits a population of any size by
`needs_grad` and cuts each kind into consecutive stacks of at most
`population_size` members, a budget of `POPULATION_ELEMENTS` per stacked
activation; the validation and test passes go through the members in groups
sized the same way. Each batch runs one stacked forward and backward for all
members of a stack, `train` then calls each member's stepper on its own row,
and takes every member's failed flag and bound from one max and one min
reduction over the stack's (K, P) buffer. A stack whose steppers need no
gradient runs the same loop without the backward pass, its forward only for
the members whose losses a batch must take. A member's numbers are
those of training it alone, bit for bit: numpy runs a stacked matmul as one
BLAS call per member with the strides of the single product, and every
other step is elementwise or reduces within a member's rows. A stack's
per-member state is row-aligned with its (K, P) buffer: each member's row
in the caller's buffer, stepper, shuffle keys, weight bound, epoch loss sum
and batch order, and early-stopping state. A member that fails, stops early
or finishes leaves its stack: its row and that state are dropped together,
its weights are written into its row of the caller's buffer, and its
outcome is written once, since every member still in a stack has run the
same epochs.

Floating-point errors never raise or warn here: a non-finite loss or weight
becomes a failed run. `train` opens one `np.errstate(all="ignore")` around
its whole epoch loop, and `evaluate` and `mean_loss` each open their own;
`forward`, `backward`, `_log_softmax` and every stepper's `update` open
none and run under the caller's errstate, because each one costs a few
microseconds, a real share of a toy net's batch. For the same reason the
log-softmax takes its row max with a loop of `np.maximum(..., out=)` over
the columns, which is exact (max does not depend on order) and several
times cheaper than `max(axis=1)` on narrow logits; its row sum stays
numpy's own last-axis reduction, whose summation order a column loop would
not reproduce at every width.

Every random number a training draws comes from a keyed stream, derived
for a whole population at once as `tensor.Streams`: `train_seeded` draws
each member's network and shuffle seeds from its stream, and every
member's layer i from stream ("init", "layer", i) of its network seed
straight into the one buffer their `Population` trains on, and
`_train_stacked` draws each member's epoch-e batch order from stream
("shuffle", "epoch", e) of its shuffle seed, every epoch's key derived once
per stack. Each is a one-shot draw on one re-keyed generator, the numbers
of a fresh generator per stream.

Most losses a training computes are read only to check that they are
finite, and `train` skips those that a finiteness certificate shows cannot
be anything else: batch losses, with or without a backward pass, and
validation passes. `train` records B = max |w| of the weights after each
update, and each Dataset caches X = max |x| over its rows. Folding the layer
sizes in with a <- fan_in * a * B + B from a = X bounds every logit by L:
ReLU never grows a magnitude. While L stays below `_LOGIT_MARGIN` (1e150),
the logits minus their row max lie in [-2L, 0] and include one exact 0, so
each row's exp-sum lies in [1, classes]: every log-softmax, batch loss and
epoch sum is finite. The margin, 150 orders below overflow, absorbs the
rounding of every matmul. A non-finite X or B, or a product that overflows,
compares false and certifies nothing. L only grows with B, so the largest B
of a stack certifies all its members in one scalar check, and a member's
own B is read only when that check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .tensor import Rng, Streams, Tensor, draw_keyed, draw_seed


# a logit bound below this certifies every loss finite (module docstring)
_LOGIT_MARGIN = 1e150

# elements of one stacked activation: members x rows x the widest layer
POPULATION_ELEMENTS = 2**16


class NetworkError(ValueError):
    pass


def population_size(rows: int, layer_sizes) -> int:
    """How many members of this shape one stacked pass over `rows` rows
    takes: the element budget over rows x the widest layer, at least 1."""
    return max(1, POPULATION_ELEMENTS // (max(rows, 1) * max(layer_sizes)))


class Stepper:
    """The per-batch update contract `train` drives.

    `begin_epoch(epoch)` runs before each epoch's first batch;
    `update(w, g)` takes one weight tensor and its gradient and writes the
    new weights into `w` in place. `train` passes each member's stepper its
    own row of the stacked flat parameters and flat gradients, so an update
    must act elementwise; the row may be a different array on the next call,
    so a stepper keeps no reference to `w`. `update` runs under the caller's
    `np.errstate`: `train` opens one for its whole loop, and a direct caller
    that may overflow opens its own. `train` checks the weights each update
    writes (see the module docstring). A stepper whose weights never depend
    on the gradient sets `needs_grad` false; `train` then skips backward and
    calls `update(w, None)`.
    """

    name = "stepper"
    needs_grad = True

    def begin_epoch(self, epoch: int) -> None:
        pass


def _abs_max(w: Tensor):
    """max |w| along the last axis, from one max and one min reduction; NaN
    where a row holds one."""
    return np.maximum(np.maximum.reduce(w, axis=-1), -np.minimum.reduce(w, axis=-1))


def _views(layout, flat: Tensor) -> list[Tensor]:
    """Views [w0, b0, w1, b1, ...] into a (K, P) stack of flat buffers:
    weights (K, fan_in, fan_out) and biases (K, 1, fan_out), so that the
    biases broadcast over rows."""
    return [flat[:, start:stop].reshape(len(flat), *((1,) if len(shape) == 1 else ()), *shape)
            for start, stop, shape in layout]


def _layout(sizes) -> list:
    """(start, stop, shape) of each tensor of a network's flat buffer."""
    if len(sizes) < 2:
        raise NetworkError("need at least input and output sizes")
    if any(s < 1 for s in sizes):
        raise NetworkError("layer sizes must be positive")
    layout, stop = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        for shape in ((fan_in, fan_out), (fan_out,)):
            start, stop = stop, stop + math.prod(shape)
            layout.append((start, stop, shape))
    return layout


class Population:
    """K fully-connected networks of one shape, ReLU after every layer but
    the last, whose logits feed softmax cross-entropy; one network is a
    Population of one. Row k of the (K, P) buffer `flat` is member k's
    parameters [w0, b0, w1, b1, ...], each C order, weights (fan_in,
    fan_out) and biases (fan_out,), and `params` holds their stacked views
    (see `_views`): write into them, do not rebind them. `flat` is the
    caller's buffer, not a copy, and `train` trains the members in it."""

    def __init__(self, layer_sizes, flat: Tensor):
        self.layer_sizes = list(layer_sizes)
        self._layout = _layout(self.layer_sizes)
        width = self._layout[-1][1]
        if flat.shape[1:] != (width,) or not len(flat):
            raise NetworkError(f"a population of {self.layer_sizes} networks needs a "
                               f"(K >= 1, {width}) buffer, got {flat.shape}")
        self.flat = flat
        self.params = _views(self._layout, flat)

    @classmethod
    def seeded(cls, layer_sizes, seeds) -> "Population":
        """Fresh members, member k seeded by seeds[k]: its weight matrix i
        uniform in +-sqrt(6 / fan_in), drawn from stream ("init", "layer", i)
        of the seed straight into row k, and zero biases."""
        layout = _layout(layer_sizes)
        weights = layout[::2]
        flat = np.zeros((len(seeds), layout[-1][1]))
        keys = Streams.from_seeds(seeds).children("init", "layer", last=range(len(weights)))
        keys = keys.keys().reshape(len(seeds), len(weights), 2)
        for i, (start, stop, shape) in enumerate(weights):
            limit = np.sqrt(6.0 / shape[0])
            flat[:, start:stop] = draw_keyed(
                keys[:, i], lambda gen: gen.uniform(-limit, limit, size=stop - start))
        return cls(layer_sizes, flat)

    def __len__(self) -> int:
        return len(self.flat)

    def take(self, rows) -> "Population":
        """The members at `rows`, in increasing order: this population when
        they are all of them, else a slice shares this buffer and an index
        array copies its rows."""
        flat = self.flat[rows] if isinstance(rows, slice) or len(rows) < len(self) else self.flat
        if len(flat) == len(self):
            return self
        pop = Population.__new__(Population)
        pop.layer_sizes, pop._layout, pop.flat = self.layer_sizes, self._layout, flat
        pop.params = _views(pop._layout, flat)
        return pop

    def chunks(self, rows: int):
        """Consecutive groups of members, each sized for one stacked pass
        over `rows` rows; they share this buffer."""
        step = population_size(rows, self.layer_sizes)
        return [self.take(slice(lo, lo + step)) for lo in range(0, len(self), step)]


def forward(pop: Population, batch_x: Tensor):
    """Return (logits, cache); the cache feeds backward(). Takes rows (B,
    inputs) shared by all members or (K, B, inputs), one batch per member,
    and gives (K, B, classes) logits. Runs under the caller's errstate."""
    x = np.asarray(batch_x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != pop.layer_sizes[0]:
        raise NetworkError(
            f"expected inputs of shape (B, {pop.layer_sizes[0]}), got {x.shape}"
        )
    activations = [x]
    pre = []
    out = x
    params = pop.params
    for i in range(0, len(params), 2):
        z = out @ params[i]
        z += params[i + 1]
        pre.append(z)
        out = np.maximum(z, 0.0) if i + 2 < len(params) else z  # linear output
        activations.append(out)
    return out, {"activations": activations, "pre": pre}


def _log_softmax(logits: Tensor) -> Tensor:
    """Log-softmax along the last axis, under the caller's errstate.

    The row max from a column loop equals `max(axis=-1)`. Where a row's max
    is a +0/-0 tie the two may differ in its sign, which can flip the sign
    of a zero in `shifted` but not its exp, and such a row's sum is at least
    2, so the output is the same.
    """
    m = logits[..., :1].copy()
    for j in range(1, logits.shape[-1]):
        np.maximum(m, logits[..., j : j + 1], out=m)
    shifted = logits - m
    log_sum = np.add.reduce(np.exp(shifted), axis=-1, keepdims=True)
    shifted -= np.log(log_sum, out=log_sum)
    return shifted


def _nll(log_probs: Tensor, labels: Tensor) -> Tensor:
    """Each member's mean negative log-probability of the labels: the ops of
    `.mean()` without its Python wrapper. Stacked (K, B, classes)
    log-probabilities take labels (B,) shared by all members or (K, B), and
    give a (K,) array."""
    n = labels.shape[-1]
    rows = np.arange(0, log_probs.size, log_probs.shape[-1]).reshape(log_probs.shape[:-1])
    return -(np.add.reduce(log_probs.reshape(-1)[rows + labels], axis=-1) / n)


def mean_loss(logits: Tensor, labels: Tensor) -> Tensor:
    """Softmax cross-entropy averaged over each member's batch of stacked
    (K, B, classes) logits: a (K,) array."""
    labels = np.asarray(labels, dtype=np.int64)
    with np.errstate(all="ignore"):  # non-finite logits surface as failed runs
        return _nll(_log_softmax(np.asarray(logits, dtype=np.float64)), labels)


def backward(pop: Population, cache: dict, labels: Tensor,
             log_probs: Tensor | None = None, out: Tensor | None = None) -> list[Tensor]:
    """Gradients of the mean cross-entropy, ordered like pop.params: views
    into `out`, a float64 buffer laid out like pop.flat (a fresh one when
    not given). `log_probs`, the log-softmax of the cached logits, is
    computed when not given. Labels (K, B) give each member the gradient of
    its own batch. Runs under the caller's errstate."""
    labels = np.asarray(labels, dtype=np.int64)
    activations, pre = cache["activations"], cache["pre"]
    batch = labels.shape[-1]
    logits = activations[-1]
    if (np.minimum.reduce(labels, axis=None) < 0
            or np.maximum.reduce(labels, axis=None) >= logits.shape[-1]):
        raise NetworkError("label outside the network's class range")
    if log_probs is None:
        log_probs = _log_softmax(logits)
    grads = _views(pop._layout, np.empty_like(pop.flat) if out is None else out)
    delta = np.exp(log_probs, order="C")
    # C order keeps reshape(-1) a view, where row r's label entry sits at
    # r * classes + labels[r]
    delta.reshape(-1)[np.arange(0, delta.size, delta.shape[-1]) + labels.reshape(-1)] -= 1.0
    delta /= batch
    params = pop.params
    for i in range(len(params) // 2 - 1, -1, -1):
        np.add.reduce(delta, axis=-2, out=grads[2 * i + 1], keepdims=True)  # bias
        np.matmul(activations[i].swapaxes(-1, -2), delta, out=grads[2 * i])  # weights
        if i > 0:
            delta = delta @ params[2 * i].swapaxes(-1, -2)
            delta *= pre[i - 1] > 0
    return grads


def evaluate(pop: Population, data: Dataset) -> list[float]:
    """Each member's accuracy under argmax prediction, in member order; ties
    resolve to the lowest class."""
    if len(data) == 0:
        raise NetworkError("cannot evaluate on an empty dataset")
    with np.errstate(all="ignore"):  # overflowed logits still give an argmax
        return [float(acc) for chunk in pop.chunks(len(data))
                for acc in (forward(chunk, data.x)[0].argmax(axis=-1) == data.y).mean(axis=-1)]


@dataclass
class TrainConfig:
    batch_size: int = 1000
    max_epochs: int = 100
    early_stop: bool = True
    patience: int = 5

    def __post_init__(self):
        if self.batch_size < 1:
            raise NetworkError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise NetworkError("max_epochs must be >= 1")
        if self.early_stop and self.patience < 1:
            raise NetworkError("patience must be >= 1")


@dataclass
class TrainHistory:
    """How a training went. A population's history holds, in each field, a
    tuple with one entry per member."""

    epochs_run: int = 0
    stopped_early: bool = False
    failed: bool = False
    val_loss: float | None = None  # at the returned weights; None when failed


def _logit_bound(sizes, x_bound: float, w_bound):
    """Bound on |logit| of a net with these layer sizes, inputs bounded by
    `x_bound` and every parameter by `w_bound`, a float or an array of them
    (see the module docstring)."""
    a = x_bound
    for fan_in in sizes[:-1]:
        a = fan_in * a * w_bound + w_bound
    return a


def train(pop: Population, stepper, data, cfg=None, shuffle_seed=0):
    """Mini-batch training loop; returns (pop, TrainHistory).

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
    - a batch takes its loss only where the weights its update is about to
      see are not certified. A certified batch's loss is finite and far
      below overflow, so the epoch sum of the others is finite exactly when
      the sum of every loss is. A gradient stack then takes every member's
      loss from the log-softmax its backward pass needs anyway; a
      gradient-free stack runs its forward pass for the open members alone;
    - without early stopping, an epoch before the last with finite sums and
      certified end weights ends in one scalar check: no member can leave.

    `stepper` and `shuffle_seed` are lists, one per member, and every
    member shares `cfg`; a Population of one may take one stepper and one
    scalar `shuffle_seed` (0 unless given) instead, and its history then
    holds scalars, where the lists give one tuple entry per member. Epoch
    e's batch order is stream ("shuffle", "epoch", e) of the shuffle seed.
    Every member's outcome is that of training it alone, and its final
    weights are written into its row of `pop.flat`. The members whose
    steppers need the gradient train first, then the others, each kind cut
    into consecutive stacks of at most
    `population_size(min(batch_size, len(train)), layer_sizes)` members.
    """
    cfg = cfg or TrainConfig()
    train_set, val_set = data
    if len(train_set) == 0:
        raise NetworkError("cannot train on an empty dataset")
    width = pop.layer_sizes[-1]
    for part in (train_set, val_set):
        if len(part) and not (np.minimum.reduce(part.y) >= 0
                              and np.maximum.reduce(part.y) < width):
            raise NetworkError("label outside the network's class range")
    lone = np.isscalar(shuffle_seed)
    steppers, seeds = ([stepper], [shuffle_seed]) if lone else (list(stepper), shuffle_seed)
    if not len(steppers) == len(seeds) == len(pop):
        raise NetworkError("a population needs one stepper and one shuffle seed per member")
    needs_grad = [getattr(s, "needs_grad", True) for s in steppers]
    size = population_size(min(cfg.batch_size, len(train_set)), pop.layer_sizes)
    outcomes = [None] * len(pop)
    for kind in (True, False):
        rows = [k for k, flag in enumerate(needs_grad) if flag == kind]
        for stack in (rows[lo : lo + size] for lo in range(0, len(rows), size)):
            _train_stacked(pop, np.array(stack), [steppers[k] for k in stack],
                           [seeds[k] for k in stack], data, cfg, kind, outcomes)
    # a lone training keeps a scalar history while perfbench's tracer and
    # CI's tune guard count bool(history.failed) per train call
    if lone:
        return pop, TrainHistory(*outcomes[0])
    return pop, TrainHistory(*map(tuple, zip(*outcomes)))


def _train_stacked(pop: Population, index, steppers: list, seeds: list, data,
                   cfg: TrainConfig, needs_grad: bool, done: list) -> None:
    """Train the members of `pop` at rows `index`, whose steppers all need
    the gradient, or all do not, batch by batch in stacked passes. Each
    member's final weights go into its row of `pop.flat`, and its
    (epochs_run, stopped_early, failed, val_loss) into done[its row], each
    that of training the member alone.

    Row k of the stack's buffer, its row `index[k]` in `pop`, `steppers[k]`,
    the shuffle keys `keys[k]`, the weight bound `bound[k]`, the epoch's loss
    sum `totals[k]` and batch order `order[k]`, and the early-stopping state
    `best[k]` and `worse[k]` belong to one member, and `leave` alone drops
    them together. Every row still in the stack has run the same epochs, so
    a member's weights and outcome are written once, as it leaves. `top`,
    the largest bound, stays as it is when rows leave: it still bounds every
    row left."""
    train_set, val_set = data
    stack = pop.take(index)
    # keys[k, e]: row k's epoch-e batch order, stream ("shuffle", "epoch", e)
    # of its shuffle seed, all derived at once
    keys = Streams.from_seeds(seeds).children(
        "shuffle", "epoch", last=range(cfg.max_epochs)).keys()
    keys = keys.reshape(len(stack), cfg.max_epochs, 2)
    # the best validation loss so far, and the epochs since it improved;
    # without early stopping no count reaches the patience
    best, worse = np.full(len(stack), np.inf), np.zeros(len(stack), dtype=np.int64)
    patience = cfg.patience if cfg.early_stop else math.inf
    # max |x| over both sets; no validation rows give a 0/0 loss, never certified
    x_bound = max(train_set.x_bound, val_set.x_bound) if len(val_set) else math.inf
    starts = range(0, len(train_set), cfg.batch_size)

    def orders(epoch):  # each row's batch order for the epoch
        return np.array(draw_keyed(keys[:, epoch], lambda gen: gen.permutation(len(train_set))))

    def uncertified(bound):  # rows whose losses the certificate leaves open
        return ~(_logit_bound(pop.layer_sizes, x_bound, bound) < _LOGIT_MARGIN)

    def leave(gone, outcome):  # write rows `gone` out, with outcome(row); rows remain?
        nonlocal stack, index, steppers, keys, best, worse, bound, totals, order
        for row in np.flatnonzero(gone).tolist():
            pop.flat[index[row]] = stack.flat[row]
            done[index[row]] = outcome(row)
        keep = np.flatnonzero(~gone)
        if len(keep):
            stack, index, keys = stack.take(keep), index[keep], keys[keep]
            best, worse, bound, totals = best[keep], worse[keep], bound[keep], totals[keep]
            order = None if order is None else order[keep]
            steppers = [steppers[row] for row in keep.tolist()]
        return len(keep)

    with np.errstate(all="ignore"):  # non-finite values become a failed run
        bound = _abs_max(stack.flat)
        top = bound.max()  # the stack's largest bound: certifies every row at once
        for epoch in range(cfg.max_epochs):
            failed = (epoch, False, True, None)
            for stepper in steppers:
                stepper.begin_epoch(epoch)
            totals, order = np.zeros(len(stack)), None  # order: drawn at the first forward
            for lo in starts:
                # the rows whose loss the certificate leaves open at the weights
                # this batch's update sees; a gradient-free stack runs its
                # forward for them alone, a gradient stack for every row
                rows = np.flatnonzero(uncertified(bound)) if uncertified(top) else ()
                batch = slice(None) if needs_grad else rows
                grads = np.empty_like(stack.flat) if needs_grad else [None] * len(stack)
                if needs_grad or len(rows):
                    order = orders(epoch) if order is None else order
                    idx = order[batch, lo : lo + cfg.batch_size]
                    labels = train_set.y[idx]
                    # take() gathers the rows of x several times faster than x[idx]
                    logits, cache = forward(stack if needs_grad else stack.take(rows),
                                            train_set.x.take(idx, axis=0))
                    log_probs = _log_softmax(logits)
                    if len(rows):  # the certified rows' losses come along
                        totals[batch] += _nll(log_probs, labels) * idx.shape[1]
                    if needs_grad:  # into fresh `grads`: steppers may keep a row
                        backward(stack, cache, labels, log_probs, grads)
                for stepper, w, g in zip(steppers, stack.flat, grads):
                    stepper.update(w, g)
                bound = _abs_max(stack.flat)
                top = bound.max()
                if not top < math.inf:  # NaN compares false too
                    if not leave(~(bound < math.inf), lambda row: failed):
                        return
            last = epoch == cfg.max_epochs - 1
            # without early stopping, an epoch before the last whose sums are
            # finite and whose end weights are certified has nothing to decide
            if not (cfg.early_stop or last or uncertified(top)) and np.isfinite(
                    np.add.reduce(totals)):
                continue
            finite = np.isfinite(totals)
            need = finite.copy() if cfg.early_stop or last else finite & uncertified(bound)
            losses = np.full(len(stack), np.nan)
            rows = np.flatnonzero(need)
            if len(rows):
                losses[rows] = np.concatenate([
                    mean_loss(forward(chunk, val_set.x)[0], val_set.y)
                    for chunk in stack.take(rows).chunks(len(val_set))])
                finite[rows] &= np.isfinite(losses[rows])
            # a strict improvement resets the count; NaN compares false
            better = losses < best
            best, worse = np.where(better, losses, best), np.where(better, 0, worse + 1)
            stop = worse >= patience
            gone = ~finite | stop | last
            if gone.any() and not leave(gone, lambda row: failed if not finite[row] else
                                        (epoch + 1, bool(stop[row]), False, float(losses[row]))):
                return


def train_seeded(layer_sizes, stepper, data, cfg: TrainConfig, rng):
    """Train a fresh `Population.seeded`, member k seeded by stream k of
    `rng`; returns (pop, TrainHistory) like `train`. `Streams` take a list
    of steppers, one per stream; an `Rng` takes one stepper, as `Streams` of
    one, and gets the scalar history. Each member's network seed is one
    draw from its stream's child "net", and its shuffle seed one from its
    child "shuffle"."""
    lone = isinstance(rng, Rng)
    streams = Streams.of([rng]) if lone else rng
    seeds = streams.children(last=["net", "shuffle"]).draw(draw_seed)
    return train(Population.seeded(layer_sizes, seeds[::2]), stepper, data, cfg,
                 seeds[1] if lone else seeds[1::2])
