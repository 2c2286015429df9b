"""Dense networks: init, forward/backward vs finite differences, training loop."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from optevo.data import Dataset, synthetic
from optevo.dsge import map_genotype, random_derivation
from optevo.grammar import load_shipped_grammar
from optevo.nn import (
    EarlyStopTracker,
    Network,
    NetworkError,
    TrainConfig,
    TrainHistory,
    _log_softmax,
    _nll,
    backward,
    evaluate,
    forward,
    mean_loss,
    train,
)
from optevo.optim import (
    BUILTIN_NAMES,
    HyperParams,
    builtin,
    make_stepper,
    spec_from_phenotype,
)
from optevo.sched import ScheduledSGD, parse_policy
from optevo.tensor import Rng

import oracles
from oracles import train_per_tensor


def sgd(lr):
    return make_stepper("sgd", HyperParams(lr=lr))


class TestNetworkInit:
    def test_layer_shapes_and_activations(self):
        net = Network([4, 8, 5, 3], seed=0)
        assert [w.shape for w in net.params[::2]] == [(4, 8), (8, 5), (5, 3)]
        assert [b.shape for b in net.params[1::2]] == [(8,), (5,), (3,)]
        for b in net.params[1::2]:
            np.testing.assert_array_equal(b, 0.0)
        # ReLU after the hidden layers only: the output layer stays linear
        _, cache = forward(net, np.random.default_rng(0).normal(size=(6, 4)))
        for z, a in zip(cache["pre"][:-1], cache["activations"][1:-1]):
            np.testing.assert_array_equal(a, np.maximum(z, 0.0))
        assert cache["activations"][-1] is cache["pre"][-1]

    def test_he_uniform_bounds(self):
        net = Network([100, 50, 10], seed=1)
        for w in net.params[::2]:
            limit = np.sqrt(6.0 / w.shape[0])
            assert np.abs(w).max() <= limit
            # spread should fill a decent fraction of the admissible range
            assert np.abs(w).max() > 0.5 * limit

    def test_deterministic_in_seed(self):
        a, b = Network([3, 7, 2], seed=9), Network([3, 7, 2], seed=9)
        assert a.flat.tobytes() == b.flat.tobytes()
        c = Network([3, 7, 2], seed=10)
        assert not np.array_equal(a.params[0], c.params[0])

    def test_layers_draw_independent_streams(self):
        net = Network([5, 5, 5, 5], seed=0)
        assert not np.array_equal(net.params[0], net.params[2])

    def test_size_validation(self):
        with pytest.raises(NetworkError, match="at least"):
            Network([4])
        with pytest.raises(NetworkError, match="positive"):
            Network([4, 0, 2])

    def test_params_alias_layer_tensors(self):
        """`params` is built once: every read gives the same views, and a
        write through one reaches the forward pass."""
        net = Network([2, 3, 2], seed=0)
        params = net.params
        assert len(params) == 4
        assert all(a is b for a, b in zip(params, net.params))
        params[2][...] = 0.0
        params[3][...] = 7.0
        logits, _ = forward(net, np.ones((1, 2)))
        np.testing.assert_array_equal(logits, [[7.0, 7.0]])

    def test_params_are_views_into_flat(self):
        net = Network([3, 4, 2], seed=1)
        params = net.params
        assert net.flat.tobytes() == b"".join(p.tobytes() for p in params)
        assert all(p.flags.c_contiguous and np.shares_memory(p, net.flat)
                   for p in params)
        net.flat[...] = 2.0
        assert all((p == 2.0).all() for p in params)


class TestForward:
    def test_hand_computed_relu_chain(self):
        net = Network([2, 2, 2], seed=0)
        for p, value in zip(net.params, [
            [[1.0, -1.0], [0.0, 2.0]], [0.5, -0.5],
            [[1.0, 0.0], [1.0, 1.0]], [0.0, 1.0],
        ]):
            p[...] = value
        logits, cache = forward(net, np.array([[1.0, 1.0]]))
        # z1 = [1.5, 0.5]; relu keeps both; z2 = [1.5+0.5, 0.5+1] = [2.0, 1.5]
        np.testing.assert_allclose(logits, [[2.0, 1.5]])
        np.testing.assert_allclose(cache["activations"][1], [[1.5, 0.5]])

    def test_relu_clamps_negatives(self):
        net = Network([1, 1, 1], seed=0)
        for p, value in zip(net.params, [[[-1.0]], [0.0], [[1.0]], [0.0]]):
            p[...] = value
        logits, cache = forward(net, np.array([[2.0]]))
        np.testing.assert_array_equal(cache["pre"][0], [[-2.0]])
        np.testing.assert_array_equal(logits, [[0.0]])

    def test_shape_check(self):
        net = Network([3, 2], seed=0)
        with pytest.raises(NetworkError, match="expected inputs"):
            forward(net, np.zeros((5, 4)))
        with pytest.raises(NetworkError, match="expected inputs"):
            forward(net, np.zeros(3))


class TestLoss:
    def test_uniform_logits_give_log_classes(self):
        logits = np.zeros((7, 4))
        labels = np.arange(7) % 4
        np.testing.assert_allclose(mean_loss(logits, labels), np.log(4.0))

    def test_confident_correct_is_near_zero(self):
        logits = np.array([[50.0, 0.0, 0.0]])
        assert mean_loss(logits, np.array([0])) < 1e-10

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, 5)
        a = mean_loss(logits, labels)
        b = mean_loss(logits + 1000.0, labels)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1e4, -1e4]])
        assert np.isfinite(mean_loss(logits, np.array([1]))) is np.True_ or np.isfinite(
            mean_loss(logits, np.array([1]))
        )


def loss_at(net, x, y):
    logits, _ = forward(net, x)
    return mean_loss(logits, y)


def fd_gradients(net, x, y, h=1e-5):
    """Central finite differences over every parameter coordinate."""
    grads = []
    for p in net.params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            orig = p[i]
            p[i] = orig + h
            up = loss_at(net, x, y)
            p[i] = orig - h
            down = loss_at(net, x, y)
            p[i] = orig
            g[i] = (up - down) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


class TestBackwardAgainstFiniteDifferences:
    def test_2_16_3_network(self):
        rng = np.random.default_rng(42)
        net = Network([2, 16, 3], seed=5)
        x = rng.random((8, 2))
        y = rng.integers(0, 3, 8)
        _, cache = forward(net, x)
        analytic = backward(net, cache, y)
        numeric = fd_gradients(net, x, y)
        for a, n in zip(analytic, numeric):
            denom = max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
            assert np.linalg.norm(a - n) / denom < 1e-4

    def test_deeper_network_and_batch_of_one(self):
        net = Network([3, 5, 4, 2], seed=1)
        x = np.array([[0.2, 0.9, 0.4]])
        y = np.array([1])
        _, cache = forward(net, x)
        analytic = backward(net, cache, y)
        numeric = fd_gradients(net, x, y)
        for a, n in zip(analytic, numeric):
            np.testing.assert_allclose(a, n, atol=1e-7, rtol=1e-4)

    def test_gradient_descends(self):
        net = Network([2, 8, 2], seed=3)
        d = synthetic("two_gaussians", 64, seed=0)
        before = loss_at(net, d.x, d.y)
        _, cache = forward(net, d.x)
        grads = backward(net, cache, d.y)
        for p, g in zip(net.params, grads):
            p -= 0.5 * g
        assert loss_at(net, d.x, d.y) < before

    def test_given_log_probs_give_the_same_bytes(self):
        net = Network([2, 8, 3], seed=2)
        d = synthetic("xor_blobs", 40, seed=1)
        logits, cache = forward(net, d.x)
        fused = backward(net, cache, d.y, _log_softmax(logits))
        for a, b in zip(fused, backward(net, cache, d.y)):
            assert a.tobytes() == b.tobytes()

    def test_label_out_of_range(self):
        net = Network([2, 3], seed=0)
        _, cache = forward(net, np.zeros((1, 2)))
        with pytest.raises(NetworkError, match="class range"):
            backward(net, cache, np.array([3]))


class TestEvaluate:
    def test_zero_network_predicts_class_zero(self):
        net = Network([2, 4, 3], seed=0)
        net.flat[...] = 0.0
        d = synthetic("two_gaussians", 40, seed=1)
        # all logits tie at 0, argmax resolves to the lowest index -> class 0
        acc = evaluate(net, d)
        np.testing.assert_allclose(acc, (d.y == 0).mean())

    def test_empty_dataset_rejected(self):
        from optevo.data import Dataset

        net = Network([2, 2], seed=0)
        with pytest.raises(NetworkError, match="empty"):
            evaluate(net, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int)))


class TestEarlyStopTracker:
    def test_worsening_from_epoch_three_stops_at_eight(self):
        tracker = EarlyStopTracker(patience=5)
        losses = [1.0, 0.9, 0.8, 0.81, 0.82, 0.83, 0.84, 0.85]
        stops = [tracker.update(v) for v in losses]
        assert stops == [False] * 7 + [True]

    def test_equal_loss_is_not_an_improvement(self):
        tracker = EarlyStopTracker(patience=2)
        assert not tracker.update(0.5)
        assert not tracker.update(0.5)
        assert tracker.update(0.5)

    def test_recovery_resets_counter(self):
        tracker = EarlyStopTracker(patience=2)
        for v in (1.0, 1.1, 0.9, 1.0):
            assert not tracker.update(v)
        assert tracker.update(1.0)


class RecordingStepper:
    """No-op stepper that logs begin_epoch calls."""

    name = "recorder"

    def __init__(self):
        self.epochs = []
        self.failed = False

    def begin_epoch(self, epoch):
        self.epochs.append(epoch)

    def update(self, w, g):
        pass


def toy_data(n=120, seed=0):
    d = synthetic("two_gaussians", n, noise=0.08, seed=seed)
    cut = int(0.75 * n)
    return Dataset(d.x[:cut], d.y[:cut]), Dataset(d.x[cut:], d.y[cut:])


class TestTrain:
    def test_zero_lr_leaves_weights_unchanged(self):
        net = Network([2, 4, 2], seed=0)
        before = [p.copy() for p in net.params]
        data = toy_data()
        _, hist = train(net, sgd(0.0), data,
                        TrainConfig(batch_size=16, max_epochs=3, early_stop=False))
        for p, b in zip(net.params, before):
            np.testing.assert_array_equal(p, b)
        assert hist.epochs_run == 3
        assert not hist.stopped_early and not hist.failed

    def test_history_lengths_match_epochs_run(self):
        net = Network([2, 4, 2], seed=0)
        _, hist = train(net, sgd(0.1), toy_data(),
                        TrainConfig(batch_size=16, max_epochs=4, early_stop=False))
        assert hist.epochs_run == 4
        assert len(hist.train_loss) == len(hist.val_loss) == 4

    def test_constant_val_loss_stops_after_patience(self):
        net = Network([2, 4, 2], seed=0)
        _, hist = train(net, RecordingStepper(), toy_data(),
                        TrainConfig(batch_size=16, max_epochs=50, patience=5))
        # epoch 0 sets the best; epochs 1-5 tie, never strictly better
        assert hist.stopped_early
        assert hist.epochs_run == 6

    def test_begin_epoch_gets_zero_based_indices(self):
        rec = RecordingStepper()
        net = Network([2, 4, 2], seed=0)
        train(net, rec, toy_data(),
              TrainConfig(batch_size=16, max_epochs=4, early_stop=False))
        assert rec.epochs == [0, 1, 2, 3]

    def test_nonfinite_update_aborts_with_failed(self):
        # sqrt of a negative gradient entry is NaN; the stepper flags it
        spec = spec_from_phenotype(
            "sqrt(negative(grad)) ; y ; z ; add(alpha, x)", name="nan_maker"
        )
        net = Network([2, 4, 2], seed=0)
        _, hist = train(net, make_stepper(spec), toy_data(),
                        TrainConfig(batch_size=16, max_epochs=5))
        assert hist.failed
        assert hist.epochs_run == 0
        assert isinstance(hist, TrainHistory)

    def test_training_is_deterministic(self):
        runs = []
        for _ in range(2):
            net = Network([2, 8, 2], seed=4)
            _, hist = train(net, sgd(0.3), toy_data(),
                            TrainConfig(batch_size=8, max_epochs=5, early_stop=False,
                                        shuffle_seed=2))
            runs.append(hist)
        assert runs[0].train_loss == runs[1].train_loss
        assert runs[0].val_loss == runs[1].val_loss

    def test_shuffle_seed_changes_trajectory(self):
        losses = []
        for seed in (0, 1):
            net = Network([2, 8, 2], seed=4)
            _, hist = train(net, sgd(0.3), toy_data(),
                            TrainConfig(batch_size=8, max_epochs=3, early_stop=False,
                                        shuffle_seed=seed))
            losses.append(hist.train_loss)
        assert losses[0] != losses[1]

    def test_sgd_solves_two_gaussians(self):
        net = Network([2, 16, 2], seed=0)
        train_set, val_set = toy_data(n=400, seed=2)
        _, hist = train(net, sgd(0.5), (train_set, val_set),
                        TrainConfig(batch_size=32, max_epochs=50, early_stop=False))
        assert evaluate(net, val_set) >= 0.95
        assert hist.val_loss[-1] < hist.val_loss[0]

    def test_scheduled_sgd_consults_policy_each_epoch(self):
        policy = parse_policy("if(epoch < 3.0, 0.5, 0.001)")
        net = Network([2, 4, 2], seed=0)
        stepper = ScheduledSGD(policy)
        seen = []
        original = stepper.begin_epoch

        def spying_begin(epoch):
            original(epoch)
            seen.append(stepper.current_lr)

        stepper.begin_epoch = spying_begin
        train(net, stepper, toy_data(),
              TrainConfig(batch_size=16, max_epochs=6, early_stop=False))
        assert seen == [0.5, 0.5, 0.5, 0.001, 0.001, 0.001]

    def test_train_loss_is_batch_mean_loss(self):
        """Each epoch's train loss re-derives, bit for bit, from mean_loss on
        every batch at the weights that batch saw. `train` hands the stepper
        one flat tensor, so the snapshots replay through `flat`."""

        class Snapshotting:
            def __init__(self, inner):
                self.inner, self.seen = inner, []

            def begin_epoch(self, epoch):
                self.inner.begin_epoch(epoch)

            @property
            def failed(self):
                return self.inner.failed

            def update(self, w, g):
                self.seen.append(w.copy())
                self.inner.update(w, g)

        train_set, val_set = toy_data(n=130, seed=3)
        cfg = TrainConfig(batch_size=16, max_epochs=3, early_stop=False,
                          shuffle_seed=5)
        stepper = Snapshotting(sgd(0.3))
        _, hist = train(Network([2, 8, 2], seed=1), stepper, (train_set, val_set), cfg)
        replay = Network([2, 8, 2], seed=1)
        batches = iter(stepper.seen)
        shuffle_rng = Rng(cfg.shuffle_seed).child("shuffle")
        want = []
        for epoch in range(cfg.max_epochs):
            order = shuffle_rng.child("epoch", epoch).permutation(len(train_set))
            total = 0.0
            for lo in range(0, len(order), cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                replay.flat[...] = next(batches)
                logits, _ = forward(replay, train_set.x[idx])
                total += mean_loss(logits, train_set.y[idx]) * len(idx)
            want.append(total / len(order))
        assert hist.train_loss == want

    def test_gradient_free_stepper_gets_no_backward(self, monkeypatch):
        import optevo.nn as nn

        calls = []
        real_backward = nn.backward
        monkeypatch.setattr(nn, "backward",
                            lambda *a: calls.append(1) or real_backward(*a))
        cfg = TrainConfig(batch_size=30, max_epochs=2, early_stop=False)
        free = make_stepper(spec_from_phenotype("grad ; y ; z ; multiply(alpha, 0.9)"))
        assert not free.needs_grad
        grads_seen = []
        update = free.update
        free.update = lambda w, g: grads_seen.append(g) or update(w, g)
        train(Network([2, 4, 2], seed=0), free, toy_data(), cfg)
        assert calls == [] and grads_seen == [None] * 6
        train(Network([2, 4, 2], seed=0), sgd(0.1), toy_data(), cfg)
        assert len(calls) == 6  # 90 rows in batches of 30, two epochs

    def test_empty_training_set_rejected(self):
        from optevo.data import Dataset

        net = Network([2, 2], seed=0)
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        val = synthetic("two_gaussians", 10, seed=0)
        with pytest.raises(NetworkError, match="empty"):
            train(net, sgd(0.1), (empty, val), TrainConfig())

    def test_config_validation(self):
        with pytest.raises(NetworkError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(NetworkError, match="max_epochs"):
            TrainConfig(max_epochs=0)
        with pytest.raises(NetworkError, match="patience"):
            TrainConfig(patience=0)


class TestLabelRange:
    """`train` checks every label against the output width before the first
    batch, whatever the stepper needs."""

    @pytest.mark.parametrize("phenotype", [None, "grad ; y ; z ; multiply(alpha, 0.9)"])
    @pytest.mark.parametrize("bad_part", [0, 1])
    def test_label_outside_class_range_rejected(self, phenotype, bad_part):
        labelled = Dataset(np.zeros((20, 2)), np.arange(20) % 3)
        fine = Dataset(np.zeros((20, 2)), np.arange(20) % 2)
        data = (labelled, fine) if bad_part == 0 else (fine, labelled)
        stepper = sgd(0.1) if phenotype is None else make_stepper(
            spec_from_phenotype(phenotype))
        calls = []
        update = stepper.update
        stepper.update = lambda w, g: calls.append(1) or update(w, g)
        with pytest.raises(NetworkError, match="class range"):
            train(Network([2, 2], seed=0), stepper, data,
                  TrainConfig(batch_size=5, max_epochs=1))
        assert calls == []

    def test_unused_output_classes_are_allowed(self):
        _, hist = train(Network([2, 3], seed=0), sgd(0.1), toy_data(),
                        TrainConfig(batch_size=30, max_epochs=2))
        assert hist.epochs_run == 2 and not hist.failed


ALR = load_shipped_grammar("alr")

# hand-picked rules: x_func = alpha (x is the live weight buffer), rules that
# overflow, and rules no gradient reaches (no backward pass)
EDGE_PHENOTYPES = [
    "alpha ; x ; add(z, grad) ; subtract(y, multiply(0.01, z))",
    "multiply(grad, grad) ; y ; z ; subtract(alpha, multiply(1e300, x))",
    "grad ; y ; z ; multiply(alpha, 0.9)",
    "grad ; add(y, 1.0) ; z ; multiply(alpha, multiply(y, 1e100))",
    "divide_no_nan(0.01, 3.0) ; y ; z ; subtract(alpha, x)",
]
STEPPER_KINDS = [*BUILTIN_NAMES, "scheduled", "alr", *EDGE_PHENOTYPES]


def make_case_stepper(kind, seed, lr_scale):
    rng = Rng(seed).child("flat-vs-per-tensor")
    if kind == "scheduled":
        return ScheduledSGD(parse_policy(f"if(epoch < 2.0, {0.5 * lr_scale!r}, 0.01)"))
    if kind == "alr":
        genotype = random_derivation(ALR, rng=rng.child("genotype"))[0]
        return make_stepper(spec_from_phenotype(map_genotype(ALR, genotype).text()))
    if kind in BUILTIN_NAMES:
        hp = HyperParams.defaults_for(kind)
        return make_stepper(kind, replace(
            hp, lr=hp.lr * lr_scale, mom=float(rng.uniform(0.5, 0.99)),
            beta1=float(rng.uniform(0.5, 0.99))))
    return make_stepper(spec_from_phenotype(kind))


class TestFlatMatchesPerTensor:
    """`train` steps one flat buffer; stepping each tensor on its own, from
    separately allocated arrays, gives the same bytes."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(STEPPER_KINDS),
        st.sampled_from([1.0, 1e3, 1e300]),
        st.lists(st.integers(1, 9), max_size=2),
        st.booleans(),
    )
    def test_same_outcome(self, seed, kind, lr_scale, hidden, early_stop):
        d = synthetic("two_gaussians", 90, noise=0.1, seed=seed % 89)
        data = Dataset(d.x[:60], d.y[:60]), Dataset(d.x[60:], d.y[60:])
        sizes = [2, *hidden, 2 + seed % 2]
        cfg = TrainConfig(batch_size=16, max_epochs=4, early_stop=early_stop,
                          patience=1, shuffle_seed=seed % 1000)
        net, hist = train(Network(sizes, seed=seed),
                          make_case_stepper(kind, seed, lr_scale), data, cfg)
        params = [p.copy() for p in Network(sizes, seed=seed).params]
        shuffle = Rng(cfg.shuffle_seed).child("shuffle")
        want = train_per_tensor(
            params, lambda: make_case_stepper(kind, seed, lr_scale), data, cfg,
            lambda epoch: shuffle.child("epoch", epoch).permutation(60))
        assert [p.tobytes() for p in net.params] == [p.tobytes() for p in params]
        assert (hist.train_loss, hist.val_loss, hist.epochs_run,
                hist.stopped_early, hist.failed) == want


SPECIAL_VALUES = [np.inf, -np.inf, np.nan, 0.0, -0.0]


@st.composite
def logits_and_labels(draw):
    """Logits of 1-1200 rows and 1-12 columns at scales from tiny to near
    overflow, optionally rounded (ties, and -0.0 from small negatives), with
    +-inf, NaN and +-0 written into random cells; labels in range."""
    rows, width = draw(st.integers(1, 1200)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-300, 1e-3, 1.0, 40.0, 1e3, 1e300]))
    logits = rng.normal(size=(rows, width)) * scale
    if draw(st.booleans()):
        logits = np.round(logits)
    cells = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, width - 1),
                                    st.sampled_from(SPECIAL_VALUES)), max_size=24))
    for r, c, value in cells:
        logits[r, c] = value
    return logits, rng.integers(0, width, size=rows)


def assert_same_bits(got, want):
    """Byte-equal float64 values, any NaN counting as equal to any NaN."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(want))
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestSoftmaxMatchesOracle:
    """The column-loop row max and direct reductions give the bytes of the
    `max(axis=1)` / `.mean()` forms in tests/oracles.py."""

    @given(logits_and_labels())
    def test_log_softmax(self, case):
        logits, _ = case
        with np.errstate(all="ignore"):  # _log_softmax runs under the caller's
            got = _log_softmax(logits)
        assert_same_bits(got, oracles._log_softmax(logits))

    @given(logits_and_labels())
    def test_nll(self, case):
        logits, labels = case
        log_probs = oracles._log_softmax(logits)
        with np.errstate(all="ignore"):
            got = _nll(log_probs, labels)
            want = oracles._nll(log_probs, labels)
        assert type(got) is float
        assert_same_bits(got, want)

    @given(logits_and_labels())
    def test_mean_loss(self, case):
        logits, labels = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # mean_loss opens its own errstate
            got = mean_loss(logits, labels)
        with np.errstate(all="ignore"):
            want = oracles._nll(oracles._log_softmax(logits), labels)
        assert_same_bits(got, want)

    def test_signed_zero_tie(self):
        """A +0/-0 row max may keep either sign; the output does not show it."""
        logits = np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, -1.0], [-0.0, -0.0, 0.0]])
        with np.errstate(all="ignore"):
            got = _log_softmax(logits)
        assert_same_bits(got, oracles._log_softmax(logits))


class TestOverflowStaysSilent:
    """`train` and `evaluate` run their numpy work under their own errstate:
    weights large enough to overflow the logits fail the run quietly."""

    @pytest.mark.parametrize("opt", [
        "sgd", "adam", "nesterov",
        spec_from_phenotype("grad ; y ; z ; multiply(alpha, 0.9)"),  # no backward
    ])
    def test_huge_initial_weights(self, opt):
        net = Network([2, 16, 2], seed=0)
        net.flat *= 1e200
        data = toy_data()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, hist = train(net, make_stepper(opt), data,
                            TrainConfig(batch_size=16, max_epochs=3))
            acc = evaluate(net, data[1])
        assert hist.failed
        assert type(acc) is float
