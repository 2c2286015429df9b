"""Dense networks, each a Population of K >= 1 members: init,
forward/backward vs finite differences and the oracle, training loop."""

import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optevo.data import Dataset, synthetic
from optevo.dsge import map_genotype, random_derivation
from optevo.grammar import load_shipped_grammar
from optevo.nn import (
    NetworkError,
    Population,
    Stepper,
    TrainConfig,
    TrainHistory,
    _abs_max,
    _log_softmax,
    _logit_bound,
    _nll,
    backward,
    evaluate,
    forward,
    mean_loss,
    population_size,
    train,
    train_seeded,
)
from optevo.optim import (
    BUILTIN_NAMES,
    HyperParams,
    builtin,
    make_stepper,
    spec_from_phenotype,
)
from optevo.sched import ScheduledSGD, parse_policy
from optevo.tensor import Rng, Streams

import oracles
from oracles import assert_same_bits, member_params, stack_networks, train_per_tensor


def sgd(lr):
    return make_stepper("sgd", HyperParams(lr=lr))


class TestNetworkInit:
    def test_layer_shapes_and_activations(self):
        net = Population.seeded([4, 8, 5, 3], [0])
        assert [w.shape for w in net.params[::2]] == [(1, 4, 8), (1, 8, 5), (1, 5, 3)]
        assert [b.shape for b in net.params[1::2]] == [(1, 1, 8), (1, 1, 5), (1, 1, 3)]
        for b in net.params[1::2]:
            np.testing.assert_array_equal(b, 0.0)
        # ReLU after the hidden layers only: the output layer stays linear
        _, cache = forward(net, np.random.default_rng(0).normal(size=(6, 4)))
        for z, a in zip(cache["pre"][:-1], cache["activations"][1:-1]):
            np.testing.assert_array_equal(a, np.maximum(z, 0.0))
        assert cache["activations"][-1] is cache["pre"][-1]

    def test_he_uniform_bounds(self):
        net = Population.seeded([100, 50, 10], [1])
        for w in net.params[::2]:
            limit = np.sqrt(6.0 / w.shape[1])
            assert np.abs(w).max() <= limit
            # spread should fill a decent fraction of the admissible range
            assert np.abs(w).max() > 0.5 * limit

    def test_deterministic_in_seed(self):
        a, b = Population.seeded([3, 7, 2], [9]), Population.seeded([3, 7, 2], [9])
        assert a.flat.tobytes() == b.flat.tobytes()
        c = Population.seeded([3, 7, 2], [10])
        assert not np.array_equal(a.params[0], c.params[0])

    def test_layers_draw_independent_streams(self):
        net = Population.seeded([5, 5, 5, 5], [0])
        assert not np.array_equal(net.params[0], net.params[2])

    @pytest.mark.parametrize("seed", [0, 17, 2**31 - 2, 2**40 + 3])
    def test_weights_are_the_layer_streams(self, seed):
        """Weight matrix i is drawn from stream ("init", "layer", i) of the
        seed, and the biases are zero."""
        net = Population.seeded([3, 6, 4, 2], [seed])
        for i, (w, b) in enumerate(zip(net.params[::2], net.params[1::2])):
            limit = np.sqrt(6.0 / w.shape[1])
            want = Rng(seed).child("init").child("layer", i).draw(
                lambda g: g.uniform(-limit, limit, size=w.shape[1:]))
            assert w.tobytes() == want.tobytes()
            assert not b.any()

    def test_seeded_population_views_one_buffer(self):
        """`Population.seeded` draws each seed's weights into row k of one
        (K, P) buffer, and a Population over it views that buffer."""
        seeds = [4, 0, 2**31 - 2]
        flat = Population.seeded([3, 6, 2], seeds).flat
        pop = Population([3, 6, 2], flat)
        assert flat.shape == (3, Population.seeded([3, 6, 2], [0]).flat.size)
        assert pop.flat is flat and pop.layer_sizes == [3, 6, 2] and len(pop) == 3
        for k, seed in enumerate(seeds):
            assert flat[k].tobytes() == Population.seeded([3, 6, 2], [seed]).flat.tobytes()
        assert all(np.shares_memory(p, flat) for p in pop.params)

    def test_size_validation(self):
        with pytest.raises(NetworkError, match="at least"):
            Population.seeded([4], [0])
        with pytest.raises(NetworkError, match="positive"):
            Population.seeded([4, 0, 2], [0])

    def test_params_alias_layer_tensors(self):
        """`params` is built once: every read gives the same views, and a
        write through one reaches the forward pass."""
        net = Population.seeded([2, 3, 2], [0])
        params = net.params
        assert len(params) == 4
        assert all(a is b for a, b in zip(params, net.params))
        params[2][...] = 0.0
        params[3][...] = 7.0
        logits, _ = forward(net, np.ones((1, 2)))
        np.testing.assert_array_equal(logits, [[[7.0, 7.0]]])

    def test_params_are_views_into_flat(self):
        net = Population.seeded([3, 4, 2], [1])
        params = net.params
        assert net.flat.tobytes() == b"".join(p.tobytes() for p in params)
        assert all(p.flags.c_contiguous and np.shares_memory(p, net.flat)
                   for p in params)
        net.flat[...] = 2.0
        assert all((p == 2.0).all() for p in params)


class TestForward:
    def test_hand_computed_relu_chain(self):
        net = Population.seeded([2, 2, 2], [0])
        for p, value in zip(net.params, [
            [[1.0, -1.0], [0.0, 2.0]], [0.5, -0.5],
            [[1.0, 0.0], [1.0, 1.0]], [0.0, 1.0],
        ]):
            p[...] = value
        logits, cache = forward(net, np.array([[1.0, 1.0]]))
        # z1 = [1.5, 0.5]; relu keeps both; z2 = [1.5+0.5, 0.5+1] = [2.0, 1.5]
        np.testing.assert_allclose(logits, [[[2.0, 1.5]]])
        np.testing.assert_allclose(cache["activations"][1], [[[1.5, 0.5]]])

    def test_relu_clamps_negatives(self):
        net = Population.seeded([1, 1, 1], [0])
        for p, value in zip(net.params, [[[-1.0]], [0.0], [[1.0]], [0.0]]):
            p[...] = value
        logits, cache = forward(net, np.array([[2.0]]))
        np.testing.assert_array_equal(cache["pre"][0], [[[-2.0]]])
        np.testing.assert_array_equal(logits, [[[0.0]]])

    def test_shape_check(self):
        net = Population.seeded([3, 2], [0])
        with pytest.raises(NetworkError, match="expected inputs"):
            forward(net, np.zeros((5, 4)))
        with pytest.raises(NetworkError, match="expected inputs"):
            forward(net, np.zeros(3))


class TestLoss:
    """`mean_loss` of one member's (1, B, classes) logits."""

    def test_uniform_logits_give_log_classes(self):
        logits = np.zeros((1, 7, 4))
        labels = np.arange(7) % 4
        np.testing.assert_allclose(mean_loss(logits, labels), [np.log(4.0)])

    def test_confident_correct_is_near_zero(self):
        logits = np.array([[[50.0, 0.0, 0.0]]])
        assert mean_loss(logits, np.array([0]))[0] < 1e-10

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(1, 5, 3))
        labels = rng.integers(0, 3, 5)
        a = mean_loss(logits, labels)
        b = mean_loss(logits + 1000.0, labels)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[[1e4, -1e4]]])
        assert np.isfinite(mean_loss(logits, np.array([1]))[0])


def loss_at(net, x, y):
    logits, _ = forward(net, x)
    return mean_loss(logits, y)[0]


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
        net = Population.seeded([2, 16, 3], [5])
        x = rng.random((8, 2))
        y = rng.integers(0, 3, 8)
        _, cache = forward(net, x)
        analytic = backward(net, cache, y)
        numeric = fd_gradients(net, x, y)
        for a, n in zip(analytic, numeric):
            denom = max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
            assert np.linalg.norm(a - n) / denom < 1e-4

    def test_deeper_network_and_batch_of_one(self):
        net = Population.seeded([3, 5, 4, 2], [1])
        x = np.array([[0.2, 0.9, 0.4]])
        y = np.array([1])
        _, cache = forward(net, x)
        analytic = backward(net, cache, y)
        numeric = fd_gradients(net, x, y)
        for a, n in zip(analytic, numeric):
            np.testing.assert_allclose(a, n, atol=1e-7, rtol=1e-4)

    def test_gradient_descends(self):
        net = Population.seeded([2, 8, 2], [3])
        d = synthetic("two_gaussians", 64, seed=0)
        before = loss_at(net, d.x, d.y)
        _, cache = forward(net, d.x)
        grads = backward(net, cache, d.y)
        for p, g in zip(net.params, grads):
            p -= 0.5 * g
        assert loss_at(net, d.x, d.y) < before

    def test_given_log_probs_give_the_same_bytes(self):
        net = Population.seeded([2, 8, 3], [2])
        d = synthetic("xor_blobs", 40, seed=1)
        logits, cache = forward(net, d.x)
        fused = backward(net, cache, d.y, _log_softmax(logits))
        for a, b in zip(fused, backward(net, cache, d.y)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-rows", "own-rows"])
    def test_members_match_the_oracle(self, members, shared):
        """Each member's logits and gradients are those that the forward and
        backward passes of tests/oracles.py give on its rows and labels,
        bit for bit."""
        rng = np.random.default_rng(members)
        pop = Population.seeded([3, 16, 8, 4], range(7, 7 + members))
        x = rng.normal(size=(9, 3) if shared else (members, 9, 3))
        labels = rng.integers(0, 4, (members, 9))
        logits, cache = forward(pop, x)
        grads = backward(pop, cache, labels)
        for k in range(members):
            params = member_params(pop, k)
            activations, pre = oracles._forward(params, x if shared else x[k])
            want = oracles._backward(params, activations, pre, labels[k],
                                     oracles._log_softmax(activations[-1]))
            assert_same_bits(logits[k], activations[-1])
            for i, (got, w) in enumerate(zip(grads, want)):
                assert_same_bits(got[k] if i % 2 == 0 else got[k][0], w)

    def test_label_out_of_range(self):
        net = Population.seeded([2, 3], [0])
        _, cache = forward(net, np.zeros((1, 2)))
        with pytest.raises(NetworkError, match="class range"):
            backward(net, cache, np.array([3]))

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 1]], ids=["above", "below"])
    @pytest.mark.parametrize("fused", [False, True], ids=["own-softmax", "log-probs"])
    def test_direct_call_checks_labels(self, labels, fused):
        """`train` checks the labels once, but a direct `backward` call
        still rejects one outside the class range."""
        net = Population.seeded([2, 3, 2], [0])
        logits, cache = forward(net, np.ones((2, 2)))
        log_probs = _log_softmax(logits) if fused else None
        with pytest.raises(NetworkError, match="class range"):
            backward(net, cache, np.array(labels), log_probs)


class TestEvaluate:
    def test_zero_network_predicts_class_zero(self):
        net = Population.seeded([2, 4, 3], [0])
        net.flat[...] = 0.0
        d = synthetic("two_gaussians", 40, seed=1)
        # all logits tie at 0, argmax resolves to the lowest index -> class 0
        acc = evaluate(net, d)
        np.testing.assert_allclose(acc, [(d.y == 0).mean()])

    def test_empty_dataset_rejected(self):
        from optevo.data import Dataset

        net = Population.seeded([2, 2], [0])
        with pytest.raises(NetworkError, match="empty"):
            evaluate(net, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int)))


class Scripted(Stepper):
    """Gradient-free stepper that sets a [2, 2] network's weight matrix to
    t * [[1, -1], [0, 0]] and its biases to 0 on every update of epoch e,
    t = ts[e]. On `SCRIPTED_ROWS` the validation loss is then
    log(1 + exp(-2t)), which falls strictly as t grows and is the same
    float for the same t."""

    name = "scripted"
    needs_grad = False

    def __init__(self, ts):
        self.ts = ts

    def begin_epoch(self, epoch):
        self.t = self.ts[epoch]

    def update(self, w, g):
        w[...] = self.t * np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])


SCRIPTED_ROWS = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0, 1]))


def scripted_training(ts, patience, population):
    """Train a [2, 2] network under Scripted(ts) with early stopping, alone
    or as member 1 of a population of three, between a member whose loss
    falls every epoch and one whose weights go NaN in epoch 1. Returns the
    scripted member's final weights and (epochs_run, stopped_early, failed,
    val_loss)."""
    cfg = TrainConfig(batch_size=2, max_epochs=12, patience=patience)
    data = (SCRIPTED_ROWS, SCRIPTED_ROWS)
    if not population:
        net, hist = train(Population.seeded([2, 2], [0]), Scripted(ts), data, cfg)
        return net.flat[0], (hist.epochs_run, hist.stopped_early, hist.failed, hist.val_loss)
    falling, failing = [0.1 * (e + 1) for e in range(12)], [1.0, np.nan]
    pop, hist = train(Population.seeded([2, 2], [0, 0, 0]),
                      [Scripted(falling), Scripted(ts), Scripted(failing)], data, cfg,
                      [0, 1, 2])
    assert (hist.epochs_run[0], hist.stopped_early[0], hist.failed[0]) == (12, False, False)
    assert (hist.epochs_run[2], hist.failed[2], hist.val_loss[2]) == (1, True, None)
    return pop.flat[1], (hist.epochs_run[1], hist.stopped_early[1], hist.failed[1],
                         hist.val_loss[1])


def scripted_loss(t):
    """The validation loss of Scripted's weights at t: logits (t, -t) and (-t, t)."""
    return mean_loss(np.array([[[t, -t], [-t, t]]]), SCRIPTED_ROWS.y)[0]


class TestEarlyStopping:
    """`train` stops a member once its validation loss has gone `patience`
    epochs without a strict improvement over the best so far, alone and in
    a population whose other members leave before or after it."""

    @pytest.fixture(params=[False, True], ids=["lone", "population"])
    def population(self, request):
        return request.param

    def test_worsening_from_epoch_three_stops_at_eight(self, population):
        # losses fall over epochs 0-2, then rise: epochs 3-7 are five
        # without an improvement
        ts = [1.0, 2.0, 3.0] + [2.9 - 0.1 * e for e in range(9)]
        flat, outcome = scripted_training(ts, 5, population)
        assert outcome == (8, True, False, scripted_loss(ts[7]))
        assert flat.tolist() == [ts[7], -ts[7], 0.0, 0.0, 0.0, 0.0]

    def test_equal_loss_is_not_an_improvement(self, population):
        _, outcome = scripted_training([0.5] * 12, 2, population)
        assert outcome == (3, True, False, scripted_loss(0.5))

    def test_recovery_resets_counter(self, population):
        # worse, better than the best, then worse twice: the recovery in
        # epoch 2 restarts the count, so patience 2 stops after epoch 4
        ts = [1.0, 0.9, 1.1, 1.0, 1.0] + [1.0] * 7
        _, outcome = scripted_training(ts, 2, population)
        assert outcome == (5, True, False, scripted_loss(1.0))


class Swell(Stepper):
    """Gradient-free stepper that scales every weight by `factor` on odd
    updates and back down on even ones, in place."""

    name = "swell"
    needs_grad = False

    def __init__(self, factor):
        self.factor = factor
        self.t = 0

    def update(self, w, g):
        self.t += 1
        with np.errstate(all="ignore"):
            w[...] = w * (self.factor if self.t % 2 else 1.0 / self.factor)


class GradientSwell(Swell):
    """Swell that takes the gradient: `train` runs its backward pass and
    hands it every batch's gradient, which it ignores."""

    needs_grad = True


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
        net = Population.seeded([2, 4, 2], [0])
        before = [p.copy() for p in net.params]
        data = toy_data()
        _, hist = train(net, sgd(0.0), data,
                        TrainConfig(batch_size=16, max_epochs=3, early_stop=False))
        for p, b in zip(net.params, before):
            np.testing.assert_array_equal(p, b)
        assert hist.epochs_run == 3
        assert not hist.stopped_early and not hist.failed

    def test_val_loss_is_at_returned_weights(self):
        net = Population.seeded([2, 4, 2], [0])
        train_set, val_set = toy_data()
        _, hist = train(net, sgd(0.1), (train_set, val_set),
                        TrainConfig(batch_size=16, max_epochs=4, early_stop=False))
        assert hist.epochs_run == 4
        logits, _ = forward(net, val_set.x)
        assert hist.val_loss == mean_loss(logits, val_set.y)[0]

    def test_constant_val_loss_stops_after_patience(self):
        net = Population.seeded([2, 4, 2], [0])
        _, hist = train(net, RecordingStepper(), toy_data(),
                        TrainConfig(batch_size=16, max_epochs=50, patience=5))
        # epoch 0 sets the best; epochs 1-5 tie, never strictly better
        assert hist.stopped_early
        assert hist.epochs_run == 6

    def test_begin_epoch_gets_zero_based_indices(self):
        rec = RecordingStepper()
        net = Population.seeded([2, 4, 2], [0])
        train(net, rec, toy_data(),
              TrainConfig(batch_size=16, max_epochs=4, early_stop=False))
        assert rec.epochs == [0, 1, 2, 3]

    def test_nonfinite_update_aborts_with_failed(self):
        # sqrt of a negative gradient entry is NaN; the stepper flags it
        spec = spec_from_phenotype(
            "sqrt(negative(grad)) ; y ; z ; add(alpha, x)", name="nan_maker"
        )
        net = Population.seeded([2, 4, 2], [0])
        _, hist = train(net, make_stepper(spec), toy_data(),
                        TrainConfig(batch_size=16, max_epochs=5))
        assert hist.failed
        assert hist.epochs_run == 0
        assert isinstance(hist, TrainHistory)

    def test_training_is_deterministic(self):
        runs = []
        for _ in range(2):
            net = Population.seeded([2, 8, 2], [4])
            _, hist = train(net, sgd(0.3), toy_data(),
                            TrainConfig(batch_size=8, max_epochs=5, early_stop=False), 2)
            runs.append((net.flat.tobytes(), hist))
        assert runs[0] == runs[1]

    def test_shuffle_seed_changes_trajectory(self):
        weights = []
        for seed in (0, 1):
            net = Population.seeded([2, 8, 2], [4])
            train(net, sgd(0.3), toy_data(),
                  TrainConfig(batch_size=8, max_epochs=3, early_stop=False), seed)
            weights.append(net.flat.tobytes())
        assert weights[0] != weights[1]

    def test_sgd_solves_two_gaussians(self):
        net = Population.seeded([2, 16, 2], [0])
        train_set, val_set = toy_data(n=400, seed=2)
        _, hist = train(net, sgd(0.5), (train_set, val_set),
                        TrainConfig(batch_size=32, max_epochs=50, early_stop=False))
        assert evaluate(net, val_set)[0] >= 0.95
        untrained, _ = forward(Population.seeded([2, 16, 2], [0]), val_set.x)
        assert hist.val_loss < mean_loss(untrained, val_set.y)[0]

    def test_scheduled_sgd_consults_policy_each_epoch(self):
        policy = parse_policy("if(epoch < 3.0, 0.5, 0.001)")
        net = Population.seeded([2, 4, 2], [0])
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

    def test_failure_reads_every_batch_loss(self):
        """A batch whose weights overflow the logits fails the training at
        the end of its epoch, though every weight stays finite and the epoch
        ends at weights whose validation loss is finite."""
        train_set, val_set = toy_data()
        cfg = TrainConfig(batch_size=24, max_epochs=3, early_stop=False)
        net, hist = train(Population.seeded([2, 4, 2], [0]), Swell(1e200),
                          (train_set, val_set), cfg)
        assert hist.failed and hist.epochs_run == 0
        assert np.isfinite(net.flat).all()
        logits, _ = forward(net, val_set.x)
        assert np.isfinite(mean_loss(logits, val_set.y)[0])

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
        train(Population.seeded([2, 4, 2], [0]), free, toy_data(), cfg)
        assert calls == [] and grads_seen == [None] * 6
        train(Population.seeded([2, 4, 2], [0]), sgd(0.1), toy_data(), cfg)
        assert len(calls) == 6  # 90 rows in batches of 30, two epochs

    def test_empty_training_set_rejected(self):
        from optevo.data import Dataset

        net = Population.seeded([2, 2], [0])
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
            train(Population.seeded([2, 2], [0]), stepper, data,
                  TrainConfig(batch_size=5, max_epochs=1))
        assert calls == []

    def test_unused_output_classes_are_allowed(self):
        _, hist = train(Population.seeded([2, 3], [0]), sgd(0.1), toy_data(),
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
    rng = np.random.default_rng(seed)
    if kind == "scheduled":
        return ScheduledSGD(parse_policy(f"if(epoch < 2.0, {0.5 * lr_scale!r}, 0.01)"))
    if kind == "alr":
        genotype = random_derivation(ALR, rng=rng)[0]
        return make_stepper(spec_from_phenotype(map_genotype(ALR, genotype)))
    if kind in BUILTIN_NAMES:
        hp = HyperParams.defaults_for(kind)
        return make_stepper(kind, replace(
            hp, lr=hp.lr * lr_scale, mom=float(rng.uniform(0.5, 0.99)),
            beta1=float(rng.uniform(0.5, 0.99))))
    return make_stepper(spec_from_phenotype(kind))


def oracle_training(sizes, seed, make_stepper, data, cfg, shuffle_seed):
    """`oracles.train_per_tensor` from the initial weights of
    Population.seeded(sizes, [seed]) and the batch orders `train` draws from
    `shuffle_seed`: (final flat weights, [epochs_run, stopped_early,
    failed], val_loss)."""
    params = member_params(Population.seeded(sizes, [seed]), 0)
    shuffle = Rng(shuffle_seed).child("shuffle")
    _, val_loss, *outcome = train_per_tensor(
        params, make_stepper, data, cfg,
        lambda epoch: shuffle.child("epoch", epoch).draw(lambda g: g.permutation(len(data[0]))))
    flat = np.concatenate([p.ravel() for p in params])
    return flat, outcome, None if outcome[-1] else val_loss[-1]


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
    # Adam overflows at lr 1e300, and the two loops reach NaNs of opposite sign
    @example(2088520401, "adam", 1e300, [4, 7], False)
    def test_same_outcome(self, seed, kind, lr_scale, hidden, early_stop):
        d = synthetic("two_gaussians", 90, noise=0.1, seed=seed % 89)
        data = Dataset(d.x[:60], d.y[:60]), Dataset(d.x[60:], d.y[60:])
        sizes = [2, *hidden, 2 + seed % 2]
        cfg = TrainConfig(batch_size=16, max_epochs=4, early_stop=early_stop, patience=1)
        net, hist = train(Population.seeded(sizes, [seed]),
                          make_case_stepper(kind, seed, lr_scale), data, cfg, seed % 1000)
        flat, outcome, val_loss = oracle_training(
            sizes, seed, lambda: make_case_stepper(kind, seed, lr_scale), data, cfg,
            seed % 1000)
        assert_same_bits(net.flat[0], flat)
        assert [hist.epochs_run, hist.stopped_early, hist.failed] == outcome
        assert hist.val_loss == val_loss


def count_calls(monkeypatch, names=("forward", "backward", "mean_loss")) -> Counter:
    """Count the calls `train` makes to these nn functions by name."""
    import optevo.nn as nn

    calls = Counter()
    for name in names:
        monkeypatch.setattr(nn, name, lambda *a, _name=name, _real=getattr(nn, name):
                            calls.update([_name]) or _real(*a))
    return calls


class TestCertifiedTraining:
    """`train` skips the losses its finiteness certificate shows finite; the
    outcome is that of the oracle loop, which takes every loss."""

    @settings(max_examples=150)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["alr", "alr", "alr", *EDGE_PHENOTYPES]),
        st.sampled_from([1.0, 1e40, 1e70, 1e148]),
        st.sampled_from([7, 16, 64]),
        st.booleans(),
    )
    def test_matches_every_loss_oracle(self, seed, kind, x_scale, batch_size,
                                       early_stop):
        d = synthetic("two_gaussians", 90, noise=0.1, seed=seed % 89)
        x = d.x * x_scale  # larger inputs leave the certificate sooner
        # 61 rows: every batch size leaves a short last batch
        data = Dataset(x[:61], d.y[:61]), Dataset(x[61:], d.y[61:])
        sizes = [2, 16, 2]
        cfg = TrainConfig(batch_size=batch_size, max_epochs=4, early_stop=early_stop,
                          patience=1)
        net, hist = train(Population.seeded(sizes, [seed]),
                          make_case_stepper(kind, seed, 1.0), data, cfg, seed % 1000)
        flat, outcome, val_loss = oracle_training(
            sizes, seed, lambda: make_case_stepper(kind, seed, 1.0), data, cfg, seed % 1000)
        # the sign of a NaN may differ between flat and per-tensor stepping
        # (at the parent too); a failed run's weights are never read
        assert_same_bits(net.flat[0], flat)
        assert [hist.epochs_run, hist.stopped_early, hist.failed] == outcome
        assert hist.val_loss == val_loss

    def test_val_overflow_fails_on_a_non_final_epoch(self, monkeypatch):
        """One update per epoch multiplies every weight by 1e60. After epoch
        2 the weights (about 1e180) are finite and the epoch's batch loss,
        taken at about 1e120, is too, but the validation logits overflow."""
        calls = count_calls(monkeypatch)
        spec = spec_from_phenotype("grad ; y ; z ; multiply(alpha, 1e60)")
        train_set, val_set = toy_data()
        cfg = TrainConfig(batch_size=len(train_set), max_epochs=5, early_stop=False)
        net, hist = train(Population.seeded([2, 16, 2], [0]), make_stepper(spec),
                          (train_set, val_set), cfg)
        assert hist.failed and hist.epochs_run == 2
        assert np.isfinite(net.flat).all()
        # weights of about 1 and 1e60 are certified, 1e120 is not: epoch 1
        # validates, and epoch 2 takes its batch loss and validates
        assert calls == {"forward": 3, "mean_loss": 2}

    def test_crossing_mid_epoch_takes_open_batch_losses(self, monkeypatch):
        """Weights scaled by 1e100 on every other update leave the
        certificate mid-epoch: each epoch takes the losses of its two
        batches whose updates see swollen weights, at those weights, and
        ends certified again."""
        calls = count_calls(monkeypatch)
        train_set, val_set = toy_data()
        cfg = TrainConfig(batch_size=24, max_epochs=3, early_stop=False)
        net, hist = train(Population.seeded([2, 4, 2], [0]), Swell(1e100),
                          (train_set, val_set), cfg)
        assert not hist.failed and hist.epochs_run == 3
        assert calls == {"forward": 3 * 2 + 1, "mean_loss": 1}
        params = member_params(Population.seeded([2, 4, 2], [0]), 0)
        shuffle = Rng(0).child("shuffle")
        _, val_loss, *outcome = train_per_tensor(
            params, lambda: Swell(1e100), (train_set, val_set), cfg,
            lambda epoch: shuffle.child("epoch", epoch).draw(lambda g: g.permutation(len(train_set))))
        assert net.flat.tobytes() == b"".join(p.tobytes() for p in params)
        assert outcome == [3, False, False] and hist.val_loss == val_loss[-1]

    def test_gradient_free_training_keeps_no_weights_per_batch(self):
        """A gradient-free 784-100-10 net over 40 batches of 50 rows, two
        epochs: the weights (0.6 MiB) are all that training holds, not a
        copy of them per batch (25 MiB an epoch)."""
        rng = np.random.default_rng(0)
        train_set = Dataset(rng.random((2000, 784)), rng.integers(0, 10, 2000))
        val_set = Dataset(rng.random((100, 784)), rng.integers(0, 10, 100))
        net = Population.seeded([784, 100, 10], [0])
        shrink = make_stepper(spec_from_phenotype("grad ; y ; z ; multiply(alpha, 0.9)"))
        cfg = TrainConfig(batch_size=50, max_epochs=2, early_stop=False)
        tracemalloc.start()
        try:
            _, hist = train(net, shrink, (train_set, val_set), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not hist.failed and hist.epochs_run == 2
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_gets_no_certificate(self, bad):
        """A gradient-free rule that shrinks the weights would be certified
        on clean rows; one bad training row fails the first epoch."""
        train_set, val_set = toy_data()
        x = train_set.x.copy()
        x[5, 1] = bad
        poisoned = Dataset(x, train_set.y)
        assert poisoned.x_bound == np.inf
        shrink = make_stepper(spec_from_phenotype("grad ; y ; z ; multiply(alpha, 0.9)"))
        _, hist = train(Population.seeded([2, 16, 2], [0]), shrink, (poisoned, val_set),
                        TrainConfig(batch_size=16, max_epochs=3, early_stop=False))
        assert hist.failed and hist.epochs_run == 0

    def test_empty_validation_set_gets_no_certificate(self):
        """No validation rows give a 0/0 loss: the first epoch fails, as
        it does when every loss is taken."""
        train_set, _ = toy_data()
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        shrink = make_stepper(spec_from_phenotype("grad ; y ; z ; multiply(alpha, 0.9)"))
        _, hist = train(Population.seeded([2, 4, 2], [0]), shrink, (train_set, empty),
                        TrainConfig(batch_size=30, max_epochs=3, early_stop=False))
        assert hist.failed and hist.epochs_run == 0

    def test_certified_training_takes_one_validation_loss(self, monkeypatch):
        calls = count_calls(monkeypatch)
        cfg = TrainConfig(batch_size=30, max_epochs=4, early_stop=False)
        _, hist = train(Population.seeded([2, 4, 2], [0]), sgd(0.1), toy_data(), cfg)
        assert not hist.failed
        # 90 rows in batches of 30 over four epochs, then the final validation
        assert calls == {"forward": 12 + 1, "backward": 12, "mean_loss": 1}
        calls.clear()
        free = make_stepper(spec_from_phenotype("grad ; y ; z ; multiply(alpha, 0.9)"))
        _, hist = train(Population.seeded([2, 4, 2], [0]), free, toy_data(), cfg)
        assert not hist.failed
        assert calls == {"forward": 1, "mean_loss": 1}

    def test_early_stopping_takes_every_validation_loss(self, monkeypatch):
        calls = count_calls(monkeypatch, ("mean_loss",))
        cfg = TrainConfig(batch_size=30, max_epochs=4, patience=10)
        _, hist = train(Population.seeded([2, 4, 2], [0]), sgd(0.1), toy_data(), cfg)
        assert hist.epochs_run == 4 and calls == {"mean_loss": 4}

    @given(st.lists(st.integers(1, 40), min_size=2, max_size=4),
           st.sampled_from([1e-3, 1.0, 7.0, 1e20]), st.sampled_from([0.5, 1.0, 3e10]),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_logit_bound_covers_the_logits(self, sizes, w_bound, x_bound, seed,
                                           aligned):
        """Every parameter at +-w_bound and every input at +-x_bound; with
        all signs positive the logits reach the bound itself."""
        rng = np.random.default_rng(seed)
        net = Population.seeded(sizes, [0])
        signs = np.ones(net.flat.size) if aligned else rng.choice([-1.0, 1.0], net.flat.size)
        net.flat[...] = w_bound * signs
        x = x_bound * (np.ones((5, sizes[0])) if aligned
                       else rng.choice([-1.0, 1.0], (5, sizes[0])))
        logits, _ = forward(net, x)
        bound = _logit_bound(sizes, x_bound, w_bound)
        assert np.abs(logits).max() <= bound * (1 + 1e-12)  # rounding aside
        if aligned:
            np.testing.assert_allclose(logits, bound, rtol=1e-12)

    def test_abs_max_gives_bound_and_failure(self):
        """The weight check `train` runs after each update: max |w| per row,
        infinite or NaN where the row fails."""
        stepper = sgd(1.0)
        w = np.array([0.5, -3.0, 2.0])
        stepper.update(w, np.array([0.0, 1.0, 0.0]))
        assert _abs_max(w) == 4.0
        stepped = np.array([w, w, w])
        stepped[1, 0], stepped[2, 2] = -np.inf, np.nan
        bound = _abs_max(stepped)
        assert bound[0] == 4.0 and bound[1] == np.inf and np.isnan(bound[2])


class TestSkippedWork:
    """The work `train` leaves out, pinned by call counts. `_nll` counts the
    batch losses and the one inside each `mean_loss`."""

    COUNTED = ("forward", "backward", "mean_loss", "_nll")

    def test_certified_training_takes_no_batch_loss(self, monkeypatch):
        calls = count_calls(monkeypatch, self.COUNTED)
        cfg = TrainConfig(batch_size=30, max_epochs=4, early_stop=False)
        _, hist = train(Population.seeded([2, 4, 2], [0]), sgd(0.1), toy_data(), cfg)
        assert not hist.failed and hist.epochs_run == 4
        # 90 rows in batches of 30 over four epochs, then the final validation
        assert calls == {"forward": 12 + 1, "backward": 12, "mean_loss": 1, "_nll": 1}
        calls.clear()
        free = make_stepper(spec_from_phenotype("grad ; y ; z ; multiply(alpha, 0.9)"))
        _, hist = train(Population.seeded([2, 4, 2], [0]), free, toy_data(), cfg)
        assert not hist.failed
        assert calls == {"forward": 1, "mean_loss": 1, "_nll": 1}

    def test_gradient_training_takes_every_open_batch_loss(self, monkeypatch):
        """Weights scaled by 1e100 on every other update, with a backward
        pass: of each epoch's four batches, the two whose updates see
        swollen weights take their losses, and each epoch ends certified."""
        calls = count_calls(monkeypatch, self.COUNTED)
        train_set, val_set = toy_data()
        cfg = TrainConfig(batch_size=24, max_epochs=3, early_stop=False)
        net, hist = train(Population.seeded([2, 4, 2], [0]), GradientSwell(1e100),
                          (train_set, val_set), cfg)
        assert not hist.failed and hist.epochs_run == 3
        assert calls == {"forward": 3 * 4 + 1, "backward": 3 * 4, "mean_loss": 1,
                         "_nll": 3 * 2 + 1}
        params = member_params(Population.seeded([2, 4, 2], [0]), 0)
        shuffle = Rng(0).child("shuffle")
        _, val_loss, *outcome = train_per_tensor(
            params, lambda: GradientSwell(1e100), (train_set, val_set), cfg,
            lambda epoch: shuffle.child("epoch", epoch).draw(lambda g: g.permutation(len(train_set))))
        assert net.flat.tobytes() == b"".join(p.tobytes() for p in params)
        assert outcome == [3, False, False] and hist.val_loss == val_loss[-1]

    def test_early_stopping_validates_every_epoch(self, monkeypatch):
        calls = count_calls(monkeypatch, self.COUNTED)
        cfg = TrainConfig(batch_size=30, max_epochs=4, patience=10)
        _, hist = train(Population.seeded([2, 4, 2], [0]), sgd(0.1), toy_data(), cfg)
        assert hist.epochs_run == 4 and not hist.stopped_early
        # every epoch validates; the weights stay certified, so no batch loss
        assert calls == {"forward": 12 + 4, "backward": 12, "mean_loss": 4, "_nll": 4}


# members that need the gradient train in one stacked loop, the others
# (three of the edge phenotypes, some "alr" draws) in another
POPULATION_KINDS = ["alr", "alr", "sgd", "adam", "nesterov", "scheduled", *EDGE_PHENOTYPES]


def member_case(seed, k, kind, lr_scale, batch_size, early_stop, patience=1,
                max_epochs=4):
    """One-member Population, stepper, config and shuffle seed of population
    member k."""
    cfg = TrainConfig(batch_size=batch_size, max_epochs=max_epochs, early_stop=early_stop,
                      patience=patience)
    return (Population.seeded([2, 16, 2], [seed + k]),
            make_case_stepper(kind, seed + k, lr_scale), cfg, (seed + k) % 1000)


def train_members(cases, data):
    """Train `member_case` cases as one Population over a fresh buffer."""
    nets, steppers, cfgs, shuffles = zip(*cases)
    return train(stack_networks(nets), list(steppers), data, cfgs[0], list(shuffles))


class TestPopulationTraining:
    """K networks trained as one population end where each, trained alone,
    ends: the same weights, bit for bit, and the same history. A lone
    network trains in the same loop, as a population of one, so each member
    is also checked against the oracle loop of tests/oracles.py."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 7]).flatmap(
            lambda k: st.lists(st.sampled_from(POPULATION_KINDS), min_size=k, max_size=k)),
        st.sampled_from([1.0, 1e40, 1e70, 1e148]),
        st.sampled_from([1.0, 1e300]),
        st.sampled_from([7, 16, 64]),
        st.booleans(),
        st.sampled_from([1, 2, 3]),
        st.integers(1, 8),
        st.sampled_from([3 * 16 * 16, 2**16]),
    )
    def test_matches_members_trained_alone(self, seed, kinds, x_scale, lr_scale,
                                           batch_size, early_stop, patience, max_epochs,
                                           elements):
        """Member k of a Population is row k of the caller's (K, P) buffer,
        trained in place, whether the members train in small stacks or in
        one stack per kind."""
        import optevo.nn as nn

        d = synthetic("two_gaussians", 90, noise=0.1, seed=seed % 89)
        x = d.x * x_scale  # larger inputs leave the certificate sooner
        # 61 rows: every batch size leaves a short last batch
        data = Dataset(x[:61], d.y[:61]), Dataset(x[61:], d.y[61:])
        case = dict(lr_scale=lr_scale, batch_size=batch_size, early_stop=early_stop,
                    patience=patience, max_epochs=max_epochs)
        nets, steppers, cfgs, shuffles = zip(*(member_case(seed, k, kind, **case)
                                               for k, kind in enumerate(kinds)))
        pop = stack_networks(nets)
        buffer = pop.flat
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(nn, "POPULATION_ELEMENTS", elements)
            got, hist = train(pop, list(steppers), data, cfgs[0], list(shuffles))
        assert got is pop and pop.flat is buffer
        for k, kind in enumerate(kinds):
            net, stepper, cfg, shuffle = member_case(seed, k, kind, **case)
            _, alone = train(net, stepper, data, cfg, shuffle)
            assert_same_bits(buffer[k], net.flat[0])
            assert (hist.epochs_run[k], hist.stopped_early[k], hist.failed[k],
                    hist.val_loss[k]) == (alone.epochs_run, alone.stopped_early,
                                          alone.failed, alone.val_loss)
            flat, outcome, val_loss = oracle_training(
                [2, 16, 2], seed + k,
                lambda: make_case_stepper(kind, seed + k, lr_scale), data, cfg, shuffle)
            assert_same_bits(buffer[k], flat)
            assert [hist.epochs_run[k], hist.stopped_early[k], hist.failed[k]] == outcome
            assert hist.val_loss[k] == val_loss

    @pytest.mark.parametrize("lr_scale, failed", [(1.0, False), (1e300, True)])
    def test_lone_network_history_holds_scalars(self, lr_scale, failed):
        """A Population of one given one stepper and one shuffle seed has
        scalars in its history: a 1-tuple (False,) would read as failed."""
        net, stepper, cfg, shuffle = member_case(0, 0, "sgd", lr_scale, 30, True)
        histories = [train(net, stepper, toy_data(), cfg, shuffle)[1],
                     train_seeded([2, 16, 2], make_case_stepper("sgd", 0, lr_scale),
                                  toy_data(), cfg, Rng(0))[1]]
        for hist in histories:
            assert type(hist.failed) is bool and hist.failed is failed
            assert type(hist.stopped_early) is bool
            assert type(hist.epochs_run) is int
            assert type(hist.val_loss) is (type(None) if failed else float)

    def test_swollen_losses_match_alone(self):
        """Swell leaves the certificate on every other update, so each epoch
        takes those batches' losses at the weights their updates see."""
        nets = [Population.seeded([2, 4, 2], [k]) for k in range(3)]
        cfg = TrainConfig(batch_size=24, max_epochs=3, early_stop=False)
        factors = [1e100, 1e200, 1.5]
        pop, hist = train(stack_networks(nets), [Swell(f) for f in factors], toy_data(), cfg,
                          [0, 1, 2])
        for k, factor in enumerate(factors):
            net = Population.seeded([2, 4, 2], [k])
            _, alone = train(net, Swell(factor), toy_data(), cfg, k)
            assert pop.flat[k].tobytes() == net.flat.tobytes()
            assert (hist.epochs_run[k], hist.failed[k], hist.val_loss[k]) == (
                alone.epochs_run, alone.failed, alone.val_loss)
        assert hist.failed == (False, True, False)

    def test_member_failing_after_leaving_certificate_matches_alone(self):
        """Weights grown by 1e100 per update leave the certificate after the
        first of four batches, take two losses, and overflow on the fourth
        update: that member leaves mid-epoch, between a member whose weights
        swell and shrink and one that stays certified."""
        grow, shrink = ("grad ; y ; z ; multiply(alpha, %s)" % f for f in ("1e100", "0.9"))
        makers = [lambda: Swell(1e100), lambda: make_stepper(spec_from_phenotype(grow)),
                  lambda: make_stepper(spec_from_phenotype(shrink))]
        cfg = TrainConfig(batch_size=24, max_epochs=3, early_stop=False)
        pop, hist = train(Population.seeded([2, 4, 2], range(3)),
                          [make() for make in makers], toy_data(), cfg, [0, 1, 2])
        assert hist.failed == (False, True, False) and hist.epochs_run == (3, 0, 3)
        for k, make in enumerate(makers):
            net = Population.seeded([2, 4, 2], [k])
            _, alone = train(net, make(), toy_data(), cfg, k)
            assert pop.flat[k].tobytes() == net.flat.tobytes()
            assert (hist.epochs_run[k], hist.failed[k], hist.val_loss[k]) == (
                alone.epochs_run, alone.failed, alone.val_loss)

    def test_stacked_pass_per_batch(self, monkeypatch):
        """Three members run one forward and one backward per batch, one
        update each, and validate together on the final epoch."""
        calls = count_calls(monkeypatch)
        cases = [member_case(0, k, "sgd", 1.0, 30, False, max_epochs=2) for k in range(3)]
        _, hist = train_members(cases, toy_data())
        assert hist.failed == (False,) * 3 and hist.epochs_run == (2,) * 3
        # 90 rows in batches of 30 over two epochs, then the final validation
        assert calls == {"forward": 6 + 1, "backward": 6, "mean_loss": 1}

    def test_mixed_population_trains_as_alone(self):
        free = "grad ; y ; z ; multiply(alpha, 0.9)"
        cases = [member_case(3, k, kind, 1.0, 16, True)
                 for k, kind in enumerate([free, "sgd"])]
        pop, hist = train_members(cases, toy_data())
        for k, kind in enumerate([free, "sgd"]):
            net, stepper, cfg, shuffle = member_case(3, k, kind, 1.0, 16, True)
            _, alone = train(net, stepper, toy_data(), cfg, shuffle)
            assert pop.flat[k].tobytes() == net.flat.tobytes()
            assert hist.val_loss[k] == alone.val_loss

    @pytest.mark.parametrize("kind", ["sgd", "grad ; y ; z ; multiply(alpha, 0.9)"])
    def test_empty_validation_set_fails_every_member(self, kind):
        """No validation rows give a 0/0 loss, as alone: the first epoch fails."""
        train_set, _ = toy_data()
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        cases = [member_case(0, k, kind, 1.0, 30, False) for k in range(3)]
        _, hist = train_members(cases, (train_set, empty))
        assert hist.failed == (True,) * 3 and hist.epochs_run == (0,) * 3

    def test_population_past_the_budget_trains_in_stacks(self, monkeypatch):
        """Past the element budget, train cuts each needs_grad kind into
        consecutive stacks of at most population_size members, and every
        member still ends where it ends alone."""
        import optevo.nn as nn

        monkeypatch.setattr(nn, "POPULATION_ELEMENTS", 3 * 16 * 16)  # 3 at batch 16
        free = ["grad ; y ; z ; multiply(alpha, 0.9)",
                "divide_no_nan(0.01, 3.0) ; y ; z ; subtract(alpha, x)"]
        kinds = ["sgd", free[0], "adam", "scheduled", free[1], "momentum",
                 "nesterov", free[0], "sgd", "rmsprop"]
        stacks = []  # per stacked pass: (member rows, their kinds, the pass's kind)
        real = nn._train_stacked

        def spy(pop, index, steppers, *args):
            stacks.append((index.tolist(), {s.needs_grad for s in steppers}, args[-2]))
            return real(pop, index, steppers, *args)

        monkeypatch.setattr(nn, "_train_stacked", spy)
        cases = [member_case(0, k, kind, 1.0, 16, True) for k, kind in enumerate(kinds)]
        pop, hist = train_members(cases, toy_data())
        assert population_size(16, [2, 16, 2]) == 3
        assert [rows for rows, _, _ in stacks] == [[0, 2, 3], [5, 6, 8], [9], [1, 4, 7]]
        assert all(kinds == {kind} for _, kinds, kind in stacks)
        monkeypatch.setattr(nn, "_train_stacked", real)
        for k, kind in enumerate(kinds):
            net, stepper, cfg, shuffle = member_case(0, k, kind, 1.0, 16, True)
            _, alone = train(net, stepper, toy_data(), cfg, shuffle)
            assert_same_bits(pop.flat[k], net.flat[0])
            assert (hist.epochs_run[k], hist.stopped_early[k], hist.failed[k],
                    hist.val_loss[k]) == (alone.epochs_run, alone.stopped_early,
                                          alone.failed, alone.val_loss)

    @pytest.mark.parametrize("budget", [None, 2 * 30 * 16])
    def test_seeded_members_match_lone_trainings(self, monkeypatch, budget):
        """`train_seeded` derives a population's seeds in bulk. Member k gets
        the initial weights and shuffle seed that its stream gives alone, and
        ends where the oracle loop ends from them. At a budget of 2 members
        per stack the 5 members train in 3 stacks."""
        import optevo.nn as nn

        if budget is not None:
            monkeypatch.setattr(nn, "POPULATION_ELEMENTS", budget)
        kinds = ["sgd", "adam", "grad ; y ; z ; multiply(alpha, 0.9)", "momentum", "alr"]
        rngs = [Rng(2**33 + 5).child("member", k) for k in range(len(kinds))]
        cfg = TrainConfig(batch_size=30, max_epochs=3, early_stop=True, patience=1)
        seen, stacks = {}, []
        real_train, real_stacked = nn.train, nn._train_stacked

        def spy_train(net, stepper, data, cfg, shuffle_seeds):
            seen.update(flat=net.flat.copy(), cfg=cfg, shuffles=shuffle_seeds)
            return real_train(net, stepper, data, cfg, shuffle_seeds)

        def spy_stacked(pop, index, *args):
            stacks.append(len(index))
            return real_stacked(pop, index, *args)

        monkeypatch.setattr(nn, "train", spy_train)
        monkeypatch.setattr(nn, "_train_stacked", spy_stacked)
        pop, hist = train_seeded([2, 16, 2], [make_case_stepper(kind, k, 1.0)
                                              for k, kind in enumerate(kinds)],
                                 toy_data(), cfg, Streams.of(rngs))
        members = dict(seen)
        assert stacks == ([4, 1] if budget is None else [2, 2, 1])
        assert members["cfg"] == cfg
        for k, (kind, rng) in enumerate(zip(kinds, rngs)):
            net_seed = rng.child("net").draw(lambda g: int(g.integers(2**31 - 1)))
            shuffle_seed = rng.child("shuffle").draw(lambda g: int(g.integers(2**31 - 1)))
            initial = Population.seeded([2, 16, 2], [net_seed]).flat
            assert members["flat"][k].tobytes() == initial.tobytes()
            assert members["shuffles"][k] == shuffle_seed
            flat, outcome, val_loss = oracle_training(
                [2, 16, 2], net_seed, lambda: make_case_stepper(kind, k, 1.0), toy_data(),
                cfg, shuffle_seed)
            assert_same_bits(pop.flat[k], flat)
            assert [hist.epochs_run[k], hist.stopped_early[k], hist.failed[k]] == outcome
            assert hist.val_loss[k] == val_loss
            net, alone = train_seeded([2, 16, 2], make_case_stepper(kind, k, 1.0),
                                      toy_data(), cfg, rng)
            assert seen["flat"].tobytes() == initial.tobytes()
            assert seen["shuffles"] == shuffle_seed
            assert_same_bits(net.flat[0], flat)
            assert (alone.epochs_run, alone.stopped_early, alone.failed, alone.val_loss) == (
                hist.epochs_run[k], hist.stopped_early[k], hist.failed[k], hist.val_loss[k])

    def test_members_evaluate_as_alone(self):
        """Each member's accuracy is what it scores alone, in groups of any
        size, and what the oracle forward pass of tests/oracles.py gives."""
        nets = [Population.seeded([2, 16, 2], [k]) for k in range(23)]
        val = synthetic("two_gaussians", 3000, noise=0.5, seed=1)
        # 3000 rows x 16 wide: groups of population_size = 1 member
        assert population_size(len(val), [2, 16, 2]) == 1
        assert evaluate(stack_networks(nets), val) == [evaluate(n, val)[0] for n in nets]
        small = Dataset(val.x[:300], val.y[:300])
        assert population_size(len(small), [2, 16, 2]) == 13
        assert evaluate(stack_networks(nets), small) == [evaluate(n, small)[0] for n in nets]
        for members in (1, 3):
            pop = Population.seeded([2, 16, 2], range(members))
            pop.flat[:, :16] *= 4.0  # some rows cross the ReLU's zero
            oracle = [float((oracles._forward(member_params(pop, k), small.x)[0][-1]
                             .argmax(axis=1) == small.y).mean()) for k in range(members)]
            assert evaluate(pop, small) == oracle

    def test_population_size(self):
        assert population_size(200, [2, 16, 2]) == 20  # toy batches
        assert population_size(400, [2, 16, 2]) == 10  # toy validation and test
        assert population_size(1000, [784, 100, 10]) == 1

    def test_buffer_of_another_width_refused(self):
        """A Population's buffer is (K, P) with K >= 1 and P its layout's
        size, and `train` takes one stepper and one shuffle seed per row."""
        width = Population.seeded([2, 4, 2], [0]).flat.size
        for shape in [(2, width + 1), (2, Population.seeded([2, 5, 2], [0]).flat.size), (width,), (0, width)]:
            with pytest.raises(NetworkError, match="buffer"):
                Population([2, 4, 2], np.zeros(shape))
        for seeds in ([0], 0):  # the default seed is a Population of one's
            with pytest.raises(NetworkError, match="one shuffle seed per member"):
                train(Population([2, 4, 2], np.zeros((2, width))), [sgd(0.1), sgd(0.1)],
                      toy_data(), TrainConfig(batch_size=5), seeds)


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
            got = _nll(log_probs[None], labels)  # one member's
            want = oracles._nll(log_probs, labels)
        assert got.shape == (1,)
        assert_same_bits(got[0], want)

    @given(logits_and_labels())
    def test_mean_loss(self, case):
        logits, labels = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # mean_loss opens its own errstate
            got, = mean_loss(logits[None], labels)
        with np.errstate(all="ignore"):
            want = oracles._nll(oracles._log_softmax(logits), labels)
        assert_same_bits(got, want)

    @given(logits_and_labels())
    def test_stacked_members_match_alone(self, case):
        """Stacked logits, one (B, classes) block per member, give each
        member's log-softmax and loss bit for bit, as a stack of one does."""
        logits, labels = case
        stacked = np.stack([logits, logits[::-1], 3.0 * logits])
        member_labels = np.stack([labels, labels[::-1], labels])
        with np.errstate(all="ignore"):
            log_probs = _log_softmax(stacked)
            losses = _nll(log_probs, member_labels)
            shared = _nll(log_probs, labels)
            for k in range(3):
                alone = _log_softmax(stacked[k])
                assert_same_bits(log_probs[k], alone)
                assert_same_bits(losses[k], _nll(alone[None], member_labels[k])[0])
                assert_same_bits(shared[k], _nll(alone[None], labels)[0])

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
        net = Population.seeded([2, 16, 2], [0])
        net.flat *= 1e200
        data = toy_data()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, hist = train(net, make_stepper(opt), data,
                            TrainConfig(batch_size=16, max_epochs=3))
            acc, = evaluate(net, data[1])
        assert hist.failed
        assert type(acc) is float
