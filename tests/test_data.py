"""Dataset containers, binary readers, deterministic splits, synthetic tasks."""

import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import optevo.data as data_mod
from optevo.cli import build_task, read_task
from optevo.data import (
    DataError,
    Dataset,
    SplitPlan,
    load_cifar10,
    load_idx,
    split,
    synthetic,
)
from optevo.tensor import Rng
from oracles import (
    eager_checksum,
    load_cifar10_eager,
    load_idx_eager,
    split_by_take,
)


def small_dataset(n=12, features=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((n, features)), rng.integers(0, 3, n), name="small")


class TestDataset:
    def test_basic_fields(self):
        d = small_dataset()
        assert len(d) == 12
        assert d.n_classes <= 3
        assert d.x.dtype == np.float64
        assert d.y.dtype == np.int64
        np.testing.assert_array_equal(d.source_indices, np.arange(12))

    def test_checksum_is_stable_and_content_sensitive(self):
        a, b = small_dataset(seed=1), small_dataset(seed=1)
        assert a.checksum == b.checksum
        c = small_dataset(seed=2)
        assert a.checksum != c.checksum
        # label-only change must also move the digest
        d = Dataset(a.x, (a.y + 1) % 3)
        assert d.checksum != a.checksum

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="labels"):
            Dataset(np.zeros((4, 2)), np.zeros(3, dtype=int))

    def test_negative_labels_rejected(self):
        with pytest.raises(DataError, match="non-negative"):
            Dataset(np.zeros((2, 2)), np.array([0, -1]))

    def test_x_must_be_matrix(self):
        with pytest.raises(DataError, match="features"):
            Dataset(np.zeros(5), np.zeros(5, dtype=int))


def write_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", 0x801, len(labels)) + labels.tobytes())
    return img_path, lbl_path


class TestLoadIdx:
    def test_round_trip(self, tmp_path):
        images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
        img, lbl = write_idx_pair(tmp_path, images, [7, 1])
        d = load_idx(img, lbl, name="toy")
        assert d.x.shape == (2, 12)
        assert d.x.max() <= 1.0
        np.testing.assert_allclose(d.x[1, 0], 12 / 255)
        np.testing.assert_array_equal(d.y, [7, 1])
        assert d.name == "toy"

    def test_bad_image_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        img.write_bytes(b"\x00\x00\x08\x04" + img.read_bytes()[4:])
        with pytest.raises(DataError, match="image magic"):
            load_idx(img, lbl)

    def test_bad_label_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        lbl.write_bytes(b"\x00\x00\x08\x03" + lbl.read_bytes()[4:])
        with pytest.raises(DataError, match="label magic"):
            load_idx(img, lbl)

    def test_truncated_pixels(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        img.write_bytes(img.read_bytes()[:-3])
        with pytest.raises(DataError, match="truncated"):
            load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        lbl.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
        with pytest.raises(DataError, match="images but"):
            load_idx(img, lbl)

    @pytest.mark.parametrize("count, rows, cols, seed", [
        (1, 1, 1, 0), (3, 2, 5, 1), (300, 28, 28, 2)])
    def test_same_bytes_as_eager_scaling(self, tmp_path, count, rows, cols, seed):
        pixels = np.random.default_rng(seed).integers(0, 256, count * rows * cols)
        pixels[: min(256, pixels.size)] = np.arange(min(256, pixels.size))
        labels = np.arange(count) % 10
        img, lbl = write_idx_pair(tmp_path, pixels.reshape(count, rows, cols), labels)
        d = load_idx(img, lbl)
        x, y = load_idx_eager(img, lbl)
        assert d.x.tobytes() == x.tobytes()
        assert d.y.tobytes() == y.tobytes()
        assert d.checksum == eager_checksum(x, y)


class TestLoadCifar10:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        records = []
        labels = [3, 9, 0]
        for lab in labels:
            records.append(bytes([lab]) + rng.integers(0, 256, 3072).astype(np.uint8).tobytes())
        p1 = tmp_path / "batch1.bin"
        p1.write_bytes(b"".join(records[:2]))
        p2 = tmp_path / "batch2.bin"
        p2.write_bytes(records[2])
        d = load_cifar10([p1, p2])
        assert d.x.shape == (3, 3072)
        np.testing.assert_array_equal(d.y, labels)
        assert 0.0 <= d.x.min() and d.x.max() <= 1.0

    def test_same_bytes_as_concatenated_batches(self, tmp_path):
        rng = np.random.default_rng(1)
        paths = []
        for i, records in enumerate((5, 1, 12)):
            p = tmp_path / f"batch{i}.bin"
            p.write_bytes(rng.integers(0, 256, (records, 3073)).astype(np.uint8).tobytes())
            paths.append(p)
        d = load_cifar10(paths)
        x, y = load_cifar10_eager(paths)
        assert d.x.tobytes() == x.tobytes()
        assert d.y.tobytes() == y.tobytes()
        assert d.checksum == eager_checksum(x, y)

    def test_ragged_file_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 3000)
        with pytest.raises(DataError, match="whole number of records"):
            load_cifar10([p])

    def test_no_files_rejected(self):
        with pytest.raises(DataError, match="no batch files"):
            load_cifar10([])


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def paper_plan(config):
    return SplitPlan(**json.loads((CONFIGS / config).read_text())["task"]["split"])


class TestSplitPlan:
    def test_published_plans(self):
        """The paper configs' split blocks hold the published partition sizes."""
        alr = paper_plan("evolve-alr-paper.json")
        dlr = paper_plan("evolve-dlr-paper.json")
        assert (alr.train_total, alr.per_trial, alr.trial_count) == (
            53_000,
            10_600,
            5,
        )
        assert (alr.validation, alr.test) == (3_500, 3_500)
        assert alr.per_trial * alr.trial_count == alr.train_total
        assert (dlr.train_total, dlr.trial_count) == (7_000, 1)
        assert (dlr.validation, dlr.test) == (1_500, 1_500)

    def test_trials_cannot_exceed_pool(self):
        with pytest.raises(DataError, match="exceeds"):
            SplitPlan(train_total=10, per_trial=4, trial_count=3, validation=1, test=1)

    def test_negative_sizes_rejected(self):
        with pytest.raises(DataError, match=">= 0"):
            SplitPlan(train_total=-1, per_trial=0, trial_count=0, validation=1, test=1)


def master(n=200, seed=3):
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((n, 4)), rng.integers(0, 2, n), name="master")


class TestSplit:
    plan = SplitPlan(train_total=100, per_trial=20, trial_count=5,
                     validation=30, test=40, seed=11)

    def test_sizes(self):
        s = split(master(), self.plan)
        assert [len(g) for g in s.trial_groups] == [20] * 5
        assert len(s.validation) == 30
        assert len(s.test) == 40
        assert len(s.train_pool) == 100
        assert len(s.reserve) == 200 - 170

    def test_all_parts_pairwise_disjoint(self):
        s = split(master(), self.plan)
        parts = [g.source_indices for g in s.trial_groups]
        parts += [s.validation.source_indices, s.test.source_indices,
                  s.reserve.source_indices]
        seen = np.concatenate(parts)
        assert len(np.unique(seen)) == len(seen)

    def test_groups_lie_in_train_pool(self):
        s = split(master(), self.plan)
        pool = set(s.train_pool.source_indices.tolist())
        for g in s.trial_groups:
            assert set(g.source_indices.tolist()) <= pool

    def test_evolution_indices_and_reserve_cover_everything(self):
        s = split(master(), self.plan)
        evo = s.evolution_indices()
        assert len(np.intersect1d(evo, s.reserve.source_indices)) == 0
        assert len(evo) + len(s.reserve) == 200

    def test_deterministic_in_seed(self):
        a = split(master(), self.plan)
        b = split(master(), self.plan)
        np.testing.assert_array_equal(a.test.source_indices, b.test.source_indices)
        other = split(master(), SplitPlan(100, 20, 5, 30, 40, seed=12))
        assert not np.array_equal(a.test.source_indices, other.test.source_indices)

    def test_rows_are_faithful_copies(self):
        d = master()
        s = split(d, self.plan)
        idx = s.validation.source_indices
        np.testing.assert_array_equal(s.validation.x, d.x[idx])
        np.testing.assert_array_equal(s.validation.y, d.y[idx])

    def test_plan_too_large(self):
        with pytest.raises(DataError, match="needs"):
            split(master(20), self.plan)


def split_case(trial_count, per_trial, spare, validation, test, reserve, seed):
    plan = SplitPlan(per_trial * trial_count + spare, per_trial, trial_count,
                     validation, test, seed=seed)
    n = plan.total + reserve
    rng = np.random.default_rng(seed)
    d = Dataset(rng.random((n, 3)), rng.integers(0, 4, n), name="m",
                source_indices=rng.permutation(n) + 7)
    return d, plan


# an empty reserve, and trial groups that leave part of the pool unused
SPLIT_CASES = dict(
    trial_count=st.integers(0, 4), per_trial=st.integers(0, 6),
    spare=st.integers(0, 6), validation=st.integers(0, 6),
    test=st.integers(0, 6), reserve=st.just(0) | st.integers(1, 6),
    seed=st.integers(0, 2**16),
)


class TestEvolutionIndices:
    @given(**SPLIT_CASES)
    def test_equal_the_unique_form(self, **case):
        s = split(*split_case(**case))
        parts = [g.source_indices for g in s.trial_groups]
        parts += [s.train_pool.source_indices, s.validation.source_indices,
                  s.test.source_indices]
        want = np.unique(np.concatenate(parts))
        got = s.evolution_indices()
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    def test_evolve_run_loads_no_numpy_ma(self, tmp_path):
        """`np.unique` imports numpy.ma; an evolve run, which writes
        evolution_indices to indices.json, needs it nowhere."""
        code = (
            "import sys, numpy\n"
            "eager = 'numpy.ma' in sys.modules\n"
            "from optevo.cli import main\n"
            f"rc = main(['evolve', {str(CONFIGS / 'evolve-alr.json')!r}, "
            "'--generations', '0', '--population', '6', '--workers', '1', "
            f"'--run-dir', {str(tmp_path / 'run')!r}])\n"
            "print(rc, eager, 'numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(data_mod.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        rc, eager, loaded = out.split()[-3:]
        if eager == "True":
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        assert (rc, loaded) == ("0", "False")
        assert (tmp_path / "run" / "indices.json").is_file()


class TestSplitMatchesPerPartCopies:
    """`split` against the per-part gather it replaced."""

    @given(**SPLIT_CASES)
    @example(trial_count=3, per_trial=4, spare=0, validation=2, test=3,
             reserve=0, seed=1)
    @example(trial_count=2, per_trial=3, spare=5, validation=1, test=0,
             reserve=4, seed=2)
    def test_parts_and_checksums(self, **case):
        d, plan = split_case(**case)
        perm = Rng(plan.seed).child("split", d.name).draw(lambda g: g.permutation(len(d)))
        expected = split_by_take(d.x, d.y, d.source_indices, perm, plan)
        s = split(d, plan)
        parts = {"train": s.train_pool, "val": s.validation, "test": s.test,
                 "reserve": s.reserve}
        parts.update({f"trial{i}": g for i, g in enumerate(s.trial_groups)})
        assert parts.keys() == expected.keys()
        for name, (x, y, rows) in expected.items():
            part = parts[name]
            assert part.name == f"m/{name}"
            assert part.x.tobytes() == x.tobytes()
            assert part.y.tobytes() == y.tobytes()
            np.testing.assert_array_equal(part.source_indices, rows)
            assert part.checksum == eager_checksum(x, y)
            assert not part.x.flags.writeable
        assert d.checksum == eager_checksum(d.x, d.y)

    @settings(max_examples=20, deadline=None)
    # build_task rejects an empty trial group, validation or test set
    @given(**{**SPLIT_CASES, "trial_count": st.integers(1, 4),
              "per_trial": st.integers(1, 6), "validation": st.integers(1, 6),
              "test": st.integers(1, 6)})
    def test_build_task_hashes_nothing(self, **case):
        _, plan = split_case(**case)
        cfg = {
            "dataset": {"kind": "xor_blobs", "n": max(plan.total + case["reserve"], 10),
                        "seed": case["seed"]},
            "split": {"train_total": plan.train_total, "per_trial": plan.per_trial,
                      "trial_count": plan.trial_count, "validation": plan.validation,
                      "test": plan.test, "seed": plan.seed},
            "layer_sizes": [2, 3, 2],
        }
        digests = []
        real = data_mod.hashlib.sha256

        def sha256():
            digests.append(1)
            return real()

        with mock.patch.object(data_mod, "hashlib", SimpleNamespace(sha256=sha256)):
            task, _splits = build_task(*read_task(cfg), seed=0)
            assert digests == []
            parts = [*task.trial_groups, task.validation, task.test]
            assert [p.checksum for p in parts] == [
                eager_checksum(p.x, p.y) for p in parts]
        assert len(digests) == len(parts)

    def test_parts_share_one_copy(self):
        d, plan = split_case(3, 4, 2, 3, 3, 5, seed=0)
        s = split(d, plan)
        for part in [*s.trial_groups, s.validation, s.test, s.reserve]:
            assert np.shares_memory(part.x, s.train_pool.x.base)
        assert not np.shares_memory(s.train_pool.x, d.x)

    def test_memory_of_load_and_split(self, tmp_path):
        """Peak at most ~2x the float64 pixels (master plus one permuted
        copy); the parts hold them once."""
        n = 2000
        images = np.random.default_rng(0).integers(0, 256, (n, 28, 28))
        img, lbl = write_idx_pair(tmp_path, images, np.arange(n) % 10)
        plan = SplitPlan(1200, 240, 5, 400, 400, seed=3)
        data_bytes = n * 28 * 28 * 8
        tracemalloc.start()
        try:
            splits = split(load_idx(img, lbl, name="fashion"), plan)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(splits.train_pool) == 1200
        assert peak <= 2.1 * data_bytes
        assert held <= 1.05 * data_bytes


class TestSynthetic:
    @pytest.mark.parametrize("kind", ["two_gaussians", "xor_blobs", "spiral"])
    def test_shape_range_balance(self, kind):
        d = synthetic(kind, n=101, noise=0.05, seed=4)
        assert d.x.shape == (101, 2)
        assert 0.0 <= d.x.min() and d.x.max() <= 1.0
        counts = np.bincount(d.y, minlength=2)
        assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_deterministic_per_seed(self):
        a = synthetic("two_gaussians", 50, seed=7)
        b = synthetic("two_gaussians", 50, seed=7)
        assert a.checksum == b.checksum
        c = synthetic("two_gaussians", 50, seed=8)
        assert a.checksum != c.checksum

    def test_kinds_differ(self):
        checks = {synthetic(k, 64, seed=1).checksum for k in
                  ("two_gaussians", "xor_blobs", "spiral")}
        assert len(checks) == 3

    def test_two_gaussians_centers(self):
        d = synthetic("two_gaussians", 2000, noise=0.02, seed=0)
        c0 = d.x[d.y == 0].mean(axis=0)
        c1 = d.x[d.y == 1].mean(axis=0)
        np.testing.assert_allclose(c0, [0.3, 0.3], atol=0.01)
        np.testing.assert_allclose(c1, [0.7, 0.7], atol=0.01)

    def test_xor_blobs_not_linearly_separable(self):
        d = synthetic("xor_blobs", 400, noise=0.03, seed=0)
        # the class-conditional means coincide, so no linear rule can split them
        c0 = d.x[d.y == 0].mean(axis=0)
        c1 = d.x[d.y == 1].mean(axis=0)
        np.testing.assert_allclose(c0, c1, atol=0.05)

    def test_minimum_size_enforced(self):
        with pytest.raises(DataError, match="n >= 10"):
            synthetic("spiral", 9)

    def test_unknown_kind(self):
        with pytest.raises(DataError, match="unknown synthetic kind"):
            synthetic("moons", 50)

    @given(st.integers(10, 200), st.integers(0, 50))
    def test_labels_always_balanced(self, n, seed):
        d = synthetic("two_gaussians", n, seed=seed)
        counts = np.bincount(d.y, minlength=2)
        assert abs(int(counts[0]) - int(counts[1])) <= 1
        assert len(d) == n
