"""Datasets: binary readers, deterministic splits, and synthetic 2-D tasks.

Every Dataset remembers which rows of its source it holds (source_indices),
so downstream phases can prove their data never overlapped — the benchmark
asserts its test rows were untouched by evolution by intersecting recorded
index sets.

The pixels are held once as float64 from file to first batch: readers scale
in place, `checksum` is hashed on first read, and split parts are read-only
row slices of one permuted copy that share memory. Loading and splitting
peak at about twice the float64 dataset; the parts then hold it once.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .tensor import Rng, Tensor

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataError(ValueError):
    pass


@dataclass
class Dataset:
    x: Tensor  # (N, features), values in [0, 1]
    y: Tensor  # (N,) integer class labels
    name: str = "dataset"
    source_indices: Tensor = None  # rows of the originating collection

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2:
            raise DataError(f"x must be (N, features), got shape {self.x.shape}")
        if len(self.x) != len(self.y):
            raise DataError(f"{len(self.x)} examples but {len(self.y)} labels")
        if len(self.y) and self.y.min() < 0:
            raise DataError("labels must be non-negative")
        if self.source_indices is None:
            self.source_indices = np.arange(len(self.y))
        else:
            self.source_indices = np.asarray(self.source_indices, dtype=np.int64)
            if len(self.source_indices) != len(self.y):
                raise DataError("source_indices length must match data")

    @cached_property
    def checksum(self) -> str:
        """SHA-256 of the x bytes then the y bytes, hashed on first read."""
        h = hashlib.sha256()
        h.update(memoryview(np.ascontiguousarray(self.x)))
        h.update(memoryview(np.ascontiguousarray(self.y)))
        return h.hexdigest()

    @cached_property
    def x_bound(self) -> float:
        """Largest |x| entry, found on first read by one max and one min
        reduction (no temporary array): 0.0 with no entries, inf when any
        entry is not finite."""
        if self.x.size == 0:
            return 0.0
        hi = float(np.maximum.reduce(self.x, axis=None))
        lo = float(np.minimum.reduce(self.x, axis=None))
        bound = max(hi, -lo)
        return bound if bound < np.inf else np.inf  # NaN fails the test too

    def __len__(self) -> int:
        return len(self.y)

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self.y) else 0


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise DataError(f"truncated file while reading {what}")
    return buf


def load_idx(images_path, labels_path, name: str = "idx") -> Dataset:
    """Read the big-endian image/label container used by the MNIST family."""
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise DataError(f"bad image magic 0x{magic:08x} in {images_path}")
        pixels = np.frombuffer(
            _read_exact(f, count * rows * cols, "pixels"), dtype=np.uint8
        )
    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise DataError(f"bad label magic 0x{magic:08x} in {labels_path}")
        labels = np.frombuffer(_read_exact(f, label_count, "labels"), dtype=np.uint8)
    if count != label_count:
        raise DataError(f"{count} images but {label_count} labels")
    x = pixels.reshape(count, rows * cols).astype(np.float64)
    x /= 255.0
    return Dataset(x, labels.astype(np.int64), name=name)


def load_cifar10(batch_paths, name: str = "cifar10") -> Dataset:
    """Read CIFAR-10 binary batches, flattened to 3072 features in [0, 1]."""
    record = 1 + 3072
    if not batch_paths:
        raise DataError("no batch files given")
    sizes = [Path(p).stat().st_size for p in batch_paths]
    for path, size in zip(batch_paths, sizes):
        if size == 0 or size % record != 0:
            raise DataError(f"{path}: size {size} is not a whole number of records")
    x = np.empty((sum(sizes) // record, record - 1))
    y = np.empty(len(x), dtype=np.int64)
    row = 0
    for path, size in zip(batch_paths, sizes):
        arr = np.fromfile(path, dtype=np.uint8).reshape(size // record, record)
        x[row : row + len(arr)], y[row : row + len(arr)] = arr[:, 1:], arr[:, 0]
        row += len(arr)
    x /= 255.0
    return Dataset(x, y, name=name)


@dataclass
class SplitPlan:
    train_total: int
    per_trial: int
    trial_count: int
    validation: int
    test: int
    seed: int = 0

    def __post_init__(self):
        for f in ("train_total", "per_trial", "trial_count", "validation", "test"):
            if getattr(self, f) < 0:
                raise DataError(f"{f} must be >= 0")
        if self.per_trial * self.trial_count > self.train_total:
            raise DataError(
                f"{self.trial_count} trials x {self.per_trial} exceeds the "
                f"{self.train_total}-example training pool"
            )

    @property
    def total(self) -> int:
        return self.train_total + self.validation + self.test


@dataclass
class Splits:
    trial_groups: list  # of Dataset, pairwise disjoint
    validation: Dataset
    test: Dataset
    train_pool: Dataset
    reserve: Dataset  # rows the plan never touched

    def evolution_indices(self) -> np.ndarray:
        """Every source row the evolutionary phase can ever see, sorted. The
        trial groups lie inside the train pool, which shares no row with the
        validation or test part, so sorting the three leaves no duplicate."""
        return np.sort(np.concatenate([self.train_pool.source_indices,
                                       self.validation.source_indices,
                                       self.test.source_indices]))


def split(d: Dataset, plan: SplitPlan) -> Splits:
    """Seed-deterministic, pairwise-disjoint partition of `d` per the plan;
    the parts are read-only row slices of one permuted copy of `d`."""
    if plan.total > len(d):
        raise DataError(f"plan needs {plan.total} examples, dataset has {len(d)}")
    perm = Rng(plan.seed).child("split", d.name).draw(lambda gen: gen.permutation(len(d)))
    x, y, rows = d.x[perm], d.y[perm], d.source_indices[perm]
    for a in (x, y, rows):
        a.flags.writeable = False

    def part(start: int, stop: int, suffix: str) -> Dataset:
        return Dataset(x[start:stop], y[start:stop], name=f"{d.name}/{suffix}",
                       source_indices=rows[start:stop])

    val_end = plan.train_total + plan.validation
    return Splits(
        trial_groups=[part(i * plan.per_trial, (i + 1) * plan.per_trial, f"trial{i}")
                      for i in range(plan.trial_count)],
        validation=part(plan.train_total, val_end, "val"),
        test=part(val_end, plan.total, "test"),
        train_pool=part(0, plan.train_total, "train"),
        reserve=part(plan.total, len(d), "reserve"),
    )


SYNTHETIC_KINDS = ("two_gaussians", "xor_blobs", "spiral")


def synthetic(kind: str, n: int, noise: float = 0.1, seed: int = 0) -> Dataset:
    """Reproducible 2-D labeled sets of graded difficulty, coordinates in [0,1]."""
    if kind not in SYNTHETIC_KINDS:
        raise DataError(f"unknown synthetic kind {kind!r}")
    if n < 10:
        raise DataError("need n >= 10")
    x, y = Rng(seed).child("synthetic", kind).draw(partial(_synthetic_points, kind, n, noise))
    return Dataset(x, y, name=f"{kind}(n={n},noise={noise},seed={seed})")


def _synthetic_points(kind: str, n: int, noise: float, rng) -> tuple:
    """`synthetic`'s shuffled (x, y), drawn from the numpy Generator `rng`."""
    half = n // 2
    counts = [half, n - half]
    if kind == "two_gaussians":
        centers = np.array([[0.3, 0.3], [0.7, 0.7]])
        xs = [
            centers[c] + noise * rng.normal(size=(counts[c], 2)) for c in (0, 1)
        ]
        ys = [np.full(counts[c], c) for c in (0, 1)]
    elif kind == "xor_blobs":
        corners = {
            0: [np.array([0.25, 0.25]), np.array([0.75, 0.75])],
            1: [np.array([0.25, 0.75]), np.array([0.75, 0.25])],
        }
        xs, ys = [], []
        for c in (0, 1):
            a = counts[c] // 2
            for blob_n, center in zip((a, counts[c] - a), corners[c]):
                xs.append(center + noise * rng.normal(size=(blob_n, 2)))
                ys.append(np.full(blob_n, c))
    else:  # spiral
        xs, ys = [], []
        for c in (0, 1):
            t = np.linspace(0.25, 3.0 * np.pi, counts[c])
            r = 0.04 + 0.42 * t / (3.0 * np.pi)
            pts = 0.5 + np.stack(
                [r * np.cos(t + c * np.pi), r * np.sin(t + c * np.pi)], axis=1
            )
            xs.append(pts + noise * 0.3 * rng.normal(size=(counts[c], 2)))
            ys.append(np.full(counts[c], c))
    x = np.clip(np.concatenate(xs), 0.0, 1.0)
    y = np.concatenate(ys).astype(np.int64)
    order = rng.permutation(len(y))
    return x[order], y[order]
