"""Datasets: binary readers, deterministic splits, and synthetic 2-D tasks.

Every Dataset remembers which rows of its source it holds (source_indices),
so downstream phases can prove their data never overlapped — the benchmark
asserts its test rows were untouched by evolution by intersecting recorded
index sets.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
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
    checksum: str = ""
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
        if not self.checksum:
            self.checksum = self._digest()

    def _digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.x).tobytes())
        h.update(np.ascontiguousarray(self.y).tobytes())
        return h.hexdigest()

    def __len__(self) -> int:
        return len(self.y)

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self.y) else 0

    def take(self, idx, name: str | None = None) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(
            self.x[idx],
            self.y[idx],
            name=name or self.name,
            source_indices=self.source_indices[idx],
        )


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
    x = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    return Dataset(x, labels.astype(np.int64), name=name)


def load_cifar10(batch_paths, name: str = "cifar10") -> Dataset:
    """Read CIFAR-10 binary batches, flattened to 3072 features in [0, 1]."""
    record = 1 + 3072
    xs, ys = [], []
    for path in batch_paths:
        raw = Path(path).read_bytes()
        if len(raw) == 0 or len(raw) % record != 0:
            raise DataError(f"{path}: size {len(raw)} is not a whole number of records")
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, record)
        ys.append(arr[:, 0].astype(np.int64))
        xs.append(arr[:, 1:].astype(np.float64) / 255.0)
    if not xs:
        raise DataError("no batch files given")
    return Dataset(np.concatenate(xs), np.concatenate(ys), name=name)


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
        """Every source row the evolutionary phase can ever see."""
        parts = [g.source_indices for g in self.trial_groups]
        parts += [
            self.train_pool.source_indices,
            self.validation.source_indices,
            self.test.source_indices,
        ]
        return np.unique(np.concatenate(parts))


def split(d: Dataset, plan: SplitPlan) -> Splits:
    """Seed-deterministic, pairwise-disjoint partition of `d` per the plan."""
    if plan.total > len(d):
        raise DataError(f"plan needs {plan.total} examples, dataset has {len(d)}")
    perm = Rng(plan.seed).child("split", d.name).permutation(len(d))
    pool_idx = perm[: plan.train_total]
    val_idx = perm[plan.train_total : plan.train_total + plan.validation]
    test_idx = perm[plan.train_total + plan.validation : plan.total]
    reserve_idx = perm[plan.total :]
    groups = [
        d.take(pool_idx[i * plan.per_trial : (i + 1) * plan.per_trial],
               name=f"{d.name}/trial{i}")
        for i in range(plan.trial_count)
    ]
    return Splits(
        trial_groups=groups,
        validation=d.take(val_idx, name=f"{d.name}/val"),
        test=d.take(test_idx, name=f"{d.name}/test"),
        train_pool=d.take(pool_idx, name=f"{d.name}/train"),
        reserve=d.take(reserve_idx, name=f"{d.name}/reserve"),
    )


SYNTHETIC_KINDS = ("two_gaussians", "xor_blobs", "spiral")


def synthetic(kind: str, n: int, noise: float = 0.1, seed: int = 0) -> Dataset:
    """Reproducible 2-D labeled sets of graded difficulty, coordinates in [0,1]."""
    if kind not in SYNTHETIC_KINDS:
        raise DataError(f"unknown synthetic kind {kind!r}")
    if n < 10:
        raise DataError("need n >= 10")
    rng = Rng(seed).child("synthetic", kind)
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
    return Dataset(x[order], y[order], name=f"{kind}(n={n},noise={noise},seed={seed})")
