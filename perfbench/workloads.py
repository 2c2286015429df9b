"""The three workloads: their configs and data, made from a seed, and how
their results are counted, checked and digested.

Why each workload exists, and what was tried and dropped, is in README.md.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

# evolve-toy: the quick ALR task of scripts/evolve_optimizers.py, searched
# by a wide population for one bred generation (README.md says why).
EVOLVE_POPULATION = 200
EVOLVE_GENERATIONS = 1

# bench-wide: the paper's 784-100-10 shape on generated image-shaped data.
WIDE_CLASSES = 10
WIDE_SIDE = 28
WIDE_TRAIN = 3000
WIDE_HELD_OUT = 1000  # rows each for validation and test
WIDE_EPOCHS = 5
WIDE_REPETITIONS = 2
WIDE_LINEUP = ("sgd", "momentum", "nesterov", "rmsprop", "adam", "ades", "sign")
WIDE_POLICY = "if(epoch < 2.0, 0.1, if(lr > 0.03, 0.03, 0.01))"
# each pixel: 0.5 + SIGNAL * (class prototype - 0.5) + NOISE * normal
WIDE_SIGNAL = 0.25
WIDE_NOISE = 0.35

# tune-gp: the quick tune task of scripts/tune_hyperparams.py.
TUNE_BUDGET = 200
TUNE_OPTIMIZER = "adam"


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2), encoding="utf-8")
    return path


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _csv_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def _only(run_dir: Path, pattern: str) -> Path:
    found = sorted(run_dir.glob(pattern))
    if len(found) != 1:
        raise ValueError(f"expected one {pattern} in {run_dir}, found {len(found)}")
    return found[0]


class EvolveToy:
    name = "evolve-toy"

    def prepare(self, seed: int, work: Path) -> list:
        config = {
            "seed": seed,
            "grammar": "alr",
            "trials": 5,
            "threshold": 0.8,
            "evo": {"population": EVOLVE_POPULATION,
                    "generations": EVOLVE_GENERATIONS},
            "task": {
                "dataset": {"kind": "two_gaussians", "n": 2000, "noise": 0.1,
                            "seed": seed},
                "split": {"train_total": 1200, "per_trial": 240,
                          "trial_count": 5, "validation": 400, "test": 400},
                "layer_sizes": [2, 16, 2],
                "batch_size": 200,
                "max_epochs": 10,
                "early_stop": False,
            },
        }
        return ["evolve", str(_write_json(work / "evolve.json", config))]

    def candidates(self, run_dir: Path) -> int:
        """Fresh fitness evaluations: entries of the final fitness cache."""
        state = json.loads((run_dir / "checkpoint.json").read_text(encoding="utf-8"))
        return len(state["cache"])

    def digest(self, run_dir: Path) -> str:
        rows = _csv_rows(run_dir / "log.csv")
        keep = [i for i, col in enumerate(rows[0]) if col != "seconds"]
        log = "\n".join(",".join(row[i] for i in keep) for row in rows)
        return _sha256(log.encode(), (run_dir / "best.json").read_bytes())

    def problems(self, run_dir: Path) -> list:
        rows = _csv_rows(run_dir / "log.csv")
        best = json.loads((run_dir / "best.json").read_text(encoding="utf-8"))
        out = []
        if len(rows) != EVOLVE_GENERATIONS + 2:
            out.append(f"log.csv has {len(rows) - 1} generations")
        if not 0.0 <= best["fitness"] <= 1.0 or best["phenotype"] is None:
            out.append(f"best.json holds fitness {best['fitness']!r}")
        return out


class BenchWide:
    name = "bench-wide"

    def prepare(self, seed: int, work: Path) -> list:
        data = work / "data"
        data.mkdir()
        write_image_data(seed, data)
        policy = work / "policy.txt"
        policy.write_text(WIDE_POLICY + "\n", encoding="utf-8")
        config = {
            "seed": seed,
            "name": "wide",
            "epochs": WIDE_EPOCHS,
            "early_stop": False,
            "repetitions": WIDE_REPETITIONS,
            "steppers": [*WIDE_LINEUP, {"policy_file": str(policy)}],
            "task": {
                "dataset": {"kind": "idx", "images": "train-images-idx3-ubyte",
                            "labels": "train-labels-idx1-ubyte", "name": "wide"},
                "split": {"train_total": WIDE_TRAIN, "per_trial": WIDE_TRAIN,
                          "trial_count": 1, "validation": WIDE_HELD_OUT,
                          "test": WIDE_HELD_OUT},
                "layer_sizes": [WIDE_SIDE * WIDE_SIDE, 100, WIDE_CLASSES],
                "batch_size": 1000,
            },
        }
        return ["benchmark", str(_write_json(work / "bench.json", config))]

    def candidates(self, run_dir: Path) -> int:
        """Contender-repetition trainings: rows of bench_*.csv."""
        return len(_csv_rows(_only(run_dir, "bench_*.csv"))) - 1

    def digest(self, run_dir: Path) -> str:
        return _sha256(_only(run_dir, "bench_*.csv").read_bytes())

    def problems(self, run_dir: Path) -> list:
        rows = _csv_rows(_only(run_dir, "bench_*.csv"))[1:]
        expected = (len(WIDE_LINEUP) + 1) * WIDE_REPETITIONS
        out = []
        if len(rows) != expected:
            out.append(f"bench csv has {len(rows)} rows, expected {expected}")
        test_acc = {float(row[4]) for row in rows}
        if not all(0.0 <= a <= 1.0 for a in test_acc):
            out.append("accuracy outside [0, 1]")
        if len(test_acc) < 2 or min(test_acc) == 1.0:
            out.append("every contender scores the same, so the check cannot tell them apart")
        return out


class TuneGp:
    name = "tune-gp"

    def prepare(self, seed: int, work: Path) -> list:
        config = {
            "seed": seed,
            "optimizer": TUNE_OPTIMIZER,
            "budget": TUNE_BUDGET,
            "task": {
                "dataset": {"kind": "two_gaussians", "n": 1500, "noise": 0.1,
                            "seed": seed},
                "split": {"train_total": 900, "per_trial": 900, "trial_count": 1,
                          "validation": 300, "test": 300},
                "layer_sizes": [2, 16, 2],
                "batch_size": 300,
                "max_epochs": 8,
                "early_stop": False,
            },
        }
        return ["tune", str(_write_json(work / "tune.json", config))]

    def candidates(self, run_dir: Path) -> int:
        """Objective evaluations: rows of tune_*.csv."""
        return len(_csv_rows(_only(run_dir, "tune_*.csv"))) - 1

    def digest(self, run_dir: Path) -> str:
        return _sha256(_only(run_dir, "tune_*.csv").read_bytes())

    def problems(self, run_dir: Path) -> list:
        rows = _csv_rows(_only(run_dir, "tune_*.csv"))[1:]
        out = []
        if len(rows) != TUNE_BUDGET:
            out.append(f"tune csv has {len(rows)} rows, expected {TUNE_BUDGET}")
        if not all(0.0 <= float(row[-1]) <= 1.0 for row in rows):
            out.append("objective outside [0, 1]")
        return out


WORKLOADS = {w.name: w for w in (EvolveToy(), BenchWide(), TuneGp())}


def write_image_data(seed: int, directory: Path) -> None:
    """The idx image and label files bench-wide reads through kind: idx:
    noisy copies of one random prototype per class, as uint8 pixels."""
    n = WIDE_TRAIN + 2 * WIDE_HELD_OUT
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 784])))
    prototypes = rng.random((WIDE_CLASSES, WIDE_SIDE * WIDE_SIDE))
    labels = rng.integers(0, WIDE_CLASSES, size=n)
    pixels = 0.5 + WIDE_SIGNAL * (prototypes[labels] - 0.5)
    pixels += WIDE_NOISE * rng.standard_normal(pixels.shape)
    images = np.clip(np.rint(255.0 * pixels), 0, 255).astype(np.uint8)
    with open(directory / "train-images-idx3-ubyte", "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, WIDE_SIDE, WIDE_SIDE))
        f.write(images.tobytes())
    with open(directory / "train-labels-idx1-ubyte", "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(labels.astype(np.uint8).tobytes())
