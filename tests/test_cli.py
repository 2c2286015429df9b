"""Command-line behavior: config validation, exit codes, outputs, resume."""

import errno
import gc
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from optevo.cli import (
    DATA_DIR_ENV,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    ConfigError,
    _check_keys,
    _field,
    main,
    make_run_dir,
)
import optevo.bench as bench_mod
import optevo.cli as cli_mod
import optevo.evolve as evolve_mod
import optevo.hyperopt as hyperopt_mod
from optevo.check import grammar_health_checks
from optevo.evolve import load_checkpoint, parallel_map
from optevo.grammar import load_shipped_grammar, serialize_grammar
from optevo.optim import HyperParams, builtin, spec_from_json, spec_to_json
from optevo.sched import parse_policy

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(autouse=True)
def no_data_dir(monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def evolve_payload(**over):
    payload = {
        "seed": 3,
        "evo": {
            "population": 5,
            "generations": 2,
            "tournament": 3,
            "mutation": 0.2,
            "elitism": 1,
            "max_depth": 5,
        },
        "grammar": "alr",
        "trials": 2,
        "threshold": 0.8,
        "workers": 1,
        "task": {
            "dataset": {"kind": "two_gaussians", "n": 400, "noise": 0.1, "seed": 5},
            "split": {
                "train_total": 240,
                "per_trial": 120,
                "trial_count": 2,
                "validation": 60,
                "test": 60,
            },
            "layer_sizes": [2, 8, 2],
            "batch_size": 60,
            "max_epochs": 3,
            "early_stop": False,
        },
    }
    payload.update(over)
    return payload


def bench_payload(**over):
    payload = {
        "seed": 1,
        "name": "toy",
        "epochs": 3,
        "early_stop": False,
        "repetitions": 2,
        "workers": 1,
        "steppers": ["sgd", "adam"],
        "task": {
            "dataset": {"kind": "two_gaussians", "n": 400, "noise": 0.1, "seed": 5},
            "split": {
                "train_total": 240,
                "per_trial": 240,
                "trial_count": 1,
                "validation": 60,
                "test": 60,
            },
            "layer_sizes": [2, 8, 2],
            "batch_size": 60,
        },
    }
    payload.update(over)
    return payload


def tune_payload(**over):
    payload = {
        "seed": 0,
        "optimizer": "sgd",
        "budget": 5,
        "workers": 1,
        "task": {
            "dataset": {"kind": "two_gaussians", "n": 300, "noise": 0.1, "seed": 5},
            "split": {
                "train_total": 180,
                "per_trial": 180,
                "trial_count": 1,
                "validation": 60,
                "test": 60,
            },
            "layer_sizes": [2, 6, 2],
            "batch_size": 60,
            "max_epochs": 2,
            "early_stop": False,
        },
    }
    payload.update(over)
    return payload


def first_used(individual, count):
    """Set the first used count of a checkpoint's individual to `count`."""
    individual["used"][next(iter(individual["used"]))] = count


def log_rows(run_dir):
    lines = (run_dir / "log.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestFieldValidation:
    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            _field({}, "seed", int)

    def test_default_used(self):
        assert _field({}, "seed", int, 7) == 7

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="expected int"):
            _field({"seed": "three"}, "seed", int)

    def test_bool_is_not_int(self):
        with pytest.raises(ConfigError, match="got bool"):
            _field({"seed": True}, "seed", int)

    def test_int_promotes_to_float(self):
        assert _field({"rate": 1}, "rate", float) == 1.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            _check_keys({"a": 1, "zz": 2}, {"a"})


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["evolve", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["evolve", str(p)]) == EXIT_CONFIG
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command, source", [
        ("tune", "config"), ("grammar-check", "grammar"),
        ("benchmark", "spec_file"), ("benchmark", "policy_file"),
    ])
    def test_input_that_is_not_utf8(self, tmp_path, capsys, monkeypatch, command,
                                    source):
        """A config, grammar, spec file or policy file whose bytes are not
        UTF-8 exits 2 with a config error, before any run directory."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad").write_bytes(b"\xff\xfe not UTF-8")
        if source in ("config", "grammar"):
            argv = [command, "bad"]
        else:
            argv = [command, write_cfg(tmp_path, bench_payload(steppers=[{source: "bad"}]))]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'utf-8' codec" in err
        assert not (tmp_path / "runs").exists()

    def test_top_level_must_be_object(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        assert main(["evolve", str(p)]) == EXIT_CONFIG

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, evolve_payload(bogus=1))
        assert main(["evolve", cfg]) == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_bad_layer_sizes(self, tmp_path):
        payload = evolve_payload()
        payload["task"]["layer_sizes"] = [2, 0, 2]
        assert main(["evolve", write_cfg(tmp_path, payload)]) == EXIT_CONFIG

    @pytest.mark.parametrize("key, value, message", [
        ("layer_sizes", [2, True, 2], "layer_sizes[1]: expected int, got bool"),
        ("dataset", {"kind": "cifar10", "batches": [1]},
         "dataset.batches[0]: expected str, got int"),
    ])
    def test_list_entries_are_typed(self, tmp_path, capsys, monkeypatch,
                                    key, value, message):
        """Exit 2 before any data load: the idx files do not exist."""
        monkeypatch.chdir(tmp_path)
        payload = evolve_payload()
        payload["task"]["dataset"] = {"kind": "idx", "images": "ghost-images",
                                      "labels": "ghost-labels"}
        payload["task"][key] = value
        assert main(["evolve", write_cfg(tmp_path, payload)]) == EXIT_CONFIG
        assert f"config error: config.task.{message}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, payload", [
        ("evolve", evolve_payload), ("tune", tune_payload),
        ("benchmark", bench_payload)])
    @pytest.mark.parametrize("sizes, message", [
        ([2, 16, 1], "output size 1, but the dataset has 2 classes"),
        ([3, 16, 2], "input size 3, but the dataset has 2 features"),
        ([2], "at least two"),
    ])
    def test_layer_sizes_that_do_not_fit_the_dataset(
            self, tmp_path, capsys, monkeypatch, command, payload, sizes, message):
        monkeypatch.chdir(tmp_path)
        cfg = payload()
        cfg["task"]["layer_sizes"] = sizes
        assert main([command, write_cfg(tmp_path, cfg)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, payload", [
        ("evolve", evolve_payload), ("tune", tune_payload),
        ("benchmark", bench_payload)])
    @pytest.mark.parametrize("flag", [False, True])
    def test_workers_below_one(self, tmp_path, capsys, monkeypatch,
                               command, payload, flag):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, payload() if flag else payload(workers=0))
        argv = [command, cfg] + (["--workers", "0"] if flag else [])
        assert main(argv) == EXIT_CONFIG
        assert "config.workers: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, payload", [
        ("evolve", evolve_payload), ("tune", tune_payload),
        ("benchmark", bench_payload)])
    @pytest.mark.parametrize("where", ["flag", "seed", "task.split.seed",
                                       "task.dataset.seed"])
    def test_negative_seed(self, tmp_path, capsys, monkeypatch, command, payload, where):
        """A seed below 0 exits 2 before any run directory is made, instead
        of dying in numpy's seeding with a traceback."""
        monkeypatch.chdir(tmp_path)
        cfg, flags = payload(), []
        if where == "flag":
            flags, where = ["--seed", "-1"], "seed"
        else:
            *path, key = where.split(".")
            section = cfg
            for name in path:
                section = section[name]
            section[key] = -1
        assert main([command, write_cfg(tmp_path, cfg), *flags]) == EXIT_CONFIG
        assert f"config error: config.{where}: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_zero_trials(self, tmp_path, capsys, monkeypatch):
        """"trials": 0 exits 2 before any run directory is made, instead of
        dying in the fitness function after config.json is written."""
        monkeypatch.chdir(tmp_path)
        assert main(["evolve", write_cfg(tmp_path, evolve_payload(trials=0))]) == EXIT_CONFIG
        assert "config error: config.trials: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_trials_exceed_groups(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, evolve_payload(trials=9))
        assert main(["evolve", cfg]) == EXIT_CONFIG
        assert "trial groups" in capsys.readouterr().err

    def test_invalid_split_plan(self, tmp_path):
        payload = evolve_payload()
        payload["task"]["split"]["per_trial"] = 500  # exceeds train_total
        assert main(["evolve", write_cfg(tmp_path, payload)]) == EXIT_CONFIG

    @pytest.mark.parametrize("key", ["trial_count", "per_trial", "validation", "test"])
    def test_empty_split_part(self, tmp_path, capsys, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        payload = tune_payload()
        payload["task"]["split"][key] = 0
        assert main(["tune", write_cfg(tmp_path, payload)]) == EXIT_CONFIG
        assert (f"config error: config.task.split.{key}: must be >= 1"
                in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    def test_unknown_dataset_kind(self, tmp_path):
        payload = evolve_payload()
        payload["task"]["dataset"] = {"kind": "fractal", "n": 10}
        assert main(["evolve", write_cfg(tmp_path, payload)]) == EXIT_CONFIG

    def test_unknown_grammar_path(self, tmp_path):
        cfg = write_cfg(tmp_path, evolve_payload(grammar="missing.bnf"))
        assert main(["evolve", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("key, value, message", [
        ("per_trial", 99999, "config.task.split"),
        ("batch_size", 0, "config.task: batch_size")])
    def test_bad_plan_exits_before_data_load(self, tmp_path, monkeypatch, capsys,
                                             key, value, message):
        """The paper config reads idx files from $OPTEVO_DATA_DIR, here empty:
        a split plan or training config that cannot hold exits 2 before any
        load would exit 3."""
        payload = json.loads((CONFIGS / "evolve-alr-paper.json").read_text())
        (payload["task"]["split"] if key == "per_trial" else payload["task"])[key] = value
        empty = tmp_path / "data"
        empty.mkdir()
        monkeypatch.setenv(DATA_DIR_ENV, str(empty))
        argv = ["evolve", write_cfg(tmp_path, payload), "--run-dir", str(tmp_path / "r")]
        assert main(argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("key", ["epochs", "repetitions"])
    def test_bad_benchmark_count_exits_before_data_load(self, tmp_path, monkeypatch,
                                                        capsys, key):
        """The paper benchmark reads idx files from $OPTEVO_DATA_DIR, here
        empty: no epochs or no repetitions exits 2 before any load would
        exit 3."""
        payload = json.loads((CONFIGS / "benchmark-paper.json").read_text())
        payload[key] = 0
        empty = tmp_path / "data"
        empty.mkdir()
        monkeypatch.setenv(DATA_DIR_ENV, str(empty))
        argv = ["benchmark", write_cfg(tmp_path, payload), "--run-dir", str(tmp_path / "r")]
        assert main(argv) == EXIT_CONFIG
        assert f"config error: config.{key}: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command, path, value, message", [
        ("evolve", "threshold", float("nan"), "must be finite"),
        ("evolve", "threshold", float("inf"), "must be finite"),
        ("evolve", "evo.mutation", float("-inf"), "must be finite"),
        ("tune", "task.dataset.noise", float("nan"), "must be finite"),
        ("tune", "task.dataset.noise", -0.1, "must be >= 0"),
        ("benchmark", "task.dataset.n", 5, "must be >= 10"),
    ])
    def test_numbers_out_of_range(self, tmp_path, capsys, monkeypatch, command,
                                  path, value, message):
        """Python's json reads NaN and Infinity: a float that is not
        finite, a negative noise or a synthetic n too small to split exits 2
        before any data load or run directory."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli_mod, "synthetic", lambda *a, **k: pytest.fail("loaded"))
        payload = {"evolve": evolve_payload, "tune": tune_payload,
                   "benchmark": bench_payload}[command]()
        *sections, key = path.split(".")
        section = payload
        for name in sections:
            section = section[name]
        section[key] = value
        assert main([command, write_cfg(tmp_path, payload)]) == EXIT_CONFIG
        assert (f"config error: config.{path}: {message}"
                in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    def test_split_too_large_for_dataset_is_data_error(self, tmp_path, capsys):
        payload = evolve_payload()
        payload["task"]["split"]["train_total"] = 100_000
        payload["task"]["split"]["per_trial"] = 50_000
        assert main(["evolve", write_cfg(tmp_path, payload)]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err


class TestDataResolution:
    def make_idx_pair(self, d):
        x = (np.arange(4 * 4 * 4) % 7).astype(np.uint8)
        (d / "img.idx").write_bytes(
            struct.pack(">IIII", 0x803, 4, 4, 4) + x.tobytes()
        )
        (d / "lab.idx").write_bytes(
            struct.pack(">II", 0x801, 4) + bytes([0, 1, 0, 1])
        )

    def idx_payload(self):
        payload = evolve_payload()
        payload["evo"].update(population=3, generations=0, tournament=2)
        payload["trials"] = 1
        payload["task"]["dataset"] = {
            "kind": "idx",
            "images": "img.idx",
            "labels": "lab.idx",
        }
        payload["task"]["split"] = {
            "train_total": 2,
            "per_trial": 2,
            "trial_count": 1,
            "validation": 1,
            "test": 1,
        }
        payload["task"]["layer_sizes"] = [16, 2]
        payload["task"]["max_epochs"] = 1
        payload["task"]["batch_size"] = 2
        return payload

    def test_missing_data_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.idx_payload())
        assert main(["evolve", cfg, "--run-dir", str(tmp_path / "r")]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_env_var_resolves_relative_paths(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        self.make_idx_pair(data_dir)
        monkeypatch.setenv(DATA_DIR_ENV, str(data_dir))
        cfg = write_cfg(tmp_path, self.idx_payload())
        assert main(["evolve", cfg, "--run-dir", str(tmp_path / "r")]) == EXIT_OK

    def test_absolute_paths_ignore_env_var(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        self.make_idx_pair(data_dir)
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "elsewhere"))
        payload = self.idx_payload()
        payload["task"]["dataset"]["images"] = str(data_dir / "img.idx")
        payload["task"]["dataset"]["labels"] = str(data_dir / "lab.idx")
        cfg = write_cfg(tmp_path, payload)
        assert main(["evolve", cfg, "--run-dir", str(tmp_path / "r")]) == EXIT_OK


class TestGrammarCheck:
    def test_shipped_grammar_passes(self, capsys):
        assert main(["grammar-check", "alr"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if ":" in l and "—" in l]
        assert lines and all(l.startswith("PASS") for l in lines)
        assert "9/9 checks passed" in out

    def test_each_contract_check_reported(self, capsys):
        main(["grammar-check", "alr"])
        out = capsys.readouterr().out
        for name in (
            "weight-gradient-barrier",
            "aux-slot-ordering",
            "alpha-accumulator",
            "constant-grid",
            "genotype-sgd",
            "genotype-momentum",
            "genotype-rmsprop",
            "genotype-adam_core",
        ):
            assert name in out

    def test_gradient_in_weight_slot_fails_barrier(self, tmp_path, capsys):
        text = serialize_grammar(load_shipped_grammar("alr"))
        bad = text.replace(
            "<weight_terminal> ::= <weight_const> | x | y | z",
            "<weight_terminal> ::= <weight_const> | x | y | z | grad",
        )
        assert bad != text
        p = tmp_path / "bad.bnf"
        p.write_text(bad)
        assert main(["grammar-check", str(p)]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "FAIL: weight-gradient-barrier" in out

    def test_out_of_order_aux_slot_fails(self, tmp_path, capsys):
        text = serialize_grammar(load_shipped_grammar("alr"))
        bad = text.replace(
            "<x_terminal> ::= <x_const> | x | grad | grad",
            "<x_terminal> ::= <x_const> | x | y | grad | grad",
        )
        assert bad != text
        p = tmp_path / "bad.bnf"
        p.write_text(bad)
        assert main(["grammar-check", str(p)]) == EXIT_CHECK_FAILED
        assert "FAIL: aux-slot-ordering" in capsys.readouterr().out

    def test_interior_constant_off_grid_fails(self, tmp_path, capsys):
        text = serialize_grammar(load_shipped_grammar("alr"))
        line = next(l for l in text.splitlines() if l.startswith("<y_const>"))
        bad = text.replace(line, line.replace("5.00000000e-01", "5.00000001e-01"))
        assert bad != text
        p = tmp_path / "bad.bnf"
        p.write_text(bad)
        assert main(["grammar-check", str(p)]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "FAIL: constant-grid" in out and "y_const" in out

    def test_scheduler_leaf_at_zero_fails(self, tmp_path, capsys):
        text = serialize_grammar(load_shipped_grammar("dlr"))
        bad = text.replace("| 1.00000000e-05 |", "| 0 |")
        assert bad != text
        p = tmp_path / "bad.bnf"
        p.write_text(bad)
        assert main(["grammar-check", str(p)]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "FAIL: positive-leaves" in out and "FAIL: lr-grid" in out
        assert "PASS: tree-shape" in out and "PASS: epoch-grid" in out

    def test_unparseable_grammar(self, tmp_path, capsys):
        p = tmp_path / "broken.bnf"
        p.write_text("<s> := nope |||")
        assert main(["grammar-check", str(p)]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_missing_grammar_file(self, tmp_path):
        assert main(["grammar-check", str(tmp_path / "ghost.bnf")]) == EXIT_CONFIG

    def test_genotype_checks_fail_on_a_changed_weight_op(self, tmp_path, capsys):
        """With square or sqrt in place of negative, the shipped sgd, rmsprop
        and adam_core genotypes, which negate their step, map to other rules;
        momentum adds its step and still matches. Under sqrt those rules'
        trajectories go NaN, which fails the check too."""
        text = serialize_grammar(load_shipped_grammar("alr"))
        for op in ("square", "sqrt"):
            bad = text.replace("<weight_func> ::= negative( <weight_expr> ) |",
                               f"<weight_func> ::= {op}( <weight_expr> ) |")
            assert bad != text
            p = tmp_path / f"{op}.bnf"
            p.write_text(bad)
            assert main(["grammar-check", str(p)]) == EXIT_CHECK_FAILED
            out = capsys.readouterr().out
            for name in ("sgd", "rmsprop", "adam_core"):
                assert f"FAIL: genotype-{name} — trajectory diverged" in out
            assert "PASS: genotype-momentum" in out
            assert "6/9 checks passed" in out

    def test_health_checks_structurally_sound(self):
        checks = grammar_health_checks(load_shipped_grammar("alr"))
        names = [name for name, _, _ in checks]
        assert len(names) == len(set(names)) == 9
        assert all(ok for _, ok, _ in checks)


class TestProcessSettings:
    def test_main_freezes_the_objects_alive_at_its_start(self):
        """`main` moves the objects alive when it starts into the
        collector's permanent generation, which no collection walks."""
        gc.unfreeze()
        marker = [object()]  # a container the collector tracks
        try:
            assert any(obj is marker for obj in gc.get_objects())
            assert main(["grammar-check", "dlr"]) == EXIT_OK
            assert gc.get_freeze_count() > 0
            assert not any(obj is marker for obj in gc.get_objects())
        finally:
            gc.unfreeze()

    def test_two_runs_in_one_process_write_the_same_files(self, tmp_path):
        """A second `main` in the same process, whose first one froze the
        heap, writes the same run files, bar the seconds of each log row."""
        cfg = write_cfg(tmp_path, evolve_payload())
        runs = [tmp_path / "a", tmp_path / "b"]
        for run in runs:
            assert main(["evolve", cfg, "--run-dir", str(run)]) == EXIT_OK
        names = sorted(p.name for p in runs[0].iterdir())
        assert names == sorted(p.name for p in runs[1].iterdir())
        for name in names:
            a, b = ((run / name).read_bytes() for run in runs)
            if name == "log.csv":
                assert log_rows(runs[0])[1] != []
                a, b = ([row[:5] for row in log_rows(run)[1]] for run in runs)
            elif name == "checkpoint.json":
                a, b = (json.loads(x) for x in (a, b))
                for state in (a, b):
                    for stat in state["stats"]:
                        stat.pop("seconds")
            assert a == b, name


class TestEvolveCommand:
    def test_smoke_run_outputs(self, tmp_path, capsys):
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, evolve_payload())
        assert main(["evolve", cfg, "--run-dir", str(run)]) == EXIT_OK
        for name in (
            "log.csv",
            "checkpoint.json",
            "best.json",
            "best_spec.json",
            "indices.json",
            "config.json",
        ):
            assert (run / name).is_file(), name
        header, rows = log_rows(run)
        assert header == [
            "generation", "best", "mean", "median", "evaluations", "seconds",
        ]
        assert len(rows) == 3  # generations 0..2
        best = json.loads((run / "best.json").read_text())
        assert 0.0 <= best["fitness"] <= 1.0
        assert best["phenotype"] in capsys.readouterr().out

    def test_rerun_into_one_run_dir_starts_a_fresh_log(self, tmp_path):
        """A fresh run into the directory of an earlier one rewrites its
        log: two runs leave the log of one, bar the seconds column."""
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, evolve_payload())
        logs = []
        for _ in range(2):
            assert main(["evolve", cfg, "--run-dir", str(run)]) == EXIT_OK
            header, rows = log_rows(run)
            logs.append((header, [row[:5] for row in rows]))
        assert logs[1] == logs[0]
        assert [row[0] for row in logs[0][1]] == ["0", "1", "2"]

    def test_config_and_indices_precede_generation_zero(self, tmp_path, monkeypatch):
        """A run killed in generation 0 still names its config and rows."""
        import optevo.cli as cli_mod

        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, evolve_payload())
        seen = []

        def killed(*args, **kwargs):
            seen.extend(sorted(p.name for p in run.iterdir()))
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "evolve", killed)
        with pytest.raises(KeyboardInterrupt):
            main(["evolve", cfg, "--run-dir", str(run)])
        # the log's header too, and no temporary file
        assert seen == ["config.json", "indices.json", "log.csv"]
        assert json.loads((run / "config.json").read_text())["seed"] == 3
        idx = json.loads((run / "indices.json").read_text())["evolution_indices"]
        assert len(idx) == 240 + 60 + 60

    @pytest.mark.parametrize("stop_after", [0, 2])
    def test_stopped_run_names_its_best(self, tmp_path, monkeypatch, stop_after):
        """best.json and best_spec.json follow each improvement, so a run
        stopped after generation k names the best of log.csv's rows."""
        run = tmp_path / "run"
        payload = evolve_payload(trials=1, threshold=0.0)
        payload["evo"]["generations"] = 5
        breed = evolve_mod._breed
        calls = []

        def stopping(*args):
            calls.append(1)
            if len(calls) > stop_after:
                raise KeyboardInterrupt
            return breed(*args)

        monkeypatch.setattr(evolve_mod, "_breed", stopping)
        with pytest.raises(KeyboardInterrupt):
            main(["evolve", write_cfg(tmp_path, payload), "--run-dir", str(run)])
        _, rows = log_rows(run)
        assert len(rows) == stop_after + 1
        best = json.loads((run / "best.json").read_text())
        assert f"{best['fitness']:.6f}" == max(row[1] for row in rows)
        from optevo.optim import spec_from_json, spec_from_phenotype

        spec = spec_from_json((run / "best_spec.json").read_text())
        assert spec == spec_from_phenotype(best["phenotype"], name="evolved")
        assert sorted(p.name for p in run.iterdir() if p.suffix == ".tmp") == []

    def test_best_spec_is_loadable(self, tmp_path):
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, evolve_payload())
        main(["evolve", cfg, "--run-dir", str(run)])
        from optevo.optim import spec_from_json

        spec = spec_from_json((run / "best_spec.json").read_text())
        assert spec.name == "evolved"

    def test_indices_cover_all_split_rows(self, tmp_path):
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, evolve_payload())
        main(["evolve", cfg, "--run-dir", str(run)])
        payload = json.loads((run / "indices.json").read_text())
        idx = payload["evolution_indices"]
        assert len(idx) == 240 + 60 + 60
        assert len(set(idx)) == len(idx)

    def test_generations_flag_overrides_config(self, tmp_path):
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, evolve_payload())
        main(["evolve", cfg, "--run-dir", str(run), "--generations", "1"])
        _, rows = log_rows(run)
        assert len(rows) == 2

    def test_seed_flag_changes_run(self, tmp_path):
        cfg = write_cfg(tmp_path, evolve_payload())
        a, b = tmp_path / "a", tmp_path / "b"
        main(["evolve", cfg, "--run-dir", str(a)])
        main(["evolve", cfg, "--run-dir", str(b), "--seed", "99"])
        echoed = json.loads((b / "config.json").read_text())
        assert echoed["seed"] == 99
        assert json.loads((a / "config.json").read_text())["seed"] == 3

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        cfg = write_cfg(tmp_path, evolve_payload())
        full, part, resumed = tmp_path / "f", tmp_path / "p", tmp_path / "r"
        assert main(["evolve", cfg, "--run-dir", str(full),
                     "--generations", "4"]) == EXIT_OK
        assert main(["evolve", cfg, "--run-dir", str(part),
                     "--generations", "2"]) == EXIT_OK
        assert main(["evolve", cfg, "--run-dir", str(resumed),
                     "--generations", "4",
                     "--resume", str(part / "checkpoint.json")]) == EXIT_OK
        _, full_rows = log_rows(full)
        _, res_rows = log_rows(resumed)
        strip = lambda rows: [r[:-1] for r in rows]  # seconds column varies
        assert strip(res_rows) == strip(full_rows)  # the whole history
        best_full = json.loads((full / "best.json").read_text())
        best_res = json.loads((resumed / "best.json").read_text())
        assert best_full == best_res

    @pytest.mark.parametrize("grammar", ["alr", "dlr"])
    def test_resume_after_any_generation_writes_the_uninterrupted_files(
            self, tmp_path, monkeypatch, grammar):
        """Stopped after any generation and resumed, a run writes the
        uninterrupted run's best.json and artifact byte for byte. Resumed
        with no generation left, it writes best.json once and the checkpoint
        it came from, byte for byte, so that it can be resumed again."""
        payload, artifact = {"alr": (evolve_payload(), "best_spec.json"),
                             "dlr": (dlr_payload(), "best_policy.txt")}[grammar]
        cfg = write_cfg(tmp_path, payload)
        full = tmp_path / "full"
        assert main(["evolve", cfg, "--run-dir", str(full), "--generations", "3"]) == EXIT_OK
        written = []
        real_write_atomic = cli_mod.write_atomic
        monkeypatch.setattr(cli_mod, "write_atomic", lambda path, text: (
            written.append(Path(path).name), real_write_atomic(path, text)))
        for stop in range(4):
            part, resumed = tmp_path / f"part{stop}", tmp_path / f"resumed{stop}"
            assert main(["evolve", cfg, "--run-dir", str(part),
                         "--generations", str(stop)]) == EXIT_OK
            written.clear()
            assert main(["evolve", cfg, "--run-dir", str(resumed), "--generations", "3",
                         "--resume", str(part / "checkpoint.json")]) == EXIT_OK
            for name in ("best.json", artifact):
                assert (resumed / name).read_bytes() == (full / name).read_bytes()
        assert written.count("best.json") == 1
        assert ((resumed / "checkpoint.json").read_bytes()
                == (part / "checkpoint.json").read_bytes())

    def test_resume_into_crashed_run_dir_logs_each_generation_once(self, tmp_path):
        """A crash between the log append and the checkpoint write leaves a
        log row past the checkpoint; resuming in place must not repeat it."""
        cfg = write_cfg(tmp_path, evolve_payload())
        full, part, crashed = tmp_path / "f", tmp_path / "p", tmp_path / "c"
        assert main(["evolve", cfg, "--run-dir", str(full),
                     "--generations", "4"]) == EXIT_OK
        assert main(["evolve", cfg, "--run-dir", str(part),
                     "--generations", "2"]) == EXIT_OK
        assert main(["evolve", cfg, "--run-dir", str(crashed),
                     "--generations", "3"]) == EXIT_OK
        shutil.copy(part / "checkpoint.json", crashed / "checkpoint.json")
        assert main(["evolve", cfg, "--run-dir", str(crashed),
                     "--generations", "4",
                     "--resume", str(crashed / "checkpoint.json")]) == EXIT_OK
        full_header, full_rows = log_rows(full)
        header, rows = log_rows(crashed)
        assert header == full_header
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]
        strip = lambda rows: [r[:-1] for r in rows]  # seconds column varies
        assert strip(rows) == strip(full_rows)
        assert not (crashed / "log.csv.tmp").exists()

    def test_resume_from_missing_checkpoint_is_data_error(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, evolve_payload())
        ghost = tmp_path / "ghost" / "checkpoint.json"
        assert main(["evolve", cfg, "--resume", str(ghost)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: checkpoint not found")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("content", [
        '{"bad": 1}', "[]", '"text"', "{",
        # a real run's checkpoint with one field of the wrong type
        pytest.param(lambda ck: ck.update(cache=[]), id="cache-list"),
        pytest.param(lambda ck: ck.update(cache={text: str(fitness) for text, fitness
                                                 in ck["cache"].items()}),
                     id="cache-values-text"),
        pytest.param(lambda ck: ck["population"][0].update(fitness="x"), id="fitness-text"),
        pytest.param(lambda ck: ck["population"][0].update(fitness=True), id="fitness-bool"),
        pytest.param(lambda ck: ck.update(generation="0"), id="generation-text"),
        pytest.param(lambda ck: ck.update(next_id="5"), id="next-id-text"),
        pytest.param(lambda ck: ck["best"].update(fitness="x"), id="best-text"),
        pytest.param(lambda ck: ck["stats"][0].update(best="x"), id="stats-text"),
        pytest.param(lambda ck: first_used(ck["population"][0], "a"), id="used-text"),
        pytest.param(lambda ck: first_used(ck["population"][0], -5), id="used-negative"),
        pytest.param(lambda ck: first_used(ck["best"], True), id="best-used-bool"),
        pytest.param(lambda ck: ck["population"][0]["genes"].update(
            {nt: [True] * len(genes) for nt, genes in ck["population"][0]["genes"].items()}),
                     id="genes-bool"),
        pytest.param(lambda ck: ck["best"]["genes"].update(
            {nt: [False] * len(genes) for nt, genes in ck["best"]["genes"].items()}),
                     id="best-genes-bool"),
    ])
    def test_resume_from_malformed_checkpoint_is_data_error(
            self, tmp_path, capsys, monkeypatch, content):
        """Exit 3 before any run directory is made, where a checkpoint of
        the wrong type would fail part way through the resumed run."""
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, evolve_payload())
        bad = tmp_path / "ck.json"
        if callable(content):
            assert main(["evolve", cfg, "--run-dir", str(tmp_path / "p")]) == EXIT_OK
            capsys.readouterr()
            state = json.loads((tmp_path / "p" / "checkpoint.json").read_text())
            assert state["cache"]
            content(state)
            content = json.dumps(state)
        bad.write_text(content)
        assert main(["evolve", cfg, "--resume", str(bad)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"data error: {bad}: not an evolve checkpoint")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("override", [
        ["--seed", "9"],
        ["--population", "4"],
        ["--seed", "9", "--population", "4"],
    ])
    def test_resume_with_other_seed_or_population_is_data_error(
            self, tmp_path, capsys, monkeypatch, override):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, evolve_payload())
        part = tmp_path / "p"
        assert main(["evolve", cfg, "--run-dir", str(part)]) == EXIT_OK
        capsys.readouterr()
        assert main(["evolve", cfg, "--resume", str(part / "checkpoint.json"),
                     *override]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {part / 'checkpoint.json'}: checkpoint has")
        assert "seed 3 and population 5" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("other", ["dlr", "threshold", "trials", "task"])
    def test_resume_of_another_search_is_data_error(
            self, tmp_path, capsys, monkeypatch, other):
        """A checkpoint of an update-rule search resumed under a schedule
        grammar, or under another threshold, trial count or task, exits 3
        before any run directory is made, instead of breeding a mixed run."""
        monkeypatch.chdir(tmp_path)
        part = tmp_path / "p"
        assert main(["evolve", write_cfg(tmp_path, evolve_payload()),
                     "--run-dir", str(part)]) == EXIT_OK
        capsys.readouterr()
        payload = {"dlr": dlr_payload(), "threshold": evolve_payload(threshold=0.7),
                   "trials": evolve_payload(trials=1), "task": evolve_payload()}[other]
        if other == "task":
            payload["task"]["max_epochs"] += 1
        cfg = write_cfg(tmp_path, payload, name="other.json")
        assert main(["evolve", cfg, "--generations", "4",
                     "--resume", str(part / "checkpoint.json")]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {part / 'checkpoint.json'}: checkpoint is of another "
            "search: its grammar, task, trials or threshold differ\n")
        assert not (tmp_path / "runs").exists()

    def test_resume_of_checkpoint_without_search_digest_is_data_error(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, evolve_payload())
        part = tmp_path / "p"
        assert main(["evolve", cfg, "--run-dir", str(part)]) == EXIT_OK
        capsys.readouterr()
        state = json.loads((part / "checkpoint.json").read_text())
        del state["search"]
        (part / "checkpoint.json").write_text(json.dumps(state))
        assert main(["evolve", cfg, "--resume", str(part / "checkpoint.json")]) == EXIT_DATA
        assert capsys.readouterr().err.endswith("checkpoint records no search digest\n")
        assert not (tmp_path / "runs").exists()

    def test_checkpoint_write_failing_part_way_keeps_previous(
            self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, evolve_payload())
        full, crashed, resumed = tmp_path / "f", tmp_path / "c", tmp_path / "r"
        assert main(["evolve", cfg, "--run-dir", str(full),
                     "--generations", "4"]) == EXIT_OK

        real_write_text = Path.write_text
        checkpoint_writes = []

        def disk_full_on_fourth_checkpoint(self, data, *args, **kwargs):
            if self.name.startswith("checkpoint.json"):
                checkpoint_writes.append(self)
                if len(checkpoint_writes) == 4:  # generation 3
                    real_write_text(self, data[: len(data) // 2], *args, **kwargs)
                    raise OSError(errno.ENOSPC, "No space left on device")
            return real_write_text(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", disk_full_on_fourth_checkpoint)
        with pytest.raises(OSError):
            main(["evolve", cfg, "--run-dir", str(crashed), "--generations", "4"])
        monkeypatch.undo()

        assert load_checkpoint(crashed / "checkpoint.json").generation == 2
        assert main(["evolve", cfg, "--run-dir", str(resumed),
                     "--generations", "4",
                     "--resume", str(crashed / "checkpoint.json")]) == EXIT_OK
        assert (json.loads((resumed / "best.json").read_text())
                == json.loads((full / "best.json").read_text()))

    def test_dlr_evolve_writes_policy(self, tmp_path, capsys):
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, dlr_payload())
        assert main(["evolve", cfg, "--run-dir", str(run)]) == EXIT_OK
        policy_text = (run / "best_policy.txt").read_text().strip()
        parse_policy(policy_text)  # must round-trip
        assert not (run / "best_spec.json").exists()

    def test_dlr_evolve_is_not_a_command(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, evolve_payload(grammar="dlr"))
        with pytest.raises(SystemExit) as exc:
            main(["dlr-evolve", cfg, "--run-dir", str(tmp_path / "run")])
        assert exc.value.code == EXIT_CONFIG
        assert "dlr-evolve" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["trials", "threshold"])
    def test_scheduler_grammar_rejects_update_rule_keys(
            self, tmp_path, capsys, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        payload = evolve_payload(grammar="dlr")
        del payload["threshold" if key == "trials" else "trials"]
        cfg = write_cfg(tmp_path, payload)
        assert main(["evolve", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
    def test_scheduler_grammar_rejects_bad_initial_lr(
            self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        payload = evolve_payload(grammar="dlr")
        del payload["trials"], payload["threshold"]
        payload["task"]["initial_lr"] = value
        assert main(["evolve", write_cfg(tmp_path, payload)]) == EXIT_CONFIG
        assert ("config error: config.task.initial_lr: must be finite and > 0"
                in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, payload", [
        ("evolve", evolve_payload), ("tune", tune_payload),
        ("benchmark", bench_payload)])
    def test_initial_lr_needs_a_scheduler_grammar(
            self, tmp_path, capsys, monkeypatch, command, payload):
        monkeypatch.chdir(tmp_path)
        cfg = payload()
        cfg["task"]["initial_lr"] = 0.01
        assert main([command, write_cfg(tmp_path, cfg)]) == EXIT_CONFIG
        assert ("config error: config.task.initial_lr: needs a scheduler grammar"
                in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()


class TestBenchmarkCommand:
    def test_smoke_run_outputs(self, tmp_path, capsys):
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, bench_payload())
        assert main(["benchmark", cfg, "--run-dir", str(run)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "sgd" in out and "adam" in out
        assert (run / "bench_toy.csv").is_file()
        assert (run / "bench_toy.txt").is_file()
        idx = json.loads((run / "indices.json").read_text())
        assert len(idx["test_indices"]) == 60

    def test_killed_run_names_its_config_and_rows(self, tmp_path, monkeypatch):
        """config.json and indices.json are written before the first
        training, so a run that dies in training still names both."""
        run = tmp_path / "run"

        def killed(*args, **kwargs):
            assert sorted(p.name for p in run.iterdir()) == ["config.json",
                                                             "indices.json"]
            raise KeyboardInterrupt

        monkeypatch.setattr(bench_mod, "train_seeded", killed)
        with pytest.raises(KeyboardInterrupt):
            main(["benchmark", write_cfg(tmp_path, bench_payload()),
                  "--run-dir", str(run)])
        assert json.loads((run / "config.json").read_text())["steppers"] == ["sgd", "adam"]
        idx = json.loads((run / "indices.json").read_text())["test_indices"]
        assert len(idx) == 60

    def test_csv_has_one_row_per_repetition(self, tmp_path):
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, bench_payload())
        main(["benchmark", cfg, "--run-dir", str(run)])
        lines = (run / "bench_toy.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == [
            "scenario", "optimizer", "repetition", "val_accuracy", "test_accuracy",
        ]
        assert len(lines) == 1 + 2 * 2  # 2 steppers × 2 repetitions

    def test_unknown_optimizer_name(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, bench_payload(steppers=["sgd", "florp"]))
        assert main(["benchmark", cfg]) == EXIT_CONFIG
        assert "florp" in capsys.readouterr().err

    def test_unknown_named_entry(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, bench_payload(steppers=[{"name": "florp"}])
        )
        assert main(["benchmark", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "florp" in err and "expected one of sgd, momentum," in err

    @pytest.mark.parametrize("entry", ["florp", {"name": "florp"}])
    def test_unknown_optimizer_fails_before_data_load(self, tmp_path, capsys,
                                                      entry):
        payload = bench_payload(steppers=["sgd", entry])
        payload["task"]["dataset"] = {"kind": "idx", "images": "ghost-images",
                                      "labels": "ghost-labels"}
        assert main(["benchmark", write_cfg(tmp_path, payload)]) == EXIT_CONFIG
        assert "unknown built-in optimizer 'florp'" in capsys.readouterr().err

    def test_empty_stepper_list(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, bench_payload(steppers=[]))
        assert main(["benchmark", cfg]) == EXIT_CONFIG
        assert "must not be empty" in capsys.readouterr().err

    @pytest.mark.parametrize("steppers, test_source, warned", [
        (["sgd", {"spec_file": "mine.json"}], "split", True),
        ([{"policy_file": "mine.txt"}], "split", True),
        (["sgd", {"spec_file": "mine.json"}], "reserve", False),
        (["sgd", {"name": "adam"}], "split", False),
    ])
    def test_evolved_rule_on_split_rows_warns(self, tmp_path, capsys, monkeypatch,
                                              steppers, test_source, warned):
        """An evolved rule scored on the split's test rows, which evolution
        scores its fitness on, gets one stderr line pointing to "reserve"."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mine.json").write_text(spec_to_json(builtin("sgd")))
        (tmp_path / "mine.txt").write_text("1.00000000e-02")
        cfg = write_cfg(tmp_path, bench_payload(steppers=steppers, repetitions=1,
                                                test_source=test_source))
        assert main(["benchmark", cfg, "--run-dir", str(tmp_path / "run")]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert err == (['warning: test_source "split" scores evolved rules on the test '
                        'rows that evolution on this task scored them on; "reserve" '
                        'rows it never saw'] if warned else [])

    def test_spec_file_entry(self, tmp_path):
        spec_path = tmp_path / "mine.json"
        spec_path.write_text(spec_to_json(builtin("sgd", HyperParams(lr=0.05))))
        run = tmp_path / "run"
        cfg = write_cfg(
            tmp_path, bench_payload(steppers=[{"spec_file": str(spec_path)}])
        )
        assert main(["benchmark", cfg, "--run-dir", str(run)]) == EXIT_OK

    def test_missing_spec_file_is_data_error(self, tmp_path):
        cfg = write_cfg(
            tmp_path, bench_payload(steppers=[{"spec_file": "ghost.json"}])
        )
        assert main(["benchmark", cfg]) == EXIT_DATA

    @pytest.mark.parametrize("entry, message", [
        ({"name": "adam", "hyperparams": {"lr": 5.0}, "spec_file": "s.json",
          "policy_file": "nope.txt"},
         "set exactly one of name, spec_file, policy_file, "
         "got name, spec_file, policy_file"),
        ({"spec_file": "s.json", "policy_file": "nope.txt"},
         "got spec_file, policy_file"),
        ({"hyperparams": {"lr": 0.5}},
         "set exactly one of name, spec_file, policy_file\n"),
        ({"spec_file": "s.json", "hyperparams": {"lr": 0.5}},
         "config.steppers[1].hyperparams: needs a name, not spec_file"),
        ({"policy_file": "nope.txt", "hyperparams": {}},
         "hyperparams: needs a name, not policy_file"),
    ])
    def test_entry_sets_one_source(self, tmp_path, capsys, monkeypatch, entry,
                                   message):
        """Every key of an entry is read: one of name, spec_file and
        policy_file, and hyperparams only with name. The check comes before
        the files are looked for and before any data load."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.json").write_text(
            spec_to_json(builtin("sgd", HyperParams(lr=0.05))))
        payload = bench_payload(steppers=["sgd", entry])
        payload["task"]["dataset"] = {"kind": "idx", "images": "ghost-images",
                                      "labels": "ghost-labels"}
        assert main(["benchmark", write_cfg(tmp_path, payload)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: config.steppers[1]") and message in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("text, error", [
        ("{}", "KeyError: 'x_func'"),
        ("not json", "JSONDecodeError"),
        (json.dumps({"x_func": "grad", "y_func": "y", "z_func": "z",
                     "weight_func": "subtract(alpha, grad)"}), "SpecValidationError"),
    ])
    def test_malformed_spec_file_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                 text, error):
        """A spec file that is not a valid optimizer spec exits 2, naming its
        entry, before any run directory is made."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text(text)
        payload = bench_payload(steppers=["sgd", {"spec_file": "bad.json"}])
        assert main(["benchmark", write_cfg(tmp_path, payload)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: config.steppers[1]: ") and error in err
        assert not (tmp_path / "runs").exists()

    def test_missing_policy_file_is_data_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, bench_payload(steppers=[{"policy_file": "ghost.txt"}])
        )
        assert main(["benchmark", cfg]) == EXIT_DATA
        assert "data error: policy file not found" in capsys.readouterr().err

    def test_hyperparams_override(self, tmp_path):
        run = tmp_path / "run"
        cfg = write_cfg(
            tmp_path,
            bench_payload(
                steppers=[{"name": "sgd", "hyperparams": {"lr": 0.5}}, "sgd"],
                repetitions=1,
            ),
        )
        assert main(["benchmark", cfg, "--run-dir", str(run)]) == EXIT_OK
        lines = (run / "bench_toy.csv").read_text().strip().splitlines()[1:]
        accs = [float(line.split(",")[3]) for line in lines]
        assert accs[0] != accs[1]  # different lr, different outcome

    def test_bad_hyperparam_name(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            bench_payload(steppers=[{"name": "sgd", "hyperparams": {"speed": 1}}]),
        )
        assert main(["benchmark", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("entry, message", [
        ({"name": "sign", "hyperparams": {"lr": 0.5}}, "sign does not read lr"),
        ({"name": "sgd", "hyperparams": {"mom": 0.1, "lr": 0.5, "rho": 0.5}},
         "sgd does not read mom, rho"),
    ])
    def test_hyperparam_the_builtin_does_not_read(self, tmp_path, capsys, entry,
                                                  message):
        """A hyperparameter the named built-in never reads would be silently
        ignored: it exits 2 before any data load."""
        payload = bench_payload(steppers=["sgd", entry])
        payload["task"]["dataset"] = {"kind": "idx", "images": "ghost-images",
                                      "labels": "ghost-labels"}
        assert main(["benchmark", write_cfg(tmp_path, payload)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: config.steppers[1].hyperparams: {message}\n" in err

    def test_contender_failing_every_repetition(self, tmp_path):
        """Every training of a contender fails: it scores 0 in every CSV row,
        and its generalization rate, 0 over 0, reads n/a in the table."""
        run = tmp_path / "run"
        payload = bench_payload(
            steppers=["sgd", {"name": "sgd", "hyperparams": {"lr": 1e300}}])
        assert main(["benchmark", write_cfg(tmp_path, payload),
                     "--run-dir", str(run)]) == EXIT_OK
        rows = (run / "bench_toy.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[3:] for row in rows[2:]] == [["0.000000", "0.000000"]] * 2
        table = (run / "bench_toy.txt").read_text().splitlines()
        assert table[3].split()[-1] == "n/a" and table[2].endswith("%")

    def test_preset_fills_epoch_defaults(self, tmp_path):
        run = tmp_path / "run"
        payload = bench_payload(preset="II", repetitions=1)
        del payload["epochs"], payload["early_stop"], payload["name"]
        cfg = write_cfg(tmp_path, payload)
        assert main(["benchmark", cfg, "--run-dir", str(run)]) == EXIT_OK
        assert (run / "bench_II.csv").is_file()

    def test_unknown_preset(self, tmp_path):
        cfg = write_cfg(tmp_path, bench_payload(preset="IV"))
        assert main(["benchmark", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("block, key, value", [
        ("top", "batch_size", 7), ("top", "patience", 99),
        ("task", "max_epochs", 1), ("task", "early_stop", True)])
    def test_keys_benchmark_does_not_read(self, tmp_path, capsys, monkeypatch,
                                          block, key, value):
        """The protocol comes from top-level epochs/early_stop/preset and
        task.batch_size/patience; a key that nothing reads is refused."""
        monkeypatch.chdir(tmp_path)
        payload = bench_payload()
        (payload if block == "top" else payload["task"])[key] = value
        assert main(["benchmark", write_cfg(tmp_path, payload)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        if block == "task":
            assert "epochs, early_stop or preset" in err
        assert not (tmp_path / "runs").exists()

    def test_zero_epochs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, bench_payload(epochs=0))
        assert main(["benchmark", cfg]) == EXIT_CONFIG
        assert "config error: config.epochs:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_reserve_test_indices_disjoint_from_evolution(self, tmp_path):
        """Held-back rows never overlap what evolution saw."""
        evo_run = tmp_path / "evo"
        cfg = write_cfg(tmp_path, evolve_payload())
        assert main(["evolve", cfg, "--run-dir", str(evo_run)]) == EXIT_OK

        bench_run = tmp_path / "bench"
        payload = bench_payload(test_source="reserve", repetitions=1)
        payload["task"] = evolve_payload()["task"]  # same data, same split
        del payload["task"]["max_epochs"], payload["task"]["early_stop"]
        bcfg = write_cfg(tmp_path, payload, "bench.json")
        assert main(["benchmark", bcfg, "--run-dir", str(bench_run)]) == EXIT_OK

        evo_idx = set(
            json.loads((evo_run / "indices.json").read_text())["evolution_indices"]
        )
        test_idx = set(
            json.loads((bench_run / "indices.json").read_text())["test_indices"]
        )
        assert test_idx  # 400-row dataset leaves a 40-row reserve
        assert not (evo_idx & test_idx)


class TestTuneCommand:
    def test_smoke_run_outputs(self, tmp_path, capsys):
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, tune_payload())
        assert main(["tune", cfg, "--run-dir", str(run)]) == EXIT_OK
        out = capsys.readouterr().out
        best_line = (run / "best.txt").read_text().strip()
        assert best_line in out
        assert best_line.startswith("sgd | lr=")
        lines = (run / "tune_sgd.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == ["iteration", "lr", "objective"]
        assert len(lines) == 1 + 5

    def test_budget_flag_overrides_config(self, tmp_path):
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, tune_payload())
        assert main(["tune", cfg, "--run-dir", str(run), "--budget", "6"]) == EXIT_OK
        lines = (run / "tune_sgd.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 6

    def test_budget_too_small(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, tune_payload(budget=2))
        assert main(["tune", cfg]) == EXIT_CONFIG
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_killed_run_names_its_config(self, tmp_path, monkeypatch):
        """config.json is written before the search, so a run that dies in
        it still names its config."""
        run = tmp_path / "run"

        def killed(*args, **kwargs):
            assert [p.name for p in run.iterdir()] == ["config.json"]
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "tune", killed)
        with pytest.raises(KeyboardInterrupt):
            main(["tune", write_cfg(tmp_path, tune_payload()), "--run-dir", str(run)])
        cfg = json.loads((run / "config.json").read_text())
        assert cfg["optimizer"] == "sgd" and cfg["budget"] == 5

    def test_unknown_optimizer(self, tmp_path):
        cfg = write_cfg(tmp_path, tune_payload(optimizer="florp"))
        assert main(["tune", cfg]) == EXIT_CONFIG


def outputs(command, run_dir) -> list:
    """The bytes a run writes that do not depend on timing."""
    if command == "evolve":
        _header, rows = log_rows(run_dir)  # the last column is seconds
        return [(run_dir / "best.json").read_bytes(), [row[:-1] for row in rows]]
    pattern = "bench_*.csv" if command == "benchmark" else "tune_*.csv"
    return [path.read_bytes() for path in sorted(run_dir.glob(pattern))]


class TestWorkers:
    """Workers are forked processes that change no output byte; a run that
    does not ask for them maps serially."""

    @pytest.mark.parametrize("command, payload", [
        ("evolve", evolve_payload()), ("benchmark", bench_payload()),
        ("tune", tune_payload(optimizer="adam", budget=40))],  # 8 design points
        ids=["evolve", "benchmark", "tune"])
    def test_outputs_equal_at_any_workers(self, tmp_path, command, payload):
        cfg = write_cfg(tmp_path, payload)
        for seed in (0, 1, 2):
            runs = []
            for workers in (1, 2, 3):
                run = tmp_path / f"s{seed}-w{workers}"
                argv = [command, cfg, "--seed", str(seed), "--workers", str(workers),
                        "--run-dir", str(run)]
                assert main(argv) == EXIT_OK
                runs.append(outputs(command, run))
            assert runs[0] and runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("command, payload", [
        ("evolve", evolve_payload), ("benchmark", bench_payload),
        ("tune", tune_payload)])
    def test_default_is_one_worker(self, tmp_path, monkeypatch, command, payload):
        asked = []

        def spy(fn, items, workers):
            asked.append(workers)
            return parallel_map(fn, items, workers)

        for module in (evolve_mod, bench_mod, hyperopt_mod):
            monkeypatch.setattr(module, "parallel_map", spy)
        cfg = payload()
        del cfg["workers"]
        argv = [command, write_cfg(tmp_path, cfg), "--run-dir", str(tmp_path / "run")]
        assert main(argv) == EXIT_OK
        assert asked and set(asked) == {1}


class TestProcessSetting:
    @pytest.mark.parametrize("command, payload", [
        ("evolve", evolve_payload), ("tune", tune_payload),
        ("benchmark", bench_payload)])
    def test_freed_memory_kept_once_per_run(self, tmp_path, monkeypatch, command,
                                            payload):
        """`main` makes the process's allocator setting once per command,
        whatever the command trains."""
        calls = []
        monkeypatch.setattr(cli_mod, "_keep_freed_memory", lambda: calls.append(1))
        argv = [command, write_cfg(tmp_path, payload()), "--run-dir", str(tmp_path / "run")]
        assert main(argv) == EXIT_OK
        assert len(calls) == 1


def dlr_payload():
    payload = evolve_payload(grammar="dlr")
    del payload["trials"], payload["threshold"]
    payload["task"]["split"] = {"train_total": 180, "per_trial": 180,
                                "trial_count": 1, "validation": 60, "test": 60}
    return payload


class TestRunFiles:
    """`cli` writes every run file whole, through `write_atomic` (the
    checkpoint through `save_checkpoint`, which uses it too), and appends
    only log.csv's rows, after its header."""

    @pytest.mark.parametrize("command, payload", [
        ("evolve", evolve_payload), ("evolve", dlr_payload),
        ("benchmark", bench_payload), ("tune", tune_payload)],
        ids=["evolve-alr", "evolve-dlr", "benchmark", "tune"])
    def test_every_file_is_written_whole(self, tmp_path, monkeypatch, command, payload):
        run = tmp_path / "run"
        whole = set()
        real_write_atomic = evolve_mod.write_atomic

        def recording(path, text):
            whole.add(Path(path).name)
            real_write_atomic(path, text)

        for module in (cli_mod, evolve_mod):
            monkeypatch.setattr(module, "write_atomic", recording)
        argv = [command, write_cfg(tmp_path, payload()), "--run-dir", str(run)]
        assert main(argv) == EXIT_OK
        names = {p.name for p in run.iterdir()}
        assert names == whole
        assert not [name for name in names if name.endswith(".tmp")]

    def test_bench_csv_write_failing_part_way_leaves_none(self, tmp_path, monkeypatch):
        run = tmp_path / "run"
        real_write_text = Path.write_text

        def disk_full_on_bench_csv(self, data, *args, **kwargs):
            if self.name.startswith("bench_") and ".csv" in self.name:
                real_write_text(self, data[: len(data) // 2], *args, **kwargs)
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write_text(self, data, *args, **kwargs)

        cfg = write_cfg(tmp_path, bench_payload())
        monkeypatch.setattr(Path, "write_text", disk_full_on_bench_csv)
        with pytest.raises(OSError):
            main(["benchmark", cfg, "--run-dir", str(run)])
        monkeypatch.undo()
        assert sorted(run.glob("bench_*.csv")) == []
        assert sorted(run.glob("*.tmp")) == []  # nor the half-written temporary file


class TestConfigRoundTrip:
    """A run's config.json is its config resolved, defaults and flags
    applied: rerunning it writes the same outputs and the same config.json."""

    @pytest.mark.parametrize("command, payload, flags", [
        ("evolve", evolve_payload(), ["--generations", "1", "--population", "4"]),
        ("evolve", dlr_payload(), ["--generations", "1", "--population", "4"]),
        ("benchmark", bench_payload(preset="II"), ["--repetitions", "1"]),
        ("tune", tune_payload(), ["--budget", "6"])],
        ids=["evolve-alr", "evolve-dlr", "benchmark", "tune"])
    def test_rerun_from_config_json(self, tmp_path, command, payload, flags):
        first, again = tmp_path / "first", tmp_path / "again"
        argv = [command, write_cfg(tmp_path, payload), "--seed", "4", *flags]
        assert main([*argv, "--run-dir", str(first)]) == EXIT_OK
        rerun = [command, str(first / "config.json"), "--run-dir", str(again)]
        assert main(rerun) == EXIT_OK
        assert outputs(command, again) == outputs(command, first)
        assert ((again / "config.json").read_bytes()
                == (first / "config.json").read_bytes())
        echoed = json.loads((first / "config.json").read_text())
        assert echoed["seed"] == 4 and echoed["workers"] == 1
        assert "max_epochs" in echoed["task"] or command == "benchmark"
        assert ("initial_lr" in echoed["task"]) == (payload.get("grammar") == "dlr")
        assert ("trials" in echoed) == (payload.get("grammar") == "alr")


    def test_rerun_from_another_directory(self, tmp_path, monkeypatch):
        """config.json names spec, policy and grammar files by absolute
        path: a run whose config names them relative to its directory reruns
        from a sibling one."""
        home, sibling = tmp_path / "home", tmp_path / "sibling"
        home.mkdir()
        sibling.mkdir()
        (home / "rule.json").write_text(spec_to_json(builtin("momentum")))
        (home / "sched.txt").write_text("if(epoch < 1.0, 0.1, 0.01)\n")
        (home / "my.bnf").write_text(serialize_grammar(load_shipped_grammar("alr")))
        bench = bench_payload(repetitions=1, steppers=[
            "sgd", {"spec_file": "rule.json"}, {"policy_file": "sched.txt"}])
        evolve_cfg = evolve_payload(grammar="my.bnf")
        evolve_cfg["evo"].update(population=4, generations=1)
        for command, payload in (("benchmark", bench), ("evolve", evolve_cfg)):
            first, again = tmp_path / f"{command}-first", tmp_path / f"{command}-again"
            monkeypatch.chdir(home)
            assert main([command, write_cfg(home, payload), "--run-dir", str(first)]) == EXIT_OK
            monkeypatch.chdir(sibling)
            rerun = [command, str(first / "config.json"), "--run-dir", str(again)]
            assert main(rerun) == EXIT_OK
            assert outputs(command, again) == outputs(command, first)
        echoed = json.loads((tmp_path / "benchmark-first" / "config.json").read_text())
        assert echoed["steppers"] == ["sgd", {"spec_file": str(home / "rule.json")},
                                      {"policy_file": str(home / "sched.txt")}]


class TestEvolveThenBenchmark:
    """README's route from `evolve` to `benchmark`: the run's best rule
    (best_spec.json) and best schedule (best_policy.txt) score on reserve
    rows, which no evolve run on the same task and seed ever saw."""

    def test_evolved_entries_score_on_rows_evolution_never_saw(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        alr, dlr = tmp_path / "alr", tmp_path / "dlr"
        for payload, generations, run in ((evolve_payload(), "1", alr),
                                          (dlr_payload(), "0", dlr)):
            argv = ["evolve", write_cfg(tmp_path, payload), "--generations", generations,
                    "--run-dir", str(run)]
            assert main(argv) == EXIT_OK
        task = evolve_payload()["task"]  # the alr run's rows, split and seed
        del task["max_epochs"], task["early_stop"]
        spec, policy = alr / "best_spec.json", dlr / "best_policy.txt"
        bench = bench_payload(seed=3, repetitions=1, test_source="reserve", task=task,
                              steppers=["sgd", {"spec_file": str(spec)},
                                        {"policy_file": str(policy)}])
        runs = [tmp_path / "bench", tmp_path / "bench-again"]
        for run in runs:
            assert main(["benchmark", write_cfg(tmp_path, bench), "--run-dir", str(run)]) == EXIT_OK
        rows = (runs[0] / "bench_toy.csv").read_text().splitlines()[1:]
        names = [bench_mod.make_entry(item)[0] for item in (
            "sgd", spec_from_json(spec.read_text()), parse_policy(policy.read_text().strip()))]
        assert [row.split(",")[1] for row in rows] == names
        tested = set(json.loads((runs[0] / "indices.json").read_text())["test_indices"])
        assert len(tested) == 40  # 400 rows, 360 of them in the split
        for run in (alr, dlr):
            seen = json.loads((run / "indices.json").read_text())["evolution_indices"]
            assert seen and not tested & set(seen)
        assert (runs[1] / "bench_toy.csv").read_bytes() == (runs[0] / "bench_toy.csv").read_bytes()


class TestRunDir:
    def test_timestamp_and_seed_in_name(self, tmp_path):
        run = make_run_dir(tmp_path, seed=42)
        assert run.is_dir()
        assert run.name.endswith("_s42")

    def test_collision_gets_suffix(self, tmp_path):
        a = make_run_dir(tmp_path, seed=7)
        b = make_run_dir(tmp_path, seed=7)
        assert a != b
        assert b.is_dir()

    def test_pinned_dir_wins(self, tmp_path):
        target = tmp_path / "exact"
        run = make_run_dir(tmp_path, seed=0, pinned=target)
        assert run == target and target.is_dir()
