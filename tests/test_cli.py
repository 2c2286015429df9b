"""Command-line behavior: config validation, exit codes, outputs, resume."""

import errno
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
    grammar_health_checks,
    main,
    make_run_dir,
)
from optevo.evolve import load_checkpoint
from optevo.grammar import load_shipped_grammar, serialize_grammar
from optevo.optim import HyperParams, builtin, spec_to_json
from optevo.sched import parse_policy


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

    def test_health_checks_structurally_sound(self):
        checks = grammar_health_checks(load_shipped_grammar("alr"))
        names = [name for name, _, _ in checks]
        assert len(names) == len(set(names)) == 9
        assert all(ok for _, ok, _ in checks)


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
        assert echoed["resolved_seed"] == 99
        assert json.loads((a / "config.json").read_text())["resolved_seed"] == 3

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

    @pytest.mark.parametrize("content", ['{"bad": 1}', "[]", '"text"', "{"])
    def test_resume_from_malformed_checkpoint_is_data_error(
            self, tmp_path, capsys, monkeypatch, content):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, evolve_payload())
        bad = tmp_path / "ck.json"
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

        generation, *_ = load_checkpoint(crashed / "checkpoint.json")
        assert generation == 2
        assert main(["evolve", cfg, "--run-dir", str(resumed),
                     "--generations", "4",
                     "--resume", str(crashed / "checkpoint.json")]) == EXIT_OK
        assert (json.loads((resumed / "best.json").read_text())
                == json.loads((full / "best.json").read_text()))

    def test_dlr_evolve_writes_policy(self, tmp_path, capsys):
        run = tmp_path / "run"
        payload = evolve_payload(grammar="dlr")
        del payload["trials"], payload["threshold"]
        payload["task"]["split"] = {
            "train_total": 180,
            "per_trial": 180,
            "trial_count": 1,
            "validation": 60,
            "test": 60,
        }
        cfg = write_cfg(tmp_path, payload)
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
        assert "florp" in capsys.readouterr().err

    def test_empty_stepper_list(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, bench_payload(steppers=[]))
        assert main(["benchmark", cfg]) == EXIT_CONFIG
        assert "must not be empty" in capsys.readouterr().err

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

    def test_reserve_test_indices_disjoint_from_evolution(self, tmp_path):
        """Held-back rows never overlap what evolution saw."""
        evo_run = tmp_path / "evo"
        cfg = write_cfg(tmp_path, evolve_payload())
        assert main(["evolve", cfg, "--run-dir", str(evo_run)]) == EXIT_OK

        bench_run = tmp_path / "bench"
        payload = bench_payload(test_source="reserve", repetitions=1)
        payload["task"] = evolve_payload()["task"]  # same data, same split
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

    def test_unknown_optimizer(self, tmp_path):
        cfg = write_cfg(tmp_path, tune_payload(optimizer="florp"))
        assert main(["tune", cfg]) == EXIT_CONFIG


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
