"""Every shipped config under configs/ runs through the CLI as documented."""

import json
from pathlib import Path

import pytest

from optevo.cli import DATA_DIR_ENV, EXIT_DATA, EXIT_OK, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# config stem -> the command that runs it and the flags that shrink it to a
# smoke run
QUICK = {
    "evolve-alr": ["evolve", "--generations", "0"],
    "evolve-dlr": ["evolve", "--generations", "0"],
    "benchmark": ["benchmark", "--repetitions", "1"],
    "tune-adam": ["tune", "--budget", "8"],  # 5 Sobol points, then 3 GP proposals
}


def test_every_config_has_a_command():
    stems = {p.stem.removesuffix("-paper") for p in CONFIGS.glob("*.json")}
    assert stems == set(QUICK)


@pytest.mark.parametrize("stem", sorted(QUICK))
def test_quick_config_runs(stem, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    command, *flags = QUICK[stem]
    argv = [command, str(CONFIGS / f"{stem}.json"), *flags,
            "--workers", "1", "--run-dir", str(tmp_path / "run")]
    assert main(argv) == EXIT_OK
    assert (tmp_path / "run" / "config.json").is_file()


def test_scheduler_config_scores_its_schedules(tmp_path):
    run = tmp_path / "run"
    argv = ["evolve", str(CONFIGS / "evolve-dlr.json"), "--generations", "0",
            "--population", "6", "--workers", "1", "--run-dir", str(run)]
    assert main(argv) == EXIT_OK
    assert json.loads((run / "best.json").read_text())["fitness"] > 0
    echoed = json.loads((run / "config.json").read_text())
    assert echoed["grammar"] == "dlr" and "trials" not in echoed
    assert (run / "best_policy.txt").is_file()
    assert not (run / "best_spec.json").exists()


@pytest.mark.parametrize("stem", sorted(QUICK))
def test_paper_config_asks_for_image_data(stem, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    empty = tmp_path / "data"
    empty.mkdir()
    monkeypatch.setenv(DATA_DIR_ENV, str(empty))
    command = QUICK[stem][0]
    assert main([command, str(CONFIGS / f"{stem}-paper.json")]) == EXIT_DATA
    assert "data file not found" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
