"""Every JSON config block in README.md runs as documented."""

import re
from pathlib import Path

import pytest

from optevo.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
JSON_BLOCKS = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_json_blocks():
    assert JSON_BLOCKS


@pytest.mark.parametrize(
    "block", JSON_BLOCKS, ids=[f"block{i}" for i in range(len(JSON_BLOCKS))]
)
def test_json_block_runs_as_evolve_config(block, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(block, encoding="utf-8")
    argv = ["evolve", str(config), "--generations", "0",
            "--run-dir", str(tmp_path / "run")]
    assert main(argv) == 0
