"""The README's commands, config keys and paper-to-code names, and the package's exports, exist in the package."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from sca_stereo import cli
from sca_stereo.config import load_config

README = (Path(__file__).parent.parent / "README.md").read_text()


def _fenced(lang):
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)
    assert len(blocks) == 1, f"expected one ```{lang} block"
    return blocks[0]


COMMANDS = [shlex.split(line) for line in _fenced("sh").splitlines() if line.strip()]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[3] for argv in COMMANDS])
def test_cli_block_parses(argv):
    assert argv[0] == "sca-stereo"
    cli._build_parser().parse_args(argv[1:])  # a renamed command or flag exits with status 2


def test_cli_block_covers_every_stage():
    assert [argv[3] for argv in COMMANDS] == ["gen-data", "pretrain", "train-translator", "adapt", "evaluate", "translate"]


def test_config_block_loads(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(_fenced("ini"))
    config = load_config(path)
    assert (config.image_height, config.image_width) == (16, 32)


def test_paper_to_code_table_names_resolve():
    rows = [line for line in README.splitlines() if line.startswith("| ") and "`" in line]
    names = [name for row in rows for name in re.findall(r"`(\w+\.\w+)`", row.rsplit("|", 2)[1])]
    assert len(rows) >= 10 and len(names) >= len(rows)
    for name in names:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"sca_stereo.{module}"), attr, None)), name


def test_every_export_resolves():
    package = importlib.import_module("sca_stereo")
    assert package.__all__ and all(hasattr(package, name) for name in package.__all__)
