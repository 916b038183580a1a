"""Every setting of ``RunConfig`` is read by the package: a field that no module outside ``config.py`` reads as an
attribute is a knob that changes nothing, and belongs in a constant or nowhere."""

import ast
import dataclasses
from pathlib import Path

import pytest

from sca_stereo.config import RunConfig

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sca_stereo"
SOURCES = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "config.py"]


def _attributes_read(path: Path) -> set[str]:
    """The name of every attribute that ``path`` loads, as in ``config.n_scales``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


READ = set().union(*map(_attributes_read, SOURCES))


def test_sources_are_the_package_without_config():
    assert PACKAGE / "training.py" in SOURCES
    assert PACKAGE / "config.py" not in SOURCES


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)])
def test_config_field_is_read_outside_config(name):
    assert name in READ, f"no module outside config.py reads RunConfig.{name}"
