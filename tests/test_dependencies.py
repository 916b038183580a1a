"""numpy is the package's only runtime dependency: every import in ``src/sca_stereo`` names the standard
library, numpy, or the package itself (a relative import)."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sca_stereo"


def _absolute_imports(path: Path) -> list[str]:
    """The top-level module of every absolute import in ``path``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_numpy_is_the_only_runtime_dependency():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "__init__.py" in sources
    imported = {(path.name, name) for path in sources for name in _absolute_imports(path)}
    assert ("autodiff.py", "numpy") in imported
    allowed = sys.stdlib_module_names | {"numpy"}
    assert sorted((file, name) for file, name in imported if name not in allowed) == []
