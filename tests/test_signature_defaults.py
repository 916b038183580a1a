"""Every parameter default in ``src/sca_stereo`` is a value some caller varies: a parameter that no call in the
package passes, by keyword or by position, or that every call passes as the default's own literal, always holds
its default, and belongs in a module constant.

Calls are matched to definitions by their last name (``ad.leaky_relu(x)`` and ``leaky_relu(x)`` both call
``leaky_relu``; ``AdamState(...)`` calls ``AdamState.__init__``), so a name that two definitions share counts the
calls of both. A ``*args`` splat of a module-level tuple literal passes as many positionals as the tuple holds;
any other splat passes everything it could reach. All three err toward "varied".
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sca_stereo"

# (module, function or class, parameter) defaults kept although no call in the package varies them
ALLOWED = {
    ("cli", "main", "argv"),  # the console entry point runs main() on sys.argv; tests pass argv
}

_UNKNOWN = ast.Name(id="<splat>")  # stands for an argument whose value the walk cannot see


def _literal(node: ast.AST):
    """The value of a constant expression such as ``0.2`` or ``-1.0``, else ``_UNKNOWN``."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _UNKNOWN


def _tuple_lengths(tree: ast.Module) -> dict[str, int]:
    """Module-level names bound to a tuple literal, with its length."""
    return {
        target.id: len(node.value.elts)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _calls(tree: ast.Module) -> list[tuple[str, list[ast.AST] | None, dict[str, ast.AST] | None]]:
    """``(called name, positional args, keyword args)`` of every call; None where a splat hides what follows."""
    tuples = _tuple_lengths(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name is None:
            continue
        args: list[ast.AST] | None = []
        for a in node.args:
            if not isinstance(a, ast.Starred):
                args.append(a)
            elif isinstance(a.value, ast.Name) and a.value.id in tuples:
                args += [_UNKNOWN] * tuples[a.value.id]
            else:
                args = None
                break
        keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg is not None}
        found.append((name, args, None if any(kw.arg is None for kw in node.keywords) else keywords))
    return found


def _definitions(tree: ast.Module):
    """``(called name, definition, count of leading self/cls parameters)`` of every function definition."""
    classes = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        positional = node.args.posonlyargs + node.args.args
        skip = 1 if id(node) in classes and positional and positional[0].arg in ("self", "cls") else 0
        yield classes[id(node)] if node.name == "__init__" and id(node) in classes else node.name, node, skip


def _defaulted(tree: ast.Module, module: str):
    """``(module, called name, parameter, positional index or None, default)`` of every defaulted parameter."""
    for called, node, skip in _definitions(tree):
        args = node.args
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        for index, (arg, default) in enumerate(zip(positional[first_default:], args.defaults), first_default):
            yield module, called, arg.arg, index - skip, default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield module, called, arg.arg, None, default


def _varies(value: ast.AST, default: ast.AST) -> bool:
    fixed = _literal(default)
    return fixed is _UNKNOWN or _literal(value) is _UNKNOWN or _literal(value) != fixed


def _passed(call, param: str, index: int | None, default: ast.AST) -> bool:
    _, args, keywords = call
    if args is None or keywords is None:
        return True
    if param in keywords:
        return _varies(keywords[param], default)
    return index is not None and index < len(args) and _varies(args[index], default)


def _never_varied() -> list[tuple[str, str, str]]:
    calls, defaulted = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += _calls(tree)
        defaulted += list(_defaulted(tree, path.stem))
    by_name: dict[str, list] = {}
    for call in calls:
        by_name.setdefault(call[0], []).append(call)
    return [
        (module, called, param)
        for module, called, param, index, default in defaulted
        if not any(_passed(call, param, index, default) for call in by_name.get(called, []))
    ]


def test_the_walk_sees_calls_and_defaults():
    source = ast.parse(
        "PAIR = (1, 2)\n"
        "def f(a, b=1, *, c=2):\n    pass\n"
        "class K:\n    def __init__(self, x=0, y=0.5):\n        pass\n"
        "f(0, 1, c=3)\nK(*PAIR)\nK(y=0.5)\n"
    )
    defaulted = [(called, param, index) for _, called, param, index, _ in _defaulted(source, "m")]
    assert defaulted == [("f", "b", 1), ("f", "c", None), ("K", "x", 0), ("K", "y", 1)]
    calls = {name: (args, keywords) for name, args, keywords in _calls(source)}
    assert len(calls["f"][0]) == 2 and set(calls["f"][1]) == {"c"}
    f_call = ("f", *calls["f"])
    assert not _passed(f_call, "b", 1, ast.Constant(1))  # the default's own literal
    assert _passed(f_call, "c", None, ast.Constant(2))
    k_splat = next(c for c in _calls(source) if c[0] == "K" and not c[2])
    assert _passed(k_splat, "y", 1, ast.Constant(0.5)) and len(k_splat[1]) == 2


def test_every_default_is_varied_by_some_caller():
    unused = sorted(set(_never_varied()) - ALLOWED)
    assert unused == [], "parameters that no caller in the package sets to another value: " + ", ".join(
        f"{module}.{called}({param})" for module, called, param in unused
    )


def test_allow_list_names_only_unvaried_defaults():
    assert ALLOWED <= set(_never_varied())
