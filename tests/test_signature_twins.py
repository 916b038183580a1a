"""No parameter in ``src/sca_stereo`` is a twin of another: a parameter to which every call in the package passes
the same argument expression as to an earlier parameter of that call always holds that parameter's value, and
should go.

Calls are matched to definitions by their last name and splats are read as in ``test_signature_defaults``. A call
whose splat hides an argument, or that leaves either parameter to its default, tells the two apart; so does a
function that no call in the package reaches. All three err toward "distinct".
"""

import ast

from test_signature_defaults import _UNKNOWN, PACKAGE, _calls, _definitions

# (module, function or class, parameter, its earlier twin) kept although every call passes both the same expression
ALLOWED: set[tuple[str, str, str, str]] = set()


def _signatures(tree: ast.Module, module: str):
    """``(module, called name, [(parameter, positional index or None), ...])`` of every function definition."""
    for called, node, skip in _definitions(tree):
        positional = node.args.posonlyargs + node.args.args
        params = [(arg.arg, index - skip) for index, arg in enumerate(positional) if index >= skip]
        yield module, called, params + [(arg.arg, None) for arg in node.args.kwonlyargs]


def _argument(call, param: str, index: int | None) -> str | None:
    """The ``ast.dump`` of the expression ``call`` passes to ``param``; None where it passes none or hides it."""
    _, args, keywords = call
    if args is None or keywords is None:
        return None
    node = keywords.get(param, args[index] if index is not None and index < len(args) else None)
    return None if node is None or node is _UNKNOWN else ast.dump(node)


def _twins(trees: dict[str, ast.Module]) -> list[tuple[str, str, str, str]]:
    calls, signatures = [], []
    for module, tree in trees.items():
        calls += _calls(tree)
        signatures += list(_signatures(tree, module))
    by_name: dict[str, list] = {}
    for call in calls:
        by_name.setdefault(call[0], []).append(call)
    found = []
    for module, called, params in signatures:
        sites = by_name.get(called, [])
        for k, (param, index) in enumerate(params):
            for twin, twin_index in params[:k]:
                passed = [(_argument(call, param, index), _argument(call, twin, twin_index)) for call in sites]
                if passed and all(a is not None and a == b for a, b in passed):
                    found.append((module, called, param, twin))
                    break
    return found


def _package_twins() -> list[tuple[str, str, str, str]]:
    return _twins({path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))})


def test_the_walk_finds_twins():
    source = ast.parse(
        "PAIR = (1, 2)\n"
        "def f(a, b, c, *, d=0):\n    pass\n"
        "def g(a, b=1, c=1):\n    pass\n"
        "def h(a, b):\n    pass\n"
        "def unused(a, b):\n    pass\n"
        "class K:\n    def __init__(self, x, y):\n        pass\n"
        "f(x, y, y, d=x)\nf(z + 1, w, c=w, d=z + 1)\n"
        "g(0)\ng(0, 2, 2)\n"
        "h(*PAIR)\nh(*PAIR)\n"
        "K(n, n)\nK(n, m)\n"
    )
    assert _twins({"m": source}) == [("m", "f", "c", "b"), ("m", "f", "d", "a")]


def test_no_parameter_is_a_twin():
    twins = sorted(set(_package_twins()) - ALLOWED)
    assert twins == [], "parameters that every call in the package passes the same expression as another: " + ", ".join(
        f"{module}.{called}({param} = {twin})" for module, called, param, twin in twins
    )


def test_allow_list_names_only_twins():
    assert ALLOWED <= set(_package_twins())
