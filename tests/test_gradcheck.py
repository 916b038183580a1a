import ast
import sys
from pathlib import Path

import sca_stereo
from sca_stereo import autodiff as ad
from sca_stereo import gradcheck


def _result_callers() -> set[tuple[str, str]]:
    """(file name, function name) of every package function whose own body calls ``_result``."""
    callers = set()
    for path in sorted(Path(sca_stereo.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            stack = list(fn.body)
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                    continue  # a nested function is a caller of its own
                if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_result":
                    callers.add((path.name, fn.name))
                stack.extend(ast.iter_child_nodes(node))
    return callers


def test_only_autodiff_accumulates_gradients():
    referrers = set()
    for path in sorted(Path(sca_stereo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if getattr(node, "id", getattr(node, "attr", "")).startswith("_accumulate"):
                referrers.add(path.name)
    assert referrers == {"autodiff.py"}


def test_battery_reaches_every_op_that_records_a_tape_node(monkeypatch):
    built = [case.build(0) for case in gradcheck.registered_cases()]
    reached = set()
    original = ad._result

    def recording(data, parents, backward_fn):
        code = sys._getframe(1).f_code
        reached.add((Path(code.co_filename).name, code.co_name))
        return original(data, parents, backward_fn)

    monkeypatch.setattr(ad, "_result", recording)
    for fn, inputs, *_ in built:
        fn(*inputs)
    callers = _result_callers()
    assert ("autodiff.py", "shifted_dot") in callers  # the scan finds both call styles
    assert ("translation.py", "downsample_avg2") in callers
    assert callers - reached == set()
