import ast
import sys
from pathlib import Path

import numpy as np
import pytest

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
    checks = [make(np.random.default_rng(0)) for make in gradcheck.CASES.values()]
    reached = set()
    original = ad._result

    def recording(data, parents, backward_fn):
        code = sys._getframe(1).f_code
        reached.add((Path(code.co_filename).name, code.co_name))
        return original(data, parents, backward_fn)

    monkeypatch.setattr(ad, "_result", recording)
    for op, inputs, _ in checks:
        op(*inputs)
    callers = _result_callers()
    assert ("autodiff.py", "shifted_dot") in callers  # the scan finds both call styles
    assert ("losses.py", "smooth_l1") in callers
    assert callers - reached == set()


# Each mutant below is a wrong vjp that is right whenever the output gradient
# is constant, so only a random cotangent tells it from the real op.


def _reversed_output_grad(op, axes):
    """``op`` with the gradient of each of its outputs reversed along ``axes`` before its vjps."""

    def mutant(*inputs):
        outs = op(*inputs)
        reverse = lambda out: ad._result(out.data, (out,), (lambda g: np.flip(g, axes),))
        return [reverse(o) for o in outs] if isinstance(outs, list) else reverse(outs)

    return mutant


MUTANTS = [
    ("conv2d", lambda op: _reversed_output_grad(op, (1, 2))),
    ("conv2d_strided", lambda op: _reversed_output_grad(op, (1, 2))),
    ("conv2d_per_tap", lambda op: _reversed_output_grad(op, (1, 2))),
    ("conv2d_per_tap_vjp_strided", lambda op: _reversed_output_grad(op, (1, 2))),
    ("shifted_dot", lambda op: _reversed_output_grad(op, 1)),
    ("shifted_weighted_sum", lambda op: _reversed_output_grad(op, 1)),
    ("box_filter3", lambda op: _reversed_output_grad(op, (1, 2))),
    ("downsample_avg2", lambda op: _reversed_output_grad(op, (1, 2))),
    ("upsample_bilinear2", lambda op: _reversed_output_grad(op, (1, 2))),
    ("conv2d_1x1", lambda op: _reversed_output_grad(op, (1, 2))),
    ("sca_cross_attend_weights", lambda op: _reversed_output_grad(op, (1, 2))),
]


@pytest.mark.parametrize("name, mutate", MUTANTS, ids=[name for name, _ in MUTANTS])
def test_row_fails_a_mutant_right_only_for_constant_gradients(name, mutate):
    make = gradcheck.CASES[name]

    def mutated(rng):
        check = make(rng)
        return check._replace(op=mutate(check.op))

    for seed in (0, 1, 2):
        assert gradcheck.run_case(make, seed) <= 1e-5
        assert gradcheck.run_case(mutated, seed) > 1e-5
