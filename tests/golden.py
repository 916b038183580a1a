"""Golden outputs of the tiny CLI pipeline that ``test_cli`` runs.

``tiny_pipeline.json`` holds the exact text of every loss log, the evaluate
CSV and ``consistency.csv``, the sha256 of each checkpoint the pipeline
writes, and the numpy and BLAS versions that wrote them. Low-order bits
depend on both, so a run under other versions is not compared. A change that
moves low-order bits on purpose regenerates the file; the script prints each
file's drift (:func:`drift`) and each changed checkpoint before it writes:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np

from sca_stereo.cli import main

GOLDEN = Path(__file__).with_name("tiny_pipeline.json")

FILES = (
    "pretrain_loss.csv",
    "pretrain_val.csv",
    "translator_loss.csv",
    "adapt_loss.csv",
    "evaluate_target_test.csv",
    "consistency.csv",
)

CHECKPOINTS = ("matcher.ckpt", "translator.ckpt", "matcher_adapted.ckpt")


def versions() -> dict[str, str]:
    blas = {}
    with contextlib.suppress(Exception):  # the config API differs across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()}


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def version_mismatch(golden: dict) -> str | None:
    """Why a run here cannot be compared with ``golden``, or None if it can."""
    here = versions()
    diff = [f"{k} {golden[k]!r} (golden) vs {here[k]!r}" for k in here if golden[k] != here[k]]
    return "golden values were made under other versions: " + "; ".join(diff) if diff else None


def drift(run: dict[str, str], golden: dict[str, str]) -> dict[str, tuple[int, float]]:
    """Per file of FILES: how many of its comma- or space-separated values differ from golden, and the largest
    relative drift among them (inf when a differing value is not a number, or the files differ in length)."""
    report = {}
    for name in FILES:
        ours, theirs = (re.split(r"[,\s]+", texts.get(name, "").strip()) for texts in (run, golden))
        moved, largest = abs(len(ours) - len(theirs)), math.inf if len(ours) != len(theirs) else 0.0
        for a, b in zip(ours, theirs):
            if a == b:
                continue
            moved += 1
            try:
                x, y = float(a), float(b)
            except ValueError:
                largest = math.inf
                continue
            largest = max(largest, abs(x - y) / max(abs(x), abs(y)))
        report[name] = (moved, largest)
    return report


def describe(report: dict[str, tuple[int, float]]) -> str:
    """One line per file of a :func:`drift` report."""
    lines = (f"{name}: {moved} values moved, largest relative drift {top:.2g}" for name, (moved, top) in report.items())
    return "\n".join(lines)


def run_pipeline(cfg_path: Path) -> dict[str, dict[str, str]]:
    """Every CLI stage once on the config at ``cfg_path``, whose directories lie beside it: ``files`` maps each of
    FILES to its text, ``checkpoints`` each of CHECKPOINTS to the sha256 of its bytes."""
    base = cfg_path.parent
    cfg = ["--config", str(cfg_path)]
    g_ckpt = str(base / "ckpt" / "translator.ckpt")
    for args in (
        ["gen-data"],
        ["pretrain"],
        ["train-translator"],
        ["adapt", "--translator-ckpt", g_ckpt, "--matcher-ckpt", str(base / "ckpt" / "matcher.ckpt")],
        ["evaluate", "--matcher-ckpt", str(base / "ckpt" / "matcher_adapted.ckpt"), "--split", "target_test"],
        ["translate", "--translator-ckpt", g_ckpt, "--sample-ids", "0", "2"],
    ):
        if main(cfg + args) != 0:
            raise RuntimeError(f"stage {args[0]} failed")
    return {
        "files": {name: (base / "out" / name).read_text() for name in FILES},
        "checkpoints": {name: hashlib.sha256((base / "ckpt" / name).read_bytes()).hexdigest() for name in CHECKPOINTS},
    }


def regenerate() -> None:
    from test_cli import tiny_config_text

    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "run.cfg"
        cfg_path.write_text(tiny_config_text(tmp))
        run = run_pipeline(cfg_path)
    if GOLDEN.exists():
        old = load()
        print(describe(drift(run["files"], old["files"])))
        before = old.get("checkpoints", {})
        for name, digest in run["checkpoints"].items():
            print(f"{name}: {'new' if name not in before else 'unchanged' if before[name] == digest else 'changed'}")
    else:
        print(f"no {GOLDEN.name} yet")
    GOLDEN.write_text(json.dumps({**versions(), **run}, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
