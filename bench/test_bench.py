"""Tests of the benchmark itself, at a tiny size.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
from collections import Counter
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402
from probe import lookup_sites  # noqa: E402
from sca_stereo import losses  # noqa: E402

TINY = dict(
    image_height=16,
    image_width=32,
    d_max_full=6,
    d_max_scene=5.0,
    base_channels=4,
    matcher_channels=4,
    z_channels=4,
    n_source_train=3,
    n_source_val=2,
    n_target_train=3,
    n_target_test=2,
)


def tiny(name: str) -> dict:
    """TINY plus 3 iterations for every stage the workload trains."""
    iters = {k: 3 for k, v in harness.WORKLOADS[name].config.items() if k.endswith("_iters") and v > 0}
    return dict(TINY, **iters)


def _sites() -> dict:
    return {(module.__name__, name): getattr(module, name) for module, name in lookup_sites()}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Tiny runs, made once per (workload, trace) and shared by the tests."""
    cache: dict[tuple[str, bool], harness.Result] = {}

    def get(name: str, trace: bool) -> harness.Result:
        if (name, trace) not in cache:
            before = _sites()
            root = tmp_path_factory.mktemp("root")
            cache[name, trace] = harness.run(name, seed=1, seconds=0, trace=trace, root=root, overrides=tiny(name))
            after = _sites()
            assert [k for k in before if before[k] is not after[k]] == [], "a probe was not removed"
        return cache[name, trace]

    return get


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["translator-default", "matcher-default"]
    assert all(w["why"] == harness.WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_appears_and_probes_are_removed(runs, name, trace):
    result = runs(name, trace)
    assert result.correct, result.errors
    assert result.failed == 0 and result.attempted > 0
    values = harness.per_layer(result) if trace else harness.end_to_end(result)
    spec = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(values) == [metric for metric, _, _ in spec]
    assert all(math.isfinite(v) for v in values.values()), values
    if not trace:
        assert all(v > 0 for v in values.values()), values


def test_stage_table_names_the_stages_of_each_workload(runs):
    names = {row[0] for row in harness.stage_table(runs("translator-default", False))}
    assert {"gen_step_ms.p50", "disc_step_ms.p50", "translate_ms.p50", "consistency", "failed_share"} <= names
    names = {row[0] for row in harness.stage_table(runs("matcher-default", False))}
    assert {"pretrain_step_ms.p50", "adapt_step_ms.p50", "infer_ms.p50", "target_epe"} <= names
    assert "gen_step_ms.p50" not in names


def test_correlation_never_runs_on_translator_default(runs):
    result = runs("translator-default", True)
    counts = Counter(result.tracer.names)
    assert counts["correlation_1d.fwd"] == 0
    assert counts["conv2d.fwd"] > 0 and counts["epipolar_attention.fwd"] > 0


def test_attention_runs_outside_the_steps_of_matcher_default(runs):
    result = runs("matcher-default", True)
    metrics = harness.per_layer(result)
    assert metrics["epipolar_attention.calls"] == 0
    assert metrics["correlation_1d.calls"] > 0
    # adapt's one-off translation of source_train is seen, outside the steps
    assert Counter(result.tracer.names)["epipolar_attention.fwd"] > 0


def _data_digest(name: str, seed: int, workdir: Path) -> str:
    workload = harness.WORKLOADS[name]
    config = harness.make_config(workload, seed, workdir, tiny(name))
    workdir.mkdir(parents=True)
    config_file = workdir / "run.cfg"
    harness._write_config_file(config, config_file)
    harness.set_up(workload, config, config_file)
    data = Path(config.data_dir)
    return "".join(p.name + p.read_bytes().hex() for p in sorted(data.rglob("*")) if p.is_file())


@pytest.mark.parametrize("name", ["translator-default", "pipeline-small"])
def test_seed_changes_the_generated_inputs(tmp_path, name):
    first = _data_digest(name, 1, tmp_path / "a")
    assert _data_digest(name, 1, tmp_path / "b") == first
    assert _data_digest(name, 2, tmp_path / "c") != first


def test_seed_reaches_only_the_master_seed(tmp_path):
    workload = harness.WORKLOADS["matcher-default"]
    a = vars(harness.make_config(workload, 1, tmp_path))
    b = vars(harness.make_config(workload, 2, tmp_path))
    assert {k for k in a if a[k] != b[k]} == {"master_seed"}


def test_a_non_finite_loss_fails_the_gate(tmp_path, monkeypatch):
    before = _sites()
    monkeypatch.setattr(losses, "perceptual_loss", lambda a, b: losses.ad.constant(math.nan))
    result = harness.run("translator-default", 1, 0, False, tmp_path, tiny("translator-default"))
    assert not result.correct
    assert result.failed >= 1
    monkeypatch.undo()
    after = _sites()
    assert all(before[k] is after[k] for k in before)


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
