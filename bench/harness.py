"""Workloads, set-up, measured passes, the output gate and the metrics.

A run repeats, until ``seconds`` are spent, a fresh set-up followed by the
workload's stage sequence (one *pass*). Every pass uses the same config and
seed, so every pass must write byte-identical logs and checkpoints. The first
set-up and pass are a warm-up: they are checked but not timed whenever a
later pass exists. Set-ups and passes alternate, so that both sample the
machine across the whole run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from probe import Clock, StageCall, Tracer
from sca_stereo import cli, fileio, geometry, matcher, training, translation
from sca_stereo.config import RunConfig

WARMUP_STEPS = 1  # first measured interval of each step kind in every stage call
P90_MIN_SAMPLES = 100  # a p90 needs at least ten samples beyond it

_DEFAULT_DATA = dict(n_source_train=8, n_source_val=8, n_target_train=8, n_target_test=8)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    stages: tuple[str, ...]
    # step kinds and inference stage behind the generic end-to-end names
    main_step: str
    second_step: str
    inference: str
    through_cli: bool = False  # run every stage as an ``sca-stereo`` subcommand


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "translator-default",
            "default 64x128 translator: the conv-heavy generator step with 8 tent warps and "
            "epipolar attention per sample; the matcher does no work",
            dict(_DEFAULT_DATA, translator_iters=5, translator_batch=1),
            ("train_translator", "translate_export"),
            main_step="gen",
            second_step="disc",
            inference="translate_export",
        ),
        Workload(
            "matcher-default",
            "default 64x128 matcher: correlation, the reprojection warp and SSIM box filters; "
            "attention and the discriminator do no per-step work",
            dict(_DEFAULT_DATA, pretrain_iters=6, pretrain_batch=1, adapt_iters=4, adapt_batch=1, translator_iters=0),
            ("pretrain", "adapt", "evaluate"),
            main_step="adapt",
            second_step="pretrain",
            inference="evaluate",
        ),
        Workload(
            "pipeline-small",
            "every CLI subcommand at 16x32 with 4 channels: per-op Python and tape overhead "
            "and the file formats dominate, BLAS matters little",
            dict(
                image_height=16,
                image_width=32,
                d_max_full=6,
                d_max_scene=5.0,
                base_channels=4,
                matcher_channels=4,
                z_channels=4,
                n_source_train=32,
                n_source_val=8,
                n_target_train=32,
                n_target_test=8,
                pretrain_iters=40,
                pretrain_batch=2,
                translator_iters=30,
                translator_batch=2,
                adapt_iters=30,
                adapt_batch=2,
            ),
            ("pretrain", "train_translator", "adapt", "evaluate", "translate_export"),
            main_step="gen",
            second_step="pretrain",
            inference="evaluate",
            through_cli=True,
        ),
    )
}

# Per-stage metric names, per step kind and per inference stage.
STEP_METRIC = {"pretrain": "pretrain_step_ms", "gen": "gen_step_ms", "disc": "disc_step_ms", "adapt": "adapt_step_ms"}
INFERENCE_METRIC = {"evaluate": "infer_ms", "translate_export": "translate_ms"}

# End-to-end metrics of the untraced run: (name, unit, better). Timings other
# than set-up are the best over the run: on a shared host, a median mostly
# measures how long the host stayed in its slow state (see README.md). The
# stage table still prints the medians.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s.min", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("main_step_ms.min", "ms/sample", "lower"),
    ("second_step_ms.min", "ms/sample", "lower"),
    ("inference_ms.min", "ms/sample", "lower"),
)

# Per-layer metrics of the traced run: (name, unit, span name, quantity, scope).
# quantity: "ms" inclusive time, "self_ms" time minus child spans, "calls",
# "bytes". scope: per training "step", per "setup", per "pass".
_LAYER_TABLE = (
    ("conv2d.fwd_ms", "conv2d.fwd", "ms", "step"),
    ("conv2d.bwd_ms", "conv2d.bwd", "ms", "step"),
    ("conv2d.calls", "conv2d.fwd", "calls", "step"),
    ("upsample_bilinear2.fwd_ms", "upsample_bilinear2.fwd", "ms", "step"),
    ("upsample_bilinear2.bwd_ms", "upsample_bilinear2.bwd", "ms", "step"),
    ("spectral_normalize.ms", "spectral_normalize", "ms", "step"),
    ("backward.ms", "backward", "ms", "step"),
    ("backward.self_ms", "backward", "self_ms", "step"),
    ("adam_step.ms", "adam_step", "ms", "step"),
    ("backward_warp.fwd_ms", "backward_warp.fwd", "ms", "step"),
    ("backward_warp.bwd_ms", "backward_warp.bwd", "ms", "step"),
    ("backward_warp.calls", "backward_warp.fwd", "calls", "step"),
    ("epipolar_attention.fwd_ms", "epipolar_attention.fwd", "ms", "step"),
    ("epipolar_attention.bwd_ms", "epipolar_attention.bwd", "ms", "step"),
    ("epipolar_attention.calls", "epipolar_attention.fwd", "calls", "step"),
    ("correlation_1d.fwd_ms", "correlation_1d.fwd", "ms", "step"),
    ("correlation_1d.bwd_ms", "correlation_1d.bwd", "ms", "step"),
    ("correlation_1d.calls", "correlation_1d.fwd", "calls", "step"),
    ("predict_disparity.ms", "predict_disparity", "ms", "step"),
    ("stereo_consistency_loss.self_ms", "stereo_consistency_loss", "self_ms", "step"),
    ("perceptual_loss.ms", "perceptual_loss", "ms", "step"),
    ("feature_matching_loss.ms", "feature_matching_loss", "ms", "step"),
    ("reprojection_loss.ms", "reprojection_loss", "ms", "step"),
    ("ssim.ms", "ssim", "ms", "step"),
    ("translate.ms", "translate", "ms", "step"),
    ("discriminate.ms", "discriminate", "ms", "step"),
    ("discriminate.calls", "discriminate", "calls", "step"),
    ("occlusion_mask.ms", "occlusion_mask", "ms", "setup"),
    ("load_split.ms", "load_split", "ms", "setup"),
    ("generate_scene.ms", "generate_scene", "ms", "setup"),
    ("write_sample.ms", "write_sample", "ms", "setup"),
    ("read_sample.ms", "read_sample", "ms", "setup"),
    ("read_pfm.ms", "read_pfm", "ms", "setup"),
    ("read_ppm.ms", "read_ppm", "ms", "setup"),
    ("write_ppm.ms", "write_ppm", "ms", "setup"),
    ("save_arrays.ms", "save_arrays", "ms", "pass"),
    ("save_arrays.bytes", "save_arrays", "bytes", "pass"),
    ("load_arrays.ms", "load_arrays", "ms", "pass"),
    ("load_arrays.bytes", "load_arrays", "bytes", "pass"),
)
_UNITS = {"ms": "ms/{}", "self_ms": "ms/{}", "calls": "calls/{}", "bytes": "B/{}"}

PER_LAYER = tuple((name, _UNITS[qty].format(scope), "lower") for name, _, qty, scope in _LAYER_TABLE) + (
    ("ops_per_step", "ops/step", "lower"),
    ("step.fwd_ms", "ms/step", "lower"),
    ("trace.overhead_s", "s/pass", "lower"),
)


class GateError(Exception):
    """An output check failed."""


@dataclass
class Pass:
    """One set-up and the stage sequence after it."""

    setup: float
    wall: float
    traced: bool
    calls: list[StageCall]
    inference: list[tuple[str, float]]
    digest: str


def timed(passes: list[Pass], traced: bool) -> list[Pass]:
    """The passes of one kind that count for timing: all but the warm-up pass."""
    chosen = [p for p in passes[1:] if p.traced == traced]
    return chosen or [p for p in passes[:1] if p.traced == traced]


@dataclass
class Result:
    workload: Workload
    config: RunConfig
    correct: bool = False
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    passes: list[Pass] = field(default_factory=list)
    clock: Clock | None = None
    tracer: Tracer | None = None
    setup_spans: list[int] = field(default_factory=list)
    pass_spans: list[int] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)


def make_config(workload: Workload, seed: int, workdir: Path, overrides: dict | None = None) -> RunConfig:
    values = dict(workload.config, **(overrides or {}))
    return RunConfig(
        data_dir=str(workdir / "data"),
        checkpoint_dir=str(workdir / "ckpt"),
        output_dir=str(workdir / "out"),
        master_seed=seed,
        **values,
    )


def _write_config_file(config: RunConfig, path: Path) -> None:
    """A ``key = value`` file for the CLI; the seed travels as ``--seed``."""
    skip = {"master_seed"}
    lines = [f"{k} = {v}" for k, v in vars(config).items() if k not in skip]
    path.write_text("\n".join(lines) + "\n")


def _cli(config_file: Path, seed: int, args: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["--config", str(config_file), "--seed", str(seed), *args])
    if code != 0:
        raise GateError(f"sca-stereo {args[0]} exited with {code}: {out.getvalue()[-500:]}")


def set_up(workload: Workload, config: RunConfig, config_file: Path) -> dict[str, training.LoadedSplit]:
    """Dataset on disk, every split loaded with occlusion masks, parameter init, checkpoints."""
    if workload.through_cli:
        _cli(config_file, config.master_seed, ["gen-data"])
    else:
        training.gen_data(config)
    splits = {name: training.load_split(config, name) for name in training.SPLITS}
    rng = np.random.default_rng([config.master_seed, 99])
    if {"pretrain", "adapt", "evaluate"} & set(workload.stages):
        matcher.MatcherParams(rng, channels=config.matcher_channels, d_max=config.d_max_full)
    if {"train_translator", "adapt", "translate_export"} & set(workload.stages):
        translation.TranslatorParams(
            rng,
            base_channels=config.base_channels,
            n_scales=config.n_scales,
            z_channels=config.z_channels,
            d_max_full=config.d_max_full,
            sca_enabled=config.sca_enabled,
            cloud_scale=config.cloud_scale,
        )
    if "train_translator" in workload.stages:
        translation.DiscriminatorParams(rng, base_channels=config.base_channels)
    elif "adapt" in workload.stages:
        # adapt needs a translator checkpoint; this config trains it for 0 iterations
        training.train_translator(config)
    return splits


def run_pass(workload: Workload, config: RunConfig, config_file: Path) -> None:
    ckpt = Path(config.checkpoint_dir)
    if workload.through_cli:
        for args in (
            ["pretrain"],
            ["train-translator"],
            ["adapt", "--translator-ckpt", str(ckpt / "translator.ckpt"), "--matcher-ckpt", str(ckpt / "matcher.ckpt")],
            ["evaluate", "--matcher-ckpt", str(ckpt / "matcher_adapted.ckpt"), "--split", "target_test"],
            ["translate", "--translator-ckpt", str(ckpt / "translator.ckpt")],
            ["gradcheck"],
        ):
            _cli(config_file, config.master_seed, args)
        return
    if "train_translator" in workload.stages:
        training.train_translator(config)
    if "pretrain" in workload.stages:
        training.pretrain(config)
    if "adapt" in workload.stages:
        training.adapt(config, ckpt / "translator.ckpt", ckpt / "matcher.ckpt")
    if "evaluate" in workload.stages:
        training.evaluate(config, ckpt / "matcher_adapted.ckpt", "target_test")
    if "translate_export" in workload.stages:
        training.translate_export(config, ckpt / "translator.ckpt")


def _digest(config: RunConfig) -> str:
    h = hashlib.sha256()
    for top in (Path(config.output_dir), Path(config.checkpoint_dir)):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(top.parent)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _read_rows(path: Path) -> list[dict[str, str]]:
    if not path.exists():
        raise GateError(f"missing output {path.name}")
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_outputs(result: Result, splits: dict[str, training.LoadedSplit]) -> int:
    """The output gate. Returns the number of non-finite loss rows; raises GateError."""
    workload, config = result.workload, result.config
    out, ckpt = Path(config.output_dir), Path(config.checkpoint_dir)
    logs = {"pretrain": ["pretrain_loss.csv", "pretrain_val.csv"], "train_translator": ["translator_loss.csv"], "adapt": ["adapt_loss.csv"]}
    bad_rows = 0
    for stage, names in logs.items():
        if stage not in workload.stages:
            continue
        for name in names:
            rows = _read_rows(out / name)
            if not rows:
                raise GateError(f"{name} has no rows")
            for row in rows:
                values = [float(v) for k, v in row.items() if k != "iteration"]
                bad_rows += not all(math.isfinite(v) for v in values)
    if bad_rows:
        result.errors.append(f"{bad_rows} loss rows are not finite")

    training.load_translator(config, ckpt / "translator.ckpt")
    if "pretrain" in workload.stages:
        training.load_matcher(config, ckpt / "matcher.ckpt")
    if "evaluate" in workload.stages:
        rows = _read_rows(out / "evaluate_target_test.csv")
        epe = float(rows[-1]["epe"])
        result.quality["target_epe"] = epe
        if rows[-1]["sample"] != "mean" or not math.isfinite(epe):
            raise GateError(f"target_epe is not finite: {rows[-1]}")
        # the first per-sample EPE must follow from the reloaded checkpoint
        mparams = training.load_matcher(config, ckpt / "matcher_adapted.ckpt", trainable=False)
        sample = splits["target_test"].samples[0]
        pred = matcher.predict_disparity(sample.images["left"], sample.images["right"], mparams)
        if repr(geometry.epe(pred, sample.disparities["left"])) != rows[0]["epe"]:
            raise GateError("evaluate EPE does not match the reloaded adapted matcher")
    if "translate_export" in workload.stages:
        rows = _read_rows(out / "consistency.csv")
        scores = [float(r["consistency"]) for r in rows]
        if len(scores) != config.n_source_val or not all(math.isfinite(s) and s >= 0 for s in scores):
            raise GateError(f"consistency scores are not finite and non-negative: {scores}")
        result.quality["consistency"] = float(np.mean(scores))
        image = fileio.read_ppm(out / "translated" / "sample_00000_left.ppm")
        if image.shape != (3, config.image_height, config.image_width):
            raise GateError(f"translated image has shape {image.shape}")
    return bad_rows


@contextlib.contextmanager
def _traced(result: Result, kind: str, spans: list[int], on: bool):
    """Install the tracer around one set-up or pass, bracketed by a span."""
    if not on:
        yield
        return
    tracer = result.tracer
    result.clock.tracer = tracer
    tracer.install()
    spans.append(tracer.begin(kind, time.perf_counter()))
    try:
        yield
    finally:
        tracer.end(spans[-1], time.perf_counter())
        tracer.restore()
        result.clock.tracer = None


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, overrides: dict | None = None) -> Result:
    """Set up, measure and check one workload; never raises for a failed stage.

    With ``trace``, every second set-up and pass is traced, starting with the
    second, so the untraced ones give the overhead.
    """
    workload = WORKLOADS[name]
    workdir = root / ".bench_out" / f"work-{name}-{os.getpid()}"
    config = make_config(workload, seed, workdir, overrides)
    config_file = workdir / "run.cfg"
    result = Result(workload, config, clock=Clock(), tracer=Tracer() if trace else None)
    clock = result.clock
    clock.install()
    start = time.perf_counter()
    try:
        while True:
            traced = trace and len(result.passes) % 2 == 1
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            _write_config_file(config, config_file)
            with _traced(result, "setup", result.setup_spans, traced):
                t0 = time.perf_counter()
                splits = set_up(workload, config, config_file)
                setup_time = time.perf_counter() - t0
            first_call, first_inference = len(clock.calls), len(clock.inference)
            with _traced(result, "pass", result.pass_spans, traced):
                t0 = time.perf_counter()
                run_pass(workload, config, config_file)
                wall = time.perf_counter() - t0
            result.passes.append(
                Pass(setup_time, wall, traced, clock.calls[first_call:], clock.inference[first_inference:], _digest(config))
            )
            typical = statistics.median(p.setup + p.wall for p in result.passes)
            enough = not trace or len(result.passes) >= 2
            if enough and time.perf_counter() - start + typical > seconds:
                break
        if len({p.digest for p in result.passes}) != 1:
            result.errors.append("passes with the same seed wrote different logs or checkpoints")
        result.failed += check_outputs(result, splits)
    except Exception:  # a failed stage or check ends the run; it is reported, not raised
        result.failed += 1
        result.errors.append(traceback.format_exc(limit=-3))
    finally:
        clock.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    result.attempted = len(clock.calls) + sum(len(c.steps) for c in clock.calls)
    result.correct = not result.errors and result.failed == 0
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _iteration_stamps(call: StageCall) -> list[tuple[float, int]]:
    """(time, op count) at the optimizer call that ends each iteration."""
    if call.name == "train_translator":
        return [(t, ops) for t, disc, ops in call.steps if disc]
    return [(t, ops) for t, _, ops in call.steps]


def _loops(calls: list[StageCall]):
    """(call, first stamp, last stamp, iterations) of every training loop.

    The loop runs from the first to the last iteration-ending optimizer call,
    so it holds one iteration fewer than the stage ran.
    """
    for call in calls:
        stamps = _iteration_stamps(call)
        if len(stamps) >= 2:
            yield call, stamps[0], stamps[-1], len(stamps) - 1


def _batch(config: RunConfig, call: StageCall) -> int:
    return {"pretrain": config.pretrain_batch, "train_translator": config.translator_batch, "adapt": config.adapt_batch}[call.name]


def step_samples(config: RunConfig, calls: list[StageCall]) -> dict[str, list[float]]:
    """Per-sample step times in ms by step kind, warm-up steps left out."""
    samples: dict[str, list[float]] = {kind: [] for kind in STEP_METRIC}
    for call in calls:
        if not call.steps:
            continue
        batch = _batch(config, call)
        if call.name == "train_translator":
            gen = [t for t, disc, _ in call.steps if not disc]
            disc = [t for t, is_disc, _ in call.steps if is_disc]
            kinds = {
                "gen": [g - d for g, d in zip(gen[1:], disc)],
                "disc": [d - g for g, d in zip(gen, disc)],
            }
        else:
            times = [t for t, _, _ in call.steps]
            kinds = {call.name: [b - a for a, b in zip(times, times[1:])]}
        for kind, intervals in kinds.items():
            samples[kind] += [1000.0 * x / batch for x in intervals[WARMUP_STEPS:]]
    return samples


def _train_rate(config: RunConfig, calls: list[StageCall]) -> float:
    samples, seconds = 0, 0.0
    for call, (first, _), (last, _), iterations in _loops(calls):
        samples += iterations * _batch(config, call)
        seconds += last - first
    return samples / seconds if seconds > 0 else math.nan


def p90(values: list[float]) -> float | None:
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10)[-1]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _min(values: list[float]) -> float:
    return min(values) if values else math.nan


def end_to_end(result: Result) -> dict[str, float]:
    """The untraced metrics; a value is NaN when the run has no sample for it."""
    workload, config = result.workload, result.config
    passes = timed(result.passes, traced=False)
    samples = step_samples(config, [c for p in passes for c in p.calls])
    inference = [t for p in passes for stage, t in p.inference if stage == workload.inference]
    return {
        "setup_s": _median([p.setup for p in passes]),
        "wall_s.min": _min([p.wall for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "main_step_ms.min": _min(samples[workload.main_step]),
        "second_step_ms.min": _min(samples[workload.second_step]),
        "inference_ms.min": 1000.0 * _min(inference),
    }


def stage_table(result: Result) -> list[tuple[str, float | None, str, str]]:
    """The per-stage metrics: (name, value or None, unit, note)."""
    config = result.config
    passes = timed(result.passes, traced=False)
    calls = [c for p in passes for c in p.calls]
    samples = step_samples(config, calls)
    rows = [("wall_s.p50", _median([p.wall for p in passes]), "s", f"n={len(passes)} passes")]
    rows.append(("train_samples_per_s", _train_rate(config, calls), "1/s", "samples over seconds in training loops"))
    for kind, name in STEP_METRIC.items():
        values = samples[kind]
        if not values:
            continue
        rows.append((f"{name}.p50", statistics.median(values), "ms/sample", f"n={len(values)}"))
        rows.append((f"{name}.min", min(values), "ms/sample", f"n={len(values)}"))
        if kind != "disc":
            high = p90(values)
            note = f"n={len(values)}" if high is not None else f"not reported: n={len(values)} < {P90_MIN_SAMPLES}"
            rows.append((f"{name}.p90", high, "ms/sample", note))
    for stage, name in INFERENCE_METRIC.items():
        values = [t for p in passes for s, t in p.inference if s == stage]
        if values:
            rows.append((f"{name}.p50", 1000.0 * statistics.median(values), "ms/sample", f"n={len(values)}"))
            rows.append((f"{name}.min", 1000.0 * min(values), "ms/sample", f"n={len(values)}"))
    if "target_epe" in result.quality:
        rows.append(("target_epe", result.quality["target_epe"], "px", "mean EPE on target_test"))
    if "consistency" in result.quality:
        rows.append(("consistency", result.quality["consistency"], "-", "mean image consistency on source_val"))
    share = result.failed / result.attempted if result.attempted else math.nan
    rows.append(("failed_share", share, "ratio", f"{result.failed} of {result.attempted} operations"))
    return rows


def _in_windows(start: float, windows: list[tuple[float, float]]) -> bool:
    return any(lo <= start < hi for lo, hi in windows)


def per_layer(result: Result) -> dict[str, float]:
    """The traced metrics, per training step, per set-up or per pass."""
    tracer = result.tracer
    own = tracer.self_times()
    loops = list(_loops([c for p in result.passes if p.traced for c in p.calls]))
    step_windows = [(first, last) for _, (first, _), (last, _), _ in loops]
    iterations = sum(n for *_, n in loops)
    ops = sum(last_ops - first_ops for _, (_, first_ops), (_, last_ops), _ in loops)
    scopes = {
        "step": (step_windows, iterations),
        "setup": ([(tracer.starts[i], tracer.ends[i]) for i in result.setup_spans], len(result.setup_spans)),
        "pass": ([(tracer.starts[i], tracer.ends[i]) for i in result.pass_spans], len(result.pass_spans)),
    }
    # totals[scope][span name] = [calls, seconds, self seconds, bytes]
    totals: dict[str, dict[str, list[float]]] = {scope: {} for scope in scopes}
    for idx, name in enumerate(tracer.names):
        for scope, (windows, _) in scopes.items():
            if _in_windows(tracer.starts[idx], windows):
                t = totals[scope].setdefault(name, [0, 0.0, 0.0, 0])
                t[0] += 1
                t[1] += tracer.ends[idx] - tracer.starts[idx]
                t[2] += own[idx]
                t[3] += tracer.nbytes[idx]
    column = {"calls": 0, "ms": 1, "self_ms": 2, "bytes": 3}
    metrics = {}
    for name, span, qty, scope in _LAYER_TABLE:
        count = scopes[scope][1]
        value = totals[scope].get(span, [0, 0.0, 0.0, 0])[column[qty]]
        metrics[name] = (1000.0 * value if qty in ("ms", "self_ms") else value) / count
    step_total = sum(hi - lo for lo, hi in step_windows)
    busy = sum(totals["step"].get(s, [0, 0.0])[1] for s in ("backward", "adam_step"))
    metrics["ops_per_step"] = ops / iterations
    metrics["step.fwd_ms"] = 1000.0 * (step_total - busy) / iterations
    traced = [p.wall for p in timed(result.passes, traced=True)]
    untraced = [p.wall for p in timed(result.passes, traced=False)]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit(root: Path) -> str:
    """HEAD's commit read from the .git directory, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, thread_variables: tuple[str, ...]) -> dict[str, object]:
    blas = {}
    with contextlib.suppress(Exception):  # the config API differs across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {k: os.environ.get(k) for k in thread_variables},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
    }
