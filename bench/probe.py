"""Timing probes installed at the package's lookup sites and removed afterwards.

Every probe replaces a module attribute that callers look up at call time
(``training.adam_step``, ``ad.conv2d``, ``geometry.backward_warp`` ...) with a
wrapper, and :meth:`Patcher.restore` puts each original back, so the package
itself is never edited.

:class:`Clock` is always installed. It stamps every ``training.adam_step``
call (the step boundaries), brackets each stage entry point, and times the
inference call inside ``evaluate`` and ``translate_export``.

:class:`Tracer` is installed only for traced passes. It records nested spans
``(name, start, end, parent, bytes)`` in memory around each layer function,
wraps the backward closure that differentiable ops attach to their output,
and counts calls to ``autodiff._result``, the chokepoint every op goes
through.
"""

from __future__ import annotations

import time

from sca_stereo import (
    attention,
    autodiff,
    checkpoint,
    fileio,
    geometry,
    losses,
    matcher,
    synth,
    training,
    translation,
)

STAGES = ("gen_data", "pretrain", "train_translator", "adapt", "evaluate", "translate_export")

# Inference call timed inside a stage: stage -> (module, attribute).
INFERENCE = {
    "evaluate": (matcher, "predict_disparity"),
    "translate_export": (translation, "translate"),
}

# Layer functions the tracer wraps: (module, attribute, wrap backward closure).
# Only ops that build their own tape node get the closure wrapped; composite
# functions such as spectral_normalize return another op's node.
LAYERS = (
    (autodiff, "conv2d", True),
    (autodiff, "upsample_bilinear2", True),
    (autodiff, "spectral_normalize", False),
    (training, "backward", False),
    (geometry, "backward_warp", True),
    (geometry, "occlusion_mask", False),
    (attention, "epipolar_attention", True),
    (matcher, "correlation_1d", True),
    (matcher, "predict_disparity", False),
    (losses, "stereo_consistency_loss", False),
    (losses, "perceptual_loss", False),
    (losses, "feature_matching_loss", False),
    (losses, "reprojection_loss", False),
    (losses, "ssim", False),
    (translation, "translate", False),
    (translation, "discriminate", False),
    (synth, "generate_scene", False),
    (synth, "write_sample", False),
    (synth, "read_sample", False),
    (fileio, "read_pfm", False),
    (fileio, "read_ppm", False),
    (fileio, "write_ppm", False),
    (checkpoint, "save_arrays", False),
    (checkpoint, "load_arrays", False),
    (training, "load_split", False),
)


def lookup_sites() -> list[tuple[object, str]]:
    """Every (module, attribute) a probe may replace."""
    sites = [(training, name) for name in STAGES]
    sites += [(training, "adam_step"), (autodiff, "_result")]
    sites += list(INFERENCE.values())
    sites += [(module, name) for module, name, _ in LAYERS]
    return sites


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, name: str, make_wrapper) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class StageCall:
    """One call of a stage entry point and the optimizer steps inside it."""

    def __init__(self, name: str):
        self.name = name
        # one entry per adam_step call: (time, discriminator step?, op count)
        self.steps: list[tuple[float, bool, int]] = []


class Clock:
    """Step boundaries, stage calls and inference times; always installed."""

    def __init__(self):
        self.calls: list[StageCall] = []
        self.inference: list[tuple[str, float]] = []  # (stage, seconds) per call
        self.tracer: Tracer | None = None
        self._stage: StageCall | None = None
        self._patcher = Patcher()

    def install(self) -> None:
        for stage in STAGES:
            self._patcher.patch(training, stage, lambda fn, stage=stage: self._stage_wrapper(stage, fn))
        self._patcher.patch(training, "adam_step", self._adam_wrapper)
        for stage, (module, name) in INFERENCE.items():
            self._patcher.patch(module, name, lambda fn, stage=stage: self._inference_wrapper(stage, fn))

    def restore(self) -> None:
        self._patcher.restore()

    def _stage_wrapper(self, stage: str, fn):
        def wrapper(*args, **kwargs):
            call = StageCall(stage)
            self.calls.append(call)
            outer, self._stage = self._stage, call
            tracer = self.tracer
            span = tracer.begin(stage, time.perf_counter()) if tracer is not None else -1
            try:
                return fn(*args, **kwargs)
            finally:
                self._stage = outer
                if tracer is not None:
                    tracer.end(span, time.perf_counter())

        return wrapper

    def _adam_wrapper(self, fn):
        def wrapper(params, grads, state):
            start = time.perf_counter()
            ops = self.tracer.op_count if self.tracer is not None else 0
            if self._stage is not None:
                disc = next(iter(params)).startswith("disc")
                self._stage.steps.append((start, disc, ops))
            fn(params, grads, state)
            if self.tracer is not None:
                self.tracer.end(self.tracer.begin("adam_step", start), time.perf_counter())

        return wrapper

    def _inference_wrapper(self, stage: str, fn):
        def wrapper(*args, **kwargs):
            if self._stage is None or self._stage.name != stage:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.inference.append((stage, time.perf_counter() - start))
            return out

        return wrapper


class Tracer:
    """Nested spans around layer functions, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.nbytes: list[int] = []
        self.op_count = 0
        self._stack: list[int] = []
        self._patcher = Patcher()

    def install(self) -> None:
        self._patcher.patch(autodiff, "_result", self._count_wrapper)
        for module, name, has_backward in LAYERS:
            self._patcher.patch(module, name, lambda fn, name=name, bwd=has_backward: self._span_wrapper(name, fn, bwd))

    def restore(self) -> None:
        self._patcher.restore()

    def begin(self, name: str, start: float) -> int:
        """Open a span; spans opened before :meth:`end` become its children."""
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(start)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.nbytes.append(0)
        self._stack.append(idx)
        return idx

    def end(self, idx: int, end: float) -> None:
        self._stack.pop()
        self.ends[idx] = end

    def _count_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self.op_count += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, name: str, fn, has_backward: bool):
        fwd_name = name + ".fwd" if has_backward else name

        def wrapper(*args, **kwargs):
            idx = self.begin(fwd_name, time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx, time.perf_counter())
            if name == "save_arrays":
                arrays = args[1] if len(args) > 1 else kwargs["arrays"]
                self.nbytes[idx] = sum(a.nbytes for a in arrays.values())
            elif name == "load_arrays":
                self.nbytes[idx] = sum(a.nbytes for a in out.values())
            if has_backward and out._backward is not None:
                out._backward = self._closure_wrapper(name + ".bwd", out._backward)
            return out

        return wrapper

    def _closure_wrapper(self, name: str, closure):
        def wrapper(grad):
            idx = self.begin(name, time.perf_counter())
            try:
                closure(grad)
            finally:
                self.end(idx, time.perf_counter())

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def to_json(self) -> dict:
        return {
            "columns": ["name", "start", "end", "parent", "bytes"],
            "spans": [
                [n, s, e, p, b]
                for n, s, e, p, b in zip(self.names, self.starts, self.ends, self.parents, self.nbytes)
            ],
        }
