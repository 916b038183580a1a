"""Run configuration: defaults, plain-text config files, CLI overrides.

Config files are flat ``key = value`` lines; keys are the field names of
:class:`RunConfig`. A ``#`` at the start of a line or after whitespace starts
a comment, so a value such as ``runs#1/data`` keeps its ``#``. Optimizer
defaults follow the published schedule (matcher Adam(0.9, 0.999) at 1e-4;
translator Adam(0.0, 0.9) at 1e-4 with the discriminator at 4e-4). Batch
sizes and iteration counts are desk-scale and meant to be overridden per
experiment.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .attention import scaled_d_max
from .errors import ConfigError
from .losses import LossWeights


@dataclass
class RunConfig:
    # paths
    data_dir: str = "data"
    checkpoint_dir: str = "checkpoints"
    output_dir: str = "out"

    master_seed: int = 0

    # geometry / sizes
    image_height: int = 64
    image_width: int = 128
    d_max_full: int = 16
    n_scales: int = 3
    base_channels: int = 16
    z_channels: int = 8
    matcher_channels: int = 16
    cloud_scale: float = 20.0

    # dataset
    n_source_train: int = 200
    n_source_val: int = 20
    n_target_train: int = 200
    n_target_test: int = 20
    num_layers: int = 4
    d_min: float = 2.0
    d_max_scene: float = 14.0

    # stage 1: supervised pretraining of the matcher on the source domain
    pretrain_lr: float = 1e-4
    pretrain_beta1: float = 0.9
    pretrain_beta2: float = 0.999
    pretrain_iters: int = 1000
    pretrain_batch: int = 4

    # stage 2: translator + discriminator
    translator_lr_g: float = 1e-4
    translator_lr_c: float = 4e-4
    translator_beta1: float = 0.0
    translator_beta2: float = 0.9
    translator_iters: int = 2000
    translator_batch: int = 4

    # stage 3: matcher adaptation
    adapt_lr: float = 1e-4
    adapt_beta1: float = 0.9
    adapt_beta2: float = 0.999
    adapt_iters: int = 1000
    adapt_batch: int = 4

    # loss weights
    lambda_perc: float = 1.0
    lambda_feat: float = 1.0
    lambda_stereo: float = 10.0
    lambda_disp: float = 0.1
    lambda_reproj: float = 1.0
    ssim_alpha: float = 0.85

    sca_enabled: bool = True
    val_interval: int = 100

    def validate(self) -> "RunConfig":
        """Raise ConfigError for settings that would fail only once a stage runs."""

        def check(names, ok, rule: str) -> None:
            for name in names:
                if not ok(getattr(self, name)):
                    raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")

        check([name for name, kind in _FIELDS.items() if kind == "float"], math.isfinite, "finite")
        stages = ("pretrain", "translator", "adapt")
        counts = [f"{stage}_batch" for stage in stages] + ["val_interval", "num_layers"]
        counts += ["n_source_train", "n_source_val", "n_target_train", "n_target_test"]
        counts += ["base_channels", "z_channels", "matcher_channels", "image_height", "image_width"]
        check(counts, lambda v: v >= 1, "at least 1")
        check(["n_scales"], lambda v: v >= 2, "at least 2")
        check([f"{stage}_iters" for stage in stages] + ["master_seed"], lambda v: v >= 0, "non-negative")
        positives = ["pretrain_lr", "translator_lr_g", "translator_lr_c", "adapt_lr", "cloud_scale"]
        check(positives, lambda v: v > 0, "positive")
        betas = [f"{stage}_{beta}" for stage in stages for beta in ("beta1", "beta2")]
        check(betas, lambda v: 0 <= v < 1, "in [0, 1)")
        try:
            self.loss_weights()
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if not 0 < self.d_min <= self.d_max_scene:
            raise ConfigError(f"d_min {self.d_min} must be positive and at most d_max_scene {self.d_max_scene}")
        if self.image_height % 2**self.n_scales or self.image_width % 2**self.n_scales:
            raise ConfigError(f"image size {self.image_height}x{self.image_width} not divisible by 2**n_scales")
        if self.d_max_scene >= self.d_max_full:
            raise ConfigError(f"d_max_scene {self.d_max_scene} must be smaller than d_max_full {self.d_max_full}")
        if self.d_max_full >= self.image_width:
            raise ConfigError(f"d_max_full {self.d_max_full} must be smaller than image_width {self.image_width}")
        coarse_d_max = scaled_d_max(self.d_max_full, self.n_scales)
        coarse_width = self.image_width // 2**self.n_scales
        if self.sca_enabled and coarse_d_max >= coarse_width:
            raise ConfigError(
                f"attention range {coarse_d_max} at the coarsest scale must be smaller than its width {coarse_width}"
            )
        return self

    def loss_weights(self) -> LossWeights:
        return LossWeights(
            lambda_perc=self.lambda_perc,
            lambda_feat=self.lambda_feat,
            lambda_stereo=self.lambda_stereo,
            lambda_disp=self.lambda_disp,
            lambda_reproj=self.lambda_reproj,
            alpha=self.ssim_alpha,
        )


_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_COMMENT = re.compile(r"(?:^|\s)#")


def _parse_value(key: str, raw: str, line_no: int):
    target = _FIELDS[key]
    raw = raw.strip()
    try:
        if target == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if target == "int":
            return int(raw)
        if target == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"line {line_no}: cannot parse {raw!r} as {target} for key '{key}'") from None


def load_config(path) -> RunConfig:
    """Parse a ``key = value`` config file, each key at most once, into a RunConfig."""
    config = RunConfig()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:  # a directory, an unreadable file, bytes that are not text
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    set_on: dict[str, int] = {}  # line of each key set so far
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.split(line, 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {line_no}: unknown config key '{key}'")
        if key in set_on:
            raise ConfigError(f"line {line_no}: config key '{key}' is already set on line {set_on[key]}")
        set_on[key] = line_no
        setattr(config, key, _parse_value(key, raw, line_no))
    return config.validate()


def apply_overrides(config: RunConfig, seed=None, no_sca: bool = False, out=None) -> RunConfig:
    if seed is not None:
        config.master_seed = int(seed)
    if no_sca:
        config.sca_enabled = False
    if out is not None:
        config.output_dir = str(out)
    return config.validate()
