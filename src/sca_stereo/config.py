"""Run configuration: defaults, plain-text config files, CLI overrides.

Config files are flat ``key = value`` lines with ``#`` comments; keys are
the field names of :class:`RunConfig`. Optimizer defaults follow the
published schedule (matcher Adam(0.9, 0.999) at 1e-4; translator
Adam(0.0, 0.9) at 1e-4 with the discriminator at 4e-4). Batch sizes and
iteration counts are desk-scale and meant to be overridden per experiment.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

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
        for name in ("pretrain_batch", "translator_batch", "adapt_batch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.image_height % 2**self.n_scales or self.image_width % 2**self.n_scales:
            raise ConfigError(f"image size {self.image_height}x{self.image_width} not divisible by 2**n_scales")
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
    """Parse a ``key = value`` config file into a RunConfig."""
    config = RunConfig()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {line_no}: unknown config key '{key}'")
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
