"""Stereo-consistent image translation and domain adaptation for stereo matching.

Self-contained: a float64 autodiff engine, rectified-stereo geometry,
cross-view epipolar attention, miniature translator/matcher/discriminator
networks, a procedural two-domain dataset, and a staged training CLI.
"""

from .autodiff import Tensor, backward, tensor
from .config import RunConfig, load_config
from .synth import SceneSpec, StereoSample, generate_scene

__all__ = [
    "Tensor",
    "backward",
    "tensor",
    "RunConfig",
    "load_config",
    "SceneSpec",
    "StereoSample",
    "generate_scene",
]
