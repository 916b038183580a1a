"""Miniature correlation-based stereo matcher (soft-argmin over a cosine cost volume).

A shared conv feature extractor runs on both images, and a 1-D correlation
of the unit-normalised features scores each horizontal displacement
0..``d_max`` of the reference (left) view by its cosine. Two 3x3 box
filters aggregate the cost volume, a softmax over displacements at
temperature :data:`TEMPERATURE` turns it into a distribution, and the
prediction is that distribution's mean: the soft-argmin of GC-Net
(Kendall et al., arXiv 1703.04309). No learned layer follows the
features, and as a weighted mean of 0..``d_max`` every prediction lies in
[0, d_max]. Right-view disparities come from the standard horizontal-flip
trick.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .translation import conv, init_conv

TEMPERATURE = 20.0  # softmax logits are this times the aggregated cosine


def correlation_1d(f_left: Tensor, f_right: Tensor, d_max: int) -> Tensor:
    """Dot products at displacements 0..d_max: the cosine on unit feature vectors.

    Output channel ``d`` holds ``sum_c f_left(c,j,i) * f_right(c,j,i-d)``;
    displaced samples outside the image contribute zero.
    """
    return ad.shifted_dot(f_left, f_right, d_max, "left_to_right")


class MatcherParams:
    """Named parameters: the two convs of the siamese feature extractor."""

    def __init__(self, rng: np.random.Generator, channels: int = 16, d_max: int = 16):
        self.d_max = d_max
        p: dict[str, Tensor] = {}
        init_conv(p, rng, "matcher.feat1", 3, channels)
        init_conv(p, rng, "matcher.feat2", channels, channels)
        self.params = p


def _extract(image: Tensor, mparams: MatcherParams) -> Tensor:
    p = mparams.params
    f = ad.leaky_relu(conv(image, p, "matcher.feat1"))
    return ad.leaky_relu(conv(f, p, "matcher.feat2"))


def predict_disparity(left: Tensor, right: Tensor, mparams: MatcherParams) -> Tensor:
    """Dense disparity of the left view in [0, d_max], shape [H,W]."""
    if left.shape != right.shape:
        raise ValueError(f"predict_disparity: shape mismatch {left.shape} vs {right.shape}")
    if left.ndim != 3 or left.shape[0] != 3:
        raise ValueError(f"images must be [3,H,W], got shape {left.shape}")
    f_l = ad.pixel_norm(_extract(left, mparams))
    f_r = ad.pixel_norm(_extract(right, mparams))
    cost = ad.box_filter3(ad.box_filter3(correlation_1d(f_l, f_r, mparams.d_max)))
    p = ad.softmax(ad.mulc(cost, TEMPERATURE), axis=0)
    return ad.sum_channels(ad.mul_spatial(p, ad.constant(np.arange(mparams.d_max + 1.0))))


def predict_view(left: Tensor, right: Tensor, view: str, mparams: MatcherParams) -> Tensor:
    """Dense disparity of ``view`` in [0, d_max]; the right view uses the flip trick."""
    if view == "left":
        return predict_disparity(left, right, mparams)
    return ad.flip_horizontal(predict_disparity(ad.flip_horizontal(right), ad.flip_horizontal(left), mparams))
