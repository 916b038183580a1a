"""Miniature correlation-based stereo matcher (direct disparity regression).

A shared conv feature extractor runs on both images, a 1-D correlation
layer scores horizontal displacements up to ``d_max``, and a small
encoder-decoder regresses a dense non-negative disparity map for the
reference (left) view. Right-view disparities come from the standard
horizontal-flip trick.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .translation import conv, init_conv


def correlation_1d(f_left: Tensor, f_right: Tensor, d_max: int) -> Tensor:
    """Channel-mean dot products at displacements 0..d_max.

    Output channel ``d`` holds ``mean_c f_left(c,j,i) * f_right(c,j,i-d)``;
    displaced samples outside the image contribute zero.
    """
    return ad.mulc(ad.shifted_dot(f_left, f_right, d_max, "left_to_right"), 1.0 / f_left.shape[0])


class MatcherParams:
    """Named parameters: siamese extractor, post-correlation encoder-decoder, head."""

    def __init__(self, rng: np.random.Generator, channels: int = 16, d_max: int = 16):
        self.channels = channels
        self.d_max = d_max
        p: dict[str, Tensor] = {}
        init_conv(p, rng, "matcher.feat1", 3, channels)
        init_conv(p, rng, "matcher.feat2", channels, channels)
        init_conv(p, rng, "matcher.enc1", d_max + 1 + channels, 2 * channels, k=3)
        init_conv(p, rng, "matcher.enc2", 2 * channels, 2 * channels)
        init_conv(p, rng, "matcher.dec", 2 * channels, channels)
        # pointwise readout over the raw cost volume plus context from the
        # half-resolution decoder and the full-resolution extractor features
        init_conv(p, rng, "matcher.head1", d_max + 1 + 2 * channels, channels, k=1)
        head_bias = float(np.log(np.expm1(0.4 * d_max)))
        init_conv(p, rng, "matcher.head2", channels, 1, weight_scale=0.1, bias_init=head_bias)
        self.params = p


def _extract(image: Tensor, mparams: MatcherParams) -> Tensor:
    p = mparams.params
    f = ad.leaky_relu(conv(image, p, "matcher.feat1"))
    return ad.leaky_relu(conv(f, p, "matcher.feat2"))


def predict_disparity(left: Tensor, right: Tensor, mparams: MatcherParams) -> Tensor:
    """Dense non-negative disparity of the left view, shape [H,W]."""
    if left.shape != right.shape:
        raise ValueError(f"predict_disparity: shape mismatch {left.shape} vs {right.shape}")
    if left.ndim != 3 or left.shape[0] != 3:
        raise ValueError(f"images must be [3,H,W], got shape {left.shape}")
    p = mparams.params
    f_l = _extract(left, mparams)
    f_r = _extract(right, mparams)
    # cosine correlation: unit feature vectors give near-one-hot cost peaks
    cost = correlation_1d(ad.pixel_norm(f_l), ad.pixel_norm(f_r), mparams.d_max)
    x = ad.concat_channels([cost, f_l])
    x = ad.leaky_relu(conv(x, p, "matcher.enc1", stride=2))
    x = ad.leaky_relu(conv(x, p, "matcher.enc2"))
    x = ad.leaky_relu(conv(x, p, "matcher.dec"))
    x = ad.concat_channels([cost, ad.upsample_bilinear2(x), f_l])
    x = ad.leaky_relu(conv(x, p, "matcher.head1", padding=0))
    out = ad.softplus(conv(x, p, "matcher.head2"))
    return ad.reshape(out, out.shape[1:])


def predict_view(left: Tensor, right: Tensor, view: str, mparams: MatcherParams) -> Tensor:
    """Dense non-negative disparity of ``view``; the right view uses the flip trick."""
    if view == "left":
        return predict_disparity(left, right, mparams)
    return ad.flip_horizontal(predict_disparity(ad.flip_horizontal(right), ad.flip_horizontal(left), mparams))
