"""Cross-view attention along the epipolar line of a rectified stereo pair.

A pixel's query in one view attends to key/value features of the other view
at horizontal offsets 0..d_max: candidates sit at ``i - d`` when querying
from the left view and ``i + d`` when querying from the right view.

The attention is composed from tape ops, with no backward of its own:
:func:`autodiff.shifted_dot` scores every candidate, a constant -inf map
excludes candidates outside the image, :func:`autodiff.softmax` renormalizes
over real content only, and :func:`autodiff.shifted_weighted_sum` mixes the
candidate values.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def epipolar_attention(q: Tensor, k: Tensor, values: Tensor, d_max: int, direction: str) -> Tensor:
    """Softmax attention over per-row disparity candidates.

    ``q`` and ``k`` are [C_qk,H,W] projections for the query view and the
    other view; ``values`` is [C,H,W] from the other view. Output is [C,H,W]:
    ``out(j,i) = sum_d softmax_d(q(j,i) . k(j, cand)) values(j, cand)`` with
    out-of-image candidates excluded from the softmax.
    """
    logits = ad.shifted_dot(q, k, d_max, direction)
    outside = ad.constant(_outside_image(*q.shape[1:], d_max, direction))
    weights = ad.softmax(ad.add(logits, outside), axis=0)
    return ad.shifted_weighted_sum(weights, values, direction)


@functools.lru_cache(maxsize=None)
def _outside_image(height: int, width: int, d_max: int, direction: str) -> np.ndarray:
    """Read-only [d_max+1,H,W] map: -inf at candidates outside the image, 0 elsewhere."""
    ones = np.ones((1, height, width))
    outside = np.where(ad._shifted_dot(ones, ones, d_max, direction) > 0, 0.0, -np.inf)
    outside.flags.writeable = False
    return outside


def sca_cross_attend(
    f_other_view: Tensor,
    q_source: Tensor,
    k_source: Tensor,
    w_q: Tensor,
    w_k: Tensor,
    d_max: int,
    direction: str,
) -> Tensor:
    """Project sources through W_Q / W_K and attend into the other view.

    ``q_source`` belongs to the query view, ``k_source`` to the other view;
    both are channel-stacked feature maps twice as wide as the value
    features ``f_other_view``. ``w_q`` and ``w_k`` are [C_qk, C_source, 1, 1]
    kernels: each projects every pixel alone, as one 1x1 :func:`autodiff.conv2d`.
    Differentiable with respect to features and both kernels.
    """
    return epipolar_attention(ad.conv2d(q_source, w_q), ad.conv2d(k_source, w_k), f_other_view, d_max, direction)


def scaled_d_max(d_max_full: int, scale: int) -> int:
    """Candidate range at a feature map downsampled by 2**scale."""
    return int(np.ceil(d_max_full / (2**scale)))
