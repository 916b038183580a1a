"""Camera model, disparity reprojection, differentiable warping and metrics.

Index convention used throughout the package: ``i`` is the horizontal
(column) index and ``j`` the vertical (row) index, while arrays are stored
as ``[..., H, W]`` so element ``(j, i)`` lives at ``data[..., j, i]``.

Disparities are stored unsigned (positive for both views). The horizontal
sampling offset handed to :func:`backward_warp` is signed: a left-view
target samples the right view at ``i - D``, a right-view target samples the
left view at ``i + D``; :func:`signed_offset` performs the conversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import UndefinedMetricError

VIEWS = ("left", "right")


def _check_view(view: str) -> str:
    if view not in VIEWS:
        raise ValueError(f"view must be one of {VIEWS}, got {view!r}")
    return view


def other_view(view: str) -> str:
    return "right" if _check_view(view) == "left" else "left"


@dataclass
class CameraRig:
    """Rectified stereo rig: baseline in meters, intrinsics in pixels."""

    baseline_b: float
    f_u: float
    f_v: float
    c_u: float
    c_v: float

    def __post_init__(self):
        if self.baseline_b <= 0:
            raise ValueError(f"baseline_b must be positive, got {self.baseline_b}")
        if self.f_u <= 0 or self.f_v <= 0:
            raise ValueError(f"focal lengths must be positive, got {self.f_u}, {self.f_v}")


@dataclass
class DisparityMap:
    """Unsigned dense disparity for one view, with a {0,1} validity mask."""

    values: Tensor
    view: str
    valid_mask: Tensor = None

    def __post_init__(self):
        _check_view(self.view)
        if self.values.ndim != 2:
            raise ValueError(f"disparity values must be [H,W], got shape {self.values.shape}")
        if self.valid_mask is None:
            self.valid_mask = ad.constant(np.ones(self.values.shape))
        if self.valid_mask.shape != self.values.shape:
            raise ValueError(
                f"valid_mask shape {self.valid_mask.shape} != values shape {self.values.shape}"
            )


@dataclass
class PointCloudImage:
    """Organized H x W cloud of world-frame points, stored as [3,H,W] meters."""

    points: Tensor
    view: str

    def __post_init__(self):
        _check_view(self.view)
        if self.points.ndim != 3 or self.points.shape[0] != 3:
            raise ValueError(f"points must be [3,H,W], got shape {self.points.shape}")


@dataclass
class OcclusionMask:
    """{0,1} mask; 1 marks pixels whose match is visible in the other view."""

    mask: Tensor
    view: str

    def __post_init__(self):
        _check_view(self.view)
        vals = self.mask.data
        if not np.all((vals == 0.0) | (vals == 1.0)):
            raise ValueError("occlusion mask must be binary")


def signed_offset(disparity: Tensor, view: str) -> Tensor:
    """Signed horizontal sampling offset for warping *into* ``view``."""
    return ad.mulc(disparity, -1.0) if _check_view(view) == "left" else disparity


def disparity_to_world_points(disparity: DisparityMap, rig: CameraRig) -> PointCloudImage:
    """Reproject a disparity map to an organized world-frame point cloud.

    The camera frame puts ``x = b (u - c_u) / D``, ``y = f_u b (v - c_v) /
    (f_v D)``, ``z = f_u b / D`` at each pixel ``(u, v)``; the world frame
    sits midway between the two camera centers, so left-view points shift by
    ``-b/2`` in x and right-view points by ``+b/2``. Invalid pixels emit
    ``(0, 0, 0)``. Not differentiable (clouds come from ground truth).
    """
    d = disparity.values.data
    valid = disparity.valid_mask.data > 0.5
    if np.any(valid & (d <= 0)):
        raise ValueError("disparity must be strictly positive at valid pixels")
    h, w = d.shape
    u = np.broadcast_to(np.arange(w, dtype=np.float64), (h, w))
    v = np.broadcast_to(np.arange(h, dtype=np.float64)[:, None], (h, w))
    d_safe = np.where(valid, d, 1.0)
    x = rig.baseline_b * (u - rig.c_u) / d_safe
    y = rig.f_u * rig.baseline_b * (v - rig.c_v) / (rig.f_v * d_safe)
    z = rig.f_u * rig.baseline_b / d_safe
    half = rig.baseline_b / 2.0
    x = x - half if disparity.view == "left" else x + half
    points = np.where(valid[None, :, :], np.stack([x, y, z]), 0.0)
    return PointCloudImage(ad.constant(points), disparity.view)


def backward_warp(feature: Tensor, offset: Tensor) -> Tensor:
    """Sample ``feature`` horizontally at ``i + offset(j, i)`` with a tent kernel.

    Equivalent to ``out(j,i) = sum_k max(0, 1 - |i + offset - k|) feature(k)``
    along each row; samples falling outside the image contribute zero, so
    border pixels attenuate rather than clamp. Differentiable with respect to
    both arguments.
    """
    if feature.ndim != 3:
        raise ValueError(f"backward_warp expects [C,H,W] features, got shape {feature.shape}")
    c, h, w = feature.shape
    if offset.shape != (h, w):
        raise ValueError(f"offset shape {offset.shape} does not match feature {feature.shape}")

    cols = np.arange(w, dtype=np.float64)
    s = cols[None, :] + offset.data
    k0 = np.floor(s).astype(np.int64)
    frac = s - k0
    k1 = k0 + 1
    in0 = (k0 >= 0) & (k0 < w)
    in1 = (k1 >= 0) & (k1 < w)
    k0c = np.clip(k0, 0, w - 1)
    k1c = np.clip(k1, 0, w - 1)
    rows = np.arange(h)[:, None]
    w0 = (1.0 - frac) * in0
    w1 = frac * in1
    idx0 = (rows * w + k0c).ravel()
    idx1 = (rows * w + k1c).ravel()
    flat = feature.data.reshape(c, h * w)
    f0 = np.take(flat, idx0, axis=1).reshape(c, h, w)
    f1 = np.take(flat, idx1, axis=1).reshape(c, h, w)
    out = w0[None] * f0 + w1[None] * f1

    def bwd(g):
        if feature.requires_grad:
            # per channel, one sequential scatter over both taps: the sums of
            # np.add.at over idx0 then idx1, in the same order, bit for bit
            idx, w0f, w1f = np.concatenate([idx0, idx1]), w0.ravel(), w1.ravel()
            dflat = [np.bincount(idx, np.concatenate([gc * w0f, gc * w1f]), h * w) for gc in g.reshape(c, h * w)]
            ad._accumulate_owned(feature, np.stack(dflat).reshape(c, h, w))
        if offset.requires_grad:
            d_off = (g * (f1 * in1[None] - f0 * in0[None])).sum(axis=0)
            ad._accumulate(offset, d_off)

    return ad._result(out, (feature, offset), bwd)


def warp_map(values: Tensor, offset: Tensor) -> Tensor:
    """Backward-warp a single-channel [H,W] map."""
    return ad.reshape(backward_warp(ad.reshape(values, (1, *values.shape)), offset), values.shape)


def occlusion_mask(d_base: DisparityMap, d_match: DisparityMap) -> OcclusionMask:
    """Left-right consistency check: 1 where |D_b - warp(D_m, D_b)| < 1.

    Treated as a constant by the gradient tape.
    """
    if d_base.view == d_match.view:
        raise ValueError("occlusion_mask requires maps from opposite views")
    offset = signed_offset(ad.constant(d_base.values.data), d_base.view)
    warped = warp_map(ad.constant(d_match.values.data), offset)
    mask = (np.abs(d_base.values.data - warped.data) < 1.0).astype(np.float64)
    return OcclusionMask(ad.constant(mask), d_base.view)


def epe(pred: Tensor, gt: DisparityMap) -> float:
    """Mean absolute disparity error over valid pixels."""
    p = pred.data if isinstance(pred, Tensor) else np.asarray(pred, dtype=np.float64)
    if p.shape != gt.values.shape:
        raise ValueError(f"prediction shape {p.shape} != ground truth shape {gt.values.shape}")
    valid = gt.valid_mask.data > 0.5
    n = int(valid.sum())
    if n == 0:
        raise UndefinedMetricError("EPE undefined: no valid pixels")
    return float(np.abs(p - gt.values.data)[valid].sum() / n)


def d1_all(pred: Tensor, gt: DisparityMap) -> float:
    """Percentage of valid pixels with error strictly above max(3, 0.05 * gt)."""
    p = pred.data if isinstance(pred, Tensor) else np.asarray(pred, dtype=np.float64)
    if p.shape != gt.values.shape:
        raise ValueError(f"prediction shape {p.shape} != ground truth shape {gt.values.shape}")
    valid = gt.valid_mask.data > 0.5
    n = int(valid.sum())
    if n == 0:
        raise UndefinedMetricError("D1-all undefined: no valid pixels")
    err = np.abs(p - gt.values.data)
    threshold = np.maximum(3.0, 0.05 * gt.values.data)
    outliers = (err > threshold) & valid
    return float(100.0 * outliers.sum() / n)
