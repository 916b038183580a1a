"""The fixed camera rig, disparity reprojection, differentiable warping and metrics.

Ground truth is dense: a view's disparity is a read-only float64 [H,W]
array, kept under the view's key, with a strictly positive disparity at
every pixel, and reprojection and the metrics use them all. A function
that needs to know a map's view takes the view as an argument.

Index convention used throughout the package: ``i`` is the horizontal
(column) index and ``j`` the vertical (row) index, while arrays are stored
as ``[..., H, W]`` so element ``(j, i)`` lives at ``data[..., j, i]``.

Disparities are stored unsigned (positive for both views). The horizontal
sampling offset handed to :func:`backward_warp` is signed: a left-view
target samples the right view at ``i - D``, a right-view target samples the
left view at ``i + D``; :func:`signed_offset` performs the conversion.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

VIEWS = ("left", "right")

# the one rectified rig of every scene: baseline in meters, focal length in pixels, principal point at the image centre
BASELINE = 0.5
FOCAL = 100.0


def _check_view(view: str) -> str:
    if view not in VIEWS:
        raise ValueError(f"view must be one of {VIEWS}, got {view!r}")
    return view


def other_view(view: str) -> str:
    return "right" if _check_view(view) == "left" else "left"


def signed_offset(disparity: Tensor, view: str) -> Tensor:
    """Signed horizontal sampling offset for warping *into* ``view``."""
    return ad.mulc(disparity, -1.0) if _check_view(view) == "left" else disparity


def disparity_to_world_points(disparity: np.ndarray, view: str) -> Tensor:
    """Reproject a disparity map to an organized [3,H,W] world-frame cloud, in meters.

    The rig is the fixed one: baseline ``b`` = :data:`BASELINE`, focal length ``f`` = :data:`FOCAL` in both
    directions, and the principal point ``(c_u, c_v)`` at the image centre. The camera frame puts ``x = b (u -
    c_u) / D``, ``y = f b (v - c_v) / (f D)``, ``z = f b / D`` at each pixel ``(u, v)``; the world frame sits
    midway between the two camera centers, so left-view points shift by ``-b/2`` in x and right-view points by
    ``+b/2``. Returned as a constant: clouds come from ground truth.
    """
    if not np.all(disparity > 0):
        raise ValueError("disparity must be strictly positive")
    h, w = disparity.shape
    c_u, c_v = (w - 1) / 2.0, (h - 1) / 2.0
    u = np.broadcast_to(np.arange(w, dtype=np.float64), (h, w))
    v = np.broadcast_to(np.arange(h, dtype=np.float64)[:, None], (h, w))
    x = BASELINE * (u - c_u) / disparity
    y = FOCAL * BASELINE * (v - c_v) / (FOCAL * disparity)  # f cancels, but not in floating point at every D
    z = FOCAL * BASELINE / disparity
    half = BASELINE / 2.0
    x = x - half if _check_view(view) == "left" else x + half
    return ad.constant(np.stack([x, y, z]))


class TentPlan(NamedTuple):
    """Where and how much a horizontal tent warp reads, for an [H,W] offset map.

    Target pixel ``(j, i)`` samples column ``s = i + offset(j, i)`` from its
    two taps, ``k0 = floor(s)`` and ``k0 + 1``. ``idx`` holds the flat [H*W]
    source index of every left tap, then of every right tap, clipped into
    the image; ``weights`` holds their tent weights in the same order,
    ``1 - frac`` and ``frac``, zero for a tap outside the image. ``in0`` and
    ``in1`` are the [H,W] bool maps of taps inside the image. All four arrays
    are read-only, so one plan may serve any number of warps.
    """

    idx: np.ndarray
    weights: np.ndarray
    in0: np.ndarray
    in1: np.ndarray


def tent_plan(offset: np.ndarray) -> TentPlan:
    """The :class:`TentPlan` of sampling each row at ``i + offset(j, i)``."""
    h, w = offset.shape
    s = np.arange(w, dtype=np.float64)[None, :] + offset
    k0 = np.floor(s).astype(np.int64)
    frac = s - k0
    k1 = k0 + 1
    in0 = (k0 >= 0) & (k0 < w)
    in1 = (k1 >= 0) & (k1 < w)
    rows = np.arange(h)[:, None] * w
    idx = np.concatenate([(rows + np.clip(k0, 0, w - 1)).ravel(), (rows + np.clip(k1, 0, w - 1)).ravel()])
    weights = np.concatenate([((1.0 - frac) * in0).ravel(), (frac * in1).ravel()])
    for a in (idx, weights, in0, in1):
        a.flags.writeable = False
    return TentPlan(idx, weights, in0, in1)


def warp_plan(disparity: np.ndarray, view: str) -> TentPlan:
    """The :func:`tent_plan` that warps the other view into ``view``, whose disparity is ``disparity``."""
    return tent_plan(-disparity if _check_view(view) == "left" else disparity)


def _taps(flat: np.ndarray, plan: TentPlan) -> tuple[np.ndarray, np.ndarray]:
    """The left and right tap values, [C,H*W] each, of the [C,H*W] ``flat``."""
    hw = plan.in0.size
    return np.take(flat, plan.idx[:hw], axis=1), np.take(flat, plan.idx[hw:], axis=1)


def _lerp(flat: np.ndarray, plan: TentPlan) -> np.ndarray:
    """``w0 * f0 + w1 * f1``: the warp of the [C,H*W] ``flat``, a fresh [C,H*W] array."""
    hw = plan.in0.size
    out, f1 = _taps(flat, plan)
    out *= plan.weights[:hw]
    f1 *= plan.weights[hw:]
    out += f1
    return out


def _scatter(g: np.ndarray, plan: TentPlan) -> np.ndarray:
    """Adjoint of :func:`_lerp` for a [C,H,W] gradient ``g``, as a fresh array.

    Per channel, one sequential ``np.add.at`` over the left taps then the
    right taps, straight into that channel's row of the output. The
    channels' tap products share one [2, H*W] buffer, so the call holds one
    channel's products at a time. (``np.bincount`` sums alike, but copies
    the read-only ``plan.idx`` on every call.)
    """
    c, hw = g.shape[0], plan.in0.size
    out = np.zeros((c, hw), dtype=np.float64)
    products = np.empty((2, hw), dtype=np.float64)
    tap_weights = plan.weights.reshape(2, hw)
    for out_c, g_c in zip(out, g.reshape(c, hw)):
        np.multiply(g_c, tap_weights, out=products)
        np.add.at(out_c, plan.idx, products.reshape(-1))
    return out.reshape(g.shape)


def _check_warp_shapes(op: str, feature: Tensor, **maps: tuple) -> None:
    if feature.ndim != 3:
        raise ValueError(f"{op} expects [C,H,W] features, got shape {feature.shape}")
    for name, shape in maps.items():
        if shape != feature.shape[1:]:
            raise ValueError(f"{op}: {name} shape {shape} does not match feature {feature.shape}")


def backward_warp(feature: Tensor, offset: Tensor) -> Tensor:
    """Sample ``feature`` horizontally at ``i + offset(j, i)`` with a tent kernel.

    Equivalent to ``out(j,i) = sum_k max(0, 1 - |i + offset - k|) feature(k)``
    along each row; samples falling outside the image contribute zero, so
    border pixels attenuate rather than clamp. Differentiable with respect to
    both arguments. The tape keeps only the output and the call's
    :class:`TentPlan`; the offset vjp gathers the taps again.
    """
    _check_warp_shapes("backward_warp", feature, offset=offset.shape)
    c, h, w = feature.shape
    plan = tent_plan(offset.data)
    flat = feature.data.reshape(c, h * w)
    out = _lerp(flat, plan).reshape(c, h, w)

    def vjp_offset(g):
        f0, f1 = (f.reshape(c, h, w) for f in _taps(flat, plan))
        return (g * (f1 * plan.in1[None] - f0 * plan.in0[None])).sum(axis=0)

    return ad._result(out, (feature, offset), (lambda g: _scatter(g, plan), vjp_offset))


def warped_l1(f_base: Tensor, f_match: Tensor, plan: TentPlan, mask: np.ndarray) -> Tensor:
    """``sum |f_base - warp(f_match)| * mask / sum(mask)`` as one tape op.

    ``f_match`` is warped by ``plan`` (a constant, such as the ground-truth
    warp of :func:`warp_plan`) and compared with ``f_base``, both
    [C,H,W]; ``mask`` is a non-empty [H,W] {0,1} map. The value, and the
    gradients of both features, equal bit for bit those of the composition
    ``mulc(sum_all(mul_spatial(absolute(sub(f_base, backward_warp(f_match,
    offset))), mask)), 1 / sum(mask))``, up to the sign of zero entries,
    while the tape keeps only the signed mask ``sm = sign(d) * mask`` of the
    difference ``d``, as int8. The gradient of ``f_base`` is ``sm`` times the
    scaled output gradient; that of ``f_match`` scatters its negation back
    through the plan.
    """
    if f_base.shape != f_match.shape:
        raise ValueError(f"warped_l1: shape mismatch {f_base.shape} vs {f_match.shape}")
    _check_warp_shapes("warped_l1", f_match, plan=plan.in0.shape, mask=mask.shape)
    c, h, w = f_match.shape
    scale = 1.0 / float(mask.sum())
    d = _lerp(f_match.data.reshape(c, h * w), plan).reshape(c, h, w)
    np.subtract(f_base.data, d, out=d)
    # a float64 mask: multiplying by a bool one casts per element; the products are the same
    weight = mask.astype(np.float64)
    masked = np.abs(d)
    masked *= weight
    value = np.array(masked.sum() * scale)
    del masked
    if np.isnan(value):  # a nan in d must still reach the gradients
        sm = np.sign(d) * weight
    else:
        # sign(d) and mask are exact in {-1, 0, 1}: int8 holds them, and int8 * float is the float64 product
        inside = mask != 0
        pos, neg = d > 0, d < 0
        pos &= inside
        neg &= inside
        sm = np.subtract(pos, neg, dtype=np.int8)
    vjps = (lambda g: sm * (float(g) * scale), lambda g: _scatter(sm * -(float(g) * scale), plan))
    return ad._result(value, (f_base, f_match), vjps)


def lr_mask(disparities: dict[str, np.ndarray], view: str, plan: TentPlan) -> np.ndarray:
    """Left-right consistency check of base view ``view`` on ``plan``, the :func:`warp_plan` of its map: a
    read-only bool [H,W] map, True where |D_b - warp(D_m, D_b)| < 1, i.e. where the base pixel's match is
    visible in the other view. ``disparities`` holds both views' maps.
    """
    match = disparities[other_view(view)]
    base = disparities[view]
    if match.shape != base.shape:
        raise ValueError(f"lr_mask: shape mismatch {base.shape} vs {match.shape}")
    warped = _lerp(match.reshape(1, base.size), plan).reshape(base.shape)
    mask = np.abs(base - warped) < 1.0
    mask.flags.writeable = False
    return mask


def occlusion_mask(disparities: dict[str, np.ndarray], view: str) -> np.ndarray:
    """The :func:`lr_mask` of base view ``view``, on a plan of its own."""
    return lr_mask(disparities, view, warp_plan(disparities[view], view))


def _errors(pred: Tensor, gt: np.ndarray) -> np.ndarray:
    """The absolute error map of ``pred`` against ``gt``."""
    p = pred.data if isinstance(pred, Tensor) else np.asarray(pred, dtype=np.float64)
    if p.shape != gt.shape:
        raise ValueError(f"prediction shape {p.shape} != ground truth shape {gt.shape}")
    return np.abs(p - gt)


def epe(pred: Tensor, gt: np.ndarray) -> float:
    """Mean absolute disparity error over all pixels."""
    err = _errors(pred, gt)
    return float(err.sum() / err.size)


def d1_all(pred: Tensor, gt: np.ndarray) -> float:
    """Percentage of pixels whose error is not at most max(3, 0.05 * gt): a NaN prediction counts as an outlier."""
    err = _errors(pred, gt)
    outliers = ~(err <= np.maximum(3.0, 0.05 * gt))
    return float(100.0 * outliers.sum() / err.size)


def bad1(pred: Tensor, gt: np.ndarray) -> float:
    """Percentage of pixels whose error is not at most 1 px: a NaN prediction counts as bad."""
    err = _errors(pred, gt)
    return float(100.0 * (~(err <= 1.0)).sum() / err.size)
