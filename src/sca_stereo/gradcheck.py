"""Central finite-difference gradient checks and the op battery.

A check contracts a function's output with one seeded standard-normal
cotangent ``c`` of the output's shape, runs one backward pass of
``sum(out * c)``, then compares each stored gradient against central
differences of the same contraction. The cotangent is random because a
constant output gradient, as from a bare ``sum`` or ``mean``, hides a vjp
that is right only for constant ``g``: one that averages ``g`` over rows or
reverses it along an axis still passes.

:data:`CASES` is the battery, one row per differentiable operation of the
package, run once per seed of ``SEEDS`` to ``TOLERANCE``. It backs both the
test suite and the ``gradcheck`` CLI command.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import attention, geometry, losses, matcher, translation
from . import autodiff as ad
from .autodiff import Tensor
from .geometry import VIEWS

Outputs = Tensor | list[Tensor]


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def _outputs(fn: Callable[..., Outputs], inputs: list[Tensor]) -> list[Tensor]:
    out = fn(*inputs)
    return out if isinstance(out, list) else [out]


STEP = 1e-5  # central-difference step
SEEDS = (0, 1, 2)  # the battery runs every case once per seed
TOLERANCE = 1e-5  # a run passes at or below this max relative error


def check_gradients(
    fn: Callable[..., Outputs],
    inputs: list[Tensor],
    max_entries_per_input: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``fn`` returns a tensor or a list of tensors of any shape. Each output
    is contracted with a standard-normal cotangent drawn from ``rng``, so a
    vjp that is right only for a constant output gradient fails. ``fn`` must
    rebuild its graph from the same tensor objects on every call; entries
    are perturbed in place. When an input has more elements than
    ``max_entries_per_input``, a random subset is checked.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for t in inputs:
        t.grad = None
    outs = _outputs(fn, inputs)
    cotangents = [rng.standard_normal(o.shape) for o in outs]
    ad.backward(ad.add_n([ad.sum_all(ad.mul(o, ad.constant(c))) for o, c in zip(outs, cotangents)]))
    grads = [t.grad_array().copy() for t in inputs]

    def contracted() -> float:
        return sum(float(np.sum(o.data * c)) for o, c in zip(_outputs(fn, inputs), cotangents))

    # the differences only read values, so the inputs record no tape meanwhile
    checked = [t.requires_grad for t in inputs]
    worst = 0.0
    try:
        for t in inputs:
            t.requires_grad = False
        for t, g, check in zip(inputs, grads, checked):
            if not check:
                continue
            flat = t.data.ravel()
            n = flat.size
            if max_entries_per_input is not None and n > max_entries_per_input:
                indices = rng.choice(n, size=max_entries_per_input, replace=False)
            else:
                indices = range(n)
            g_flat = g.ravel()
            for idx in indices:
                orig = flat[idx]
                flat[idx] = orig + STEP
                f_plus = contracted()
                flat[idx] = orig - STEP
                f_minus = contracted()
                flat[idx] = orig
                numeric = (f_plus - f_minus) / (2.0 * STEP)
                worst = max(worst, relative_error(g_flat[idx], numeric))
    finally:
        for t, check in zip(inputs, checked):
            t.requires_grad = check
    return worst


class Check(NamedTuple):
    """One case built for one seed: the op, its inputs and an optional entry subset."""

    op: Callable[..., Outputs]
    inputs: list[Tensor]
    max_entries: int | None = None


def run_case(make: Callable[[np.random.Generator], Check], seed: int) -> float:
    """Max relative error of one case; its cotangent follows the inputs in the seed's stream."""
    rng = np.random.default_rng(seed)
    op, inputs, max_entries = make(rng)
    return check_gradients(op, inputs, max_entries_per_input=max_entries, rng=rng)


def run_battery() -> list[dict]:
    """Run every case on every one of ``SEEDS``; one report row per run."""
    rows = []
    for name, make in CASES.items():
        for seed in SEEDS:
            err = run_case(make, seed)
            rows.append({"op": name, "seed": seed, "max_rel_err": err, "passed": err <= TOLERANCE})
    return rows


# ---------------------------------------------------------------------------
# input builders: each draws one tensor from the case's generator
# ---------------------------------------------------------------------------


def _normal(*shape):
    return lambda rng: ad.tensor(rng.standard_normal(shape), requires_grad=True)


def _uniform(lo, hi, *shape):
    return lambda rng: ad.tensor(rng.uniform(lo, hi, shape), requires_grad=True)


def _away_from(kink, *shape):
    """Standard normal, with entries whose magnitude lies near ``kink`` moved off it."""

    def build(rng):
        x = rng.standard_normal(shape)
        return ad.tensor(np.where(np.abs(np.abs(x) - kink) < 0.05, x + 0.15, x), requires_grad=True)

    return build


def _offsets(*shape):
    """Warp offsets a fixed distance from the integers, where the tent kernel kinks."""
    return lambda rng: ad.tensor(rng.uniform(-2.3, 2.3, shape).round() + 0.37, requires_grad=True)


def _const(build):
    """The same draw as ``build``, off the tape."""
    return lambda rng: ad.constant(build(rng).data)


def _row(op, *builders, max_entries=None):
    """A case that calls ``op`` on one input from each builder."""
    return lambda rng: Check(op, [build(rng) for build in builders], max_entries)


# ---------------------------------------------------------------------------
# ops with fixed side inputs
# ---------------------------------------------------------------------------


_STACKED, _PER_TAP = ad._STACK_BELOW_C_IN - 1, ad._STACK_BELOW_C_IN  # conv2d channel counts

_MASK = ad.constant(np.where(np.arange(12).reshape(3, 4) == 2, -np.inf, 0.0))


# offsets fractional, integer and past both edges; a mask with an empty row
_WARP_OFFSETS = np.array([[0.37, -1.0, 2.5, 6.2], [-4.6, 1.0, -0.75, 0.0], [3.37, -2.63, 1.5, -3.0]])
_WARP_PLAN = geometry.tent_plan(_WARP_OFFSETS.repeat(2, axis=1))
_L1_MASK = np.array([[1.0] * 8, [0.0] * 8, [1.0, 0.0] * 4])


def _shifted_dots(a, b):
    # both directions, and the widest band d_max = W-1
    terms = ((3, "right_to_left"), (3, "left_to_right"), (6, "right_to_left"))
    return [ad.shifted_dot(a, b, d_max, direction) for d_max, direction in terms]


def _shifted_weighted_sums(p, p_widest, v):
    return [
        ad.shifted_weighted_sum(p, v, "left_to_right"),
        ad.shifted_weighted_sum(p, v, "right_to_left"),
        ad.shifted_weighted_sum(p_widest, v, "left_to_right"),
    ]


def _shifted_dots_blocks(a, b):
    # rows of three blocks, the last one partial, with d_max below and above the block width
    return [ad.shifted_dot(a, b, d_max, direction) for d_max in (9, 40) for direction in ad.DIRECTIONS]


def _shifted_weighted_sums_blocks(p, p_wide, v):
    return [ad.shifted_weighted_sum(weights, v, direction) for weights in (p, p_wide) for direction in ad.DIRECTIONS]


def _hinge_discriminator(fake, real_source, real_target):
    both = lambda x: {v: [x] for v in VIEWS}
    return losses.adv_loss_discriminator(both(fake), both(real_source), both(real_target))


def _stereo_consistency(hl, hr, fl, fr):
    # a half-width pair, upsampled by the factor the widths give, and a full-width pair as it is;
    # d = 2.5 leaves 3 border columns of each view out of its occlusion mask
    d = np.full(fl.shape[1:], 2.5)
    return losses.stereo_consistency_loss([{"left": hl, "right": hr}, {"left": fl, "right": fr}], {v: d for v in VIEWS})


def _disparity(pl, pr):
    gt = np.full(pl.shape, 3.25)
    return losses.disparity_loss({"left": pl, "right": pr}, {v: gt for v in VIEWS})


# ---------------------------------------------------------------------------
# cases that share state between inputs or check a subset of entries
# ---------------------------------------------------------------------------


def _spectral_normalize(rng):
    k = _normal(3, 2, 3, 3)(rng)
    u = rng.standard_normal(k.shape[0])
    u /= np.linalg.norm(u)
    for _ in range(30):
        u = ad.power_iteration(k.data, u)
    return Check(lambda k: ad.spectral_normalize(k, u), [k])


def _discriminate_shared_weights(rng):
    # one normalized weight dict feeds two calls, so each sigma node has several consumers
    dparams = translation.DiscriminatorParams(rng, base_channels=2)
    images = [ad.constant(rng.uniform(0, 1, (3, 8, 8))) for _ in range(2)]

    def op(*_):
        weights = translation.spectral_weights(dparams.params, dparams.u)
        return [x for img in images for x in translation.discriminate(img, weights)[0]]

    return Check(op, [dparams.params["disc0.conv2.w"], dparams.params["disc1.conv1.b"]], 12)


def _fade(init, block, max_entries=None):
    """A FADE layer on a [2,4,5] input, checked in the input and every parameter."""

    def make(rng):
        x = _normal(2, 4, 5)(rng)
        content = ad.constant(rng.standard_normal((2, 4, 5)))
        params: dict[str, Tensor] = {}
        init(params, rng, "p", 2)
        inputs = [x] + [params[k] for k in sorted(params)]
        return Check(lambda x, *_: block(x, content, params, "p"), inputs, max_entries)

    return make


def _sca_block_wq(rng):
    fg, fc = ({v: ad.constant(rng.standard_normal((2, 4, 6))) for v in VIEWS} for _ in range(2))
    params: dict[str, Tensor] = {}
    translation.init_sca_block_params(params, rng, "sca", 2)

    def op(_wq):
        out = translation.sca_block(fg, fc, params, "sca", d_max=2)
        return ad.concat_channels([out["left"], out["right"]])

    return Check(op, [params["sca.wq"]])


def _predict_disparity(rng):
    p = matcher.MatcherParams(rng, channels=4, d_max=4)
    il, ir = (ad.constant(rng.uniform(0, 1, (3, 8, 16))) for _ in range(2))
    return Check(lambda _k: matcher.predict_disparity(il, ir, p), [p.params["matcher.feat2.w"]], 16)


# ---------------------------------------------------------------------------
# the battery: case name -> builder of one seed's Check
# ---------------------------------------------------------------------------


CASES: dict[str, Callable[[np.random.Generator], Check]] = {
    "add": _row(ad.add, _normal(4, 5), _normal(4, 5)),
    "sub": _row(ad.sub, _normal(3, 7), _normal(3, 7)),
    "mul": _row(ad.mul, _normal(6), _normal(6)),
    "div": _row(ad.div, _normal(5), _uniform(0.5, 2.0, 5)),
    "abs": _row(ad.absolute, _away_from(0.0, 4, 4)),
    "leaky_relu": _row(ad.leaky_relu, _away_from(0.0, 5, 5)),
    "relu": _row(ad.relu, _away_from(0.0, 4, 6)),
    "tanh": _row(ad.tanh, _normal(3, 4)),
    "sqrt": _row(ad.sqrt, _uniform(0.5, 3.0, 6)),
    "softmax": _row(lambda a: ad.softmax(a, 0), _normal(5)),
    "softmax_masked": _row(lambda a: ad.softmax(ad.add(a, _MASK), 1), _normal(3, 4)),
    "conv2d": _row(lambda x, k: ad.conv2d(x, k, stride=1, padding=1), _normal(2, 6, 7), _normal(3, 2, 3, 3)),
    "conv2d_strided": _row(lambda x, k: ad.conv2d(x, k, stride=2, padding=1), _normal(2, 8, 8), _normal(2, 2, 3, 3)),
    "conv2d_bias": _row(
        lambda x, k, b: ad.conv2d(x, k, stride=2, padding=1, bias=b), _normal(3, 7, 5), _normal(2, 3, 3, 3), _normal(2)
    ),
    # either side of the channel count below which the tap sum is one GEMM on stacked windows:
    # C_in picks it for the forward, C_out for the input vjp
    "conv2d_stacked": _row(
        lambda x, k: ad.conv2d(x, k, stride=1, padding=1), _normal(_STACKED, 4, 5), _normal(2, _STACKED, 3, 3)
    ),
    "conv2d_per_tap": _row(
        lambda x, k: ad.conv2d(x, k, stride=1, padding=1), _normal(_PER_TAP, 4, 5), _normal(3, _PER_TAP, 3, 3)
    ),
    "conv2d_per_tap_strided": _row(
        lambda x, k, b: ad.conv2d(x, k, stride=2, padding=1, bias=b),
        _normal(_PER_TAP, 5, 6),
        _normal(2, _PER_TAP, 3, 3),
        _normal(2),
    ),
    # one output channel: the input vjp stacks its nine taps into a [C_in, 9] GEMM
    "conv2d_one_output": _row(lambda x, k: ad.conv2d(x, k, stride=1, padding=1), _normal(3, 5, 6), _normal(1, 3, 3, 3)),
    # few input and many output channels at stride 2: stacked forward, per-tap input vjp
    "conv2d_per_tap_vjp_strided": _row(
        lambda x, k: ad.conv2d(x, k, stride=2, padding=1), _normal(2, 7, 8), _normal(_PER_TAP, 2, 3, 3)
    ),
    # the input is its own phase image, and its gradient is one matmul; SCA's W_Q and W_K are such convs
    "conv2d_1x1": _row(lambda x, k: ad.conv2d(x, k), _normal(3, 4, 5), _normal(2, 3, 1, 1)),
    # the last two rows and columns are read by no tap
    "conv2d_stride3_unread_tail": _row(
        lambda x, k: ad.conv2d(x, k, stride=3, padding=0), _normal(2, 8, 8), _normal(2, 2, 3, 3)
    ),
    "box_filter3": _row(ad.box_filter3, _normal(2, 5, 6)),
    "downsample_avg2": _row(ad.downsample_avg2, _normal(2, 4, 6)),
    "upsample_bilinear2": _row(lambda x: [ad.upsample_bilinear2(x), ad.upsample_bilinear2(x, 8)], _normal(2, 3, 4)),
    "flip_horizontal": _row(ad.flip_horizontal, _normal(2, 3, 5)),
    "concat_channels": _row(lambda a, b: ad.concat_channels([a, b]), _normal(2, 3, 3), _normal(1, 3, 3)),
    "instance_norm": _row(ad.instance_norm, _normal(2, 4, 5)),
    "mean_sum_reductions": _row(lambda a: [ad.mean_all(ad.mul(a, a)), ad.mulc(ad.sum_all(a), 0.1)], _normal(4, 3)),
    "channel_mean_broadcast": _row(lambda x: ad.broadcast_chan(ad.channel_mean(x), 4, 4), _normal(3, 4, 4)),
    "sum_channels_mul_spatial": _row(
        lambda x, s: ad.sum_channels(ad.mul_spatial(x, s)), _normal(3, 4, 5), _normal(4, 5)
    ),
    "mul_spatial_per_channel": _row(ad.mul_spatial, _normal(3, 4, 5), _normal(3)),
    "pixel_norm": _row(ad.pixel_norm, _normal(3, 4, 5)),
    "spectral_normalize": _spectral_normalize,
    "backward_warp_features": _row(geometry.backward_warp, _normal(2, 4, 8), _offsets(4, 8)),
    "shifted_dot": _row(_shifted_dots, _normal(3, 4, 7), _normal(3, 4, 7)),
    "shifted_weighted_sum": _row(_shifted_weighted_sums, _normal(3, 4, 7), _normal(7, 4, 7), _normal(2, 4, 7)),
    "shifted_dot_blocks": _row(_shifted_dots_blocks, _normal(2, 2, 72), _normal(2, 2, 72), max_entries=64),
    "shifted_weighted_sum_blocks": _row(
        _shifted_weighted_sums_blocks, _normal(10, 2, 72), _normal(41, 2, 72), _normal(2, 2, 72), max_entries=64
    ),
    "epipolar_attention": _row(
        lambda q, k, f: [
            attention.epipolar_attention(q, k, f, 2, "left_to_right"),
            attention.epipolar_attention(q, k, f, 3, "right_to_left"),
        ],
        _normal(3, 3, 6),
        _normal(3, 3, 6),
        _normal(2, 3, 6),
    ),
    "sca_cross_attend_weights": _row(
        lambda fo, qsrc, ksrc, wq, wk: attention.sca_cross_attend(fo, qsrc, ksrc, wq, wk, 2, "right_to_left"),
        _const(_normal(2, 3, 5)),
        _const(_normal(4, 3, 5)),
        _const(_normal(4, 3, 5)),
        _normal(3, 4, 1, 1),
        _normal(3, 4, 1, 1),
    ),
    "ssim": _row(losses.ssim, _uniform(0.1, 0.9, 1, 5, 6), _uniform(0.1, 0.9, 1, 5, 6)),
    "smooth_l1": _row(losses.smooth_l1, _away_from(1.0, 4, 5)),
    "hinge_adv_generator": _row(
        lambda fl, fr: losses.adv_loss_generator({"left": [fl], "right": [fr]}), _normal(1, 3, 4), _normal(1, 3, 4)
    ),
    # logits away from the hinge kinks at -1 and +1
    "hinge_adv_discriminator": _row(_hinge_discriminator, *[_uniform(-0.6, 0.6, 1, 3, 4)] * 3),
    "stereo_consistency_loss": _row(
        _stereo_consistency, _normal(2, 2, 4), _normal(2, 2, 4), _normal(2, 4, 8), _normal(2, 4, 8)
    ),
    "warped_l1": _row(
        lambda fb, fm: geometry.warped_l1(fb, fm, _WARP_PLAN, _L1_MASK), _normal(2, 3, 8), _normal(2, 3, 8)
    ),
    "disparity_loss": _row(_disparity, _uniform(1.0, 6.0, 4, 6), _uniform(1.0, 6.0, 4, 6)),
    "reprojection_loss": _row(
        lambda il, ir, pl, pr: losses.reprojection_loss({"left": il, "right": ir}, {"left": pl, "right": pr}),
        _const(_uniform(0.1, 0.9, 3, 4, 8)),
        _const(_uniform(0.1, 0.9, 3, 4, 8)),
        _uniform(1.53, 2.53, 4, 8),
        _uniform(1.53, 2.53, 4, 8),
    ),
    "feature_matching_loss": _row(
        lambda a0, a1, b0, b1: losses.feature_matching_loss([[a0, a1]], [[b0, b1]]),
        _normal(2, 3, 3),
        _normal(3, 2, 2),
        _const(_normal(2, 3, 3)),
        _const(_normal(3, 2, 2)),
    ),
    "discriminate_shared_weights": _discriminate_shared_weights,
    "fadain": _row(translation.fadain, _normal(2, 4, 5), _normal(2, 4, 5)),
    "fade_modulation": _fade(translation.init_fade_params, translation.fade_modulation),
    "fade_resblock": _fade(translation.init_fade_resblock_params, translation.fade_resblock, 24),
    "sca_block_wq": _sca_block_wq,
    "predict_disparity": _predict_disparity,
}
