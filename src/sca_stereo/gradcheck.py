"""Central finite-difference gradient checks and the battery registry.

A check takes a scalar-valued function of some tensors, runs one backward
pass, then compares each stored gradient against (f(x+h) - f(x-h)) / 2h.
The registry covers every differentiable operation in the package and backs
both the test suite and the ``gradcheck`` CLI command.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def check_gradients(
    fn: Callable[..., Tensor],
    inputs: list[Tensor],
    h: float = 1e-5,
    max_entries_per_input: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``fn`` must rebuild its graph from the same tensor objects on every call;
    entries are perturbed in place. When an input has more elements than
    ``max_entries_per_input``, a random subset is checked.
    """
    for t in inputs:
        t.grad = None
    out = fn(*inputs)
    ad.backward(out)
    grads = [t.grad_array().copy() for t in inputs]

    worst = 0.0
    for t, g in zip(inputs, grads):
        if not t.requires_grad:
            continue
        flat = t.data.ravel()
        n = flat.size
        if max_entries_per_input is not None and n > max_entries_per_input:
            if rng is None:
                rng = np.random.default_rng(0)
            indices = rng.choice(n, size=max_entries_per_input, replace=False)
        else:
            indices = range(n)
        g_flat = g.ravel()
        for idx in indices:
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = fn(*inputs).item()
            flat[idx] = orig - h
            f_minus = fn(*inputs).item()
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            worst = max(worst, relative_error(g_flat[idx], numeric))
    return worst


class GradCheckCase:
    def __init__(self, name: str, build: Callable[[int], tuple]):
        self.name = name
        self.build = build

    def run(self, seed: int, tol: float = 1e-5) -> tuple[float, bool]:
        built = self.build(seed)
        fn, inputs = built[0], built[1]
        kwargs = built[2] if len(built) > 2 else {}
        err = check_gradients(fn, inputs, **kwargs)
        return err, err <= tol


_REGISTRY: list[GradCheckCase] = []


def register(name: str):
    def deco(build):
        _REGISTRY.append(GradCheckCase(name, build))
        return build

    return deco


def registered_cases() -> list[GradCheckCase]:
    _ensure_registry()
    return list(_REGISTRY)


def run_battery(seeds: Iterable[int] = (0, 1, 2), tol: float = 1e-5) -> list[dict]:
    """Run every registered case on every seed; one report row per run."""
    rows = []
    for case in registered_cases():
        for seed in seeds:
            err, ok = case.run(seed, tol)
            rows.append({"op": case.name, "seed": seed, "max_rel_err": err, "passed": ok})
    return rows


# ---------------------------------------------------------------------------
# case definitions
# ---------------------------------------------------------------------------

_registered = False


def _rand(rng, *shape):
    return ad.tensor(rng.standard_normal(shape), requires_grad=True)


def _ensure_registry() -> None:
    global _registered
    if _registered:
        return
    _registered = True

    from . import attention, geometry, losses, matcher, translation

    @register("add")
    def _(seed):
        rng = np.random.default_rng(seed)
        a, b = _rand(rng, 4, 5), _rand(rng, 4, 5)
        return lambda a, b: ad.mean_all(ad.add(a, b)), [a, b]

    @register("sub")
    def _(seed):
        rng = np.random.default_rng(seed)
        a, b = _rand(rng, 3, 7), _rand(rng, 3, 7)
        return lambda a, b: ad.mean_all(ad.mul(ad.sub(a, b), ad.sub(a, b))), [a, b]

    @register("mul")
    def _(seed):
        rng = np.random.default_rng(seed)
        a, b = _rand(rng, 6,), _rand(rng, 6)
        return lambda a, b: ad.sum_all(ad.mul(a, b)), [a, b]

    @register("div")
    def _(seed):
        rng = np.random.default_rng(seed)
        a = _rand(rng, 5)
        b = ad.tensor(rng.uniform(0.5, 2.0, 5), requires_grad=True)
        return lambda a, b: ad.mean_all(ad.div(a, b)), [a, b]

    @register("abs")
    def _(seed):
        rng = np.random.default_rng(seed)
        # keep entries away from the kink at zero
        data = rng.uniform(0.2, 1.0, (4, 4)) * rng.choice([-1.0, 1.0], (4, 4))
        a = ad.tensor(data, requires_grad=True)
        return lambda a: ad.mean_all(ad.absolute(a)), [a]

    @register("matmul")
    def _(seed):
        rng = np.random.default_rng(seed)
        a, b = _rand(rng, 3, 4), _rand(rng, 4, 5)
        return lambda a, b: ad.mean_all(ad.matmul(a, b)), [a, b]

    @register("leaky_relu")
    def _(seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((5, 5))
        data[np.abs(data) < 1e-2] += 0.1
        a = ad.tensor(data, requires_grad=True)
        return lambda a: ad.mean_all(ad.leaky_relu(a, 0.2)), [a]

    @register("relu")
    def _(seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((4, 6))
        data[np.abs(data) < 1e-2] += 0.1
        a = ad.tensor(data, requires_grad=True)
        return lambda a: ad.mean_all(ad.relu(a)), [a]

    @register("tanh")
    def _(seed):
        rng = np.random.default_rng(seed)
        a = _rand(rng, 3, 4)
        return lambda a: ad.mean_all(ad.tanh(a)), [a]

    @register("softplus")
    def _(seed):
        rng = np.random.default_rng(seed)
        a = _rand(rng, 8)
        return lambda a: ad.mean_all(ad.softplus(a)), [a]

    @register("sqrt")
    def _(seed):
        rng = np.random.default_rng(seed)
        a = ad.tensor(rng.uniform(0.5, 3.0, 6), requires_grad=True)
        return lambda a: ad.mean_all(ad.sqrt(a)), [a]

    @register("softmax")
    def _(seed):
        rng = np.random.default_rng(seed)
        a = _rand(rng, 5)
        w = ad.constant(rng.standard_normal(5))
        return lambda a: ad.sum_all(ad.mul(ad.softmax(a, 0), w)), [a]

    @register("softmax_masked")
    def _(seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((3, 4))
        a = ad.tensor(data, requires_grad=True)
        mask = np.zeros((3, 4))
        mask[0, 2] = -np.inf
        mask_t = ad.constant(mask)
        w = ad.constant(rng.standard_normal((3, 4)))
        return lambda a: ad.sum_all(ad.mul(ad.softmax(ad.add(a, mask_t), 1), w)), [a]

    @register("conv2d")
    def _(seed):
        rng = np.random.default_rng(seed)
        x = _rand(rng, 2, 6, 7)
        k = _rand(rng, 3, 2, 3, 3)
        return lambda x, k: ad.mean_all(ad.conv2d(x, k, stride=1, padding=1)), [x, k]

    @register("conv2d_strided")
    def _(seed):
        rng = np.random.default_rng(seed)
        x = _rand(rng, 2, 8, 8)
        k = _rand(rng, 2, 2, 3, 3)
        return lambda x, k: ad.mean_all(ad.conv2d(x, k, stride=2, padding=1)), [x, k]

    @register("conv2d_bias")
    def _(seed):
        rng = np.random.default_rng(seed)
        x = _rand(rng, 3, 7, 5)
        k = _rand(rng, 2, 3, 3, 3)
        b = _rand(rng, 2)
        w = ad.constant(rng.standard_normal((2, 4, 3)))
        return lambda x, k, b: ad.sum_all(ad.mul(ad.conv2d(x, k, stride=2, padding=1, bias=b), w)), [x, k, b]

    @register("box_filter3")
    def _(seed):
        rng = np.random.default_rng(seed)
        x = _rand(rng, 2, 5, 6)
        w = ad.constant(rng.standard_normal((2, 5, 6)))
        return lambda x: ad.sum_all(ad.mul(ad.box_filter3(x), w)), [x]

    @register("upsample_bilinear2")
    def _(seed):
        rng = np.random.default_rng(seed)
        x = _rand(rng, 2, 3, 4)
        w = ad.constant(rng.standard_normal((2, 6, 8)))
        return lambda x: ad.sum_all(ad.mul(ad.upsample_bilinear2(x), w)), [x]

    @register("concat_channels")
    def _(seed):
        rng = np.random.default_rng(seed)
        a, b = _rand(rng, 2, 3, 3), _rand(rng, 1, 3, 3)
        w = ad.constant(rng.standard_normal((3, 3, 3)))
        return lambda a, b: ad.sum_all(ad.mul(ad.concat_channels([a, b]), w)), [a, b]

    @register("instance_norm")
    def _(seed):
        rng = np.random.default_rng(seed)
        x = _rand(rng, 2, 4, 5)
        w = ad.constant(rng.standard_normal((2, 4, 5)))
        return lambda x: ad.sum_all(ad.mul(ad.instance_norm(x), w)), [x]

    @register("mean_sum_reductions")
    def _(seed):
        rng = np.random.default_rng(seed)
        a = _rand(rng, 4, 3)
        return lambda a: ad.add(ad.mean_all(ad.mul(a, a)), ad.mulc(ad.sum_all(a), 0.1)), [a]

    @register("channel_mean_broadcast")
    def _(seed):
        rng = np.random.default_rng(seed)
        x = _rand(rng, 3, 4, 4)
        w = ad.constant(rng.standard_normal((3, 4, 4)))
        return (
            lambda x: ad.sum_all(ad.mul(ad.broadcast_chan(ad.channel_mean(x), 4, 4), w)),
            [x],
        )

    @register("sum_channels_mul_spatial")
    def _(seed):
        rng = np.random.default_rng(seed)
        x = _rand(rng, 3, 4, 5)
        s = _rand(rng, 4, 5)
        w = ad.constant(rng.standard_normal((4, 5)))
        return (
            lambda x, s: ad.sum_all(ad.mul(ad.sum_channels(ad.mul_spatial(x, s)), w)),
            [x, s],
        )

    @register("pixel_norm")
    def _(seed):
        rng = np.random.default_rng(seed)
        x = ad.tensor(rng.standard_normal((3, 4, 5)) + 0.5, requires_grad=True)
        w = ad.constant(rng.standard_normal((3, 4, 5)))
        return lambda x: ad.sum_all(ad.mul(ad.pixel_norm(x), w)), [x]

    @register("spectral_normalize")
    def _(seed):
        rng = np.random.default_rng(seed)
        k = _rand(rng, 3, 2, 3, 3)
        state = ad.SpectralNormState.for_kernel(k.shape, rng)
        for _ in range(30):
            ad.spectral_normalize(k, state)
        w = ad.constant(rng.standard_normal(k.shape))
        return (
            lambda k: ad.sum_all(ad.mul(ad.spectral_normalize(k, state, update=False), w)),
            [k],
        )

    @register("backward_warp_features")
    def _(seed):
        rng = np.random.default_rng(seed)
        f = _rand(rng, 2, 4, 8)
        # offsets away from integers so the tent kernel is smooth locally
        d = ad.tensor(rng.uniform(-2.3, 2.3, (4, 8)).round() + 0.37, requires_grad=True)
        w = ad.constant(rng.standard_normal((2, 4, 8)))
        return (
            lambda f, d: ad.sum_all(ad.mul(geometry.backward_warp(f, d), w)),
            [f, d],
        )

    @register("correlation_1d")
    def _(seed):
        rng = np.random.default_rng(seed)
        fl = _rand(rng, 3, 4, 7)
        fr = _rand(rng, 3, 4, 7)
        w = ad.constant(rng.standard_normal((4, 4, 7)))
        return (
            lambda fl, fr: ad.sum_all(ad.mul(matcher.correlation_1d(fl, fr, 3), w)),
            [fl, fr],
        )

    @register("epipolar_attention")
    def _(seed):
        rng = np.random.default_rng(seed)
        q = _rand(rng, 3, 3, 6)
        k = _rand(rng, 3, 3, 6)
        f = _rand(rng, 2, 3, 6)
        w = ad.constant(rng.standard_normal((2, 3, 6)))
        return (
            lambda q, k, f: ad.sum_all(ad.mul(attention.epipolar_attention(q, k, f, 2, "left_to_right"), w)),
            [q, k, f],
        )

    @register("sca_cross_attend_weights")
    def _(seed):
        rng = np.random.default_rng(seed)
        d_in = 2
        fq = ad.constant(rng.standard_normal((d_in, 3, 5)))
        fo = ad.constant(rng.standard_normal((d_in, 3, 5)))
        qsrc = ad.constant(rng.standard_normal((2 * d_in, 3, 5)))
        ksrc = ad.constant(rng.standard_normal((2 * d_in, 3, 5)))
        wq = _rand(rng, 3, 2 * d_in)
        wk = _rand(rng, 3, 2 * d_in)
        w = ad.constant(rng.standard_normal((d_in, 3, 5)))

        def fn(wq, wk):
            params = attention.SCAParams(wq, wk, d_max=2)
            out = attention.sca_cross_attend(fq, fo, qsrc, ksrc, params, "right_to_left")
            return ad.sum_all(ad.mul(out, w))

        return fn, [wq, wk]

    @register("ssim")
    def _(seed):
        rng = np.random.default_rng(seed)
        a = ad.tensor(rng.uniform(0.1, 0.9, (1, 5, 6)), requires_grad=True)
        b = ad.tensor(rng.uniform(0.1, 0.9, (1, 5, 6)), requires_grad=True)
        return lambda a, b: ad.mean_all(losses.ssim(a, b)), [a, b]

    @register("smooth_l1")
    def _(seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(-2.0, 2.0, (4, 5))
        data[np.abs(np.abs(data) - 1.0) < 5e-2] += 0.2  # keep away from |x| = 1
        x = ad.tensor(data, requires_grad=True)
        return lambda x: ad.mean_all(losses.smooth_l1(x)), [x]

    @register("hinge_adv_generator")
    def _(seed):
        rng = np.random.default_rng(seed)
        fl = _rand(rng, 1, 3, 4)
        fr = _rand(rng, 1, 3, 4)
        return lambda fl, fr: losses.adv_loss_generator({"left": [fl], "right": [fr]}), [fl, fr]

    @register("hinge_adv_discriminator")
    def _(seed):
        rng = np.random.default_rng(seed)
        # shift logits away from the hinge kink at -1 / +1
        mk = lambda: ad.tensor(rng.uniform(-0.6, 0.6, (1, 3, 4)), requires_grad=True)
        fk, rs, rt = mk(), mk(), mk()

        def fn(fk, rs, rt):
            return losses.adv_loss_discriminator(
                {"left": [fk], "right": [fk]}, {"left": [rs], "right": [rs]}, {"left": [rt], "right": [rt]}
            )

        return fn, [fk, rs, rt]

    @register("stereo_consistency_loss")
    def _(seed):
        rng = np.random.default_rng(seed)
        h, w = 4, 8
        fl = _rand(rng, 2, h, w)
        fr = _rand(rng, 2, h, w)
        d = ad.constant(np.full((h, w), 2.5))
        dmap_l = geometry.DisparityMap(d, "left")
        dmap_r = geometry.DisparityMap(d, "right")
        mask = geometry.OcclusionMask(ad.constant(np.ones((h, w))), "left")
        mask_r = geometry.OcclusionMask(ad.constant(np.ones((h, w))), "right")

        def fn(fl, fr):
            return losses.stereo_consistency_loss(
                {"left": [(fl, 1)], "right": [(fr, 1)]},
                None,
                {"left": dmap_l, "right": dmap_r},
                {"left": mask, "right": mask_r},
            )

        return fn, [fl, fr]

    @register("disparity_loss")
    def _(seed):
        rng = np.random.default_rng(seed)
        h, w = 4, 6
        pl = ad.tensor(rng.uniform(1.0, 6.0, (h, w)), requires_grad=True)
        pr = ad.tensor(rng.uniform(1.0, 6.0, (h, w)), requires_grad=True)
        gt = np.full((h, w), 3.25)
        dl = geometry.DisparityMap(ad.constant(gt), "left")
        dr = geometry.DisparityMap(ad.constant(gt), "right")

        def fn(pl, pr):
            return losses.disparity_loss({"left": pl, "right": pr}, {"left": dl, "right": dr})

        return fn, [pl, pr]

    @register("reprojection_loss")
    def _(seed):
        rng = np.random.default_rng(seed)
        h, w = 4, 8
        il = ad.constant(rng.uniform(0.1, 0.9, (3, h, w)))
        ir = ad.constant(rng.uniform(0.1, 0.9, (3, h, w)))
        pl = ad.tensor(rng.uniform(1.2, 2.2, (h, w)) + 0.33, requires_grad=True)
        pr = ad.tensor(rng.uniform(1.2, 2.2, (h, w)) + 0.33, requires_grad=True)

        def fn(pl, pr):
            return losses.reprojection_loss({"left": il, "right": ir}, {"left": pl, "right": pr}, alpha=0.85)

        return fn, [pl, pr]

    @register("feature_matching_loss")
    def _(seed):
        rng = np.random.default_rng(seed)
        fa = [_rand(rng, 2, 3, 3), _rand(rng, 3, 2, 2)]
        fb = [ad.constant(rng.standard_normal((2, 3, 3))), ad.constant(rng.standard_normal((3, 2, 2)))]

        def fn(a0, a1):
            return losses.feature_matching_loss([[a0, a1]], [fb])

        return fn, fa

    @register("fadain")
    def _(seed):
        rng = np.random.default_rng(seed)
        fg = _rand(rng, 2, 4, 5)
        ft = _rand(rng, 2, 4, 5)
        w = ad.constant(rng.standard_normal((2, 4, 5)))
        return lambda fg, ft: ad.sum_all(ad.mul(translation.fadain(fg, ft), w)), [fg, ft]

    @register("fade_modulation")
    def _(seed):
        rng = np.random.default_rng(seed)
        c = 2
        x = _rand(rng, c, 4, 5)
        content = ad.constant(rng.standard_normal((c, 4, 5)))
        params = translation.init_fade_params(np.random.default_rng(seed + 1), "fade", c, c)
        w = ad.constant(rng.standard_normal((c, 4, 5)))
        tensors = [x] + [params[k] for k in sorted(params)]

        def fn(x, *_):
            return ad.sum_all(ad.mul(translation.fade_modulation(x, content, params, "fade"), w))

        return fn, tensors

    @register("fade_resblock")
    def _(seed):
        rng = np.random.default_rng(seed)
        c = 2
        x = _rand(rng, c, 4, 5)
        content = ad.constant(rng.standard_normal((c, 4, 5)))
        params = translation.init_fade_resblock_params(np.random.default_rng(seed + 1), "rb", c, c)
        w = ad.constant(rng.standard_normal((c, 4, 5)))
        keys = sorted(params)
        tensors = [x] + [params[k] for k in keys]

        def fn(x, *_):
            return ad.sum_all(ad.mul(translation.fade_resblock(x, content, params, "rb"), w))

        return fn, tensors, {"max_entries_per_input": 24, "rng": np.random.default_rng(seed + 2)}

    @register("sca_block_wq")
    def _(seed):
        rng = np.random.default_rng(seed)
        c = 2
        fg = {
            "left": ad.constant(rng.standard_normal((c, 4, 6))),
            "right": ad.constant(rng.standard_normal((c, 4, 6))),
        }
        fc = {
            "left": ad.constant(rng.standard_normal((c, 4, 6))),
            "right": ad.constant(rng.standard_normal((c, 4, 6))),
        }
        params = translation.init_sca_block_params(np.random.default_rng(seed + 1), "sca", c, d_max=2)
        w = ad.constant(rng.standard_normal((c, 4, 6)))

        def fn(wq):
            out = translation.sca_block(fg, fc, params, "sca", d_max=2)
            return ad.sum_all(ad.mul(out["left"], w))

        return fn, [params["sca.wq"]]

    @register("matcher_head")
    def _(seed):
        rng = np.random.default_rng(seed)
        p = matcher.init_matcher_params(np.random.default_rng(seed), channels=4, d_max=4)
        il = ad.constant(rng.uniform(0, 1, (3, 8, 16)))
        ir = ad.constant(rng.uniform(0, 1, (3, 8, 16)))
        w = ad.constant(rng.standard_normal((8, 16)))
        key = "matcher.head2.w"

        def fn(_k):
            return ad.sum_all(ad.mul(matcher.predict_disparity(il, ir, p), w))

        return fn, [p.params[key]], {"max_entries_per_input": 16, "rng": np.random.default_rng(seed + 2)}
