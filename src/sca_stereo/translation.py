"""Miniature two-stream image translator and multi-scale patch discriminator.

The translator follows the content-stream / style-stream / generator split:
the generator starts from a spatially broadcast Gaussian code at the
coarsest scale and, per scale, applies feature-level adaptive instance
normalization (style), a content-conditioned denormalizing residual block,
and a cross-view attention block that mixes the two views' streams. Both
views run through shared weights.

Scale n (1-based) lives at 1/2**n resolution: the streams downsample
immediately, the generator works entirely below full resolution, and a
single output convolution after the last 2x upsample produces the
full-resolution image. This keeps the heavy convolutions off the full
pixel grid.

The discriminator is a small strided patch classifier applied at
``DISC_SCALES`` (two) image scales, returning raw logit maps and the hidden
activations used for feature matching. Its kernels are spectral-normalized
once per training step by :func:`spectral_weights`, and every
:func:`discriminate` call of that step convolves with the same normalized
weight dict.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import geometry
from .attention import sca_cross_attend, scaled_d_max
from .autodiff import Tensor
from .geometry import VIEWS


# ---------------------------------------------------------------------------
# parameter helpers
# ---------------------------------------------------------------------------


def init_conv(
    params: dict[str, Tensor],
    rng: np.random.Generator,
    name: str,
    c_in: int,
    c_out: int,
    weight_scale: float = 1.0,
    bias_init: float | None = 0.0,
) -> None:
    """Add a 3x3 kernel ``name.w`` and, unless ``bias_init`` is None, ``name.b``.

    Leave out the bias of a conv whose output feeds an instance norm: the
    norm removes any per-channel constant, so that bias gets no gradient.
    """
    std = weight_scale * np.sqrt(2.0 / (c_in * 9))
    params[name + ".w"] = ad.tensor(rng.standard_normal((c_out, c_in, 3, 3)) * std, requires_grad=True)
    if bias_init is not None:
        params[name + ".b"] = ad.tensor(np.full(c_out, bias_init), requires_grad=True)


def conv(x: Tensor, params: dict[str, Tensor], name: str, stride: int = 1) -> Tensor:
    """The 3x3 conv ``name`` at ``stride``, zero-padded by one pixel."""
    return ad.conv2d(x, params[name + ".w"], stride=stride, padding=1, bias=params.get(name + ".b"))


def detach_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {k: p.detach() for k, p in params.items()}


# ---------------------------------------------------------------------------
# FAdaIN and FADE
# ---------------------------------------------------------------------------


def fadain(f_g: Tensor, f_t: Tensor) -> Tensor:
    """Re-style ``f_g`` with the per-channel statistics of ``f_t``."""
    if f_g.shape != f_t.shape:
        raise ValueError(f"fadain: shape mismatch {f_g.shape} vs {f_t.shape}")
    _, h, w = f_g.shape
    normalized = ad.instance_norm(f_g)
    mu_t, std_t = ad.channel_stats(f_t)
    return ad.add(ad.mul_spatial(normalized, std_t), ad.broadcast_chan(mu_t, h, w))


def init_fade_params(params: dict[str, Tensor], rng: np.random.Generator, prefix: str, channels: int) -> None:
    """Add the γ and β convs that map ``channels``-wide content features to a scale and shift."""
    init_conv(params, rng, prefix + ".gamma", channels, channels, bias_init=1.0)
    init_conv(params, rng, prefix + ".beta", channels, channels)


def fade_modulation(x: Tensor, content: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """Instance-normalize ``x``, then scale/shift per pixel from ``content``."""
    if x.shape[1:] != content.shape[1:]:
        raise ValueError(f"fade: spatial mismatch {x.shape} vs {content.shape}")
    gamma = conv(content, params, prefix + ".gamma")
    beta = conv(content, params, prefix + ".beta")
    return ad.add(ad.mul(ad.instance_norm(x), gamma), beta)


def init_fade_resblock_params(params: dict[str, Tensor], rng: np.random.Generator, prefix: str, channels: int) -> None:
    init_fade_params(params, rng, prefix + ".fade1", channels)
    init_fade_params(params, rng, prefix + ".fade2", channels)
    init_conv(params, rng, prefix + ".conv1", channels, channels, bias_init=None)  # feeds fade2's instance norm
    init_conv(params, rng, prefix + ".conv2", channels, channels)


def fade_resblock(x: Tensor, content: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    h = conv(ad.leaky_relu(fade_modulation(x, content, params, prefix + ".fade1")), params, prefix + ".conv1")
    h = conv(ad.leaky_relu(fade_modulation(h, content, params, prefix + ".fade2")), params, prefix + ".conv2")
    return ad.add(x, h)


# ---------------------------------------------------------------------------
# cross-view attention block
# ---------------------------------------------------------------------------


def init_sca_block_params(params: dict[str, Tensor], rng: np.random.Generator, prefix: str, channels: int) -> None:
    std = np.sqrt(1.0 / (2 * channels))
    for key in (prefix + ".wq", prefix + ".wk"):
        params[key] = ad.tensor(rng.standard_normal((channels, 2 * channels, 1, 1)) * std, requires_grad=True)
    # the residual sum feeds the fade's instance norm
    init_conv(params, rng, prefix + ".res", channels, channels, weight_scale=0.1, bias_init=None)
    init_fade_params(params, rng, prefix + ".fade", channels)


def sca_block(
    f_g: dict[str, Tensor],
    f_content: dict[str, Tensor],
    params: dict[str, Tensor],
    prefix: str,
    d_max: int,
) -> dict[str, Tensor]:
    """Mix the two views' generator features via epipolar cross attention.

    Per view: queries/keys come from the channel concat of generator and
    content features, values are the other view's generator features, and
    the attended result enters through a residual conv before a final
    content-conditioned modulation. Weights are shared between views.
    """
    w_q, w_k = params[prefix + ".wq"], params[prefix + ".wk"]
    sources = {v: ad.concat_channels([f_g[v], f_content[v]]) for v in VIEWS}
    direction = {"left": "left_to_right", "right": "right_to_left"}
    out: dict[str, Tensor] = {}
    for v in VIEWS:
        o = geometry.other_view(v)
        attended = sca_cross_attend(f_g[o], sources[v], sources[o], w_q, w_k, d_max, direction[v])
        mixed = ad.add(f_g[v], conv(attended, params, prefix + ".res"))
        out[v] = fade_modulation(mixed, f_content[v], params, prefix + ".fade")
    return out


# ---------------------------------------------------------------------------
# translator
# ---------------------------------------------------------------------------


class TranslatorParams:
    """Named parameters of the content stream, style stream and generator."""

    def __init__(
        self,
        rng: np.random.Generator,
        base_channels: int = 16,
        n_scales: int = 3,
        z_channels: int = 8,
        d_max_full: int = 16,
        sca_enabled: bool = True,
        cloud_scale: float = 20.0,
    ):
        if n_scales < 2:
            raise ValueError(f"n_scales must be at least 2, got {n_scales}")
        self.n_scales = n_scales
        self.d_max_full = d_max_full
        self.sca_enabled = sca_enabled
        self.cloud_scale = cloud_scale
        # grows sublinearly toward the coarse scales; the full-resolution
        # convolutions dominate runtime, so coarse widths stay moderate
        self.channels = [base_channels + (base_channels * n) // 2 for n in range(n_scales)]
        p: dict[str, Tensor] = {}

        for stream, c_in in (("content", 6), ("style", 3)):
            init_conv(p, rng, f"{stream}.stem", c_in, self.channels[0])
            for k in range(1, n_scales):
                init_conv(p, rng, f"{stream}.down{k}", self.channels[k - 1], self.channels[k])

        init_conv(p, rng, "gen.from_z", z_channels, self.channels[-1])
        for k in range(n_scales):
            c = self.channels[k]
            init_fade_resblock_params(p, rng, f"gen.res{k}", c)
            if sca_enabled:
                init_sca_block_params(p, rng, f"gen.sca{k}", c)
            if k > 0:
                init_conv(p, rng, f"gen.up{k}", c, self.channels[k - 1])
        init_conv(p, rng, "gen.out", self.channels[0], 3)
        self.params = p


def _stream(image: Tensor, prefix: str, tparams: TranslatorParams) -> list[Tensor]:
    p = tparams.params
    feats = [ad.leaky_relu(conv(image, p, f"{prefix}.stem", stride=2))]
    for k in range(1, tparams.n_scales):
        feats.append(ad.leaky_relu(conv(feats[-1], p, f"{prefix}.down{k}", stride=2)))
    return feats


def content_stream(image: Tensor, cloud: Tensor, tparams: TranslatorParams) -> list[Tensor]:
    """Per-scale content features from an image and its [3,H,W] world-point cloud.

    The cloud is divided by a fixed scene scale so coordinates land near
    [-1, 1] alongside the image channels.
    """
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"image must be [3,H,W], got shape {image.shape}")
    if cloud.shape != (3, *image.shape[1:]):
        raise ValueError(f"cloud must be [3,H,W] at the image size {image.shape}, got shape {cloud.shape}")
    scaled = ad.mulc(cloud, 1.0 / tparams.cloud_scale)
    return _stream(ad.concat_channels([image, scaled]), "content", tparams)


def style_stream(image: Tensor, tparams: TranslatorParams) -> list[Tensor]:
    """Per-scale style features from a target-domain image."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"image must be [3,H,W], got shape {image.shape}")
    return _stream(image, "style", tparams)


def generate(
    z: Tensor,
    content_feats: dict[str, list[Tensor]],
    style_feats: dict[str, list[Tensor]],
    tparams: TranslatorParams,
) -> tuple[dict[str, Tensor], list[dict[str, Tensor]]]:
    """Run the generator for both views jointly.

    Returns the translated pair (values in [0, 1]) and the intermediate
    features as one ``{view: map}`` dict per scale, coarse to fine; scale
    index k lives at 1/2**(k+1) resolution.
    """
    p = tparams.params
    top = tparams.n_scales - 1
    hc, wc = content_feats["left"][top].shape[1:]
    z_map = ad.broadcast_chan(z, hc, wc)
    f_z = ad.leaky_relu(conv(z_map, p, "gen.from_z"))  # one map for both views
    f_g = {v: f_z for v in VIEWS}
    feats: list[dict[str, Tensor]] = []
    for k in range(top, -1, -1):
        f_g = {v: fadain(f_g[v], style_feats[v][k]) for v in VIEWS}
        f_g = {v: fade_resblock(f_g[v], content_feats[v][k], p, f"gen.res{k}") for v in VIEWS}
        if tparams.sca_enabled:
            f_g = sca_block(
                f_g,
                {v: content_feats[v][k] for v in VIEWS},
                p,
                f"gen.sca{k}",
                scaled_d_max(tparams.d_max_full, k + 1),
            )
        feats.append(f_g)
        if k > 0:
            f_g = {v: ad.leaky_relu(conv(ad.upsample_bilinear2(f_g[v]), p, f"gen.up{k}")) for v in VIEWS}
    images = {
        v: ad.mulc(ad.addc(ad.tanh(conv(ad.upsample_bilinear2(f_g[v]), p, "gen.out")), 1.0), 0.5)
        for v in VIEWS
    }
    return images, feats


def translate(
    src_images: dict[str, Tensor],
    src_disparities: dict[str, np.ndarray],
    style_images: dict[str, Tensor],
    z: Tensor,
    tparams: TranslatorParams,
) -> tuple[dict[str, Tensor], list[dict[str, Tensor]]]:
    """Full translation call: clouds are derived from the disparity maps, in the fixed rig of :mod:`geometry`."""
    clouds = {v: geometry.disparity_to_world_points(src_disparities[v], v) for v in VIEWS}
    content = {v: content_stream(src_images[v], clouds[v], tparams) for v in VIEWS}
    style = {v: style_stream(style_images[v], tparams) for v in VIEWS}
    return generate(z, content, style, tparams)


# ---------------------------------------------------------------------------
# discriminator
# ---------------------------------------------------------------------------


DISC_SCALES = 2  # the discriminator sees the image and its 2x average-pooled copy


class DiscriminatorParams:
    """Strided patch classifier per image scale, spectral-normalized with ``u``, each kernel's unit vector."""

    def __init__(self, rng: np.random.Generator, base_channels: int = 16):
        p: dict[str, Tensor] = {}
        self.u: dict[str, np.ndarray] = {}
        for s in range(DISC_SCALES):
            init_conv(p, rng, f"disc{s}.conv1", 3, base_channels)
            init_conv(p, rng, f"disc{s}.conv2", base_channels, base_channels * 2)
            init_conv(p, rng, f"disc{s}.logit", base_channels * 2, 1)
            for layer in ("conv1", "conv2", "logit"):
                name = f"disc{s}.{layer}.w"
                u = rng.standard_normal(p[name].shape[0])
                self.u[name] = u / np.linalg.norm(u)
        self.params = p
        for _ in range(10):  # warm up the singular-vector estimates on the initial kernels
            self.power_iteration()

    def power_iteration(self) -> None:
        """One power-iteration step on every kernel's ``u``, on the kernels as they are now."""
        self.u = {name: ad.power_iteration(self.params[name].data, u) for name, u in self.u.items()}


def spectral_weights(params: dict[str, Tensor], u: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """``params`` with each kernel named in ``u`` divided by its spectral norm; biases pass through."""
    return {name: ad.spectral_normalize(p, u[name]) if name in u else p for name, p in params.items()}


def discriminate(image: Tensor, weights: dict[str, Tensor]) -> tuple[list[Tensor], list[list[Tensor]]]:
    """Raw patch logit maps and hidden activations at each of the ``DISC_SCALES`` scales.

    ``weights`` is a :func:`spectral_weights` dict, built once per training
    step and shared by all of that step's calls; build it from detached
    parameters to keep the calls off the discriminator's own tape (used for
    generator updates).
    """
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"image must be [3,H,W], got shape {image.shape}")
    logits: list[Tensor] = []
    hidden: list[list[Tensor]] = []
    x_scale = image
    for s in range(DISC_SCALES):
        h1 = ad.leaky_relu(conv(x_scale, weights, f"disc{s}.conv1", stride=2))
        h2 = ad.leaky_relu(conv(h1, weights, f"disc{s}.conv2", stride=2))
        logits.append(conv(h2, weights, f"disc{s}.logit"))
        hidden.append([h1, h2])
        if s + 1 < DISC_SCALES:
            x_scale = ad.downsample_avg2(x_scale)
    return logits, hidden
