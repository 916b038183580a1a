"""Loss functions: hinge adversarial terms, multi-scale stereo consistency,
supervised disparity regression, photometric reprojection, and the frozen
perceptual / feature-matching terms, plus the weighted full objective.

View pairs are passed as ``{"left": ..., "right": ...}`` dicts; the two
(base, match) orderings of every symmetric loss are summed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geometry
from .autodiff import Tensor
from .errors import UndefinedMetricError

VIEWS = ("left", "right")

_SSIM_C1 = 0.01**2
_SSIM_C2 = 0.03**2


@dataclass
class LossWeights:
    """Weights of the full objective and the SSIM mixing factor."""

    lambda_perc: float = 1.0
    lambda_feat: float = 1.0
    lambda_stereo: float = 10.0
    lambda_disp: float = 0.1
    lambda_reproj: float = 1.0
    alpha: float = 0.85

    def __post_init__(self):
        for name in ("lambda_perc", "lambda_feat", "lambda_stereo", "lambda_disp", "lambda_reproj"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0,1], got {self.alpha}")


def _scale_mean(logit_maps: list[Tensor], transform=None) -> Tensor:
    terms = []
    for lm in logit_maps:
        t = lm if transform is None else transform(lm)
        terms.append(ad.mean_all(t))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.mulc(total, 1.0 / len(terms))


def adv_loss_generator(fake_logits: dict[str, list[Tensor]]) -> Tensor:
    """Hinge generator loss: minus the mean fake logit, summed over views."""
    total = None
    for v in VIEWS:
        term = ad.mulc(_scale_mean(fake_logits[v]), -1.0)
        total = term if total is None else ad.add(total, term)
    return total


def adv_loss_discriminator(
    fake_logits: dict[str, list[Tensor]],
    real_source_logits: dict[str, list[Tensor]],
    real_target_logits: dict[str, list[Tensor]],
) -> Tensor:
    """Hinge discriminator loss.

    Translated images and raw source-domain images are both pushed below the
    -1 margin (the discriminator models the target domain only); target
    images are pushed above +1.
    """
    fake_t = lambda lm: ad.relu(ad.addc(lm, 1.0))
    real_t = lambda lm: ad.relu(ad.addc(ad.mulc(lm, -1.0), 1.0))
    total = None
    for group, transform in (
        (fake_logits, fake_t),
        (real_source_logits, fake_t),
        (real_target_logits, real_t),
    ):
        for v in VIEWS:
            term = _scale_mean(group[v], transform)
            total = term if total is None else ad.add(total, term)
    return total


def _masked_l1_term(f_base: Tensor, f_match: Tensor, disparity: geometry.DisparityMap, mask: np.ndarray):
    """sum |f_base - warp(f_match)| * mask / sum(mask), or None if mask empty."""
    mask_sum = float(mask.sum())
    if mask_sum == 0.0:
        return None
    offset = geometry.signed_offset(ad.constant(disparity.values.data), disparity.view)
    warped = geometry.backward_warp(f_match, offset)
    diff = ad.absolute(ad.sub(f_base, warped))
    return ad.mulc(ad.sum_all(ad.mul_spatial(diff, ad.constant(mask))), 1.0 / mask_sum)


def stereo_consistency_loss(
    gen_feats: dict[str, list[tuple[Tensor, int]]],
    images: dict[str, Tensor] | None,
    gt_disparities: dict[str, geometry.DisparityMap],
    masks: dict[str, geometry.OcclusionMask],
) -> Tensor:
    """Occlusion-masked L1 between each view and the warp of the other view.

    Applied per scale on generator features upsampled back to full
    resolution (the translated images participate with factor 1), warped
    under the ground-truth disparity of the base view, normalized by the
    unoccluded pixel count, and summed over scales and both view orderings.
    """
    full_res: dict[str, list[Tensor]] = {}
    for v in VIEWS:
        factors = [factor for _, factor in gen_feats[v]]
        if factors != [factor for _, factor in gen_feats[geometry.other_view(v)]]:
            raise ValueError("mismatched upsampling factors between views")
        full_res[v] = [ad.upsample_pow2(f, factor) for f, factor in gen_feats[v]]
        if images is not None:
            full_res[v].append(images[v])
    total = None
    for b in VIEWS:
        m = geometry.other_view(b)
        mask = masks[b].mask.data
        for f_b, f_m in zip(full_res[b], full_res[m]):
            if f_b.shape[1:] != mask.shape:
                raise ValueError(
                    f"upsampled feature {f_b.shape} does not reach mask resolution {mask.shape}"
                )
            term = _masked_l1_term(f_b, f_m, gt_disparities[b], mask)
            if term is not None:
                total = term if total is None else ad.add(total, term)
    return total if total is not None else ad.constant(np.zeros(()))


def smooth_l1(x: Tensor) -> Tensor:
    """Elementwise 0.5 x^2 for |x| < 1, |x| - 0.5 otherwise."""
    inner = np.abs(x.data) < 1.0
    out = np.where(inner, 0.5 * x.data * x.data, np.abs(x.data) - 0.5)
    dfactor = np.where(inner, x.data, np.sign(x.data))

    def bwd(g):
        if x.requires_grad:
            ad._accumulate(x, g * dfactor)

    return ad._result(out, (x,), bwd)


def disparity_loss(
    predictions: dict[str, Tensor], gt_disparities: dict[str, geometry.DisparityMap]
) -> Tensor:
    """Mean smooth-L1 disparity error over valid pixels, both views summed."""
    total = None
    for v in VIEWS:
        gt = gt_disparities[v]
        valid = gt.valid_mask.data
        n = float(valid.sum())
        if n == 0:
            raise UndefinedMetricError(f"disparity loss undefined: no valid pixels in {v} view")
        diff = ad.sub(predictions[v], ad.constant(gt.values.data))
        term = ad.mulc(ad.sum_all(ad.mul(smooth_l1(diff), ad.constant(valid))), 1.0 / n)
        total = term if total is None else ad.add(total, term)
    return total


def ssim(a: Tensor, b: Tensor) -> Tensor:
    """Per-pixel structural similarity from 3x3 box-filter local statistics."""
    if a.shape != b.shape:
        raise ValueError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    mu_a = ad.box_filter3(a)
    mu_b = ad.box_filter3(b)
    mu_aa = ad.mul(mu_a, mu_a)
    mu_bb = ad.mul(mu_b, mu_b)
    mu_ab = ad.mul(mu_a, mu_b)
    var_a = ad.sub(ad.box_filter3(ad.mul(a, a)), mu_aa)
    var_b = ad.sub(ad.box_filter3(ad.mul(b, b)), mu_bb)
    cov = ad.sub(ad.box_filter3(ad.mul(a, b)), mu_ab)
    num = ad.mul(ad.addc(ad.mulc(mu_ab, 2.0), _SSIM_C1), ad.addc(ad.mulc(cov, 2.0), _SSIM_C2))
    den = ad.mul(ad.addc(ad.add(mu_aa, mu_bb), _SSIM_C1), ad.addc(ad.add(var_a, var_b), _SSIM_C2))
    return ad.div(num, den)


def reprojection_loss(
    images: dict[str, Tensor], pred_disparities: dict[str, Tensor], alpha: float = 0.85
) -> Tensor:
    """Photometric L1 + SSIM penalty of warping each view onto the other.

    Uses the predicted (differentiable) disparities of the base view as the
    sampling offsets; both orderings are summed.
    """
    total = None
    for b in VIEWS:
        m = geometry.other_view(b)
        offset = geometry.signed_offset(pred_disparities[b], b)
        warped = geometry.backward_warp(images[m], offset)
        l1 = ad.mean_all(ad.absolute(ad.sub(images[b], warped)))
        dssim = ad.mulc(ad.addc(ad.mulc(ad.mean_all(ssim(images[b], warped)), -1.0), 1.0), alpha / 2.0)
        term = ad.add(ad.mulc(l1, 1.0 - alpha), dssim)
        total = term if total is None else ad.add(total, term)
    return total


# ---------------------------------------------------------------------------
# frozen-feature perceptual loss
# ---------------------------------------------------------------------------

_FROZEN_FEATURE_SEED = 714025


class PerceptualNet:
    """Frozen random 4-layer conv feature extractor.

    Stands in for pretrained features so the package stays hermetic; weights
    are fixed at construction and never trained. Substitute any object with
    a compatible ``__call__`` to use external features instead.
    """

    def __init__(self, seed: int = _FROZEN_FEATURE_SEED):
        rng = np.random.default_rng(seed)
        plan = [(3, 8, 2), (8, 16, 2), (16, 16, 1), (16, 16, 1)]
        self.kernels = []
        for c_in, c_out, stride in plan:
            std = np.sqrt(2.0 / (c_in * 9))
            self.kernels.append((ad.constant(rng.standard_normal((c_out, c_in, 3, 3)) * std), stride))

    def __call__(self, image: Tensor) -> list[Tensor]:
        feats = []
        x = image
        for kernel, stride in self.kernels:
            x = ad.leaky_relu(ad.conv2d(x, kernel, stride=stride, padding=1))
            feats.append(x)
        return feats


_default_perceptual_net: PerceptualNet | None = None


def default_perceptual_net() -> PerceptualNet:
    global _default_perceptual_net
    if _default_perceptual_net is None:
        _default_perceptual_net = PerceptualNet()
    return _default_perceptual_net


def perceptual_loss(a: Tensor, b: Tensor, feature_net=None) -> Tensor:
    """Mean L1 between frozen features of two images, averaged over layers."""
    net = feature_net if feature_net is not None else default_perceptual_net()
    fa = net(a)
    fb = net(b)
    total = None
    for x, y in zip(fa, fb):
        term = ad.mean_all(ad.absolute(ad.sub(x, y)))
        total = term if total is None else ad.add(total, term)
    return ad.mulc(total, 1.0 / len(fa))


def feature_matching_loss(
    fake_feats: list[list[Tensor]], real_feats: list[list[Tensor]]
) -> Tensor:
    """L1 between discriminator activations of fake and real inputs.

    Averaged over layers and scales. The real branch is detached so
    gradients reach the generator only.
    """
    if len(fake_feats) != len(real_feats):
        raise ValueError(f"scale count mismatch: {len(fake_feats)} vs {len(real_feats)}")
    terms = []
    for scale_fake, scale_real in zip(fake_feats, real_feats):
        if len(scale_fake) != len(scale_real):
            raise ValueError(f"layer count mismatch: {len(scale_fake)} vs {len(scale_real)}")
        for f, r in zip(scale_fake, scale_real):
            terms.append(ad.mean_all(ad.absolute(ad.sub(f, r.detach()))))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.mulc(total, 1.0 / len(terms))


def full_objective(components: dict[str, Tensor], weights: LossWeights) -> dict[str, Tensor]:
    """Combine component losses into per-role objectives.

    ``loss_G`` collects the generator-facing terms, ``loss_C`` the
    discriminator hinge, ``loss_E`` the matcher terms. Missing components
    count as zero.
    """
    zero = ad.constant(np.zeros(()))
    get = lambda key: components.get(key, zero)
    loss_g = ad.add(
        get("adv_g"),
        ad.add(
            ad.mulc(get("perc"), weights.lambda_perc),
            ad.add(
                ad.mulc(get("feat"), weights.lambda_feat),
                ad.mulc(get("stereo"), weights.lambda_stereo),
            ),
        ),
    )
    loss_e = ad.add(
        ad.mulc(get("disp"), weights.lambda_disp),
        ad.mulc(get("reproj"), weights.lambda_reproj),
    )
    return {"loss_G": loss_g, "loss_C": get("adv_c"), "loss_E": loss_e}
