"""Loss functions: hinge adversarial terms, multi-scale stereo consistency,
supervised disparity regression, photometric reprojection, and the frozen
perceptual / feature-matching terms, plus the two weighted objectives:
:func:`generator_objective` for the translator and
:func:`matcher_objective` for the adapted matcher.

View pairs are passed as ``{"left": ..., "right": ...}`` dicts; the two
(base, match) orderings of every symmetric loss are summed; the matcher's
losses sum over the views their prediction dict holds.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from . import geometry
from .autodiff import Tensor
from .config import RunConfig
from .geometry import VIEWS

_SSIM_C1 = 0.01**2
_SSIM_C2 = 0.03**2


def _scale_mean(logit_maps: list[Tensor], transform=None) -> Tensor:
    return ad.mean_n([ad.mean_all(lm if transform is None else transform(lm)) for lm in logit_maps])


def adv_loss_generator(fake_logits: dict[str, list[Tensor]]) -> Tensor:
    """Hinge generator loss: minus the mean fake logit, summed over views."""
    return ad.add_n([ad.mulc(_scale_mean(fake_logits[v]), -1.0) for v in VIEWS])


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
    groups = ((fake_logits, fake_t), (real_source_logits, fake_t), (real_target_logits, real_t))
    return ad.add_n([_scale_mean(group[v], transform) for group, transform in groups for v in VIEWS])


def stereo_consistency_loss(
    gen_feats: dict[str, list[tuple[Tensor, int]]],
    images: dict[str, Tensor] | None,
    gt_disparities: dict[str, np.ndarray],
) -> Tensor:
    """Occlusion-masked L1 between each view and the warp of the other view.

    Applied per scale on generator features brought back to full resolution
    by one :func:`autodiff.upsample_bilinear2` call at their factor (the
    translated images participate as they are), warped under the
    ground-truth disparity of the base view, normalized by the unoccluded
    pixel count, and summed over scales and both view orderings. Each term
    is one :func:`geometry.warped_l1` op; the terms of one base view share
    one :func:`geometry.warp_plan`, which lives only as long as the tape,
    and that plan also gives the view's occlusion mask, the
    :func:`geometry.lr_mask` of the two ground-truth maps. A base view
    whose mask is empty adds no terms.

    One scale is upsampled at a time, for both views, and both base views'
    terms of that scale are built before the next: no term keeps a feature,
    so only one scale's full-resolution maps are alive at once. The terms
    are still summed base-major, every left-base term before every
    right-base one, which fixes the value and the backward walk.
    """
    factors = [factor for _, factor in gen_feats["left"]]
    if factors != [factor for _, factor in gen_feats["right"]]:
        raise ValueError("mismatched upsampling factors between views")
    plans = {b: geometry.warp_plan(gt_disparities[b], b) for b in VIEWS}
    visible = {b: geometry.lr_mask(gt_disparities, b, plans[b]) for b in VIEWS}
    terms: dict[str, list[Tensor]] = {b: [] for b in VIEWS}

    def add_terms(full: dict[str, Tensor]) -> None:
        """Both base views' terms of one scale; ``full`` dies with the call."""
        for b in VIEWS:
            mask = visible[b]
            if full[b].shape[1:] != mask.shape:
                raise ValueError(
                    f"upsampled feature {full[b].shape} does not reach mask resolution {mask.shape}"
                )
            if mask.any():
                terms[b].append(geometry.warped_l1(full[b], full[geometry.other_view(b)], plans[b], mask))

    for scale in zip(*(gen_feats[v] for v in VIEWS)):
        add_terms({v: ad.upsample_bilinear2(f, factor) for v, (f, factor) in zip(VIEWS, scale)})
    if images is not None:
        add_terms(images)
    return ad.add_n([t for b in VIEWS for t in terms[b]])


def smooth_l1(x: Tensor) -> Tensor:
    """Elementwise 0.5 x^2 for |x| < 1, |x| - 0.5 otherwise."""
    inner = np.abs(x.data) < 1.0
    out = np.where(inner, 0.5 * x.data * x.data, np.abs(x.data) - 0.5)
    dfactor = np.where(inner, x.data, np.sign(x.data))
    return ad._result(out, (x,), (lambda g: g * dfactor,))


def _mean_penalty(penalty, pred: Tensor, gt: np.ndarray) -> Tensor:
    """Mean of ``penalty(pred - gt)`` over the pixels of ``gt``."""
    diff = ad.sub(pred, ad.constant(gt))
    return ad.mulc(ad.sum_all(penalty(diff)), 1.0 / gt.size)


def l1_disparity_loss(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Mean absolute disparity error over the pixels of one view."""
    return _mean_penalty(ad.absolute, pred, gt)


def disparity_loss(predictions: dict[str, Tensor], gt_disparities: dict[str, np.ndarray]) -> Tensor:
    """Mean smooth-L1 disparity error over all pixels, summed over each view given."""
    return ad.add_n([_mean_penalty(smooth_l1, predictions[v], gt_disparities[v]) for v in VIEWS if v in predictions])


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
    sampling offsets; the term of each base view given is summed.
    """
    terms = []
    for b in (v for v in VIEWS if v in pred_disparities):
        m = geometry.other_view(b)
        offset = geometry.signed_offset(pred_disparities[b], b)
        warped = geometry.backward_warp(images[m], offset)
        l1 = ad.mean_all(ad.absolute(ad.sub(images[b], warped)))
        dssim = ad.mulc(ad.addc(ad.mulc(ad.mean_all(ssim(images[b], warped)), -1.0), 1.0), alpha / 2.0)
        terms.append(ad.add(ad.mulc(l1, 1.0 - alpha), dssim))
    return ad.add_n(terms)


# ---------------------------------------------------------------------------
# frozen-feature perceptual loss
# ---------------------------------------------------------------------------

_FROZEN_FEATURE_SEED = 714025


class PerceptualNet:
    """Frozen random 4-layer conv feature extractor.

    Stands in for pretrained features so the package stays hermetic; weights
    are fixed at construction and never trained.
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


@functools.cache
def default_perceptual_net() -> PerceptualNet:
    return PerceptualNet()


def perceptual_loss(a: Tensor, b: Tensor) -> Tensor:
    """Mean L1 between frozen features of two images, averaged over layers."""
    net = default_perceptual_net()
    return ad.mean_n([ad.mean_all(ad.absolute(ad.sub(x, y))) for x, y in zip(net(a), net(b))])


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
    return ad.mean_n(terms)


def generator_objective(components: dict[str, Tensor], config: RunConfig) -> Tensor:
    """The translator's objective: adv_g + perc + feat + stereo, each weighted by its ``lambda_*`` in ``config``."""
    return ad.add(
        components["adv_g"],
        ad.add(
            ad.mulc(components["perc"], config.lambda_perc),
            ad.add(
                ad.mulc(components["feat"], config.lambda_feat),
                ad.mulc(components["stereo"], config.lambda_stereo),
            ),
        ),
    )


def matcher_objective(components: dict[str, Tensor], config: RunConfig) -> Tensor:
    """The adapted matcher's objective: disp + reproj, each weighted by its ``lambda_*`` in ``config``."""
    return ad.add(
        ad.mulc(components["disp"], config.lambda_disp),
        ad.mulc(components["reproj"], config.lambda_reproj),
    )
