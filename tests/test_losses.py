import numpy as np
import pytest

from sca_stereo import autodiff as ad
from sca_stereo import geometry, losses
from sca_stereo.config import RunConfig
from sca_stereo.errors import ConfigError

from oracles import (
    backward_warp_oracle,
    lr_occlusion_oracle,
    smooth_l1_oracle,
    ssim_oracle,
    stereo_consistency_oracle,
    tape_nbytes,
)

VIEWS = ("left", "right")


def const_logits(value, shape=(1, 3, 4)):
    return {v: [ad.constant(np.full(shape, value))] for v in VIEWS}


class TestAdvGenerator:
    def test_constant_logits(self):
        loss = losses.adv_loss_generator(const_logits(0.3))
        assert loss.item() == pytest.approx(-0.6, abs=1e-12)

    def test_zero_logits(self):
        assert losses.adv_loss_generator(const_logits(0.0)).item() == 0.0

    def test_gradient_sign(self):
        logit = ad.tensor(np.zeros((1, 2, 2)), requires_grad=True)
        loss = losses.adv_loss_generator({"left": [logit], "right": [ad.constant(np.zeros((1, 2, 2)))]})
        ad.backward(loss)
        assert np.all(logit.grad < 0)  # increasing any logit decreases the loss


class TestAdvDiscriminator:
    def test_satisfied_real_margin(self):
        loss = losses.adv_loss_discriminator(
            const_logits(-2.0), const_logits(-2.0), const_logits(2.0)
        )
        assert loss.item() == 0.0

    def test_fake_logit_two(self):
        loss = losses.adv_loss_discriminator(
            const_logits(2.0), const_logits(-2.0), const_logits(2.0)
        )
        assert loss.item() == pytest.approx(6.0, abs=1e-12)  # max(0, 1+2) per fake view

    def test_zero_logits_count_terms(self):
        loss = losses.adv_loss_discriminator(
            const_logits(0.0), const_logits(0.0), const_logits(0.0)
        )
        assert loss.item() == pytest.approx(6.0, abs=1e-12)  # six view-terms of value 1


class TestStereoConsistency:
    def _setup(self, h=6, w=12, d=2.5):
        return {v: np.full((h, w), d) for v in VIEWS}

    def test_identical_features_tiny_disparity(self):
        h, w = 4, 10
        eps = 1e-9
        rng = np.random.default_rng(0)
        f = ad.constant(rng.standard_normal((2, h, w)))
        disp = {v: np.full((h, w), eps) for v in VIEWS}
        loss = losses.stereo_consistency_loss([{v: f for v in VIEWS}], disp)
        assert loss.item() <= 1e-6

    def test_shifted_features_zero_on_unmasked(self):
        h, w, d = 4, 16, 3
        rng = np.random.default_rng(1)
        base = rng.standard_normal((2, h, w + d))
        # left column i shows world x = i, right column k shows world x = k + d
        f_l = ad.constant(base[:, :, :w])
        f_r = ad.constant(base[:, :, d:])
        disp = self._setup(h, w, float(d))
        loss = losses.stereo_consistency_loss([{"left": f_l, "right": f_r}], disp)
        assert loss.item() <= 1e-12

    def test_matches_brute_force_oracle(self):
        h, w = 8, 16
        rng = np.random.default_rng(2)
        # a quarter-, a half- and a full-width feature pair, then the images
        maps = [{v: ad.constant(rng.standard_normal((3, h // k, w // k))) for v in VIEWS} for k in (4, 2, 1)]
        maps.append({v: ad.constant(rng.uniform(0, 1, (3, h, w))) for v in VIEWS})
        disp = {v: rng.uniform(1.0, 3.0, (h, w)) for v in VIEWS}
        # the loss derives its masks; the oracle gets them from the brute-force left-right check
        masks = {b: lr_occlusion_oracle(disp[b], disp[geometry.other_view(b)], b) for b in VIEWS}
        assert all(0 < masks[b].sum() < h * w for b in VIEWS)
        loss = losses.stereo_consistency_loss(maps, disp)
        expected = stereo_consistency_oracle([{v: m[v].data for v in VIEWS} for m in maps], disp, masks)
        assert abs(loss.item() - expected) <= 1e-12

    def test_full_width_pair_is_not_upsampled(self, monkeypatch):
        h, w = 4, 8
        rng = np.random.default_rng(6)
        maps = [{v: ad.constant(rng.standard_normal((2, h // k, w // k))) for v in VIEWS} for k in (2, 1)]
        factors = []
        upsample = ad.upsample_bilinear2

        def recording_upsample(a, factor=2):
            factors.append(factor)
            return upsample(a, factor)

        monkeypatch.setattr(ad, "upsample_bilinear2", recording_upsample)
        losses.stereo_consistency_loss(maps, self._setup(h, w))
        assert factors == [2, 2]  # the half-width pair's two views, at the width ratio

    @pytest.mark.parametrize("width", [4, 5, 24])
    def test_width_ratio_not_a_power_of_two_rejected(self, width):
        # the ground truth is 12 wide: 12 over 4 is 3, over 5 is not whole, over 24 is below one
        maps = [{v: ad.constant(np.zeros((1, 6, width))) for v in VIEWS}]
        with pytest.raises(ValueError):
            losses.stereo_consistency_loss(maps, self._setup())

    def test_empty_mask_contributes_zero(self):
        h, w = 3, 6
        rng = np.random.default_rng(3)
        feats = {v: ad.constant(rng.standard_normal((1, h, w))) for v in VIEWS}
        # no pixel of either view passes the left-right check: |2 - 5| = 3, and 2 or 5 against a zero past the edge
        disp = {"left": np.full((h, w), 2.0), "right": np.full((h, w), 5.0)}
        assert not any(geometry.occlusion_mask(disp, v).any() for v in VIEWS)
        loss = losses.stereo_consistency_loss([feats], disp)
        assert loss.item() == 0.0

    def test_warped_features_strictly_reduce_loss(self):
        h, w, d = 4, 14, 3.0
        rng = np.random.default_rng(4)
        f_l = ad.constant(rng.standard_normal((2, h, w)))
        f_r = ad.constant(rng.standard_normal((2, h, w)))
        disp = self._setup(h, w, d)
        loose = losses.stereo_consistency_loss([{"left": f_l, "right": f_r}], disp).item()
        # replace the left features by the ground-truth warp of the right view
        warped_l = ad.constant(backward_warp_oracle(f_r.data, -disp["left"]))
        tight = losses.stereo_consistency_loss([{"left": warped_l, "right": f_r}], disp).item()
        assert tight < loose


def _composed_l1(f_base, f_match, disparity, view, mask):
    """The masked L1 term as the op chain it replaced: warp, sub, abs, mask, sum, scale."""
    offset = geometry.signed_offset(ad.constant(disparity), view)
    diff = ad.absolute(ad.sub(f_base, geometry.backward_warp(f_match, offset)))
    return ad.mulc(ad.sum_all(ad.mul_spatial(diff, ad.constant(mask))), 1.0 / float(mask.sum()))


class TestWarpedL1:
    @staticmethod
    def _value_and_grads(term_fn, data_b, data_m, mask, term_first):
        f_b = ad.tensor(data_b, requires_grad=True)
        f_m = ad.tensor(data_m, requires_grad=True)
        # a second consumer of both inputs; whichever reaches them first sets their gradient arrays
        other = ad.sum_all(ad.mulc(ad.add(f_b, f_m), 0.5))
        term = term_fn(f_b, f_m, mask)
        value = term.item()
        ad.backward(ad.add(other, term) if term_first else ad.add(term, other))
        return value, f_b.grad, f_m.grad

    @pytest.mark.parametrize("term_first", [True, False])
    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize(
        "kind, mask_dtype",  # gradcheck passes a {0,1} float mask, stereo_consistency_loss a bool one
        [
            pytest.param(kind, dtype, id=kind + suffix)
            for dtype, suffix in ((np.float64, ""), (bool, "-bool-mask"))
            for kind in ("fractional", "integer")
        ],
    )
    def test_bit_equal_to_composed_chain(self, view, kind, mask_dtype, term_first):
        rng = np.random.default_rng(11)
        c, h, w = 3, 5, 16
        disp = rng.uniform(0.0, 6.0, (h, w))
        if kind == "integer":
            disp = np.round(disp)
        disp[:, :2] = 7.5  # samples past the left edge from the left view, ...
        disp[:, -2:] = 7.5  # ... past the right edge from the right view
        mask = (rng.random((h, w)) > 0.3).astype(mask_dtype)
        mask[1] = 0  # a zero row
        data_b, data_m = rng.standard_normal((c, h, w)), rng.standard_normal((c, h, w))
        data_b[:, 3, :2] = 0.0  # |d| at its kink: the left view reads zeros past the edge there
        results = []
        for term_fn in (
            lambda fb, fm, m: _composed_l1(fb, fm, disp, view, m),
            lambda fb, fm, m: geometry.warped_l1(fb, fm, geometry.warp_plan(disp, view), m),
        ):
            results.append(self._value_and_grads(term_fn, data_b, data_m, mask, term_first))
        (value, grad_b, grad_m), (fused_value, fused_b, fused_m) = results
        assert fused_value == value
        assert np.array_equal(fused_b.view(np.int64), grad_b.view(np.int64))
        assert np.array_equal(fused_m.view(np.int64), grad_m.view(np.int64))

    def test_mask_normalization_scale_free(self):
        # uniform per-pixel error: halving the mask area leaves the term unchanged
        h, w = 4, 12
        f_b = ad.constant(np.zeros((1, h, w)))
        f_m = ad.constant(np.ones((1, h, w)))
        plan = geometry.warp_plan(np.full((h, w), 1e-12), "left")
        values = []
        for cols in (w, w // 2):
            mask = np.zeros((h, w), dtype=bool)
            mask[:, :cols] = True
            values.append(geometry.warped_l1(f_b, f_m, plan, mask).item())
        assert values[0] == pytest.approx(values[1], abs=1e-12)

    def test_tape_keeps_an_int8_signed_mask_and_the_plan(self):
        rng = np.random.default_rng(12)
        c, h, w = 3, 5, 16
        plan = geometry.tent_plan(rng.uniform(-3.0, 3.0, (h, w)))
        f_b, f_m = (ad.tensor(rng.standard_normal((c, h, w)), requires_grad=True) for _ in range(2))
        term = geometry.warped_l1(f_b, f_m, plan, np.ones((h, w)))
        assert tape_nbytes(term) == c * h * w + sum(a.nbytes for a in plan)

    def test_nan_difference_reaches_both_gradients(self):
        rng = np.random.default_rng(13)
        c, h, w = 2, 3, 8
        data_b = rng.standard_normal((c, h, w))
        data_b[0, 1, 4] = np.nan
        f_b, f_m = ad.tensor(data_b, requires_grad=True), ad.tensor(rng.standard_normal((c, h, w)), requires_grad=True)
        ad.backward(geometry.warped_l1(f_b, f_m, geometry.tent_plan(np.full((h, w), -1.5)), np.ones((h, w))))
        assert np.isnan(f_b.grad[0, 1, 4]) and np.isnan(f_m.grad[0, 1]).any()

    def test_shape_mismatch(self):
        plan = geometry.tent_plan(np.zeros((2, 5)))
        f = ad.constant(np.zeros((1, 2, 5)))
        with pytest.raises(ValueError, match="shape mismatch"):
            geometry.warped_l1(f, ad.constant(np.zeros((2, 2, 5))), plan, np.ones((2, 5)))
        with pytest.raises(ValueError, match="mask shape"):
            geometry.warped_l1(f, f, plan, np.ones((2, 4)))
        with pytest.raises(ValueError, match="plan shape"):
            geometry.warped_l1(f, f, geometry.tent_plan(np.zeros((2, 4))), np.ones((2, 5)))

    def test_one_plan_per_base_view(self, monkeypatch):
        rng = np.random.default_rng(5)
        h, w = 4, 12
        disp = {v: rng.uniform(1.0, 3.0, (h, w)) for v in VIEWS}
        masks = {v: geometry.occlusion_mask(disp, v) for v in VIEWS}  # built before the recording starts
        made, handed = [], []  # (offset, plan) of each tent_plan call; (mask, plan) of each warped_l1 call
        tent_plan, warped_l1 = geometry.tent_plan, geometry.warped_l1

        def recording_tent_plan(offset):
            made.append((offset, tent_plan(offset)))
            return made[-1][1]

        def recording_warped_l1(f_base, f_match, plan, mask):
            handed.append((mask, plan))
            return warped_l1(f_base, f_match, plan, mask)

        monkeypatch.setattr(geometry, "tent_plan", recording_tent_plan)
        monkeypatch.setattr(geometry, "warped_l1", recording_warped_l1)
        # three feature scales and the images: four terms per base view
        scales = [(2, 1), (3, 2), (4, 4)]
        maps = [{v: ad.tensor(rng.standard_normal((c, h // k, w // k)), True) for v in VIEWS} for c, k in scales]
        maps.append({v: ad.tensor(rng.uniform(0, 1, (3, h, w)), requires_grad=True) for v in VIEWS})
        ad.backward(losses.stereo_consistency_loss(maps, disp))
        # exactly one plan per base view, built from that view's warp offset
        assert len(made) == 2
        plan_of = {}
        for v in VIEWS:
            offset = geometry.signed_offset(ad.constant(disp[v]), v).data
            (plan_of[v],) = [plan for o, plan in made if np.array_equal(o, offset)]
        # eight terms, four per base view, each handed its own view's plan and occlusion mask
        assert len(handed) == 8
        for v in VIEWS:
            view_masks = [mask for mask, plan in handed if plan is plan_of[v]]
            assert len(view_masks) == 4 and all(np.array_equal(mask, masks[v]) for mask in view_masks)


class TestSmoothL1:
    def test_quadratic_branch(self):
        assert losses.smooth_l1(ad.constant(np.array(0.5))).item() == pytest.approx(0.125)

    def test_linear_branch(self):
        assert losses.smooth_l1(ad.constant(np.array(2.0))).item() == pytest.approx(1.5)

    def test_branch_boundary_continuous(self):
        assert losses.smooth_l1(ad.constant(np.array(1.0))).item() == pytest.approx(0.5)

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-3, 3, (4, 7))
        out = losses.smooth_l1(ad.constant(x))
        assert np.max(np.abs(out.data - smooth_l1_oracle(x))) <= 1e-15


class TestDisparityLoss:
    def _gt(self, h=4, w=6, d=3.0):
        return {v: np.full((h, w), d) for v in VIEWS}

    def test_perfect_prediction(self):
        gts = self._gt()
        preds = {v: ad.constant(gts[v].copy()) for v in VIEWS}
        assert losses.disparity_loss(preds, gts).item() == 0.0

    def test_uniform_half_pixel_error(self):
        gts = self._gt()
        preds = {v: ad.constant(gts[v] + 0.5) for v in VIEWS}
        assert losses.disparity_loss(preds, gts).item() == pytest.approx(0.25, abs=1e-12)

    def test_sums_the_views_given(self):
        rng = np.random.default_rng(12)
        gts = self._gt()
        preds = {v: ad.constant(rng.uniform(1.0, 5.0, (4, 6))) for v in VIEWS}
        one = [losses.disparity_loss({v: preds[v]}, gts).item() for v in VIEWS]
        assert losses.disparity_loss(preds, gts).item() == one[0] + one[1]


class TestSsim:
    def test_identical_images(self):
        rng = np.random.default_rng(6)
        a = ad.constant(rng.uniform(0, 1, (2, 6, 7)))
        out = losses.ssim(a, a)
        assert np.max(np.abs(out.data - 1.0)) <= 1e-12

    def test_bounded(self):
        rng = np.random.default_rng(7)
        a = ad.constant(rng.uniform(0, 1, (3, 8, 9)))
        b = ad.constant(rng.uniform(0, 1, (3, 8, 9)))
        out = losses.ssim(a, b)
        assert np.all(out.data >= -1.0 - 1e-12)
        assert np.all(out.data <= 1.0 + 1e-12)

    def test_matches_windowed_statistics_oracle(self):
        rng = np.random.default_rng(8)
        a = ad.constant(rng.uniform(0, 1, (2, 6, 8)))
        b = ad.constant(rng.uniform(0, 1, (2, 6, 8)))
        out = losses.ssim(a, b)
        assert np.max(np.abs(out.data - ssim_oracle(a.data, b.data))) <= 1e-12


class TestReprojection:
    def test_sums_the_views_given(self):
        rng = np.random.default_rng(13)
        images = {v: ad.constant(rng.uniform(0, 1, (3, 5, 8))) for v in VIEWS}
        preds = {v: ad.constant(rng.uniform(0.5, 2.5, (5, 8))) for v in VIEWS}
        one = [losses.reprojection_loss(images, {v: preds[v]}).item() for v in VIEWS]
        assert losses.reprojection_loss(images, preds).item() == one[0] + one[1]

    def test_identical_views_zero_disparity(self):
        rng = np.random.default_rng(9)
        img = ad.constant(rng.uniform(0, 1, (3, 5, 8)))
        images = {"left": img, "right": img}
        preds = {v: ad.constant(np.zeros((5, 8))) for v in VIEWS}
        assert losses.reprojection_loss(images, preds).item() == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(11)
        alpha = 0.85  # the paper's SSIM weight
        images = {v: ad.constant(rng.uniform(0, 1, (3, 6, 9))) for v in VIEWS}
        preds = {v: ad.constant(rng.uniform(0.5, 2.5, (6, 9))) for v in VIEWS}
        loss = losses.reprojection_loss(images, preds)
        expected = 0.0
        for b in VIEWS:
            m = geometry.other_view(b)
            sign = -1.0 if b == "left" else 1.0
            warped = backward_warp_oracle(images[m].data, sign * preds[b].data)
            l1 = np.abs(images[b].data - warped).mean()
            ssim_mean = ssim_oracle(images[b].data, warped).mean()
            expected += (1 - alpha) * l1 + (alpha / 2.0) * (1.0 - ssim_mean)
        assert loss.item() == pytest.approx(expected, abs=1e-12)


class TestPerceptual:
    def test_identical_images_zero(self):
        rng = np.random.default_rng(12)
        img = ad.constant(rng.uniform(0, 1, (3, 8, 8)))
        assert losses.perceptual_loss(img, img).item() == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        a = ad.constant(rng.uniform(0, 1, (3, 8, 8)))
        b = ad.constant(rng.uniform(0, 1, (3, 8, 8)))
        assert losses.perceptual_loss(a, b).item() == pytest.approx(
            losses.perceptual_loss(b, a).item(), abs=1e-15
        )

    def test_deterministic_frozen_features(self):
        rng = np.random.default_rng(14)
        a = ad.constant(rng.uniform(0, 1, (3, 8, 8)))
        b = ad.constant(rng.uniform(0, 1, (3, 8, 8)))
        assert losses.perceptual_loss(a, b).item() == losses.perceptual_loss(a, b).item()
        assert losses.perceptual_kernels() is losses.perceptual_kernels()
        fresh = losses.perceptual_kernels.__wrapped__()
        for (k_fresh, stride_fresh), (k, stride) in zip(fresh, losses.perceptual_kernels()):
            assert np.array_equal(k_fresh.data, k.data) and stride_fresh == stride


class TestFeatureMatching:
    def test_identical_inputs_zero(self):
        rng = np.random.default_rng(15)
        feats = [[ad.constant(rng.standard_normal((2, 3, 3)))]]
        assert losses.feature_matching_loss(feats, feats).item() == 0.0

    def test_non_negative(self):
        rng = np.random.default_rng(16)
        a = [[ad.constant(rng.standard_normal((2, 3, 3)))]]
        b = [[ad.constant(rng.standard_normal((2, 3, 3)))]]
        assert losses.feature_matching_loss(a, b).item() >= 0.0

    def test_matches_per_layer_oracle(self):
        rng = np.random.default_rng(17)
        a = [
            [ad.constant(rng.standard_normal((2, 3, 3))), ad.constant(rng.standard_normal((4, 2, 2)))],
            [ad.constant(rng.standard_normal((3, 3, 3)))],
        ]
        b = [
            [ad.constant(rng.standard_normal((2, 3, 3))), ad.constant(rng.standard_normal((4, 2, 2)))],
            [ad.constant(rng.standard_normal((3, 3, 3)))],
        ]
        loss = losses.feature_matching_loss(a, b)
        layer_means = [
            np.abs(x.data - y.data).mean() for sa, sb in zip(a, b) for x, y in zip(sa, sb)
        ]
        assert loss.item() == pytest.approx(np.mean(layer_means), abs=1e-12)

    def test_layer_count_mismatch(self):
        a = [[ad.constant(np.zeros((1, 2, 2)))]]
        b = [[ad.constant(np.zeros((1, 2, 2))), ad.constant(np.zeros((1, 2, 2)))]]
        with pytest.raises(ValueError):
            losses.feature_matching_loss(a, b)

    def test_real_branch_detached(self):
        fake = ad.tensor(np.ones((1, 2, 2)), requires_grad=True)
        real = ad.tensor(np.zeros((1, 2, 2)), requires_grad=True)
        loss = losses.feature_matching_loss([[fake]], [[real]])
        ad.backward(loss)
        assert fake.grad is not None
        assert real.grad is None


class TestFullObjective:
    def _components(self):
        return {
            "adv_g": ad.constant(np.array(2.0)),
            "perc": ad.constant(np.array(0.5)),
            "feat": ad.constant(np.array(0.25)),
            "stereo": ad.constant(np.array(0.1)),
            "disp": ad.constant(np.array(4.0)),
            "reproj": ad.constant(np.array(1.5)),
        }

    def test_paper_weights_arithmetic(self):
        weights = RunConfig()  # lambdas 1.0, 1.0, 10.0, 0.1, 1.0
        loss_g = losses.generator_objective(self._components(), weights)
        loss_e = losses.matcher_objective(self._components(), weights)
        assert loss_g.item() == pytest.approx(2.0 + 0.5 + 0.25 + 1.0, abs=1e-12)
        assert loss_e.item() == pytest.approx(0.1 * 4.0 + 1.5, abs=1e-12)

    def test_zero_weights_endpoint(self):
        weights = RunConfig(lambda_perc=0.0, lambda_feat=0.0, lambda_stereo=0.0, lambda_disp=0.0, lambda_reproj=0.0)
        assert losses.matcher_objective(self._components(), weights).item() == 0.0
        assert losses.generator_objective(self._components(), weights).item() == pytest.approx(2.0)

    @pytest.mark.parametrize("name", ["lambda_perc", "lambda_feat", "lambda_stereo", "lambda_disp", "lambda_reproj"])
    def test_negative_weight_rejected(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be non-negative, got -1.0$"):
            RunConfig(**{name: -1.0}).validate()
        RunConfig(**{name: 0.0}).validate()
