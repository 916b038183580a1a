import numpy as np
import pytest

from sca_stereo import autodiff as ad
from sca_stereo import geometry
from sca_stereo.errors import UndefinedMetricError
from sca_stereo.gradcheck import check_gradients

from oracles import backward_warp_oracle, lr_occlusion_oracle


def disparity_map(values, view, valid=None):
    mask = None if valid is None else ad.constant(np.asarray(valid, dtype=float))
    return geometry.DisparityMap(ad.constant(np.asarray(values, dtype=float)), view, mask)


class TestReprojection:
    RIG = geometry.CameraRig(baseline_b=2.0, f_u=100.0, f_v=100.0, c_u=50.0, c_v=50.0)

    def test_left_pixel_off_axis(self):
        d = np.zeros((64, 80))
        d[50, 60] = 10.0
        valid = np.zeros_like(d)
        valid[50, 60] = 1.0
        cloud = geometry.disparity_to_world_points(disparity_map(d, "left", valid), self.RIG)
        assert np.allclose(cloud.points.data[:, 50, 60], [1.0, 0.0, 20.0], atol=1e-12)

    def test_left_pixel_at_principal_point(self):
        d = np.zeros((64, 80))
        d[50, 50] = 20.0
        valid = np.zeros_like(d)
        valid[50, 50] = 1.0
        cloud = geometry.disparity_to_world_points(disparity_map(d, "left", valid), self.RIG)
        assert np.allclose(cloud.points.data[:, 50, 50], [-1.0, 0.0, 10.0], atol=1e-12)

    def test_invalid_pixels_emit_zero(self):
        d = np.full((4, 4), 5.0)
        valid = np.zeros((4, 4))
        valid[0, 0] = 1.0
        cloud = geometry.disparity_to_world_points(disparity_map(d, "left", valid), self.RIG)
        assert np.array_equal(cloud.points.data[:, 1:, :], np.zeros((3, 3, 4)))

    def test_nonpositive_disparity_rejected(self):
        d = np.zeros((3, 3))
        with pytest.raises(ValueError):
            geometry.disparity_to_world_points(disparity_map(d, "left"), self.RIG)

    def test_fronto_parallel_views_match_in_world(self):
        h, w, disp = 10, 40, 7.0
        rig = geometry.CameraRig(baseline_b=0.5, f_u=90.0, f_v=110.0, c_u=(w - 1) / 2, c_v=(h - 1) / 2)
        cloud_l = geometry.disparity_to_world_points(disparity_map(np.full((h, w), disp), "left"), rig)
        cloud_r = geometry.disparity_to_world_points(disparity_map(np.full((h, w), disp), "right"), rig)
        d = int(disp)
        left = cloud_l.points.data[:, :, d:]
        right = cloud_r.points.data[:, :, : w - d]
        assert np.max(np.abs(left - right)) <= 1e-9


class TestBackwardWarp:
    def test_zero_offset_is_identity(self):
        rng = np.random.default_rng(0)
        f = ad.tensor(rng.standard_normal((3, 4, 9)))
        out = geometry.backward_warp(f, ad.tensor(np.zeros((4, 9))))
        assert np.array_equal(out.data, f.data)

    def test_integer_shift(self):
        rng = np.random.default_rng(1)
        f = ad.tensor(rng.standard_normal((2, 3, 10)))
        out = geometry.backward_warp(f, ad.tensor(np.full((3, 10), -3.0)))
        assert np.array_equal(out.data[:, :, 3:], f.data[:, :, :7])
        assert np.array_equal(out.data[:, :, :3], np.zeros((2, 3, 3)))

    def test_half_pixel_midpoint(self):
        rng = np.random.default_rng(2)
        f = ad.tensor(rng.standard_normal((1, 2, 8)))
        out = geometry.backward_warp(f, ad.tensor(np.full((2, 8), -0.5)))
        expected = 0.5 * (f.data[:, :, :7] + f.data[:, :, 1:])
        assert np.max(np.abs(out.data[:, :, 1:] - expected)) <= 1e-15

    def test_matches_tent_sum_oracle(self):
        rng = np.random.default_rng(3)
        f = ad.tensor(rng.standard_normal((3, 5, 12)))
        offset = ad.tensor(rng.uniform(-4.0, 4.0, (5, 12)))
        out = geometry.backward_warp(f, offset)
        assert np.max(np.abs(out.data - backward_warp_oracle(f.data, offset.data))) <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((2, 4, 10))
        g = rng.standard_normal((2, 4, 10))
        offset = ad.tensor(rng.uniform(-3.0, 3.0, (4, 10)))
        combined = geometry.backward_warp(ad.tensor(2.0 * f + 3.0 * g), offset).data
        separate = 2.0 * geometry.backward_warp(ad.tensor(f), offset).data + 3.0 * geometry.backward_warp(
            ad.tensor(g), offset
        ).data
        assert np.max(np.abs(combined - separate)) <= 1e-12

    def test_gradients_at_interior(self):
        rng = np.random.default_rng(5)
        f = ad.tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
        offset = ad.tensor(rng.uniform(-1.0, 1.0, (3, 8)) + 0.29, requires_grad=True)
        w = ad.constant(rng.standard_normal((2, 3, 8)))
        err = check_gradients(
            lambda f, o: ad.sum_all(ad.mul(geometry.backward_warp(f, o), w)), [f, offset]
        )
        assert err <= 1e-5

    def test_feature_gradient_matches_add_at_bitwise(self):
        rng = np.random.default_rng(6)
        c, h, w = 5, 4, 24
        f = ad.tensor(rng.standard_normal((c, h, w)), requires_grad=True)
        offset = rng.uniform(-2.0, 2.0, (h, w))
        offset[:, :3] = -2.6  # off the left edge; column 2 straddles it
        offset[:, -3:] = 2.4  # off the right edge; column w-3 straddles it
        offset[:, 8:14] = 8.25 - np.arange(8, 14)  # six targets sample columns 8 and 9
        g = rng.standard_normal((c, h, w))
        out = geometry.backward_warp(f, ad.constant(offset))
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))

        s = np.arange(w)[None, :] + offset
        k0 = np.floor(s).astype(np.int64)
        frac = s - k0
        rows = np.arange(h)[:, None]
        expected = np.zeros((c, h * w))
        chan = np.arange(c)[:, None]
        for k, weight in ((k0, 1.0 - frac), (k0 + 1, frac)):
            inside = (k >= 0) & (k < w)
            idx = (rows * w + np.clip(k, 0, w - 1)).ravel()
            np.add.at(expected, (chan, idx[None, :]), (g * (weight * inside)[None]).reshape(c, h * w))
        assert np.array_equal(f.grad, expected.reshape(c, h, w))


class TestOcclusionMask:
    def test_consistent_constant_scene(self):
        h, w, d = 4, 16, 3.0
        dl = disparity_map(np.full((h, w), d), "left")
        dr = disparity_map(np.full((h, w), d), "right")
        mask = geometry.occlusion_mask(dl, dr).mask.data
        expected = lr_occlusion_oracle(dl.values.data, dr.values.data, "left")
        assert np.array_equal(mask, expected)
        # in-range columns are all consistent
        assert np.all(mask[:, int(d) :] == 1.0)

    def test_tiny_epsilon_disparity_all_ones(self):
        h, w = 3, 10
        eps = 1e-9
        dl = disparity_map(np.full((h, w), eps), "left")
        dr = disparity_map(np.full((h, w), eps), "right")
        assert np.all(geometry.occlusion_mask(dl, dr).mask.data == 1.0)

    def test_step_edge_occlusion_band(self):
        h, w = 4, 32
        jump_from, jump = 16, 8.0
        dl = np.full((h, w), 2.0)
        dl[:, jump_from:] = 2.0 + jump  # foreground on the right half (left view)
        # right view: foreground region shifts left by its disparity
        dr = np.full((h, w), 2.0)
        dr[:, jump_from - int(2.0 + jump) :] = 2.0 + jump
        mask = geometry.occlusion_mask(disparity_map(dl, "left"), disparity_map(dr, "right")).mask.data
        expected = lr_occlusion_oracle(dl, dr, "left")
        assert np.array_equal(mask, expected)
        # the 8-px band left of the edge samples the foreground: occluded
        band = np.arange(jump_from - int(jump), jump_from)
        assert np.all(mask[:, band] == 0.0)
        assert np.all(mask[:, 4 : jump_from - int(jump)] == 1.0)

    def test_same_view_rejected(self):
        d = disparity_map(np.ones((2, 4)), "left")
        with pytest.raises(ValueError):
            geometry.occlusion_mask(d, d)


class TestMetrics:
    def test_epe_constant_offset(self):
        gt = disparity_map(np.full((5, 6), 4.0), "left")
        pred = ad.constant(np.full((5, 6), 5.0))
        assert geometry.epe(pred, gt) == pytest.approx(1.0)

    def test_epe_perfect(self):
        gt = disparity_map(np.full((5, 6), 4.0), "left")
        assert geometry.epe(gt.values, gt) == 0.0

    def test_epe_hand_summed(self):
        rng = np.random.default_rng(8)
        gt_vals = rng.uniform(1, 10, (4, 5))
        pred = gt_vals + rng.standard_normal((4, 5))
        valid = (rng.random((4, 5)) > 0.3).astype(float)
        gt = disparity_map(gt_vals, "left", valid)
        expected = np.abs(pred - gt_vals)[valid > 0].mean()
        assert geometry.epe(ad.constant(pred), gt) == pytest.approx(expected, abs=1e-15)

    def test_epe_no_valid_pixels(self):
        gt = disparity_map(np.ones((2, 2)), "left", np.zeros((2, 2)))
        with pytest.raises(UndefinedMetricError):
            geometry.epe(gt.values, gt)

    def test_d1_small_gt_counts_outlier(self):
        gt = disparity_map(np.full((1, 1), 10.0), "left")
        pred = ad.constant(np.full((1, 1), 14.0))  # error 4 > max(3, 0.5)
        assert geometry.d1_all(pred, gt) == pytest.approx(100.0)

    def test_d1_large_gt_not_outlier(self):
        gt = disparity_map(np.full((1, 1), 100.0), "left")
        pred = ad.constant(np.full((1, 1), 104.0))  # error 4 <= max(3, 5)
        assert geometry.d1_all(pred, gt) == pytest.approx(0.0)

    def test_d1_perfect(self):
        gt = disparity_map(np.full((3, 3), 7.0), "left")
        assert geometry.d1_all(gt.values, gt) == 0.0

    def test_d1_strict_threshold_boundaries(self):
        # errors of exactly 3 px and exactly 0.05 d are NOT outliers
        gt = disparity_map(np.array([[10.0, 100.0]]), "left")
        pred = ad.constant(np.array([[13.0, 105.0]]))
        assert geometry.d1_all(pred, gt) == pytest.approx(0.0)
        pred_over = ad.constant(np.array([[13.0 + 1e-9, 105.0 + 1e-9]]))
        assert geometry.d1_all(pred_over, gt) == pytest.approx(100.0)

    def test_shape_mismatch(self):
        gt = disparity_map(np.ones((2, 2)), "left")
        with pytest.raises(ValueError):
            geometry.epe(ad.constant(np.ones((3, 3))), gt)


class TestSignedOffset:
    def test_left_negates(self):
        d = ad.constant(np.full((2, 3), 4.0))
        assert np.all(geometry.signed_offset(d, "left").data == -4.0)
        assert np.all(geometry.signed_offset(d, "right").data == 4.0)

    def test_bad_view(self):
        with pytest.raises(ValueError):
            geometry.signed_offset(ad.constant(np.ones((2, 2))), "middle")
