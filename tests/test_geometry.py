import tracemalloc

import numpy as np
import pytest

from sca_stereo import autodiff as ad
from sca_stereo import geometry

from oracles import backward_warp_oracle, lr_occlusion_oracle


class TestReprojection:
    # the fixed rig: baseline 0.5 m, focal length 100 px; a 65x81 map puts the principal point at (u, v) = (40, 32)
    SHAPE = (65, 81)

    def test_left_pixel_off_axis(self):
        d = np.full(self.SHAPE, 5.0)
        d[42, 60] = 10.0
        cloud = geometry.disparity_to_world_points(d, "left")
        assert cloud.shape == (3, 65, 81)
        # x = 0.5 (60 - 40) / 10 - 0.25, y = 100 0.5 (42 - 32) / (100 10), z = 100 0.5 / 10
        assert np.allclose(cloud.data[:, 42, 60], [0.75, 0.5, 5.0], atol=1e-12)
        assert np.allclose(cloud.data[:, 42, 61], [1.85, 1.0, 10.0], atol=1e-12)  # a neighbour at d = 5
        # the right camera sits 0.5 m to the right: the same pixel and disparity shift by +0.25 m instead
        right = geometry.disparity_to_world_points(d, "right")
        assert np.allclose(right.data[:, 42, 60], [1.25, 0.5, 5.0], atol=1e-12)

    def test_left_pixel_at_principal_point(self):
        d = np.full(self.SHAPE, 5.0)
        d[32, 40] = 20.0
        cloud = geometry.disparity_to_world_points(d, "left")
        assert np.allclose(cloud.data[:, 32, 40], [-0.25, 0.0, 2.5], atol=1e-12)

    def test_nonpositive_disparity_rejected(self):
        for bad in (0.0, -1.0, np.nan):
            d = np.full((3, 3), 2.0)
            d[1, 2] = bad
            with pytest.raises(ValueError, match="strictly positive"):
                geometry.disparity_to_world_points(d, "left")

    def test_fronto_parallel_views_match_in_world(self):
        # left column i + d and right column i see the same point of a plane at disparity d
        h, w, disp = 10, 40, 7.0
        cloud_l = geometry.disparity_to_world_points(np.full((h, w), disp), "left")
        cloud_r = geometry.disparity_to_world_points(np.full((h, w), disp), "right")
        d = int(disp)
        left = cloud_l.data[:, :, d:]
        right = cloud_r.data[:, :, : w - d]
        assert np.max(np.abs(left - right)) <= 1e-9
        assert np.allclose(cloud_l.data[2], 100.0 * 0.5 / disp, atol=1e-12)


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

    def test_feature_gradient_matches_add_at_bitwise(self):
        rng = np.random.default_rng(6)
        c, h, w = 5, 4, 24
        f = ad.tensor(rng.standard_normal((c, h, w)), requires_grad=True)
        offset = rng.uniform(-2.0, 2.0, (h, w))
        offset[:, :3] = -2.6  # off the left edge; column 2 straddles it
        offset[:, -3:] = 2.4  # off the right edge; column w-3 straddles it
        offset[:, 8:14] = 8.25 - np.arange(8, 14)  # six targets sample columns 8 and 9
        g = rng.standard_normal((c, h, w))
        offset_t = ad.tensor(offset, requires_grad=True)
        out = geometry.backward_warp(f, offset_t)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))

        s = np.arange(w)[None, :] + offset
        k0 = np.floor(s).astype(np.int64)
        frac = s - k0
        rows = np.arange(h)[:, None]
        expected = np.zeros((c, h * w))
        chan = np.arange(c)[:, None]
        taps = []
        for k, weight in ((k0, 1.0 - frac), (k0 + 1, frac)):
            inside = (k >= 0) & (k < w)
            idx = (rows * w + np.clip(k, 0, w - 1)).ravel()
            np.add.at(expected, (chan, idx[None, :]), (g * (weight * inside)[None]).reshape(c, h * w))
            taps.append((weight * inside, f.data.reshape(c, h * w)[:, idx].reshape(c, h, w), inside))
        assert np.array_equal(f.grad, expected.reshape(c, h, w))
        # the forward lerp and the offset gradient, in the order of the two-tap formula
        (w0, f0, in0), (w1, f1, in1) = taps
        assert np.array_equal(out.data, w0[None] * f0 + w1[None] * f1)
        assert np.array_equal(offset_t.grad, (g * (f1 * in1[None] - f0 * in0[None])).sum(axis=0))

    def test_scatter_holds_one_channel_at_a_time(self):
        # past its output, the feature gradient holds one channel's [2, H*W] tap products and little else
        rng = np.random.default_rng(7)
        c, h, w = 32, 64, 128
        plan = geometry.tent_plan(rng.uniform(-20.0, 5.0, (h, w)))
        g = rng.standard_normal((c, h, w))
        tracemalloc.start()
        try:
            out = geometry._scatter(g, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == g.shape
        assert peak < out.nbytes + 3 * h * w * 8


class TestOcclusion:
    def test_consistent_constant_scene(self):
        h, w, d = 4, 16, 3.0
        disparities = {v: np.full((h, w), d) for v in geometry.VIEWS}
        mask = geometry.occlusion_mask(disparities, "left")
        expected = lr_occlusion_oracle(disparities["left"], disparities["right"], "left")
        assert np.array_equal(mask, expected)
        # in-range columns are all consistent
        assert np.all(mask[:, int(d) :])

    def test_tiny_epsilon_disparity_all_ones(self):
        h, w = 3, 10
        eps = 1e-9
        disparities = {v: np.full((h, w), eps) for v in geometry.VIEWS}
        assert np.all(geometry.occlusion_mask(disparities, "left"))

    def test_step_edge_occlusion_band(self):
        h, w = 4, 32
        jump_from, jump = 16, 8.0
        dl = np.full((h, w), 2.0)
        dl[:, jump_from:] = 2.0 + jump  # foreground on the right half (left view)
        # right view: foreground region shifts left by its disparity
        dr = np.full((h, w), 2.0)
        dr[:, jump_from - int(2.0 + jump) :] = 2.0 + jump
        mask = geometry.occlusion_mask({"left": dl, "right": dr}, "left")
        expected = lr_occlusion_oracle(dl, dr, "left")
        assert np.array_equal(mask, expected)
        # the 8-px band left of the edge samples the foreground: occluded
        band = np.arange(jump_from - int(jump), jump_from)
        assert not np.any(mask[:, band])
        assert np.all(mask[:, 4 : jump_from - int(jump)])

    def test_mask_is_read_only_bool(self):
        d = np.full((2, 6), 1.5)
        mask = geometry.occlusion_mask({"left": d, "right": d}, "left")
        assert mask.dtype == bool and mask.shape == (2, 6)
        with pytest.raises(ValueError):
            mask[0, 0] = False

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^lr_mask: shape mismatch \(2, 8\) vs \(4, 4\)$"):
            geometry.occlusion_mask({"left": np.ones((2, 8)), "right": np.ones((4, 4))}, "left")

    def test_non_map_rejected(self):
        d = np.ones(8)
        with pytest.raises(ValueError):
            geometry.occlusion_mask({"left": d, "right": d}, "left")


class TestTentPlan:
    def test_plan_is_read_only(self):
        plan = geometry.tent_plan(np.full((2, 5), -1.5))
        for a in plan:
            with pytest.raises(ValueError):
                a[...] = 0

    @pytest.mark.parametrize("view", geometry.VIEWS)
    def test_warp_plan_is_the_plan_of_the_signed_offset(self, view):
        d = np.random.default_rng(4).uniform(0.5, 6.0, (3, 9))
        want = geometry.tent_plan(geometry.signed_offset(ad.constant(d), view).data)
        got = geometry.warp_plan(d, view)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestMetrics:
    def test_epe_constant_offset(self):
        gt = np.full((5, 6), 4.0)
        pred = ad.constant(np.full((5, 6), 5.0))
        assert geometry.epe(pred, gt) == pytest.approx(1.0)

    def test_epe_perfect(self):
        gt = np.full((5, 6), 4.0)
        assert geometry.epe(ad.constant(gt), gt) == 0.0

    def test_epe_hand_summed(self):
        rng = np.random.default_rng(8)
        gt = rng.uniform(1, 10, (4, 5))
        pred = gt + rng.standard_normal((4, 5))
        expected = sum(abs(pred[j, i] - gt[j, i]) for j in range(4) for i in range(5)) / 20
        assert geometry.epe(ad.constant(pred), gt) == pytest.approx(expected, abs=1e-15)

    def test_d1_small_gt_counts_outlier(self):
        gt = np.full((1, 1), 10.0)
        pred = ad.constant(np.full((1, 1), 14.0))  # error 4 > max(3, 0.5)
        assert geometry.d1_all(pred, gt) == pytest.approx(100.0)

    def test_d1_large_gt_not_outlier(self):
        gt = np.full((1, 1), 100.0)
        pred = ad.constant(np.full((1, 1), 104.0))  # error 4 <= max(3, 5)
        assert geometry.d1_all(pred, gt) == pytest.approx(0.0)

    def test_d1_perfect(self):
        gt = np.full((3, 3), 7.0)
        assert geometry.d1_all(ad.constant(gt), gt) == 0.0

    def test_d1_strict_threshold_boundaries(self):
        # errors of exactly 3 px and exactly 0.05 d are NOT outliers
        gt = np.array([[10.0, 100.0]])
        pred = ad.constant(np.array([[13.0, 105.0]]))
        assert geometry.d1_all(pred, gt) == pytest.approx(0.0)
        pred_over = ad.constant(np.array([[13.0 + 1e-9, 105.0 + 1e-9]]))
        assert geometry.d1_all(pred_over, gt) == pytest.approx(100.0)

    def test_d1_nan_prediction_is_an_outlier(self):
        gt = np.full((2, 3), 7.0)
        pred = np.full((2, 3), np.nan)
        pred[0, 0] = 7.0
        assert geometry.d1_all(ad.constant(pred), gt) == pytest.approx(100.0 * 5 / 6)

    def test_bad1_hand_built_error_map(self):
        # errors 0, 0.5, exactly 1 (not bad), just over 1, 4 and NaN (bad) over gt 2 and 40
        gt = np.array([[2.0, 2.0, 2.0], [40.0, 40.0, 40.0]])
        pred = gt + np.array([[0.0, -0.5, 1.0], [-(1.0 + 1e-9), 4.0, np.nan]])
        assert geometry.bad1(ad.constant(pred), gt) == pytest.approx(100.0 * 3 / 6)
        assert geometry.bad1(ad.constant(gt), gt) == 0.0
        with pytest.raises(ValueError, match=r"^prediction shape \(3, 2\) != ground truth shape \(2, 3\)$"):
            geometry.bad1(ad.constant(np.ones((3, 2))), gt)

    def test_shape_mismatch(self):
        gt = np.ones((2, 2))
        with pytest.raises(ValueError):
            geometry.epe(ad.constant(np.ones((3, 3))), gt)

    @pytest.mark.parametrize("metric", [geometry.epe, geometry.d1_all])
    def test_both_metrics_check_shape(self, metric):
        gt = np.ones((2, 2))
        with pytest.raises(ValueError, match=r"^prediction shape \(3, 3\) != ground truth shape \(2, 2\)$"):
            metric(ad.constant(np.ones((3, 3))), gt)


class TestSignedOffset:
    def test_left_negates(self):
        d = ad.constant(np.full((2, 3), 4.0))
        assert np.all(geometry.signed_offset(d, "left").data == -4.0)
        assert np.all(geometry.signed_offset(d, "right").data == 4.0)

    def test_bad_view(self):
        with pytest.raises(ValueError):
            geometry.signed_offset(ad.constant(np.ones((2, 2))), "middle")


@pytest.mark.parametrize(
    "call",
    [
        lambda d: geometry.warp_plan(d, "middle"),
        lambda d: geometry.disparity_to_world_points(d, "middle"),
        lambda d: geometry.occlusion_mask({"left": d, "right": d, "middle": d}, "middle"),
    ],
    ids=["warp_plan", "disparity_to_world_points", "occlusion_mask"],
)
def test_functions_taking_a_view_check_it(call):
    with pytest.raises(ValueError, match="view must be one of"):
        call(np.ones((2, 3)))
