import numpy as np
import pytest

from sca_stereo import autodiff as ad
from sca_stereo import geometry, losses, matcher

from oracles import correlation_oracle, tape_nbytes


class TestCorrelation1d:
    def test_constant_features_channel_zero_maximal(self):
        f = ad.constant(np.full((4, 3, 10), 1.7))
        out = matcher.correlation_1d(f, f, 3)
        for d in range(1, 4):
            assert np.all(out.data[0] >= out.data[d])
        # interior: channel 0 equals the squared magnitude
        assert np.allclose(out.data[0], 1.7 * 1.7, atol=1e-12)

    def test_shifted_features_argmax_at_shift(self):
        rng = np.random.default_rng(0)
        c, h, w, k = 8, 4, 24, 5
        base = rng.standard_normal((c, h, w + k))
        base /= np.linalg.norm(base, axis=0, keepdims=True)  # unit vectors: self-match wins
        # left column i shows world x = i, right column kk shows world x = kk + k
        f_l = ad.constant(base[:, :, :w])
        f_r = ad.constant(base[:, :, k:])
        out = matcher.correlation_1d(f_l, f_r, 8)
        interior = out.data[:, :, 8:]
        assert np.all(interior.argmax(axis=0) == k)

    def test_output_shape(self):
        f = ad.constant(np.zeros((2, 5, 9)))
        assert matcher.correlation_1d(f, f, 4).shape == (5, 5, 9)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        f_l = ad.constant(rng.standard_normal((3, 6, 14)))
        f_r = ad.constant(rng.standard_normal((3, 6, 14)))
        out = matcher.correlation_1d(f_l, f_r, 5)
        assert np.max(np.abs(out.data - correlation_oracle(f_l.data, f_r.data, 5))) <= 1e-12

    def test_dmax_bounds(self):
        f = ad.constant(np.zeros((1, 2, 4)))
        with pytest.raises(ValueError):
            matcher.correlation_1d(f, f, 4)


class TestPredictDisparity:
    def _matcher(self, seed=0):
        return matcher.MatcherParams(np.random.default_rng(seed), channels=4, d_max=4)

    def test_output_shape_and_nonnegative(self):
        m = self._matcher()
        rng = np.random.default_rng(2)
        left = ad.constant(rng.uniform(0, 1, (3, 8, 16)))
        right = ad.constant(rng.uniform(0, 1, (3, 8, 16)))
        out = matcher.predict_disparity(left, right, m)
        assert out.shape == (8, 16)
        assert np.all(out.data >= 0.0)

    def test_deterministic(self):
        m = self._matcher()
        rng = np.random.default_rng(3)
        left = ad.constant(rng.uniform(0, 1, (3, 8, 16)))
        right = ad.constant(rng.uniform(0, 1, (3, 8, 16)))
        a = matcher.predict_disparity(left, right, m)
        b = matcher.predict_disparity(left, right, m)
        assert np.array_equal(a.data, b.data)

    def test_initial_prediction_near_mid_range(self):
        # head bias centers the softplus output around 0.4 * d_max at init
        m = self._matcher()
        rng = np.random.default_rng(4)
        left = ad.constant(rng.uniform(0, 1, (3, 8, 16)))
        right = ad.constant(rng.uniform(0, 1, (3, 8, 16)))
        out = matcher.predict_disparity(left, right, m)
        assert 0.1 * m.d_max <= out.data.mean() <= 0.9 * m.d_max

    def test_flip_trick_right_view_geometry(self):
        # exact-construction pair: flipping swaps the roles of the views
        m = self._matcher()
        rng = np.random.default_rng(5)
        left = ad.constant(rng.uniform(0, 1, (3, 8, 16)))
        right = ad.constant(rng.uniform(0, 1, (3, 8, 16)))
        preds = matcher.predict_both_views(left, right, m)
        manual = matcher.predict_disparity(
            ad.flip_horizontal(right), ad.flip_horizontal(left), m
        )
        assert np.array_equal(preds["right"].data, manual.data[:, ::-1])

    def test_extractor_gradient_fd(self):
        from sca_stereo.gradcheck import check_gradients

        m = self._matcher(seed=6)
        rng = np.random.default_rng(7)
        left = ad.constant(rng.uniform(0, 1, (3, 8, 16)))
        right = ad.constant(rng.uniform(0, 1, (3, 8, 16)))

        def fn(_w):
            return matcher.predict_disparity(left, right, m)

        err = check_gradients(
            fn, [m.params["matcher.feat1.w"]], max_entries_per_input=12,
            rng=np.random.default_rng(8),
        )
        assert err <= 1e-5

    def test_shape_mismatch(self):
        m = self._matcher()
        with pytest.raises(ValueError):
            matcher.predict_disparity(
                ad.constant(np.zeros((3, 8, 16))), ad.constant(np.zeros((3, 8, 8))), m
            )


class TestTapeFootprint:
    """What the tape saves at a tiny config, pinned about 10% above its measured size.

    A vjp that captures a tensor it does not read, or an op that saves a
    full array where a mask or a shape would do, pushes these over the pin.
    """

    @staticmethod
    def _setup():
        rng = np.random.default_rng(0)
        mparams = matcher.MatcherParams(rng, channels=4, d_max=6)
        pairs = [{v: ad.constant(rng.random((3, 16, 32))) for v in ("left", "right")} for _ in range(2)]
        return rng, mparams, pairs

    def test_predict_disparity(self):
        _, mparams, (pair, _) = self._setup()
        pred = matcher.predict_disparity(pair["left"], pair["right"], mparams)
        assert tape_nbytes(ad.sum_all(pred)) <= 405_000  # measured 368_096

    def test_adapt_step(self):
        # one sample of training.adapt's step: translated pair plus target pair
        rng, mparams, (fakes, target) = self._setup()
        gt = {v: geometry.DisparityMap(ad.constant(rng.uniform(2.0, 5.0, (16, 32))), v) for v in ("left", "right")}
        preds = matcher.predict_both_views(fakes["left"], fakes["right"], mparams)
        tpreds = matcher.predict_both_views(target["left"], target["right"], mparams)
        components = {
            "disp": ad.mean_n([losses.disparity_loss(preds, gt)]),
            "reproj": ad.mean_n([losses.reprojection_loss(target, tpreds)]),
        }
        loss = losses.matcher_objective(components, losses.LossWeights())
        assert tape_nbytes(loss) <= 1_980_000  # measured 1_801_696
