import numpy as np
import pytest

from sca_stereo import autodiff as ad
from sca_stereo.errors import NumericError
from sca_stereo.gradcheck import check_gradients

from oracles import conv2d_oracle


class TestTensor:
    def test_flat_row_major_storage(self):
        t = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)

    def test_grad_lazily_allocated(self):
        t = ad.tensor([1.0, 2.0], requires_grad=True)
        assert t.grad is None
        assert np.array_equal(t.grad_array(), np.zeros(2))


class TestBackward:
    def test_square_derivative(self):
        x = ad.tensor(3.0, requires_grad=True)
        loss = ad.mul(x, x)
        ad.backward(loss)
        assert x.grad == pytest.approx(6.0)

    def test_unused_parameter_grad_is_zero(self):
        x = ad.tensor([1.0, 2.0], requires_grad=True)
        y = ad.tensor([3.0, 4.0], requires_grad=True)
        ad.backward(ad.sum_all(ad.mul(x, x)))
        assert np.array_equal(y.grad_array(), np.zeros(2))

    def test_non_scalar_loss_rejected(self):
        x = ad.tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            ad.backward(ad.mul(x, x))

    def test_composite_graph_matches_finite_differences(self):
        # warp -> ssim -> mean, per the spec's hardest composite example
        from sca_stereo import geometry, losses

        rng = np.random.default_rng(7)
        img = ad.tensor(rng.uniform(0.2, 0.8, (1, 6, 6)), requires_grad=True)
        other = ad.tensor(rng.uniform(0.2, 0.8, (1, 6, 6)), requires_grad=True)
        offset = ad.tensor(rng.uniform(-1.0, 1.0, (6, 6)) + 0.31, requires_grad=True)

        def fn(img, other, offset):
            warped = geometry.backward_warp(other, offset)
            return ad.mean_all(losses.ssim(img, warped))

        err = check_gradients(fn, [img, other, offset], h=1e-5)
        assert err <= 1e-5

    def test_accumulation_deterministic(self):
        rng = np.random.default_rng(0)
        x = ad.tensor(rng.standard_normal((4, 4)), requires_grad=True)

        def run():
            x.grad = None
            y = ad.add(ad.mul(x, x), ad.mulc(x, 0.5))
            ad.backward(ad.mean_all(ad.mul(y, y)))
            return x.grad.copy()

        assert np.array_equal(run(), run())


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = ad.tensor(rng.standard_normal((2, 5, 7)))
        k = np.zeros((2, 2, 3, 3))
        for c in range(2):
            k[c, c, 1, 1] = 1.0
        out = ad.conv2d(x, ad.tensor(k), stride=1, padding=1)
        assert np.array_equal(out.data, x.data)

    def test_one_by_one_scaling(self):
        x = ad.tensor([[[1.0, 2.0], [3.0, 4.0]]])
        k = ad.tensor(np.full((1, 1, 1, 1), 2.0))
        out = ad.conv2d(x, k)
        assert np.array_equal(out.data, [[[2.0, 4.0], [6.0, 8.0]]])

    @pytest.mark.parametrize(
        "stride,padding,shape,ksize,with_bias",
        [
            pytest.param(1, 0, (3, 8, 8), 3, False, id="1-0"),
            pytest.param(1, 1, (3, 8, 8), 3, False, id="1-1"),
            pytest.param(2, 1, (3, 8, 8), 3, False, id="2-1"),
            pytest.param(3, 2, (3, 8, 8), 3, False, id="3-2"),
            pytest.param(2, 1, (3, 9, 7), 3, False, id="2-1-odd"),
            pytest.param(2, 0, (3, 9, 11), 3, False, id="2-0-odd"),
            pytest.param(3, 0, (3, 8, 8), 3, False, id="3-0-unread-tail"),
            pytest.param(1, 0, (5, 6, 7), 1, False, id="1x1"),
            pytest.param(2, 1, (3, 7, 9), 3, True, id="2-1-bias"),
        ],
    )
    def test_matches_nested_loop_oracle(self, stride, padding, shape, ksize, with_bias):
        rng = np.random.default_rng(stride * 10 + padding)
        x = ad.tensor(rng.standard_normal(shape))
        k = ad.tensor(rng.standard_normal((4, shape[0], ksize, ksize)))
        b = ad.tensor(rng.standard_normal(4)) if with_bias else None
        out = ad.conv2d(x, k, stride=stride, padding=padding, bias=b)
        expected = conv2d_oracle(x.data, k.data, stride=stride, padding=padding)
        if with_bias:
            expected += b.data[:, None, None]
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    def test_bias_shape_rejected(self):
        x = ad.tensor(np.zeros((2, 4, 4)))
        k = ad.tensor(np.zeros((3, 2, 3, 3)))
        with pytest.raises(ValueError):
            ad.conv2d(x, k, padding=1, bias=ad.tensor(np.zeros(2)))

    def test_channel_mismatch_rejected(self):
        x = ad.tensor(np.zeros((2, 4, 4)))
        k = ad.tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ValueError):
            ad.conv2d(x, k, padding=1)

    def test_output_shape_formula(self):
        x = ad.tensor(np.zeros((1, 11, 9)))
        k = ad.tensor(np.zeros((2, 1, 3, 3)))
        out = ad.conv2d(x, k, stride=2, padding=1)
        assert out.shape == (2, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_rerun_bit_identical(self):
        rng = np.random.default_rng(3)
        x = ad.tensor(rng.standard_normal((3, 6, 6)))
        k = ad.tensor(rng.standard_normal((2, 3, 3, 3)))
        a = ad.conv2d(x, k, padding=1).data
        b = ad.conv2d(x, k, padding=1).data
        assert np.array_equal(a, b)


class TestSoftmax:
    def test_uniform_logits(self):
        out = ad.softmax(ad.tensor([0.0, 0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_analytic_exponentials(self):
        out = ad.softmax(ad.tensor(np.log([1.0, 2.0, 3.0])), axis=0)
        assert np.allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        x = ad.tensor(rng.standard_normal((4, 7)) * 30)
        out = ad.softmax(x, axis=1)
        assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) <= 1e-12

    def test_fully_masked_slice_returns_zeros(self):
        x = ad.tensor([[-np.inf, -np.inf], [0.0, 1.0]])
        out = ad.softmax(x, axis=1)
        assert np.array_equal(out.data[0], [0.0, 0.0])
        assert out.data[1].sum() == pytest.approx(1.0, abs=1e-15)

    def test_partial_mask_renormalizes(self):
        x = ad.tensor([0.0, -np.inf, 0.0])
        out = ad.softmax(x, axis=0)
        assert np.allclose(out.data, [0.5, 0.0, 0.5], atol=1e-15)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            ad.softmax(ad.tensor([1.0]), axis=3)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = {"w": ad.tensor([1.0, -2.0], requires_grad=True)}
        state = ad.AdamState(p, learning_rate=0.1)
        ad.adam_step(p, {"w": np.zeros(2)}, state)
        assert np.array_equal(p["w"].data, [1.0, -2.0])
        assert state.step_count == 1

    def test_first_step_magnitude_is_learning_rate(self):
        for g in (5.0, -0.3, 120.0):
            p = {"w": ad.tensor(0.0, requires_grad=True)}
            state = ad.AdamState(p, learning_rate=0.01)
            ad.adam_step(p, {"w": np.array(g)}, state)
            assert abs(abs(float(p["w"].data)) - 0.01) <= 1e-6
            assert np.sign(p["w"].data) == -np.sign(g)

    def test_converges_on_scalar_quadratic(self):
        p = {"w": ad.tensor(0.0, requires_grad=True)}
        state = ad.AdamState(p, learning_rate=0.1)
        initial = (0.0 - 5.0) ** 2
        for _ in range(200):
            g = 2.0 * (float(p["w"].data) - 5.0)
            ad.adam_step(p, {"w": np.array(g)}, state)
        final = (float(p["w"].data) - 5.0) ** 2
        assert final < 1e-3 * initial

    def test_nan_gradient_aborts(self):
        p = {"w": ad.tensor(1.0, requires_grad=True)}
        state = ad.AdamState(p, learning_rate=0.1)
        with pytest.raises(NumericError):
            ad.adam_step(p, {"w": np.array(np.nan)}, state)
        assert state.step_count == 0

    def test_step_count_increments(self):
        p = {"w": ad.tensor(0.0, requires_grad=True)}
        state = ad.AdamState(p, learning_rate=0.1)
        for expected in (1, 2, 3):
            ad.adam_step(p, {"w": np.array(1.0)}, state)
            assert state.step_count == expected


class TestSpectralNormalize:
    def test_identity_unchanged(self):
        k = ad.tensor(np.eye(2), requires_grad=True)
        state = ad.SpectralNormState(np.array([1.0, 0.0]))
        out = ad.spectral_normalize(k, state)
        assert np.allclose(out.data, np.eye(2), atol=1e-12)

    def test_diag_converges_to_unit_top_singular_value(self):
        k = ad.tensor(np.diag([2.0, 1.0]))
        state = ad.SpectralNormState(np.array([0.6, 0.8]))
        for _ in range(200):
            out = ad.spectral_normalize(k, state)
        assert np.allclose(out.data, np.diag([1.0, 0.5]), atol=1e-6)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 4))
        u0 = rng.standard_normal(3)
        state_a = ad.SpectralNormState(u0.copy())
        state_b = ad.SpectralNormState(u0.copy())
        for _ in range(50):
            out_a = ad.spectral_normalize(ad.tensor(w), state_a)
            out_b = ad.spectral_normalize(ad.tensor(2.5 * w), state_b)
        assert np.allclose(out_a.data, out_b.data, atol=1e-12)

    def test_zero_kernel_passthrough(self):
        k = ad.tensor(np.zeros((2, 3)))
        state = ad.SpectralNormState(np.array([1.0, 0.0]))
        out = ad.spectral_normalize(k, state)
        assert out is k

    def test_u_vector_stays_normalized(self):
        rng = np.random.default_rng(9)
        k = ad.tensor(rng.standard_normal((4, 4, 3, 3)))
        state = ad.SpectralNormState.for_kernel(k.shape, rng)
        for _ in range(20):
            ad.spectral_normalize(k, state)
            assert abs(np.linalg.norm(state.u_vector) - 1.0) <= 1e-9


class TestPlumbingValues:
    def test_box_filter_constant_input(self):
        x = ad.tensor(np.full((2, 4, 5), 3.5))
        out = ad.box_filter3(x)
        assert np.allclose(out.data, 3.5, atol=1e-13)

    def test_upsample_bilinear_constant_preserved(self):
        x = ad.tensor(np.full((1, 3, 3), 2.0))
        assert np.allclose(ad.upsample_bilinear2(x).data, 2.0, atol=1e-15)

    def test_instance_norm_statistics(self):
        rng = np.random.default_rng(4)
        x = ad.tensor(rng.standard_normal((3, 8, 9)) * 4 + 2)
        out = ad.instance_norm(x)
        means = out.data.mean(axis=(1, 2))
        stds = out.data.std(axis=(1, 2))
        assert np.max(np.abs(means)) <= 1e-12
        assert np.max(np.abs(stds - 1.0)) <= 1e-4  # eps in the denominator

    def test_concat_channels_order(self):
        a = ad.tensor(np.ones((1, 2, 2)))
        b = ad.tensor(np.zeros((2, 2, 2)))
        out = ad.concat_channels([a, b])
        assert out.shape == (3, 2, 2)
        assert np.array_equal(out.data[0], np.ones((2, 2)))

    def test_flip_horizontal_involution(self):
        rng = np.random.default_rng(6)
        x = ad.tensor(rng.standard_normal((2, 3, 5)))
        assert np.array_equal(ad.flip_horizontal(ad.flip_horizontal(x)).data, x.data)
