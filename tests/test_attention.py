import numpy as np
import pytest

from sca_stereo import attention
from sca_stereo import autodiff as ad

from oracles import sca_oracle


def _projections(rng, d_in, d_out):
    """W_Q and W_K as [d_out, 2*d_in, 1, 1] kernels."""
    return (
        ad.tensor(rng.standard_normal((d_out, 2 * d_in, 1, 1)), requires_grad=True),
        ad.tensor(rng.standard_normal((d_out, 2 * d_in, 1, 1)), requires_grad=True),
    )


def _attend(rng, d_in=3, d_out=4, h=5, w=9, d_max=3, direction="left_to_right"):
    fo = ad.tensor(rng.standard_normal((d_in, h, w)))
    qsrc = ad.tensor(rng.standard_normal((2 * d_in, h, w)))
    ksrc = ad.tensor(rng.standard_normal((2 * d_in, h, w)))
    w_q, w_k = _projections(rng, d_in, d_out)
    out = attention.sca_cross_attend(fo, qsrc, ksrc, w_q, w_k, d_max, direction)
    return out, (fo, qsrc, ksrc, w_q, w_k)


class TestCrossAttend:
    def test_dmax_zero_returns_other_view(self):
        rng = np.random.default_rng(0)
        out, (fo, *_) = _attend(rng, d_max=0)
        assert np.max(np.abs(out.data - fo.data)) <= 1e-15

    def test_zero_projections_give_uniform_mean(self):
        rng = np.random.default_rng(1)
        d_in, h, w, d_max = 2, 3, 8, 3
        fo = ad.tensor(rng.standard_normal((d_in, h, w)))
        zeros = ad.tensor(np.zeros((2, 2 * d_in, 1, 1)))
        out = attention.sca_cross_attend(
            fo, ad.tensor(rng.standard_normal((2 * d_in, h, w))),
            ad.tensor(rng.standard_normal((2 * d_in, h, w))), zeros, zeros, d_max, "left_to_right"
        )
        for i in range(w):
            cols = [i - d for d in range(d_max + 1) if 0 <= i - d < w]
            expected = fo.data[:, :, cols].mean(axis=2)
            assert np.max(np.abs(out.data[:, :, i] - expected)) <= 1e-12

    def test_dominant_logit_selects_offset(self):
        # phase-coded keys: logit(d) = A cos((d - dstar) dtheta), so the margin
        # over the runner-up is A (1 - cos(dtheta)) > 100
        rng = np.random.default_rng(2)
        d_in, h, w, d_max, dstar = 2, 2, 12, 4, 2
        fo = ad.tensor(rng.standard_normal((d_in, h, w)))
        theta = 2.0 * np.pi * np.arange(w) / w
        amp = 1000.0
        q_data = np.stack([np.cos(theta), np.sin(theta)])[:, None, :].repeat(h, axis=1)
        phase = np.roll(theta, -dstar)  # key column c carries theta_{c + dstar}
        k_data = amp * np.stack([np.cos(phase), np.sin(phase)])[:, None, :].repeat(h, axis=1)
        out = attention.epipolar_attention(
            ad.tensor(q_data), ad.tensor(k_data), fo, d_max, "left_to_right"
        )
        for i in range(d_max, w - 1):  # interior: all candidates in range, no roll wrap
            expected = fo.data[:, :, i - dstar]
            assert np.max(np.abs(out.data[:, :, i] - expected)) <= 1e-3

    @pytest.mark.parametrize("direction", ["left_to_right", "right_to_left"])
    def test_matches_brute_force_oracle(self, direction):
        rng = np.random.default_rng(3)
        d_in, d_out, h, w, d_max = 3, 4, 5, 11, 4
        out, (fo, qsrc, ksrc, w_q, w_k) = _attend(
            rng, d_in=d_in, d_out=d_out, h=h, w=w, d_max=d_max, direction=direction
        )
        q = np.einsum("oc,chw->ohw", w_q.data[:, :, 0, 0], qsrc.data)
        k = np.einsum("oc,chw->ohw", w_k.data[:, :, 0, 0], ksrc.data)
        expected = sca_oracle(fo.data, q, k, d_max, direction)
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    def test_projections_match_the_matmul_composition_bit_for_bit(self):
        # each 1x1 conv is the reshape -> [D,C] @ [C,H*W] -> reshape chain: the same GEMM each way
        rng = np.random.default_rng(9)
        d_in, d_out, h, w, d_max = 3, 4, 5, 9, 3
        fo = ad.tensor(rng.standard_normal((d_in, h, w)))
        qsrc, ksrc = (ad.tensor(rng.standard_normal((2 * d_in, h, w))) for _ in range(2))
        w_q, w_k = _projections(rng, d_in, d_out)
        cotangent = ad.constant(rng.standard_normal((d_in, h, w)))
        out = attention.sca_cross_attend(fo, qsrc, ksrc, w_q, w_k, d_max, "right_to_left")
        ad.backward(ad.sum_all(ad.mul(out, cotangent)))

        matrix = lambda a: a.reshape(d_out, 2 * d_in)
        rows = lambda t: t.reshape(t.shape[0], h * w)
        q, k = (
            ad.tensor((matrix(kernel.data) @ rows(src.data)).reshape(d_out, h, w), requires_grad=True)
            for kernel, src in ((w_q, qsrc), (w_k, ksrc))
        )
        composed = attention.epipolar_attention(q, k, fo, d_max, "right_to_left")
        ad.backward(ad.sum_all(ad.mul(composed, cotangent)))
        assert np.array_equal(out.data, composed.data)
        for kernel, proj, src in ((w_q, q, qsrc), (w_k, k, ksrc)):
            assert np.array_equal(matrix(kernel.grad), rows(proj.grad) @ rows(src.data).T)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(4)
        h, w, d_max = 3, 9, 3
        q = ad.tensor(rng.standard_normal((2, h, w)))
        k = ad.tensor(rng.standard_normal((2, h, w)))
        ones = ad.tensor(np.ones((1, h, w)))
        out = attention.epipolar_attention(q, k, ones, d_max, "left_to_right")
        assert np.max(np.abs(out.data - 1.0)) <= 1e-12

    def test_output_in_candidate_convex_hull(self):
        rng = np.random.default_rng(5)
        h, w, d_max = 4, 10, 3
        q = ad.tensor(rng.standard_normal((2, h, w)))
        k = ad.tensor(rng.standard_normal((2, h, w)))
        values = ad.tensor(rng.standard_normal((3, h, w)))
        out = attention.epipolar_attention(q, k, values, d_max, "left_to_right")
        for j in range(h):
            for i in range(w):
                cols = [i - d for d in range(d_max + 1) if 0 <= i - d < w]
                cand = values.data[:, j, cols]
                assert np.all(out.data[:, j, i] >= cand.min(axis=1) - 1e-12)
                assert np.all(out.data[:, j, i] <= cand.max(axis=1) + 1e-12)

    def test_directions_are_mirror_images(self):
        rng = np.random.default_rng(6)
        d_in, d_out, h, w, d_max = 2, 3, 4, 13, 5
        w_q, w_k = _projections(rng, d_in, d_out)
        fo = ad.tensor(rng.standard_normal((d_in, h, w)))
        qsrc = ad.tensor(rng.standard_normal((2 * d_in, h, w)))
        ksrc = ad.tensor(rng.standard_normal((2 * d_in, h, w)))
        out = attention.sca_cross_attend(fo, qsrc, ksrc, w_q, w_k, d_max, "left_to_right")
        flip = lambda t: ad.tensor(t.data[:, :, ::-1].copy())
        out_flipped = attention.sca_cross_attend(
            flip(fo), flip(qsrc), flip(ksrc), w_q, w_k, d_max, "right_to_left"
        )
        assert np.max(np.abs(out.data[:, :, ::-1] - out_flipped.data)) <= 1e-12

    def test_dmax_wider_than_image_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            _attend(rng, w=6, d_max=6)

    def test_mismatched_projection_rejected(self):
        rng = np.random.default_rng(8)
        w_q, w_k = _projections(rng, d_in=3, d_out=2)  # expect 6 source channels
        fo = ad.tensor(rng.standard_normal((2, 3, 5)))
        src = ad.tensor(rng.standard_normal((4, 3, 5)))
        with pytest.raises(ValueError):
            attention.sca_cross_attend(fo, src, src, w_q, w_k, 1, "left_to_right")


class TestScaledDmax:
    def test_scaling(self):
        assert attention.scaled_d_max(16, 0) == 16
        assert attention.scaled_d_max(16, 1) == 8
        assert attention.scaled_d_max(16, 2) == 4
        assert attention.scaled_d_max(17, 1) == 9
