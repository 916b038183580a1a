import os
import platform
import resource
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from sca_stereo import autodiff as ad
from sca_stereo import synth, training
from sca_stereo.config import RunConfig
from sca_stereo.errors import NumericError
from sca_stereo.gradcheck import check_gradients

from oracles import (
    box_filter3_oracle,
    conv2d_input_grad_oracle,
    conv2d_oracle,
    dense_band_matmul,
    dense_shifted_dot,
    downsample_avg2_oracle,
    shifted_dot_oracle,
    shifted_gather_oracle,
    shifted_scatter_oracle,
    tape_nbytes,
    upsample_oracle,
)


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
        # warp -> ssim, the deepest composite among the losses
        from sca_stereo import geometry, losses

        rng = np.random.default_rng(7)
        img = ad.tensor(rng.uniform(0.2, 0.8, (1, 6, 6)), requires_grad=True)
        other = ad.tensor(rng.uniform(0.2, 0.8, (1, 6, 6)), requires_grad=True)
        offset = ad.tensor(rng.uniform(-1.0, 1.0, (6, 6)) + 0.31, requires_grad=True)

        def fn(img, other, offset):
            warped = geometry.backward_warp(other, offset)
            return losses.ssim(img, warped)

        err = check_gradients(fn, [img, other, offset])
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

    def test_sibling_gradients_do_not_alias(self):
        # add's contribution reaches a first; both siblings receive the same g
        rng = np.random.default_rng(1)
        a = ad.tensor(rng.standard_normal(5), requires_grad=True)
        b = ad.tensor(rng.standard_normal(5), requires_grad=True)
        v, w = rng.standard_normal(5), rng.standard_normal(5)
        sibling_term = ad.sum_all(ad.mul(ad.add(a, b), ad.constant(w)))
        ad.backward(ad.add(ad.sum_all(ad.mul(a, ad.constant(v))), sibling_term))
        assert np.array_equal(b.grad, w)
        assert np.array_equal(a.grad, v + w)
        assert not np.shares_memory(a.grad, b.grad)

    def test_read_only_first_contribution_is_copied(self):
        # channel_mean's contribution (a broadcast view) reaches a before mul's
        rng = np.random.default_rng(2)
        a = ad.tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        v, w = rng.standard_normal((2, 3, 4)), rng.standard_normal(2)
        mean_term = ad.sum_all(ad.mul(ad.channel_mean(a), ad.constant(w)))
        ad.backward(ad.add(ad.sum_all(ad.mul(a, ad.constant(v))), mean_term))
        assert np.array_equal(a.grad, v + w[:, None, None] / 12)


class TestGraphLifetime:
    def test_backward_frees_gradients_and_graph(self):
        # 20 ops over [8,32,32]: keeping every op output's gradient costs about
        # one array per op during the walk, and an unlinked tape stays alive
        rng = np.random.default_rng(3)
        x = ad.tensor(rng.standard_normal((8, 32, 32)), requires_grad=True)
        ops = (ad.tanh, lambda a: ad.mulc(a, 0.9), ad.leaky_relu)
        tracemalloc.start()
        try:
            y = x
            for k in range(20):
                y = ops[k % len(ops)](y)
            loss = ad.sum_all(y)
            del y
            tape = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(loss)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - tape) / x.data.nbytes <= 5
        # only x.grad outlives the walk while the caller still holds loss
        assert held / x.data.nbytes <= 1.5
        assert loss._node.parents == () and loss.grad is None
        assert x.grad is not None

    def test_second_backward_raises_and_keeps_leaf_gradients(self):
        x = ad.tensor([1.0, -2.0], requires_grad=True)
        loss = ad.sum_all(ad.mul(x, x))
        ad.backward(loss)
        assert np.array_equal(x.grad, [2.0, -4.0])
        with pytest.raises(ValueError, match="consumed"):
            ad.backward(loss)
        assert np.array_equal(x.grad, [2.0, -4.0])

    def test_reused_output_needs_detach(self):
        x = ad.tensor([1.0, -2.0], requires_grad=True)
        w = ad.tensor([0.5, 3.0], requires_grad=True)
        y = ad.mul(x, x)
        ad.backward(ad.sum_all(y))
        with pytest.raises(ValueError, match="detach"):
            ad.backward(ad.sum_all(ad.mul(y, w)))
        assert w.grad is None and np.array_equal(x.grad, [2.0, -4.0])
        ad.backward(ad.sum_all(ad.mul(y.detach(), w)))
        assert np.array_equal(w.grad, [1.0, 4.0])

    def test_leaf_loss_keeps_its_gradient(self):
        x = ad.tensor(2.0, requires_grad=True)
        ad.backward(x)
        assert x.grad == 1.0

    def test_outputs_no_vjp_reads_die_with_the_forward(self):
        # leaky_relu saves a sign mask and sum_all a shape, so neither array is on the tape
        rng = np.random.default_rng(4)
        x = ad.tensor(rng.standard_normal((2, 6, 7)), requires_grad=True)
        k = ad.tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)

        def forward():
            conv = ad.conv2d(x, k, padding=1)
            act = ad.leaky_relu(conv)
            return ad.sum_all(act), [weakref.ref(conv.data), weakref.ref(act.data)]

        loss, refs = forward()
        assert [r() for r in refs] == [None, None]
        ad.backward(loss)
        assert x.grad is not None and k.grad is not None

    def test_conv_keeps_its_input_once(self):
        # the tape holds the input and one kernel-sized array per conv (its taps), never a padded copy;
        # two convs reading one input hold it once
        rng = np.random.default_rng(5)
        x = ad.tensor(rng.standard_normal((2, 6, 7)), requires_grad=True)
        k1, k2 = (ad.tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True) for _ in range(2))
        for stride in (1, 2):
            h = ad.mulc(x, 2.0)  # saves nothing, so only the convs hold h
            conv = lambda k: ad.sum_all(ad.conv2d(h, k, stride=stride, padding=1))
            assert tape_nbytes(conv(k1)) == h.data.nbytes + k1.data.nbytes
            both = ad.add(conv(k1), conv(k2))
            assert tape_nbytes(both) == h.data.nbytes + k1.data.nbytes + k2.data.nbytes
            x.grad = None
            ad.backward(both)
            g = np.ones((3,) + ad.conv2d(h, k1, stride=stride, padding=1).shape[1:])
            expected = sum(
                2.0 * conv2d_input_grad_oracle(g, k.data, (2, 6, 7), stride=stride, padding=1) for k in (k1, k2)
            )
            assert np.max(np.abs(x.grad - expected)) <= 1e-12

    def test_consumed_node_is_freed_before_the_walk_reaches_the_leaves(self):
        x = ad.tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4), requires_grad=True)
        alive_at_leaf = []

        def vjp(g):
            alive_at_leaf.append(saved() is not None)
            return g

        first = ad._result(x.data.copy(), (x,), (vjp,))  # the op next to the leaf: its vjp runs last
        out = ad.tanh(first)
        saved = weakref.ref(out.data)  # tanh saves its output for its vjp
        loss = ad.sum_all(out)
        del first, out
        assert saved() is not None
        ad.backward(loss)
        assert alive_at_leaf == [False]
        assert np.array_equal(x.grad, 1.0 - np.tanh(x.data) ** 2)

    def test_wrapped_backward_closure_runs_in_the_walk(self):
        # a tracer times an op's backward by replacing out._backward with a wrapper
        x = ad.tensor([1.0, -2.0], requires_grad=True)
        out = ad.mul(x, x)
        assert out._node.parents == (x, x)
        grads = []
        inner = out._backward

        def wrapper(grad):
            grads.append(grad.copy())
            inner(grad)

        out._backward = wrapper
        ad.backward(ad.sum_all(out))
        assert len(grads) == 1 and np.array_equal(grads[0], [1.0, 1.0])
        assert np.array_equal(x.grad, [2.0, -4.0])
        assert out._backward is not wrapper and out._node.parents == ()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator thresholds are glibc's")
    def test_freed_step_memory_is_reused_without_page_faults(self):
        # a step's worth of 1 MB arrays, freed and allocated again, as consecutive training steps do
        def one_step():
            arrays = [np.ones((16, 64, 128)) for _ in range(40)]
            del arrays

        one_step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        one_step()
        # 40 MB faulted in afresh would be 10,240 faults of 4 KB pages
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


STACKED, PER_TAP = ad._STACK_BELOW_C_IN - 1, ad._STACK_BELOW_C_IN  # conv2d channel counts either side of the rule


# (stride, padding, input shape, kernel size, bias) of the conv2d oracle tests
CONV_CASES = [
    pytest.param(1, 0, (3, 8, 8), 3, False, id="1-0"),
    pytest.param(1, 1, (3, 8, 8), 3, False, id="1-1"),
    pytest.param(2, 1, (3, 8, 8), 3, False, id="2-1"),
    pytest.param(3, 2, (3, 8, 8), 3, False, id="3-2"),
    pytest.param(2, 1, (3, 9, 7), 3, False, id="2-1-odd"),
    pytest.param(2, 0, (3, 9, 11), 3, False, id="2-0-odd"),
    pytest.param(3, 0, (3, 8, 8), 3, False, id="3-0-unread-tail"),
    pytest.param(1, 0, (5, 6, 7), 1, False, id="1x1"),
    pytest.param(2, 1, (3, 7, 9), 3, True, id="2-1-bias"),
    pytest.param(1, 1, (STACKED, 8, 8), 3, False, id="1-1-stacked-widest"),
    pytest.param(1, 1, (PER_TAP, 8, 8), 3, False, id="1-1-per-tap"),
    pytest.param(2, 1, (PER_TAP, 9, 7), 3, True, id="2-1-odd-bias-per-tap"),
    pytest.param(3, 2, (PER_TAP, 8, 8), 3, False, id="3-2-per-tap"),
    pytest.param(3, 0, (PER_TAP, 8, 8), 3, False, id="3-0-unread-tail-per-tap"),
    pytest.param(1, 0, (PER_TAP, 6, 7), 1, False, id="1x1-per-tap"),
    pytest.param(2, 0, (PER_TAP, 6, 7), 1, False, id="1x1-strided-per-tap"),
]


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

    @pytest.mark.parametrize("stride,padding,shape,ksize,with_bias", CONV_CASES)
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

    @pytest.mark.parametrize("c_out", [1, STACKED, PER_TAP], ids=lambda c: f"c_out{c}")
    @pytest.mark.parametrize("stride,padding,shape,ksize,with_bias", CONV_CASES)
    def test_input_gradient_matches_nested_loop_oracle(self, stride, padding, shape, ksize, with_bias, c_out):
        # the input vjp stacks its taps into one GEMM below _STACK_BELOW_C_IN output channels
        rng = np.random.default_rng(stride * 10 + padding + c_out)
        x = ad.tensor(rng.standard_normal(shape), requires_grad=True)
        k = ad.tensor(rng.standard_normal((c_out, shape[0], ksize, ksize)))
        b = ad.tensor(rng.standard_normal(c_out)) if with_bias else None
        out = ad.conv2d(x, k, stride=stride, padding=padding, bias=b)
        g = rng.standard_normal(out.shape)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
        expected = conv2d_input_grad_oracle(g, k.data, shape, stride=stride, padding=padding)
        assert np.max(np.abs(x.grad - expected)) <= 1e-12

    @pytest.mark.parametrize("c_in", [STACKED, PER_TAP])
    @pytest.mark.parametrize("stride,padding,ksize", [(1, 1, 3), (2, 1, 3), (1, 0, 1)])
    def test_gradients_do_not_depend_on_which_inputs_need_them(self, c_in, stride, padding, ksize):
        # the input and kernel vjps share one padded output gradient when both run
        rng = np.random.default_rng(c_in)
        x_data, k_data = rng.standard_normal((c_in, 7, 9)), rng.standard_normal((3, c_in, ksize, ksize))
        g = None
        grads = {}
        for wants in [(True, True), (True, False), (False, True)]:
            x, k = ad.tensor(x_data, requires_grad=wants[0]), ad.tensor(k_data, requires_grad=wants[1])
            out = ad.conv2d(x, k, stride=stride, padding=padding)
            g = rng.standard_normal(out.shape) if g is None else g
            ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
            grads[wants] = (x.grad, k.grad)
        assert np.array_equal(grads[True, False][0], grads[True, True][0])
        assert np.array_equal(grads[False, True][1], grads[True, True][1])
        assert grads[True, False][1] is None and grads[False, True][0] is None

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

    def test_one_plan_per_shape_whatever_the_channel_counts(self):
        # the shape plan is keyed on (H, W, kh, kw, stride, padding): convs that differ only in channels share it
        rng = np.random.default_rng(4)
        ad._conv_plan.cache_clear()
        for c_in, c_out in [(1, 2), (3, 5), (9, 1)]:
            x = ad.tensor(rng.standard_normal((c_in, 7, 10)), requires_grad=True)
            k = ad.tensor(rng.standard_normal((c_out, c_in, 3, 3)), requires_grad=True)
            ad.backward(ad.sum_all(ad.conv2d(x, k, stride=2, padding=1)))
        assert ad._conv_plan.cache_info().currsize == 1
        ad.conv2d(x, k, stride=1, padding=1)
        assert ad._conv_plan.cache_info().currsize == 2

    def test_rerun_bit_identical(self):
        rng = np.random.default_rng(3)
        x = ad.tensor(rng.standard_normal((3, 6, 6)))
        k = ad.tensor(rng.standard_normal((2, 3, 3, 3)))
        a = ad.conv2d(x, k, padding=1).data
        b = ad.conv2d(x, k, padding=1).data
        assert np.array_equal(a, b)


def _conv_and_grads(x_data, k_data, stride, padding):
    """conv2d's output, input gradient and kernel gradient for a fixed random output gradient."""
    x, k = ad.tensor(x_data, requires_grad=True), ad.tensor(k_data, requires_grad=True)
    out = ad.conv2d(x, k, stride=stride, padding=padding)
    g = np.random.default_rng(9).standard_normal(out.shape)
    ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
    return out.data, x.grad, k.grad, g


class TestBlockedTapSums:
    """A 1-byte budget splits every per-tap sum into 64-column blocks, so small shapes run the blocked path."""

    # (stride, padding, input shape, C_out, kernel size, (forward blocks, input vjp blocks))
    CASES = [
        pytest.param(1, 1, (PER_TAP, 16, 20), PER_TAP, 3, (True, True), id="per-tap"),
        pytest.param(1, 1, (PER_TAP + 1, 16, 20), PER_TAP + 1, 3, (True, True), id="per-tap-above-rule"),
        pytest.param(1, 1, (STACKED, 16, 20), PER_TAP, 3, (False, True), id="stacked-forward"),
        pytest.param(1, 1, (PER_TAP, 16, 20), STACKED, 3, (True, False), id="stacked-input-vjp"),
        pytest.param(1, 0, (PER_TAP, 18, 22), PER_TAP, 3, (True, True), id="unpadded"),
        pytest.param(2, 1, (PER_TAP, 31, 45), PER_TAP, 3, (True, True), id="stride2"),
        pytest.param(1, 0, (PER_TAP, 16, 20), PER_TAP, 1, (False, False), id="1x1"),
        pytest.param(2, 0, (PER_TAP, 31, 45), PER_TAP, 1, (False, False), id="1x1-strided"),
    ]

    @pytest.mark.parametrize("stride,padding,shape,c_out,ksize,blocked", CASES)
    def test_blocks_give_the_whole_sums_bits(self, monkeypatch, stride, padding, shape, c_out, ksize, blocked):
        rng = np.random.default_rng(sum(shape) + c_out)
        x_data, k_data = rng.standard_normal(shape), rng.standard_normal((c_out, shape[0], ksize, ksize))
        whole = _conv_and_grads(x_data, k_data, stride, padding)
        column_blocks, calls = ad._column_blocks, {}

        def recorded(n_taps, rows, cols, n):
            blocks = column_blocks(n_taps, rows, cols, n)
            calls[rows, cols, n] = max(calls.get((rows, cols, n), 1), len(blocks))
            return blocks

        monkeypatch.setattr(ad, "_TAP_SUM_BUDGET", 1)
        monkeypatch.setattr(ad, "_column_blocks", recorded)
        out, dx, dk, g = _conv_and_grads(x_data, k_data, stride, padding)
        # the forward and kernel vjp use [C_out, C_in] taps over H'*wq columns, the input vjp [C_in, C_out] over hq*wq
        plan = ad._conv_plan(*shape[1:], ksize, ksize, stride, padding)
        forward = calls.get((c_out, shape[0], plan.n), 1) > 1
        input_vjp = calls.get((shape[0], c_out, plan.hq * plan.wq), 1) > 1
        assert (forward, input_vjp) == blocked
        assert np.array_equal(out, whole[0]) and np.array_equal(dx, whole[1])
        assert np.max(np.abs(out - conv2d_oracle(x_data, k_data, stride=stride, padding=padding))) <= 1e-12
        expected_dx = conv2d_input_grad_oracle(g, k_data, shape, stride=stride, padding=padding)
        assert np.max(np.abs(dx - expected_dx)) <= 1e-12
        assert np.max(np.abs(dk - whole[2])) <= 1e-12 * np.max(np.abs(whole[2]))

    def test_blocks_are_whole_64_column_runs_of_about_half_the_budget(self):
        for n_taps, rows, cols, n in [(9, 16, 16, 64 * 130), (9, 16, 16, 66 * 130), (4, 40, 24, 5000)]:
            blocks = ad._column_blocks(n_taps, rows, cols, n)
            size = blocks[0].stop
            assert len(blocks) > 1 and size % 64 == 0 and blocks[-1].stop == n
            assert all(b.start == i * size and b.stop - b.start <= size for i, b in enumerate(blocks))
            # at most half the budget before the rounding up to a whole run of 64 columns
            assert 8 * (size - 64) * (cols + 2 * rows) <= ad._TAP_SUM_BUDGET / 2
        assert ad._column_blocks(1, 49, 16, 64 * 128) == (slice(0, 64 * 128),)  # one tap: no accumulator to keep
        assert ad._column_blocks(9, 16, STACKED, 64 * 130) == (slice(0, 64 * 130),)  # stacked: one GEMM

    def test_only_matcher_feat2_blocks_at_the_default_size(self, monkeypatch):
        # every tap sum of a default-size pretrain step (the matcher) and generator step (translator,
        # discriminator, perceptual net); none sits within 25% of the budget, so no shape is a near tie
        column_blocks, shapes = ad._column_blocks, {}

        def recorded(*shape):
            blocks = column_blocks(*shape)
            shapes[shape] = len(blocks)
            return blocks

        monkeypatch.setattr(ad, "_column_blocks", recorded)
        config = RunConfig()
        size = (config.image_height, config.image_width)
        src = synth.generate_scene(synth.SceneSpec(seed=1, image_size=size))
        tgt = synth.generate_scene(synth.SceneSpec(seed=2, domain_style="target", image_size=size))
        mparams = training._init_matcher(config)
        training._pretrain_step([src], mparams, ad.AdamState(mparams.params, 1e-3))
        tparams, dparams = training._init_translator(config), training._init_discriminator(config)
        z = ad.constant(np.random.default_rng(3).standard_normal(config.z_channels))
        state = ad.AdamState(tparams.params, 1e-3)
        training._generator_step(lambda k: (src, tgt, z), 1, tparams, dparams, config, state)
        h, w, c = config.image_height, config.image_width, config.matcher_channels
        # matcher.feat2: its forward and kernel vjp over H*(W+2) columns, its input vjp over (H+2)*(W+2)
        assert {shape for shape, n_blocks in shapes.items() if n_blocks > 1} == {
            (9, c, c, h * (w + 2)),
            (9, c, c, (h + 2) * (w + 2)),
        }
        per_tap = [(n, rows, cols) for (n_taps, rows, cols, n) in shapes if n_taps > 1 and cols >= PER_TAP]
        assert len(per_tap) > 20
        for n, rows, cols in per_tap:
            need = 8 * n * (cols + 2 * rows)
            assert not 0.75 * ad._TAP_SUM_BUDGET < need < 1.25 * ad._TAP_SUM_BUDGET, (n, rows, cols)


# Compared at one and two BLAS threads: matcher.feat2's blocked conv at the default 64x128 (output, input
# and kernel gradients), and a default matcher's predict_view of both views over three draws (each
# prediction and every parameter gradient under a random cotangent).
_THREADS_SCRIPT = """
import hashlib
import numpy as np
from sca_stereo import autodiff as ad
from sca_stereo.matcher import MatcherParams, predict_view

rng = np.random.default_rng(0)
digest = hashlib.sha256()
x = ad.tensor(rng.standard_normal((16, 64, 128)), requires_grad=True)
k = ad.tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
out = ad.conv2d(x, k, padding=1)
ad.backward(ad.sum_all(ad.mul(out, ad.constant(rng.standard_normal(out.shape)))))
for array in (out.data, x.grad, k.grad):
    digest.update(array.tobytes())
mparams = MatcherParams(np.random.default_rng(1))
for _ in range(3):
    left, right = (ad.tensor(rng.random((3, 64, 128))) for _ in range(2))
    for view in ("left", "right"):
        ad.zero_grads(mparams.params)
        pred = predict_view(left, right, view, mparams)
        digest.update(pred.data.tobytes())
        ad.backward(ad.sum_all(ad.mul(pred, ad.constant(rng.standard_normal(pred.shape)))))
        for param in mparams.params.values():
            digest.update(param.grad.tobytes())
print(len(ad._column_blocks(9, 16, 16, 64 * 130)), digest.hexdigest())
"""


def test_blocked_conv_gives_the_same_bytes_at_one_and_two_blas_threads():
    src = str(Path(ad.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout.split())
    assert int(outputs[0][0]) > 1
    assert outputs[0] == outputs[1]


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


class TestShiftedOps:
    @pytest.mark.parametrize("direction", ad.DIRECTIONS)
    @pytest.mark.parametrize("d_max", [0, 8])
    def test_weighted_sum_is_adjoint_of_dot(self, direction, d_max):
        # <W, shifted_dot(a, b)> = <a, shifted_weighted_sum(W, b)>
        rng = np.random.default_rng(10)
        c, h, w = 3, 4, 9
        a = rng.standard_normal((c, h, w))
        b = ad.tensor(rng.standard_normal((c, h, w)))
        weights = rng.standard_normal((d_max + 1, h, w))
        lhs = np.vdot(weights, ad.shifted_dot(ad.tensor(a), b, d_max, direction).data)
        rhs = np.vdot(a, ad.shifted_weighted_sum(ad.tensor(weights), b, direction).data)
        assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("direction", ad.DIRECTIONS)
    def test_rerun_bit_identical(self, direction):
        rng = np.random.default_rng(11)
        a = ad.tensor(rng.standard_normal((3, 4, 9)), requires_grad=True)
        b = ad.tensor(rng.standard_normal((3, 4, 9)), requires_grad=True)
        weights = ad.tensor(rng.standard_normal((9, 4, 9)), requires_grad=True)
        g_dot = rng.standard_normal((9, 4, 9))
        g_sum = rng.standard_normal((3, 4, 9))

        def run():
            a.grad = b.grad = weights.grad = None
            dot = ad.shifted_dot(a, b, 8, direction)
            mixed = ad.shifted_weighted_sum(weights, b, direction)
            loss = ad.add(ad.sum_all(ad.mul(dot, ad.constant(g_dot))), ad.sum_all(ad.mul(mixed, ad.constant(g_sum))))
            ad.backward(loss)
            return [dot.data, mixed.data, a.grad.copy(), b.grad.copy(), weights.grad.copy()]

        first, second = run(), run()
        assert all(np.array_equal(x, y) for x, y in zip(first, second))

    # rows of several blocks, the last one partial at widths 72 and 100, and d_max up to past one block
    _WIDE = [(72, 9), (72, 40), (100, 7), (100, 33), (128, 16), (128, 127)]

    @pytest.mark.parametrize("direction", ad.DIRECTIONS)
    @pytest.mark.parametrize("w, d_max", _WIDE)
    def test_wide_rows_match_loop_oracles(self, direction, w, d_max):
        rng = np.random.default_rng(w + d_max)
        c, h = 3, 2
        a, b = (ad.tensor(rng.standard_normal((c, h, w)), requires_grad=True) for _ in range(2))
        weights = ad.tensor(rng.standard_normal((d_max + 1, h, w)), requires_grad=True)
        g_dot, g_sum = rng.standard_normal((d_max + 1, h, w)), rng.standard_normal((c, h, w))
        close = lambda x, y: np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)

        dot = ad.shifted_dot(a, b, d_max, direction)
        close(dot.data, shifted_dot_oracle(a.data, b.data, d_max, direction))
        ad.backward(ad.sum_all(ad.mul(dot, ad.constant(g_dot))))
        close(a.grad, shifted_gather_oracle(g_dot, b.data, direction))
        close(b.grad, shifted_scatter_oracle(g_dot, a.data, direction))

        b.grad = None
        mixed = ad.shifted_weighted_sum(weights, b, direction)
        close(mixed.data, shifted_gather_oracle(weights.data, b.data, direction))
        ad.backward(ad.sum_all(ad.mul(mixed, ad.constant(g_sum))))
        close(weights.grad, shifted_dot_oracle(g_sum, b.data, d_max, direction))
        close(b.grad, shifted_scatter_oracle(weights.data, g_sum, direction))

    @pytest.mark.parametrize("direction", ad.DIRECTIONS)
    @pytest.mark.parametrize("w, d_max", _WIDE)
    def test_wide_rows_adjoint(self, direction, w, d_max):
        rng = np.random.default_rng(w * d_max)
        c, h = 3, 4
        a, b = rng.standard_normal((c, h, w)), rng.standard_normal((c, h, w))
        weights = rng.standard_normal((d_max + 1, h, w))
        lhs = np.vdot(weights, ad._shifted_dot(a, b, d_max, direction))
        rhs = np.vdot(a, ad._band_matmul(weights, b, direction, scatter=False))
        assert abs(lhs - rhs) <= 1e-12
        # and the scatter is the gather's adjoint in the other input
        assert abs(np.vdot(b, ad._band_matmul(weights, a, direction, scatter=True)) - rhs) <= 1e-12

    @pytest.mark.parametrize("direction", ad.DIRECTIONS)
    def test_matcher_size_bit_identical_to_whole_rows(self, direction):
        # the correlation's shape: blocks change which products are computed, not their sums
        rng = np.random.default_rng(13)
        c, h, w, d_max = 16, 64, 128, 16
        a, b = rng.standard_normal((c, h, w)), rng.standard_normal((c, h, w))
        weights = rng.standard_normal((d_max + 1, h, w))
        pairs = [(ad._shifted_dot(a, b, d_max, direction), dense_shifted_dot(a, b, d_max, direction))]
        pairs += [
            (ad._band_matmul(weights, x, direction, scatter), dense_band_matmul(weights, x, direction, scatter))
            for x, scatter in ((b, False), (a, True))
        ]
        assert all(blocked.tobytes() == whole.tobytes() for blocked, whole in pairs)

    @pytest.mark.parametrize("direction", ad.DIRECTIONS)
    def test_candidates_off_the_image_are_zero_for_any_query(self, direction):
        # past one block they are zero padding, and an infinite query times a zero would read nan
        a, b = np.ones((2, 3, 72)), np.ones((2, 3, 72))
        a[:, :, [0, 40, 71]] = np.inf
        with np.errstate(invalid="ignore"):  # the padding's inf * 0 products
            out = ad._shifted_dot(a, b, 40, direction)
        assert np.array_equal(out, dense_shifted_dot(a, b, 40, direction))

    @pytest.mark.parametrize("direction", ad.DIRECTIONS)
    def test_no_row_matrix_allocated(self, direction):
        # one [W,W] matrix per row is 8.4 MB here; the whole-row forward peaked at 11.6 MB
        rng = np.random.default_rng(14)
        c, h, w, d_max = 16, 64, 128, 16
        a, b = (ad.tensor(rng.standard_normal((c, h, w)), requires_grad=True) for _ in range(2))
        g = ad.constant(rng.standard_normal((d_max + 1, h, w)))
        row_matrices = h * w * w * 8
        tracemalloc.start()
        try:
            dot = ad.shifted_dot(a, b, d_max, direction)
            forward_peak = tracemalloc.get_traced_memory()[1]
            loss = ad.sum_all(ad.mul(dot, g))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(loss)
            backward_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert forward_peak <= 11.6e6 / 2
        assert backward_peak < row_matrices

    @pytest.mark.parametrize(
        "direction, d_max", [("up_to_down", 2), ("left_to_right", 9), ("right_to_left", -1)]
    )
    def test_invalid_shift_rejected(self, direction, d_max):
        x = ad.tensor(np.zeros((2, 3, 9)))
        with pytest.raises(ValueError):
            ad.shifted_dot(x, x, d_max, direction)
        with pytest.raises(ValueError):
            ad.shifted_weighted_sum(ad.tensor(np.zeros((d_max + 1, 3, 9))), x, direction)


class TestSumFold:
    def test_left_fold_order(self):
        terms = [ad.tensor(np.array(v)) for v in (1.0, 1e-16, 1e-16)]
        assert ad.add_n(terms).item() == (1.0 + 1e-16) + 1e-16

    def test_empty_sum_is_zero_scalar(self):
        out = ad.add_n([])
        assert out.shape == () and out.item() == 0.0


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
        u = ad.power_iteration(k.data, np.array([1.0, 0.0]))
        out = ad.spectral_normalize(k, u)
        assert np.allclose(out.data, np.eye(2), atol=1e-12)

    def test_diag_converges_to_unit_top_singular_value(self):
        k = ad.tensor(np.diag([2.0, 1.0]))
        u = np.array([0.6, 0.8])
        for _ in range(200):
            u = ad.power_iteration(k.data, u)
            out = ad.spectral_normalize(k, u)
        assert np.allclose(out.data, np.diag([1.0, 0.5]), atol=1e-6)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 4))
        u0 = rng.standard_normal(3)
        u_a = u_b = u0 / np.linalg.norm(u0)
        for _ in range(50):
            u_a = ad.power_iteration(w, u_a)
            u_b = ad.power_iteration(2.5 * w, u_b)
            out_a = ad.spectral_normalize(ad.tensor(w), u_a)
            out_b = ad.spectral_normalize(ad.tensor(2.5 * w), u_b)
        assert np.allclose(out_a.data, out_b.data, atol=1e-12)

    def test_zero_kernel_passthrough(self):
        k = ad.tensor(np.zeros((2, 3)))
        u = np.array([1.0, 0.0])
        assert ad.power_iteration(k.data, u) is u
        out = ad.spectral_normalize(k, u)
        assert out is k

    def test_u_vector_stays_normalized(self):
        rng = np.random.default_rng(9)
        k = ad.tensor(rng.standard_normal((4, 4, 3, 3)))
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        for _ in range(20):
            u = ad.power_iteration(k.data, u)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-9

    def test_normalize_has_no_side_effect(self):
        rng = np.random.default_rng(3)
        k = ad.tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=True)
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        before, kernel = u.copy(), k.data.copy()
        first, second = ad.spectral_normalize(k, u), ad.spectral_normalize(k, u)
        np.testing.assert_array_equal(u, before)
        np.testing.assert_array_equal(k.data, kernel)
        np.testing.assert_array_equal(first.data, second.data)


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


class TestLeakyRelu:
    def test_matches_factor_form_bit_for_bit(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((3, 5, 7))
        data[0, 0, :4] = [0.0, -0.0, np.inf, -np.inf]
        x = ad.tensor(data, requires_grad=True)
        g = rng.standard_normal(data.shape)
        g[0, 0, 2:4] = [1.0, -1.0]  # both infinities contract to +inf, not nan
        out = ad.leaky_relu(x)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
        factor = np.where(data > 0, 1.0, 0.2)
        assert np.array_equal(out.data, data * factor, equal_nan=True)
        assert np.array_equal(x.grad, g * factor)


class TestUpsample:
    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    def test_matches_oracle(self, factor):
        x = np.random.default_rng(12).standard_normal((2, 3, 5))
        out = ad.upsample_bilinear2(ad.tensor(x), factor).data
        assert out.shape == (2, 3 * factor, 5 * factor)
        assert np.max(np.abs(out - upsample_oracle(x, factor))) <= 1e-12

    @pytest.mark.parametrize("factor", [2, 8])
    def test_vjp_is_adjoint(self, factor):
        # <U x, y> = <x, U^T y>
        rng = np.random.default_rng(13)
        x = ad.tensor(rng.standard_normal((2, 3, 5)), requires_grad=True)
        y = rng.standard_normal((2, 3 * factor, 5 * factor))
        up = ad.upsample_bilinear2(x, factor)
        ad.backward(ad.sum_all(ad.mul(up, ad.constant(y))))
        assert abs(np.vdot(up.data, y) - np.vdot(x.data, x.grad)) <= 1e-12

    def test_rerun_bit_identical(self):
        rng = np.random.default_rng(14)
        x = ad.tensor(rng.standard_normal((3, 5, 7)), requires_grad=True)
        y = ad.constant(rng.standard_normal((3, 20, 28)))

        def run():
            x.grad = None
            up = ad.upsample_bilinear2(x, 4)
            ad.backward(ad.sum_all(ad.mul(up, y)))
            return up.data, x.grad.copy()

        (out_a, grad_a), (out_b, grad_b) = run(), run()
        assert np.array_equal(out_a, out_b) and np.array_equal(grad_a, grad_b)

    @pytest.mark.parametrize("factor", [0, 3])
    def test_rejects_factor_not_a_power_of_two(self, factor):
        with pytest.raises(ValueError):
            ad.upsample_bilinear2(ad.tensor(np.zeros((1, 2, 2))), factor)


# odd and even sizes, and a 1-pixel axis: in the box's input, in the pool's output
_FIXED_MAPS = [
    pytest.param(op, oracle, shape, id=f"{op.__name__}-{'x'.join(map(str, shape))}")
    for op, oracle, shapes in (
        (ad.box_filter3, box_filter3_oracle, ((2, 5, 6), (3, 4, 1), (1, 1, 7), (2, 1, 1))),
        (ad.downsample_avg2, downsample_avg2_oracle, ((2, 4, 6), (1, 2, 8), (3, 6, 2))),
    )
    for shape in shapes
]


class TestBoxFilterAndPool:
    @pytest.mark.parametrize("op, oracle, shape", _FIXED_MAPS)
    def test_matches_slice_sum_oracle(self, op, oracle, shape):
        x = np.random.default_rng(15).standard_normal(shape)
        assert np.max(np.abs(op(ad.tensor(x)).data - oracle(x))) <= 1e-12

    @pytest.mark.parametrize("op, oracle, shape", _FIXED_MAPS)
    def test_vjp_is_adjoint(self, op, oracle, shape):
        # <M x, y> = <x, M^T y>
        rng = np.random.default_rng(16)
        x = ad.tensor(rng.standard_normal(shape), requires_grad=True)
        out = op(x)
        y = rng.standard_normal(out.shape)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(y))))
        assert abs(np.vdot(out.data, y) - np.vdot(x.data, x.grad)) <= 1e-12

    @pytest.mark.parametrize("shape", [(1, 3, 4), (1, 4, 5), (4, 6)])
    def test_pool_rejects_odd_sizes_and_other_ranks(self, shape):
        with pytest.raises(ValueError, match="downsample_avg2"):
            ad.downsample_avg2(ad.tensor(np.zeros(shape)))
