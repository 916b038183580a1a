import numpy as np
import pytest

from sca_stereo import autodiff as ad
from sca_stereo import geometry, synth, translation
from sca_stereo.gradcheck import check_gradients

VIEWS = ("left", "right")


def tiny_translator(sca=True, seed=0):
    return translation.TranslatorParams(
        np.random.default_rng(seed),
        base_channels=4,
        n_scales=2,
        z_channels=4,
        d_max_full=4,
        sca_enabled=sca,
        cloud_scale=20.0,
    )


def scene_inputs(seed=0, size=(16, 32)):
    src = synth.generate_scene(synth.SceneSpec(seed=seed, image_size=size))
    tgt = synth.generate_scene(synth.SceneSpec(seed=seed + 1000, domain_style="target", image_size=size))
    return src, tgt


class TestFadain:
    def test_normalized_style_returns_normalized_content(self):
        rng = np.random.default_rng(0)
        f_g = ad.tensor(rng.standard_normal((3, 6, 7)) * 3)
        style = rng.standard_normal((3, 6, 7)) * 5
        style = (style - style.mean(axis=(1, 2), keepdims=True)) / style.std(axis=(1, 2), keepdims=True)
        out = translation.fadain(f_g, ad.tensor(style))
        assert np.max(np.abs(out.data - ad.instance_norm(f_g).data)) <= 1e-4

    def test_constant_content_returns_style_means(self):
        rng = np.random.default_rng(1)
        f_g = ad.tensor(np.broadcast_to(np.array([1.0, -2.0])[:, None, None], (2, 4, 5)).copy())
        f_t = ad.tensor(rng.standard_normal((2, 4, 5)) * 4)
        out = translation.fadain(f_g, f_t)
        means = f_t.data.mean(axis=(1, 2))
        assert np.max(np.abs(out.data - means[:, None, None])) <= 1e-6

    def test_output_statistics_match_style(self):
        rng = np.random.default_rng(2)
        f_g = ad.tensor(rng.standard_normal((3, 10, 12)) * 6 + 1)
        f_t = ad.tensor(rng.standard_normal((3, 10, 12)) * 5 - 2)
        out = translation.fadain(f_g, f_t)
        assert np.max(np.abs(out.data.mean(axis=(1, 2)) - f_t.data.mean(axis=(1, 2)))) <= 1e-6
        assert np.max(np.abs(out.data.std(axis=(1, 2)) - f_t.data.std(axis=(1, 2)))) <= 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            translation.fadain(ad.tensor(np.zeros((2, 3, 3))), ad.tensor(np.zeros((2, 4, 4))))


class TestFadeResblock:
    def test_unit_gamma_zero_beta_is_plain_resblock(self):
        rng = np.random.default_rng(3)
        c = 3
        params = translation.init_fade_resblock_params(np.random.default_rng(0), "rb", c, c)
        for key in ("rb.fade1", "rb.fade2"):
            params[key + ".gamma.w"].data[:] = 0.0
            params[key + ".gamma.b"].data[:] = 1.0
            params[key + ".beta.w"].data[:] = 0.0
            params[key + ".beta.b"].data[:] = 0.0
        x = ad.tensor(rng.standard_normal((c, 5, 6)))
        content = ad.tensor(rng.standard_normal((c, 5, 6)))
        out = translation.fade_resblock(x, content, params, "rb")

        def plain(x):
            h = translation.conv(ad.leaky_relu(ad.instance_norm(x)), params, "rb.conv1")
            h = translation.conv(ad.leaky_relu(ad.instance_norm(h)), params, "rb.conv2")
            return ad.add(x, h)

        assert np.array_equal(out.data, plain(x).data)

    def test_first_conv_linearity(self):
        rng = np.random.default_rng(4)
        c = 2
        params = translation.init_fade_resblock_params(np.random.default_rng(1), "rb", c, c)
        x = ad.tensor(rng.standard_normal((c, 4, 4)))
        single = ad.conv2d(x, params["rb.conv1.w"], stride=1, padding=1)
        double = ad.conv2d(ad.mulc(x, 2.0), params["rb.conv1.w"], stride=1, padding=1)
        assert np.max(np.abs(double.data - 2.0 * single.data)) <= 1e-12


class TestScaBlock:
    def test_identical_views_dmax_zero_symmetric(self):
        rng = np.random.default_rng(6)
        c = 3
        params = translation.init_sca_block_params(np.random.default_rng(3), "sca", c, d_max=0)
        f = ad.tensor(rng.standard_normal((c, 4, 6)))
        g = ad.tensor(rng.standard_normal((c, 4, 6)))
        out = translation.sca_block({"left": f, "right": f}, {"left": g, "right": g}, params, "sca", 0)
        assert np.array_equal(out["left"].data, out["right"].data)

    def test_zero_residual_conv_reduces_to_fade(self):
        rng = np.random.default_rng(7)
        c = 2
        params = translation.init_sca_block_params(np.random.default_rng(4), "sca", c, d_max=2)
        params["sca.res.w"].data[:] = 0.0
        fg = {v: ad.tensor(rng.standard_normal((c, 4, 6))) for v in VIEWS}
        fc = {v: ad.tensor(rng.standard_normal((c, 4, 6))) for v in VIEWS}
        out = translation.sca_block(fg, fc, params, "sca", 2)
        for v in VIEWS:
            expected = translation.fade_modulation(fg[v], fc[v], params, "sca.fade")
            assert np.array_equal(out[v].data, expected.data)


class TestStreams:
    def test_scale_shapes(self):
        tparams = tiny_translator()
        src, _ = scene_inputs()
        cloud = geometry.disparity_to_world_points(src.disparities["left"], "left", synth.default_rig(16, 32))
        feats = translation.content_stream(src.images["left"], cloud, tparams)
        # scale n (1-based) has spatial size (H / 2**n, W / 2**n)
        assert feats[0].shape == (tparams.channels[0], 8, 16)
        assert feats[1].shape == (tparams.channels[1], 4, 8)
        style = translation.style_stream(src.images["left"], tparams)
        assert style[0].shape == (tparams.channels[0], 8, 16)
        assert style[1].shape == (tparams.channels[1], 4, 8)

    def test_deterministic(self):
        tparams = tiny_translator()
        src, _ = scene_inputs()
        cloud = geometry.disparity_to_world_points(src.disparities["left"], "left", synth.default_rig(16, 32))
        a = translation.content_stream(src.images["left"], cloud, tparams)
        b = translation.content_stream(src.images["left"], cloud, tparams)
        for x, y in zip(a, b):
            assert np.array_equal(x.data, y.data)

    def test_finite_outputs(self):
        tparams = tiny_translator()
        src, _ = scene_inputs()
        cloud = geometry.disparity_to_world_points(src.disparities["right"], "right", synth.default_rig(16, 32))
        for f in translation.content_stream(src.images["right"], cloud, tparams):
            assert np.all(np.isfinite(f.data))

    def test_image_cloud_size_mismatch(self):
        tparams = tiny_translator()
        src, _ = scene_inputs()
        for shape in ((3, 8, 8), (2, 16, 32)):
            with pytest.raises(ValueError, match="cloud must be"):
                translation.content_stream(src.images["left"], ad.constant(np.zeros(shape)), tparams)


class TestGenerate:
    def _translate(self, tparams, seed=0, z_seed=42):
        src, tgt = scene_inputs(seed)
        z = ad.constant(np.random.default_rng(z_seed).standard_normal(tparams.z_channels))
        return translation.translate(src.images, src.disparities, tgt.images, z, tparams)

    def test_output_shape_and_range(self):
        images, feats = self._translate(tiny_translator())
        for v in VIEWS:
            assert images[v].shape == (3, 16, 32)
            assert images[v].data.min() >= 0.0
            assert images[v].data.max() <= 1.0
        assert [f[1] for f in feats["left"]] == [4, 2]

    def test_deterministic(self):
        tparams = tiny_translator()
        a, _ = self._translate(tparams)
        b, _ = self._translate(tparams)
        for v in VIEWS:
            assert np.array_equal(a[v].data, b[v].data)

    def test_ablated_left_output_independent_of_right(self):
        tparams = tiny_translator(sca=False)
        src, tgt = scene_inputs(3)
        z = ad.constant(np.random.default_rng(0).standard_normal(tparams.z_channels))
        base, _ = translation.translate(src.images, src.disparities, tgt.images, z, tparams)
        perturbed_images = dict(src.images)
        perturbed_images["right"] = ad.constant(np.clip(src.images["right"].data + 0.1, 0, 1))
        out, _ = translation.translate(perturbed_images, src.disparities, tgt.images, z, tparams)
        assert np.array_equal(base["left"].data, out["left"].data)
        assert not np.array_equal(base["right"].data, out["right"].data)

    def test_sca_left_output_sensitive_to_right(self):
        tparams = tiny_translator(sca=True)
        src, tgt = scene_inputs(3)
        z = ad.constant(np.random.default_rng(0).standard_normal(tparams.z_channels))
        base, _ = translation.translate(src.images, src.disparities, tgt.images, z, tparams)
        perturbed_images = dict(src.images)
        perturbed_images["right"] = ad.constant(np.clip(src.images["right"].data + 0.1, 0, 1))
        out, _ = translation.translate(perturbed_images, src.disparities, tgt.images, z, tparams)
        assert not np.array_equal(base["left"].data, out["left"].data)

    def test_generate_wq_gradient_fd(self):
        tparams = tiny_translator(sca=True, seed=5)
        src, tgt = scene_inputs(4)
        z = ad.constant(np.random.default_rng(1).standard_normal(tparams.z_channels))
        wq = tparams.params["gen.sca1.wq"]

        def fn(_wq):
            images, _ = translation.translate(
                src.images, src.disparities, tgt.images, z, tparams
            )
            return [images["left"], images["right"]]

        err = check_gradients(
            fn, [wq], max_entries_per_input=8, rng=np.random.default_rng(2)
        )
        assert err <= 1e-5


class TestParameters:
    def test_no_bias_feeds_an_instance_norm(self):
        # such a bias adds a per-channel constant that the norm removes, so its gradient is zero
        tparams = tiny_translator(sca=True, seed=5)
        src, tgt = scene_inputs(4)
        z = ad.constant(np.random.default_rng(1).standard_normal(tparams.z_channels))
        images, _ = translation.translate(src.images, src.disparities, tgt.images, z, tparams)
        cotangent = ad.constant(np.random.default_rng(3).standard_normal((6, 16, 32)))
        ad.backward(ad.sum_all(ad.mul(ad.concat_channels([images["left"], images["right"]]), cotangent)))
        grads = {k: np.abs(p.grad_array()).max() for k, p in tparams.params.items() if k.endswith(".b")}
        assert {k for k, g in grads.items() if g < 1e-8 * max(grads.values())} == set()


def tiny_discriminator(seed, n_scales=2):
    return translation.DiscriminatorParams(np.random.default_rng(seed), base_channels=4, n_scales=n_scales)


class TestDiscriminator:
    def test_logit_shapes_follow_stride_formula(self):
        dparams = tiny_discriminator(0)
        img = ad.constant(np.random.default_rng(1).uniform(0, 1, (3, 16, 32)))
        weights = translation.spectral_weights(dparams.params, dparams.u)
        logits, hidden = translation.discriminate(img, weights, dparams.n_scales)
        assert logits[0].shape == (1, 4, 8)  # 16 -> 8 -> 4 via two stride-2 convs
        assert logits[1].shape == (1, 2, 4)  # half-size input
        assert len(hidden) == 2 and len(hidden[0]) == 2

    def test_deterministic(self):
        dparams = tiny_discriminator(0)
        img = ad.constant(np.random.default_rng(2).uniform(0, 1, (3, 8, 8)))
        run = lambda: translation.discriminate(
            img, translation.spectral_weights(dparams.params, dparams.u), dparams.n_scales
        )[0]
        for x, y in zip(run(), run()):
            assert np.array_equal(x.data, y.data)

    def test_effective_kernels_unit_spectral_norm(self):
        dparams = tiny_discriminator(3)
        for _ in range(100):
            dparams.power_iteration()
        weights = translation.spectral_weights(dparams.params, dparams.u)
        assert set(weights) == set(dparams.params)
        for name, p in dparams.params.items():
            if name in dparams.u:
                mat = weights[name].data.reshape(p.shape[0], -1)
                sigma = np.linalg.svd(mat, compute_uv=False)[0]  # oracle
                assert sigma <= 1.0 + 1e-3
            else:
                assert weights[name] is p  # biases pass through

    def test_detached_params_carry_no_grads(self):
        dparams = tiny_discriminator(5)
        det = translation.spectral_weights(translation.detach_params(dparams.params), dparams.u)
        img = ad.constant(np.random.default_rng(6).uniform(0, 1, (3, 8, 8)))
        logits, _ = translation.discriminate(img, det, dparams.n_scales)
        assert not logits[0].requires_grad

    def test_init_records_no_tape_op(self, monkeypatch):
        calls = []
        original = ad._result
        monkeypatch.setattr(ad, "_result", lambda *a: calls.append(1) or original(*a))
        tiny_discriminator(0)
        assert calls == []

    def test_shared_weights_gradient_matches_per_call_weights(self):
        # one normalized weight dict shared by all calls of a step must give
        # the gradient of normalizing the kernels anew in every call
        rng = np.random.default_rng(7)
        images = [ad.constant(rng.uniform(0, 1, (3, 8, 16))) for _ in range(6)]

        def kernel_grads(per_call):
            dparams = tiny_discriminator(8)
            dparams.power_iteration()
            shared = translation.spectral_weights(dparams.params, dparams.u)
            logits = []
            for img in images:
                if per_call:
                    weights = {}
                    for name, p in dparams.params.items():
                        u = dparams.u.get(name)
                        weights[name] = p if u is None else ad.spectral_normalize(p, u)
                else:
                    weights = shared
                logits.extend(translation.discriminate(img, weights, dparams.n_scales)[0])
            ad.backward(ad.add_n([ad.mean_all(ad.tanh(x)) for x in logits]))
            return {name: dparams.params[name].grad_array() for name in dparams.u}

        shared, reference = kernel_grads(False), kernel_grads(True)
        for name, g in reference.items():
            assert np.max(np.abs(shared[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


class TestCheckpointRoundTrip:
    def test_translator_checkpoint_bit_exact(self, tmp_path):
        from sca_stereo import checkpoint

        tparams = tiny_translator()
        path = tmp_path / "translator.ckpt"
        checkpoint.save_arrays(path, {k: p.data for k, p in tparams.params.items()})
        back = checkpoint.load_arrays(path)
        assert set(back) == set(tparams.params)
        for k, p in tparams.params.items():
            assert np.array_equal(back[k], p.data)
