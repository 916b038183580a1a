from pathlib import Path

import numpy as np
import pytest

from sca_stereo import autodiff as ad
from sca_stereo import geometry, losses, matcher, synth, training, translation
from sca_stereo.config import load_config

from oracles import correlation_oracle, tape_arrays, tape_nbytes
from test_cli import tiny_config_text
from test_translation import scene_inputs, tiny_translator


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
        pred = matcher.predict_view(left, right, "right", m)
        manual = matcher.predict_disparity(
            ad.flip_horizontal(right), ad.flip_horizontal(left), m
        )
        assert np.array_equal(pred.data, manual.data[:, ::-1])

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

    def test_predict_disparity(self):
        rng = np.random.default_rng(0)
        mparams = matcher.MatcherParams(rng, channels=4, d_max=6)
        pair = {v: ad.constant(rng.random((3, 16, 32))) for v in ("left", "right")}
        pred = matcher.predict_disparity(pair["left"], pair["right"], mparams)
        assert tape_nbytes(ad.sum_all(pred)) <= 358_000  # measured 325_056

    def test_training_backpropagates_one_prediction_at_a_time(self, tmp_path, monkeypatch):
        # one prediction's loss: the predict_disparity pin plus one reprojection term's
        # share (measured 500_160 - 325_056 = 175_104: its warp's and SSIM's arrays)
        budget = 358_000 + 193_000
        (tmp_path / "run.cfg").write_text(tiny_config_text(tmp_path))
        config = load_config(tmp_path / "run.cfg")
        config.pretrain_iters, config.adapt_iters, config.adapt_batch = 2, 2, 2
        training.gen_data(config)
        training._save_params(config, "translator.ckpt", training._init_translator(config).params)
        tapes: list[list[int]] = [[]]  # backward calls between optimizer steps
        backward, adam_step = training.backward, training.adam_step

        def recording_backward(loss):
            tapes[-1].append(tape_nbytes(loss))
            backward(loss)

        def recording_adam_step(*args):
            tapes.append([])
            adam_step(*args)

        monkeypatch.setattr(training, "backward", recording_backward)
        monkeypatch.setattr(training, "adam_step", recording_adam_step)
        training.pretrain(config)
        pretrain_tapes = tapes[:-1]
        assert [len(t) for t in pretrain_tapes] == [config.pretrain_batch] * config.pretrain_iters
        ckpt = Path(config.checkpoint_dir)
        tapes[:] = [[]]
        training.adapt(config, ckpt / "translator.ckpt", ckpt / "matcher.ckpt")
        assert [len(t) for t in tapes[:-1]] == [4 * config.adapt_batch] * config.adapt_iters
        assert max(max(t) for t in pretrain_tapes + tapes[:-1]) <= budget

    def test_generator_loss_of_one_sample(self, tmp_path, monkeypatch):
        # the generator loss of one translator sample, as train_translator backpropagates it at any batch size
        (tmp_path / "run.cfg").write_text(tiny_config_text(tmp_path))
        config = load_config(tmp_path / "run.cfg")
        config.translator_iters = 2
        training.gen_data(config)
        tapes: list[list] = []  # backward calls between optimizer steps
        codes = []
        backward, adam_step, generate = training.backward, training.adam_step, translation.generate

        def recording_backward(loss):
            tapes[-1].append(tape_arrays(loss))
            backward(loss)

        def recording_adam_step(*args):
            tapes.append([])
            adam_step(*args)

        def recording_generate(z, *args):
            codes.append(z.data)
            return generate(z, *args)

        monkeypatch.setattr(training, "backward", recording_backward)
        monkeypatch.setattr(training, "adam_step", recording_adam_step)
        monkeypatch.setattr(translation, "generate", recording_generate)
        for batch in (1, 2):
            tapes[:], codes[:] = [[]], []
            config.translator_batch = batch
            training.train_translator(config)
            # per iteration: one backward per sample for the generator, then one for the discriminator
            assert [len(t) for t in tapes[:-1]] == [batch, 1] * config.translator_iters
            generator_tapes = [tape for step in tapes[:-1:2] for tape in step]
            assert len(codes) == len(generator_tapes)  # one generate per sample, in backward's order
            for tape, z in zip(generator_tapes, codes):
                assert sum(a.nbytes for a in tape) <= 957_000  # measured 869_920
                # no per-channel factor is saved as a broadcast [C,H,W] map; the one constant-per-channel map
                # is the generator's input, the broadcast code z, which the gen.from_z conv's kernel vjp reads
                constant_maps = [
                    a for a in tape if a.ndim == 3 and a.shape[1] * a.shape[2] > 1 and np.all(a == a[:, :1, :1])
                ]
                assert [a.shape[0] for a in constant_maps] == [len(z)]
                assert np.array_equal(constant_maps[0], np.broadcast_to(z[:, None, None], constant_maps[0].shape))


class TestStreamedSteps:
    """The training steps backpropagate one sample's term at a time; the one-graph step is the reference.

    The streamed terms are visited in the order backward walks the one graph,
    so the parameter gradients are not merely close but bit-equal.
    """

    @staticmethod
    def _setup(batch=2):
        rng = np.random.default_rng(3)
        mparams = matcher.MatcherParams(rng, channels=4, d_max=6)
        views = geometry.VIEWS
        pair = lambda: {v: ad.constant(rng.random((3, 16, 32))) for v in views}
        gt = lambda: {v: rng.uniform(2.0, 5.0, (16, 32)) for v in views}
        return mparams, [(pair(), gt(), pair()) for _ in range(batch)]

    @staticmethod
    def _one_graph_grads(loss, params):
        ad.zero_grads(params)
        ad.backward(loss)
        return {k: p.grad.copy() for k, p in params.items()}

    @staticmethod
    def _assert_streamed_grads_equal(params, expected):
        for k, p in params.items():
            np.testing.assert_array_equal(p.grad, expected[k], err_msg=k)

    def test_adapt_step_matches_one_graph(self):
        mparams, batch = self._setup()
        weights = losses.LossWeights(lambda_disp=0.3, lambda_reproj=0.7)
        both = lambda pair: {v: matcher.predict_view(pair["left"], pair["right"], v, mparams) for v in geometry.VIEWS}
        components = {
            "disp": ad.mean_n([losses.disparity_loss(both(fakes), gt) for fakes, gt, _ in batch]),
            "reproj": ad.mean_n([losses.reprojection_loss(tgt, both(tgt), weights.alpha) for _, _, tgt in batch]),
        }
        loss = losses.matcher_objective(components, weights)
        logged = [components["disp"].item(), components["reproj"].item(), loss.item()]
        expected = self._one_graph_grads(loss, mparams.params)
        state = ad.AdamState(mparams.params, 1e-3)
        assert [t.item() for t in training._adapt_step(batch, mparams, weights, state)] == logged
        self._assert_streamed_grads_equal(mparams.params, expected)

    def test_pretrain_step_matches_one_graph(self):
        mparams, batch = self._setup()
        samples = [synth.StereoSample(pair, gt) for pair, gt, _ in batch]
        terms = [
            losses.l1_disparity_loss(
                matcher.predict_disparity(s.images["left"], s.images["right"], mparams), s.disparities["left"]
            )
            for s in samples
        ]
        loss = ad.mean_n(terms)
        logged = loss.item()
        expected = self._one_graph_grads(loss, mparams.params)
        state = ad.AdamState(mparams.params, 1e-3)
        assert training._pretrain_step(samples, mparams, state).item() == logged
        self._assert_streamed_grads_equal(mparams.params, expected)

    def test_generator_step_matches_one_graph(self):
        rng = np.random.default_rng(4)
        tparams = tiny_translator()
        dparams = translation.DiscriminatorParams(rng, base_channels=4)
        weights = losses.LossWeights(lambda_perc=0.3, lambda_feat=0.7, lambda_stereo=1.3)
        batch = []
        for seed in (1, 2):
            src, tgt = scene_inputs(seed)
            batch.append((src, tgt, ad.constant(rng.standard_normal(4))))
        # the one-graph generator objective of the batch, as train_translator built it before it streamed
        det = translation.spectral_weights(translation.detach_params(dparams.params), dparams.u)
        terms: dict[str, list] = {"adv_g": [], "perc": [], "feat": [], "stereo": []}
        reference_fakes = []
        for src, tgt, z in batch:
            fakes, feats = translation.translate(src.images, src.disparities, tgt.images, z, tparams)
            reference_fakes.append({v: fakes[v].data for v in geometry.VIEWS})
            fake_logits, fake_hidden, real_hidden = {}, [], []
            for v in geometry.VIEWS:
                fake_logits[v], hidden = translation.discriminate(fakes[v], det, dparams.n_scales)
                fake_hidden.extend(hidden)
            for v in geometry.VIEWS:
                real_hidden.extend(translation.discriminate(tgt.images[v], det, dparams.n_scales)[1])
            terms["adv_g"].append(losses.adv_loss_generator(fake_logits))
            terms["perc"].append(ad.mean_n([losses.perceptual_loss(fakes[v], src.images[v]) for v in geometry.VIEWS]))
            terms["feat"].append(losses.feature_matching_loss(fake_hidden, real_hidden))
            terms["stereo"].append(losses.stereo_consistency_loss(feats, fakes, src.disparities))
        components = {name: ad.mean_n(t) for name, t in terms.items()}
        loss = losses.generator_objective(components, weights)
        logged = {name: t.item() for name, t in components.items()}
        expected = self._one_graph_grads(loss, tparams.params)
        state = ad.AdamState(tparams.params, 1e-3)
        streamed, fakes_of = training._generator_step(batch.__getitem__, len(batch), tparams, dparams, weights, state)
        assert {name: t.item() for name, t in streamed.items()} == logged
        self._assert_streamed_grads_equal(tparams.params, expected)
        for k, fakes in enumerate(reference_fakes):
            for v in geometry.VIEWS:
                assert fakes_of[k][v]._node is None
                np.testing.assert_array_equal(fakes_of[k][v].data, fakes[v])

    def test_validation_records_no_tape(self):
        mparams, batch = self._setup(batch=1)
        (pair, gt, _), = batch
        sample = synth.StereoSample(pair, gt)
        assert all(p.requires_grad for p in mparams.params.values())
        pred = training._left_disparity(mparams)(sample)
        assert pred._node is None
        taped = matcher.predict_disparity(pair["left"], pair["right"], mparams)
        np.testing.assert_array_equal(pred.data, taped.data)
