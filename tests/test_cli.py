import numpy as np
import pytest

from sca_stereo import checkpoint, training
from sca_stereo.cli import main
from sca_stereo.config import RunConfig, apply_overrides, load_config
from sca_stereo.errors import ConfigError, FormatError


def tiny_config_text(base, seed=0, sca=True):
    return f"""
# tiny smoke configuration
data_dir = {base}/data
checkpoint_dir = {base}/ckpt
output_dir = {base}/out
master_seed = {seed}
image_height = 16
image_width = 32
d_max_full = 6
d_min = 2.0
d_max_scene = 5.0
base_channels = 4
matcher_channels = 4
z_channels = 4
n_source_train = 6
n_source_val = 3
n_target_train = 6
n_target_test = 3
pretrain_iters = 4
pretrain_batch = 2
translator_iters = 3
translator_batch = 1
adapt_iters = 3
adapt_batch = 1
val_interval = 2
sca_enabled = {"true" if sca else "false"}
"""


@pytest.fixture()
def tiny_env(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(tiny_config_text(tmp_path))
    return tmp_path, cfg_path


class TestConfig:
    def test_defaults_match_published_schedule(self):
        config = RunConfig()
        assert config.pretrain_lr == 1e-4
        assert (config.pretrain_beta1, config.pretrain_beta2) == (0.9, 0.999)
        assert config.translator_lr_g == 1e-4
        assert config.translator_lr_c == 4e-4
        assert (config.translator_beta1, config.translator_beta2) == (0.0, 0.9)
        assert config.adapt_lr == 1e-4
        weights = config.loss_weights()
        assert (weights.lambda_perc, weights.lambda_feat, weights.lambda_stereo) == (1.0, 1.0, 10.0)
        assert (weights.lambda_disp, weights.lambda_reproj) == (0.1, 1.0)
        assert weights.alpha == 0.85

    def test_parse_file(self, tiny_env):
        _, cfg_path = tiny_env
        config = load_config(cfg_path)
        assert config.image_height == 16
        assert config.n_source_train == 6
        assert config.sca_enabled is True

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("no_such_key = 1\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_bad_value(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("image_height = tall\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_overrides(self):
        config = RunConfig()
        apply_overrides(config, seed=7, no_sca=True, out="elsewhere")
        assert config.master_seed == 7
        assert config.sca_enabled is False
        assert config.output_dir == "elsewhere"

    @pytest.mark.parametrize(
        "line",
        ["pretrain_batch = 0", "translator_batch = -1", "adapt_batch = 0", "image_height = 60", "image_width = 100"],
    )
    def test_invalid_values_rejected_at_load(self, tmp_path, line):
        p = tmp_path / "bad.cfg"
        p.write_text(f"n_scales = 3\n{line}\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_overrides_revalidate(self):
        config = RunConfig()
        config.image_height = 60
        with pytest.raises(ConfigError):
            apply_overrides(config, seed=1)


class TestCheckpointContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "a.w": rng.standard_normal((3, 4)),
            "b.bias": rng.standard_normal(7),
            "scalar": np.array(3.25),
        }
        path = tmp_path / "net.ckpt"
        checkpoint.save_arrays(path, arrays)
        back = checkpoint.load_arrays(path)
        assert set(back) == set(arrays)
        for k in arrays:
            assert np.array_equal(back[k], arrays[k])
            assert back[k].shape == arrays[k].shape

    def test_manifest_lists_name_shape_offset(self, tmp_path):
        path = tmp_path / "net.ckpt"
        checkpoint.save_arrays(path, {"x": np.zeros((2, 3)), "y": np.ones(4)})
        lines = checkpoint.manifest_path(path).read_text().splitlines()
        assert lines[0] == "x\t2,3\t0"
        assert lines[1] == "y\t4\t48"

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "net.ckpt"
        checkpoint.save_arrays(path, {"x": np.zeros(8)})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            checkpoint.load_arrays(path)

    @pytest.mark.parametrize(
        "shape,offset",
        [("-1,3", "0"), ("2,x", "0"), ("2.5", "0"), ("2,,3", "0"), ("1_0", "0"), ("4", "-8"), ("4", "0x8")],
    )
    def test_bad_manifest_tokens_rejected(self, tmp_path, shape, offset):
        path = tmp_path / "net.ckpt"
        checkpoint.save_arrays(path, {"x": np.zeros(12)})
        checkpoint.manifest_path(path).write_text(f"x\t{shape}\t{offset}\n")
        with pytest.raises(FormatError):
            checkpoint.load_arrays(path)


class TestPipelineCommands:
    def test_gen_data_idempotent_and_counted(self, tiny_env):
        base, cfg_path = tiny_env
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        manifest = (base / "data" / "manifest.csv").read_bytes()
        rows = [r for r in manifest.decode().splitlines() if r]
        assert len(rows) == 1 + 6 + 3 + 6 + 3  # header + all splits
        sample_bytes = (base / "data" / "source_train" / "sample_00000_left.ppm").read_bytes()
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        assert (base / "data" / "manifest.csv").read_bytes() == manifest
        assert (base / "data" / "source_train" / "sample_00000_left.ppm").read_bytes() == sample_bytes

    def test_gen_data_spot_check_against_generator(self, tiny_env):
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        from sca_stereo import synth

        config = load_config(cfg_path)
        rows = synth.read_manifest(base / "data" / "manifest.csv")
        row = rows[0]
        spec = synth.SceneSpec(
            seed=int(row["seed"]),
            num_layers=config.num_layers,
            disparity_range=(config.d_min, config.d_max_scene),
            domain_style=row["domain"],
            image_size=(config.image_height, config.image_width),
            d_max_full=config.d_max_full,
        )
        regenerated = synth.generate_scene(spec)
        stored = synth.read_sample(
            base / "data", row, synth.default_rig(config.image_height, config.image_width)
        )
        assert np.array_equal(
            stored.disparities["left"].values.data,
            regenerated.disparities["left"].values.data.astype(np.float32).astype(np.float64),
        )
        assert np.max(np.abs(stored.images["left"].data - regenerated.images["left"].data)) <= 1 / 510 + 1e-12

    def test_full_pipeline_smoke_and_determinism(self, tiny_env):
        base, cfg_path = tiny_env
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        assert main(["--config", str(cfg_path), "pretrain"]) == 0
        matcher_ckpt = base / "ckpt" / "matcher.ckpt"
        assert matcher_ckpt.exists()
        loss_log = (base / "out" / "pretrain_loss.csv").read_bytes()
        val_log = (base / "out" / "pretrain_val.csv").read_bytes()
        assert len(loss_log.decode().splitlines()) == 1 + 4  # header + one row per iteration
        assert len(val_log.decode().splitlines()) == 1 + 2  # iterations 2 and 4
        ckpt_bytes = matcher_ckpt.read_bytes()

        # re-run: bit-identical logs and checkpoints
        assert main(["--config", str(cfg_path), "pretrain"]) == 0
        assert (base / "out" / "pretrain_loss.csv").read_bytes() == loss_log
        assert matcher_ckpt.read_bytes() == ckpt_bytes

        assert main(["--config", str(cfg_path), "train-translator"]) == 0
        g_ckpt = base / "ckpt" / "translator.ckpt"
        c_ckpt = base / "ckpt" / "discriminator.ckpt"
        assert g_ckpt.exists() and c_ckpt.exists()
        tr_log = (base / "out" / "translator_loss.csv").read_bytes()
        assert len(tr_log.decode().splitlines()) == 1 + 3
        g_bytes = g_ckpt.read_bytes()
        assert main(["--config", str(cfg_path), "train-translator"]) == 0
        assert g_ckpt.read_bytes() == g_bytes
        assert (base / "out" / "translator_loss.csv").read_bytes() == tr_log

        assert (
            main(
                [
                    "--config", str(cfg_path), "adapt",
                    "--translator-ckpt", str(g_ckpt),
                    "--matcher-ckpt", str(matcher_ckpt),
                ]
            )
            == 0
        )
        adapted = base / "ckpt" / "matcher_adapted.ckpt"
        assert adapted.exists()
        adapt_log = (base / "out" / "adapt_loss.csv").read_bytes()
        adapted_bytes = adapted.read_bytes()
        main(
            [
                "--config", str(cfg_path), "adapt",
                "--translator-ckpt", str(g_ckpt),
                "--matcher-ckpt", str(matcher_ckpt),
            ]
        )
        assert adapted.read_bytes() == adapted_bytes
        assert (base / "out" / "adapt_loss.csv").read_bytes() == adapt_log

        assert (
            main(
                [
                    "--config", str(cfg_path), "evaluate",
                    "--matcher-ckpt", str(adapted),
                    "--split", "target_test",
                ]
            )
            == 0
        )
        eval_csv = (base / "out" / "evaluate_target_test.csv").read_text().splitlines()
        assert eval_csv[0] == "sample,epe,d1_all"
        assert len(eval_csv) == 1 + 3 + 1  # samples + aggregate row
        # aggregate equals the mean of the per-sample rows
        per_sample = [list(map(float, line.split(",")[1:])) for line in eval_csv[1:-1]]
        agg = list(map(float, eval_csv[-1].split(",")[1:]))
        assert agg[0] == pytest.approx(np.mean([r[0] for r in per_sample]), abs=1e-12)
        assert agg[1] == pytest.approx(np.mean([r[1] for r in per_sample]), abs=1e-12)

        assert (
            main(
                [
                    "--config", str(cfg_path), "translate",
                    "--translator-ckpt", str(g_ckpt),
                    "--sample-ids", "0", "2",
                ]
            )
            == 0
        )
        cons = (base / "out" / "consistency.csv").read_text().splitlines()
        assert cons[0] == "sample,consistency"
        assert len(cons) == 3
        from sca_stereo import fileio

        out_img = fileio.read_ppm(base / "out" / "translated" / "sample_00000_left.ppm")
        assert out_img.shape == (3, 16, 32)

    def test_translate_consistency_matches_loss_module(self, tiny_env):
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        main(["--config", str(cfg_path), "train-translator"])
        g_ckpt = base / "ckpt" / "translator.ckpt"
        main(["--config", str(cfg_path), "translate", "--translator-ckpt", str(g_ckpt), "--sample-ids", "1"])
        import csv

        from sca_stereo import autodiff as ad
        from sca_stereo import fileio, geometry, losses

        config = load_config(cfg_path)
        with open(base / "out" / "consistency.csv") as f:
            row = next(iter(csv.DictReader(f)))
        source = training.load_split(config, "source_val")
        sid = int(row["sample"])
        images = {
            v: fileio.read_ppm(base / "out" / "translated" / f"sample_{sid:05d}_{v}.ppm")
            for v in ("left", "right")
        }
        src = source.samples[sid]
        # quantization moves each channel by <= 1/510; compare at that tolerance
        score = training.image_consistency(images, src.disparities, source.masks[sid])
        assert float(row["consistency"]) == pytest.approx(score, abs=0.02)

    def test_adapt_with_zero_weights_keeps_checkpoint(self, tiny_env, tmp_path):
        base, cfg_path = tiny_env
        text = tiny_config_text(base) + "lambda_disp = 0.0\nlambda_reproj = 0.0\n"
        cfg_zero = tmp_path / "zero.cfg"
        cfg_zero.write_text(text)
        main(["--config", str(cfg_zero), "gen-data"])
        main(["--config", str(cfg_zero), "pretrain"])
        main(["--config", str(cfg_zero), "train-translator"])
        matcher_ckpt = base / "ckpt" / "matcher.ckpt"
        before = matcher_ckpt.read_bytes()
        main(
            [
                "--config", str(cfg_zero), "adapt",
                "--translator-ckpt", str(base / "ckpt" / "translator.ckpt"),
                "--matcher-ckpt", str(matcher_ckpt),
            ]
        )
        adapted = (base / "ckpt" / "matcher_adapted.ckpt").read_bytes()
        assert adapted == before

    def test_no_sca_flag_changes_parameters(self, tiny_env):
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        main(["--config", str(cfg_path), "--no-sca", "train-translator"])
        arrays = checkpoint.load_arrays(base / "ckpt" / "translator.ckpt")
        assert not any(".wq" in k for k in arrays)

    def test_adapt_checkpoint_mismatch_is_config_error(self, tiny_env):
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        main(["--config", str(cfg_path), "pretrain"])
        main(["--config", str(cfg_path), "--no-sca", "train-translator"])
        config = apply_overrides(load_config(cfg_path))  # sca enabled
        with pytest.raises(ConfigError):
            training.adapt(
                config, base / "ckpt" / "translator.ckpt", base / "ckpt" / "matcher.ckpt"
            )

    def test_evaluate_missing_dataset(self, tmp_path):
        config = RunConfig(data_dir=str(tmp_path / "none"))
        with pytest.raises(ConfigError):
            training.load_split(config, "source_val")

    def test_unknown_split(self, tiny_env):
        base, cfg_path = tiny_env
        with pytest.raises(ConfigError):
            training.load_split(load_config(cfg_path), "val")

    def test_unknown_sample_id(self, tiny_env):
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        main(["--config", str(cfg_path), "train-translator"])
        with pytest.raises(ConfigError):
            training.translate_export(
                load_config(cfg_path), base / "ckpt" / "translator.ckpt", [99]
            )

    def test_evaluate_with_oracle_predictor(self, tiny_env):
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        config = load_config(cfg_path)
        split = training.load_split(config, "source_val")
        rows, mean_epe, mean_d1 = training.evaluate_samples(
            split, lambda s: s.disparities["left"].values
        )
        assert mean_epe == 0.0
        assert mean_d1 == 0.0
        assert len(rows) == 3


class TestGradcheckCommand:
    def test_reports_all_ops_and_exits_zero(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("ok") or l.startswith("FAIL")]
        ops = {l.split()[1] for l in lines}
        assert len(ops) >= 15
        assert all(l.startswith("ok") for l in lines)
