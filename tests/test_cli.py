import dataclasses
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from sca_stereo import autodiff as ad
from sca_stereo import checkpoint, fileio, geometry, gradcheck, synth, training, translation
from sca_stereo.cli import main
from sca_stereo.config import RunConfig, apply_overrides, load_config
from sca_stereo.errors import ConfigError, FormatError

import golden

FLOAT_FIELDS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]


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


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """Every stage run once on the tiny config: (base dir, config path, snapshot of its logs)."""
    base = tmp_path_factory.mktemp("pipeline")
    cfg_path = base / "run.cfg"
    cfg_path.write_text(tiny_config_text(base))
    return base, cfg_path, golden.run_pipeline(cfg_path)


def _drawn_adapt_ids(config: RunConfig) -> list[int]:
    """The sorted distinct source ids adapt's steps read: its stream draws every z, then per step source and target
    ids."""
    rng = training._rng(config, training._TAG_ADAPT)
    rng.standard_normal((config.n_source_train, config.z_channels))
    drawn = set()
    for _ in range(config.adapt_iters):
        drawn.update(rng.integers(0, config.n_source_train, size=config.adapt_batch).tolist())
        rng.integers(0, config.n_target_train, size=config.adapt_batch)
    return sorted(drawn)


class TestConfig:
    # configs that load but give scenes synth cannot draw, with the message each must be rejected with: another
    # check could reject the same file first
    UNDRAWABLE = {
        "image_height = 8\nimage_width = 32": "too small for num_layers 4",
        "image_height = 16\nimage_width = 16\nd_max_full = 8\nd_max_scene = 6.0": "too small for num_layers 4",
        "image_height = 16\nimage_width = 32\nd_max_full = 6\nd_min = 2.6\nd_max_scene = 2.9": "no layer disparity",
        "d_min = 2.0\nd_max_scene = 2.0": "no layer disparity",
    }

    def test_defaults_match_published_schedule(self, tiny_env, monkeypatch):
        # the betas are no keys: each stage's optimizer states, spied on through one iteration of every stage
        _, cfg_path = tiny_env
        config = load_config(cfg_path)
        config.pretrain_iters = config.translator_iters = config.adapt_iters = 1
        schedules = []

        class SpiedAdamState(ad.AdamState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                schedules.append((self.learning_rate, self.beta1, self.beta2))

        monkeypatch.setattr(training, "AdamState", SpiedAdamState)
        training.gen_data(config)
        matcher_ckpt = training.pretrain(config)
        translator_ckpt = training.train_translator(config)
        training.adapt(config, translator_ckpt, matcher_ckpt)
        # pretrain; the generator, then the discriminator; adapt
        assert schedules == [(1e-4, 0.9, 0.999), (1e-4, 0.0, 0.9), (4e-4, 0.0, 0.9), (1e-4, 0.9, 0.999)]
        defaults = RunConfig()
        assert (defaults.lambda_perc, defaults.lambda_feat, defaults.lambda_stereo) == (1.0, 1.0, 10.0)
        assert (defaults.lambda_disp, defaults.lambda_reproj) == (0.1, 1.0)

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

    def test_key_set_twice(self, tmp_path):
        # the later line would otherwise win without a word
        p = tmp_path / "twice.cfg"
        p.write_text("image_height = 16\n# the same key again\nimage_height = 32\n")
        with pytest.raises(ConfigError, match=r"^line 3: config key 'image_height' is already set on line 1$"):
            load_config(p)

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        p = tmp_path / "hash.cfg"
        p.write_text("data_dir = runs#1/data\n")
        assert load_config(p).data_dir == "runs#1/data"

    def test_hash_after_whitespace_or_at_line_start_is_a_comment(self, tmp_path):
        p = tmp_path / "comments.cfg"
        p.write_text("# note\nimage_height = 64  # rows\ndata_dir = runs\t#tab comment\n  # indented note\n")
        config = load_config(p)
        assert config.image_height == 64
        assert config.data_dir == "runs"

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
        [
            "pretrain_batch = 0",
            "translator_batch = -1",
            "adapt_batch = 0",
            "image_height = 60",
            "image_width = 100",
            "n_source_train = 0",
            "n_source_val = 0",
            "n_target_train = 0",
            "n_target_test = -1",
            "d_max_scene = 16",
            "image_width = 16",
            "image_width = 32\nd_max_full = 28\nd_max_scene = 5",
            "d_min = 0",
            "d_min = 14.5",
            "num_layers = 0",
            "val_interval = 0",
            "pretrain_iters = -1",
            "translator_iters = -1",
            "adapt_iters = -1",
            "pretrain_lr = 0",
            "translator_lr_g = -1e-4",
            "translator_lr_c = 0",
            "adapt_lr = nan",
            "lambda_perc = -1",
            "lambda_stereo = -0.5",
            "lambda_reproj = -1",
            "lambda_stereo = nan",
            "n_scales = 1",
            "base_channels = 0",
            "z_channels = 0",
            "matcher_channels = 0",
            "cloud_scale = 0",
            "image_height = 0",
            "image_height = -64",
            "image_width = 0",
            "image_width = -128",
            "master_seed = -1",
            *UNDRAWABLE,
        ],
    )
    def test_invalid_values_rejected_at_load(self, tmp_path, line):
        p = tmp_path / "bad.cfg"
        p.write_text(f"n_scales = 3\n{line}\n")
        with pytest.raises(ConfigError, match=self.UNDRAWABLE.get(line)):
            load_config(p)

    # the published Adam betas and the SSIM weight are constants now, not keys
    @pytest.mark.parametrize(
        "name",
        [f"{stage}_{beta}" for stage in ("pretrain", "translator", "adapt") for beta in ("beta1", "beta2")]
        + ["ssim_alpha"],
    )
    def test_removed_keys_fail_as_unknown(self, tmp_path, name):
        p = tmp_path / "removed.cfg"
        p.write_text(f"{name} = 0.5\n")
        with pytest.raises(ConfigError, match=f"^line 1: unknown config key '{name}'$"):
            load_config(p)
        assert name not in {f.name for f in dataclasses.fields(RunConfig)}

    def test_one_layer_fits_an_image_too_small_for_shapes(self, tmp_path):
        p = tmp_path / "small.cfg"
        p.write_text("num_layers = 1\nimage_height = 8\nimage_width = 32\nd_max_full = 6\nd_max_scene = 5\n")
        assert load_config(p).image_height == 8

    def test_float_fields_listed(self):
        assert {"pretrain_lr", "cloud_scale", "lambda_stereo", "lambda_reproj", "d_min"} <= set(FLOAT_FIELDS)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_floats_rejected(self, tmp_path, name, value):
        p = tmp_path / "bad.cfg"
        p.write_text(f"{name} = {value}\n")
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            load_config(p)
        config = RunConfig()
        setattr(config, name, float(value))
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            config.validate()

    def test_zero_iterations_accepted(self, tmp_path):
        p = tmp_path / "zero.cfg"
        p.write_text("pretrain_iters = 0\ntranslator_iters = 0\nadapt_iters = 0\n")
        config = load_config(p)
        assert (config.pretrain_iters, config.translator_iters, config.adapt_iters) == (0, 0, 0)

    def test_attention_range_checked_only_with_sca(self, tmp_path):
        p = tmp_path / "coarse.cfg"
        p.write_text("image_width = 32\nd_max_full = 28\nd_max_scene = 5\nsca_enabled = false\n")
        config = load_config(p)
        config.sca_enabled = True
        with pytest.raises(ConfigError):
            config.validate()

    def test_overrides_revalidate(self):
        config = RunConfig()
        config.image_height = 60
        with pytest.raises(ConfigError):
            apply_overrides(config, seed=1)
        with pytest.raises(ConfigError, match="^master_seed must be non-negative"):
            apply_overrides(RunConfig(), seed=-1)


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

    def test_header_lists_names_and_shapes(self, tmp_path):
        path = tmp_path / "net.ckpt"
        x, y = np.arange(6.0).reshape(2, 3), np.ones(4)
        checkpoint.save_arrays(path, {"x": x, "y": y, "s": np.array(3.25)})
        header = b"sca-ckpt 1\nx\t2,3\ny\t4\ns\t\n\n"
        assert path.read_bytes() == header + x.tobytes() + y.tobytes() + np.float64(3.25).tobytes()
        assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]  # no sidecar, no temp file

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "net.ckpt"
        checkpoint.save_arrays(path, {"x": np.zeros(8)})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            checkpoint.load_arrays(path)

    @staticmethod
    def _write_header(path, lines: str) -> None:
        """A checkpoint with header ``lines`` and a payload of 12 zeros."""
        path.write_bytes(checkpoint.MAGIC + lines.encode() + b"\n" + np.zeros(12).tobytes())

    @pytest.mark.parametrize(
        "shape",
        [
            "-1,3",
            "2,x",
            "2.5",
            "2,,3",
            "1_0",
            "012",  # not as the writer prints 12
            "\u0661\u0662",  # Arabic-Indic digits, which int() reads as 12
            # element counts past int64, and empty arrays with a dimension numpy cannot hold
            "9223372036854775807,2",
            "4611686018427387904,4",
            "0,9223372036854775807",
            "0,99999999999999999999",
            pytest.param("0," + "9" * 5000, id="past-int-digit-limit"),
        ],
    )
    def test_bad_shape_tokens_rejected(self, tmp_path, shape):
        path = tmp_path / "net.ckpt"
        self._write_header(path, f"x\t{shape}\n")
        with pytest.raises(FormatError):
            checkpoint.load_arrays(path)

    @pytest.mark.parametrize(
        "lines",
        ["x\t4\nx\t8\n", "x\t8\n"],  # repeated name; bytes left after the last array
        ids=["repeated", "trailing"],
    )
    def test_arrays_not_back_to_back_rejected(self, tmp_path, lines):
        path = tmp_path / "net.ckpt"
        self._write_header(path, lines)
        with pytest.raises(FormatError):
            checkpoint.load_arrays(path)

    @pytest.mark.parametrize(
        "blob",
        [
            b"sca-ckpt 1\n\xff\t12\n\n" + bytes(96),  # name not UTF-8
            b"sca-ckpt 1\nx\t12\n" + bytes(96),  # no empty line ends the header
            b"sca-ckpt 1\nx 12\n\n" + bytes(96),  # no tab
            b"sca-ckpt 2\nx\t12\n\n" + bytes(96),  # unknown version
        ],
        ids=["non-utf8-name", "unterminated-header", "no-tab", "version"],
    )
    def test_malformed_header_rejected(self, tmp_path, blob):
        path = tmp_path / "net.ckpt"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            checkpoint.load_arrays(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_at_its_offset(self, tmp_path, value):
        path = tmp_path / "net.ckpt"
        checkpoint.save_arrays(path, {"a": np.zeros(2), "head.b": np.arange(3.0)})
        blob = path.read_bytes()
        offset = len(blob) - 16  # the second value of head.b
        path.write_bytes(blob[:offset] + np.array([value], "<f8").tobytes() + blob[offset + 8 :])
        message = rf"^{re.escape(str(path))}: array 'head\.b' holds a non-finite value \(byte offset {offset}\)$"
        with pytest.raises(FormatError, match=message):
            checkpoint.load_arrays(path)

    def test_two_file_format_rejected(self, tmp_path):
        # the earlier layout: a bare payload, with name, shape and offset in a .manifest sidecar
        path = tmp_path / "net.ckpt"
        path.write_bytes(np.zeros(12).tobytes())
        (tmp_path / "net.ckpt.manifest").write_text("x\t12\t0\n")
        with pytest.raises(FormatError):
            checkpoint.load_arrays(path)

    @pytest.mark.parametrize("failure", ["unconvertible-array", "replace-fails", "non-finite-array"])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "net.ckpt"
        checkpoint.save_arrays(path, {"x": np.arange(4.0)})
        before = path.read_bytes()
        arrays = {"x": np.ones(4), "y": np.ones(3)}
        if failure == "unconvertible-array":
            arrays["y"] = "not a number"  # fails after the header and x are written
        elif failure == "non-finite-array":
            arrays["y"] = np.array([1.0, np.inf, 2.0])
        else:
            def refuse(src, dst):
                raise OSError("replace refused")

            monkeypatch.setattr(checkpoint.os, "replace", refuse)
        with pytest.raises((ValueError, OSError)):
            checkpoint.save_arrays(path, arrays)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]


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
        stored = synth.read_sample(base / "data", row)
        assert np.array_equal(
            stored.disparities["left"],
            regenerated.disparities["left"].astype(np.float32).astype(np.float64),
        )
        assert np.max(np.abs(stored.images["left"].data - regenerated.images["left"].data)) <= 1 / 510 + 1e-12

    def test_full_pipeline_smoke_and_determinism(self, tiny_pipeline):
        base, cfg_path, _ = tiny_pipeline
        # the translator stage keeps only the translator: nothing reads the discriminator back
        assert sorted(p.name for p in (base / "ckpt").iterdir()) == [
            "matcher.ckpt", "matcher_adapted.ckpt", "translator.ckpt"
        ]
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

        g_ckpt = base / "ckpt" / "translator.ckpt"
        assert g_ckpt.exists()
        tr_log = (base / "out" / "translator_loss.csv").read_bytes()
        assert len(tr_log.decode().splitlines()) == 1 + 3
        g_bytes = g_ckpt.read_bytes()
        assert main(["--config", str(cfg_path), "train-translator"]) == 0
        assert g_ckpt.read_bytes() == g_bytes
        assert (base / "out" / "translator_loss.csv").read_bytes() == tr_log

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

        eval_csv = (base / "out" / "evaluate_target_test.csv").read_text().splitlines()
        assert eval_csv[0] == "sample,epe,d1_all,bad1"
        assert len(eval_csv) == 1 + 3 + 1  # samples + aggregate row
        # aggregate equals the mean of the per-sample rows
        per_sample = [list(map(float, line.split(",")[1:])) for line in eval_csv[1:-1]]
        agg = list(map(float, eval_csv[-1].split(",")[1:]))
        assert agg[0] == pytest.approx(np.mean([r[0] for r in per_sample]), abs=1e-12)
        assert agg[1] == pytest.approx(np.mean([r[1] for r in per_sample]), abs=1e-12)
        assert agg[2] == pytest.approx(np.mean([r[2] for r in per_sample]), abs=1e-12)

        cons = (base / "out" / "consistency.csv").read_text().splitlines()
        assert cons[0] == "sample,consistency"
        assert len(cons) == 3
        from sca_stereo import fileio

        out_img = fileio.read_ppm(base / "out" / "translated" / "sample_00000_left.ppm")
        assert out_img.shape == (3, 16, 32)

    def test_tiny_pipeline_matches_golden_values(self, tiny_pipeline):
        expected = golden.load()
        reason = golden.version_mismatch(expected)
        if reason:
            pytest.skip(reason)
        run = tiny_pipeline[2]
        assert run["files"] == expected["files"], golden.describe(golden.drift(run["files"], expected["files"]))
        assert run["checkpoints"] == expected["checkpoints"]

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
        score = training.image_consistency(images, src.disparities)
        assert float(row["consistency"]) == pytest.approx(score, abs=0.02)

    @staticmethod
    def _pretrain_logs_until(tiny_env, monkeypatch, stop, name):
        """The lines of pretrain's log ``name`` after a 5-iteration run, and after one whose step ``stop`` raises.

        The stopped run's lines are read twice, as the step raises (what a killed run leaves) and after the stage
        returns; both reads must agree.
        """
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        config = load_config(cfg_path)
        config.pretrain_iters = 5
        training.pretrain(config)
        path = base / "out" / name
        full = path.read_text().splitlines(keepends=True)
        steps, at_stop = [], []
        original = training._descend

        def failing(*args):
            steps.append(1)
            if len(steps) == stop:
                at_stop.append(path.read_text())
                raise RuntimeError(f"stopped at iteration {stop}")
            original(*args)

        monkeypatch.setattr(training, "_descend", failing)
        with pytest.raises(RuntimeError, match=f"iteration {stop}"):
            training.pretrain(config)
        assert at_stop == [path.read_text()]
        return full, path.read_text().splitlines(keepends=True)

    def test_loss_log_keeps_finished_iterations_when_a_step_raises(self, tiny_env, monkeypatch):
        full, stopped = self._pretrain_logs_until(tiny_env, monkeypatch, 3, "pretrain_loss.csv")
        assert stopped == full[:3]

    def test_validation_log_keeps_finished_rows_when_a_step_raises(self, tiny_env, monkeypatch):
        full, stopped = self._pretrain_logs_until(tiny_env, monkeypatch, 5, "pretrain_val.csv")
        assert [line.split(",")[0] for line in full] == ["iteration", "2", "4", "5"]  # val_interval = 2
        assert stopped == full[:3]

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

    def test_translator_normalizes_each_kernel_once_per_step(self, tiny_env, monkeypatch):
        # 6 kernels, normalized once in the generator step and once in the
        # discriminator step, however many discriminate calls a batch makes
        _, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        calls = []
        original = ad.spectral_normalize
        monkeypatch.setattr(ad, "spectral_normalize", lambda *a, **k: calls.append(1) or original(*a, **k))
        counts = []
        for iters in (1, 2):
            config = load_config(cfg_path)
            config.translator_iters, config.translator_batch = iters, 2
            calls.clear()
            training.train_translator(config)
            counts.append(len(calls))
        assert counts[1] - counts[0] == 12

    def test_translator_advances_u_by_one_power_iteration_per_step(self, tiny_env, monkeypatch):
        # 10 warm-up steps, then one per discriminator step; u changes in no other way
        _, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        seen = []
        original = translation.DiscriminatorParams.power_iteration

        def recording(dparams):
            seen.append((dparams, dict(dparams.u), {name: dparams.params[name].data.copy() for name in dparams.u}))
            original(dparams)

        monkeypatch.setattr(translation.DiscriminatorParams, "power_iteration", recording)
        config = load_config(cfg_path)
        config.translator_iters = 3
        training.train_translator(config)
        dparams = seen[0][0]
        assert len(seen) == 10 + 3 and all(d is dparams for d, _, _ in seen)
        u = seen[0][1]
        for _, u_before, kernels in seen:
            assert all(np.array_equal(u_before[name], u[name]) for name in u)
            u = {name: ad.power_iteration(kernels[name], u[name]) for name in u}
        assert all(np.array_equal(dparams.u[name], u[name]) for name in u)

    def test_only_stereo_consistency_stages_build_occlusion_masks(self, tiny_env, monkeypatch):
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        main(["--config", str(cfg_path), "train-translator"])
        config = load_config(cfg_path)
        calls = []
        original = geometry.lr_mask  # every occlusion mask is built here, from a stereo loss or occlusion_mask
        monkeypatch.setattr(geometry, "lr_mask", lambda *a: calls.append(1) or original(*a))
        training.pretrain(config)
        training.adapt(config, base / "ckpt" / "translator.ckpt", base / "ckpt" / "matcher.ckpt")
        training.evaluate(config, base / "ckpt" / "matcher_adapted.ckpt", "target_test")
        assert calls == []
        training.translate_export(config, base / "ckpt" / "translator.ckpt", [0])
        assert len(calls) == 2  # both views of the one sample asked for

    def test_adapt_steps_hold_no_translation_of_the_pre_pass(self, tiny_env, monkeypatch):
        # adapt translates each drawn source sample once; nothing of the last translation may outlive that pass
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        config = load_config(cfg_path)
        tckpt = training._save_params(config, "translator.ckpt", training._init_translator(config).params)
        mckpt = training._save_params(config, "matcher.ckpt", training._init_matcher(config).params)
        translate, adam_step = translation.translate, training.adam_step
        features, alive_at_first_step = [], []

        class Features:  # stands in for the generator features translate returns
            pass

        def recording_translate(*args):
            fakes, _ = translate(*args)
            sentinel = Features()
            features.append(weakref.ref(sentinel))
            return fakes, sentinel

        def checking_adam_step(*args):
            if not alive_at_first_step:
                alive_at_first_step.append([ref() is not None for ref in features])
            adam_step(*args)

        monkeypatch.setattr(translation, "translate", recording_translate)
        monkeypatch.setattr(training, "adam_step", checking_adam_step)
        training.adapt(config, tckpt, mckpt)
        assert alive_at_first_step == [[False] * len(_drawn_adapt_ids(config))]

    @staticmethod
    def _adapt_translating(tiny_env, monkeypatch, **overrides):
        """Run adapt on random checkpoints; the source_train ids it translated, in call order, and whether the
        translator's parameters were still alive at each optimizer step."""
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        config = dataclasses.replace(load_config(cfg_path), **overrides)
        tckpt = training._save_params(config, "translator.ckpt", training._init_translator(config).params)
        mckpt = training._save_params(config, "matcher.ckpt", training._init_matcher(config).params)
        lefts = [sample.images["left"].data for sample in training.load_split(config, "source_train").samples]
        translate, load_translator, adam_step = translation.translate, training.load_translator, training.adam_step
        translated, translators, alive = [], [], []

        def recording_translate(images, *args):
            translated.append(next(k for k, left in enumerate(lefts) if np.array_equal(left, images["left"].data)))
            return translate(images, *args)

        def recording_load_translator(*args, **kwargs):
            tparams = load_translator(*args, **kwargs)
            translators.append(weakref.ref(tparams))
            return tparams

        def checking_adam_step(*args):
            alive.append(any(ref() is not None for ref in translators))
            adam_step(*args)

        monkeypatch.setattr(translation, "translate", recording_translate)
        monkeypatch.setattr(training, "load_translator", recording_load_translator)
        monkeypatch.setattr(training, "adam_step", checking_adam_step)
        training.adapt(config, tckpt, mckpt)
        return config, translated, alive

    def test_adapt_translates_each_drawn_source_sample_once(self, tiny_env, monkeypatch):
        config, translated, alive = self._adapt_translating(tiny_env, monkeypatch)
        drawn = _drawn_adapt_ids(config)
        assert len(drawn) < config.n_source_train  # so a run that translates every sample fails here
        assert translated == drawn
        assert alive == [False] * config.adapt_iters  # the translator is gone before the first step

    def test_adapt_without_iterations_translates_nothing(self, tiny_env, monkeypatch):
        config, translated, alive = self._adapt_translating(tiny_env, monkeypatch, adapt_iters=0)
        assert translated == [] and alive == []
        ckpt = Path(config.checkpoint_dir)
        assert (ckpt / "matcher_adapted.ckpt").read_bytes() == (ckpt / "matcher.ckpt").read_bytes()
        assert (Path(config.output_dir) / "adapt_loss.csv").read_text() == "iteration,disp,reproj,loss_e\n"

    def test_stages_draw_every_plan_before_their_first_step(self, tiny_env, monkeypatch):
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        config = load_config(cfg_path)
        fitting = []

        class Guarded:  # a stage's generator, which must not be read once its loop runs
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                assert not fitting, f"{fitting[-1]} reads rng.{name} inside _fit"
                return getattr(self._rng, name)

        rng, fit = training._rng, training._fit

        def marking_fit(config, log_name, *args):
            fitting.append(log_name)
            fit(config, log_name, *args)
            fitting.remove(log_name)

        monkeypatch.setattr(training, "_rng", lambda *args: Guarded(rng(*args)))
        monkeypatch.setattr(training, "_fit", marking_fit)
        mckpt = training.pretrain(config)
        tckpt = training.train_translator(config)
        training.adapt(config, tckpt, mckpt)
        assert fitting == []

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

    def test_loaded_sample_holds_only_images_and_disparities(self, tiny_env):
        _, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        config = load_config(cfg_path)
        split = training.load_split(config, "source_val")
        h, w = config.image_height, config.image_width
        assert _array_nbytes(split.stored[0]) == 2 * (3 * h * w) + 2 * (h * w * 4)
        assert _array_nbytes(split) == len(split) * 14 * h * w  # nothing else
        for stored in split.stored:
            for image in stored.images.values():
                assert image.dtype == np.uint8 and image.shape == (3, h, w)
                assert not image.flags.writeable
            for disparity in stored.disparities.values():
                assert disparity.dtype == np.float32 and disparity.shape == (h, w)
                assert not disparity.flags.writeable

    def test_dataset_of_another_size_is_config_error(self, tiny_env):
        _, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        config = load_config(cfg_path)
        config.image_height, config.image_width = 32, 64
        message = r"source_train/sample_00000_left\.ppm is 16x32, but the config asks for 32x64"
        with pytest.raises(ConfigError, match=message):
            training.load_split(config, "source_train")

    def test_disparity_map_of_another_size_is_config_error(self, tiny_env):
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        fileio.write_pfm(np.full((16, 31), 3.0), base / "data" / "source_val" / "sample_00001_right.pfm")
        with pytest.raises(ConfigError, match=r"source_val/sample_00001_right\.pfm is 16x31"):
            training.load_split(load_config(cfg_path), "source_val")

    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_nonpositive_disparity_is_config_error(self, tiny_env, bad):
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        path = base / "data" / "target_test" / "sample_00002_left.pfm"
        d = fileio.read_pfm(path).copy()
        d[5, 7] = bad
        fileio.write_pfm(d, path)
        message = r"target_test/sample_00002_left\.pfm holds a disparity that is not strictly positive"
        with pytest.raises(ConfigError, match=message):
            training.load_split(load_config(cfg_path), "target_test")

    def test_evaluate_with_oracle_predictor(self, tiny_env):
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        config = load_config(cfg_path)
        split = training.load_split(config, "source_val")
        rows, means = training.evaluate_samples(split, lambda s: s.disparities["left"])
        assert means == {"epe": 0.0, "d1_all": 0.0, "bad1": 0.0}
        assert len(rows) == 3


class TestLoadedSplit:
    def test_reads_equal_read_sample_and_the_file_bytes(self, tiny_env):
        base, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        config = load_config(cfg_path)
        h, w = config.image_height, config.image_width
        split = training.load_split(config, "source_train")
        rows = [r for r in synth.read_manifest(base / "data" / "manifest.csv") if r["split"] == "source_train"]
        assert len(split) == len(split.samples) == len(rows)
        for got, row in zip(split.samples, rows, strict=True):
            want = synth.read_sample(base / "data", row)
            assert set(got.disparities) == set(want.disparities) == set(geometry.VIEWS)
            for v in geometry.VIEWS:
                assert not got.disparities[v].flags.writeable and not want.disparities[v].flags.writeable
                # the files' payloads, decoded here without fileio: P6 rows of RGB bytes, PFM rows bottom-up
                ppm = (base / "data" / row[f"{v}_image"]).read_bytes()[-3 * h * w :]
                pfm = (base / "data" / row[f"{v}_disp"]).read_bytes()[-4 * h * w :]
                image = np.frombuffer(ppm, np.uint8).reshape(h, w, 3).transpose(2, 0, 1) / 255.0
                disparity = np.frombuffer(pfm, "<f4").reshape(h, w)[::-1].astype(np.float64)
                pairs = [
                    (got.images[v].data, want.images[v].data, image),
                    (got.disparities[v], want.disparities[v], disparity),
                ]
                for a, b, from_file in pairs:
                    assert a.dtype == b.dtype == np.float64
                    assert np.array_equal(a, b) and np.array_equal(a, from_file)

    def test_samples_index_like_a_list(self, tiny_env):
        _, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        split = training.load_split(load_config(cfg_path), "target_test")
        n = len(split)
        last, first = split.samples[-1], split.samples[-n]
        assert np.array_equal(last.images["right"].data, split.samples[n - 1].images["right"].data)
        assert np.array_equal(first.images["right"].data, split.samples[0].images["right"].data)
        assert np.array_equal(split.samples[np.int64(1)].images["left"].data, split.samples[1].images["left"].data)
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                split.samples[k]
        assert len(list(split.samples)) == n

    def test_each_read_is_fresh(self, tiny_env):
        _, cfg_path = tiny_env
        main(["--config", str(cfg_path), "gen-data"])
        split = training.load_split(load_config(cfg_path), "source_val")
        before = split.samples[0].images["left"].data.copy()
        written = split.samples[0]
        written.images["left"].data[...] = -1.0
        with pytest.raises(ValueError):
            written.disparities["left"][...] = -1.0
        again = split.samples[0]
        assert np.array_equal(again.images["left"].data, before)
        assert not np.shares_memory(again.disparities["left"], written.disparities["left"])
        assert not np.shares_memory(again.disparities["left"], split.stored[0].disparities["left"])

    def test_load_never_holds_the_split_in_float64(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        text = tiny_config_text(tmp_path)
        for old, new in [("image_height = 16", "image_height = 32"), ("image_width = 32", "image_width = 64"),
                         ("n_source_train = 6", "n_source_train = 16")]:
            text = text.replace(f"\n{old}\n", f"\n{new}\n")
        cfg_path.write_text(text)
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        config = load_config(cfg_path)
        h, w = config.image_height, config.image_width
        stored_bytes = config.n_source_train * 14 * h * w
        float64_sample = 2 * (3 * h * w * 8) + 2 * (h * w * 8)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            split = training.load_split(config, "source_train")
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(split) == 16
        assert peak < stored_bytes + 2 * float64_sample, (peak, stored_bytes, float64_sample)


def _array_nbytes(obj, seen=None):
    """Bytes of the distinct arrays reachable from ``obj`` through attributes, dicts, lists and tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif isinstance(obj, ad.Tensor):
        children = [getattr(obj, k) for k in type(obj).__slots__]
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        return 0
    return sum(_array_nbytes(c, seen) for c in children)


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["translate", "--translator-ckpt", "g.ckpt", "--sample-id", "0", "2"],
            ["--conf", "run.cfg", "gen-data"],
            ["evaluate", "--matcher-ckpt", "m.ckpt", "--spl", "target_test"],
        ],
    )
    def test_abbreviated_flags_rejected(self, argv):
        # each is a unique prefix of a real flag, which argparse accepts by default
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    def test_translate_needs_at_least_one_sample_id(self, tiny_env, capsys):
        base, cfg_path = tiny_env
        scores = base / "out" / "consistency.csv"
        scores.parent.mkdir()
        scores.write_text("sample,consistency\n0,1.0\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["--config", str(cfg_path), "translate", "--translator-ckpt", "g.ckpt", "--sample-ids"])
        assert exit_info.value.code == 2
        assert "--sample-ids" in capsys.readouterr().err
        assert scores.read_text() == "sample,consistency\n0,1.0\n"


class TestErrorMessages:
    """A bad config or a malformed file ends the command with one stderr line and status 2, as a bad flag does; a
    non-finite gradient ends it with one line and status 1."""

    @staticmethod
    def _fails_with(argv, capsys, *words, status=2):
        assert main(argv) == status
        captured = capsys.readouterr()
        assert captured.err.startswith("sca-stereo: error: ") and captured.err.count("\n") == 1
        assert all(word in captured.err for word in words), captured.err

    def test_negative_seed(self, capsys):
        self._fails_with(["--seed", "-1", "gen-data"], capsys, "master_seed must be non-negative, got -1")

    def test_bad_config_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("image_height = 0\n")
        self._fails_with(["--config", str(cfg_path), "gen-data"], capsys, "image_height")

    def test_malformed_pfm_reached_through_evaluate(self, tiny_env, capsys):
        base, cfg_path = tiny_env
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        config = load_config(cfg_path)
        ckpt = training._save_params(config, "matcher.ckpt", training._init_matcher(config).params)
        row = next(r for r in synth.read_manifest(base / "data" / "manifest.csv") if r["split"] == "target_test")
        (base / "data" / row["left_disp"]).write_bytes(b"Pf\n4 4\n-1.0\n")  # no payload
        capsys.readouterr()
        argv = ["--config", str(cfg_path), "evaluate", "--matcher-ckpt", str(ckpt), "--split", "target_test"]
        self._fails_with(argv, capsys, "truncated PFM payload", "(byte offset 12)", str(base / "data" / row["left_disp"]))

    def test_missing_dataset_file_reached_through_evaluate(self, tiny_env, capsys):
        base, cfg_path = tiny_env
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        config = load_config(cfg_path)
        ckpt = training._save_params(config, "matcher.ckpt", training._init_matcher(config).params)
        row = next(r for r in synth.read_manifest(base / "data" / "manifest.csv") if r["split"] == "target_train")
        (base / "data" / row["right_image"]).unlink()
        capsys.readouterr()
        argv = ["--config", str(cfg_path), "evaluate", "--matcher-ckpt", str(ckpt), "--split", "target_train"]
        self._fails_with(argv, capsys, str(base / "data" / row["right_image"]), "missing", "run gen-data again")

    def test_dataset_file_that_is_a_directory_reached_through_evaluate(self, tiny_env, capsys):
        base, cfg_path = tiny_env
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        config = load_config(cfg_path)
        ckpt = training._save_params(config, "matcher.ckpt", training._init_matcher(config).params)
        row = next(r for r in synth.read_manifest(base / "data" / "manifest.csv") if r["split"] == "target_test")
        path = base / "data" / row["left_image"]
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        argv = ["--config", str(cfg_path), "evaluate", "--matcher-ckpt", str(ckpt), "--split", "target_test"]
        self._fails_with(argv, capsys, str(path), "cannot be read")

    def test_checkpoint_with_a_non_finite_value_reached_through_evaluate(self, tiny_env, capsys):
        base, cfg_path = tiny_env
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        config = load_config(cfg_path)
        ckpt = training._save_params(config, "matcher.ckpt", training._init_matcher(config).params)
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:-8] + np.array([np.nan], "<f8").tobytes())  # the last array is matcher.feat2.b
        capsys.readouterr()
        argv = ["--config", str(cfg_path), "evaluate", "--matcher-ckpt", str(ckpt), "--split", "target_test"]
        offset = f"(byte offset {len(blob) - 8})"
        self._fails_with(argv, capsys, f"{ckpt}: array 'matcher.feat2.b' holds a non-finite value", offset)

    def test_non_finite_gradient_ends_the_stage_with_status_one(self, tiny_env, capsys, monkeypatch):
        """A failed run, not bad input: one error line, status 1, and the loss log keeps its finished rows."""
        base, cfg_path = tiny_env
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        calls = []
        original = training.collect_grads

        def poisoned(params):
            grads = original(params)
            calls.append(1)
            if len(calls) == 3:
                grads["matcher.feat1.w"][0, 0, 0, 0] = np.nan
            return grads

        monkeypatch.setattr(training, "collect_grads", poisoned)
        capsys.readouterr()
        argv = ["--config", str(cfg_path), "pretrain"]
        self._fails_with(argv, capsys, "non-finite gradient for parameter 'matcher.feat1.w'", status=1)
        rows = (base / "out" / "pretrain_loss.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["iteration", "1", "2"]
        assert not (base / "ckpt" / "matcher.ckpt").exists()

    def test_repeated_sample_id(self, tiny_env, capsys):
        base, cfg_path = tiny_env
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        config = load_config(cfg_path)
        ckpt = training._save_params(config, "translator.ckpt", training._init_translator(config).params)
        capsys.readouterr()
        argv = ["--config", str(cfg_path), "translate", "--translator-ckpt", str(ckpt), "--sample-ids", "1", "1", "0"]
        self._fails_with(argv, capsys, "sample id 1 is given more than once")
        assert not (base / "out").exists()

    # an empty path would silently name the working directory
    @pytest.mark.parametrize(
        "line, key",
        [("data_dir =", "data_dir"), ("output_dir = ", "output_dir"), ("checkpoint_dir = # c", "checkpoint_dir")],
    )
    def test_empty_path_in_config(self, tmp_path, capsys, line, key):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(line + "\n")
        self._fails_with(["--config", str(cfg_path), "gen-data"], capsys, f"{key} must be a non-empty path, got ''")
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_empty_out_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self._fails_with(["--out", "", "gen-data"], capsys, "output_dir must be a non-empty path, got ''")
        assert list(tmp_path.iterdir()) == []

    def test_config_that_is_a_directory(self, tmp_path, capsys):
        self._fails_with(["--config", str(tmp_path), "gen-data"], capsys, f"cannot read config file {tmp_path}")

    def test_config_that_is_not_text(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(b"\xff\xfe")
        self._fails_with(["--config", str(cfg_path), "gen-data"], capsys, f"cannot read config file {cfg_path}")

    def test_checkpoint_that_is_a_directory(self, tiny_env, capsys):
        base, cfg_path = tiny_env
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        capsys.readouterr()
        argv = ["--config", str(cfg_path), "evaluate", "--matcher-ckpt", str(base), "--split", "target_test"]
        self._fails_with(argv, capsys, "matcher checkpoint not found", f"no file at {base}")

    @staticmethod
    def _rewrite_manifest(base, edit):
        manifest = base / "data" / "manifest.csv"
        manifest.write_text(edit(manifest.read_text()))
        return manifest

    def test_manifest_without_a_column(self, tiny_env, capsys):
        base, cfg_path = tiny_env
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        k = synth.MANIFEST_FIELDS.index("left_disp")
        drop = lambda line: ",".join(line.split(",")[:k] + line.split(",")[k + 1 :])
        manifest = self._rewrite_manifest(base, lambda text: "".join(drop(l) + "\n" for l in text.splitlines()))
        capsys.readouterr()
        self._fails_with(["--config", str(cfg_path), "pretrain"], capsys, str(manifest), "manifest header", "(byte offset 0)")

    def test_manifest_cut_off_mid_row(self, tiny_env, capsys):
        base, cfg_path = tiny_env
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        text = (base / "data" / "manifest.csv").read_text()
        second = text.index("\n") + 1  # the first row starts here
        manifest = self._rewrite_manifest(base, lambda text: text[: second + 20])
        capsys.readouterr()
        self._fails_with(
            ["--config", str(cfg_path), "pretrain"], capsys, str(manifest), "manifest row 1", f"(byte offset {second})"
        )

    def test_manifest_that_is_not_text(self, tiny_env, capsys):
        base, cfg_path = tiny_env
        assert main(["--config", str(cfg_path), "gen-data"]) == 0
        manifest = base / "data" / "manifest.csv"
        manifest.write_bytes(manifest.read_bytes()[:40] + b"\xff\xfe")
        capsys.readouterr()
        self._fails_with(["--config", str(cfg_path), "pretrain"], capsys, str(manifest), "(byte offset 40)")

    def test_manifest_that_is_a_directory(self, tiny_env, capsys):
        base, cfg_path = tiny_env
        (base / "data" / "manifest.csv").mkdir(parents=True)
        self._fails_with(["--config", str(cfg_path), "pretrain"], capsys, "dataset manifest not found")


class TestGradcheckCommand:
    def test_reports_all_ops_and_exits_zero(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("ok") or l.startswith("FAIL")]
        ops = {l.split()[1] for l in lines}
        assert ops == set(gradcheck.CASES)
        assert len(ops) == 55
        assert len(lines) == 55 * 3
        assert all(l.startswith("ok") for l in lines)
