import numpy as np
import pytest

from sca_stereo import autodiff as ad
from sca_stereo import fileio, geometry, synth, training
from sca_stereo.config import RunConfig
from sca_stereo.errors import FormatError

from oracles import (
    constant_predictor,
    lr_occlusion_oracle,
    render_oracle,
    sad_block_matcher,
    smooth_rows_oracle,
    visibility_oracle,
)

# (image_size, disparity_range, d_max_full) of the defaults and of two small configs, one with a half-integer d_min
_SIZES = [((16, 32), (2.0, 5.0), 6), ((32, 64), (2.5, 6.0), 8), ((64, 128), (2.0, 14.0), 16)]


class TestSceneSpec:
    def test_invalid_disparity_range(self):
        with pytest.raises(ValueError):
            synth.SceneSpec(seed=0, disparity_range=(0.0, 10.0))
        with pytest.raises(ValueError):
            synth.SceneSpec(seed=0, disparity_range=(5.0, 20.0))  # exceeds d_max_full

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            synth.SceneSpec(seed=0, domain_style="real")


class TestSmoothRows:
    def test_matches_row_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            values = rng.uniform(-1.0, 1.0, (3, 64, 150))
            assert np.array_equal(synth._smooth_rows(values), smooth_rows_oracle(values))

    @pytest.mark.parametrize("width, h", [(1, 4), (3, 1), (7, 2), (7, 9)])
    def test_other_widths_and_short_columns(self, width, h):
        values = np.random.default_rng(5).standard_normal((2, h, 6))
        assert np.array_equal(synth._smooth_rows(values, width), smooth_rows_oracle(values, width))


class TestGenerateScene:
    def test_deterministic(self):
        a = synth.generate_scene(synth.SceneSpec(seed=7))
        b = synth.generate_scene(synth.SceneSpec(seed=7))
        for v in ("left", "right"):
            assert np.array_equal(a.images[v].data, b.images[v].data)
            assert np.array_equal(a.disparities[v], b.disparities[v])

    def test_disparities_are_read_only_float64_maps_keyed_by_view(self):
        s = synth.generate_scene(synth.SceneSpec(seed=2, image_size=(16, 32)))
        assert set(s.disparities) == set(geometry.VIEWS)
        for d in s.disparities.values():
            assert type(d) is np.ndarray and d.dtype == np.float64 and d.shape == (16, 32)
            assert not d.flags.writeable

    def test_single_layer_constant_disparity(self):
        spec = synth.SceneSpec(seed=3, num_layers=1, image_size=(16, 48))
        s = synth.generate_scene(spec)
        d = s.disparities["left"]
        assert len(np.unique(d)) == 1
        assert np.array_equal(d, s.disparities["right"])
        disp = float(d[0, 0])
        offset = geometry.signed_offset(ad.constant(d), "left")
        warped = geometry.backward_warp(s.images["right"], offset).data
        cols = np.arange(48) - disp >= 0
        assert np.max(np.abs(warped - s.images["left"].data)[:, :, cols]) <= 1e-6

    def test_warp_reconstruction_invariant_100_seeds(self):
        worst = 0.0
        for seed in range(100):
            style = "target" if seed % 2 else "source"
            s = synth.generate_scene(synth.SceneSpec(seed=seed, domain_style=style))
            mask = geometry.occlusion_mask(s.disparities, "left")
            offset = geometry.signed_offset(ad.constant(s.disparities["left"]), "left")
            warped = geometry.backward_warp(s.images["right"], offset).data
            err = np.abs(warped - s.images["left"].data).max(axis=0)
            worst = max(worst, float((err * mask).max()))
        assert worst <= 1e-6

    def test_occlusion_mask_matches_visibility_oracle(self):
        for seed in range(30):
            s = synth.generate_scene(synth.SceneSpec(seed=seed, integer_disparities=True))
            for base in ("left", "right"):
                match = geometry.other_view(base)
                mask = geometry.occlusion_mask(s.disparities, base)
                oracle = visibility_oracle(s.disparities[base], s.disparities[match], base)
                assert np.array_equal(mask, oracle)

    def test_two_layer_occlusion_band(self):
        # hand-built: background d=2, full-height foreground strip d=10
        h, w = 8, 64
        dl = np.full((h, w), 2.0)
        dl[:, 40:56] = 10.0
        dr = np.full((h, w), 2.0)
        dr[:, 30:46] = 10.0  # shifted left by 10
        mask = geometry.occlusion_mask({"left": dl, "right": dr}, "left")
        oracle = lr_occlusion_oracle(dl, dr, "left")
        assert np.array_equal(mask, oracle)
        # the 8 background pixels left of the strip map into the foreground: occluded
        assert not np.any(mask[:, 32:40])
        assert np.all(mask[:, 40:56])
        assert np.all(mask[:, 2:32])

    def test_source_target_share_disparities_differ_photometrically(self):
        for seed in (1, 5, 9):
            src = synth.generate_scene(synth.SceneSpec(seed=seed, domain_style="source"))
            tgt = synth.generate_scene(synth.SceneSpec(seed=seed, domain_style="target"))
            for v in ("left", "right"):
                assert np.array_equal(src.disparities[v], tgt.disparities[v])
                assert not np.array_equal(src.images[v].data, tgt.images[v].data)

    def test_target_photometry_shifts_statistics(self):
        src = synth.generate_scene(synth.SceneSpec(seed=11, domain_style="source"))
        tgt = synth.generate_scene(synth.SceneSpec(seed=11, domain_style="target"))
        # gamma 1.4 darkens midtones; the blue channel gain partly compensates
        assert tgt.images["left"].data[0].mean() < src.images["left"].data[0].mean()

    @pytest.mark.parametrize("size, disparity_range, d_max_full", _SIZES)
    def test_window_renderer_matches_the_gather_oracle_bit_for_bit(self, size, disparity_range, d_max_full):
        specs = [
            synth.SceneSpec(seed, num_layers=1 + seed % 4, disparity_range=disparity_range, domain_style=domain,
                            image_size=size, d_max_full=d_max_full, integer_disparities=integer)
            for seed in range(4) for domain in synth.DOMAIN_STYLES for integer in (False, True)
        ]
        # a range that holds no multiple of 1/2 gives a scene without layers
        specs.append(synth.SceneSpec(5, disparity_range=(2.6, 2.9), image_size=size, d_max_full=d_max_full))
        for spec in specs:
            layers = synth._scene_layers(spec)
            sample = synth._render(layers, *size)
            images, disparities = render_oracle(layers, *size)
            for v in geometry.VIEWS:
                assert sample.images[v].data.tobytes() == images[v].tobytes()
                assert sample.disparities[v].tobytes() == disparities[v].tobytes()
            assert synth.generate_scene(spec).images["right"].data.tobytes() == images["right"].tobytes()

    @pytest.mark.parametrize(
        "d_min, d_max_scene, d_max_full",
        [(2.0, 5.0, 6), (2.0, 2.5, 3), (2.6, 2.9, 6), (2.0, 2.0, 16), (2.5, 3.0, 16), (2.0, 2.0, 3)],
    )
    def test_empty_grids_are_exactly_the_ranges_that_give_empty_scenes(self, d_min, d_max_scene, d_max_full):
        drawable = all(len(grid) for grid in synth.disparity_grids(d_min, d_max_scene, d_max_full).values())
        specs = (
            synth.SceneSpec(seed, disparity_range=(d_min, d_max_scene), image_size=(16, 32), d_max_full=d_max_full)
            for seed in range(40)
        )
        empty = [spec.seed for spec in specs if not np.all(synth.generate_scene(spec).disparities["left"] > 0)]
        assert (empty == []) == drawable, empty

    def test_disparities_are_multiples_of_a_half(self):
        ranges = [(2.0, 14.0), (2.5, 9.7), (1.3, 6.2), (3.7, 5.1)]
        for seed in range(200):
            domain = synth.DOMAIN_STYLES[seed % 2]
            spec = synth.SceneSpec(seed, disparity_range=ranges[seed % 4], domain_style=domain, image_size=(16, 32),
                                   integer_disparities=seed % 5 == 0)
            s = synth.generate_scene(spec)
            for d in s.disparities.values():
                assert np.array_equal(2 * d, np.round(2 * d))
            assert all(float(2 * layer.disparity).is_integer() for layer in synth._scene_layers(spec))

    def test_images_in_unit_range(self):
        for seed in (0, 1):
            s = synth.generate_scene(synth.SceneSpec(seed=seed, domain_style="target"))
            for v in ("left", "right"):
                assert s.images[v].data.min() >= 0.0
                assert s.images[v].data.max() <= 1.0


class TestReferences:
    def test_sad_block_matcher_is_exact_on_single_layer_interiors(self):
        d_max = 6
        for seed in range(20):
            for domain in synth.DOMAIN_STYLES:
                spec = synth.SceneSpec(seed, num_layers=1, disparity_range=(2.0, 5.0), domain_style=domain,
                                       image_size=(16, 48), d_max_full=d_max, integer_disparities=True)
                s = synth.generate_scene(spec)
                pred = sad_block_matcher(s.images["left"].data, s.images["right"].data, d_max)
                assert pred.shape == (16, 48)
                assert np.array_equal(pred[2:-2, d_max + 2 :], s.disparities["left"][2:-2, d_max + 2 :])

    def test_sad_block_matcher_excludes_candidates_outside_the_image(self):
        rng = np.random.default_rng(0)
        left, right = rng.uniform(size=(2, 3, 8, 12))
        pred = sad_block_matcher(left, right, 5)
        assert np.all(pred <= np.arange(12))

    def test_constant_predictor_epe_is_the_mean_distance_to_the_median(self, tmp_path):
        config = RunConfig(data_dir=str(tmp_path), image_height=16, image_width=32, d_max_full=8, d_max_scene=6.0,
                           n_source_train=6, n_source_val=3, n_target_train=1, n_target_test=1).validate()
        training.gen_data(config)
        train = training.load_split(config, "source_train")
        val = training.load_split(config, "source_val")
        pred = constant_predictor(train)
        median = np.median([s.disparities["left"] for s in train.samples])
        assert pred.shape == (16, 32) and np.all(pred == median)
        mean_epe = training.evaluate_samples(val, lambda s: pred)[1]["epe"]
        gt = np.stack([s.disparities["left"] for s in val.samples])
        assert mean_epe == pytest.approx(np.abs(gt - median).mean(), rel=1e-12)


class TestPfm:
    def test_round_trip_exact_at_float32(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((13, 9)).astype(np.float32).astype(np.float64)
        path = tmp_path / "map.pfm"
        fileio.write_pfm(ad.constant(values), path)
        back = fileio.read_pfm(path)
        assert np.array_equal(back, values)
        assert back.dtype == np.float64 and not back.flags.writeable

    def test_header_format(self, tmp_path):
        path = tmp_path / "map.pfm"
        fileio.write_pfm(np.zeros((2, 4)), path)  # H=2, W=4
        blob = path.read_bytes()
        assert blob.startswith(b"Pf\n4 2\n-1.0\n")

    def test_big_endian_fixture(self, tmp_path):
        values = np.array([[1.5, -2.25], [3.0, 0.125]], dtype=">f4")
        path = tmp_path / "big.pfm"
        with open(path, "wb") as f:
            f.write(b"Pf\n2 2\n1.0\n")
            f.write(values[::-1].tobytes())
        back = fileio.read_pfm(path)
        assert np.array_equal(back, values.astype(np.float64))

    @pytest.mark.parametrize("scale", [b"-1.0", b"1.0"])
    def test_decode_is_read_only_native_float32(self, tmp_path, scale):
        values = np.array([[1.5, -2.25, 4.0], [3.0, 0.125, 7.5]], dtype="<f4" if scale == b"-1.0" else ">f4")
        path = tmp_path / "map.pfm"
        path.write_bytes(b"Pf\n3 2\n" + scale + b"\n" + values[::-1].tobytes())
        decoded = fileio.decode_pfm(path)
        assert decoded.dtype == np.dtype(np.float32) and not decoded.flags.writeable
        assert np.array_equal(decoded, values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
        with pytest.raises(FormatError):
            fileio.read_pfm(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "short.pfm"
        path.write_bytes(b"Pf\n4 2\n-1.0\n" + b"\x00" * 10)
        with pytest.raises(FormatError) as exc_info:
            fileio.read_pfm(path)
        assert exc_info.value.offset == len(b"Pf\n4 2\n-1.0\n") + 10

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            fileio.write_pfm(np.array([[np.inf]]), tmp_path / "x.pfm")

    @pytest.mark.parametrize(
        "dims", [b"1_0 1", b"+2 1", b"2 -1", pytest.param(b"1" * 5000 + b" 1", id="past-int-digit-limit")]
    )
    def test_header_integers_are_ascii_digits(self, tmp_path, dims):
        # int() alone would read 1_0 as 10 and +2 as 2
        path = tmp_path / "dims.pfm"
        path.write_bytes(b"Pf\n" + dims + b"\n-1.0\n" + b"\x00" * 80)
        with pytest.raises(FormatError):
            fileio.read_pfm(path)

    @pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf", b"0.0", b"-1_0"])
    def test_scale_must_be_finite_nonzero_decimal(self, tmp_path, scale):
        path = tmp_path / "scale.pfm"
        path.write_bytes(b"Pf\n1 1\n" + scale + b"\n" + b"\x00" * 4)
        with pytest.raises(FormatError):
            fileio.read_pfm(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected_at_its_offset(self, tmp_path, value):
        header = b"Pf\n3 1\n-1.0\n"
        path = tmp_path / "payload.pfm"
        path.write_bytes(header + np.array([1.0, value, 2.0], dtype="<f4").tobytes())
        with pytest.raises(FormatError) as exc_info:
            fileio.read_pfm(path)
        assert exc_info.value.offset == len(header) + 4

    def test_trailing_bytes_rejected_at_their_offset(self, tmp_path):
        path = tmp_path / "map.pfm"
        fileio.write_pfm(np.ones((2, 3)), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"garbage!")
        with pytest.raises(FormatError, match="8 trailing bytes") as exc_info:
            fileio.decode_pfm(path)
        assert exc_info.value.offset == size


class TestPpm:
    def test_round_trip_error_bound(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (3, 6, 5))
        path = tmp_path / "img.ppm"
        fileio.write_ppm(ad.constant(img), path)
        back = fileio.read_ppm(path)
        assert np.max(np.abs(back.data - img)) <= 1.0 / 510.0 + 1e-12

    def test_black_white_preserved(self, tmp_path):
        img = np.zeros((3, 2, 2))
        img[:, 0, :] = 1.0
        path = tmp_path / "bw.ppm"
        fileio.write_ppm(img, path)
        back = fileio.read_ppm(path)
        assert np.array_equal(back.data, img)

    def test_fixture_bytes(self, tmp_path):
        # 1x2: top row mid-gray 0.5 -> 128 (round half up), bottom 0.2 -> 51
        img = np.zeros((3, 2, 1))
        img[:, 0, 0] = 0.5
        img[:, 1, 0] = 0.2
        path = tmp_path / "fix.ppm"
        fileio.write_ppm(img, path)
        assert path.read_bytes() == b"P6\n1 2\n255\n" + bytes([128] * 3 + [51] * 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, value):
        # a NaN pixel would otherwise be cast to an arbitrary byte
        img = np.full((3, 1, 2), 0.5)
        img[0, 0, 1] = value
        path = tmp_path / "x.ppm"
        with pytest.raises(ValueError, match="^write_ppm requires finite values$"):
            fileio.write_ppm(img, path)
        assert not path.exists()

    def test_decode_is_read_only_uint8(self, tmp_path):
        path = tmp_path / "fix.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
        decoded = fileio.decode_ppm(path)
        assert decoded.dtype == np.uint8 and not decoded.flags.writeable
        assert decoded.tolist() == [[[1, 4]], [[2, 5]], [[3, 6]]]

    def test_trailing_bytes_rejected_at_their_offset(self, tmp_path):
        path = tmp_path / "img.ppm"
        fileio.write_ppm(np.ones((3, 2, 3)), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"garbage!")
        with pytest.raises(FormatError, match="8 trailing bytes") as exc_info:
            fileio.decode_ppm(path)
        assert exc_info.value.offset == size

    @pytest.mark.parametrize("kind", ["ppm", "pfm"])
    def test_errors_name_the_file_and_offset(self, tmp_path, kind):
        path = tmp_path / f"short.{kind}"
        header = b"P6\n2 1\n255\n" if kind == "ppm" else b"Pf\n2 1\n-1.0\n"
        path.write_bytes(header + b"\x00")
        decode = fileio.decode_ppm if kind == "ppm" else fileio.decode_pfm
        with pytest.raises(FormatError) as exc_info:
            decode(path)
        assert exc_info.value.path == path and exc_info.value.offset == len(header) + 1
        assert str(exc_info.value).startswith(f"{path}: truncated {kind.upper()} payload")
        assert str(exc_info.value).endswith(f"(byte offset {len(header) + 1})")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            fileio.read_ppm(path)

    @pytest.mark.parametrize(
        "header",
        [
            b"1_0 1 255",
            b"+1 1 255",
            b"1 1 +255",
            b"1 1 2_55",
            b"0 1 255",
            pytest.param(b"1 1 " + b"2" * 5000, id="past-int-digit-limit"),
        ],
    )
    def test_header_integers_are_positive_ascii_digits(self, tmp_path, header):
        path = tmp_path / "header.ppm"
        path.write_bytes(b"P6\n" + header + b"\n" + b"\x00" * 30)
        with pytest.raises(FormatError):
            fileio.read_ppm(path)

    def test_written_sample_parses(self, tmp_path):
        s = synth.generate_scene(synth.SceneSpec(seed=2, image_size=(16, 32)))
        paths = synth.write_sample(s, tmp_path, "sample")
        back = synth.read_sample(tmp_path, {k: v for k, v in paths.items()})
        assert np.max(np.abs(back.images["left"].data - s.images["left"].data)) <= 1 / 510 + 1e-12
        assert np.array_equal(
            back.disparities["left"],
            s.disparities["left"].astype(np.float32).astype(np.float64),
        )


class TestManifest:
    def test_round_trip(self, tmp_path):
        rows = [
            {
                "sample_id": "0",
                "seed": "123",
                "domain": "source",
                "split": "source_train",
                "left_image": "a.ppm",
                "right_image": "b.ppm",
                "left_disp": "a.pfm",
                "right_disp": "b.pfm",
            }
        ]
        path = tmp_path / "manifest.csv"
        synth.write_manifest(rows, path)
        assert synth.read_manifest(path) == rows
