"""Procedural two-domain stereo scenes with exact ground-truth disparity.

Scenes are stacks of textured fronto-parallel layers (a full-frame
background plus rectangles and ellipses) composited back to front in both
views. Layer textures are piecewise-linear in the horizontal direction with
knots at half-integer world coordinates; this makes the linear-interpolation
backward warp reproduce the other view exactly for integer *and* half-pixel
disparities, which is the dataset's ground-truth guarantee.

Layer disparities are separated by at least 2 px so every pixel whose warp
sample straddles two surfaces fails the left-right consistency check and is
excluded by the occlusion mask.

Every layer disparity is a multiple of 1/2 (an integer grid plus an optional
half shift) and pixel columns are integers, so within one view every pixel
of a layer sits at the same fraction between two texture knots: each view
renders a layer from one texture window with one interpolation weight.

The target domain applies gamma, per-channel gain and seeded Gaussian noise
to the layer textures before rendering: both views keep sampling one shared
texture, so cross-view consistency survives the photometric shift and the
ground-truth disparity maps of the two domains are bit-identical.

Each view's disparity map is a plain read-only float64 [H,W] array under
that view's key of :attr:`StereoSample.disparities`. On disk it is a float32
PFM, and :meth:`StoredSample.build` gives a fresh read-only float64 copy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import fileio, geometry
from .autodiff import Tensor
from .errors import FormatError
from .geometry import CameraRig

DOMAIN_STYLES = ("source", "target")

TARGET_GAMMA = 1.4
TARGET_CHANNEL_GAIN = (0.9, 1.0, 1.15)
TARGET_NOISE_SIGMA = 0.02

DEFAULT_RIG = dict(baseline_b=0.5, f_u=100.0, f_v=100.0)

_MIN_LAYER_SEPARATION = 2.0


@dataclass
class SceneSpec:
    """Procedural scene parameters; one spec fully determines one sample."""

    seed: int
    num_layers: int = 4
    disparity_range: tuple[float, float] = (2.0, 14.0)
    domain_style: str = "source"
    image_size: tuple[int, int] = (64, 128)
    d_max_full: int = 16
    integer_disparities: bool = False

    def __post_init__(self):
        d_min, d_max_scene = self.disparity_range
        if not 0 < d_min <= d_max_scene < self.d_max_full:
            raise ValueError(
                f"disparity_range must satisfy 0 < d_min <= d_max_scene < {self.d_max_full}, "
                f"got {self.disparity_range}"
            )
        if self.domain_style not in DOMAIN_STYLES:
            raise ValueError(f"domain_style must be one of {DOMAIN_STYLES}, got {self.domain_style!r}")
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be at least 1, got {self.num_layers}")


@dataclass
class StereoSample:
    """Rectified pair with a read-only float64 [H,W] ground-truth disparity under each view, and nothing else: the
    camera rig is :func:`default_rig` of the maps' size, and each view's occlusion mask a function of both maps."""

    images: dict[str, Tensor]
    disparities: dict[str, np.ndarray]


def default_rig(height: int, width: int) -> CameraRig:
    return CameraRig(c_u=(width - 1) / 2.0, c_v=(height - 1) / 2.0, **DEFAULT_RIG)


class _Layer:
    def __init__(self, kind, disparity, texture, pad, geom):
        self.kind = kind  # "background" | "rect" | "ellipse"
        self.disparity = disparity
        self.texture = texture  # [3, H, K] knot values at world x = t - pad + 0.5
        self.pad = pad
        self.geom = geom

    def covers(self, world_x: np.ndarray, rows: np.ndarray) -> np.ndarray | bool:
        if self.kind == "background":
            return True
        if self.kind == "rect":
            x0, x1, y0, y1 = self.geom
            return (world_x >= x0) & (world_x < x1) & (rows >= y0) & (rows < y1)
        cx, cy, rx, ry = self.geom
        return ((world_x - cx) / rx) ** 2 + ((rows - cy) / ry) ** 2 <= 1.0

    def window(self, shift: float, width: int) -> np.ndarray:
        """The [3,H,width] layer at world x = column + ``shift``: for a multiple of 1/2, two knot windows, one weight."""
        u = shift + self.pad - 0.5
        t0 = int(np.floor(u))
        a = self.texture[:, :, t0 : t0 + width]
        b = self.texture[:, :, t0 + 1 : t0 + 1 + width]
        return a + (u - t0) * (b - a)


def _smooth_rows(values: np.ndarray, width: int = 5) -> np.ndarray:
    """Running mean of a [C,H,K] array over the ``width`` rows centred on each row, edge rows repeated past the ends."""
    pad = width // 2
    padded = [np.zeros_like(values[:, :1]), values[:, :1].repeat(pad, 1), values, values[:, -1:].repeat(pad, 1)]
    csum = np.cumsum(np.concatenate(padded, axis=1), axis=1)
    return (csum[:, width:] - csum[:, :-width]) / width


def _make_texture(rng: np.random.Generator, h: int, knots: int) -> np.ndarray:
    base = rng.uniform(0.2, 0.8, size=(3, 1, 1))
    rough = rng.uniform(-1.0, 1.0, size=(3, h, knots))
    tex = base + 0.18 * _smooth_rows(rough) + 0.10 * rough
    return np.clip(tex, 0.02, 0.98)


def _compatible(d: float, chosen: list[float]) -> bool:
    # pairwise separation >= 2 keeps straddled samples LR-inconsistent; the
    # triple margin |d_b + d_c - 2 d_a| >= 2 keeps the *midpoint* of any two
    # straddled surfaces LR-inconsistent with every third surface, so no
    # half-pixel mixed sample can slip past the occlusion mask; b = 0 stands
    # for the zero contribution of out-of-image samples at the border
    for c in chosen:
        if abs(d - c) < _MIN_LAYER_SEPARATION:
            return False
    for b in chosen + [0.0]:
        for c in chosen:
            if b != c and abs(b + c - 2 * d) < _MIN_LAYER_SEPARATION:
                return False
        for a in chosen:
            if a != b and abs(d + b - 2 * a) < _MIN_LAYER_SEPARATION:
                return False
    return True


def _layer_disparities(rng: np.random.Generator, spec: SceneSpec) -> np.ndarray:
    d_min, d_max_scene = spec.disparity_range
    half_shift = (
        0.5
        if not spec.integer_disparities
        and d_max_scene + 0.5 < spec.d_max_full
        and rng.random() < 0.5
        else 0.0
    )
    grid = np.arange(np.ceil(d_min), np.floor(d_max_scene - half_shift) + 1e-9, 1.0) + half_shift
    chosen: list[float] = []
    for idx in rng.permutation(len(grid)):
        d = float(grid[idx])
        if _compatible(d, chosen):
            chosen.append(d)
        if len(chosen) == spec.num_layers:
            break
    # fewer layers than requested is fine; the background always exists
    return np.sort(np.asarray(chosen))


def generate_scene(spec: SceneSpec) -> StereoSample:
    """Render one deterministic stereo sample from its spec.

    Geometry and textures derive from ``spec.seed`` alone, so the source and
    target renderings of one seed share bit-identical disparity maps.
    """
    return _render(_scene_layers(spec), *spec.image_size)


def _scene_layers(spec: SceneSpec) -> list[_Layer]:
    """The spec's layers back to front (ascending disparity), the background first, textures in its domain's style."""
    h, w = spec.image_size
    rng = np.random.default_rng([spec.seed, 11])
    pad = int(np.ceil(spec.disparity_range[1])) + 2
    knots = w + 2 * pad + 2
    disparities = _layer_disparities(rng, spec)

    layers: list[_Layer] = []
    for idx, d in enumerate(disparities):
        tex = _make_texture(rng, h, knots)
        if idx == 0:
            layers.append(_Layer("background", d, tex, pad, None))
            continue
        if rng.random() < 0.5:
            x0 = rng.uniform(-5, w - 10)
            y0 = rng.uniform(-5, h - 8)
            geomdef = (x0, x0 + rng.uniform(10, w * 0.6), y0, y0 + rng.uniform(8, h * 0.6))
            layers.append(_Layer("rect", d, tex, pad, geomdef))
        else:
            cx = rng.uniform(5, w - 5)
            cy = rng.uniform(4, h - 4)
            geomdef = (cx, cy, rng.uniform(6, w * 0.25), rng.uniform(4, h * 0.25))
            layers.append(_Layer("ellipse", d, tex, pad, geomdef))

    if spec.domain_style == "target":
        noise_rng = np.random.default_rng([spec.seed, 22])
        for layer in layers:
            tex = np.power(layer.texture, TARGET_GAMMA) * np.asarray(TARGET_CHANNEL_GAIN)[:, None, None]
            layer.texture = np.clip(tex + noise_rng.normal(0.0, TARGET_NOISE_SIGMA, size=tex.shape), 0.0, 1.0)
    return layers


def _render(layers: list[_Layer], h: int, w: int) -> StereoSample:
    """Composite the layers back to front, each at world x = column (left view) or column + its disparity (right)."""
    cols = np.arange(w, dtype=np.float64)[None]
    rows = np.arange(h, dtype=np.float64)[:, None]
    images, disparity_maps = {}, {}
    for view in geometry.VIEWS:
        image = np.zeros((3, h, w), dtype=np.float64)
        dmap = np.zeros((h, w), dtype=np.float64)
        for layer in layers:
            shift = layer.disparity if view == "right" else 0.0
            mask = layer.covers(cols + shift, rows)
            np.copyto(image, layer.window(shift, w), where=mask)
            np.copyto(dmap, layer.disparity, where=mask)
        dmap.flags.writeable = False
        images[view], disparity_maps[view] = ad.constant(image), dmap
    return StereoSample(images, disparity_maps)


# ---------------------------------------------------------------------------
# dataset on disk
# ---------------------------------------------------------------------------

MANIFEST_FIELDS = ("sample_id", "seed", "domain", "split", "left_image", "right_image", "left_disp", "right_disp")


def write_sample(sample: StereoSample, directory: Path, stem: str) -> dict[str, str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "left_image": f"{stem}_left.ppm",
        "right_image": f"{stem}_right.ppm",
        "left_disp": f"{stem}_left.pfm",
        "right_disp": f"{stem}_right.pfm",
    }
    fileio.write_ppm(sample.images["left"], directory / paths["left_image"])
    fileio.write_ppm(sample.images["right"], directory / paths["right_image"])
    fileio.write_pfm(sample.disparities["left"], directory / paths["left_disp"])
    fileio.write_pfm(sample.disparities["right"], directory / paths["right_disp"])
    return paths


@dataclass
class StoredSample:
    """One sample in its files' dtypes: read-only uint8 [3,H,W] images and float32 [H,W] disparities per view."""

    images: dict[str, np.ndarray]
    disparities: dict[str, np.ndarray]

    def build(self) -> StereoSample:
        """The float64 sample, in fresh arrays on every call."""
        images = {v: fileio.ppm_tensor(image) for v, image in self.images.items()}
        disparities = {v: d.astype(np.float64) for v, d in self.disparities.items()}
        for d in disparities.values():
            d.flags.writeable = False
        return StereoSample(images, disparities)


def read_stored_sample(directory: Path, row: dict[str, str]) -> StoredSample:
    return StoredSample(
        {v: fileio.decode_ppm(directory / row[f"{v}_image"]) for v in geometry.VIEWS},
        {v: fileio.decode_pfm(directory / row[f"{v}_disp"]) for v in geometry.VIEWS},
    )


def read_sample(directory: Path, row: dict[str, str]) -> StereoSample:
    return read_stored_sample(directory, row).build()


def write_manifest(rows: list[dict[str, str]], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=MANIFEST_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def read_manifest(path: Path) -> list[dict[str, str]]:
    """The rows under a :data:`MANIFEST_FIELDS` header; another header, or a row without exactly those fields (as
    in a file cut off mid-row), is a :class:`FormatError` at the start of its line."""
    try:
        lines = Path(path).read_bytes().decode("utf-8").splitlines(keepends=True)
    except UnicodeDecodeError as err:
        raise FormatError("manifest is not UTF-8 text", err.start, path) from None
    reader = csv.DictReader(lines)

    def malformed(message: str) -> FormatError:
        return FormatError(message, len("".join(lines[: max(reader.line_num - 1, 0)]).encode()), path)

    if tuple(reader.fieldnames or ()) != MANIFEST_FIELDS:
        raise malformed(f"manifest header is {reader.fieldnames}, expected {list(MANIFEST_FIELDS)}")
    rows = []
    for row in reader:
        if None in row or None in row.values():  # DictReader's keys for extra fields and values for missing ones
            raise malformed(f"manifest row {len(rows) + 1} does not hold exactly the fields {list(MANIFEST_FIELDS)}")
        rows.append(row)
    return rows
