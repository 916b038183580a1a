"""Fuzzed readers: any byte string either loads or raises FormatError.

Each case cuts a valid file at a drawn point and appends drawn bytes, so
every header prefix is followed by arbitrary input: raw binary, or tokens
the header grammar uses (tabs, newlines, digits, long digit runs). The
checkpoint reader also gets whole drawn header lines, ``name<TAB>dims``
with the dimensions drawn as small, leading-zero or 19-and-more-digit
runs, followed by a zero payload of a drawn length. An accepted file is
exactly what its reader parsed: a checkpoint is what the writer makes of
its arrays, and a PFM or PPM is its header and its payload, nothing more.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sca_stereo import checkpoint, fileio
from sca_stereo.errors import FormatError

_TOKENS = [b"\t", b"\n", b",", b" ", b"0", b"1", b"7", b"-", b".", b"x", b"\xff", b"9" * 20, b"9" * 5000]
_TAILS = st.one_of(
    st.binary(max_size=64),
    st.lists(st.sampled_from(_TOKENS), max_size=12).map(b"".join),
)
_DIMS = st.one_of(
    st.integers(0, 3).map(lambda d: str(d).encode()),
    st.integers(0, 3).map(lambda d: b"0" + str(d).encode()),
    # past the reader's 18-digit cap, and past int()'s 4300-digit limit
    st.one_of(st.integers(19, 24), st.integers(4301, 5000)).map(lambda n: b"1" * n),
)
_HEADER_LINES = st.one_of(
    st.just(b""),
    st.builds(
        lambda name, dims: name + b"\t" + b",".join(dims),
        st.sampled_from([b"a", b"b.w", b"\xff"]),
        st.lists(_DIMS, max_size=3),
    ),
)
_FUZZ = settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> dict[str, bytes]:
    """The bytes of one valid checkpoint, PFM and PPM, by file suffix."""
    base = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    checkpoint.save_arrays(base / "v.ckpt", {"a.w": rng.standard_normal((2, 3)), "s": np.array(1.5)})
    fileio.write_pfm(rng.uniform(0, 5, (3, 4)), base / "v.pfm")
    fileio.write_ppm(rng.uniform(0, 1, (3, 2, 3)), base / "v.ppm")
    return {kind: (base / f"v.{kind}").read_bytes() for kind in ("ckpt", "pfm", "ppm")}


def _cut_and_extend(data, valid: bytes) -> bytes:
    return valid[: data.draw(st.integers(0, len(valid)))] + data.draw(_TAILS)


def _load(read, path, blob: bytes):
    """``read(path)`` on ``blob``, or None if it raised FormatError; any other exception propagates."""
    path.write_bytes(blob)
    try:
        return read(path)
    except FormatError:
        return None


def _check_checkpoint(tmp_path, blob: bytes) -> None:
    arrays = _load(checkpoint.load_arrays, tmp_path / "f.ckpt", blob)
    if arrays is not None:  # an accepted file is exactly what the writer makes of its arrays
        checkpoint.save_arrays(tmp_path / "again.ckpt", arrays)
        assert (tmp_path / "again.ckpt").read_bytes() == blob


@_FUZZ
@given(data=st.data())
def test_checkpoint_reader(tmp_path, valid, data):
    _check_checkpoint(tmp_path, _cut_and_extend(data, valid["ckpt"]))


@_FUZZ
@given(lines=st.lists(_HEADER_LINES, max_size=4), n_values=st.integers(0, 4))
def test_checkpoint_header_lines(tmp_path, lines, n_values):
    _check_checkpoint(tmp_path, checkpoint.MAGIC + b"".join(l + b"\n" for l in lines) + b"\n" + bytes(8 * n_values))


def _header_length(blob: bytes) -> int:
    """Bytes up to and including the one whitespace byte after the fourth whitespace-separated token."""
    pos = 0
    for _ in range(4):
        while blob[pos : pos + 1].isspace():
            pos += 1
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
    return pos + 1


@_FUZZ
@given(data=st.data())
def test_pfm_reader(tmp_path, valid, data):
    blob = _cut_and_extend(data, valid["pfm"])
    image = _load(fileio.read_pfm, tmp_path / "f.pfm", blob)
    if image is not None:  # an accepted file is its header and its payload, nothing more
        assert image.ndim == 2 and np.all(np.isfinite(image.data))
        assert len(blob) == _header_length(blob) + 4 * image.size


@_FUZZ
@given(data=st.data())
def test_ppm_reader(tmp_path, valid, data):
    blob = _cut_and_extend(data, valid["ppm"])
    image = _load(fileio.read_ppm, tmp_path / "f.ppm", blob)
    if image is not None:
        assert image.shape[0] == 3 and 0.0 <= image.data.min() and image.data.max() <= 1.0
        assert len(blob) == _header_length(blob) + image.size
