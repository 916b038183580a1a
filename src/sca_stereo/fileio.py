"""Bit-exact PFM (grayscale float) and PPM (binary 8-bit RGB) readers/writers."""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import FormatError, naming_the_file


def write_pfm(values: Tensor | np.ndarray, path) -> None:
    """Grayscale PFM: 'Pf', 'W H', scale '-1.0' (little-endian), rows bottom-up."""
    data = values.data if isinstance(values, Tensor) else np.asarray(values)
    if data.ndim != 2:
        raise ValueError(f"write_pfm expects an [H,W] map, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError("write_pfm requires finite values")
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"Pf\n{w} {h}\n-1.0\n".encode("ascii"))
        f.write(data[::-1].astype("<f4").tobytes())


def _next_token(blob: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(blob) and blob[pos : pos + 1].isspace():
        pos += 1
    if pos >= len(blob):
        raise FormatError("unexpected end of header", pos)
    start = pos
    while pos < len(blob) and not blob[pos : pos + 1].isspace():
        pos += 1
    return blob[start:pos], pos


def _header_int(tok: bytes, pos: int) -> int:
    """A header integer: plain ASCII digits only, so no sign, underscore or space.

    Past 18 digits no image fits in memory, and int() refuses past 4300.
    """
    if not tok.isdigit() or len(tok) > 18:
        raise FormatError(f"header integer must be at most 18 ASCII digits, got {tok[:20]!r}", pos)
    return int(tok)


def _check_no_trailing_bytes(blob: bytes, end: int, kind: str) -> None:
    if len(blob) > end:
        raise FormatError(f"{len(blob) - end} trailing bytes after the {kind} payload", end)


@naming_the_file
def decode_pfm(path) -> np.ndarray:
    """A grayscale PFM as its read-only float32 [H,W] map, top row first; the scale line's sign selects endianness."""
    with open(path, "rb") as f:
        blob = f.read()
    magic, pos = _next_token(blob, 0)
    if magic != b"Pf":
        raise FormatError(f"bad PFM magic {magic!r}, expected 'Pf'", 0)
    w_tok, pos = _next_token(blob, pos)
    h_tok, pos = _next_token(blob, pos)
    scale_tok, pos = _next_token(blob, pos)
    w, h = _header_int(w_tok, pos), _header_int(h_tok, pos)
    try:
        scale = float(scale_tok)
    except ValueError:
        raise FormatError("malformed PFM scale token", pos) from None
    if w <= 0 or h <= 0:
        raise FormatError(f"invalid PFM dimensions {w}x{h}", pos)
    if scale == 0.0 or not math.isfinite(scale) or b"_" in scale_tok:  # float() reads -1_0 as -10
        raise FormatError(f"PFM scale must be a finite nonzero decimal, got {scale_tok!r}", pos)
    pos += 1  # exactly one whitespace byte separates header and payload
    payload = blob[pos : pos + 4 * w * h]
    if len(payload) < 4 * w * h:
        raise FormatError(
            f"truncated PFM payload: expected {4 * w * h} bytes, got {len(payload)}",
            pos + len(payload),
        )
    _check_no_trailing_bytes(blob, pos + 4 * w * h, "PFM")
    dtype = "<f4" if scale < 0 else ">f4"
    data = np.frombuffer(payload, dtype=dtype)
    finite = np.isfinite(data)
    if not finite.all():
        raise FormatError("PFM payload holds a non-finite value", pos + 4 * int(np.argmin(finite)))
    values = data.astype(np.float32, copy=False).reshape(h, w)[::-1]  # a big-endian payload becomes a copy
    values.flags.writeable = False
    return values


def read_pfm(path) -> np.ndarray:
    """Read a grayscale PFM into a fresh read-only float64 [H,W] map."""
    values = decode_pfm(path).astype(np.float64)
    values.flags.writeable = False
    return values


def write_ppm(image: Tensor | np.ndarray, path) -> None:
    """Binary P6, maxval 255; [0,1] maps to bytes with round-half-up."""
    data = image.data if isinstance(image, Tensor) else np.asarray(image)
    if data.ndim != 3 or data.shape[0] != 3:
        raise ValueError(f"write_ppm expects a [3,H,W] image, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError("write_ppm requires finite values")
    _, h, w = data.shape
    quantized = np.clip(np.floor(data * 255.0 + 0.5), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(quantized.transpose(1, 2, 0).tobytes())


@naming_the_file
def decode_ppm(path) -> np.ndarray:
    """A binary P6 image as its read-only uint8 [3,H,W] array."""
    with open(path, "rb") as f:
        blob = f.read()
    magic, pos = _next_token(blob, 0)
    if magic != b"P6":
        raise FormatError(f"bad PPM magic {magic!r}, expected 'P6'", 0)
    w_tok, pos = _next_token(blob, pos)
    h_tok, pos = _next_token(blob, pos)
    maxval_tok, pos = _next_token(blob, pos)
    w, h, maxval = (_header_int(tok, pos) for tok in (w_tok, h_tok, maxval_tok))
    if w <= 0 or h <= 0:
        raise FormatError(f"invalid PPM dimensions {w}x{h}", pos)
    if maxval != 255:
        raise FormatError(f"unsupported PPM maxval {maxval}", pos)
    pos += 1
    payload = blob[pos : pos + 3 * w * h]
    if len(payload) < 3 * w * h:
        raise FormatError(
            f"truncated PPM payload: expected {3 * w * h} bytes, got {len(payload)}",
            pos + len(payload),
        )
    _check_no_trailing_bytes(blob, pos + 3 * w * h, "PPM")
    # copied to C order once here, so that converting it to a (C-order) tensor needs no transposing copy
    image = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3).transpose(2, 0, 1).copy()
    image.flags.writeable = False
    return image


def ppm_tensor(image: np.ndarray) -> Tensor:
    """A decoded PPM image as a float64 tensor with values in [0,1]."""
    return ad.constant(image.astype(np.float64) / 255.0)


def read_ppm(path) -> Tensor:
    """Read a binary P6 image into a float64 [3,H,W] tensor with values in [0,1]."""
    return ppm_tensor(decode_ppm(path))
