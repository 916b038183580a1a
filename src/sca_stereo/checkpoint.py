"""Single-file checkpoint: named float64 arrays behind a text header.

The file is the line ``sca-ckpt 1``, one ``name<TAB>shape`` line per array
(comma-separated dimensions, empty for a scalar), an empty line, then the
little-endian float64 payloads back to back in header order. Round-trips
are bit-exact, and every value is finite (the writer raises ``ValueError``
on any other). The reader accepts exactly what :func:`save_arrays` writes
(unique UTF-8 names, canonical decimal dimensions, finite values, no
trailing bytes) and raises :class:`FormatError` on anything else. A save
writes a temporary file beside the target and moves it over the target
with ``os.replace``, so a save that fails or is killed part way leaves the
previous checkpoint.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"sca-ckpt 1\n"


def save_arrays(path: Path, arrays: dict[str, np.ndarray]) -> None:
    path = Path(path)
    for name in arrays:
        if "\t" in name or "\n" in name:
            raise ValueError(f"array name {name!r} may not contain tabs or newlines")
    lines = "".join(f"{name}\t{','.join(map(str, np.shape(a)))}\n" for name, a in arrays.items())
    header = MAGIC + lines.encode() + b"\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(header)
            for name, a in arrays.items():
                payload = np.asarray(a, dtype="<f8", order="C")
                if not np.isfinite(payload).all():
                    raise ValueError(f"array {name!r} holds a non-finite value; a checkpoint holds finite values only")
                f.write(payload.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_arrays(path: Path) -> dict[str, np.ndarray]:
    blob = Path(path).read_bytes()
    end = blob.find(b"\n\n", len(MAGIC) - 1)  # the empty line that ends the header
    if not blob.startswith(MAGIC) or end < 0:
        raise FormatError(f"not a checkpoint: no {MAGIC!r} header ended by an empty line", 0)
    arrays: dict[str, np.ndarray] = {}
    line_pos, pos = len(MAGIC), end + 2
    for line in blob[line_pos : end + 1].split(b"\n")[:-1]:
        name_bytes, tab, shape_bytes = line.partition(b"\t")
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"array name {name_bytes!r} is not UTF-8", line_pos) from None
        tokens = shape_bytes.split(b",") if shape_bytes else []
        # canonical ASCII decimals, as the writer prints them; no real dimension reaches 10**18
        if not tab or not all(t.isdigit() and len(t) < 19 and str(int(t)).encode() == t for t in tokens):
            raise FormatError(f"header line {line!r} is not name<TAB>shape", line_pos)
        if name in arrays:
            raise FormatError(f"array {name!r} is listed twice", line_pos)
        shape = tuple(int(t) for t in tokens)
        stop = pos + 8 * math.prod(shape)  # Python ints: no overflow
        if stop > len(blob):
            raise FormatError(f"array {name!r} extends past end of checkpoint", pos)
        values = np.frombuffer(blob[pos:stop], dtype="<f8")
        finite = np.isfinite(values)
        if not finite.all():
            raise FormatError(f"array {name!r} holds a non-finite value", pos + 8 * int(np.argmin(finite)))
        try:
            arrays[name] = values.reshape(shape).copy()
        except ValueError:  # an empty array with a dimension numpy cannot index
            raise FormatError(f"array {name!r}: shape {shape} is too large", line_pos) from None
        line_pos, pos = line_pos + len(line) + 1, stop
    if pos != len(blob):
        raise FormatError(f"checkpoint has {len(blob) - pos} bytes after the last array", pos)
    return arrays
