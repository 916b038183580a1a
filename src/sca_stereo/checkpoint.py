"""Flat binary checkpoint container: named float64 arrays + text manifest.

The binary file at ``path`` holds the raw little-endian float64 payloads
back to back; ``path.manifest`` lists one ``name<TAB>shape<TAB>offset`` line
per array. Round-trips are bit-exact. The reader accepts only that layout:
unique names, each array starting where the previous one ends (the first at
0), and the last ending at the end of the file.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import FormatError


def save_arrays(path: Path, arrays: dict[str, np.ndarray]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    offset = 0
    with open(path, "wb") as f:
        for name in arrays:
            if "\t" in name or "\n" in name:
                raise ValueError(f"array name {name!r} may not contain tabs or newlines")
            data = np.asarray(arrays[name], dtype="<f8", order="C")
            shape = ",".join(str(s) for s in data.shape)
            lines.append(f"{name}\t{shape}\t{offset}\n")
            f.write(data.tobytes())
            offset += data.nbytes
    with open(manifest_path(path), "w") as f:
        f.writelines(lines)


def load_arrays(path: Path) -> dict[str, np.ndarray]:
    path = Path(path)
    with open(path, "rb") as f:
        blob = f.read()
    arrays: dict[str, np.ndarray] = {}
    end = 0
    with open(manifest_path(path)) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"malformed manifest line: {line!r}", 0)
            name, shape_str, offset_str = parts
            shape_tokens = shape_str.split(",") if shape_str else []
            if not all(t.isdecimal() for t in shape_tokens + [offset_str]):
                raise FormatError(f"array {name!r}: shape and offset must be non-negative integers", 0)
            shape = tuple(int(t) for t in shape_tokens)
            offset = int(offset_str)
            if name in arrays:
                raise FormatError(f"array {name!r} is listed twice", offset)
            if offset != end:
                raise FormatError(f"array {name!r} must start where the previous array ends, at {end}", offset)
            end = offset + 8 * math.prod(shape)  # Python ints: no overflow
            if end > len(blob):
                raise FormatError(f"array {name!r} extends past end of checkpoint", offset)
            try:
                arrays[name] = np.frombuffer(blob[offset:end], dtype="<f8").reshape(shape).copy()
            except ValueError:  # an empty array with a dimension numpy cannot index
                raise FormatError(f"array {name!r}: shape {shape_str} is too large", offset) from None
    if end != len(blob):
        raise FormatError(f"checkpoint has {len(blob) - end} bytes after the last array", end)
    return arrays


def manifest_path(path: Path) -> Path:
    return Path(str(path) + ".manifest")
