"""On-disk formats: matrices (MLRA1), binary masks (MLRB1), order-3 tensors
(MLRT1), key-value mask descriptors, and partition dumps.

All binary formats are little-endian: a 5-byte ASCII magic, unsigned 64-bit
dimensions, then the payload in row-major (lexicographic) order.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import typing
from pathlib import Path

import numpy as np

from . import masks, protocols
from .errors import ParameterError
from .linalg import as_bitmap

_MAGIC_MATRIX = b"MLRA1"
_MAGIC_BITMAP = b"MLRB1"
_MAGIC_TENSOR = b"MLRT1"


def _write(path, magic: bytes, array: np.ndarray, ndim: int) -> None:
    if array.ndim != ndim:
        raise ParameterError(f"{magic.decode()} stores {ndim}-d arrays, got ndim={array.ndim}")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack(f"<{ndim}Q", *array.shape))
        f.write(np.ascontiguousarray(array).tobytes())


def _read(path, magic: bytes, ndim: int, dtype: str) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:5] != magic:
        raise ParameterError(f"bad magic {raw[:5]!r}, expected {magic!r}")
    off = 5 + 8 * ndim
    if len(raw) < off:
        raise ParameterError(f"{magic.decode()} header truncated")
    dims = struct.unpack_from(f"<{ndim}Q", raw, 5)
    count = math.prod(dims)
    need = count * np.dtype(dtype).itemsize
    if len(raw) - off < need:
        raise ParameterError(
            f"payload truncated: need {need} bytes, have {len(raw) - off}"
        )
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=off)
    # a writable copy in native byte order
    return data.reshape(dims).astype(np.dtype(dtype).newbyteorder("="))


def write_matrix(path, A) -> None:
    _write(path, _MAGIC_MATRIX, np.asarray(A, dtype="<f8"), 2)


def read_matrix(path) -> np.ndarray:
    return _read(path, _MAGIC_MATRIX, 2, "<f8")


def write_bitmap(path, W) -> None:
    _write(path, _MAGIC_BITMAP, as_bitmap(W, np.uint8), 2)


def read_bitmap(path) -> np.ndarray:
    B = _read(path, _MAGIC_BITMAP, 2, "u1")
    if not np.isin(B, (0, 1)).all():
        raise ParameterError("MLRB1 payload must be 0/1 bytes")
    return B


def write_tensor(path, T) -> None:
    _write(path, _MAGIC_TENSOR, np.asarray(T, dtype="<f8"), 3)


def read_tensor(path) -> np.ndarray:
    return _read(path, _MAGIC_TENSOR, 3, "<f8")


# ---------------------------------------------------------------------------
# mask descriptors

def _parse(read, text: str, what: str):
    """read(text), with malformed text reported as a ParameterError."""
    try:
        return read(text)
    except ValueError:
        raise ParameterError(f"malformed {what}: {text!r}") from None


def _join_flat(values) -> str:
    return ",".join(map(str, values))


def _split_flat(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split(","))) if text else ()


def _join_nested(groups) -> str:
    return "|".join(_join_flat(g) for g in groups)


def _split_nested(text: str) -> tuple[tuple[int, ...], ...]:
    # every nested field has at least one group, so "" is one empty group
    return tuple(_split_flat(part) for part in text.split("|"))


# text codec (write, read) of a descriptor field, by its declared type
_CODECS = {
    int: (str, int),
    tuple[int, ...]: (_join_flat, _split_flat),
    tuple[tuple[int, ...], ...]: (_join_nested, _split_nested),
}


def _descriptor_fields(cls) -> list:
    """(name, (write, read)) per field of the pattern.

    Integer fields come first, the line order descriptor files have always had.
    """
    hints = typing.get_type_hints(cls)
    names = sorted((f.name for f in dataclasses.fields(cls)), key=lambda f: hints[f] is not int)
    if any(hints[f] not in _CODECS for f in names):
        raise ParameterError(f"{cls.tag} masks serialize as MLRB1 bitmaps, not descriptors")
    return [(f, _CODECS[hints[f]]) for f in names]


def write_mask_descriptor(path, mask: masks.Mask) -> None:
    p = mask.pattern
    lines = [f"pattern = {p.tag}", f"n = {mask.n}"]
    for name, (write, _) in _descriptor_fields(type(p)):
        lines.append(f"{name} = {write(getattr(p, name))}")
    Path(path).write_text("\n".join(lines) + "\n")


def parse_kv(text: str) -> dict[str, str]:
    """Parse 'key = value' lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {ln}: expected 'key = value'")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def read_mask_descriptor(path) -> masks.Mask:
    kv = parse_kv(Path(path).read_text())
    try:
        tag = kv["pattern"]
        n = _parse(int, kv["n"], "n")
    except KeyError as missing:
        raise ParameterError(f"descriptor missing {missing}")
    if tag not in masks.PATTERNS:
        raise ParameterError(f"unknown pattern tag {tag!r}")
    cls = masks.PATTERNS[tag]
    try:
        fields = {
            name: _parse(read, kv[name], name) for name, (_, read) in _descriptor_fields(cls)
        }
    except KeyError as missing:
        raise ParameterError(f"descriptor missing {missing}")
    return masks.make_mask(cls(**fields), n)


def load_mask(path) -> masks.Mask:
    """Mask from either a descriptor file or an MLRB1 bitmap."""
    raw = Path(path).read_bytes()
    if raw[:5] == _MAGIC_BITMAP:
        bitmap = read_bitmap(path)
        return masks.make_mask(masks.Explicit(bitmap), bitmap.shape[0])
    return read_mask_descriptor(path)


# ---------------------------------------------------------------------------
# partition dumps

def write_partition(path, sample: protocols.PartitionSample) -> None:
    # header fields are tab-separated; source strings may contain spaces
    head = "\t".join(
        (
            f"source={sample.source}",
            f"n={sample.n}",
            f"order={sample.order}",
            f"rectangles={len(sample.rectangles)}",
            f"one_count={sample.one_count}",
        )
    )
    lines = [f"# {head}"]
    for r in sample.rectangles:
        cols = [str(r.label), _join_flat(r.row_set), _join_flat(r.col_set)]
        if r.depth_set is not None:
            cols.append(_join_flat(r.depth_set))
        lines.append("\t".join(cols))
    Path(path).write_text("\n".join(lines) + "\n")


def read_partition(path) -> protocols.PartitionSample:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ParameterError("partition dump missing its header line")
    header = dict(
        item.strip().split("=", 1)
        for item in lines[0][1:].split("\t")
        if "=" in item
    )
    rects = []
    for ln, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise ParameterError(f"partition dump line {ln}: expected 3 or 4 tab-separated fields")
        label = _parse(int, parts[0], f"label on line {ln}")
        sets = [
            np.array(_parse(_split_flat, part, f"index set on line {ln}"), dtype=np.int64)
            for part in parts[1:]
        ]
        depth = sets[2] if len(sets) == 3 else None
        rects.append(protocols.Rectangle(sets[0], sets[1], label, depth))
    ones = sum(1 for r in rects if r.label == 1)
    return protocols.PartitionSample(
        rects,
        _parse(int, header.get("n", "0"), "n"),
        header.get("source", "file"),
        ones,
        order=_parse(int, header.get("order", "2"), "order"),
    )
