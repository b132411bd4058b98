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
from .errors import ParameterError, ShapeError
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


def _payload(raw: bytes, magic: bytes, ndim: int, dtype: str) -> np.ndarray:
    """The payload of raw, a whole file, as a read-only view, once its
    magic and length are checked."""
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
    return np.frombuffer(raw, dtype=dtype, count=count, offset=off).reshape(dims)


def _read(path, magic: bytes, ndim: int, dtype: str) -> np.ndarray:
    # a writable copy in native byte order
    data = _payload(Path(path).read_bytes(), magic, ndim, dtype)
    return data.astype(np.dtype(dtype).newbyteorder("="))


def write_matrix(path, A) -> None:
    _write(path, _MAGIC_MATRIX, np.asarray(A, dtype="<f8"), 2)


def read_matrix(path) -> np.ndarray:
    return _read(path, _MAGIC_MATRIX, 2, "<f8")


def write_bitmap(path, W) -> None:
    _write(path, _MAGIC_BITMAP, as_bitmap(W, np.uint8), 2)


def read_bitmap(path) -> np.ndarray:
    return as_bitmap(_read(path, _MAGIC_BITMAP, 2, "u1"), np.uint8)


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
    """Mask from either a descriptor file or an MLRB1 bitmap.

    A bitmap is read once and held as one read-only grid over the file's
    bytes, the pattern's cells and the mask's bitmap both. Its entries are
    checked by their maximum, which takes no array of the grid's size.
    """
    raw = Path(path).read_bytes()
    if raw[:5] != _MAGIC_BITMAP:
        return read_mask_descriptor(path)
    grid = _payload(raw, _MAGIC_BITMAP, 2, "u1")
    n = grid.shape[0]
    if n < 1:
        raise ParameterError(f"n={n} must be positive")
    if grid.shape != (n, n):
        raise ShapeError(f"mask shape {grid.shape} differs from the data's {(n, n)}")
    if grid.max() > 1:
        raise ParameterError("bitmap entries must be 0 or 1")
    return masks.held_mask(grid)


# ---------------------------------------------------------------------------
# partition dumps

# deletes every character of a plain index list, so nothing else is left
_INDEX_CHARS = str.maketrans("", "", "0123456789,")
# the same for the body of a partition dump: index lists, tabs and newlines
_BODY_CHARS = str.maketrans("", "", "0123456789,\t\n")


def _index_texts(ix: np.ndarray) -> list[str]:
    """Decimal text of each entry. Indices repeat, so over a dense range of
    values each text is made once, in a table the entries gather."""
    if not ix.size:
        return []
    lo, hi = int(ix.min()), int(ix.max())
    if hi - lo >= ix.size:
        return list(map(str, ix.tolist()))
    table = np.array(list(map(str, range(lo, hi + 1))), dtype=object)
    return table[ix - lo].tolist()


def _parse_indices(joined: str) -> np.ndarray:
    """The comma-separated integers of joined, as int64, read as int() reads
    them. Plain unsigned decimals with no empty entry parse in one numpy
    call, where one past the int64 range reads as the int64 maximum, which
    no index range admits; any other text goes through int(), which raises
    ValueError on a malformed entry."""
    if joined.translate(_INDEX_CHARS) or ",," in joined or "," in (joined[:1], joined[-1:]):
        return np.array(joined.split(","), dtype=np.int64)
    return np.fromstring(joined, dtype=np.int64, sep=",")


def write_partition(path, sample: protocols.PartitionSample) -> None:
    B = sample.boxes
    # header fields are tab-separated; source strings may contain spaces
    head = "\t".join(
        (
            f"source={sample.source}",
            f"n={sample.n}",
            f"order={sample.order}",
            f"rectangles={len(B)}",
            f"one_count={sample.one_count}",
        )
    )
    fields = []
    for ix, off in zip(B.index, B.offsets):
        texts, bounds = _index_texts(ix), off.tolist()
        fields.append([",".join(texts[i:j]) for i, j in zip(bounds, bounds[1:])])
    lines = [f"# {head}"]
    lines += map("\t".join, zip(map(str, B.labels.tolist()), *fields))
    Path(path).write_text("\n".join(lines) + "\n")


def _canonical_body(lines: list[str], order: int):
    """(labels, offsets, index) of a dump's body lines in the form
    write_partition writes them, read in one pass over the whole text:
    each line a label 0 or 1 and order index sets of plain decimals, with
    no blank line. None for any other body, which _body_by_line reads."""
    k = 1 + order
    body = "\n".join(lines)
    # only digits, commas, tabs and newlines, and every comma between digits
    if body.translate(_BODY_CHARS) or "," in (body[:1], body[-1:]) or any(
            pair in body for pair in (",,", ",\t", "\t,", ",\n", "\n,")):
        return None
    fields = body.replace("\n", "\t").split("\t")
    raw = np.frombuffer(body.encode(), dtype=np.uint8)
    ends = np.flatnonzero(raw < ord(","))  # the tabs and newlines
    # k fields a line: exactly every k-th field ends at a newline
    if len(fields) != k * len(lines) or not np.array_equal(
            raw[ends] == ord("\n"), np.arange(ends.size) % k == k - 1):
        return None
    starts = np.concatenate(([0], ends + 1))
    length = (np.append(ends, raw.size) - starts).reshape(-1, k)
    labels = np.frombuffer("".join(fields[::k]).encode(), dtype=np.uint8) - ord("0")
    if (length[:, 0] != 1).any() or (labels > 1).any():
        return None
    # entries per field: its commas, summed with the separator after it so
    # that no sum is empty, plus one unless it is empty
    commas = np.add.reduceat(np.append(raw == ord(","), False), starts, dtype=np.int64)
    sizes = commas.reshape(-1, k) + (length > 0)
    # as in _parse_indices, one past the int64 range reads as its maximum
    index = tuple(np.fromstring(",".join(filter(None, fields[a::k])), dtype=np.int64, sep=",")
                  for a in range(1, k))
    offsets = tuple(np.concatenate(([0], np.cumsum(sizes[:, a]))) for a in range(1, k))
    return labels, offsets, index


def _body_by_line(lines: list[str], order: int):
    """(labels, offsets, index) of a dump's body lines, read line by line:
    blank lines are skipped, each label and index is read as int() reads
    it, and a malformed line is a ParameterError that names it."""
    labels, rows = [], []  # rows: (line number, index-set texts)
    for ln, line in enumerate(lines, 2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 1 + order:
            raise ParameterError(f"partition dump line {ln}: expected {1 + order} fields")
        label = _parse(int, parts[0], f"label on line {ln}")
        if label not in (0, 1):
            raise ParameterError(f"partition dump line {ln}: label {label} is not 0 or 1")
        labels.append(label)
        rows.append((ln, parts[1:]))
    # each axis's index sets parse as one list; a malformed one is then
    # looked for line by line, to name its line
    index, offsets = [], []
    for a in range(order):
        texts = [parts[a] for _, parts in rows]
        joined = ",".join(t for t in texts if t)
        try:
            index.append(_parse_indices(joined))
        except ValueError:
            for ln, parts in rows:
                for part in parts:
                    _parse(_split_flat, part, f"index set on line {ln}")
            raise
        offsets.append(np.cumsum([0] + [t.count(",") + 1 if t else 0 for t in texts]))
    return np.array(labels, dtype=np.uint8), tuple(offsets), tuple(index)


def read_partition(path) -> protocols.PartitionSample:
    """A partition dump read back into Boxes; a dump without n, with an
    order other than 2 or 3, with a line that has not 1 + order fields,
    with a label other than 0 or 1, with an index outside 0..n-1, whose
    rectangles' cells do not add up to n^order, or whose header's
    rectangles or one_count differs from what was read is a ParameterError.
    A body as write_partition writes it is read in one pass over the text
    (_canonical_body); any other, and any malformed one, line by line."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ParameterError("partition dump missing its header line")
    header = dict(
        item.strip().split("=", 1)
        for item in lines[0][1:].split("\t")
        if "=" in item
    )
    if "n" not in header:
        raise ParameterError("partition dump header missing n")
    n = _parse(int, header["n"], "n")
    order = _parse(int, header.get("order", "2"), "order")
    if order not in (2, 3):
        raise ParameterError(f"partition dump order {order} is not 2 or 3")
    labels, offsets, index = _canonical_body(lines[1:], order) or _body_by_line(lines[1:], order)
    boxes = protocols.Boxes(labels, offsets, index)
    # one range check over all index sets, not one per rectangle, keeps reads fast
    for ix in index:
        if ix.size and (ix.min() < 0 or ix.max() >= n):
            raise ParameterError(f"partition dump has an index outside 0..{n - 1}")
    # a partition tiles the grid, so its cells add up to n^order; checking the
    # sum keeps the read linear in the rectangles
    cells = int(math.prod(boxes.sizes(a) for a in range(order)).sum())
    if cells != n**order:
        raise ParameterError(f"partition dump covers {cells} cells, not {n}^{order}")
    ones = int(np.count_nonzero(boxes.labels))
    for name, read in (("rectangles", len(boxes)), ("one_count", ones)):
        if name in header and _parse(int, header[name], name) != read:
            raise ParameterError(f"partition dump header says {name}={header[name]}, read {read}")
    return protocols.PartitionSample(boxes, n, header.get("source", "file"), ones, order=order)
