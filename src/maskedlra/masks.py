"""Mask patterns and their rank budgets.

A mask is a binary array with n cells per axis: an n x n matrix W for the
order-2 patterns (diagonal, banded, ...) and an n x n x n cube for the
order-3 ones (Diagonal3, SparseFaces); Explicit takes either. Each pattern
class defines its pattern once: order is its number of axes, bitmap(n)
evaluates the defining predicate, budget(k, eps, n) is the rank k' that its
partition construction certifies, spec(n, eps) is the protocol of that
construction, and the dataclass fields are its descriptor fields. PATTERNS
maps each order-2 tag to its class.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

import numpy as np

from . import protocols  # used at call time only; protocols imports masks too
from .errors import ParameterError
from .linalg import as_bitmap


def _check_p(p: int, n: int) -> None:
    if not 1 <= p <= n:
        raise ParameterError(f"p={p} out of range for n={n}")


def _check_k_eps(k: int, eps: float) -> None:
    if k < 1:
        raise ParameterError(f"k={k} must be positive")
    if not 0 < eps <= 1:
        raise ParameterError(f"eps={eps} outside (0, 1]")


def _check_partition(blocks, n: int, field: str) -> None:
    seen = sorted(i for blk in blocks for i in blk)
    if seen != list(range(n)):
        raise ParameterError(f"{field} must partition 0..{n - 1}")
    if any(len(blk) == 0 for blk in blocks):
        raise ParameterError(f"{field} contains an empty block")


def block_index_map(blocks, n: int) -> np.ndarray:
    """Array mapping each index to the id of its block."""
    out = np.empty(n, dtype=np.int64)
    for b, blk in enumerate(blocks):
        out[list(blk)] = b
    return out


def split_index(n: int) -> int:
    """Side length s of the 2-d index split; n must be a perfect square."""
    s = math.isqrt(n)
    if s * s != n:
        raise ParameterError(f"n={n} is not a perfect square")
    return s


class _Pattern:
    """Base of the patterns: bitmap(n), budget(k, eps, n) with n None where
    the budget does not need it, and spec(n, eps); the last two are refused
    here."""

    tag = ""
    order = 2

    def budget(self, k: int, eps: float, n: int | None) -> int:
        raise ParameterError(f"no rank budget for {self.tag!r}: k' needs a drawn partition")

    def spec(self, n: int, eps: float) -> protocols.ProtocolSpec:
        raise ParameterError(f"no protocol construction for pattern {self.tag!r}")


@dataclass(frozen=True)
class AllOnes(_Pattern):
    tag = "all-ones"

    def bitmap(self, n):
        return np.ones((n, n), dtype=np.uint8)

    def budget(self, k, eps, n):
        return k


@dataclass(frozen=True)
class Diagonal(_Pattern):
    tag = "diagonal"

    def bitmap(self, n):
        return 1 - np.eye(n, dtype=np.uint8)

    def budget(self, k, eps, n):
        return k * math.ceil(1 / eps)

    def spec(self, n, eps):
        return protocols.equality_hash(n, eps)


@dataclass(frozen=True)
class BlockDiagonal(_Pattern):
    """Zeros exactly inside each diagonal block; blocks partition [n]."""

    blocks: tuple[tuple[int, ...], ...]
    tag = "block-diagonal"

    def bitmap(self, n):
        _check_partition(self.blocks, n, "blocks")
        blk = block_index_map(self.blocks, n)
        return (blk[:, None] != blk[None, :]).astype(np.uint8)

    def budget(self, k, eps, n):
        return k * math.ceil(1 / eps)

    def spec(self, n, eps):
        return protocols.equality_hash(n, eps, groups=block_index_map(self.blocks, n))


@dataclass(frozen=True)
class Sparse(_Pattern):
    """Row i is zero exactly on zero_sets[i], each of size <= t."""

    zero_sets: tuple[tuple[int, ...], ...]
    t: int
    tag = "sparse"

    def bitmap(self, n):
        if len(self.zero_sets) != n:
            raise ParameterError("zero_sets must have one entry per row")
        W = np.ones((n, n), dtype=np.uint8)
        for r, zs in enumerate(self.zero_sets):
            if len(zs) > self.t:
                raise ParameterError(f"row {r} has {len(zs)} zeros, t={self.t}")
            if any(not 0 <= c < n for c in zs):
                raise ParameterError(f"zero_sets[{r}] has an index outside 0..{n - 1}")
            W[r, list(zs)] = 0
        return W

    def budget(self, k, eps, n):
        return k * max(1, math.ceil(self.t / eps))

    def spec(self, n, eps):
        return protocols.sparse_set_eq(n, self.zero_sets, self.t, eps)


@dataclass(frozen=True)
class BlockSparse(_Pattern):
    """Sparse at block granularity: row-block a is zero on <= t column blocks."""

    row_blocks: tuple[tuple[int, ...], ...]
    col_blocks: tuple[tuple[int, ...], ...]
    block_zero_sets: tuple[tuple[int, ...], ...]
    t: int
    tag = "block-sparse"

    def bitmap(self, n):
        _check_partition(self.row_blocks, n, "row_blocks")
        _check_partition(self.col_blocks, n, "col_blocks")
        if len(self.block_zero_sets) != len(self.row_blocks):
            raise ParameterError("block_zero_sets must have one entry per row block")
        rb = block_index_map(self.row_blocks, n)
        cb = block_index_map(self.col_blocks, n)
        zero = np.zeros((len(self.row_blocks), len(self.col_blocks)), dtype=bool)
        for a, zs in enumerate(self.block_zero_sets):
            if len(zs) > self.t:
                raise ParameterError(f"row block {a} has {len(zs)} zeros, t={self.t}")
            if any(not 0 <= c < len(self.col_blocks) for c in zs):
                raise ParameterError(f"block_zero_sets[{a}] names a missing column block")
            zero[a, list(zs)] = True
        return (~zero[rb[:, None], cb[None, :]]).astype(np.uint8)

    def budget(self, k, eps, n):
        return k * max(1, math.ceil(self.t / eps))

    def spec(self, n, eps):
        rb = block_index_map(self.row_blocks, n)
        zero_sets = tuple(self.block_zero_sets[rb[i]] for i in range(n))
        cb = block_index_map(self.col_blocks, n)
        return protocols.sparse_set_eq(n, zero_sets, self.t, eps, col_groups=cb)


@dataclass(frozen=True)
class ToeplitzModP(_Pattern):
    p: int
    tag = "toeplitz-mod-p"

    def bitmap(self, n):
        _check_p(self.p, n)
        i, j = np.ogrid[:n, :n]
        return ((i - j) % self.p != 0).astype(np.uint8)

    def budget(self, k, eps, n):
        return min(k * self.p, k * math.ceil(1 / eps))

    def spec(self, n, eps):
        protocols._check_delta(eps)
        # hashed variant when it certifies fewer rectangles than residues
        if math.ceil(1 / eps) < self.p:
            return protocols.eq_mod_p(n, self.p, eps)
        return protocols.eq_mod_p(n, self.p)


@dataclass(frozen=True)
class Banded(_Pattern):
    p: int
    tag = "banded"

    def bitmap(self, n):
        _check_p(self.p, n)
        i, j = np.ogrid[:n, :n]
        return (np.abs(i - j) >= self.p).astype(np.uint8)

    def budget(self, k, eps, n):
        if n is None:
            raise ParameterError("banded budget needs n for the transcript cap")
        cap = protocols.transcript_cap(self.spec(n, eps))
        return min(k * math.ceil(self.p / eps), k * cap)

    def spec(self, n, eps):
        return protocols.banded_gt(n, self.p, eps)


@dataclass(frozen=True)
class Banded2D(_Pattern):
    """Zero iff the split indices are within L1 distance p.

    Index i maps to (i1, i2) by its high and low halves: i = i1*s + i2
    with s = sqrt(n), which splits the binary expansion in half whenever
    s is a power of two. Requires n to be a perfect square.
    """

    p: int
    tag = "banded-2d"

    def bitmap(self, n):
        s = split_index(n)
        _check_p(self.p, n)
        i, j = np.ogrid[:n, :n]
        d = np.abs(i // s - j // s) + np.abs(i % s - j % s)
        return (d >= self.p).astype(np.uint8)

    def budget(self, k, eps, n):
        if n is None:
            raise ParameterError("banded-2d budget needs n for the transcript cap")
        return k * protocols.transcript_cap(self.spec(n, eps))

    def spec(self, n, eps):
        return protocols.banded2d_gt(n, self.p, eps)


@dataclass(frozen=True)
class Monotone(_Pattern):
    """Row x is 1 on the first prefix_lengths[x] columns, 0 afterward."""

    prefix_lengths: tuple[int, ...]
    tag = "monotone"

    def bitmap(self, n):
        if len(self.prefix_lengths) != n:
            raise ParameterError("prefix_lengths must have one entry per row")
        px = np.asarray(self.prefix_lengths, dtype=np.int64)
        if px.min() < 0 or px.max() > n:
            raise ParameterError("prefix lengths must lie in 0..n")
        return (np.arange(n) < px[:, None]).astype(np.uint8)

    def budget(self, k, eps, n):
        return k * protocols.transcript_cap(self.spec(n, eps))

    def spec(self, n, eps):
        return protocols.monotone_gt(self.prefix_lengths, eps)


@dataclass(eq=False, frozen=True)
class Explicit(_Pattern):
    """A mask given cell by cell: cells is its (n, n) or (n, n, n) 0/1 array."""

    cells: np.ndarray
    tag = "explicit"

    @property
    def order(self):
        # cells of any other ndim fail bitmap's (n, n) shape check
        return 3 if np.ndim(self.cells) == 3 else 2

    def bitmap(self, n):
        # a copy, so that later writes to cells do not reach the mask
        return as_bitmap(self.cells, np.uint8, (n,) * self.order).copy()


@dataclass(frozen=True)
class Diagonal3(_Pattern):
    """Zero exactly where all three indices agree."""

    tag = "diagonal3"
    order = 3

    def bitmap(self, n):
        x = np.arange(n)
        eq = (x[:, None, None] == x[None, :, None]) & (x[:, None, None] == x[None, None, :])
        return (~eq).astype(np.uint8)


@dataclass(frozen=True)
class SparseFaces(_Pattern):
    """Face i1 is zero exactly on the listed (i2, i3) pairs, at most s each."""

    zero_sets: tuple[tuple[tuple[int, int], ...], ...]
    s: int
    tag = "sparse-faces"
    order = 3

    def bitmap(self, n):
        if len(self.zero_sets) != n:
            raise ParameterError("zero_sets must have one entry per face")
        bitmap = np.ones((n, n, n), dtype=np.uint8)
        for i1, zs in enumerate(self.zero_sets):
            if len(zs) > self.s:
                raise ParameterError(f"face {i1} has {len(zs)} zeros, s={self.s}")
            for (i2, i3) in zs:
                if not (0 <= i2 < n and 0 <= i3 < n):
                    raise ParameterError(f"face {i1} zero ({i2},{i3}) out of range")
                bitmap[i1, i2, i3] = 0
        return bitmap


_CLASSES = (
    AllOnes, Diagonal, BlockDiagonal, Sparse, BlockSparse,
    ToeplitzModP, Banded, Banded2D, Monotone, Explicit,
)
MaskPattern = typing.Union[_CLASSES + (Diagonal3, SparseFaces)]
PATTERNS = {cls.tag: cls for cls in _CLASSES}


@dataclass(frozen=True)
class ZeroCounts:
    """Zero cells per index of the first axis (rows) and the second (cols)."""

    rows: np.ndarray
    cols: np.ndarray

    @property
    def max_row(self) -> int:
        return int(self.rows.max()) if self.rows.size else 0

    @property
    def max_col(self) -> int:
        return int(self.cols.max()) if self.cols.size else 0


@dataclass(frozen=True)
class Mask:
    n: int
    pattern: MaskPattern
    bitmap: np.ndarray
    zero_counts: ZeroCounts

    @property
    def shape(self) -> tuple[int, ...]:
        return self.bitmap.shape


def make_mask(pattern: MaskPattern, n: int) -> Mask:
    """Evaluate the pattern's defining predicate at every cell."""
    if n < 1:
        raise ParameterError(f"n={n} must be positive")
    if not isinstance(pattern, _Pattern):
        raise ParameterError(f"unknown pattern {pattern!r}")
    bitmap = pattern.bitmap(n)
    zeros = (bitmap == 0)
    rest = tuple(range(2, bitmap.ndim))
    counts = ZeroCounts(zeros.sum(axis=(1,) + rest), zeros.sum(axis=(0,) + rest))
    return Mask(n, pattern, bitmap, counts)


def rank_budget(pattern: MaskPattern, k: int, eps: float, n: int | None = None) -> int:
    """Rank k' certified by the concrete partition construction for the pattern.

    k' is k times the number of 1-labeled rectangles the construction can
    produce: one per hash bucket for the equality families, one per residue
    for toeplitz-mod-p, and the declared transcript caps for the
    greater-than compositions (which need n).
    """
    _check_k_eps(k, eps)
    return pattern.budget(k, eps, n)
