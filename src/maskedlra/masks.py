"""Mask patterns and their rank budgets.

A mask is a binary array with n cells per axis: an n x n matrix W for the
order-2 patterns (diagonal, banded, ...) and an n x n x n cube for the
order-3 ones (Diagonal3, SparseFaces); Explicit takes either. Each pattern
class defines its pattern once: order is its number of axes, bitmap(n) is
its mask, budget(k, eps, n) is the rank k' that its partition construction
certifies, spec(n, eps) is the protocol of that construction (Diagonal3's
is the three-party neq3-multiparty; all-ones, explicit and sparse-faces
masks have none), and the dataclass fields are its descriptor fields. A
pattern with a protocol writes no predicate: its mask is that protocol's
decision run unhashed (protocols.target_bitmap). PATTERNS maps each
order-2 tag to its class.
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


def block_index_map(blocks, n: int, field: str = "blocks") -> np.ndarray:
    """Array mapping each index to the id of its block; blocks must
    partition 0..n-1 (ParameterError naming field otherwise)."""
    _check_partition(blocks, n, field)
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
    here. bitmap(n) is spec(n, 1.0) decided unhashed, where delta has no
    effect, for every pattern with a protocol; the others override it."""

    tag = ""
    order = 2

    def bitmap(self, n):
        return protocols.target_bitmap(self.spec(n, 1.0))

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

    def budget(self, k, eps, n):
        return k * math.ceil(1 / eps)

    def spec(self, n, eps):
        return protocols.equality_hash(n, eps)


@dataclass(frozen=True)
class BlockDiagonal(_Pattern):
    """Zeros exactly inside each diagonal block; blocks partition [n]."""

    blocks: tuple[tuple[int, ...], ...]
    tag = "block-diagonal"

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

    def budget(self, k, eps, n):
        return k * max(1, math.ceil(self.t / eps))

    def spec(self, n, eps):
        rb = block_index_map(self.row_blocks, n, "row_blocks")
        cb = block_index_map(self.col_blocks, n, "col_blocks")
        if len(self.block_zero_sets) != len(self.row_blocks):
            raise ParameterError("block_zero_sets must have one entry per row block")
        for a, zs in enumerate(self.block_zero_sets):
            if len(zs) > self.t:
                raise ParameterError(f"row block {a} has {len(zs)} zeros, t={self.t}")
            if any(not 0 <= c < len(self.col_blocks) for c in zs):
                raise ParameterError(f"block_zero_sets[{a}] names a missing column block")
        zero_sets = tuple(self.block_zero_sets[rb[i]] for i in range(n))
        return protocols.sparse_set_eq(n, zero_sets, self.t, eps, col_groups=cb)


@dataclass(frozen=True)
class ToeplitzModP(_Pattern):
    p: int
    tag = "toeplitz-mod-p"

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

    def budget(self, k, eps, n):
        return k * protocols.transcript_cap(self.spec(n, eps))

    def spec(self, n, eps):
        if len(self.prefix_lengths) != n:
            raise ParameterError("prefix_lengths must have one entry per row")
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

    def spec(self, n, eps):
        return protocols.neq3_multiparty(n, eps)


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
    """The pattern's mask at every cell, with its zero counts."""
    if n < 1:
        raise ParameterError(f"n={n} must be positive")
    if not isinstance(pattern, _Pattern):
        raise ParameterError(f"unknown pattern {pattern!r}")
    bitmap = pattern.bitmap(n)
    return Mask(n, pattern, bitmap, zero_counts(bitmap))


def held_mask(grid: np.ndarray) -> Mask:
    """A mask on grid, a checked read-only 0/1 uint8 (n, n) array, held
    once as both the Explicit pattern's cells and the bitmap, uncopied."""
    return Mask(len(grid), Explicit(grid), grid, zero_counts(grid))


def zero_counts(bitmap: np.ndarray) -> ZeroCounts:
    """Zero counts of a 0/1 bitmap: per index of an axis, the cells there
    less their sum, so no temporary of the bitmap's size is made."""
    rest = tuple(range(2, bitmap.ndim))
    cells = bitmap.size
    return ZeroCounts(
        cells // bitmap.shape[0] - bitmap.sum(axis=(1,) + rest, dtype=np.int64),
        cells // bitmap.shape[1] - bitmap.sum(axis=(0,) + rest, dtype=np.int64),
    )


def rank_budget(pattern: MaskPattern, k: int, eps: float, n: int | None = None) -> int:
    """Rank k' certified by the concrete partition construction for the pattern.

    k' is k times the number of 1-labeled rectangles the construction can
    produce: one per hash bucket for the equality families, one per residue
    for toeplitz-mod-p, and the declared transcript caps for the
    greater-than compositions (which need n).
    """
    _check_k_eps(k, eps)
    return pattern.budget(k, eps, n)
