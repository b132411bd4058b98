"""Mask constructors: defining predicates, zero counts, and rank budgets."""

import numpy as np
import pytest

from maskedlra import (
    AllOnes,
    Banded,
    Banded2D,
    BlockDiagonal,
    BlockSparse,
    Diagonal,
    Explicit,
    Monotone,
    ParameterError,
    Sparse,
    SparseFaces,
    ToeplitzModP,
    make_mask,
    rank_budget,
)


def test_diagonal_zeros():
    W = make_mask(Diagonal(), 4)
    want = 1 - np.eye(4, dtype=np.uint8)
    assert np.array_equal(W.bitmap, want)


def test_banded_predicate():
    W = make_mask(Banded(2), 4)
    i, j = np.indices((4, 4))
    want = (np.abs(i - j) >= 2).astype(np.uint8)
    assert np.array_equal(W.bitmap, want)


def test_toeplitz_predicate():
    W = make_mask(ToeplitzModP(2), 4)
    i, j = np.indices((4, 4))
    want = ((i - j) % 2 != 0).astype(np.uint8)
    assert np.array_equal(W.bitmap, want)


def _brute_bitmap(pattern, n: int) -> np.ndarray:
    """Cell-by-cell evaluation of each pattern's defining predicate."""
    out = np.ones((n, n), dtype=np.uint8)
    for i in range(n):
        for j in range(n):
            if isinstance(pattern, AllOnes):
                zero = False
            elif isinstance(pattern, Diagonal):
                zero = i == j
            elif isinstance(pattern, BlockDiagonal):
                bi = next(b for b, blk in enumerate(pattern.blocks) if i in blk)
                bj = next(b for b, blk in enumerate(pattern.blocks) if j in blk)
                zero = bi == bj
            elif isinstance(pattern, Sparse):
                zero = j in pattern.zero_sets[i]
            elif isinstance(pattern, ToeplitzModP):
                zero = (i - j) % pattern.p == 0
            elif isinstance(pattern, Banded):
                zero = abs(i - j) < pattern.p
            elif isinstance(pattern, Banded2D):
                s = int(round(np.sqrt(n)))
                d = abs(i // s - j // s) + abs(i % s - j % s)
                zero = d < pattern.p
            elif isinstance(pattern, Monotone):
                zero = j >= pattern.prefix_lengths[i]
            else:
                raise AssertionError(pattern)
            if zero:
                out[i, j] = 0
    return out


def test_bitmaps_match_brute_force():
    rng = np.random.default_rng(17)
    n = 16
    zs = tuple(tuple(sorted(int(x) for x in rng.choice(n, 3, replace=False))) for _ in range(n))
    prefixes = tuple(int(x) for x in rng.integers(0, n + 1, size=n))
    cases = [
        AllOnes(),
        Diagonal(),
        BlockDiagonal(blocks=(tuple(range(0, 8)), tuple(range(8, 16)))),
        Sparse(zero_sets=zs, t=3),
        ToeplitzModP(4),
        Banded(3),
        Banded2D(2),
        Monotone(prefix_lengths=prefixes),
    ]
    for pattern in cases:
        W = make_mask(pattern, n)
        assert np.array_equal(W.bitmap, _brute_bitmap(pattern, n)), pattern


def test_bitmaps_match_brute_force_larger():
    # spot-check the predicates higher up the size range
    for pattern in (Diagonal(), Banded(5), ToeplitzModP(7), Banded2D(3)):
        W = make_mask(pattern, 64)
        assert np.array_equal(W.bitmap, _brute_bitmap(pattern, 64)), pattern


def test_diagonal_equivalences():
    n = 9
    d = make_mask(Diagonal(), n).bitmap
    assert np.array_equal(d, make_mask(Banded(1), n).bitmap)
    singletons = tuple((i,) for i in range(n))
    assert np.array_equal(d, make_mask(BlockDiagonal(blocks=singletons), n).bitmap)


def test_zero_counts_track_sparsity():
    rng = np.random.default_rng(41)
    n, t = 12, 4
    zs = tuple(tuple(sorted(int(x) for x in rng.choice(n, t, replace=False))) for _ in range(n))
    W = make_mask(Sparse(zero_sets=zs, t=t), n)
    assert W.zero_counts.max_row == t
    assert np.array_equal(W.zero_counts.rows, np.full(n, t))
    assert W.zero_counts.cols.sum() == n * t


def test_rank_budget_values():
    assert rank_budget(Diagonal(), 2, 0.25) == 8
    zs = tuple((0, 1, 2) for _ in range(4))
    assert rank_budget(Sparse(zero_sets=zs, t=3), 1, 0.5) == 6
    assert rank_budget(AllOnes(), 5, 0.9) == 5
    assert rank_budget(AllOnes(), 5, 0.1) == 5
    # residue route beats the bucket route when p is small
    assert rank_budget(ToeplitzModP(2), 3, 0.1) == 6
    assert rank_budget(ToeplitzModP(64), 1, 0.5) == 2


def test_rank_budget_monotone_in_eps_and_k():
    zs = tuple((0,) for _ in range(8))
    patterns = [Diagonal(), Sparse(zero_sets=zs, t=1), ToeplitzModP(4), Banded(2)]
    eps_grid = (0.05, 0.1, 0.25, 0.5, 1.0)
    for pattern in patterns:
        budgets = [rank_budget(pattern, 2, e, n=16) for e in eps_grid]
        assert all(a >= b for a, b in zip(budgets, budgets[1:])), (pattern, budgets)
        ks = [rank_budget(pattern, k, 0.25, n=16) for k in (1, 2, 3, 5)]
        assert all(a <= b for a, b in zip(ks, ks[1:])), (pattern, ks)
    # t inflation for the sparse family
    for t in (1, 2, 3):
        zt = tuple(tuple(range(t)) for _ in range(8))
        assert rank_budget(Sparse(zero_sets=zt, t=t), 1, 0.5) == 2 * t


def test_rank_budget_rejects_bad_eps():
    with pytest.raises(ParameterError):
        rank_budget(Diagonal(), 1, 0.0)
    with pytest.raises(ParameterError):
        rank_budget(Diagonal(), 1, 1.5)
    with pytest.raises(ParameterError):
        rank_budget(Diagonal(), 0, 0.5)


def test_rank_budget_explicit_needs_partition():
    with pytest.raises(ParameterError, match="'explicit': k' needs a drawn partition"):
        rank_budget(Explicit(np.ones((2, 2), np.uint8)), 1, 0.5)


def test_make_mask_parameter_validation():
    with pytest.raises(ParameterError):
        make_mask(Banded(9), 8)  # band wider than the grid
    with pytest.raises(ParameterError):
        make_mask(Banded2D(2), 12)  # not a perfect square
    with pytest.raises(ParameterError):
        make_mask(BlockDiagonal(blocks=((0, 1), (1, 2))), 3)  # overlap
    with pytest.raises(ParameterError):
        make_mask(Sparse(zero_sets=((0, 1),), t=1), 1)  # row exceeds t
    with pytest.raises(ParameterError):
        make_mask(Monotone(prefix_lengths=(5,)), 1)  # prefix longer than row


_TWO_BLOCKS = ((0, 1), (2, 3))


@pytest.mark.parametrize("pattern, n, match", [
    (Sparse(zero_sets=((0,),), t=1), 2, "one entry per row"),
    (Sparse(zero_sets=((), (2,)), t=1), 2, "outside 0..1"),
    (BlockSparse(((0, 1), (1, 2, 3)), _TWO_BLOCKS, ((), ()), 1), 4, "row_blocks must partition"),
    (BlockSparse(((0, 1, 2, 3), ()), _TWO_BLOCKS, ((), ()), 1), 4, "row_blocks contains an empty"),
    (BlockSparse(_TWO_BLOCKS, ((0, 1, 2),), ((),), 1), 4, "col_blocks must partition"),
    (BlockSparse(_TWO_BLOCKS, _TWO_BLOCKS, ((),), 1), 4, "one entry per row block"),
    (BlockSparse(_TWO_BLOCKS, _TWO_BLOCKS, ((0, 1), ()), 1), 4, "row block 0 has 2 zeros"),
    (BlockSparse(_TWO_BLOCKS, _TWO_BLOCKS, ((), (2,)), 1), 4, "names a missing column block"),
    (SparseFaces(zero_sets=((),), s=1), 2, "one entry per face"),
    (SparseFaces(zero_sets=(((0, 0), (1, 1)), ()), s=1), 2, "face 0 has 2 zeros"),
    (SparseFaces(zero_sets=((), ((0, 2),)), s=1), 2, r"face 1 zero \(0,2\) out of range"),
    (Diagonal(), 0, "n=0 must be positive"),
    ("diagonal", 4, "unknown pattern"),
])
def test_bad_pattern_is_a_parameter_error(pattern, n, match):
    with pytest.raises(ParameterError, match=match):
        make_mask(pattern, n)
