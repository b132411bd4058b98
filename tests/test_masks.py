"""Mask constructors: defining predicates, zero counts, and rank budgets."""

import math
import tracemalloc

import numpy as np
import pytest

from maskedlra import (
    AllOnes,
    Banded,
    Banded2D,
    BlockDiagonal,
    BlockSparse,
    Diagonal,
    Diagonal3,
    Explicit,
    Monotone,
    ParameterError,
    Sparse,
    SparseFaces,
    ToeplitzModP,
    make_mask,
    rank_budget,
)
from maskedlra.masks import zero_counts
from maskedlra.protocols import greater_than, target_bitmap


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


def _blocks(n: int, count: int):
    """min(n, count) contiguous blocks that partition 0..n-1."""
    count = min(n, count)
    return tuple(tuple(range(b * n // count, (b + 1) * n // count)) for b in range(count))


def _block_ids(blocks, n: int) -> np.ndarray:
    ids = np.empty(n, dtype=np.int64)
    for b, blk in enumerate(blocks):
        ids[list(blk)] = b
    return ids


def _reference_bitmap(pattern, n: int) -> np.ndarray:
    """The predicates of the patterns with a protocol written directly,
    independent of the protocol decisions that their masks are read off."""
    if isinstance(pattern, Diagonal):
        return 1 - np.eye(n, dtype=np.uint8)
    if isinstance(pattern, BlockDiagonal):
        blk = _block_ids(pattern.blocks, n)
        return (blk[:, None] != blk[None, :]).astype(np.uint8)
    if isinstance(pattern, Sparse):
        W = np.ones((n, n), dtype=np.uint8)
        for r, zs in enumerate(pattern.zero_sets):
            W[r, list(zs)] = 0
        return W
    if isinstance(pattern, BlockSparse):
        zero = np.zeros((len(pattern.row_blocks), len(pattern.col_blocks)), dtype=bool)
        for a, zs in enumerate(pattern.block_zero_sets):
            zero[a, list(zs)] = True
        rb, cb = _block_ids(pattern.row_blocks, n), _block_ids(pattern.col_blocks, n)
        return (~zero[rb[:, None], cb[None, :]]).astype(np.uint8)
    if isinstance(pattern, ToeplitzModP):
        i, j = np.ogrid[:n, :n]
        return ((i - j) % pattern.p != 0).astype(np.uint8)
    if isinstance(pattern, Banded):
        i, j = np.ogrid[:n, :n]
        return (np.abs(i - j) >= pattern.p).astype(np.uint8)
    if isinstance(pattern, Banded2D):
        s = math.isqrt(n)
        i, j = np.ogrid[:n, :n]
        return (np.abs(i // s - j // s) + np.abs(i % s - j % s) >= pattern.p).astype(np.uint8)
    if isinstance(pattern, Monotone):
        return (np.arange(n) < np.array(pattern.prefix_lengths)[:, None]).astype(np.uint8)
    assert isinstance(pattern, Diagonal3)
    x = np.arange(n)
    eq = (x[:, None, None] == x[None, :, None]) & (x[:, None, None] == x[None, None, :])
    return (~eq).astype(np.uint8)


def _protocol_patterns(n: int):
    rng = np.random.default_rng(n)
    rows, cols = _blocks(n, 3), _blocks(n, 4)
    patterns = [Diagonal()]
    patterns += [BlockDiagonal(_blocks(n, b)) for b in (1, 2, 5)]
    patterns += [Sparse(tuple(tuple(sorted(rng.choice(n, min(n, t), replace=False).tolist()))
                              for _ in range(n)), t) for t in (0, 2)]
    patterns.append(BlockSparse(rows, cols, tuple(
        tuple(sorted(rng.choice(len(cols), min(len(cols), 2), replace=False).tolist()))
        for _ in rows), 2))
    patterns += [ToeplitzModP(min(n, p)) for p in (1, 2, 4)]
    patterns += [Banded(p) for p in sorted({1, min(n, 2), min(n, 5), n})]
    if math.isqrt(n) ** 2 == n:
        patterns += [Banded2D(p) for p in sorted({1, min(n, 2), min(n, 3), n})]
    patterns += [Monotone(tuple(range(n))), Monotone((0,) * n), Monotone((n,) * n),
                 Monotone(tuple(rng.integers(0, n + 1, size=n).tolist()))]
    return patterns + ([Diagonal3()] if n <= 16 else [])


@pytest.mark.parametrize("n", [1, 4, 7, 16, 64])
def test_protocol_masks_match_reference_predicates(n):
    """The masks that the patterns with a protocol read off their
    protocols' unhashed decisions equal their predicates, byte for byte,
    and so does target_bitmap of the pattern's spec at any eps, with the
    greater-than family's [i > j] among them."""
    staircase = _reference_bitmap(Monotone(tuple(range(n))), n)
    for eps in (0.1, 0.5, 1.0):
        assert target_bitmap(greater_than(n, eps)).tobytes() == staircase.tobytes(), eps
    for pattern in _protocol_patterns(n):
        want = _reference_bitmap(pattern, n)
        got = make_mask(pattern, n).bitmap
        assert got.dtype == np.uint8 and got.shape == want.shape, pattern
        assert got.tobytes() == want.tobytes(), pattern
        for eps in (0.1, 0.5, 1.0):
            target = target_bitmap(pattern.spec(n, eps))
            assert target.dtype == np.uint8 and target.tobytes() == want.tobytes(), (pattern, eps)


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


def test_zero_counts_are_sums_with_no_grid_temporary():
    """Zero counts per index of the first two axes, in int64, equal the
    counts of the bitmap's zeros, at order 2 and 3, and a 1024 x 1024 mask
    counts them in under an eighth of a byte per cell."""
    rng = np.random.default_rng(7)
    for shape in ((5, 5), (4, 4, 4)):
        W = make_mask(Explicit((rng.random(shape) < 0.6).astype(np.uint8)), shape[0])
        zeros = W.bitmap == 0
        rest = tuple(range(2, len(shape)))
        for got, axes in ((W.zero_counts.rows, (1,) + rest), (W.zero_counts.cols, (0,) + rest)):
            assert got.dtype == np.int64 and np.array_equal(got, zeros.sum(axis=axes))
    n = 1024
    bitmap = (rng.random((n, n)) < 0.5).astype(np.uint8)
    tracemalloc.start()
    try:
        counts = zero_counts(bitmap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(counts.rows, (bitmap == 0).sum(axis=1))
    assert peak < n * n / 8


def test_block_spec_refuses_blocks_that_do_not_partition():
    # block_index_map checks the blocks: these read uninitialised memory
    # and raised IndexError before it did
    with pytest.raises(ParameterError, match=r"blocks must partition 0..3"):
        BlockDiagonal(((0, 1),)).spec(4, 0.5)
    with pytest.raises(ParameterError, match=r"row_blocks must partition 0..3"):
        BlockSparse(((0, 1),), ((0, 1, 2, 3),), ((),), 1).spec(4, 0.5)


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


def test_monotone_spec_and_budget_refuse_a_mismatched_n():
    # the spec once took n from the prefixes, so n = 1024 budgeted an n = 8
    # protocol
    pattern = Monotone(tuple(range(8)))
    with pytest.raises(ParameterError, match="prefix_lengths must have one entry per row"):
        pattern.spec(1024, 0.25)
    with pytest.raises(ParameterError, match="prefix_lengths must have one entry per row"):
        rank_budget(pattern, 2, 0.25, n=1024)


def test_block_sparse_budget_floors_at_k_at_t_zero():
    # no zero block: ceil(t / eps) = 0, floored to one rectangle
    blocks = ((0, 1), (2, 3))
    pattern = BlockSparse(blocks, blocks, ((), ()), 0)
    assert rank_budget(pattern, 3, 0.5) == 3
    assert make_mask(pattern, 4).zero_counts.max_row == 0


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
