"""Boolean route: OR-of-ANDs products, oracle search, covers, bound checks."""

import itertools

import numpy as np
import pytest

from maskedlra import (
    BlockDiagonal,
    Diagonal,
    ParameterError,
    ResourceError,
    bool_cost,
    bool_lra_exhaustive,
    bool_lra_heuristic,
    bool_product,
    cover_based_bool_lra,
    gen_planted,
    make_mask,
    nondet_cover,
    verify_nondet_bound,
)


def test_bool_product_identity():
    I = np.eye(3, dtype=np.uint8)
    assert np.array_equal(bool_product(I, I), I)


def test_bool_product_rank_one_saturation():
    col = np.ones((4, 1), dtype=np.uint8)
    row = np.ones((1, 4), dtype=np.uint8)
    assert bool_product(col, row).all()


def test_bool_product_threshold_oracle():
    rng = np.random.default_rng(3)
    for trial in range(20):
        U = (rng.random((4, 2)) < 0.5).astype(np.uint8)
        V = (rng.random((2, 4)) < 0.5).astype(np.uint8)
        want = (U.astype(int) @ V.astype(int) >= 1).astype(np.uint8)
        assert np.array_equal(bool_product(U, V), want)


def test_bool_cost_trivials():
    A = np.eye(2, dtype=np.uint8)
    ones = np.ones((2, 2), dtype=np.uint8)
    assert bool_cost(A, A, ones) == 0
    assert bool_cost(A, np.zeros((2, 2), np.uint8), ones) == 2


def test_bool_cost_direct_count():
    rng = np.random.default_rng(5)
    A = (rng.random((6, 6)) < 0.5).astype(np.uint8)
    B = (rng.random((6, 6)) < 0.5).astype(np.uint8)
    Wb = (rng.random((6, 6)) < 0.7).astype(np.uint8)
    want = sum(
        1
        for i in range(6)
        for j in range(6)
        if Wb[i, j] and A[i, j] != B[i, j]
    )
    assert bool_cost(A, B, Wb) == want


def _brute_opt(A: np.ndarray, Wb: np.ndarray, k: int) -> int:
    """Independent oracle: itertools over all factor pairs."""
    n, m = A.shape
    best = None
    for ubits in itertools.product((0, 1), repeat=n * k):
        U = np.array(ubits, dtype=np.uint8).reshape(n, k)
        for vbits in itertools.product((0, 1), repeat=k * m):
            V = np.array(vbits, dtype=np.uint8).reshape(k, m)
            c = bool_cost(A, bool_product(U, V), Wb)
            if best is None or c < best:
                best = c
    return best


def test_exhaustive_identity_cost_one():
    A = np.eye(2, dtype=np.uint8)
    W = np.ones((2, 2), dtype=np.uint8)
    F, cost = bool_lra_exhaustive(A, W, 1)
    assert cost == 1
    assert bool_cost(A, bool_product(F.U, F.V), W) == 1


def test_exhaustive_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(6):
        A = (rng.random((3, 3)) < 0.5).astype(np.uint8)
        Wb = (rng.random((3, 3)) < 0.8).astype(np.uint8)
        _, cost = bool_lra_exhaustive(A, Wb, 1)
        assert cost == _brute_opt(A, Wb, 1), trial


def test_exhaustive_all_ones_zero_cost():
    A = np.ones((4, 4), dtype=np.uint8)
    _, cost = bool_lra_exhaustive(A, np.ones_like(A), 1)
    assert cost == 0


def test_exhaustive_empty_mask_zero_cost():
    rng = np.random.default_rng(9)
    A = (rng.random((3, 3)) < 0.5).astype(np.uint8)
    _, cost = bool_lra_exhaustive(A, np.zeros_like(A), 1)
    assert cost == 0


def test_exhaustive_cap_enforced():
    A = np.zeros((8, 8), dtype=np.uint8)
    with pytest.raises(ResourceError):
        bool_lra_exhaustive(A, np.ones_like(A), 2)  # 2*8*2 = 32 bits > cap


def test_heuristic_all_ones():
    A = np.ones((5, 5), dtype=np.uint8)
    F, cost = bool_lra_heuristic(A, np.ones_like(A), 1, seed=0)
    assert cost == 0
    assert bool_product(F.U, F.V).all()


def test_heuristic_zero_matrix():
    A = np.zeros((4, 4), dtype=np.uint8)
    F, cost = bool_lra_heuristic(A, np.ones_like(A), 2, seed=1)
    assert cost == 0
    assert not bool_product(F.U, F.V).any()


def test_heuristic_never_beats_zero_factor_bound():
    rng = np.random.default_rng(11)
    for trial in range(30):
        A = (rng.random((6, 6)) < 0.4).astype(np.uint8)
        Wb = (rng.random((6, 6)) < 0.8).astype(np.uint8)
        zero_cost = int((A & Wb).sum())
        _, cost = bool_lra_heuristic(A, Wb, 2, seed=trial)
        assert cost <= zero_cost, trial


def test_heuristic_within_factor_three_of_oracle():
    """Seeded suite of tiny instances: greedy stays within 3x of optimal
    suite-wide (single instances with optimum 0 may miss by a cell or two)."""
    rng = np.random.default_rng(13)
    total_opt = 0
    total_got = 0
    for trial in range(50):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, 3))
        if 2 * n * k > 24:
            k = 1
        A = (rng.random((n, n)) < 0.5).astype(np.uint8)
        Wb = (rng.random((n, n)) < 0.85).astype(np.uint8)
        _, opt = bool_lra_exhaustive(A, Wb, k)
        _, got = bool_lra_heuristic(A, Wb, k, seed=trial)
        assert got >= opt, trial  # the oracle is a true lower bound
        total_opt += opt
        total_got += got
    assert total_got <= 3 * total_opt, (total_got, total_opt)


def test_cover_single_full_rectangle_matches_inner():
    rng = np.random.default_rng(17)
    A = (rng.random((4, 4)) < 0.5).astype(np.uint8)
    W = np.ones((4, 4), dtype=np.uint8)
    from maskedlra import Cover, Rectangle

    C = Cover([Rectangle(np.arange(4), np.arange(4), 1)], 4)
    F, cost = cover_based_bool_lra(A, W, C, 1, inner="exhaustive")
    _, inner_cost = bool_lra_exhaustive(A, W, 1)
    assert cost == inner_cost


def test_cover_composition_exactness():
    # per-rectangle exact fits compose to an exact cover fit
    n = 4
    W = make_mask(Diagonal(), n)
    C = nondet_cover("neq-bits", n)
    A = W.bitmap.copy()  # target is exactly the support itself
    F, cost = cover_based_bool_lra(A, W, C, 1, inner="exhaustive")
    assert cost == 0
    out = bool_product(F.U, F.V)
    assert not (out & (1 - W.bitmap)).any()


def test_cover_rejects_mismatched_mask():
    n = 4
    C = nondet_cover("neq-bits", n)
    bad = make_mask(BlockDiagonal(blocks=((0, 1), (2, 3))), n)
    A = np.ones((n, n), dtype=np.uint8)
    with pytest.raises(ParameterError):
        cover_based_bool_lra(A, bad, C, 1)


def test_cover_rejects_empty_cover():
    from maskedlra import Cover

    zeros = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ParameterError, match="no rectangles"):
        cover_based_bool_lra(zeros, zeros, Cover([], 4), 1)


def test_cover_ors_per_rectangle_fits_in_cover_order():
    """Three overlapping rectangles: per_rectangle_costs lists the exact fits
    in cover order, and the value ORs each fit's product placed in its block."""
    from maskedlra import Cover, Rectangle
    from maskedlra.protocols import cover_bitmap

    rects = [
        Rectangle(np.array([0, 1, 2]), np.array([0, 1, 2]), 1),
        Rectangle(np.array([3, 4]), np.array([2, 3, 4, 5]), 1),
        Rectangle(np.array([1, 5]), np.array([4, 5]), 1),
    ]
    C = Cover(rects, 6)
    W = cover_bitmap(C)
    A = np.array([
        [1, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [1, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 1, 1],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 1, 1],
    ], dtype=np.uint8)
    F, cost = cover_based_bool_lra(A, W, C, 1, inner="exhaustive")
    want_costs, want = [], np.zeros((6, 6), dtype=np.uint8)
    for r in rects:
        sub = A[np.ix_(r.row_set, r.col_set)]
        fit, c = bool_lra_exhaustive(sub, np.ones(sub.shape, np.uint8), 1)
        want_costs.append(c)
        want[np.ix_(r.row_set, r.col_set)] |= fit.value()
    assert len(set(want_costs)) == len(rects)  # order is visible in the list
    assert F.meta["per_rectangle_costs"] == want_costs
    assert np.array_equal(F.value(), want)
    assert F.U.shape[1] == F.rank_bound == 3
    assert cost == bool_cost(A, want, W)


def test_cover_output_respects_mask_zeros():
    rng = np.random.default_rng(19)
    n = 8
    W = make_mask(Diagonal(), n)
    C = nondet_cover("neq-bits", n)
    A = (rng.random((n, n)) < 0.5).astype(np.uint8)
    F, _ = cover_based_bool_lra(A, W, C, 1, seed=2)
    out = bool_product(F.U, F.V)
    assert not (out & (1 - W.bitmap)).any()


def test_cover_cost_bounded_by_size_times_opt():
    rng = np.random.default_rng(23)
    n = 4
    W = make_mask(Diagonal(), n)
    C = nondet_cover("neq-bits", n)
    for trial in range(10):
        A = (rng.random((n, n)) < 0.5).astype(np.uint8)
        _, opt = bool_lra_exhaustive(A, W.bitmap, 1)
        _, cost = cover_based_bool_lra(A, W, C, 1, inner="exhaustive")
        assert cost <= len(C.rectangles) * opt, trial


def test_verify_nondet_block_diagonal_planted():
    pattern = BlockDiagonal(blocks=((0, 1), (2, 3)))
    inst = gen_planted("boolean", pattern, 4, 1, corruption_scale=0.3, seed=3)
    C = nondet_cover("neq-blocks", 4, blocks=pattern.blocks)
    rep = verify_nondet_bound(inst.A, inst.W, C, 1, int(inst.opt_upper), inner="exhaustive")
    assert rep.satisfied
    assert rep.rhs == len(C.rectangles) * int(inst.opt_upper)


def _disj_pattern(n: int):
    from maskedlra import Explicit
    from maskedlra.protocols import cover_bitmap

    return Explicit(cover_bitmap(nondet_cover("disj-coords", n)))


def test_verify_nondet_disj_coords_planted():
    inst = gen_planted("boolean", _disj_pattern(8), 8, 1, corruption_scale=0.3, seed=5)
    C = nondet_cover("disj-coords", 8)
    rep = verify_nondet_bound(inst.A, inst.W, C, 1, int(inst.opt_upper), seed=1)
    assert rep.satisfied


def test_verify_nondet_zero_opt_forces_zero_cost():
    # flips confined to the masked zeros keep the support exact: opt 0
    inst = gen_planted(
        "boolean", _disj_pattern(8), 8, 1, noise_sigma=0.0, corruption_scale=0.3, seed=7
    )
    assert inst.opt_upper == 0
    C = nondet_cover("disj-coords", 8)
    rep = verify_nondet_bound(inst.A, inst.W, C, 1, 0, inner="exhaustive", seed=0)
    assert rep.cost == 0
    assert rep.satisfied


def test_verify_nondet_rejects_negative_opt_upper():
    inst = gen_planted("boolean", _disj_pattern(4), 4, 1, corruption_scale=0.3, seed=2)
    C = nondet_cover("disj-coords", 4)
    with pytest.raises(ParameterError, match="opt_upper=-1"):
        verify_nondet_bound(inst.A, inst.W, C, 1, -1, inner="exhaustive")
