"""Order-3 route: CP-ALS, masked tensor fits, per-rectangle comparator."""

import numpy as np
import pytest

from maskedlra import (
    Diagonal3,
    LowRankFactor,
    ParameterError,
    PartitionSample,
    Rectangle,
    cp_als,
    gen_planted,
    make_mask,
    masked_cost,
    masked_tensor_lra,
    multiparty_partition,
    neq3_multiparty,
    tensor_comparator,
)
from maskedlra.protocols import target_bitmap


def _rank1(u, v, z):
    return np.einsum("i,j,l->ijl", u, v, z)


def test_cp_als_rank_one_recovery():
    rng = np.random.default_rng(2)
    T = _rank1(rng.standard_normal(6), rng.standard_normal(5), rng.standard_normal(4))
    F = cp_als(T, 1, iters=200, seed=0)
    res = np.sqrt(np.sum((T - F.value()) ** 2))
    assert res <= 1e-6 * np.sqrt(np.sum(T * T))


def test_cp_als_zero_tensor():
    F = cp_als(np.zeros((3, 3, 3)), 2)
    assert not F.U.any() and not F.V.any() and not F.Z.any()
    assert not F.value().any()


def test_cp_als_planted_rank3():
    """A random rank-3 tensor is recovered to 1e-4 relative with restarts."""
    rng = np.random.default_rng(5)
    n, k = 16, 3
    T = sum(
        _rank1(rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n))
        for _ in range(k)
    )
    F = cp_als(T, k, iters=200, seed=1, restarts=5)
    res = np.sqrt(np.sum((T - F.value()) ** 2))
    assert res <= 1e-4 * np.sqrt(np.sum(T * T))


def test_cp_als_sweeps_never_increase_residual():
    # rerun with growing sweep counts; same seed gives the same trajectory
    rng = np.random.default_rng(9)
    T = rng.standard_normal((5, 5, 5))
    resid = []
    for iters in range(1, 9):
        F = cp_als(T, 2, iters=iters, seed=3)
        resid.append(float(np.sum((T - F.value()) ** 2)))
    assert all(b <= a + 1e-10 for a, b in zip(resid, resid[1:])), resid


def test_cp_als_rejects_bad_rank():
    with pytest.raises(ParameterError):
        cp_als(np.zeros((2, 2, 2)), 0)


@pytest.mark.parametrize("kwargs", [{"iters": 0}, {"restarts": 0}, {"iters": -1}])
def test_cp_als_rejects_runs_without_a_sweep(kwargs):
    T = np.ones((2, 2, 2))
    with pytest.raises(ParameterError):
        cp_als(T, 1, **kwargs)
    if "iters" in kwargs:
        with pytest.raises(ParameterError):
            masked_tensor_lra(T, np.ones((2, 2, 2), dtype=np.uint8), 1, **kwargs)


def test_masked_tensor_lra_empty_support():
    # diagonal tensor with the diagonal masked away leaves nothing to fit
    n = 5
    A = np.zeros((n, n, n))
    idx = np.arange(n)
    A[idx, idx, idx] = 3.0
    W = make_mask(Diagonal3(), n)
    F = masked_tensor_lra(A, W, 2)
    assert masked_cost(A, W, F) == 0.0
    assert not F.value().any()


def test_masked_tensor_lra_all_ones_reduces_to_cp():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((4, 4, 4))
    W = np.ones((4, 4, 4), dtype=np.uint8)
    F1 = masked_tensor_lra(A, W, 2, seed=7)
    F2 = cp_als(A, 2, seed=7)
    assert np.array_equal(F1.U, F2.U)
    assert np.array_equal(F1.V, F2.V)
    assert np.array_equal(F1.Z, F2.Z)


def test_masked_cost3_trivials_and_oracle():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 3, 5))
    U = rng.standard_normal((4, 2))
    V = rng.standard_normal((3, 2))
    Z = rng.standard_normal((5, 2))
    F = LowRankFactor(U, V, 2, Z=Z)
    W = (rng.random((4, 3, 5)) < 0.5).astype(np.uint8)
    # direct triple-loop summation oracle
    want = 0.0
    val = F.value()
    for i in range(4):
        for j in range(3):
            for l in range(5):
                if W[i, j, l]:
                    want += (A[i, j, l] - val[i, j, l]) ** 2
    got = masked_cost(A, W, F)
    assert abs(got - want) <= 1e-12 * max(1.0, want)
    assert masked_cost(val, W, F) == 0.0
    zeroF = LowRankFactor(np.zeros((4, 1)), np.zeros((3, 1)), 1, Z=np.zeros((5, 1)))
    assert masked_cost(A, np.ones_like(W), zeroF) == pytest.approx(float(np.sum(A * A)))


def test_comparator_single_rectangle_matches_cp():
    rng = np.random.default_rng(8)
    n = 4
    A = rng.standard_normal((n, n, n))
    W = np.ones((n, n, n), dtype=np.uint8)
    full = Rectangle(np.arange(n), np.arange(n), 1, np.arange(n))
    P = PartitionSample([full], n, "manual", 1, order=3)
    F1 = tensor_comparator(A, W, P, 2, restarts=1, seed=5)
    F2 = cp_als(A, 2, iters=100, seed=5)
    assert np.allclose(F1.value(), F2.value(), atol=1e-9)


def test_comparator_zero_labels_zero_factor():
    n = 4
    A = np.ones((n, n, n))
    W = np.ones((n, n, n), dtype=np.uint8)
    full = Rectangle(np.arange(n), np.arange(n), 0, np.arange(n))
    P = PartitionSample([full], n, "manual", 0, order=3)
    F = tensor_comparator(A, W, P, 1)
    assert not F.value().any()


def test_comparator_zero_outside_one_rectangles():
    inst = gen_planted("tensor3", Diagonal3(), 8, 1, seed=2)
    P = multiparty_partition(neq3_multiparty(8, 0.5), seed=1)
    F = tensor_comparator(inst.A, inst.W, P, 1, restarts=1)
    ones = np.zeros((8, 8, 8), dtype=bool)
    for r in P.rectangles:
        if r.label:
            ones[np.ix_(r.row_set, r.col_set, r.depth_set)] = True
    assert (F.value()[~ones] == 0.0).all()


def test_comparator_concatenation_represents_sum():
    """The stacked factors evaluate to the sum of per-rectangle fits; check
    against independent per-rectangle evaluation at every cell."""
    rng = np.random.default_rng(11)
    n = 6
    A = rng.standard_normal((n, n, n))
    W = np.ones((n, n, n), dtype=np.uint8)
    halves = (np.arange(3), np.arange(3, 6))
    rects = [
        Rectangle(halves[a], halves[b], 1, halves[c])
        for a in range(2)
        for b in range(2)
        for c in range(2)
    ]
    P = PartitionSample(rects, n, "manual", len(rects), order=3)
    F = tensor_comparator(A, W, P, 1, restarts=1, seed=3)
    want = np.zeros((n, n, n))
    for idx, r in enumerate(rects):
        sub = A[np.ix_(r.row_set, r.col_set, r.depth_set)]
        Fr = cp_als(sub, 1, iters=100, restarts=1, seed=3 + idx)
        want[np.ix_(r.row_set, r.col_set, r.depth_set)] += Fr.value()
    assert np.allclose(F.value(), want, atol=1e-9)
    assert F.rank_bound == len(rects) * 1


def test_comparator_exact_on_injective_partition():
    """Collision-free hashing keeps the planted corruption inside 0-labeled
    cells, so each 1-rectangle holds an exactly rank-1 subtensor."""
    inst = gen_planted("tensor3", Diagonal3(), 8, 1, seed=6)
    spec = neq3_multiparty(8, 0.125)  # 16 buckets on 8 symbols
    want = target_bitmap(spec)
    for seed in range(200):
        P = multiparty_partition(spec, seed=seed)
        labels = np.zeros((8, 8, 8), dtype=np.uint8)
        for r in P.rectangles:
            if r.label:
                labels[np.ix_(r.row_set, r.col_set, r.depth_set)] = 1
        if not np.array_equal(labels, want):
            continue
        F = tensor_comparator(inst.A, inst.W, P, 1, restarts=3, seed=1)
        assert masked_cost(inst.A, inst.W, F) <= 1e-6
        return
    raise AssertionError("no collision-free seed among 200 tries")


def test_comparator_init_transfers_bound():
    eps = 0.25
    inst = gen_planted("tensor3", Diagonal3(), 16, 2, seed=3)
    P = multiparty_partition(neq3_multiparty(16, eps), seed=2)
    comp = tensor_comparator(inst.A, inst.W, P, 2, restarts=1, seed=0)
    comp_cost = masked_cost(inst.A, inst.W, comp)
    F = masked_tensor_lra(inst.A, inst.W, comp.rank_bound, init=comp, seed=0)
    cost = masked_cost(inst.A, inst.W, F)
    assert cost <= comp_cost + 1e-9
    mass = float(np.sum((np.asarray(inst.A) * inst.W.bitmap) ** 2))
    a_norm = float(np.sum(np.asarray(inst.A) ** 2))
    assert cost <= 2 * eps * mass + 1e-6 * a_norm


def test_mask3_constructors():
    W = make_mask(Diagonal3(), 4)
    idx = np.arange(4)
    assert not W.bitmap[idx, idx, idx].any()
    assert W.bitmap.sum() == 4**3 - 4
    from maskedlra import SparseFaces

    zs = (((0, 1), (1, 1)), ((2, 3),), (), ((0, 0), (3, 3)))
    Wf = make_mask(SparseFaces(zero_sets=zs, s=2), 4)
    for face, zeros in enumerate(zs):
        assert (Wf.bitmap[face] == 0).sum() == len(zeros)
        for i2, i3 in zeros:
            assert Wf.bitmap[face, i2, i3] == 0
    with pytest.raises(ParameterError):
        make_mask(SparseFaces(zero_sets=zs, s=1), 4)  # face 0 exceeds s
    from maskedlra import rank_budget

    with pytest.raises(ParameterError):  # the certified rank comes from a partition
        rank_budget(Diagonal3(), 1, 0.5)


def test_gen_planted_rejects_a_pattern_of_the_other_order():
    from maskedlra import Diagonal

    with pytest.raises(ParameterError, match="order-3"):
        gen_planted("tensor3", Diagonal(), 4, 1)
    with pytest.raises(ParameterError, match="order-2"):
        gen_planted("matrix", Diagonal3(), 4, 1)
    with pytest.raises(ParameterError, match="order-2"):
        gen_planted("boolean", Diagonal3(), 4, 1)


def test_explicit_cube_is_an_order_3_mask():
    from maskedlra import Explicit, ShapeError

    cube = np.ones((3, 3, 3), dtype=np.uint8)
    cube[0, 1, 2] = cube[2, 2, 2] = 0
    W = make_mask(Explicit(cube), 3)
    assert W.bitmap.dtype == np.uint8 and np.array_equal(W.bitmap, cube)
    assert W.shape == (3, 3, 3)
    with pytest.raises(ParameterError):
        make_mask(Explicit(2 * cube), 3)
    with pytest.raises(ShapeError):
        make_mask(Explicit(cube), 4)
    with pytest.raises(ShapeError):
        make_mask(Explicit(np.ones((3, 3, 4), dtype=np.uint8)), 3)


def test_masked_cost_charges_a_mask3_like_its_bitmap():
    inst = gen_planted("tensor3", Diagonal3(), 6, 2, noise_sigma=0.1, seed=4)
    F = cp_als(inst.A, 1, iters=5, seed=0)
    assert masked_cost(inst.A, inst.W, F) == masked_cost(inst.A, inst.W.bitmap, F)
    assert inst.W.zero_counts.max_row == 1 and inst.W.zero_counts.max_col == 1


def test_comparator_checks_k_before_any_fit():
    n = 4
    A = np.ones((n, n, n))
    W = np.ones((n, n, n), dtype=np.uint8)
    for label in (0, 1):
        full = Rectangle(np.arange(n), np.arange(n), label, np.arange(n))
        P = PartitionSample([full], n, "manual", label, order=3)
        for k in (0, -2):
            with pytest.raises(ParameterError, match=f"k={k}"):
                tensor_comparator(A, W, P, k)


def test_cp_als_pads_a_narrow_init_with_zero_columns():
    rng = np.random.default_rng(6)
    u, v, z = rng.standard_normal((3, 5))
    T = _rank1(u, v, z) + 0.1 * rng.standard_normal((5, 5, 5))
    init = LowRankFactor(u[:, None], v[:, None], 1, Z=z[:, None])
    F = cp_als(T, 3, iters=5, init=init)
    assert F.U.shape == F.V.shape == F.Z.shape == (5, 3)
    # a zero column makes the Gram matrix singular; the ridge solve keeps it zero
    for X in (F.U, F.V, F.Z):
        assert not X[:, 1:].any()
    assert F.meta["ridge_fallbacks"] > 0
    assert F.meta["residual"] <= float(np.sum((T - init.value()) ** 2))
