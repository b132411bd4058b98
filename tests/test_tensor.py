"""Order-3 route: CP-ALS, masked tensor fits, per-rectangle comparator."""

import numpy as np
import pytest

from maskedlra import (
    Diagonal3,
    LowRankFactor,
    ParameterError,
    PartitionSample,
    ShapeError,
    cp_als,
    gen_planted,
    make_mask,
    masked_cost,
    masked_tensor_lra,
    multiparty_partition,
    neq3_multiparty,
    tensor_comparator,
)
from maskedlra import tensor as tn
from maskedlra.linalg import RIDGE
from maskedlra.protocols import Boxes, target_bitmap


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
    P = PartitionSample(Boxes.pack([1], [(np.arange(n),) * 3], 3), n, "manual", 1, order=3)
    F1 = tensor_comparator(A, W, P, 2, restarts=1, seed=5)
    F2 = cp_als(A, 2, iters=100, seed=5)
    assert np.allclose(F1.value(), F2.value(), atol=1e-9)


def test_comparator_zero_labels_zero_factor():
    n = 4
    A = np.ones((n, n, n))
    W = np.ones((n, n, n), dtype=np.uint8)
    P = PartitionSample(Boxes.pack([0], [(np.arange(n),) * 3], 3), n, "manual", 0, order=3)
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
    sets = [(halves[a], halves[b], halves[c])
            for a in range(2) for b in range(2) for c in range(2)]
    P = PartitionSample(Boxes.pack([1] * len(sets), sets, 3), n, "manual", len(sets), order=3)
    F = tensor_comparator(A, W, P, 1, restarts=1, seed=3)
    want = np.zeros((n, n, n))
    for idx, r in enumerate(P.rectangles):
        sub = A[np.ix_(r.row_set, r.col_set, r.depth_set)]
        Fr = cp_als(sub, 1, iters=100, restarts=1, seed=3 + idx)
        want[np.ix_(r.row_set, r.col_set, r.depth_set)] += Fr.value()
    assert np.allclose(F.value(), want, atol=1e-9)
    assert F.rank_bound == len(sets) * 1


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


def test_comparator_checks_k_before_any_fit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(tn, "_cp_runs", refuse)
    n = 4
    A = np.ones((n, n, n))
    W = np.ones((n, n, n), dtype=np.uint8)
    for label in (0, 1):
        full = Boxes.pack([label], [(np.arange(n),) * 3], 3)
        P = PartitionSample(full, n, "manual", label, order=3)
        for k in (0, -2):
            with pytest.raises(ParameterError, match=f"k={k}"):
                tensor_comparator(A, W, P, k)
        for kwargs in ({"inner_iters": 0}, {"restarts": 0}, {"inner_iters": 0, "restarts": 0}):
            with pytest.raises(ParameterError, match="must both be positive"):
                tensor_comparator(A, W, P, 1, **kwargs)


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


# ---------------------------------------------------------------------------
# lockstep CP-ALS against one run at a time

def _ref_spd_solve(G, B, fallbacks):
    try:
        np.linalg.cholesky(G)
        return np.linalg.solve(G, B)
    except np.linalg.LinAlgError:
        fallbacks[0] += 1
        return np.linalg.solve(G + RIDGE * np.eye(len(G)), B)


def _ref_khatri_rao(X, Y):
    return (X[:, None, :] * Y[None, :, :]).reshape(-1, X.shape[1])


def _ref_update(unfold, X, Y, fallbacks):
    G = (X.T @ X) * (Y.T @ Y)
    return _ref_spd_solve(G, (unfold @ _ref_khatri_rao(X, Y)).T, fallbacks).T


def _ref_cp_als(T, k, iters=100, seed=0, restarts=1, init=None):
    """CP-ALS one restart at a time, one sweep at a time, as a loop."""
    n1, n2, n3 = T.shape
    T0 = T.reshape(n1, n2 * n3)
    T1 = np.moveaxis(T, 1, 0).reshape(n2, n1 * n3)
    T2 = np.moveaxis(T, 2, 0).reshape(n3, n1 * n2)
    norm_T = float(np.sum(T * T))
    rng = np.random.default_rng(seed)
    best, best_res = None, np.inf
    for r in range(restarts):
        fallbacks = [0]
        if r == 0 and init is not None:
            U, V, Z = (np.hstack([X[:, :k], np.zeros((len(X), max(0, k - X.shape[1])))])
                       for X in init.factors)
        else:
            U, V, Z = (rng.standard_normal((size, k)) for size in T.shape)
        prev = np.inf
        for sweeps in range(1, iters + 1):
            U = _ref_update(T0, V, Z, fallbacks)
            V = _ref_update(T1, U, Z, fallbacks)
            Z = _ref_update(T2, U, V, fallbacks)
            res = float(np.sum((T2 - Z @ _ref_khatri_rao(U, V).T) ** 2))
            if prev - res <= tn.CP_TOL * max(norm_T, 1e-300):
                prev = res
                break
            prev = res
        fac = LowRankFactor(U, V, k, Z=Z)
        fac.meta.update(residual=prev, sweeps=sweeps, ridge_fallbacks=fallbacks[0])
        if prev < best_res:
            best, best_res = fac, prev
    return best


def _ref_tensor_comparator(A, W, P, k, inner_iters=100, restarts=3, seed=0):
    """One _ref_cp_als per 1-rectangle, placed in rectangle order."""
    M = A * W
    fits = [(r, _ref_cp_als(M[np.ix_(r.row_set, r.col_set, r.depth_set)], k, iters=inner_iters,
                            restarts=restarts, seed=seed + i))
            for i, r in enumerate(P.rectangles) if r.label == 1]
    n = A.shape[0]
    out = [np.zeros((n, k * len(fits))) for _ in range(3)]
    for j, (r, f) in enumerate(fits):
        for full, idx, X in zip(out, (r.row_set, r.col_set, r.depth_set), f.factors):
            full[idx, j * k:(j + 1) * k] = X
    return out


def _assert_same_fit(got, want):
    for a, b in zip(got.factors, want.factors):
        assert np.array_equal(a, b)
    assert got.meta == want.meta


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("restarts", [1, 2, 3])
def test_cp_als_restarts_in_lockstep_match_one_at_a_time(k, restarts):
    rng = np.random.default_rng(10 * k + restarts)
    T = rng.standard_normal((5, 4, 6))
    for iters in (1, 7, 100):
        _assert_same_fit(cp_als(T, k, iters=iters, seed=restarts, restarts=restarts),
                         _ref_cp_als(T, k, iters=iters, seed=restarts, restarts=restarts))
    init = LowRankFactor(rng.standard_normal((5, 1)), rng.standard_normal((4, 1)), 1,
                         Z=rng.standard_normal((6, 1)))
    _assert_same_fit(cp_als(T, k, iters=20, restarts=restarts, init=init),
                     _ref_cp_als(T, k, iters=20, restarts=restarts, init=init))


def _unique_shape_partition(n):
    """Order-3 boxes of pairwise different shapes: rows, columns and depths
    cut at different points, every box 1-labeled but the first."""
    cuts = (np.split(np.arange(n), [1]), np.split(np.arange(n), [2]), np.split(np.arange(n), [3]))
    sets = [(r, c, d) for r in cuts[0] for c in cuts[1] for d in cuts[2]]
    labels = [int(i > 0) for i in range(len(sets))]
    return PartitionSample(Boxes.pack(labels, sets, 3), n, "manual", len(sets) - 1, order=3)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("restarts", [1, 2, 3])
def test_comparator_stacks_match_one_fit_per_box(k, restarts):
    """Repeated shapes (a neq3 partition) and unique shapes (a manual one)
    give the factors of one loop of per-box fits, bit for bit."""
    n = 8
    inst = gen_planted("tensor3", Diagonal3(), n, k, seed=k)
    A, W = np.asarray(inst.A), inst.W.bitmap
    for P in (multiparty_partition(neq3_multiparty(n, 0.25), seed=restarts),
              _unique_shape_partition(n)):
        F = tensor_comparator(A, W, P, k, inner_iters=15, restarts=restarts, seed=4)
        for got, want in zip(F.factors, _ref_tensor_comparator(A, W, P, k, 15, restarts, 4)):
            assert np.array_equal(got, want)


def _stack_runs(tensors, starts, iters):
    """tn._cp_runs on the tensors stacked, and each run alone through the loop."""
    out, res, sweeps, fallbacks = tn._cp_runs(np.stack(tensors), starts, iters)
    for i, (T, start) in enumerate(zip(tensors, starts)):
        init = LowRankFactor(start[0], start[1], start[0].shape[1], Z=start[2])
        want = _ref_cp_als(T, start[0].shape[1], iters=iters, init=init)
        for got, ref in zip(out, want.factors):
            assert np.array_equal(got[i], ref)
        assert (res[i], sweeps[i], fallbacks[i]) == (
            want.meta["residual"], want.meta["sweeps"], want.meta["ridge_fallbacks"])
    return sweeps, fallbacks


def test_a_run_stops_at_its_tolerance_while_its_stack_mates_go_on():
    rng = np.random.default_rng(12)
    u, v, z = rng.standard_normal((3, 4))
    tensors = [_rank1(u, v, z), rng.standard_normal((4, 4, 4)), rng.standard_normal((4, 4, 4))]
    starts = [[rng.standard_normal((4, 2)) for _ in range(3)] for _ in tensors]
    sweeps, _ = _stack_runs(tensors, starts, 30)
    # the rank-1 run stops first, one more stops at its tolerance, one at the cap
    assert sweeps[0] < sweeps[2] < sweeps[1] == 30


def test_a_singular_gram_takes_the_ridge_in_its_own_run_only():
    rng = np.random.default_rng(13)
    tensors = list(rng.standard_normal((3, 5, 5, 5)))
    starts = [[rng.standard_normal((5, 2)) for _ in range(3)] for _ in tensors]
    for X in starts[1]:
        X[:, 1] = 0.0  # a zero column: every Gram of this run is singular
    sweeps, fallbacks = _stack_runs(tensors, starts, 8)
    assert fallbacks[1] > 0 and fallbacks[0] == fallbacks[2] == 0
    # a degenerate box: one row and one depth index
    T = rng.standard_normal((4, 1, 15, 1))
    starts = [[rng.standard_normal((size, 2)) for size in (1, 15, 1)] for _ in T]
    _stack_runs(list(T), starts, 30)


@pytest.mark.parametrize("n", [4, 16])
def test_tensor_comparator_rejects_a_partition_of_another_n(n):
    A = np.random.default_rng(14).standard_normal((8, 8, 8))
    P = multiparty_partition(neq3_multiparty(n, 0.5), seed=0)
    with pytest.raises(ShapeError, match=f"n={n}"):
        tensor_comparator(A, make_mask(Diagonal3(), 8), P, 1)


def test_tensor_comparator_rejects_an_order_2_partition():
    from maskedlra import equality_hash, sample_partition

    A = np.random.default_rng(15).standard_normal((8, 8, 8))
    P = sample_partition(equality_hash(8, 0.5), seed=0)
    with pytest.raises(ShapeError, match="order-2"):
        tensor_comparator(A, make_mask(Diagonal3(), 8), P, 1)
