"""Dense kernels: products, truncated SVD, masked cost."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from maskedlra import (
    Diagonal3,
    NumericalError,
    ParameterError,
    LowRankFactor,
    ShapeError,
    Banded,
    altmin_baseline,
    banded_gt,
    chain_inequality_check,
    comparator_from_partition,
    cp_als,
    gen_planted,
    leverage_scores,
    masked_cost,
    masked_tensor_lra,
    sample_partition,
    svd_truncated,
    verify_tensor_bicriteria,
)
from maskedlra.linalg import _als_start, _spd_solve, _svd_stack, within, zero_factor


def test_entrywise_norm_matches_singular_values():
    # oracle: sum of squared singular values from a full reference SVD; the
    # masked cost of the zero factor under an all-ones mask is ||A||_F^2
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 5))
    sigma = np.linalg.svd(A, compute_uv=False)
    want = float(np.sum(sigma**2))
    got = masked_cost(A, np.ones((5, 5)), zero_factor(5, 5))
    assert abs(got - want) <= 1e-9 * want


def test_svd_truncated_rank_one():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(6)
    v = rng.standard_normal(4)
    A = np.outer(u, v)
    L = svd_truncated(A, 1)
    res = np.linalg.norm(A - L.value())
    assert res <= 1e-10 * np.linalg.norm(A)
    assert L.rank_bound == 1
    assert L.U.shape == (6, 1) and L.V.shape == (4, 1)


def test_svd_truncated_identity_full_rank():
    L = svd_truncated(np.eye(3), 3)
    assert np.linalg.norm(np.eye(3) - L.value()) <= 1e-12


def test_svd_truncated_tail_oracle():
    # oracle first: the tail of the full spectrum gives the optimal residual
    rng = np.random.default_rng(23)
    A = rng.standard_normal((8, 8))
    sigma = np.linalg.svd(A, compute_uv=False)
    tail = float(np.sum(sigma[2:] ** 2))
    L = svd_truncated(A, 2)
    res = float(np.sum((A - L.value()) ** 2))
    assert abs(res - tail) <= 1e-8 * tail


def test_svd_truncated_rejects_bad_rank():
    A = np.ones((3, 3))
    with pytest.raises(ParameterError):
        svd_truncated(A, 0)
    with pytest.raises(ParameterError):
        svd_truncated(A, 4)


def test_svd_truncated_deterministic():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((10, 7))
    L1 = svd_truncated(A, 3)
    L2 = svd_truncated(A, 3)
    assert np.array_equal(L1.U, L2.U) and np.array_equal(L1.V, L2.V)


def test_svd_truncated_svds_branch_matches_tail():
    # oracle: the tail of the full spectrum from svdvals
    A = np.random.default_rng(41).standard_normal((256, 256))
    sigma = scipy.linalg.svdvals(A)
    tail = float(np.sum(sigma[8:] ** 2))
    total = float(np.sum(A * A))
    L1 = svd_truncated(A, 8)
    L2 = svd_truncated(A, 8)
    assert L1.meta["svd_driver"] == "svds"
    res = float(np.sum((A - L1.value()) ** 2))
    assert abs(res - tail) <= 1e-9 * total
    assert np.array_equal(L1.U, L2.U) and np.array_equal(L1.V, L2.V)


def test_svd_truncated_zero_matrix_falls_back_to_gesdd():
    # ARPACK rejects the zero matrix ("Starting vector is zero")
    L = svd_truncated(np.zeros((256, 256)), 8)
    assert L.meta["svd_driver"] == "gesdd"
    assert np.array_equal(L.value(), np.zeros((256, 256)))


def _gesdd_failing(bad=None):
    """np.linalg.svd raising LinAlgError on a stack that holds the matrix
    bad, or on every call when bad is None."""
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        X = np.asarray(a)
        mats = X.reshape(-1, *X.shape[-2:])
        if bad is None or any(np.array_equal(M, bad) for M in mats):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    return svd


def test_svd_truncated_gesvd_fallback(monkeypatch):
    A = np.random.default_rng(43).standard_normal((10, 7))
    sigma = np.linalg.svd(A, compute_uv=False)
    monkeypatch.setattr(np.linalg, "svd", _gesdd_failing())
    L = svd_truncated(A, 3)
    assert L.meta["svd_driver"] == "gesvd"
    res = float(np.sum((A - L.value()) ** 2))
    assert abs(res - float(np.sum(sigma[3:] ** 2))) <= 1e-9 * float(np.sum(A * A))


def test_svd_truncated_every_driver_fails(monkeypatch):
    def svds(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    def gesvd(*args, **kwargs):
        raise scipy.linalg.LinAlgError("gesvd did not converge")

    monkeypatch.setattr(scipy.sparse.linalg, "svds", svds)
    monkeypatch.setattr(np.linalg, "svd", _gesdd_failing())
    monkeypatch.setattr(scipy.linalg, "svd", gesvd)
    A = np.random.default_rng(47).standard_normal((256, 256))
    with pytest.raises(NumericalError):
        svd_truncated(A, 8)


def test_svd_stack_redoes_only_the_matrix_whose_gesdd_fails(monkeypatch):
    X = np.random.default_rng(59).standard_normal((3, 6, 5))
    U, V, drivers = _svd_stack(X, 2)
    assert drivers == ["gesdd"] * 3
    for j in range(3):
        alone = svd_truncated(X[j], 2)
        assert np.array_equal(U[j], alone.U) and np.array_equal(V[j], alone.V)
    sigma = np.linalg.svd(X[1], compute_uv=False)
    monkeypatch.setattr(np.linalg, "svd", _gesdd_failing(X[1]))
    U2, V2, drivers = _svd_stack(X, 2)
    assert drivers == ["gesdd", "gesvd", "gesdd"]
    for j in (0, 2):
        assert np.array_equal(U2[j], U[j]) and np.array_equal(V2[j], V[j])
    res = float(np.sum((X[1] - U2[1] @ V2[1].T) ** 2))
    assert abs(res - float(np.sum(sigma[2:] ** 2))) <= 1e-9 * float(np.sum(X[1] ** 2))


def test_svd_truncated_svds_residual_check(monkeypatch):
    real = scipy.sparse.linalg.svds

    def svds(*args, **kwargs):
        U, s, Vt = real(*args, **kwargs)
        return U, s * 1.01, Vt

    monkeypatch.setattr(scipy.sparse.linalg, "svds", svds)
    A = np.random.default_rng(53).standard_normal((256, 256))
    with pytest.raises(NumericalError):
        svd_truncated(A, 8)


def _a2_zero_fill(n):
    """The zero fill of a planted a2 instance: sparse mask, t = 2, k = 2."""
    from maskedlra import make_mask
    from maskedlra.harness import sparse_pattern

    W = make_mask(sparse_pattern(n, 2, 0), n)
    return gen_planted("matrix", W.pattern, n, 2, seed=0).A * W.bitmap


_SYEVD_CASES = {
    "gaussian-256": (lambda: np.random.default_rng(67).standard_normal((256, 256)), 64),
    "a2-planted-512": (lambda: _a2_zero_fill(512), 96),
    "tall-300x200": (lambda: np.random.default_rng(67).standard_normal((300, 200)), 64),
    "wide-200x300": (lambda: np.random.default_rng(67).standard_normal((200, 300)), 64),
    "identity-128": (lambda: np.eye(128), 32),
}


@pytest.mark.parametrize("name", list(_SYEVD_CASES))
def test_svd_truncated_syevd_branch_matches_tail(name):
    # oracle: the tail of the full spectrum from svdvals
    make, k = _SYEVD_CASES[name]
    A = make()
    sigma = scipy.linalg.svdvals(A)
    total = float(np.sum(A * A))
    L1 = svd_truncated(A, k)
    L2 = svd_truncated(A, k)
    assert L1.meta["svd_driver"] == "syevd"
    res = float(np.sum((A - L1.value()) ** 2))
    assert abs(res - float(np.sum(sigma[k:] ** 2))) <= 1e-9 * total
    # U carries the singular values and V is orthonormal, in both orientations
    assert np.allclose(np.linalg.norm(L1.U, axis=0), sigma[:k], rtol=0, atol=1e-9 * sigma[0])
    assert np.allclose(L1.V.T @ L1.V, np.eye(k), rtol=0, atol=1e-9)
    assert np.array_equal(L1.U, L2.U) and np.array_equal(L1.V, L2.V)


def test_svd_truncated_eigh_failure_falls_back_to_gesdd(monkeypatch):
    def eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    A = np.random.default_rng(71).standard_normal((128, 128))
    sigma = np.linalg.svd(A, compute_uv=False)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    L = svd_truncated(A, 32)
    assert L.meta["svd_driver"] == "gesdd"
    res = float(np.sum((A - L.value()) ** 2))
    assert abs(res - float(np.sum(sigma[32:] ** 2))) <= 1e-9 * float(np.sum(A * A))


@pytest.mark.parametrize("shape", [(256, 256), (200, 300)])
def test_svd_truncated_syevd_residual_check(monkeypatch, shape):
    real = np.linalg.eigh

    def eigh(*args, **kwargs):
        lam, Q = real(*args, **kwargs)
        return lam * 1.01, Q

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    A = np.random.default_rng(73).standard_normal(shape)
    with pytest.raises(NumericalError, match="syevd residual"):
        svd_truncated(A, 64)


def test_masked_cost_all_mismatch_masked():
    from maskedlra import Diagonal, make_mask

    W = np.eye(3)  # ones only on the diagonal
    Wc = make_mask(Diagonal(), 3)  # zeros on the diagonal
    zero = svd_truncated(np.eye(3) * 0 + 1e-300, 1)
    # identity differs from 0 only on the diagonal, which Wc masks out
    assert masked_cost(np.eye(3), Wc, zero) <= 1e-299
    assert masked_cost(np.ones((3, 3)), W, zero) == pytest.approx(3.0)


def test_masked_cost_ones_minus_identity():
    from maskedlra import Diagonal, make_mask

    A = np.ones((2, 2))
    W = make_mask(Diagonal(), 2)
    zero = type(svd_truncated(A, 1))(np.zeros((2, 1)), np.zeros((2, 1)), 1)
    assert masked_cost(A, W, zero) == 2.0


def test_masked_cost_matches_definition():
    # definitional cross-check against an entrywise product + a sum of squares
    rng = np.random.default_rng(19)
    A = rng.standard_normal((6, 6))
    bits = (rng.random((6, 6)) < 0.6).astype(np.uint8)
    from maskedlra import Explicit, make_mask

    W = make_mask(Explicit(bits), 6)
    L = svd_truncated(A, 2)
    want = float(np.sum((bits * (A - L.value())) ** 2))
    got = masked_cost(A, W, L)
    assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_pythagorean_split():
    rng = np.random.default_rng(29)
    for trial in range(20):
        M = rng.standard_normal((8, 8))
        bits = (rng.random((8, 8)) < 0.5).astype(float)
        total = np.sum(M ** 2)
        on = np.sum((M * bits) ** 2)
        off = np.sum((M * (1 - bits)) ** 2)
        assert abs(total - on - off) <= 1e-12 * max(1.0, total)


def test_rejects_nonfinite_input():
    A = np.ones((2, 2))
    A[0, 0] = np.nan
    with pytest.raises(ParameterError):
        svd_truncated(A, 1)


# ---------------------------------------------------------------------------
# mask arguments: linalg.as_bitmap is the one check of every solver's W


def _with_entry(value, order=2, n=4):
    """An all-ones raw mask with one off-diagonal cell set to value."""
    W = np.ones((n,) * order)
    W[(1,) + (0,) * (order - 1)] = value
    return W


def _entry_cases():
    from maskedlra import (
        altmin_baseline,
        bool_cost,
        comparator_from_partition,
        cover_based_bool_lra,
        empirical_error_rates,
        equality_hash,
        masked_lra,
        masked_tensor_lra,
        nondet_cover,
        sample_partition,
    )
    from maskedlra.io import write_bitmap

    A, B = np.ones((4, 4)), np.ones((4, 4), dtype=np.uint8)
    return {
        "masked_cost": (2, lambda W, tmp: masked_cost(A, W, zero_factor(4, 4))),
        "masked_lra": (2, lambda W, tmp: masked_lra(A, W, 1)),
        "comparator_from_partition": (2, lambda W, tmp: comparator_from_partition(
            A, W, sample_partition(equality_hash(4, 0.5)), 1)),
        "altmin_baseline": (2, lambda W, tmp: altmin_baseline(A, W, 1, iters=1)),
        "empirical_error_rates": (2, lambda W, tmp: empirical_error_rates(
            equality_hash(4, 0.5), W, 10)),
        "bool_cost": (2, lambda W, tmp: bool_cost(B, B, W)),
        "cover_based_bool_lra": (2, lambda W, tmp: cover_based_bool_lra(
            B, W, nondet_cover("neq-bits", 4), 1)),
        "masked_tensor_lra": (3, lambda W, tmp: masked_tensor_lra(np.ones((4, 4, 4)), W, 1)),
        "write_bitmap": (2, lambda W, tmp: write_bitmap(tmp / "w.mlrb", W)),
    }


@pytest.mark.parametrize("value", [2, 0.5])
@pytest.mark.parametrize("name", list(_entry_cases()))
def test_raw_mask_entries_must_be_binary(tmp_path, name, value):
    order, call = _entry_cases()[name]
    with pytest.raises(ParameterError, match="bitmap entries must be 0 or 1"):
        call(_with_entry(value, order), tmp_path)


def _shape_cases():
    from maskedlra import (
        Diagonal,
        Diagonal3,
        LowRankFactor,
        altmin_baseline,
        heavy_row_set,
        make_mask,
        masked_tensor_lra,
        multiparty_partition,
        neq3_multiparty,
        row_patch_comparator,
        tensor_comparator,
        verify_tensor_bicriteria,
    )

    A, T = np.ones((4, 4)), np.ones((4, 4, 4))
    L = LowRankFactor(np.ones((4, 1)), np.ones((4, 1)), 1)
    P = multiparty_partition(neq3_multiparty(4, 0.5))
    return {
        "altmin_baseline": lambda: altmin_baseline(A, np.ones((4, 5)), 1, iters=1),
        "masked_tensor_lra": lambda: masked_tensor_lra(T, np.ones((4, 4, 5)), 1),
        "tensor_comparator": lambda: tensor_comparator(T, np.ones((5, 5, 5)), P, 1),
        "row_patch_comparator": lambda: row_patch_comparator(
            A, make_mask(Diagonal(), 5), L, ()),
        "heavy_row_set": lambda: heavy_row_set(L, make_mask(Diagonal(), 5), 0.5, 1),
        "verify_tensor_bicriteria": lambda: verify_tensor_bicriteria(
            T, make_mask(Diagonal3(), 5), 1, 0.5),
    }


@pytest.mark.parametrize("name", list(_shape_cases()))
def test_mask_of_another_shape_is_a_shape_error(name):
    with pytest.raises(ShapeError, match="mask shape"):
        _shape_cases()[name]()


def test_as_bitmap_keeps_a_mask_unchecked_and_a_binary_array_as_is():
    from maskedlra import Diagonal, make_mask
    from maskedlra.linalg import as_bitmap

    W = make_mask(Diagonal(), 3)
    assert as_bitmap(W, np.uint8, (3, 3)) is W.bitmap
    bits = np.array([[False, True], [True, False]])
    assert np.array_equal(as_bitmap(bits, np.float64), [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ParameterError):
        as_bitmap(np.array([[np.nan, 1.0]]), np.uint8)


# ---------------------------------------------------------------------------
# LowRankFactor of order 3 and the start both ALS solvers share


def test_order3_factor_checks_its_factors():
    col = np.ones((3, 1))
    with pytest.raises(ShapeError):
        LowRankFactor(np.ones(3), np.ones(3), 1, Z=np.ones(3))
    with pytest.raises(ShapeError):
        LowRankFactor(col, col, 1, Z=np.ones(3))
    with pytest.raises(ShapeError, match="widths differ"):
        LowRankFactor(col, col, 2, Z=np.ones((3, 2)))
    with pytest.raises(ParameterError, match="finite"):
        LowRankFactor(col, col, 1, Z=np.array([[1.0], [np.nan], [1.0]]))


def test_zero_factor_of_order_3():
    A = np.random.default_rng(2).standard_normal((4, 3, 5))
    F = zero_factor(4, 3, 5)
    assert F.shape == (4, 3, 5) and len(F.factors) == 3
    assert masked_cost(A, np.ones((4, 3, 5)), F) == float(np.sum(A * A))


def _factor(factors, k):
    return LowRankFactor(factors[0], factors[1], k, Z=factors[2] if len(factors) == 3 else None)


_SOLVERS = {
    2: lambda A, k, **kw: altmin_baseline(A, np.ones(A.shape), k, iters=2, **kw),
    3: lambda A, k, **kw: cp_als(A, k, iters=2, **kw),
}


@pytest.mark.parametrize("order", [2, 3])
def test_both_als_solvers_share_one_start(order):
    solve = _SOLVERS[order]
    shape, k = (5, 4, 6)[:order], 2
    rng = np.random.default_rng(order)
    A = rng.standard_normal(shape)
    narrow = [rng.standard_normal((size, 1)) for size in shape]
    wide = [rng.standard_normal((size, 3)) for size in shape]
    padded = [np.hstack([X, np.zeros((len(X), 1))]) for X in narrow]
    # a narrow init is zero-padded to width k, a wide one cut to width k
    for init, same in ((narrow, padded), (wide, [X[:, :k] for X in wide])):
        F = solve(A, k, init=_factor(init, init[0].shape[1]))
        G = solve(A, k, init=_factor(same, k))
        assert [X.shape for X in F.factors] == [(size, k) for size in shape]
        assert all(np.array_equal(X, Y) for X, Y in zip(F.factors, G.factors))
    # without an init, each axis draws standard_normal((size, k)) in axis order
    old = np.random.default_rng(7)
    draws = [old.standard_normal((size, k)) for size in shape]
    start = _als_start(None, shape, k, np.random.default_rng(7))
    assert all(np.array_equal(X, Y) for X, Y in zip(start, draws))
    F, G = solve(A, k, seed=7), solve(A, k, init=_factor(draws, k))
    assert all(np.array_equal(X, Y) for X, Y in zip(F.factors, G.factors))


def test_als_start_rejects_an_init_of_another_shape():
    with pytest.raises(ShapeError, match="init shape"):
        cp_als(np.ones((3, 3, 3)), 1, init=zero_factor(3, 3, 4))
    with pytest.raises(ShapeError, match="init shape"):
        altmin_baseline(np.ones((3, 3)), np.ones((3, 3)), 1, init=zero_factor(3, 3, 3))


def test_als_solves_need_no_scipy_cholesky(monkeypatch):
    # the ALS solves stay on numpy's LAPACK, so they never alternate numpy's
    # BLAS runtime with the second one scipy links
    def refuse(*args, **kwargs):
        raise AssertionError("an ALS solve called scipy's Cholesky")

    monkeypatch.setattr(scipy.linalg, "cho_factor", refuse)
    monkeypatch.setattr(scipy.linalg, "cho_solve", refuse)
    rng = np.random.default_rng(11)
    A = rng.standard_normal((9, 7))
    W = (rng.random((9, 7)) < 0.6).astype(np.float64)
    W[0] = 0.0
    L = altmin_baseline(A, W, 2, iters=3)
    assert np.isfinite(L.meta["cost"])
    T = rng.standard_normal((5, 4, 6))
    F = masked_tensor_lra(T, (rng.random(T.shape) < 0.7).astype(np.float64), 2, iters=3)
    assert np.isfinite(F.meta["residual"])
    # a zero-padded init makes the Grams singular, so the ridge path runs too
    narrow = _factor([rng.standard_normal((size, 1)) for size in T.shape], 1)
    F = cp_als(T, 2, iters=3, init=narrow)
    assert F.meta["ridge_fallbacks"] > 0


def _scaled_tensor_certificate():
    inst = gen_planted("tensor3", Diagonal3(), 8, 2, noise_sigma=0.1, seed=3)
    return verify_tensor_bicriteria(1e4 * inst.A, inst.W, 2, 0.25, opt_upper=1e8 * inst.opt_upper)


@pytest.mark.parametrize("call", [
    lambda: _spd_solve(np.full((1, 2, 2), 1e16), np.ones((1, 2, 1))),
    _scaled_tensor_certificate,
], ids=["spd_solve", "tensor"])
def test_a_failed_ridge_solve_is_a_numerical_error(call):
    # the ridge falls below the Gram's roundoff, so the ridged Gram is
    # singular too
    with pytest.raises(NumericalError, match="ridge solve failed"):
        call()


def test_within_allows_relative_and_scaled_roundoff():
    assert within(1.0 + 5e-10, 1.0, 0.0) and not within(1.0 + 2e-9, 1.0, 0.0)
    assert within(5e-13, 0.0, 1.0) and not within(2e-12, 0.0, 1.0)
    for c2 in (1e-16, 1.0, 1e8):
        assert within(c2 * 52.0, c2 * 52.0, 0.0) and not within(c2 * 52.0, c2 * 32.0, 0.0)


def test_gesdd_runs_through_numpy_alone(monkeypatch):
    # every gesdd goes through np.linalg.svd, so the SVDs never alternate
    # numpy's BLAS runtime with the second one scipy links; scipy keeps only
    # the gesvd fallback
    real = scipy.linalg.svd

    def svd(a, *args, lapack_driver="gesdd", **kwargs):
        if lapack_driver == "gesdd":
            raise AssertionError("a gesdd ran through scipy")
        return real(a, *args, lapack_driver=lapack_driver, **kwargs)

    monkeypatch.setattr(scipy.linalg, "svd", svd)
    A = np.random.default_rng(61).standard_normal((10, 7))
    assert svd_truncated(A, 3).meta["svd_driver"] == "gesdd"
    inst = gen_planted("matrix", Banded(4), 32, 2, seed=0)
    P = sample_partition(banded_gt(32, 4, 0.25), seed=0)
    L = comparator_from_partition(inst.A, inst.W, P, 2)
    assert L.rank_bound == 2 * P.one_count
    assert chain_inequality_check(inst.A, inst.W, P, 2)
    tau = leverage_scores(L)
    assert tau.shape == (32,) and np.all((tau >= -1e-12) & (tau <= 1 + 1e-12))


@pytest.mark.parametrize("call, error, match", [
    (lambda: LowRankFactor(np.ones((4, 2)), np.ones((4, 2)), 1), ParameterError,
     "rank_bound below factor width"),
    (lambda: LowRankFactor(np.ones((4, 2)), np.ones((4, 2)), 1, Z=np.ones((4, 2))),
     ParameterError, "rank_bound below factor width"),
    (lambda: masked_cost(np.ones((4, 4)), np.ones((4, 4)), zero_factor(3, 4)), ShapeError,
     r"masked_cost shapes differ: A \(4, 4\), L \(3, 4\)"),
    (lambda: masked_cost(np.ones((2, 2, 2)), np.ones((2, 2, 2)),
                         zero_factor(2, 2, 3)), ShapeError, "masked_cost shapes differ"),
])
def test_factor_width_and_cost_shape_errors_are_typed(call, error, match):
    with pytest.raises(error, match=match):
        call()
