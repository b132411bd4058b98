"""Row leverage, heavy rows, and the patched bound."""

import numpy as np
import pytest

from maskedlra import (
    AllOnes,
    Diagonal,
    Explicit,
    LowRankFactor,
    ParameterError,
    gen_planted,
    heavy_row_set,
    leverage_scores,
    make_mask,
    masked_lra,
    row_patch_comparator,
    verify_structural_bicriteria,
)
from maskedlra.harness import sparse_pattern


def _factor(M: np.ndarray, r: int) -> LowRankFactor:
    return LowRankFactor(M, np.eye(M.shape[1]), r)


def test_leverage_identity_rows():
    M = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    tau = leverage_scores(_factor(M, 2))
    assert np.allclose(tau, [1.0, 1.0, 0.0])
    assert abs(tau.sum() - 2.0) <= 1e-9


def test_leverage_shared_direction():
    M = np.ones((2, 1))
    tau = leverage_scores(_factor(M, 1))
    assert np.allclose(tau, [0.5, 0.5])


def test_leverage_zero_matrix():
    tau = leverage_scores(_factor(np.zeros((4, 2)), 2))
    assert np.array_equal(tau, np.zeros(4))


def test_leverage_sampled_maximization_oracle():
    """tau_i upper-bounds the mass fraction any column-space vector puts on
    row i; the oracle samples ten thousand random directions first."""
    rng = np.random.default_rng(3)
    U = rng.standard_normal((6, 2))
    V = rng.standard_normal((6, 2))
    L = LowRankFactor(U, V, 2)
    M = L.value()
    vecs = M @ rng.standard_normal((6, 10_000))  # random column-space vectors
    mass = vecs**2
    denom = mass.sum(axis=0)
    keep = denom > 1e-12
    frac = (mass[:, keep] / denom[keep]).max(axis=1)
    tau = leverage_scores(L)
    assert (tau >= frac - 1e-9).all()


def test_leverage_sum_equals_rank_sweep():
    rng = np.random.default_rng(7)
    for trial in range(25):
        r = int(rng.integers(1, 4))
        U = rng.standard_normal((10, r))
        V = rng.standard_normal((8, r))
        tau = leverage_scores(LowRankFactor(U, V, r))
        assert abs(tau.sum() - r) <= 1e-9, trial
        assert (tau >= 0).all() and (tau <= 1 + 1e-12).all()


def test_heavy_rows_single_spike():
    n = 6
    e1 = np.zeros((n, 1))
    e1[0, 0] = 1.0
    spike = LowRankFactor(2.0 * e1, e1, 1)  # 2 at (0, 0), zero elsewhere
    W = make_mask(Diagonal(), n)
    hs = heavy_row_set(spike, W, 0.5, 1)
    assert 0 in set(hs.S)
    assert hs.off_mass == 0.0
    assert len(hs.S) <= hs.budget


def test_heavy_rows_zero_diagonal_no_off_mass():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((8, 8))
    np.fill_diagonal(M, 0.0)
    W = make_mask(Diagonal(), 8)
    hs = heavy_row_set(_factor(M, 8), W, 0.5, 8)
    assert hs.off_mass == 0.0


def test_heavy_rows_bound_random_sweep():
    """Greedy top-mass selection meets the off/on mass ratio bound on two
    hundred seeded instances."""
    rng = np.random.default_rng(13)
    n = 24
    W = make_mask(Diagonal(), n)  # t = 1 zero per column
    for trial in range(200):
        k = int(rng.integers(1, 4))
        eps = (0.2, 0.5)[trial % 2]
        L = LowRankFactor(rng.standard_normal((n, k)), rng.standard_normal((n, k)), k)
        hs = heavy_row_set(L, W, eps, k)
        assert len(hs.S) <= hs.budget
        assert hs.off_mass <= eps / (1 - eps) * hs.on_mass + 1e-9, trial


def test_heavy_rows_validates_rank():
    rng = np.random.default_rng(1)
    L = LowRankFactor(rng.standard_normal((6, 3)), rng.standard_normal((6, 3)), 3)
    with pytest.raises(ParameterError):
        heavy_row_set(L, make_mask(Diagonal(), 6), 0.5, 2)  # rank bound above k


def test_row_patch_empty_set_is_identity():
    rng = np.random.default_rng(15)
    L = LowRankFactor(rng.standard_normal((8, 2)), rng.standard_normal((8, 2)), 2)
    W = make_mask(Diagonal(), 8)
    patched = row_patch_comparator(rng.standard_normal((8, 8)), W, L, ())
    assert np.allclose(patched.value(), L.value(), atol=1e-12)
    assert patched.rank_bound == 2


def test_row_patch_full_set_reproduces_masked_matrix():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((6, 6))
    W = make_mask(Diagonal(), 6)
    # |S| + rank must fit inside the dimensions, so rank 0 base here
    zero = LowRankFactor(np.zeros((6, 0)), np.zeros((6, 0)), 0)
    patched = row_patch_comparator(A, W, zero, range(6))
    assert np.allclose(patched.value(), A * W.bitmap, atol=1e-12)


def test_row_patch_rank_accounting():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((10, 10))
    W = make_mask(Diagonal(), 10)
    L = LowRankFactor(rng.standard_normal((10, 2)), rng.standard_normal((10, 2)), 2)
    S = (1, 4, 7)
    patched = row_patch_comparator(A, W, L, S)
    assert patched.rank_bound == 2 + 3
    sv = np.linalg.svd(patched.value(), compute_uv=False)
    assert (sv > 1e-9).sum() <= 5


def test_row_patch_planted_bound():
    eps = 0.25
    k = 2
    inst = gen_planted("matrix", Diagonal(), 24, k, seed=21)
    hs = heavy_row_set(inst.L_star, inst.W, eps, k)
    patched = row_patch_comparator(inst.A, inst.W, inst.L_star, hs.S)
    M = inst.A * inst.W.bitmap
    gap = float(np.sum((M - patched.value()) ** 2))
    a_norm = float(np.sum(inst.A**2))
    assert gap <= inst.opt_upper + eps * a_norm + 1e-9


def test_verify_structural_planted_diagonal():
    inst = gen_planted("matrix", Diagonal(), 48, 2, seed=4)
    rep = verify_structural_bicriteria(inst.A, inst.W, 2, 0.25, inst.opt_upper)
    assert rep.satisfied
    assert rep.diagnostics["t"] == 1
    assert rep.k_prime == min(48, int(np.ceil(6 * 2 * 1 / 0.25)))


def test_verify_structural_planted_sparse():
    pattern = sparse_pattern(60, 3, seed=2)
    inst = gen_planted("matrix", pattern, 60, 2, seed=5)
    rep = verify_structural_bicriteria(inst.A, inst.W, 2, 0.5, inst.opt_upper)
    assert rep.satisfied


def test_verify_structural_zero_matrix():
    W = make_mask(Diagonal(), 12)
    rep = verify_structural_bicriteria(np.zeros((12, 12)), W, 1, 0.5, 0.0)
    assert rep.cost == 0.0
    assert rep.satisfied


def test_verify_structural_on_a_mask_without_zeros_solves_at_rank_one():
    # t = 0 gives ceil(6 k t / eps) = 0, floored to k' = 1
    A = np.random.default_rng(0).standard_normal((8, 8))
    cert = verify_structural_bicriteria(A, make_mask(AllOnes(), 8), 1, 0.5, 0.0)
    assert cert.diagnostics["t"] == 0 and cert.k_prime == 1


@pytest.mark.parametrize("n, eps, k_prime, driver", [
    (64, 0.5, 12, "syevd"), (128, 0.25, 24, "syevd"),
])
def test_verify_structural_fails_a_bound_the_solve_exceeds(n, eps, k_prime, driver):
    # the identity under a mask whose zeros lie on a cyclic shift (t = 1): the
    # zero fill is the identity itself, so the rank-k' solve leaves n - k'
    # against eps * ||A||^2 = 32
    B = np.ones((n, n), dtype=np.uint8)
    B[np.arange(n), (np.arange(n) + 1) % n] = 0
    W = make_mask(Explicit(B), n)
    cert = verify_structural_bicriteria(np.eye(n), W, 1, eps, 0.0)
    assert cert.diagnostics["t"] == 1 and cert.k_prime == k_prime
    assert masked_lra(np.eye(n), W, k_prime).meta["svd_driver"] == driver
    assert cert.cost == pytest.approx(n - k_prime) and cert.rhs == pytest.approx(32.0)
    assert not cert.satisfied and cert.cost > cert.rhs


def test_heavy_rows_read_t_from_a_raw_mask():
    M = np.random.default_rng(3).standard_normal((8, 8))
    W = make_mask(Diagonal(), 8)
    want = heavy_row_set(_factor(M, 8), W, 0.5, 8)
    assert heavy_row_set(_factor(M, 8), W.bitmap, 0.5, 8) == want
    assert want.budget == 16  # t = 1 zero per column
    assert heavy_row_set(_factor(M, 8), np.ones((8, 8)), 0.5, 8).budget == 0


def _rank_one(n):
    return LowRankFactor(np.ones((n, 1)), np.ones((n, 1)), 1)


@pytest.mark.parametrize("call, match", [
    (lambda W: heavy_row_set(_rank_one(4), W, 0.0, 1), r"eps=0.0 must be in \(0, 1\)"),
    (lambda W: heavy_row_set(_rank_one(4), W, 1.0, 1), r"eps=1.0 must be in \(0, 1\)"),
    (lambda W: heavy_row_set(_rank_one(4), W, 0.5, 0), "k=0 must be positive"),
    (lambda W: row_patch_comparator(np.ones((4, 4)), W, _rank_one(4), (0, 1, 2, 3)),
     "patched rank bound exceeds min dimension"),
    (lambda W: verify_structural_bicriteria(np.ones((4, 4)), W.bitmap, 1, 0.5, 0.0),
     "needs a structured mask"),
    (lambda W: verify_structural_bicriteria(np.ones((4, 4)), W, 1, 1.5, 0.0),
     r"eps=1.5 must be in \(0, 1\)"),
    (lambda W: verify_structural_bicriteria(np.ones((4, 4)), W, 1, 0.0, 0.0),
     r"eps=0.0 must be in \(0, 1\)"),
    (lambda W: verify_structural_bicriteria(np.ones((4, 4)), W, 1, 1.0, 0.0),
     r"eps=1.0 must be in \(0, 1\)"),
    (lambda W: verify_structural_bicriteria(np.ones((4, 4)), W, 0, 0.5, 0.0),
     "k=0 must be positive"),
])
def test_bad_structural_argument_is_a_parameter_error(call, match):
    with pytest.raises(ParameterError, match=match):
        call(make_mask(Diagonal(), 4))
