"""Zero-fill solver, rectangle comparator, bound reports, altmin baseline."""

import numpy as np
import pytest

from maskedlra import (
    AllOnes,
    Banded,
    Banded2D,
    BlockDiagonal,
    BlockSparse,
    Diagonal,
    LowRankFactor,
    Monotone,
    ParameterError,
    ToeplitzModP,
    altmin_baseline,
    banded_gt,
    chain_inequality_check,
    comparator_from_partition,
    eq_mod_p,
    equality_hash,
    gen_planted,
    make_mask,
    masked_cost,
    masked_lra,
    rank_budget,
    sample_partition,
    svd_truncated,
    verify_bicriteria,
)
from maskedlra.harness import sparse_pattern
from maskedlra.protocols import target_bitmap


def test_masked_lra_vanishing_support():
    # A = identity with the diagonal masked away: nothing left to fit
    W = make_mask(Diagonal(), 5)
    L = masked_lra(np.eye(5), W, 2)
    assert masked_cost(np.eye(5), W, L) <= 1e-24


def test_masked_lra_all_ones_is_svd():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((9, 9))
    W = make_mask(AllOnes(), 9)
    L1 = masked_lra(A, W, 3)
    L2 = svd_truncated(A, 3)
    assert np.array_equal(L1.value(), L2.value())


def test_masked_lra_planted_bound():
    """Planted exact instances: cost at the certified rank stays under the
    2*eps fraction of the masked mass."""
    eps = 0.25
    for seed in range(5):
        inst = gen_planted("matrix", Diagonal(), 32, 2, seed=seed)
        kp = rank_budget(Diagonal(), 2, eps)
        L = masked_lra(inst.A, inst.W, kp)
        mass = float(np.sum((inst.A * inst.W.bitmap) ** 2))
        assert masked_cost(inst.A, inst.W, L) <= 2 * eps * mass + 1e-9 * mass


def test_masked_lra_methods_agree_roughly():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((24, 24))
    W = make_mask(Diagonal(), 24)
    exact = masked_cost(A, W, masked_lra(A, W, 6, method="exact"))
    rand = masked_cost(A, W, masked_lra(A, W, 6, method="randomized", seed=1))
    assert rand >= exact - 1e-9
    assert rand <= 2.0 * exact + 1e-9  # sketch slack stays moderate at this size


def test_comparator_single_rectangle_is_svd():
    from maskedlra import PartitionSample, Rectangle

    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 8))
    W = make_mask(AllOnes(), 8)
    full = Rectangle(np.arange(8), np.arange(8), 1)
    P = PartitionSample([full], 8, "manual", 1)
    Lbar = comparator_from_partition(A, W, P, 2)
    assert np.allclose(Lbar.value(), svd_truncated(A, 2).value(), atol=1e-12)


def test_comparator_injective_partition_reproduces_masked_matrix():
    """Injective buckets make every 1-rectangle a single row: the rank-1 fit
    per rectangle is exact and the comparator equals A with W applied."""
    n = 4
    spec = equality_hash(n, delta=1.0 / n)
    W = make_mask(Diagonal(), n)
    target = make_mask(Diagonal(), n).bitmap
    rng = np.random.default_rng(21)
    A = rng.standard_normal((n, n))
    for seed in range(64):
        from maskedlra import protocol_matrix

        if not np.array_equal(protocol_matrix(spec, seed=seed).bitmap, target):
            continue
        P = sample_partition(spec, seed=seed)
        Lbar = comparator_from_partition(A, W, P, 1)
        assert np.allclose(Lbar.value(), A * W.bitmap, atol=1e-12)
        return
    raise AssertionError("no injective seed among 64 tries")


def test_comparator_zero_labels_zero_factor():
    A = np.ones((4, 4))
    W = make_mask(Diagonal(), 4)
    P = sample_partition(equality_hash(4, 1.0), seed=0)  # single 0-rectangle
    Lbar = comparator_from_partition(A, W, P, 1)
    assert not Lbar.value().any()


def test_comparator_support_is_bitwise_zero_outside_ones():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((16, 16))
    W = make_mask(Diagonal(), 16)
    P = sample_partition(equality_hash(16, 0.5), seed=2)
    Lbar = comparator_from_partition(A, W, P, 2)
    out = Lbar.value()
    ones = np.zeros((16, 16), dtype=bool)
    for r in P.rectangles:
        if r.label:
            ones[np.ix_(r.row_set, r.col_set)] = True
    assert (out[~ones] == 0.0).all()


def test_comparator_sums_per_rectangle_fits_in_their_blocks():
    """Four 1-rectangles of widths 1, 1, 2, 2 (k = 2, the single row caps two
    of them at 1): the factor width is their sum and the value is the sum of
    the per-rectangle truncated SVDs, each zero-extended to its block."""
    from maskedlra import PartitionSample, Rectangle

    rng = np.random.default_rng(23)
    A = rng.standard_normal((8, 8))
    W = make_mask(AllOnes(), 8)
    row_sets = (np.array([0]), np.arange(1, 8))
    col_sets = (np.arange(4), np.arange(4, 8))
    rects = [Rectangle(r, c, 1) for r in row_sets for c in col_sets]
    P = PartitionSample(rects, 8, "manual", len(rects))
    Lbar = comparator_from_partition(A, W, P, 2)
    assert Lbar.U.shape[1] == 6
    assert Lbar.rank_bound == 8
    want = np.zeros((8, 8))
    for r in rects:
        sub = A[np.ix_(r.row_set, r.col_set)]
        fit = svd_truncated(sub, min(2, *sub.shape))
        want[np.ix_(r.row_set, r.col_set)] += fit.value()
    assert np.allclose(Lbar.value(), want, atol=1e-12)


def test_chain_inequality_trivial_cases():
    W = make_mask(Diagonal(), 6)
    P = sample_partition(equality_hash(6, 0.5), seed=1)
    assert chain_inequality_check(np.zeros((6, 6)), W, P, 1)
    rng = np.random.default_rng(2)
    assert chain_inequality_check(rng.standard_normal((6, 6)), W, P, 2)


def test_chain_inequality_random_sweep():
    """The exact SVD at the comparator's rank never does worse than the
    comparator itself; checked over a hundred seeded draws."""
    rng = np.random.default_rng(77)
    W = make_mask(Diagonal(), 16)
    spec = equality_hash(16, 0.5)
    for trial in range(100):
        A = rng.standard_normal((16, 16))
        P = sample_partition(spec, seed=trial)
        assert chain_inequality_check(A, W, P, 1), trial


def test_verify_bicriteria_planted_diagonal():
    inst = gen_planted("matrix", Diagonal(), 64, 3, seed=4)
    rep = verify_bicriteria(inst.A, inst.W, 3, 0.25, opt_upper=inst.opt_upper)
    mass = float(np.sum((inst.A * inst.W.bitmap) ** 2))
    assert rep.satisfied
    assert rep.k_prime == rank_budget(Diagonal(), 3, 0.25)
    assert rep.rhs == pytest.approx(inst.opt_upper + 2 * 0.25 * mass)
    assert rep.eps2 == 0.0


def test_verify_bicriteria_exact_matrix():
    # A is exactly rank 2, so opt_upper = 0 is a valid certificate and the
    # mass-term bound must absorb whatever the refit at k' leaves behind
    rng = np.random.default_rng(6)
    L = LowRankFactor(rng.standard_normal((12, 2)), rng.standard_normal((12, 2)), 2)
    A = L.value()
    W = make_mask(Diagonal(), 12)
    rep = verify_bicriteria(A, W, 2, 0.5, opt_upper=0.0)
    assert rep.satisfied
    assert rep.opt_upper == 0.0
    assert rep.rhs >= 0.0
    assert rep.cost <= rep.rhs


def test_verify_bicriteria_deterministic_route_zero_additive():
    from maskedlra import ToeplitzModP

    inst = gen_planted("matrix", ToeplitzModP(2), 32, 2, seed=1)
    spec = eq_mod_p(32, 2)
    rep = verify_bicriteria(inst.A, inst.W, 2, 0.25, spec=spec, opt_upper=inst.opt_upper)
    assert rep.eps1 == 0.0  # zero-error protocol charges no mass term
    assert rep.rhs == pytest.approx(inst.opt_upper)
    assert rep.satisfied


def test_verify_bicriteria_two_sided_needs_candidate():
    inst = gen_planted("matrix", Diagonal(), 16, 1, seed=0)
    spec = banded_gt(16, 1, 0.25)
    with pytest.raises(ParameterError):
        verify_bicriteria(inst.A, inst.W, 1, 0.25, spec=spec, opt_upper=0.0)


def test_verify_bicriteria_rhs_is_sum_of_summands():
    from maskedlra import Banded

    inst = gen_planted("matrix", Banded(2), 32, 2, seed=3)
    spec = banded_gt(32, 2, 0.25)
    rep = verify_bicriteria(
        inst.A, inst.W, 2, 0.25, spec=spec,
        opt_upper=inst.opt_upper, L_for_eps2=inst.L_star, seed=5,
    )
    mass_on = float(np.sum((inst.A * inst.W.bitmap) ** 2))
    off = float(np.sum((inst.L_star.value() * (1 - inst.W.bitmap)) ** 2))
    want = rep.opt_upper + rep.eps1 * mass_on + rep.eps2 * off
    assert rep.rhs == pytest.approx(want, rel=1e-12)


def test_altmin_matches_svd_on_full_mask():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((12, 12))
    W = make_mask(AllOnes(), 12)
    base = masked_cost(A, W, svd_truncated(A, 2))
    L = altmin_baseline(A, W, 2, iters=50, restarts=3, seed=0)
    got = masked_cost(A, W, L)
    assert got <= base * (1 + 1e-6) + 1e-12


def test_altmin_monotone_from_planted_init():
    inst = gen_planted("matrix", Diagonal(), 16, 2, seed=9)
    init_cost = masked_cost(inst.A, inst.W, inst.L_star)
    L = altmin_baseline(inst.A, inst.W, 2, iters=20, init=inst.L_star)
    assert masked_cost(inst.A, inst.W, L) <= init_cost + 1e-10


def test_altmin_rejects_zero_restarts():
    A = np.eye(2)
    with pytest.raises(ParameterError):
        altmin_baseline(A, np.ones((2, 2)), 1, restarts=0)
    # iters=0 is no sweep: the start itself comes back
    start = LowRankFactor(np.ones((2, 1)), np.ones((2, 1)), 1)
    L = altmin_baseline(A, np.ones((2, 2)), 1, iters=0, init=start)
    assert np.array_equal(L.value(), start.value())


def test_altmin_rejects_bad_rank_and_sweep_count():
    A = np.eye(3)
    W = np.ones((3, 3))
    for k in (0, -1):
        with pytest.raises(ParameterError, match=f"k={k}"):
            altmin_baseline(A, W, k)
    with pytest.raises(ParameterError, match="iters=-3"):
        altmin_baseline(A, W, 1, iters=-3)


def test_comparator_checks_k_before_any_fit():
    A = np.ones((4, 4))
    W = make_mask(Diagonal(), 4)
    one_labeled = sample_partition(equality_hash(4, 0.5), seed=0)
    zero_labeled = sample_partition(equality_hash(4, 1.0), seed=0)  # single 0-rectangle
    assert one_labeled.one_count > 0 and zero_labeled.one_count == 0
    for P in (one_labeled, zero_labeled):
        for k in (0, -2):
            with pytest.raises(ParameterError, match=f"^k={k} must be positive"):
                comparator_from_partition(A, W, P, k)


def test_altmin_half_step_trace_never_increases():
    rng = np.random.default_rng(30)
    A = rng.standard_normal((10, 10))
    W = make_mask(Diagonal(), 10)
    L = altmin_baseline(A, W, 2, iters=15, seed=4, trace=True)
    costs = L.meta["trace"]
    assert all(b <= a + 1e-10 for a, b in zip(costs, costs[1:]))


def test_altmin_comparison_is_recorded_not_asserted():
    # measurement only: altmin and the zero-fill route may land on either side
    rng = np.random.default_rng(12)
    A = rng.standard_normal((8, 8))
    W = make_mask(Diagonal(), 8)
    alt = masked_cost(A, W, altmin_baseline(A, W, 2, iters=30, restarts=10, seed=0))
    zf = masked_cost(A, W, masked_lra(A, W, rank_budget(Diagonal(), 2, 0.5)))
    assert np.isfinite(alt) and np.isfinite(zf)


def test_masked_lra_seed_determinism_randomized():
    rng = np.random.default_rng(15)
    A = rng.standard_normal((20, 20))
    W = make_mask(Diagonal(), 20)
    L1 = masked_lra(A, W, 4, method="randomized", seed=11)
    L2 = masked_lra(A, W, 4, method="randomized", seed=11)
    assert np.array_equal(L1.U, L2.U) and np.array_equal(L1.V, L2.V)


_N = 16
_BLOCKS = ((0, 1, 2, 3, 4), tuple(range(5, 11)), tuple(range(11, 16)))
_PATTERNS = {
    "diagonal": Diagonal(),
    "block-diagonal": BlockDiagonal(_BLOCKS),
    "sparse": sparse_pattern(_N, 2, 3),
    "block-sparse": BlockSparse(
        _BLOCKS, ((0, 1, 2, 3), tuple(range(4, 12)), tuple(range(12, 16))), ((1,), (0, 2), ()), 2
    ),
    "toeplitz-hashed": ToeplitzModP(8),
    "toeplitz-deterministic": ToeplitzModP(2),
    "banded": Banded(3),
    "banded-2d": Banded2D(2),
    "monotone": Monotone(
        tuple(int(v) for v in np.random.default_rng([5, _N, 0x30]).integers(0, _N + 1, size=_N))
    ),
}

# (pattern, eps, rank_budget(pattern, 2, eps, n=16), spec.describe()), as recorded
# before patterns carried their own budgets and protocols
_PINNED = [
    ("diagonal", 0.25, 8, "equality-hash(n=16, delta=0.25)"),
    ("diagonal", 0.5, 4, "equality-hash(n=16, delta=0.5)"),
    ("block-diagonal", 0.25, 8, "equality-hash(n=16, delta=0.25)"),
    ("block-diagonal", 0.5, 4, "equality-hash(n=16, delta=0.5)"),
    ("sparse", 0.25, 16, "sparse-set-eq(n=16, delta=0.25, t=2)"),
    ("sparse", 0.5, 8, "sparse-set-eq(n=16, delta=0.5, t=2)"),
    ("block-sparse", 0.25, 16, "sparse-set-eq(n=16, delta=0.25, t=2)"),
    ("block-sparse", 0.5, 8, "sparse-set-eq(n=16, delta=0.5, t=2)"),
    ("toeplitz-hashed", 0.25, 8, "eq-mod-p(n=16, delta=0.25, p=8)"),
    ("toeplitz-hashed", 0.5, 4, "eq-mod-p(n=16, delta=0.5, p=8)"),
    ("toeplitz-deterministic", 0.25, 4, "eq-mod-p(n=16, delta=0, p=2)"),
    ("toeplitz-deterministic", 0.5, 4, "eq-mod-p(n=16, delta=0, p=2)"),
    ("banded", 0.25, 24, "banded-gt(n=16, delta=0.25, p=3)"),
    ("banded", 0.5, 12, "banded-gt(n=16, delta=0.5, p=3)"),
    ("banded-2d", 0.25, 9444732965739290427392, "banded2d-gt(n=16, delta=0.25, p=2)"),
    ("banded-2d", 0.5, 2305843009213693952, "banded2d-gt(n=16, delta=0.5, p=2)"),
    ("monotone", 0.25, 2147483648, "monotone-gt(n=16, delta=0.25)"),
    ("monotone", 0.5, 33554432, "monotone-gt(n=16, delta=0.5)"),
]


@pytest.mark.parametrize(
    "name,eps,budget,described", _PINNED, ids=[f"{row[0]}-{row[1]}" for row in _PINNED]
)
def test_target_bitmap_matches_mask_for_patterned_routes(name, eps, budget, described):
    # the pattern's protocol computes the pattern's own mask, cell for cell
    pattern = _PATTERNS[name]
    spec = pattern.spec(_N, eps)
    assert np.array_equal(target_bitmap(spec), make_mask(pattern, _N).bitmap)
    assert rank_budget(pattern, 2, eps, n=_N) == budget
    assert spec.describe() == described
