"""Zero-fill solver, rectangle comparator, bound reports, altmin baseline."""

from dataclasses import replace

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
    LowRankFactor,
    Monotone,
    ParameterError,
    ShapeError,
    ToeplitzModP,
    altmin_baseline,
    banded2d_gt,
    banded_gt,
    chain_inequality_check,
    comparator_from_partition,
    eq_mod_p,
    equality_hash,
    gen_planted,
    greater_than,
    make_mask,
    masked_cost,
    masked_lra,
    monotone_gt,
    neq3_multiparty,
    rank_budget,
    sample_partition,
    sparse_set_eq,
    svd_truncated,
    verify_bicriteria,
)
from maskedlra import protocols, solver
from maskedlra.harness import make_pattern, sparse_pattern
from maskedlra.io import read_partition, write_partition
from maskedlra.linalg import zero_factor
from maskedlra.protocols import Boxes, target_bitmap
from maskedlra.solver import _block_tails, _solve_rows


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


@pytest.mark.parametrize("shape", [(8, 8), (9, 5), (5, 9)])
def test_masked_lra_full_rank_returns_the_zero_fill(monkeypatch, shape):
    """At k' = min(n, m) the zero fill is its own best fit: no SVD runs,
    and the masked cost is exactly zero."""
    import scipy.linalg
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("an SVD ran")

    for mod, name in ((np.linalg, "svd"), (scipy.sparse.linalg, "svds"), (scipy.linalg, "svd")):
        monkeypatch.setattr(mod, name, refuse)
    rng = np.random.default_rng(sum(shape))
    A = rng.standard_normal(shape)
    W = (rng.random(shape) < 0.6).astype(np.uint8)
    L = masked_lra(A, W, min(shape))
    assert np.array_equal(L.value(), A * W)
    assert masked_cost(A, W, L) == 0.0
    assert L.U.shape[1] == L.rank_bound == min(shape)
    assert L.meta["svd_driver"] == "none"
    with pytest.raises(ParameterError, match="out of range"):
        masked_lra(A, W, min(shape) + 1)


def test_full_rank_zero_fill_is_read_with_no_product(monkeypatch, tmp_path, capsys):
    """masked_cost, chain_inequality_check's left side and solve --out read
    a full-rank zero fill's M directly, bit-identical to the product with
    the identity, and never form that product."""
    from maskedlra.cli import main
    from maskedlra.io import read_matrix, write_bitmap, write_matrix

    n = 32
    inst = gen_planted("matrix", Banded(2), n, 2, seed=0)
    M = inst.A * inst.W.bitmap
    P = sample_partition(banded_gt(n, 2, 0.25), seed=0)
    assert 2 * P.one_count >= n  # so the chain check solves at full rank
    diag = gen_planted("matrix", Diagonal(), 16, 2, seed=0)
    write_matrix(tmp_path / "A.mlra", inst.A)
    write_bitmap(tmp_path / "W.mlrb", inst.W)

    def refuse(self):
        raise AssertionError("a factor product ran")

    monkeypatch.setattr(LowRankFactor, "value", refuse)
    L = masked_lra(inst.A, inst.W, n)
    assert L.value().tobytes() == (M @ np.eye(n)).tobytes()
    assert masked_cost(inst.A, inst.W, L) == 0.0
    assert chain_inequality_check(inst.A, inst.W, P, 2)
    cert = verify_bicriteria(diag.A, diag.W, 2, 0.125, opt_upper=diag.opt_upper)
    assert cert.k_prime == 16 and cert.cost == 0.0
    out = tmp_path / "L.mlra"
    main(["solve", str(tmp_path / "A.mlra"), str(tmp_path / "W.mlrb"), "--k", "2",
          "--kprime", str(n), "--out", str(out)])
    assert "masked cost = 0.0" in capsys.readouterr().out.splitlines()
    assert read_matrix(out).tobytes() == (M @ np.eye(n)).tobytes()


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


def test_comparator_single_rectangle_is_svd():
    from maskedlra import PartitionSample

    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 8))
    W = make_mask(AllOnes(), 8)
    P = PartitionSample(Boxes.pack([1], [(np.arange(8), np.arange(8))], 2), 8, "manual", 1)
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
    from maskedlra import PartitionSample

    rng = np.random.default_rng(23)
    A = rng.standard_normal((8, 8))
    W = make_mask(AllOnes(), 8)
    row_sets = (np.array([0]), np.arange(1, 8))
    col_sets = (np.arange(4), np.arange(4, 8))
    sets = [(r, c) for r in row_sets for c in col_sets]
    P = PartitionSample(Boxes.pack([1] * len(sets), sets, 2), 8, "manual", len(sets))
    Lbar = comparator_from_partition(A, W, P, 2)
    assert Lbar.U.shape[1] == 6
    assert Lbar.rank_bound == 8
    want = np.zeros((8, 8))
    for r in P.rectangles:
        sub = A[np.ix_(r.row_set, r.col_set)]
        fit = svd_truncated(sub, min(2, *sub.shape))
        want[np.ix_(r.row_set, r.col_set)] += fit.value()
    assert np.allclose(Lbar.value(), want, atol=1e-12)


def _assert_batched_comparator_is_per_rectangle(A, W, P, k):
    """The shape-batched comparator is bit-identical to one svd_truncated
    per 1-rectangle, assembled in rectangle order."""
    M = A * W.bitmap
    fits = [(rect, svd_truncated(M[np.ix_(rect.row_set, rect.col_set)],
                                 min(k, len(rect.row_set), len(rect.col_set))))
            for rect in P.rectangles if rect.label == 1]
    if not fits:
        want = zero_factor(*M.shape)
    else:
        width = sum(f.U.shape[1] for _, f in fits)
        U, V = np.zeros((M.shape[0], width)), np.zeros((M.shape[1], width))
        start = 0
        for rect, f in fits:
            stop = start + f.U.shape[1]
            U[rect.row_set, start:stop], V[rect.col_set, start:stop] = f.U, f.V
            start = stop
        want = LowRankFactor(U, V, k * P.one_count)
    got = comparator_from_partition(A, W, P, k)
    assert np.array_equal(got.U, want.U) and np.array_equal(got.V, want.V)
    assert got.rank_bound == want.rank_bound


@pytest.mark.parametrize("n", [64, 128])
def test_batched_comparator_on_protocol_partitions(n):
    for pattern, spec in ((Diagonal(), equality_hash(n, 0.25)), (Banded(4), banded_gt(n, 4, 0.25))):
        for seed in (0, 1):
            inst = gen_planted("matrix", pattern, n, 2, seed=seed)
            P = sample_partition(spec, seed=seed)
            _assert_batched_comparator_is_per_rectangle(inst.A, inst.W, P, 2)


def test_batched_comparator_on_random_box_partitions():
    """Rows and columns cut at random into blocks of 1 to 4 indices, in a
    shuffled order, give many shapes with several rectangles each, and
    widths k above min(rows, cols)."""
    from maskedlra import PartitionSample

    rng = np.random.default_rng(67)
    n = 24
    for trial in range(12):
        blocks = []
        for _ in range(2):
            cuts = np.cumsum(rng.integers(1, 5, size=n))
            cuts = cuts[cuts < n]
            blocks.append(np.split(rng.permutation(n), cuts))
        sets = [(r, c) for r in blocks[0] for c in blocks[1]]
        labels = [int(rng.random() < 0.7) for _ in sets]
        P = PartitionSample(Boxes.pack(labels, sets, 2), n, "manual", sum(labels))
        A = rng.standard_normal((n, n))
        W = make_mask(AllOnes(), n) if trial % 2 else make_mask(Diagonal(), n)
        for k in (1, 2, 3):
            _assert_batched_comparator_is_per_rectangle(A, W, P, k)


def test_batched_comparator_with_the_svds_driver(monkeypatch):
    import scipy.sparse.linalg

    real, calls = scipy.sparse.linalg.svds, []

    def svds(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "svds", svds)
    n = 1024
    A = np.random.default_rng(71).standard_normal((n, n))
    P = sample_partition(equality_hash(n, 0.25), seed=0)
    _assert_batched_comparator_is_per_rectangle(A, make_mask(Diagonal(), n), P, 2)
    # both the batched fit and the reference take svds on every 1-rectangle
    assert len(calls) == 2 * P.one_count > 0


def test_batched_comparator_without_one_rectangles():
    P = sample_partition(equality_hash(8, 1.0), seed=0)
    assert P.one_count == 0
    A = np.random.default_rng(73).standard_normal((8, 8))
    _assert_batched_comparator_is_per_rectangle(A, make_mask(Diagonal(), 8), P, 2)


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


def _order2_specs(n):
    rng = np.random.default_rng(n)
    zs = tuple(tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False))) for _ in range(n))
    prefixes = tuple(int(v) for v in rng.integers(0, n + 1, size=n))
    return [
        equality_hash(n, 0.25),
        equality_hash(n, 1.0),  # one 0-rectangle: the comparator is zero
        eq_mod_p(n, 4),
        eq_mod_p(n, 4, delta=0.5),
        sparse_set_eq(n, zs, 2, 0.25),
        greater_than(n, 0.25),
        banded_gt(n, 3, 0.25),
        banded2d_gt(n, 2, 0.5),
        monotone_gt(prefixes, 0.25),
    ]


@pytest.mark.parametrize("n", [16, 64])
def test_block_tails_are_the_comparator_cost(n):
    """The block-spectrum sum equals ||M - C||^2 for the assembled
    comparator C on every order-2 family, also where a 1-box is thinner
    than k and is fit exactly."""
    rng = np.random.default_rng(n + 5)
    A = rng.standard_normal((n, n))
    W = (rng.random((n, n)) < 0.7).astype(np.uint8)
    M = A * W
    mass = float(np.sum(M * M))
    thin = 0
    for spec in _order2_specs(n):
        P = sample_partition(spec, seed=3)
        ones = P.boxes.labels == 1
        sides = np.minimum(P.boxes.sizes(0), P.boxes.sizes(1))[ones]
        for k in (1, 2, 3):
            want = float(np.sum((M - comparator_from_partition(A, W, P, k).value()) ** 2))
            got = _block_tails(M, P, k)
            assert abs(got - want) <= 1e-12 * mass, (spec.describe(), k)
            thin += int(np.any(sides < k))
    assert thin


def test_chain_inequality_builds_no_comparator(monkeypatch):
    """The chain check reads the comparator's cost from block spectra: it
    never assembles the comparator."""
    def refuse(*args, **kwargs):
        raise AssertionError("the comparator was built")

    monkeypatch.setattr(solver, "comparator_from_partition", refuse)
    monkeypatch.setattr(protocols, "assemble", refuse)
    inst = gen_planted("matrix", Banded(4), 64, 2, seed=1)
    for spec in (banded_gt(64, 4, 0.25), equality_hash(64, 0.25), equality_hash(64, 1.0)):
        P = sample_partition(spec, seed=1)
        assert chain_inequality_check(inst.A, inst.W, P, 2)
        for k in (0, -1):
            with pytest.raises(ParameterError, match=f"^k={k} must be positive"):
                chain_inequality_check(inst.A, inst.W, P, k)


def test_verify_bicriteria_planted_diagonal():
    inst = gen_planted("matrix", Diagonal(), 64, 3, seed=4)
    rep = verify_bicriteria(inst.A, inst.W, 3, 0.25, opt_upper=inst.opt_upper)
    mass = float(np.sum((inst.A * inst.W.bitmap) ** 2))
    assert rep.satisfied
    assert rep.k_prime == rank_budget(Diagonal(), 3, 0.25)
    assert rep.rhs == pytest.approx(inst.opt_upper + 2 * 0.25 * mass)
    assert rep.coefficient("eps2") == 0.0


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
    assert rep.coefficient("eps1") == 0.0  # zero-error protocol charges no mass term
    assert rep.rhs == pytest.approx(inst.opt_upper)
    assert rep.satisfied


def test_verify_bicriteria_two_sided_needs_candidate():
    inst = gen_planted("matrix", Banded(1), 16, 1, seed=0)
    spec = banded_gt(16, 1, 0.25)
    with pytest.raises(ParameterError, match="needs L_for_eps2"):
        verify_bicriteria(inst.A, inst.W, 1, 0.25, spec=spec, opt_upper=0.0)


@pytest.mark.parametrize("pattern, spec", [
    (ToeplitzModP(4), equality_hash(64, 0.25)),  # another family
    (Banded(4), banded_gt(64, 2, 0.25)),  # other parameters
    (Explicit(1 - np.eye(64, dtype=np.uint8)), eq_mod_p(64, 4)),
], ids=["family", "parameters", "explicit"])
def test_verify_bicriteria_refuses_a_spec_that_does_not_compute_the_mask(pattern, spec):
    A = np.random.default_rng(0).standard_normal((64, 64))
    W = make_mask(pattern, 64)
    with pytest.raises(ParameterError, match="does not compute the"):
        verify_bicriteria(A, W, 2, 0.25, spec=spec, L_for_eps2=zero_factor(64, 64))
    # delta aside, the pattern's own spec is accepted
    if not isinstance(pattern, Explicit):
        own = replace(pattern.spec(64, 0.25), delta=0.5)
        verify_bicriteria(A, W, 2, 0.25, spec=own, L_for_eps2=zero_factor(64, 64))


@pytest.mark.parametrize("explicit, spec", [
    (True, equality_hash(64, 0.25)),  # a 64-point partition of a 16-point mask
    (True, neq3_multiparty(8, 0.5)),  # a cube of another size
    (True, neq3_multiparty(16, 0.5)),  # a cube of the mask's size
    (False, banded_gt(64, 4, 0.25)),
])
def test_verify_bicriteria_rejects_a_spec_of_another_size_or_order(explicit, spec):
    n = 16
    W = make_mask(Explicit(1 - np.eye(n, dtype=np.uint8)) if explicit else Diagonal(), n)
    A = np.random.default_rng(0).standard_normal((n, n))
    with pytest.raises(ParameterError, match=f"does not partition an n={n} matrix mask"):
        verify_bicriteria(A, W, 2, 0.25, spec=spec, L_for_eps2=zero_factor(n, n))


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
    want = rep.opt_upper + rep.coefficient("eps1") * mass_on + rep.coefficient("eps2") * off
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


def test_altmin_sweeps_never_increase_cost():
    # rerun with growing sweep counts; same seed gives the same trajectory
    rng = np.random.default_rng(30)
    A = rng.standard_normal((10, 10))
    W = make_mask(Diagonal(), 10)
    costs = [altmin_baseline(A, W, 2, iters=iters, seed=4).meta["cost"] for iters in range(16)]
    assert all(b <= a + 1e-10 for a, b in zip(costs, costs[1:])), costs


def test_altmin_comparison_is_recorded_not_asserted():
    # measurement only: altmin and the zero-fill route may land on either side
    rng = np.random.default_rng(12)
    A = rng.standard_normal((8, 8))
    W = make_mask(Diagonal(), 8)
    alt = masked_cost(A, W, altmin_baseline(A, W, 2, iters=30, restarts=10, seed=0))
    zf = masked_cost(A, W, masked_lra(A, W, rank_budget(Diagonal(), 2, 0.5)))
    assert np.isfinite(alt) and np.isfinite(zf)


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


def test_verify_bicriteria_on_an_explicit_mask_budgets_from_the_draw():
    spec = equality_hash(32, 0.5)
    W = make_mask(Explicit(target_bitmap(spec)), 32)
    A = np.random.default_rng(0).standard_normal((32, 32))
    cert = verify_bicriteria(A, W, 2, 0.5, spec=spec)
    assert cert.pattern == "explicit"
    assert cert.k_prime == 2 * cert.one_count == 4
    assert cert.rect_count == 4
    assert cert.satisfied


@pytest.mark.parametrize("k,eps", [(0, 0.5), (-3, 0.5), (2, 5.0), (2, -1.0)])
def test_verify_bicriteria_on_an_explicit_mask_rejects_bad_k_and_eps(k, eps):
    spec = equality_hash(32, 0.5)
    W = make_mask(Explicit(target_bitmap(spec)), 32)
    A = np.random.default_rng(0).standard_normal((32, 32))
    with pytest.raises(ParameterError, match="must be positive|outside"):
        verify_bicriteria(A, W, k, eps, spec=spec)


@pytest.mark.parametrize("pattern,k,cost,rhs", [
    (Diagonal(), 2, 2454.8, 2003.3), (sparse_pattern(64, 2, 0), 1, 2401.3, 1980.3),
    (ToeplitzModP(4), 2, 1725.2, 0.0), (Banded(2), 1, 2340.7, 1936.3),
], ids=["t1", "t2", "t3", "t4"])
def test_verify_bicriteria_fails_a_bound_the_solve_exceeds(pattern, k, cost, rhs):
    # a dense Gaussian A with opt_upper = 0: no rank-k plant to find; the
    # zero candidate adds nothing to t4's eps2 term
    A = np.random.default_rng(0).standard_normal((64, 64))
    cert = verify_bicriteria(A, make_mask(pattern, 64), k, 0.25, L_for_eps2=zero_factor(64, 64))
    assert (cert.cost, cert.rhs) == (pytest.approx(cost, abs=0.05), pytest.approx(rhs, abs=0.05))
    assert not cert.satisfied and cert.cost > cert.rhs


def test_altmin_pads_a_narrow_init_with_zero_columns():
    inst = gen_planted("matrix", Diagonal(), 8, 1, seed=4)
    L = altmin_baseline(inst.A, inst.W, 3, iters=0, init=inst.L_star)
    assert L.U.shape == (8, 3) and L.V.shape == (8, 3)
    assert np.array_equal(L.U, np.hstack([inst.L_star.U, np.zeros((8, 2))]))
    assert np.array_equal(L.V, np.hstack([inst.L_star.V, np.zeros((8, 2))]))
    assert L.meta["cost"] == masked_cost(inst.A, inst.W, inst.L_star)


def test_verify_bicriteria_rejects_a_raw_mask():
    A = np.ones((4, 4))
    for spec in (None, equality_hash(4, 0.5)):
        with pytest.raises(ParameterError, match="structured mask"):
            verify_bicriteria(A, np.ones((4, 4)), 1, 0.5, spec=spec)


def _row_problem(seed, n=24, m=16):
    """Rank-2 row solves where row 0 has no observed entry and row 1 one,
    at a column j whose factor row makes row 1's Gram exactly singular."""
    rng = np.random.default_rng(seed)
    W = (rng.random((n, m)) < 0.5).astype(np.float64)
    for i in range(2, n):  # at least 3 observed entries elsewhere
        W[i, rng.choice(m, 3, replace=False)] = 1.0
    W[:2] = 0.0
    j = rng.integers(m)
    W[1, j] = 1.0
    F = rng.standard_normal((m, 2))
    F[j] = (2.0, 3.0)  # Cholesky of [[4, 6], [6, 9]] meets an exact zero pivot
    return rng.standard_normal((n, m)) * W, W, F, j


@pytest.mark.parametrize("seed", range(5))
def test_batched_row_solves_match_per_row_least_squares(seed):
    M, W, F, j = _row_problem(seed)
    ridge = [0]
    X = _solve_rows(M, W, F, ridge)
    assert not X[0].any()  # no observed entry: exactly zero
    assert ridge == [1]  # only row 1 takes the ridge solve
    assert X[1] @ F[j] == pytest.approx(M[1, j], rel=1e-8)
    for i in range(2, len(M)):
        sel = W[i] == 1
        ref = np.linalg.lstsq(F[sel], M[i, sel], rcond=None)[0]
        assert np.linalg.norm(X[i] - ref) <= 1e-10 * np.linalg.norm(ref), i


def test_altmin_counts_ridge_fallbacks_for_a_singular_row():
    M, W, F, _ = _row_problem(0)
    init = LowRankFactor(np.ones((len(M), 2)), F, 2)
    L = altmin_baseline(M, W, 2, iters=2, init=init)
    assert L.meta["ridge_fallbacks"] >= 1
    assert not L.U[0].any()


def test_certificates_comparators_and_dumps_build_no_rectangle(monkeypatch, tmp_path):
    """verify_bicriteria on the greater-than patterns, the comparator and a
    dump round trip read the partition's arrays: none builds a Rectangle.
    A patterned certificate draws no partition, so its counts are 0."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Rectangle was built")

    n = 36
    monkeypatch.setattr(protocols, "Rectangle", refuse)
    for tag in ("banded", "banded-2d", "monotone"):
        pattern = make_pattern(tag, n, p=2, seed=1)
        inst = gen_planted("matrix", pattern, n, 2, seed=1)
        cert = verify_bicriteria(inst.A, inst.W, 2, 0.25, opt_upper=inst.opt_upper,
                                 L_for_eps2=inst.L_star, seed=1)
        assert cert.rect_count == cert.one_count == 0
        P = sample_partition(pattern.spec(n, 0.25), seed=1)
        assert len(P.boxes) > P.one_count > 0
        comparator_from_partition(inst.A, inst.W, P, 2)
        write_partition(tmp_path / "p", P)
        Q = read_partition(tmp_path / "p")
        assert (len(Q.boxes), Q.one_count) == (len(P.boxes), P.one_count)


@pytest.mark.parametrize("spec", [equality_hash(32, 0.25), equality_hash(128, 0.25),
                                  neq3_multiparty(64, 0.5)])
def test_matrix_comparators_reject_a_partition_of_another_shape(spec):
    """A smaller partition used to fit only the top-left block (and pass the
    chain inequality), a larger one raised IndexError."""
    A = np.random.default_rng(75).standard_normal((64, 64))
    W = make_mask(Diagonal(), 64)
    P = sample_partition(spec, seed=0)
    with pytest.raises(ShapeError, match=f"n={spec.n} order-{P.order}"):
        comparator_from_partition(A, W, P, 2)
    with pytest.raises(ShapeError, match=f"n={spec.n} order-{P.order}"):
        chain_inequality_check(A, W, P, 2)


def test_comparators_never_iterate_boxes_one_by_one(monkeypatch):
    """The matrix, tensor and Boolean comparators place whole shape groups:
    none of them walks Boxes.each."""
    from maskedlra import Diagonal3, cover_based_bool_lra, nondet_cover, tensor_comparator
    from maskedlra.protocols import cover_bitmap, multiparty_partition

    inst = gen_planted("matrix", Banded(2), 32, 2, seed=2)
    P = sample_partition(banded_gt(32, 2, 0.25), seed=2)
    inst3 = gen_planted("tensor3", Diagonal3(), 8, 1, seed=2)
    P3 = multiparty_partition(neq3_multiparty(8, 0.5), seed=2)
    cover = nondet_cover("neq-bits", 8)
    Wb = cover_bitmap(cover)
    B = (np.random.default_rng(77).random((8, 8)) < 0.5).astype(np.uint8)

    def refuse(self):
        raise AssertionError("Boxes.each was iterated")

    monkeypatch.setattr(protocols.Boxes, "each", refuse)
    assert comparator_from_partition(inst.A, inst.W, P, 2).U.any()
    assert chain_inequality_check(inst.A, inst.W, P, 2)
    assert tensor_comparator(inst3.A, inst3.W, P3, 1, inner_iters=5, restarts=2).U.any()
    _, cost = cover_based_bool_lra(B, Wb, cover, 1, inner="exhaustive")
    assert cost >= 0
