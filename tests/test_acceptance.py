"""End-to-end acceptance gates, one pass/fail line per criterion.

Every criterion aggregates its own sweep and prints a single verdict line,
so a full run reads as ten lines. Tolerances are stated inline next to the
assertions they guard.
"""

import time

import numpy as np

from maskedlra import (
    Banded,
    Diagonal,
    Diagonal3,
    LowRankFactor,
    Monotone,
    ToeplitzModP,
    banded_gt,
    bool_lra_exhaustive,
    bool_product,
    chain_inequality_check,
    cover_based_bool_lra,
    cp_als,
    empirical_error_rates,
    eq_mod_p,
    equality_hash,
    gen_planted,
    greater_than,
    heavy_row_set,
    leverage_scores,
    make_mask,
    masked_cost,
    masked_lra,
    masked_tensor_lra,
    monotone_gt,
    multiparty_partition,
    neq3_multiparty,
    nondet_cover,
    rank_budget,
    sample_partition,
    sparse_set_eq,
    svd_truncated,
    tensor_comparator,
    transcript_cap,
    verify_bicriteria,
    verify_structural_bicriteria,
)
from maskedlra.harness import sparse_pattern
from maskedlra.protocols import ONE_SIDED_FAMILIES, cover_bitmap, target_bitmap


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {text}")


def _support_mass(inst) -> float:
    return float(np.sum((inst.A * inst.W.bitmap) ** 2))


def test_criterion_01_diagonal_route():
    """Planted diagonal instances stay under the mass-fraction bound at the
    bucket-certified rank for every eps; exact SVD, 30 s budget."""
    t0 = time.perf_counter()
    worst = 0.0
    checks = 0
    for i in range(20):
        k = (i % 3) + 1
        inst = gen_planted("matrix", Diagonal(), 64, k, seed=i)
        mass = _support_mass(inst)
        for eps in (0.1, 0.25, 0.5):
            kp = rank_budget(Diagonal(), k, eps)
            assert kp == k * int(np.ceil(1 / eps))
            cost = masked_cost(inst.A, inst.W, masked_lra(inst.A, inst.W, kp))
            worst = max(worst, cost / (2 * eps * mass))
            checks += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 30.0
    _verdict(1, ok, f"{checks} diagonal checks, worst ratio {worst:.3g}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_sparse_route():
    worst = 0.0
    checks = 0
    for t in (2, 4):
        for i in range(10):
            k = (i % 3) + 1
            pattern = sparse_pattern(64, t, seed=100 * t + i)
            inst = gen_planted("matrix", pattern, 64, k, seed=i)
            mass = _support_mass(inst)
            for eps in (0.1, 0.25, 0.5):
                kp = rank_budget(pattern, k, eps)
                assert kp == k * int(np.ceil(t / eps))
                # declared budget can exceed the matrix size; the solve caps there
                L = masked_lra(inst.A, inst.W, min(kp, 64))
                worst = max(worst, masked_cost(inst.A, inst.W, L) / (2 * eps * mass))
                checks += 1
    ok = worst <= 1.0
    _verdict(2, ok, f"{checks} sparse checks, t in (2, 4), worst ratio {worst:.3g}")
    assert ok


def test_criterion_03_residue_route_zero_additive():
    ok = True
    details = []
    for p in (2, 4):
        for seed in range(5):
            inst = gen_planted("matrix", ToeplitzModP(p), 64, 2, seed=seed)
            spec = eq_mod_p(64, p)
            rep = verify_bicriteria(
                inst.A, inst.W, 2, 0.25, spec=spec, opt_upper=inst.opt_upper
            )
            ok = ok and rep.satisfied and rep.coefficient("eps1") == 0.0 and rep.k_prime == 2 * p
            ok = ok and rep.rhs == inst.opt_upper
            details.append(rep.cost)
    _verdict(3, ok, f"10 residue instances, max cost {max(details):.3g} vs additive 0")
    assert ok


def test_criterion_04_banded_and_monotone_median():
    n, p, k, eps = 256, 4, 2, 0.25
    rng = np.random.default_rng(40)
    prefixes = tuple(int(v) for v in rng.integers(0, n + 1, size=n))
    routes = (
        (Banded(p), banded_gt(n, p, eps)),
        (Monotone(prefixes), monotone_gt(prefixes, eps)),
    )
    ok = True
    notes = []
    for pattern, spec in routes:
        inst = gen_planted("matrix", pattern, n, k, seed=11)
        margins = []
        for seed in range(9):
            P = sample_partition(spec, seed=seed)
            assert len(P.rectangles) <= transcript_cap(spec)
            rep = verify_bicriteria(
                inst.A, inst.W, k, eps, spec=spec,
                opt_upper=inst.opt_upper, L_for_eps2=inst.L_star, seed=seed,
            )
            margins.append(rep.cost - rep.rhs)
        med = float(np.median(margins))
        ok = ok and med <= 0.0
        notes.append(f"{spec.family} median margin {med:.3g}")
    _verdict(4, ok, "; ".join(notes))
    assert ok


def test_criterion_05_chain_inequality_sweep():
    rng = np.random.default_rng(50)
    n = 16
    settings = [
        (make_mask(Diagonal(), n), equality_hash(n, 0.5)),
        (make_mask(ToeplitzModP(4), n), eq_mod_p(n, 4, delta=0.5)),
        (make_mask(sparse_pattern(n, 2, seed=3), n), sparse_set_eq(n, sparse_pattern(n, 2, seed=3).zero_sets, 2, 0.5)),
        (make_mask(Banded(2), n), banded_gt(n, 2, 0.25)),
    ]
    passed = 0
    for trial in range(100):
        W, spec = settings[trial % len(settings)]
        A = rng.standard_normal((n, n))
        P = sample_partition(spec, seed=trial)
        k = 1 + trial % 2
        if chain_inequality_check(A, W, P, k):
            passed += 1
    ok = passed == 100
    _verdict(5, ok, f"{passed}/100 chain comparisons held (tol 1e-9 relative)")
    assert ok


def test_criterion_06_protocol_error_rates():
    n = 64
    trials = 100_000
    rng = np.random.default_rng(60)
    zs = tuple(tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False))) for _ in range(n))
    prefixes = tuple(int(v) for v in rng.integers(0, n + 1, size=n))
    from maskedlra import banded2d_gt

    specs = [
        equality_hash(n, 0.25),
        eq_mod_p(n, 8, delta=0.5),
        sparse_set_eq(n, zs, 2, 0.25),
        neq3_multiparty(16, 0.25),
        greater_than(n, 0.1),
        banded_gt(n, 4, 0.25),
        banded2d_gt(n, 2, 0.25),
        monotone_gt(prefixes, 0.25),
    ]
    ok = True
    worst_note = ""
    for spec in specs:
        W = target_bitmap(spec)
        on, off = empirical_error_rates(spec, W, trials, seed=6)
        dens1 = float(W.mean())
        dens0 = 1.0 - dens1
        d = spec.delta
        gate1 = d + 3 * np.sqrt(d * (1 - d) / max(1.0, trials * dens1))
        one_sided = spec.family in ONE_SIDED_FAMILIES
        this_ok = on <= gate1 if dens1 else True
        if one_sided:
            this_ok = this_ok and off == 0.0
        elif dens0:
            gate0 = d + 3 * np.sqrt(d * (1 - d) / max(1.0, trials * dens0))
            this_ok = this_ok and off <= gate0
        if not this_ok:
            worst_note = f" ({spec.family}: on={on:.4f}, off={off:.4f}, delta={d})"
        ok = ok and this_ok
    _verdict(6, ok, f"8 families at {trials} samples each{worst_note}")
    assert ok


def test_criterion_07_tensor_route():
    t0 = time.perf_counter()
    eps = 0.25
    ok = True
    notes = []
    for k in (1, 2):
        inst = gen_planted("tensor3", Diagonal3(), 16, k, seed=k)
        P = multiparty_partition(neq3_multiparty(16, eps), seed=0)
        comp = tensor_comparator(inst.A, inst.W, P, k, restarts=1, seed=0)
        F = masked_tensor_lra(inst.A, inst.W, comp.rank_bound, init=comp, seed=0)
        cost = masked_cost(inst.A, inst.W, F)
        mass = float(np.sum((np.asarray(inst.A) * inst.W.bitmap) ** 2))
        a_norm = float(np.sum(np.asarray(inst.A) ** 2))
        bound = 2 * eps * mass + 1e-6 * a_norm
        ok = ok and cost <= bound
        notes.append(f"k={k}: {cost:.3g} <= {bound:.3g}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _verdict(7, ok, f"{'; '.join(notes)}; {elapsed:.1f}s")
    assert ok


def test_criterion_08_boolean_route():
    rng = np.random.default_rng(80)
    ok = True
    within_cap = 0
    # composed cost against the exhaustive oracle wherever the cap allows
    cases = [
        (4, 1, nondet_cover("neq-bits", 4)),
        (4, 2, nondet_cover("neq-bits", 4)),
        (6, 1, nondet_cover("neq-blocks", 6, blocks=((0, 1), (2, 3), (4, 5)))),
        (6, 2, nondet_cover("neq-blocks", 6, blocks=((0, 1), (2, 3), (4, 5)))),
        (4, 1, nondet_cover("disj-coords", 4)),
    ]
    for n, k, cover in cases:
        Wb = cover_bitmap(cover)
        for trial in range(4):
            A = (rng.random((n, n)) < 0.5).astype(np.uint8)
            _, opt = bool_lra_exhaustive(A, Wb, k)
            _, cost = cover_based_bool_lra(A, Wb, cover, k, inner="exhaustive")
            ok = ok and cost <= len(cover.rectangles) * opt
            within_cap += 1
    # planted instances with a certified zero optimum compose to zero
    from maskedlra import Explicit

    zeros = []
    for seed in range(5):
        cover = nondet_cover("disj-coords", 8)
        pattern = Explicit(cover_bitmap(cover))
        inst = gen_planted("boolean", pattern, 8, 1, corruption_scale=0.3, seed=seed)
        assert inst.opt_upper == 0
        _, cost = cover_based_bool_lra(inst.A, inst.W, cover, 1, inner="exhaustive")
        zeros.append(cost)
        ok = ok and cost == 0
    _verdict(8, ok, f"{within_cap} oracle-capped checks; planted zero costs {zeros}")
    assert ok


def test_criterion_09_structural_suite():
    rng = np.random.default_rng(90)
    lev_ok = True
    for _ in range(100):
        r = int(rng.integers(1, 5))
        L = LowRankFactor(rng.standard_normal((12, r)), rng.standard_normal((9, r)), r)
        tau = leverage_scores(L)
        lev_ok = lev_ok and abs(tau.sum() - r) <= 1e-9 and (tau <= 1 + 1e-12).all()
    heavy_ok = True
    W24 = make_mask(Diagonal(), 24)
    for trial in range(200):
        k = int(rng.integers(1, 4))
        eps = (0.2, 0.5)[trial % 2]
        L = LowRankFactor(rng.standard_normal((24, k)), rng.standard_normal((24, k)), k)
        hs = heavy_row_set(L, W24, eps, k)
        heavy_ok = heavy_ok and hs.off_mass <= eps / (1 - eps) * hs.on_mass + 1e-9
    inst1 = gen_planted("matrix", Diagonal(), 48, 2, seed=1)
    rep1 = verify_structural_bicriteria(inst1.A, inst1.W, 2, 0.25, inst1.opt_upper)
    pat = sparse_pattern(60, 3, seed=9)
    inst2 = gen_planted("matrix", pat, 60, 2, seed=2)
    rep2 = verify_structural_bicriteria(inst2.A, inst2.W, 2, 0.5, inst2.opt_upper)
    ok = lev_ok and heavy_ok and rep1.satisfied and rep2.satisfied
    _verdict(
        9,
        ok,
        f"leverage sums ok={lev_ok}, greedy bound ok={heavy_ok}, "
        f"planted checks {rep1.satisfied}/{rep2.satisfied}",
    )
    assert ok


def test_criterion_10_oracle_cross_checks():
    rng = np.random.default_rng(100)
    svd_ok = True
    for _ in range(50):
        n = int(rng.integers(4, 12))
        m = int(rng.integers(4, 12))
        k = int(rng.integers(1, min(n, m)))
        A = rng.standard_normal((n, m))
        sigma = np.linalg.svd(A, compute_uv=False)
        tail = float(np.sum(sigma[k:] ** 2))
        res = float(np.sum((A - svd_truncated(A, k).value()) ** 2))
        svd_ok = svd_ok and abs(res - tail) <= 1e-8 * max(tail, 1e-30)
    bool_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        U = (rng.random((n, r)) < 0.5).astype(np.uint8)
        V = (rng.random((r, m)) < 0.5).astype(np.uint8)
        want = (U.astype(int) @ V.astype(int) >= 1).astype(np.uint8)
        bool_ok = bool_ok and np.array_equal(bool_product(U, V), want)
    cost_ok = True
    for _ in range(20):
        A = rng.standard_normal((7, 7))
        bits = (rng.random((7, 7)) < 0.6).astype(np.uint8)
        L = svd_truncated(A, 2)
        direct = sum(
            (A[i, j] - L.value()[i, j]) ** 2
            for i in range(7)
            for j in range(7)
            if bits[i, j]
        )
        from maskedlra import Explicit, make_mask as _mm

        got = masked_cost(A, _mm(Explicit(bits), 7), L)
        cost_ok = cost_ok and abs(got - direct) <= 1e-12 * max(1.0, direct)
    T = rng.standard_normal((5, 4, 3))
    F = cp_als(T, 2, iters=20, seed=1)
    bits3 = (rng.random((5, 4, 3)) < 0.5).astype(np.uint8)
    direct3 = float(np.sum(bits3 * (T - F.value()) ** 2))
    cost_ok = cost_ok and abs(masked_cost(T, bits3, F) - direct3) <= 1e-12 * max(1.0, direct3)
    ok = svd_ok and bool_ok and cost_ok
    _verdict(10, ok, f"svd tails ok={svd_ok}, products ok={bool_ok}, costs ok={cost_ok}")
    assert ok
