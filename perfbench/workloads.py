"""The benchmark's four workloads: fixed case lists built from a seed.

Why each workload exists is recorded in BENCHMARK.json and README.md.

Building a workload is its set-up: it generates the planted instances,
masks, protocol specs and partitions the cases take as input. Each case is a
call into the package's public API plus an output check that runs outside
the timed region. Cases run back to back in one process (closed loop, one
client). A case may read the result of an earlier case of the same pass
through `state`, keyed by that case's name.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from maskedlra import boolean as bl
from maskedlra import harness
from maskedlra import io as mio
from maskedlra import linalg as la
from maskedlra import masks as mk
from maskedlra import protocols as pr
from maskedlra import solver as sv
from maskedlra import tensor as tn

K = 2
EPS = 0.25
# Relative slack for comparisons between two floating-point fits.
FIT_RTOL = 1e-9


@dataclass
class Cert:
    """One certificate: cost <= rhs at a rank budget that may be vacuous."""

    cost: float
    rhs: float
    budget: int  # unclamped rank budget of the route
    min_dim: int

    @property
    def vacuous(self) -> bool:
        return self.budget >= self.min_dim


@dataclass
class Verdict:
    notes: list[str] = field(default_factory=list)
    certs: list[Cert] = field(default_factory=list)


@dataclass
class Case:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], Verdict]
    keep: bool = False  # later cases of the pass read this result


def _ok(_result, _state) -> Verdict:
    return Verdict()


# ---------------------------------------------------------------------------
# certificates

def route_pattern(route: str, n: int, seed: int, t: int = 2, p: int = 4):
    """The mask pattern harness.run_cell plants for a route."""
    if route == "t1":
        return mk.Diagonal()
    if route in ("t2", "a2"):
        return harness.sparse_pattern(n, t, seed)
    if route == "t3":
        return mk.ToeplitzModP(p=p)
    if route == "t4":
        return mk.Banded(p=p)
    raise ValueError(f"unknown route {route!r}")


def route_budget(route: str, n: int, eps: float, seed: int) -> int:
    """The unclamped rank budget the route solves at before clamping to n.

    a2 uses the structural budget ceil(6 k t / eps), t the worst column
    zero count; the other routes use masks.rank_budget.
    """
    pattern = route_pattern(route, n, seed)
    if route == "a2":
        t = mk.make_mask(pattern, n).zero_counts.max_col
        return int(np.ceil(6.0 * K * t / eps))
    return mk.rank_budget(pattern, K, eps, n=n)


def _check_rows(rows, budgets) -> Verdict:
    v = Verdict()
    if len(rows) != len(budgets):
        v.notes.append(f"{len(rows)} report rows for {len(budgets)} cells")
    for row, budget in zip(rows, budgets):
        label = f"{row['pattern']} n={row['n']} seed={row['seed']}"
        if row.get("note"):
            v.notes.append(f"{label}: {row['note']}")
        if not row["satisfied"]:
            v.notes.append(f"{label}: satisfied=False (cost {row['cost']!r} > rhs {row['rhs']!r})")
        if row["k_prime"] != max(1, min(budget, row["n"])):
            v.notes.append(f"{label}: k_prime {row['k_prime']} is not the clamped budget {budget}")
        v.certs.append(Cert(row["cost"], row["rhs"], budget, row["n"]))
    return v


def _check_report(rep: sv.BicriteriaReport, budget: int) -> Verdict:
    v = Verdict(certs=[Cert(rep.cost, rep.rhs, budget, rep.n)])
    if not rep.satisfied:
        v.notes.append(f"satisfied=False (cost {rep.cost!r} > rhs {rep.rhs!r})")
    return v


# ---------------------------------------------------------------------------
# certify-large

def certify_large(seed: int, tmp: str) -> list[Case]:
    # the largest n that keeps a pass to a few seconds (see README.md)
    n = 512
    cfg = harness.parse_config({"k": K})
    cases = []
    for route in ("t1", "t4", "a2"):
        budget = route_budget(route, n, EPS, seed)
        cases.append(Case(
            f"run_cell {route} n={n}",
            lambda st, route=route: harness.run_cell(route, n, EPS, seed, cfg),
            lambda row, st, budget=budget: _check_rows([row], [budget]),
        ))
    return cases


# ---------------------------------------------------------------------------
# partitions

def _staircase(n: int, seed: int) -> tuple[int, ...]:
    rng = np.random.default_rng([seed, n, 0x3A])
    return tuple(int(v) for v in np.sort(rng.integers(0, n + 1, size=n))[::-1])


def _check_partition(spec, seed: int):
    def check(P, st) -> Verdict:
        v = Verdict()
        cap = pr.transcript_cap(spec)
        if len(P.rectangles) > cap:
            v.notes.append(f"{len(P.rectangles)} rectangles exceed the cap {cap}")
        if P.order == 2:
            want = pr.protocol_matrix(spec, seed).bitmap
        else:
            want = pr.protocol_cube(spec, seed)
        if not np.array_equal(pr.partition_bitmap(P), want):
            v.notes.append("partition_bitmap differs from the protocol's output")
        return v

    return check


def _check_rates(spec):
    def check(rates, st) -> Verdict:
        err_on_ones, err_on_zeros = rates
        v = Verdict()
        if not (0.0 <= err_on_ones <= 1.0 and 0.0 <= err_on_zeros <= 1.0):
            v.notes.append(f"error rates {rates} outside [0, 1]")
        if spec.family in pr.ONE_SIDED_FAMILIES and err_on_zeros != 0.0:
            v.notes.append(f"one-sided family erred on zeros at rate {err_on_zeros}")
        return v

    return check


def _same_partition(P, Q) -> bool:
    if (P.n, P.order, P.one_count, P.source) != (Q.n, Q.order, Q.one_count, Q.source):
        return False
    if len(P.rectangles) != len(Q.rectangles):
        return False
    for a, b in zip(P.rectangles, Q.rectangles):
        if a.label != b.label or not np.array_equal(a.row_set, b.row_set):
            return False
        if not np.array_equal(a.col_set, b.col_set):
            return False
        if (a.depth_set is None) != (b.depth_set is None):
            return False
        if a.depth_set is not None and not np.array_equal(a.depth_set, b.depth_set):
            return False
    return True


def partitions(seed: int, tmp: str) -> list[Case]:
    # every family at n; the n x n hash grid and the grouping at larger n
    n, trials = 256, 200_000
    zero_sets = harness.sparse_pattern(n, 2, seed).zero_sets
    specs = [
        pr.equality_hash(n, EPS),
        pr.eq_mod_p(n, 8, EPS),
        pr.sparse_set_eq(n, zero_sets, 2, EPS),
        pr.greater_than(n, EPS),
        pr.banded_gt(n, 4, EPS),
        pr.banded2d_gt(n, 2, EPS),
        pr.monotone_gt(_staircase(n, seed), EPS),
        pr.equality_hash(2048, EPS),
        pr.banded_gt(768, 4, EPS),
        pr.neq3_multiparty(128, EPS),
    ]
    round_trip = {("banded-gt", n), ("neq3-multiparty", 128)}
    cases = []
    for spec in specs:
        order3 = spec.family == "neq3-multiparty"
        name = f"{'multiparty' if order3 else 'sample'}_partition {spec.family} n={spec.n}"
        dump = (spec.family, spec.n) in round_trip
        cases.append(Case(
            name,
            lambda st, spec=spec, order3=order3: (
                pr.multiparty_partition if order3 else pr.sample_partition)(spec, seed),
            _check_partition(spec, seed),
            keep=dump,
        ))
        if dump:
            path = os.path.join(tmp, f"{spec.family}.partition")
            cases.append(Case(
                f"write_partition {spec.family} n={spec.n}",
                lambda st, path=path, name=name: mio.write_partition(path, st[name]),
                _ok,
            ))
            cases.append(Case(
                f"read_partition {spec.family} n={spec.n}",
                lambda st, path=path: mio.read_partition(path),
                lambda Q, st, name=name: Verdict(
                    [] if _same_partition(st[name], Q)
                    else ["partition read back differs from the one written"]),
            ))
    for spec in (s for s in specs if s.n <= n):
        target = pr.target_bitmap(spec)
        cases.append(Case(
            f"empirical_error_rates {spec.family} n={spec.n}",
            lambda st, spec=spec, target=target: pr.empirical_error_rates(
                spec, target, trials, seed),
            _check_rates(spec),
        ))
    return cases


# ---------------------------------------------------------------------------
# sweep-small

def _check_suite(budgets):
    def check(rep, st) -> Verdict:
        v = _check_rows(rep.rows, budgets)
        for s in rep.protocol_stats:
            if s["rectangles"] > s["cap"]:
                v.notes.append(f"{s['family']}: {s['rectangles']} rectangles exceed cap {s['cap']}")
        return v

    return check


def _merged(st) -> harness.ExperimentReport:
    out = harness.ExperimentReport()
    for name, rep in st.items():
        if name.startswith("run_suite "):
            out.rows.extend(rep.rows)
            out.protocol_stats.extend(rep.protocol_stats)
    return out


def _check_emitted(path: str):
    def check(_none, st) -> Verdict:
        want = [r["satisfied"] for r in _merged(st).rows]
        got = [r["satisfied"] for r in harness.load_rows(path)]
        return Verdict([] if got == want else [f"{path} reads back differently"])

    return check


def sweep_small(seed: int, tmp: str) -> list[Case]:
    seeds = (seed, seed + 1, seed + 2)
    cases = []
    grid = itertools.product(("t1", "t2", "t3", "t4", "a2"), (32, 64, 128), (0.1, 0.25, 0.5), seeds)
    for route, n, eps, s in grid:
        config = {"routes": route, "sizes": n, "eps": eps, "seeds": s,
                  "k": K, "stats_trials": 10000}
        budget = route_budget(route, n, eps, s)
        cases.append(Case(
            f"run_suite {route} n={n} eps={eps} seed={s}",
            lambda st, config=config: harness.run_suite(config),
            _check_suite([budget]),
            keep=True,
        ))
    # Monotone and Banded2D certify only at full rank today; kept so that
    # vacuous_frac shows it.
    for n in (64, 256):
        for pattern in (mk.Monotone(_staircase(n, seed)), mk.Banded2D(2)):
            inst = harness.gen_planted("matrix", pattern, n, K, seed=seed)
            budget = mk.rank_budget(pattern, K, EPS, n=n)
            cases.append(Case(
                f"verify_bicriteria {pattern.tag} n={n}",
                lambda st, inst=inst: sv.verify_bicriteria(
                    inst.A, inst.W, K, EPS, opt_upper=inst.opt_upper,
                    L_for_eps2=inst.L_star, seed=seed),
                lambda rep, st, budget=budget: _check_report(rep, budget),
            ))
    for fmt in ("csv", "json"):
        path = os.path.join(tmp, f"sweep.{fmt}")
        cases.append(Case(
            f"emit {fmt}",
            lambda st, fmt=fmt, path=path: harness.emit(_merged(st), fmt, path),
            _check_emitted(path),
        ))
    return cases


# ---------------------------------------------------------------------------
# comparators

def _check_comparator(P, k: int):
    one_cells = None

    def check(L, st) -> Verdict:
        nonlocal one_cells
        if one_cells is None:
            one_cells = pr.partition_bitmap(P)
        v = Verdict()
        if L.rank_bound != max(1, k * P.one_count):
            v.notes.append(f"rank_bound {L.rank_bound} != k * one_count {k * P.one_count}")
        if np.any(L.value()[one_cells == 0] != 0):
            v.notes.append("comparator is nonzero on a 0-labeled rectangle")
        return v

    return check


def _check_altmin(A, W, init):
    start = la.masked_cost(A, W, init)

    def check(L, st) -> Verdict:
        v = Verdict()
        cost = la.masked_cost(A, W, L)
        if not math.isclose(cost, L.meta["cost"], rel_tol=FIT_RTOL, abs_tol=1e-12):
            v.notes.append(f"meta cost {L.meta['cost']!r} != masked cost {cost!r}")
        if cost > start * (1 + FIT_RTOL) + 1e-12:
            v.notes.append(f"ALS raised the masked cost from its init: {start!r} -> {cost!r}")
        return v

    return check


def _full_fit(M, F) -> float:
    return float(np.sum((M - F.value()) ** 2))


def _check_tensor_lra(M, comp_name: str):
    def check(F, st) -> Verdict:
        before, after = _full_fit(M, st[comp_name]), _full_fit(M, F)
        if after > before * (1 + FIT_RTOL) + 1e-12:
            return Verdict([f"ALS from the comparator raised the fit: {before!r} -> {after!r}"])
        return Verdict()

    return check


def _check_bool_cover(A, W, C, k: int):
    def check(result, st) -> Verdict:
        cost = result[1] if isinstance(result, tuple) else result.cost
        _, opt = bl.bool_lra_exhaustive(A, W, k)
        v = Verdict()
        if cost > len(C.rectangles) * opt:
            v.notes.append(f"cover cost {cost} > |C| * exhaustive optimum {len(C.rectangles)} * {opt}")
        if not isinstance(result, tuple) and not result.satisfied:
            v.notes.append(f"verify_nondet_bound: satisfied=False ({result})")
        return v

    return check


def _check_bool_heuristic(A, W, k: int):
    def check(result, st) -> Verdict:
        fac, cost = result
        _, opt = bl.bool_lra_exhaustive(A, W, k)
        v = Verdict()
        if cost != bl.bool_cost(A, fac.value(), W):
            v.notes.append("reported cost differs from bool_cost of the factor")
        if cost < opt:
            v.notes.append(f"heuristic cost {cost} below the exhaustive optimum {opt}")
        return v

    return check


def _full_neq3_partition(n: int, seed: int):
    """The three-party partition of the first protocol seed from `seed` on
    that uses every hash bucket.

    The comparator's CP rank is k times the partition's one_count. ALS time
    jumps with that rank under two BLAS threads: ten sweeps at n=32 took
    0.02 s at rank 30 and 0.3 s at rank 48 on a 2-core machine. Fixing
    one_count at its maximum keeps the rank, and the work of a run, the same
    for every seed.
    """
    spec = pr.neq3_multiparty(n, EPS)
    full = 3 * math.ceil(2 / EPS)
    for s in range(seed, seed + 1000):
        P = pr.multiparty_partition(spec, s)
        if P.one_count == full:
            return P
    raise RuntimeError(f"no protocol seed in [{seed}, {seed + 1000}) fills every bucket at n={n}")


def comparators(seed: int, tmp: str) -> list[Case]:
    cases = []
    # matrix comparators: thousands of tiny per-rectangle SVDs
    for n in (64, 128, 256):
        for pattern, spec in ((mk.Diagonal(), pr.equality_hash(n, EPS)),
                              (mk.Banded(4), pr.banded_gt(n, 4, EPS))):
            inst = harness.gen_planted("matrix", pattern, n, K, seed=seed)
            P = pr.sample_partition(spec, seed)
            A, W = inst.A, inst.W
            cases.append(Case(
                f"comparator_from_partition {pattern.tag} n={n}",
                lambda st, A=A, W=W, P=P: sv.comparator_from_partition(A, W, P, K),
                _check_comparator(P, K),
            ))
            cases.append(Case(
                f"chain_inequality_check {pattern.tag} n={n}",
                lambda st, A=A, W=W, P=P: sv.chain_inequality_check(A, W, P, K),
                lambda ok, st: Verdict([] if ok else ["chain inequality failed"]),
            ))
        inst = harness.gen_planted("matrix", mk.Diagonal(), n, K, seed=seed)
        init = la.svd_truncated(inst.A * inst.W.bitmap, K)
        cases.append(Case(
            f"altmin_baseline diagonal n={n}",
            lambda st, inst=inst, init=init: sv.altmin_baseline(
                inst.A, inst.W, K, iters=10, seed=seed, init=init),
            _check_altmin(inst.A, inst.W, init),
        ))
    # Tensor route. ALS runs a fixed 10 sweeps, a cap every seed reaches, so
    # the work per run does not depend on how fast a seed converges.
    for n, k in itertools.product((16, 24, 32), (1, 2)):
        inst = harness.gen_planted("tensor3", tn.Diagonal3(), n, k, seed=seed)
        P = _full_neq3_partition(n, seed)
        M = inst.A * inst.W.bitmap
        comp_name = f"tensor_comparator n={n} k={k}"
        cases.append(Case(
            comp_name,
            lambda st, inst=inst, P=P, k=k: tn.tensor_comparator(
                inst.A, inst.W, P, k, inner_iters=10, restarts=2, seed=seed),
            lambda F, st, P=P, k=k: Verdict(
                [] if F.rank_bound == k * P.one_count
                else [f"rank_bound {F.rank_bound} != k * one_count"]),
            keep=True,
        ))
        cases.append(Case(
            f"masked_tensor_lra n={n} k={k}",
            lambda st, inst=inst, comp_name=comp_name: tn.masked_tensor_lra(
                inst.A, inst.W, st[comp_name].rank_bound, init=st[comp_name],
                iters=10, seed=seed),
            _check_tensor_lra(M, comp_name),
        ))
    # Boolean route on 8 x 8 instances, the largest the exhaustive oracle takes
    rng = np.random.default_rng([seed, 0xB0])
    cover = pr.nondet_cover("neq-bits", 8)
    W = pr.cover_bitmap(cover)
    A = (rng.random((8, 8)) < 0.5).astype(np.uint8)
    cover_d = pr.nondet_cover("disj-coords", 8)
    inst = harness.gen_planted("boolean", mk.Explicit(pr.cover_bitmap(cover_d)), 8, 1,
                               corruption_scale=0.3, seed=seed)
    cases += [
        Case("bool_lra_exhaustive n=8",
             lambda st: bl.bool_lra_exhaustive(A, W, 1), _ok),
        Case("cover_based_bool_lra neq-bits n=8",
             lambda st: bl.cover_based_bool_lra(A, W, cover, 1, inner="exhaustive"),
             _check_bool_cover(A, W, cover, 1)),
        Case("bool_lra_heuristic n=8",
             lambda st: bl.bool_lra_heuristic(A, W, 1, seed=seed),
             _check_bool_heuristic(A, W, 1)),
        Case("verify_nondet_bound disj-coords n=8",
             lambda st: bl.verify_nondet_bound(
                 inst.A, inst.W, cover_d, 1, opt_upper=inst.opt_upper, inner="exhaustive"),
             _check_bool_cover(inst.A, inst.W, cover_d, 1)),
    ]
    return cases


WORKLOADS = {
    "certify-large": certify_large,
    "partitions": partitions,
    "sweep-small": sweep_small,
    "comparators": comparators,
}
