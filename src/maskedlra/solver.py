"""Masked low-rank approximation, the rectangle comparator, bound
verification, and an alternating-minimization baseline.

The solver itself is the zero-fill heuristic: factor A with its masked
entries zeroed. Rectangle partitions never steer the solver; they enter
only through the comparator that witnesses the cost bound, so a bad
protocol draw can weaken a certificate but not the returned factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import masks, protocols
from .errors import ParameterError
from .linalg import (
    LowRankFactor,
    _spd_solve,
    as_bitmap,
    hadamard,
    masked_cost,
    randomized_range_lra,
    svd_truncated,
    zero_factor,
)


@dataclass
class BicriteriaReport:
    k: int
    k_prime: int
    eps1: float
    eps2: float
    cost: float
    opt_upper: float
    rhs: float
    satisfied: bool
    pattern: str = ""
    n: int = 0
    seed: int = 0
    one_count: int = 0
    rect_count: int = 0


def masked_lra(A, W, k_prime: int, method: str = "exact", seed: int = 0) -> LowRankFactor:
    """Rank-k' factorization of A with masked entries zeroed out.

    method "exact" is a truncated SVD of A*W; "randomized" uses the seeded
    range sketch. The factor never sees the mask beyond the zero fill.
    """
    M = hadamard(A, as_bitmap(W, np.float64))
    if method == "exact":
        return svd_truncated(M, k_prime)
    if method == "randomized":
        over = min(k_prime, min(M.shape) - k_prime)
        return randomized_range_lra(M, k_prime, oversample=over, seed=seed)
    raise ParameterError(f"unknown method {method!r}")


def comparator_from_partition(
    A, W, P: protocols.PartitionSample, k: int
) -> LowRankFactor:
    """Per-rectangle best rank-k fits of A*W, zero-extended and summed.

    Only 1-labeled rectangles contribute, so the result is exactly zero
    outside their union; rank_bound is k times the 1-rectangle count.
    """
    if k < 1:
        raise ParameterError(f"k={k} must be positive")
    M = hadamard(A, as_bitmap(W, np.float64))

    def fit(i, sets):
        rows, cols = sets
        f = svd_truncated(M[np.ix_(rows, cols)], min(k, len(rows), len(cols)))
        return f.U, f.V

    factors = protocols.assemble(P.rectangles, M.shape, fit)
    if factors is None:
        return zero_factor(*M.shape)
    return LowRankFactor(*factors, k * P.one_count)


def chain_inequality_check(A, W, P: protocols.PartitionSample, k: int) -> bool:
    """The exact solver at rank_bound(comparator) never loses to the comparator."""
    M = hadamard(A, as_bitmap(W, np.float64))
    Lbar = comparator_from_partition(A, W, P, k)
    kp = max(1, min(k * P.one_count, min(M.shape)))
    L = masked_lra(A, W, kp, method="exact")
    lhs = float(np.sum((M - L.value()) ** 2))
    rhs = float(np.sum((M - Lbar.value()) ** 2))
    return lhs <= rhs + 1e-9 * max(1.0, rhs)


def verify_bicriteria(
    A,
    W: masks.Mask,
    k: int,
    eps: float,
    spec: protocols.ProtocolSpec | None = None,
    opt_upper: float = 0.0,
    L_for_eps2: LowRankFactor | None = None,
    seed: int = 0,
) -> BicriteriaReport:
    """Run the exact zero-fill solver at the certified rank and check the bound.

    k' comes from rank_budget for patterned masks and from k times the
    sampled partition's 1-rectangle count for explicit masks. The one
    partition drawn with seed also supplies the report's rectangle counts.
    One-sided protocol families contribute no eps2 term; two-sided families
    charge eps * the off-mask mass of the supplied rank-k candidate.
    """
    A = np.asarray(A, dtype=np.float64)
    if spec is None:
        spec = W.pattern.spec(W.n, eps)
    sample = protocols.sample_partition(spec, seed)

    if isinstance(W.pattern, masks.Explicit):
        k_budget = k * max(1, sample.one_count)
    else:
        k_budget = masks.rank_budget(W.pattern, k, eps, n=W.n)
    k_prime = max(1, min(k_budget, min(A.shape)))

    one_sided = spec.family in protocols.ONE_SIDED_FAMILIES
    # a zero-error protocol mislabels nothing, so it is charged no mass term
    eps1 = 2 * eps if spec.delta > 0 else 0.0
    eps2 = 0.0 if one_sided else eps
    if not one_sided and L_for_eps2 is None:
        raise ParameterError("two-sided protocol needs L_for_eps2 as the candidate")

    M = hadamard(A, as_bitmap(W, np.float64))
    L = masked_lra(A, W, k_prime)
    cost = masked_cost(A, W, L)
    mass = float(np.sum(M * M))
    rhs = opt_upper + eps1 * mass
    if eps2:
        off = hadamard(L_for_eps2.value(), 1.0 - as_bitmap(W, np.float64))
        rhs += eps2 * float(np.sum(off * off))
    # the absolute term forgives SVD roundoff when the bound itself is zero
    satisfied = bool(cost <= rhs + 1e-9 * rhs + 1e-12 * mass)
    return BicriteriaReport(
        k=k,
        k_prime=k_prime,
        eps1=eps1,
        eps2=eps2,
        cost=cost,
        opt_upper=opt_upper,
        rhs=rhs,
        satisfied=satisfied,
        pattern=W.pattern.tag,
        n=W.n,
        seed=seed,
        one_count=sample.one_count,
        rect_count=len(sample.rectangles),
    )


def _solve_rows(Target, WB, F, k, ridge_count):
    """Per-row weighted least squares: rows of the output fit Target's rows
    on the columns where WB is 1, in the span of F's rows."""
    out = np.zeros((Target.shape[0], k))
    for i in range(Target.shape[0]):
        sel = WB[i] == 1
        if not sel.any():
            continue
        Fs = F[sel]
        out[i] = _spd_solve(Fs.T @ Fs, Fs.T @ Target[i, sel], ridge_count)
    return out


def altmin_baseline(
    A,
    W,
    k: int,
    iters: int = 50,
    restarts: int = 1,
    seed: int = 0,
    init: LowRankFactor | None = None,
    trace: bool = False,
) -> LowRankFactor:
    """Alternating least squares on the masked objective.

    Each half-step solves every row (or column) exactly, so the masked cost
    is nonincreasing half-step by half-step; singular normal matrices fall
    back to a ridge solve (recorded in meta). Best restart wins. Used as a
    baseline and an OPT-upper-bound sharpener, never as the certified path.
    """
    if k < 1 or restarts < 1:
        raise ParameterError(f"k={k} and restarts={restarts} must both be positive")
    if iters < 0:
        raise ParameterError(f"iters={iters} must be nonnegative")
    A = np.asarray(A, dtype=np.float64)
    WB = as_bitmap(W, np.uint8)
    n, m = A.shape
    rng = np.random.default_rng(seed)
    best = None
    best_cost = math.inf
    costs = []
    for r in range(restarts):
        ridge_count = [0]
        if init is not None and r == 0:
            U = init.U[:, :k].copy()
            V = init.V[:, :k].copy()
            if U.shape[1] < k:
                U = np.hstack([U, np.zeros((n, k - U.shape[1]))])
                V = np.hstack([V, np.zeros((m, k - V.shape[1]))])
        else:
            U = rng.standard_normal((n, k))
            V = rng.standard_normal((m, k))
        half_costs = []
        for _ in range(iters):
            U = _solve_rows(A, WB, V, k, ridge_count)
            if trace:
                half_costs.append(masked_cost(A, WB, LowRankFactor(U, V, k)))
            V = _solve_rows(A.T, WB.T, U, k, ridge_count)
            if trace:
                half_costs.append(masked_cost(A, WB, LowRankFactor(U, V, k)))
        fac = LowRankFactor(U, V, k)
        cost = masked_cost(A, WB, fac)
        fac.meta.update(ridge_fallbacks=ridge_count[0], cost=cost)
        if trace:
            fac.meta["trace"] = half_costs
        costs.append(cost)
        if cost < best_cost:
            best, best_cost = fac, cost
    best.meta["restart_costs"] = costs
    return best
