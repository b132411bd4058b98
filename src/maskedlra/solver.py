"""Masked low-rank approximation, the rectangle comparator, bound
verification, and an alternating-minimization baseline.

The solver itself is the zero-fill heuristic: factor A with its masked
entries zeroed. Rectangle partitions never steer the solver; they enter
only through the comparator that witnesses the cost bound, so a bad
protocol draw can weaken a certificate but not the returned factor.
"""

from __future__ import annotations

import math

import numpy as np

from . import masks, protocols
from .errors import ParameterError
from .linalg import (
    Certificate,
    LowRankFactor,
    _als_start,
    _spd_solve,
    _svd_stack,
    as_array,
    as_bitmap,
    masked_cost,
    rhs_of,
    svd_truncated,
    within,
    zero_factor,
)


def _identity(m: int) -> np.ndarray:
    """The m x m identity as a read-only view of 2m + 1 values: item (i, j)
    is one[m + j - i], which is 1 only where j = i."""
    one = np.zeros(2 * m + 1)
    one[m] = 1.0
    return np.lib.stride_tricks.as_strided(one[m:], (m, m), (-one.itemsize, one.itemsize),
                                           writeable=False)


class _FullRank(LowRankFactor):
    """A matrix M as (M, I) when n >= m and as (I, M.T) otherwise, read
    back by value() with no product. I is _identity's O(n) view, so M is
    the one n x m array held. A factor is never wider than its matrix:
    masked_lra's fit at k' = min(n, m) and a comparator whose fits are at
    least that wide are held this way."""

    @classmethod
    def of(cls, M: np.ndarray, rank_bound: int, meta: dict) -> _FullRank:
        n, m = M.shape
        return cls(*((M, _identity(m)) if n >= m else (_identity(n), M.T)), rank_bound, meta)

    def value(self) -> np.ndarray:
        M = self.U if self.U.shape[0] >= self.V.shape[0] else self.V.T
        # a copy; + 0.0 turns M's -0.0 into the +0.0 a product with I gives
        return M + 0.0


def masked_lra(A, W, k_prime: int) -> LowRankFactor:
    """Rank-k' truncated SVD of M, A with masked entries zeroed out.

    The factor never sees the mask beyond the zero fill. At k' = min(n, m)
    M is its own best rank-k' fit (Eckart-Young), so it comes back with no
    SVD as (M, I) when n >= m and (I, M.T) otherwise: its value is exactly
    M, read with no product, and meta["svd_driver"] is "none".
    """
    A = as_array(A, 2)
    M = A * as_bitmap(W, np.uint8, A.shape)
    if k_prime == min(M.shape):
        return _FullRank.of(M, k_prime, {"svd_driver": "none"})
    return svd_truncated(M, k_prime)


def comparator_from_partition(
    A, W, P: protocols.PartitionSample, k: int
) -> LowRankFactor:
    """Per-rectangle best rank-k fits of A*W, zero-extended and summed.

    Only 1-labeled rectangles contribute, so the result is exactly zero
    outside their union; rank_bound is k times the 1-rectangle count. The
    fits are batched by shape: one _svd_stack call fits each group of
    same-shape 1-rectangles (Boxes.groups), giving each the factors
    svd_truncated gives it alone. Their total width, the sum of
    min(k, rows, cols) over 1-rectangles, decides the form: below
    min(n, m), protocols.assemble places them side by side as the factors;
    otherwise each group's stacked U V^T is assigned into its disjoint
    boxes of a zero C, held as a _FullRank. A partition of another n or
    order than A raises ShapeError.
    """
    if k < 1:
        raise ParameterError(f"k={k} must be positive")
    A = as_array(A, 2)
    M = A * as_bitmap(W, np.uint8, A.shape)
    protocols._check_shape(P, M.shape)
    B = P.boxes
    ones = np.flatnonzero(B.labels == 1)
    width = int(np.minimum(k, np.minimum(B.sizes(0), B.sizes(1))[ones]).sum())

    def fit(group, ix):
        blocks = M[ix]
        return _svd_stack(blocks, min(k, *blocks.shape[1:]))[:2]

    if width < min(M.shape):
        factors = protocols.assemble(P, M.shape, fit)
        return LowRankFactor(*factors, k * P.one_count) if factors else zero_factor(*M.shape)
    C = np.zeros_like(M)
    for group, ix in B.groups(ones):
        U, V = fit(group, ix)
        C[ix] = U @ V.transpose(0, 2, 1)
    return _FullRank.of(C, k * P.one_count, {})


def _block_tails(M, P, k: int) -> float:
    """Sum over P's boxes R of M's cost there: tail_k(M_R), the sum of
    sigma_i^2 for i > k, on a 1-labeled box and ||M_R||^2 on a 0-labeled one.

    On a partition this is ||M - C||^2 for C = comparator_from_partition
    at rank k, read from block spectra without building C. Both sums add
    non-negative terms; ||M||^2 - sum(sigma^2) could cancel below zero.
    One np.linalg.svd(compute_uv=False) call covers each shape group of
    1-boxes (Boxes.groups), and a box with a side of at most k has no tail.
    A P of another n or order than M raises ShapeError.
    """
    protocols._check_shape(P, M.shape)
    B = P.boxes
    total = 0.0
    for label in (0, 1):
        for _, ix in B.groups(np.flatnonzero(B.labels == label)):
            blocks = M[ix]
            if label == 0:
                total += float(np.sum(blocks * blocks))
            elif min(blocks.shape[1:]) > k:
                sigma = np.linalg.svd(blocks, compute_uv=False)
                total += float(np.sum(sigma[:, k:] ** 2))
    return total


def chain_inequality_check(A, W, P: protocols.PartitionSample, k: int) -> bool:
    """The exact solver at rank_bound(comparator) never loses to the
    comparator.

    The left side is the solver's own residual ||M - L||^2; the comparator's
    cost comes from _block_tails, so the comparator itself is never built.
    The two are compared by linalg.within at scale ||M||^2. A partition of
    another n or order than A raises ShapeError.
    """
    if k < 1:
        raise ParameterError(f"k={k} must be positive")
    A = as_array(A, 2)
    M = A * as_bitmap(W, np.uint8, A.shape)
    rhs = _block_tails(M, P, k)
    kp = max(1, min(k * P.one_count, min(M.shape)))
    # the residual is squared in the array value() returns, the mass in M
    R = masked_lra(A, W, kp).value()
    lhs = float(np.sum(np.square(np.subtract(M, R, out=R), out=R)))
    return within(lhs, rhs, float(np.sum(np.square(M, out=M))))


def verify_bicriteria(
    A,
    W: masks.Mask,
    k: int,
    eps: float,
    spec: protocols.ProtocolSpec | None = None,
    opt_upper: float = 0.0,
    L_for_eps2: LowRankFactor | None = None,
    seed: int = 0,
) -> Certificate:
    """Run the exact zero-fill solver at the certified rank and check the bound.

    own is the mask pattern's spec at (n, eps), none for an explicit mask,
    and spec defaults to it. The own spec, compared field by field, keeps
    the pattern's closed-form k' and draws nothing (counts 0). Any other
    order-2 spec on the mask's n whose target bitmap is the mask's is drawn
    with seed: k' is k times its 1-rectangle count, and the counts are
    recorded. Any other spec raises ParameterError. The terms are
    opt_upper, eps1 times the mass of A*W, and, for two-sided families
    only, eps2 = eps times the off-mask mass of the supplied rank-k
    candidate. linalg.within decides at scale the mass of A*W.
    """
    if not isinstance(W, masks.Mask):
        raise ParameterError("bicriteria verification needs a structured mask")
    masks._check_k_eps(k, eps)
    A = as_array(A, 2)
    own = None if isinstance(W.pattern, masks.Explicit) else W.pattern.spec(W.n, eps)
    if spec is None and own is None:
        raise ParameterError("an explicit mask needs the spec of a protocol that computes it")
    spec = own if spec is None else spec
    if spec.n != W.n or protocols._order(spec) != 2:
        raise ParameterError(f"{spec.describe()} does not partition an n={W.n} matrix mask")
    if spec == own:
        k_budget, counts = W.pattern.budget(k, eps, W.n), {}
    elif np.array_equal(protocols.target_bitmap(spec), W.bitmap):
        P = protocols.sample_partition(spec, seed)
        counts = dict(one_count=P.one_count, rect_count=len(P.boxes))
        k_budget = k * max(1, P.one_count)
    else:
        raise ParameterError(f"{spec.describe()} does not compute the {W.pattern.tag} mask")
    k_prime = max(1, min(k_budget, min(A.shape)))

    one_sided = spec.family in protocols.ONE_SIDED_FAMILIES
    if not one_sided and L_for_eps2 is None:
        raise ParameterError("two-sided protocol needs L_for_eps2 as the candidate")

    # the mass and off-mask terms are squared in arrays of their own: a
    # full-rank fit's factor is masked_lra's M itself
    M = A * as_bitmap(W, np.uint8, A.shape)
    mass = float(np.sum(np.square(M, out=M)))
    del M
    L = masked_lra(A, W, k_prime)
    cost = masked_cost(A, W, L)
    # a zero-error protocol mislabels nothing, so it is charged no mass term
    terms = (("opt_upper", 1.0, opt_upper), ("eps1", 2 * eps if spec.delta > 0 else 0.0, mass))
    if not one_sided:
        off = L_for_eps2.value()
        off *= as_bitmap(W, np.uint8, L_for_eps2.shape) == 0
        terms += (("eps2", eps, float(np.sum(np.square(off, out=off)))),)
    return Certificate(
        route="partition", pattern=W.pattern.tag, n=W.n, k=k, k_prime=k_prime,
        seed=seed, cost=cost, opt_upper=opt_upper, terms=terms,
        # the mass term forgives SVD roundoff when the bound itself is zero
        satisfied=within(cost, rhs_of(terms), mass), **counts,
    )


def _solve_rows(M, Wf, F, ridge_count):
    """Weighted least squares for every row at once: row i of the output
    fits M[i] (the target, zero off the mask) on the columns where Wf[i] is
    1, in the span of F's rows. A row with no observed entry stays zero.

    The n Grams F.T diag(Wf[i]) F come from one product with the m outer
    products of F's rows, and one _spd_solve call solves the whole stack.
    """
    n, m = M.shape
    k = F.shape[1]
    G = (Wf @ (F[:, :, None] * F[:, None, :]).reshape(m, k * k)).reshape(n, k, k)
    seen = Wf.any(axis=1)
    out = np.zeros((n, k))
    X, ridged = _spd_solve(G[seen], (M @ F)[seen][..., None])
    out[seen] = X[..., 0]
    ridge_count[0] += int(ridged.sum())
    return out


def altmin_baseline(
    A,
    W,
    k: int,
    iters: int = 50,
    restarts: int = 1,
    seed: int = 0,
    init: LowRankFactor | None = None,
) -> LowRankFactor:
    """Alternating least squares on the masked objective: iters sweeps, each
    solving every row, then every column, exactly.

    So meta["cost"] never grows with iters at a fixed seed; singular normal
    matrices fall back to a ridge solve (recorded in meta). Best restart
    wins. Used as a baseline and an OPT-upper-bound sharpener, never as the
    certified path.
    """
    if k < 1 or restarts < 1:
        raise ParameterError(f"k={k} and restarts={restarts} must both be positive")
    if iters < 0:
        raise ParameterError(f"iters={iters} must be nonnegative")
    A = as_array(A, 2)
    Wf = as_bitmap(W, np.float64, A.shape)
    M = A * Wf
    rng = np.random.default_rng(seed)
    best = None
    best_cost = math.inf
    costs = []
    for r in range(restarts):
        ridge_count = [0]
        U, V = _als_start(init if r == 0 else None, A.shape, k, rng)
        for _ in range(iters):
            U = _solve_rows(M, Wf, V, ridge_count)
            V = _solve_rows(M.T, Wf.T, U, ridge_count)
        fac = LowRankFactor(U, V, k)
        cost = masked_cost(A, W, fac)
        fac.meta.update(ridge_fallbacks=ridge_count[0], cost=cost)
        costs.append(cost)
        if cost < best_cost:
            best, best_cost = fac, cost
    best.meta["restart_costs"] = costs
    return best
