"""Order-3 masked tensor approximation: CP-ALS and the order-3 rectangle
comparator.

Order-3 masks (Diagonal3, SparseFaces, a 3-d Explicit) live in masks, and
linalg.masked_cost charges their cost. Tensors are 3-d float64 arrays. A CP
fit is a linalg.LowRankFactor with a third-axis factor Z; the represented
value at (i,j,l) is sum_c U[i,c] V[j,c] Z[l,c]. Cost bounds are certified
only against planted feasible candidates: the true optimum is an infimum
that border-rank effects can make unattainable.
"""

from __future__ import annotations

import numpy as np

from . import protocols
from .errors import ParameterError
from .linalg import (
    Certificate,
    LowRankFactor,
    _als_start,
    _spd_solve,
    as_array,
    as_bitmap,
    masked_cost,
    rhs_of,
    zero_factor,
)
from .masks import Diagonal3

# cp_als stops once a sweep improves the fit by at most CP_TOL times ||T||_F^2
CP_TOL = 1e-8


def _khatri_rao(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    r = X.shape[1]
    return (X[:, None, :] * Y[None, :, :]).reshape(-1, r)


def _als_update(unfold: np.ndarray, X: np.ndarray, Y: np.ndarray, ridge_count):
    """Least-squares factor against the Khatri-Rao design of X and Y."""
    G = (X.T @ X) * (Y.T @ Y)
    rhs = unfold @ _khatri_rao(X, Y)
    return _spd_solve(G, rhs.T, ridge_count).T


def cp_als(
    T,
    k: int,
    iters: int = 100,
    seed: int = 0,
    restarts: int = 1,
    init: LowRankFactor | None = None,
) -> LowRankFactor:
    """Alternating least squares CP fit, sweep order U then V then Z.

    The full Frobenius fit is nonincreasing per sweep; stops early when a
    sweep improves it by at most CP_TOL times ||T||_F^2. Best restart wins;
    a provided init, cut or zero-padded to width k, replaces the random
    start of the first restart.
    """
    T = as_array(T, 3)
    if k < 1:
        raise ParameterError(f"k={k} must be positive")
    if iters < 1 or restarts < 1:
        raise ParameterError(f"iters={iters} and restarts={restarts} must both be positive")
    n1, n2, n3 = T.shape
    T0 = T.reshape(n1, n2 * n3)
    T1 = np.moveaxis(T, 1, 0).reshape(n2, n1 * n3)
    T2 = np.moveaxis(T, 2, 0).reshape(n3, n1 * n2)
    norm_T = float(np.sum(T * T))
    rng = np.random.default_rng(seed)

    best = None
    best_res = np.inf
    for r in range(restarts):
        ridge_count = [0]
        U, V, Z = _als_start(init if r == 0 else None, T.shape, k, rng)
        prev = np.inf
        sweeps = 0
        for sweeps in range(1, iters + 1):
            U = _als_update(T0, V, Z, ridge_count)
            V = _als_update(T1, U, Z, ridge_count)
            Z = _als_update(T2, U, V, ridge_count)
            # the fit on the third unfolding: one matrix product, no 3-d temporary
            res = float(np.sum((T2 - Z @ _khatri_rao(U, V).T) ** 2))
            if prev - res <= CP_TOL * max(norm_T, 1e-300):
                prev = res
                break
            prev = res
        fac = LowRankFactor(U, V, k, Z=Z)
        fac.meta.update(residual=prev, sweeps=sweeps, ridge_fallbacks=ridge_count[0])
        if prev < best_res:
            best, best_res = fac, prev
    return best


def masked_tensor_lra(
    A,
    W,
    k_prime: int,
    init: LowRankFactor | None = None,
    iters: int = 100,
    seed: int = 0,
) -> LowRankFactor:
    """CP fit of A*W at rank k_prime (zero-fill heuristic, order 3).

    With init given, ALS monotonicity guarantees the full fit never exceeds
    the init's fit, so a comparator init transfers its cost bound. ALS runs
    once, cp_als's default: the init starts the first run and the best run
    wins, so one run already keeps the init's cost bound.
    """
    A = as_array(A, 3)
    M = A * as_bitmap(W, np.float64, A.shape)
    return cp_als(M, k_prime, iters=iters, seed=seed, init=init)


def tensor_comparator(
    A,
    W,
    P: protocols.PartitionSample,
    k: int,
    inner_iters: int = 100,
    restarts: int = 3,
    seed: int = 0,
) -> LowRankFactor:
    """Per-1-rectangle CP fits of A*W, zero-extended and concatenated.

    The achieved per-rectangle cost (ALS, 3 restarts by default) replaces
    the unattainable per-rectangle optimum in every recorded bound.
    """
    if k < 1:
        raise ParameterError(f"k={k} must be positive")
    if P.order != 3:
        raise ParameterError("tensor comparator needs an order-3 partition")
    A = as_array(A, 3)
    M = A * as_bitmap(W, np.float64, A.shape)

    def fit(i, sets):
        f = cp_als(M[np.ix_(*sets)], k, iters=inner_iters, restarts=restarts, seed=seed + i)
        return f.U, f.V, f.Z

    factors = protocols.assemble(P.boxes, M.shape, fit)
    if factors is None:
        return zero_factor(*M.shape)
    U, V, Z = factors
    return LowRankFactor(U, V, k * P.one_count, Z=Z)


def verify_tensor_bicriteria(
    A,
    W,
    k: int,
    eps: float,
    opt_upper: float = 0.0,
    iters: int = 60,
    seed: int = 0,
) -> Certificate:
    """Comparator-initialized CP-ALS on a Diagonal3 mask, checked two ways.

    The comparator comes from one draw of the three-party not-all-equal
    protocol, and ALS from it runs at the comparator's width. The terms are
    eps1 = 2 * eps times the mass of A*W, and a slack of 1e-6 ||A||_F^2.
    satisfied needs the cost within both that bound and the comparator's
    cost, recorded in diagnostics["comparator_cost"]. opt_upper is only
    recorded: the bound does not charge it.
    """
    if getattr(W, "pattern", None) != Diagonal3():
        raise ParameterError("the tensor route needs a Diagonal3 mask")
    A = as_array(A, 3)
    M = A * as_bitmap(W, np.float64, A.shape)
    P = protocols.multiparty_partition(protocols.neq3_multiparty(W.n, eps), seed=seed)
    comp = tensor_comparator(A, W, P, k, inner_iters=iters, seed=seed)
    comp_cost = masked_cost(A, W, comp)
    k_prime = comp.U.shape[1]
    sol = masked_tensor_lra(A, W, k_prime, init=comp, iters=iters, seed=seed)
    cost = masked_cost(A, W, sol)
    terms = (("eps1", 2.0 * eps, float(np.sum(M * M))), ("slack", 1e-6, float(np.sum(A * A))))
    return Certificate(
        route="tensor", pattern=W.pattern.tag, n=W.n, k=k, k_prime=k_prime,
        seed=seed, cost=cost, opt_upper=opt_upper, terms=terms,
        satisfied=cost <= comp_cost + 1e-9 * max(1.0, comp_cost) and cost <= rhs_of(terms),
        one_count=P.one_count, rect_count=len(P.boxes),
        diagnostics={"comparator_cost": comp_cost},
    )
