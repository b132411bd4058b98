"""Order-3 masked tensor approximation: CP-ALS and the order-3 rectangle
comparator.

Order-3 masks (Diagonal3, SparseFaces, a 3-d Explicit) live in masks, and
linalg.masked_cost charges their cost. Tensors are 3-d float64 arrays. CP
factors hold one matrix per mode; the represented value at (i,j,l) is
sum_c U[i,c] V[j,c] Z[l,c]. Cost bounds are certified only against planted
feasible candidates: the true optimum is an infimum that border-rank
effects can make unattainable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import protocols
from .errors import ParameterError, ShapeError
from .linalg import _spd_solve, as_array, as_bitmap
from .masks import Diagonal3  # noqa: F401  re-exported as tensor.Diagonal3

# ALS runs of masked_tensor_lra. A comparator init is the first run and the
# best run wins, so one run already keeps the init's cost bound.
LRA_RESTARTS = 1


@dataclass
class CPFactor:
    U: np.ndarray
    V: np.ndarray
    Z: np.ndarray
    rank_bound: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        r = self.U.shape[1]
        if self.V.shape[1] != r or self.Z.shape[1] != r:
            raise ShapeError("CP factor widths differ")
        if self.rank_bound < r:
            raise ParameterError("rank_bound below factor width")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.U.shape[0], self.V.shape[0], self.Z.shape[0])

    def value(self) -> np.ndarray:
        return np.einsum("ic,jc,lc->ijl", self.U, self.V, self.Z)


def zero_cp(n1: int, n2: int, n3: int) -> CPFactor:
    return CPFactor(np.zeros((n1, 1)), np.zeros((n2, 1)), np.zeros((n3, 1)), 1)


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
    tol: float = 1e-8,
    seed: int = 0,
    restarts: int = 1,
    init: CPFactor | None = None,
) -> CPFactor:
    """Alternating least squares CP fit, sweep order U then V then Z.

    The full Frobenius fit is nonincreasing per sweep; stops early when the
    relative improvement drops below tol. Best restart wins; a provided
    init replaces the random start of the first restart.
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
        if init is not None and r == 0:
            U, V, Z = init.U.copy(), init.V.copy(), init.Z.copy()
            if U.shape[1] < k:
                pad = k - U.shape[1]
                U = np.hstack([U, np.zeros((n1, pad))])
                V = np.hstack([V, np.zeros((n2, pad))])
                Z = np.hstack([Z, np.zeros((n3, pad))])
        else:
            U = rng.standard_normal((n1, k))
            V = rng.standard_normal((n2, k))
            Z = rng.standard_normal((n3, k))
        prev = np.inf
        sweeps = 0
        for sweeps in range(1, iters + 1):
            U = _als_update(T0, V, Z, ridge_count)
            V = _als_update(T1, U, Z, ridge_count)
            Z = _als_update(T2, U, V, ridge_count)
            fit = CPFactor(U, V, Z, max(k, U.shape[1]))
            res = float(np.sum((T - fit.value()) ** 2))
            if prev - res <= tol * max(norm_T, 1e-300):
                prev = res
                break
            prev = res
        fac = CPFactor(U, V, Z, max(k, U.shape[1]))
        fac.meta.update(residual=prev, sweeps=sweeps, ridge_fallbacks=ridge_count[0])
        if prev < best_res:
            best, best_res = fac, prev
    return best


def masked_tensor_lra(
    A,
    W,
    k_prime: int,
    init: CPFactor | None = None,
    iters: int = 100,
    seed: int = 0,
) -> CPFactor:
    """CP fit of A*W at rank k_prime (zero-fill heuristic, order 3).

    With init given, ALS monotonicity guarantees the full fit never exceeds
    the init's fit, so a comparator init transfers its cost bound.
    """
    M = as_array(A, 3) * as_bitmap(W, np.float64)
    return cp_als(M, k_prime, iters=iters, seed=seed, restarts=LRA_RESTARTS, init=init)


def tensor_comparator(
    A,
    W,
    P: protocols.PartitionSample,
    k: int,
    inner_iters: int = 100,
    restarts: int = 3,
    seed: int = 0,
) -> CPFactor:
    """Per-1-rectangle CP fits of A*W, zero-extended and concatenated.

    The achieved per-rectangle cost (ALS, 3 restarts by default) replaces
    the unattainable per-rectangle optimum in every recorded bound.
    """
    if k < 1:
        raise ParameterError(f"k={k} must be positive")
    if P.order != 3:
        raise ParameterError("tensor comparator needs an order-3 partition")
    M = as_array(A, 3) * as_bitmap(W, np.float64)

    def fit(i, sets):
        f = cp_als(M[np.ix_(*sets)], k, iters=inner_iters, restarts=restarts, seed=seed + i)
        return f.U, f.V, f.Z

    factors = protocols.assemble(P.rectangles, M.shape, fit)
    if factors is None:
        return zero_cp(*M.shape)
    return CPFactor(*factors, k * P.one_count)
