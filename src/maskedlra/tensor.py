"""Order-3 masked tensor approximation: CP-ALS, tensor masks, and the
order-3 rectangle comparator.

Tensors are 3-d float64 arrays. CP factors hold one matrix per mode; the
represented value at (i,j,l) is sum_c U[i,c] V[j,c] Z[l,c]. Cost bounds are
certified only against planted feasible candidates: the true optimum is an
infimum that border-rank effects can make unattainable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import masks, protocols
from .errors import ParameterError, ShapeError
from .linalg import _spd_solve, as_bitmap


def as_tensor(T) -> np.ndarray:
    T = np.asarray(T, dtype=np.float64)
    if T.ndim != 3:
        raise ShapeError(f"expected a 3-d tensor, got ndim={T.ndim}")
    if not np.all(np.isfinite(T)):
        raise ParameterError("tensor entries must be finite")
    return T


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


# ---------------------------------------------------------------------------
# order-3 masks

@dataclass(frozen=True)
class Diagonal3:
    tag = "diagonal3"

    def bitmap(self, n: int) -> np.ndarray:
        x = np.arange(n)
        eq = (x[:, None, None] == x[None, :, None]) & (x[:, None, None] == x[None, None, :])
        return (~eq).astype(np.uint8)


@dataclass(frozen=True)
class SparseFaces:
    """Face i1 is zero exactly on the listed (i2, i3) pairs, at most s each."""

    zero_sets: tuple[tuple[tuple[int, int], ...], ...]
    s: int
    tag = "sparse-faces"

    def bitmap(self, n: int) -> np.ndarray:
        if len(self.zero_sets) != n:
            raise ParameterError("zero_sets must have one entry per face")
        bitmap = np.ones((n, n, n), dtype=np.uint8)
        for i1, zs in enumerate(self.zero_sets):
            if len(zs) > self.s:
                raise ParameterError(f"face {i1} has {len(zs)} zeros, s={self.s}")
            for (i2, i3) in zs:
                if not (0 <= i2 < n and 0 <= i3 < n):
                    raise ParameterError(f"face {i1} zero ({i2},{i3}) out of range")
                bitmap[i1, i2, i3] = 0
        return bitmap


@dataclass(eq=False, frozen=True)
class Explicit3:
    """A mask given cell by cell: cells is its (n, n, n) 0/1 array."""

    cells: np.ndarray
    tag = "explicit"

    def bitmap(self, n: int) -> np.ndarray:
        return masks._binary(self.cells, (n, n, n))


@dataclass(frozen=True)
class Mask3:
    n: int
    pattern: object
    bitmap: np.ndarray


def make_mask3(pattern, n: int) -> Mask3:
    if not isinstance(pattern, (Diagonal3, SparseFaces, Explicit3)):
        raise ParameterError(f"unknown order-3 pattern {pattern!r}")
    return Mask3(n, pattern, pattern.bitmap(n))


def masked_cost3(A, W, L: CPFactor) -> float:
    A = as_tensor(A)
    B = as_bitmap(W, np.float64)
    if B.shape != A.shape or L.shape != A.shape:
        raise ShapeError("masked_cost3 shapes differ")
    D = (A - L.value()) * B
    return float(np.sum(D * D))


# ---------------------------------------------------------------------------
# CP-ALS

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
    T = as_tensor(T)
    if k < 1:
        raise ParameterError(f"k={k} must be positive")
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
    restarts: int = 1,
) -> CPFactor:
    """CP fit of A*W at rank k_prime (zero-fill heuristic, order 3).

    With init given, ALS monotonicity guarantees the full fit never exceeds
    the init's fit, so a comparator init transfers its cost bound.
    """
    M = as_tensor(A) * as_bitmap(W, np.float64)
    return cp_als(M, k_prime, iters=iters, seed=seed, restarts=restarts, init=init)


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
    if P.order != 3:
        raise ParameterError("tensor comparator needs an order-3 partition")
    M = as_tensor(A) * as_bitmap(W, np.float64)
    n1, n2, n3 = M.shape
    Ub, Vb, Zb = [], [], []
    for idx, rect in enumerate(P.rectangles):
        if rect.label != 1:
            continue
        sub = M[np.ix_(rect.row_set, rect.col_set, rect.depth_set)]
        fit = cp_als(sub, k, iters=inner_iters, restarts=restarts, seed=seed + idx)
        r = fit.U.shape[1]
        U = np.zeros((n1, r))
        V = np.zeros((n2, r))
        Z = np.zeros((n3, r))
        U[rect.row_set] = fit.U
        V[rect.col_set] = fit.V
        Z[rect.depth_set] = fit.Z
        Ub.append(U)
        Vb.append(V)
        Zb.append(Z)
    if not Ub:
        return zero_cp(n1, n2, n3)
    return CPFactor(
        np.hstack(Ub), np.hstack(Vb), np.hstack(Zb), k * P.one_count
    )
