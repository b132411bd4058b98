"""Dense real linear algebra: Hadamard products, the masked squared
Frobenius cost of a matrix or an order-3 tensor, exact truncated SVD, and a
randomized sketch-based low-rank approximation.

The exact truncated SVD picks one of three drivers from the shape alone:
ARPACK's partial SVD (svds) when k is small next to min(n, m) and
min(n, m) >= 128, LAPACK's divide-and-conquer gesdd otherwise, and LAPACK's
gesvd only when gesdd fails to converge.

Matrices are 2-d float64 numpy arrays throughout. Low-rank objects are kept
in factored form (see LowRankFactor) so downstream code can track rank
budgets without materializing products it does not need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import NumericalError, ParameterError, ShapeError

# Tikhonov term added to Gram matrices in the least-squares solves of the
# matrix and tensor comparators.
RIDGE = 1e-10

# LAPACK's bidiagonal QR (xBDSQR) gives up after this many sweeps per value.
_LAPACK_QR_MAXITER = 30

# svd_truncated takes svds when min(n, m) >= _SVDS_MIN_DIM and
# _SVDS_RANK_RATIO * k <= min(n, m). Measured on 2 cores (OpenBLAS, 2
# threads), svds/gesdd/gesvd at 512 x 512: 0.03/0.09/0.92 s for k = 8 and
# 0.03/0.08/0.84 s for k = 32; at k = 336 gesdd took 0.075 s and svds 0.60 s.
# At 64 x 64 svds lost to gesdd for every k; at 128 x 128, k = 8, they tied.
_SVDS_MIN_DIM = 128
_SVDS_RANK_RATIO = 8

# svds must leave ||A - L||^2 equal to ||A||^2 - sum(sigma^2) within this
# fraction of ||A||^2.
_SVDS_RESIDUAL_RTOL = 1e-9


def as_array(A, ndim: int) -> np.ndarray:
    """Validate and return A as an ndim-d float64 array with finite entries."""
    M = np.asarray(A, dtype=np.float64)
    if M.ndim != ndim:
        raise ShapeError(f"expected a {ndim}-d array, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ParameterError("array entries must be finite")
    return M


def as_bitmap(W, dtype) -> np.ndarray:
    """The 0/1 array of W, a mask of any order or a raw array, as dtype."""
    return np.asarray(getattr(W, "bitmap", W), dtype=dtype)


@dataclass
class LowRankFactor:
    """Rank-bounded factorization: the represented value is U @ V.T.

    U is n x r, V is m x r, and rank_bound = r bounds the rank of the
    product. meta carries solver annotations (e.g. ridge fallbacks) and
    does not participate in the represented value.
    """

    U: np.ndarray
    V: np.ndarray
    rank_bound: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.U = as_array(self.U, 2)
        self.V = as_array(self.V, 2)
        if self.U.shape[1] != self.V.shape[1]:
            raise ShapeError(
                f"factor widths differ: U has {self.U.shape[1]} columns, "
                f"V has {self.V.shape[1]}"
            )
        if self.rank_bound < self.U.shape[1]:
            raise ParameterError("rank_bound below factor width")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.U.shape[0], self.V.shape[0])

    def value(self) -> np.ndarray:
        return self.U @ self.V.T


def zero_factor(n: int, m: int, rank_bound: int = 0) -> LowRankFactor:
    return LowRankFactor(np.zeros((n, 1)), np.zeros((m, 1)), max(rank_bound, 1))


def hadamard(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Entrywise product of two same-shaped matrices."""
    A = as_array(A, 2)
    B = as_array(B, 2)
    if A.shape != B.shape:
        raise ShapeError(f"hadamard shapes differ: {A.shape} vs {B.shape}")
    return A * B


def svd_truncated(A: np.ndarray, k: int) -> LowRankFactor:
    """Best rank-k approximation of A in Frobenius norm.

    Computes the top k singular triplets, so the residual is the tail
    spectrum of A. The driver depends only on the shape and k:
    - svds (ARPACK, seeded start vector) when min(n, m) >= 128 and
      8 k <= min(n, m); its residual is checked against
      ||A||^2 - sum(sigma^2), and an ARPACK failure falls through to gesdd;
    - gesdd (LAPACK divide and conquer) in every other case;
    - gesvd (LAPACK bidiagonal QR) only when gesdd raises LinAlgError.
    meta["svd_driver"] names the driver that ran. NumericalError is raised
    when gesvd fails too, or when the svds residual check fails.
    """
    A = as_array(A, 2)
    n, m = A.shape
    if not 1 <= k <= min(n, m):
        raise ParameterError(f"k={k} out of range for a {n}x{m} matrix")
    if min(n, m) >= _SVDS_MIN_DIM and _SVDS_RANK_RATIO * k <= min(n, m):
        L = _svds_truncated(A, k)
        if L is not None:
            return L
    for driver in ("gesdd", "gesvd"):
        try:
            U, s, Vt = scipy.linalg.svd(A, full_matrices=False, lapack_driver=driver)
        except scipy.linalg.LinAlgError as exc:
            error = exc
            continue
        return LowRankFactor(U[:, :k] * s[:k], Vt[:k].T, k, {"svd_driver": driver})
    raise NumericalError(f"svd did not converge: {error}", _LAPACK_QR_MAXITER)


def _svds_truncated(A: np.ndarray, k: int) -> LowRankFactor | None:
    """Top k triplets of A from ARPACK, or None when ARPACK fails."""
    # a fixed start vector keeps ARPACK deterministic
    v0 = np.random.default_rng(0).standard_normal(min(A.shape))
    try:
        U, s, Vt = scipy.sparse.linalg.svds(A, k=k, v0=v0)
    except scipy.sparse.linalg.ArpackError:  # includes ArpackNoConvergence
        return None
    L = LowRankFactor(U[:, ::-1] * s[::-1], Vt[::-1].T, k, {"svd_driver": "svds"})
    total = float(np.sum(A * A))
    res = float(np.sum((A - L.value()) ** 2))
    tail = total - float(np.sum(s * s))
    if abs(res - tail) > _SVDS_RESIDUAL_RTOL * total:
        raise NumericalError(
            f"svds residual {res!r} disagrees with the spectral tail {tail!r}"
        )
    return L


def randomized_range_lra(
    A: np.ndarray,
    k: int,
    oversample: int | None = None,
    power_iters: int = 2,
    seed: int = 0,
) -> LowRankFactor:
    """Rank-k approximation from a seeded Gaussian range sketch.

    Sketch width is k + oversample (oversample defaults to k). power_iters
    rounds of subspace iteration with QR re-orthonormalization sharpen the
    captured range. Deterministic for a fixed seed.
    """
    A = as_array(A, 2)
    n, m = A.shape
    if oversample is None:
        oversample = k
    if k < 1 or k + oversample > min(n, m):
        raise ParameterError(
            f"k={k}, oversample={oversample} out of range for a {n}x{m} matrix"
        )
    rng = np.random.default_rng(seed)
    Y = A @ rng.standard_normal((m, k + oversample))
    Q, _ = np.linalg.qr(Y)
    for _ in range(power_iters):
        Z, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Z)
    B = Q.T @ A
    Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
    root = np.sqrt(s[:k])
    return LowRankFactor((Q @ Ub[:, :k]) * root, Vt[:k].T * root, k)


def _spd_solve(G: np.ndarray, B: np.ndarray, fallbacks: list) -> np.ndarray:
    """Solve G X = B for a symmetric positive semidefinite Gram matrix G.

    Cholesky first; a singular G is solved with RIDGE added to its diagonal
    instead, and each such fallback increments fallbacks[0].
    """
    try:
        c = scipy.linalg.cho_factor(G, check_finite=False)
        return scipy.linalg.cho_solve(c, B, check_finite=False)
    except scipy.linalg.LinAlgError:
        fallbacks[0] += 1
        return np.linalg.solve(G + RIDGE * np.eye(G.shape[0]), B)


def masked_cost(A, W, L) -> float:
    """Sum of (A - L)^2 over the cells where the mask is 1.

    A is a matrix with L a LowRankFactor, or an order-3 tensor with L a
    tensor.CPFactor; W may be a Mask or a raw binary array of A's shape.
    """
    A = as_array(A, len(L.shape))
    bitmap = as_bitmap(W, np.float64)
    if bitmap.shape != A.shape or L.shape != A.shape:
        raise ShapeError(
            f"masked_cost shapes differ: A {A.shape}, W {bitmap.shape}, L {L.shape}"
        )
    R = (A - L.value()) * bitmap
    return float(np.sum(R * R))
