"""Dense real linear algebra: Hadamard products, the masked squared
Frobenius cost, exact truncated SVD, and a randomized sketch-based low-rank
approximation.

Matrices are 2-d float64 numpy arrays throughout. Low-rank objects are kept
in factored form (see LowRankFactor) so downstream code can track rank
budgets without materializing products it does not need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NumericalError, ParameterError, ShapeError

# Tikhonov term added to Gram matrices in the least-squares solves of the
# matrix and tensor comparators.
RIDGE = 1e-10

# LAPACK's bidiagonal QR (xBDSQR) gives up after this many sweeps per value.
_LAPACK_QR_MAXITER = 30


def as_matrix(A) -> np.ndarray:
    """Validate and return A as a 2-d float64 array with finite entries."""
    M = np.asarray(A, dtype=np.float64)
    if M.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ParameterError("matrix entries must be finite")
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
        self.U = as_matrix(self.U)
        self.V = as_matrix(self.V)
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
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise ShapeError(f"hadamard shapes differ: {A.shape} vs {B.shape}")
    return A * B


def svd_truncated(A: np.ndarray, k: int) -> LowRankFactor:
    """Best rank-k approximation of A in Frobenius norm.

    Uses the bidiagonalization + implicit-shift QR driver (LAPACK gesvd),
    then truncates, so the residual is exactly the tail spectrum of A.
    """
    A = as_matrix(A)
    n, m = A.shape
    if not 1 <= k <= min(n, m):
        raise ParameterError(f"k={k} out of range for a {n}x{m} matrix")
    try:
        U, s, Vt = scipy.linalg.svd(A, full_matrices=False, lapack_driver="gesvd")
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"svd did not converge: {exc}", _LAPACK_QR_MAXITER)
    return LowRankFactor(U[:, :k] * s[:k], Vt[:k].T, k)


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
    A = as_matrix(A)
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


def masked_cost(A, W, L: LowRankFactor) -> float:
    """Sum of (A_ij - L_ij)^2 over entries where the mask is 1.

    W may be a Mask or a raw binary matrix.
    """
    A = as_matrix(A)
    bitmap = as_bitmap(W, np.float64)
    if bitmap.shape != A.shape or L.shape != A.shape:
        raise ShapeError(
            f"masked_cost shapes differ: A {A.shape}, W {bitmap.shape}, L {L.shape}"
        )
    R = hadamard(A - L.value(), bitmap)
    return float(np.sum(R * R))
