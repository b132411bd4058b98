"""Dense real linear algebra: the low-rank factor of a matrix or an order-3
tensor, its masked squared Frobenius cost, exact truncated SVD, the start
and the Gram solves of both ALS solvers, the Certificate record every
verifier returns, and within, the one rule by which each of them decides.

The exact truncated SVD picks its driver from the shape alone. A matrix
with min(n, m) >= 128 is fit from the eigenproblem of its smaller Gram
matrix: by ARPACK's partial SVD (svds) when k is small next to min(n, m),
and otherwise, for a single matrix, by numpy's eigh (LAPACK syevd) of the
whole Gram matrix. Both large-matrix paths share one residual check.
Smaller matrices and stacks take LAPACK's divide-and-conquer gesdd, and
LAPACK's gesvd runs only when gesdd fails to converge. gesdd runs through
np.linalg.svd, one call for a whole stack of same-shape matrices, and
syevd through np.linalg.eigh, so both share numpy's BLAS runtime with
numpy's products; scipy runs only svds and gesvd, and each imports its
scipy module on its first call, so a process that runs neither loads no
scipy and no second BLAS runtime.

Matrices are 2-d float64 numpy arrays throughout. Low-rank objects are kept
in factored form (see LowRankFactor) so downstream code can track rank
budgets without materializing products it does not need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError, ShapeError

# Tikhonov term added to a Gram matrix that is not positive definite in the
# least-squares solves of both ALS solvers.
RIDGE = 1e-10

# LAPACK's bidiagonal QR (xBDSQR) gives up after this many sweeps per value.
_LAPACK_QR_MAXITER = 30

# svd_truncated takes svds when min(n, m) >= _SVDS_MIN_DIM and
# _SVDS_RANK_RATIO * k <= min(n, m), and syevd for a single matrix with
# min(n, m) >= _SVDS_MIN_DIM otherwise. Measured on 2 cores (OpenBLAS, 2
# threads), svds/gesdd/gesvd at 512 x 512: 0.03/0.09/0.92 s for k = 8 and
# 0.03/0.08/0.84 s for k = 32; at k = 336 gesdd took 0.075 s and svds 0.60 s.
# syevd against gesdd at k = 96 took 41 against 102 ms at 512 x 512, and
# 214 against 605 ms at 1024 x 1024. At k = 8 svds and syevd tied at
# 512 x 512 (40 and 36 ms), and svds won at 1024 x 1024 (186 against
# 236 ms). At 64 x 64 svds lost to gesdd for every k; at 128 x 128, k = 8,
# they tied.
_SVDS_MIN_DIM = 128
_SVDS_RANK_RATIO = 8

# svds and syevd must leave ||A - L||^2 equal to ||A||^2 - sum(sigma^2)
# within this fraction of ||A||^2.
_RESIDUAL_RTOL = 1e-9

# The residual check works on row stripes of at most this many cells, so it
# adds no temporary of A's size.
_STRIPE_CELLS = 1 << 16


def as_array(A, ndim: int) -> np.ndarray:
    """Validate and return A as an ndim-d float64 array with finite entries."""
    M = np.asarray(A, dtype=np.float64)
    if M.ndim != ndim:
        raise ShapeError(f"expected a {ndim}-d array, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ParameterError("array entries must be finite")
    return M


def as_bitmap(W, dtype, shape=None) -> np.ndarray:
    """The 0/1 array of W, a mask of any order or a raw array, as dtype.

    This is the one check of a mask argument. A Mask's bitmap is binary by
    construction and is not checked again; a raw array holding anything but
    0 and 1 raises ParameterError. With shape given, a mask of any other
    shape raises ShapeError.
    """
    B = getattr(W, "bitmap", None)
    if B is None:
        B = np.asarray(W)
        if not ((B == 0) | (B == 1)).all():
            raise ParameterError("bitmap entries must be 0 or 1")
    if shape is not None and B.shape != shape:
        raise ShapeError(f"mask shape {B.shape} differs from the data's {shape}")
    return np.asarray(B, dtype=dtype)


@dataclass
class LowRankFactor:
    """Rank-bounded factorization of a matrix, or of an order-3 tensor.

    The represented value is U @ V.T; with a third-axis factor Z it is the
    CP sum over c of U[i,c] V[j,c] Z[l,c]. Every factor has the same width
    r, and rank_bound >= r bounds the (CP) rank. meta carries solver
    annotations (e.g. ridge fallbacks) and does not participate in the
    represented value.
    """

    U: np.ndarray
    V: np.ndarray
    rank_bound: int
    meta: dict = field(default_factory=dict)
    Z: np.ndarray | None = None

    def __post_init__(self):
        self.U = as_array(self.U, 2)
        self.V = as_array(self.V, 2)
        if self.Z is not None:
            self.Z = as_array(self.Z, 2)
        widths = [X.shape[1] for X in self.factors]
        if len(set(widths)) != 1:
            raise ShapeError(f"factor widths differ: {widths}")
        if self.rank_bound < widths[0]:
            raise ParameterError("rank_bound below factor width")

    @property
    def factors(self) -> tuple:
        return (self.U, self.V) if self.Z is None else (self.U, self.V, self.Z)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(X.shape[0] for X in self.factors)

    def value(self) -> np.ndarray:
        if self.Z is None:
            return self.U @ self.V.T
        return np.einsum("ic,jc,lc->ijl", self.U, self.V, self.Z)


@dataclass(frozen=True)
class Certificate:
    """A rank-k' fit's masked cost against its proved bound, for any route.

    route is "partition" (t1-t4), "structural" (a2), "tensor" or "boolean".
    terms lists the summands of the bound as (name, coefficient, base); rhs
    adds coefficient * base over them in order. satisfied is
    within(cost, rhs, scale), the one rule of every route, with the
    route's scale: ||A*W||^2 for "partition" and "tensor", 0 for
    "structural" (whose rhs holds eps ||A||^2) and "boolean" (integers).
    The tensor route also needs within(cost, comparator cost, ||A*W||^2).
    one_count and rect_count count the drawn partition or cover (0 where
    none is drawn); diagnostics holds route-specific values such as the
    comparator's cost.
    """

    route: str
    pattern: str
    n: int
    k: int
    k_prime: int
    seed: int
    cost: float
    opt_upper: float
    terms: tuple
    satisfied: bool
    one_count: int = 0
    rect_count: int = 0
    diagnostics: dict = field(default_factory=dict)

    @property
    def rhs(self):
        return rhs_of(self.terms)

    def coefficient(self, name: str) -> float:
        """The coefficient of the term called name, 0.0 when there is none."""
        return next((c for term, c, _ in self.terms if term == name), 0.0)


def rhs_of(terms):
    """Sum of coefficient * base over (name, coefficient, base) terms, in order."""
    return sum(coef * base for _, coef, base in terms)


def within(cost: float, bound: float, scale: float) -> bool:
    """Whether cost meets bound up to roundoff:
    cost <= bound + 1e-9 * bound + 1e-12 * scale.

    scale is the mass whose roundoff the cost carries (0 where bound
    already holds it). Mapping cost, bound and scale to c^2 times themselves
    leaves the verdict unchanged, as the bounds it decides are homogeneous
    of degree 2 in A.
    """
    return bool(cost <= bound + 1e-9 * bound + 1e-12 * scale)


def zero_factor(*shape) -> LowRankFactor:
    """The zero matrix or order-3 tensor of the given shape, at width 1."""
    U, V, *Z = (np.zeros((size, 1)) for size in shape)
    return LowRankFactor(U, V, 1, Z=Z[0] if Z else None)


def svd_truncated(A: np.ndarray, k: int) -> LowRankFactor:
    """Best rank-k approximation of A in Frobenius norm.

    Computes the top k singular triplets, so the residual is the tail
    spectrum of A. The driver depends only on the shape and k:
    - svds (ARPACK, seeded start vector) when min(n, m) >= 128 and
      8 k <= min(n, m);
    - syevd (numpy's eigh of the smaller Gram matrix) when min(n, m) >= 128
      and 8 k > min(n, m);
    - gesdd (LAPACK divide and conquer, through np.linalg.svd) in every
      other case, and when svds or eigh fails;
    - gesvd (scipy's LAPACK bidiagonal QR) only when gesdd raises
      LinAlgError.
    The svds and syevd residuals are checked against ||A||^2 - sum(sigma^2);
    both are accurate to about k eps sigma_1^2 rather than to gesdd's
    backward-stable level. This is _svd_stack on the one-matrix stack
    A[None]. meta["svd_driver"] names the driver that ran. NumericalError is
    raised when gesvd fails too, or when a residual check fails.
    """
    A = as_array(A, 2)
    n, m = A.shape
    if not 1 <= k <= min(n, m):
        raise ParameterError(f"k={k} out of range for a {n}x{m} matrix")
    U, V, drivers = _svd_stack(A[None], k)
    return LowRankFactor(U[0], V[0], k, {"svd_driver": drivers[0]})


def _svd_stack(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Best rank-k factors of each matrix of the stack X, shape (b, r, c).

    Returns U (b, r, k), the left singular vectors scaled by the singular
    values, V (b, c, k), and the driver that fit each matrix. The driver
    follows from (b, r, c, k) as in svd_truncated: svds runs matrix by
    matrix, syevd only on a one-matrix stack, and otherwise one
    np.linalg.svd call (gesdd) covers the whole stack.
    """
    r, c = X.shape[1:]
    large = min(r, c) >= _SVDS_MIN_DIM
    if large and _SVDS_RANK_RATIO * k <= min(r, c):
        return _concat([_svds_truncated(A, k) or _gesdd_stack(A[None], k) for A in X])
    if large and len(X) == 1:
        return _syevd_truncated(X[0], k) or _gesdd_stack(X, k)
    return _gesdd_stack(X, k)


def _gesdd_stack(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """_svd_stack's dense drivers: gesdd on the stack, gesvd on a failure.

    When the stacked gesdd raises LinAlgError each matrix is redone alone,
    and scipy's gesvd runs only for a matrix whose own gesdd fails; its
    failure raises NumericalError.
    """
    try:
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        drivers = ["gesdd"] * len(X)
    except np.linalg.LinAlgError:
        if len(X) > 1:
            return _concat([_gesdd_stack(A[None], k) for A in X])
        import scipy.linalg

        try:
            U, s, Vt = scipy.linalg.svd(X[0], full_matrices=False, lapack_driver="gesvd")
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(f"svd did not converge: {exc}", _LAPACK_QR_MAXITER) from exc
        U, s, Vt, drivers = U[None], s[None], Vt[None], ["gesvd"]
    return U[:, :, :k] * s[:, None, :k], Vt[:, :k].transpose(0, 2, 1), drivers


def _concat(fits) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Join (U, V, drivers) results of consecutive stacks into one."""
    Us, Vs, drivers = zip(*fits)
    return np.concatenate(Us), np.concatenate(Vs), [d for ds in drivers for d in ds]


def _svds_truncated(A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, list[str]] | None:
    """Top k factors of A from ARPACK as a one-matrix _svd_stack result, or
    None when ARPACK fails."""
    # a fixed start vector keeps ARPACK deterministic
    v0 = np.random.default_rng(0).standard_normal(min(A.shape))
    import scipy.sparse.linalg

    try:
        U, s, Vt = scipy.sparse.linalg.svds(A, k=k, v0=v0)
    except scipy.sparse.linalg.ArpackError:  # includes ArpackNoConvergence
        return None
    return _checked(A, U[:, ::-1] * s[::-1], Vt[::-1].T, float(np.sum(s * s)), "svds")


def _syevd_truncated(A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, list[str]] | None:
    """Top k factors of A from numpy's eigh (LAPACK syevd) of its smaller
    Gram matrix, as a one-matrix _svd_stack result, or None when eigh fails.

    For A n x m with n >= m, V is the top k eigenvectors of A^T A and
    U = A V. For n < m the same runs on A^T: the top eigenvectors Q of
    A A^T are A's left singular vectors, so U = Q sigma and
    V = A^T Q / sigma, sigma the column norms of A^T Q.
    """
    tall = A.shape[0] >= A.shape[1]
    X = A if tall else A.T
    try:
        lam, Q = np.linalg.eigh(X.T @ X)
    except np.linalg.LinAlgError:
        return None
    # eigh sorts ascending; a copy of the top k lets the full basis go
    Q = np.ascontiguousarray(Q[:, ::-1][:, :k])
    Y = X @ Q
    if tall:
        U, V = Y, Q
    else:
        s = np.linalg.norm(Y, axis=0)
        U, V = Q * s, np.divide(Y, s, out=np.zeros_like(Y), where=s > 0)
    return _checked(A, U, V, float(np.sum(lam[-k:])), "syevd")


def _checked(A, U, V, power: float, driver: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(U, V) as a one-matrix _svd_stack result from driver, once
    ||A - U V^T||^2 equals ||A||^2 - power within _RESIDUAL_RTOL * ||A||^2.

    power is the fit's sum of sigma^2. Both sums run over row stripes of
    at most _STRIPE_CELLS cells. A mismatch raises NumericalError.
    """
    rows = max(1, _STRIPE_CELLS // A.shape[1])
    total = res = 0.0
    for i in range(0, len(A), rows):
        S = A[i:i + rows]
        R = S - U[i:i + rows] @ V.T
        total += float(np.sum(S * S))
        res += float(np.sum(R * R))
    tail = total - power
    if abs(res - tail) > _RESIDUAL_RTOL * total:
        raise NumericalError(f"{driver} residual {res!r} disagrees with the spectral tail {tail!r}")
    return U[None], V[None], [driver]


def _spd_solve(G: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve G[i] X[i] = B[i] for a stack of symmetric positive semidefinite
    Gram matrices G (b, k, k) and right-hand sides B (b, k, r).

    A successful Cholesky factorization of the stack certifies every G[i]
    positive definite, and np.linalg.solve then solves the stack. When
    either fails, each member is redone alone, and a member that fails
    alone is solved with RIDGE added to its diagonal; a ridge solve that
    fails too raises NumericalError. Returns X and which members took the
    ridge, a (b,) boolean array. Only numpy's LAPACK runs here, so the
    solves share one BLAS runtime with numpy's products.
    """
    try:
        np.linalg.cholesky(G)
        return np.linalg.solve(G, B), np.zeros(len(G), dtype=bool)
    except np.linalg.LinAlgError:
        if len(G) == 1:
            try:
                X = np.linalg.solve(G + RIDGE * np.eye(G.shape[-1]), B)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"ridge solve failed: {exc}") from exc
            return X, np.ones(1, dtype=bool)
    X, ridged = zip(*(_spd_solve(G[i:i + 1], B[i:i + 1]) for i in range(len(G))))
    return np.concatenate(X), np.concatenate(ridged)


def _als_start(init, shape, k: int, rng) -> list:
    """The first factors of an ALS run at width k, one per axis of shape.

    init's factors are cut or zero-padded to width k; with no init, each
    axis draws a standard-normal (size, k) block from rng, in axis order.
    """
    if init is None:
        return [rng.standard_normal((size, k)) for size in shape]
    if init.shape != shape:
        raise ShapeError(f"init shape {init.shape} differs from the data's {shape}")
    return [np.hstack([X[:, :k], np.zeros((len(X), max(0, k - X.shape[1])))])
            for X in init.factors]


def masked_cost(A, W, L) -> float:
    """Sum of (A - L)^2 over the cells where the mask is 1.

    A is a matrix or an order-3 tensor, L a LowRankFactor of the same
    order; W may be a Mask or a raw binary array of A's shape.
    """
    A = as_array(A, len(L.shape))
    bitmap = as_bitmap(W, np.uint8, A.shape)
    if L.shape != A.shape:
        raise ShapeError(f"masked_cost shapes differ: A {A.shape}, L {L.shape}")
    return residual_cost(A, L.value(), bitmap)


def residual_cost(A: np.ndarray, R: np.ndarray, bitmap: np.ndarray) -> float:
    """Sum of (A - R)^2 over the cells where bitmap is 1, for checked
    arrays of one shape: the residual is formed, masked and squared in R,
    which the caller hands over (masked_cost's fresh L.value())."""
    np.subtract(A, R, out=R)
    R *= bitmap
    return float(np.sum(np.square(R, out=R)))
