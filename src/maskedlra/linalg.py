"""Dense real linear algebra: the low-rank factor of a matrix or an order-3
tensor, its masked squared Frobenius cost, exact truncated SVD, the start
and the Gram solves of both ALS solvers, the Certificate record every
verifier returns, and within, the one rule by which each of them decides.

The exact truncated SVD picks its driver from the shape alone. Every
matrix is fit from the eigenproblem of its smaller Gram matrix: by ARPACK's
partial SVD (svds) when min(n, m) >= 160 and k is small next to it, and
otherwise by numpy's eigh (LAPACK syevd) of the whole Gram matrix, one call
for a whole stack of same-shape matrices. Both paths share one residual
check, per matrix of a stack. LAPACK's divide-and-conquer gesdd runs only
when svds or eigh fails, and LAPACK's gesvd only when gesdd fails to
converge. syevd runs through np.linalg.eigh and gesdd through
np.linalg.svd, so both share numpy's BLAS runtime with numpy's products;
scipy runs only svds and gesvd, and each imports its scipy module on its
first call, so a process that runs neither loads no scipy and no second
BLAS runtime.

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
# _SVDS_RANK_RATIO * k <= min(n, m), and syevd otherwise. Per-call medians
# in ms on 2 cores (OpenBLAS 0.3.31) at 1 / 2 BLAS threads, on the zero fill
# of a planted banded (p = 4) instance, the middle of three processes' medians
# of 41 calls:
#
#   n x n, k       syevd         gesdd         svds
#   32, 4          0.13 / 0.18   0.13 / 0.18   0.74 / 0.74
#   64, 8          0.60 / 0.46   0.69 / 0.61   1.15 / 1.53
#   128, 8         1.43 / 1.66   2.82 / 3.96   1.52 / 2.02
#   128, 16        1.41 / 1.64   3.14 / 4.05   1.96 / 2.66
#   160, 8         2.01 / 2.53   3.61 / 5.20   2.98 / 2.13
#   192, 8         3.68 / 3.66   5.75 / 8.41   2.02 / 2.71
#
# At k = 8 the two cross at 160: below it syevd wins, and from 176 on svds
# won on planted diagonal and banded fills at both thread counts. At
# 512 x 512 svds/gesdd/gesvd took 0.03/0.09/0.92 s for k = 8 and
# 0.03/0.08/0.84 s for k = 32, and at k = 336 gesdd 0.075 s and svds
# 0.60 s; syevd against gesdd at k = 96 took 41 against 102 ms at
# 512 x 512, and 214 against 605 ms at 1024 x 1024. At k = 8 svds and
# syevd tied at 512 x 512 (40 and 36 ms), and svds won at 1024 x 1024 (186
# against 236 ms).
_SVDS_MIN_DIM = 160
_SVDS_RANK_RATIO = 8

# svds and syevd run on a matrix scaled by 2^-e when the binary exponent e
# of its largest magnitude has |e| > _SCALE_EXP: its Gram matrix and its sum
# of squares then stay clear of overflow and underflow.
_SCALE_EXP = 256

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
    - svds (ARPACK, seeded start vector) when min(n, m) >= 160 and
      8 k <= min(n, m);
    - syevd (numpy's eigh of the smaller Gram matrix) in every other case;
    - gesdd (LAPACK divide and conquer, through np.linalg.svd) when svds or
      eigh fails or leaves a factor that is not finite;
    - gesvd (scipy's LAPACK bidiagonal QR) only when gesdd raises
      LinAlgError.
    svds and syevd see A scaled by 2^-e, e the binary exponent of its
    largest magnitude, when |e| > 256, so that no Gram matrix or sum of
    squares overflows or underflows; other matrices run unscaled. Their
    residuals are checked against ||A||^2 - sum(sigma^2), and a fit that is
    not finite goes to gesdd; both are accurate to about k eps sigma_1^2
    rather than to gesdd's backward-stable level. This is _svd_stack on the
    one-matrix stack A[None]. meta["svd_driver"] names the driver that ran.
    NumericalError is raised when gesvd fails too, or when a residual check
    fails.
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
    follows from (r, c, k) as in svd_truncated, so each matrix gets the
    factors it gets alone: svds runs matrix by matrix, and otherwise one
    np.linalg.eigh call (syevd) covers the Gram matrices of the whole stack.
    Both see each matrix scaled by 2^-e, e from _exponents, and its U is
    scaled back. Only a matrix whose fit failed or is not finite is redone,
    by _gesdd_stack on the unscaled matrix.
    """
    r, c = X.shape[1:]
    e = _exponents(X)[:, None, None]
    S = np.ldexp(X, -e) if e.any() else X
    if min(r, c) >= _SVDS_MIN_DIM and _SVDS_RANK_RATIO * k <= min(r, c):
        driver = "svds"
        U, V, power = (np.stack(f) for f in zip(*(_svds(A, k) for A in S)))
    else:
        driver = "syevd"
        U, V, power = _syevd(S, k)
    redo = np.flatnonzero(~_checked(S, U, V, power, driver))
    if e.any():
        U = np.ldexp(U, e)
    drivers = [driver] * len(X)
    if redo.size:
        U[redo], V[redo], redone = _gesdd_stack(X[redo], k)
        for i, d in zip(redo, redone):
            drivers[i] = d
    return U, V, drivers


def _exponents(X: np.ndarray) -> np.ndarray:
    """Per matrix of the stack X, the binary exponent e of its largest
    magnitude where |e| > _SCALE_EXP, and 0 elsewhere. Scaling by 2^-e
    changes no significand above the subnormal range, and e = 0 leaves an
    ordinary matrix's fit as it is, bit for bit."""
    e = np.frexp(np.maximum(X.max(axis=(1, 2)), -X.min(axis=(1, 2))))[1]
    return np.where(np.abs(e) > _SCALE_EXP, e, 0)


def _gesdd_stack(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """_svd_stack's fallback drivers: gesdd on the stack, gesvd on a failure.

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


def _svds(A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Top k factors of A from ARPACK and their sum of sigma^2, or NaN
    factors when ARPACK fails."""
    # a fixed start vector keeps ARPACK deterministic
    v0 = np.random.default_rng(0).standard_normal(min(A.shape))
    import scipy.sparse.linalg

    try:
        U, s, Vt = scipy.sparse.linalg.svds(A, k=k, v0=v0)
    except scipy.sparse.linalg.ArpackError:  # includes ArpackNoConvergence
        return np.full((A.shape[0], k), np.nan), np.full((A.shape[1], k), np.nan), np.nan
    return U[:, ::-1] * s[::-1], Vt[::-1].T, float(np.sum(s * s))


def _syevd(S: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top k factors of each matrix of the stack S, shape (b, r, c), from
    one numpy eigh (LAPACK syevd) of their smaller Gram matrices, and each
    one's sum of sigma^2. When the stacked eigh raises LinAlgError each
    matrix is redone alone, and one whose own eigh fails gets NaN factors.

    For r >= c, V is the top k eigenvectors of S[i]^T S[i] and U = S[i] V.
    For r < c the same runs on S[i]^T: the top eigenvectors Q of
    S[i] S[i]^T are its left singular vectors, so U = Q sigma and
    V = S[i]^T Q / sigma, sigma the column norms of S[i]^T Q.
    """
    b, r, c = S.shape
    Y = S if r >= c else S.transpose(0, 2, 1)
    try:
        lam, Q = np.linalg.eigh(Y.transpose(0, 2, 1) @ Y)
    except np.linalg.LinAlgError:
        if b > 1:
            return tuple(np.concatenate(f) for f in zip(*(_syevd(A[None], k) for A in S)))
        return np.full((1, r, k), np.nan), np.full((1, c, k), np.nan), np.full(1, np.nan)
    # eigh sorts ascending; a copy of the top k lets the full bases go
    Q = np.ascontiguousarray(Q[:, :, ::-1][:, :, :k])
    Z = Y @ Q
    power = lam[:, -k:].sum(axis=1)
    if r >= c:
        return Z, Q, power
    s = np.linalg.norm(Z, axis=1, keepdims=True)
    return Q * s, np.divide(Z, s, out=np.zeros_like(Z), where=s > 0), power


def _checked(S, U, V, power, driver: str) -> np.ndarray:
    """Check each fit S[i] ~ U[i] V[i]^T of the stack S and return which
    pass: ||S[i] - U[i] V[i]^T||^2 must equal ||S[i]||^2 - power[i] within
    _RESIDUAL_RTOL * ||S[i]||^2, power[i] the fit's sum of sigma^2.

    A fit that is not finite fails without raising; a finite one that fails
    raises NumericalError. The sums run over row stripes of at most
    _STRIPE_CELLS cells of the whole stack (one row at least).
    """
    b, r, c = S.shape
    rows = max(1, _STRIPE_CELLS // (b * c))
    Vt = V.transpose(0, 2, 1)
    total, res = np.zeros(b), np.zeros(b)
    for i in range(0, r, rows):
        T = S[:, i:i + rows]
        R = T - U[:, i:i + rows] @ Vt
        total += np.einsum("bij,bij->b", T, T)
        res += np.einsum("bij,bij->b", R, R)
    tail = total - power
    fit = np.abs(res - tail) <= _RESIDUAL_RTOL * total
    bad = np.flatnonzero(~fit & np.isfinite(res - tail))
    if bad.size:
        i = bad[0]
        raise NumericalError(f"{driver} residual {res[i]!r} of matrix {i} disagrees "
                             f"with the spectral tail {tail[i]!r}")
    return fit


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
