"""Boolean masked factorization: OR-of-ANDs products, an exhaustive
small-instance solver, a greedy heuristic, and cover-composed solving
with the cover-size suboptimality bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ResourceError, ShapeError
from .linalg import Certificate, as_bitmap, rhs_of, within
from .masks import Mask
from .protocols import assemble, cover_bitmap

EXHAUSTIVE_BIT_CAP = 24
HEURISTIC_STARTS = 8  # random rank-1 starts per heuristic round


def as_bool_matrix(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={A.ndim}")
    return as_bitmap(A, np.uint8)


@dataclass
class BoolFactor:
    """U is n-by-r, V is r-by-m; the product ORs the r rank-1 terms."""

    U: np.ndarray
    V: np.ndarray
    rank_bound: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.U = as_bool_matrix(self.U)
        self.V = as_bool_matrix(self.V)
        if self.U.shape[1] != self.V.shape[0]:
            raise ShapeError("factor inner dimensions differ")
        if self.rank_bound < self.U.shape[1]:
            raise ParameterError("rank_bound below factor width")

    def value(self) -> np.ndarray:
        return bool_product(self.U, self.V)


def bool_product(U, V) -> np.ndarray:
    U = as_bool_matrix(U)
    V = as_bool_matrix(V)
    if U.shape[1] != V.shape[0]:
        raise ShapeError("factor inner dimensions differ")
    return (U.astype(np.int64) @ V.astype(np.int64) > 0).astype(np.uint8)


def bool_cost(A, B, W) -> int:
    """Hamming cost of B against A on W's support."""
    A = as_bool_matrix(A)
    B = as_bool_matrix(B)
    if A.shape != B.shape:
        raise ShapeError("bool_cost shapes differ")
    Wb = as_bitmap(W, np.uint8, A.shape)
    return int(np.sum((A != B) & (Wb == 1)))


def _patterns(k: int) -> np.ndarray:
    """All k-bit rows in lexicographic order, first bit most significant."""
    codes = np.arange(1 << k, dtype=np.uint32)
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint32)
    return ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def bool_lra_exhaustive(A, W, k: int) -> tuple[BoolFactor, int]:
    """Exact boolean rank-k fit by exhaustive search.

    Enumerates left factors in lexicographic bit order; each right-factor
    column is then optimized independently (lexicographically first among
    minimizers), so the returned pair is the lexicographically least
    optimum. Refuses instances whose search space exceeds 2**24 states.
    """
    A = as_bool_matrix(A)
    Wb = as_bitmap(W, np.uint8, A.shape)
    if k < 1:
        raise ParameterError(f"k={k} must be positive")
    n, m = A.shape
    if 2 * n * k > EXHAUSTIVE_BIT_CAP:
        raise ResourceError(
            f"exhaustive search needs 2^{2 * n * k} states, cap is 2^{EXHAUSTIVE_BIT_CAP}"
        )
    pats = _patterns(k)
    shifts = np.arange(n * k - 1, -1, -1, dtype=np.uint64)
    best_cost = None
    best = None
    for code in range(1 << (n * k)):
        U = ((np.uint64(code) >> shifts) & np.uint64(1)).astype(np.uint8).reshape(n, k)
        # products of every candidate right-column against this U, (2^k, n)
        cols = (U.astype(np.int64) @ pats.T.astype(np.int64) > 0).astype(np.uint8).T
        # masked mismatches of candidate p used at column j, (2^k, m)
        mism = ((cols[:, :, None] != A[None, :, :]) & (Wb[None, :, :] == 1)).sum(axis=1)
        choice = np.argmin(mism, axis=0)
        cost = int(mism[choice, np.arange(m)].sum())
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best = (U, pats[choice].T.copy())
            if cost == 0:
                break
    U, V = best
    fac = BoolFactor(U, V, k)
    fac.meta["cost"] = best_cost
    return fac, best_cost


def _greedy_round(A, Wb, covered, u, max_iters: int = 25):
    """Alternate optimal v-given-u and u-given-v on not-yet-covered cells.

    Net gain counts newly covered target ones minus newly introduced errors,
    both restricted to the mask support; covered cells are fixed under OR.
    """
    open_cells = (Wb == 1) & (covered == 0)
    plus = (A == 1) & open_cells
    minus = (A == 0) & open_cells
    gain = -1
    v = np.zeros(A.shape[1], np.uint8)
    for _ in range(max_iters):
        bv = plus[u == 1].sum(axis=0) - minus[u == 1].sum(axis=0)
        v = (bv > 0).astype(np.uint8)
        bu = plus[:, v == 1].sum(axis=1) - minus[:, v == 1].sum(axis=1)
        u = (bu > 0).astype(np.uint8)
        g = int(bu[u == 1].sum())
        if g <= gain:
            gain = max(gain, g)
            break
        gain = g
    return u, v, gain


def bool_lra_heuristic(A, W, k: int, seed: int = 0) -> tuple[BoolFactor, int]:
    """Greedy boolean rank-k fit: k rounds of seeded rank-1 local search.

    Each round keeps the best positive-gain rank-1 term over several random
    starts; rounds with no positive gain append zero terms, so the result
    never costs more than the zero factor.
    """
    A = as_bool_matrix(A)
    Wb = as_bitmap(W, np.uint8, A.shape)
    if k < 1:
        raise ParameterError(f"k={k} must be positive")
    n, m = A.shape
    rng = np.random.default_rng(seed)
    U = np.zeros((n, k), np.uint8)
    V = np.zeros((k, m), np.uint8)
    covered = np.zeros((n, m), np.uint8)
    for c in range(k):
        best_gain = 0
        best_uv = None
        for _ in range(HEURISTIC_STARTS):
            u0 = (rng.random(n) < 0.5).astype(np.uint8)
            u, v, gain = _greedy_round(A, Wb, covered, u0)
            if gain > best_gain:
                best_gain = gain
                best_uv = (u, v)
        if best_uv is None:
            break
        u, v = best_uv
        U[:, c] = u
        V[c, :] = v
        covered |= np.outer(u, v)
    fac = BoolFactor(U, V, k)
    cost = bool_cost(A, fac.value(), W)
    fac.meta["cost"] = cost
    return fac, cost


def _check_cover(C, Wb) -> None:
    if not len(C.boxes):
        raise ParameterError("cover has no rectangles")
    if (C.boxes.labels != 1).any():
        raise ParameterError("cover rectangles must be 1-labeled")
    if not np.array_equal(cover_bitmap(C), Wb):
        raise ParameterError("cover union differs from the mask support")


def cover_based_bool_lra(
    A, W, C, k: int, inner: str = "auto", seed: int = 0
) -> tuple[BoolFactor, int]:
    """Per-cover-rectangle boolean fits, OR-composed at rank k * |C|.

    inner picks the per-rectangle solver: "exhaustive", "heuristic", or
    "auto" (exhaustive whenever the rectangle fits the search cap).
    """
    A = as_bool_matrix(A)
    Wb = as_bitmap(W, np.uint8, A.shape)
    if inner not in ("auto", "exhaustive", "heuristic"):
        raise ParameterError(f"unknown inner solver {inner!r}")
    _check_cover(C, Wb)
    per_rect = np.zeros(len(C.boxes), dtype=np.int64)

    def fit(group, ix):
        subs = A[ix]
        subW = np.ones(subs.shape[1:], np.uint8)
        mode = inner
        if mode == "auto":
            mode = "exhaustive" if 2 * subs.shape[1] * k <= EXHAUSTIVE_BIT_CAP else "heuristic"
        fits = []
        for i, sub in zip(group.tolist(), subs):
            f, per_rect[i] = (bool_lra_exhaustive(sub, subW, k) if mode == "exhaustive"
                              else bool_lra_heuristic(sub, subW, k, seed=seed + i))
            fits.append((f.U, f.V.T))
        return [np.stack(x) for x in zip(*fits)]

    U, Vt = assemble(C, A.shape, fit)
    fac = BoolFactor(U, Vt.T, k * len(C.boxes))
    cost = bool_cost(A, fac.value(), W)
    fac.meta.update(cost=cost, per_rectangle_costs=per_rect.tolist())
    return fac, cost


def verify_nondet_bound(
    A, W, C, k: int, opt_upper: int, inner: str = "auto", seed: int = 0,
) -> Certificate:
    """Solve through the cover and check the cost against |C| * opt_upper.

    opt_upper is any upper bound on the optimal rank-k cost over the full
    mask (exhaustive where affordable). The one term is opt_upper with
    coefficient |C|, in integers. The bound is proved for exact
    per-rectangle fits; with the heuristic inner solver the verdict only
    reports whether the bound held.
    """
    if opt_upper < 0:
        raise ParameterError(f"opt_upper={opt_upper} must be nonnegative")
    _, cost = cover_based_bool_lra(A, W, C, k, inner=inner, seed=seed)
    size = len(C.boxes)
    terms = (("opt_upper", size, int(opt_upper)),)
    return Certificate(
        route="boolean", pattern=W.pattern.tag if isinstance(W, Mask) else "explicit",
        n=len(A), k=k, k_prime=k * size, seed=seed, cost=cost,
        opt_upper=int(opt_upper), terms=terms, satisfied=within(cost, rhs_of(terms), 0),
        one_count=size, rect_count=size,
    )
