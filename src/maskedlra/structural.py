"""Row-structure route to masked approximation bounds: leverage scores,
heavy-row extraction, and the row-patch comparator with its bicriteria
checker.

Everything here works for masks with few zeros per column: the rows that
carry most of the off-support mass of a low-rank candidate can be patched
wholesale, and the rest contributes little.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ParameterError
from .linalg import LowRankFactor, as_array, masked_cost
from .masks import Mask
from .solver import masked_lra


@dataclass(frozen=True)
class HeavyRowSet:
    S: tuple[int, ...]
    budget: int
    on_mass: float
    off_mass: float


@dataclass(frozen=True)
class StructuralReport:
    pattern: str
    n: int
    k: int
    k_prime: int
    t: int
    eps: float
    cost: float
    opt_upper: float
    rhs: float
    satisfied: bool


def _value(L) -> np.ndarray:
    return L.value() if hasattr(L, "value") else as_array(L, 2)


def leverage_scores(L) -> np.ndarray:
    """Squared row norms of an orthonormal column basis; sums to the rank.

    Score i is the largest fraction of squared mass any column-space vector
    can place on row i.
    """
    M = _value(L)
    Q, s, _ = scipy.linalg.svd(M, full_matrices=False, check_finite=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros(M.shape[0])
    rank = int(np.sum(s > 1e-12 * s[0]))
    return np.sum(Q[:, :rank] ** 2, axis=1)


def heavy_row_set(L, W: Mask, eps: float, k: int) -> HeavyRowSet:
    """Top rows of L by mass on W's zeros, with the ceil(tk/eps) budget.

    Greedy selection minimizes the remaining off-support mass over all sets
    of the budgeted size, so the guaranteed existence of a good set makes
    the greedy set good too: off_mass <= eps/(1-eps) * on_mass.
    """
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"eps={eps} must be in (0, 1)")
    if k < 1:
        raise ParameterError(f"k={k} must be positive")
    if getattr(L, "rank_bound", k) > k:
        raise ParameterError("candidate rank bound exceeds k")
    M = _value(L)
    B = np.asarray(W.bitmap, dtype=np.float64)
    if M.shape != B.shape:
        raise ParameterError("mask shape differs from candidate shape")
    t = W.zero_counts.max_col
    budget = int(np.ceil(t * k / eps))
    sq = M * M
    zero_mass = (sq * (1.0 - B)).sum(axis=1)
    order = np.argsort(-zero_mass, kind="stable")
    S = tuple(sorted(int(i) for i in order[: min(budget, M.shape[0])]))
    keep = np.ones(M.shape[0], dtype=bool)
    keep[list(S)] = False
    off_mass = float(zero_mass[keep].sum())
    on_mass = float((sq * B).sum())
    return HeavyRowSet(S=S, budget=budget, on_mass=on_mass, off_mass=off_mass)


def row_patch_comparator(A, W: Mask, L: LowRankFactor, S) -> LowRankFactor:
    """Replace the rows in S by the corresponding rows of A on W's support.

    Patched rows enter through identity columns, so the new width (and
    rank bound) is rank(L) + |S|.
    """
    A = as_array(A, 2)
    B = np.asarray(W.bitmap, dtype=np.float64)
    S = tuple(sorted(int(i) for i in S))
    n, m = A.shape
    r = L.U.shape[1]
    if len(S) + L.rank_bound > min(n, m):
        raise ParameterError("patched rank bound exceeds min dimension")
    U = np.hstack([L.U, np.zeros((n, len(S)))])
    V = np.hstack([L.V, np.zeros((m, len(S)))])
    M = A * B
    for pos, i in enumerate(S):
        U[i, :r] = 0.0
        U[i, r + pos] = 1.0
        V[:, r + pos] = M[i, :]
    return LowRankFactor(U, V, L.rank_bound + len(S))


def verify_structural_bicriteria(
    A,
    W: Mask,
    k: int,
    eps: float,
    opt_upper: float,
) -> StructuralReport:
    """Solve exactly at the row-structure rank budget and check the additive bound.

    Budget is ceil(6*k*t/eps) with t the mask's worst column zero count,
    clamped to the exact-solve range. The asserted right-hand side is
    opt_upper + eps * ||A||_F^2.
    """
    A = as_array(A, 2)
    if not isinstance(W, Mask):
        raise ParameterError("structural verification needs a structured mask")
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"eps={eps} must be in (0, 1)")
    if k < 1:
        raise ParameterError(f"k={k} must be positive")
    t = W.zero_counts.max_col
    n, m = A.shape
    k_prime = max(1, min(int(np.ceil(6.0 * k * t / eps)), min(n, m)))
    cost = masked_cost(A, W, masked_lra(A, W, k_prime))
    rhs = float(opt_upper) + eps * float(np.sum(A * A))
    satisfied = cost <= rhs + 1e-9 * max(1.0, rhs)
    return StructuralReport(
        pattern=W.pattern.tag,
        n=n,
        k=k,
        k_prime=k_prime,
        t=t,
        eps=eps,
        cost=cost,
        opt_upper=float(opt_upper),
        rhs=rhs,
        satisfied=satisfied,
    )
