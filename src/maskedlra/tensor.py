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

from . import masks, protocols
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
    within,
    zero_factor,
)
from .masks import Diagonal3  # noqa: F401 - perfbench/workloads.py reads tensor.Diagonal3

# cp_als stops once a sweep improves the fit by at most CP_TOL times ||T||_F^2
CP_TOL = 1e-8


def _khatri_rao(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker products of the stacks X (b, p, r) and Y (b, q, r)."""
    b, _, r = X.shape
    return (X[:, :, None, :] * Y[:, None, :, :]).reshape(b, -1, r)


def _als_update(unfold: np.ndarray, X: np.ndarray, Y: np.ndarray):
    """Least-squares factors against the Khatri-Rao designs of the stacks
    X and Y, and which members took the ridge solve."""
    G = (X.transpose(0, 2, 1) @ X) * (Y.transpose(0, 2, 1) @ Y)
    rhs = unfold @ _khatri_rao(X, Y)
    F, ridged = _spd_solve(G, rhs.transpose(0, 2, 1))
    return F.transpose(0, 2, 1), ridged


def _check_runs(k: int, iters: int, restarts: int) -> None:
    if k < 1:
        raise ParameterError(f"k={k} must be positive")
    if iters < 1 or restarts < 1:
        raise ParameterError(f"iters={iters} and restarts={restarts} must both be positive")


def _cp_runs(T: np.ndarray, starts, iters: int):
    """CP-ALS in lockstep on the stack T (b, n1, n2, n3): run i fits T[i]
    from starts[i], its (U, V, Z), and leaves the stack after its first
    sweep that improves its full Frobenius fit by at most CP_TOL times
    ||T[i]||_F^2, or after iters sweeps. Returns the last factors of every
    run as stacks [U, V, Z], and per run its fit, sweeps and ridge
    fallbacks.
    """
    b, *dims = T.shape
    units = [np.moveaxis(T, a, 1).reshape(b, size, -1) for a, size in enumerate(dims, 1)]
    tol = CP_TOL * np.maximum(np.sum((T * T).reshape(b, -1), axis=1), 1e-300)
    X = [np.stack(f) for f in zip(*starts)]
    out = [np.empty_like(x) for x in X]
    fit, sweeps, fallbacks = np.empty(b), np.zeros(b, np.int64), np.zeros(b, np.int64)
    live, prev = np.arange(b), np.inf
    for sweep in range(1, iters + 1):
        for a in range(3):
            X[a], ridged = _als_update(units[a], *(X[c] for c in range(3) if c != a))
            out[a][live] = X[a]
            fallbacks[live] += ridged
        # the fit on the third unfolding: one product per run, no 3-d temporary
        R = units[2] - X[2] @ _khatri_rao(X[0], X[1]).transpose(0, 2, 1)
        fit[live], sweeps[live] = np.sum((R * R).reshape(len(live), -1), axis=1), sweep
        go = ~(prev - fit[live] <= tol)
        prev = fit[live][go]
        if not go.all():
            live, tol, X, units = live[go], tol[go], [x[go] for x in X], [u[go] for u in units]
        if not len(live):
            break
    return out, fit, sweeps, fallbacks


def cp_als(
    T,
    k: int,
    iters: int = 100,
    seed: int = 0,
    restarts: int = 1,
    init: LowRankFactor | None = None,
) -> LowRankFactor:
    """Alternating least squares CP fit, sweep order U then V then Z.

    The restarts run in lockstep, _cp_runs on T stacked once per restart;
    each run's fit is nonincreasing per sweep. The first run with the
    strictly smallest fit wins, and meta holds its residual, sweeps and
    ridge_fallbacks. A provided init, cut or zero-padded to width k,
    replaces the random start of the first restart.
    """
    T = as_array(T, 3)
    _check_runs(k, iters, restarts)
    rng = np.random.default_rng(seed)
    starts = [_als_start(init if r == 0 else None, T.shape, k, rng) for r in range(restarts)]
    (U, V, Z), fit, sweeps, fallbacks = _cp_runs(
        np.broadcast_to(T, (restarts,) + T.shape), starts, iters)
    best = int(np.argmin(fit))
    fac = LowRankFactor(U[best], V[best], k, Z=Z[best])
    fac.meta.update(residual=float(fit[best]), sweeps=int(sweeps[best]),
                    ridge_fallbacks=int(fallbacks[best]))
    return fac


def masked_tensor_lra(
    A,
    W,
    k_prime: int,
    init: LowRankFactor | None = None,
    iters: int = 100,
    seed: int = 0,
) -> LowRankFactor:
    """CP fit of A*W at rank k_prime (zero-fill heuristic, order 3).

    With init given, ALS starts from it and runs once, cp_als's default.
    In exact arithmetic each ALS step is a least-squares solve, so the fit
    never exceeds the init's and a comparator init would transfer its cost
    bound. In floating point that does not hold: ill-conditioned Grams and
    their ridge fallbacks can raise the cost (a start at 1.76 has ended at
    11.29), so verify_tensor_bicriteria checks within(cost, comp_cost, mass)
    rather than assuming it.
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

    Box i keeps the first of its restarts with the strictly smallest fit,
    its starts drawn from default_rng(seed + i), as cp_als does; all (box,
    restart) runs of a shape group share one _cp_runs stack. The achieved
    per-rectangle cost replaces the unattainable per-rectangle optimum in
    every recorded bound. k, inner_iters and restarts are checked before
    any fit; a partition of another n or order than A raises ShapeError.
    """
    _check_runs(k, inner_iters, restarts)
    A = as_array(A, 3)
    M = A * as_bitmap(W, np.float64, A.shape)

    def fit(group, ix):
        sub = M[ix]
        starts = [_als_start(None, sub.shape[1:], k, rng) for i in group.tolist()
                  for rng in [np.random.default_rng(seed + i)] for _ in range(restarts)]
        factors, res, _, _ = _cp_runs(np.repeat(sub, restarts, axis=0), starts, inner_iters)
        best = np.arange(len(group)) * restarts + np.argmin(res.reshape(-1, restarts), axis=1)
        return [f[best] for f in factors]

    factors = protocols.assemble(P, M.shape, fit)
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
    """Comparator-initialized CP-ALS on an order-3 mask, checked two ways.

    The comparator comes from one draw of the mask pattern's own order-3
    spec, Diagonal3's three-party not-all-equal protocol (any other mask
    raises ParameterError), and ALS from it runs at its width. The terms are
    eps1 = 2 * eps times the mass of A*W, and a slack of 1e-6 ||A||_F^2.
    satisfied needs the cost within both that bound and the comparator's
    cost, recorded in diagnostics["comparator_cost"], by linalg.within at
    scale ||A*W||^2. opt_upper is only recorded: the bound does not charge
    it.
    """
    if not isinstance(W, masks.Mask):
        raise ParameterError("the tensor route needs a structured mask")
    P = protocols.multiparty_partition(W.pattern.spec(W.n, eps), seed=seed)
    A = as_array(A, 3)
    M = A * as_bitmap(W, np.float64, A.shape)
    comp = tensor_comparator(A, W, P, k, inner_iters=iters, seed=seed)
    comp_cost = masked_cost(A, W, comp)
    k_prime = comp.U.shape[1]
    sol = masked_tensor_lra(A, W, k_prime, init=comp, iters=iters, seed=seed)
    cost = masked_cost(A, W, sol)
    mass = float(np.sum(M * M))
    terms = (("eps1", 2.0 * eps, mass), ("slack", 1e-6, float(np.sum(A * A))))
    return Certificate(
        route="tensor", pattern=W.pattern.tag, n=W.n, k=k, k_prime=k_prime,
        seed=seed, cost=cost, opt_upper=opt_upper, terms=terms,
        satisfied=within(cost, comp_cost, mass) and within(cost, rhs_of(terms), mass),
        one_count=P.one_count, rect_count=len(P.boxes),
        diagnostics={"comparator_cost": comp_cost},
    )
