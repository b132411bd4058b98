"""Communication protocols for mask predicates and their rectangle partitions.

Each family's decisions are written once, in decide(spec, idx, keys), which
returns transcript codes and outputs on any broadcastable set of cells. The
certificate's partition runs it on the full input grid with one seeded draw
of shared randomness; grouping cells by transcript yields combinatorial
rectangles labeled with the protocol output. empirical_error_rates runs the
same evaluator on sampled cells with independent randomness per sample, so
the error rate it reports is that of the decisions the partition is built
from. Nondeterministic covers are built directly from their witness
structure. assemble turns per-rectangle fits of a partition or a cover into
the factors of its comparator.

Families:
  equality-hash       not-equal via one hashed message (1-sided)
  eq-mod-p            residue equality, deterministic or hashed (1-sided)
  sparse-set-eq       membership of a column in a row's zero set (1-sided)
  greater-than        prefix binary search with hashed comparisons
  banded-gt           two greater-than calls, short-circuited
  banded2d-gt         three greater-than calls on split indices
  monotone-gt         one greater-than call on prefix lengths
  neq3-multiparty     order-3 not-all-equal (1-sided)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceError, ShapeError
from . import masks
from .linalg import as_bitmap

ENUM_CAP = 4096  # largest n for exhaustive order-2 transcript enumeration
ENUM_CAP_3 = 256  # largest n for order-3 enumeration

ONE_SIDED_FAMILIES = ("equality-hash", "eq-mod-p", "sparse-set-eq", "neq3-multiparty")


@dataclass(frozen=True)
class ProtocolSpec:
    family: str
    n: int
    delta: float = 1.0
    p: int | None = None
    t: int | None = None
    zero_sets: tuple[tuple[int, ...], ...] | None = None
    prefix_lengths: tuple[int, ...] | None = None
    groups: tuple[int, ...] | None = None
    col_groups: tuple[int, ...] | None = None

    def describe(self) -> str:
        parts = [f"n={self.n}", f"delta={self.delta:g}"]
        if self.p is not None:
            parts.append(f"p={self.p}")
        if self.t is not None:
            parts.append(f"t={self.t}")
        return f"{self.family}({', '.join(parts)})"


def _check_delta(delta: float) -> None:
    if not 0 < delta <= 1:
        raise ParameterError(f"delta={delta} outside (0, 1]")


def equality_hash(n: int, delta: float, groups=None) -> ProtocolSpec:
    _check_delta(delta)
    if groups is not None:
        groups = tuple(int(g) for g in groups)
        if len(groups) != n:
            raise ParameterError("groups must assign an id to every index")
    return ProtocolSpec("equality-hash", n, delta, groups=groups)


def eq_mod_p(n: int, p: int, delta: float | None = None) -> ProtocolSpec:
    masks._check_p(p, n)
    if delta is not None:
        _check_delta(delta)
    return ProtocolSpec("eq-mod-p", n, delta if delta is not None else 0.0, p=p)


def sparse_set_eq(n: int, zero_sets, t: int, delta: float, col_groups=None) -> ProtocolSpec:
    _check_delta(delta)
    zs = tuple(tuple(int(c) for c in row) for row in zero_sets)
    if len(zs) != n:
        raise ParameterError("zero_sets must have one entry per row")
    if any(len(row) > t for row in zs):
        raise ParameterError(f"a zero set exceeds t={t}")
    if col_groups is not None:
        col_groups = tuple(int(g) for g in col_groups)
        if len(col_groups) != n:
            raise ParameterError("col_groups must assign an id to every column")
    return ProtocolSpec("sparse-set-eq", n, delta, t=t, zero_sets=zs, col_groups=col_groups)


def greater_than(n: int, delta: float) -> ProtocolSpec:
    _check_delta(delta)
    return ProtocolSpec("greater-than", n, delta)


def banded_gt(n: int, p: int, delta: float) -> ProtocolSpec:
    _check_delta(delta)
    masks._check_p(p, n)
    return ProtocolSpec("banded-gt", n, delta, p=p)


def banded2d_gt(n: int, p: int, delta: float) -> ProtocolSpec:
    _check_delta(delta)
    masks.split_index(n)
    masks._check_p(p, n)
    return ProtocolSpec("banded2d-gt", n, delta, p=p)


def monotone_gt(prefix_lengths, delta: float) -> ProtocolSpec:
    _check_delta(delta)
    px = tuple(int(v) for v in prefix_lengths)
    n = len(px)
    if any(not 0 <= v <= n for v in px):
        raise ParameterError("prefix lengths must lie in 0..n")
    return ProtocolSpec("monotone-gt", n, delta, prefix_lengths=px)


def neq3_multiparty(n: int, delta: float) -> ProtocolSpec:
    _check_delta(delta)
    return ProtocolSpec("neq3-multiparty", n, delta)


# ---------------------------------------------------------------------------
# hashing

def _hash_buckets(vals: np.ndarray, key, buckets: int) -> np.ndarray:
    """Pairwise-independent multiply-shift hash of vals into [0, buckets).

    64-bit state (uint64 arithmetic wraps mod 2^64); the high 32 bits of
    a*x+b feed a fixed-point range reduction, so collision probability is
    1/buckets up to O(2^-32), and one bucket maps every value to 0.
    key holds a and b along its first axis; each may be an array
    broadcasting against vals, giving each entry its own independent hash
    function.
    """
    a, b = key
    v = vals.astype(np.uint64)
    h32 = (a * v + b) >> np.uint64(32)
    return ((h32 * np.uint64(buckets)) >> np.uint64(32)).astype(np.int64)


# ---------------------------------------------------------------------------
# greater-than core

def _compact(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Re-index codes to small ids with a same-length sentinel bit."""
    _, inv = np.unique(codes, return_inverse=True)
    inv = inv.reshape(codes.shape).astype(np.int64)
    width = max(1, int(inv.max()).bit_length())
    return inv + (1 << width), width + 1


def _gt(a, b, m: int, delta: float, keys, direction: str = "a>b"):
    """Transcript codes and outputs for the hashed prefix binary search.

    The row player holds a, the column player b, all below 2^m. A
    full-prefix hash comparison either settles the answer ("equal", output
    0) or starts a binary search for the most significant differing prefix;
    the final bit exchange decides the output. direction "a>b" outputs
    [a > b], "b>a" outputs [b > a].
    """
    rounds = 1 + (math.ceil(math.log2(m)) if m > 1 else 0)
    c = max(1, math.ceil(math.log2(rounds / delta)))
    nbuck = 1 << c
    k = keys(m + 1)

    ha = _hash_buckets(a, k[:, m], nbuck)
    hb = _hash_buckets(b, k[:, m], nbuck)
    eq = ha == hb
    codes = (np.int64(1) << (c + 1)) | (ha << 1) | eq
    bits = c + 2

    active = ~eq
    lo = np.zeros(eq.shape, dtype=np.int64)
    hi = np.full(eq.shape, m, dtype=np.int64)
    for _ in range(rounds):
        work = active & (hi - lo > 1)
        if not work.any():
            break
        if bits + c + 1 > 62:
            codes, bits = _compact(codes)
        mid = (lo + hi) >> 1
        key = np.take_along_axis(k, mid[None, None], 1)[:, 0]
        ha = _hash_buckets(a >> (m - mid), key, nbuck)
        hb = _hash_buckets(b >> (m - mid), key, nbuck)
        eq = ha == hb
        codes = np.where(work, (codes << (c + 1)) | (ha << 1) | eq, codes)
        bits += c + 1
        lo = np.where(work & eq, mid, lo)
        hi = np.where(work & ~eq, mid, hi)

    if bits + 2 > 62:
        codes, bits = _compact(codes)
    d = m - 1 - lo
    xd = (a >> d) & 1
    yd = (b >> d) & 1
    o = (xd > yd) if direction == "a>b" else (yd > xd)
    out = (active & o).astype(np.uint8)
    codes = np.where(active, (codes << 2) | (xd << 1) | o, codes)
    return codes, out


def _pair_codes(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Injective combination of two compacted code grids."""
    _, i1 = np.unique(c1, return_inverse=True)
    _, i2 = np.unique(c2, return_inverse=True)
    i1 = i1.reshape(c1.shape).astype(np.int64)
    i2 = i2.reshape(c2.shape).astype(np.int64)
    return i1 * (int(i2.max()) + 1) + i2


def cap_gt(domain: int, delta: float) -> int:
    """Declared transcript-count cap for one greater-than call.

    Two parties exchange ceil(log2(m)) * ceil(log2(m/delta)) rounds of 2
    bits over m-bit inputs, m = ceil(log2 domain); the cap exponentiates
    the total.
    """
    m = max(1, math.ceil(math.log2(max(2, domain))))
    r = max(1, math.ceil(math.log2(max(2, m))))
    w = max(1, math.ceil(math.log2(m / delta)))
    return 2 ** (2 * r * w)


def transcript_cap(spec: ProtocolSpec) -> int:
    """Declared cap on the number of rectangles the family may produce."""
    f = spec.family
    if f == "equality-hash":
        return 2 * math.ceil(1 / spec.delta)
    if f == "eq-mod-p":
        return 2 * spec.p
    if f == "sparse-set-eq":
        return 2 * max(1, math.ceil(spec.t / spec.delta))
    if f == "neq3-multiparty":
        return 4 * (math.ceil(2 / spec.delta) if spec.delta < 1 else 1)
    if f == "greater-than":
        return cap_gt(spec.n, spec.delta)
    if f == "banded-gt":
        return cap_gt(spec.n + spec.p, spec.delta / 2) ** 2
    if f == "banded2d-gt":
        s = masks.split_index(spec.n)
        return cap_gt(2 * s + spec.p, spec.delta / 3) ** 3
    if f == "monotone-gt":
        return cap_gt(spec.n + 1, spec.delta)
    raise ParameterError(f"unknown family {f!r}")


# ---------------------------------------------------------------------------
# one evaluator per family

def _eq_decide(u: np.ndarray, v: np.ndarray, buckets: int | None, keys):
    """u != v through one shared hash into buckets; buckets None compares exactly.

    A hashed run draws one key, even with one bucket, where every value
    hashes to 0 and the output is 0.
    """
    if buckets:
        key = keys(1)[:, 0]
        u = _hash_buckets(u, key, buckets)
        v = _hash_buckets(v, key, buckets)
    o = (u != v).astype(np.uint8)
    return u * 2 + o, o


def decide(spec: ProtocolSpec, idx, keys):
    """(codes, out): transcript codes and outputs of the protocol on cells idx.

    idx holds one int64 index array per party; they broadcast against each
    other to the shape of the result. keys(count) returns count independent
    hash keys (a, b) as one uint64 array of shape (2, count) + s, with s
    broadcasting against idx. Randomness is drawn through keys only, in
    call order, so one run of this function is one protocol run per cell:
    shared by all cells when s is all ones (the grid), or independent per
    cell when s is the sample shape (error-rate sampling).
    """
    f = spec.family
    n = spec.n
    x, y = idx[0], idx[1]

    if f == "equality-hash":
        vals = np.asarray(spec.groups if spec.groups is not None else np.arange(n),
                          dtype=np.int64)
        return _eq_decide(vals[x], vals[y], math.ceil(1 / spec.delta), keys)

    if f == "eq-mod-p":
        vals = np.arange(n, dtype=np.int64) % spec.p
        buckets = math.ceil(1 / spec.delta) if spec.delta else None
        return _eq_decide(vals[x], vals[y], buckets, keys)

    if f == "sparse-set-eq":
        cols = np.asarray(spec.col_groups if spec.col_groups is not None
                          else np.arange(n), dtype=np.int64)
        B = max(1, math.ceil(spec.t / spec.delta))
        key = keys(1)[:, 0]
        by = _hash_buckets(cols[y], key, B)
        # zero sets padded with -1 into an (n, t) table, scanned one slot at a time
        Z = np.full((n, max(map(len, spec.zero_sets), default=0)), -1, dtype=np.int64)
        for r, zs in enumerate(spec.zero_sets):
            Z[r, :len(zs)] = zs
        hit = np.zeros(np.broadcast_shapes(x.shape, by.shape), dtype=bool)
        for z in np.moveaxis(Z[x], -1, 0):
            hit |= (z >= 0) & (_hash_buckets(z, key, B) == by)
        o = (~hit).astype(np.uint8)
        return by * 2 + o, o

    if f == "greater-than":
        return _gt(x, y, max(1, int(n - 1).bit_length()), spec.delta, keys)

    if f == "monotone-gt":
        px = np.asarray(spec.prefix_lengths, dtype=np.int64)
        return _gt(px[x], y, max(1, int(n).bit_length()), spec.delta, keys)

    if f == "banded-gt":
        p = spec.p
        m = max(1, int(n + p - 2).bit_length())
        d = spec.delta / 2
        c1, o1 = _gt(x, y + p - 1, m, d, keys)
        c2, o2 = _gt(x + p - 1, y, m, d, keys, direction="b>a")
        # short circuit: the second call only runs when the first said "no";
        # greater-than codes are >= 1, so 0 marks the skipped call
        codes = _pair_codes(c1, np.where(o1 == 1, np.int64(0), c2))
        return codes, np.where(o1 == 1, np.uint8(1), o2).astype(np.uint8)

    if f == "banded2d-gt":
        p = spec.p
        s = masks.split_index(n)
        ahi, alo, bhi, blo = x // s, x % s, y // s, y % s
        m1 = max(1, int(s - 1).bit_length())
        m3 = max(1, int(2 * s + p).bit_length())
        d = spec.delta / 3
        cA, oA = _gt(ahi, bhi, m1, d, keys)
        cB, oB = _gt(alo, blo, m1, d, keys)
        # third call per announced sign pattern; L1 distance >= p rewritten as
        # a single comparison of shifted sums/differences
        branches = {
            (1, 1): (ahi + alo, bhi + blo + p - 1, "a>b"),
            (0, 0): (ahi + alo + p - 1, bhi + blo, "b>a"),
            (1, 0): (ahi - alo + s - 1, bhi - blo + s - 1 + p - 1, "a>b"),
            (0, 1): (alo - ahi + s - 1, blo - bhi + s - 1 + p - 1, "a>b"),
        }
        codes3 = np.zeros(oA.shape, dtype=np.int64)
        out3 = np.zeros(oA.shape, dtype=np.uint8)
        for (ba, bb), (av, bv, direction) in branches.items():
            c3, o3 = _gt(av, bv, m3, d, keys, direction)
            sel = (oA == ba) & (oB == bb)
            codes3 = np.where(sel, c3, codes3)
            out3 = np.where(sel, o3, out3)
        return _pair_codes(_pair_codes(cA, cB), codes3), out3

    if f == "neq3-multiparty":
        B = math.ceil(2 / spec.delta) if spec.delta < 1 else 1
        key = keys(1)[:, 0]
        h = [_hash_buckets(i, key, B) for i in idx]
        b2 = (h[1] == h[0]).astype(np.int64)
        b3 = (h[2] == h[0]).astype(np.int64)
        return h[0] * 4 + b2 * 2 + b3, (1 - (b2 & b3)).astype(np.uint8)

    raise ParameterError(f"unknown family {f!r}")


def _order(spec: ProtocolSpec) -> int:
    return 3 if spec.family == "neq3-multiparty" else 2


def _shared_keys(spec: ProtocolSpec, seed: int, ndim: int):
    """Key source for one protocol run on every cell of an ndim-axis grid.

    Keys come from default_rng(seed), count pairs per call. The composed
    families give each greater-than call its own generator, seeded from the
    protocol seed in call order.
    """
    rng = np.random.default_rng(seed)
    split = spec.family in ("banded-gt", "banded2d-gt")

    def keys(count: int):
        src = np.random.default_rng(rng.integers(2**63)) if split else rng
        k = src.integers(0, 2**64, size=(count, 2), dtype=np.uint64)
        return k.T.reshape((2, count) + (1,) * ndim)

    return keys


def _transcript_grid(spec: ProtocolSpec, seed: int):
    """(codes, labels) on the full grid of the family's order."""
    order = _order(spec)
    cap = ENUM_CAP if order == 2 else ENUM_CAP_3
    if spec.n > cap:
        raise ResourceError(f"n={spec.n} exceeds the order-{order} enumeration cap {cap}")
    idx = np.ix_(*[np.arange(spec.n, dtype=np.int64)] * order)
    return decide(spec, idx, _shared_keys(spec, seed, order))


# ---------------------------------------------------------------------------
# partitions

@dataclass(frozen=True)
class Rectangle:
    row_set: np.ndarray
    col_set: np.ndarray
    label: int
    depth_set: np.ndarray | None = None


@dataclass(frozen=True)
class PartitionSample:
    rectangles: list[Rectangle]
    n: int
    source: str
    one_count: int
    order: int = 2


@dataclass(frozen=True)
class Cover:
    rectangles: list[Rectangle]
    n: int


def _axis_sets(inv: np.ndarray, axis_index: np.ndarray, n_groups: int):
    """Per-group sorted unique coordinates along one axis."""
    pairs = np.unique(inv.astype(np.int64) * (axis_index.max() + 1) + axis_index)
    g = pairs // (axis_index.max() + 1)
    v = pairs % (axis_index.max() + 1)
    bounds = np.searchsorted(g, np.arange(n_groups + 1))
    return [v[bounds[i]:bounds[i + 1]] for i in range(n_groups)]


def _group_cells(codes: np.ndarray, labels: np.ndarray) -> list[Rectangle]:
    shape = codes.shape
    order = len(shape)
    flat = codes.ravel()
    uniq, first, inv = np.unique(flat, return_index=True, return_inverse=True)
    G = len(uniq)
    counts = np.bincount(inv, minlength=G)
    lab = labels.ravel()
    one_mass = np.bincount(inv, weights=lab.astype(np.float64), minlength=G)
    if not np.all((one_mass == 0) | (one_mass == counts)):
        raise RuntimeError("transcript class with mixed labels")

    grids = np.indices(shape).reshape(order, -1)
    axis_sets = [_axis_sets(inv, grids[a], G) for a in range(order)]
    rects = []
    for g in range(G):
        sets = [axis_sets[a][g] for a in range(order)]
        vol = math.prod(len(s) for s in sets)
        if vol != counts[g]:
            raise RuntimeError("transcript class is not a rectangle")
        depth = sets[2] if order == 3 else None
        rects.append(Rectangle(sets[0], sets[1], int(lab[first[g]]), depth))
    return rects


def sample_partition(spec: ProtocolSpec, seed: int = 0) -> PartitionSample:
    """Run the protocol on every cell and group by transcript."""
    codes, labels = _transcript_grid(spec, seed)
    rects = _group_cells(codes, labels)
    ones = sum(1 for r in rects if r.label == 1)
    return PartitionSample(rects, spec.n, f"{spec.describe()}@{seed}", ones,
                           order=codes.ndim)


def multiparty_partition(spec: ProtocolSpec, seed: int = 0) -> PartitionSample:
    if _order(spec) != 3:
        raise ParameterError(f"{spec.family} is not an order-3 family")
    return sample_partition(spec, seed)


def protocol_matrix(spec: ProtocolSpec, seed: int = 0) -> masks.Mask:
    """The protocol's output on every cell, as a mask W_pi."""
    if _order(spec) != 2:
        raise ParameterError("order-3 output is a cube; use protocol_cube")
    _, labels = _transcript_grid(spec, seed)
    return masks.make_mask(masks.Explicit(labels), spec.n)


def protocol_cube(spec: ProtocolSpec, seed: int = 0) -> np.ndarray:
    if _order(spec) != 3:
        raise ParameterError(f"{spec.family} is not an order-3 family")
    _, labels = _transcript_grid(spec, seed)
    return labels


def partition_bitmap(sample: PartitionSample) -> np.ndarray:
    """Reassemble the label grid from a partition's rectangles."""
    shape = (sample.n,) * sample.order
    out = np.full(shape, 255, dtype=np.uint8)
    for r in sample.rectangles:
        out[np.ix_(*(r.row_set, r.col_set, r.depth_set)[:sample.order])] = r.label
    if (out == 255).any():
        raise RuntimeError("partition does not tile the grid")
    return out


def target_bitmap(spec: ProtocolSpec) -> np.ndarray:
    """The mask the protocol family is meant to compute."""
    n = spec.n
    f = spec.family
    if f == "equality-hash" and spec.groups is not None:
        g = np.asarray(spec.groups)
        return (g[:, None] != g[None, :]).astype(np.uint8)
    if f == "sparse-set-eq":
        cols = np.asarray(spec.col_groups if spec.col_groups is not None
                          else np.arange(n), dtype=np.int64)
        W = np.ones((n, n), dtype=np.uint8)
        for r, zs in enumerate(spec.zero_sets):
            if zs:
                W[r] &= (~np.isin(cols, np.asarray(zs))).astype(np.uint8)
        return W
    patterns = {
        "equality-hash": masks.Diagonal,
        "eq-mod-p": lambda: masks.ToeplitzModP(spec.p),
        "greater-than": lambda: masks.Monotone(tuple(range(n))),
        "banded-gt": lambda: masks.Banded(spec.p),
        "banded2d-gt": lambda: masks.Banded2D(spec.p),
        "monotone-gt": lambda: masks.Monotone(spec.prefix_lengths),
        "neq3-multiparty": masks.Diagonal3,
    }
    if f not in patterns:
        raise ParameterError(f"unknown family {f!r}")
    return masks.make_mask(patterns[f](), n).bitmap


def empirical_error_rates(
    spec: ProtocolSpec, W, trials: int, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo disagreement rates of W_pi against W, split by W's value.

    Each of the trials samples an independent (cell, protocol seed) pair and
    runs decide, the evaluator that also builds the certificate's partition,
    so the two rates are plain binomial estimates of the per-cell error
    probabilities of those decisions, averaged over each side of the mask.
    """
    if trials < 1:
        raise ParameterError(f"trials={trials} must be positive")
    bitmap = as_bitmap(W, np.uint8)
    shape = (spec.n,) * _order(spec)
    if bitmap.shape != shape:
        raise ShapeError(f"W has shape {bitmap.shape}; {spec.describe()} needs {shape}")
    rng = np.random.default_rng(seed)
    idx = tuple(rng.integers(0, spec.n, size=trials) for _ in shape)

    def keys(count: int):
        return rng.integers(0, 2**64, size=(2, count, trials), dtype=np.uint64)

    _, out = decide(spec, idx, keys)
    w = bitmap[idx].astype(np.int64)
    disagree = out.astype(np.int64) != w
    rates = []
    for side in (1, 0):
        sel = w == side
        tot = int(sel.sum())
        rates.append(float(disagree[sel].sum() / tot) if tot else 0.0)
    return rates[0], rates[1]


# ---------------------------------------------------------------------------
# nondeterministic covers

def nondet_cover(kind: str, n: int, blocks=None) -> Cover:
    """Overlapping 1-labeled rectangles witnessing f = 1.

    neq-blocks guesses a bit position where the block ids differ and its
    orientation; neq-bits, for n a power of two, is neq-blocks on singleton
    blocks; disj-coords guesses a shared coordinate of intersecting sets.
    """
    idx = np.arange(n, dtype=np.int64)
    rects = []
    if kind == "neq-bits":
        if n < 2 or n & (n - 1):
            raise ParameterError(f"n={n} must be a power of two")
        kind, blocks = "neq-blocks", tuple((i,) for i in range(n))
    if kind == "neq-blocks":
        if blocks is None:
            raise ParameterError("neq-blocks needs the block partition")
        target = masks.BlockDiagonal(blocks).bitmap(n)  # checks the partition
        blk = masks.block_index_map(blocks, n)
        nb = len(blocks)
        if nb < 2:
            raise ParameterError("need at least two blocks")
        m = (nb - 1).bit_length()
        for i in range(m):
            bit = (blk >> i) & 1
            for b in (0, 1):
                S, T = idx[bit == b], idx[bit != b]
                if len(S) and len(T):
                    rects.append(Rectangle(S, T, 1))
    elif kind == "disj-coords":
        if n < 2 or n & (n - 1):
            raise ParameterError(f"n={n} must be a power of two")
        m = n.bit_length() - 1
        for i in range(m):
            bit = (idx >> i) & 1
            S = idx[bit == 1]
            if len(S):
                rects.append(Rectangle(S, S.copy(), 1))
        target = ((idx[:, None] & idx[None, :]) != 0).astype(np.uint8)
    else:
        raise ParameterError(f"unknown cover kind {kind!r}")

    union = cover_bitmap(Cover(rects, n))
    if not np.array_equal(union, target):
        raise RuntimeError("cover does not match its target mask")
    return Cover(rects, n)


def cover_bitmap(cover: Cover) -> np.ndarray:
    out = np.zeros((cover.n, cover.n), dtype=np.uint8)
    for r in cover.rectangles:
        out[np.ix_(r.row_set, r.col_set)] = 1
    return out


def assemble(rectangles, shape, fit) -> list[np.ndarray] | None:
    """Zero-extend per-rectangle fits and place them side by side.

    fit(i, sets) is called for each 1-labeled rectangle, with i its index in
    rectangles (0-labeled ones count) and sets its index sets, one per axis
    of shape. It returns one factor per axis, with a row per index and the
    same width on every axis. Each full factor is allocated once at the
    total width; the pieces fill their rows and their own column block, so
    the factors represent the sum of the zero-extended fits. Returns None
    when no rectangle is 1-labeled.
    """
    pieces = []
    for i, r in enumerate(rectangles):
        if r.label == 1:
            sets = (r.row_set, r.col_set, r.depth_set)[:len(shape)]
            pieces.append((sets, fit(i, sets)))
    if not pieces:
        return None
    width = sum(factors[0].shape[1] for _, factors in pieces)
    out = [np.zeros((size, width), dtype=f.dtype) for size, f in zip(shape, pieces[0][1])]
    start = 0
    for sets, factors in pieces:
        stop = start + factors[0].shape[1]
        for full, idx, f in zip(out, sets, factors):
            full[idx, start:stop] = f
        start = stop
    return out
