"""Communication protocols for mask predicates and their rectangle partitions.

Each family's decisions are written once, in decide(spec, idx, keys), which
returns transcript codes and outputs on any broadcastable set of cells. The
certificate's partition takes one seeded draw of shared randomness, and its
transcript classes are combinatorial rectangles labeled with the protocol
output. A one-sided family's decisions are a sender's hash bucket and one
reply bit per other party (_one_sided), so its rectangles are built directly
as products of bucket index sets, in O(n + rectangles) with no cell
enumerated. The greater-than families run decide on the full input grid and
group the cells by transcript: one sort of the cells plus linear passes,
with no n^2-sized index grid; protocol_matrix and protocol_cube enumerate
the grid too. Their core, _gt, walks the cells down a static binary-search
tree in cache-sized row stripes: each party hashes its prefixes once per
tree node over its own indices, a cell's state is one small node id, and on
a grid the transcript codes come from one ranked table per (leaf, row),
which the cells gather. empirical_error_rates runs decide on sampled cells with
independent randomness per sample, so the error rate it reports is that of
the decisions the partition is built from. Nondeterministic covers are
built directly from their witness structure. assemble turns per-rectangle
fits of a partition or a cover into the factors of its comparator.

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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceError
from . import masks
from .linalg import as_bitmap

# most cells of an exhaustive transcript enumeration, which the greater-than
# families' partitions, protocol_matrix and protocol_cube make: n <= 4096 at
# order 2, n <= 256 at order 3
ENUM_CELLS = 2**24

# cells per row stripe of a greater-than walk, so that its working arrays
# stay in cache
_STRIPE_CELLS = 2**15

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
    h = a * vals.astype(np.uint64)
    h += b
    h >>= np.uint64(32)
    h *= np.uint64(buckets)
    h >>= np.uint64(32)
    return h.view(np.int64)


# ---------------------------------------------------------------------------
# greater-than core

def _rank(codes: np.ndarray) -> np.ndarray:
    """Dense ranks of codes, from 1, in their order and shape."""
    _, inv = np.unique(codes, return_inverse=True)
    return inv.reshape(codes.shape) + 1


def _pack(fields, widths) -> np.ndarray:
    """One int64 per entry, ordered as the fields are lexicographically.

    Field i holds non-negative values below 2^widths[i] and is appended in
    that width. When the next field would take the codes past 62 bits, the
    codes so far are first replaced by their ranks, which keeps their order.
    """
    code, bits = np.asarray(fields[0], dtype=np.int64), widths[0]
    for f, w in zip(fields[1:], widths[1:]):
        if bits + w > 62:
            code = _rank(code)
            bits = int(code.max()).bit_length()
        code = (code << w) | f
        bits += w
    return code


@functools.cache
def _search_tree(m: int):
    """The hashed binary search on m-bit inputs as a static tree, in tables.

    Node j < m compares the parties' (j+1)-bit prefixes, so the root, node
    m - 1, compares whole inputs. On "equal" it settles the answer (output
    0): leaf 2m. Otherwise the search runs on (lo, hi) from (0, m): node
    mid - 1, mid = (lo + hi) // 2, moves to (mid, hi) on "equal", else to
    (lo, mid), until hi - lo = 1, at leaf m + lo. The tree depends on m
    alone, so it is built once per m.

    Returns child, indexed by 2 * node + eq (a leaf is its own child), and
    per leaf i = id - m: path (rounds, m + 1), the node met in each round
    (m once the leaf is reached); eqs, the answer given there; group, which
    orders transcripts by length: 0 for the settled leaf, else the leaf's
    round count; and shift, the bit read by the final exchange: m - 1 - lo,
    or m (a zero bit) at the settled leaf.
    """
    rounds = 1 + (m - 1).bit_length()
    child = np.repeat(np.arange(2 * m + 1, dtype=np.uint8), 2)
    path = np.full((rounds, m + 1), m, dtype=np.uint8)
    eqs = np.zeros((rounds, m + 1), dtype=np.uint8)
    group = np.zeros(m + 1, dtype=np.uint8)
    shift = np.full(m + 1, m, dtype=np.int64)

    def build(lo, hi, met, answers):
        if hi - lo == 1:
            path[:len(met), lo], eqs[:len(met), lo] = met, answers
            group[lo], shift[lo] = len(met), m - 1 - lo
            return m + lo
        node = ((lo + hi) >> 1) - 1
        child[2 * node] = build(lo, node + 1, met + [node], answers + [0])
        child[2 * node + 1] = build(node + 1, hi, met + [node], answers + [1])
        return node

    path[0, m], eqs[0, m] = m - 1, 1
    child[2 * m - 1] = 2 * m
    child[2 * m - 2] = build(0, m, [m - 1], [0])
    tables = child, path, eqs, group, shift
    for t in tables:
        t.flags.writeable = False
    return tables


def _prefix_hashes(v, m: int, k, c: int) -> np.ndarray:
    """(m, positions) table: row j hashes v's (j+1)-bit prefixes with key
    j + 1 into 2^c buckets, over v broadcast against the keys' sample shape.
    int16 holds the buckets while c < 15."""
    v = np.broadcast_to(v, np.broadcast_shapes(np.shape(v), k.shape[2:]))
    h = np.empty((m,) + v.shape, dtype=np.int16 if c < 15 else np.int64)
    for j in range(m):
        h[j] = _hash_buckets(v >> (m - 1 - j), k[:, j + 1], 1 << c)
    return h


def _gt(a, b, m: int, delta: float, keys, direction: str = "a>b"):
    """Transcript codes and outputs for the hashed prefix binary search.

    The row player holds a, the column player b, all below 2^m. A
    full-prefix hash comparison either settles the answer ("equal", output
    0) or starts a binary search for the most significant differing prefix;
    the final bit exchange decides the output. direction "a>b" outputs
    [a > b], "b>a" outputs [b > a].

    The search is a walk on _search_tree(m). Each party hashes its own
    prefixes once per node, into a table over its own positions, and a
    cell's state is one node id: a round is two table gathers, one compare
    and one child lookup. A cell's transcript (the row's hash at each node
    met, the answers, the row's final bit, the output) is fixed by its
    leaf, its row position and its output. Codes are >= 1 and follow the
    transcripts' order, shorter first, then bitwise. When there are fewer
    (leaf, row) pairs than cells, as on a grid, their codes are built and
    ranked once in a table that the cells gather; otherwise (independent
    keys per cell) each cell's code is built from its own path.
    """
    child, path, eqs, group, shift = _search_tree(m)
    rounds = len(path)
    c = max(1, math.ceil(math.log2(rounds / delta)))
    k = keys(m + 1)
    ha, hb = _prefix_hashes(a, m, k, c), _prefix_hashes(b, m, k, c)
    del k
    R, S = ha[0].size, hb[0].size
    it = np.int32 if (2 * m + 1) * max(R, S) < 2**31 else np.int64
    cells = np.broadcast_shapes(ha.shape[1:], hb.shape[1:])

    def on_cells(h, v):
        # a party's positions and values, with the cells' number of axes
        shape = (1,) * (len(cells) + 1 - h.ndim) + h.shape[1:]
        return np.arange(h[0].size, dtype=it).reshape(shape), np.broadcast_to(v, shape)

    (pa, va), (pb, vb) = on_cells(ha, a), on_cells(hb, b)

    # transcript fields: the leaf's group; per round the row's hash and the
    # answer, a constant once the leaf is reached; the row's final bit
    widths = [rounds.bit_length()] + [c + 1] * rounds + [1]
    if (m + 1) * R < math.prod(cells):
        lf = np.arange(m + 1)[:, None]
        fields = [group[lf]]
        for r in range(rounds):
            h = ha.take(path[r][lf] * it(R) + pa.ravel(), mode="clip")
            fields.append((h << 1) | eqs[r][lf])
        fields.append((va.ravel() >> shift[lf]) & 1)
        table = _rank(_pack(fields, widths))
        codes = np.empty(cells, dtype=np.int32 if 2 * table.size < 2**31 else np.int64)
    else:
        table = None
        fields = np.empty((rounds + 2,) + cells, dtype=ha.dtype)
    o = np.empty(cells, dtype=bool)
    # row stripes small enough for the cache, each walked down the tree
    step = max(1, _STRIPE_CELLS // math.prod(cells[1:]))
    for lo in range(0, cells[0], step):
        cut = slice(lo, lo + step)
        ra, rb, xa, xb = (v[cut] if v.shape[0] > 1 else v for v in (pa, pb, va, vb))
        node = np.full(np.broadcast_shapes(ra.shape, rb.shape), m - 1, dtype=np.uint8)
        for r in range(rounds):
            h = ha.take(node * it(R) + ra, mode="clip")
            eq = h == hb.take(node * it(S) + rb, mode="clip")
            if table is None:
                fields[1 + r, cut] = (h << 1) | eq
            node = child.take(node * 2 + eq)
        leaf = node - np.uint8(m)
        xd = (xa >> shift[leaf]) & 1
        yd = (xb >> shift[leaf]) & 1
        o[cut] = (xd > yd) if direction == "a>b" else (yd > xd)
        if table is None:
            fields[0, cut], fields[-1, cut] = group[leaf], xd
        else:
            codes[cut] = table.take(leaf * it(R) + ra) * 2 + o[cut]
    if table is None:
        codes = _pack(fields, widths) * 2 + o
    return codes, o.view(np.uint8)


def _pair_codes(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Injective, order-keeping combination of two non-negative code grids.

    (c1, c2) in lexicographic order, as c1 * (max c2 + 1) + c2; codes too
    wide for that to fit 63 bits are ranked first.
    """
    k = int(c2.max()) + 1
    if (int(c1.max()) + 1) * k > 2**62:
        c1, c2 = _rank(c1), _rank(c2)
        k = int(c2.max()) + 1
    return c1.astype(np.int64) * k + c2


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

def _one_sided(spec: ProtocolSpec, idx, keys):
    """(sender, s, reply, label): a one-sided family as a bucket and a reply rule.

    Party number sender announces its bucket, or its residue for exact
    eq-mod-p: s holds it for each of idx[sender]. Every other party answers
    with one bit: reply(s) returns their bits in party order, each
    broadcasting against s and that party's indices, and label(bits) is the
    output. The transcript code is s followed by the bits, so one s and one
    bit per receiver single out a rectangle: the sender's indices in bucket
    s times each receiver's indices that give its bit. idx and keys are as
    for decide; every key is drawn here, before reply is called.
    """
    f = spec.family
    n = spec.n

    if f in ("equality-hash", "eq-mod-p"):
        # u != v through one shared hash; exact eq-mod-p compares residues.
        # A hashed run draws one key, even with one bucket, where every value
        # hashes to 0 and the output is 0.
        if f == "equality-hash":
            vals = np.asarray(spec.groups if spec.groups is not None else np.arange(n),
                              dtype=np.int64)
            buckets = math.ceil(1 / spec.delta)
        else:
            vals = np.arange(n, dtype=np.int64) % spec.p
            buckets = math.ceil(1 / spec.delta) if spec.delta else None
        u, v = vals[idx[0]], vals[idx[1]]
        if buckets:
            key = keys(1)[:, 0]
            u = _hash_buckets(u, key, buckets)
            v = _hash_buckets(v, key, buckets)
        return 0, u, lambda s: [(v != s).astype(np.uint8)], lambda bits: bits[0]

    if f == "sparse-set-eq":
        # the column announces its bucket; the row answers 0 when that bucket
        # holds a member of its zero set
        cols = np.asarray(spec.col_groups if spec.col_groups is not None
                          else np.arange(n), dtype=np.int64)
        B = max(1, math.ceil(spec.t / spec.delta))
        key = keys(1)[:, 0]
        # zero sets padded with -1 into an (n, t) table, hashed one slot at a
        # time; a padded slot stays -1, which no bucket equals
        Z = np.full((n, max(map(len, spec.zero_sets), default=0)), -1, dtype=np.int64)
        for r, zs in enumerate(spec.zero_sets):
            Z[r, :len(zs)] = zs
        x = idx[0]
        hz = [np.where(z >= 0, _hash_buckets(z, key, B), -1)
              for z in np.moveaxis(Z[x], -1, 0)]

        def reply(s):
            hit = np.zeros(np.broadcast_shapes(x.shape, np.shape(s)), dtype=bool)
            for h in hz:
                hit |= h == s
            return [(~hit).astype(np.uint8)]

        return 1, _hash_buckets(cols[idx[1]], key, B), reply, lambda bits: bits[0]

    # neq3-multiparty: the other two parties each say whether their bucket
    # is the first's
    B = math.ceil(2 / spec.delta) if spec.delta < 1 else 1
    key = keys(1)[:, 0]
    h = [_hash_buckets(i, key, B) for i in idx]

    def reply(s):
        return [(h[1] == s).astype(np.uint8), (h[2] == s).astype(np.uint8)]

    return 0, h[0], reply, lambda bits: 1 - (bits[0] & bits[1])


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

    if f in ONE_SIDED_FAMILIES:
        _, s, reply, label = _one_sided(spec, idx, keys)
        bits = reply(s)
        codes = s
        for bit in bits:
            codes = codes * 2 + bit
        return codes, np.asarray(label(bits), dtype=np.uint8)

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
    if spec.n**order > ENUM_CELLS:
        raise ResourceError(
            f"n={spec.n} exceeds the enumeration cap: {spec.n}^{order} cells > {ENUM_CELLS}"
        )
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


# narrowest first: numpy's stable sort is a radix sort for 8- and 16-bit integers
_CODE_DTYPES = (np.uint8, np.int8, np.uint16, np.int16, np.uint32, np.int32)


def _narrow(codes: np.ndarray) -> np.ndarray:
    """codes in the narrowest integer dtype that holds all of them, order kept."""
    lo, hi = int(codes.min()), int(codes.max())
    for dt in _CODE_DTYPES:
        info = np.iinfo(dt)
        if info.min <= lo and hi <= info.max:
            return codes.astype(dt)
    return codes


def _group_cells(codes: np.ndarray, labels: np.ndarray) -> list[Rectangle]:
    """Rectangles of the cells' transcript classes, in code order.

    One stable sort of the codes (np.unique) gives each cell its class and
    each class its first cell in C order, which for a box is its corner: the
    least index on every axis. Two checks then prove every class is exactly
    a box. Moving any cell onto its corner's index along one axis must keep
    it in its class; so every cell of a class lies in the box spanned by the
    class's cells on the lines through its corner, one line per axis. And
    the class must fill that box: its cell count is the product of the
    lines' lengths. The index set along an axis is then read off the class's
    cells on that line, one flatnonzero, one stable argsort by class and one
    searchsorted per axis; each Rectangle holds slices of those arrays.
    """
    shape = codes.shape
    order = codes.ndim
    _, first, inv = np.unique(_narrow(codes.ravel()), return_index=True,
                              return_inverse=True)
    n_classes = len(first)
    lab = labels.ravel()
    label = lab[first]
    if not np.array_equal(label[inv], lab):
        raise RuntimeError("transcript class with mixed labels")

    inv = inv.reshape(shape)
    corner = np.unravel_index(first, shape)
    grid = np.ogrid[tuple(slice(0, s) for s in shape)]
    on_corner = []  # per axis: the cell shares its class corner's index
    for a in range(order):
        ca = corner[a][inv]
        moved = tuple(ca if b == a else grid[b] for b in range(order))
        if not np.array_equal(inv[moved], inv):
            raise RuntimeError("transcript class is not a rectangle")
        on_corner.append(grid[a] == ca)
        del ca, moved  # free the n^2 gathers before the next axis's

    flat_inv = inv.ravel()
    volume = np.ones(n_classes, dtype=np.int64)
    sets = []
    for a in range(order):
        line = functools.reduce(np.logical_and, [on_corner[b] for b in range(order) if b != a])
        cells = np.flatnonzero(line)
        cls = flat_inv[cells]
        by_class = np.argsort(cls, kind="stable")
        vals = np.unravel_index(cells[by_class], shape)[a].astype(np.int64)
        bounds = np.searchsorted(cls[by_class], np.arange(n_classes + 1))
        volume *= np.diff(bounds)
        sets.append((vals, bounds.tolist()))
    if not np.array_equal(volume, np.bincount(flat_inv, minlength=n_classes)):
        raise RuntimeError("transcript class is not a rectangle")

    per_axis = [[v[i:j] for i, j in zip(b[:-1], b[1:])] for v, b in sets]
    if order == 2:
        per_axis.append([None] * n_classes)
    rows, cols, depths = per_axis
    return [Rectangle(r, c, g, d) for r, c, d, g in zip(rows, cols, depths, label.tolist())]


def _bucket_products(spec: ProtocolSpec, seed: int) -> list[Rectangle]:
    """Rectangles of a one-sided family's transcript classes, in code order.

    The same keys as the grid's hash each party's n indices once, each on
    its own axis of an open grid, so no array spans two parties. A class is
    one sender bucket s, ascending, and one reply bit per receiver, taken
    in party order: the sender's indices in bucket s times each receiver's
    indices giving its bit. Empty classes are skipped, as they have no cell.
    """
    order = _order(spec)
    idx = np.ix_(*[np.arange(spec.n, dtype=np.int64)] * order)
    sender, s, reply, label = _one_sided(spec, idx, _shared_keys(spec, seed, order))
    s = s.ravel()
    rects = []
    for b in np.unique(s):
        senders = np.flatnonzero(s == b)
        bits = [r.ravel() for r in reply(b)]
        for answer in itertools.product((0, 1), repeat=len(bits)):
            sets = [np.flatnonzero(r == a) for r, a in zip(bits, answer)]
            if all(len(r) for r in sets):
                sets.insert(sender, senders)
                rects.append(Rectangle(sets[0], sets[1], int(label(answer)), *sets[2:]))
    return rects


def sample_partition(spec: ProtocolSpec, seed: int = 0) -> PartitionSample:
    """The protocol's rectangles under one seeded draw of shared randomness.

    A one-sided family's rectangles are built as products of hash buckets,
    in O(n + rectangles) memory with no cell enumerated; any other family
    runs decide on every cell and groups the cells by transcript, within
    ENUM_CELLS. Both give the transcript classes in ascending code order.
    """
    if spec.family in ONE_SIDED_FAMILIES:
        rects = _bucket_products(spec, seed)
    else:
        rects = _group_cells(*_transcript_grid(spec, seed))
    ones = sum(1 for r in rects if r.label == 1)
    return PartitionSample(rects, spec.n, f"{spec.describe()}@{seed}", ones,
                           order=_order(spec))


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
    shape = (spec.n,) * _order(spec)
    bitmap = as_bitmap(W, np.uint8, shape)
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
