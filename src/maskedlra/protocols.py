"""Communication protocols for mask predicates and their rectangle partitions.

Each family's decisions are written once, in one private evaluator,
_decide(spec, idx, keys, codes), which returns transcript codes and outputs
on any broadcastable set of cells. The certificate's partition takes one
seeded draw of shared randomness, and its transcript classes are
combinatorial rectangles labeled with the protocol output. A one-sided
family's decisions are a sender's hash bucket and one reply bit per other
party (_one_sided), so its rectangles are built directly as products of
bucket index sets, in O(n + rectangles) with no cell enumerated. The
greater-than families run _decide on the full input grid and group the
cells by transcript: one stable argsort of the cells' codes lists each
class's cells in C order, and its index sets are read off them in linear
passes; protocol_matrix and protocol_cube enumerate the grid too. Their
core, _gt, walks a rows x columns grid down a static binary-search tree on
packed bit planes: each party hashes its prefixes once per tree node over
its own indices, each row gathers its "equal" answers over the columns as
64-cell words from a table over the hash values the columns take, and a
leaf's reach, the outputs and the leaf ids are word-wise ANDs and ORs of
those planes. The transcript codes come from one ranked table per (leaf,
row), which the cells gather once their leaf ids are unpacked, in
cache-sized row stripes. empirical_error_rates runs the same decisions on
sampled cells with independent randomness per sample, so the error rate it
reports is that of the decisions the partition is built from. It runs them in
chunks of samples, each reading its keys, one key at a time, from the
generator at their stream position, so only the sampled indices grow with
the trial count. There _gt walks the samples round by round, drawing one
key per round rather than one per tree node, and a composed family walks
each later call only on the samples that read it. It, protocol_matrix and
protocol_cube read only outputs, so no transcript code is built for them.
The row stripes of _gt and the sample chunks are the striped loops:
_striped runs their items in interleaved shares on the calling thread and
a pool of one thread per further CPU, inline on one CPU, and the loops'
results are the same on any thread count. A partition or a cover takes its rectangles only as
Boxes: a label per box and, per axis, int64 offsets into one int64 index
array (CSR).
Certificates, comparators, bitmaps and dumps read those arrays.
.rectangles is a read-only sequence view over the boxes: its len() is the
box count, and Rectangle objects are built one at a time, only when it is
indexed or iterated.
Nondeterministic covers are built directly from their witness structure.
assemble checks a partition's or cover's n and order against the data and
places its comparator's fits one shape group (Boxes.groups) at a time.

Families:
  equality-hash       not-equal via one hashed message (1-sided)
  eq-mod-p            residue equality, deterministic or hashed (1-sided)
  sparse-set-eq       membership of a column in a row's zero set (1-sided)
  greater-than        prefix binary search with hashed comparisons
  banded-gt           two greater-than calls, the second read where the first says no
  banded2d-gt         three greater-than calls on split indices
  monotone-gt         one greater-than call on prefix lengths
  neq3-multiparty     order-3 not-all-equal (1-sided)
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceError, ShapeError
from . import masks
from .linalg import as_bitmap

# most cells of an exhaustive transcript enumeration, which the greater-than
# families' partitions, protocol_matrix and protocol_cube make: n <= 4096 at
# order 2, n <= 256 at order 3. A banded-gt partition peaked at 14.0 traced
# bytes per cell at n = 1024 and 2048, 15.4 at n = 768 and 17.1 at n = 512,
# all in the grouping's sort and splits, the same on every run; its packed
# walks peak below that, at 11.1 to 13.5 with the first call's codes held,
# and its codes are paired in place. About 0.25 GB at the cap
ENUM_CELLS = 2**24

# cells per row stripe of a greater-than walk, and samples per error-rate
# chunk, on one or two threads, so that their working arrays stay in cache
_STRIPE_CELLS = 2**15

# threads that share a striped loop, the calling thread included
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# (pid, workers, executor) of the pool that runs the other threads' shares; a
# forked child inherits the executor but not its threads, so it builds its own
_pool = (None, 0, None)

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
    for r, row in enumerate(zs):
        if any(not 0 <= c < n for c in row):
            raise ParameterError(f"zero_sets[{r}] has an index outside 0..{n - 1}")
    if col_groups is not None:
        # non-negative, so that no column's id meets the -1 padding of _one_sided
        col_groups = tuple(int(g) for g in col_groups)
        if len(col_groups) != n or min(col_groups, default=0) < 0:
            raise ParameterError("col_groups must assign a non-negative id to every column")
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
# striped loops

def _stripe_cells() -> int:
    """Cells per stripe or chunk of a striped loop: _STRIPE_CELLS, cut so
    that the _WORKERS threads hold at most 2 * _STRIPE_CELLS at once."""
    return min(_STRIPE_CELLS, 2 * _STRIPE_CELLS // _WORKERS)


def _striped(fn, items) -> list:
    """fn's results on every item, computed in _WORKERS interleaved shares.

    The calling thread runs share 0 and a module-level pool of _WORKERS - 1
    threads the others; with one worker or one item everything runs inline.
    The results come share by share, so callers combine them in an
    order-free way (integer sums), and fn writes a shared array only in a
    slice no other item writes. Every share has finished when this returns
    or raises. fn must not itself call _striped on more than one item: a pool
    thread that waits on the pool can wait forever.
    """
    global _pool
    workers = min(_WORKERS, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    if _pool[:2] != (os.getpid(), _WORKERS):
        _pool = (os.getpid(), _WORKERS, ThreadPoolExecutor(_WORKERS - 1))

    def run(share):
        return [fn(item) for item in share]

    futures = [_pool[2].submit(run, items[s::workers]) for s in range(1, workers)]
    try:
        out = run(items[::workers])
    finally:
        wait(futures)
    for f in futures:
        out += f.result()
    return out


class _Lazy:
    """A sequence whose item j is get(j), computed when it is indexed."""

    def __init__(self, get):
        self.get = get

    def __getitem__(self, j):
        return self.get(j)


def _taken(keys, sel):
    """keys restricted to the samples sel: item j of each draw is key j's
    entries at sel, taken when it is indexed."""
    def sub(count):
        K = keys(count)
        return _Lazy(lambda j: tuple(k[sel] for k in K[j]))

    return sub


# ---------------------------------------------------------------------------
# hashing

def _hash_buckets(vals: np.ndarray, key, buckets: int) -> np.ndarray:
    """Pairwise-independent multiply-shift hash of vals into [0, buckets).

    64-bit state (uint64 arithmetic wraps mod 2^64); the high 32 bits of
    a*x+b feed a fixed-point range reduction, so collision probability is
    1/buckets up to O(2^-32), and one bucket maps every value to 0. For
    2^c buckets, c <= 32, the reduction is the top c bits of a*x+b, taken
    in one shift. key holds a and b along its first axis; each may be an array
    broadcasting against vals, giving each entry its own independent hash
    function.
    """
    a, b = key
    h = a * vals.astype(np.uint64)
    h += b
    c = int(buckets).bit_length() - 1
    if buckets == 1 << c <= 1 << 32:  # numpy's uint64 >> 64 is 0
        return np.right_shift(h, np.uint64(64 - c), out=h).view(np.int64)
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


def _prefix_hashes(a, b, m: int, key, c: int):
    """(m, R) and (m, S) tables of both parties' R and S values: row j
    hashes a's and b's (j+1)-bit prefixes with key[j + 1], one shared (a, b)
    pair, into 2^c buckets. Each key is read once, for both parties, and
    key 0 not at all. int16 holds the buckets while c < 15."""
    dt = np.int16 if c < 15 else np.int64
    ha, hb = np.empty((m, a.size), dt), np.empty((m, b.size), dt)
    for j in range(m):
        ha[j] = _hash_buckets(a >> (m - 1 - j), key[j + 1], 1 << c)
        hb[j] = _hash_buckets(b >> (m - 1 - j), key[j + 1], 1 << c)
    return ha, hb


def _bit_plane(bits: np.ndarray, words: int) -> np.ndarray:
    """bits (..., S) packed along their last axis into uint64 words, column
    j at bit j % 64 of word j // 64; the padding after column S - 1 is 0."""
    pad = np.zeros(bits.shape[:-1] + (64 * words,), dtype=bool)
    pad[..., :bits.shape[-1]] = bits
    return np.packbits(pad, axis=-1, bitorder="little").view(np.uint64)


# _SPREAD[v] holds bit k of the byte v in its byte k, so that a packed row
# taken through it has one byte per cell
_SPREAD = (((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.uint8)
           .view(np.uint64).ravel())


def _gt(a, b, m: int, delta: float, keys, direction: str = "a>b", codes: bool = True):
    """Transcript codes and outputs for the hashed prefix binary search.

    The row player holds a, the column player b, all below 2^m. A
    full-prefix hash comparison either settles the answer ("equal", output
    0) or starts a binary search for the most significant differing prefix;
    the final bit exchange decides the output. direction "a>b" outputs
    [a > b], "b>a" outputs [b > a]; keys None outputs them exactly on any
    cells, with no tree walked and None for the codes.

    On a grid (a of shape (R, 1), b of shape (1, S), keys shared by every
    cell) the search runs on packed bit planes of _search_tree(m). Each
    party hashes its own prefixes once per node (_prefix_hashes), reading
    node j's key j + 1 once for both parties (key 0 is never read). Per
    node, a table holds one packed row of columns per hash value the
    columns take, plus a zero row, and each row of the grid gathers its own
    value's row: its "equal" answers over the columns, 64 cells to a word.
    A node's reach is its parent's ANDed with that plane or its
    complement, so a leaf's is the AND of at most `rounds` planes; the
    output plane is the OR over leaves of (reach, the row's bit at the
    leaf's shift, the complement of the column's), with the parties' roles
    swapped for "b>a", and the leaf id is kept as ceil(log2(m + 1)) OR
    planes. The planes are built in row stripes of about _stripe_cells() / 8
    words and unpacked, with the codes gathered, in row stripes of at most
    _stripe_cells() cells; _striped shares both loops among the threads,
    and each stripe writes only its own rows. A cell's transcript (the
    row's hash at each node met, the answers, the row's final bit, the
    output) is fixed by its leaf, its row and its output. Codes are >= 1
    and follow the transcripts' order, shorter first, then bitwise. They
    are built and ranked once in a table per (leaf, row), which the cells
    gather: twice a dense rank plus the output, so at most 2 * (m + 1) * R
    + 1. With codes False only the outputs are computed, and None stands
    for the codes. Any other shape, or keys not shared, is a
    ParameterError, unless the cells are samples with codes False.

    Sampled cells (a one-axis a, codes False) walk round by round instead:
    every cell is its own position, so a table would hash all m prefixes
    of each where its search reads one per round. Round r draws key r and
    hashes each cell's two prefixes at its current node with it, so a call
    reads `rounds` keys. A cell still meets a fresh independent key at
    each node of its path, so its output has the grid walk's distribution.
    """
    if keys is None:
        return None, (np.greater(a, b) if direction == "a>b" else np.greater(b, a)).view(np.uint8)
    child, path, eqs, group, shift = _search_tree(m)
    rounds = len(path)
    c = max(1, math.ceil(math.log2(rounds / delta)))
    if not codes and np.ndim(a) == 1:
        key = keys(rounds)
        # bits below node j's (j + 1)-bit prefix; a leaf's hashes go unread
        drop = np.maximum(m - 1 - np.arange(2 * m + 1), 0)
        node = np.full(np.broadcast_shapes(np.shape(a), np.shape(b)), m - 1, dtype=np.uint8)
        for r in range(rounds):
            k, d = key[r], drop.take(node)
            eq = _hash_buckets(a >> d, k, 1 << c) == _hash_buckets(b >> d, k, 1 << c)
            node = child.take(node * 2 + eq)
        leaf = node - np.uint8(m)
        xd, yd = (a >> shift[leaf]) & 1, (b >> shift[leaf]) & 1
        return None, ((xd > yd) if direction == "a>b" else (yd > xd)).view(np.uint8)
    if np.ndim(a) != 2 or np.ndim(b) != 2 or np.shape(a)[1] != 1 or np.shape(b)[0] != 1:
        raise ParameterError("a greater-than grid needs rows of shape (R, 1) and "
                             "columns of shape (1, S); codes need such a grid")
    key = keys(m + 1)
    if math.prod(np.shape(key)[2:]) != 1:
        raise ParameterError("a greater-than grid needs keys shared by every cell")
    a, b = np.ravel(a), np.ravel(b)
    R, S = a.size, b.size
    ha, hb = _prefix_hashes(a, b, m, np.reshape(key, (m + 1, 2)), c)
    words = -(-S // 64)

    # per node, the packed "equal" rows of the column hash values, plus a
    # zero row for row hashes no column takes, and each row's entry in it
    eq_rows, eq_of = [], []
    for j in range(m):
        vals, inv = np.unique(hb[j], return_inverse=True)
        eq_rows.append(_bit_plane(inv == np.arange(len(vals) + 1)[:, None], words))
        at = np.searchsorted(vals, ha[j])
        eq_of.append(np.where(vals.take(at, mode="clip") == ha[j], at, len(vals)))
    # per leaf, the rows and columns whose bits at the leaf's shift output
    # 1 there: a row with its bit set against a column without it, or the
    # reverse for "b>a"; a selected row is all-ones words
    row_bit = ((a >> shift[:, None]) & 1).astype(bool)
    col_bit = _bit_plane((b >> shift[:, None]) & 1, words)
    if direction == "a>b":
        row_sel, col_sel = row_bit, ~col_bit
    else:
        row_sel, col_sel = ~row_bit, col_bit
    row_sel = np.where(row_sel, ~np.uint64(0), np.uint64(0))[:, :, None]
    id_bits = max(1, m.bit_length())
    out = np.zeros((R, words), dtype=np.uint64)
    ids = np.zeros((id_bits, R, words), dtype=np.uint64) if codes else None

    def planes(lo):
        cut = slice(lo, lo + step)
        eq = [t[e[cut]] for t, e in zip(eq_rows, eq_of)]
        yes_out, tmp = out[cut], np.empty_like(out[cut])
        # (node, reach) pairs still to visit; each reach array has one owner
        todo = [(m - 1, np.full(yes_out.shape, ~np.uint64(0)))]
        while todo:
            node, reach = todo.pop()
            if node < m:
                yes = np.bitwise_and(reach, eq[node])
                todo.append((child[2 * node], np.bitwise_xor(reach, yes, out=reach)))
                todo.append((child[2 * node + 1], yes))
                continue
            i = node - m
            np.bitwise_and(reach, col_sel[i], out=tmp)
            tmp &= row_sel[i, cut]
            yes_out |= tmp
            if codes:
                for bit in range(id_bits):
                    if i >> bit & 1:
                        ids[bit, cut] |= reach

    step = max(1, _stripe_cells() // (8 * words))
    _striped(planes, range(0, R, step))
    del eq_rows, eq_of

    gathered = None
    if codes:
        # transcript fields: the leaf's group; per round the row's hash and
        # the answer, a constant once the leaf is reached; the row's final bit
        widths = [rounds.bit_length()] + [c + 1] * rounds + [1]
        lf = np.arange(m + 1)[:, None]
        parts = [group[lf]]
        for r in range(rounds):
            h = ha.take(path[r][lf] * np.int64(R) + np.arange(R), mode="clip")
            parts.append((h << 1) | eqs[r][lf])
        parts.append(row_bit)
        table = _rank(_pack(parts, widths))
        it = np.int32 if 2 * table.size < 2**31 else np.int64
        # a cell's code, 2 * table + output, at row * 2 * (m + 1) + its byte
        by_byte = (2 * table.T[:, :, None] + np.arange(2)).astype(it).ravel()
        gathered = np.empty((R, S), dtype=it)
    o = np.empty((R, S), dtype=bool)
    spread = _SPREAD << np.arange(id_bits + 1, dtype=np.uint64)[:, None]

    def unpack(lo):
        cut = slice(lo, lo + step)
        # one byte per cell: the output at bit 0, the leaf id above it
        cell = spread[0].take(out[cut].view(np.uint8))
        o[cut] = cell.view(bool)[:, :S]
        if codes:
            for bit in range(id_bits):
                cell |= spread[bit + 1].take(ids[bit, cut].view(np.uint8))
            at = cell.view(np.uint8)[:, :S].astype(np.intp)
            at += np.arange(lo, lo + len(at))[:, None] * (2 * (m + 1))
            np.take(by_byte, at, out=gathered[cut])

    step = max(1, _stripe_cells() // S)
    _striped(unpack, range(0, R, step))
    return gathered, o.view(np.uint8)


def _pair_codes(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Injective, order-keeping combination of two non-negative code grids.

    (c1, c2) in lexicographic order, as c1 * (max c2 + 1) + c2, in int32
    when that fits and int64 otherwise. _gt's codes are at most
    2 * (m + 1) * R + 1, below 2^17 on any grid within ENUM_CELLS, so even
    banded2d-gt's pair of a pair stays below 2^51. c1 is consumed: when it
    already has the paired dtype, the result is written into it.
    """
    k = int(c2.max()) + 1
    out = c1.astype(np.int32 if (int(c1.max()) + 1) * k < 2**31 else np.int64, copy=False)
    out *= k
    out += c2
    return out


def _cap_gt(domain: int, delta: float) -> int:
    """Declared transcript-count cap for one greater-than call.

    Two parties exchange ceil(log2(m)) * ceil(log2(m/delta)) rounds of 2
    bits over m-bit inputs, m = ceil(log2 domain); the cap exponentiates
    the total.
    """
    m = max(1, math.ceil(math.log2(max(2, domain))))
    r = max(1, math.ceil(math.log2(max(2, m))))
    w = max(1, math.ceil(math.log2(m / delta)))
    return 2 ** (2 * r * w)


def _hash_range(spec: ProtocolSpec) -> int | None:
    """Buckets of a one-sided family's shared hash; None for exact eq-mod-p,
    which announces residues unhashed."""
    if spec.family == "sparse-set-eq":
        return max(1, math.ceil(spec.t / spec.delta))
    if spec.family == "neq3-multiparty":
        return math.ceil(2 / spec.delta) if spec.delta < 1 else 1
    return math.ceil(1 / spec.delta) if spec.delta else None


def transcript_cap(spec: ProtocolSpec) -> int:
    """Declared cap on the number of rectangles the family may produce."""
    f = spec.family
    if f in ONE_SIDED_FAMILIES:
        # sender classes times one reply bit per receiver; eq-mod-p's are residues
        return (spec.p if f == "eq-mod-p" else _hash_range(spec)) * 2 ** (_order(spec) - 1)
    if f == "greater-than":
        return _cap_gt(spec.n, spec.delta)
    if f == "banded-gt":
        return _cap_gt(spec.n + spec.p, spec.delta / 2) ** 2
    if f == "banded2d-gt":
        s = masks.split_index(spec.n)
        return _cap_gt(2 * s + spec.p, spec.delta / 3) ** 3
    if f == "monotone-gt":
        return _cap_gt(spec.n + 1, spec.delta)
    raise ParameterError(f"unknown family {f!r}")


# ---------------------------------------------------------------------------
# one evaluator per family

def _one_sided(spec: ProtocolSpec, idx, keys):
    """(sender, s, reply, label): a one-sided family as a bucket and a reply rule.

    Party number sender announces its bucket, or its residue for exact
    eq-mod-p: s holds it for each of idx[sender]. Every other party answers
    with one bit: reply(s) returns their bits in party order, as uint8 views
    of bool arrays, each broadcasting against s and that party's indices,
    and label(bits) is the output. The transcript code is s followed by the
    bits, so one s and one bit per receiver single out a rectangle: the
    sender's indices in bucket s times each receiver's indices that give
    its bit. idx and keys are as for _decide; a hashed run draws its one
    key here, even with one bucket. keys None runs the family unhashed,
    drawing no key: every value is its own bucket, so the output is the
    family's mask (target_bitmap).
    """
    f = spec.family
    n = spec.n
    B = _hash_range(spec)
    key = keys(1)[0] if keys is not None and B else None

    def bucket(vals):
        return vals if key is None else _hash_buckets(vals, key, B)

    if f in ("equality-hash", "eq-mod-p"):
        # u != v through one shared hash; exact eq-mod-p compares residues
        if f == "equality-hash":
            vals = np.asarray(spec.groups if spec.groups is not None else np.arange(n),
                              dtype=np.int64)
        else:
            vals = np.arange(n, dtype=np.int64) % spec.p
        u, v = bucket(vals[idx[0]]), bucket(vals[idx[1]])
        return 0, u, lambda s: [(v != s).view(np.uint8)], lambda bits: bits[0]

    if f == "sparse-set-eq":
        # the column announces its bucket; the row answers 0 when that bucket
        # holds a member of its zero set
        cols = np.asarray(spec.col_groups if spec.col_groups is not None
                          else np.arange(n), dtype=np.int64)
        # zero sets padded with -1 into an (n, t) table, hashed one slot at a
        # time; a padded slot stays -1, which no bucket or column id equals
        Z = np.full((n, max(map(len, spec.zero_sets), default=0)), -1, dtype=np.int64)
        for r, zs in enumerate(spec.zero_sets):
            Z[r, :len(zs)] = zs
        x = idx[0]
        hz = [np.where(z >= 0, bucket(z), -1) for z in np.moveaxis(Z[x], -1, 0)]

        def reply(s):
            hit = np.zeros(np.broadcast_shapes(x.shape, np.shape(s)), dtype=bool)
            for h in hz:
                hit |= h == s
            return [np.logical_not(hit, out=hit).view(np.uint8)]

        return 1, bucket(cols[idx[1]]), reply, lambda bits: bits[0]

    # neq3-multiparty: the other two parties each say whether their bucket
    # is the first's
    h = [bucket(i) for i in idx]

    def reply(s):
        return [(h[1] == s).view(np.uint8), (h[2] == s).view(np.uint8)]

    return 0, h[0], reply, lambda bits: 1 - (bits[0] & bits[1])


def _decide(spec: ProtocolSpec, idx, keys, codes: bool):
    """(codes, out): transcript codes and outputs of the protocol on cells idx.

    idx holds one int64 index array per party; they broadcast against each
    other to the shape of the result. keys(count) returns count independent
    hash keys as a sequence: item j is key j, a pair (a, b) of uint64 arrays
    of shape s, with s broadcasting against idx. The grid's keys are one
    (count, 2) + s array; the sampler reads each key when it is indexed, so
    a key that is never indexed is never drawn. Randomness is drawn through
    keys only, in call order, so one run of this function is one protocol
    run per cell: shared by all cells when s is all ones (the grid), or
    independent per cell when s is the sample shape (error-rate sampling).
    keys None, with codes False, runs any family unhashed, to its mask
    (target_bitmap). With keys, the greater-than families take an open
    rows x columns grid with shared keys (as _grid and _shared_keys give),
    or one-axis samples without codes; any other cells are a
    ParameterError (_gt). codes is None instead of built when codes is
    False; on a grid the keys drawn and the outputs are the same either
    way. Sampled cells (one-axis idx, keys of the sample shape) without
    codes are walked round by round by _gt, banded-gt's second call only
    on the samples whose first said no, and banded2d-gt's third call once
    per sample, on its branch: fewer keys, data-independent counts, and
    outputs of the same distribution.
    """
    f = spec.family
    n = spec.n
    x, y = idx[0], idx[1]
    gt = _gt if codes else functools.partial(_gt, codes=False)
    # outputs only, on sampled cells: _gt walks them round by round
    sampled = not codes and np.ndim(x) == 1

    if f in ONE_SIDED_FAMILIES:
        _, s, reply, label = _one_sided(spec, idx, keys)
        bits = reply(s)
        out = np.asarray(label(bits), dtype=np.uint8)
        if not codes:
            return None, out
        for bit in bits:
            s = s * 2 + bit
        return s, out

    if f == "greater-than":
        return gt(x, y, max(1, int(n - 1).bit_length()), spec.delta, keys)

    if f == "monotone-gt":
        px = np.asarray(spec.prefix_lengths, dtype=np.int64)
        return gt(px[x], y, max(1, int(n).bit_length()), spec.delta, keys)

    if f == "banded-gt":
        p = spec.p
        m = max(1, int(n + p - 2).bit_length())
        d = spec.delta / 2
        c1, o1 = gt(x, y + p - 1, m, d, keys)
        if sampled:
            # the second call runs only on the samples whose first said "no"
            no = np.flatnonzero(o1 == 0)
            o1[no] |= gt(x[no] + p - 1, y[no], m, d, _taken(keys, no), "b>a")[1]
            return None, o1
        c2, o2 = gt(x + p - 1, y, m, d, keys, direction="b>a")
        # on a grid both calls run on every cell, and the second is read
        # only where the first said "no"; greater-than codes are >= 1, so 0
        # marks it unread
        out = o1 | o2
        if not codes:
            return None, out
        np.copyto(c2, 0, where=o1.view(bool))
        return _pair_codes(c1, c2), out

    if f == "banded2d-gt":
        p = spec.p
        s = masks.split_index(n)
        ahi, alo, bhi, blo = x // s, x % s, y // s, y % s
        m1 = max(1, int(s - 1).bit_length())
        m3 = max(1, int(2 * s + p).bit_length())
        d = spec.delta / 3
        cA, oA = gt(ahi, bhi, m1, d, keys)
        cB, oB = gt(alo, blo, m1, d, keys)
        # third call per announced sign pattern; L1 distance >= p rewritten as
        # a single comparison of shifted sums/differences, built only when
        # that branch's call runs
        branches = {
            (1, 1): lambda: (ahi + alo, bhi + blo + p - 1, "a>b"),
            (0, 0): lambda: (ahi + alo + p - 1, bhi + blo, "b>a"),
            (1, 0): lambda: (ahi - alo + s - 1, bhi - blo + s - 1 + p - 1, "a>b"),
            (0, 1): lambda: (alo - ahi + s - 1, blo - bhi + s - 1 + p - 1, "a>b"),
        }
        if sampled:
            # one call on every sample, on its own branch's values; a "b>a"
            # call gives the outputs of "a>b" with the parties swapped, as
            # the hash comparison is symmetric
            av, bv = np.empty_like(ahi), np.empty_like(ahi)
            for (ba, bb), branch in branches.items():
                sel = (oA == ba) & (oB == bb)
                u, v, direction = branch()
                if direction == "b>a":
                    u, v = v, u
                av[sel], bv[sel] = u[sel], v[sel]
            return None, gt(av, bv, m3, d, keys)[1]
        codes3 = np.zeros(oA.shape, dtype=np.int64) if codes else None
        out3 = np.zeros(oA.shape, dtype=np.uint8)
        for (ba, bb), branch in branches.items():
            av, bv, direction = branch()
            c3, o3 = gt(av, bv, m3, d, keys, direction)
            del av, bv
            sel = (oA == ba) & (oB == bb)
            if codes:
                codes3 = np.where(sel, c3, codes3)
            out3 = np.where(sel, o3, out3)
        return (_pair_codes(_pair_codes(cA, cB), codes3) if codes else None), out3

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
        return k.reshape((count, 2) + (1,) * ndim)

    return keys


def _grid(spec: ProtocolSpec):
    """One int64 index array per party, on its own axis of an open grid."""
    return np.ix_(*[np.arange(spec.n, dtype=np.int64)] * _order(spec))


def _transcript_grid(spec: ProtocolSpec, seed: int, codes: bool = True):
    """(codes, labels) on the full grid of the family's order; codes is None
    unless asked for."""
    order = _order(spec)
    if spec.n**order > ENUM_CELLS:
        raise ResourceError(
            f"n={spec.n} exceeds the enumeration cap: {spec.n}^{order} cells > {ENUM_CELLS}"
        )
    return _decide(spec, _grid(spec), _shared_keys(spec, seed, order), codes)


# ---------------------------------------------------------------------------
# partitions

@dataclass(frozen=True)
class Rectangle:
    row_set: np.ndarray
    col_set: np.ndarray
    label: int
    depth_set: np.ndarray | None = None


def _offsets(sizes) -> np.ndarray:
    """CSR offsets of consecutive runs of the given sizes, from 0, as int64."""
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


@dataclass(frozen=True, eq=False)
class Boxes:
    """Labeled combinatorial boxes (rectangles at order 2) in CSR arrays.

    Box i has label labels[i] (uint8) and, on axis a, the index set
    index[a][offsets[a][i]:offsets[a][i + 1]]; index and offsets are int64.
    Partitions, covers, dumps and comparators read these arrays; a box
    becomes a Rectangle only when a _Rectangles view is indexed or iterated.
    """

    labels: np.ndarray
    offsets: tuple[np.ndarray, ...]
    index: tuple[np.ndarray, ...]

    @classmethod
    def pack(cls, labels, sets, order: int) -> Boxes:
        """Boxes from one label and one tuple of order index sets per box."""
        axes = list(zip(*sets)) if len(sets) else [()] * order
        return cls(
            np.asarray(labels, dtype=np.uint8),
            tuple(_offsets([len(s) for s in ax]) for ax in axes),
            tuple(np.concatenate((np.zeros(0, np.int64), *ax)).astype(np.int64, copy=False)
                  for ax in axes),
        )

    def __len__(self) -> int:
        return len(self.labels)

    def sizes(self, axis: int) -> np.ndarray:
        """Each box's index-set size on the axis."""
        return np.diff(self.offsets[axis])

    def each(self):
        """(label, index sets) per box, in order; the sets are views into index."""
        bounds = [o.tolist() for o in self.offsets]
        for i, label in enumerate(self.labels.tolist()):
            yield label, tuple(ix[b[i]:b[i + 1]] for ix, b in zip(self.index, bounds))

    def groups(self, members: np.ndarray):
        """The boxes members (ascending indices) grouped by shape: per
        distinct tuple of sizes, the group's indices and ix, where X[ix]
        stacks each box's cells of X, shape (len(group), *sizes); ix is
        np.ix_ of one box's sets with the group on a leading axis."""
        d = len(self.index)
        shapes, inverse = np.unique([self.sizes(a)[members] for a in range(d)],
                                    axis=1, return_inverse=True)
        for g, shape in enumerate(shapes.T.tolist()):
            group = members[inverse.ravel() == g]
            yield group, tuple(
                self.index[a][self.offsets[a][group].reshape((-1,) + (1,) * d)
                              + np.arange(size).reshape((-1,) + (1,) * (d - 1 - a))]
                for a, size in enumerate(shape))


def _rectangle(label: int, sets) -> Rectangle:
    return Rectangle(sets[0], sets[1], label, *sets[2:])


class _Rectangles(Sequence):
    """A read-only sequence view of Boxes as Rectangle objects.

    len() is the box count. Indexing or iterating builds one Rectangle at a
    time, whose index sets are views into the boxes' arrays, and keeps none.
    """

    def __init__(self, boxes: Boxes):
        self.boxes = boxes

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, i) -> Rectangle:
        B = self.boxes
        i = range(len(B))[operator.index(i)]  # IndexError outside, negatives from the end
        return _rectangle(int(B.labels[i]),
                          tuple(ix[o[i]:o[i + 1]] for ix, o in zip(B.index, B.offsets)))

    def __iter__(self):
        for label, sets in self.boxes.each():
            yield _rectangle(label, sets)


class _Packed:
    """A partition or cover of Boxes: rectangles is a _Rectangles view of
    the boxes, so reading it builds nothing until it is indexed or iterated."""

    @property
    def rectangles(self) -> _Rectangles:
        return _Rectangles(self.boxes)


@dataclass(frozen=True, eq=False)
class PartitionSample(_Packed):
    boxes: Boxes
    n: int
    source: str
    one_count: int
    order: int = 2


@dataclass(frozen=True, eq=False)
class Cover(_Packed):
    boxes: Boxes
    n: int
    order = 2  # a cover is of a matrix; not a field


def _group_cells(codes: np.ndarray, labels: np.ndarray) -> Boxes:
    """Boxes of the cells' transcript classes, in code order: _group_grid
    on a grid the caller still holds."""
    return _group_grid([codes, labels])


def _group_grid(grid: list) -> Boxes:
    """Boxes of the transcript classes of grid = [codes, labels], in code order.

    Each cell gets one int64 key, its code's offset from the least code
    above its flat C-order position, or its code's dense rank when the
    code range leaves the position too few of the 63 bits. The keys are
    unique, so one in-place sort lists each class's cells together, in C
    order, and the positions are read back off the low bits, held in int32
    when they fit; the label must not change inside a class. grid is
    emptied and the codes dropped once keyed, and the labels once sorted,
    so a caller that keeps no other reference frees them before the
    splits. Then, one axis at a time, _split_axis reads each class off its
    sorted cells as its index set on that axis times a set of positions
    over the axes after it, which are again in C order for the next axis.
    Every class must be such a product on every axis, so it is exactly the
    box of its index sets.
    """
    codes, labels = grid
    grid.clear()
    shape = codes.shape
    flat = codes.ravel()
    del codes
    size = flat.size
    bits = max(size - 1, 1).bit_length()
    lo, hi = int(flat.min()), int(flat.max())
    if (hi - lo).bit_length() + bits > 63:
        flat, lo = _rank(flat), 1
    key = np.subtract(flat, lo, out=np.empty(size, np.int64), dtype=np.int64)
    del flat
    key <<= bits
    # the positions, as column and row offsets broadcast over the rows, so
    # that no array of them spans the grid
    rows = key.reshape(-1, shape[-1])
    rows += np.arange(shape[-1])
    rows += np.arange(0, size, shape[-1])[:, None]
    del rows
    key.sort()
    it = np.int32 if size < 2**31 else np.int64
    pos = np.bitwise_and(key, (1 << bits) - 1, out=np.empty(size, it), casting="unsafe")
    key >>= bits
    new = np.empty(size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    del key
    lab = labels.ravel()[pos]
    del labels
    if ((lab[1:] != lab[:-1]) & ~new[1:]).any():
        raise RuntimeError("transcript class with mixed labels")
    starts = np.flatnonzero(new)
    label = lab[starts]
    del new, lab
    index, offsets = [], []
    for a in range(len(shape) - 1):
        inner = math.prod(shape[a + 1:])
        hi = np.floor_divide(pos, inner, out=np.empty(pos.size, it), casting="unsafe")
        lo = np.remainder(pos, inner, out=np.empty(pos.size, it), casting="unsafe")
        del pos
        ix, off, pos, starts = _split_axis(hi, lo, starts)
        del hi, lo
        index.append(ix)
        offsets.append(off)
    index.append(pos.astype(np.int64))
    offsets.append(np.append(starts, pos.size))
    return Boxes(label, tuple(offsets), tuple(index))


def _split_axis(hi: np.ndarray, lo: np.ndarray, starts: np.ndarray):
    """Each class as its index set on one axis times its inner positions.

    Cell j has index hi[j] on the axis and position lo[j] over the axes
    after it; the classes start at starts and list their cells in C order,
    so a class is a sequence of runs of one hi. It is a product exactly
    when every run has its first run's length and repeats its first run's
    lo values, which are then its inner set. Returns the index sets (int64)
    with their offsets, and the inner sets with their starts; a class that
    is not a product raises.
    """
    size = hi.size
    new = np.empty(size, dtype=bool)
    new[:1] = True
    np.not_equal(hi[1:], hi[:-1], out=new[1:])
    new[starts] = True
    run = np.flatnonzero(new)
    del new
    length = np.diff(run, append=size)
    first = np.searchsorted(run, starts)
    count = np.diff(first, append=run.size)  # runs per class
    width = length[first]  # cells per run
    if not np.array_equal(length, np.repeat(width, count)):
        raise RuntimeError("transcript class is not a rectangle")
    # each cell against its counterpart in the first run of its class, in
    # stripes of whole runs, so that no index array spans every cell
    shift = run - np.repeat(starts, count)
    edges = np.append(run, size)
    cuts = np.unique(np.searchsorted(edges, np.append(np.arange(0, size, _STRIPE_CELLS), size)))
    for r0, r1 in itertools.pairwise(cuts.tolist()):
        src = np.arange(edges[r0], edges[r1]) - np.repeat(shift[r0:r1], length[r0:r1])
        if not np.array_equal(lo[src], lo[edges[r0]:edges[r1]]):
            raise RuntimeError("transcript class is not a rectangle")
    first_run = np.zeros(run.size, dtype=bool)
    first_run[first] = True
    inner = lo[np.repeat(first_run, length)]
    return hi[run].astype(np.int64), _offsets(count), inner, np.cumsum(width) - width


def _bucket_products(spec: ProtocolSpec, seed: int) -> Boxes:
    """Boxes of a one-sided family's transcript classes, in code order.

    The same keys as the grid's hash each party's n indices once, each on
    its own axis of an open grid, so no array spans two parties. A class is
    one sender bucket s, ascending, and one reply bit per receiver, taken
    in party order: the sender's indices in bucket s times each receiver's
    indices giving its bit. Empty classes are skipped, as they have no cell.
    """
    order = _order(spec)
    sender, s, reply, label = _one_sided(spec, _grid(spec), _shared_keys(spec, seed, order))
    s = s.ravel()
    labels, sets = [], []
    for b in np.unique(s):
        senders = np.flatnonzero(s == b)
        bits = [r.ravel() for r in reply(b)]
        for answer in itertools.product((0, 1), repeat=len(bits)):
            box = [np.flatnonzero(r == a) for r, a in zip(bits, answer)]
            if all(len(r) for r in box):
                box.insert(sender, senders)
                sets.append(box)
                labels.append(label(answer))
    return Boxes.pack(labels, sets, order)


def sample_partition(spec: ProtocolSpec, seed: int = 0) -> PartitionSample:
    """The protocol's rectangles under one seeded draw of shared randomness.

    A one-sided family's rectangles are built as products of hash buckets,
    in O(n + rectangles) memory with no cell enumerated; any other family
    runs _decide on every cell and groups the cells by transcript, within
    ENUM_CELLS. Both give the transcript classes in ascending code order,
    as Boxes.
    """
    if spec.family in ONE_SIDED_FAMILIES:
        boxes = _bucket_products(spec, seed)
    else:
        boxes = _group_grid(list(_transcript_grid(spec, seed)))
    return PartitionSample(boxes, spec.n, f"{spec.describe()}@{seed}",
                           int(np.count_nonzero(boxes.labels)), order=_order(spec))


def multiparty_partition(spec: ProtocolSpec, seed: int = 0) -> PartitionSample:
    if _order(spec) != 3:
        raise ParameterError(f"{spec.family} is not an order-3 family")
    return sample_partition(spec, seed)


def protocol_matrix(spec: ProtocolSpec, seed: int = 0) -> masks.Mask:
    """The protocol's output on every cell, as a mask W_pi."""
    if _order(spec) != 2:
        raise ParameterError("order-3 output is a cube; use protocol_cube")
    _, labels = _transcript_grid(spec, seed, codes=False)
    labels.flags.writeable = False
    return masks.held_mask(labels)


def protocol_cube(spec: ProtocolSpec, seed: int = 0) -> np.ndarray:
    if _order(spec) != 3:
        raise ParameterError(f"{spec.family} is not an order-3 family")
    _, labels = _transcript_grid(spec, seed, codes=False)
    return labels


def partition_bitmap(sample: PartitionSample) -> np.ndarray:
    """Reassemble the label grid from a partition's boxes."""
    out = np.full((sample.n,) * sample.order, 255, dtype=np.uint8)
    for label, sets in sample.boxes.each():
        out[np.ix_(*sets)] = label
    if out.max() == 255:
        raise RuntimeError("partition does not tile the grid")
    return out


def target_bitmap(spec: ProtocolSpec) -> np.ndarray:
    """The mask the protocol family is meant to compute: its decision run
    unhashed on the full grid, drawing no key and walking no tree. It is
    also the mask of every pattern with a protocol (masks._Pattern)."""
    return _decide(spec, _grid(spec), None, codes=False)[1]


def empirical_error_rates(
    spec: ProtocolSpec, W, trials: int, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo disagreement rates of W_pi against W, split by W's value.

    Each of the trials samples an independent (cell, protocol seed) pair and
    runs _decide, the evaluator that also builds the certificate's partition,
    without its transcript codes, so the two rates are plain binomial
    estimates of the per-cell error probabilities of those decisions,
    averaged over each side of the mask.

    The cells are drawn first, one index array per axis (8 * order bytes
    per trial); bounded draws use rejection sampling, so the raw outputs
    they consume depend on the values, and they are not split. _decide then
    runs on chunks of _stripe_cells() samples, shared by the calling thread
    and the pool's (_striped): _STRIPE_CELLS on one or two threads, fewer on
    more, so that at most 2 * _STRIPE_CELLS samples are in flight and keys
    and decisions take O(_STRIPE_CELLS) memory on any core count. A chunk's
    keys are its slice of the (2, count, trials) uint64 block that one draw
    per keys call would give, read by the chunk's own PCG64 set to the
    slice's stream position, as each uint64 is one raw output. They are read
    one key at a time, when _decide indexes it: each greater-than call
    reads one key per search round, when that round runs, and a key no
    round reads is never drawn. _decide's sequence of keys counts does not
    depend on the data, and nothing else draws after the cells, so the
    rates do not depend on the chunk size or the thread count: each chunk
    returns its integer tally, and the tallies are summed.
    """
    if trials < 1:
        raise ParameterError(f"trials={trials} must be positive")
    shape = (spec.n,) * _order(spec)
    bitmap = as_bitmap(W, np.uint8, shape)
    rng = np.random.default_rng(seed)
    idx = tuple(rng.integers(0, spec.n, size=trials) for _ in shape)
    start, chunk = rng.bit_generator.state, _stripe_cells()

    def chunk_tally(s0):
        # samples per (W, disagrees) in the chunk from s0, on its own PCG64
        size = min(chunk, trials - s0)
        stream, pos = np.random.PCG64(0), 0

        def row(offset):
            stream.state = start
            stream.advance(offset + s0)
            return stream.random_raw(size)

        def keys(count: int):
            nonlocal pos
            block, pos = pos, pos + 2 * count * trials
            return _Lazy(lambda j: (row(block + j * trials), row(block + (count + j) * trials)))

        cut = tuple(i[s0:s0 + size] for i in idx)
        _, out = _decide(spec, cut, keys, codes=False)
        w = bitmap[cut]
        return np.bincount(w.astype(np.intp) * 2 + (out != w), minlength=4)

    tally = sum(_striped(chunk_tally, range(0, trials, chunk)))
    return tuple(int(t[1]) / int(t.sum()) if t.any() else 0.0 for t in tally.reshape(2, 2)[::-1])


# ---------------------------------------------------------------------------
# nondeterministic covers

def nondet_cover(kind: str, n: int, blocks=None) -> Cover:
    """Overlapping 1-labeled rectangles witnessing f = 1.

    neq-blocks guesses a bit position where the block ids differ and its
    orientation; neq-bits, for n a power of two, is neq-blocks on singleton
    blocks; disj-coords guesses a shared coordinate of intersecting sets.
    """
    idx = np.arange(n, dtype=np.int64)
    sets = []
    if kind == "neq-bits":
        if n < 2 or n & (n - 1):
            raise ParameterError(f"n={n} must be a power of two")
        kind, blocks = "neq-blocks", tuple((i,) for i in range(n))
    if kind == "neq-blocks":
        if blocks is None:
            raise ParameterError("neq-blocks needs the block partition")
        blk = masks.block_index_map(blocks, n)  # checks the partition
        target = target_bitmap(equality_hash(n, 1.0, groups=blk))
        nb = len(blocks)
        if nb < 2:
            raise ParameterError("need at least two blocks")
        m = (nb - 1).bit_length()
        for i in range(m):
            bit = (blk >> i) & 1
            for b in (0, 1):
                S, T = idx[bit == b], idx[bit != b]
                if len(S) and len(T):
                    sets.append((S, T))
    elif kind == "disj-coords":
        if n < 2 or n & (n - 1):
            raise ParameterError(f"n={n} must be a power of two")
        m = n.bit_length() - 1
        for i in range(m):
            bit = (idx >> i) & 1
            S = idx[bit == 1]
            if len(S):
                sets.append((S, S))
        target = ((idx[:, None] & idx[None, :]) != 0).astype(np.uint8)
    else:
        raise ParameterError(f"unknown cover kind {kind!r}")

    cover = Cover(Boxes.pack([1] * len(sets), sets, 2), n)
    if not np.array_equal(cover_bitmap(cover), target):
        raise RuntimeError("cover does not match its target mask")
    return cover


def cover_bitmap(cover: Cover) -> np.ndarray:
    out = np.zeros((cover.n, cover.n), dtype=np.uint8)
    for _, ix in cover.boxes.groups(np.arange(len(cover.boxes))):
        out[ix] = 1
    return out


def _check_shape(P, shape) -> None:
    """Raise ShapeError unless shape is P.order axes of size P.n."""
    if tuple(shape) != (P.n,) * P.order:
        raise ShapeError(f"an n={P.n} order-{P.order} partition does not fit shape {shape}")


def assemble(P, shape, fit) -> list[np.ndarray] | None:
    """Zero-extend the fits of the 1-labeled boxes of P, a partition or a
    cover, and place them side by side.

    shape must be P.order axes of size P.n (ShapeError otherwise). fit is
    called once per shape group of 1-labeled boxes as fit(group, ix), see
    Boxes.groups, and returns per axis a (len(group), size, width) stack.
    The factors are allocated once at the total width; each group fills,
    with one assignment per axis, its boxes' rows and one column block per
    box, blocks in box order. Returns None when no box is 1-labeled.
    """
    _check_shape(P, shape)
    B = P.boxes
    ones = np.flatnonzero(B.labels == 1)
    if not len(ones):
        return None
    fits = [(group, ix, fit(group, ix)) for group, ix in B.groups(ones)]
    widths = np.zeros(len(B), dtype=np.int64)
    for group, _, factors in fits:
        widths[group] = factors[0].shape[2]
    starts = _offsets(widths)
    out = [np.zeros((size, starts[-1]), dtype=f.dtype) for size, f in zip(shape, fits[0][2])]
    for group, ix, factors in fits:
        cols = starts[group, None, None] + np.arange(factors[0].shape[2])
        for full, idx, f in zip(out, ix, factors):
            full[idx.reshape(len(group), -1, 1), cols] = f
    return out
