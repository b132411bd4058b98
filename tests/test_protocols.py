"""Protocol families: partitions, labels, error rates, covers, and caps."""

import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest

from maskedlra import (
    Cover,
    Diagonal,
    Explicit,
    PartitionSample,
    ParameterError,
    ResourceError,
    ShapeError,
    banded2d_gt,
    banded_gt,
    empirical_error_rates,
    eq_mod_p,
    equality_hash,
    greater_than,
    make_mask,
    monotone_gt,
    multiparty_partition,
    neq3_multiparty,
    nondet_cover,
    protocol_matrix,
    sample_partition,
    sparse_set_eq,
    transcript_cap,
)
from maskedlra import protocols
from maskedlra.io import write_partition
from maskedlra.protocols import (
    ONE_SIDED_FAMILIES,
    Boxes,
    _Rectangles,
    _group_cells,
    _shared_keys,
    _transcript_grid,
    assemble,
    partition_bitmap,
    protocol_cube,
    target_bitmap,
)


def _tiles_grid(P) -> bool:
    """Every cell lands in exactly one rectangle."""
    if P.order == 2:
        hits = np.zeros((P.n, P.n), dtype=np.int64)
        for r in P.rectangles:
            hits[np.ix_(r.row_set, r.col_set)] += 1
    else:
        hits = np.zeros((P.n,) * 3, dtype=np.int64)
        for r in P.rectangles:
            hits[np.ix_(r.row_set, r.col_set, r.depth_set)] += 1
    return bool((hits == 1).all())


def _label_grid(P) -> np.ndarray:
    out = np.zeros((P.n,) * P.order, dtype=np.uint8)
    for r in P.rectangles:
        if r.label:
            if P.order == 2:
                out[np.ix_(r.row_set, r.col_set)] = 1
            else:
                out[np.ix_(r.row_set, r.col_set, r.depth_set)] = 1
    return out


def _specs_under_test(n: int = 16):
    rng = np.random.default_rng(0)
    zs = tuple(tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False))) for _ in range(n))
    prefixes = tuple(int(v) for v in rng.integers(0, n + 1, size=n))
    return [
        equality_hash(n, 0.25),
        eq_mod_p(n, 4),
        eq_mod_p(n, 4, delta=0.5),
        sparse_set_eq(n, zs, 2, 0.25),
        greater_than(n, 0.25),
        banded_gt(n, 3, 0.25),
        banded2d_gt(n, 2, 0.5),
        monotone_gt(prefixes, 0.25),
    ]


def _one_spec_per_family(n: int = 16):
    """The specs of _specs_under_test, hashed eq-mod-p, plus order-3 neq3."""
    specs = [s for s in _specs_under_test(n) if s.family != "eq-mod-p" or s.delta]
    return specs + [neq3_multiparty(8, 0.5)]


# sha256 over the partition dumps for seeds 0, 3, 7, 11, 13, then the
# little-endian float64 error-rate pairs (20 000 trials, W = target_bitmap)
# for seeds 2, 3, 5. Any change to a family's decisions or to the order in
# which it draws randomness moves its digest.
GOLDEN_DIGESTS = {
    "equality-hash": "053279aff6a470dd393328459e15f44261a6fdc6633cbc6a92be78b27ff47b6b",
    "eq-mod-p": "444b850cca61c9d6bbd8c9c618216cbe3911ba141dc7f37e2a0acff8bc198128",
    "sparse-set-eq": "f8924bedf114b0b4ca972b3b00dd2bd6fd37daeea32785a44455a987f98947a0",
    "neq3-multiparty": "a69f90f2e77927288356e14c7d8c088b53052f3b8a6be972ccaf73bde42aa315",
}

# the greater-than families' dumps and rates, digested apart: the dumps'
# digest was recorded before their sampled calls walked round by round,
# which draws fewer keys and so moved only the rates
GOLDEN_GT_PARTITIONS = {
    "greater-than": "51f0f00d287745fb5775426d8d16cc3acf27ced0bb45660627de4445ed2ddda7",
    "banded-gt": "1f7a5faeafaa67329700a2d6c91bf22ba590bb1f77411b01fd58625709bfd345",
    "banded2d-gt": "d046c3b068e39ed7a191797b1a64e79af0822b5fa4ddcefa6aea234ccebce9ad",
    "monotone-gt": "e295ae1d6b7f6054889ef45945477100d70be13a72c379f17016d0949a24b974",
}
GOLDEN_GT_RATES = {
    "greater-than": "2a22e81b78ca5c8e15b2eb6e869fd3f8621255025aa85e48fa1f9c403bf3380d",
    "banded-gt": "5d0900b7c22f623b073401594bd9a888200590d51a82939f6579a21d0968edf4",
    "banded2d-gt": "8496a5413fdb6a3f6f92b17ee51a62d89219a7fe532e5f96c6eb7fdbe550080b",
    "monotone-gt": "62a5d45a15c6fc3f0f25b64063570c0c8453ced76ac6909342c93f5ca5113513",
}


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


@pytest.mark.parametrize("spec", _one_spec_per_family(), ids=lambda s: s.family)
def test_golden_partitions_and_error_rates(spec, tmp_path):
    dumps = []
    for seed in (0, 3, 7, 11, 13):
        path = tmp_path / f"p{seed}.part"
        write_partition(path, sample_partition(spec, seed=seed))
        dumps.append(path.read_bytes())
    rates = [struct.pack("<dd", *empirical_error_rates(spec, target_bitmap(spec), 20_000, seed=seed))
             for seed in (2, 3, 5)]
    f = spec.family
    if f in GOLDEN_DIGESTS:
        assert _sha(dumps + rates) == GOLDEN_DIGESTS[f]
    else:
        assert (_sha(dumps), _sha(rates)) == (GOLDEN_GT_PARTITIONS[f], GOLDEN_GT_RATES[f])


# sha256 as for GOLDEN_DIGESTS, over all of _SINGLE_BUCKET_SPECS in turn; a
# one-bucket hash maps every value to 0 whichever key it draws
SINGLE_BUCKET_DIGEST = "ac50c7afd1aba6d053de2e71c27e5af66c358f1b7ca0c5c46564212ab126b16f"


def test_golden_single_bucket_partitions_and_error_rates(tmp_path):
    """The single-bucket specs, digested as in GOLDEN_DIGESTS, all in one."""
    h = hashlib.sha256()
    for spec in _SINGLE_BUCKET_SPECS:
        for seed in (0, 3, 7, 11, 13):
            path = tmp_path / f"p{seed}.part"
            write_partition(path, sample_partition(spec, seed=seed))
            h.update(path.read_bytes())
        for seed in (2, 3, 5):
            rates = empirical_error_rates(spec, target_bitmap(spec), 20_000, seed=seed)
            h.update(struct.pack("<dd", *rates))
    assert h.hexdigest() == SINGLE_BUCKET_DIGEST


def test_single_bucket_equality_partition():
    P = sample_partition(equality_hash(4, 1.0), seed=0)
    assert len(P.rectangles) == 1
    assert P.rectangles[0].label == 0
    assert P.one_count == 0
    W = protocol_matrix(equality_hash(4, 1.0), seed=0)
    assert not W.bitmap.any()


def test_two_bucket_equality_structure():
    """delta=0.5 gives two buckets, at most two rectangles per bucket."""
    for seed in range(5):
        P = sample_partition(equality_hash(8, 0.5), seed=seed)
        assert len(P.rectangles) <= 4
        assert _tiles_grid(P)
        # each 0-rectangle is square on a bucket; its rows see their complement as 1
        for r in P.rectangles:
            if r.label == 0:
                assert set(r.row_set.tolist()) == set(r.col_set.tolist())


def test_eq_mod_p_deterministic_partition():
    spec = eq_mod_p(4, 2)
    P = sample_partition(spec, seed=9)
    assert len(P.rectangles) == 4
    assert _tiles_grid(P)
    # zero error: labels reproduce the target mask exactly
    assert np.array_equal(_label_grid(P), target_bitmap(spec))
    assert spec.delta == 0.0


def test_partitions_tile_grid_across_families():
    for spec in _specs_under_test():
        for seed in (0, 3):
            P = sample_partition(spec, seed=seed)
            assert _tiles_grid(P), (spec.family, seed)


def test_partition_labels_match_protocol_matrix():
    for spec in _specs_under_test():
        P = sample_partition(spec, seed=7)
        W = protocol_matrix(spec, seed=7)
        assert np.array_equal(_label_grid(P), W.bitmap), spec.family


def test_one_sided_families_never_mislabel_zeros():
    n = 16
    rng = np.random.default_rng(1)
    zs = tuple(tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False))) for _ in range(n))
    specs = [
        equality_hash(n, 0.25),
        equality_hash(n, 0.25, groups=rng.integers(0, 5, size=n)),
        eq_mod_p(n, 4, delta=0.5),
        sparse_set_eq(n, zs, 2, 0.5),
        sparse_set_eq(n, zs, 2, 0.5, col_groups=rng.integers(0, n, size=n)),
        neq3_multiparty(n, 0.25),
    ]
    for spec in specs:
        assert spec.family in ONE_SIDED_FAMILIES
        W = target_bitmap(spec)
        assert W.any() and not W.all(), spec.family
        for seed in range(6):
            if spec.family == "neq3-multiparty":
                Wp = protocol_cube(spec, seed=seed)
            else:
                Wp = protocol_matrix(spec, seed=seed).bitmap
            assert not (Wp & (1 - W)).any(), (spec.family, seed)


def test_rectangle_count_caps():
    for spec in _specs_under_test():
        cap = transcript_cap(spec)
        for seed in (0, 11):
            P = sample_partition(spec, seed=seed)
            assert len(P.rectangles) <= cap, (spec.family, len(P.rectangles), cap)


def test_injective_equality_matches_diagonal_complement():
    """With as many buckets as inputs and a collision-free seed the protocol
    matrix is exactly the diagonal complement."""
    n = 4
    spec = equality_hash(n, delta=1.0 / n)  # n buckets
    want = make_mask(Diagonal(), n).bitmap  # 1 exactly where x != y
    found = False
    for seed in range(64):
        Wp = protocol_matrix(spec, seed=seed).bitmap
        if np.array_equal(Wp, want):
            found = True
            break
        # even with collisions, one-sidedness pins the diagonal to 0
        assert not np.diag(Wp).any()
    assert found, "no collision-free seed among 64 tries"


def test_greater_than_pointwise_confidence():
    # (x=5, y=3) is a true 1-cell; the protocol may miss with prob <= delta
    spec = greater_than(16, 0.1)
    hits = sum(protocol_matrix(spec, seed=s).bitmap[5, 3] for s in range(200))
    assert hits >= 0.9 * 200


def test_empirical_error_rates_one_sided():
    spec = equality_hash(64, 0.25)
    W = target_bitmap(spec)
    trials = 40_000
    on, off = empirical_error_rates(spec, W, trials, seed=5)
    assert off == 0.0
    dens = float(W.mean())
    sigma = np.sqrt(0.25 * 0.75 / (trials * dens))
    assert on <= 0.25 + 3 * sigma


def test_empirical_error_rates_deterministic_family():
    spec = eq_mod_p(32, 4)
    on, off = empirical_error_rates(spec, target_bitmap(spec), 20_000, seed=2)
    assert (on, off) == (0.0, 0.0)


def test_empirical_error_rates_two_sided():
    spec = greater_than(64, 0.1)
    W = target_bitmap(spec)
    trials = 40_000
    on, off = empirical_error_rates(spec, W, trials, seed=3)
    d1 = float(W.mean())
    s1 = np.sqrt(0.1 * 0.9 / (trials * d1))
    s0 = np.sqrt(0.1 * 0.9 / (trials * (1 - d1)))
    assert on <= 0.1 + 3 * s1
    assert off <= 0.1 + 3 * s0


# protocols run with delta = 1, where every hash has one bucket
_SINGLE_BUCKET_SPECS = [equality_hash(16, 1.0), eq_mod_p(16, 4, 1.0), neq3_multiparty(8, 1.0)]


@pytest.mark.parametrize(
    "spec",
    _one_spec_per_family()
    + [eq_mod_p(16, 4), greater_than(64, 0.1), greater_than(33, 0.5)]
    + _SINGLE_BUCKET_SPECS,
    ids=lambda s: f"{s.family}-n{s.n}-d{s.delta:g}",
)
def test_sampled_mode_matches_grid_on_every_cell(spec, monkeypatch):
    """Sampling every cell once, with the grid's keys copied into one key
    column per cell, reproduces the grid's outputs bit for bit and its code
    classes in their order: per-cell codes against the greater-than grid's,
    whose per-cell side is the per-cell search (_ref_gt), as _gt builds
    codes only on a grid."""
    order = 3 if spec.family == "neq3-multiparty" else 2
    cells = np.indices((spec.n,) * order).reshape(order, -1)
    decide = (protocols._decide if spec.family in ONE_SIDED_FAMILIES
              else lambda *args, codes: _reference_decide(monkeypatch, *args))
    for seed in (0, 5):
        shared = _shared_keys(spec, seed, 1)

        def per_cell(count):
            return np.repeat(shared(count), cells.shape[1], axis=-1)

        codes, out = decide(spec, tuple(cells), per_cell, codes=True)
        if order == 3:
            want = protocol_cube(spec, seed)
        else:
            want = protocol_matrix(spec, seed).bitmap
        assert np.array_equal(out.reshape(want.shape), want), (spec.describe(), seed)
        want_codes, _ = _transcript_grid(spec, seed)
        assert np.array_equal(_classes(codes), _classes(want_codes)), (spec.describe(), seed)


def test_error_rates_build_no_transcript_code(monkeypatch):
    """Error rates need only the outputs: the greater-than families pack,
    rank and pair no codes for them, nor do protocol_matrix and
    protocol_cube."""
    def refuse(*args):
        raise AssertionError("transcript codes were built")

    for name in ("_pack", "_rank", "_pair_codes"):
        monkeypatch.setattr(protocols, name, refuse)
    for spec in _specs_under_test(64):
        if spec.family not in ONE_SIDED_FAMILIES:
            ones, zeros = empirical_error_rates(spec, target_bitmap(spec), 2_000, seed=1)
            assert 0.0 <= ones <= 1.0 and 0.0 <= zeros <= 1.0
            protocol_matrix(spec, seed=1)
    protocol_cube(neq3_multiparty(8, 0.5), seed=1)


def test_empirical_error_rates_checks_mask_shape():
    for spec, W in (
        (equality_hash(64, 0.25), np.ones((128, 128), dtype=np.uint8)),
        (equality_hash(64, 0.25), np.ones((32, 32), dtype=np.uint8)),
        (neq3_multiparty(8, 0.5), np.ones((8, 8), dtype=np.uint8)),
        (greater_than(8, 0.5), np.ones((8, 8, 8), dtype=np.uint8)),
    ):
        with pytest.raises(ShapeError):
            empirical_error_rates(spec, W, 100, seed=0)


def _ref_empirical_error_rates(spec, W, trials, seed=0):
    """The one-shot sampler: every sample's keys drawn in one block per
    keys call, (2, count, trials) uint64, handed over key by key."""
    rng = np.random.default_rng(seed)
    idx = tuple(rng.integers(0, spec.n, size=trials) for _ in range(W.ndim))

    def keys(count):
        return rng.integers(0, 2**64, size=(2, count, trials), dtype=np.uint64).swapaxes(0, 1)

    _, out = protocols._decide(spec, idx, keys, codes=False)
    w = W[idx].astype(np.int64)
    disagree = out.astype(np.int64) != w
    rates = []
    for side in (1, 0):
        sel = w == side
        tot = int(sel.sum())
        rates.append(float(disagree[sel].sum() / tot) if tot else 0.0)
    return rates[0], rates[1]


@pytest.mark.parametrize("spec", _one_spec_per_family(), ids=lambda s: s.family)
def test_chunked_error_rates_equal_the_one_shot_sampler(spec):
    """Chunks of _STRIPE_CELLS samples, each reading its keys by stream
    position, give the one-shot sampler's rates bit for bit, on both sides
    of every chunk boundary, for the target mask and a random one."""
    S = protocols._STRIPE_CELLS
    order = 3 if spec.family == "neq3-multiparty" else 2
    masks_ = [target_bitmap(spec),
              np.random.default_rng(1).integers(0, 2, size=(spec.n,) * order, dtype=np.uint8)]
    for trials in (1, S - 1, S, S + 1, 3 * S + 7):
        for seed in (0, 9):
            for W in masks_:
                got = empirical_error_rates(spec, W, trials, seed=seed)
                assert got == _ref_empirical_error_rates(spec, W, trials, seed), (trials, seed)


def test_default_rng_keys_are_raw_pcg64_outputs():
    """What the chunked sampler relies on: default_rng runs on PCG64, and a
    full-range uint64 draw is the raw outputs in order, one per value,
    leaving the state that many raw outputs leave; advance(d) skips d."""
    rng = np.random.default_rng(4)
    assert type(rng.bit_generator) is np.random.PCG64
    rng.integers(0, 7, size=5)  # bounded draws may leave a 32-bit value buffered
    start = rng.bit_generator.state
    keys = rng.integers(0, 2**64, size=(2, 3, 11), dtype=np.uint64)
    raw = np.random.PCG64(0)
    raw.state = start
    assert np.array_equal(keys.ravel(), raw.random_raw(66))
    assert raw.state == rng.bit_generator.state
    raw.state = start
    raw.advance(40)
    assert np.array_equal(raw.random_raw(9), keys.ravel()[40:49])


def test_error_rate_memory_does_not_grow_with_keys():
    # at 10**6 trials the sampled cells' indices take 16 MB; with keys and
    # decisions made one chunk at a time the call peaks at 22.1 MB in all,
    # 24.4 MB with two chunks in flight, and 269 MB with every key drawn in
    # one block
    spec = banded2d_gt(256, 2, 0.25)
    W = target_bitmap(spec)
    trials = 10**6
    tracemalloc.start()
    try:
        empirical_error_rates(spec, W, trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * trials + 12 * 10**6


# ---------------------------------------------------------------------------
# stripe and chunk sizes


@pytest.mark.parametrize("spec", _one_spec_per_family(), ids=lambda s: s.family)
def test_error_rates_are_the_same_on_any_worker_count(spec, monkeypatch):
    """Chunks of 1000, 4096 or 2^16 samples give the rates of the default
    2^15 bit for bit: at one sample, at one full default chunk (which 1000
    cuts with a partial last chunk) and at many chunks."""
    order = 3 if spec.family == "neq3-multiparty" else 2
    W = np.random.default_rng(1).integers(0, 2, size=(spec.n,) * order, dtype=np.uint8)
    want = {t: empirical_error_rates(spec, W, t, seed=4) for t in (1, 2**15, 200_001)}
    for chunk in (1000, 4096, 2**16):
        monkeypatch.setattr(protocols, "_STRIPE_CELLS", chunk)
        for trials, rates in want.items():
            assert empirical_error_rates(spec, W, trials, seed=4) == rates, (chunk, trials)


def test_gt_dumps_are_the_same_on_any_worker_count(tmp_path, monkeypatch):
    """Greater-than grids walked in row stripes of 2^15, 4096 or 999 cells,
    at least three stripes each, dump the same partitions byte for byte."""
    rng = np.random.default_rng(3)
    specs = [greater_than(300, 0.25), banded_gt(300, 4, 0.25), banded2d_gt(324, 2, 0.25),
             monotone_gt(tuple(int(v) for v in rng.integers(0, 301, size=300)), 0.25)]
    for spec in specs:
        dumps = set()
        for stripe in (2**15, 4096, 999):
            monkeypatch.setattr(protocols, "_STRIPE_CELLS", stripe)
            rows = max(1, stripe // spec.n)
            assert -(-spec.n // rows) >= 3  # stripes
            path = tmp_path / f"{stripe}.part"
            write_partition(path, sample_partition(spec, seed=5))
            dumps.add(path.read_bytes())
        assert len(dumps) == 1, spec.describe()


@pytest.mark.parametrize("spec", _one_spec_per_family(), ids=lambda s: s.family)
def test_golden_digests_hold_on_many_threads(spec, tmp_path, monkeypatch):
    """The golden digests with the n = 16 grids cut into two row stripes
    and the 20 000 trials into chunks of 128 samples."""
    monkeypatch.setattr(protocols, "_STRIPE_CELLS", 128)
    test_golden_partitions_and_error_rates(spec, tmp_path)


def test_nondet_cover_neq_bits():
    C = nondet_cover("neq-bits", 4)
    assert len(C.rectangles) == 4
    got = {
        (tuple(sorted(r.row_set.tolist())), tuple(sorted(r.col_set.tolist())))
        for r in C.rectangles
    }
    want = {
        ((0, 2), (1, 3)),
        ((1, 3), (0, 2)),
        ((0, 1), (2, 3)),
        ((2, 3), (0, 1)),
    }
    assert got == want
    covered = np.zeros((4, 4), dtype=np.uint8)
    for r in C.rectangles:
        covered[np.ix_(r.row_set, r.col_set)] = 1
    assert np.array_equal(covered, 1 - np.eye(4, dtype=np.uint8))


@pytest.mark.parametrize("n", [2, 4, 16, 64])
def test_nondet_cover_neq_bits_is_neq_blocks_on_singletons(n):
    bits = nondet_cover("neq-bits", n).rectangles
    blocks = nondet_cover("neq-blocks", n, blocks=tuple((i,) for i in range(n))).rectangles
    assert len(bits) == len(blocks)
    for a, b in zip(bits, blocks):
        assert np.array_equal(a.row_set, b.row_set)
        assert np.array_equal(a.col_set, b.col_set)
        assert a.label == b.label


def test_nondet_cover_neq_blocks():
    C = nondet_cover("neq-blocks", 4, blocks=((0, 1), (2, 3)))
    assert len(C.rectangles) == 2
    covered = np.zeros((4, 4), dtype=np.uint8)
    for r in C.rectangles:
        covered[np.ix_(r.row_set, r.col_set)] = 1
    i, j = np.indices((4, 4))
    assert np.array_equal(covered, ((i // 2) != (j // 2)).astype(np.uint8))


def test_nondet_cover_disj_coords():
    C = nondet_cover("disj-coords", 8)
    assert len(C.rectangles) == 3
    covered = np.zeros((8, 8), dtype=np.uint8)
    for r in C.rectangles:
        covered[np.ix_(r.row_set, r.col_set)] = 1
    # brute-force predicate: covered iff the binary strings intersect
    for x in range(8):
        for y in range(8):
            assert covered[x, y] == (1 if (x & y) else 0), (x, y)


def test_nondet_cover_validates_n():
    with pytest.raises(ParameterError):
        nondet_cover("neq-bits", 5)
    with pytest.raises(ParameterError):
        nondet_cover("nope", 4)


def test_assemble_places_each_fit_in_its_rows_and_block():
    """fit sees each shape group of 1-rectangles once, with their indices
    among all rectangles; the groups, of different widths, fill their rows
    and one column block per rectangle, blocks in rectangle order."""
    sets = [
        (np.array([0]), np.array([0, 1])),
        (np.array([1, 2]), np.array([0])),
        (np.array([0]), np.array([2, 3])),
        (np.array([3, 0]), np.array([1])),
    ]
    labels = [0, 1, 1, 1]
    seen = []

    def fit(group, ix):
        g = len(group)
        rows, cols = (x.reshape(g, -1) for x in ix)
        seen.append((group.tolist(), rows.tolist(), cols.tolist()))
        value = group[:, None, None].astype(float)
        return (np.broadcast_to(value, (g, rows.shape[1], g)),
                np.broadcast_to(10.0 * value, (g, cols.shape[1], g)))

    P = PartitionSample(Boxes.pack(labels, sets, 2), 4, "manual", 3)
    U, V = assemble(P, (4, 4), fit)
    assert seen == [([2], [[0]], [[2, 3]]), ([1, 3], [[1, 2], [3, 0]], [[0], [1]])]
    assert np.array_equal(U, [[0, 0, 2, 3, 3], [1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 0, 3, 3]])
    assert np.array_equal(V, [[10, 10, 0, 0, 0], [0, 0, 0, 30, 30],
                              [0, 0, 20, 0, 0], [0, 0, 20, 0, 0]])
    empty = PartitionSample(Boxes.pack(labels[:1], sets[:1], 2), 4, "manual", 0)
    assert assemble(empty, (4, 4), fit) is None
    no_boxes = Cover(Boxes.pack([], [], 2), 4)
    assert len(no_boxes.boxes) == len(no_boxes.rectangles) == 0
    assert list(no_boxes.rectangles) == []
    _assert_csr(no_boxes.boxes, 2)
    assert assemble(no_boxes, (4, 4), fit) is None
    for shape in ((4, 5), (3, 3), (4, 4, 4)):
        with pytest.raises(ShapeError, match="n=4 order-2"):
            assemble(P, shape, fit)
    assert len(seen) == 2


def test_power_of_two_buckets_take_the_top_bits():
    """The one-shift hash equals the fixed-point reduction it replaces."""
    rng = np.random.default_rng(79)
    vals = rng.integers(0, 2**40, size=500)
    key = rng.integers(0, 2**63, size=(2, 500), dtype=np.uint64)
    a, b = key
    top = ((a * vals.astype(np.uint64) + b) >> np.uint64(32)).astype(object)
    for c in range(33):
        want = np.array([int(t) * 2**c >> 32 for t in top], dtype=np.int64)
        assert np.array_equal(protocols._hash_buckets(vals, key, 1 << c), want), c
    assert not protocols._hash_buckets(vals, key, 1).any()


def test_multiparty_single_bucket():
    P = multiparty_partition(neq3_multiparty(4, 1.0), seed=0)
    assert P.order == 3
    assert len(P.rectangles) <= 4
    assert _tiles_grid(P)
    labels = _label_grid(P)
    idx = np.arange(4)
    assert not labels[idx, idx, idx].any()


def test_multiparty_rectangle_cap():
    P = multiparty_partition(neq3_multiparty(8, 0.5), seed=3)
    assert len(P.rectangles) <= 16
    assert _tiles_grid(P)


def test_multiparty_never_errs_on_equal_triples():
    spec = neq3_multiparty(6, 0.5)
    idx = np.arange(6)
    for seed in range(8):
        labels = _label_grid(multiparty_partition(spec, seed=seed))
        assert not labels[idx, idx, idx].any(), seed


def test_multiparty_injective_seed_recovers_target():
    # 8 buckets on 4 inputs: collision-free seeds are common; search a few
    spec = neq3_multiparty(4, 0.25)
    want = target_bitmap(spec)
    found = False
    for seed in range(64):
        labels = _label_grid(multiparty_partition(spec, seed=seed))
        if np.array_equal(labels, want):
            found = True
            break
    assert found, "no collision-free seed among 64 tries"


def test_sample_partition_delegates_multiparty():
    spec = neq3_multiparty(5, 0.5)
    P1 = multiparty_partition(spec, seed=2)
    P2 = sample_partition(spec, seed=2)
    assert np.array_equal(_label_grid(P1), _label_grid(P2))


def test_order_mismatch_rejected():
    with pytest.raises(ParameterError):
        multiparty_partition(greater_than(5, 0.5))
    with pytest.raises(ParameterError):
        protocol_cube(greater_than(5, 0.5))
    with pytest.raises(ParameterError):
        protocol_matrix(neq3_multiparty(5, 0.5))


def test_sparse_set_eq_empty_sets_all_ones():
    spec = sparse_set_eq(8, tuple(() for _ in range(8)), 0, 0.5)
    W = protocol_matrix(spec, seed=1)
    assert W.bitmap.all()


def test_seed_determinism():
    for spec in _specs_under_test():
        P1 = sample_partition(spec, seed=13)
        P2 = sample_partition(spec, seed=13)
        assert np.array_equal(_label_grid(P1), _label_grid(P2))
        assert len(P1.rectangles) == len(P2.rectangles)


def test_enumeration_cap():
    # a greater-than partition groups the cells of the grid, and a protocol
    # matrix is one; both stop at the cap before allocating
    with pytest.raises(ResourceError):
        sample_partition(greater_than(5000, 0.5))
    with pytest.raises(ResourceError):
        protocol_matrix(equality_hash(5000, 0.5))


# ---------------------------------------------------------------------------
# grouping cells into rectangles


def _codes_with_class(shape, cells):
    """Distinct codes on every cell except those listed, which share code 0."""
    codes = np.arange(1, int(np.prod(shape)) + 1, dtype=np.int64).reshape(shape)
    for c in cells:
        codes[c] = 0
    return codes


@pytest.mark.parametrize("shape, cells", [
    # the lines through the corner span 2 x 2 = 4 cells, the class count;
    # (2, 2) lies off that box
    ((3, 3), [(0, 0), (0, 1), (1, 0), (2, 2)]),
    ((3, 3, 3), [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 2, 2)]),
    # an L: every cell moves onto the corner's lines inside the class, but
    # 3 cells do not fill the 2 x 2 box
    ((3, 3), [(0, 0), (0, 1), (1, 0)]),
    ((2, 2, 2), [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
], ids=["off-box-2", "off-box-3", "short-2", "short-3"])
def test_group_cells_rejects_a_class_that_is_not_a_rectangle(shape, cells):
    codes = _codes_with_class(shape, cells)
    with pytest.raises(RuntimeError, match="not a rectangle"):
        _group_cells(codes, np.zeros(shape, dtype=np.uint8))


def test_group_cells_rejects_a_class_with_mixed_labels():
    codes = np.zeros((2, 2), dtype=np.int64)
    labels = np.array([[0, 0], [0, 1]], dtype=np.uint8)
    with pytest.raises(RuntimeError, match="mixed labels"):
        _group_cells(codes, labels)


def _reference_groups(codes, labels):
    """(index sets, label) per distinct code, in code order, one class at a time."""
    out = []
    for c in np.unique(codes):
        cells = np.nonzero(codes == c)
        assert len(np.unique(labels[cells])) == 1
        out.append(([np.unique(ax) for ax in cells], int(labels[cells][0])))
    return out


def _assert_csr(boxes, order):
    """Boxes hold uint8 labels and, per axis, int64 offsets that start at 0
    and end at the length of an int64 index array."""
    assert boxes.labels.dtype == np.uint8
    assert len(boxes.offsets) == len(boxes.index) == order
    for off, ix in zip(boxes.offsets, boxes.index):
        assert off.dtype == np.int64 and ix.dtype == np.int64
        assert len(off) == len(boxes) + 1
        assert off[0] == 0 and off[-1] == len(ix) and (np.diff(off) >= 0).all()


def _assert_matches_reference(codes, labels):
    boxes = _group_cells(codes, labels)
    want = _reference_groups(codes, labels)
    _assert_csr(boxes, codes.ndim)
    assert len(boxes) == len(want)
    for (label, got), (sets, want_label) in zip(boxes.each(), want):
        assert label == want_label
        assert len(got) == len(sets) == codes.ndim
        for g, w in zip(got, sets):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)
    rects = _Rectangles(boxes)
    assert len(rects) == len(want)
    for r, (sets, label) in zip(rects, want):
        got = (r.row_set, r.col_set, r.depth_set)
        assert (r.depth_set is None) == (codes.ndim == 2)
        assert r.label == label
        for g, w in zip(got, sets):
            assert np.array_equal(g, w)


def _random_box_partition(rng, shape, splits):
    """Boxes from repeatedly cutting one box's index set on one axis in two."""
    boxes = [[np.arange(s) for s in shape]]
    for _ in range(splits):
        box = boxes[rng.integers(len(boxes))]
        a = rng.integers(len(shape))
        if len(box[a]) < 2:
            continue
        cut = np.zeros(len(box[a]), dtype=bool)
        cut[rng.permutation(len(box[a]))[:rng.integers(1, len(box[a]))]] = True
        boxes.append(box[:a] + [box[a][cut]] + box[a + 1:])
        box[a] = box[a][~cut]
    return boxes


# code ranges that span each integer dtype the grid's codes may take
_CODE_RANGES = {
    "uint8": (0, 256),
    "int8": (-128, 128),
    "uint16": (0, 1 << 16),
    "int16": (-(1 << 15), 1 << 15),
    "uint32": (0, 1 << 32),
    "int32": (-(1 << 31), 1 << 31),
    "negative": (-(1 << 62), 0),
    "above-2^32": ((1 << 32) + 1, 1 << 62),
    "both-signs": (-(1 << 62), 1 << 62),
    # int64 codes whose span leaves room for the position, and the span at
    # the edge: 56 bits beside the 7 of a 9 x 9 grid's positions fill 63,
    # beside the 8 of a 6 x 6 x 6 grid's they take the rank branch
    "negative-int64": (-(1 << 50), -(1 << 49)),
    "56-bit": (0, 1 << 56),
    "int64-extremes": (-(1 << 63), 1 << 63),
}


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("span", list(_CODE_RANGES), ids=list(_CODE_RANGES))
def test_group_cells_matches_reference_on_random_box_partitions(order, span, monkeypatch):
    lo, hi = _CODE_RANGES[span]
    rng = np.random.default_rng([order, lo & 0xFFFF, hi & 0xFFFF])
    shape = (9, 9) if order == 2 else (6, 6, 6)
    # the grouping ranks the codes exactly when their span and the cell
    # positions need more than the 63 bits of a non-negative int64 key
    ranked, real_rank = [], protocols._rank
    monkeypatch.setattr(protocols, "_rank", lambda c: ranked.append(1) or real_rank(c))
    wide = (hi - 1 - lo).bit_length() + (math.prod(shape) - 1).bit_length() > 63
    for _ in range(5):
        boxes = _random_box_partition(rng, shape, splits=30)
        # distinct codes, the range's two ends among them, so the codes span
        # the whole range
        ends = np.array([lo, hi - 1], dtype=np.int64)
        rest = np.setdiff1d(rng.integers(lo, hi, size=4 * len(boxes)), ends)
        assert len(rest) >= len(boxes) - 2
        values = rng.permutation(np.concatenate([ends, rng.permutation(rest)[:len(boxes) - 2]]))
        codes = np.empty(shape, dtype=np.int64)
        labels = np.empty(shape, dtype=np.uint8)
        for box, v in zip(boxes, values):
            codes[np.ix_(*box)] = v
            labels[np.ix_(*box)] = rng.integers(2)
        _assert_matches_reference(codes, labels)
        assert bool(ranked) == wide
        # the classes list their cells in stable-argsort order of the codes
        grouped = _group_cells(codes, labels)
        cells = np.concatenate([np.ravel_multi_index(np.ix_(*sets), shape).ravel()
                                for _, sets in grouped.each()])
        assert np.array_equal(cells, np.argsort(codes.ravel(), kind="stable"))
        # codes of a narrower dtype than int64 group as they do in int64
        for dt in (np.int32, np.uint32, np.int16):
            info = np.iinfo(dt)
            if info.min <= lo and hi - 1 <= info.max:
                _assert_matches_reference(codes.astype(dt), labels)


@pytest.mark.parametrize(
    "spec", _specs_under_test(64) + [neq3_multiparty(16, 0.25)],
    ids=lambda s: f"{s.family}-d{s.delta:g}",
)
def test_group_cells_matches_reference_on_family_grids(spec):
    for seed in (0, 1):
        _assert_matches_reference(*_transcript_grid(spec, seed))


@pytest.mark.parametrize("stripe", [1, 7, 64])
def test_group_cells_matches_reference_in_any_stripe(stripe, monkeypatch):
    """The per-class check runs in stripes of whole runs; stripes shorter
    than a run, cut inside the last run, or longer than the grid give the
    same boxes and the same rejections."""
    monkeypatch.setattr(protocols, "_STRIPE_CELLS", stripe)
    rng = np.random.default_rng(stripe)
    for shape in ((9, 9), (6, 6, 6), (5, 7)):
        for _ in range(3):
            boxes = _random_box_partition(rng, shape, splits=20)
            codes = np.empty(shape, dtype=np.int64)
            labels = np.empty(shape, dtype=np.uint8)
            for box, v in zip(boxes, rng.permutation(len(boxes))):
                codes[np.ix_(*box)] = v
                labels[np.ix_(*box)] = rng.integers(2)
            _assert_matches_reference(codes, labels)
    _assert_matches_reference(*_transcript_grid(neq3_multiparty(9, 0.5), 1))
    for shape, cells in [((3, 3), [(0, 0), (0, 1), (1, 0), (2, 2)]),
                         ((3, 3, 3), [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 2, 2)]),
                         ((3, 3), [(0, 0), (0, 2), (1, 0), (1, 1)])]:
        with pytest.raises(RuntimeError, match="not a rectangle"):
            _group_cells(_codes_with_class(shape, cells), np.zeros(shape, dtype=np.uint8))


def test_one_cell_cap_for_both_orders(monkeypatch):
    # 2^24 cells is n = 4096 at order 2 and n = 256 at order 3; a smaller cap
    # shows the same rule at sizes a test can enumerate: 64 = 8^2 = 4^3
    monkeypatch.setattr(protocols, "ENUM_CELLS", 64)
    sample_partition(greater_than(8, 0.5))
    protocol_cube(neq3_multiparty(4, 0.5))
    with pytest.raises(ResourceError, match="enumeration cap"):
        sample_partition(greater_than(9, 0.5))
    with pytest.raises(ResourceError, match="enumeration cap"):
        protocol_cube(neq3_multiparty(5, 0.5))
    monkeypatch.undo()
    with pytest.raises(ResourceError, match="enumeration cap"):
        protocol_cube(neq3_multiparty(257, 0.5))


# ---------------------------------------------------------------------------
# one-sided families: rectangles as products of hash buckets


def _bucket_product_specs(n):
    rng = np.random.default_rng(n)
    zs = tuple(tuple(sorted(rng.choice(n, min(n, int(rng.integers(0, 4))), replace=False).tolist()))
               for _ in range(n))
    specs = []
    for delta in (1.0, 0.5, 0.25, 0.1):
        specs += [
            equality_hash(n, delta),
            equality_hash(n, delta, groups=rng.integers(0, 5, size=n)),
            eq_mod_p(n, min(n, 4), delta),
            sparse_set_eq(n, zs, 3, delta),
            sparse_set_eq(n, zs, 3, delta, col_groups=rng.integers(0, 7, size=n)),
            sparse_set_eq(n, ((),) * n, 0, delta),
            neq3_multiparty(min(n, 17), delta),
        ]
    return specs + [eq_mod_p(n, min(n, 3))]


@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_bucket_products_equal_grouped_grid(n):
    """The bucket-product partition is the grid's grouping, rectangle for
    rectangle: order, labels, every index set and one_count."""
    for spec in _bucket_product_specs(n):
        assert spec.family in ONE_SIDED_FAMILIES
        for seed in range(4):
            P = sample_partition(spec, seed=seed)
            want = _group_cells(*_transcript_grid(spec, seed))
            assert P.order == (3 if spec.family == "neq3-multiparty" else 2)
            _assert_csr(P.boxes, P.order)
            assert len(P.rectangles) == len(want) <= transcript_cap(spec)
            assert P.one_count == int(want.labels.sum())
            assert np.array_equal(P.boxes.labels, want.labels)
            for a in range(P.order):
                assert np.array_equal(P.boxes.offsets[a], want.offsets[a])
                assert np.array_equal(P.boxes.index[a], want.index[a])
            for got, w in zip(P.rectangles, _Rectangles(want)):
                assert got.label == w.label
                for a, b in zip((got.row_set, got.col_set, got.depth_set),
                                (w.row_set, w.col_set, w.depth_set)):
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert a.dtype == np.int64 and np.array_equal(a, b)


def test_rectangles_view_len_builds_no_rectangle(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a Rectangle was built")

    P = sample_partition(banded_gt(64, 4, 0.25))
    C = nondet_cover("neq-bits", 8)
    monkeypatch.setattr(protocols.Rectangle, "__init__", refuse)
    assert len(P.rectangles) == len(P.boxes) > 0
    assert len(C.rectangles) == len(C.boxes) == 6
    with pytest.raises(AssertionError, match="a Rectangle was built"):
        P.rectangles[0]


@pytest.mark.parametrize("spec", _one_spec_per_family(), ids=lambda s: s.family)
def test_rectangles_view_reads_the_boxes(spec):
    """Iterating the view, and indexing it from either end, gives each box's
    label and index sets as Boxes.each() does, as views into the CSR arrays."""
    P = sample_partition(spec, seed=3)
    view = P.rectangles
    want = list(P.boxes.each())
    assert len(view) == len(want) > 0
    for i, (r, (label, sets)) in enumerate(zip(view, want, strict=True)):
        for got in (r, view[i], view[i - len(want)]):
            assert type(got.label) is int and got.label == label
            got_sets = (got.row_set, got.col_set, got.depth_set)
            assert (got.depth_set is None) == (P.order == 2)
            for g, w, ix in zip(got_sets, sets, P.boxes.index):
                assert g.dtype == np.int64 and np.array_equal(g, w)
                assert np.shares_memory(g, ix)
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            view[i]
    with pytest.raises(TypeError):
        view[0.0]


@pytest.mark.parametrize("spec", _specs_under_test(), ids=lambda s: s.describe())
def test_protocol_matrix_holds_its_grid_once(spec):
    """protocol_matrix is make_mask(Explicit(labels)) on the grid's labels,
    byte for byte, with the labels themselves, read-only, as both the
    pattern's cells and the bitmap."""
    for seed in (0, 5):
        W = protocol_matrix(spec, seed=seed)
        labels = _transcript_grid(spec, seed)[1]
        want = make_mask(Explicit(labels), spec.n)
        assert W.bitmap.dtype == np.uint8 and W.bitmap.tobytes() == want.bitmap.tobytes()
        assert W.pattern.cells is W.bitmap and not W.bitmap.flags.writeable
        for got, w in ((W.zero_counts.rows, want.zero_counts.rows),
                       (W.zero_counts.cols, want.zero_counts.cols)):
            assert got.dtype == w.dtype == np.int64 and np.array_equal(got, w)


def test_protocol_matrix_memory():
    # equality-hash at n = 2048 held 2.0 traced bytes per cell (the labels
    # and Explicit's copy) and peaked at 3.0 with the reply's astype copy;
    # it holds and peaks at 1.0
    n = 2048
    tracemalloc.start()
    try:
        W = protocol_matrix(equality_hash(n, 0.25))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W.shape == (n, n)
    assert held < 1.1 * n * n and peak < 1.1 * n * n


def test_rectangles_view_len_memory():
    # the Rectangle list that len() once built held 3.9 traced MB (peak
    # 4.9 MB) for the 11,260 boxes of banded-gt at n = 512
    P = sample_partition(banded_gt(512, 4, 0.25))
    tracemalloc.start()
    try:
        count = len(P.rectangles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == len(P.boxes) > 10_000
    assert peak < 4096


def test_bucket_products_enumerate_no_cell(monkeypatch):
    def refuse(*args):
        raise AssertionError("a one-sided partition enumerated cells")

    monkeypatch.setattr(protocols, "_transcript_grid", refuse)
    monkeypatch.setattr(protocols, "_group_cells", refuse)
    for spec in _one_spec_per_family() + [eq_mod_p(16, 4)]:
        if spec.family in ONE_SIDED_FAMILIES:
            sample_partition(spec, seed=1)
    multiparty_partition(neq3_multiparty(8, 0.5), seed=1)


def test_equality_partition_far_above_the_cell_cap():
    tracemalloc.start()
    try:
        P = sample_partition(equality_hash(65536, 0.25))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(P.rectangles) == 8
    assert peak < 16 * 2**20


@pytest.mark.parametrize("spec", [
    greater_than(64, 1e-6),
    monotone_gt(tuple(range(64)), 1e-6),
], ids=["greater-than", "monotone-gt"])
def test_partition_matches_protocol_when_gt_compacts_its_codes(spec):
    # at delta = 1e-6 the transcript outgrows 62 bits, so _pack ranks the
    # codes part way
    P = sample_partition(spec)
    got = partition_bitmap(P)
    assert np.array_equal(got, protocol_matrix(spec).bitmap)
    assert np.array_equal(got, target_bitmap(spec))


# ---------------------------------------------------------------------------
# greater-than: the tree walk against the per-cell search it replaced


def _ref_compact(codes):
    _, inv = np.unique(codes, return_inverse=True)
    inv = inv.reshape(codes.shape).astype(np.int64)
    width = max(1, int(inv.max()).bit_length())
    return inv + (1 << width), width + 1


def _ref_gt(a, b, m, delta, keys, direction="a>b"):
    """The binary search run on every cell: each round gathers a key per cell,
    hashes both parties' prefixes and appends to an int64 code, re-indexed
    whenever it would pass 62 bits."""
    rounds = 1 + (math.ceil(math.log2(m)) if m > 1 else 0)
    c = max(1, math.ceil(math.log2(rounds / delta)))
    nbuck = 1 << c
    k = keys(m + 1)
    hash_ = protocols._hash_buckets
    ha, hb = hash_(a, k[m], nbuck), hash_(b, k[m], nbuck)
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
            codes, bits = _ref_compact(codes)
        mid = (lo + hi) >> 1
        key = np.take_along_axis(k, mid[None, None], 0)[0]
        ha, hb = hash_(a >> (m - mid), key, nbuck), hash_(b >> (m - mid), key, nbuck)
        eq = ha == hb
        codes = np.where(work, (codes << (c + 1)) | (ha << 1) | eq, codes)
        bits += c + 1
        lo = np.where(work & eq, mid, lo)
        hi = np.where(work & ~eq, mid, hi)
    if bits + 2 > 62:
        codes, bits = _ref_compact(codes)
    d = m - 1 - lo
    xd, yd = (a >> d) & 1, (b >> d) & 1
    o = (xd > yd) if direction == "a>b" else (yd > xd)
    out = (active & o).astype(np.uint8)
    codes = np.where(active, (codes << 2) | (xd << 1) | o, codes)
    return codes, out


def _ref_pair_codes(c1, c2):
    _, i1 = np.unique(c1, return_inverse=True)
    _, i2 = np.unique(c2, return_inverse=True)
    i1 = i1.reshape(c1.shape).astype(np.int64)
    i2 = i2.reshape(c2.shape).astype(np.int64)
    return i1 * (int(i2.max()) + 1) + i2


def _classes(codes):
    """Each cell's class as its rank among the distinct codes."""
    return np.unique(codes, return_inverse=True)[1].ravel()


def _reference_decide(monkeypatch, spec, idx, keys):
    with monkeypatch.context() as mp:
        mp.setattr(protocols, "_gt", _ref_gt)
        mp.setattr(protocols, "_pair_codes", _ref_pair_codes)
        return protocols._decide(spec, idx, keys, codes=True)


def _gt_specs():
    """Random greater-than specs of every family, with delta down to 1e-6,
    where the codes pass 62 bits, and m = 1 (n = 2, banded2d-gt at n = 4)."""
    rng = np.random.default_rng(19)
    specs = [greater_than(2, 0.5), greater_than(2, 1e-3), banded2d_gt(4, 1, 0.5),
             banded2d_gt(4, 2, 1e-4), monotone_gt((2, 0), 0.25)]
    for delta in (1.0, 0.3, 1e-3, 1e-6):
        n = int(rng.integers(3, 70))
        s = int(rng.integers(2, 9))
        specs += [
            greater_than(n, delta),
            banded_gt(n, int(rng.integers(1, n + 1)), delta),
            banded2d_gt(s * s, int(rng.integers(1, s * s + 1)), delta),
            monotone_gt(tuple(int(v) for v in rng.integers(0, n + 1, size=n)), delta),
        ]
    return specs


@pytest.mark.parametrize("spec", _gt_specs(), ids=lambda s: s.describe())
def test_gt_decide_matches_reference_on_grid(spec, monkeypatch):
    """Same outputs and the same classes in the same order as the per-cell
    search, so the partitions are the same rectangles in the same order."""
    for seed in (0, 7):
        codes, out = _transcript_grid(spec, seed)
        idx = np.ix_(*[np.arange(spec.n, dtype=np.int64)] * 2)
        want_codes, want_out = _reference_decide(monkeypatch, spec, idx,
                                                 _shared_keys(spec, seed, 2))
        assert np.array_equal(out, want_out)
        assert np.array_equal(_classes(codes), _classes(want_codes))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 11])
@pytest.mark.parametrize("direction", ["a>b", "b>a"])
def test_gt_kernel_matches_reference(m, direction, monkeypatch):
    """Random inputs below 2^m on random rows x cols grids, walked in row
    stripes of an odd size, against the per-cell search, codes class for
    class."""
    rng = np.random.default_rng([m, direction == "a>b"])
    monkeypatch.setattr(protocols, "_STRIPE_CELLS", 37)
    for delta in (0.5, 1e-3):
        rows, cols = rng.integers(1, 40, size=2)
        a = rng.integers(0, 1 << m, size=(rows, 1))
        b = rng.integers(0, 1 << m, size=(1, cols))
        seed = int(rng.integers(2**32))

        def keys(count):
            return np.random.default_rng(seed).integers(
                0, 2**64, size=(count, 2, 1, 1), dtype=np.uint64)

        codes, out = protocols._gt(a, b, m, delta, keys, direction)
        want_codes, want_out = _ref_gt(a, b, m, delta, keys, direction)
        assert np.array_equal(out, want_out)
        assert np.array_equal(_classes(codes), _classes(want_codes))


def _depth_keys(K):
    """Two key sources over one array K of per-depth keys, (depths, 2,
    cells): the per-round walk's key r is K[r], and a per-node walk's node
    j (the per-cell search's key j + 1) reads K at its depth in the search
    tree, so every node at one depth reads the same key. Every call reads
    the same K."""
    def per_round(count):
        return K[:count]

    def per_node(count):
        m = count - 1
        path = protocols._search_tree(m)[1]
        met = path < m
        depth = np.zeros(count, dtype=np.int64)
        depth[path[met] + 1] = np.nonzero(met)[0]
        return K[depth]

    return per_round, per_node


@pytest.mark.parametrize("spec", _gt_specs(), ids=lambda s: s.describe())
def test_round_walk_equals_table_walk_on_depth_keys(spec, monkeypatch):
    """Every cell sampled once: the per-round walk (outputs only) and the
    per-cell search (_ref_gt, which reads one key per tree node, as the
    grid walk does) give the same outputs when the nodes at one depth share
    the round's key, for all four greater-than families."""
    cells = tuple(np.indices((spec.n, spec.n)).reshape(2, -1))
    K = np.random.default_rng(spec.n).integers(0, 2**64, size=(8, 2, cells[0].size),
                                              dtype=np.uint64)
    per_round, per_node = _depth_keys(K)
    _, want = _reference_decide(monkeypatch, spec, cells, per_node)
    _, got = protocols._decide(spec, cells, per_round, codes=False)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("spec", _gt_specs()[::3], ids=lambda s: s.describe())
def test_gt_decide_matches_reference_when_sampled(spec, monkeypatch):
    """On random samples, repeats included, the sampled walk gives the
    per-cell search's outputs on depth keys; codes on samples are refused,
    as _gt builds them only on a rows x columns grid."""
    rng = np.random.default_rng(spec.n)
    idx = tuple(rng.integers(0, spec.n, size=500) for _ in range(2))
    K = rng.integers(0, 2**64, size=(spec.n.bit_length() + 8, 2, 500), dtype=np.uint64)
    per_round, per_node = _depth_keys(K)
    _, out = protocols._decide(spec, idx, per_round, codes=False)
    _, want_out = _reference_decide(monkeypatch, spec, idx, per_node)
    assert np.array_equal(out, want_out)
    with pytest.raises(ParameterError, match="rows of shape"):
        protocols._decide(spec, idx, per_node, codes=True)


@pytest.mark.parametrize("n", [2, 3, 5, 9, 33, 65])
def test_packed_walk_matches_reference_on_grids(n, monkeypatch):
    """Grids whose sides are not multiples of 8 leave padding bits in every
    packed word: each greater-than family's grid (banded2d-gt on the least
    square >= n), and _gt itself in both directions on random inputs, give
    the per-cell search's outputs and code classes, at delta down to 1e-6."""
    rng = np.random.default_rng(n)
    s = math.isqrt(n - 1) + 1
    m = max(1, (n - 1).bit_length())
    for delta in (0.5, 1e-3, 1e-6):
        for spec in (greater_than(n, delta),
                     banded_gt(n, int(rng.integers(1, n + 1)), delta),
                     banded2d_gt(s * s, int(rng.integers(1, s * s + 1)), delta),
                     monotone_gt(tuple(int(v) for v in rng.integers(0, n + 1, size=n)), delta)):
            codes, out = _transcript_grid(spec, 3)
            want_codes, want_out = _reference_decide(monkeypatch, spec, protocols._grid(spec),
                                                     _shared_keys(spec, 3, 2))
            assert np.array_equal(out, want_out), spec.describe()
            assert np.array_equal(_classes(codes), _classes(want_codes)), spec.describe()
        a = rng.integers(0, 1 << m, size=(n, 1))
        b = rng.integers(0, 1 << m, size=(1, n))
        seed = int(rng.integers(2**32))

        def keys(count):
            return np.random.default_rng(seed).integers(
                0, 2**64, size=(count, 2, 1, 1), dtype=np.uint64)

        for direction in ("a>b", "b>a"):
            codes, out = protocols._gt(a, b, m, delta, keys, direction)
            want_codes, want_out = _ref_gt(a, b, m, delta, keys, direction)
            assert np.array_equal(out, want_out), (delta, direction)
            assert np.array_equal(_classes(codes), _classes(want_codes)), (delta, direction)


def test_gt_codes_need_a_rows_by_columns_grid():
    """_gt builds codes, and walks packed planes, only for rows x columns
    with keys shared by every cell; anything else, other than samples
    without codes, is a ParameterError."""
    spec = banded_gt(6, 2, 0.25)
    cells = np.indices((6, 6))
    shared = _shared_keys(spec, 0, 2)
    for idx in (tuple(cells.reshape(2, -1)), tuple(cells), (cells[0][:, :1], cells[1])):
        with pytest.raises(ParameterError, match="rows of shape"):
            protocols._decide(spec, idx, shared, codes=True)
    with pytest.raises(ParameterError, match="rows of shape"):
        protocols._decide(spec, tuple(cells), shared, codes=False)

    def per_cell(count):
        return np.broadcast_to(shared(count), (count, 2, 6, 6))

    with pytest.raises(ParameterError, match="keys shared by every cell"):
        protocols._decide(spec, protocols._grid(spec), per_cell, codes=True)


@pytest.mark.parametrize("spec", [
    greater_than(32, 0.5),
    banded_gt(32, 3, 0.5),
    banded2d_gt(36, 2, 0.5),
    monotone_gt(tuple(int(v) for v in np.random.default_rng(8).integers(0, 33, size=32)), 0.5),
], ids=lambda s: s.family)
def test_sampled_rates_match_the_mean_grid_error(spec):
    """The sampled rates estimate, per side of the target mask, the mean
    error of protocol_matrix over grid seeds: they agree within 4 sigma of
    the two estimates' combined standard error."""
    W = target_bitmap(spec).astype(bool)
    seeds, trials = 300, 400_000
    errs = np.array([[(protocol_matrix(spec, seed).bitmap.astype(bool) != W)[W == side].mean()
                      for side in (True, False)] for seed in range(seeds)])
    rates = empirical_error_rates(spec, W.astype(np.uint8), trials, seed=1)
    for side, rate, runs in zip((True, False), rates, errs.T):
        sampled = trials * np.mean(W == side)
        sigma = math.sqrt(rate * (1 - rate) / sampled + runs.var(ddof=1) / seeds)
        assert abs(rate - runs.mean()) <= 4 * sigma, (side, rate, runs.mean(), sigma)


def test_sampled_calls_walk_only_the_samples_they_read(monkeypatch):
    """On sampled cells banded-gt's second call walks exactly the samples
    whose first call said no, and banded2d-gt's third call walks each
    sample once."""
    gt, calls = protocols._gt, []

    def spy(a, b, m, delta, keys, direction="a>b", codes=True):
        c, o = gt(a, b, m, delta, keys, direction, codes)
        calls.append((a, b, o.copy()))
        return c, o

    monkeypatch.setattr(protocols, "_gt", spy)
    trials = 5_000
    empirical_error_rates(banded_gt(64, 3, 0.25), np.ones((64, 64), np.uint8), trials)
    (a1, b1, o1), (a2, b2, _) = calls
    no = o1 == 0
    assert 0 < len(a2) < trials
    assert np.array_equal(a2, a1[no] + 2) and np.array_equal(b2, b1[no] - 2)
    calls.clear()
    empirical_error_rates(banded2d_gt(64, 2, 0.25), np.ones((64, 64), np.uint8), trials)
    assert [len(a) for a, _, _ in calls] == [trials] * 3


def test_gt_codes_stay_within_the_table_bound(monkeypatch):
    """Every _gt call's codes are twice a dense (leaf, row) rank plus the
    output, at most 2 * (m + 1) * R + 1 for R row positions, on every grid,
    and they keep the classes of the per-cell search (_ref_gt) run on every
    cell as a sample; so _pair_codes never needs more than 62 bits, not
    even for banded2d-gt's pair of a pair."""
    gt, pair_codes = protocols._gt, protocols._pair_codes
    calls, products = [], []

    def checked_gt(a, b, m, delta, keys, direction="a>b", codes=True):
        samples = []

        def spy(count):
            k = keys(count)
            samples.append(k.shape[2:])
            return k

        c, o = gt(a, b, m, delta, spy, direction, codes)
        R = math.prod(np.broadcast_shapes(np.shape(a), *samples))
        calls.append((int(c.max()), 2 * (m + 1) * R + 1))
        return c, o

    def checked_pair_codes(c1, c2):
        products.append((int(c1.max()) + 1) * (int(c2.max()) + 1))
        return pair_codes(c1, c2)

    monkeypatch.setattr(protocols, "_gt", checked_gt)
    monkeypatch.setattr(protocols, "_pair_codes", checked_pair_codes)
    for spec in _gt_specs() + [banded2d_gt(9, 8, 1e-3), banded_gt(5, 3, 1e-6)]:
        cells = np.indices((spec.n, spec.n)).reshape(2, -1)
        for seed in (0, 7):
            codes, _ = _transcript_grid(spec, seed)
            shared = _shared_keys(spec, seed, 1)
            want, _ = _reference_decide(
                monkeypatch, spec, tuple(cells),
                lambda count: np.repeat(shared(count), cells.shape[1], axis=-1))
            assert np.array_equal(_classes(codes), _classes(want)), (spec.describe(), seed)
    assert calls and products
    assert all(top <= bound for top, bound in calls)
    assert max(products) <= 2**62


def test_banded_gt_partition_memory():
    # 17.1 traced bytes per grid cell, in the grouping's splits, with
    # banded-gt's code pairs in int32; 22.1 with the grouping's argsort into
    # CSR arrays, 26.0 with the pairs in int64, 71.4 with the np.unique
    # grouping and its Rectangle list, 118 with the per-cell search; the
    # bound is 10% above the first. A first call at a small n loads the
    # modules numpy imports on first use, which tracemalloc would count
    n = 512
    sample_partition(banded_gt(64, 4, 0.25))
    tracemalloc.start()
    try:
        P = sample_partition(banded_gt(n, 4, 0.25))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert P.n == n
    assert peak < 18.8 * n * n


def test_banded_gt_partition_memory_with_int32_pairs():
    # 14.0 traced bytes per cell at n = 1024, the grouping's peak, with
    # banded-gt's code pairs in int32 and written into the first call's
    # codes; 15.0 with the pairs in a copy of them, 21.3 with the sort
    # positions in int64 and the unread second-call codes masked into a
    # copy, 26.0 with the pairs widened to int64 too; the bound is 10%
    # above the first. A first call at a small n loads the modules numpy
    # imports on first use, which tracemalloc would count
    n = 1024
    sample_partition(banded_gt(64, 4, 0.25))
    tracemalloc.start()
    try:
        P = sample_partition(banded_gt(n, 4, 0.25))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert P.n == n
    assert peak < 15.4 * n * n


def test_banded_gt_partition_frees_its_grid_after_the_sort():
    # 15.4 traced bytes per cell at n = 768 with one in-place sort of int64
    # (code, position) keys and the grid's codes and labels dropped before
    # the splits, 17.0 with a stable argsort of the codes; the bound is 10%
    # above the first. A first call at a small n loads the modules numpy
    # imports on first use, which tracemalloc would count
    n = 768
    sample_partition(banded_gt(64, 4, 0.25))
    tracemalloc.start()
    try:
        P = sample_partition(banded_gt(n, 4, 0.25))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert P.n == n
    assert peak < 16.9 * n * n


def test_partition_bitmap_rejects_a_partition_that_does_not_tile():
    row = np.array([0], dtype=np.int64)
    P = PartitionSample(Boxes.pack([1], [(row, np.arange(2))], 2), 2, "gap", 1)
    with pytest.raises(RuntimeError, match="does not tile the grid"):
        partition_bitmap(P)


def test_order3_partition_matches_protocol_cube():
    spec = neq3_multiparty(8, 0.5)
    for seed in (0, 1):
        P = multiparty_partition(spec, seed=seed)
        assert np.array_equal(partition_bitmap(P), protocol_cube(spec, seed))


@pytest.mark.parametrize("build, match", [
    (lambda: equality_hash(4, 0.0), r"delta=0.0 outside \(0, 1\]"),
    (lambda: greater_than(4, 1.5), r"delta=1.5 outside \(0, 1\]"),
    (lambda: equality_hash(4, 0.5, groups=(0, 1)), "groups must assign an id to every index"),
    (lambda: sparse_set_eq(4, ((),) * 3, 1, 0.5), "zero_sets must have one entry per row"),
    (lambda: sparse_set_eq(2, ((0, 1), ()), 1, 0.5), "a zero set exceeds t=1"),
    (lambda: sparse_set_eq(2, ((5,), ()), 1, 0.5), r"zero_sets\[0\] has an index outside 0..1"),
    (lambda: sparse_set_eq(2, ((), (-1,)), 1, 0.5), r"zero_sets\[1\] has an index outside 0..1"),
    (lambda: sparse_set_eq(2, ((), ()), 1, 0.5, col_groups=(0,)), "col_groups must assign"),
    (lambda: sparse_set_eq(2, ((), ()), 1, 0.5, col_groups=(0, -1)), "non-negative id"),
    (lambda: monotone_gt((0, 3), 0.5), "prefix lengths must lie in 0..n"),
])
def test_bad_protocol_spec_is_a_parameter_error(build, match):
    with pytest.raises(ParameterError, match=match):
        build()
