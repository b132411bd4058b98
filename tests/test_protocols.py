"""Protocol families: partitions, labels, error rates, covers, and caps."""

import hashlib
import struct

import numpy as np
import pytest

from maskedlra import (
    Diagonal,
    ParameterError,
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
from maskedlra.io import write_partition
from maskedlra.protocols import (
    ONE_SIDED_FAMILIES,
    _shared_keys,
    assemble,
    decide,
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
    "greater-than": "491bd2f028ab6a973fd6172925b853d161567658f2461acee49dc66983cc7449",
    "banded-gt": "114b89e841f4a823b171f04c84caf9d5fd437636c3f029b0e5b398966db81efe",
    "banded2d-gt": "b399b83c5b942b795a06e9aa35cc4bd50ea1ae3cad61556bfa91ec65ef71ef68",
    "monotone-gt": "96c6c8d6b6301aaf3b0d1aa18a58d939f6cd114233e8601955bdf730f12080fa",
    "neq3-multiparty": "a69f90f2e77927288356e14c7d8c088b53052f3b8a6be972ccaf73bde42aa315",
}


@pytest.mark.parametrize("spec", _one_spec_per_family(), ids=lambda s: s.family)
def test_golden_partitions_and_error_rates(spec, tmp_path):
    h = hashlib.sha256()
    for seed in (0, 3, 7, 11, 13):
        path = tmp_path / f"p{seed}.part"
        write_partition(path, sample_partition(spec, seed=seed))
        h.update(path.read_bytes())
    for seed in (2, 3, 5):
        rates = empirical_error_rates(spec, target_bitmap(spec), 20_000, seed=seed)
        h.update(struct.pack("<dd", *rates))
    assert h.hexdigest() == GOLDEN_DIGESTS[spec.family]


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
        eq_mod_p(n, 4, delta=0.5),
        sparse_set_eq(n, zs, 2, 0.5),
    ]
    for spec in specs:
        assert spec.family in ONE_SIDED_FAMILIES
        W = target_bitmap(spec)
        for seed in range(6):
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
def test_sampled_mode_matches_grid_on_every_cell(spec):
    """Sampling every cell once, with the grid's keys copied into one key
    column per cell, reproduces the grid's outputs bit for bit."""
    order = 3 if spec.family == "neq3-multiparty" else 2
    cells = np.indices((spec.n,) * order).reshape(order, -1)
    for seed in (0, 5):
        shared = _shared_keys(spec, seed, 1)

        def per_cell(count):
            return np.repeat(shared(count), cells.shape[1], axis=-1)

        _, out = decide(spec, tuple(cells), per_cell)
        if order == 3:
            want = protocol_cube(spec, seed)
        else:
            want = protocol_matrix(spec, seed).bitmap
        assert np.array_equal(out.reshape(want.shape), want), (spec.describe(), seed)


def test_empirical_error_rates_checks_mask_shape():
    for spec, W in (
        (equality_hash(64, 0.25), np.ones((128, 128), dtype=np.uint8)),
        (equality_hash(64, 0.25), np.ones((32, 32), dtype=np.uint8)),
        (neq3_multiparty(8, 0.5), np.ones((8, 8), dtype=np.uint8)),
        (greater_than(8, 0.5), np.ones((8, 8, 8), dtype=np.uint8)),
    ):
        with pytest.raises(ShapeError):
            empirical_error_rates(spec, W, 100, seed=0)


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
    """fit sees every 1-rectangle with its index among all rectangles; the
    pieces, of different widths, fill their rows and consecutive blocks."""
    from maskedlra import Rectangle

    rects = [
        Rectangle(np.array([0]), np.array([0, 1]), 0),
        Rectangle(np.array([1, 2]), np.array([0]), 1),
        Rectangle(np.array([0]), np.array([2, 3]), 1),
    ]
    seen = []

    def fit(i, sets):
        seen.append(i)
        rows, cols = sets
        return np.full((len(rows), i), float(i)), np.full((len(cols), i), 10.0 * i)

    U, V = assemble(rects, (3, 4), fit)
    assert seen == [1, 2]
    assert np.array_equal(U, [[0, 2, 2], [1, 0, 0], [1, 0, 0]])
    assert np.array_equal(V, [[10, 0, 0], [0, 0, 0], [0, 20, 20], [0, 20, 20]])
    assert assemble(rects[:1], (3, 4), fit) is None


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
    from maskedlra import ResourceError

    with pytest.raises(ResourceError):
        sample_partition(equality_hash(5000, 0.5))
