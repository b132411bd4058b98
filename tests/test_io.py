"""Binary matrix/tensor formats, mask descriptors, and partition dumps."""

import struct
import tracemalloc

import numpy as np
import pytest

from maskedlra import (
    AllOnes,
    Banded,
    Banded2D,
    BlockDiagonal,
    BlockSparse,
    Diagonal,
    Explicit,
    Monotone,
    ParameterError,
    ShapeError,
    Sparse,
    ToeplitzModP,
    banded2d_gt,
    banded_gt,
    equality_hash,
    make_mask,
    neq3_multiparty,
    sample_partition,
)
from maskedlra import io
from maskedlra.cli import main
from maskedlra.io import (
    load_mask,
    parse_kv,
    read_bitmap,
    read_mask_descriptor,
    read_matrix,
    read_partition,
    read_tensor,
    write_bitmap,
    write_mask_descriptor,
    write_matrix,
    write_partition,
    write_tensor,
)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 3))
    p = tmp_path / "a.mlra"
    write_matrix(p, A)
    assert np.array_equal(read_matrix(p), A)
    assert p.read_bytes()[:5] == b"MLRA1"


def test_matrix_bad_magic(tmp_path):
    p = tmp_path / "bad.mlra"
    p.write_bytes(b"XXXXX" + b"\x00" * 16)
    with pytest.raises(ParameterError):
        read_matrix(p)


def test_matrix_truncated_payload(tmp_path):
    rng = np.random.default_rng(3)
    p = tmp_path / "short.mlra"
    write_matrix(p, rng.standard_normal((4, 4)))
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(ParameterError):
        read_matrix(p)


def test_bitmap_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    B = (rng.random((6, 4)) < 0.5).astype(np.uint8)
    p = tmp_path / "w.mlrb"
    write_bitmap(p, B)
    assert np.array_equal(read_bitmap(p), B)
    assert p.read_bytes()[:5] == b"MLRB1"


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    T = rng.standard_normal((3, 4, 2))
    p = tmp_path / "t.mlrt"
    write_tensor(p, T)
    assert np.array_equal(read_tensor(p), T)


def test_mask_descriptor_round_trip(tmp_path):
    n = 16
    rng = np.random.default_rng(11)
    zs = tuple(tuple(sorted(int(x) for x in rng.choice(n, 2, replace=False))) for _ in range(n))
    prefixes = tuple(int(x) for x in rng.integers(0, n + 1, size=n))
    cases = [
        (AllOnes(), n),
        (Diagonal(), n),
        (BlockDiagonal(blocks=(tuple(range(0, 4)), tuple(range(4, 16)))), n),
        (Sparse(zero_sets=zs, t=2), n),
        (BlockSparse(
            ((0, 1, 2, 3, 4), tuple(range(5, 11)), tuple(range(11, 16))),
            ((0, 1, 2, 3), tuple(range(4, 12)), tuple(range(12, 16))),
            ((1,), (0, 2), ()),
            2,
        ), n),
        (ToeplitzModP(4), n),
        (Banded(3), n),
        (Banded2D(2), n),
        (Monotone(prefix_lengths=prefixes), n),
        # a nested field holding exactly one group, and that group empty
        (BlockSparse(((0, 1),), ((0,), (1,)), ((),), 1), 2),
        (Sparse(((),), 0), 1),
    ]
    for idx, (pattern, size) in enumerate(cases):
        W = make_mask(pattern, size)
        p = tmp_path / f"m{idx}.mask"
        write_mask_descriptor(p, W)
        back = read_mask_descriptor(p)
        assert np.array_equal(back.bitmap, W.bitmap), pattern
        assert back.pattern == W.pattern


# descriptor files as every earlier version wrote them, for n = 4
_DESCRIPTOR_FILES = [
    ("pattern = all-ones\nn = 4\n", AllOnes()),
    ("pattern = diagonal\nn = 4\n", Diagonal()),
    ("pattern = block-diagonal\nn = 4\nblocks = 0,2|1,3\n", BlockDiagonal(((0, 2), (1, 3)))),
    ("pattern = sparse\nn = 4\nt = 2\nzero_sets = 1||0,3|2\n", Sparse(((1,), (), (0, 3), (2,)), 2)),
    (
        "pattern = block-sparse\nn = 4\nt = 1\nrow_blocks = 0,1|2,3\ncol_blocks = 0|1,2,3\n"
        "block_zero_sets = 1|0\n",
        BlockSparse(((0, 1), (2, 3)), ((0,), (1, 2, 3)), ((1,), (0,)), 1),
    ),
    ("pattern = toeplitz-mod-p\nn = 4\np = 2\n", ToeplitzModP(2)),
    ("pattern = banded\nn = 4\np = 2\n", Banded(2)),
    ("pattern = banded-2d\nn = 4\np = 2\n", Banded2D(2)),
    ("pattern = monotone\nn = 4\nprefix_lengths = 0,4,2,1\n", Monotone((0, 4, 2, 1))),
]


@pytest.mark.parametrize(
    "text,pattern", _DESCRIPTOR_FILES, ids=[p.tag for _, p in _DESCRIPTOR_FILES]
)
def test_existing_descriptor_files_load(tmp_path, text, pattern):
    path = tmp_path / "w.mask"
    path.write_text(text)
    W = read_mask_descriptor(path)
    assert W.pattern == pattern
    assert np.array_equal(W.bitmap, make_mask(pattern, 4).bitmap)
    write_mask_descriptor(path, W)
    assert path.read_text() == text


def test_explicit_mask_has_no_descriptor(tmp_path):
    W = make_mask(Explicit(np.ones((2, 2), np.uint8)), 2)
    with pytest.raises(ParameterError):
        write_mask_descriptor(tmp_path / "x.mask", W)


def test_load_mask_sniffs_format(tmp_path):
    W = make_mask(Banded(2), 8)
    d = tmp_path / "w.mask"
    b = tmp_path / "w.mlrb"
    write_mask_descriptor(d, W)
    write_bitmap(b, W.bitmap)
    assert np.array_equal(load_mask(d).bitmap, W.bitmap)
    assert np.array_equal(load_mask(b).bitmap, W.bitmap)


def test_load_mask_holds_one_read_only_bitmap(tmp_path):
    # 1.02 traced bytes per cell at n = 2048, the file's bytes, which the
    # bitmap views; 4.0 with a second read, a copy and a 0/1 check through
    # bool temporaries of the grid's size
    n = 2048
    path = tmp_path / "w.mlrb"
    write_bitmap(path, np.random.default_rng(0).integers(0, 2, size=(n, n), dtype=np.uint8))
    tracemalloc.start()
    try:
        W = load_mask(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W.bitmap is W.pattern.cells and not W.bitmap.flags.writeable
    assert peak < 1.25 * n * n


@pytest.mark.parametrize("grid, error", [
    (np.array([[0, 2], [1, 0]], dtype=np.uint8), ParameterError),
    (np.ones((2, 3), dtype=np.uint8), ShapeError),
    (np.ones((0, 0), dtype=np.uint8), ParameterError),
])
def test_load_mask_checks_a_bitmap(tmp_path, grid, error):
    path = tmp_path / "w.mlrb"
    path.write_bytes(b"MLRB1" + struct.pack("<2Q", *grid.shape) + grid.tobytes())
    with pytest.raises(error):
        load_mask(path)


def test_parse_kv():
    text = "# comment\nalpha = 1\n\nbeta=two words\n"
    assert parse_kv(text) == {"alpha": "1", "beta": "two words"}


def test_partition_round_trip(tmp_path):
    P = sample_partition(equality_hash(8, 0.5), seed=4)
    p = tmp_path / "part.txt"
    write_partition(p, P)
    back = read_partition(p)
    assert back.n == P.n and back.one_count == P.one_count
    assert back.source == P.source
    assert len(back.rectangles) == len(P.rectangles)
    for r1, r2 in zip(P.rectangles, back.rectangles):
        assert r1.label == r2.label
        assert tuple(r1.row_set) == tuple(r2.row_set)
        assert tuple(r1.col_set) == tuple(r2.col_set)


@pytest.mark.parametrize("spec", [banded2d_gt(64, 2, 0.25), neq3_multiparty(16, 0.5)],
                         ids=lambda s: s.family)
def test_partition_dump_round_trip_is_byte_identical(tmp_path, spec):
    """write, read, write again: the same bytes, and the read partition
    holds the drawn one's arrays."""
    P = sample_partition(spec, seed=3)
    first, second = tmp_path / "a.part", tmp_path / "b.part"
    write_partition(first, P)
    back = read_partition(first)
    write_partition(second, back)
    assert first.read_bytes() == second.read_bytes()
    assert (back.n, back.order, back.source, back.one_count) == (P.n, P.order, P.source, P.one_count)
    assert np.array_equal(back.boxes.labels, P.boxes.labels)
    for a in range(P.order):
        assert back.boxes.index[a].dtype == np.int64
        assert np.array_equal(back.boxes.offsets[a], P.boxes.offsets[a])
        assert np.array_equal(back.boxes.index[a], P.boxes.index[a])


def _arrays(P):
    return P.boxes.labels, P.boxes.offsets, P.boxes.index


def _same_boxes(got, want):
    labels, offsets, index = got
    assert labels.dtype == want[0].dtype and np.array_equal(labels, want[0])
    for a in range(len(offsets)):
        assert offsets[a].dtype == index[a].dtype == np.int64
        assert np.array_equal(offsets[a], want[1][a])
        assert np.array_equal(index[a], want[2][a])


@pytest.mark.parametrize("spec", [banded_gt(40, 3, 0.25), banded2d_gt(36, 2, 0.5),
                                  equality_hash(30, 0.25), neq3_multiparty(9, 0.5)],
                         ids=lambda s: s.family)
def test_one_pass_dump_read_matches_the_line_read(tmp_path, spec):
    """A dump as written reads in one pass to the line-by-line read's
    arrays. With a blank line, a label written 01, an index written +0 or
    an empty index entry it is left to the line-by-line read, which reads
    the first three as before and names the line of the fourth."""
    P = sample_partition(spec, seed=2)
    path = tmp_path / "a.part"
    write_partition(path, P)
    lines = path.read_text().splitlines()
    body = lines[1:]
    want = (P.boxes.labels, P.boxes.offsets, P.boxes.index)
    _same_boxes(io._canonical_body(body, P.order), want)
    _same_boxes(io._body_by_line(body, P.order), want)
    one = next(i for i, line in enumerate(body) if line.startswith("1\t"))
    zero = next(i for i, line in enumerate(body) if "\t0," in line or "\t0\t" in line
                or line.endswith("\t0"))
    for i, edit in ((len(body) // 2, lambda line: line + "\n"),
                    (one, lambda line: "0" + line),
                    (zero, lambda line: line.replace("\t0", "\t+0", 1))):
        edited = list(body)
        edited[i] = edit(edited[i])
        text = "\n".join([lines[0]] + edited) + "\n"
        assert io._canonical_body(text.splitlines()[1:], P.order) is None
        path.write_text(text)
        _same_boxes(_arrays(read_partition(path)), want)
    edited = list(body)
    edited[one] = edited[one].replace(",", ",,", 1) if "," in edited[one] else edited[one] + ","
    path.write_text("\n".join([lines[0]] + edited) + "\n")
    with pytest.raises(ParameterError, match=f"line {one + 2}"):
        read_partition(path)


@pytest.mark.parametrize("rows, cols", [("00,01", "0,1"), ("+0, 1", " 0,0_1")],
                         ids=["plain", "as-int-reads"])
def test_partition_dump_reads_index_sets_as_int_does(tmp_path, rows, cols):
    path = tmp_path / "part.txt"
    path.write_text(f"# n=2\trectangles=1\tone_count=1\n1\t{rows}\t{cols}\n")
    P = read_partition(path)
    assert [r.row_set.tolist() for r in P.rectangles] == [[0, 1]]
    assert [r.col_set.tolist() for r in P.rectangles] == [[0, 1]]


def test_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(13)
    A = rng.standard_normal((4, 4))
    p1, p2 = tmp_path / "a1.mlra", tmp_path / "a2.mlra"
    write_matrix(p1, A)
    write_matrix(p2, A)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("text", [
    "pattern = diagonal\nn = x\n",
    "pattern = toeplitz-mod-p\nn = 8\np = two\n",
    "pattern = sparse\nn = 2\nt = 1\nzero_sets = 0|a\n",
    "pattern = block-diagonal\nn = 4\nblocks = 0,1|2,3.5\n",
])
def test_malformed_descriptor_raises_parameter_error(tmp_path, capsys, text):
    path = tmp_path / "W.mask"
    path.write_text(text)
    with pytest.raises(ParameterError, match="malformed"):
        read_mask_descriptor(path)
    write_matrix(tmp_path / "A.mlra", np.ones((2, 2)))
    assert main(["solve", str(tmp_path / "A.mlra"), str(path), "--k", "1"]) == 2
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("body", ["x\t0,1\t0,1", "1\t0,a\t0,1", "1\t0,1", "1", "1\t0\t1\t2\t3"])
def test_malformed_partition_dump_raises_parameter_error(tmp_path, body):
    path = tmp_path / "part.txt"
    path.write_text(f"# source=test\tn=2\torder=2\trectangles=2\tone_count=1\n1\t0\t1\n{body}\n")
    with pytest.raises(ParameterError, match="line 3"):
        read_partition(path)
    path.write_text("# n=two\n1\t0\t1\n")
    with pytest.raises(ParameterError, match="malformed n"):
        read_partition(path)


@pytest.mark.parametrize("text, match", [
    ("# source=test\torder=2\n1\t0\t1\n", "missing n"),
    ("# n=2\n1\t0,5\t1\n", "outside 0..1"),
    ("# n=2\n0\t0\t1\n1\t-1\t1\n", "outside 0..1"),
    ("# n=2\n1\t0,99999999999999999999\t0,1\n", "outside 0..1"),
    ("# n=2\torder=3\n1\t0\t1\t2\n", "outside 0..1"),
    ("# n=2\n2\t0\t1\n", "line 2: label 2 is not 0 or 1"),
    ("# n=2\torder=3\n1\t0,1\t0,1\n", "line 2: expected 4 fields"),
    ("# n=2\torder=2\n1\t0,1\t0,1\t0\n", "line 2: expected 3 fields"),
    ("# n=2\torder=1\n1\t0,1\n", "order 1 is not 2 or 3"),
    ("1\t0\t1\n", "missing its header line"),
    # header counts that disagree with rectangles which do tile the grid
    ("# n=1\trectangles=2\n1\t0\t0\n", "header says rectangles=2, read 1"),
    ("# n=1\tone_count=0\n1\t0\t0\n", "header says one_count=0, read 1"),
    # a gap, and an order-3 dump that covers one slice of the cube
    ("# n=2\torder=2\trectangles=1\tone_count=1\n1\t0\t0,1\n", r"covers 2 cells, not 2\^2"),
    ("# n=2\torder=3\n1\t0,1\t0,1\t0\n", r"covers 4 cells, not 2\^3"),
])
def test_bad_partition_dump_is_a_parameter_error(tmp_path, text, match):
    path = tmp_path / "part.txt"
    path.write_text(text)
    with pytest.raises(ParameterError, match=match):
        read_partition(path)


def test_overlapping_partition_dump_is_a_parameter_error(tmp_path):
    # two overlapping rectangles under a header whose counts match neither
    path = tmp_path / "part.txt"
    path.write_text("# n=2\torder=2\trectangles=5\tone_count=3\n1\t0,1\t0,1\n0\t0\t0\n")
    with pytest.raises(ParameterError, match="covers 5 cells"):
        read_partition(path)


def _reading(content, read):
    """Write content (bytes or text) to a path, then read it back with read."""
    def call(path):
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        return read(path)
    return call


@pytest.mark.parametrize("call, match", [
    (lambda path: write_matrix(path, np.ones(3)), "stores 2-d arrays"),
    (lambda path: write_tensor(path, np.ones((2, 2))), "stores 3-d arrays"),
    (_reading(b"MLRA1\x01\x00", read_matrix), "header truncated"),
    (_reading(b"MLRT1" + bytes(16), read_tensor), "header truncated"),
    (_reading("pattern diagonal\n", read_mask_descriptor), "line 1: expected 'key = value'"),
    (_reading("n = 4\n", read_mask_descriptor), "descriptor missing 'pattern'"),
    (_reading("pattern = diagonal\n", read_mask_descriptor), "descriptor missing 'n'"),
    (_reading("pattern = spiral\nn = 4\n", read_mask_descriptor), "unknown pattern tag"),
    (_reading("pattern = banded\nn = 4\n", read_mask_descriptor), "descriptor missing 'p'"),
    (_reading("pattern = explicit\nn = 2\n", load_mask), "serialize as MLRB1 bitmaps"),
])
def test_bad_descriptor_or_binary_file_is_a_parameter_error(tmp_path, call, match):
    with pytest.raises(ParameterError, match=match):
        call(tmp_path / "file")
