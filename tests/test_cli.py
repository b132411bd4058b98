"""Command-line surface: file round-trips, bound checks, exit codes."""

import numpy as np
import pytest

from maskedlra.cli import main
from maskedlra.io import load_mask, read_matrix


def test_gen_writes_instance(tmp_path, capsys):
    out = tmp_path / "inst"
    rc = main([
        "gen", "--pattern", "diagonal", "--n", "16", "--k", "2",
        "--out", str(out), "--seed", "3",
    ])
    assert rc == 0
    A = read_matrix(out / "A.mlra")
    W = load_mask(out / "W.mask")
    Ls = read_matrix(out / "Lstar.mlra")
    assert A.shape == (16, 16)
    assert W.bitmap.shape == (16, 16)
    assert Ls.shape == (16, 16)
    meta = (out / "instance.txt").read_text()
    assert "opt_upper" in meta
    # exactness on the support
    on = W.bitmap.astype(bool)
    assert np.array_equal(A[on], Ls[on])


def test_gen_is_bitwise_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main([
            "gen", "--pattern", "banded", "--p", "2", "--n", "16", "--k", "1",
            "--out", str(out), "--seed", "7",
        ])
        assert rc == 0
    assert (a / "A.mlra").read_bytes() == (b / "A.mlra").read_bytes()
    assert (a / "W.mask").read_bytes() == (b / "W.mask").read_bytes()


def test_solve_round_trip(tmp_path, capsys):
    out = tmp_path / "inst"
    main(["gen", "--pattern", "diagonal", "--n", "16", "--k", "2",
          "--out", str(out), "--seed", "1"])
    rc = main([
        "solve", str(out / "A.mlra"), str(out / "W.mask"),
        "--k", "2", "--kprime", "8", "--out", str(tmp_path / "L.mlra"),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "cost" in text
    assert "svd_driver = gesdd" in text.splitlines()
    L = read_matrix(tmp_path / "L.mlra")
    assert L.shape == (16, 16)
    assert np.linalg.matrix_rank(L) <= 8


def test_verify_routes_exit_zero(capsys):
    for route, extra in (
        ("t1", []),
        ("t3", ["--p", "2"]),
        ("a2", ["--t", "2"]),
    ):
        rc = main(["verify", "--theorem", route, "--n", "32", "--k", "2",
                   "--eps", "0.25", "--seed", "0", *extra])
        out = capsys.readouterr().out
        assert rc == 0, (route, out)
        assert "PASS" in out


def test_verify_t4_reports_two_error_terms(capsys):
    rc = main(["verify", "--theorem", "t4", "--n", "64", "--k", "1",
               "--eps", "0.25", "--p", "2", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "eps2" in out


def test_protocol_stats_families(capsys):
    for family, extra in (
        ("equality-hash", []),
        ("eq-mod-p", ["--p", "4"]),
        ("greater-than", []),
        ("neq3-multiparty", []),
    ):
        rc = main(["protocol-stats", "--family", family, "--n", "32",
                   "--delta", "0.25", "--trials", "20000", "--seed", "0", *extra])
        out = capsys.readouterr().out
        assert rc == 0, (family, out)
        assert "rectangles" in out


def test_tensor_route(capsys):
    rc = main(["tensor", "--n", "8", "--k", "1", "--eps", "0.25", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "PASS" in out


def test_tensor_zero_iters_exits_two(capsys):
    assert main(["tensor", "--n", "8", "--iters", "0"]) == 2
    assert "iters=0" in capsys.readouterr().err


def test_boolean_route(capsys):
    rc = main(["boolean", "--cover", "neq-bits", "--n", "4", "--k", "1",
               "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "PASS" in out


@pytest.mark.parametrize("blocks", [[], ["--blocks", "4"]])
def test_boolean_route_neq_blocks(capsys, blocks):
    rc = main(["boolean", "--cover", "neq-blocks", "--n", "8", "--k", "1"] + blocks)
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "PASS" in out


def test_boolean_neq_blocks_zero_blocks_exits_two(capsys):
    rc = main(["boolean", "--cover", "neq-blocks", "--n", "8", "--k", "1", "--blocks", "0"])
    assert rc == 2
    assert "blocks=0" in capsys.readouterr().err


@pytest.mark.parametrize("cover, blocks", [("neq-bits", "0"), ("disj-coords", "-3")])
def test_boolean_blocks_outside_neq_blocks_exits_two(capsys, cover, blocks):
    rc = main(["boolean", "--cover", cover, "--n", "4", "--k", "1", "--blocks", blocks])
    assert rc == 2
    assert "--blocks applies only to neq-blocks" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_protocol_stats_nonpositive_trials_exit_two(capsys, trials):
    rc = main(["protocol-stats", "--family", "equality-hash", "--n", "16",
               "--trials", trials])
    assert rc == 2
    assert f"trials={trials}" in capsys.readouterr().err


def test_report_sweep(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("routes = t1,t3\nsizes = 16\neps = 0.25,0.5\nseeds = 0\nk = 1\n")
    out = tmp_path / "rows.csv"
    rc = main(["report", "--config", str(cfg), "--out", str(out), "--format", "csv"])
    text = capsys.readouterr().out
    assert rc == 0, text
    lines = out.read_text().splitlines()
    assert lines[0] == "pattern,n,k,k_prime,eps1,eps2,delta_slack,seed,cost,opt_upper,rhs,satisfied"
    assert len(lines) == 1 + 4


def test_bad_arguments_exit_two(tmp_path, capsys):
    assert main(["gen", "--pattern", "nope", "--n", "8", "--out", str(tmp_path)]) == 2
    rc = main(["solve", "/nonexistent.mlra", "/nonexistent.mask", "--k", "1"])
    assert rc == 2


def test_package_errors_exit_two(capsys):
    # ResourceError: the grid is over the enumeration cap
    rc = main(["protocol-stats", "--family", "greater-than", "--n", "5000"])
    assert rc == 2
    assert "enumeration cap" in capsys.readouterr().err
    # ParameterError from the sparse generator: more zeros per row than columns
    rc = main(["verify", "--theorem", "t2", "--n", "4", "--t", "8"])
    assert rc == 2
    assert "t=8" in capsys.readouterr().err
