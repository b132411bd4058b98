"""Command-line surface: file round-trips, bound checks, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maskedlra.cli import main
from maskedlra.harness import COLUMNS, run_suite
from maskedlra.io import load_mask, read_matrix, read_tensor
from maskedlra.linalg import zero_factor


def _keys(out: str) -> list:
    return [line.split(" = ")[0] for line in out.splitlines() if " = " in line]


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


def test_gen_boolean_uses_the_boolean_default(tmp_path, capsys):
    out = tmp_path / "b"
    rc = main(["gen", "--domain", "boolean", "--pattern", "diagonal", "--n", "8",
               "--k", "1", "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    meta = (out / "instance.txt").read_text().splitlines()
    assert "corruption_scale = 0.25" in meta


def test_gen_tensor3_sparse_faces_round_trips(tmp_path):
    out = tmp_path / "t"
    rc = main(["gen", "--domain", "tensor3", "--pattern", "sparse-faces",
               "--n", "6", "--k", "1", "--out", str(out)])
    assert rc == 0
    A = read_tensor(out / "A.mlrt")
    W = read_tensor(out / "W.mlrt")
    Ls = read_tensor(out / "Lstar.mlrt")
    assert A.shape == W.shape == Ls.shape == (6, 6, 6)
    assert set(np.unique(W)) == {0.0, 1.0}
    # planted: exact on the support, corrupted only off it
    assert np.array_equal(A * W, Ls * W)
    assert "pattern = sparse-faces" in (out / "instance.txt").read_text()


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
    assert "method" not in text
    assert "svd_driver = syevd" in text.splitlines()
    L = read_matrix(tmp_path / "L.mlra")
    assert L.shape == (16, 16)
    assert np.linalg.matrix_rank(L) <= 8


def test_solve_at_full_rank_runs_no_svd(tmp_path, capsys):
    out = tmp_path / "inst"
    main(["gen", "--pattern", "banded", "--p", "2", "--n", "32", "--k", "2",
          "--out", str(out)])
    capsys.readouterr()
    rc = main(["solve", str(out / "A.mlra"), str(out / "W.mask"), "--k", "2", "--kprime", "32"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "svd_driver = none" in lines
    assert "masked cost = 0.0" in lines


def test_solve_has_no_seed_flag(tmp_path, capsys):
    # the exact solve is deterministic, so there is no seed to pass
    out = tmp_path / "inst"
    main(["gen", "--pattern", "diagonal", "--n", "8", "--k", "2", "--out", str(out)])
    with pytest.raises(SystemExit) as stop:
        main(["solve", str(out / "A.mlra"), str(out / "W.mask"), "--k", "2", "--seed", "0"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


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


@pytest.mark.parametrize("route, diagnostics", [("t1", []), ("a2", ["t"])])
def test_verify_prints_columns_route_and_diagnostics(capsys, route, diagnostics):
    assert main(["verify", "--theorem", route, "--n", "32"]) == 0
    out = capsys.readouterr().out
    assert _keys(out) == [*COLUMNS, "route", *diagnostics]
    assert out.splitlines()[-1] == "PASS"


def test_verify_exits_one_on_a_failed_bound(capsys, monkeypatch):
    # planted instances pass, so the fit is replaced by the zero factor: t3's
    # exact eq-mod-p spec charges no eps1 term, so rhs = opt_upper = 0 < cost
    monkeypatch.setattr("maskedlra.solver.masked_lra", lambda A, W, k: zero_factor(*A.shape))
    assert main(["verify", "--theorem", "t3", "--n", "32"]) == 1
    out = capsys.readouterr().out
    assert "rhs = 0.0\n" in out
    assert out.splitlines()[-1] == "FAIL"


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
        ("sparse-set-eq", []),
        ("banded-gt", []),
        ("monotone-gt", []),
        ("banded2d-gt", ["--n", "16"]),
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


def test_tensor_prints_the_certificate(capsys):
    assert main(["tensor", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert _keys(out) == [*COLUMNS, "route", "comparator_cost"]
    assert "route = tensor" in out.splitlines()


def test_tensor_tiny_eps_with_noise_exits_one(capsys):
    rc = main(["tensor", "--n", "8", "--eps", "0.0001", "--noise-sigma", "0.5"])
    out = capsys.readouterr().out
    assert rc == 1, out
    assert "satisfied = false" in out.splitlines()
    assert out.splitlines()[-1] == "FAIL"


def test_tensor_zero_iters_exits_two(capsys):
    assert main(["tensor", "--n", "8", "--iters", "0"]) == 2
    assert "iters=0" in capsys.readouterr().err


def test_boolean_route(capsys):
    rc = main(["boolean", "--cover", "neq-bits", "--n", "4", "--k", "1",
               "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "PASS" in out
    assert _keys(out) == [*COLUMNS, "route", "note"]
    assert "note = cover neq-bits; opt_upper from the exhaustive search" in out.splitlines()


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


@pytest.mark.parametrize("p, printed", [
    ("16", "delta = 0.25"),  # hashed: 4 buckets beat 16 residues
    ("4", "delta = 0.0"),  # deterministic: 4 residues
])
def test_protocol_stats_eq_mod_p_reads_delta(capsys, p, printed):
    rc = main(["protocol-stats", "--family", "eq-mod-p", "--n", "32", "--p", p,
               "--delta", "0.25", "--trials", "2000"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert out.splitlines()[2].endswith(printed)


def test_protocol_stats_eq_mod_p_rejects_zero_delta(capsys):
    rc = main(["protocol-stats", "--family", "eq-mod-p", "--n", "16", "--delta", "0"])
    assert rc == 2
    assert "delta=0.0 outside (0, 1]" in capsys.readouterr().err


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


@pytest.mark.parametrize("key", ["routes", "sizes", "eps", "seeds"])
def test_report_refuses_a_sweep_that_runs_no_cell(tmp_path, capsys, key):
    keys = {"routes": "t1", "sizes": "16", "eps": "0.5", "seeds": "0", key: ""}
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = tmp_path / "rows.csv"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 2
    assert "runs no cell" in capsys.readouterr().err
    assert not out.exists()


def test_t2_stats_at_t0_count_the_one_bucket_the_certificate_budgets(capsys):
    # k' = k * max(1, ceil(t / eps)) = k at t = 0: one bucket, not ceil(1 / eps)
    report = run_suite({"routes": "t2", "sizes": "16,32", "eps": "0.25,0.5",
                        "seeds": "0,1", "t": 0, "stats_trials": 100})
    assert len(report.rows) == len(report.protocol_stats) == 8
    for row, stats in zip(report.rows, report.protocol_stats):
        assert (stats["n"], 2 * stats["delta"], stats["seed"]) == (row["n"], row["eps1"], row["seed"])
        assert stats["one_count"] * row["k"] == row["k_prime"] == row["k"]
    assert main(["protocol-stats", "--family", "sparse-set-eq", "--t", "0", "--n", "64"]) == 0
    assert "rectangles = 1  one_count = 1  cap = 2\n" in capsys.readouterr().out


def test_report_reads_a_config_path_that_holds_an_equals_sign(tmp_path, capsys):
    text = "routes = t1\nsizes = 16\neps = 0.5\nk = 1\n"
    plain, odd = tmp_path / "sweep.cfg", tmp_path / "cfg=1" / "sweep.cfg"
    odd.parent.mkdir()
    plain.write_text(text)
    odd.write_text(text)
    for cfg in (plain, odd):
        rc = main(["report", "--config", str(cfg), "--out", str(cfg.with_suffix(".csv"))])
        assert rc == 0, capsys.readouterr().err
    assert odd.with_suffix(".csv").read_text() == plain.with_suffix(".csv").read_text()
    assert main(["report", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "r.csv")]) == 2


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


def test_boolean_route_takes_opt_upper_from_the_planted_factor_above_the_search_cap(capsys):
    # 2 * n * k = 32 bits exceeds the exhaustive search cap of 24
    from maskedlra import Diagonal, gen_planted

    rc = main(["boolean", "--cover", "neq-bits", "--n", "16", "--k", "1",
               "--noise-sigma", "0.1", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0, out
    inst = gen_planted("boolean", Diagonal(), 16, 1, noise_sigma=0.1, seed=3)
    assert inst.opt_upper > 0
    assert f"opt_upper = {int(inst.opt_upper)}\n" in out
    assert "note = cover neq-bits; opt_upper from the planted factor" in out


_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import maskedlra
from maskedlra.cli import main
from maskedlra.linalg import _SVDS_MIN_DIM, svd_truncated

assert not scipy_modules(), ("import maskedlra", scipy_modules())
for argv in (
    ["gen", "--pattern", "banded", "--n", "32", "--out", sys.argv[1]],
    ["protocol-stats", "--family", "banded-gt", "--n", "32"],
    ["tensor", "--n", "8"],
    ["boolean", "--cover", "neq-bits", "--n", "4", "--k", "1"],
    ["verify", "--theorem", "t4", "--n", "64"],
    ["verify", "--theorem", "a2", "--n", "64"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
A = np.random.default_rng(0).standard_normal((128, 128))
assert svd_truncated(A, 8).meta["svd_driver"] == "syevd"
assert not scipy_modules(), ("syevd", scipy_modules())
A = np.random.default_rng(0).standard_normal((_SVDS_MIN_DIM, _SVDS_MIN_DIM))
assert svd_truncated(A, 8).meta["svd_driver"] == "svds"
assert "scipy.sparse.linalg" in sys.modules
"""


def test_scipy_loads_only_with_an_arpack_or_gesvd_fit(tmp_path):
    # scipy links a second BLAS runtime; numpy's suffices until svds or the
    # gesvd fallback runs, and both import scipy on their first call
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path / "m")],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
