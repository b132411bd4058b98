"""Planted generators, sweep orchestration, and report serialization."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maskedlra import (
    AllOnes,
    Diagonal,
    Diagonal3,
    ParameterError,
    bool_cost,
    bool_product,
    emit,
    gen_planted,
    masked_cost,
    rank_budget,
    run_suite,
    verify_bicriteria,
)
from maskedlra import harness, protocols
from maskedlra.cli import main
from maskedlra.harness import COLUMNS, load_rows, parse_config, sparse_pattern


def test_planted_diagonal_exact_on_support():
    inst = gen_planted("matrix", Diagonal(), 16, 2, seed=0)
    assert inst.opt_upper == 0.0
    # off the mask the corruption shows, on the mask A equals the plant
    on = inst.W.bitmap.astype(bool)
    assert np.array_equal(inst.A[on], inst.L_star.value()[on])
    assert not np.array_equal(inst.A[~on], inst.L_star.value()[~on])


def test_planted_all_ones_is_exact_everywhere():
    inst = gen_planted("matrix", AllOnes(), 12, 2, seed=1)
    assert np.array_equal(inst.A, inst.L_star.value())
    assert inst.opt_upper == 0.0


def test_planted_opt_upper_recomputes():
    inst = gen_planted("matrix", Diagonal(), 20, 2, noise_sigma=0.1, seed=2)
    # the plant's own value, not a second product, gives the same bits
    assert inst.opt_upper == masked_cost(inst.A, inst.W, inst.L_star)
    assert inst.opt_upper > 0.0  # noise on the support is visible


def test_planted_tensor_opt_upper_recomputes():
    inst = gen_planted("tensor3", Diagonal3(), 8, 1, noise_sigma=0.05, seed=3)
    assert inst.opt_upper == masked_cost(inst.A, inst.W, inst.L_star)


def test_planted_boolean_opt_upper():
    from maskedlra import BlockDiagonal

    pattern = BlockDiagonal(blocks=((0, 1), (2, 3)))
    inst = gen_planted("boolean", pattern, 4, 1, corruption_scale=0.4, seed=4)
    base = bool_product(inst.L_star.U, inst.L_star.V)
    assert inst.opt_upper == bool_cost(inst.A, base, inst.W)
    # flips live only on the masked zeros when there is no support noise
    on = inst.W.bitmap.astype(bool)
    assert np.array_equal(inst.A[on], base[on])


def test_planted_default_corruption_per_domain():
    # a Boolean scale is a flip probability, so the real domains' 5.0 cannot be its default
    inst = gen_planted("boolean", Diagonal(), 8, 1, seed=0)
    assert inst.corruption_scale == harness.BOOLEAN_CORRUPTION == 0.25
    assert gen_planted("matrix", Diagonal(), 8, 1).corruption_scale == harness.DEFAULT_CORRUPTION
    assert gen_planted("tensor3", Diagonal3(), 4, 1).corruption_scale == harness.DEFAULT_CORRUPTION


def test_planted_seed_determinism():
    a = gen_planted("matrix", Diagonal(), 16, 2, seed=9)
    b = gen_planted("matrix", Diagonal(), 16, 2, seed=9)
    assert np.array_equal(a.A, b.A)
    c = gen_planted("matrix", Diagonal(), 16, 2, seed=10)
    assert not np.array_equal(a.A, c.A)


_PLANT_DIGEST_SCRIPT = """
import hashlib
from maskedlra import Diagonal, gen_planted
inst = gen_planted("matrix", Diagonal(), 512, 2, seed=0)
print(hashlib.sha256(inst.A.tobytes()).hexdigest(), inst.opt_upper.hex())
"""


def test_planted_instance_is_the_same_on_any_blas_thread_count():
    # at n = 512 a BLAS dot runs threaded, and np.linalg.norm's split sum
    # gave A other last bits on two threads than on one
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    seen = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _PLANT_DIGEST_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        seen.add(proc.stdout)
    assert len(seen) == 1, seen


def test_planted_rejects_unknown_domain():
    with pytest.raises(ParameterError):
        gen_planted("complex", Diagonal(), 8, 1)


def test_parse_config_defaults_and_overrides():
    cfg = parse_config({})
    assert cfg["routes"] == ("t1",)
    assert cfg["eps"] == (0.1, 0.25, 0.5)
    cfg = parse_config("routes = t1,t3\nsizes = 16\neps = 0.5\n")
    assert cfg["routes"] == ("t1", "t3")
    assert cfg["sizes"] == (16,)


def test_parse_config_reads_text_never_a_path(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("sizes = 16\n")
    with pytest.raises(ParameterError, match="line 1: expected 'key = value'"):
        parse_config(str(path))


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ParameterError):
        parse_config({"sizzes": "16"})
    with pytest.raises(ParameterError):
        parse_config({"routes": "t9"})


def test_empty_sweep_empty_report():
    rep = run_suite({"routes": "", "sizes": "16"})
    assert rep.rows == []
    assert rep.all_satisfied  # vacuous


def test_single_cell_matches_direct_verify():
    cfg = {"routes": "t1", "sizes": "32", "eps": "0.25", "seeds": "3", "k": "2"}
    rep = run_suite(cfg)
    assert len(rep.rows) == 1
    row = rep.rows[0]
    inst = gen_planted("matrix", Diagonal(), 32, 2, seed=3)
    direct = verify_bicriteria(inst.A, inst.W, 2, 0.25, opt_upper=inst.opt_upper, seed=3)
    assert row["cost"] == direct.cost
    assert row["rhs"] == direct.rhs
    assert row["k_prime"] == direct.k_prime
    assert row["satisfied"] is True


def test_failed_cell_recorded_not_raised():
    # t = n forces the sparse generator into an impossible draw
    rep = run_suite({"routes": "t2", "sizes": "4", "t": "8", "eps": "0.5"})
    assert len(rep.rows) == 1
    row = rep.rows[0]
    assert row["satisfied"] is False
    assert "note" in row and row["note"]


def test_failed_cell_names_the_pattern_of_its_route():
    # n = 4 fails (t > n), n = 16 is satisfied; both rows carry the route's tag
    rep = run_suite({"routes": "t2", "sizes": "4,16", "t": "8", "eps": "0.5"})
    assert sorted(r["satisfied"] for r in rep.rows) == [False, True]
    assert [r["pattern"] for r in rep.rows] == ["sparse", "sparse"]


def test_programming_error_in_cell_raises(monkeypatch):
    # only package errors become rows; a bug must not hide in a note
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(harness, "run_cell", broken)
    with pytest.raises(TypeError):
        run_suite({"routes": "t1", "sizes": "4", "eps": "0.5"})


def test_sweep_row_count_and_order():
    cfg = {"routes": "t1", "sizes": "16,32", "eps": "0.25,0.5", "seeds": "0,1", "k": "1"}
    rep = run_suite(cfg)
    assert len(rep.rows) == 8
    keys = [(r["pattern"], r["n"], r["eps1"], r["seed"]) for r in rep.rows]
    assert keys == sorted(keys)


def test_emit_csv_round_trip(tmp_path):
    cfg = {"routes": "t1", "sizes": "16", "eps": "0.5", "seeds": "0,1", "k": "1"}
    rep = run_suite(cfg)
    path = tmp_path / "rows.csv"
    emit(rep, "csv", path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(COLUMNS)
    back = load_rows(str(path))
    assert len(back) == len(rep.rows)
    for a, b in zip(rep.rows, back):
        for col in COLUMNS:
            assert a[col] == b[col], col


_HEADER = ",".join(COLUMNS)
_ROW = "diagonal,16,1,4,0.5,0,0,0,0.1,0,0.1,true"


@pytest.mark.parametrize("text", [
    f"{_HEADER}\n{_ROW.replace('diagonal,16', 'diagonal,x')}\n",
    f"{_HEADER}\nbanded,4\n",
    f"{_HEADER}\n{_ROW},extra\n",
    f"{_HEADER}\n{_ROW.replace('true', 'yes')}\n",
    "",
    '{"rows": [',
    '{"protocol_stats": []}',
], ids=["bad-number", "short-line", "long-line", "bad-bool", "empty",
        "truncated-json", "json-without-rows"])
def test_load_rows_rejects_malformed_reports(tmp_path, text):
    path = tmp_path / "rows.txt"
    path.write_text(text)
    with pytest.raises(ParameterError):
        load_rows(str(path))


def test_emit_json_round_trip(tmp_path):
    cfg = {
        "routes": "t1", "sizes": "16", "eps": "0.5", "seeds": "0",
        "k": "1", "stats_trials": "2000",
    }
    rep = run_suite(cfg)
    path = tmp_path / "rows.json"
    emit(rep, "json", path)
    doc = json.loads(path.read_text())
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["satisfied"] is True
    assert len(doc["protocol_stats"]) == 1
    stat = doc["protocol_stats"][0]
    assert stat["family"] == "equality-hash"
    assert stat["rectangles"] <= stat["cap"]
    assert stat["err_on_zeros"] == 0.0  # one-sided family


def test_emit_bitwise_deterministic(tmp_path):
    cfg = {"routes": "t1,t3", "sizes": "16", "eps": "0.25", "seeds": "0"}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(run_suite(cfg), "csv", p1)
    emit(run_suite(cfg), "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_surfaces_path_on_io_error(tmp_path):
    from maskedlra import ResourceError

    rep = run_suite({"routes": "t1", "sizes": "16", "eps": "0.5"})
    bad = tmp_path / "missing" / "rows.csv"
    with pytest.raises(ResourceError) as err:
        emit(rep, "csv", bad)
    assert "rows.csv" in str(err.value)


def test_all_routes_one_small_cell_each():
    cfg = {
        "routes": "t1,t2,t3,t4,a2",
        "sizes": "32",
        "eps": "0.25",
        "seeds": "0",
        "k": "1",
        "t": "2",
        "p": "2",
    }
    rep = run_suite(cfg)
    assert len(rep.rows) == 5
    assert rep.all_satisfied, [r for r in rep.rows if not r["satisfied"]]


def test_sparse_pattern_is_deterministic():
    a = sparse_pattern(12, 3, seed=5)
    b = sparse_pattern(12, 3, seed=5)
    assert a == b
    assert all(len(z) == 3 for z in a.zero_sets)


def test_parse_config_rejects_negative_stats_trials():
    assert parse_config({"stats_trials": "0"})["stats_trials"] == 0
    with pytest.raises(ParameterError, match="stats_trials=-1"):
        parse_config({"stats_trials": "-1"})


@pytest.mark.parametrize("key, value", [
    ("sizes", "3x"), ("eps", "0.5,a"), ("seeds", "0.5"), ("k", "two"),
    ("noise_sigma", "none"), ("stats_trials", "1e3"),
])
def test_malformed_config_value_raises_parameter_error(tmp_path, capsys, key, value):
    with pytest.raises(ParameterError, match="bad config value"):
        parse_config({key: value})
    path = tmp_path / "sweep.cfg"
    path.write_text(f"routes = t1\n{key} = {value}\n")
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    assert "bad config value" in capsys.readouterr().err


def test_sweep_has_no_solver_method_key():
    # every certificate uses the exact solve
    with pytest.raises(ParameterError, match="unknown config key"):
        parse_config({"method": "randomized"})


def test_failed_cell_with_stats_recorded_without_stats_row():
    rep = run_suite({"routes": "t2", "sizes": "4", "t": "8", "stats_trials": "10"})
    assert [r["satisfied"] for r in rep.rows] == [False] * 3
    assert all(r["note"] for r in rep.rows)
    assert rep.protocol_stats == []


@pytest.mark.parametrize("route", ["t1", "t2", "t3", "t4"])
def test_stats_row_counts_the_one_partition_its_cell_draws(monkeypatch, route):
    calls = []
    draw = protocols.sample_partition

    def counted(*args, **kwargs):
        calls.append(draw(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(protocols, "sample_partition", counted)
    rep = run_suite({"routes": route, "sizes": "16", "eps": "0.25", "stats_trials": "100"})
    assert len(calls) == 1
    (stat,) = rep.protocol_stats
    assert stat["rectangles"] == len(calls[0].rectangles)
    assert stat["one_count"] == calls[0].one_count


def test_patterned_certificates_and_a_statless_sweep_draw_no_partition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a partition was drawn")

    monkeypatch.setattr(protocols, "sample_partition", refuse)
    n, k, eps = 16, 2, 0.25
    for tag in ("diagonal", "sparse", "toeplitz-mod-p", "banded", "monotone", "banded-2d"):
        pattern = harness.make_pattern(tag, n, p=2, seed=0)
        inst = gen_planted("matrix", pattern, n, k, seed=0)
        cert = verify_bicriteria(inst.A, inst.W, k, eps, opt_upper=inst.opt_upper,
                                 L_for_eps2=inst.L_star)
        assert cert.k_prime == max(1, min(rank_budget(pattern, k, eps, n=n), n)), tag
        assert (cert.one_count, cert.rect_count) == (0, 0), tag
        assert cert.satisfied, tag
    rep = run_suite({"routes": "t1,t2,t3,t4", "sizes": str(n), "eps": str(eps),
                     "stats_trials": "0"})
    assert [r["note"] for r in rep.rows] == [""] * 4
    assert all(r["satisfied"] for r in rep.rows)
    assert rep.protocol_stats == []


# sha256 of a t1-t4 and a2 sweep, recorded before the stats rows were taken
# from the certificate's own partition draw; cost, opt_upper and rhs come from
# BLAS and are left out, so the digest does not depend on the thread count.
# "stats_without_gt_rates" leaves out banded-gt's err_on_* fields and was
# recorded before the sampled greater-than calls walked round by round, which
# moved only those rates; "protocol_stats" pins the full stats since then
GOLDEN_SWEEP = {
    "rows": "d391fca171ad1ba8e0b1bdb53adcd67598cc9740bc1574c82480380a1fffe23a",
    "stats_without_gt_rates": "d5a6484969321dda253411eef026661694f3d5d0f498fd380c37a9650fb09e1f",
    "protocol_stats": "42248af5c6fdd5110a0326ba00cd3d36a83125a35b56ce9c5205e076410a7041",
}


def test_golden_sweep():
    rep = run_suite({
        "routes": "t1,t2,t3,t4,a2", "sizes": "16,32", "eps": "0.1,0.25,0.5",
        "seeds": "0,1", "stats_trials": "2000",
    })
    assert (len(rep.rows), len(rep.protocol_stats)) == (60, 48)
    blas = ("cost", "opt_upper", "rhs")
    rows = [{c: v for c, v in r.items() if c not in blas} for r in rep.rows]
    stats = [{c: v for c, v in r.items()
              if r["family"] != "banded-gt" or not c.startswith("err_on_")}
             for r in rep.protocol_stats]
    for name, records in (("rows", rows), ("stats_without_gt_rates", stats),
                          ("protocol_stats", rep.protocol_stats)):
        h = hashlib.sha256()
        for r in records:
            h.update(json.dumps(r, sort_keys=True).encode())
        assert (name, h.hexdigest()) == (name, GOLDEN_SWEEP[name])


@pytest.mark.parametrize("domain, kwargs, match", [
    ("matrix", {"noise_sigma": -0.1}, "scales must be nonnegative"),
    ("matrix", {"corruption_scale": -1.0}, "scales must be nonnegative"),
    ("boolean", {"corruption_scale": 1.5}, "flip probabilities must be <= 1"),
    ("boolean", {"noise_sigma": 1.5}, "flip probabilities must be <= 1"),
    ("matrix", {"k": 0}, "k=0 must be positive"),
    ("tensor3", {}, "tensor3 needs an order-3 pattern"),
])
def test_bad_planted_argument_is_a_parameter_error(domain, kwargs, match):
    kwargs = {"k": 1, **kwargs}
    with pytest.raises(ParameterError, match=match):
        gen_planted(domain, Diagonal(), 4, **kwargs)


def test_json_writes_a_failed_row_nan_fields_as_null(tmp_path):
    rep = run_suite({"routes": "t2", "sizes": "4", "t": "8", "eps": "0.5"})
    path = tmp_path / "r.json"
    emit(rep, "json", path)
    (row,) = json.loads(path.read_text())["rows"]
    assert row["cost"] is None and row["opt_upper"] is None and row["rhs"] is None
    assert row["satisfied"] is False and row["note"].startswith("ParameterError")
    assert load_rows(path) == [row]
