"""maskedlra benchmark: runs a workload in its own process and reports metrics.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload every workload runs in turn. With --trace 0 the last line
of output is a JSON object holding the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced run. The lines above it print every
metric by name and unit, the machine, and each failed output check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("certify-large", "partitions", "sweep-small", "comparators")
# set-up time is the median over this many fresh processes
SETUP_SAMPLES = 5
# a workload invocation must finish well inside the three-minute limit
DEADLINE_S = 170.0
# case_p90_s is printed only with at least ten cases beyond the percentile
P90_MIN_CASES = 100


def _args():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


class BenchError(RuntimeError):
    """A workload process failed or printed no record."""


def _worker(name: str, args, mode: str, threads: int, tmp: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--threads", str(threads), "--tmp", tmp,
    ]
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError(f"{name}: no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: {mode} process ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: {mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def _unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


def _show(metric: str, value, detail: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {metric:<48} {shown:>14} {_unit(metric):<5} {detail}".rstrip())


def _show_failures(rec: dict) -> None:
    for case, note in rec["failures"]:
        print(f"  FAILED {case}: {note}")


def _show_frac(metric: str, part: int, whole: int, what: str) -> None:
    print(f"  {metric:<48} {part / whole:>14.6g} 1     ({part} of {whole} {what})")


def _certificates(rec: dict) -> None:
    certs = rec["certs"]
    if not certs:
        return
    vacuous = sum(1 for c in certs if c[2])
    _show_frac("vacuous_frac", vacuous, len(certs), "certificates at full rank")
    ratios = [cost / rhs for cost, rhs, vac in certs
              if not vac and rhs > 0 and math.isfinite(cost)]
    p50 = f"{statistics.median(ratios):>14.6g}" if ratios else f"{'n/a':>14}"
    print(f"  {'cost_over_rhs_p50':<48} {p50} 1     "
          f"(median over {len(ratios)} non-vacuous certificates)")


def end_to_end(name: str, args, tmp: str, deadline: float):
    nproc = len(os.sched_getaffinity(0))
    probes = [_worker(name, args, "setup", nproc, tmp, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    rec = _worker(name, args, "run", nproc, tmp, deadline)
    setup = probes + [rec["setup_s"]]
    # each case's median over the passes, so one slow pass moves nothing
    cases = [statistics.median(ts) for ts in zip(*rec["passes"])]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(cases),
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    passes = f"{len(rec['passes'])} passes"
    print(f"machine {json.dumps(rec['machine'])}")
    _show("setup_s", metrics["setup_s"], f"(median of {len(setup)} set-ups)")
    _show("wall_s", metrics["wall_s"], f"(sum over {len(cases)} cases of their median over {passes})")
    _show("case_p50_s", statistics.median(cases), f"({len(cases)} cases)")
    if len(cases) >= P90_MIN_CASES:
        _show("case_p90_s", statistics.quantiles(cases, n=10)[-1], f"({len(cases)} cases)")
    _show("peak_rss_mb", metrics["peak_rss_mb"])
    _show_frac("failed_frac", rec["failed"], rec["attempted"], "cases")
    _certificates(rec)
    _show_failures(rec)
    return metrics, rec["attempted"], rec["failed"], []


def traced(name: str, args, tmp: str, deadline: float):
    nproc = len(os.sched_getaffinity(0))
    rec = _worker(name, args, "trace", nproc, tmp, deadline)
    metrics = dict(rec["layers"])
    metrics["trace_overhead_s"] = rec["trace_overhead_s"]
    attempted, failed = rec["attempted"], rec["failed"]
    metrics["tensor.cp_als_1t_s"] = 0.0
    if name == "comparators":
        one = _worker(name, args, "trace-once", 1, tmp, deadline)
        metrics["tensor.cp_als_1t_s"] = one["layers"]["tensor.cp_als_s"]
        attempted, failed = attempted + one["attempted"], failed + one["failed"]
        rec["failures"] += one["failures"]
    print(f"machine {json.dumps(rec['machine'])}")
    for metric, value in metrics.items():
        _show(metric, value)
    _show_frac("failed_frac", failed, attempted, "cases")
    _show_failures(rec)
    for line in rec["drift"]:
        print(f"  BENCHMARK DEFECT: count drifted between two traced passes: {line}")
    return metrics, attempted, failed, rec["drift"]


def run_one(name: str, args) -> dict:
    print(f"workload {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    deadline = perf_counter() + DEADLINE_S
    work_dir = ROOT / ".perfbench_tmp"
    work_dir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=work_dir)
    try:
        fn = traced if args.trace else end_to_end
        metrics, attempted, failed, drift = fn(name, args, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work_dir.rmdir()
        except OSError:  # another run still uses it
            pass
    return {
        "correct": failed == 0 and not drift,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": _unit(m)} for m, v in metrics.items()},
    }


def main() -> int:
    args = _args()
    if not (ROOT / "src" / "maskedlra" / "__init__.py").is_file():
        print(f"perfbench: no maskedlra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        for name in [args.workload] if args.workload else WORKLOADS:
            print(json.dumps(run_one(name, args)), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
