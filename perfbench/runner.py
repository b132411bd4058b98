"""Set-up, passes and output checks of one workload process (see worker.py)."""

from __future__ import annotations

import os
import platform
import resource
import sys
import traceback
from time import perf_counter

import numpy as np
import scipy
import scipy.linalg

import spans as tr
import workloads as wl

# Residual check: |‖M - L‖² - (‖M‖² - Σ_{i<k'} σ_i²)| <= RESIDUAL_RTOL * ‖M‖².
RESIDUAL_RTOL = 1e-9


def machine(threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def residual_notes(solves) -> list[str]:
    """Each exact solve must leave exactly the tail of M's spectrum."""
    notes = []
    for A, W, k_prime, L in solves:
        M = np.asarray(A, dtype=np.float64) * np.asarray(getattr(W, "bitmap", W), dtype=np.float64)
        mass = float(np.sum(M * M))
        sigma = scipy.linalg.svdvals(M)
        tail = mass - float(np.sum(sigma[:k_prime] ** 2))
        res = float(np.sum((M - L.value()) ** 2))
        if abs(res - tail) > RESIDUAL_RTOL * mass:
            notes.append(
                f"masked_lra k'={k_prime} on {M.shape}: residual {res!r} vs tail {tail!r}")
    return notes


class Tally:
    def __init__(self):
        self.passes: list[list[float]] = []  # per pass, the latency of each case
        self.failures: list[tuple[str, str]] = []
        self.failed = 0
        self.certs: list = []


def run_pass(cases, recorders, tally: Tally) -> None:
    """Run each case once under each recorder, checking every output right
    after its timed call.

    Checking right away lets the case's inputs and outputs be freed before
    the next case, so peak_rss_mb stays the program's own. With two
    recorders the order alternates from case to case, so that neither side
    always runs second, on warm caches.
    """
    state: dict = {}
    latencies = {id(rec): [] for rec in recorders}
    for i, case in enumerate(cases):
        for rec in recorders if i % 2 == 0 else recorders[::-1]:
            rec.solves = []
            result, error = None, None
            with tr.instrument(rec):
                t0 = perf_counter()
                try:
                    result = case.run(state)
                except Exception:  # a failing case is recorded, never dropped
                    error = traceback.format_exc()
                latencies[id(rec)].append(perf_counter() - t0)
            if error is not None:
                print(error, file=sys.stderr)
                notes = [error.strip().splitlines()[-1]]
            else:
                if case.keep:
                    state[case.name] = result
                try:
                    verdict = case.check(result, state)
                    notes = verdict.notes + residual_notes(rec.solves)
                    tally.certs += verdict.certs
                except Exception as exc:  # a check that cannot run fails the case
                    traceback.print_exc(file=sys.stderr)
                    notes = [f"output check raised {type(exc).__name__}: {exc}"]
            rec.solves = []
            if notes:
                tally.failed += 1
                tally.failures += [(case.name, note) for note in notes]
    tally.passes += [latencies[id(rec)] for rec in recorders]


def main(args, import_s: float) -> dict:
    """Set up args.workload and run it in args.mode; returns the record."""
    t0 = perf_counter()
    cases = wl.WORKLOADS[args.workload](args.seed, args.tmp)
    setup_s = import_s + perf_counter() - t0
    out = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
           "machine": machine(args.threads)}
    if args.mode == "setup":
        return out

    tally = Tally()
    if args.mode == "run":
        # passes run while one more like the last would bring the measured
        # time nearer to --seconds; the first pass always runs
        measured = 0.0
        while True:
            run_pass(cases, [tr.Recorder()], tally)
            last = sum(tally.passes[-1])
            measured += last
            if measured + last / 2 > args.seconds:
                break
    elif args.mode == "trace":
        # the memory pass goes first and also warms up the paired pass,
        # which runs each case untraced and traced back to back
        memory = tr.Recorder(tracing=True, memory=True)
        run_pass(cases, [memory], tally)
        timed = tr.Recorder(tracing=True)
        run_pass(cases, [tr.Recorder(), timed], tally)
        layers = tr.layer_metrics(timed)
        layers["protocols.sample_partition_peak_mb"] = memory.partition_peak_bytes / 2**20
        out["layers"] = layers
        out["trace_overhead_s"] = sum(tally.passes[2]) - sum(tally.passes[1])
        a, b = tr.exact_counts(memory), tr.exact_counts(timed)
        out["drift"] = [f"{k}: {a[k]} then {b[k]}" for k in a if a[k] != b[k]]
    else:
        timed = tr.Recorder(tracing=True)
        run_pass(cases, [timed], tally)
        out["layers"] = tr.layer_metrics(timed)

    out.update(
        passes=tally.passes,
        attempted=sum(len(p) for p in tally.passes),
        failed=tally.failed,
        failures=tally.failures,
        certs=[[c.cost, c.rhs, c.vacuous] for c in tally.certs],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return out

