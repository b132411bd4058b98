"""Spans and counters recorded around maskedlra's public functions.

The benchmark never edits the package: it replaces each public function of
a layer module (and every copy of that name imported into another package
module) with a wrapper for the length of one timed case, then puts the
originals back. With tracing off only `solver.masked_lra` is wrapped, to keep its
factors for the residual check; nothing is timed inside the program.
"""

from __future__ import annotations

import inspect
import os
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "linalg", "masks", "protocols", "io", "solver",
    "structural", "tensor", "boolean", "harness",
)

# Partition spans are measured with tracemalloc in the memory pass.
PARTITION = ("protocols.sample_partition", "protocols.multiparty_partition")

CAPTURED = "solver.masked_lra"


class Recorder:
    """Holds the spans, counters and captured solves of one pass."""

    def __init__(self, tracing: bool = False, memory: bool = False):
        self.tracing = tracing
        self.memory = memory
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.partition_peak_bytes = 0
        self.solves: list[tuple] = []  # (A, W, k_prime, factor) per masked_lra call

    def parent_name(self, span) -> str:
        return self.spans[span[3]][0] if span[3] >= 0 else ""


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _count_svd(rec, span, args, kwargs, result):
    A = args[0]
    rec.counts["linalg.svd_cells"] += int(A.shape[0]) * int(A.shape[1])


def _count_partition(rec, span, args, kwargs, result):
    # sample_partition hands order-3 families to multiparty_partition
    if rec.parent_name(span) in PARTITION:
        return
    rec.counts["protocols.rect_count"] += len(result.rectangles)
    rec.counts["protocols.one_count"] += result.one_count
    rec.counts["protocols.grid_cells"] += result.n ** result.order


def _count_trials(rec, span, args, kwargs, result):
    rec.counts["protocols.trials"] += int(_arg(args, kwargs, 2, "trials"))


def _count_partition_bytes(rec, span, args, kwargs, result):
    rec.counts["io.partition_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_altmin(rec, span, args, kwargs, result):
    rec.counts["solver.ridge_fallbacks"] += result.meta["ridge_fallbacks"]


def _count_cp_als(rec, span, args, kwargs, result):
    rec.counts["tensor.als_sweeps"] += result.meta["sweeps"]
    rec.counts["tensor.ridge_fallbacks"] += result.meta["ridge_fallbacks"]


COUNTERS = {
    "linalg.svd_truncated": _count_svd,
    "protocols.sample_partition": _count_partition,
    "protocols.multiparty_partition": _count_partition,
    "protocols.empirical_error_rates": _count_trials,
    "io.write_partition": _count_partition_bytes,
    "solver.altmin_baseline": _count_altmin,
    "tensor.cp_als": _count_cp_als,
}

# Counts that must repeat exactly for the same inputs.
EXACT_COUNTS = (
    "protocols.rect_count", "protocols.one_count", "linalg.svd_cells",
    "tensor.als_sweeps", "solver.ridge_fallbacks", "tensor.ridge_fallbacks",
)


def _capture(rec: Recorder, fn):
    def captured(*args, **kwargs):
        result = fn(*args, **kwargs)
        rec.solves.append((
            _arg(args, kwargs, 0, "A"), _arg(args, kwargs, 1, "W"),
            _arg(args, kwargs, 2, "k_prime"), result,
        ))
        return result

    return captured


def _traced(rec: Recorder, name: str, fn):
    counter = COUNTERS.get(name)
    measure_memory = rec.memory and name in PARTITION
    inner = _capture(rec, fn) if name == CAPTURED else fn

    def traced(*args, **kwargs):
        span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1]
        rec.stack.append(len(rec.spans))
        rec.spans.append(span)
        owns_tracemalloc = measure_memory and not tracemalloc.is_tracing()
        if owns_tracemalloc:
            tracemalloc.start()
        span[1] = perf_counter()
        try:
            result = inner(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            rec.stack.pop()
            if owns_tracemalloc:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                rec.partition_peak_bytes = max(rec.partition_peak_bytes, peak)
        if counter is not None:
            counter(rec, span, args, kwargs, result)
        return result

    return traced


def _public_functions():
    """(layer.name, function) for every public function of each layer."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"maskedlra.{layer}"]
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ == mod.__name__:
                out.append((f"{layer}.{attr}", fn))
    return out


@contextmanager
def instrument(rec: Recorder):
    """Wrap the package's public functions for one case, then restore them."""
    targets = _public_functions()
    if not rec.tracing:
        targets = [(n, f) for n, f in targets if n == CAPTURED]
    wrappers = {
        id(fn): (_traced(rec, name, fn) if rec.tracing else _capture(rec, fn))
        for name, fn in targets
    }
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "maskedlra" and not modname.startswith("maskedlra."):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    try:
        yield rec
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def _totals(rec: Recorder):
    """Per name: inclusive seconds (outermost spans only), self seconds, calls."""
    n = len(rec.spans)
    child = [0.0] * n
    for name, start, end, parent in rec.spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive, self_s, calls = Counter(), Counter(), Counter()
    for i, (name, start, end, parent) in enumerate(rec.spans):
        dur = end - start
        calls[name] += 1
        self_s[name] += dur - child[i]
        p = parent
        while p >= 0 and rec.spans[p][0] != name:
            p = rec.spans[p][3]
        if p < 0:
            inclusive[name] += dur
    return inclusive, self_s, calls


def _outermost_partition_seconds(rec: Recorder) -> float:
    total = 0.0
    for name, start, end, parent in rec.spans:
        if name in PARTITION and not (parent >= 0 and rec.spans[parent][0] in PARTITION):
            total += end - start
    return total


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """The per-layer metrics of one traced pass; layers not called read 0."""
    inc, self_s, calls = _totals(rec)
    c = rec.counts
    part_s = _outermost_partition_seconds(rec)
    return {
        "linalg.svd_truncated_s": inc["linalg.svd_truncated"],
        "linalg.svd_truncated_calls": calls["linalg.svd_truncated"],
        "linalg.svd_cells": c["linalg.svd_cells"],
        "linalg.masked_cost_s": inc["linalg.masked_cost"],
        "protocols.sample_partition_s": part_s,
        "protocols.sample_partition_peak_mb": rec.partition_peak_bytes / 2**20,
        "protocols.rect_count": c["protocols.rect_count"],
        "protocols.one_count": c["protocols.one_count"],
        "protocols.grid_cells_per_s": _rate(c["protocols.grid_cells"], part_s),
        "protocols.empirical_error_rates_s": inc["protocols.empirical_error_rates"],
        "protocols.trials_per_s": _rate(
            c["protocols.trials"], inc["protocols.empirical_error_rates"]),
        "io.write_partition_s": inc["io.write_partition"],
        "io.read_partition_s": inc["io.read_partition"],
        "io.partition_bytes": c["io.partition_bytes"],
        "masks.make_mask_s": inc["masks.make_mask"],
        "harness.run_cell_self_s": self_s["harness.run_cell"],
        "harness.emit_s": inc["harness.emit"],
        "solver.verify_bicriteria_self_s": self_s["solver.verify_bicriteria"],
        "solver.masked_lra_s": inc["solver.masked_lra"],
        "solver.comparator_from_partition_s": inc["solver.comparator_from_partition"],
        "solver.chain_inequality_check_s": inc["solver.chain_inequality_check"],
        "solver.altmin_baseline_s": inc["solver.altmin_baseline"],
        "solver.ridge_fallbacks": c["solver.ridge_fallbacks"],
        "structural.verify_structural_bicriteria_self_s":
            self_s["structural.verify_structural_bicriteria"],
        "tensor.cp_als_s": inc["tensor.cp_als"],
        "tensor.cp_als_calls": calls["tensor.cp_als"],
        "tensor.als_sweeps": c["tensor.als_sweeps"],
        "tensor.ridge_fallbacks": c["tensor.ridge_fallbacks"],
        "tensor.tensor_comparator_s": inc["tensor.tensor_comparator"],
        "tensor.masked_tensor_lra_s": inc["tensor.masked_tensor_lra"],
        "boolean.bool_lra_exhaustive_s": inc["boolean.bool_lra_exhaustive"],
        "boolean.bool_lra_heuristic_s": inc["boolean.bool_lra_heuristic"],
        "boolean.cover_based_bool_lra_s": inc["boolean.cover_based_bool_lra"],
    }


def exact_counts(rec: Recorder) -> dict[str, int]:
    return {name: int(rec.counts[name]) for name in EXACT_COUNTS}
