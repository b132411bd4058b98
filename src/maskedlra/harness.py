"""Planted-instance generation, bound-check sweeps, and report emission.

A planted instance carries a known feasible rank-k candidate, so its masked
cost certifies an upper bound on the optimum; every verifier in the sweep
checks its inequality against that certificate. Corrupted entries live only
where the mask is zero and dominate the clean ones in magnitude. That does
not make a solver that ignores the mask fail: the rank-k' SVD of A itself
meets the certificate's rhs in 104 of 120 cells of routes t1-t4 and a2 at
n in {16, 32, 64, 128}, eps in {0.1, 0.25, 0.5} and seeds {0, 1}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import boolean as bl
from . import io as mio
from . import masks as mk
from . import protocols as pr
from . import solver as sv
from . import structural as st
from .errors import MaskedLRAError, ParameterError, ResourceError
from .linalg import Certificate, LowRankFactor, masked_cost

DEFAULT_CORRUPTION = 5.0
# the Boolean domain reads corruption_scale as a flip probability
BOOLEAN_CORRUPTION = 0.25

COLUMNS = (
    "pattern", "n", "k", "k_prime", "eps1", "eps2", "delta_slack",
    "seed", "cost", "opt_upper", "rhs", "satisfied",
)


@dataclass
class PlantedInstance:
    domain: str
    A: np.ndarray
    W: object
    L_star: object
    opt_upper: float
    k: int
    noise_sigma: float
    corruption_scale: float
    seed: int


@dataclass
class ExperimentReport:
    rows: list = field(default_factory=list)
    protocol_stats: list = field(default_factory=list)

    @property
    def all_satisfied(self) -> bool:
        return all(r["satisfied"] for r in self.rows)


def gen_planted(
    domain: str,
    pattern,
    n: int,
    k: int,
    noise_sigma: float = 0.0,
    corruption_scale: float | None = None,
    seed: int = 0,
) -> PlantedInstance:
    """Build (A, W, L*) with corruption only off-support.

    Real domains scale corruption to corruption_scale * ||L*||_F / n per
    entry; the Boolean domain reads both scales as independent flip
    probabilities (off-support and on-support respectively). corruption_scale
    defaults to DEFAULT_CORRUPTION for the real domains and to
    BOOLEAN_CORRUPTION for the Boolean one.
    """
    if corruption_scale is None:
        corruption_scale = BOOLEAN_CORRUPTION if domain == "boolean" else DEFAULT_CORRUPTION
    if noise_sigma < 0 or corruption_scale < 0:
        raise ParameterError("noise and corruption scales must be nonnegative")
    if k < 1:
        raise ParameterError(f"k={k} must be positive")
    salts = {"matrix": 1, "tensor3": 2, "boolean": 3}
    if domain not in salts:
        raise ParameterError(f"unknown domain {domain!r}")
    rng = np.random.default_rng([seed, n, k, salts[domain]])
    order = 3 if domain == "tensor3" else 2
    W = mk.make_mask(pattern, n)
    if pattern.order != order:
        raise ParameterError(f"{domain} needs an order-{order} pattern, got {pattern.tag!r}")
    if domain != "boolean":
        B = W.bitmap
        U, V, *Z = (rng.standard_normal((n, k)) for _ in range(order))
        L = LowRankFactor(U, V, k, Z=Z[0] if Z else None)
        base = L.value()
        scale = corruption_scale * float(np.linalg.norm(base)) / n
        # A is built in the normal draw's buffer: scaling by scale and then
        # by the 0/1 complement of B gives (1 - B) * scale times the draw
        # bit for bit, signed zeros included
        A = rng.standard_normal(B.shape)
        A *= scale
        A *= B == 0
        A += base
        if noise_sigma:  # the last draw, so skipping it changes nothing else
            noise = rng.standard_normal(B.shape)
            noise *= noise_sigma
            noise *= B
            A += noise
        opt = masked_cost(A, W, L)
    else:
        if corruption_scale > 1 or noise_sigma > 1:
            raise ParameterError("boolean flip probabilities must be <= 1")
        B = W.bitmap
        U = (rng.random((n, k)) < 0.5).astype(np.uint8)
        V = (rng.random((k, n)) < 0.5).astype(np.uint8)
        L = bl.BoolFactor(U, V, k)
        base = L.value()
        flips = (B == 0) & (rng.random((n, n)) < corruption_scale)
        if noise_sigma:  # the last draw, as in the real domains
            flips |= (B == 1) & (rng.random((n, n)) < noise_sigma)
        A = (base ^ flips.astype(np.uint8)).astype(np.uint8)
        opt = float(bl.bool_cost(A, base, W))
    return PlantedInstance(
        domain=domain, A=A, W=W, L_star=L, opt_upper=float(opt), k=k,
        noise_sigma=noise_sigma, corruption_scale=corruption_scale, seed=seed,
    )


# ---------------------------------------------------------------------------
# sweep configuration

_DEFAULTS = {
    "routes": "t1",
    "sizes": "32,64",
    "eps": "0.1,0.25,0.5",
    "seeds": "0",
    "k": "2",
    "t": "2",
    "p": "4",
    "noise_sigma": "0.0",
    "corruption_scale": str(DEFAULT_CORRUPTION),
    "stats_trials": "0",
}

# the tag of the pattern each sweep route plants
ROUTES = {"t1": "diagonal", "t2": "sparse", "t3": "toeplitz-mod-p", "t4": "banded", "a2": "sparse"}


def parse_config(source) -> dict:
    """A sweep config from a dict or from 'key = value' text (never a path:
    report --config reads its file), over the defaults."""
    if isinstance(source, dict):
        raw = {k: str(v) for k, v in source.items()}
    else:
        raw = mio.parse_kv(source)
    cfg = dict(_DEFAULTS)
    for key, val in raw.items():
        if key not in cfg:
            raise ParameterError(f"unknown config key {key!r}")
        cfg[key] = val
    try:
        out = {
            "routes": tuple(s.strip() for s in cfg["routes"].split(",") if s.strip()),
            "sizes": tuple(int(s) for s in cfg["sizes"].split(",") if s.strip()),
            "eps": tuple(float(s) for s in cfg["eps"].split(",") if s.strip()),
            "seeds": tuple(int(s) for s in cfg["seeds"].split(",") if s.strip()),
            "k": int(cfg["k"]),
            "t": int(cfg["t"]),
            "p": int(cfg["p"]),
            "noise_sigma": float(cfg["noise_sigma"]),
            "corruption_scale": float(cfg["corruption_scale"]),
            "stats_trials": int(cfg["stats_trials"]),
        }
    except ValueError as e:
        raise ParameterError(f"bad config value: {e}") from None
    for route in out["routes"]:
        if route not in ROUTES:
            raise ParameterError(f"unknown route {route!r}")
    if out["stats_trials"] < 0:
        raise ParameterError(f"stats_trials={out['stats_trials']} must be >= 0")
    return out


def sparse_pattern(n: int, t: int, seed: int) -> mk.Sparse:
    """Deterministic random zero sets, t per row."""
    if not 0 <= t <= n:
        raise ParameterError(f"t={t} zeros per row out of range for n={n}")
    rng = np.random.default_rng([seed, n, t, 0x5A])
    zs = tuple(
        tuple(sorted(int(j) for j in rng.choice(n, size=t, replace=False)))
        for _ in range(n)
    )
    return mk.Sparse(zero_sets=zs, t=t)


def make_pattern(tag: str, n: int, *, t: int = 2, p: int = 4, blocks: int = 2, seed: int = 0):
    """The example pattern planted for a tag, by gen and by the sweep routes.

    t is the zeros per row (per face for sparse-faces), p the modulus or
    band width, blocks the number of even diagonal blocks; random zero sets
    and prefixes are drawn from generators seeded by (seed, n, ...).
    """
    if tag in ("all-ones", "diagonal"):
        return mk.PATTERNS[tag]()
    if tag in ("toeplitz-mod-p", "banded", "banded-2d"):
        return mk.PATTERNS[tag](p)
    if tag == "block-diagonal":
        if not 1 <= blocks <= n:
            raise ParameterError(f"blocks={blocks} out of range for n={n}")
        cuts = np.array_split(np.arange(n), blocks)
        return mk.BlockDiagonal(tuple(tuple(c.tolist()) for c in cuts))
    if tag == "sparse":
        return sparse_pattern(n, t, seed)
    if tag == "monotone":
        rng = np.random.default_rng([seed, n, 0x30])
        return mk.Monotone(tuple(rng.integers(0, n + 1, size=n).tolist()))
    if tag == "diagonal3":
        return mk.Diagonal3()
    if tag == "sparse-faces":
        rng = np.random.default_rng([seed, n, 0x3F])
        faces = (sorted(rng.choice(n * n, size=t, replace=False)) for _ in range(n))
        return mk.SparseFaces(tuple(tuple(divmod(int(f), n) for f in fs) for fs in faces), t)
    raise ParameterError(f"unknown pattern {tag!r}")


def _row(cert: Certificate) -> dict:
    """A sweep row: the certificate projected onto COLUMNS, then an empty note.

    eps1 and eps2 are the coefficients of the terms of those names;
    delta_slack is always 0.0.
    """
    values = (
        cert.pattern, cert.n, cert.k, cert.k_prime, cert.coefficient("eps1"),
        cert.coefficient("eps2"), 0.0, cert.seed, cert.cost, cert.opt_upper,
        cert.rhs, cert.satisfied,
    )
    return dict(zip(COLUMNS, values), note="")


def certify_cell(
    route: str, n: int, eps: float, seed: int, cfg: dict, stats: list | None = None
) -> Certificate:
    """One sweep cell: plant, then verify through the route.

    When stats is given and cfg["stats_trials"] > 0, a cell of a
    partition-certified route (not a2) also appends its protocol-stats row
    to stats: the counts of the partition drawn with the cell's spec and
    seed (the certificate draws none), and error rates sampled on its mask.
    """
    if route not in ROUTES:
        raise ParameterError(f"unknown route {route!r}")
    k = cfg["k"]
    pattern = make_pattern(ROUTES[route], n, t=cfg["t"], p=cfg["p"], seed=seed)
    inst = gen_planted(
        "matrix", pattern, n, k,
        noise_sigma=cfg["noise_sigma"],
        corruption_scale=cfg["corruption_scale"],
        seed=seed,
    )
    if route == "a2":
        return st.verify_structural_bicriteria(inst.A, inst.W, k, eps, inst.opt_upper, seed=seed)
    spec = pattern.spec(n, eps)
    cert = sv.verify_bicriteria(
        inst.A, inst.W, k, eps, spec=spec,
        opt_upper=inst.opt_upper, L_for_eps2=inst.L_star, seed=seed,
    )
    if stats is not None and cfg["stats_trials"] > 0:
        P = pr.sample_partition(spec, seed)
        e1, e0 = pr.empirical_error_rates(spec, inst.W, cfg["stats_trials"], seed=seed)
        stats.append({
            "family": spec.family, "n": n, "delta": eps, "seed": seed,
            "rectangles": len(P.boxes), "one_count": P.one_count,
            "cap": pr.transcript_cap(spec), "err_on_zeros": e0, "err_on_ones": e1,
        })
    return cert


def run_cell(
    route: str, n: int, eps: float, seed: int, cfg: dict, stats: list | None = None
) -> dict:
    """certify_cell's certificate as a sweep row."""
    return _row(certify_cell(route, n, eps, seed, cfg, stats))


def run_suite(config) -> ExperimentReport:
    """Cross-product sweep; cells failing with a package error become
    unsatisfied rows, and any other exception propagates."""
    cfg = parse_config(config)
    report = ExperimentReport()
    for route in cfg["routes"]:
        for n in cfg["sizes"]:
            for eps in cfg["eps"]:
                for seed in cfg["seeds"]:
                    try:
                        row = run_cell(route, n, eps, seed, cfg, report.protocol_stats)
                    except MaskedLRAError as e:  # recorded, never aborts the sweep
                        nan = float("nan")
                        values = (ROUTES[route], n, cfg["k"], 0, eps, 0.0, 0.0, seed,
                                  nan, nan, nan, False)
                        row = dict(zip(COLUMNS, values), note=f"{type(e).__name__}: {e}")
                    report.rows.append(row)
    report.rows.sort(key=lambda r: (r["pattern"], r["n"], r["eps1"], r["seed"]))
    report.protocol_stats.sort(
        key=lambda r: (r["family"], r["n"], r["delta"], r["seed"])
    )
    return report


# ---------------------------------------------------------------------------
# emission

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit(report: ExperimentReport, format: str, path: str) -> None:
    """Write bound rows (csv: documented 12 columns; json adds notes/stats)."""
    if format == "csv":
        lines = [",".join(COLUMNS)]
        for r in report.rows:
            lines.append(",".join(_fmt(r[c]) for c in COLUMNS))
        payload = "\n".join(lines) + "\n"
    elif format == "json":
        def clean(r):
            out = {}
            for key, v in r.items():
                if key == "note" and not v:
                    continue
                if isinstance(v, float) and math.isnan(v):
                    v = None
                out[key] = v
            return out

        payload = json.dumps(
            {
                "rows": [clean(r) for r in report.rows],
                "protocol_stats": [clean(r) for r in report.protocol_stats],
            },
            indent=2,
        ) + "\n"
    else:
        raise ParameterError(f"unknown report format {format!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as e:
        raise ResourceError(f"cannot write report {path}: {e}") from e


def _parse_cell(col: str, text: str):
    if col in ("n", "k", "k_prime", "seed"):
        return int(text)
    if col == "satisfied":
        if text not in ("true", "false"):
            raise ValueError(f"satisfied is {text!r}")
        return text == "true"
    if col == "pattern":
        return text
    return float(text)


def _parse_row(line: str) -> dict:
    parts = line.split(",")
    if len(parts) != len(COLUMNS):
        raise ValueError(f"{len(parts)} fields, not {len(COLUMNS)}")
    return {c: _parse_cell(c, v) for c, v in zip(COLUMNS, parts)}


def load_rows(path: str) -> list:
    """Read back an emitted report (csv or json) as row dicts.

    Malformed text raises ParameterError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ResourceError(f"cannot read report {path}: {e}") from e
    if text.lstrip().startswith("{"):
        try:
            rows = json.loads(text).get("rows")
        except ValueError as e:
            raise ParameterError(f"malformed report {path}: {e}") from None
        if not isinstance(rows, list):
            raise ParameterError(f"report {path} has no rows list")
        return rows
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or tuple(lines[0].split(",")) != COLUMNS:
        raise ParameterError(f"unexpected report header in {path}")
    return [mio._parse(_parse_row, ln, f"report row in {path}") for ln in lines[1:]]
