"""Command-line front end: instance generation, solving, bound
verification, protocol statistics, tensor and Boolean routes, and sweep
reports. Exit status is 0 exactly when every asserted bound passed.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import boolean as bl
from . import harness as hs
from . import io as mio
from . import masks as mk
from . import protocols as pr
from . import solver as sv
from . import tensor as tn
from .errors import MaskedLRAError, ParameterError
from .linalg import masked_cost

# the example spec of each protocol family: the spec of the pattern that
# make_pattern builds for the tag, or the builder of a family no pattern uses
_FAMILY_SPECS = {
    "equality-hash": "diagonal", "eq-mod-p": "toeplitz-mod-p",
    "sparse-set-eq": "sparse", "greater-than": pr.greater_than,
    "banded-gt": "banded", "banded2d-gt": "banded-2d",
    "monotone-gt": "monotone", "neq3-multiparty": pr.neq3_multiparty,
}
FAMILIES = tuple(_FAMILY_SPECS)

COVERS = ("neq-bits", "neq-blocks", "disj-coords")

# the A and L* writer and file suffix of each gen domain
_WRITERS = {"matrix": (mio.write_matrix, "mlra"), "boolean": (mio.write_bitmap, "mlrb"),
            "tensor3": (mio.write_tensor, "mlrt")}


def _plant(args, domain: str, pattern):
    return hs.gen_planted(domain, pattern, args.n, args.k, noise_sigma=args.noise_sigma,
                          corruption_scale=args.corruption_scale, seed=args.seed)


def _cmd_gen(args) -> int:
    domain = args.domain
    pattern = hs.make_pattern(args.pattern, args.n, t=args.t, p=args.p, blocks=args.blocks,
                              seed=args.seed)
    inst = _plant(args, domain, pattern)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write, suffix = _WRITERS[domain]
    write(out / f"A.{suffix}", inst.A)
    write(out / f"Lstar.{suffix}", inst.L_star.value())
    if pattern.order == 2:
        mask_file = "W.mask"
        mio.write_mask_descriptor(out / mask_file, inst.W)
    else:
        mask_file = "W.mlrt"
        mio.write_tensor(out / mask_file, inst.W.bitmap.astype(np.float64))
    meta = [
        f"domain = {domain}",
        f"pattern = {inst.W.pattern.tag}",
        f"n = {args.n}",
        f"k = {args.k}",
        f"seed = {args.seed}",
        f"noise_sigma = {args.noise_sigma!r}",
        f"corruption_scale = {inst.corruption_scale!r}",
        f"opt_upper = {inst.opt_upper!r}",
        f"mask_file = {mask_file}",
    ]
    (out / "instance.txt").write_text("\n".join(meta) + "\n")
    print(f"wrote {domain} instance to {out} (opt_upper = {inst.opt_upper:.6g})")
    return 0


def _cmd_solve(args) -> int:
    A = mio.read_matrix(args.a)
    W = mio.load_mask(args.w)
    k_prime = args.kprime if args.kprime is not None else args.k
    L = sv.masked_lra(A, W, k_prime)
    cost = masked_cost(A, W, L)
    ref = float(np.sum((A * W.bitmap) ** 2))
    print(f"k = {args.k}  k_prime = {k_prime}")
    print(f"masked cost = {cost!r}")
    print(f"masked mass = {ref!r}")
    if "svd_driver" in L.meta:
        print(f"svd_driver = {L.meta['svd_driver']}")
    if args.out:
        mio.write_matrix(args.out, L.value())
        print(f"wrote solution to {args.out}")
    return 0


def _report(cert, note: str = "") -> int:
    """Print a certificate's sweep row, route, diagnostics and note, then
    its verdict; the exit status is 0 exactly when it is satisfied."""
    row = hs._row(cert)
    for key in hs.COLUMNS:
        print(f"{key} = {hs._fmt(row[key])}")
    print(f"route = {cert.route}")
    for key, value in cert.diagnostics.items():
        print(f"{key} = {hs._fmt(value)}")
    if note:
        print(f"note = {note}")
    print("PASS" if cert.satisfied else "FAIL")
    return 0 if cert.satisfied else 1


def _cmd_verify(args) -> int:
    cfg = dict(
        hs.parse_config({}),
        k=args.k, t=args.t, p=args.p,
        noise_sigma=args.noise_sigma, corruption_scale=args.corruption_scale,
    )
    return _report(hs.certify_cell(args.theorem, args.n, args.eps, args.seed, cfg))


def _spec_from_args(args) -> pr.ProtocolSpec:
    source = _FAMILY_SPECS[args.family]
    if callable(source):
        return source(args.n, args.delta)
    pattern = hs.make_pattern(source, args.n, t=args.t, p=args.p, seed=args.seed)
    return pattern.spec(args.n, args.delta)


def _cmd_protocol_stats(args) -> int:
    spec = _spec_from_args(args)
    P = pr.sample_partition(spec, seed=args.seed)
    W = pr.target_bitmap(spec)
    cap = pr.transcript_cap(spec)
    e1, e0 = pr.empirical_error_rates(spec, W, args.trials, seed=args.seed)
    delta = spec.delta
    total = W.size
    dens0 = float((np.asarray(W) == 0).sum()) / total
    dens1 = 1.0 - dens0

    def gate(rate: float, dens: float) -> bool:
        if delta <= 0.0:
            return rate == 0.0
        side = max(1.0, args.trials * dens)
        sigma = math.sqrt(delta * (1.0 - delta) / side)
        return rate <= delta + 3.0 * sigma

    one_sided = spec.family in pr.ONE_SIDED_FAMILIES
    ok_zero = (e0 == 0.0) if one_sided else gate(e0, dens0)
    ok_one = gate(e1, dens1)
    ok_count = len(P.boxes) <= cap
    print(f"family = {spec.family}")
    print(f"rectangles = {len(P.boxes)}  one_count = {P.one_count}  cap = {cap}")
    print(f"err_on_zeros = {e0!r}  err_on_ones = {e1!r}  delta = {delta!r}")
    print(f"count_within_cap = {hs._fmt(ok_count)}")
    print(f"zero_side_ok = {hs._fmt(ok_zero)}  one_side_ok = {hs._fmt(ok_one)}")
    ok = ok_zero and ok_one and ok_count
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_tensor(args) -> int:
    inst = _plant(args, "tensor3", mk.Diagonal3())
    return _report(tn.verify_tensor_bicriteria(
        inst.A, inst.W, args.k, args.eps, opt_upper=inst.opt_upper,
        iters=args.iters, seed=args.seed,
    ))


def _cmd_boolean(args) -> int:
    if args.cover == "neq-blocks":
        blocks = 2 if args.blocks is None else args.blocks
        pattern = hs.make_pattern("block-diagonal", args.n, blocks=blocks)
        cover = pr.nondet_cover(args.cover, args.n, blocks=pattern.blocks)
    elif args.blocks is not None:
        raise ParameterError(f"--blocks applies only to neq-blocks, not {args.cover}")
    else:
        cover = pr.nondet_cover(args.cover, args.n)
        pattern = (mk.Diagonal() if args.cover == "neq-bits"
                   else mk.Explicit(pr.cover_bitmap(cover)))
    inst = _plant(args, "boolean", pattern)
    if 2 * args.n * args.k <= bl.EXHAUSTIVE_BIT_CAP:
        _, opt = bl.bool_lra_exhaustive(inst.A, inst.W, args.k)
        opt_src = "exhaustive search"
    else:
        opt = int(inst.opt_upper)
        opt_src = "planted factor"
    cert = bl.verify_nondet_bound(inst.A, inst.W, cover, args.k, opt,
                                  inner=args.inner, seed=args.seed)
    return _report(cert, note=f"cover {args.cover}; opt_upper from the {opt_src}")


def _cmd_report(args) -> int:
    report = hs.run_suite(Path(args.config).read_text(encoding="utf-8"))
    if not report.rows:
        raise ParameterError("the sweep runs no cell: routes, sizes, eps or seeds is empty")
    hs.emit(report, args.format, args.out)
    good = sum(1 for r in report.rows if r["satisfied"])
    print(f"rows = {len(report.rows)}  satisfied = {good}")
    print(f"wrote {args.format} report to {args.out}")
    ok = report.all_satisfied
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _add_planted_flags(p):
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--corruption-scale", type=float, default=None,
                   help="off-support corruption: a scale (default %g), or a flip "
                   "probability for Boolean instances (default %g)"
                   % (hs.DEFAULT_CORRUPTION, hs.BOOLEAN_CORRUPTION))
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="maskedlra",
        description="masked low-rank approximation with rectangle-partition bounds",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a planted instance to a directory")
    g.add_argument("--domain", choices=("matrix", "tensor3", "boolean"),
                   default="matrix")
    g.add_argument("--pattern", default="diagonal")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--t", type=int, default=2)
    g.add_argument("--p", type=int, default=4)
    g.add_argument("--blocks", type=int, default=2)
    _add_planted_flags(g)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="masked low-rank approximation on files")
    s.add_argument("a", help="matrix file (MLRA1)")
    s.add_argument("w", help="mask file (descriptor or MLRB1)")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--kprime", type=int, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_solve)

    v = sub.add_parser("verify", help="run one planted bound check")
    v.add_argument("--theorem", choices=hs.ROUTES, required=True)
    v.add_argument("--n", type=int, default=32)
    v.add_argument("--k", type=int, default=2)
    v.add_argument("--eps", type=float, default=0.25)
    v.add_argument("--t", type=int, default=2)
    v.add_argument("--p", type=int, default=4)
    _add_planted_flags(v)
    v.set_defaults(func=_cmd_verify)

    ps = sub.add_parser("protocol-stats",
                        help="rectangle counts and empirical error rates")
    ps.add_argument("--family", choices=FAMILIES, required=True)
    ps.add_argument("--n", type=int, default=64)
    ps.add_argument("--delta", type=float, default=0.25)
    ps.add_argument("--p", type=int, default=4)
    ps.add_argument("--t", type=int, default=2)
    ps.add_argument("--trials", type=int, default=100000)
    ps.add_argument("--seed", type=int, default=0)
    ps.set_defaults(func=_cmd_protocol_stats)

    tc = sub.add_parser("tensor", help="order-3 comparator-initialized route")
    tc.add_argument("--n", type=int, default=16)
    tc.add_argument("--k", type=int, default=1)
    tc.add_argument("--eps", type=float, default=0.25)
    tc.add_argument("--iters", type=int, default=60)
    _add_planted_flags(tc)
    tc.set_defaults(func=_cmd_tensor)

    bc = sub.add_parser("boolean", help="cover-composed Boolean route")
    bc.add_argument("--cover", choices=COVERS, required=True)
    bc.add_argument("--n", type=int, default=8)
    bc.add_argument("--k", type=int, default=1)
    bc.add_argument("--blocks", type=int, default=None,
                    help="block count of neq-blocks (default 2)")
    bc.add_argument("--inner", choices=("auto", "exhaustive", "heuristic"),
                    default="auto")
    _add_planted_flags(bc)
    bc.set_defaults(func=_cmd_boolean)

    r = sub.add_parser("report", help="sweep from a config file")
    r.add_argument("--config", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--format", choices=("csv", "json"), default="csv")
    r.set_defaults(func=_cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MaskedLRAError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
