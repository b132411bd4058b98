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

FAMILIES = (
    "equality-hash", "eq-mod-p", "sparse-set-eq", "greater-than",
    "banded-gt", "banded2d-gt", "monotone-gt", "neq3-multiparty",
)

COVERS = ("neq-bits", "neq-blocks", "disj-coords")


def _cmd_gen(args) -> int:
    domain = args.domain
    pattern = hs.make_pattern(
        args.pattern, args.n, t=args.t, p=args.p, blocks=args.blocks, seed=args.seed
    )
    inst = hs.gen_planted(
        domain, pattern, args.n, args.k,
        noise_sigma=args.noise_sigma,
        corruption_scale=args.corruption_scale,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if domain == "matrix":
        mio.write_matrix(out / "A.mlra", inst.A)
        mio.write_matrix(out / "Lstar.mlra", inst.L_star.value())
        mask_file = "W.mask"
        mio.write_mask_descriptor(out / mask_file, inst.W)
    elif domain == "boolean":
        mio.write_bitmap(out / "A.mlrb", inst.A)
        mio.write_bitmap(out / "Lstar.mlrb", inst.L_star.value())
        mask_file = "W.mask"
        mio.write_mask_descriptor(out / mask_file, inst.W)
    else:
        mio.write_tensor(out / "A.mlrt", inst.A)
        mio.write_tensor(out / "Lstar.mlrt", inst.L_star.value())
        mask_file = "W.mlrt"
        mio.write_tensor(out / mask_file, inst.W.bitmap.astype(np.float64))
    meta = [
        f"domain = {domain}",
        f"pattern = {inst.W.pattern.tag}",
        f"n = {args.n}",
        f"k = {args.k}",
        f"seed = {args.seed}",
        f"noise_sigma = {args.noise_sigma!r}",
        f"corruption_scale = {args.corruption_scale!r}",
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
    L = sv.masked_lra(A, W, k_prime, method=args.method, seed=args.seed)
    cost = masked_cost(A, W, L)
    ref = float(np.sum((A * W.bitmap) ** 2))
    print(f"k = {args.k}  k_prime = {k_prime}  method = {args.method}")
    print(f"masked cost = {cost!r}")
    print(f"masked mass = {ref!r}")
    if "svd_driver" in L.meta:
        print(f"svd_driver = {L.meta['svd_driver']}")
    if args.out:
        mio.write_matrix(args.out, L.value())
        print(f"wrote solution to {args.out}")
    return 0


def _print_row(row: dict) -> None:
    for key in hs.COLUMNS:
        print(f"{key} = {hs._fmt(row[key])}")
    if row.get("note"):
        print(f"note = {row['note']}")


def _cmd_verify(args) -> int:
    cfg = dict(
        hs.parse_config({}),
        k=args.k, t=args.t, p=args.p,
        noise_sigma=args.noise_sigma, corruption_scale=args.corruption_scale,
    )
    row = hs.run_cell(args.theorem, args.n, args.eps, args.seed, cfg)
    _print_row(row)
    print("PASS" if row["satisfied"] else "FAIL")
    return 0 if row["satisfied"] else 1


def _spec_from_args(args) -> pr.ProtocolSpec:
    fam = args.family
    if fam == "equality-hash":
        return pr.equality_hash(args.n, args.delta)
    if fam == "eq-mod-p":
        return pr.eq_mod_p(args.n, args.p)
    if fam == "sparse-set-eq":
        zs = hs.sparse_pattern(args.n, args.t, args.seed).zero_sets
        return pr.sparse_set_eq(args.n, zs, args.t, args.delta)
    if fam == "greater-than":
        return pr.greater_than(args.n, args.delta)
    if fam == "banded-gt":
        return pr.banded_gt(args.n, args.p, args.delta)
    if fam == "banded2d-gt":
        return pr.banded2d_gt(args.n, args.p, args.delta)
    if fam == "monotone-gt":
        px = hs.make_pattern("monotone", args.n, seed=args.seed).prefix_lengths
        return pr.monotone_gt(px, args.delta)
    if fam == "neq3-multiparty":
        return pr.neq3_multiparty(args.n, args.delta)
    raise ParameterError(f"unknown family {fam!r}")


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
    ok_count = len(P.rectangles) <= cap
    print(f"family = {spec.family}")
    print(f"rectangles = {len(P.rectangles)}  one_count = {P.one_count}  cap = {cap}")
    print(f"err_on_zeros = {e0!r}  err_on_ones = {e1!r}  delta = {delta!r}")
    print(f"count_within_cap = {hs._fmt(ok_count)}")
    print(f"zero_side_ok = {hs._fmt(ok_zero)}  one_side_ok = {hs._fmt(ok_one)}")
    ok = ok_zero and ok_one and ok_count
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_tensor(args) -> int:
    inst = hs.gen_planted(
        "tensor3", mk.Diagonal3(), args.n, args.k,
        noise_sigma=args.noise_sigma,
        corruption_scale=args.corruption_scale,
        seed=args.seed,
    )
    spec = pr.neq3_multiparty(args.n, args.eps)
    P = pr.multiparty_partition(spec, seed=args.seed)
    comp = tn.tensor_comparator(
        inst.A, inst.W, P, args.k, inner_iters=args.iters, seed=args.seed
    )
    comp_cost = masked_cost(inst.A, inst.W, comp)
    k_prime = comp.U.shape[1]
    sol = tn.masked_tensor_lra(
        inst.A, inst.W, k_prime, init=comp, iters=args.iters, seed=args.seed
    )
    cost = masked_cost(inst.A, inst.W, sol)
    M = inst.A * inst.W.bitmap
    mass = float(np.sum(M * M))
    norm_sq = float(np.sum(inst.A * inst.A))
    rhs = 2.0 * args.eps * mass + 1e-6 * norm_sq
    ok = cost <= comp_cost + 1e-9 * max(1.0, comp_cost) and cost <= rhs
    print(f"n = {args.n}  k = {args.k}  k_prime = {k_prime}  eps = {args.eps!r}")
    print(f"comparator cost = {comp_cost!r}")
    print(f"cost = {cost!r}")
    print(f"rhs = {rhs!r}  opt_upper = {inst.opt_upper!r}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


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
    inst = hs.gen_planted(
        "boolean", pattern, args.n, args.k,
        noise_sigma=args.noise_sigma,
        corruption_scale=args.corruption_scale,
        seed=args.seed,
    )
    if 2 * args.n * args.k <= bl.EXHAUSTIVE_BIT_CAP:
        _, opt = bl.bool_lra_exhaustive(inst.A, inst.W, args.k)
        opt_src = "exhaustive"
    else:
        opt = int(inst.opt_upper)
        opt_src = "planted"
    rep = bl.verify_nondet_bound(inst.A, inst.W, cover, args.k, opt,
                                 inner=args.inner, seed=args.seed)
    print(f"cover = {args.cover}  |C| = {rep.cover_size}  k = {args.k}")
    print(f"cost = {rep.cost}  opt_upper = {rep.opt_upper} ({opt_src})")
    print(f"rhs = {rep.rhs}")
    print("PASS" if rep.satisfied else "FAIL")
    return 0 if rep.satisfied else 1


def _cmd_report(args) -> int:
    report = hs.run_suite(args.config)
    hs.emit(report, args.format, args.out)
    good = sum(1 for r in report.rows if r["satisfied"])
    print(f"rows = {len(report.rows)}  satisfied = {good}")
    print(f"wrote {args.format} report to {args.out}")
    ok = report.all_satisfied
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _add_planted_flags(p, corruption_default=hs.DEFAULT_CORRUPTION):
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--corruption-scale", type=float, default=corruption_default)
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
    s.add_argument("--method", choices=("exact", "randomized"), default="exact")
    s.add_argument("--seed", type=int, default=0)
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
    # boolean corruption is a flip probability on the masked zeros
    _add_planted_flags(bc, corruption_default=0.25)
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
