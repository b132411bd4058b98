"""From a partition to a factorization, then down the chain of bounds.

A sampled partition turns into a comparator: solve a tiny SVD inside each
kept rectangle and add the pieces up. The comparator's cost upper-bounds
the best rank-k fit on the partition's own mask, which in turn relates to
the cost on the target mask. Alternating minimization then polishes the
budget-rank solve without ever losing its certificate.
"""

import numpy as np

from maskedlra import (
    Banded,
    altmin_baseline,
    banded_gt,
    chain_inequality_check,
    comparator_from_partition,
    gen_planted,
    masked_cost,
    masked_lra,
    rank_budget,
    sample_partition,
    verify_bicriteria,
)

n, p, k, eps = 64, 2, 2, 0.5
inst = gen_planted("matrix", Banded(p), n, k, seed=3)
spec = banded_gt(n, p, eps)

P = sample_partition(spec, seed=0)
print(f"banded mask, bandwidth {p}; partition has {len(P.rectangles)} rectangles, "
      f"{P.one_count} of them kept")

comp = comparator_from_partition(inst.A, inst.W, P, k)
c_comp = masked_cost(inst.A, inst.W, comp)
print(f"comparator rank bound {comp.rank_bound}, masked cost {c_comp:.6g}")

# the three-way cost comparison that justifies using the comparator at all
ok = chain_inequality_check(inst.A, inst.W, P, k)
print(f"chain inequality holds on this instance: {ok}")

# the practical solve runs at the pattern's rank budget, far below the
# comparator's width, and alternating minimization refines it in place
kp = min(rank_budget(Banded(p), k, eps, n=n), n)
L0 = masked_lra(inst.A, inst.W, kp)
c0 = masked_cost(inst.A, inst.W, L0)
polished = altmin_baseline(inst.A, inst.W, kp, iters=30, init=L0)
c1 = masked_cost(inst.A, inst.W, polished)
print(f"budget solve at rank {kp}: {c0:.6g}; after refinement: {c1:.6g}")
assert c1 <= c0 * (1 + 1e-9)

# the full certificate, hashing slack included
rep = verify_bicriteria(inst.A, inst.W, k, eps, spec=spec,
                        opt_upper=inst.opt_upper, L_for_eps2=inst.L_star, seed=0)
summands = " + ".join(f"{c:g}*{base:.6g}" for _, c, base in rep.terms)
print(f"two-term certificate: cost={rep.cost:.6g} <= rhs={rep.rhs:.6g} = {summands} "
      f"(eps1={rep.coefficient('eps1')}, eps2={rep.coefficient('eps2')}) "
      f"-> satisfied={rep.satisfied}")
