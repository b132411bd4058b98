"""Order-3 tensors: same story, three parties, CP rank.

The mask drops the cells where all three indices agree. A three-party
hashing scheme tiles the cube into boxes; fitting a rank-1 CP term inside
each kept box and concatenating gives an initialization whose cost the
final bound inherits. Alternating least squares then refines it.
"""

import numpy as np

from maskedlra import (
    Diagonal3,
    cp_als,
    gen_planted,
    masked_cost,
    masked_tensor_lra,
    multiparty_partition,
    neq3_multiparty,
    tensor_comparator,
)

n, k, eps = 16, 2, 0.25
inst = gen_planted("tensor3", Diagonal3(), n, k, seed=5)
A = np.asarray(inst.A)
mass = float(np.sum((A * inst.W.bitmap) ** 2))

spec = neq3_multiparty(n, eps)
P = multiparty_partition(spec, seed=0)
print(f"three-party partition: {len(P.rectangles)} boxes, {P.one_count} kept")

comp = tensor_comparator(inst.A, inst.W, P, k, restarts=2, seed=0)
c0 = masked_cost(inst.A, inst.W, comp)
print(f"comparator: CP rank bound {comp.rank_bound}, masked cost {c0:.6g}")

F = masked_tensor_lra(inst.A, inst.W, comp.rank_bound, init=comp, seed=0)
c1 = masked_cost(inst.A, inst.W, F)
bound = 2 * eps * mass + 1e-6 * float(np.sum(A * A))
print(f"refined: {c1:.6g} <= {bound:.6g} -> {c1 <= bound}")

# plain CP-ALS on the full tensor, for scale
full = cp_als(A, k, iters=100, seed=0)
print(f"unmasked rank-{k} CP residual for comparison: "
      f"{float(np.sum((A - full.value()) ** 2)):.6g}")
