"""Patching heavy rows instead of inflating the rank.

When the target mask is row-sparse, a different route works: measure how
much any single row can dominate the column space (leverage), and patch the
few rows that carry real mass on the dropped entries. The rank grows by the
patch size only.
"""

import numpy as np

from maskedlra import (
    Diagonal,
    LowRankFactor,
    gen_planted,
    heavy_row_set,
    leverage_scores,
    make_mask,
    row_patch_comparator,
    verify_structural_bicriteria,
)
from maskedlra.harness import sparse_pattern

rng = np.random.default_rng(1)

# leverage scores sum to the rank and cap at one
L = LowRankFactor(rng.standard_normal((32, 3)), rng.standard_normal((32, 3)), 3)
tau = leverage_scores(L)
print(f"rank 3 factor: leverage sum {tau.sum():.6f}, max {tau.max():.4f}")

# greedy heavy-row selection obeys the mass-ratio guarantee
W = make_mask(Diagonal(), 32)
hs = heavy_row_set(L, W, eps=0.25, k=3)
print(f"heavy rows: |S|={len(hs.S)} (budget {hs.budget}), "
      f"off-mass {hs.off_mass:.4g} vs on-mass {hs.on_mass:.4g}")

# patching the selected rows exactly reproduces the masked target there
inst = gen_planted("matrix", sparse_pattern(48, 2, seed=4), 48, 2, seed=4)
base = LowRankFactor(np.zeros((48, 0)), np.zeros((48, 0)), 0)
patched = row_patch_comparator(inst.A, inst.W, base, range(48))
exact = np.allclose(patched.value(), inst.A * inst.W.bitmap)
print(f"patching every row of a rank-0 base recovers the masked matrix: {exact}")

# the assembled certificate on a planted row-sparse instance
rep = verify_structural_bicriteria(inst.A, inst.W, 2, 0.5, inst.opt_upper)
print(f"certificate: t={rep.diagnostics['t']}, k'={rep.k_prime}, cost={rep.cost:.6g} "
      f"<= rhs={rep.rhs:.6g} (eps2={rep.coefficient('eps2')}) -> satisfied={rep.satisfied}")
