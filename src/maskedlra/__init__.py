"""Masked low-rank approximation via rectangle partitions.

The zero-fill heuristic (factor A with its masked entries zeroed) carries a
provable cost bound once the mask's zero structure admits a cheap
communication protocol: each 1-labeled transcript rectangle contributes k to
the rank budget. This package implements the matrix, order-3 tensor, and
Boolean versions of that pipeline, plus a leverage-score row-patching route
for column-sparse masks.
"""

from .errors import (
    MaskedLRAError,
    NumericalError,
    ParameterError,
    ResourceError,
    ShapeError,
)
from .linalg import (
    Certificate,
    LowRankFactor,
    masked_cost,
    svd_truncated,
)
from .masks import (
    AllOnes,
    Banded,
    Banded2D,
    BlockDiagonal,
    BlockSparse,
    Diagonal,
    Diagonal3,
    Explicit,
    Mask,
    MaskPattern,
    Monotone,
    Sparse,
    SparseFaces,
    ToeplitzModP,
    make_mask,
    rank_budget,
)
from .protocols import (
    Cover,
    PartitionSample,
    ProtocolSpec,
    Rectangle,
    banded2d_gt,
    banded_gt,
    empirical_error_rates,
    eq_mod_p,
    equality_hash,
    greater_than,
    monotone_gt,
    multiparty_partition,
    neq3_multiparty,
    nondet_cover,
    protocol_matrix,
    sample_partition,
    sparse_set_eq,
    transcript_cap,
)
from .solver import (
    altmin_baseline,
    chain_inequality_check,
    comparator_from_partition,
    masked_lra,
    verify_bicriteria,
)
from .tensor import (
    cp_als,
    masked_tensor_lra,
    tensor_comparator,
    verify_tensor_bicriteria,
)
from .boolean import (
    BoolFactor,
    bool_cost,
    bool_lra_exhaustive,
    bool_lra_heuristic,
    bool_product,
    cover_based_bool_lra,
    verify_nondet_bound,
)
from .structural import (
    HeavyRowSet,
    heavy_row_set,
    leverage_scores,
    row_patch_comparator,
    verify_structural_bicriteria,
)
from .harness import (
    ExperimentReport,
    PlantedInstance,
    emit,
    gen_planted,
    run_suite,
)

__version__ = "0.1.0"
