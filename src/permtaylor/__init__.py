"""Certified Taylor approximation of log-permanents of row-dominated
complex matrices and cubical tensors, with exact oracles and an
application to weighted perfect-matching statistics in hypergraphs."""

from .collapse import collapse
from .core import (
    ApproxConfig,
    InadmissibleInputError,
    InvalidMatchingError,
    NormalizationError,
    SingularScalingError,
    SizeCapError,
    as_matrix,
    as_tensor,
    identity_tensor,
    json_dumps,
    matrix_from_json,
    matrix_to_json,
    tensor_from_json,
    tensor_to_json,
)
from .dominance import (
    DominanceForm,
    DominanceReport,
    NormalizedProblem,
    check_dominance_matrix,
    check_dominance_tensor,
    diagonal_normal_form,
    scaled_lambda,
)
from .exact import (
    exact_log_permanent,
    permanent_ryser,
    permanent_tensor,
    permanent_tensor_slice_expansion,
    principal_subtensor,
)
from .hypergraph import (
    DPartiteHypergraph,
    MatchingStatsResult,
    encode_tensor,
    enumerate_matchings,
    hypergraph_from_json,
    matching_stats,
    normalize_base_matching,
)
from .engine import minor_sum_work
from .taylor import (
    TaylorResult,
    ZeroScanReport,
    approx_log_permanent,
    choose_order,
    exact_tail_bound,
    log_derivatives,
    perm_poly_derivs,
    perm_poly_derivs_tensor,
    taylor_tail_bound,
    zero_scan,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxConfig",
    "DPartiteHypergraph",
    "DominanceForm",
    "DominanceReport",
    "InadmissibleInputError",
    "InvalidMatchingError",
    "MatchingStatsResult",
    "NormalizationError",
    "NormalizedProblem",
    "SingularScalingError",
    "SizeCapError",
    "TaylorResult",
    "ZeroScanReport",
    "approx_log_permanent",
    "as_matrix",
    "as_tensor",
    "check_dominance_matrix",
    "check_dominance_tensor",
    "choose_order",
    "collapse",
    "diagonal_normal_form",
    "encode_tensor",
    "enumerate_matchings",
    "exact_log_permanent",
    "exact_tail_bound",
    "hypergraph_from_json",
    "identity_tensor",
    "json_dumps",
    "log_derivatives",
    "matching_stats",
    "matrix_from_json",
    "matrix_to_json",
    "minor_sum_work",
    "normalize_base_matching",
    "perm_poly_derivs",
    "perm_poly_derivs_tensor",
    "permanent_ryser",
    "permanent_tensor",
    "permanent_tensor_slice_expansion",
    "principal_subtensor",
    "scaled_lambda",
    "taylor_tail_bound",
    "tensor_from_json",
    "tensor_to_json",
    "zero_scan",
]
