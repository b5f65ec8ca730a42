"""Observational-entropy gaps of quantum states under locality-restricted measurements."""

from .core import (
    CLUSTER_TOL,
    DensityMatrix,
    PartitionSpec,
    Povm,
    Spectrum,
    ValidationError,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    schmidt,
    spectral,
    tensor,
    validate_povm,
    validate_state,
)
from .entropy import (
    OutcomeStats,
    chain_entropy,
    certify_optimal,
    coarse_grain,
    measured_relative_entropy,
    observational_entropy,
    recovery_bounds,
    tensor_oe_decompose,
    von_neumann,
)
from .classes import (
    ConditionalMeasurement,
    SeparabilityVerdict,
    StochasticMap,
    cpp_apply,
    flatten_locc,
    is_ppt,
    is_rct,
    is_separable_effect,
    lo_povm,
    lostar_povm,
    rank1_refine,
)
from .optimize import (
    OptConfig,
    OptResult,
    cq_gap,
    eigenseparability,
    minimize_lo,
    minimize_locc_oneway,
    minimize_lostar,
    ppt_gap_w3,
    sep_gap_heuristic,
    werner_analytic,
)
from .partitions import PartitionScan, enumerate_partitions, robustness_scan, scan_partitions

__version__ = "0.1.0"
