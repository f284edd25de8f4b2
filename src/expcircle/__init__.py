"""Numerics for smooth uniformly expanding circle maps: transfer operator,
explicit distortion/coupling constants, invariant densities, coupling
simulation, and correlation-decay audits."""

from .audits import AuditResult, run_all, standard_maps
from .circle_map import (
    ExpandingMap,
    certify,
    circle_distance,
    custom_map,
    derivative,
    evaluate,
    linear_map,
    perturbed_map,
    second_derivative,
    signed_gap,
    wrap,
)
from .correlation_suite import (
    ConvergenceReport,
    DecayReport,
    correlation,
    correlation_series,
    decay_report,
    density_convergence_report,
    normalized_observable_density,
)
from .coupling_lab import (
    ContractionRecord,
    CouplingTrace,
    DeterministicCoupling,
    decompose,
    deterministic_contraction_run,
    monte_carlo_coupling,
)
from .density_grid import (
    GridDensity,
    GridFunction,
    holder_coefficient,
    holder_profile,
    inf_value,
    integrate,
    l1_distance,
    lipschitz_estimate,
    log_transform,
    read_csv,
    read_density_csv,
    sample,
    sup_norm,
    uniform_density,
    write_csv,
)
from .errors import (
    ArcViolation,
    AuditViolation,
    CertificationError,
    ConfigError,
    DegreeMismatch,
    ExpCircleError,
    FloorViolation,
    InvalidAlpha,
    NoConvergence,
    NonPositiveDensity,
    NotExpanding,
    NotInvariant,
    ResolutionMismatch,
    RootFindingFailure,
    ZeroObservable,
)
from .inverse_branches import (
    BranchId,
    branch_contraction_check,
    branch_ids,
    deep_preimages,
    distortion_ratio,
    inverse_weight_sum,
    preimages,
    pullback,
    pullback_orbit,
)
from .system_constants import (
    ConstantsLedger,
    compute_ledger,
    hoelder_class_check,
    holder_iteration_cap,
    pointwise_log_bounds_hold,
    positivity_floor,
)
from .transfer_operator import (
    IterationDiagnostics,
    apply,
    apply_function,
    cesaro,
    check_growth_bounds,
    invariant_density,
    iterate,
)

__version__ = "0.1.0"
