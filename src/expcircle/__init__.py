"""Numerics for smooth uniformly expanding circle maps: transfer operator,
explicit distortion/coupling constants, invariant densities, coupling
simulation, and correlation-decay audits."""

from .audits import AuditResult, run_all, standard_maps
from .circle_map import (
    ExpandingMap,
    certify,
    circle_distance,
    custom_map,
    evaluate,
    linear_map,
    perturbed_map,
    signed_gap,
    wrap,
)
from .correlation_suite import (
    ConvergenceReport,
    DecayReport,
    correlation_series,
    decay_report,
    density_convergence_report,
    normalized_observable_density,
)
from .coupling_lab import (
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
    holder_profiles,
    inf_value,
    integrate,
    l1_distance,
    lipschitz_estimate,
    log_transform,
    sample,
    sup_norm,
    uniform_density,
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
    Violation,
    ZeroObservable,
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
    orbit,
)

__version__ = "0.1.0"
