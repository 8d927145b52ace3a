"""Size-biased perpetuity fixed points: solvers, samplers, diagnostics."""

from .diagnostics import (
    DiagnosticsReport,
    ExistenceError,
    TailClass,
    diagnose,
    existence_gate,
    is_determinate,
    max_integer_moment_order,
    tail_class,
)
from .distributions import (
    FAMILY_UNIFORM01,
    UNBOUNDED,
    AtomicDistribution,
    EmpiricalSample,
    MomentVector,
    point_mass,
    quantize_family,
    uniform01_mellin,
    validate,
)
from .levy import LevyEstimate, SteutelReport, levy_from_solution, steutel_residual
from .lst_solver import LstGrid, atom_at_zero, iterate_once, solve
from .metrics import (
    ContractionReport,
    RDeltaConfig,
    RDeltaReport,
    char_function,
    contraction_ratio,
    empirical_lst,
    r_delta_report,
)
from .moments import eta_moments, sb_moments
from .montecarlo import (
    CrossOracleReport,
    PerpetuityReport,
    cross_oracle_distance,
    derive_seed,
    mc_fixed_point,
    perpetuity_residual,
    shot_noise_resample,
)
from .response import (
    ResponseFunction,
    response_from_rho,
    rho_from_response,
)

__all__ = [
    "AtomicDistribution",
    "ContractionReport",
    "CrossOracleReport",
    "DiagnosticsReport",
    "EmpiricalSample",
    "ExistenceError",
    "FAMILY_UNIFORM01",
    "LevyEstimate",
    "LstGrid",
    "MomentVector",
    "PerpetuityReport",
    "RDeltaConfig",
    "RDeltaReport",
    "ResponseFunction",
    "SteutelReport",
    "TailClass",
    "UNBOUNDED",
    "atom_at_zero",
    "char_function",
    "contraction_ratio",
    "cross_oracle_distance",
    "derive_seed",
    "diagnose",
    "empirical_lst",
    "eta_moments",
    "existence_gate",
    "is_determinate",
    "iterate_once",
    "levy_from_solution",
    "max_integer_moment_order",
    "mc_fixed_point",
    "perpetuity_residual",
    "point_mass",
    "quantize_family",
    "r_delta_report",
    "response_from_rho",
    "rho_from_response",
    "sb_moments",
    "shot_noise_resample",
    "solve",
    "steutel_residual",
    "tail_class",
    "uniform01_mellin",
    "validate",
]

__version__ = "0.1.0"
