"""Exact analysis and optimization of a two-group sleep-mode server cluster.

A loss queue feeds two server groups: group 1 (n servers) always works,
group 2 (m servers) can sleep to save energy. A policy vector d decides how
many group-2 servers wake at each backlog level. This package computes the
stationary law, long-run average profit, performance potentials, critical
service prices, and optimal policies: in closed form at extreme prices, by
policy iteration on the signs of the realization factors plus the price
constant, and by enumeration for rankings. A discrete-event simulator
cross-checks them.
"""

from .chain import (
    ChainSolution,
    Generator,
    build_generator,
    stationary_closed_form,
    stationary_numeric,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    GateError,
    NumericalError,
    RegimeError,
    SleepqError,
)
from .model import (
    POLICY_SPACES,
    SPACE_SIZE_LIMIT,
    ModelParams,
    Policy,
    StateSpace,
    ValidationReport,
    check_policy,
    enumerate_policies,
    format_policy,
    params_digest,
    params_from_file,
    params_to_text,
    parse_params,
    parse_policy,
    policy_space_size,
    state_space,
    threshold_policy,
    validate,
)
from .optimize import (
    MonotonicityReport,
    OptimizationResult,
    ThresholdResult,
    optimal_extreme_prices,
    optimize,
    threshold_scan,
    verify_monotonicity,
)
from .potential import (
    PotentialSolution,
    RGFactors,
    invert_reduced,
    normalize_fundamental,
    poisson_residual,
    reanchor,
    rg_factorize,
    solve_poisson,
)
from .reward import (
    AffineReward,
    affine_decomposition,
    average_profit,
    build_reward,
    policy_profit,
    profit_components,
)
from .sensitivity import (
    CriticalPrices,
    SensitivityReport,
    SignConservationReport,
    critical_price_state,
    critical_prices_global,
    performance_difference,
    perturbation_factors,
    price_constant,
    realization_factors,
    sign_conservation_check,
    single_coordinate_difference,
)
from .sim import EventCounts, SimConfig, SimResult, empirical_distribution, simulate

__version__ = "0.1.0"

__all__ = [
    "AffineReward",
    "ChainSolution",
    "ConfigError",
    "ConsistencyError",
    "CriticalPrices",
    "EventCounts",
    "GateError",
    "Generator",
    "ModelParams",
    "MonotonicityReport",
    "NumericalError",
    "OptimizationResult",
    "POLICY_SPACES",
    "Policy",
    "PotentialSolution",
    "RGFactors",
    "RegimeError",
    "SPACE_SIZE_LIMIT",
    "SensitivityReport",
    "SignConservationReport",
    "SimConfig",
    "SimResult",
    "SleepqError",
    "StateSpace",
    "ThresholdResult",
    "ValidationReport",
    "affine_decomposition",
    "average_profit",
    "build_generator",
    "build_reward",
    "check_policy",
    "critical_price_state",
    "critical_prices_global",
    "empirical_distribution",
    "enumerate_policies",
    "format_policy",
    "invert_reduced",
    "normalize_fundamental",
    "optimal_extreme_prices",
    "optimize",
    "params_digest",
    "params_from_file",
    "params_to_text",
    "parse_params",
    "parse_policy",
    "performance_difference",
    "perturbation_factors",
    "poisson_residual",
    "policy_profit",
    "policy_space_size",
    "price_constant",
    "profit_components",
    "realization_factors",
    "reanchor",
    "rg_factorize",
    "sign_conservation_check",
    "simulate",
    "single_coordinate_difference",
    "solve_poisson",
    "state_space",
    "stationary_closed_form",
    "stationary_numeric",
    "threshold_policy",
    "threshold_scan",
    "validate",
    "verify_monotonicity",
]
