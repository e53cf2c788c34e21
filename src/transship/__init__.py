"""Transshipment coalitions of identical newsvendors with normal demands.

Closed-form optimal order quantities, expected profits, expected
transshipment amounts, large-coalition limits, and equal core allocations,
validated against Monte Carlo simulation and exact oracles.
"""

from .analytic_solver import (
    LimitResult,
    Regime,
    SequenceReport,
    SolveResult,
    UnsupportedRegimeError,
    equal_allocation,
    expected_profit,
    expected_transshipment,
    finite_rho_limit_diagnostic,
    limit_analysis,
    optimality_residual,
    quantity_sequence,
    solve_optimal_quantity,
)
from .core_analysis import CoreReport, characteristic_values, check_equal_allocation_core
from .game_model import (
    DerivedEconomics,
    FeasibilityReport,
    GameType,
    MarketParams,
    ParameterError,
    classify_game,
    demand_feasibility_check,
    load_params,
    params_from_mapping,
    pooling_factor,
    validate_params,
)
from .normal_math import cdf_antiderivative, std_cdf, std_inv_cdf, std_pdf
from .recourse import (
    GeneralAgentParams,
    SurplusShortage,
    TransshipmentPlan,
    solve_transshipment_plan,
    symmetric_recourse_value,
    validate_general_params,
)
# The Monte Carlo sampler, the estimators and the grid oracle live in
# `simulation`, the one module that needs numpy. It is imported on first use
# of any of these names (PEP 562), so the scalar solver starts without numpy.
_SIMULATION_NAMES = frozenset({
    "DemandMatrix",
    "McEstimate",
    "brute_force_optimal",
    "dump_scenarios",
    "estimate_profit",
    "estimate_transshipment",
    "sample_demands",
})

__all__ = [
    "LimitResult",
    "Regime",
    "SequenceReport",
    "SolveResult",
    "UnsupportedRegimeError",
    "equal_allocation",
    "expected_profit",
    "expected_transshipment",
    "finite_rho_limit_diagnostic",
    "limit_analysis",
    "optimality_residual",
    "quantity_sequence",
    "solve_optimal_quantity",
    "CoreReport",
    "characteristic_values",
    "check_equal_allocation_core",
    "DerivedEconomics",
    "FeasibilityReport",
    "GameType",
    "MarketParams",
    "ParameterError",
    "classify_game",
    "demand_feasibility_check",
    "load_params",
    "params_from_mapping",
    "pooling_factor",
    "validate_params",
    "cdf_antiderivative",
    "std_cdf",
    "std_inv_cdf",
    "std_pdf",
    "GeneralAgentParams",
    "SurplusShortage",
    "TransshipmentPlan",
    "solve_transshipment_plan",
    "symmetric_recourse_value",
    "validate_general_params",
    *sorted(_SIMULATION_NAMES),
]


def __getattr__(name: str):
    if name == "simulation" or name in _SIMULATION_NAMES:
        from importlib import import_module

        simulation = import_module(".simulation", __name__)
        return simulation if name == "simulation" else getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | {"simulation"})


__version__ = "0.1.0"
