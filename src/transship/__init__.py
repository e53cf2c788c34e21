"""Transshipment coalitions of identical newsvendors with normal demands.

Closed-form optimal order quantities, expected profits, expected
transshipment amounts, large-coalition limits, and equal core allocations,
validated against Monte Carlo simulation and exact oracles.
"""

from . import analytic_solver, core_analysis, game_model, normal_math, recourse
from .analytic_solver import *
from .core_analysis import *
from .game_model import *
from .normal_math import *
from .recourse import *

# The Monte Carlo sampler, the estimators and the grid oracle live in
# `simulation`, imported on first use of any of these names (PEP 562). numpy
# loads with its first pass that draws or reduces scenarios, not with the
# module, so the solver and the grid oracle run without numpy.
_SIMULATION_NAMES = frozenset({
    "DemandMatrix",
    "McEstimate",
    "RNG_ALGORITHM",
    "brute_force_optimal",
    "dump_scenarios",
    "estimate_profit",
    "estimate_transshipment",
    "sample_demands",
})

__all__ = [
    *(name for module in (analytic_solver, core_analysis, game_model, normal_math, recourse)
      for name in module.__all__),
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
