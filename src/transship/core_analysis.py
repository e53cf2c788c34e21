"""Characteristic values by coalition size and the equal-allocation core check.

Identical agents play a symmetric game, so the characteristic function is a
function of coalition size alone and core membership of the equal allocation
reduces to beta_n >= beta_m for every m <= n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analytic_solver import _solve_sizes
from .game_model import MarketParams

__all__ = ["CoreReport", "characteristic_values", "check_equal_allocation_core"]

DEFAULT_CORE_TOL = 1e-9


@dataclass(frozen=True)
class CoreReport:
    """Equal-allocation core check for the size-n grand coalition.

    worst_margin = min over proper sizes m < n of (beta_n - beta_m) in
    currency units (0 for n = 1); witness_m is the minimizing m. in_core
    applies the tolerance relative to the magnitude of the allocations.
    """

    n: int
    beta: tuple[float, ...]
    in_core: bool
    worst_margin: float
    witness_m: int


def characteristic_values(params: MarketParams, n: int) -> list[float]:
    """Optimal expected profits of coalitions of size m = 1..n."""
    return [res.profit for res in _solve_sizes(params, 1, n)]


def check_equal_allocation_core(params: MarketParams, n: int,
                                tolerance: float = DEFAULT_CORE_TOL) -> CoreReport:
    """Check whether the equal allocation beta_n lies in the core.

    beta_m = profit_m / m for m = 1..n comes from the same code path as the
    characteristic values, so beta_n * n equals the grand coalition profit
    exactly. worst_margin is the least beta_n - beta_m over m < n and
    witness_m its smallest such m, so a tie goes to the smaller coalition;
    at n = 1 they are 0.0 and 1. The check accepts worst_margin >=
    -tolerance * scale with scale = max(1, max |beta_m|).
    """
    if not tolerance >= 0:  # also rejects nan, which would fail every margin
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    beta = [res.allocation for res in _solve_sizes(params, 1, n)]
    # A single agent has no proper size m to block it: the default.
    worst_margin, witness = min(((beta[-1] - b, m) for m, b in enumerate(beta[:-1], 1)),
                                default=(0.0, 1))
    scale = max(1.0, max(abs(b) for b in beta))
    return CoreReport(
        n=n,
        beta=tuple(beta),
        in_core=worst_margin >= -tolerance * scale,
        worst_margin=worst_margin,
        witness_m=witness,
    )
