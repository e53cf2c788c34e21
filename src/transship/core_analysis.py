"""Characteristic values by coalition size and the equal-allocation core check.

Identical agents play a symmetric game, so the characteristic function is a
function of coalition size alone and core membership of the equal allocation
reduces to beta_n >= beta_m for every m <= n.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

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

    def to_json(self) -> str:
        payload = asdict(self)
        payload["beta"] = list(self.beta)
        return json.dumps(payload)


def characteristic_values(params: MarketParams, n: int) -> list[float]:
    """Optimal expected profits of coalitions of size m = 1..n."""
    _, results = _solve_sizes(params, range(1, n + 1))
    return [res.profit for res in results]


def check_equal_allocation_core(params: MarketParams, n: int,
                                tolerance: float = DEFAULT_CORE_TOL) -> CoreReport:
    """Check whether the equal allocation beta_n lies in the core.

    beta_m = profit_m / m for m = 1..n comes from the same code path as the
    characteristic values, so beta_n * n equals the grand coalition profit
    exactly. The check accepts worst_margin >= -tolerance * scale with
    scale = max(1, max |beta_m|).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    _, results = _solve_sizes(params, range(1, n + 1))
    beta = [res.allocation for res in results]
    # Margin over proper sub-coalition sizes; a single agent has nothing to block.
    margins = [beta[-1] - b for b in beta[:-1]]
    if margins:
        worst_margin = min(margins)
        witness = margins.index(worst_margin) + 1
    else:
        worst_margin, witness = 0.0, 1
    scale = max(1.0, max(abs(b) for b in beta))
    return CoreReport(
        n=n,
        beta=tuple(beta),
        in_core=worst_margin >= -tolerance * scale,
        worst_margin=worst_margin,
        witness_m=witness,
    )
