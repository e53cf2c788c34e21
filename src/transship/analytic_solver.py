"""Closed-form analytics for transshipment coalitions of identical newsvendors.

The optimal standardized order quantity Y_n for a coalition of size n solves
the implicit condition

    R = gamma * Phi(Y_n) + gamma_tilde * Phi(L_n * Y_n)

whose left side is the critical fractile and whose right side mixes the
individual and pooled service levels through the pooling factor L_n. Every
other quantity (optimal expected profit, equal allocation, expected
transshipment amount, large-n limits) follows in closed form from Y_n.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .game_model import (
    DerivedEconomics,
    GameType,
    MarketParams,
    ParameterError,
    _fractile_quantile,
    classify_game,
    pooling_factor,
    validate_params,
)
from .normal_math import cdf_antiderivative, std_cdf, std_inv_cdf, std_pdf

__all__ = [
    "UnsupportedRegimeError",
    "SolveResult",
    "Regime",
    "LimitResult",
    "SequenceReport",
    "optimality_residual",
    "solve_optimal_quantity",
    "expected_profit",
    "equal_allocation",
    "expected_transshipment",
    "limit_analysis",
    "finite_rho_limit_diagnostic",
    "quantity_sequence",
]

_MAX_BISECT = 200
_WIDTH_TOL = 1e-13
# Most coalition sizes one call solves: about 5 s of CPU (see README).
_MAX_SIZES = 100_000


class UnsupportedRegimeError(ValueError):
    """Raised when an analysis is requested outside its supported regime."""


@dataclass(frozen=True)
class SolveResult:
    """Optimal solution for a coalition of size n.

    y_opt is the standardized optimal quantity, x_opt = mu + sigma * y_opt the
    raw one; profit is the coalition's optimal expected profit, allocation the
    equal per-agent share profit / n, transshipment the expected amount moved
    at the optimum, residual the absolute first-order-condition residual at
    y_opt, and no_shortage_prob = Phi(y_opt) the probability the coalition
    ends without net shortage.
    """

    n: int
    y_opt: float
    x_opt: float
    profit: float
    allocation: float
    transshipment: float
    residual: float
    no_shortage_prob: float


class Regime(enum.Enum):
    BELOW_CUT = "below-cut"
    AT_OR_ABOVE_CUT = "at-or-above-cut"


@dataclass(frozen=True)
class LimitResult:
    """Large-coalition limit of the optimal quantity (independent demands).

    cut_value is the transport-cost threshold (2*g_tilde for over-mean games,
    2*g for under-mean) separating convergence to the demand mean from
    convergence to a bound short of it.
    """

    game_type: GameType
    regime: Regime
    cut_value: float
    phi_y_inf: float
    y_inf: float
    phi_ly_inf: float


@dataclass(frozen=True)
class SequenceReport:
    """Monotonicity summary for the sequences {Y_n} and {L_n Y_n}.

    For over-mean games y_monotone means strictly decreasing and positive and
    ly_monotone strictly increasing; for under-mean games the directions are
    mirrored; for mean games both mean identically zero. sign_preserved means
    sign(Y_n) = sign(Y_1) for every n.
    """

    game_type: GameType
    y_monotone: bool
    ly_monotone: bool
    sign_preserved: bool


def _condition(y: float, L: float, gam: float, gamt: float, R: float) -> float:
    return gam * std_cdf(y) + gamt * std_cdf(L * y) - R


def optimality_residual(y: float, n: int, econ: DerivedEconomics, rho: float) -> float:
    """gamma*Phi(y) + gamma_tilde*Phi(L_n*y) - R; strictly increasing in y."""
    L = pooling_factor(n, rho)
    return _condition(y, L, econ.gamma, econ.gamma_tilde, econ.R)


def _solve_y(econ: DerivedEconomics, q: float, L: float) -> float:
    """Root of the optimality condition for q = Phi^-1(R) and a pooling factor L >= 1.

    The condition is gamma_tilde*(Phi(L*q) - R) at q and gamma*(Phi(q/L) - R)
    at q/L, never of the same sign, so the root lies between them. It is q/L
    itself when t = 0 (gamma = 0), and the single point q when L = 1 or R = 1/2.
    """
    R, gam, gamt = econ.R, econ.gamma, econ.gamma_tilde
    pooled = q / L
    if pooled == q or gam == 0.0:
        return pooled
    lo, hi = sorted((pooled, q))
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        fm = _condition(mid, L, gam, gamt, R)
        if fm == 0.0:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _WIDTH_TOL:
            break
    y = 0.5 * (lo + hi)
    # One Newton polish with the analytic derivative; keep it only if it helps.
    deriv = gam * std_pdf(y) + gamt * L * std_pdf(L * y)
    if deriv > 0.0 and math.isfinite(deriv):
        fy = _condition(y, L, gam, gamt, R)
        candidate = y - fy / deriv
        if math.isfinite(candidate) and abs(_condition(candidate, L, gam, gamt, R)) <= abs(fy):
            y = candidate
    return y


def _per_agent_profit(y: float, L: float, econ: DerivedEconomics,
                      params: MarketParams) -> float:
    # Closed form at the optimum: (g+g~)*(R*mu - sigma*[gamma*phi(Y) + gamma~*phi(L Y)/L]).
    total = econ.g + econ.g_tilde
    tail = econ.gamma * std_pdf(y) + econ.gamma_tilde * std_pdf(L * y) / L
    return total * (econ.R * params.mu - params.sigma * tail)


def _transshipment(y: float, n: int, L: float, sigma: float) -> float:
    value = n * sigma * (cdf_antiderivative(y) - cdf_antiderivative(L * y) / L)
    # Tail cancellation can round a mathematically non-negative value below 0.
    return value if value > 0.0 else 0.0


def _build_result(n: int, q: float, econ: DerivedEconomics, params: MarketParams) -> SolveResult:
    L = pooling_factor(n, params.rho)
    y = _solve_y(econ, q, L)
    allocation = _per_agent_profit(y, L, econ, params)
    return SolveResult(
        n=n,
        y_opt=y,
        x_opt=params.mu + params.sigma * y,
        profit=n * allocation,
        allocation=allocation,
        transshipment=_transshipment(y, n, L, params.sigma),
        residual=abs(_condition(y, L, econ.gamma, econ.gamma_tilde, econ.R)),
        no_shortage_prob=std_cdf(y),
    )


def _solve_sizes(params: MarketParams, sizes: range) -> tuple[DerivedEconomics, list[SolveResult]]:
    """Validate the market once and solve each size in sizes: the loop behind every SolveResult."""
    econ = validate_params(params)
    count = sizes.stop - sizes.start  # len() overflows past 2**63 sizes
    if count > _MAX_SIZES:
        raise ParameterError(f"{count} coalition sizes requested; at most {_MAX_SIZES} per call")
    pooling_factor(sizes.stop - 1, params.rho)  # n >= 1, rho > -1/(n-1): fail before any solve
    q = _fractile_quantile(econ)
    return econ, [_build_result(n, q, econ, params) for n in sizes]


def solve_optimal_quantity(n: int, params: MarketParams) -> SolveResult:
    """Solve the size-n coalition problem and evaluate all closed forms at it."""
    _, (result,) = _solve_sizes(params, range(n, n + 1))
    return result


def _profit_at(y, n: int, L: float, econ: DerivedEconomics,
               mu: float, sigma: float, t: float, antiderivative):
    # J_n(X) = n*(g*X - t*sigma*A(Y) - p*sigma*A(L Y)/L) with A the cdf antiderivative.
    # The one copy of J_n: y is a float and A is cdf_antiderivative, or y is a
    # float64 array and A the elementwise form of it. numpy applies these
    # operations in this order to each element, so each is bit-identical to
    # the float result. At L = 1, L*y and /L are exact, so A(y) serves twice.
    x = mu + sigma * y
    a = antiderivative(y)
    pooled = a if L == 1.0 else antiderivative(L * y)
    return n * (econ.g * x - t * sigma * a - econ.p * sigma * pooled / L)


def expected_profit(x: float, n: int, params: MarketParams) -> float:
    """Coalition expected profit J_n(x) for an arbitrary common quantity x."""
    econ = validate_params(params)
    if n < 1:
        raise ValueError(f"coalition size n must be >= 1, got {n}")
    L = pooling_factor(n, params.rho)
    y = (x - params.mu) / params.sigma
    if not math.isfinite(y):
        raise ValueError(f"quantity x must be finite, got {x!r}")
    return _profit_at(y, n, L, econ, params.mu, params.sigma, params.t, cdf_antiderivative)


def equal_allocation(n: int, params: MarketParams) -> float:
    """Equal core allocation: the per-agent share of the optimal coalition profit."""
    return solve_optimal_quantity(n, params).allocation


def expected_transshipment(y: float, n: int, params: MarketParams) -> float:
    """Expected transshipment amount at standardized quantity y.

    n*sigma*([y*Phi(y) + phi(y)] - [y*Phi(L_n y) + phi(L_n y)/L_n]) >= 0;
    zero whenever pooling has nothing to move (n = 1 or rho = 1).
    """
    validate_params(params)
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y!r}")
    L = pooling_factor(n, params.rho)
    return _transshipment(y, n, L, params.sigma)


def limit_analysis(params: MarketParams) -> LimitResult:
    """Limit of Y_n as the coalition grows, for independent demands (rho = 0).

    Implements the four-regime table: below the transport-cost cut the
    standardized quantity converges to 0 (the demand mean); at or above it,
    to a bound short of the mean set by the sender/receiver split of t.
    """
    econ = validate_params(params)
    if params.rho != 0.0:
        raise UnsupportedRegimeError(
            f"limit analysis requires rho = 0, got rho = {params.rho}; with rho > 0 the "
            "pooling factor stays bounded and the table does not apply "
            "(see finite_rho_limit_diagnostic)"
        )
    game_type = classify_game(econ)
    half_t = 0.5 * params.t
    if game_type is GameType.MEAN:
        # Validation forces t < r - nu = 2g when R = 1/2, so the cut is unreachable.
        cut = 2.0 * econ.g
        regime, phi_y, phi_ly = Regime.BELOW_CUT, 0.5, 0.5
    elif game_type is GameType.OVER_MEAN:
        cut = 2.0 * econ.g_tilde
        if half_t < econ.g_tilde:
            regime, phi_y = Regime.BELOW_CUT, 0.5
            phi_ly = 1.0 - (econ.g_tilde - half_t) / econ.p
        else:
            regime, phi_y, phi_ly = Regime.AT_OR_ABOVE_CUT, 1.0 - econ.g_tilde / params.t, 1.0
    else:
        cut = 2.0 * econ.g
        if half_t < econ.g:
            regime, phi_y = Regime.BELOW_CUT, 0.5
            phi_ly = (econ.g - half_t) / econ.p
        else:
            regime, phi_y, phi_ly = Regime.AT_OR_ABOVE_CUT, econ.g / params.t, 0.0
    return LimitResult(
        game_type=game_type,
        regime=regime,
        cut_value=cut,
        phi_y_inf=phi_y,
        y_inf=std_inv_cdf(phi_y),
        phi_ly_inf=phi_ly,
    )


def finite_rho_limit_diagnostic(params: MarketParams) -> float:
    """Numerical fixed point of R = gamma*Phi(y) + gamma_tilde*Phi(y/sqrt(rho)).

    For rho > 0 the pooling factor converges to 1/sqrt(rho), so this is the
    candidate limit of Y_n. Offered purely as a diagnostic; no convergence
    claim is attached to it.
    """
    econ = validate_params(params)
    if not 0.0 < params.rho <= 1.0:
        raise UnsupportedRegimeError(
            f"finite-rho diagnostic requires 0 < rho <= 1, got {params.rho}"
        )
    return _solve_y(econ, _fractile_quantile(econ), 1.0 / math.sqrt(params.rho))


def quantity_sequence(params: MarketParams, n_max: int) -> tuple[list[SolveResult], SequenceReport]:
    """Solve for n = 1..n_max and report the monotonicity of {Y_n} and {L_n Y_n}."""
    econ, results = _solve_sizes(params, range(1, n_max + 1))
    game_type = classify_game(econ)
    # One rule on s = sign(R - 1/2): s*Y_n falls and stays positive, s*L_n*Y_n rises.
    # A mean game has s = 0, so its Y_n count as 0 and every comparison is equal.
    s = {GameType.OVER_MEAN: 1, GameType.UNDER_MEAN: -1, GameType.MEAN: 0}[game_type]
    ys = [s * res.y_opt for res in results]
    lys = [s * pooling_factor(res.n, params.rho) * res.y_opt for res in results]

    def holds(a: float, b: float) -> bool:  # a > b, or a == b in a mean game
        return (a > b) - (a < b) == abs(s)

    return results, SequenceReport(
        game_type,
        y_monotone=all(map(holds, ys, ys[1:])) and holds(ys[-1], 0.0),
        ly_monotone=all(map(holds, lys[1:], lys)),
        sign_preserved=all(holds(y, 0.0) for y in ys),
    )
