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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

from .game_model import (
    DerivedEconomics,
    GameType,
    MarketParams,
    ParameterError,
    _check_size,
    _economics,
    _float,
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

# Steps per root before _solve_y raises; random (R, gamma, L) with R down to
# 1e-300 and L up to 1e150 took at most 51.
_MAX_NEWTON = 100
_STEP_TOL = 4 * 2.0**-52  # a step of 4 ulp relative to |y| ends the iteration
# Most sizes (or sweep steps) one call solves: 1.0 s of CPU for sweep --over n (README).
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

    The condition f is gamma_tilde*(Phi(L*q) - R) at q and gamma*(Phi(q/L) - R)
    at q/L, never of the same sign, so the root lies between them. It is q/L
    itself when t = 0 (gamma = 0), and the single point q when L = 1 or R = 1/2.

    Otherwise Newton's method runs from q/L. The bracket holds no 0, so f is
    concave on it when R > 1/2 and convex when R < 1/2, and f(q/L) has the sign
    of -q (Fourier's condition): every iterate lands between the last one and
    the root. Deep in a tail that progress can turn linear, with steps of about
    1/|y|. So an iterate that leaves the bracket, or a step longer than half the
    one before last, is replaced by the bracket's geometric midpoint (both ends
    share the sign of q, and the bracket can span decades). The iteration stops
    on a step within _STEP_TOL of |y|.
    """
    R, gam, gamt = econ.R, econ.gamma, econ.gamma_tilde
    pooled = q / L
    if pooled == q or gam == 0.0:
        return pooled
    lo, hi = sorted((pooled, q))
    y, moved, moved_before = pooled, math.inf, math.inf
    for _ in range(_MAX_NEWTON):
        fy = _condition(y, L, gam, gamt, R)
        if fy == 0.0:
            return y
        if fy < 0.0:
            lo = y
        else:
            hi = y
        deriv = gam * std_pdf(y) + gamt * L * std_pdf(L * y)
        step = fy / deriv if deriv > 0.0 else math.inf
        nxt = y - step
        if abs(step) <= _STEP_TOL * abs(y):
            return nxt if lo <= nxt <= hi else y
        if not lo < nxt < hi or 2.0 * abs(step) > moved_before:
            nxt = math.copysign(math.sqrt(abs(lo)) * math.sqrt(abs(hi)), q)
            if not lo < nxt < hi:  # lo and hi are adjacent doubles
                return y
        moved, moved_before = abs(nxt - y), moved
        y = nxt
    raise RuntimeError(f"Y_n root for R = {R!r}, L = {L!r} not converged after "
                       f"{_MAX_NEWTON} Newton steps")


def _per_agent_profit(y: float, L: float, econ: DerivedEconomics,
                      params: MarketParams) -> float:
    # Closed form at the optimum: (g+g~)*(R*mu - sigma*[gamma*phi(Y) + gamma~*phi(L Y)/L]).
    total = econ.g + econ.g_tilde
    tail = econ.gamma * std_pdf(y) + econ.gamma_tilde * std_pdf(L * y) / L
    return total * (econ.R * params.mu - params.sigma * tail)


def _transshipment(y: float, n: int, L: float, sigma: float) -> float:
    # A(y) = y + A(-y) turns A(y) - A(L y)/L into A(-y) - A(-L y)/L, so the
    # amount is even in y. Above 0 both terms are about y and cancel; below 0
    # both are small, so evaluate there.
    y = -abs(y)
    width = cdf_antiderivative(y) - cdf_antiderivative(L * y) / L
    value = n * sigma * width
    if math.isinf(value):
        # n * sigma alone can pass the float maximum where the amount fits;
        # only then is the order changed, so every finite amount keeps its bits.
        value = n * (sigma * width)
    # Tail cancellation can round a mathematically non-negative value below 0.
    return value if value > 0.0 else 0.0


def _build_result(n: int, q: float, econ: DerivedEconomics, params: MarketParams) -> SolveResult:
    L = pooling_factor(n, params.rho)
    y = _solve_y(econ, q, L)
    x = params.mu + params.sigma * y
    allocation = _per_agent_profit(y, L, econ, params)
    profit, moved = n * allocation, _transshipment(y, n, L, params.sigma)
    if not (math.isfinite(x) and math.isfinite(profit) and math.isfinite(moved)):
        raise ParameterError(f"the solution at n = {n:.6g} overflows the float range: "
                             f"x_opt = {x!r}, profit = {profit!r}, transshipment = {moved!r}")
    return SolveResult(
        n=n,
        y_opt=y,
        x_opt=x,
        profit=profit,
        allocation=allocation,
        transshipment=moved,
        residual=abs(_condition(y, L, econ.gamma, econ.gamma_tilde, econ.R)),
        no_shortage_prob=std_cdf(y),
    )


def _solve_sizes(params: MarketParams, first: int, last: int,
                 ts: Sequence[float] | None = None) -> Iterator[SolveResult]:
    """Validate the market once, then solve each size n = first..last as it is
    drawn: the loop behind every SolveResult. Given monotone transport costs
    ts, it solves the size first (= last) at each t in ts instead of at params.t.

    Every check that does not need a solve runs here, before the first result:
    that both bounds are integers, the market at the first t, the size cap, the
    rho domain at the largest size, Phi^-1(R) and the market at the last t (the
    valid t form an interval). A result that overflows the float range raises
    when it is drawn. The bounds are the Python ints `_check_size` returns,
    so the range, the count and each result's n are Python ints.
    """
    first, last = _check_size(first), _check_size(last)
    econ = validate_params(params if ts is None else replace(params, t=ts[0]))
    count = last + 1 - first  # len(range) overflows past 2**63 sizes
    if count > _MAX_SIZES:
        raise ParameterError(f"{count} coalition sizes requested; at most {_MAX_SIZES} per call")
    pooling_factor(last, params.rho)  # n >= 1, rho > -1/(n-1): fail before any solve
    q = _fractile_quantile(econ)
    if ts is None:
        return (_build_result(n, q, econ, params) for n in range(first, last + 1))
    try:
        validate_params(replace(params, t=ts[-1]))
    except ParameterError:
        for t in ts:  # name the first t out of range; at the latest ts[-1] raises
            validate_params(replace(params, t=t))
    return (_build_result(first, q, _economics(params, t), params) for t in ts)


def solve_optimal_quantity(n: int, params: MarketParams) -> SolveResult:
    """Solve the size-n coalition problem and evaluate all closed forms at it."""
    (result,) = _solve_sizes(params, n, n)
    return result


def _profit_at(y: float, n: int, L: float, econ: DerivedEconomics,
               mu: float, sigma: float, t: float) -> float:
    # J_n(X) = n*(g*X - t*sigma*A(Y) - p*sigma*A(L Y)/L) with A the cdf antiderivative:
    # the one copy of J_n, scalar only. At L = 1, L*y and /L are exact, so A(y)
    # serves twice. Where L*y overflows, A(L y)/L = max(y, 0) + A(-L|y|)/L rounds to
    # max(y, 0); that branch only replaces a ValueError.
    x = mu + sigma * y
    a = cdf_antiderivative(y)
    ly = L * y
    if math.isfinite(ly):
        pooled = econ.p * sigma * (a if L == 1.0 else cdf_antiderivative(ly)) / L
    else:
        pooled = econ.p * sigma * max(y, 0.0)
    return n * (econ.g * x - t * sigma * a - pooled)


def _within_float_range(value: float, what: str) -> float:
    """`value`, or a one-line ParameterError naming `what` if it is not finite."""
    if not math.isfinite(value):
        raise ParameterError(f"{what} overflows the float range: {value!r}")
    return value


def expected_profit(x: float, n: int, params: MarketParams) -> float:
    """Coalition expected profit J_n(x) for an arbitrary common quantity x.

    A non-finite x raises ValueError, and an exact x past the float range,
    or a finite x at which (x - mu) / sigma or the profit is past it, a
    ParameterError.
    """
    econ = validate_params(params)
    L = pooling_factor(n, params.rho)
    if not math.isfinite(_float("quantity x", x)):
        raise ValueError(f"quantity x must be finite, got {x!r}")
    y = _within_float_range((x - params.mu) / params.sigma, f"(x - mu) / sigma at x = {x!r}")
    profit = _profit_at(y, n, L, econ, params.mu, params.sigma, params.t)
    return _within_float_range(profit, f"the expected profit at x = {x!r}, n = {n:.6g}")


def equal_allocation(n: int, params: MarketParams) -> float:
    """Equal core allocation: the per-agent share of the optimal coalition profit."""
    return solve_optimal_quantity(n, params).allocation


def expected_transshipment(y: float, n: int, params: MarketParams) -> float:
    """Expected transshipment amount at standardized quantity y.

    n*sigma*([y*Phi(y) + phi(y)] - [y*Phi(L_n y) + phi(L_n y)/L_n]) >= 0, an even
    function of y, evaluated at -|y| to keep full relative accuracy in both
    tails; zero whenever pooling has nothing to move (n = 1 or rho = 1). A
    non-finite y raises ValueError, and an exact y or an amount past the
    float range a ParameterError.
    """
    validate_params(params)
    if not math.isfinite(_float("y", y)):
        raise ValueError(f"y must be finite, got {y!r}")
    L = pooling_factor(n, params.rho)
    return _within_float_range(_transshipment(y, n, L, params.sigma),
                               f"the expected transshipment at y = {y!r}, n = {n:.6g}")


def limit_analysis(params: MarketParams) -> LimitResult:
    """Limit of Y_n as the coalition grows, for independent demands (rho = 0).

    Implements the four-regime table: below the transport-cost cut the
    standardized quantity converges to 0 (the demand mean); at or above it,
    to a bound short of the mean set by the sender/receiver split of t.
    """
    validate_params(params)
    if params.rho != 0.0:
        raise UnsupportedRegimeError(
            f"limit analysis requires rho = 0, got rho = {params.rho}; with rho > 0 the "
            "pooling factor stays bounded and the table does not apply "
            "(see finite_rho_limit_diagnostic)"
        )
    return _limit_at(params, params.t)


def _limit_at(params: MarketParams, t: float) -> LimitResult:
    """limit_analysis at transport cost t, for a rho = 0 market valid at t."""
    econ = _economics(params, t)
    game_type = classify_game(econ)
    half_t = 0.5 * t
    if game_type is GameType.MEAN:
        # Validation forces t < r - nu = 2g when R = 1/2, so the cut is unreachable.
        cut = 2.0 * econ.g
        regime, phi_y, phi_ly = Regime.BELOW_CUT, 0.5, 0.5
    else:
        # An over-mean game is the under-mean one with g~ for g, reflected: 1 - each Phi.
        over = game_type is GameType.OVER_MEAN
        w = econ.g_tilde if over else econ.g
        cut = 2.0 * w
        if half_t < w:
            regime, phi_y, phi_ly = Regime.BELOW_CUT, 0.5, (w - half_t) / econ.p
        else:
            regime, phi_y, phi_ly = Regime.AT_OR_ABOVE_CUT, w / t, 0.0
        if over:
            phi_y, phi_ly = 1.0 - phi_y, 1.0 - phi_ly
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

    For 0 < rho <= 1 the pooling factor L_n is nondecreasing in n with limit
    1/sqrt(rho), and Y is continuous in L, so Y_n converges to this value;
    test_finite_rho_diagnostic_is_the_large_n_attractor checks it at n = 10^5.
    """
    econ = validate_params(params)
    if not 0.0 < params.rho <= 1.0:
        raise UnsupportedRegimeError(
            f"finite-rho diagnostic requires 0 < rho <= 1, got {params.rho}"
        )
    return _solve_y(econ, _fractile_quantile(econ), 1.0 / math.sqrt(params.rho))


def quantity_sequence(params: MarketParams, n_max: int) -> tuple[list[SolveResult], SequenceReport]:
    """Solve for n = 1..n_max and report the monotonicity of {Y_n} and {L_n Y_n}."""
    results = list(_solve_sizes(params, 1, n_max))
    game_type = classify_game(_economics(params, params.t))
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
