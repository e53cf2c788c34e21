"""Market parameters, validation, derived economics, and game classification.

A market is described by seven numbers (price r, cost c, salvage nu, unit
transport cost t, demand mean mu, demand std dev sigma, pairwise correlation
rho) shared by all identical agents. Validation turns them into the derived
quantities every formula is written in.
"""

from __future__ import annotations

import enum
import math
import numbers
import os
import sys
from collections.abc import Mapping
from dataclasses import dataclass

from .normal_math import std_inv_cdf, std_pdf

__all__ = [
    "ParameterError",
    "MarketParams",
    "DerivedEconomics",
    "GameType",
    "FeasibilityReport",
    "validate_params",
    "classify_game",
    "pooling_factor",
    "demand_feasibility_check",
    "load_params",
    "params_from_mapping",
]

MEAN_GAME_TOL = 1e-12

PARAM_KEYS = ("r", "c", "nu", "t", "mu", "sigma", "rho")


class ParameterError(ValueError):
    """A market parameter set violates one of the model's inequalities."""


@dataclass(frozen=True)
class MarketParams:
    """Economic and demand parameters shared by all identical agents."""

    r: float       # selling price per unit
    c: float       # purchase cost per unit
    nu: float      # salvage value per unit
    t: float       # transport cost per unit shipped
    mu: float      # demand mean
    sigma: float   # demand standard deviation
    rho: float     # pairwise demand correlation

    def __post_init__(self):
        for name in PARAM_KEYS:
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class DerivedEconomics:
    """Quantities derived from a validated MarketParams.

    g = r - c (sale benefit), g_tilde = c - nu (markdown avoidance),
    p = r - nu - t (marginal transshipment profit), R = g/(g + g_tilde)
    (critical fractile), gamma = t/(r - nu), gamma_tilde = 1 - gamma.
    """

    g: float
    g_tilde: float
    p: float
    R: float
    gamma: float
    gamma_tilde: float


class GameType(enum.Enum):
    OVER_MEAN = "over-mean"
    UNDER_MEAN = "under-mean"
    MEAN = "mean"


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the coefficient-of-variation check for non-negative profits."""

    feasible: bool
    cv: float
    bound: float
    reason: str = ""


def validate_params(params: MarketParams) -> DerivedEconomics:
    """Check every model inequality and return the derived economics.

    r, c, nu and t must be finite, with nu < c < r and 0 <= t < r - nu,
    checked in that order; then mu, sigma and rho are checked by the demand
    law's one rule, `_check_demand`, for a single agent. Raises
    ParameterError with a distinct message per violated inequality, the
    first one found.
    """
    r, c, nu, t = params.r, params.c, params.nu, params.t
    for name, value in (("r", r), ("c", c), ("nu", nu), ("t", t)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    if nu >= c:
        raise ParameterError(f"nu = {nu} >= c = {c} violates nu < c < r")
    if c >= r:
        raise ParameterError(f"c = {c} >= r = {r} violates nu < c < r")
    if t < 0:
        raise ParameterError(f"t = {t} < 0: transport cost cannot be negative")
    if t >= r - nu:
        raise ParameterError(f"t = {t} >= r - nu = {r - nu}: transshipment can never pay")
    _check_demand(1, params.mu, params.sigma, params.rho)
    return _economics(params, t)


def _economics(params: MarketParams, t: float) -> DerivedEconomics:
    """The economics validate_params derives, at a valid t in place of params.t."""
    r, c, nu = params.r, params.c, params.nu
    g, g_tilde, gamma = r - c, c - nu, t / (r - nu)
    return DerivedEconomics(g=g, g_tilde=g_tilde, p=r - nu - t, R=g / (g + g_tilde),
                            gamma=gamma, gamma_tilde=1.0 - gamma)


def classify_game(econ: DerivedEconomics) -> GameType:
    """Over-mean, under-mean, or mean (within MEAN_GAME_TOL) as R vs 1/2."""
    d = econ.R - 0.5
    if abs(d) <= MEAN_GAME_TOL:
        return GameType.MEAN
    return GameType.OVER_MEAN if d > 0 else GameType.UNDER_MEAN


def _fractile_quantile(econ: DerivedEconomics) -> float:
    """Phi^-1(R), or a ParameterError when R has rounded to 0 or 1."""
    if not 0.0 < econ.R < 1.0:
        raise ParameterError(
            f"critical fractile R = g/(g + g_tilde) = {econ.R!r} with g = {econ.g!r}, "
            f"g_tilde = {econ.g_tilde!r}: R must lie strictly inside (0, 1) in floating point"
        )
    return std_inv_cdf(econ.R)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_size(n) -> None:
    """A one-line ParameterError unless the coalition size n is an integer
    (bools are not)."""
    if not _is_integer(n):
        raise ParameterError(f"coalition size n must be an integer, got {n!r}")


def _shown(number) -> str:
    """str(number), or for an exact number with more digits than Python will
    convert to a string (4,300 by default), its value to 7 figures."""
    try:
        return str(number)
    except ValueError:
        from decimal import Decimal
        return f"{Decimal(number.numerator) / number.denominator:.6e}"


def _pool_variance(n: int, rho: float) -> float:
    """1 + (n-1)*rho, the variance of n equicorrelated unit normals' sum over n.

    The one statement of the (n, rho) domain, shared by the closed forms and,
    through `_check_demand`, by validate_params and the sampler. It requires
    an integer n >= 1 no larger than the largest float, a real rho in
    (-1, 1], and rho > -1/(n-1) for n >= 2 (positive-definite
    equicorrelation); each violation raises a one-line ParameterError:
    `coalition size n must be an integer, got ...` or `... must be >= 1,
    got ...`, `rho must be a real number, got ...` for a rho that is not a
    `numbers.Real`, `rho = ... outside (-1, 1]` for any other rho outside it
    (nan and +-inf among them), and the positive-definite message at the
    bound. An exact n or rho too long for str is shown by `_shown`. Near the
    bound the sum cancels, so where it rounds below 1/2 it is formed exactly
    and rounded once, which also makes the bound check exact.
    """
    if type(n) is not int:
        _check_size(n)
        n = int(n)
    if n < 1:
        raise ParameterError(f"coalition size n must be >= 1, got {_shown(n)}")
    if n > sys.float_info.max:  # n - 1 and n / denom would overflow
        raise ParameterError(f"coalition size n exceeds the float range (> {sys.float_info.max!r})")
    if type(rho) is not float:
        if not _is_real(rho):
            raise ParameterError(f"rho must be a real number, got {rho!r}")
        if -1 < rho <= 1:  # so float(rho) cannot overflow; it may round to -1.0
            rho = float(rho)
    if not -1.0 < rho <= 1.0:
        raise ParameterError(f"rho = {_shown(rho)} outside (-1, 1]")
    denom = 1.0 + (n - 1) * rho
    if denom < 0.5:
        num, den = rho.as_integer_ratio()
        denom = (den + (n - 1) * num) / den  # int division rounds correctly
    if denom <= 0.0:
        raise ParameterError(
            f"rho = {rho} <= -1/(n-1) = {-1.0 / (n - 1)}: "
            f"equicorrelation matrix not positive-definite for n = {n}"
        )
    return denom


def _check_demand(n: int, mu: float, sigma: float, rho: float) -> None:
    """The one rule of the demand law N(mu, sigma^2) with correlation rho
    among n agents, shared by validate_params (at n = 1) and the sampler.

    mu and sigma must be real (a float is) and finite, and sigma > 0; then
    `_pool_variance(n, rho)` decides n and rho. Each violation raises a
    one-line ParameterError, the first one found: `mu must be a real number,
    got ...`, `mu must be finite, got ...`, the same two for sigma,
    `sigma = ... <= 0`, or one of `_pool_variance`'s.
    """
    for name, value in (("mu", mu), ("sigma", sigma)):
        if type(value) is not float and not _is_real(value):
            raise ParameterError(f"{name} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    if sigma <= 0:
        raise ParameterError(f"sigma = {sigma} <= 0")
    _pool_variance(n, rho)


def pooling_factor(n: int, rho: float) -> float:
    """Risk-pooling factor L_n = sqrt(n / _pool_variance(n, rho)); L_1 = 1."""
    return math.sqrt(n / _pool_variance(n, rho))


def demand_feasibility_check(params: MarketParams) -> FeasibilityReport:
    """Check sigma/mu <= g / [(g + g_tilde) * phi(Phi^-1(R))].

    The bound keeps the probability mass on negative demands small enough
    that the closed-form profits stay non-negative. Requires mu > 0.
    """
    econ = validate_params(params)
    bound = econ.R / std_pdf(_fractile_quantile(econ))
    if params.mu <= 0:
        return FeasibilityReport(
            feasible=False, cv=math.inf, bound=bound,
            reason=f"mu = {params.mu} <= 0: coefficient of variation undefined",
        )
    cv = params.sigma / params.mu
    ok = cv <= bound
    return FeasibilityReport(
        feasible=ok, cv=cv, bound=bound,
        reason="" if ok else f"cv = {cv:.6g} exceeds bound {bound:.6g}",
    )


def params_from_mapping(mapping: Mapping[str, float]) -> MarketParams:
    """Build MarketParams from a mapping with keys r, c, nu, t, mu, sigma, rho.

    Unknown keys are named before missing ones, so a misspelled key is
    reported as itself rather than as the key it stands in for.
    """
    unknown = [k for k in mapping if k not in PARAM_KEYS]
    if unknown:
        raise ParameterError(f"unknown parameter(s): {', '.join(sorted(unknown))}")
    missing = [k for k in PARAM_KEYS if k not in mapping]
    if missing:
        raise ParameterError(f"missing parameter(s): {', '.join(missing)}")
    return MarketParams(**{k: float(mapping[k]) for k in PARAM_KEYS})


def _read_config(path: str | os.PathLike[str]) -> dict[str, float]:
    """The keys a flat key=value config file sets, each with its value.

    Blank lines and '#' comments are ignored. Values are parsed with float(),
    which is locale-independent and exact for decimal literals. A line
    without '=', a key that is not one of PARAM_KEYS, a bad number or a key
    set twice is a ParameterError naming the file and line. Lines end at
    '\n' only (text mode has turned '\r\n' and '\r' into it), so a form feed
    or other Unicode line break stays inside its line. Which keys are present
    is left to the caller.
    """
    values: dict[str, float] = {}
    first_set: dict[str, int] = {}
    with open(path) as file:
        text = file.read()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in PARAM_KEYS:
            raise ParameterError(f"{path}:{lineno}: unknown parameter {key!r}")
        if key in first_set:
            raise ParameterError(f"{path}:{lineno}: {key} set again "
                                 f"(first set on line {first_set[key]})")
        first_set[key] = lineno
        try:
            values[key] = float(value.strip())
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: bad number for {key}: {value.strip()!r}") from exc
    return values


def load_params(path: str | os.PathLike[str]) -> MarketParams:
    """Read a config file that sets each of r, c, nu, t, mu, sigma, rho once.

    The file's format and line-numbered errors, an unknown key among them,
    are those of _read_config; a missing key is refused as by
    params_from_mapping.
    """
    return params_from_mapping(_read_config(path))
