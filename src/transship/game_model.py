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
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Union

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

    Raises ParameterError with a distinct message per violated inequality.
    """
    for name in PARAM_KEYS:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    r, c, nu, t = params.r, params.c, params.nu, params.t
    if nu >= c:
        raise ParameterError(f"nu = {nu} >= c = {c} violates nu < c < r")
    if c >= r:
        raise ParameterError(f"c = {c} >= r = {r} violates nu < c < r")
    if t < 0:
        raise ParameterError(f"t = {t} < 0: transport cost cannot be negative")
    if t >= r - nu:
        raise ParameterError(f"t = {t} >= r - nu = {r - nu}: transshipment can never pay")
    if params.sigma <= 0:
        raise ParameterError(f"sigma = {params.sigma} <= 0")
    if not -1.0 < params.rho <= 1.0:
        raise ParameterError(f"rho = {params.rho} outside (-1, 1]")
    return _economics(params, t)


def _economics(params: MarketParams, t: float) -> DerivedEconomics:
    """The economics validate_params derives, at a valid t in place of params.t."""
    r, c, nu = params.r, params.c, params.nu
    g, g_tilde, gamma = r - c, c - nu, t / (r - nu)
    return DerivedEconomics(g=g, g_tilde=g_tilde, p=r - nu - t, R=g / (g + g_tilde),
                            gamma=gamma, gamma_tilde=1.0 - gamma)


def classify_game(econ: DerivedEconomics, tol: float = MEAN_GAME_TOL) -> GameType:
    """Over-mean, under-mean, or mean depending on the critical fractile R vs 1/2."""
    d = econ.R - 0.5
    if abs(d) <= tol:
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


def _pool_variance(n: int, rho: float) -> float:
    """1 + (n-1)*rho, the variance of n equicorrelated unit normals' sum over n.

    Requires an integer n >= 1 no larger than the largest float, a real
    rho <= 1 that is not nan or -inf, and rho > -1/(n-1) for n >= 2
    (positive-definite equicorrelation); each violation raises a one-line
    ParameterError. Near that bound the sum cancels, so where it rounds
    below 1/2 it is formed exactly and rounded once, which also makes the
    bound check exact. The closed forms and the sampler share this rule.
    """
    if type(n) is not int:
        _check_size(n)
        n = int(n)
    if n < 1:
        raise ParameterError(f"coalition size n must be >= 1, got {n}")
    if n > sys.float_info.max:  # n - 1 and n / denom would overflow
        raise ParameterError(f"coalition size n exceeds the float range (> {sys.float_info.max!r})")
    if type(rho) is not float:
        if not _is_real(rho):
            raise ParameterError(f"rho must be a real number, got {rho!r}")
        rho = float(rho)
    if not -math.inf < rho <= 1.0:
        raise ParameterError(f"rho = {rho} > 1" if rho > 1.0 else f"rho must be a real number, got {rho}")
    denom = 1.0 + (n - 1) * rho
    if denom < 0.5:
        num, den = rho.as_integer_ratio()
        denom = (den + (n - 1) * num) / den  # int division rounds correctly
    if n >= 2 and denom <= 0.0:
        raise ParameterError(
            f"rho = {rho} <= -1/(n-1) = {-1.0 / (n - 1)}: "
            f"equicorrelation matrix not positive-definite for n = {n}"
        )
    return denom


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
    """Build MarketParams from a mapping with keys r, c, nu, t, mu, sigma, rho."""
    missing = [k for k in PARAM_KEYS if k not in mapping]
    if missing:
        raise ParameterError(f"missing parameter(s): {', '.join(missing)}")
    unknown = [k for k in mapping if k not in PARAM_KEYS]
    if unknown:
        raise ParameterError(f"unknown parameter(s): {', '.join(sorted(unknown))}")
    return MarketParams(**{k: float(mapping[k]) for k in PARAM_KEYS})


def load_params(path: Union[str, Path]) -> MarketParams:
    """Read a flat key=value config file (keys r, c, nu, t, mu, sigma, rho).

    Blank lines and '#' comments are ignored. Values are parsed with float(),
    which is locale-independent and exact for decimal literals.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            values[key] = float(value.strip())
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: bad number for {key}: {value.strip()!r}") from exc
    return params_from_mapping(values)
