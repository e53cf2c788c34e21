"""Monte Carlo validation: correlated demand sampling and estimators.

Each closed form in the library has an independent check here: sampled
equicorrelated normal demands feed estimators of the coalition profit and
the expected transshipment amount, and a grid search over the profit curve
double-checks the root-found optimal quantity.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .analytic_solver import _profit_at
from .game_model import MarketParams, ParameterError, pooling_factor, validate_params
from .normal_math import _INV_SQRT_2PI, _SQRT_2

__all__ = [
    "RNG_ALGORITHM",
    "DemandMatrix",
    "McEstimate",
    "sample_demands",
    "estimate_profit",
    "estimate_transshipment",
    "brute_force_optimal",
    "dump_scenarios",
]

# Counter-based generator: reproducible across runs and machines for a fixed
# seed, and recorded in every DemandMatrix for auditability.
RNG_ALGORITHM = "numpy-philox4x64"


@dataclass(frozen=True, eq=False)
class DemandMatrix:
    """Sampled joint demand scenarios: one row per draw, one column per agent.

    `sample_demands` returns `scenarios` read-only. The estimators keep the
    per-scenario totals of their last x on such a matrix, so estimating the
    profit and the transshipment at one x reduces the scenarios once. A matrix
    built around a writable array is reduced afresh on every call. Setting
    `scenarios.flags.writeable` back to True to edit a sampled matrix would
    leave those held totals stale; copy the array instead.
    """

    scenarios: np.ndarray
    seed: int
    rho_target: float
    rng_algorithm: str = RNG_ALGORITHM
    # (x.hex(), S_H, S_E) of the last x estimated on a read-only matrix.
    _last_totals: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def count(self) -> int:
        return self.scenarios.shape[0]

    @property
    def n(self) -> int:
        return self.scenarios.shape[1]


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float
    count: int


def sample_demands(n: int, mu: float, sigma: float, rho: float,
                   count: int, seed: int) -> DemandMatrix:
    """Draw `count` independent scenarios from the equicorrelated n-variate normal.

    Mean mu * 1, covariance sigma^2 * [(1 - rho) I + rho 11^T]; requires
    finite mu, finite sigma > 0 and -1/(n-1) < rho <= 1. Identical (seed,
    arguments) give a bit-identical matrix.

    Uses the one-factor representation of the equicorrelated normal (Tong,
    The Multivariate Normal Distribution, 1990, section 8.2): with Z the
    standard normal draws of a scenario and Zbar their mean,

        D = mu + sigma * (a * Z + (b - a) * Zbar),
        a = sqrt(1 - rho),  b = sqrt(1 + (n - 1) rho),

    which has unit variances and correlation rho, exactly, across the whole
    valid range. It costs O(n) per scenario and is computed in place on the
    one count x n buffer of draws. At rho = 1 (a = 0) every column is
    bit-identical, and at rho = 0 (b - a = 0) or n = 1 the result is
    mu + sigma * Z, formed without the row means when mu != 0. The draws Z
    come from Philox keyed by the seed, as before; correlated scenarios for a
    given seed differ from those of the earlier Cholesky sampler, while
    rho = 0 scenarios are unchanged. The returned `scenarios` array is
    read-only.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    for name, value in (("mu", mu), ("sigma", sigma)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    if sigma <= 0:
        raise ParameterError(f"sigma = {sigma} <= 0")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if not -1.0 < rho <= 1.0:
        raise ParameterError(f"rho = {rho} outside (-1, 1]")
    if n >= 2 and rho <= -1.0 / (n - 1):
        raise ParameterError(
            f"rho = {rho} <= -1/(n-1) = {-1.0 / (n - 1)}: covariance not positive-definite"
        )
    # A single agent has no pairwise correlation, so rho drops out (a = b = 1).
    a = math.sqrt(1.0 - rho) if n > 1 else 1.0
    b = math.sqrt(1.0 + (n - 1) * rho)
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = rng.standard_normal((count, n))
    weight = sigma * (b - a)
    if weight == 0.0 and mu != 0.0:
        # The factor term weight * Zbar is a signed zero and mu + (+-0) = mu,
        # so no row mean is needed. At mu = -0.0 the sign of a zero entry
        # follows the sign of its row mean, so a zero mu takes the full form.
        draws *= sigma * a
        draws += mu
    else:
        shift = draws.mean(axis=1)
        shift *= weight
        shift += mu
        draws *= sigma * a
        draws += shift[:, np.newaxis]
    draws.flags.writeable = False
    return DemandMatrix(scenarios=draws, seed=seed, rho_target=rho)


# Matrix entries per block when the estimators walk the scenarios (256 KiB of
# float64, at least one row): their scratch memory does not grow with count.
_BLOCK_ELEMENTS = 1 << 15


def _surplus_shortage(x: float, scenarios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-scenario totals S_H = sum_i max(x - D_i, 0) and S_E = sum_i max(D_i - x, 0).

    Walks the rows in blocks of about _BLOCK_ELEMENTS entries through one
    reused buffer. Each row is reduced on its own, so the totals do not
    depend on the block size.
    """
    count, n = scenarios.shape
    rows = max(1, _BLOCK_ELEMENTS // n)
    surplus = np.empty(count)
    shortage = np.empty(count)
    buffer = np.empty((min(rows, count), n))
    for lo in range(0, count, rows):
        block = scenarios[lo:lo + rows]
        scratch = buffer[:block.shape[0]]
        np.subtract(x, block, out=scratch)
        np.maximum(scratch, 0.0, out=scratch)
        scratch.sum(axis=1, out=surplus[lo:lo + rows])
        np.subtract(block, x, out=scratch)
        np.maximum(scratch, 0.0, out=scratch)
        scratch.sum(axis=1, out=shortage[lo:lo + rows])
    return surplus, shortage


def _totals(x: float, samples: DemandMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(S_H, S_E) at x, reduced once per x on a read-only matrix.

    A read-only matrix that owns its data holds the totals of the last x it
    was reduced at, keyed by the exact double (a -0.0 is not a 0.0). Any other
    matrix, whose entries a caller could still change, is reduced every time.
    The entry is replaced whole, so concurrent callers at worst repeat a pass.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"quantity x must be finite, got {x!r}")
    scenarios = samples.scenarios
    if scenarios.flags.writeable or not scenarios.flags.owndata:
        return _surplus_shortage(x, scenarios)
    key = x.hex()
    held = samples._last_totals
    if held is not None and held[0] == key:
        return held[1], held[2]
    surplus, shortage = _surplus_shortage(x, scenarios)
    surplus.flags.writeable = shortage.flags.writeable = False
    object.__setattr__(samples, "_last_totals", (key, surplus, shortage))
    return surplus, shortage


def _summarize(values: np.ndarray) -> McEstimate:
    count = values.shape[0]
    if count < 2:
        raise ValueError("at least 2 scenarios are needed for a standard error")
    return McEstimate(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / math.sqrt(count)),
        count=count,
    )


def estimate_profit(x: float, samples: DemandMatrix, params: MarketParams) -> McEstimate:
    """Monte Carlo estimate of the coalition profit at common quantity x.

    Per scenario: sum_i [r min(x, D_i) + nu H_i - c x] plus the pooled
    recourse profit p * min(sum H, sum E) (the identical-agent shortcut; its
    agreement with the general transportation solver is checked separately).
    Since min(x, D_i) = x - H_i, the first sum is n x (r - c) - (r - nu) S_H.
    A non-finite x raises ValueError.
    """
    econ = validate_params(params)
    surplus, shortage = _totals(x, samples)
    profit = samples.n * x * (params.r - params.c) - (params.r - params.nu) * surplus
    profit += econ.p * np.minimum(surplus, shortage)
    return _summarize(profit)


def estimate_transshipment(x: float, samples: DemandMatrix) -> McEstimate:
    """Monte Carlo estimate of the transshipped amount min(sum H, sum E) at x.

    A non-finite x raises ValueError.
    """
    surplus, shortage = _totals(x, samples)
    return _summarize(np.minimum(surplus, shortage))


# Grid points per block of the profit kernel: its scratch memory does not
# grow with grid_points.
_GRID_BLOCK = 2048


def _cdf_antiderivative_array(ys: np.ndarray) -> np.ndarray:
    """normal_math.cdf_antiderivative applied to each element of a 1-d array.

    Bit-identical to the scalar form: each element goes through the same libm
    calls (math.erfc and math.exp; np.exp differs from math.exp in the last
    bit on some inputs) and the same float operations in the same order.
    """
    if not np.isfinite(ys).all():
        raise ValueError(f"y must be finite, got {float(ys[~np.isfinite(ys)][0])!r}")
    m = ys.shape[0]
    cdf = np.fromiter(map(math.erfc, (-ys / _SQRT_2).tolist()), float, m)
    cdf *= 0.5
    pdf = np.fromiter(map(math.exp, (-0.5 * ys * ys).tolist()), float, m)
    pdf *= _INV_SQRT_2PI
    value = ys * cdf
    value += pdf
    value[~(value > 0.0)] = 0.0
    return value


def _grid_blocks(half_width: float, points: int):
    """np.linspace(-half_width, half_width, points) in blocks of _GRID_BLOCK points.

    Bit-identical to numpy's own recipe: point k is k * step - half_width with
    step = 2 * half_width / (points - 1), or (k / (points - 1)) * (2 * half_width)
    when the step underflows to 0 (subnormal widths), and the last point is
    +half_width exactly. Only one block is held at a time.
    """
    div = points - 1
    delta = 2.0 * half_width
    step = delta / div
    for lo in range(0, points, _GRID_BLOCK):
        ys = np.arange(lo, min(lo + _GRID_BLOCK, points), dtype=float)
        if step == 0.0:
            ys /= div
            ys *= delta
        else:
            ys *= step
        ys -= half_width
        if lo + ys.shape[0] == points:
            ys[-1] = half_width
        yield ys


def brute_force_optimal(params: MarketParams, n: int, grid_half_width: float,
                        grid_points: int) -> tuple[float, float]:
    """Maximize the closed-form profit on a grid around the demand mean.

    Evaluates J_n on grid_points equally spaced quantities in
    [mu - w*sigma, mu + w*sigma] and returns (best x, best profit), taking
    the first grid point where the profit is largest. Grid search is
    method-independent of the root-finder, so agreement within one grid
    spacing validates both the first-order condition and its solver.

    The grid is generated and evaluated in blocks of _GRID_BLOCK points by the
    array form of J_n, whose results are bit-identical to evaluating each
    point of np.linspace on its own; memory does not grow with grid_points.
    A width whose double 2w overflows raises ValueError, and so does a nan or
    +inf profit on the grid, from overflow at huge widths.
    """
    econ = validate_params(params)
    if (not isinstance(grid_points, numbers.Integral) or grid_points < 3
            or grid_points % 2 == 0):
        raise ValueError(f"grid_points must be an odd integer >= 3, got {grid_points!r}")
    if not (math.isfinite(2.0 * grid_half_width) and grid_half_width > 0):
        raise ValueError(f"grid_half_width must be finite and positive, and 2 * grid_half_width "
                         f"finite, got {grid_half_width!r}")
    L = pooling_factor(n, params.rho)
    mu, sigma, t = params.mu, params.sigma, params.t
    best_y = best_profit = -math.inf
    for block in _grid_blocks(grid_half_width, grid_points):
        # Overflow gives inf or nan silently, as in floats; np.argmax returns
        # the first nan, or else +inf, and either is rejected below.
        with np.errstate(over="ignore", invalid="ignore"):
            values = _profit_at(block, n, L, econ, mu, sigma, t, _cdf_antiderivative_array)
        k = int(np.argmax(values))
        value = float(values[k])
        if not math.isfinite(value):
            raise ValueError(f"expected profit is {value!r} at x = {mu + sigma * float(block[k])!r}")
        if value > best_profit:
            best_profit = value
            best_y = float(block[k])
    return mu + sigma * best_y, best_profit


def dump_scenarios(samples: DemandMatrix, path: Union[str, Path]) -> None:
    """Write scenarios to CSV (scenario_id, D_1..D_n) at full precision."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario_id"] + [f"D_{j + 1}" for j in range(samples.n)])
        for idx, row in enumerate(samples.scenarios):
            writer.writerow([idx] + [repr(float(d)) for d in row])
