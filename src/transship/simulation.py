"""Monte Carlo validation: correlated demand sampling and estimators.

Each closed form in the library has an independent check here: sampled
equicorrelated normal demands feed estimators of the coalition profit and
the expected transshipment amount, and a grid search over the profit curve
double-checks the root-found optimal quantity.

The grid search is scalar, and so is making a DemandMatrix. numpy is
imported inside the functions that draw or reduce scenarios, so it loads
with the first sampler pass, not with this module.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

from . import _SIMULATION_NAMES
from .analytic_solver import _profit_at
from .game_model import (
    MarketParams,
    ParameterError,
    _check_demand,
    _is_integer,
    _pool_variance,
    pooling_factor,
    validate_params,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

__all__ = sorted(_SIMULATION_NAMES)  # the package lists them, to serve them lazily

# Counter-based generator: reproducible across runs and machines for a fixed
# seed, and recorded in every DemandMatrix for auditability.
RNG_ALGORITHM = "numpy-philox4x64"


# Matrix entries per block when a pass draws the scenarios (256 KiB of
# float64, at least one row): its scratch memory does not grow with count.
_BLOCK_ELEMENTS = 1 << 15

# Entries in the largest float64 array numpy can address: its intp is the
# platform's Py_ssize_t, whose maximum is sys.maxsize.
_MAX_ENTRIES = sys.maxsize // 8


def _block_rows(n: int) -> int:
    """Rows per block of a pass over n columns: about _BLOCK_ELEMENTS entries,
    at least one row."""
    return max(1, _BLOCK_ELEMENTS // n)


# numpy sums a row of fewer than 8 entries left to right; wider rows it
# sums pairwise.
_PAIRWISE_UNROLL = 8


def _row_sums(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """block.sum(axis=1, out=out), bit for bit.

    numpy pays a fixed cost per row, which dominates at a few columns; a row
    of fewer than 8 entries it sums left to right from 0.0, so here the
    columns are added in turn instead. Wider blocks go to numpy.
    """
    import numpy as np
    n = block.shape[1]
    if n >= _PAIRWISE_UNROLL:
        return block.sum(axis=1, out=out)
    np.add(block[:, 0], 0.0, out=out)
    for j in range(1, n):
        out += block[:, j]
    return out


@dataclass(frozen=True, eq=False, kw_only=True)
class DemandMatrix:
    """Joint demand scenarios: `count` rows of draws, one column per agent.

    The fields are the sampler's arguments (see `sample_demands`, which
    builds one), checked when the instance is made: n, mu, sigma and
    rho_target by `game_model._check_demand`, the demand law's one rule and
    messages, which validate_params and `pooling_factor` share, then count,
    seed and the size. So every instance is one `sample_demands` would
    return, and `dataclasses.replace` checks them again. Nothing is drawn
    then. The estimators and `dump_scenarios` draw the scenarios block by
    block, in O(block + count) memory, never the count x n matrix. Reading
    `scenarios` draws the same blocks into the whole matrix and keeps it,
    read-only, for the caller; no pass reads it, so every pass gives the
    same bits, fixed by the recipe. At rho = 1 every agent sees one demand,
    so a pass draws only that column; `scenarios` and `dump_scenarios`
    repeat it into the n columns.

    An instance holds the per-scenario totals of the last x the estimators
    reduced it at, so estimating the profit and the transshipment at one x
    takes one pass, and a new x takes another. They are kept in the instance
    dict, as `scenarios` is, not in a field, so `dataclasses.fields`,
    `asdict` and `repr` leave them out. Instances are immutable, and equal
    only to themselves.
    """

    n: int
    count: int
    seed: int
    rho_target: float
    mu: float = field(repr=False)
    sigma: float = field(repr=False)
    rng_algorithm: str = field(default=RNG_ALGORITHM, init=False)

    def __post_init__(self) -> None:
        n, count, seed, rho = self.n, self.count, self.seed, self.rho_target
        _check_demand(n, self.mu, self.sigma, rho)  # validate_params' rule, at n agents
        if not _is_integer(count) or count < 1:
            raise ParameterError(f"count must be an integer >= 1, got {count!r}")
        if not (_is_integer(seed) and 0 <= seed < 2**128):
            raise ParameterError(f"seed must be an integer in [0, 2**128), got {seed!r}")
        n, count = int(n), int(count)
        if count * n > _MAX_ENTRIES:
            raise ParameterError(f"count * n = {count * n} entries exceed the largest "
                                 f"array numpy can hold ({_MAX_ENTRIES})")
        # numpy integers are recorded as int, and every real number as a float
        for name, value in (("n", n), ("count", count), ("seed", int(seed)), ("mu", float(self.mu)),
                            ("sigma", float(self.sigma)), ("rho_target", float(rho))):
            object.__setattr__(self, name, value)

    @property
    def _k(self) -> int:
        """Normals drawn per scenario, and the columns of every block a pass
        sees: 1 at rho = 1, where every agent has the same demand, else n."""
        return 1 if self.rho_target == 1.0 else self.n

    def _draw(self):
        """Yield (first row, block) over the count x k scenarios, in order, in
        blocks of about _BLOCK_ELEMENTS entries: every pass's one source.

        Per scenario D = mu + scale * Z + weight * Zbar, the form of
        sample_demands with b^2 = _pool_variance(k, rho), and Z drawn from
        Philox keyed by the seed, k normals per scenario. Each block is drawn
        and transformed in place in one reused buffer, which the next step
        overwrites. Philox's ziggurat normals use a variable number of
        counters, so the blocks come in order from one generator, which
        reproduces the stream of a single count x k draw bit for bit. Each row
        mean is the row's sum (see _row_sums) divided by k, as ndarray.mean
        forms it, over its own row, so the result does not depend on the
        block size. Overflow gives inf entries silently, for the caller to
        reject.

        At rho = 1 every column is the same demand, so k = 1: the column is
        drawn as a single agent's (a = b = 1), which makes the stream that of
        n = 1 for the same mu, sigma, count and seed. Otherwise k = n.
        """
        import numpy as np
        count, mu, k = self.count, self.mu, self._k
        # A single agent has no pairwise correlation, so rho drops out (a = b = 1).
        a = math.sqrt(1.0 - self.rho_target) if k > 1 else 1.0
        b = math.sqrt(_pool_variance(k, self.rho_target))
        scale, weight = self.sigma * a, self.sigma * (b - a)
        # The factor term weight * Zbar is a signed zero when weight = 0, and
        # mu + (+-0) = mu, so no row mean is needed. At mu = -0.0 the sign of a
        # zero entry follows the sign of its row mean, so a zero mu takes the
        # full form.
        factor = weight != 0.0 or mu == 0.0
        rows = min(_block_rows(k), count)
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        buffer = np.empty((rows, k))
        means = np.empty(rows) if factor else None
        for lo in range(0, count, rows):
            size = min(rows, count - lo)
            block = buffer[:size]
            rng.standard_normal(out=block)
            with np.errstate(over="ignore", invalid="ignore"):
                if factor:
                    shift = _row_sums(block, means[:size])
                    shift /= k
                    shift *= weight
                    shift += mu
                block *= scale
                block += shift[:, np.newaxis] if factor else mu
            yield lo, block

    def _finite(self, lo: int, block: np.ndarray) -> np.ndarray:
        """`block`, whose first row is scenario `lo`; a non-finite entry raises
        a one-line ValueError naming its scenario."""
        import numpy as np
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            row = lo + int(np.argmin(finite))
            raise ValueError(f"scenario demands are not finite from row {row}: mu = {self.mu!r} "
                             f"and sigma = {self.sigma!r} overflow the float range")
        return block

    @cached_property
    def scenarios(self) -> np.ndarray:
        """The (count, n) matrix, drawn on the first read, then kept read-only
        for the caller; no pass reads it. Entries that overflow raise ValueError.
        """
        import numpy as np
        matrix = np.empty((self.count, self._k))
        for lo, block in self._draw():
            matrix[lo:lo + block.shape[0]] = self._finite(lo, block)
        if self._k < self.n:
            matrix = np.repeat(matrix, self.n, axis=1)
        matrix.flags.writeable = False
        return matrix


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float
    count: int


def sample_demands(n: int, mu: float, sigma: float, rho: float,
                   count: int, seed: int) -> DemandMatrix:
    """`count` independent scenarios from the equicorrelated n-variate normal.

    Mean mu * 1, covariance sigma^2 * [(1 - rho) I + rho 11^T]; requires
    n, mu, sigma and rho by the demand law's one rule, with the messages of
    validate_params and pooling_factor (real and finite mu and sigma,
    sigma > 0, an integer n >= 1, -1 < rho <= 1 and rho > -1/(n-1), decided
    exactly, in that order), then an integer count >= 1, an integer seed in
    [0, 2**128) (bools are not integers here), and a count x n that numpy
    can address. Each violation raises a one-line ParameterError from this
    call, the first one found. Identical (seed, arguments) give
    bit-identical scenarios.

    Uses the one-factor representation of the equicorrelated normal (Tong,
    The Multivariate Normal Distribution, 1990, section 8.2): with Z the
    standard normal draws of a scenario and Zbar their mean,

        D = mu + sigma * (a * Z + (b - a) * Zbar),
        a = sqrt(1 - rho),  b = sqrt(1 + (n - 1) rho),

    which has unit variances and correlation rho, exactly, across the whole
    valid range, b with pooling_factor's exact 1 + (n - 1) rho. It costs O(n)
    per scenario. At rho = 0 (b - a = 0) or n = 1 the result is
    mu + sigma * Z, formed without the row means when mu != 0. At rho = 1
    (a = 0) every column is one demand, so one normal is drawn per scenario:
    the scenarios are the n = 1 scenarios of the same mu, sigma, count and
    seed, repeated into n columns bit for bit. At rho < 1 every scenario
    draws n Philox normals. Nothing is drawn here: see DemandMatrix.
    """
    return DemandMatrix(n=n, count=count, seed=seed, rho_target=rho, mu=mu, sigma=sigma)


def _surplus_shortage(x: float, samples: DemandMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-scenario totals S_H = sum_i max(x - D_i, 0) and S_E = sum_i max(D_i - x, 0).

    Reduces each block of the scenarios through one reused scratch buffer
    while the block is still in cache, each row on its own, so the totals do
    not depend on the block size. At rho < 1 the totals are bit for bit the
    row sums ndarray.sum forms (see _row_sums). At rho = 1 a block is the one
    column every agent sees, so each agent has the same h = max(x - D, 0)
    and e = max(D - x, 0), and the totals are n * h and n * e, each one
    multiply, correctly rounded. Overflow gives inf or nan silently, for the
    caller to reject.
    """
    import numpy as np
    count, n, k = samples.count, samples.n, samples._k
    surplus = np.empty(count)
    shortage = np.empty(count)
    buffer = np.empty((min(_block_rows(k), count), k))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, block in samples._draw():
            hi = lo + block.shape[0]
            scratch = buffer[:block.shape[0]]
            np.subtract(x, block, out=scratch)
            _add_up(scratch, n, surplus[lo:hi])
            np.subtract(block, x, out=scratch)
            _add_up(scratch, n, shortage[lo:hi])
    return surplus, shortage


def _add_up(excess: np.ndarray, n: int, out: np.ndarray) -> None:
    """`out` = the row sums of max(excess, 0) over n agents; `excess` holds
    n columns, or at rho = 1 the one column all n agents share, whose sum is
    n times it (+0.0 for a zero, as _row_sums starts from 0.0)."""
    import numpy as np
    np.maximum(excess, 0.0, out=excess)
    _row_sums(excess, out)
    if excess.shape[1] < n:
        out *= n


def _totals(x: float, samples: DemandMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(S_H, S_E) at x, reduced once per x.

    `samples` holds the totals of the last x it was reduced at, as
    (x.hex(), S_H, S_E) under `_last_totals` in its instance dict, keyed by
    the exact double (a -0.0 is not a 0.0); its scenarios are fixed by its
    seed, so the entry cannot go stale. The entry is replaced whole, so
    concurrent callers at worst repeat a pass. A non-finite x, an n * x that
    overflows, or totals that are not finite raise ValueError.
    """
    import numpy as np
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"quantity x must be finite, got {x!r}")
    if not math.isfinite(samples.n * x):
        raise ValueError(f"n * x overflows at quantity x = {x!r}, n = {samples.n}")
    key = x.hex()
    held = samples.__dict__.get("_last_totals")
    if held is not None and held[0] == key:
        return held[1], held[2]
    surplus, shortage = _surplus_shortage(x, samples)
    if not (np.isfinite(surplus).all() and np.isfinite(shortage).all()):
        raise ValueError(f"surplus or shortage totals are not finite at quantity x = {x!r}")
    surplus.flags.writeable = shortage.flags.writeable = False
    samples.__dict__["_last_totals"] = (key, surplus, shortage)
    return surplus, shortage


def _summarize(values: np.ndarray, x: float) -> McEstimate:
    import numpy as np
    count = values.shape[0]
    if count < 2:
        raise ValueError("at least 2 scenarios are needed for a standard error")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
        std_error = float(values.std(ddof=1) / math.sqrt(count))
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise ValueError(f"estimate is not finite at quantity x = {x!r}: "
                         f"mean {mean!r}, std error {std_error!r}")
    return McEstimate(mean=mean, std_error=std_error, count=count)


def estimate_profit(x: float, samples: DemandMatrix, params: MarketParams) -> McEstimate:
    """Monte Carlo estimate of the coalition profit at common quantity x.

    Per scenario: sum_i [r min(x, D_i) + nu H_i - c x] plus the pooled
    recourse profit p * min(sum H, sum E) (the identical-agent shortcut; its
    agreement with the general transportation solver is checked separately).
    Since min(x, D_i) = x - H_i, the first sum is n x (r - c) - (r - nu) S_H.
    A non-finite x, or an x so large that a total or the estimate overflows,
    raises ValueError.
    """
    import numpy as np
    econ = validate_params(params)
    surplus, shortage = _totals(x, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        profit = samples.n * x * (params.r - params.c) - (params.r - params.nu) * surplus
        profit += econ.p * np.minimum(surplus, shortage)
    return _summarize(profit, x)


def estimate_transshipment(x: float, samples: DemandMatrix) -> McEstimate:
    """Monte Carlo estimate of the transshipped amount min(sum H, sum E) at x.

    A non-finite x, or an x so large that a total overflows, raises ValueError.
    """
    import numpy as np
    surplus, shortage = _totals(x, samples)
    return _summarize(np.minimum(surplus, shortage), x)


def brute_force_optimal(params: MarketParams, n: int, grid_half_width: float,
                        grid_points: int) -> tuple[float, float]:
    """Maximize the closed-form profit on a grid around the demand mean.

    Returns (best x, best profit) over grid_points equally spaced quantities
    in [mu - w*sigma, mu + w*sigma], w = grid_half_width: the first grid point
    where J_n is largest, exactly as a scan that evaluates J_n at each point of
    np.linspace(-w, w, grid_points) in turn and keeps the first maximum. Grid
    search is method-independent of the root-finder, so agreement within one
    grid spacing validates both the first-order condition and its solver.

    The search takes O(sqrt(grid_points)) evaluations of J_n in floats, each
    at a point formed from its index by numpy's linspace recipe, so nothing
    grows with grid_points and numpy is not needed. With s = isqrt(points - 1),
    a coarse pass evaluates every s-th point and the last. From the first
    coarse maximum c a walk moves left, then right, one coarse interval at a
    time, scanning each whole: it stops once the value at the near end of the
    next interval, plus 2 * eps, is below the best so far. Each side's first
    interval ends at c, so it is scanned unless the other side already found
    a point better by 2 * eps; on a flat profile every point is scanned.

    Why the result is exact: J_n is concave in y (g*x is linear, A is convex,
    and t, p >= 0), and eps bounds the absolute error of one computed value,

        eps = n * (1e-12 * (|g| (|mu| + sigma w) + (t + p) sigma (w + 1)) + 2^-1070).

    On the grid |x| <= |mu| + sigma w, and 0 <= A(y), A(L y)/L <= max(y, 0) +
    phi(0) <= w + 1. A's worst measured relative error is 1,297 * 2^-52
    (2.9e-13, in the lower tail); forming x, the products and the sum add a
    few roundings of 2^-53 to each term, and 2^-1070 covers roundings among
    subnormals. So where the computed J(y_e) + 2 eps is below the computed
    best at some y_b > y_e, the exact J(y_e) is below the exact J(y_b);
    concavity keeps every exact value left of y_e at or below J(y_e), so every
    computed value there is strictly below the best, and none is the first
    maximum. The right side is the mirror image.

    A width whose double 2w overflows raises ValueError, and so does a nan or
    +inf profit, from overflow at huge widths, which grows toward the grid's
    ends: point 0 is evaluated first and the last point in the coarse pass.
    """
    econ = validate_params(params)
    if not _is_integer(grid_points) or grid_points < 3 or grid_points % 2 == 0:
        raise ValueError(f"grid_points must be an odd integer >= 3, got {grid_points!r}")
    if not (math.isfinite(2.0 * grid_half_width) and grid_half_width > 0):
        raise ValueError(f"grid_half_width must be finite and positive, and 2 * grid_half_width "
                         f"finite, got {grid_half_width!r}")
    L = pooling_factor(n, params.rho)
    mu, sigma, t, w = params.mu, params.sigma, params.t, grid_half_width
    last = int(grid_points) - 1
    delta = 2.0 * w
    step = delta / last

    def point(k: int) -> float:
        # numpy's recipe: k * step - w, or (k / last) * 2w where the step
        # underflows to 0 (subnormal widths), and +w exactly at the end.
        if k == last:
            return w
        return (k * step if step else k / last * delta) - w

    def profit(k: int) -> float:
        y = point(k)
        value = _profit_at(y, n, L, econ, mu, sigma, t)
        if math.isnan(value) or value == math.inf:
            raise ValueError(f"expected profit is {value!r} at x = {mu + sigma * y!r}")
        return value

    eps = n * (1e-12 * (abs(econ.g) * (abs(mu) + sigma * w) + (t + econ.p) * sigma * (w + 1.0))
               + 2.0**-1070)
    s = math.isqrt(last)
    best_k, best = 0, profit(0)
    for k in range(s, last + s, s):  # the coarse points: multiples of s, then last
        k = min(k, last)
        value = profit(k)
        if value > best:
            best_k, best = k, value
    # Walk out from the coarse maximum, left then right; lo and hi stay coarse points.
    lo = hi = best_k
    lo_value = hi_value = best
    while lo > 0 and not lo_value + 2.0 * eps < best:
        for k in range(lo - 1, (lo - 1) // s * s - 1, -1):
            value = profit(k)
            if value >= best:  # left of every point scanned so far
                best_k, best = k, value
        lo, lo_value = k, value
    while hi < last and not hi_value + 2.0 * eps < best:
        for k in range(hi + 1, min(hi + s, last) + 1):
            value = profit(k)
            if value > best:
                best_k, best = k, value
        hi, hi_value = k, value
    y = point(best_k)
    if best == -math.inf:
        raise ValueError(f"expected profit is {best!r} at x = {mu + sigma * y!r}")
    return mu + sigma * y, best


def dump_scenarios(samples: DemandMatrix, path: str | os.PathLike[str]) -> None:
    """Write scenarios to CSV (scenario_id, D_1..D_n) at full precision.

    Rows are drawn block by block as they are written, never held whole; at
    rho = 1 each row's one demand is formatted once and written n times. A
    block with a non-finite entry raises ValueError, and the file then holds
    the rows before it.
    """
    repeats = samples.n // samples._k
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario_id"] + [f"D_{j + 1}" for j in range(samples.n)])
        for lo, block in samples._draw():
            writer.writerows([lo + i] + [repr(d) for d in row] * repeats
                             for i, row in enumerate(samples._finite(lo, block).tolist()))
