"""Standard normal primitives: pdf, cdf, inverse cdf, and the cdf antiderivative.

Everything downstream (optimality conditions, profit formulas, limits) is built
from these four scalar functions, so they need no third-party dependency (the
inverse cdf is the standard library's) and are accurate to full double
precision in the body of the distribution.
"""

from __future__ import annotations

import math
from statistics import NormalDist

__all__ = ["std_pdf", "std_cdf", "std_inv_cdf", "cdf_antiderivative"]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)

_STD_NORMAL = NormalDist()


def _require_finite(y: float) -> float:
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y!r}")
    return y


def std_pdf(y: float) -> float:
    """Density of the standard normal at y: exp(-y^2/2)/sqrt(2*pi)."""
    y = _require_finite(y)
    return _INV_SQRT_2PI * math.exp(-0.5 * y * y)


def std_cdf(y: float) -> float:
    """P(Z <= y) for standard normal Z, via the complementary error function.

    erfc keeps full relative accuracy in the lower tail, so probabilities
    remain meaningful down to the underflow threshold.
    """
    y = _require_finite(y)
    return 0.5 * math.erfc(-y / _SQRT_2)


def std_inv_cdf(p: float) -> float:
    """Quantile of the standard normal: the y with std_cdf(y) = p, 0 < p < 1.

    Wichura's AS241 (Applied Statistics, 1988) as the standard library's
    NormalDist.inv_cdf computes it: a few ulp in both tails and full relative
    accuracy near p = 1/2, with no refinement step.
    """
    p = float(p)
    # NormalDist.inv_cdf rejects 0 and 1 but returns nan for nan.
    if math.isnan(p) or not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    return _STD_NORMAL.inv_cdf(p)


def cdf_antiderivative(y: float) -> float:
    """Integral of std_cdf from -infinity up to y, in closed form.

    Equals y*Phi(y) + phi(y); non-negative, tends to 0 as y -> -inf and to y
    as y -> +inf.
    """
    y = _require_finite(y)
    value = y * std_cdf(y) + std_pdf(y)
    # Cancellation of two subnormals in the far lower tail can round to a
    # tiny negative; the true value is positive.
    return value if value > 0.0 else 0.0
