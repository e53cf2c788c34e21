import functools
import math

import numpy as np
import pytest

from transship.normal_math import cdf_antiderivative, std_cdf, std_inv_cdf, std_pdf

PHI_AT_ZERO = 0.3989422804014327


def simpson(f, a, b, intervals):
    """Composite Simpson quadrature; oracle independent of the closed forms."""
    if intervals % 2 == 1:
        intervals += 1
    xs = np.linspace(a, b, intervals + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / intervals
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def bisect_cdf(p, tol=1e-14):
    """Inverse cdf by plain bisection on std_cdf; oracle for std_inv_cdf."""
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if std_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPdf:
    def test_at_zero(self):
        assert std_pdf(0.0) == pytest.approx(PHI_AT_ZERO, abs=1e-16)

    def test_at_one(self):
        # exp(-1/2)/sqrt(2*pi) evaluated at high precision
        assert std_pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-16)

    def test_symmetry(self):
        for y in np.linspace(0.0, 8.0, 33):
            assert std_pdf(y) == std_pdf(-y)

    def test_positive(self):
        assert all(std_pdf(y) > 0.0 for y in np.linspace(-30, 30, 61))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            std_pdf(bad)


class TestCdf:
    def test_at_zero(self):
        assert std_cdf(0.0) == 0.5

    def test_tail_saturation(self):
        assert abs(std_cdf(40.0) - 1.0) <= 1e-15
        assert std_cdf(-40.0) <= 1e-300

    def test_derived_value(self):
        # oracle: quadrature of std_pdf (mass below -13 is ~1e-39, negligible)
        y = 1.959963984540054
        oracle = simpson(std_pdf, -13.0, y, 30000)
        assert oracle == pytest.approx(0.975, abs=1e-11)
        assert std_cdf(y) == pytest.approx(0.975, abs=1e-12)

    def test_strictly_increasing(self):
        grid = np.linspace(-8.0, 8.0, 401)
        values = [std_cdf(y) for y in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_reflection(self):
        for y in np.linspace(-8.0, 8.0, 81):
            assert std_cdf(y) + std_cdf(-y) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            std_cdf(bad)


class TestInvCdf:
    def test_median(self):
        assert std_inv_cdf(0.5) == 0.0

    def test_derived_value(self):
        oracle = bisect_cdf(0.75)
        assert oracle == pytest.approx(0.6744897501960817, abs=1e-13)
        assert std_inv_cdf(0.75) == pytest.approx(0.6744897501960817, abs=1e-13)

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.37, 0.45):
            assert std_inv_cdf(p) == pytest.approx(-std_inv_cdf(1.0 - p), abs=1e-13)

    def test_strictly_increasing(self):
        ps = np.linspace(0.001, 0.999, 201)
        values = [std_inv_cdf(p) for p in ps]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_round_trip(self):
        lower = np.geomspace(1e-10, 0.5, 60)
        for p in np.concatenate([lower, 1.0 - lower]):
            assert abs(std_cdf(std_inv_cdf(p)) - p) <= 1e-12

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_relative_accuracy_near_median(self, sign):
        # Phi^-1(1/2 + d) = sqrt(2 pi) d (1 + pi d^2/3 + O(d^4)); the O(d^4)
        # term is below 1e-19 for |d| <= 1e-5. p - 0.5 is exact (Sterbenz).
        for offset in np.geomspace(1e-16, 1e-5, 45):
            p = 0.5 + sign * offset
            d = p - 0.5
            assert d != 0.0
            series = math.sqrt(2.0 * math.pi) * d * (1.0 + math.pi * d * d / 3.0)
            assert abs(std_inv_cdf(p) - series) <= 1e-14 * abs(series)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            std_inv_cdf(bad)


class TestCdfAntiderivative:
    def test_at_zero(self):
        assert cdf_antiderivative(0.0) == pytest.approx(PHI_AT_ZERO, abs=1e-16)

    def test_lower_tail_limit(self):
        assert abs(cdf_antiderivative(-40.0)) <= 1e-15

    def test_derived_value(self):
        # oracle: quadrature of std_cdf from far in the lower tail up to 1
        oracle = simpson(std_cdf, -40.0, 1.0, 40000)
        assert oracle == pytest.approx(1.08332, abs=1e-5)
        assert cdf_antiderivative(1.0) == pytest.approx(oracle, abs=1e-8)
        assert cdf_antiderivative(1.0) == pytest.approx(1.0833154705876863, abs=1e-14)

    def test_derivative_is_cdf(self):
        h = 1e-5
        for y in np.linspace(-6.0, 6.0, 61):
            fd = (cdf_antiderivative(y + h) - cdf_antiderivative(y - h)) / (2.0 * h)
            assert fd == pytest.approx(std_cdf(y), abs=1e-8)

    def test_reflection_identity(self):
        for y in np.linspace(-8.0, 8.0, 81):
            assert cdf_antiderivative(y) - cdf_antiderivative(-y) == pytest.approx(y, abs=1e-12)

    def test_non_negative(self):
        assert all(cdf_antiderivative(y) >= 0.0 for y in np.linspace(-40.0, 40.0, 161))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            cdf_antiderivative(bad)


# 50-digit oracle at fixed doubles in both tails. Errors are relative, in
# units of 2**-52: one ulp at the bottom of a binade, half of one at the top.
# Each bound is stated from the formula's own roundings, not from measured
# errors; u = 2**-53 below.
try:
    import mpmath
except ImportError:    # the test extra
    mpmath = None
ORACLE = mpmath.mp.clone() if mpmath else None
if ORACLE is not None:
    ORACLE.dps = 50

TAIL_POINTS = [s * y for y in (0.3, 1.7, 2.6, 3.3, 5.9, 8.5, 10.1, 13.7, 21.1, 29.9, 37.3)
               for s in (-1.0, 1.0)]
QUANTILE_POINTS = [1e-300, 1e-100, 1e-20, 1e-10, 1e-5, 0.01, 0.2, 0.45, 0.5 + 1e-10, 0.8,
                   0.99, 1.0 - 1e-5, 1.0 - 1e-10, 1.0 - 2.0**-50]


def relative_error(got, exact):
    return float(abs(ORACLE.mpf(got) - exact) / abs(exact) / ORACLE.mpf(2) ** -52)


@functools.lru_cache(maxsize=None)
def exact_pdf(y):
    return ORACLE.npdf(y)


@functools.lru_cache(maxsize=None)
def exact_cdf(y):
    return ORACLE.ncdf(y)


@functools.lru_cache(maxsize=None)
def exact_quantile(p):
    """The y with Phi(y) = p for the double p, by Newton on log Phi, which
    keeps full relative accuracy at p = 1e-300; above 1/2 by symmetry from
    1 - p, which is exact in 50 digits."""
    lower = p < 0.5
    q = ORACLE.mpf(p) if lower else 1 - ORACLE.mpf(p)
    y = ORACLE.findroot(lambda y: ORACLE.log(ORACLE.ncdf(y)) - ORACLE.log(q),
                        ORACLE.mpf(std_inv_cdf(float(q))))
    assert abs(ORACLE.ncdf(y) / q - 1) < ORACLE.mpf(10) ** -40
    return y if lower else -y


def pdf_bound(y):
    # fl(0.5 * y * y) is off by up to u * y^2 / 2, which moves exp by as much
    # relatively; exp, the rounded 1/sqrt(2 pi) and the product add 3
    return y * y / 4 + 3


def cdf_bound(y):
    # erfc(-y / sqrt(2)): the argument carries two roundings (2u), which
    # erfc's condition number, at most y^2 + 1, amplifies; libm's erfc is
    # allowed 5 more
    return y * y + 1 + 5


def antiderivative_bound(y):
    # y * Phi(y) + phi(y) with no cancellation: the two primitives' errors,
    # plus the product and the sum
    return pdf_bound(y) + cdf_bound(y) + 2


def cancels(y):
    """Lower-tail points where y * Phi(y) + phi(y) cancels past the bound
    today: all below y = -10, and three of the four between -10 and -2."""
    mark = pytest.mark.xfail(strict=True, reason="A(y) = y Phi(y) + phi(y) cancels for y < 0; "
                             "ROADMAP item 4 evaluates it as phi(y) m(x) K(x)")
    return pytest.param(y, marks=mark) if y < -10.0 or y in (-2.6, -5.9, -8.5) else y


@pytest.mark.skipif(mpmath is None, reason="the oracle needs mpmath")
class TestTailOracle:
    def check(self, name, got, exact, bound):
        error = relative_error(got, exact)
        assert error <= bound, f"{name}: {error:.3g} x 2**-52 relative, above the bound {bound:.3g}"

    @pytest.mark.parametrize("y", TAIL_POINTS)
    def test_pdf(self, y):
        self.check(f"std_pdf({y})", std_pdf(y), exact_pdf(y), pdf_bound(y))

    @pytest.mark.parametrize("y", TAIL_POINTS)
    def test_cdf(self, y):
        self.check(f"std_cdf({y})", std_cdf(y), exact_cdf(y), cdf_bound(y))

    @pytest.mark.parametrize("y", [cancels(y) for y in TAIL_POINTS])
    def test_cdf_antiderivative(self, y):
        exact = y * exact_cdf(y) + exact_pdf(y)
        self.check(f"cdf_antiderivative({y})", cdf_antiderivative(y), exact,
                   antiderivative_bound(y))

    @pytest.mark.parametrize("p", QUANTILE_POINTS)
    def test_inv_cdf(self, p):
        # AS241's rational approximations are good to about 1e-16 relative;
        # the documented bound is a few ulp in both tails, stated here as 5
        self.check(f"std_inv_cdf({p!r})", std_inv_cdf(p), exact_quantile(p), 5.0)
