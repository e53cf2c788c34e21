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
