import fractions
import math
import sys

import numpy as np
import pytest

from transship import analytic_solver, game_model
from transship.game_model import (
    FeasibilityReport,
    GameType,
    MarketParams,
    ParameterError,
    classify_game,
    demand_feasibility_check,
    load_params,
    params_from_mapping,
    pooling_factor,
    validate_params,
)

MEAN_GAME = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=0)


class TestValidateParams:
    def test_mean_game_derived_values(self):
        econ = validate_params(MEAN_GAME)
        assert econ.g == 4.0
        assert econ.g_tilde == 4.0
        assert econ.p == 6.0
        assert econ.R == 0.5
        assert econ.gamma == 0.25
        assert econ.gamma_tilde == 0.75

    def test_under_mean_derived_values(self):
        econ = validate_params(MarketParams(r=10, c=8, nu=2, t=6, mu=100, sigma=20, rho=0))
        assert econ.g == 2.0
        assert econ.g_tilde == 6.0
        assert econ.p == 2.0
        assert econ.R == 0.25
        assert econ.gamma == 0.75

    def test_transport_cost_too_high(self):
        with pytest.raises(ParameterError, match="t = 9.0 >= r - nu"):
            validate_params(MarketParams(r=10, c=4, nu=2, t=9, mu=100, sigma=20, rho=0))

    @pytest.mark.parametrize(
        "field,value,fragment",
        [
            ("nu", 6.0, "violates nu < c < r"),      # nu == c
            ("nu", 7.0, "violates nu < c < r"),
            ("c", 10.0, "violates nu < c < r"),      # c == r
            ("c", 11.0, "violates nu < c < r"),
            ("t", -0.5, "t = -0.5 < 0"),
            ("t", 8.0, ">= r - nu"),                 # t == r - nu
            ("sigma", 0.0, "sigma = 0.0 <= 0"),
            ("sigma", -1.0, "<= 0"),
            ("rho", -1.0, "outside \\(-1, 1\\]"),
            ("rho", 1.5, "outside \\(-1, 1\\]"),
            ("mu", math.nan, "must be finite"),
            ("r", math.inf, "must be finite"),
        ],
    )
    def test_each_boundary_rejected(self, field, value, fragment):
        params = MarketParams(**{**MEAN_GAME.__dict__, field: value})
        with pytest.raises(ParameterError, match=fragment):
            validate_params(params)

    def test_zero_transport_cost_allowed(self):
        econ = validate_params(MarketParams(r=10, c=6, nu=2, t=0, mu=100, sigma=20, rho=0))
        assert econ.gamma == 0.0
        assert econ.gamma_tilde == 1.0

    def test_rho_one_allowed(self):
        validate_params(MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=1.0))

    def test_invariants_of_derived(self):
        rng = np.random.default_rng(11)
        from support import random_market_params

        for _ in range(50):
            econ = validate_params(random_market_params(rng))
            assert econ.g > 0 and econ.g_tilde > 0 and econ.p > 0
            assert 0 < econ.R < 1
            assert 0 <= econ.gamma < 1
            assert econ.gamma + econ.gamma_tilde == pytest.approx(1.0, abs=1e-15)
            assert econ.R * (econ.g + econ.g_tilde) == pytest.approx(econ.g, rel=1e-12)


class TestClassifyGame:
    def test_over_mean(self):
        econ = validate_params(MarketParams(r=10, c=4, nu=2, t=1, mu=100, sigma=20, rho=0))
        assert econ.R == 0.75
        assert classify_game(econ) is GameType.OVER_MEAN

    def test_under_mean(self):
        econ = validate_params(MarketParams(r=10, c=8, nu=2, t=1, mu=100, sigma=20, rho=0))
        assert econ.R == 0.25
        assert classify_game(econ) is GameType.UNDER_MEAN

    def test_mean(self):
        assert classify_game(validate_params(MEAN_GAME)) is GameType.MEAN

    def test_tolerance_window(self):
        econ = validate_params(MEAN_GAME)
        nudged = type(econ)(**{**econ.__dict__, "R": 0.5 + 1e-13})
        assert classify_game(nudged) is GameType.MEAN
        for R, game in ((0.5 + 1e-11, GameType.OVER_MEAN), (0.5 - 1e-11, GameType.UNDER_MEAN)):
            assert classify_game(type(econ)(**{**econ.__dict__, "R": R})) is game


class TestPoolingFactor:
    def test_single_agent(self):
        assert pooling_factor(1, 0.3) == 1.0

    def test_independent(self):
        assert pooling_factor(4, 0.0) == 2.0

    def test_perfect_correlation(self):
        assert pooling_factor(4, 1.0) == 1.0

    def test_sqrt_n_when_independent(self):
        for n in (1, 2, 9, 16, 100):
            assert pooling_factor(n, 0.0) == pytest.approx(math.sqrt(n), rel=1e-15)

    def test_strictly_increasing_for_rho_below_one(self):
        for rho in (-0.01, 0.0, 0.3, 0.9):
            values = [pooling_factor(n, rho) for n in range(1, 51)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_constant_at_rho_one(self):
        assert all(pooling_factor(n, 1.0) == 1.0 for n in range(1, 20))

    def test_domain_errors(self):
        with pytest.raises(ParameterError, match="not positive-definite"):
            pooling_factor(5, -0.25)  # -1/(n-1) boundary
        with pytest.raises(ParameterError, match="not positive-definite"):
            pooling_factor(5, -0.3)
        with pytest.raises(ParameterError, match=r"^rho = 1.01 outside \(-1, 1\]$"):
            pooling_factor(5, 1.01)
        with pytest.raises(ParameterError, match=">= 1"):
            pooling_factor(0, 0.0)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
    def test_size_past_the_float_range(self, rho):
        largest = int(sys.float_info.max)
        assert pooling_factor(largest, 0.0) == math.sqrt(sys.float_info.max)
        for n in (largest + 1, 10**400):
            with pytest.raises(ParameterError) as info:
                pooling_factor(n, rho)
            assert str(info.value) == ("coalition size n exceeds the float range "
                                       "(> 1.7976931348623157e+308)")

    def test_negative_rho_inside_bound(self):
        assert pooling_factor(5, -0.2) == pytest.approx(math.sqrt(5 / 0.2), rel=1e-15)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, False, "3", None])
    def test_rejects_a_size_that_is_not_an_integer(self, n):
        with pytest.raises(ParameterError) as info:
            pooling_factor(n, 0.3)
        assert str(info.value) == f"coalition size n must be an integer, got {n!r}"

    @pytest.mark.parametrize("rho", [math.nan, np.nan, "0.3", None, True, 0.3j])
    def test_rejects_a_correlation_that_is_not_a_real_number(self, rho):
        with pytest.raises(ParameterError) as info:
            pooling_factor(3, rho)
        # nan is a float, so it is refused as outside (-1, 1], as the sampler does
        assert str(info.value) == ("rho = nan outside (-1, 1]" if isinstance(rho, float)
                                   else f"rho must be a real number, got {rho!r}")

    @pytest.mark.parametrize("rho", [-1.0, -5.0, math.nextafter(-1.0, -math.inf)])
    def test_single_agent_refuses_rho_at_or_below_minus_one(self, rho):
        # As validate_params and the sampler do; n >= 2 refuses such rho at
        # its positive-definite bound.
        econ = validate_params(MEAN_GAME)
        for call in (lambda: pooling_factor(1, rho),
                     lambda: analytic_solver.optimality_residual(0.0, 1, econ, rho)):
            with pytest.raises(ParameterError) as info:
                call()
            assert str(info.value) == f"rho = {rho} outside (-1, 1]"
        assert pooling_factor(1, math.nextafter(-1.0, 0.0)) == 1.0

    @pytest.mark.parametrize("n", [1, 3])
    def test_rejects_minus_infinity(self, n):
        # 1 + (n - 1) rho would be nan at n = 1, and -inf has no exact ratio.
        with pytest.raises(ParameterError) as info:
            pooling_factor(n, -math.inf)
        assert str(info.value) == "rho = -inf outside (-1, 1]"

    @pytest.mark.parametrize("rho", [10**400, -10**400, fractions.Fraction(10**400, 3)])
    def test_refuses_an_exact_rho_past_the_float_range(self, rho):
        # compared exactly, not converted to a float, which would overflow
        with pytest.raises(ParameterError) as info:
            pooling_factor(3, rho)
        assert str(info.value) == f"rho = {rho} outside (-1, 1]"

    def test_refuses_an_exact_rho_that_rounds_to_minus_one(self):
        # -1 + 2**-60 lies inside (-1, 1], but the float it becomes does not
        rho = fractions.Fraction(1 - 2**60, 2**60)
        for n in (1, 2, 3):
            with pytest.raises(ParameterError) as info:
                pooling_factor(n, rho)
            assert str(info.value) == "rho = -1.0 outside (-1, 1]"

    def test_accepts_numpy_and_exact_numbers(self):
        assert pooling_factor(np.int64(4), np.float64(0.0)) == 2.0
        assert pooling_factor(4, 0) == pooling_factor(4, fractions.Fraction(0)) == 2.0
        assert pooling_factor(np.int32(7), np.float32(0.25)) == pooling_factor(7, 0.25)
        near_bound = -1.0 / 999 + 1e-13  # its exact sum is formed in Python ints
        assert pooling_factor(np.int64(1000), near_bound) == pooling_factor(1000, near_bound)

    @pytest.mark.parametrize("n,gap", [(1000, 1e-10), (1000, 1e-13), (10**6, 1e-13)])
    def test_accurate_near_the_lower_bound(self, n, gap):
        # 1 + (n - 1) rho cancels as rho nears -1/(n - 1); formed exactly and
        # rounded once, then divided and square-rooted, L_n is within one
        # rounding of each step: 2**-52 relative.
        mp = pytest.importorskip("mpmath")
        rho = -1.0 / (n - 1) + gap
        with mp.workdps(50):
            exact = mp.sqrt(n / (1 + (n - 1) * mp.mpf(rho)))
            error = abs((mp.mpf(pooling_factor(n, rho)) - exact) / exact)
        assert error <= 2.0**-52

    def test_keeps_its_bits_where_the_sum_is_at_least_a_half(self):
        rng = np.random.default_rng(5)
        for n in [*range(1, 60), 1000, 10**6, 10**12]:
            lower = -1.0 / (n - 1) if n > 1 else -1.0
            for rho in rng.uniform(lower, 1.0, 40).tolist():
                denom = 1.0 + (n - 1) * rho
                if denom >= 0.5:
                    assert pooling_factor(n, rho) == math.sqrt(n / denom)

    def test_lower_bound_is_decided_exactly(self):
        # Doubles within 3 ulp of -1/(n - 1) are accepted exactly when
        # 1 + (n - 1) rho > 0 in exact arithmetic.
        for n in range(2, 400):
            rho = -1.0 / (n - 1)
            for _ in range(3):
                rho = math.nextafter(rho, -1.0)
            for _ in range(7):
                if 1 + (n - 1) * fractions.Fraction(rho) > 0:
                    assert pooling_factor(n, rho) > 0.0
                else:
                    # at n = 2 the bound is -1, which lies outside (-1, 1]
                    message = "not positive-definite" if rho > -1.0 else r"outside \(-1, 1\]"
                    with pytest.raises(ParameterError, match=message):
                        pooling_factor(n, rho)
                rho = math.nextafter(rho, 0.0)

    def test_pool_variance_is_the_rounded_sum_or_else_the_exact_one(self):
        # 1 + (n - 1) rho keeps its bits where it rounds to at least 1/2, and
        # below that, near rho's lower bound, is the exact sum rounded once.
        rng = np.random.default_rng(18)
        sizes = [*rng.integers(1, 2000, 80).tolist(), 10**6, 10**12, 2**60]
        below = 0
        for n in sizes:
            lower = -1.0 / (n - 1) if n > 1 else -1.0
            rhos = [*(lower * rng.uniform(0.0, 1.0, 20)).tolist(),
                    *rng.uniform(lower, 1.0, 20).tolist()]
            rho = lower
            for _ in range(5):
                rho = math.nextafter(rho, 0.0)
                rhos.append(rho)
            for rho in rhos:
                rounded = 1.0 + (n - 1) * rho
                exact = 1 + (n - 1) * fractions.Fraction(rho)
                if exact <= 0:
                    with pytest.raises(ParameterError, match="not positive-definite"):
                        game_model._pool_variance(n, rho)
                elif rounded >= 0.5:
                    assert game_model._pool_variance(n, rho) == rounded
                else:
                    below += 1
                    assert game_model._pool_variance(n, rho) == float(exact)
        assert below > 1000


class TestDemandFeasibility:
    def test_mean_game_feasible(self):
        report = demand_feasibility_check(MEAN_GAME)
        assert isinstance(report, FeasibilityReport)
        assert report.feasible
        assert report.cv == pytest.approx(0.2, abs=1e-15)
        # bound = g / [(g + g~) * phi(0)] = 0.5/phi(0)
        assert report.bound == pytest.approx(1.2533141373155003, abs=1e-12)

    def test_high_cv_infeasible(self):
        report = demand_feasibility_check(
            MarketParams(r=10, c=6, nu=2, t=2, mu=10, sigma=20, rho=0))
        assert not report.feasible
        assert report.cv == pytest.approx(2.0, abs=1e-15)
        assert report.cv > report.bound
        assert report.reason

    def test_vanishing_sigma_always_feasible(self):
        report = demand_feasibility_check(
            MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=1e-9, rho=0))
        assert report.feasible

    def test_fractile_rounded_to_one_rejected(self):
        # R = g/(g + g_tilde) rounds to 1.0, where the bound needs Phi^-1(R)
        with pytest.raises(ParameterError, match="R = g/\\(g \\+ g_tilde\\) = 1.0"):
            demand_feasibility_check(MarketParams(r=1e17, c=2, nu=1, t=1, mu=100, sigma=20, rho=0))

    def test_non_positive_mu_reported_failed(self):
        report = demand_feasibility_check(
            MarketParams(r=10, c=6, nu=2, t=2, mu=0.0, sigma=20, rho=0))
        assert not report.feasible
        assert "mu" in report.reason


class TestConfigLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text(
            "# mean game\n"
            "r = 10\nc = 6\nnu = 2\nt = 2\n"
            "\n"
            "mu = 100  # demand mean\nsigma = 20\nrho = 0.1\n"
        )
        assert load_params(path) == MarketParams(10, 6, 2, 2, 100, 20, 0.1)

    def test_decimal_exactness(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text("r=10\nc=6\nnu=2\nt=0.1\nmu=100\nsigma=20\nrho=0\n")
        assert load_params(path).t == 0.1

    def test_missing_key(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text("r=10\nc=6\nnu=2\nt=2\nmu=100\nsigma=20\n")
        with pytest.raises(ParameterError, match="missing parameter"):
            load_params(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text("r=10\nc=6\nnu=2\nt=2\nmu=100\nsigma=20\nrho=0\nprice=3\n")
        with pytest.raises(ParameterError, match="unknown parameter"):
            load_params(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text("r=ten\nc=6\nnu=2\nt=2\nmu=100\nsigma=20\nrho=0\n")
        with pytest.raises(ParameterError, match="bad number"):
            load_params(path)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text("r 10\n")
        with pytest.raises(ParameterError, match="expected key=value"):
            load_params(path)

    def test_lines_end_at_newline_only(self, tmp_path):
        # A form feed does not end line 1, so its value is a bad number for r,
        # and "oops" is on line 7 of the seven lines.
        path = tmp_path / "ff.cfg"
        path.write_text("r=10\x0cc=6\nnu=2\nt=2\nmu=100\nsigma=20\nrho=0\noops\n")
        with pytest.raises(ParameterError) as info:
            load_params(path)
        assert str(info.value) == f"{path}:1: bad number for r: '10\\x0cc=6'"

    def test_mapping_names_a_misspelled_key(self):
        with pytest.raises(ParameterError) as info:
            params_from_mapping({"price": 10, "c": 6, "nu": 2, "t": 2, "mu": 100, "sigma": 20,
                                 "rho": 0})
        assert str(info.value) == "unknown parameter(s): price"

    def test_mapping_validation(self):
        with pytest.raises(ParameterError, match="missing"):
            params_from_mapping({"r": 10})
        with pytest.raises(ParameterError, match="unknown"):
            params_from_mapping(
                {"r": 10, "c": 6, "nu": 2, "t": 2, "mu": 100, "sigma": 20, "rho": 0, "z": 1})


def test_a_message_shows_a_number_by_str_and_anything_else_by_repr():
    values = ["10", None, 10.0, True, np.float64(3.0), fractions.Fraction(5, 2), 10**5000]
    assert [game_model._shown(v) for v in values] == [
        "'10'", "None", "10.0", "True", "3.0", "5/2", "1.000000e+5000"]


@pytest.mark.parametrize("value", [10**400, -10**400, fractions.Fraction(10**400, 3)],
                         ids=["1e400", "-1e400", "1e400/3"])
@pytest.mark.parametrize("key", game_model.PARAM_KEYS)
def test_a_market_refuses_an_exact_number_past_the_float_range_by_name(key, value):
    values = {"r": 10, "c": 6, "nu": 2, "t": 1, "mu": 100, "sigma": 20, "rho": 0}
    values[key] = value
    for make in (lambda: MarketParams(**values), lambda: params_from_mapping(values)):
        with pytest.raises(ParameterError) as info:
            make()
        assert str(info.value) == f"{key} = {value} outside the float range"
