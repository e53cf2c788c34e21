import hashlib
import math
import re

import numpy as np
import pytest

from support import edge_markets, random_market_params
from transship import analytic_solver
from transship.analytic_solver import (
    Regime,
    UnsupportedRegimeError,
    expected_profit,
    expected_transshipment,
    equal_allocation,
    finite_rho_limit_diagnostic,
    limit_analysis,
    optimality_residual,
    quantity_sequence,
    solve_optimal_quantity,
)
from transship.core_analysis import characteristic_values, check_equal_allocation_core
from transship.game_model import (
    GameType,
    MarketParams,
    ParameterError,
    pooling_factor,
    validate_params,
)
from transship.normal_math import cdf_antiderivative, std_cdf, std_inv_cdf, std_pdf
from transship.simulation import brute_force_optimal

MEAN_GAME = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=0)
OVER_GAME = MarketParams(r=10, c=4, nu=2, t=1, mu=100, sigma=20, rho=0)   # R = 0.75
UNDER_T2 = MarketParams(r=10, c=8, nu=2, t=2, mu=100, sigma=20, rho=0)    # R = 0.25
UNDER_T6 = MarketParams(r=10, c=8, nu=2, t=6, mu=100, sigma=20, rho=0)
OVER_T6 = MarketParams(r=10, c=4, nu=2, t=6, mu=100, sigma=20, rho=0)


class TestOptimalityResidual:
    def test_mean_game_zero_at_origin(self):
        econ = validate_params(MEAN_GAME)
        for n in (1, 2, 7, 40):
            assert optimality_residual(0.0, n, econ, 0.0) == 0.0

    def test_single_agent_collapses_to_cdf(self):
        econ = validate_params(OVER_GAME)
        y = std_inv_cdf(econ.R)
        assert abs(optimality_residual(y, 1, econ, 0.0)) <= 1e-12

    def test_over_mean_at_origin(self):
        econ = validate_params(OVER_GAME)
        assert econ.gamma == 0.125
        assert optimality_residual(0.0, 4, econ, 0.0) == pytest.approx(-0.25, abs=1e-15)

    def test_strictly_increasing_in_y(self):
        econ = validate_params(OVER_GAME)
        grid = np.linspace(-4.0, 4.0, 81)
        values = [optimality_residual(y, 5, econ, 0.2) for y in grid]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestSolveOptimalQuantity:
    def test_single_newsvendor_reduction(self):
        res = solve_optimal_quantity(1, OVER_GAME)
        assert abs(res.y_opt - std_inv_cdf(0.75)) <= 1e-10
        assert res.x_opt == pytest.approx(100 + 20 * res.y_opt, rel=1e-15)

    def test_mean_game_zero_for_all_sizes(self):
        for n in (1, 3, 17, 500):
            res = solve_optimal_quantity(n, MEAN_GAME)
            assert res.y_opt == 0.0
            assert res.x_opt == 100.0

    def test_frictionless_collapses_to_pooled_fractile(self):
        # t = 0 reduces the condition to Phi(L_n * Y) = R, so Y is Phi^-1(R)/L_n exactly.
        for rho in (0.0, 0.5, -0.9 / 199):
            params = MarketParams(r=10, c=4, nu=2, t=0, mu=100, sigma=20, rho=rho)
            for n in (1, 2, 4, 9, 200):
                res = solve_optimal_quantity(n, params)
                assert res.y_opt == std_inv_cdf(0.75) / pooling_factor(n, rho)

    def test_perfect_correlation_size_independent(self):
        params = MarketParams(r=10, c=4, nu=2, t=1, mu=100, sigma=20, rho=1.0)
        res1 = solve_optimal_quantity(1, params)
        res4 = solve_optimal_quantity(4, params)
        assert res4.y_opt == res1.y_opt

    def test_residual_bound_random_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            params = random_market_params(rng)
            for n in (1, 2, 5, 20, 100):
                res = solve_optimal_quantity(n, params)
                assert res.residual <= 1e-12

    def test_root_between_fractile_and_its_pooled_image(self):
        # With q = Phi^-1(R), the root lies in the closed interval between
        # q/L_n and q; n = 1 leaves only q itself.
        rng = np.random.default_rng(42)
        for _ in range(20):
            params = random_market_params(rng)
            econ = validate_params(params)
            q = std_inv_cdf(econ.R)
            for n in (1, 2, 5, 20, 100):
                for rho in (params.rho, -1.0 / max(n - 1, 1) + 1e-6):
                    at_rho = MarketParams(params.r, params.c, params.nu, params.t,
                                          params.mu, params.sigma, rho)
                    L = pooling_factor(n, rho)
                    y = solve_optimal_quantity(n, at_rho).y_opt
                    assert min(q / L, q) <= y <= max(q / L, q)

    def test_no_pooling_gives_the_fractile_exactly(self):
        # L_n = 1 (n = 1, or rho = 1 for every n) reduces the condition to Phi(Y) = R.
        rng = np.random.default_rng(43)
        markets = [OVER_GAME, UNDER_T2] + [random_market_params(rng) for _ in range(10)]
        for params in markets:
            q = std_inv_cdf(validate_params(params).R)
            assert solve_optimal_quantity(1, params).y_opt == q
            perfect = MarketParams(params.r, params.c, params.nu, params.t,
                                   params.mu, params.sigma, 1.0)
            for n in (1, 4, 200):
                assert solve_optimal_quantity(n, perfect).y_opt == q

    def test_near_singular_correlation_boundary(self):
        # rho just above -1/(n-1) makes the pooling factor huge and the
        # residual nearly a step function; the solver must still hit 1e-12
        for n in (10, 50):
            rho = -1.0 / (n - 1) + 1e-6
            params = MarketParams(r=10, c=4, nu=2, t=1, mu=100, sigma=20, rho=rho)
            res = solve_optimal_quantity(n, params)
            assert res.residual <= 1e-12
            assert pooling_factor(n, rho) > 100.0

    def test_sign_preservation_random_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            params = random_market_params(rng)
            sign = math.copysign(1.0, solve_optimal_quantity(1, params).y_opt)
            for n in (2, 5, 13, 50):
                y = solve_optimal_quantity(n, params).y_opt
                assert math.copysign(1.0, y) == sign

    def test_no_shortage_prob_matches_cdf(self):
        res = solve_optimal_quantity(6, OVER_GAME)
        assert res.no_shortage_prob == std_cdf(res.y_opt)

    def test_bad_coalition_size(self):
        with pytest.raises(ValueError, match=">= 1"):
            solve_optimal_quantity(0, MEAN_GAME)


class TestExpectedProfit:
    @pytest.mark.parametrize("x", [10**400, -10**400], ids=["1e400", "-1e400"])
    def test_refuses_an_exact_quantity_past_the_float_range(self, x):
        with pytest.raises(ParameterError) as info:
            expected_profit(x, 3, MEAN_GAME)
        assert str(info.value) == f"quantity x = {x} outside the float range"

    def test_mean_game_closed_form_value(self):
        # 8 * (50 - 20 * phi(0))
        assert expected_profit(100.0, 1, MEAN_GAME) == pytest.approx(336.1692351357708, abs=1e-9)

    def test_vanishing_sigma_limit(self):
        params = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=1e-9, rho=0)
        for n in (1, 5):
            assert expected_profit(100.0, n, params) == pytest.approx(n * 4 * 100, rel=1e-9)

    def test_optimum_beats_neighbours(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            params = random_market_params(rng)
            for n in (1, 4):
                res = solve_optimal_quantity(n, params)
                best = expected_profit(res.x_opt, n, params)
                assert best >= expected_profit(res.x_opt + 0.1 * params.sigma, n, params)
                assert best >= expected_profit(res.x_opt - 0.1 * params.sigma, n, params)

    def test_profit_field_consistent_with_curve(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            params = random_market_params(rng)
            res = solve_optimal_quantity(3, params)
            assert res.profit == pytest.approx(expected_profit(res.x_opt, 3, params), rel=1e-12)

    def test_unimodal_on_grid(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            params = random_market_params(rng)
            for n in (1, 2, 5, 20):
                res = solve_optimal_quantity(n, params)
                xs = np.linspace(res.x_opt - 3 * params.sigma, res.x_opt + 3 * params.sigma, 101)
                values = [expected_profit(float(x), n, params) for x in xs]
                diffs = np.diff(values)
                # strictly rising then strictly falling: one sign change
                signs = np.sign(diffs)
                changes = np.count_nonzero(signs[:-1] != signs[1:])
                assert changes <= 1

    def test_matches_fractile_form(self):
        # same value as the equivalent fractile-weighted expression
        # n*(g+g~)*(R*(mu+sigma*Y) - gamma*sigma*[phi(Y)+Y*Phi(Y)]
        #           - gamma~*sigma*[phi(L Y)/L + Y*Phi(L Y)])
        rng = np.random.default_rng(51)
        for _ in range(20):
            params = random_market_params(rng)
            econ = validate_params(params)
            n = int(rng.integers(1, 12))
            L = pooling_factor(n, params.rho)
            y = float(rng.uniform(-3, 3))
            x = params.mu + params.sigma * y
            reference = n * (econ.g + econ.g_tilde) * (
                econ.R * (params.mu + params.sigma * y)
                - econ.gamma * params.sigma * (std_pdf(y) + y * std_cdf(y))
                - econ.gamma_tilde * params.sigma * (std_pdf(L * y) / L + y * std_cdf(L * y))
            )
            assert expected_profit(x, n, params) == pytest.approx(reference, rel=1e-12)

    def test_matches_quadrature_of_demand_cdfs(self):
        # first-principles oracle: J_n(X) = n*g*X - n*t*int_{-inf}^{X} F_D
        #                                   - p*int_{-inf}^{nX} F_Z
        # with F_D the demand cdf and F_Z the cdf of the coalition total,
        # both integrated numerically
        def simpson(f, a, b, intervals):
            xs = np.linspace(a, b, intervals + 1)
            ys = np.array([f(x) for x in xs])
            h = (b - a) / intervals
            return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())

        rng = np.random.default_rng(52)
        for _ in range(5):
            params = random_market_params(rng)
            econ = validate_params(params)
            n = int(rng.integers(1, 6))
            x = params.mu + params.sigma * float(rng.uniform(-1.5, 1.5))
            total_mu = n * params.mu
            total_sigma = params.sigma * math.sqrt(n * (1 + (n - 1) * params.rho))
            demand_tail = simpson(
                lambda s: std_cdf((s - params.mu) / params.sigma),
                params.mu - 40 * params.sigma, x, 4000)
            pooled_tail = simpson(
                lambda s: std_cdf((s - total_mu) / total_sigma),
                total_mu - 40 * total_sigma, n * x, 4000)
            oracle = n * econ.g * x - n * params.t * demand_tail - econ.p * pooled_tail
            assert expected_profit(x, n, params) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_quantity(self, x):
        with pytest.raises(ValueError) as info:
            expected_profit(x, 1, MEAN_GAME)
        assert str(info.value) == f"quantity x must be finite, got {x!r}"

    def test_names_a_standardized_quantity_that_overflows(self):
        # x is finite, but (x - mu) / sigma is not at this tiny sigma
        market = MarketParams(r=10, c=6, nu=2, t=1, mu=100, sigma=1e-300, rho=0)
        with pytest.raises(ParameterError) as info:
            expected_profit(1e10, 3, market)
        assert str(info.value) == ("(x - mu) / sigma at x = 10000000000.0 "
                                   "overflows the float range: inf")

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_empty_coalition(self, n):
        with pytest.raises(ParameterError, match=f"^coalition size n must be >= 1, got {n}$"):
            expected_profit(100.0, n, MEAN_GAME)


class TestEqualAllocation:
    def test_mean_game_value(self):
        assert equal_allocation(4, MEAN_GAME) == pytest.approx(360.1057719598567, abs=1e-9)

    def test_single_agent_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            params = random_market_params(rng)
            econ = validate_params(params)
            y1 = std_inv_cdf(econ.R)
            expected = (econ.g + econ.g_tilde) * (econ.R * params.mu - params.sigma * std_pdf(y1))
            assert equal_allocation(1, params) == pytest.approx(expected, rel=1e-10)

    def test_vanishing_sigma_limit(self):
        params = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=1e-9, rho=0)
        assert equal_allocation(7, params) == pytest.approx(4 * 100, rel=1e-9)

    def test_times_n_equals_coalition_profit(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            params = random_market_params(rng)
            for n in (1, 2, 9, 40):
                res = solve_optimal_quantity(n, params)
                assert res.allocation * n == res.profit  # same code path, exact
                assert res.allocation * n == pytest.approx(
                    expected_profit(res.x_opt, n, params), rel=1e-9)


class TestExpectedTransshipment:
    @pytest.mark.parametrize("y", [10**400, -10**400], ids=["1e400", "-1e400"])
    def test_refuses_an_exact_quantity_past_the_float_range(self, y):
        with pytest.raises(ParameterError) as info:
            expected_transshipment(y, 3, MEAN_GAME)
        assert str(info.value) == f"y = {y} outside the float range"

    def test_single_agent_zero(self):
        for y in (-2.0, -0.5, 0.0, 0.7, 3.0):
            assert expected_transshipment(y, 1, MEAN_GAME) == 0.0

    def test_perfect_correlation_zero(self):
        params = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=1.0)
        for n in (2, 5):
            for y in (-1.0, 0.0, 2.0):
                assert expected_transshipment(y, n, params) == 0.0

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_y(self, y):
        with pytest.raises(ValueError) as info:
            expected_transshipment(y, 3, MEAN_GAME)
        assert str(info.value) == f"y must be finite, got {y!r}"

    def test_value_at_origin(self):
        assert expected_transshipment(0.0, 4, MEAN_GAME) == pytest.approx(
            15.957691216057308, abs=1e-12)

    def test_non_negative_everywhere(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            params = random_market_params(rng)
            for y in np.linspace(-8, 8, 33):
                assert expected_transshipment(float(y), 6, params) >= 0.0

    def test_maximum_at_zero(self):
        for n in (2, 4, 10):
            peak = expected_transshipment(0.0, n, MEAN_GAME)
            for delta in (0.1, 0.5, 1.0, 2.0):
                assert peak > expected_transshipment(delta, n, MEAN_GAME)
                assert peak > expected_transshipment(-delta, n, MEAN_GAME)

    def test_derivative_changes_sign_only_at_zero(self):
        # d(omega)/dY = n*sigma*(Phi(Y) - Phi(L_n Y)): positive below 0, negative above
        econ = validate_params(MEAN_GAME)
        L = pooling_factor(4, 0.0)
        for y in np.linspace(-6, -1e-3, 40):
            assert std_cdf(y) - std_cdf(L * y) > 0.0
        for y in np.linspace(1e-3, 6, 40):
            assert std_cdf(y) - std_cdf(L * y) < 0.0

    def test_surplus_shortage_balance_identity(self):
        # E[total surplus] - E[total shortage] = n*sigma*Y, with matching sign
        for y in (-1.5, -0.2, 0.0, 0.4, 2.0):
            for n, sigma in ((3, 20.0), (8, 5.0)):
                surplus = n * sigma * cdf_antiderivative(y)
                shortage = n * sigma * (-y + cdf_antiderivative(y))
                assert surplus - shortage == pytest.approx(n * sigma * y, rel=1e-12, abs=1e-12)
                if y != 0.0:
                    assert math.copysign(1.0, surplus - shortage) == math.copysign(1.0, y)

    @staticmethod
    def mp_transshipment(y, n, L, sigma):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(80):  # A(y) - A(L*y)/L cancels about y**2/2 digits above 0

            def antiderivative(z):
                return z * mp.ncdf(z) + mp.npdf(z)

            y, L = mp.mpf(y), mp.mpf(L)
            return n * sigma * (antiderivative(y) - antiderivative(L * y) / L)

    @pytest.mark.parametrize("y", [3.0, 5.0, 6.0, 7.0, 8.0])
    def test_both_tails_match_mpmath(self, y):
        # Above 0, A(y) and A(L*y)/L agree to 8 digits at y = 5 and to all 16 at y = 8.
        L = pooling_factor(20, 0.0)
        for value in (y, -y):
            exact = self.mp_transshipment(value, 20, L, MEAN_GAME.sigma)
            got = expected_transshipment(value, 20, MEAN_GAME)
            assert abs(got - exact) <= 1e-12 * exact

    def test_even_in_y(self):
        for y in (0.3, 2.0, 6.5):
            for n in (2, 20):
                assert expected_transshipment(y, n, OVER_GAME) == expected_transshipment(
                    -y, n, OVER_GAME)

    def test_deep_over_mean_optimum_matches_mpmath(self):
        # R = 1 - 1e-10 puts Y_n near 6, where A(Y) and A(L*Y)/L agree to 6 digits.
        params = MarketParams(r=10, c=10 - (1 - 1e-10) * 8, nu=2, t=1, mu=100, sigma=20,
                              rho=0.2)
        for n in (2, 20):
            res = solve_optimal_quantity(n, params)
            assert res.y_opt > 6.0
            exact = self.mp_transshipment(res.y_opt, n, pooling_factor(n, 0.2), 20.0)
            assert abs(res.transshipment - exact) <= 1e-12 * exact

    def test_growth_with_coalition_size(self):
        for params in (OVER_GAME, UNDER_T2):
            results, _ = quantity_sequence(params, 200)
            values = [res.transshipment for res in results]
            assert all(b >= a for a, b in zip(values, values[1:]))


class TestLimitAnalysis:
    def test_under_mean_above_cut(self):
        res = limit_analysis(UNDER_T6)
        assert res.game_type is GameType.UNDER_MEAN
        assert res.regime is Regime.AT_OR_ABOVE_CUT
        assert res.cut_value == 4.0
        assert res.phi_y_inf == pytest.approx(1 / 3, abs=1e-15)
        assert res.phi_ly_inf == 0.0
        assert res.y_inf == pytest.approx(std_inv_cdf(1 / 3), abs=1e-13)

    def test_under_mean_below_cut(self):
        res = limit_analysis(UNDER_T2)
        assert res.regime is Regime.BELOW_CUT
        assert res.phi_y_inf == 0.5
        assert res.phi_ly_inf == pytest.approx(1 / 6, abs=1e-15)
        assert res.y_inf == 0.0

    def test_under_mean_exactly_at_cut(self):
        params = MarketParams(r=10, c=8, nu=2, t=4, mu=100, sigma=20, rho=0)
        res = limit_analysis(params)
        assert res.regime is Regime.AT_OR_ABOVE_CUT
        assert res.phi_y_inf == pytest.approx(0.5, abs=1e-15)
        assert res.phi_ly_inf == 0.0
        # continuity: the below-cut row gives the same pair at the cut
        below = limit_analysis(MarketParams(r=10, c=8, nu=2, t=4 - 1e-9, mu=100, sigma=20, rho=0))
        assert below.phi_y_inf == pytest.approx(res.phi_y_inf, abs=1e-9)
        assert below.phi_ly_inf == pytest.approx(res.phi_ly_inf, abs=1e-9)

    def test_over_mean_above_cut(self):
        res = limit_analysis(OVER_T6)
        assert res.game_type is GameType.OVER_MEAN
        assert res.regime is Regime.AT_OR_ABOVE_CUT
        assert res.cut_value == 4.0
        assert res.phi_y_inf == pytest.approx(2 / 3, abs=1e-15)
        assert res.phi_ly_inf == 1.0

    def test_over_mean_below_cut(self):
        res = limit_analysis(OVER_GAME)
        assert res.regime is Regime.BELOW_CUT
        assert res.phi_y_inf == 0.5
        # 1 - (g~ - t/2)/p = 1 - 1.5/7
        assert res.phi_ly_inf == pytest.approx(1 - 1.5 / 7, abs=1e-15)

    def test_mean_game(self):
        res = limit_analysis(MEAN_GAME)
        assert res.game_type is GameType.MEAN
        assert res.regime is Regime.BELOW_CUT
        assert res.phi_y_inf == 0.5
        assert res.phi_ly_inf == 0.5
        assert res.y_inf == 0.0

    def test_rejects_correlated_demands(self):
        params = MarketParams(r=10, c=8, nu=2, t=2, mu=100, sigma=20, rho=0.3)
        with pytest.raises(UnsupportedRegimeError, match="rho = 0"):
            limit_analysis(params)

    def test_finite_rho_diagnostic(self):
        params = MarketParams(r=10, c=4, nu=2, t=1, mu=100, sigma=20, rho=1.0)
        assert finite_rho_limit_diagnostic(params) == pytest.approx(std_inv_cdf(0.75), abs=1e-10)
        params = MarketParams(r=10, c=4, nu=2, t=1, mu=100, sigma=20, rho=0.25)
        y = finite_rho_limit_diagnostic(params)
        econ = validate_params(params)
        resid = econ.gamma * std_cdf(y) + econ.gamma_tilde * std_cdf(y / 0.5) - econ.R
        assert abs(resid) <= 1e-12
        with pytest.raises(UnsupportedRegimeError):
            finite_rho_limit_diagnostic(MEAN_GAME)  # rho = 0

    def test_convergence_toward_limit(self):
        res = limit_analysis(OVER_T6)
        gaps = [abs(solve_optimal_quantity(n, OVER_T6).no_shortage_prob - res.phi_y_inf)
                for n in (10, 100, 1000)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-2

    def test_finite_rho_diagnostic_is_the_large_n_attractor(self):
        params = MarketParams(r=10, c=4, nu=2, t=1, mu=100, sigma=20, rho=0.25)
        target = finite_rho_limit_diagnostic(params)
        gap_small = abs(solve_optimal_quantity(100, params).y_opt - target)
        gap_large = abs(solve_optimal_quantity(100_000, params).y_opt - target)
        assert gap_large < gap_small
        assert gap_large <= 1e-3

    def test_limits_keep_their_bits(self):
        # sha256 of repr(limit_analysis(p)), one line per rho = 0 market:
        # seeded over- and under-mean markets, mean markets, and R = 1e-10 and
        # 1 - 1e-10 with t below, at and above the cut.
        rng = np.random.default_rng(2101)
        markets = [random_market_params(rng, rho=0.0) for _ in range(300)]
        for _ in range(20):
            r, nu = rng.uniform(5.0, 50.0), rng.uniform(0.5, 4.0)
            markets.append(MarketParams(r=r, c=r - 0.5 * (r - nu), nu=nu,
                                        t=(r - nu) * rng.uniform(0.0, 0.95),
                                        mu=100, sigma=20, rho=0))
        for fractile in (1e-10, 1.0 - 1e-10):
            r, nu = rng.uniform(5.0, 50.0), rng.uniform(0.5, 4.0)
            w = min(fractile, 1.0 - fractile) * (r - nu)
            markets += [MarketParams(r=r, c=r - fractile * (r - nu), nu=nu, t=t,
                                     mu=100, sigma=20, rho=0)
                        for t in (0.0, 0.5 * w, 2.0 * w, 0.5 * (r - nu))]
        results = [limit_analysis(p) for p in markets]
        assert {(res.game_type, res.regime) for res in results} == {
            (GameType.MEAN, Regime.BELOW_CUT),
            *((game, regime) for game in (GameType.OVER_MEAN, GameType.UNDER_MEAN)
              for regime in Regime)}
        reprs = "\n".join(repr(res) for res in results)
        assert hashlib.sha256(reprs.encode()).hexdigest() == (
            "90e50dee2e64594fa512c1ca4da119835a816f23bf2887968ba338986f37f694")


class TestQuantitySequence:
    def test_over_mean_directions(self):
        results, report = quantity_sequence(OVER_GAME, 10)
        ys = [r.y_opt for r in results]
        assert all(a > b for a, b in zip(ys, ys[1:]))
        assert ys[-1] > 0
        lys = [pooling_factor(r.n, 0.0) * r.y_opt for r in results]
        assert all(a < b for a, b in zip(lys, lys[1:]))
        assert report.game_type is GameType.OVER_MEAN
        assert report.y_monotone and report.ly_monotone and report.sign_preserved

    def test_under_mean_directions(self):
        results, report = quantity_sequence(UNDER_T2, 10)
        ys = [r.y_opt for r in results]
        assert all(a < b for a, b in zip(ys, ys[1:]))
        assert ys[-1] < 0
        assert report.y_monotone and report.ly_monotone and report.sign_preserved

    def test_mean_game_all_zero(self):
        results, report = quantity_sequence(MEAN_GAME, 8)
        assert all(r.y_opt == 0.0 for r in results)
        assert report.game_type is GameType.MEAN
        assert report.y_monotone and report.ly_monotone and report.sign_preserved

    def test_perfect_correlation_not_strictly_monotone(self):
        params = MarketParams(r=10, c=4, nu=2, t=1, mu=100, sigma=20, rho=1.0)
        results, report = quantity_sequence(params, 5)
        assert len({r.y_opt for r in results}) == 1
        assert not report.y_monotone
        assert report.sign_preserved

    def test_near_mean_game_reported_as_mean(self):
        # R - 1/2 = -5e-13 is within MEAN_GAME_TOL, yet Y_n is about -1e-12, not 0.
        params = MarketParams(r=10, c=6 + 4e-12, nu=2, t=2, mu=100, sigma=20, rho=0)
        results, report = quantity_sequence(params, 3)
        assert all(-2e-12 < r.y_opt < 0.0 for r in results)
        assert report.game_type is GameType.MEAN
        assert report.y_monotone and report.ly_monotone and report.sign_preserved

    def test_every_result_matches_the_single_size_solve(self):
        rng = np.random.default_rng(44)
        for params in [OVER_GAME, UNDER_T2, MEAN_GAME] + edge_markets(rng, 12):
            results, _ = quantity_sequence(params, 12)
            assert results == [solve_optimal_quantity(m, params) for m in range(1, 13)]

    def test_bad_size(self):
        with pytest.raises(ValueError, match=">= 1, got 0"):
            quantity_sequence(MEAN_GAME, 0)


class TestSizeCap:
    def test_count_above_cap_rejected_before_any_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved a size")

        monkeypatch.setattr(analytic_solver, "_build_result", no_solve)
        for n_max in (analytic_solver._MAX_SIZES + 1, 10**12, 10**30):
            with pytest.raises(ParameterError, match="coalition sizes requested") as info:
                quantity_sequence(MEAN_GAME, n_max)
            assert str(info.value) == (f"{n_max} coalition sizes requested; at most "
                                       f"{analytic_solver._MAX_SIZES} per call")

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(analytic_solver, "_MAX_SIZES", 5)
        assert len(quantity_sequence(OVER_GAME, 5)[0]) == 5
        with pytest.raises(ParameterError, match="6 coalition sizes"):
            quantity_sequence(OVER_GAME, 6)

    def test_cap_counts_sizes_not_n(self):
        for n in (10**12, 10**15):
            res = solve_optimal_quantity(n, OVER_GAME)
            assert res.n == n and res.residual <= 1e-12


class TestSizeType:
    # Each entry point rejects a coalition size that is not an integer with a
    # one-line ParameterError, before any range is built or any solve runs.
    ENTRY_POINTS = {
        "expected_profit": lambda n: expected_profit(100.0, n, UNDER_T2),
        "expected_transshipment": lambda n: expected_transshipment(0.0, n, UNDER_T2),
        "optimality_residual": lambda n: optimality_residual(0.0, n, validate_params(UNDER_T2),
                                                             0.3),
        "solve_optimal_quantity": lambda n: solve_optimal_quantity(n, UNDER_T2),
        "equal_allocation": lambda n: equal_allocation(n, UNDER_T2),
        "quantity_sequence": lambda n: quantity_sequence(UNDER_T2, n),
        "characteristic_values": lambda n: characteristic_values(UNDER_T2, n),
        "check_equal_allocation_core": lambda n: check_equal_allocation_core(UNDER_T2, n),
        "brute_force_optimal": lambda n: brute_force_optimal(UNDER_T2, n, 6.0, 101),
    }

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejects_a_size_that_is_not_an_integer(self, entry, n):
        with pytest.raises(ParameterError) as info:
            self.ENTRY_POINTS[entry](n)
        assert str(info.value) == f"coalition size n must be an integer, got {n!r}"

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_accepts_numpy_integers(self, entry):
        assert self.ENTRY_POINTS[entry](np.int64(3)) == self.ENTRY_POINTS[entry](3)

    @pytest.mark.parametrize("entry", ["solve_optimal_quantity", "equal_allocation"])
    def test_solves_the_largest_numpy_size_as_its_python_int(self, entry):
        # A numpy bound plus one would wrap; the solve loop counts in Python ints.
        largest = 2**63 - 1
        assert self.ENTRY_POINTS[entry](np.int64(largest)) == self.ENTRY_POINTS[entry](largest)

    @pytest.mark.parametrize("n", [np.int32(2**31 - 1), np.int64(2**63 - 1),
                                   np.uint64(2**64 - 1)], ids=repr)
    @pytest.mark.parametrize("entry", ["quantity_sequence", "characteristic_values",
                                       "check_equal_allocation_core"])
    def test_counts_the_sizes_to_the_largest_numpy_size_as_its_python_int(self, entry, n):
        with pytest.raises(ParameterError) as info:
            self.ENTRY_POINTS[entry](n)
        assert str(info.value) == (f"{int(n)} coalition sizes requested; at most "
                                   f"{analytic_solver._MAX_SIZES} per call")


@pytest.mark.parametrize("ts", [None, [1.0, 2.0]], ids=["sizes", "transport-costs"])
def test_solved_size_is_a_python_int(ts):
    # The solve loop builds its range from numpy bounds, and a range yields ints.
    results = list(analytic_solver._solve_sizes(UNDER_T2, np.int64(3), np.int64(3), ts))
    assert [type(res.n) for res in results] == [int] * len(ts or [3])
    assert type(solve_optimal_quantity(np.int64(3), UNDER_T2).n) is int


class TestFloatRange:
    """A size past the float range, or a solution that overflows it, is a
    one-line ParameterError, never a traceback or an inf."""

    @pytest.mark.parametrize("call", [
        lambda n: solve_optimal_quantity(n, MEAN_GAME),
        lambda n: expected_profit(100.0, n, MEAN_GAME),
        lambda n: expected_transshipment(0.5, n, MEAN_GAME),
        lambda n: optimality_residual(0.5, n, validate_params(MEAN_GAME), 0.0),
    ], ids=["solve", "expected_profit", "expected_transshipment", "residual"])
    def test_size_past_the_float_range(self, call):
        with pytest.raises(ParameterError, match="coalition size n exceeds the float range"):
            call(10**400)

    @pytest.mark.parametrize("n", [10**306, 10**307, int(1.7976931348623157e308)],
                             ids=["1e306", "1e307", "float-max"])
    def test_solution_past_the_float_range(self, n):
        # n * allocation passes the float maximum while L_n is still finite
        with pytest.raises(ParameterError) as info:
            solve_optimal_quantity(n, MEAN_GAME)
        message = str(info.value)
        assert "\n" not in message
        assert message.startswith(f"the solution at n = {n:.6g} overflows the float range: ")
        assert "profit = inf" in message

    @pytest.mark.parametrize("n,market,shown", [
        (9, MarketParams(r=0.1, c=0.05, nu=0, t=0.02, mu=0, sigma=1e308, rho=0),
         "x_opt = 0.0, profit = -1.6755575776860177e+307, transshipment = inf"),
        (1, MarketParams(r=1, c=0.3, nu=0, t=0.2, mu=1.5e308, sigma=1e308, rho=0),
         "x_opt = inf, profit = 7.023073857999261e+307, transshipment = 0.0"),
    ], ids=["transshipment", "x_opt"])
    def test_each_field_is_checked(self, n, market, shown):
        with pytest.raises(ParameterError) as info:
            solve_optimal_quantity(n, market)
        assert str(info.value) == f"the solution at n = {n} overflows the float range: {shown}"

    @pytest.mark.parametrize("call,n,shown", [
        (lambda n, market: expected_profit(100.0, n, market), 10**307,
         "the expected profit at x = 100.0, n = 1e+307"),
        # about 7.98 n, so 8e307 at n = 10**307 still fits
        (lambda n, market: expected_transshipment(0.0, n, market), 10**308,
         "the expected transshipment at y = 0.0, n = 1e+308"),
    ], ids=["expected_profit", "expected_transshipment"])
    def test_closed_form_past_the_float_range(self, call, n, shown):
        assert math.isfinite(call(10**305, MEAN_GAME))
        with pytest.raises(ParameterError) as info:
            call(n, MEAN_GAME)
        assert str(info.value) == f"{shown} overflows the float range: inf"

    @pytest.mark.parametrize("call,shown", [
        (lambda market: expected_profit(1e308, 4, market),
         "the expected profit at x = 1e+308, n = 4 overflows the float range: -inf"),
        (lambda market: expected_transshipment(0.0, 9, market),
         "the expected transshipment at y = 0.0, n = 9 overflows the float range: inf"),
    ], ids=["expected_profit", "expected_transshipment"])
    def test_closed_form_past_the_float_range_at_a_few_agents(self, call, shown):
        with pytest.raises(ParameterError) as info:
            call(MarketParams(r=1, c=0.5, nu=0, t=0.2, mu=0, sigma=1e308, rho=0))
        assert str(info.value) == shown

    @pytest.mark.parametrize("x,profit", [(-2e306, -2.4e307), (1e306, -1.2e307)])
    def test_profit_where_the_pooled_quantity_overflows(self, x, profit):
        # L_3 is about 3873, so L * y overflows although J_3 fits: there
        # A(L y)/L is max(y, 0), where cdf_antiderivative(L * y) would raise
        mp = pytest.importorskip("mpmath")
        market = MarketParams(r=10, c=6, nu=2, t=1, mu=100, sigma=20, rho=-0.4999999)
        econ, L = validate_params(market), pooling_factor(3, market.rho)
        assert not math.isfinite(L * ((x - market.mu) / market.sigma))
        with mp.workdps(50):

            def antiderivative(z):
                # A(z) = max(z, 0) + A(-|z|) with A(-|z|) = phi(z)/z^2 (1 + O(1/z^2)):
                # at |z| >= 1e304 that form is exact to 600 digits, and mpmath's
                # erfc cannot take such z
                return max(z, 0) + mp.npdf(z) / z**2

            y = (mp.mpf(x) - market.mu) / market.sigma
            exact = 3 * (econ.g * mp.mpf(x) - market.t * market.sigma * antiderivative(y)
                         - econ.p * market.sigma * antiderivative(L * y) / L)
            got = expected_profit(x, 3, market)
            assert abs(got - exact) <= 1e-15 * abs(exact)
        assert got == pytest.approx(profit, rel=1e-15)

    def test_transshipment_that_fits_where_n_sigma_does_not(self):
        # 4 * 1e308 overflows, but the amount 4 sigma phi(0) (1 - 1/L_4) is
        # 7.98e307, and the solve at 4 agents, whose profit fits too, succeeds
        market = MarketParams(r=1, c=0.5, nu=0, t=0.2, mu=0, sigma=1e308, rho=0)
        amount = 4 * (1e308 * (cdf_antiderivative(0.0) - cdf_antiderivative(0.0) / 2.0))
        assert amount == 7.978845608028655e+307
        assert expected_transshipment(0.0, 4, market) == amount
        assert expected_transshipment(-0.0, 4, market) == amount
        assert solve_optimal_quantity(4, market).transshipment == amount

    def test_finite_transshipment_keeps_its_bits(self):
        # n * sigma first, as before the overflow fallback, wherever that is finite
        rng = np.random.default_rng(31)
        for _ in range(200):
            params = random_market_params(rng, rho_range=(0.0, 1.0))
            n = int(rng.integers(1, 10**6))
            y = float(rng.uniform(-8.0, 8.0))
            L = pooling_factor(n, params.rho)
            width = cdf_antiderivative(-abs(y)) - cdf_antiderivative(-abs(y) * L) / L
            value = n * params.sigma * width
            assert expected_transshipment(y, n, params) == (value if value > 0.0 else 0.0)

    def test_large_finite_solution_is_kept(self):
        res = solve_optimal_quantity(10**305, MEAN_GAME)
        assert math.isfinite(res.profit) and math.isfinite(res.transshipment)

    def test_overflow_from_the_market_alone(self):
        # every size overflows when mu * (r - nu) does; the first one is n = 1
        market = MarketParams(r=10, c=6, nu=2, t=2, mu=1e308, sigma=20, rho=0)
        with pytest.raises(ParameterError, match="at n = 1 overflows"):
            quantity_sequence(market, 3)

    def test_sizes_stream_until_the_first_overflow(self):
        # allocation is about 4e307, so n = 5 is the first size whose profit overflows
        market = MarketParams(r=10, c=6, nu=2, t=2, mu=1e307, sigma=20, rho=0)
        results = analytic_solver._solve_sizes(market, 1, 6)
        assert [next(results).n for _ in range(4)] == [1, 2, 3, 4]
        with pytest.raises(ParameterError, match="at n = 5 overflows"):
            next(results)


def mp_condition_root(econ, L):
    """50-digit root of gamma*Phi(y) + gamma_tilde*Phi(L*y) = R for the same doubles."""
    mp = pytest.importorskip("mpmath")
    q = std_inv_cdf(econ.R)  # a few ulp from Phi^-1(R): widen [q/L, q] by 1e-9 on each side
    with mp.workdps(50):
        R, gam, gamt, L = (mp.mpf(v) for v in (econ.R, econ.gamma, econ.gamma_tilde, L))

        def f(y):
            return gam * mp.ncdf(y) + gamt * mp.ncdf(L * y) - R

        lo, hi = sorted((q / L * (1 - mp.mpf(1e-9)), q * (1 + mp.mpf(1e-9))))
        assert f(lo) < 0 < f(hi)
        while True:
            # Geometric midpoints while the bracket spans more than a factor of 2.
            a, b = sorted((abs(lo), abs(hi)))
            if b - a <= a * mp.mpf(10) ** -45:
                return (lo + hi) / 2
            mid = mp.sign(q) * mp.sqrt(a * b) if b > 2 * a else (lo + hi) / 2
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid


class TestNewtonRoot:
    @pytest.mark.parametrize("rho", [0.0, 0.3])
    @pytest.mark.parametrize("n", [10**12, 10**15, 10**100, 10**300],
                             ids=["1e12", "1e15", "1e100", "1e300"])
    def test_large_coalitions_within_8_ulp(self, n, rho):
        # R = 5/8 and gamma = 1/8 are exact. L_n reaches 1e150 at rho = 0, where an
        # absolute stopping width would lose the root.
        params = MarketParams(10, 5, 2, 1, 100, 20, rho)
        root = mp_condition_root(validate_params(params), pooling_factor(n, rho))
        y = solve_optimal_quantity(n, params).y_opt
        assert abs(y - root) <= 8 * math.ulp(float(root))

    @pytest.mark.parametrize("R", [1e-20, 1e-143, 1e-300])
    def test_deep_lower_tail_within_8_ulp(self, R):
        # Far below 0, Newton's steps shrink to about 1/|y| and progress turns
        # linear; the safeguard must bisect instead of running out of steps.
        params = MarketParams(r=2 * R, c=R, nu=-1.0, t=0.5, mu=100, sigma=20, rho=0)
        econ = validate_params(params)
        for n in (3, 1000, 10**12):
            root = mp_condition_root(econ, pooling_factor(n, 0.0))
            y = solve_optimal_quantity(n, params).y_opt
            assert abs(y - root) <= 8 * math.ulp(float(root))

    def test_tiny_gamma_with_huge_pooling_factor(self):
        # gamma = 3e-261 and L = 1.7e76: a Newton step here can overflow to inf,
        # which must fall back to the bracket, not reach std_cdf.
        params = MarketParams(r=10, c=10 - 3.32e-6 * 8, nu=2, t=2.6e-260, mu=100, sigma=20,
                              rho=0)
        n = 3 * 10**152
        root = mp_condition_root(validate_params(params), pooling_factor(n, 0.0))
        y = solve_optimal_quantity(n, params).y_opt
        assert abs(y - root) <= 8 * math.ulp(float(root))

    def test_cdf_call_budget(self, monkeypatch):
        # Deterministic count; each solve also spends 3 calls on its residual and Phi(Y_n).
        calls = 0

        def counting_cdf(y):
            nonlocal calls
            calls += 1
            return std_cdf(y)

        monkeypatch.setattr(analytic_solver, "std_cdf", counting_cdf)
        rng = np.random.default_rng(61)
        markets = edge_markets(rng, 100) + [random_market_params(rng) for _ in range(20)]
        sizes = (2, 5, 20, 100)
        for params in markets:
            for n in sizes:
                solve_optimal_quantity(n, params)
        assert calls / (len(markets) * len(sizes)) <= 25

    def test_root_stays_in_bracket(self):
        rng = np.random.default_rng(62)
        for params in edge_markets(rng, 100):
            econ = validate_params(params)
            q = std_inv_cdf(econ.R)
            for n in (2, 5, 20, 100, 10**6, 10**12):
                if n > 100 and params.rho < 0.0:
                    continue
                L = pooling_factor(n, params.rho)
                y = solve_optimal_quantity(n, params).y_opt
                assert min(q / L, q) <= y <= max(q / L, q)

    @pytest.mark.parametrize("n", [4, 10**100], ids=["4", "1e100"])
    def test_geometric_fallback_alone_finds_the_root(self, monkeypatch, n):
        # A zero derivative sends every step outside the bracket, so only the
        # guard's geometric midpoints move; they must still close on the root.
        params = MarketParams(10, 5, 2, 1, 100, 20, 0)
        root = mp_condition_root(validate_params(params), pooling_factor(n, 0.0))
        monkeypatch.setattr(analytic_solver, "std_pdf", lambda y: 0.0)
        y = solve_optimal_quantity(n, params).y_opt
        assert abs(y - root) <= 8 * math.ulp(float(root))

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(analytic_solver, "_MAX_NEWTON", 1)
        with pytest.raises(RuntimeError, match="not converged after 1 Newton step") as info:
            solve_optimal_quantity(4, OVER_GAME)
        assert "\n" not in str(info.value)
        # Roots known in closed form take no step.
        for n, params in ((1, OVER_GAME), (4, MarketParams(10, 4, 2, 0, 100, 20, 0))):
            assert solve_optimal_quantity(n, params).y_opt == (
                std_inv_cdf(validate_params(params).R) / pooling_factor(n, params.rho))


class TestFractileRoundedToBound:
    # g/(g + g_tilde) rounds to 1.0 and to 0.0, so Phi^-1(R) is infinite.
    R_ONE = MarketParams(r=1e17, c=2, nu=1, t=1, mu=100, sigma=20, rho=0)
    R_ZERO = MarketParams(r=2e-300, c=1e-300, nu=-1e300, t=0, mu=100, sigma=20, rho=0)

    @pytest.mark.parametrize("params, shown", [(R_ONE, "R = g/(g + g_tilde) = 1.0"),
                                               (R_ZERO, "R = g/(g + g_tilde) = 0.0")])
    def test_solves_raise_parameter_error(self, params, shown):
        econ = validate_params(params)
        names = f"g = {econ.g!r}, g_tilde = {econ.g_tilde!r}"
        for rho in (0.0, 0.5, 1.0):
            at_rho = MarketParams(params.r, params.c, params.nu, params.t,
                                  params.mu, params.sigma, rho)
            for n in (1, 4):
                with pytest.raises(ParameterError, match=re.escape(shown)) as info:
                    solve_optimal_quantity(n, at_rho)
                assert names in str(info.value)
                assert "\n" not in str(info.value)
            with pytest.raises(ParameterError, match=re.escape(shown)):
                quantity_sequence(at_rho, 3)

    def test_closed_forms_that_need_no_quantile_still_work(self):
        params = self.R_ONE
        assert math.isfinite(expected_profit(100.0, 4, params))
        assert limit_analysis(params).game_type is GameType.OVER_MEAN
