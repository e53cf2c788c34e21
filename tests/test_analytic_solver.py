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
from transship.game_model import (
    GameType,
    MarketParams,
    ParameterError,
    pooling_factor,
    validate_params,
)
from transship.normal_math import cdf_antiderivative, std_cdf, std_inv_cdf, std_pdf

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

    def test_rejects_non_finite_quantity(self):
        with pytest.raises(ValueError):
            expected_profit(math.nan, 1, MEAN_GAME)


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
    def test_single_agent_zero(self):
        for y in (-2.0, -0.5, 0.0, 0.7, 3.0):
            assert expected_transshipment(y, 1, MEAN_GAME) == 0.0

    def test_perfect_correlation_zero(self):
        params = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=1.0)
        for n in (2, 5):
            for y in (-1.0, 0.0, 2.0):
                assert expected_transshipment(y, n, params) == 0.0

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
