import csv
import math
import tracemalloc

import numpy as np
import pytest

from support import random_market_params
from transship.analytic_solver import (
    _profit_at,
    expected_profit,
    expected_transshipment,
    solve_optimal_quantity,
)
from transship import simulation
from transship.game_model import MarketParams, ParameterError, pooling_factor, validate_params
from transship.normal_math import cdf_antiderivative, std_cdf, std_pdf
from transship.simulation import (
    RNG_ALGORITHM,
    brute_force_optimal,
    dump_scenarios,
    estimate_profit,
    estimate_transshipment,
    sample_demands,
)

MEAN_GAME = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=0)


def near_lower_rho(n):
    """A correlation just inside the valid region's lower edge -1/(n-1)."""
    return -(1.0 - 1e-6) / max(1, n - 1)


def reference_profits(x, demands, params):
    """Per-scenario coalition profit by the per-element formula: the oracle for
    the fused estimator kernel."""
    econ = validate_params(params)
    surplus = np.maximum(x - demands, 0.0)
    shortage = np.maximum(demands - x, 0.0)
    stage_one = (params.r * np.minimum(x, demands) + params.nu * surplus
                 - params.c * x).sum(axis=1)
    recourse = econ.p * np.minimum(surplus.sum(axis=1), shortage.sum(axis=1))
    return stage_one + recourse


def reference_transshipments(x, demands):
    return np.minimum(np.maximum(x - demands, 0.0).sum(axis=1),
                      np.maximum(demands - x, 0.0).sum(axis=1))


def reference_estimate(values):
    return values.mean(), values.std(ddof=1) / math.sqrt(values.shape[0])


def reference_profit(y, n, L, econ, mu, sigma, t):
    """J_n at standardized quantity y, in scalar floats: the oracle that the
    array profit kernel must match bit for bit."""
    x = mu + sigma * y
    return n * (econ.g * x
                - t * sigma * cdf_antiderivative(y)
                - econ.p * sigma * cdf_antiderivative(L * y) / L)


def reference_brute_force(params, n, grid_half_width, grid_points):
    """The grid search one point at a time."""
    econ = validate_params(params)
    L = pooling_factor(n, params.rho)
    mu, sigma, t = params.mu, params.sigma, params.t
    ys = np.linspace(-grid_half_width, grid_half_width, grid_points)
    best_y = ys[0]
    best_profit = -math.inf
    for y in ys:
        value = reference_profit(float(y), n, L, econ, mu, sigma, t)
        if value > best_profit:
            best_profit = value
            best_y = float(y)
    return mu + sigma * best_y, best_profit


def deep_tail_market(fractile, rho):
    """A market whose critical fractile R is `fractile`, up to rounding."""
    return MarketParams(r=10, c=10 - 8 * fractile, nu=2, t=1, mu=100, sigma=20, rho=rho)


class TestSampleDemands:
    def test_reproducible(self):
        a = sample_demands(4, 100, 20, 0.3, 500, seed=99)
        b = sample_demands(4, 100, 20, 0.3, 500, seed=99)
        assert np.array_equal(a.scenarios, b.scenarios)
        assert a.rng_algorithm == RNG_ALGORITHM

    def test_seed_changes_draws(self):
        a = sample_demands(4, 100, 20, 0.3, 500, seed=99)
        b = sample_demands(4, 100, 20, 0.3, 500, seed=100)
        assert not np.array_equal(a.scenarios, b.scenarios)

    def test_univariate_marginal(self):
        samples = sample_demands(1, 100, 20, 0.0, 100_000, seed=1)
        se = 20 / math.sqrt(samples.count)
        assert abs(samples.scenarios.mean() - 100) <= 4 * se
        assert abs(samples.scenarios.std(ddof=1) - 20) <= 1.0

    def test_perfect_correlation_identical_columns(self):
        for n in (5, 128):
            samples = sample_demands(n, 100, 20, 1.0, 200, seed=2)
            for j in range(1, n):
                assert np.array_equal(samples.scenarios[:, 0], samples.scenarios[:, j])

    @pytest.mark.parametrize("n,rho", [(1, 0.0), (1, 0.5), (1, -0.9), (1, 1.0),
                                       (4, 0.0), (128, 0.0)])
    def test_single_agent_and_independent_draws_are_scaled_normals(self, n, rho):
        # with n = 1 or rho = 0 the one-factor term vanishes: D = mu + sigma * Z exactly
        samples = sample_demands(n, 100, 20, rho, 1000, seed=15)
        z = np.random.Generator(np.random.Philox(key=15)).standard_normal((1000, n))
        assert np.array_equal(samples.scenarios, 100 + 20 * z)

    @pytest.mark.parametrize("rho", [near_lower_rho(128), 0.9])
    def test_equicorrelated_moments_at_n128(self, rho):
        # Sample covariance S of the columns. Its mean diagonal estimates sigma^2,
        # its mean off-diagonal over the mean diagonal estimates rho. Under the
        # model sum(S)/n ~ sigma^2 b^2 chi2(c-1)/(c-1) and trace(S) - sum(S)/n ~
        # sigma^2 (n-1) a^2 chi2((c-1)(n-1))/(c-1), independently, with
        # a^2 = 1 - rho, b^2 = 1 + (n-1) rho; the delta method gives the SEs.
        n, count, sigma = 128, 20_000, 20.0
        samples = sample_demands(n, 100, sigma, rho, count, seed=16)
        total = samples.scenarios.var(axis=0, ddof=1).sum()
        grand = samples.scenarios.sum(axis=1).var(ddof=1)
        variance = total / (n * sigma**2)
        corr = (grand - total) / ((n - 1) * total)
        a2, b2 = 1.0 - rho, 1.0 + (n - 1) * rho
        se_variance = math.sqrt(2 * (b2**2 + (n - 1) * a2**2) / (count - 1)) / n
        se_corr = math.sqrt(2 / (n * (n - 1) * (count - 1))) * a2 * b2
        assert abs(variance - 1.0) <= 5 * se_variance
        assert abs(corr - rho) <= 5 * se_corr

    def test_negative_correlation_recovered(self):
        samples = sample_demands(4, 100, 20, -0.2, 100_000, seed=3)
        corr = np.corrcoef(samples.scenarios.T)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off_diag - (-0.2)) <= 0.02)

    def test_positive_correlation_recovered(self):
        samples = sample_demands(3, 50, 10, 0.6, 100_000, seed=4)
        corr = np.corrcoef(samples.scenarios.T)
        off_diag = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off_diag - 0.6) <= 0.02)

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(n=4, mu=100, sigma=20, rho=-0.5, count=10, seed=0), "positive-definite"),
            (dict(n=4, mu=100, sigma=20, rho=1.2, count=10, seed=0), "outside"),
            (dict(n=4, mu=100, sigma=0.0, rho=0.0, count=10, seed=0), "sigma"),
            (dict(n=4, mu=100, sigma=20, rho=0.0, count=0, seed=0), "count"),
            (dict(n=0, mu=100, sigma=20, rho=0.0, count=10, seed=0), "n must be"),
            (dict(n=4, mu=math.nan, sigma=20, rho=0.0, count=10, seed=0), "mu must be finite"),
            (dict(n=4, mu=math.inf, sigma=20, rho=0.0, count=10, seed=0), "mu must be finite"),
            (dict(n=4, mu=100, sigma=math.nan, rho=0.0, count=10, seed=0), "sigma must be finite"),
            (dict(n=4, mu=100, sigma=math.inf, rho=0.0, count=10, seed=0), "sigma must be finite"),
            (dict(n=4, mu=100, sigma=20, rho=math.nan, count=10, seed=0), "outside"),
        ],
    )
    def test_domain_errors(self, kwargs, fragment):
        with pytest.raises(ParameterError, match=fragment):
            sample_demands(**kwargs)


class TestEstimateProfit:
    def test_deterministic_demand_limit(self):
        params = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=1e-6, rho=0)
        samples = sample_demands(3, 100, 1e-6, 0.0, 1000, seed=5)
        est = estimate_profit(100.0, samples, params)
        assert est.mean == pytest.approx(3 * 4 * 100, rel=1e-6)

    def test_sales_component_matches_antiderivative(self):
        # E[min(X, D)] = X - sigma * A((X - mu)/sigma) for a single newsvendor
        samples = sample_demands(1, 100, 20, 0.0, 100_000, seed=6)
        x = 110.0
        sales = np.minimum(x, samples.scenarios[:, 0])
        closed = x - 20 * cdf_antiderivative((x - 100) / 20)
        se = sales.std(ddof=1) / math.sqrt(samples.count)
        assert abs(sales.mean() - closed) <= 4 * se

    def test_mean_game_agreement_at_optimum(self):
        samples = sample_demands(4, 100, 20, 0.0, 100_000, seed=7)
        est = estimate_profit(100.0, samples, MEAN_GAME)
        closed = expected_profit(100.0, 4, MEAN_GAME)
        assert closed == pytest.approx(1440.4230878394269, abs=1e-9)
        assert abs(est.mean - closed) <= 4 * est.std_error

    def test_single_agent_agreement_at_mean(self):
        samples = sample_demands(1, 100, 20, 0.0, 100_000, seed=17)
        est = estimate_profit(100.0, samples, MEAN_GAME)
        closed = expected_profit(100.0, 1, MEAN_GAME)
        assert closed == pytest.approx(336.1692351357708, abs=1e-9)
        assert abs(est.mean - closed) <= 4 * est.std_error

    def test_std_error_definition(self):
        samples = sample_demands(2, 100, 20, 0.0, 5000, seed=8)
        est = estimate_profit(100.0, samples, MEAN_GAME)
        assert est.count == 5000
        assert est.std_error > 0

    def test_requires_two_scenarios(self):
        samples = sample_demands(2, 100, 20, 0.0, 1, seed=9)
        with pytest.raises(ValueError, match="at least 2"):
            estimate_profit(100.0, samples, MEAN_GAME)


class TestEstimatorKernel:
    @pytest.mark.parametrize("n", [1, 2, 7, 128])
    @pytest.mark.parametrize("rho_kind", ["lower", "0", "0.5", "1"])
    def test_matches_per_element_formula(self, n, rho_kind):
        rho = near_lower_rho(n) if rho_kind == "lower" else float(rho_kind)
        params = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=rho)
        samples = sample_demands(n, 100, 20, rho, 10_000, seed=18)
        x = 103.0
        for est, values in (
            (estimate_profit(x, samples, params),
             reference_profits(x, samples.scenarios, params)),
            (estimate_transshipment(x, samples),
             reference_transshipments(x, samples.scenarios)),
        ):
            mean, std_error = reference_estimate(values)
            assert est.count == samples.count
            assert est.mean == pytest.approx(mean, rel=1e-12)
            assert est.std_error == pytest.approx(std_error, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 128])
    def test_block_size_does_not_change_estimates(self, monkeypatch, n):
        samples = sample_demands(n, 100, 20, 0.3, 3001, seed=19)
        blocked = (estimate_profit(97.0, samples, MEAN_GAME),
                   estimate_transshipment(97.0, samples))
        for block in (1, samples.count, samples.count * n):
            monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", block)
            assert (estimate_profit(97.0, samples, MEAN_GAME),
                    estimate_transshipment(97.0, samples)) == blocked

    def test_memory_stays_below_a_quarter_of_the_matrix(self):
        samples = sample_demands(64, 100, 20, 0.3, 50_000, seed=20)
        for estimate in (lambda: estimate_profit(100.0, samples, MEAN_GAME),
                         lambda: estimate_transshipment(100.0, samples)):
            tracemalloc.start()
            try:
                estimate()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < samples.scenarios.nbytes / 4


class TestEstimateTransshipment:
    def test_single_agent_exactly_zero(self):
        samples = sample_demands(1, 100, 20, 0.0, 500, seed=10)
        est = estimate_transshipment(100.0, samples)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_perfect_correlation_exactly_zero(self):
        samples = sample_demands(4, 100, 20, 1.0, 500, seed=11)
        est = estimate_transshipment(100.0, samples)
        assert est.mean == 0.0

    def test_mean_game_agreement(self):
        samples = sample_demands(4, 100, 20, 0.0, 100_000, seed=12)
        est = estimate_transshipment(100.0, samples)
        closed = expected_transshipment(0.0, 4, MEAN_GAME)
        assert closed == pytest.approx(15.957691216057308, abs=1e-12)
        assert abs(est.mean - closed) <= 4 * est.std_error

    def test_closed_form_agreement_sweep(self):
        # 50 random (params, x, n) tuples at 1e5 scenarios; ~1 chance violation
        # of the 4-sigma band is expected, and any violation must clear on a
        # single deterministic re-seed
        rng = np.random.default_rng(500)
        from support import random_market_params

        failures = []
        for idx in range(50):
            params = random_market_params(rng, rho_range=(0.0, 0.8))
            n = int(rng.integers(1, 9))
            x = params.mu + params.sigma * float(rng.uniform(-2.0, 2.0))
            samples = sample_demands(n, params.mu, params.sigma, params.rho,
                                     100_000, seed=9000 + idx)
            est = estimate_profit(x, samples, params)
            closed = expected_profit(x, n, params)
            if abs(est.mean - closed) > 4 * est.std_error:
                retry = sample_demands(n, params.mu, params.sigma, params.rho,
                                       100_000, seed=9000 + idx + 1)
                est2 = estimate_profit(x, retry, params)
                failures.append(abs(est2.mean - closed) <= 4 * est2.std_error)
        assert len(failures) <= 2
        assert all(failures)

    def test_symmetric_recourse_matches_general_solver_on_scenarios(self):
        # exact equality, scenario by scenario, between the pooled shortcut
        # and the transportation solver under a uniform profit matrix
        from transship.recourse import (
            SurplusShortage,
            solve_transshipment_plan,
            symmetric_recourse_value,
        )

        samples = sample_demands(5, 100, 20, 0.3, 500, seed=321)
        x = 104.0
        p = 6.0
        uniform = [[p] * 5 for _ in range(5)]
        for row in samples.scenarios:
            ss = SurplusShortage.from_quantities((x,) * 5, tuple(float(d) for d in row))
            assert solve_transshipment_plan(ss, uniform).objective == \
                symmetric_recourse_value(ss, p)

    def test_estimator_matches_per_scenario_lp_evaluation(self):
        # rebuild the estimator's mean scenario by scenario with the full
        # transportation solver in place of the pooled shortcut
        from transship.recourse import SurplusShortage, solve_transshipment_plan

        params = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=0.2)
        samples = sample_demands(4, 100, 20, 0.2, 50, seed=654)
        x = 103.0
        est = estimate_profit(x, samples, params)
        uniform = [[6.0] * 4 for _ in range(4)]
        values = []
        for row in samples.scenarios:
            demands = tuple(float(d) for d in row)
            stage_one = sum(10 * min(x, d) + 2 * max(x - d, 0.0) - 6 * x for d in demands)
            ss = SurplusShortage.from_quantities((x,) * 4, demands)
            values.append(stage_one + solve_transshipment_plan(ss, uniform).objective)
        assert est.mean == pytest.approx(np.mean(values), rel=1e-12)

    def test_std_error_scales_with_count(self):
        # doubling the sample count should shrink the standard error by ~sqrt(2)
        ratios = []
        for k in range(20):
            small = estimate_transshipment(
                100.0, sample_demands(4, 100, 20, 0.0, 2000, seed=1000 + k))
            large = estimate_transshipment(
                100.0, sample_demands(4, 100, 20, 0.0, 4000, seed=2000 + k))
            ratios.append(small.std_error / large.std_error)
        assert abs(np.mean(ratios) - math.sqrt(2)) <= 0.1 * math.sqrt(2)


class TestBruteForceOptimal:
    def test_mean_game_peak_at_mean(self):
        x_best, _ = brute_force_optimal(MEAN_GAME, 4, 6.0, 2001)
        spacing = 12 * 20 / 2000
        assert abs(x_best - 100.0) <= spacing

    def test_over_mean_peak_at_fractile(self):
        params = MarketParams(r=10, c=4, nu=2, t=1, mu=100, sigma=20, rho=0)
        x_best, _ = brute_force_optimal(params, 1, 6.0, 4001)
        spacing = 12 * 20 / 4000
        assert abs(x_best - (100 + 0.6744897501960817 * 20)) <= spacing

    def test_grid_never_beats_true_optimum(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            params = random_market_params(rng)
            res = solve_optimal_quantity(3, params)
            _, j_best = brute_force_optimal(params, 3, 6.0, 2001)
            assert j_best <= res.profit + 1e-9

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="odd"):
            brute_force_optimal(MEAN_GAME, 1, 6.0, 2000)
        with pytest.raises(ValueError, match="odd"):
            brute_force_optimal(MEAN_GAME, 1, 6.0, 1)
        with pytest.raises(ValueError, match="positive"):
            brute_force_optimal(MEAN_GAME, 1, -1.0, 2001)

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_bad_grid_width(self, width):
        with pytest.raises(ValueError, match="grid_half_width must be finite and positive"):
            brute_force_optimal(MEAN_GAME, 1, width, 2001)

    @pytest.mark.parametrize("points", [2001.0, 2001.5, "2001"])
    def test_rejects_bad_grid_points(self, points):
        with pytest.raises(ValueError, match="odd integer"):
            brute_force_optimal(MEAN_GAME, 1, 6.0, points)

    def test_accepts_numpy_integer_points(self):
        assert brute_force_optimal(MEAN_GAME, 4, 6.0, np.int64(2001)) == \
            brute_force_optimal(MEAN_GAME, 4, 6.0, 2001)

    def test_fractile_rounded_to_one_needs_no_quantile(self):
        # R rounds to 1.0, which the solver rejects; J_n on a grid needs no Phi^-1(R)
        params = MarketParams(r=1e17, c=2, nu=1, t=1, mu=100, sigma=20, rho=0)
        x_best, j_best = brute_force_optimal(params, 4, 8.0, 101)
        assert math.isfinite(j_best)
        assert j_best == pytest.approx(expected_profit(x_best, 4, params), rel=1e-12)

    def test_rejects_non_finite_profit(self):
        # mu + sigma * w overflows at the grid's ends, so J_n is nan there
        with pytest.raises(ValueError, match="expected profit is nan"):
            brute_force_optimal(MEAN_GAME, 1, 1e307, 2001)


class TestProfitKernel:
    @pytest.mark.parametrize("n", [1, 200])
    @pytest.mark.parametrize("rho_kind", ["1", "0", "negative"])
    def test_bit_identical_to_scalar_loop(self, n, rho_kind):
        rng = np.random.default_rng(22 + n)
        rho = {"1": 1.0, "0": 0.0, "negative": -0.9 / max(1, n - 1)}[rho_kind]
        cases = [(random_market_params(rng, rho=rho), 6.0) for _ in range(2)]
        # deep tails with a 40-sigma grid, past y = -38.3 where A rounds to 0
        # or below and is clipped
        cases += [(deep_tail_market(1e-10, rho), 40.0),
                  (deep_tail_market(1.0 - 1e-10, rho), 40.0)]
        for params, width in cases:
            for points in (3, 2049, 20001):
                assert brute_force_optimal(params, n, width, points) == \
                    reference_brute_force(params, n, width, points)

    def test_deep_tail_cases_reach_the_clip(self):
        ys = np.linspace(-40.0, 40.0, 20001).tolist()
        assert any(y * std_cdf(y) + std_pdf(y) <= 0.0 for y in ys)

    def test_antiderivative_array_matches_scalar(self):
        # every element, not only the argmax: a last-bit slip in phi or a
        # missing clip hides inside the profit at the grid's best point
        ys = np.linspace(-40.0, 40.0, 20001)
        assert simulation._cdf_antiderivative_array(ys).tolist() == \
            [cdf_antiderivative(y) for y in ys.tolist()]

    @pytest.mark.parametrize("n,rho", [(1, 0.0), (200, 0.0), (200, 1.0), (200, -0.9 / 199)])
    def test_profit_curve_matches_scalar_formula(self, n, rho):
        params = MarketParams(r=10, c=7, nu=2, t=3, mu=100, sigma=20, rho=rho)
        econ, L = validate_params(params), pooling_factor(n, params.rho)
        ys = np.linspace(-40.0, 40.0, 2049)
        curve = _profit_at(ys, n, L, econ, params.mu, params.sigma, params.t,
                           simulation._cdf_antiderivative_array)
        assert curve.tolist() == [reference_profit(y, n, L, econ, params.mu, params.sigma,
                                                   params.t) for y in ys.tolist()]

    def test_expected_profit_matches_scalar_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            params = random_market_params(rng, rho_range=(-0.01, 1.0))
            n = int(rng.integers(1, 50))
            econ, L = validate_params(params), pooling_factor(n, params.rho)
            for y in rng.uniform(-45.0, 45.0, 25).tolist():
                x = params.mu + params.sigma * y
                assert expected_profit(x, n, params) == reference_profit(
                    (x - params.mu) / params.sigma, n, L, econ,
                    params.mu, params.sigma, params.t)

    @pytest.mark.parametrize("block", [1, 2, 2048, 20001])
    def test_block_size_does_not_change_result(self, monkeypatch, block):
        params = MarketParams(r=10, c=7, nu=2, t=3, mu=100, sigma=20, rho=0.1)
        expected = reference_brute_force(params, 5, 6.0, 4001)
        monkeypatch.setattr(simulation, "_GRID_BLOCK", block)
        assert brute_force_optimal(params, 5, 6.0, 4001) == expected

    def test_scratch_memory_bounded_by_block(self):
        # The grid itself is 8 bytes a point; the kernel's scratch must not
        # grow with the number of points.
        params = MarketParams(r=10, c=7, nu=2, t=3, mu=100, sigma=20, rho=0.1)
        peaks = []
        for points in (4097, 32769):
            tracemalloc.start()
            try:
                brute_force_optimal(params, 5, 6.0, points)
                peaks.append(tracemalloc.get_traced_memory()[1] - 8 * points)
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


class TestScenarioDump:
    def test_round_trip_full_precision(self, tmp_path):
        samples = sample_demands(3, 100, 20, 0.2, 50, seed=14)
        path = tmp_path / "scenarios.csv"
        dump_scenarios(samples, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["scenario_id", "D_1", "D_2", "D_3"]
        assert len(rows) == 51
        parsed = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert np.array_equal(parsed, samples.scenarios)
