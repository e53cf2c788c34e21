import json

import numpy as np
import pytest

from support import edge_markets, random_market_params
from transship import analytic_solver
from transship.analytic_solver import solve_optimal_quantity
from transship.core_analysis import characteristic_values, check_equal_allocation_core
from transship.game_model import MarketParams, ParameterError, validate_params
from transship.normal_math import std_inv_cdf, std_pdf

MEAN_GAME = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=0)


class TestCharacteristicValues:
    def test_single_agent_is_classical_newsvendor(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            params = random_market_params(rng)
            econ = validate_params(params)
            classical = (econ.g + econ.g_tilde) * (
                econ.R * params.mu - params.sigma * std_pdf(std_inv_cdf(econ.R)))
            assert characteristic_values(params, 1)[0] == pytest.approx(classical, rel=1e-10)

    def test_mean_game_grand_coalition_value(self):
        values = characteristic_values(MEAN_GAME, 4)
        assert values[3] == pytest.approx(1440.4230878394269, abs=1e-9)
        assert values[3] == pytest.approx(4 * 360.1057719598567, abs=1e-9)

    def test_strictly_increasing_in_size(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            params = random_market_params(rng, rho_range=(0.0, 0.9))
            values = characteristic_values(params, 20)
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_solver(self):
        rng = np.random.default_rng(33)
        for params in [MEAN_GAME] + edge_markets(rng, 12):
            values = characteristic_values(params, 12)
            for m, value in enumerate(values, start=1):
                assert value == solve_optimal_quantity(m, params).profit


class TestCoreCheck:
    def test_single_agent_trivially_in_core(self):
        report = check_equal_allocation_core(MEAN_GAME, 1)
        assert report.in_core
        assert report.worst_margin == 0.0
        assert report.witness_m == 1

    def test_perfect_correlation_flat_allocations(self):
        params = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=1.0)
        report = check_equal_allocation_core(params, 6)
        assert len(set(report.beta)) == 1  # no pooling benefit at all
        assert report.worst_margin == 0.0
        assert report.in_core

    def test_fractile_rounded_to_one_rejected(self):
        params = MarketParams(r=1e17, c=2, nu=1, t=1, mu=100, sigma=20, rho=0)
        with pytest.raises(ParameterError, match="g_tilde = 1.0"):
            check_equal_allocation_core(params, 3)
        with pytest.raises(ParameterError, match="g_tilde = 1.0"):
            characteristic_values(params, 3)

    def test_mean_game_strict_margin(self):
        report = check_equal_allocation_core(MEAN_GAME, 10)
        assert report.in_core
        assert report.worst_margin > 0.0
        assert report.witness_m == 9  # closest rival is the next-largest coalition
        assert report.beta[-1] == pytest.approx(368.90351365182175, rel=1e-12)

    def test_beta_matches_equal_allocation(self):
        rng = np.random.default_rng(36)
        for params in [MEAN_GAME] + edge_markets(rng, 12):
            report = check_equal_allocation_core(params, 12)
            for m, beta in enumerate(report.beta, start=1):
                assert beta == solve_optimal_quantity(m, params).allocation

    def test_beta_times_n_is_characteristic_value(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            params = random_market_params(rng, rho_range=(0.0, 1.0))
            report = check_equal_allocation_core(params, 12)
            values = characteristic_values(params, 12)
            for m, (beta, value) in enumerate(zip(report.beta, values), start=1):
                assert beta * m == value  # same code path, exact

    def test_random_sweep_in_core(self):
        rng = np.random.default_rng(35)
        for _ in range(15):
            params = random_market_params(rng, rho_range=(0.0, 1.0))
            report = check_equal_allocation_core(params, 25)
            assert report.in_core
            scale = max(1.0, max(abs(b) for b in report.beta))
            assert report.worst_margin / scale >= -1e-9

    def test_negative_rho_inside_bound(self):
        params = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=-0.1)
        report = check_equal_allocation_core(params, 8)  # needs rho > -1/7
        assert report.in_core

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            check_equal_allocation_core(MEAN_GAME, 0)
        with pytest.raises(ValueError, match="non-negative"):
            check_equal_allocation_core(MEAN_GAME, 3, tolerance=-1.0)

    def test_size_cap(self, monkeypatch):
        too_many = analytic_solver._MAX_SIZES + 1
        for call in (characteristic_values, check_equal_allocation_core):
            with pytest.raises(ParameterError, match=f"^{too_many} coalition sizes requested"):
                call(MEAN_GAME, too_many)
        monkeypatch.setattr(analytic_solver, "_MAX_SIZES", 4)
        assert len(characteristic_values(MEAN_GAME, 4)) == 4
        assert check_equal_allocation_core(MEAN_GAME, 4).in_core
        for call in (characteristic_values, check_equal_allocation_core):
            with pytest.raises(ParameterError, match="^5 coalition sizes requested"):
                call(MEAN_GAME, 5)

    def test_json_round_trip(self):
        report = check_equal_allocation_core(MEAN_GAME, 4)
        payload = json.loads(report.to_json())
        assert payload["n"] == 4
        assert payload["in_core"] is True
        assert payload["witness_m"] == report.witness_m
        assert payload["worst_margin"] == report.worst_margin
        assert payload["beta"] == list(report.beta)
