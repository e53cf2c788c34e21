import csv
import dataclasses
import decimal
import fractions
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from support import random_market_params
from transship.analytic_solver import (
    expected_profit,
    expected_transshipment,
    solve_optimal_quantity,
)
from transship import analytic_solver, simulation
from transship.game_model import MarketParams, ParameterError, pooling_factor, validate_params
from transship.normal_math import cdf_antiderivative, std_cdf, std_pdf
from transship.simulation import (
    RNG_ALGORITHM,
    DemandMatrix,
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


def exact_multiples(values, n):
    """n times each value, formed exactly and rounded once (+0.0 for a zero)."""
    return np.array([float(fractions.Fraction(v) * n) for v in values.tolist()])


def reference_totals(x, demands, shared=False):
    """numpy's row sums of the surplus and shortage over the n-wide matrix; with
    `shared` (rho = 1, every agent sees the first column's demand) n times the
    first column's surplus and shortage, exactly."""
    if shared:
        column, n = demands[:, 0], demands.shape[1]
        return (exact_multiples(np.maximum(x - column, 0.0), n),
                exact_multiples(np.maximum(column - x, 0.0), n))
    return (np.maximum(x - demands, 0.0).sum(axis=1),
            np.maximum(demands - x, 0.0).sum(axis=1))


def reference_pooled_profits(x, demands, params, shared=False):
    """Per-scenario profit by the estimator's own formula from reference_totals:
    the oracle the estimators must match bit for bit."""
    surplus, shortage = reference_totals(x, demands, shared)
    profit = demands.shape[1] * x * (params.r - params.c) - (params.r - params.nu) * surplus
    profit += validate_params(params).p * np.minimum(surplus, shortage)
    return profit


def reference_transshipments(x, demands, shared=False):
    return np.minimum(*reference_totals(x, demands, shared))


def reference_estimate(values):
    return values.mean(), values.std(ddof=1) / math.sqrt(values.shape[0])


def reference_profit(y, n, L, econ, mu, sigma, t):
    """J_n at standardized quantity y, in scalar floats, as the full scan
    evaluates it."""
    x = mu + sigma * y
    return n * (econ.g * x
                - t * sigma * cdf_antiderivative(y)
                - econ.p * sigma * cdf_antiderivative(L * y) / L)


def reference_brute_force(params, n, grid_half_width, grid_points):
    """The full scan: every point of np.linspace in turn, keeping the first
    maximum. brute_force_optimal must return its result bit for bit."""
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


def count_kernel_calls(monkeypatch):
    """Wrap the blocked totals kernel and return the list its calls append to."""
    calls = []
    kernel = simulation._surplus_shortage

    def counted(x, scenarios):
        calls.append(x)
        return kernel(x, scenarios)

    monkeypatch.setattr(simulation, "_surplus_shortage", counted)
    return calls


def single_agent_columns(n, mu, sigma, count, seed):
    """The n = 1 scenarios of (mu, sigma, count, seed) repeated into n columns:
    the rho = 1 stream."""
    return np.repeat(sample_demands(1, mu, sigma, 0.0, count, seed).scenarios, n, axis=1)


def construct(n, mu, sigma, rho, count, seed):
    """DemandMatrix built directly, with the arguments of sample_demands."""
    return DemandMatrix(n=n, count=count, seed=seed, rho_target=rho, mu=mu, sigma=sigma)


def mean_game_profit(x, samples):
    return estimate_profit(x, samples, MEAN_GAME)


def deep_tail_market(fractile, rho):
    """A market whose critical fractile R is `fractile`, up to rounding."""
    return MarketParams(r=10, c=10 - 8 * fractile, nu=2, t=1, mu=100, sigma=20, rho=rho)


class ArgumentChecks:
    """The argument checks shared by both ways to build a DemandMatrix; a
    subclass names the way in `build`, with the arguments of sample_demands."""

    build = None

    @pytest.mark.parametrize("seed", [None, 1.5, 7.0, True, False, -1, 2**128, "7",
                                      np.float64(3.0), np.bool_(True)])
    def test_rejects_a_seed_that_is_not_an_integer_in_range(self, seed):
        with pytest.raises(ParameterError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
            self.build(4, 100, 20, 0.3, 10, seed=seed)

    @pytest.mark.parametrize("name,value", [("n", 2.0), ("n", True), ("n", np.float64(4.0)),
                                            ("count", 10.0), ("count", True), ("count", "10")])
    def test_rejects_non_integer_sizes(self, name, value):
        kwargs = dict(n=4, mu=100, sigma=20, rho=0.3, count=10, seed=0)
        kwargs[name] = value
        with pytest.raises(ParameterError) as info:
            self.build(**kwargs)
        assert str(info.value) == (f"coalition size n must be an integer, got {value!r}"
                                   if name == "n" else
                                   f"count must be an integer >= 1, got {value!r}")

    def test_accepts_numpy_integers_and_the_largest_seed(self):
        expected = sample_demands(7, 100, 20, 0.4, 301, seed=41).scenarios
        samples = self.build(np.int64(7), 100, 20, 0.4, np.uint32(301), seed=np.uint64(41))
        assert (samples.n, samples.count, samples.seed) == (7, 301, 41)
        assert type(samples.n) is type(samples.count) is type(samples.seed) is int
        assert samples.scenarios.tobytes() == expected.tobytes()
        top = sample_demands(3, 100, 20, 0.0, 5, seed=2**128 - 1).scenarios
        z = np.random.Generator(np.random.Philox(key=2**128 - 1)).standard_normal((5, 3))
        assert top.tobytes() == (100 + 20 * z).tobytes()

    @pytest.mark.parametrize("name", ["mu", "sigma", "rho"])
    @pytest.mark.parametrize("value", ["0.3", None, True, False, np.bool_(True), 1j,
                                       decimal.Decimal("0.3")])
    def test_rejects_a_mean_spread_or_correlation_that_is_not_a_real_number(self, name, value):
        kwargs = dict(n=4, mu=100, sigma=20, rho=0.3, count=10, seed=0)
        kwargs[name] = value
        with pytest.raises(ParameterError) as info:
            self.build(**kwargs)
        assert str(info.value) == f"{name} must be a real number, got {value!r}"

    def test_records_every_real_number_as_a_float(self):
        expected = sample_demands(3, 100.0, 20.0, 0.25, 50, seed=5)
        samples = self.build(3, 100, np.float32(20), fractions.Fraction(1, 4), 50, seed=5)
        assert [type(v) for v in (samples.mu, samples.sigma, samples.rho_target)] == [float] * 3
        assert repr(samples) == repr(expected)
        assert samples.scenarios.tobytes() == expected.scenarios.tobytes()

    def test_rejects_more_entries_than_an_array_can_hold(self):
        # The matrix is never drawn here, so the size is checked at the call.
        with pytest.raises(ParameterError, match="entries exceed the largest array"):
            self.build(2**40, 100, 20, 0.0, 2**40, seed=0)

    def test_rejects_a_size_past_the_float_range(self):
        # 1 + (n - 1) rho is formed in floats, so such a size cannot be sampled.
        with pytest.raises(ParameterError) as info:
            self.build(10**400, 100, 20, 0.3, 1, seed=0)
        assert str(info.value) == ("coalition size n exceeds the float range "
                                   "(> 1.7976931348623157e+308)")

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
            self.build(**kwargs)


def test_entry_limit_is_numpys_array_limit():
    # stated without numpy, so that making an instance does not load it
    assert simulation._MAX_ENTRIES == np.iinfo(np.intp).max // 8


def refusal(call):
    """The text of the ParameterError that `call()` raises, or None if it returns."""
    try:
        call()
    except ParameterError as exc:
        return str(exc)
    return None


def size_and_correlation_edges():
    """(n, rho) pairs at the edges of the domain of L_n: every size against
    each out-of-range kind of rho, rhos that are not real numbers, both ends
    of (-1, 1], and -1/(n - 1) with one ulp either side where n != 1."""
    sizes = [1, 2, 3, 5, 200, 0, 2.0, True, 10**400]
    rhos = [math.nan, math.inf, -math.inf, 1.5, fractions.Fraction(3, 2), 1.0, -1.0, -1.5, 0.3,
            10**400, fractions.Fraction(-(2**60 - 1), 2**60),  # this one rounds to -1.0
            "0.3", None, True, 1j, decimal.Decimal("0.3")]
    for n in sizes:
        bounds = []
        if n != 1:
            bound = -1 / (n - 1)
            bounds = [math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)]
        for rho in rhos + bounds:
            yield n, rho


@pytest.mark.parametrize("n,rho", list(size_and_correlation_edges()),
                         ids=lambda value: "10**400" if value == 10**400 else repr(value))
def test_sampler_and_pooling_factor_share_one_rule_for_n_and_rho(n, rho):
    # Both accept, or both refuse with the same one-line ParameterError.
    outcomes = [refusal(lambda: pooling_factor(n, rho)),
                refusal(lambda: sample_demands(n, 100, 20, rho, 10, seed=0))]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] is None or "\n" not in outcomes[0]


@pytest.mark.parametrize("rho", list(dict.fromkeys(
    rho for _, rho in size_and_correlation_edges() if type(rho) is float)), ids=repr)
def test_validate_params_and_pooling_factor_share_one_rule_for_rho(rho):
    # validate_params checks rho for a single agent: nan and +-inf included
    market = MarketParams(10, 6, 2, 1, 100, 20, rho)
    assert refusal(lambda: validate_params(market)) == refusal(lambda: pooling_factor(1, rho))


@pytest.mark.parametrize("name", ["mu", "sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_sampler_and_validate_params_share_one_rule_for_mu_and_sigma(name, value):
    demand = {"mu": 100.0, "sigma": 20.0, name: value}
    market = MarketParams(10, 6, 2, 1, rho=0.3, **demand)
    outcomes = [refusal(lambda: validate_params(market)),
                refusal(lambda: sample_demands(4, rho=0.3, count=10, seed=0, **demand))]
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is None) == (name == "mu" and math.isfinite(value))


@pytest.mark.parametrize("n,rho,shown", [
    (3, 10**5000, "rho = 1.000000e+5000 outside (-1, 1]"),
    (3, -10**5000, "rho = -1.000000e+5000 outside (-1, 1]"),
    (3, fractions.Fraction(10**5000, 3), "rho = 3.333333e+4999 outside (-1, 1]"),
    (-10**5000, 0.3, "coalition size n must be >= 1, got -1.000000e+5000"),
], ids=["1e5000", "-1e5000", "1e5000/3", "n=-1e5000"])
def test_an_exact_number_too_long_to_print_is_shown_to_seven_figures(n, rho, shown):
    # str() refuses an int of more than 4,300 digits; the message stays one line
    assert refusal(lambda: pooling_factor(n, rho)) == shown
    assert refusal(lambda: sample_demands(n, 100, 20, rho, 10, seed=0)) == shown


@pytest.mark.parametrize("count,seed,shown", [
    (10**5000, 0, "count * n = 3.000000e+5000 entries exceed the largest array numpy can hold "
                  f"({simulation._MAX_ENTRIES})"),
    (-10**5000, 0, "count must be an integer >= 1, got -1.000000e+5000"),
    (10, 10**5000, "seed must be an integer in [0, 2**128), got 1.000000e+5000"),
], ids=["count=1e5000", "count=-1e5000", "seed=1e5000"])
def test_a_count_or_seed_too_long_to_print_is_shown_to_seven_figures(count, seed, shown):
    assert refusal(lambda: sample_demands(3, 100, 20, 0.3, count, seed=seed)) == shown


@pytest.mark.parametrize("value", [10**400, -10**400, fractions.Fraction(10**400, 3)],
                         ids=["1e400", "-1e400", "1e400/3"])
@pytest.mark.parametrize("name", ["mu", "sigma"])
def test_an_exact_mean_or_spread_past_the_float_range_is_refused_by_name(name, value):
    # the sampler converts it as MarketParams does, never through math.isfinite's OverflowError
    demand = {"mu": 100, "sigma": 20, name: value}
    shown = f"{name} = {value} outside the float range"
    assert refusal(lambda: sample_demands(4, rho=0.3, count=10, seed=0, **demand)) == shown
    assert refusal(lambda: MarketParams(10, 6, 2, 1, rho=0.3, **demand)) == shown


def test_an_input_with_two_faults_is_refused_for_the_first_in_rule_order():
    # r, c, nu and t come before the demand law, and n before count
    with pytest.raises(ParameterError, match=r"^c = 12\.0 >= r = 10\.0 violates nu < c < r$"):
        validate_params(MarketParams(10, 12, 2, 1, math.inf, 20, 0))
    with pytest.raises(ParameterError, match="^coalition size n must be an integer, got 2.0$"):
        sample_demands(2.0, 100, 20, 0.3, 0, seed=0)


class TestSampleDemands(ArgumentChecks):
    build = staticmethod(sample_demands)

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

    def test_accepts_exactly_the_correlations_pooling_factor_accepts(self):
        # The closed forms and the sampler share one rule for rho's lower
        # bound -1/(n - 1): the doubles within 3 ulp of its rounded value.
        def accepts(call):
            try:
                call()
            except ParameterError:
                return False
            return True

        disagree = []
        for n in range(2, 400):
            rho = -1.0 / (n - 1)
            for _ in range(3):
                rho = math.nextafter(rho, -1.0)
            for _ in range(7):
                if (accepts(lambda: pooling_factor(n, rho))
                        != accepts(lambda: sample_demands(n, 100.0, 20.0, rho, 10, seed=0))):
                    disagree.append((n, rho))
                rho = math.nextafter(rho, 0.0)
        assert disagree == []

    def test_row_means_spread_as_the_exact_law_near_the_lower_bound(self):
        # 1 + 65 rho rounds to 1.1e-16 here but is 5.7e-17 exactly; the row
        # means of the equicorrelated normal spread as sigma sqrt(that / n).
        n, rho, sigma = 66, -0.015384615384615384, 20.0
        samples = sample_demands(n, 100.0, sigma, rho, 100_000, seed=7)
        means = np.concatenate([block.mean(axis=1) for _, block in samples._draw()])
        target = sigma * math.sqrt(float(1 + (n - 1) * fractions.Fraction(rho)) / n)
        assert means.std() / target == pytest.approx(1.0, rel=0.02)

    # sha256 of sample_demands(n, 100, 20, rho, 301, seed=41).scenarios.tobytes(),
    # recorded from the sampler that always formed the row means. At rho = 1
    # and n > 1 the digests are of single_agent_columns(n, 100, 20, 301, 41),
    # the stream since rho = 1 draws one normal per scenario. (128, "lower")
    # was recorded again when b = sqrt(1 + (n - 1) rho) became the exact sum
    # rounded once below 1/2; at n = 1, 7 the sum rounds to the same double.
    STREAM_DIGESTS = {
        (1, "0"): "38c9b1b793bd7294215778fcee9bf6400b6c757bd64d0734fe08513328b10d76",
        (1, "0.4"): "38c9b1b793bd7294215778fcee9bf6400b6c757bd64d0734fe08513328b10d76",
        (1, "1"): "38c9b1b793bd7294215778fcee9bf6400b6c757bd64d0734fe08513328b10d76",
        (1, "lower"): "38c9b1b793bd7294215778fcee9bf6400b6c757bd64d0734fe08513328b10d76",
        (7, "0"): "293476da1979165a6cd0310bb75a308c945bd6b8b0be6afa26e52f4e2753d77c",
        (7, "0.4"): "67cdbf26c2596121ba52296705e9883f5803f19bf11a0222bd035d66549c8059",
        (7, "1"): "52259d0bc13033019e7b49dc90e155be6b45c452f44b0f41c960232b8c1a45c5",
        (7, "lower"): "b485f7e7a52816291cc1a89be34343052764d40ed6f1915a65f462b76f1afa22",
        (128, "0"): "40b989fbf1c9d0e29cca2a70b698ac2ef07d53844d1438f7bacbb709d7b176cc",
        (128, "0.4"): "86baa1ec9d3311199f0d3fbc42d704125c5e1c701c2bd909a9c720dfbe23ebef",
        (128, "1"): "bc008be1098645c9ccd8e2f2de3c6f2646bd22bc1fb5aeff19e476a194f01fac",
        (128, "lower"): "305a54bf05bc7c8d8d04f40f78bef423078e267e8b4efcc64722305d22e32a7e",
    }

    @pytest.mark.parametrize("n,rho_kind", sorted(STREAM_DIGESTS))
    def test_stream_is_pinned(self, n, rho_kind):
        rho = near_lower_rho(n) if rho_kind == "lower" else float(rho_kind)
        samples = sample_demands(n, 100.0, 20.0, rho, 301, seed=41)
        digest = hashlib.sha256(samples.scenarios.tobytes()).hexdigest()
        assert digest == self.STREAM_DIGESTS[n, rho_kind]

    @pytest.mark.parametrize("block", [1, 1000])
    @pytest.mark.parametrize("n,rho_kind", sorted(STREAM_DIGESTS))
    def test_stream_is_block_independent(self, monkeypatch, n, rho_kind, block):
        # Blocks are drawn in order from one generator, so any block size gives
        # the one-call stream, whether the matrix is read whole or streamed. At
        # rho = 1 the blocks are the one column every agent sees: the n = 1
        # stream.
        monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", block)
        rho = near_lower_rho(n) if rho_kind == "lower" else float(rho_kind)
        streamed = hashlib.sha256()
        for _, part in sample_demands(n, 100.0, 20.0, rho, 301, seed=41)._draw():
            assert part.size <= max(block, n)
            streamed.update(part.tobytes())
        samples = sample_demands(n, 100.0, 20.0, rho, 301, seed=41)
        read = hashlib.sha256(samples.scenarios.tobytes())
        assert streamed.hexdigest() == self.STREAM_DIGESTS[1 if rho == 1.0 else n, rho_kind]
        assert read.hexdigest() == self.STREAM_DIGESTS[n, rho_kind]

    @pytest.mark.parametrize("block", [1, 1000, None])
    @pytest.mark.parametrize("sigma", [20.0, 5e-324])
    @pytest.mark.parametrize("mu", [100.0, 0.0, -0.0])
    @pytest.mark.parametrize("n", [2, 7, 128])
    def test_perfect_correlation_is_the_single_agent_stream(self, monkeypatch, n, mu, sigma,
                                                            block):
        # At rho = 1 each scenario draws one normal, as a single agent does:
        # the passes see that column, and `scenarios` repeats it into the n
        # columns; block None keeps the default size.
        single = sample_demands(1, mu, sigma, 0.0, 301, seed=41).scenarios
        if block is not None:
            monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", block)
        streamed = sample_demands(n, mu, sigma, 1.0, 301, seed=41)._draw()
        assert b"".join(part.tobytes() for _, part in streamed) == single.tobytes()
        assert sample_demands(n, mu, sigma, 1.0, 301, seed=41).scenarios.tobytes() == \
            single_agent_columns(n, mu, sigma, 301, seed=41).tobytes()

    @pytest.mark.parametrize("rho,per_scenario", [(1.0, 1), (0.4, 128), (0.0, 128)])
    def test_normals_drawn_per_pass(self, monkeypatch, tmp_path, rho, per_scenario):
        # The work, not the time: every pass asks Philox for one normal per
        # scenario at rho = 1, and n per scenario otherwise.
        drawn = []
        generator = np.random.Generator

        class Counting:
            def __init__(self, bit_generator):
                self._rng = generator(bit_generator)

            def standard_normal(self, *, out):
                drawn.append(out.size)
                return self._rng.standard_normal(out=out)

        def read_then_estimate(samples):
            # Reading the matrix does not spare the next pass its draw.
            estimate_transshipment(103.0, samples)
            samples.scenarios
            drawn.clear()
            estimate_transshipment(97.0, samples)

        monkeypatch.setattr(np.random, "Generator", Counting)
        count = 3001
        passes = [
            lambda samples: estimate_transshipment(103.0, samples),
            lambda samples: dump_scenarios(samples, tmp_path / "draws.csv"),
            lambda samples: samples.scenarios,
            read_then_estimate,
        ]
        for run in passes:
            drawn.clear()
            run(sample_demands(128, 100.0, 20.0, rho, count, seed=41))
            assert sum(drawn) == per_scenario * count

    def test_zero_factor_weight_keeps_the_signs_of_zeros(self):
        # At rho = 0 the factor term is a signed zero. With mu = -0.0 and a
        # subnormal sigma most entries are zeros whose sign follows the row mean.
        for mu in (-0.0, 0.0, 1e-300):
            samples = sample_demands(3, mu, 5e-324, 0.0, 2000, seed=7)
            z = np.random.Generator(np.random.Philox(key=7)).standard_normal((2000, 3))
            shift = z.mean(axis=1) * (5e-324 * 0.0) + mu
            assert samples.scenarios.tobytes() == (z * 5e-324 + shift[:, np.newaxis]).tobytes()

    def test_scenarios_are_read_only(self):
        samples = sample_demands(4, 100, 20, 0.3, 50, seed=99)
        with pytest.raises(ValueError, match="read-only"):
            samples.scenarios[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            samples.scenarios += 1.0

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

def replace_fields(n, mu, sigma, rho, count, seed):
    """dataclasses.replace of a valid DemandMatrix, with the arguments of sample_demands."""
    return dataclasses.replace(sample_demands(2, 1.0, 1.0, 0.0, 1, seed=0), n=n, count=count,
                               seed=seed, rho_target=rho, mu=mu, sigma=sigma)


class TestReplace(ArgumentChecks):
    """dataclasses.replace runs the same checks as building one."""

    build = staticmethod(replace_fields)


class TestDemandMatrixConstructor(ArgumentChecks):
    """DemandMatrix checks its own fields, so no instance exists that
    sample_demands, which only builds one, would refuse."""

    build = staticmethod(construct)

    @pytest.mark.parametrize("field,value,fragment", [
        ("seed", -1, r"seed must be an integer in \[0, 2\*\*128\)"),
        ("n", 2.0, r"^coalition size n must be an integer, got 2\.0$"),
        ("rho_target", 1.2, "outside"),
        ("sigma", 0.0, "sigma"),
    ])
    def test_replace_checks_the_new_fields(self, field, value, fragment):
        samples = sample_demands(4, 100, 20, 0.3, 10, seed=0)
        with pytest.raises(ParameterError, match=fragment):
            dataclasses.replace(samples, **{field: value})

    def test_constructor_takes_the_sampler_arguments(self):
        samples = construct(7, 100.0, 20.0, 0.3, 2001, seed=26)
        assert repr(samples) == repr(sample_demands(7, 100.0, 20.0, 0.3, 2001, seed=26)) == (
            "DemandMatrix(n=7, count=2001, seed=26, rho_target=0.3, "
            "rng_algorithm='numpy-philox4x64')")
        assert samples.scenarios.tobytes() == \
            sample_demands(7, 100.0, 20.0, 0.3, 2001, seed=26).scenarios.tobytes()
        with pytest.raises(TypeError):
            DemandMatrix(7, 2001, 26, 0.3, 100.0, 20.0)
        with pytest.raises(TypeError):
            DemandMatrix(n=7, count=2001, seed=26, rho_target=0.3, mu=100.0, sigma=20.0,
                         rng_algorithm=RNG_ALGORITHM)


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

    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize("n", [1, 3, 7, 8, 128])
    @pytest.mark.parametrize("rho_kind", ["lower", "0", "0.5", "1"])
    def test_bit_identical_to_the_n_wide_reduction(self, n, rho_kind, read_first):
        # The column sums below 8 agents give the bits of numpy's row sums
        # over the whole matrix; at rho = 1 the totals are n times one
        # agent's, exactly rounded.
        rho = near_lower_rho(n) if rho_kind == "lower" else float(rho_kind)
        shared = rho_kind == "1"
        params = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=rho)
        samples = sample_demands(n, 100, 20, rho, 5_001, seed=18)
        scenarios = sample_demands(n, 100, 20, rho, 5_001, seed=18).scenarios
        if read_first:
            samples.scenarios
        for x in (103.0, 60.0, 140.0):
            for est, values in (
                (estimate_profit(x, samples, params),
                 reference_pooled_profits(x, scenarios, params, shared)),
                (estimate_transshipment(x, samples),
                 reference_transshipments(x, scenarios, shared)),
            ):
                mean, std_error = reference_estimate(values)
                assert (est.mean.hex(), est.std_error.hex()) == \
                    (float(mean).hex(), float(std_error).hex())

    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize("n", [2, 7, 8, 128, 300])
    @pytest.mark.parametrize("mu", [100.0, 0.0])
    def test_perfect_correlation_never_reduces_an_n_wide_block(self, monkeypatch, n, mu,
                                                               read_first):
        # Every block the totals see, and every row sum taken, is one column
        # wide; mu = 0 takes the row means in the draw too.
        widths = []
        row_sums, add_up = simulation._row_sums, simulation._add_up

        def recorded_row_sums(block, out):
            widths.append(block.shape[1])
            return row_sums(block, out)

        def recorded_add_up(excess, agents, out):
            widths.append(excess.shape[1])
            return add_up(excess, agents, out)

        samples = sample_demands(n, mu, 20, 1.0, 3_001, seed=29)
        scenarios = sample_demands(n, mu, 20, 1.0, 3_001, seed=29).scenarios
        if read_first:
            samples.scenarios
        monkeypatch.setattr(simulation, "_row_sums", recorded_row_sums)
        monkeypatch.setattr(simulation, "_add_up", recorded_add_up)
        x = mu + 3.0
        moved = estimate_transshipment(x, samples)
        assert widths and set(widths) == {1}
        surplus, shortage = simulation._totals(x, samples)
        expected = reference_totals(x, scenarios, shared=True)
        assert surplus.tobytes() == expected[0].tobytes()
        assert shortage.tobytes() == expected[1].tobytes()
        assert (moved.mean, moved.std_error) == (0.0, 0.0)

    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize("mu,sigma", [(100.0, 20.0), (-0.0, 20.0), (-0.0, 5e-324)])
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 11, 57, 127, 128, 129, 257, 1000, 1100])
    def test_perfect_correlation_totals_are_exact(self, n, mu, sigma, read_first):
        # At rho = 1 every agent has the one demand D, so the totals are
        # n * max(x - D, 0) and n * max(D - x, 0), rounded once, and a zero
        # total is +0.0; the quantities give zeros in both totals, and signed
        # zeros at mu = -0.0.
        samples = sample_demands(n, mu, sigma, 1.0, 400, seed=44)
        demand = sample_demands(1, mu, sigma, 0.0, 400, seed=44).scenarios[:, 0]
        if read_first:
            samples.scenarios
        zeros = [0, 0]
        for x in (-0.0, 0.0, mu, float(demand.min()), float(demand.max()), float(demand[7])):
            totals = simulation._totals(x, samples)
            excesses = (np.maximum(x - demand, 0.0), np.maximum(demand - x, 0.0))
            for j, (total, excess) in enumerate(zip(totals, excesses)):
                assert total.tobytes() == exact_multiples(excess, n).tobytes()
                assert not np.signbit(total).any()
                zeros[j] += int((total == 0.0).sum())
        assert min(zeros) > 0

    @pytest.mark.parametrize("n", [1, 7, 128])
    def test_block_size_does_not_change_estimates(self, monkeypatch, n):
        # Each estimate gets a fresh matrix, so every one runs the kernel at the
        # patched block size rather than reusing totals.
        def fresh():
            return sample_demands(n, 100, 20, 0.3, 3001, seed=19)

        blocked = (estimate_profit(97.0, fresh(), MEAN_GAME),
                   estimate_transshipment(97.0, fresh()))
        calls = count_kernel_calls(monkeypatch)
        for block in (1, 3001, 3001 * n):
            monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", block)
            assert (estimate_profit(97.0, fresh(), MEAN_GAME),
                    estimate_transshipment(97.0, fresh())) == blocked
        assert len(calls) == 6

    def test_memory_stays_below_a_quarter_of_the_matrix(self, monkeypatch):
        calls = count_kernel_calls(monkeypatch)
        for estimate in (lambda samples: estimate_profit(100.0, samples, MEAN_GAME),
                         lambda samples: estimate_transshipment(100.0, samples)):
            samples = sample_demands(64, 100, 20, 0.3, 50_000, seed=20)
            tracemalloc.start()
            try:
                estimate(samples)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < samples.scenarios.nbytes / 4
        assert len(calls) == 2


class TestSharedTotals:
    """Both estimators at one x reduce a sampled matrix once, with results
    bit-identical to estimates on a matrix of their own."""

    @staticmethod
    def fresh():
        return sample_demands(7, 100, 20, 0.3, 2001, seed=24)

    @pytest.mark.parametrize("profit_first", [True, False])
    def test_estimates_match_a_fresh_matrix(self, monkeypatch, profit_first):
        samples = self.fresh()
        calls = count_kernel_calls(monkeypatch)
        for x in (103.0, 91.5, 103.0):
            if profit_first:
                profit = estimate_profit(x, samples, MEAN_GAME)
                moved = estimate_transshipment(x, samples)
            else:
                moved = estimate_transshipment(x, samples)
                profit = estimate_profit(x, samples, MEAN_GAME)
            assert (profit, moved) == (estimate_profit(x, self.fresh(), MEAN_GAME),
                                       estimate_transshipment(x, self.fresh()))
        # one pass per x on the shared matrix, one per estimate on the fresh ones
        assert len(calls) == 3 + 6

    def test_zero_and_negative_zero_are_different_keys(self, monkeypatch):
        samples = self.fresh()
        calls = count_kernel_calls(monkeypatch)
        estimate_transshipment(0.0, samples)
        estimate_transshipment(-0.0, samples)
        estimate_transshipment(-0.0, samples)
        assert [math.copysign(1.0, x) for x in calls] == [1.0, -1.0]

    def test_held_totals_are_read_only(self):
        samples = self.fresh()
        estimate_transshipment(100.0, samples)
        surplus, shortage = simulation._totals(100.0, samples)
        assert not surplus.flags.writeable and not shortage.flags.writeable

    def test_held_totals_are_no_dataclass_field(self):
        samples = self.fresh()
        estimate_transshipment(100.0, samples)
        assert "_last_totals" in vars(samples)
        assert [f.name for f in dataclasses.fields(samples)] == [
            "n", "count", "seed", "rho_target", "mu", "sigma", "rng_algorithm"]
        assert "_last_totals" not in dataclasses.asdict(samples)

    def test_repr_and_fields_leave_out_the_held_totals(self):
        samples = self.fresh()
        estimate_transshipment(100.0, samples)
        assert "_last_totals" not in repr(samples)
        with pytest.raises(TypeError):
            DemandMatrix(n=7, count=2001, seed=24, rho_target=0.3, mu=100, sigma=20,
                         _last_totals=None)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_quantity(self, x):
        samples = self.fresh()
        estimate_transshipment(100.0, samples)    # a held entry must not answer
        with pytest.raises(ValueError, match="quantity x must be finite"):
            estimate_profit(x, samples, MEAN_GAME)
        with pytest.raises(ValueError, match="quantity x must be finite"):
            estimate_transshipment(x, samples)


class TestStreamedRecipe:
    """`sample_demands` returns a recipe: passes draw the scenarios block by
    block, with results bit-identical to those on the whole matrix."""

    @pytest.mark.parametrize("n", [1, 7, 128])
    @pytest.mark.parametrize("rho_kind", ["lower", "0", "1"])
    def test_estimates_equal_those_on_the_matrix(self, n, rho_kind):
        rho = near_lower_rho(n) if rho_kind == "lower" else float(rho_kind)

        def fresh():
            return sample_demands(n, 100, 20, rho, 1201, seed=25)

        read = fresh()
        scenarios = read.scenarios
        for x in (103.0, 80.0):
            results = [(estimate_profit(x, samples, MEAN_GAME), estimate_transshipment(x, samples))
                       for samples in (fresh(), read)]
            assert repr(results[0]) == repr(results[1])
            references = (reference_profits(x, scenarios, MEAN_GAME),
                          reference_transshipments(x, scenarios))
            for est, values in zip(results[0], references):
                mean, std_error = reference_estimate(values)
                assert est.mean == pytest.approx(mean, rel=1e-12)
                assert est.std_error == pytest.approx(std_error, rel=1e-12)

    def test_passes_do_not_read_the_matrix(self, monkeypatch, tmp_path):
        def unread(self):
            pytest.fail("the scenarios were read whole")

        samples = sample_demands(7, 100, 20, 0.3, 2001, seed=26)
        expected = (estimate_profit(97.0, samples, MEAN_GAME), estimate_transshipment(97.0, samples))
        monkeypatch.setattr(DemandMatrix, "scenarios", property(unread))
        samples = sample_demands(7, 100, 20, 0.3, 2001, seed=26)
        assert repr(samples) == ("DemandMatrix(n=7, count=2001, seed=26, rho_target=0.3, "
                                 "rng_algorithm='numpy-philox4x64')")
        for x in (97.0, 104.0, 97.0):
            profit = estimate_profit(x, samples, MEAN_GAME)
            moved = estimate_transshipment(x, samples)
        assert (profit, moved) == expected
        dump_scenarios(samples, tmp_path / "draws.csv")
        assert "scenarios" not in vars(samples)

    def test_an_edited_matrix_does_not_change_the_estimates(self):
        # The passes draw from the recipe, never from a matrix that was read,
        # so overwriting the matrix leaves the estimates as they were.
        def fresh():
            return sample_demands(4, 100, 20, 0.3, 2000, seed=5)

        samples = fresh()
        samples.scenarios.flags.writeable = True
        samples.scenarios[...] = 100.0
        assert estimate_transshipment(101.0, samples) == estimate_transshipment(101.0, fresh())

    def test_memory_grows_with_count_not_with_the_matrix(self):
        # sample_demands and both estimators at n = 128: five count-long arrays
        # and a few blocks, where the matrix alone is 128 * 8 * count bytes.
        count = 100_000
        tracemalloc.start()
        try:
            samples = sample_demands(128, 100, 20, 0.3, count, seed=27)
            estimate_profit(100.0, samples, MEAN_GAME)
            estimate_transshipment(100.0, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * count + 4 * 8 * simulation._BLOCK_ELEMENTS

    def test_reading_the_matrix_keeps_it(self):
        samples = sample_demands(7, 100, 20, 0.3, 50, seed=28)
        assert samples.scenarios is samples.scenarios
        assert not samples.scenarios.flags.writeable

    def test_is_immutable(self):
        samples = sample_demands(7, 100, 20, 0.3, 50, seed=28)
        with pytest.raises(AttributeError):
            samples.seed = 3
        with pytest.raises(AttributeError):
            del samples.rho_target
        assert samples.seed == 28 and samples.rho_target == 0.3


class TestEstimatorOverflow:
    """Totals or estimates that overflow raise a one-line ValueError, with no
    numpy warning (warnings are errors under pytest)."""

    @staticmethod
    def fresh():
        return sample_demands(7, 100, 20, 0.3, 2001, seed=24)

    def test_profit_overflows_at_1e307(self):
        # S_H = 7e307 is finite, but (r - nu) S_H is not
        with pytest.raises(ValueError, match="estimate is not finite at quantity x = 1e\\+307"):
            estimate_profit(1e307, self.fresh(), MEAN_GAME)

    def test_transshipment_at_1e307_is_zero(self):
        est = estimate_transshipment(1e307, self.fresh())
        assert (est.mean, est.std_error) == (0.0, 0.0)

    @pytest.mark.parametrize("estimate", [mean_game_profit, estimate_transshipment])
    @pytest.mark.parametrize("x", [10**400, -10**400], ids=["1e400", "-1e400"])
    def test_an_exact_quantity_past_the_float_range(self, estimate, x):
        with pytest.raises(ParameterError) as info:
            estimate(x, self.fresh())
        assert str(info.value) == f"quantity x = {x} outside the float range"

    @pytest.mark.parametrize("estimate", [mean_game_profit, estimate_transshipment])
    @pytest.mark.parametrize("x", [1e308, -1e308])
    def test_n_x_overflow(self, estimate, x):
        with pytest.raises(ValueError, match="n \\* x overflows at quantity x = -?1e\\+308"):
            estimate(x, self.fresh())

    @pytest.mark.parametrize("estimate", [mean_game_profit, estimate_transshipment])
    @pytest.mark.parametrize("entry", [-1e308, math.nan])
    def test_totals_that_are_not_finite(self, estimate, entry):
        if math.isnan(entry):
            # Near rho = -1 the factor weight is about -sqrt(2) sigma: in the
            # last scenario sigma * a * Z overflows to +inf and weight * Zbar
            # to -inf, so the second demand is nan.
            samples, x = sample_demands(2, 0.0, 1e308, near_lower_rho(2), 4, seed=0), 0.0
            assert np.isnan(next(samples._draw())[1][3, 1])
        else:
            # One agent, so n * x = 1e308 is finite. The draws are finite too,
            # but x - D overflows at the lowest, -1.77e308.
            samples, x = sample_demands(1, 0.0, 1e308, 0.0, 3, seed=0), 1e308
            drawn = next(samples._draw())[1]
            assert np.isfinite(drawn).all() and drawn.min() < entry
        message = f"totals are not finite at quantity x = {x!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            estimate(x, samples)

    @pytest.mark.parametrize("estimate", [mean_game_profit, estimate_transshipment])
    def test_scenarios_that_overflow_in_the_draw(self, estimate):
        # sigma * Z passes the float maximum for |Z| > 1.8, so some entries are infinite
        samples = sample_demands(4, 0.0, 1e308, 0.3, 100, seed=1)
        with pytest.raises(ValueError, match="totals are not finite at quantity x = 0.0"):
            estimate(0.0, samples)

    def test_reading_scenarios_that_overflow(self):
        samples = sample_demands(4, 0.0, 1e308, 0.3, 100, seed=1)
        z = np.random.Generator(np.random.Philox(key=1)).standard_normal((100, 4))
        a, b = math.sqrt(0.7), math.sqrt(1.0 + 3 * 0.3)
        with np.errstate(over="ignore", invalid="ignore"):
            demands = 1e308 * (a * z + (b - a) * z.mean(axis=1)[:, np.newaxis])
        first = int(np.argmin(np.isfinite(demands).all(axis=1)))
        assert first == 4
        with pytest.raises(ValueError, match=r"^scenario demands are not finite from row 4: "
                                             r"mu = 0.0 and sigma = 1e\+308 overflow"):
            samples.scenarios
        assert "scenarios" not in vars(samples)

    def test_dumping_scenarios_that_overflow(self, tmp_path):
        samples = sample_demands(4, 0.0, 1e308, 0.3, 100, seed=1)
        path = tmp_path / "draws.csv"
        with pytest.raises(ValueError, match="scenario demands are not finite from row 4"):
            dump_scenarios(samples, path)
        # the 100 scenarios are one block, so no row is written
        assert path.read_bytes() == b"scenario_id,D_1,D_2,D_3,D_4\r\n"

    def test_a_later_block_that_overflows(self, monkeypatch, tmp_path):
        # one row per block: the error names the first row that is not finite
        monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", 1)
        samples = sample_demands(1, 0.0, 1e308, 0.0, 40, seed=3)
        z = np.random.Generator(np.random.Philox(key=3)).standard_normal(40)
        with np.errstate(over="ignore"):
            first = int(np.argmax(~np.isfinite(1e308 * z)))
        assert first > 0
        with pytest.raises(ValueError, match=f"not finite from row {first}:"):
            samples.scenarios
        path = tmp_path / "draws.csv"
        with pytest.raises(ValueError, match=f"not finite from row {first}:"):
            dump_scenarios(samples, path)
        assert len(path.read_text().splitlines()) == 1 + first

    def test_draw_leaves_the_error_state_alone(self):
        before = np.geterr()
        for _ in sample_demands(4, 0.0, 1e308, 0.3, 100, seed=1)._draw():
            assert np.geterr() == before

    def test_standard_error_overflow(self):
        # profits near 1e201 spread so far that their squared deviations overflow
        samples = sample_demands(4, 0.0, 1e200, 0.3, 100, seed=1)
        params = MarketParams(r=10, c=6, nu=2, t=2, mu=0.0, sigma=1e200, rho=0.3)
        with pytest.raises(ValueError, match="estimate is not finite"):
            estimate_profit(0.0, samples, params)


class TestRecordedEstimates:
    """Regression pins: McEstimate reprs and scenario digests recorded from the
    sampler that drew the whole matrix in one call, except at rho = 1 and
    n > 1. There the scenarios are single_agent_columns of the same mu, sigma,
    count and seed, and the estimates were recorded from totals that are n
    times one agent's, rounded once. The n = 31 and n = 128 "lower" rows were
    recorded again when the sampler's b = sqrt(1 + (n - 1) rho) became the
    exact sum rounded once below 1/2: their means moved by at most 7.4e-15
    relative and their standard errors by 5.4e-14; at n = 2, 3 the sum rounds
    to the same double. Each entry is (n, mu, sigma, rho kind, count, seed,
    xs, the first 32 hex digits of the sha256 of the scenarios, and of the
    profit and transshipment reprs at each x)."""

    CASES = [
        (1, 100.0, 20.0, "0", 2, 3, (103.0, 91.5),
         "c369db85217b62781050989123113699", "5de4f0a73e61133798240c8cf7087828"),
        (2, 0.0, 20.0, "lower", 3001, 2**64 + 5, (0.0, -0.0, 12.5),
         "ae47c310b8a695fa776e3dff858cc65e", "a1223c0e093dd9467576c10e951336dc"),
        (7, -0.0, 5e-324, "0", 1500, 11, (-0.0, 0.0, 5e-324),
         "9bcbc68ed62199f5688ae71b2e3d5ca7", "e86ee2284b9a5b3d26188278b156f7ef"),
        (7, 100.0, 20.0, "0.4", 2001, 2**127, (91.5, 103.0, 91.5),
         "fe76e4d97023ebef98267ee2323b2296", "f6e222099ad1a7cdfbafa7a9d5d9beee"),
        (31, 100.0, 5e-324, "1", 700, 0, (100.0, 99.99999999999999),
         "80d19166c59daec63c280ddd41223e47", "f44416584fa19b55df2dc0d15dcb196d"),
        (31, -0.0, 20.0, "lower", 1000, 77, (-20.0, 0.0, 35.0),
         "ae6f67156b4a992a90250d520face30d", "744a3575aae1e6d9f9cabb32526da2f1"),
        (128, 0.0, 5e-324, "0.4", 257, 2**128 - 1, (0.0, -5e-324, 1e-323),
         "41f2cf2f2e31885064e48676a19b6217", "cb23fb4d7072df952bd3c7c577e051fe"),
        (128, 100.0, 20.0, "lower", 500, 41, (103.0, 60.0),
         "62627a89f25aa0c404635c62588294e4", "ccbad58b452cae3c9b74f2d8b838c480"),
        (128, 100.0, 20.0, "1", 300, 9, (140.0, 100.0, 140.0),
         "69a137de5cc6f3c5a3e044f74803264d", "b969707c7feebe72e58f01dc71ac565f"),
        (3, 100.0, 20.0, "lower", 4097, 123456789, (97.0, 130.0),
         "a26345bcfae5b20774a17057f186302a", "7ff7805b2de3be874b81ef5198b6a081"),
    ]

    @pytest.mark.parametrize("read_first", [False, True])
    @pytest.mark.parametrize("case", CASES, ids=lambda case: f"n{case[0]}-{case[3]}-{case[5]}")
    def test_matches_recording(self, case, read_first):
        n, mu, sigma, rho_kind, count, seed, xs, matrix_digest, estimates_digest = case
        rho = near_lower_rho(n) if rho_kind == "lower" else float(rho_kind)
        samples = sample_demands(n, mu, sigma, rho, count, seed)
        if read_first:
            samples.scenarios
        reprs = []
        for k, x in enumerate(xs):
            # alternate which estimator makes the pass at each x
            if k % 2 == 0:
                profit = estimate_profit(x, samples, MEAN_GAME)
                moved = estimate_transshipment(x, samples)
            else:
                moved = estimate_transshipment(x, samples)
                profit = estimate_profit(x, samples, MEAN_GAME)
            reprs += [repr(profit), repr(moved)]
        digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
        assert digest[:32] == estimates_digest
        assert hashlib.sha256(samples.scenarios.tobytes()).hexdigest()[:32] == matrix_digest


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
    def test_shows_a_point_count_too_long_to_print_to_seven_figures(self):
        with pytest.raises(ValueError) as info:
            brute_force_optimal(MEAN_GAME, 3, 6.0, 10**5000)
        assert str(info.value) == "grid_points must be an odd integer >= 3, got 1.000000e+5000"

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

    @pytest.mark.parametrize("width", [1e308, 9e307, 1.7976931348623157e308])
    def test_rejects_width_whose_double_overflows(self, width):
        # 2w overflows: rejected before numpy warns about inf - inf on the grid
        with pytest.raises(ValueError, match="grid_half_width must be finite and positive"):
            brute_force_optimal(MEAN_GAME, 1, width, 2001)

    def test_width_whose_double_is_finite_reaches_the_grid(self):
        with pytest.raises(ValueError, match="expected profit is nan"):
            brute_force_optimal(MEAN_GAME, 1, 8.98e307, 2001)

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

    def test_rejects_a_grid_whose_every_profit_is_minus_infinity(self):
        # n * g * x overflows to -inf at every point, so no point is a finite
        # maximum; the first maximum, point 0, is named.
        params = MarketParams(r=10, c=6, nu=2, t=1, mu=-1e5, sigma=20, rho=0)
        with pytest.raises(ValueError) as info:
            brute_force_optimal(params, 10**306, 6.0, 101)
        assert str(info.value) == "expected profit is -inf at x = -100120.0"

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

    def test_scratch_memory_bounded_by_block(self):
        # Neither the grid nor the kernel's scratch may grow with the number
        # of points.
        params = MarketParams(r=10, c=7, nu=2, t=3, mu=100, sigma=20, rho=0.1)
        peaks = []
        for points in (4097, 32769):
            tracemalloc.start()
            try:
                brute_force_optimal(params, 5, 6.0, points)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


def count_antiderivative_calls(monkeypatch):
    """Wrap the cdf_antiderivative that J_n calls and return the list of its
    arguments. One J_n evaluation calls it at y and, where L > 1, at L * y."""
    calls = []

    def counted(y):
        calls.append(y)
        return cdf_antiderivative(y)

    monkeypatch.setattr(analytic_solver, "cdf_antiderivative", counted)
    return calls


class TestGridSearch:
    """The search returns the full scan's first maximum, bit for bit, in
    O(sqrt(points)) evaluations where the profile is not flat."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_full_scan_on_random_markets(self, seed):
        rng = np.random.default_rng(2500 + seed)
        for k in range(8):
            n = int(rng.integers(1, 201))
            rho = [0.0, rng.uniform(0.01, 0.9), -rng.uniform(0.0, 0.99) / max(1, n - 1),
                   1.0][k % 4]
            # a tail and its mirror: R = 1 - fractile puts c - nu at 8 * fractile
            fractile = 10.0 ** -rng.uniform(1.0, 7.0)
            markets = [random_market_params(rng, rho=rho), deep_tail_market(fractile, rho),
                       deep_tail_market(1.0 - fractile, rho),
                       dataclasses.replace(random_market_params(rng, rho=rho), sigma=1e-12)]
            for params in markets:
                for width, points in ((6.0, 2049), (40.0, 4097), (6.0, 101), (6.0, 3)):
                    assert brute_force_optimal(params, n, width, points) == \
                        reference_brute_force(params, n, width, points)

    def test_equals_the_full_scan_near_the_mean_and_in_the_mirrored_tail(self):
        # R = 1 - 1.25e-6 puts c - nu at 1e-5, R = 1.25e-6 is its mirror, and the
        # mean game peaks at y = 0, between two coarse points
        for fractile in (1.0 - 1.25e-6, 1.25e-6, 0.5):
            params = deep_tail_market(fractile, 0.3)
            for n in (1, 50):
                assert brute_force_optimal(params, n, 6.0, 20001) == \
                    reference_brute_force(params, n, 6.0, 20001)

    @pytest.mark.parametrize("width", [5e-324, 1e-320, 1.0 / 3.0, 1e-3, 6.0, 40.0, 1e307])
    def test_equals_the_full_scan_at_every_width(self, width):
        # 5e-324 and 1e-320 are subnormal; at 5e-324 with 5 or more points the
        # step underflows to 0 and numpy scales by the width last. A small
        # sigma keeps x finite at w = 1e307.
        params = MarketParams(r=10, c=7, nu=2, t=3, mu=100, sigma=1e-3, rho=0.1)
        for points in (3, 5, 2047, 2049, 4097):
            assert brute_force_optimal(params, 5, width, points) == \
                reference_brute_force(params, 5, width, points)

    def test_evaluations_grow_as_the_square_root_of_the_points(self, monkeypatch):
        calls = count_antiderivative_calls(monkeypatch)
        rng = np.random.default_rng(2510)
        for _ in range(8):
            params = random_market_params(rng, rho_range=(-0.004, 0.9))
            n = int(rng.integers(2, 201))  # L > 1: two calls per evaluation
            for points in (101, 2049, 20001):
                calls.clear()
                brute_force_optimal(params, n, 6.0, points)
                assert len(calls) / 2 <= 4 * math.sqrt(points)

    def test_a_flat_profile_is_scanned_whole(self, monkeypatch):
        # at sigma = 1e-12 the profile is flat to rounding, so no interval is skipped
        calls = count_antiderivative_calls(monkeypatch)
        params = MarketParams(r=10, c=7, nu=2, t=3, mu=100, sigma=1e-12, rho=0.1)
        brute_force_optimal(params, 5, 6.0, 2049)
        assert set(np.linspace(-6.0, 6.0, 2049).tolist()) <= set(calls)

    @pytest.mark.parametrize("sigma", [1e-10, 3e-10, 1e-9])
    def test_a_nearly_flat_profile_walks_past_the_first_intervals(self, monkeypatch, sigma):
        # eps, led by g * mu, is near the profile's own variation, so the walk
        # scans more than the coarse pass and the two intervals around its
        # maximum, and fewer than every point
        params = MarketParams(r=10, c=7, nu=2, t=3, mu=100, sigma=sigma, rho=0.1)
        expected = reference_brute_force(params, 5, 6.0, 2049)
        calls = count_antiderivative_calls(monkeypatch)
        assert brute_force_optimal(params, 5, 6.0, 2049) == expected
        coarse, s = 47, math.isqrt(2048)
        assert coarse + 2 * s < len(calls) / 2 < 2049

    def test_pooled_quantity_that_overflows_at_the_grid_ends(self):
        # L_3 is about 3873, so L * y overflows at the outer points; the peak
        # is the middle point, y = 0
        params = MarketParams(r=10, c=6, nu=2, t=1, mu=100, sigma=20, rho=-0.4999999)
        assert brute_force_optimal(params, 3, 1e305, 101) == \
            (100.0, expected_profit(100.0, 3, params))


class TestScenarioDump:
    # perfbench dumps only at 0 < |rho| < 1, so tier-1 covers rho = 0, the
    # lower edge and rho = 1, where the draw takes its other paths
    @pytest.mark.parametrize("n", [1, 3, 7, 128])
    @pytest.mark.parametrize("rho_kind", ["0", "lower", "0.2", "1"])
    def test_round_trip_full_precision(self, tmp_path, n, rho_kind):
        rho = near_lower_rho(n) if rho_kind == "lower" else float(rho_kind)
        samples = sample_demands(n, 100, 20, rho, 50, seed=14)
        path = tmp_path / "scenarios.csv"
        dump_scenarios(samples, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["scenario_id"] + [f"D_{j}" for j in range(1, n + 1)]
        assert len(rows) == 51
        assert [row[0] for row in rows[1:]] == [str(i) for i in range(50)]
        parsed = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert parsed.tobytes() == samples.scenarios.tobytes()


class TestNumpySummationOrder:
    """_row_sums gives numpy's own row sums bit for bit, by following its
    left-to-right order below 8 columns; the estimators' bits at rho < 1 rest
    on it."""

    @staticmethod
    def assert_same_bits(got, expected, what):
        assert np.array_equal(got, expected) and \
            np.array_equal(np.signbit(got), np.signbit(expected)), (
                f"{what}: numpy's summation order changed, so the estimators' sums no longer "
                f"reproduce ndarray.sum(axis=1)")

    def test_row_sums(self):
        rng = np.random.default_rng(41)
        for n in range(1, 301):
            block = rng.standard_normal((48, n)) * 10.0 ** rng.integers(-8, 8, (48, n))
            block[0] = -0.0
            block[1] = 0.0
            block[2, ::2] = -0.0
            block[3, 1:] = -0.0
            block[4] = -block[4]
            self.assert_same_bits(simulation._row_sums(block, np.empty(48)),
                                  block.sum(axis=1), f"_row_sums at n = {n}")

    def test_mean_is_the_row_sum_over_n(self):
        # the draw forms each row mean as _row_sums(...) / k
        rng = np.random.default_rng(43)
        for n in range(1, 200):
            block = rng.standard_normal((48, n))
            self.assert_same_bits(block.sum(axis=1) / n, block.mean(axis=1),
                                  f"ndarray.mean at n = {n}")
