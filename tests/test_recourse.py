import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from support import enumerate_best_plan, lp_best_plan, random_surplus_shortage
from transship import recourse
from transship.recourse import (
    GeneralAgentParams,
    SurplusShortage,
    solve_transshipment_plan,
    symmetric_recourse_value,
    validate_general_params,
)

OVERFLOW = "recourse objective exceeds the float range (> 1.7976931348623157e+308)"


def identical_agents(n, r=10.0, c=6.0, nu=2.0, t=2.0):
    t_matrix = tuple(tuple(0.0 if i == j else t for j in range(n)) for i in range(n))
    return GeneralAgentParams(r=(r,) * n, c=(c,) * n, nu=(nu,) * n, t=t_matrix)


class TestValidateGeneralParams:
    def test_identical_agents_ok(self):
        assert validate_general_params(identical_agents(4)) == []

    def test_transport_cost_boundary(self):
        params = GeneralAgentParams(
            r=(10.0, 10.0), c=(6.0, 6.0), nu=(2.0, 2.0),
            t=((0.0, 8.0), (2.0, 0.0)),  # t_12 = r_2 - nu_1
        )
        violations = validate_general_params(params)
        assert any("t_ij < r_j - nu_i" in v and "(1, 2)" in v for v in violations)

    def test_salvage_boundary(self):
        params = GeneralAgentParams(
            r=(10.0, 10.0), c=(6.0, 6.0), nu=(6.0, 2.0),
            t=((0.0, 2.0), (2.0, 0.0)),
        )
        violations = validate_general_params(params)
        assert any("nu < c violated at agent 1" in v for v in violations)

    def test_nonzero_diagonal(self):
        params = GeneralAgentParams(
            r=(10.0,), c=(6.0,), nu=(2.0,), t=((1.0,),))
        assert any("t_ii = 0" in v for v in validate_general_params(params))

    def test_arbitrage_inequalities(self):
        # c_1 >= c_2 + t_21 makes buying via agent 2 weakly better
        params = GeneralAgentParams(
            r=(10.0, 10.0), c=(9.0, 4.0), nu=(2.0, 2.0),
            t=((0.0, 2.0), (2.0, 0.0)),
        )
        violations = validate_general_params(params)
        assert any(v.startswith("c_i < c_j + t_ji") for v in violations)

    def test_price_inequalities(self):
        # c_2 = r_2, and r_1 = 20 >= r_2 + t_21 = 12 makes agent 1 buy from agent 2
        params = GeneralAgentParams(
            r=(20.0, 10.0), c=(6.0, 10.0), nu=(2.0, 2.0),
            t=((0.0, 2.0), (2.0, 0.0)),
        )
        violations = validate_general_params(params)
        assert "c < r violated at agent 2" in violations
        assert "r_i < r_j + t_ji violated at (i, j) = (1, 2)" in violations

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="equal lengths"):
            GeneralAgentParams(r=(10.0,), c=(6.0, 6.0), nu=(2.0,), t=((0.0,),))
        with pytest.raises(ValueError, match="matrix"):
            GeneralAgentParams(r=(10.0,), c=(6.0,), nu=(2.0,), t=((0.0, 1.0),))

    def test_profit_matrix(self):
        params = identical_agents(2, r=10.0, nu=2.0, t=2.0)
        p = params.profit_matrix()
        assert p[0][1] == 6.0 and p[1][0] == 6.0
        assert p[0][0] == 8.0  # self-route profit exists but H_i*E_i = 0 bars its use


class TestSurplusShortage:
    def test_from_quantities(self):
        ss = SurplusShortage.from_quantities((5.0, 5.0, 5.0), (3.0, 5.0, 9.0))
        assert ss.surplus == (2.0, 0.0, 0.0)
        assert ss.shortage == (0.0, 0.0, 4.0)

    def test_from_quantities_length_mismatch(self):
        with pytest.raises(ValueError, match="^quantities and demands must have equal lengths$"):
            SurplusShortage.from_quantities([1.0, 2.0], [1.0])

    def test_mutual_exclusivity_enforced(self):
        with pytest.raises(ValueError, match="both surplus and shortage"):
            SurplusShortage(surplus=(1.0,), shortage=(1.0,))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            SurplusShortage(surplus=(-1.0,), shortage=(0.0,))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            SurplusShortage(surplus=(math.nan,), shortage=(0.0,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal lengths"):
            SurplusShortage(surplus=(1.0,), shortage=(0.0, 0.0))


class TestSymmetricRecourseValue:
    def test_nothing_to_receive(self):
        assert symmetric_recourse_value(SurplusShortage((2.0, 3.0), (0.0, 0.0)), 5.0) == 0.0

    def test_min_side_binds(self):
        assert symmetric_recourse_value(SurplusShortage((4.0, 0.0), (0.0, 7.0)), 6.0) == 24.0

    def test_requires_positive_profit(self):
        with pytest.raises(ValueError, match="positive"):
            symmetric_recourse_value(SurplusShortage((1.0,), (0.0,)), 0.0)

    def test_requires_finite_profit(self):
        with pytest.raises(ValueError, match="positive"):
            symmetric_recourse_value(SurplusShortage((1.0, 0.0), (0.0, 1.0)), math.inf)

    def test_objective_past_the_float_range_raises_one_line(self):
        ss = SurplusShortage((1e308, 0.0), (0.0, 1e308))
        with pytest.raises(ValueError) as info:
            symmetric_recourse_value(ss, 10.0)
        assert str(info.value) == OVERFLOW


class TestSolveTransshipmentPlan:
    def test_single_route(self):
        ss = SurplusShortage((5.0, 0.0), (0.0, 3.0))
        plan = solve_transshipment_plan(ss, [[0.0, 2.0], [0.0, 0.0]])
        assert plan.shipments[0][1] == 3.0
        assert plan.objective == 6.0

    def test_greedy_trap(self):
        # greedy by profit ships A->C then B->D for 11; optimum is A->D, B->C for 17
        ss = SurplusShortage((1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0))
        profit = [
            [0.0, 0.0, 10.0, 9.0],
            [0.0, 0.0, 8.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
        plan = solve_transshipment_plan(ss, profit)
        assert plan.objective == 17.0
        assert plan.shipments[0][3] == 1.0
        assert plan.shipments[1][2] == 1.0

    def test_uniform_profit_reduces_to_pooled_minimum(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            surplus, shortage = random_surplus_shortage(rng, n, max_units=5.0)
            ss = SurplusShortage(surplus, shortage)
            p = float(rng.uniform(0.1, 9.0))
            plan = solve_transshipment_plan(ss, [[p] * n for _ in range(n)])
            assert plan.objective == symmetric_recourse_value(ss, p)

    def test_matches_enumeration_on_integer_instances(self):
        rng = np.random.default_rng(55)
        for _ in range(150):
            n = int(rng.integers(1, 5))
            surplus, shortage = random_surplus_shortage(rng, n, integer=True)
            profit = [[float(rng.uniform(-2.0, 10.0)) for _ in range(n)] for _ in range(n)]
            ss = SurplusShortage(surplus, shortage)
            plan = solve_transshipment_plan(ss, profit)
            assert plan.objective == enumerate_best_plan(surplus, shortage, profit)

    def test_plan_feasible(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            surplus, shortage = random_surplus_shortage(rng, n, max_units=4.0)
            profit = [[float(rng.uniform(-1.0, 8.0)) for _ in range(n)] for _ in range(n)]
            plan = solve_transshipment_plan(SurplusShortage(surplus, shortage), profit)
            for i in range(n):
                row_total = sum(plan.shipments[i])
                col_total = sum(plan.shipments[k][i] for k in range(n))
                assert row_total <= surplus[i] + 1e-9
                assert col_total <= shortage[i] + 1e-9
                assert all(w >= 0.0 for w in plan.shipments[i])

    def test_non_positive_routes_unused(self):
        ss = SurplusShortage((3.0, 0.0), (0.0, 5.0))
        plan = solve_transshipment_plan(ss, [[0.0, -2.0], [0.0, 0.0]])
        assert plan.objective == 0.0
        assert all(w == 0.0 for row in plan.shipments for w in row)
        plan = solve_transshipment_plan(ss, [[0.0, 0.0], [0.0, 0.0]])
        assert plan.objective == 0.0

    def test_capacity_monotonicity(self):
        rng = np.random.default_rng(88)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            surplus, shortage = random_surplus_shortage(rng, n, max_units=4.0)
            profit = [[float(rng.uniform(0.0, 8.0)) for _ in range(n)] for _ in range(n)]
            base = solve_transshipment_plan(SurplusShortage(surplus, shortage), profit)
            idx = int(rng.integers(0, n))
            if surplus[idx] > 0:
                bumped = tuple(h + 1.0 if i == idx else h for i, h in enumerate(surplus))
                grown = solve_transshipment_plan(SurplusShortage(bumped, shortage), profit)
            else:
                bumped = tuple(e + 1.0 if i == idx else e for i, e in enumerate(shortage))
                grown = solve_transshipment_plan(SurplusShortage(surplus, bumped), profit)
            assert grown.objective >= base.objective - 1e-12

    def test_deterministic(self):
        ss = SurplusShortage((2.0, 1.0, 0.0), (0.0, 0.0, 2.0))
        profit = [[0.0, 0.0, 3.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]]
        first = solve_transshipment_plan(ss, profit)
        second = solve_transshipment_plan(ss, profit)
        assert first == second

    def test_dimension_mismatch(self):
        ss = SurplusShortage((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="2 x 2"):
            solve_transshipment_plan(ss, [[1.0]])

    def test_non_finite_profit_rejected(self):
        ss = SurplusShortage((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            solve_transshipment_plan(ss, [[0.0, math.inf], [0.0, 0.0]])

    def test_objective_past_the_float_range_raises_one_line(self):
        # Each flow and profit fits a float; their exact product does not.
        ss = SurplusShortage((5.0, 0.0), (0.0, 5.0))
        with pytest.raises(ValueError) as info:
            solve_transshipment_plan(ss, [[0.0, 1e308], [0.0, 0.0]])
        assert str(info.value) == OVERFLOW


def exact_overshoots(plan, surplus, shortage):
    """Exact row total minus H_i and column total minus E_j of a float plan."""
    n = len(surplus)
    rows = [sum(map(Fraction, plan.shipments[i])) - Fraction(surplus[i]) for i in range(n)]
    cols = [sum(Fraction(plan.shipments[i][j]) for i in range(n)) - Fraction(shortage[j])
            for j in range(n)]
    return rows, cols


class TestFloatPlanRounding:
    def test_rounded_shipments_can_overshoot_a_bound(self):
        # Each shipment is its exact flow rounded on its own, so a total may
        # exceed its bound; here agent 1 ships 8.9e-16 (a quarter ulp) too much.
        rng = np.random.default_rng(16)
        surplus, shortage = random_surplus_shortage(rng, 11, max_units=50.0)
        profit = [[float(rng.uniform(-2.0, 10.0)) for _ in range(11)] for _ in range(11)]
        plan = solve_transshipment_plan(SurplusShortage(surplus, shortage), profit)
        rows, _ = exact_overshoots(plan, surplus, shortage)
        assert 0 < rows[0] <= math.ulp(surplus[0]) / 4

    def test_general_plans_match_highs(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(41)
        for n in (12, 19, 26, 33, 40):
            surplus, shortage = random_surplus_shortage(rng, n, max_units=50.0)
            profit = [[float(rng.uniform(-2.0, 10.0)) for _ in range(n)] for _ in range(n)]
            plan = solve_transshipment_plan(SurplusShortage(surplus, shortage), profit)
            assert plan.objective == pytest.approx(lp_best_plan(surplus, shortage, profit),
                                                   rel=1e-9)
            rows, cols = exact_overshoots(plan, surplus, shortage)
            for over, bound in zip(rows + cols, surplus + shortage):
                assert over <= Fraction(n * math.ulp(bound))


def general_plan_inputs(rng, n):
    """Half the agents short around a common quantity, profits p_ij = r_j - nu_i - t_ij."""
    demands = 100.0 + np.where(rng.permutation(n) < n // 2, 1.0, -1.0) * np.abs(
        rng.normal(0.0, 20.0, n))
    ss = SurplusShortage.from_quantities([100.0] * n, demands.tolist())
    r = 10.0 + rng.uniform(-0.25, 0.25, n)
    nu = 2.0 + rng.uniform(-0.25, 0.25, n)
    t = rng.uniform(1.0, 3.0, (n, n))
    profit = [[float(r[j] - nu[i] - (0.0 if i == j else t[i, j])) for j in range(n)]
              for i in range(n)]
    return ss, profit


def uniform_plan_inputs(rng, n):
    ss = SurplusShortage(*random_surplus_shortage(rng, n, max_units=50.0))
    p = float(rng.uniform(0.1, 9.0))
    return ss, [[p] * n for _ in range(n)]


def tie_heavy_plan_inputs(rng, n):
    """Small integer amounts and profits, so many paths tie on profit."""
    ss = SurplusShortage(*random_surplus_shortage(rng, n, integer=True, max_units=4.0))
    return ss, [[float(rng.integers(-1, 4)) for _ in range(n)] for _ in range(n)]


class TestPlanDigests:
    # sha256 of the reprs of (shipments, objective), one line per plan. The
    # digests pin every bit of every plan, tie-breaking between equal-profit
    # paths included, so a rewrite of the path search must keep them.
    @pytest.mark.parametrize("make, sizes, seed, digest", [
        (general_plan_inputs, range(2, 17), 2001,
         "159c5342ef240197441510afc2ece97c4983df49bb1f0d8f378fc793e5c32f67"),
        (uniform_plan_inputs, range(1, 17), 2002,
         "f801bc9370dd8ee7830a0f262fdb0a00f9c20b33c21205d3490668de4215f726"),
        (tie_heavy_plan_inputs, [2, 3, 5, 8, 11, 14] * 20, 2003,
         "f7046b17382e96d6c6d7119db7b51d006f9471c31a71452886c1f005e73802aa"),
    ], ids=["general", "uniform", "tie-heavy"])
    def test_plans_keep_their_bits(self, make, sizes, seed, digest):
        rng = np.random.default_rng(seed)
        plans = [solve_transshipment_plan(*make(rng, n)) for n in sizes]
        reprs = "\n".join(repr((plan.shipments, plan.objective)) for plan in plans)
        assert hashlib.sha256(reprs.encode()).hexdigest() == digest


def block(ss):
    """The surplus rows S and shortage columns T, by the solver's arc rule."""
    return ([i for i, h in enumerate(ss.surplus) if h > 0.0],
            [j for j, e in enumerate(ss.shortage) if e > 0.0])


def constant_on_block(ss, profit, v):
    """profit with every entry on S x T set to v and the rest left as it is."""
    rows, cols = block(ss)
    return [[v if i in rows and j in cols else value for j, value in enumerate(row)]
            for i, row in enumerate(profit)]


@pytest.fixture
def path_search(monkeypatch):
    """The solver with the augmenting-path builder in place of the northwest
    one. The public solver, meanwhile, may not run the path search."""
    loop = recourse._augmenting_path_flows

    def refuse(*state):
        raise AssertionError("the path search ran on a constant block")

    def solve(ss, profit):
        with monkeypatch.context() as swap:
            swap.setattr(recourse, "_northwest_flows", loop)
            return solve_transshipment_plan(ss, profit)

    monkeypatch.setattr(recourse, "_augmenting_path_flows", refuse)
    return solve


class TestNorthwestMatchesPathSearch:
    # On a profit block constant on S x T the solver builds the northwest-corner
    # plan; the same solver with the augmenting-path builder swapped in is its
    # oracle for every shipment, the objective and the augmentation count.
    @staticmethod
    def check(path_search, ss, profit):
        plan = solve_transshipment_plan(ss, profit)
        expected = path_search(ss, profit)
        assert plan == expected
        assert repr(plan) == repr(expected)
        return plan

    @pytest.mark.parametrize("seed", [2002, 2702, 2703])
    def test_uniform_inputs(self, path_search, seed):
        rng = np.random.default_rng(seed)
        for n in range(1, 17):
            self.check(path_search, *uniform_plan_inputs(rng, n))

    @pytest.mark.parametrize("seed", [2003, 2704])
    def test_tie_heavy_inputs_forced_constant(self, path_search, seed):
        rng = np.random.default_rng(seed)
        for n in [2, 3, 5, 8, 11, 14] * 10:
            ss, profit = tie_heavy_plan_inputs(rng, n)
            self.check(path_search, ss, [[profit[0][0]] * n for _ in range(n)])

    @pytest.mark.parametrize("v", [-1.0, 0.0, -0.0, 2.5])
    def test_constant_on_the_block_only(self, path_search, v):
        rng = np.random.default_rng(2705)
        for n in range(1, 13):
            for make in (general_plan_inputs, tie_heavy_plan_inputs):
                ss, profit = make(rng, n)
                plan = self.check(path_search, ss, constant_on_block(ss, profit, v))
                if v <= 0.0:
                    assert plan.augmentations == 0 and plan.objective == 0.0

    def test_diagonal_differs(self, path_search):
        # Off the block, the diagonal holds other values; they never ship.
        ss = SurplusShortage((2.0, 0.0, 1.0, 0.0), (0.0, 1.5, 0.0, 2.0))
        profit = [[9.0 if i == j else 3.0 for j in range(4)] for i in range(4)]
        plan = self.check(path_search, ss, profit)
        assert plan.objective == 9.0
        assert plan.augmentations == 3

    def test_one_agent(self, path_search):
        for ss in (SurplusShortage((2.0,), (0.0,)), SurplusShortage((0.0,), (2.0,)),
                   SurplusShortage((0.0,), (0.0,))):
            plan = self.check(path_search, ss, [[4.0]])
            assert plan.shipments == ((0.0,),) and plan.augmentations == 0

    def test_empty_surplus_or_shortage(self, path_search):
        for ss in (SurplusShortage((0.0, 0.0, 0.0), (1.0, 0.0, 2.0)),
                   SurplusShortage((1.0, 0.0, 2.0), (0.0, 0.0, 0.0))):
            # With S or T empty the block is empty, whatever the matrix holds.
            plan = self.check(path_search, ss, [[1.0, 2.0, 3.0]] * 3)
            assert plan.objective == 0.0 and plan.augmentations == 0

    def test_objective_past_the_float_range_raises_one_line_on_both_paths(self, path_search):
        ss = SurplusShortage((5.0, 0.0), (0.0, 5.0))
        profit = [[1e308, 1e308], [1e308, 1e308]]
        for solve in (solve_transshipment_plan, path_search):
            with pytest.raises(ValueError) as info:
                solve(ss, profit)
            assert str(info.value) == OVERFLOW


class TestIdenticalAgentsAtScale:
    def test_thousand_agents_take_no_path_search(self):
        # The path search would take minutes here; the step count, not a
        # timing, shows that none ran.
        rng = np.random.default_rng(2706)
        n, p = 1000, 3.7
        ss = SurplusShortage(*random_surplus_shortage(rng, n, max_units=50.0))
        plan = solve_transshipment_plan(ss, [[p] * n for _ in range(n)])
        rows, cols = block(ss)
        assert plan.augmentations <= len(rows) + len(cols) - 1
        assert plan.objective == symmetric_recourse_value(ss, p)
        for i in range(n):
            row_total = sum(Fraction(w) for w in plan.shipments[i] if w)
            col_total = sum(Fraction(plan.shipments[k][i]) for k in rows
                            if plan.shipments[k][i])
            assert row_total - Fraction(ss.surplus[i]) <= Fraction(n * math.ulp(ss.surplus[i])) / 2
            assert col_total - Fraction(ss.shortage[i]) <= Fraction(n * math.ulp(ss.shortage[i])) / 2

    def test_general_matrix_takes_the_path_search(self, monkeypatch):
        calls = []
        loop = recourse._augmenting_path_flows

        def counted(*state):
            calls.append(state[:2])
            return loop(*state)

        monkeypatch.setattr(recourse, "_augmenting_path_flows", counted)
        ss, profit = general_plan_inputs(np.random.default_rng(2707), 6)
        plan = solve_transshipment_plan(ss, profit)
        assert calls == [block(ss)]
        assert plan.augmentations >= 1


class TestCantHappenGuards:
    # Successive shortest paths never reach these guards; each is reached here
    # from a state the solver never builds, and raises its one line.
    def test_negative_cycle(self):
        # Flow on (0, 2) and (1, 3) at profit 1, while (0, 3) and (1, 2) earn
        # 5: the cycle 0 -> 3 -> 1 -> 2 -> 0 gains 8 per unit.
        p = {(0, 2): Fraction(1), (0, 3): Fraction(5), (1, 2): Fraction(5), (1, 3): Fraction(1)}
        flow = {(0, 2): Fraction(1), (1, 3): Fraction(1)}
        rem = {0: Fraction(1), 1: Fraction(0), 2: Fraction(0), 3: Fraction(1)}
        with pytest.raises(RuntimeError, match="^negative cycle detected in residual graph$"):
            recourse._best_augmenting_path([0, 1], [2, 3], p, flow, rem)

    def test_augmenting_loop_that_does_not_end(self, monkeypatch):
        # A search that keeps returning the route 0 -> 1 after it is drained.
        monkeypatch.setattr(recourse, "_best_augmenting_path",
                            lambda *state: (Fraction(3), [0, 1]))
        ss = SurplusShortage((2.0, 0.0, 0.0), (0.0, 1.0, 1.0))
        profit = [[0.0, 3.0, 1.0], [0.0] * 3, [0.0] * 3]
        with pytest.raises(RuntimeError, match="^augmenting-path loop failed to terminate$"):
            solve_transshipment_plan(ss, profit)
