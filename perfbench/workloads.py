"""The three workloads: how each op's inputs are drawn, what an op calls, and
how its output is checked.

Op k of a workload depends only on (seed, k), so a traced and an untraced
pass see the same inputs, and two runs with one seed see the same ops.
Op kinds rotate in a fixed order, and the sizes that set an op's cost come,
within each kind, from a golden-ratio sequence with a seeded offset rather
than from independent draws: every prefix of the op stream then holds the
same mix of kinds and covers each kind's size range evenly, so latency
percentiles do not wander with the seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import tracemalloc
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracles

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SWEEP_HEADER = ["x", "Y_n", "Phi_Y_n", "J_dot_n", "beta_n", "omega_n", "Y_inf"]


def _rng(*parts) -> random.Random:
    # A str seed is hashed with SHA-512, so the stream is the same in every process.
    return random.Random(":".join(map(str, parts)))


def _size_quantile(seed, name, k, period) -> float:
    """u in [0, 1) for op k: a golden-ratio sequence over the ops of kind k mod period."""
    return (_rng(seed, name, "offset").random() + (k // period) * GOLDEN) % 1.0


def digest(output) -> str:
    """Bit-exact fingerprint of an op's output (repr keeps every float digit)."""
    return hashlib.sha256(repr(output).encode()).hexdigest()


@dataclass
class Op:
    index: int
    kind: str
    args: dict


@dataclass
class Verdict:
    failures: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)


class Workload:
    name = ""
    modules: tuple = ()
    trace_ops = 0

    def __init__(self, prog, seed: int, scratch: Path | None = None):
        self.prog = prog
        self.seed = seed
        self.scratch = scratch     # where an op may write files
        self.solves = 0            # coalition-size solves issued, for cdf_per_solve
        self.measure_alloc = False # set by the traced run: tracemalloc around sampling
        self.alloc_peaks = []

    def make(self, k: int) -> Op:
        raise NotImplementedError

    def warmup(self) -> Op:
        """An untimed first op; the largest kind where memory peaks depend on size."""
        return self.make(0)

    def run(self, op: Op):
        raise NotImplementedError

    def keep(self, op: Op, output):
        """The part of an op's output its oracles need, held until the loop ends."""
        return output

    def check(self, op: Op, kept) -> Verdict:
        raise NotImplementedError


def _check_root(verdict, params, n, y, label):
    R, root, slope = oracles.condition_root(params.r, params.c, params.nu, params.t,
                                            params.rho, n)
    err = abs(y - root)
    if err > oracles.root_tolerance(R, slope):
        verdict.failures.append(f"{label}: y_opt(n={n}) = {y!r} vs 50-digit root "
                                f"{float(root)!r} (|err| = {float(err):.3g})")
    return float(err / abs(root)) if root != 0 else float(err)


# ---------------------------------------------------------------------------
# closed_form: one market studied through the CLI sweep, the per-size
# sequence, the core check, the grid oracle and the limit table.


class ClosedForm(Workload):
    name = "closed_form"
    modules = ("cli", "analytic_solver", "core_analysis", "simulation")
    trace_ops = 36
    # (family, rho kind); a "mirror" slot holds the market before it with c -> r + nu - c,
    # which maps R to 1 - R. Tail markets have min(R, 1 - R) in [1e-7, 1e-2], deep-tail
    # ones in [1e-10, 1e-8]. Mean games, rho = 1 and deep tails make cheap ops (~50 ms
    # on a 2-vCPU VM), the rest ~90 ms. With 4 cheap slots in 18, p50 and p90 fall
    # well inside the expensive group, where the density is high, not on its shoulder.
    # The mean-game slot takes rho = 0 in even cycles and rho in (0.01, 0.9) in odd ones.
    SLOTS = (("body-over", "0"), ("body-under", "pos"), ("deep-tail", "pos"), ("mirror", "pos"),
             ("body-over", "neg"), ("tail", "pos"), ("mirror", "pos"), ("mean", "0|pos"),
             ("body-under", "0"), ("body-over", "pos"), ("body", "1"), ("body-under", "neg"),
             ("tail", "0"), ("mirror", "0"), ("body", "0"), ("body", "pos"), ("body", "neg"),
             ("body-under", "pos"))
    # ROADMAP item 3's mirrored games (10, 10 - 8 eps, 2) / (10, 2 + 8 eps, 2), with
    # t = 1, rho = 0.1, n = 20, in slots 2 and 3: eps = 1e-10 in cycle 0, 1e-8 in cycle 1.
    PINNED = {0: 1e-10, 1: 1e-8}
    PINNED_SLOT = 2
    # The grid oracle runs where |Phi^-1(R)| <= 5.2, so |Y_n| < 6 and the 6-sigma
    # grid holds the optimum; deep-tail markets skip it. Deciding this from R,
    # not from the program's output, keeps the op mix the same for every seed.
    GRID_MIN_FRACTILE = 1e-7

    def __init__(self, prog, seed, tiny=False, scratch=None):
        super().__init__(prog, seed, scratch)
        self.steps = 12 if tiny else 200
        self.n_max = 12 if tiny else 200
        self.grid_points = 201 if tiny else 20001
        self._cycles = {}

    def make(self, k):
        cycle, slot = divmod(k, len(self.SLOTS))
        market = self._cycle(cycle)[slot]
        family, rho_kind = self.SLOTS[slot][0], market["rho_kind"]
        p = market["params"]
        argv = ["sweep", "--over", "t", "--from", "0.0", "--to", repr(market["t_hi"]),
                "--steps", str(self.steps), "--n", str(market["n"])]
        for key in ("r", "c", "nu", "mu", "sigma", "rho"):
            argv += [f"--{key}", repr(getattr(p, key))]
        return Op(k, f"{family}/rho-{rho_kind}", dict(market, argv=argv))

    def _cycle(self, cycle):
        if cycle not in self._cycles:
            self._cycles = {cycle: self._draw_cycle(cycle)}
        return self._cycles[cycle]

    def _draw_cycle(self, cycle):
        rng = _rng(self.seed, self.name, "cycle", cycle)
        markets = []
        for slot, (family, rho_kind) in enumerate(self.SLOTS):
            if "|" in rho_kind:
                rho_kind = rho_kind.split("|")[cycle % 2]
            if family == "mirror":
                base = markets[-1]
                r, c, nu = base["rc_nu"]
                markets.append(self._market(r, r + nu - c, nu, base["t"], base["mu"],
                                            base["sigma"], base["rho"], base["n"],
                                            base["rho_kind"]))
                continue
            if slot == self.PINNED_SLOT and cycle in self.PINNED:
                eps = self.PINNED[cycle]
                markets.append(self._market(10.0, 10.0 - 8 * eps, 2.0, 1.0, 100.0, 20.0,
                                            0.1, min(20, self.n_max), rho_kind))
                continue
            if family == "mean":
                # r - c == c - nu exactly in binary, so R is exactly 1/2.
                c = round(rng.uniform(4.0, 40.0) * 64) / 64
                d = round(c * rng.uniform(0.1, 0.9) * 64) / 64
                r, nu = c + d, c - d
            else:
                r = rng.uniform(5.0, 50.0)
                nu = r * rng.uniform(0.05, 0.5)
                if family == "tail":
                    R = 10.0 ** rng.uniform(-7.0, -2.0)
                elif family == "deep-tail":
                    R = 10.0 ** rng.uniform(-10.0, -8.0)
                elif family == "body-over":
                    R = rng.uniform(0.52, 0.98)
                elif family == "body-under":
                    R = rng.uniform(0.02, 0.48)
                else:
                    R = rng.uniform(0.02, 0.98)
                c = r - R * (r - nu)
            g, g_tilde = r - c, c - nu
            cut = 2.0 * min(g, g_tilde)
            span = r - nu
            if family == "mean" or rng.random() < 0.5:
                t = min(cut, span) * rng.uniform(0.05, 0.95)
            else:
                t = cut + (span - cut) * rng.uniform(0.05, 0.95)
            rho = {"0": 0.0, "1": 1.0,
                   "pos": rng.uniform(0.01, 0.9),
                   "neg": -rng.uniform(0.0005, 0.004)}[rho_kind]
            mu = rng.uniform(50.0, 200.0)
            sigma = mu * rng.uniform(0.05, 0.25)
            n = min(self.n_max, max(1, round(200.0 ** rng.random())))
            markets.append(self._market(r, c, nu, t, mu, sigma, rho, n, rho_kind))
        return markets

    def _market(self, r, c, nu, t, mu, sigma, rho, n, rho_kind):
        params = self.prog.game_model.MarketParams(r=r, c=c, nu=nu, t=t, mu=mu,
                                                   sigma=sigma, rho=rho)
        R = (r - c) / (r - nu)
        return {"params": params, "rc_nu": (r, c, nu), "t": t, "mu": mu, "sigma": sigma,
                "rho": rho, "rho_kind": rho_kind, "n": n, "t_hi": 0.98 * (r - nu),
                "grid": min(R, 1.0 - R) >= self.GRID_MIN_FRACTILE}

    def run(self, op):
        prog, a = self.prog, op.args
        params, n = a["params"], a["n"]
        out = io.StringIO()
        code = prog.cli.main(a["argv"], out=out)
        results, report = prog.analytic_solver.quantity_sequence(params, self.n_max)
        core = prog.core_analysis.check_equal_allocation_core(params, self.n_max)
        grid = None
        if a["grid"]:
            grid = prog.simulation.brute_force_optimal(params, n, 6.0, self.grid_points)
        limit = prog.analytic_solver.limit_analysis(params) if params.rho == 0.0 else None
        self.solves += self.steps + 2 * self.n_max
        return code, out.getvalue(), results, report, core, grid, limit

    def root_sizes(self):
        return sorted({1, min(20, self.n_max), self.n_max})

    def keep(self, op, output):
        # Held for every op, the 200-result sequences and sweep texts would grow
        # the resident set with the number of ops the machine manages to run.
        code, text, results, report, core, grid, limit = output
        sizes = set(self.root_sizes()) | {op.args["n"]}
        return (code, zlib.compress(text.encode()), len(results),
                {m: results[m - 1] for m in sizes if m <= len(results)},
                report.sign_preserved, core.in_core, core.worst_margin, grid, limit)

    def check(self, op, kept):
        params, n = op.args["params"], op.args["n"]
        code, text, count, results, sign_preserved, in_core, margin, grid, limit = kept
        verdict = Verdict()
        fail = verdict.failures.append
        if code != 0:
            fail(f"cli sweep exited {code}")
        self._check_sweep(verdict, op, zlib.decompress(text).decode())
        if count != self.n_max:
            fail(f"quantity_sequence returned {count} results, not {self.n_max}")
            return verdict
        errors = [_check_root(verdict, params, m, results[m].y_opt, "sequence")
                  for m in self.root_sizes()]
        if op.kind.startswith(("tail", "deep-tail", "mirror")):
            verdict.observed["tail_rel_err"] = max(errors)
        if not sign_preserved:
            fail("SequenceReport.sign_preserved is False")
        if not in_core:
            fail(f"equal allocation not in core (worst margin {margin!r})")
        if grid is not None:
            spacing = 2 * 6.0 * params.sigma / (self.grid_points - 1)
            gap = abs(grid[0] - results[n].x_opt)
            if gap > spacing and gap > self._flat_top(params, n, spacing, grid[1]):
                fail(f"grid argmax {grid[0]!r} is {gap / spacing:.2f} spacings from "
                     f"x_opt {results[n].x_opt!r}")
        if params.rho == 0.0:
            self._check_limit(verdict, params, limit)
        return verdict

    @staticmethod
    def _flat_top(params, n, spacing, profit):
        _, _, slope = oracles.condition_root(params.r, params.c, params.nu, params.t,
                                             params.rho, n)
        return oracles.grid_tolerance(spacing, params.sigma, n, params.r, params.nu,
                                      slope, profit)

    def _check_sweep(self, verdict, op, text):
        prog, a = self.prog, op.args
        p, n = a["params"], a["n"]
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != SWEEP_HEADER or len(rows) != self.steps + 1:
            verdict.failures.append(f"sweep output has a bad header or {len(rows) - 1} rows")
            return
        span = a["t_hi"] - 0.0
        for k, row in enumerate(rows[1:]):
            t = 0.0 + span * k / (self.steps - 1)
            at_t = prog.game_model.MarketParams(p.r, p.c, p.nu, t, p.mu, p.sigma, p.rho)
            res = prog.analytic_solver.solve_optimal_quantity(n, at_t)
            y_inf = (repr(prog.analytic_solver.limit_analysis(at_t).y_inf)
                     if p.rho == 0.0 else "")
            expected = [repr(t), repr(res.y_opt), repr(res.no_shortage_prob),
                        repr(res.profit), repr(res.allocation), repr(res.transshipment),
                        y_inf]
            if row != expected:
                verdict.failures.append(f"sweep row {k} is {row}, expected {expected}")
                return

    def _check_limit(self, verdict, params, limit):
        game, regime, phi = oracles.limit_table(params.r, params.c, params.nu, params.t)
        if (limit.game_type.value, limit.regime.value) != (game, regime):
            verdict.failures.append(f"limit regime {limit.game_type.value}/"
                                    f"{limit.regime.value}, table says {game}/{regime}")
            return
        if abs(Fraction(limit.phi_y_inf) - phi) > 4 * oracles.EPS * phi:
            verdict.failures.append(f"Phi(Y_inf) = {limit.phi_y_inf!r}, table {float(phi)!r}")
        q = oracles.normal_quantile(limit.phi_y_inf)
        if abs(limit.y_inf - q) > 64 * oracles.EPS * max(1.0, abs(float(q))):
            verdict.failures.append(f"Y_inf = {limit.y_inf!r}, 50-digit quantile {float(q)!r}")


# ---------------------------------------------------------------------------
# monte_carlo: one market validated at its closed-form optimum by sampling.


class MonteCarlo(Workload):
    name = "monte_carlo"
    modules = ("analytic_solver", "simulation")
    trace_ops = 40
    RHO_KINDS = ("0", "pos", "1", "neg")
    Z_BAND = 4.0                   # acceptance criterion 5's band, in standard errors

    def __init__(self, prog, seed, tiny=False, scratch=None):
        super().__init__(prog, seed, scratch)
        self.n_top = 8 if tiny else 128
        self.count = 2_000 if tiny else 50_000
        self.dump_count = 200 if tiny else 1_000

    def make(self, k):
        period = len(self.RHO_KINDS)
        size = self.n_top ** _size_quantile(self.seed, self.name, k, period)
        return self._op(k, size, self.RHO_KINDS[k % period], k % 10 == 9)

    def warmup(self):
        return self._op(-1, self.n_top, "pos", False)

    def _op(self, k, size, rho_kind, dump):
        # n = round(size) is log-uniform on [1, n_top]; the count moves with
        # size / n, so an op's work grows smoothly with size and no latency
        # percentile sits on the step between two values of n.
        n = max(1, round(size))
        count = round((self.dump_count if dump else self.count) * size / n)
        rng = _rng(self.seed, self.name, k)
        rho = {"0": 0.0, "1": 1.0, "pos": rng.uniform(0.01, 0.9),
               "neg": -rng.uniform(0.1, 0.9) / max(1, n - 1)}[rho_kind]
        r = rng.uniform(5.0, 50.0)
        nu = r * rng.uniform(0.05, 0.5)
        c = r - rng.uniform(0.1, 0.9) * (r - nu)
        t = (r - nu) * rng.uniform(0.0, 0.95)
        mu = rng.uniform(50.0, 200.0)
        sigma = mu * rng.uniform(0.05, 0.25)
        params = self.prog.game_model.MarketParams(r=r, c=c, nu=nu, t=t, mu=mu,
                                                   sigma=sigma, rho=rho)
        kind = f"rho-{rho_kind}" + ("/dump" if dump else "")
        return Op(k, kind, {"params": params, "n": n, "dump": dump, "count": count,
                            "seed": rng.getrandbits(64)})

    def dump_path(self, op) -> Path:
        return self.scratch / f"scenarios-{op.index}.csv"

    def run(self, op):
        prog, a = self.prog, op.args
        p, n = a["params"], a["n"]
        res = prog.analytic_solver.solve_optimal_quantity(n, p)
        self.solves += 1
        if self.measure_alloc:
            tracemalloc.start()
        samples = prog.simulation.sample_demands(n, p.mu, p.sigma, p.rho, a["count"], a["seed"])
        profit = prog.simulation.estimate_profit(res.x_opt, samples, p)
        moved = prog.simulation.estimate_transshipment(res.x_opt, samples)
        if self.measure_alloc:
            self.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        if a["dump"]:
            prog.simulation.dump_scenarios(samples, self.dump_path(op))
        return res, profit, moved

    def check(self, op, output):
        prog, a = self.prog, op.args
        p, n = a["params"], a["n"]
        res, profit, moved = output
        verdict = Verdict()
        _check_root(verdict, p, n, res.y_opt, "solve")
        closed = {"profit": prog.analytic_solver.expected_profit(res.x_opt, n, p),
                  "transshipment": prog.analytic_solver.expected_transshipment(res.y_opt, n, p)}
        worst = 0.0
        for name, est in (("profit", profit), ("transshipment", moved)):
            z = abs(est.mean - closed[name]) / max(est.std_error, 1e-12)
            worst = max(worst, z)
            if z > self.Z_BAND:
                # Criterion 5's re-seed policy: one draw in ~16,000 lands beyond
                # 4 standard errors by chance; a real defect fails at seed + 1 too.
                retry = self._estimate(op, res.x_opt, a["seed"] + 1)[name]
                z_retry = abs(retry.mean - closed[name]) / max(retry.std_error, 1e-12)
                verdict.observed["retries"] = verdict.observed.get("retries", 0) + 1
                if z_retry > self.Z_BAND:
                    verdict.failures.append(f"MC {name} {est.mean!r} vs closed form "
                                            f"{closed[name]!r}: z = {z:.2f}, "
                                            f"{z_retry:.2f} at seed + 1")
        verdict.observed["z"] = worst
        if a["dump"]:
            self._check_dump(verdict, op)
        return verdict

    def _estimate(self, op, x, seed):
        sim, a = self.prog.simulation, op.args
        p = a["params"]
        samples = sim.sample_demands(a["n"], p.mu, p.sigma, p.rho, a["count"], seed)
        return {"profit": sim.estimate_profit(x, samples, p),
                "transshipment": sim.estimate_transshipment(x, samples)}

    def _check_dump(self, verdict, op):
        a, p = op.args, op.args["params"]
        path = self.dump_path(op)
        try:
            with open(path, newline="") as handle:
                rows = list(csv.reader(handle))
        except OSError as exc:
            verdict.failures.append(f"scenario dump unreadable: {exc}")
            return
        finally:
            path.unlink(missing_ok=True)
        samples = self.prog.simulation.sample_demands(a["n"], p.mu, p.sigma, p.rho,
                                                      a["count"], a["seed"])
        header = ["scenario_id"] + [f"D_{j + 1}" for j in range(a["n"])]
        expected = [[str(i)] + [repr(float(d)) for d in row]
                    for i, row in enumerate(samples.scenarios)]
        if not rows or rows[0] != header or rows[1:] != expected:
            verdict.failures.append("scenario dump does not re-read as the sampled demands")


# ---------------------------------------------------------------------------
# recourse: one exact second-stage plan, for uniform or general profits.


class Recourse(Workload):
    name = "recourse"
    modules = ("recourse", "game_model")
    trace_ops = 40

    def __init__(self, prog, seed, tiny=False, scratch=None):
        super().__init__(prog, seed, scratch)
        self.n_low, self.n_high = (2, 6) if tiny else (4, 32)

    def make(self, k):
        u = _size_quantile(self.seed, self.name, k, 2)
        n = round(self.n_low * (self.n_high / self.n_low) ** u)
        return self._op(k, n, ("uniform", "general")[k % 2])

    def warmup(self):
        return self._op(-1, self.n_high, "general")

    def _op(self, k, n, kind):
        prog = self.prog
        rng = _rng(self.seed, self.name, k)
        mu, sigma = 100.0, 20.0
        # Normal demands around the common quantity mu, conditioned on half the
        # agents ending short: the plan's cost then hangs on n, not on a coin flip.
        short = set(rng.sample(range(n), n // 2))
        demands = [mu + (1 if i in short else -1) * abs(rng.gauss(0.0, sigma))
                   for i in range(n)]
        ss = prog.recourse.SurplusShortage.from_quantities([mu] * n, demands)
        if kind == "uniform":
            r = rng.uniform(5.0, 50.0)
            nu = r * rng.uniform(0.05, 0.5)
            c = r - rng.uniform(0.1, 0.9) * (r - nu)
            t = (r - nu) * rng.uniform(0.0, 0.95)
            p = prog.game_model.validate_params(
                prog.game_model.MarketParams(r, c, nu, t, mu, sigma, 0.0)).p
            return Op(k, kind, {"ss": ss, "p": p, "profit": [[p] * n for _ in range(n)]})
        agents = prog.recourse.GeneralAgentParams(
            r=tuple(10.0 + rng.uniform(-0.25, 0.25) for _ in range(n)),
            c=tuple(6.0 + rng.uniform(-0.25, 0.25) for _ in range(n)),
            nu=tuple(2.0 + rng.uniform(-0.25, 0.25) for _ in range(n)),
            t=tuple(tuple(0.0 if i == j else rng.uniform(1.0, 3.0) for j in range(n))
                    for i in range(n)))
        violations = prog.recourse.validate_general_params(agents)
        if violations:
            raise ValueError(f"generated agents are invalid: {violations[:3]}")
        return Op(k, kind, {"ss": ss, "profit": agents.profit_matrix()})

    def run(self, op):
        return self.prog.recourse.solve_transshipment_plan(op.args["ss"], op.args["profit"])

    def keep(self, op, plan):
        n = len(op.args["ss"].surplus)
        shape_ok = len(plan.shipments) == n and all(len(row) == n for row in plan.shipments)
        routes = tuple((i, j, w) for i, row in enumerate(plan.shipments)
                       for j, w in enumerate(row) if w != 0.0)
        return plan.objective, routes, shape_ok

    def check(self, op, kept):
        a = op.args
        ss, profit = a["ss"], a["profit"]
        objective, routes, shape_ok = kept
        verdict = Verdict()
        fail = verdict.failures.append
        if not shape_ok:
            fail("plan is not n x n")
            return verdict
        violation = oracles.plan_violation(routes, ss.surplus, ss.shortage)
        if violation:
            fail(f"infeasible plan: {violation}")
        verdict.observed["routes"] = len(routes)
        if op.kind == "uniform":
            expected = self.prog.recourse.symmetric_recourse_value(ss, a["p"])
            if objective != expected:
                fail(f"objective {objective!r} != p * min(sum H, sum E) = {expected!r}")
            return verdict
        exact = sum((Fraction(profit[i][j]) * Fraction(w) for i, j, w in routes),
                    start=Fraction(0))
        if objective != float(exact):
            fail(f"objective {objective!r} != sum p * W = {float(exact)!r}")
        best = oracles.lp_optimum(ss.surplus, ss.shortage, profit)
        if abs(objective - best) > 1e-9 * max(1.0, abs(best)):
            fail(f"objective {objective!r} vs HiGHS optimum {best!r}")
        return verdict


WORKLOADS = {cls.name: cls for cls in (ClosedForm, MonteCarlo, Recourse)}
