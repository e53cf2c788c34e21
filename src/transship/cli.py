"""Command-line front end.

Subcommands: solve a single coalition size, sweep transport cost or coalition
size (plot-ready CSV), print the large-coalition limit, validate closed forms
against Monte Carlo, check the equal-allocation core, and solve a
transshipment plan from CSV inputs. Floats print in shortest round-trip
form (csv writes them with repr, and str is repr for a float), so files
re-parse bit-exactly.

Every subcommand but `recourse` reads the market from one shared parser, and
every one takes --format. Rows of results go out through one writer: one
JSON object per row (json is imported only there), or a CSV header and one
line per row; `table` prints a single result as aligned name/value pairs,
and `sweep` and `recourse` write CSV for it. Both sweeps check their whole
range first, then write each row as it is solved. Both `recourse` input
files are read by one CSV row rule.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict

from . import analytic_solver, core_analysis
from .game_model import PARAM_KEYS, MarketParams, ParameterError, _read_config, params_from_mapping
from .recourse import SurplusShortage, solve_transshipment_plan

__all__ = ["main", "entrypoint", "DEFAULT_SEED"]

DEFAULT_SEED = 12345
SWEEP_HEADER = ("x", "Y_n", "Phi_Y_n", "J_dot_n", "beta_n", "omega_n", "Y_inf")


def _resolve_params(args: argparse.Namespace, defaults: dict | None = None) -> MarketParams:
    """The market from the defaults, then the --config file's keys, then the
    flags given, each later source overriding the earlier."""
    values = dict(defaults or {})
    if args.config:
        values.update(_read_config(args.config))
    values.update((k, getattr(args, k)) for k in PARAM_KEYS if getattr(args, k) is not None)
    return params_from_mapping(values)


def _emit_rows(names: Sequence[str], rows: Iterable[Sequence], fmt: str, out) -> None:
    """Write each row as it comes: one JSON object per row, a CSV header and
    one line per row, or for "table" the aligned name/value pairs of each row."""
    if fmt == "json":
        import json  # only JSON output loads it

        for row in rows:
            print(json.dumps(dict(zip(names, row))), file=out)
    elif fmt == "table":
        width = max(map(len, names))
        for row in rows:
            for name, value in zip(names, row):
                print(f"{name:<{width}}  {value}", file=out)
    else:
        writer = csv.writer(out)
        writer.writerow(names)
        writer.writerows(rows)


def _cmd_solve(args, out) -> int:
    res = asdict(analytic_solver.solve_optimal_quantity(args.n, _resolve_params(args)))
    _emit_rows(list(res), [res.values()], args.format, out)
    return 0


def _limit_column(params: MarketParams, t: float) -> float | None:
    return analytic_solver._limit_at(params, t).y_inf if params.rho == 0.0 else None


def _sweep_row(x: float, res: analytic_solver.SolveResult, y_inf: float | None) -> tuple:
    return (x, res.y_opt, res.no_shortage_prob, res.profit, res.allocation,
            res.transshipment, y_inf)


def _cmd_sweep(args, out) -> int:
    # When sweeping over t, each row supplies its own t.
    defaults = {"t": 0.0} if args.over == "t" else None
    params = _resolve_params(args, defaults)
    for flag, bound in (("--from", args.sweep_from), ("--to", args.sweep_to)):
        if not math.isfinite(bound):
            raise ParameterError(f"{flag} must be finite, got {bound!r}")
    if args.over == "t":
        if args.steps < 2:
            raise ParameterError(f"--steps must be >= 2, got {args.steps}")
        if args.steps > analytic_solver._MAX_SIZES:
            raise ParameterError(f"--steps {args.steps} requested; at most "
                                 f"{analytic_solver._MAX_SIZES} per call")
        span = args.sweep_to - args.sweep_from
        if not math.isfinite(span):
            raise ParameterError(f"--to - --from must be finite, got {span!r}")
        ts = [args.sweep_from + span * k / (args.steps - 1) for k in range(args.steps)]
        results = analytic_solver._solve_sizes(params, args.n, args.n, ts)
        rows = (_sweep_row(t, res, _limit_column(params, t)) for t, res in zip(ts, results))
    else:
        if args.sweep_from != int(args.sweep_from) or args.sweep_to != int(args.sweep_to):
            raise ParameterError("--over n takes integer bounds")
        lo, hi = int(args.sweep_from), int(args.sweep_to)
        if lo < 1 or hi < lo:
            raise ParameterError(f"--over n needs 1 <= from <= to, got {lo}..{hi}")
        results = analytic_solver._solve_sizes(params, lo, hi)
        y_inf = _limit_column(params, params.t)
        rows = (_sweep_row(float(res.n), res, y_inf) for res in results)
    _emit_rows(SWEEP_HEADER, rows, "json" if args.format == "json" else "csv", out)
    return 0


def _cmd_limits(args, out) -> int:
    params = _resolve_params(args)
    res = analytic_solver.limit_analysis(params)
    _emit_rows(("game_type", "regime", "cut_value", "t", "phi_y_inf", "y_inf", "phi_ly_inf"),
               [(res.game_type.value, res.regime.value, res.cut_value, params.t,
                 res.phi_y_inf, res.y_inf, res.phi_ly_inf)], args.format, out)
    return 0


def _cmd_simulate(args, out) -> int:
    from . import simulation  # the one subcommand that needs numpy

    params = _resolve_params(args)
    res = analytic_solver.solve_optimal_quantity(args.n, params)
    x = res.x_opt if args.x is None else args.x
    y = (x - params.mu) / params.sigma
    closed_profit = analytic_solver.expected_profit(x, args.n, params)
    closed_omega = analytic_solver.expected_transshipment(y, args.n, params)
    samples = simulation.sample_demands(args.n, params.mu, params.sigma,
                                        params.rho, args.count, args.seed)
    if args.dump_scenarios:
        simulation.dump_scenarios(samples, args.dump_scenarios)
    checks = [
        ("profit", closed_profit, simulation.estimate_profit(x, samples, params)),
        ("transshipment", closed_omega, simulation.estimate_transshipment(x, samples)),
    ]
    rows = [(name, closed, est.mean, est.std_error, est.count,
             abs(est.mean - closed) <= 4.0 * est.std_error) for name, closed, est in checks]
    if args.format != "table":
        _emit_rows(("quantity", "closed_form", "mc_mean", "mc_std_error", "count",
                    "within_4_std_errors"), rows, args.format, out)
        return 0
    print(f"x = {x}  n = {args.n}  count = {args.count}  seed = {args.seed} "
          f"({samples.rng_algorithm})", file=out)
    for name, closed, mean, std_error, _, ok in rows:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<14} closed {closed}  mc {mean} +- {std_error}  "
              f"[{status} at 4 std errors]", file=out)
    return 0


def _cmd_core_check(args, out) -> int:
    params = _resolve_params(args)
    report = core_analysis.check_equal_allocation_core(params, args.n, args.tolerance)
    if args.format == "json":
        res = asdict(report)
        _emit_rows(list(res), [res.values()], "json", out)
    else:
        _emit_rows(("n", "in_core", "worst_margin", "witness_m", "beta_n"),
                   [(report.n, report.in_core, report.worst_margin, report.witness_m,
                     report.beta[-1])], args.format, out)
    return 0


def _csv_rows(path: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each row of the CSV file at path that is not blank."""
    with open(path, newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if "".join(row).strip():
                yield lineno, row


def _floats(path: str, lineno: int, fields: Sequence[str]) -> list[float]:
    """The fields as floats, or a ParameterError naming the file and line."""
    try:
        return [float(v) for v in fields]
    except ValueError as exc:
        raise ParameterError(f"{path}:{lineno}: {exc}") from None


def _read_surplus_file(path: str) -> SurplusShortage:
    rows = _csv_rows(path)
    lineno, header = next(rows, (None, None))
    if lineno != 1 or [h.strip() for h in header] != ["agent", "H", "E"]:
        raise ParameterError(f"{path}: expected header 'agent,H,E'")
    surplus: list[float] = []
    shortage: list[float] = []
    for lineno, row in rows:
        if len(row) != 3:
            raise ParameterError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        # The profit matrix and the plan are indexed by row, so row k is agent k.
        agent = str(len(surplus) + 1)
        if row[0].strip() != agent:
            raise ParameterError(f"{path}:{lineno}: expected agent {agent}, got {row[0]!r}")
        h, e = _floats(path, lineno, row[1:])
        surplus.append(h)
        shortage.append(e)
    return SurplusShortage(surplus=tuple(surplus), shortage=tuple(shortage))


def _read_profit_file(path: str, n: int) -> list[list[float]]:
    matrix = [_floats(path, lineno, row) for lineno, row in _csv_rows(path)]
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ParameterError(f"{path}: expected an {n} x {n} profit matrix")
    return matrix


def _cmd_recourse(args, out) -> int:
    ss = _read_surplus_file(args.surplus_file)
    plan = solve_transshipment_plan(ss, _read_profit_file(args.profit_file, len(ss.surplus)))
    if args.format == "json":
        _emit_rows(("shipments", "objective"),
                   [(plan.shipments, plan.objective)], "json", out)
        return 0
    # table and csv both print the plan as CSV: a line per route used, then the objective.
    routes = [(i + 1, j + 1, quantity) for i, row in enumerate(plan.shipments)
              for j, quantity in enumerate(row) if quantity != 0.0]
    _emit_rows(("from", "to", "quantity"), [*routes, ("objective", plan.objective)], "csv", out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transship",
        description="Optimal quantities, profits, and core allocations for "
                    "transshipment coalitions of identical newsvendors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    market = argparse.ArgumentParser(add_help=False)
    market.add_argument("--config", help="key=value file supplying r,c,nu,t,mu,sigma,rho")
    for key in PARAM_KEYS:
        market.add_argument(f"--{key}", type=float, default=None)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("table", "csv", "json"), default="table")
    shared = [market, fmt]

    p_solve = sub.add_parser("solve", parents=shared, help="solve a single coalition size")
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", parents=shared,
                             help="sweep transport cost or coalition size")
    p_sweep.add_argument("--over", choices=("t", "n"), required=True)
    p_sweep.add_argument("--from", dest="sweep_from", type=float, required=True)
    p_sweep.add_argument("--to", dest="sweep_to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, default=101,
                         help="number of grid points for --over t")
    p_sweep.add_argument("--n", type=int, default=1,
                         help="coalition size for --over t sweeps")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_limits = sub.add_parser("limits", parents=shared, help="large-coalition limit (rho = 0)")
    p_limits.set_defaults(func=_cmd_limits)

    p_sim = sub.add_parser("simulate", parents=shared, help="Monte Carlo vs closed forms")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--count", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"RNG seed (default {DEFAULT_SEED}, fixed for reproducibility)")
    p_sim.add_argument("--x", type=float, default=None,
                       help="common order quantity (default: the optimal one)")
    p_sim.add_argument("--dump-scenarios", metavar="FILE", default=None,
                       help="also write the sampled demands to FILE as CSV")
    p_sim.set_defaults(func=_cmd_simulate)

    p_core = sub.add_parser("core-check", parents=shared,
                            help="equal-allocation core membership")
    p_core.add_argument("--n", type=int, required=True)
    p_core.add_argument("--tolerance", type=float, default=core_analysis.DEFAULT_CORE_TOL)
    p_core.set_defaults(func=_cmd_core_check)

    p_rec = sub.add_parser("recourse", parents=[fmt], help="solve a transshipment plan from CSV")
    p_rec.add_argument("--surplus-file", required=True, help="CSV with header agent,H,E")
    p_rec.add_argument("--profit-file", required=True, help="CSV holding the n x n profit matrix")
    p_rec.set_defaults(func=_cmd_recourse)
    return parser


def main(argv: Sequence[str] | None = None, out: io.TextIOBase | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        return args.func(args, out)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        # covers ParameterError, UnsupportedRegimeError and numpy's failed
        # allocations; one-line reason, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
