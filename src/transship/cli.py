"""Command-line front end.

Subcommands: solve a single coalition size, sweep transport cost or coalition
size (plot-ready CSV), print the large-coalition limit, validate closed forms
against Monte Carlo, check the equal-allocation core, and solve a
transshipment plan from CSV inputs. Numeric output uses shortest round-trip
float formatting so files re-parse bit-exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from typing import Optional, Sequence

from . import analytic_solver, core_analysis, simulation
from .game_model import PARAM_KEYS, MarketParams, ParameterError, load_params, params_from_mapping
from .recourse import SurplusShortage, solve_transshipment_plan

__all__ = ["main", "entrypoint", "DEFAULT_SEED"]

DEFAULT_SEED = 12345
SWEEP_HEADER = ("x", "Y_n", "Phi_Y_n", "J_dot_n", "beta_n", "omega_n", "Y_inf")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _add_param_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value file supplying r,c,nu,t,mu,sigma,rho")
    for key in PARAM_KEYS:
        parser.add_argument(f"--{key}", type=float, default=None)


def _add_format_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")


def _resolve_params(args: argparse.Namespace, defaults: Optional[dict] = None) -> MarketParams:
    values: dict[str, float] = dict(defaults or {})
    if args.config:
        base = load_params(args.config)
        values.update({k: getattr(base, k) for k in PARAM_KEYS})
    for key in PARAM_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return params_from_mapping(values)


def _print_pairs(pairs, out) -> None:
    width = max(len(name) for name, _ in pairs)
    for name, value in pairs:
        print(f"{name:<{width}}  {_fmt(value)}", file=out)


def _emit_record(pairs, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps({name: value for name, value in pairs}), file=out)
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow([name for name, _ in pairs])
        writer.writerow([_fmt(value) for _, value in pairs])
    else:
        _print_pairs(pairs, out)


def _solve_pairs(res: analytic_solver.SolveResult):
    return [
        ("n", res.n),
        ("y_opt", res.y_opt),
        ("x_opt", res.x_opt),
        ("profit", res.profit),
        ("allocation", res.allocation),
        ("transshipment", res.transshipment),
        ("residual", res.residual),
        ("no_shortage_prob", res.no_shortage_prob),
    ]


def _cmd_solve(args, out) -> int:
    params = _resolve_params(args)
    res = analytic_solver.solve_optimal_quantity(args.n, params)
    _emit_record(_solve_pairs(res), args.format, out)
    return 0


def _limit_column(params: MarketParams):
    return analytic_solver.limit_analysis(params).y_inf if params.rho == 0.0 else ""


def _cmd_sweep(args, out) -> int:
    # When sweeping over t, each row supplies its own t.
    defaults = {"t": 0.0} if args.over == "t" else None
    params = _resolve_params(args, defaults)
    if args.over == "t":
        if args.steps < 2:
            raise ParameterError(f"--steps must be >= 2, got {args.steps}")
        span = args.sweep_to - args.sweep_from
        markets = [replace(params, t=args.sweep_from + span * k / (args.steps - 1))
                   for k in range(args.steps)]
        jobs = [(at_t.t, analytic_solver.solve_optimal_quantity(args.n, at_t),
                 _limit_column(at_t)) for at_t in markets]
    else:
        if args.sweep_from != int(args.sweep_from) or args.sweep_to != int(args.sweep_to):
            raise ParameterError("--over n takes integer bounds")
        lo, hi = int(args.sweep_from), int(args.sweep_to)
        if lo < 1 or hi < lo:
            raise ParameterError(f"--over n needs 1 <= from <= to, got {lo}..{hi}")
        _, results = analytic_solver._solve_sizes(params, range(lo, hi + 1))
        y_inf = _limit_column(params)
        jobs = [(float(res.n), res, y_inf) for res in results]
    rows = [(x, res.y_opt, res.no_shortage_prob, res.profit, res.allocation,
             res.transshipment, y_inf) for x, res, y_inf in jobs]

    if args.format == "json":
        for row in rows:
            record = dict(zip(SWEEP_HEADER, row))
            if record["Y_inf"] == "":
                record["Y_inf"] = None
            print(json.dumps(record), file=out)
    else:
        writer = csv.writer(out)
        writer.writerow(SWEEP_HEADER)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return 0


def _cmd_limits(args, out) -> int:
    params = _resolve_params(args)
    res = analytic_solver.limit_analysis(params)
    pairs = [
        ("game_type", res.game_type.value),
        ("regime", res.regime.value),
        ("cut_value", res.cut_value),
        ("t", params.t),
        ("phi_y_inf", res.phi_y_inf),
        ("y_inf", res.y_inf),
        ("phi_ly_inf", res.phi_ly_inf),
    ]
    _emit_record(pairs, args.format, out)
    return 0


def _cmd_simulate(args, out) -> int:
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
    mc_profit = simulation.estimate_profit(x, samples, params)
    mc_omega = simulation.estimate_transshipment(x, samples)
    checks = [
        ("profit", closed_profit, mc_profit),
        ("transshipment", closed_omega, mc_omega),
    ]
    records = []
    for name, closed, est in checks:
        gap = abs(est.mean - closed)
        ok = gap <= 4.0 * est.std_error
        records.append({
            "quantity": name,
            "closed_form": closed,
            "mc_mean": est.mean,
            "mc_std_error": est.std_error,
            "count": est.count,
            "within_4_std_errors": ok,
        })
    if args.format == "json":
        for record in records:
            print(json.dumps(record), file=out)
    elif args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(records[0].keys())
        for record in records:
            writer.writerow([_fmt(v) for v in record.values()])
    else:
        print(f"x = {_fmt(x)}  n = {args.n}  count = {args.count}  seed = {args.seed} "
              f"({samples.rng_algorithm})", file=out)
        for record in records:
            status = "PASS" if record["within_4_std_errors"] else "FAIL"
            print(f"{record['quantity']:<14} closed {_fmt(record['closed_form'])}  "
                  f"mc {_fmt(record['mc_mean'])} +- {_fmt(record['mc_std_error'])}  "
                  f"[{status} at 4 std errors]", file=out)
    return 0


def _cmd_core_check(args, out) -> int:
    params = _resolve_params(args)
    report = core_analysis.check_equal_allocation_core(params, args.n, args.tolerance)
    if args.format == "json":
        print(report.to_json(), file=out)
    else:
        _emit_record([
            ("n", report.n),
            ("in_core", report.in_core),
            ("worst_margin", report.worst_margin),
            ("witness_m", report.witness_m),
            ("beta_n", report.beta[-1]),
        ], args.format, out)
    return 0


def _read_surplus_file(path: str) -> SurplusShortage:
    surplus: list[float] = []
    shortage: list[float] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["agent", "H", "E"]:
            raise ParameterError(f"{path}: expected header 'agent,H,E'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParameterError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            surplus.append(float(row[1]))
            shortage.append(float(row[2]))
    return SurplusShortage(surplus=tuple(surplus), shortage=tuple(shortage))


def _read_profit_file(path: str, n: int) -> list[list[float]]:
    matrix: list[list[float]] = []
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row or not "".join(row).strip():
                continue
            matrix.append([float(v) for v in row])
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ParameterError(f"{path}: expected an {n} x {n} profit matrix")
    return matrix


def _cmd_recourse(args, out) -> int:
    ss = _read_surplus_file(args.surplus_file)
    profit = _read_profit_file(args.profit_file, len(ss.surplus))
    plan = solve_transshipment_plan(ss, profit)
    if args.format == "json":
        print(json.dumps({"shipments": [list(r) for r in plan.shipments],
                          "objective": plan.objective}), file=out)
        return 0
    writer = csv.writer(out)
    writer.writerow(["from", "to", "quantity"])
    for i, row in enumerate(plan.shipments):
        for j, quantity in enumerate(row):
            if quantity != 0.0:
                writer.writerow([i + 1, j + 1, _fmt(quantity)])
    writer.writerow(["objective", _fmt(plan.objective)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transship",
        description="Optimal quantities, profits, and core allocations for "
                    "transshipment coalitions of identical newsvendors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a single coalition size")
    _add_param_args(p_solve)
    _add_format_arg(p_solve)
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep transport cost or coalition size")
    _add_param_args(p_sweep)
    _add_format_arg(p_sweep)
    p_sweep.add_argument("--over", choices=("t", "n"), required=True)
    p_sweep.add_argument("--from", dest="sweep_from", type=float, required=True)
    p_sweep.add_argument("--to", dest="sweep_to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, default=101,
                         help="number of grid points for --over t")
    p_sweep.add_argument("--n", type=int, default=1,
                         help="coalition size for --over t sweeps")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_limits = sub.add_parser("limits", help="large-coalition limit (rho = 0)")
    _add_param_args(p_limits)
    _add_format_arg(p_limits)
    p_limits.set_defaults(func=_cmd_limits)

    p_sim = sub.add_parser("simulate", help="Monte Carlo vs closed forms")
    _add_param_args(p_sim)
    _add_format_arg(p_sim)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--count", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"RNG seed (default {DEFAULT_SEED}, fixed for reproducibility)")
    p_sim.add_argument("--x", type=float, default=None,
                       help="common order quantity (default: the optimal one)")
    p_sim.add_argument("--dump-scenarios", metavar="FILE", default=None,
                       help="also write the sampled demands to FILE as CSV")
    p_sim.set_defaults(func=_cmd_simulate)

    p_core = sub.add_parser("core-check", help="equal-allocation core membership")
    _add_param_args(p_core)
    _add_format_arg(p_core)
    p_core.add_argument("--n", type=int, required=True)
    p_core.add_argument("--tolerance", type=float, default=core_analysis.DEFAULT_CORE_TOL)
    p_core.set_defaults(func=_cmd_core_check)

    p_rec = sub.add_parser("recourse", help="solve a transshipment plan from CSV")
    _add_format_arg(p_rec)
    p_rec.add_argument("--surplus-file", required=True, help="CSV with header agent,H,E")
    p_rec.add_argument("--profit-file", required=True, help="CSV holding the n x n profit matrix")
    p_rec.set_defaults(func=_cmd_recourse)
    return parser


def main(argv: Optional[Sequence[str]] = None, out: Optional[io.TextIOBase] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        return args.func(args, out)
    except (ValueError, RuntimeError, OSError) as exc:
        # covers ParameterError and UnsupportedRegimeError; one-line reason, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
