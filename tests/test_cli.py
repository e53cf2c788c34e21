import contextlib
import csv
import io
import json
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from support import edge_markets, run_fresh
from transship import analytic_solver
from transship.analytic_solver import limit_analysis, solve_optimal_quantity
from transship.cli import DEFAULT_SEED, SWEEP_HEADER, main
from transship.core_analysis import check_equal_allocation_core
from transship.game_model import PARAM_KEYS, MarketParams

MEAN_ARGS = ["--r", "10", "--c", "6", "--nu", "2", "--t", "2",
             "--mu", "100", "--sigma", "20", "--rho", "0"]
UNDER_ARGS = ["--r", "10", "--c", "8", "--nu", "2",
              "--mu", "100", "--sigma", "20", "--rho", "0"]
# Demands that overflow the float range, in a market whose closed forms fit.
OVERFLOW_DRAWS = ["--r", "1", "--c", "0.5", "--nu", "0", "--t", "0.2",
                  "--mu", "0", "--sigma", "1e308", "--rho", "0"]


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestSolve:
    def test_mean_game_values(self):
        code, text = run_cli(["solve", *MEAN_ARGS, "--n", "4", "--format", "json"])
        assert code == 0
        record = json.loads(text)
        assert record["y_opt"] == 0.0
        assert record["allocation"] == pytest.approx(360.1057719598567, abs=1e-9)
        assert record["profit"] == pytest.approx(1440.4230878394269, abs=1e-9)

    def test_table_output(self):
        code, text = run_cli(["solve", *MEAN_ARGS, "--n", "4"])
        assert code == 0
        assert "y_opt" in text and "allocation" in text

    def test_invalid_params_exit_nonzero(self, capsys):
        code, _ = run_cli(["solve", "--r", "10", "--c", "12", "--nu", "2", "--t", "2",
                           "--mu", "100", "--sigma", "20", "--rho", "0", "--n", "1"])
        assert code != 0
        assert "violates nu < c < r" in capsys.readouterr().err

    def test_fractile_rounded_to_one_exits_with_one_line(self, capsys):
        code, text = run_cli(["solve", "--r", "1e17", "--c", "2", "--nu", "1", "--t", "1",
                              "--mu", "100", "--sigma", "20", "--rho", "0", "--n", "4"])
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: critical fractile R = g/(g + g_tilde) = 1.0")

    def test_huge_coalition(self):
        code, text = run_cli(["solve", *MEAN_ARGS, "--n", "1000000000000", "--format", "json"])
        assert code == 0
        assert json.loads(text)["n"] == 10**12

    @pytest.mark.parametrize("argv", [
        ["solve", *MEAN_ARGS],
        ["simulate", *MEAN_ARGS, "--count", "10"],
        ["sweep", "--over", "t", "--from", "0", "--to", "1", "--steps", "3", *UNDER_ARGS],
    ], ids=["solve", "simulate", "sweep-t"])
    def test_size_past_the_float_range_exits_with_one_line(self, capsys, argv):
        code, text = run_cli([*argv, "--n", "1" + "0" * 400])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == ("error: coalition size n exceeds the float range "
                                           "(> 1.7976931348623157e+308)\n")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_solution_past_the_float_range_exits_with_one_line(self, capsys, fmt):
        # the profit was inf, which --format json wrote as Infinity; the
        # transshipment fits
        code, text = run_cli(["solve", *MEAN_ARGS, "--n", str(10**307), "--format", fmt])
        assert (code, text) == (1, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: the solution at n = 1e+307 overflows the float range: "
                              "x_opt = 100.0, profit = inf, transshipment = 7.978845608028654e+307")

    def test_csv_round_trip(self):
        code, text = run_cli(["solve", *MEAN_ARGS, "--n", "3", "--format", "csv"])
        assert code == 0
        header, values = list(csv.reader(io.StringIO(text)))
        record = dict(zip(header, values))
        # shortest round-trip float formatting re-parses bit-exactly
        assert repr(float(record["profit"])) == record["profit"]


class TestSweep:
    def test_header_and_limit_column(self):
        code, text = run_cli(["sweep", "--over", "t", "--from", "0", "--to", "7.9",
                              "--steps", "80", *UNDER_ARGS, "--n", "4", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert tuple(rows[0]) == SWEEP_HEADER
        assert len(rows) == 81
        # 80 points from 0 to 7.9 fall on a 0.1 grid
        assert float(rows[1][0]) == 0.0
        assert float(rows[2][0]) == pytest.approx(0.1, abs=1e-12)
        y_inf = [float(row[6]) for row in rows[1:]]
        ts = [float(row[0]) for row in rows[1:]]
        for t_val, y in zip(ts, y_inf):
            if t_val < 4.0:          # below the cut 2g = 4 the limit sits at the mean
                assert y == 0.0
            elif t_val > 4.0:
                assert y < 0.0

    @pytest.mark.xfail(strict=True, reason="the last t is 7.76 + (0 - 7.76) * 6 / 6 = -8.9e-16, "
                       "below --to; ROADMAP item 1 has perfbench take t from each row, so "
                       "that the grid can end on --to")
    def test_descending_grid_ends_on_its_last_point(self):
        code, text = run_cli(["sweep", "--over", "t", "--from", "7.76", "--to", "0",
                              "--steps", "7", "--n", "3", *UNDER_ARGS, "--format", "csv"])
        assert code == 0
        assert float(list(csv.reader(io.StringIO(text)))[-1][0]) == 0.0

    def test_deterministic(self):
        argv = ["sweep", "--over", "t", "--from", "1", "--to", "5", "--steps", "9",
                *UNDER_ARGS, "--n", "2", "--format", "csv"]
        assert run_cli(argv) == run_cli(argv)

    def test_round_trip_floats(self):
        code, text = run_cli(["sweep", "--over", "t", "--from", "0.3", "--to", "5.1",
                              "--steps", "7", *UNDER_ARGS, "--n", "2", "--format", "csv"])
        assert code == 0
        for row in list(csv.reader(io.StringIO(text)))[1:]:
            for field in row[:6]:
                assert repr(float(field)) == field

    def test_over_n(self):
        code, text = run_cli(["sweep", "--over", "n", "--from", "1", "--to", "6",
                              *MEAN_ARGS, "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert [float(r[0]) for r in rows[1:]] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        betas = [float(r[4]) for r in rows[1:]]
        assert all(a < b for a, b in zip(betas, betas[1:]))

    def test_steps_above_cap_exit_with_one_line(self, capsys):
        cap = analytic_solver._MAX_SIZES
        code, text = run_cli(["sweep", "--over", "t", "--from", "0", "--to", "7.9",
                              "--steps", str(cap + 1), *UNDER_ARGS, "--n", "4"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == (f"error: --steps {cap + 1} requested; "
                                           f"at most {cap} per call\n")

    def test_steps_cap_is_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr(analytic_solver, "_MAX_SIZES", 5)
        argv = ["sweep", "--over", "t", "--from", "0", "--to", "7.9", *UNDER_ARGS,
                "--n", "4", "--format", "csv", "--steps"]
        code, text = run_cli([*argv, "5"])
        assert code == 0 and len(text.splitlines()) == 6
        code, text = run_cli([*argv, "6"])
        assert code == 1 and text == ""
        assert "--steps 6 requested; at most 5 per call" in capsys.readouterr().err

    @pytest.mark.parametrize("grid,bad", [
        (["--over", "t", "--from", "0", "--to", "7", "--steps", "1"], "--steps must be >= 2, got 1"),
        (["--over", "n", "--from", "0", "--to", "3"], "--over n needs 1 <= from <= to, got 0..3"),
        (["--over", "n", "--from", "5", "--to", "3"], "--over n needs 1 <= from <= to, got 5..3"),
    ], ids=["one-step", "n-from-zero", "n-descending"])
    def test_bad_grid_exits_with_one_line(self, capsys, grid, bad):
        code, text = run_cli(["sweep", *grid, *UNDER_ARGS, "--t", "1"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"error: {bad}\n"

    def test_over_n_requires_integer_bounds(self, capsys):
        code, _ = run_cli(["sweep", "--over", "n", "--from", "1.5", "--to", "4",
                           *MEAN_ARGS, "--format", "csv"])
        assert code != 0
        assert "integer bounds" in capsys.readouterr().err

    @pytest.mark.parametrize("over", ["n", "t"])
    @pytest.mark.parametrize("flag,value", [("--from", "nan"), ("--from", "-inf"),
                                            ("--to", "inf"), ("--to", "nan")])
    def test_non_finite_bound_exits_with_one_line(self, capsys, over, flag, value):
        bounds = {"--from": "1", "--to": "5", flag: value}
        code, text = run_cli(["sweep", "--over", over, *MEAN_ARGS,
                              *(f"{name}={bound}" for name, bound in bounds.items())])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == f"error: {flag} must be finite, got {float(value)!r}\n"

    def test_over_t_range_that_overflows_exits_with_one_line(self, capsys):
        # both bounds are finite, but --to - --from is not
        code, text = run_cli(["sweep", "--over", "t", "--from=-1e308", "--to", "1.7e308",
                              "--steps", "3", *UNDER_ARGS, "--n", "4"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == "error: --to - --from must be finite, got inf\n"

    def test_over_n_rows_match_single_size_solves(self):
        rng = np.random.default_rng(37)
        for params in [MarketParams(10, 6, 2, 2, 100, 20, 0)] + edge_markets(rng, 12):
            args = [arg for key in PARAM_KEYS for arg in (f"--{key}", repr(getattr(params, key)))]
            y_inf = limit_analysis(params).y_inf if params.rho == 0.0 else None
            expected = []
            for n in range(1, 13):
                res = solve_optimal_quantity(n, params)
                expected.append([float(n), res.y_opt, res.no_shortage_prob, res.profit,
                                 res.allocation, res.transshipment, y_inf])
            code, text = run_cli(["sweep", "--over", "n", "--from", "1", "--to", "12",
                                  *args, "--format", "csv"])
            assert code == 0
            rows = list(csv.reader(io.StringIO(text)))[1:]
            assert rows == [["" if v is None else repr(v) for v in row] for row in expected]
            code, text = run_cli(["sweep", "--over", "n", "--from", "1", "--to", "12",
                                  *args, "--format", "json"])
            assert code == 0
            records = [json.loads(line) for line in text.splitlines()]
            assert [[rec[key] for key in SWEEP_HEADER] for rec in records] == expected

    def test_over_t_rows_match_single_market_solves(self):
        rng = np.random.default_rng(41)
        fixed = [MarketParams(10, 6, 2, 2, 100, 20, 0), MarketParams(10, 8, 2, 1, 100, 20, 0)]
        for params in fixed + edge_markets(rng, 12):
            args = [arg for key in PARAM_KEYS if key != "t"
                    for arg in (f"--{key}", repr(getattr(params, key)))]
            top = params.r - params.nu
            for lo, hi in ((0.0, 0.98 * top), (0.95 * top, 0.01 * top)):
                expected = []
                for k in range(7):
                    at_t = replace(params, t=lo + (hi - lo) * k / 6)
                    res = solve_optimal_quantity(12, at_t)
                    y_inf = limit_analysis(at_t).y_inf if params.rho == 0.0 else None
                    expected.append([at_t.t, res.y_opt, res.no_shortage_prob, res.profit,
                                     res.allocation, res.transshipment, y_inf])
                argv = ["sweep", "--over", "t", "--from", repr(lo), "--to", repr(hi),
                        "--steps", "7", "--n", "12", *args, "--format"]
                code, text = run_cli([*argv, "csv"])
                assert code == 0
                rows = list(csv.reader(io.StringIO(text)))[1:]
                assert rows == [["" if v is None else repr(v) for v in row] for row in expected]
                code, text = run_cli([*argv, "json"])
                assert code == 0
                records = [json.loads(line) for line in text.splitlines()]
                assert [[rec[key] for key in SWEEP_HEADER] for rec in records] == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_over_t_row_that_overflows_fails_after_the_rows_before_it(self, capsys, fmt):
        # As with --over n, the rows stream: the profit grows as t falls, and
        # at t = 0 it passes the float maximum after three rows are written.
        code, text = run_cli(["sweep", "--over", "t", "--from", "7.5", "--to", "0",
                              "--steps", "4", "--n", "4", "--r", "10", "--c", "6", "--nu", "2",
                              "--mu", "1.5e307", "--sigma", "7.5e306", "--rho", "0",
                              "--format", fmt])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the solution at n = 4 overflows the float range: x_opt = 1.5e+307, "
            "profit = inf, transshipment = 5.984134206021491e+306\n")
        expected = []
        for t in (7.5, 5.0, 2.5):
            res = solve_optimal_quantity(4, MarketParams(10, 6, 2, t, 1.5e307, 7.5e306, 0))
            expected.append([t, res.y_opt, res.no_shortage_prob, res.profit, res.allocation,
                             res.transshipment, 0.0])
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            assert rows == [list(SWEEP_HEADER), *([repr(v) for v in row] for row in expected)]
        else:
            records = [json.loads(line) for line in text.splitlines()]
            assert [[rec[key] for key in SWEEP_HEADER] for rec in records] == expected

    def test_over_t_reports_the_first_rows_fault_first(self, capsys):
        # n = 0 is refused before t = 9 >= r - nu = 8 at the last row
        code, text = run_cli(["sweep", "--over", "t", "--from", "0", "--to", "9", "--steps", "4",
                              *UNDER_ARGS, "--n", "0"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == "error: coalition size n must be >= 1, got 0\n"

    @pytest.mark.parametrize("lo,hi,bad", [("0", "20", "t = 10.0 >= r - nu = 8.0"),
                                           ("6", "-6", "t = -3.0 < 0"),
                                           ("0", "1e308", "t = 2.5e+307 >= r - nu = 8.0")])
    def test_over_t_names_the_first_t_out_of_range(self, capsys, lo, hi, bad):
        # The error names the first t outside [0, r - nu), not the last one.
        # At --to 1e308, span * k overflows for k >= 2, so the last t is inf.
        code, text = run_cli(["sweep", "--over", "t", "--from", lo, "--to", hi, "--steps", "5",
                              *UNDER_ARGS, "--n", "2"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err.startswith(f"error: {bad}")

    def test_over_n_size_cap(self, capsys):
        code, text = run_cli(["sweep", "--over", "n", "--from", "1", "--to", "1e12",
                              *MEAN_ARGS, "--format", "csv"])
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert err == "error: 1000000000000 coalition sizes requested; at most 100000 per call\n"

    def test_over_n_at_huge_sizes(self):
        code, text = run_cli(["sweep", "--over", "n", "--from", "1000000000000",
                              "--to", "1000000000002", *MEAN_ARGS, "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert [row[0] for row in rows] == ["1000000000000.0", "1000000000001.0",
                                            "1000000000002.0"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_over_n_row_that_overflows_fails_after_the_rows_before_it(self, capsys, fmt):
        # The rows stream as they are solved: at mu = 1e307 the allocation is
        # about 4e307, so the profit of n = 5 is the first to pass the float
        # maximum. The rows before it are written, then one error line.
        args = [{"100": "1e307"}.get(a, a) for a in MEAN_ARGS]
        argv = ["sweep", "--over", "n", "--from", "1", "--to", "6", *args, "--format", fmt]
        code, text = run_cli(argv)
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: the solution at n = 5 overflows the float range: x_opt = 1e+307, profit = inf")
        head = run_cli([*argv[:6], "4", *argv[7:]])
        assert head[0] == 0 and text == head[1]
        assert len(text.splitlines()) == (4 if fmt == "json" else 5)

    def test_over_n_checks_the_whole_range_before_the_first_row(self, capsys):
        # rho = -0.01 is valid up to n = 101; the range is refused before n = 1 prints
        args = [{"0": "-0.01"}.get(a, a) for a in MEAN_ARGS]
        code, text = run_cli(["sweep", "--over", "n", "--from", "1", "--to", "200", *args])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == (
            "error: rho = -0.01 <= -1/(n-1) = -0.005025125628140704: "
            "equicorrelation matrix not positive-definite for n = 200\n")

    def test_correlated_demands_blank_limit_column(self):
        args = [a if a != "0" else "0.4" for a in MEAN_ARGS]
        code, text = run_cli(["sweep", "--over", "n", "--from", "1", "--to", "3",
                              *args, "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert all(row[6] == "" for row in rows[1:])


class NullSink:
    def write(self, text):
        return len(text)


class TestStreaming:
    """The sweeps and core-check hold no list of per-size results: each sweep
    writes each row as it is solved, and the core check keeps only the
    allocations. Holding the results peaked at 10.7 and 7.7 MiB at n = 20,000,
    and the rows of sweep --over t at 5.5 MiB at 20,000 steps."""

    @pytest.mark.parametrize("argv,bound_mib", [
        (["sweep", "--over", "n", "--from", "1", "--to", "20000", *MEAN_ARGS], 1.0),
        (["sweep", "--over", "t", "--from", "0", "--to", "7.9", "--steps", "20000",
          *UNDER_ARGS, "--n", "4"], 2.0),
        (["core-check", *MEAN_ARGS, "--n", "20000"], 3.0),
    ], ids=["sweep-n", "sweep-t", "core-check"])
    def test_traced_peak(self, argv, bound_mib):
        tracemalloc.start()
        try:
            code = main(argv, out=NullSink())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < bound_mib * 2**20


class TestLimits:
    def test_under_mean_above_cut(self):
        code, text = run_cli(["limits", *UNDER_ARGS, "--t", "6", "--format", "json"])
        assert code == 0
        record = json.loads(text)
        assert record["game_type"] == "under-mean"
        assert record["regime"] == "at-or-above-cut"
        assert record["phi_y_inf"] == pytest.approx(1 / 3, abs=1e-15)

    def test_requires_independent_demands(self, capsys):
        args = [a if a != "0" else "0.5" for a in MEAN_ARGS]
        code, _ = run_cli(["limits", *args])
        assert code != 0
        assert "rho = 0" in capsys.readouterr().err


class TestSimulate:
    def test_passes_at_default_seed(self):
        code, text = run_cli(["simulate", *MEAN_ARGS, "--n", "4",
                              "--count", "20000", "--format", "json"])
        assert code == 0
        records = [json.loads(line) for line in text.splitlines()]
        assert {r["quantity"] for r in records} == {"profit", "transshipment"}
        assert all(r["within_4_std_errors"] for r in records)

    def test_correlation_just_inside_the_lower_bound(self):
        # The double -0.3333333333333333 lies above -1/3, so the solve and the
        # sampler both accept it.
        args = [*MEAN_ARGS[:-1], "-0.3333333333333333"]
        code, text = run_cli(["simulate", *args, "--n", "4", "--count", "100000"])
        assert code == 0
        assert text.count("PASS") == 2

    def test_table_reports_pass(self):
        code, text = run_cli(["simulate", *MEAN_ARGS, "--n", "3", "--count", "5000"])
        assert code == 0
        assert text.count("PASS") == 2
        assert f"seed = {DEFAULT_SEED}" in text

    def test_deterministic_given_seed(self):
        argv = ["simulate", *MEAN_ARGS, "--n", "2", "--count", "4000",
                "--seed", "77", "--format", "json"]
        assert run_cli(argv) == run_cli(argv)

    def test_explicit_quantity(self):
        code, text = run_cli(["simulate", *MEAN_ARGS, "--n", "2", "--count", "4000",
                              "--x", "95", "--format", "json"])
        assert code == 0
        records = [json.loads(line) for line in text.splitlines()]
        assert all(r["within_4_std_errors"] for r in records)

    def test_scenario_dump(self, tmp_path):
        path = tmp_path / "draws.csv"
        code, _ = run_cli(["simulate", *MEAN_ARGS, "--n", "3", "--count", "50",
                           "--dump-scenarios", str(path)])
        assert code == 0
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["scenario_id", "D_1", "D_2", "D_3"]
        assert len(rows) == 51

    def test_scenarios_that_overflow_exit_with_one_line(self, tmp_path, capsys):
        # sigma * Z passes the float maximum for |Z| > 1.8: the dump stops at
        # the first block with an infinite demand instead of writing inf. One
        # agent and r - nu = 1 keep the closed forms, solved first, finite.
        path = tmp_path / "draws.csv"
        code, text = run_cli(["simulate", *OVERFLOW_DRAWS, "--n", "1", "--count", "100",
                              "--dump-scenarios", str(path)])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == ("error: scenario demands are not finite from row 40: "
                                           "mu = 0.0 and sigma = 1e+308 overflow the float range\n")
        assert "inf" not in path.read_text()

    def test_closed_forms_that_overflow_exit_before_sampling(self, tmp_path, capsys):
        # At four agents the profit passes the float maximum too, so the
        # solve refuses before anything is drawn.
        args = [{"100": "0", "20": "1e308"}.get(a, a) for a in MEAN_ARGS]
        path = tmp_path / "draws.csv"
        code, text = run_cli(["simulate", *args, "--n", "4", "--count", "100",
                              "--dump-scenarios", str(path)])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == (
            "error: the solution at n = 4 overflows the float range: "
            "x_opt = 0.0, profit = -inf, transshipment = 7.978845608028655e+307\n")
        assert not path.exists()


class TestCoreCheck:
    def test_matches_library(self):
        code, text = run_cli(["core-check", *MEAN_ARGS, "--n", "10", "--format", "json"])
        assert code == 0
        record = json.loads(text)
        report = check_equal_allocation_core(
            MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=0), 10)
        assert record["n"] == 10
        assert record["in_core"] is True
        assert record["witness_m"] == report.witness_m
        assert record["worst_margin"] == report.worst_margin
        assert record["beta"] == list(report.beta)

    def test_csv_text(self):
        code, text = run_cli(["core-check", *MEAN_ARGS, "--n", "10", "--format", "csv"])
        assert code == 0
        assert text == ("n,in_core,worst_margin,witness_m,beta_n\r\n"
                        "10,True,0.8188960839363517,9,368.90351365182175\r\n")

    def test_table_text(self):
        code, text = run_cli(["core-check", *MEAN_ARGS, "--n", "10"])
        assert code == 0
        assert text == ("n             10\n"
                        "in_core       True\n"
                        "worst_margin  0.8188960839363517\n"
                        "witness_m     9\n"
                        "beta_n        368.90351365182175\n")


    def test_nan_tolerance_exits_with_one_line(self, capsys):
        code, text = run_cli(["core-check", *MEAN_ARGS, "--n", "5", "--tolerance", "nan"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == "error: tolerance must be non-negative, got nan\n"


class TestRecourse:
    def test_plan_output(self, tmp_path):
        surplus = tmp_path / "ss.csv"
        surplus.write_text("agent,H,E\n1,1,0\n2,1,0\n3,0,1\n4,0,1\n")
        profit = tmp_path / "p.csv"
        profit.write_text("0,0,10,9\n0,0,8,1\n0,0,0,0\n0,0,0,0\n")
        code, text = run_cli(["recourse", "--surplus-file", str(surplus),
                              "--profit-file", str(profit)])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["from", "to", "quantity"]
        assert ["1", "4", "1.0"] in rows
        assert ["2", "3", "1.0"] in rows
        assert rows[-1] == ["objective", "17.0"]

    def test_bad_header(self, tmp_path, capsys):
        surplus = tmp_path / "ss.csv"
        surplus.write_text("a,b,c\n1,1,0\n")
        profit = tmp_path / "p.csv"
        profit.write_text("0\n")
        code, _ = run_cli(["recourse", "--surplus-file", str(surplus),
                           "--profit-file", str(profit)])
        assert code != 0
        assert "agent,H,E" in capsys.readouterr().err

    def test_matrix_shape_checked(self, tmp_path, capsys):
        surplus = tmp_path / "ss.csv"
        surplus.write_text("agent,H,E\n1,1,0\n2,0,1\n")
        profit = tmp_path / "p.csv"
        profit.write_text("0,1\n")
        code, _ = run_cli(["recourse", "--surplus-file", str(surplus),
                           "--profit-file", str(profit)])
        assert code != 0
        assert "2 x 2" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code, _ = run_cli(["recourse", "--surplus-file", "/nonexistent.csv",
                           "--profit-file", "/nonexistent2.csv"])
        assert code != 0

    @pytest.mark.parametrize("surplus_text,profit_text,bad", [
        ("agent,H,E\n1,1,0\n2,abc,1\n", "0,1\n1,0\n", "ss.csv:3: could not convert string "
                                                          "to float: 'abc'"),
        ("agent,H,E\n1,1,0\n2,0,1\n", "0,1\n\n1,x\n", "p.csv:3: could not convert string "
                                                       "to float: 'x'"),
    ], ids=["surplus", "profit"])
    def test_bad_number_names_file_and_line(self, tmp_path, capsys, surplus_text, profit_text,
                                            bad):
        (tmp_path / "ss.csv").write_text(surplus_text)
        (tmp_path / "p.csv").write_text(profit_text)
        code, text = run_cli(["recourse", "--surplus-file", str(tmp_path / "ss.csv"),
                              "--profit-file", str(tmp_path / "p.csv")])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"error: {tmp_path / bad}\n"

    def test_objective_past_the_float_range_exits_with_one_line(self, tmp_path, capsys):
        (tmp_path / "ss.csv").write_text("agent,H,E\n1,5,0\n2,0,5\n")
        (tmp_path / "p.csv").write_text("0,1e308\n0,0\n")
        code, text = run_cli(["recourse", "--surplus-file", str(tmp_path / "ss.csv"),
                              "--profit-file", str(tmp_path / "p.csv")])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == ("error: recourse objective exceeds the float range "
                                           "(> 1.7976931348623157e+308)\n")

    def test_short_row_rejected(self, tmp_path, capsys):
        surplus = tmp_path / "ss.csv"
        surplus.write_text("agent,H,E\n1,1\n")
        profit = tmp_path / "p.csv"
        profit.write_text("0\n")
        code, _ = run_cli(["recourse", "--surplus-file", str(surplus),
                           "--profit-file", str(profit)])
        assert code != 0
        assert "expected 3 fields" in capsys.readouterr().err

    @pytest.mark.parametrize("surplus_text,bad", [
        ("agent,H,E\n7,1.5,0\n3,0,1\n", "ss.csv:2: expected agent 1, got '7'"),
        ("agent,H,E\n2,1.5,0\n1,0,1\n", "ss.csv:2: expected agent 1, got '2'"),
        ("agent,H,E\n1,1,0\n1,0,1\n", "ss.csv:3: expected agent 2, got '1'"),
        ("agent,H,E\n1.0,1,0\n2,0,1\n", "ss.csv:2: expected agent 1, got '1.0'"),
    ], ids=["unlisted", "out-of-order", "repeated", "non-integer"])
    def test_agent_labels_must_number_the_rows(self, tmp_path, capsys, surplus_text, bad):
        (tmp_path / "ss.csv").write_text(surplus_text)
        (tmp_path / "p.csv").write_text("0,5\n0,0\n")
        code, text = run_cli(["recourse", "--surplus-file", str(tmp_path / "ss.csv"),
                              "--profit-file", str(tmp_path / "p.csv")])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"error: {tmp_path / bad}\n"

    def test_blank_rows_skipped(self, tmp_path):
        (tmp_path / "ss.csv").write_text("agent,H,E\n1,1.5,0\n \n\n2,0,1\n  \n")
        (tmp_path / "p.csv").write_text("0,5\n \n0,0\n")
        code, text = run_cli(["recourse", "--surplus-file", str(tmp_path / "ss.csv"),
                              "--profit-file", str(tmp_path / "p.csv")])
        assert (code, text) == (0, "from,to,quantity\r\n1,2,1.0\r\nobjective,5.0\r\n")

    @pytest.mark.parametrize("fmt,expected", [
        ("table", "from,to,quantity\r\nobjective,0.0\r\n"),
        ("csv", "from,to,quantity\r\nobjective,0.0\r\n"),
        ("json", '{"shipments": [[0.0, 0.0], [0.0, 0.0]], "objective": 0.0}\n'),
    ])
    def test_plan_without_shipments(self, tmp_path, fmt, expected):
        # Both agents hold surplus, so no route is used: the header and the
        # objective row, or the full zero matrix in JSON.
        (tmp_path / "ss.csv").write_text("agent,H,E\n1,1,0\n2,2,0\n")
        (tmp_path / "p.csv").write_text("0,5\n5,0\n")
        assert run_cli(["recourse", "--surplus-file", str(tmp_path / "ss.csv"),
                        "--profit-file", str(tmp_path / "p.csv"),
                        "--format", fmt]) == (0, expected)

    def test_header_must_be_on_line_one(self, tmp_path, capsys):
        # Blank data rows are skipped, but a blank first line is not a header.
        (tmp_path / "ss.csv").write_text("\nagent,H,E\n1,1,0\n2,0,1\n")
        (tmp_path / "p.csv").write_text("0,5\n0,0\n")
        code, text = run_cli(["recourse", "--surplus-file", str(tmp_path / "ss.csv"),
                              "--profit-file", str(tmp_path / "p.csv")])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"error: {tmp_path / 'ss.csv'}: expected header 'agent,H,E'\n"


class TestConfigFile:
    def test_config_supplies_params(self, tmp_path):
        cfg = tmp_path / "mean.cfg"
        cfg.write_text("r=10\nc=6\nnu=2\nt=2\nmu=100\nsigma=20\nrho=0\n")
        code, text = run_cli(["solve", "--config", str(cfg), "--n", "4", "--format", "json"])
        assert code == 0
        assert json.loads(text)["y_opt"] == 0.0

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "mean.cfg"
        cfg.write_text("r=10\nc=6\nnu=2\nt=7.9\nmu=100\nsigma=20\nrho=0\n")
        code, text = run_cli(["solve", "--config", str(cfg), "--t", "2",
                              "--n", "4", "--format", "json"])
        assert code == 0
        assert json.loads(text)["allocation"] == pytest.approx(360.1057719598567, abs=1e-9)

    def test_key_set_twice_exits_with_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("r=10\nc=8\nnu=2\nt=1\nmu=100\nsigma=20\nrho=0.3\nc=9\n")
        code, text = run_cli(["solve", "--config", str(cfg), "--n", "2"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"error: {cfg}:8: c set again (first set on line 2)\n"

    def test_misspelled_key_is_named_at_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("price=10\nc=6\nnu=2\nt=2\nmu=100\nsigma=20\nrho=0\n")
        assert run_cli(["solve", "--config", str(cfg), "--n", "2"]) == (1, "")
        assert capsys.readouterr().err == f"error: {cfg}:1: unknown parameter 'price'\n"

    def test_missing_param_reported(self, capsys):
        code, _ = run_cli(["solve", "--r", "10", "--c", "6", "--n", "1"])
        assert code != 0
        assert "missing parameter" in capsys.readouterr().err

    def test_flag_completes_config(self, tmp_path):
        cfg = tmp_path / "partial.cfg"
        cfg.write_text("r=10\nnu=2\nt=1\nmu=100\nsigma=20\nrho=0.3\n")
        expected = run_cli(["solve", *MARKET, "--n", "2"])
        assert expected[0] == 0
        assert run_cli(["solve", "--config", str(cfg), "--c", "8", "--n", "2"]) == expected

    def test_comments_only_config_with_every_flag(self, tmp_path):
        cfg = tmp_path / "notes.cfg"
        cfg.write_text("# the market comes from flags\n\n")
        expected = run_cli(["solve", *MARKET, "--n", "2"])
        assert run_cli(["solve", "--config", str(cfg), *MARKET, "--n", "2"]) == expected

    def test_key_in_neither_file_nor_flags_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "partial.cfg"
        cfg.write_text("r=10\nnu=2\nt=1\nmu=100\nsigma=20\nrho=0.3\n")
        assert run_cli(["solve", "--config", str(cfg), "--n", "2"]) == (1, "")
        assert capsys.readouterr().err == "error: missing parameter(s): c\n"

    def test_partial_config_setting_a_key_twice_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("r=10\nnu=2\n# again\nr=11\n")
        code, text = run_cli(["solve", "--config", str(cfg), *MARKET[2:4], *MARKET[6:],
                              "--n", "2"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"error: {cfg}:4: r set again (first set on line 1)\n"


# Runs the CLI in a process whose address space is capped at 3 GiB, so an
# allocation numpy cannot make fails at once instead of exhausting the machine.
LIMITED_CLI = """
import resource, sys
limit = 3 * 2**30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
import transship.cli
sys.exit(transship.cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="relies on Linux enforcing RLIMIT_AS")
@pytest.mark.parametrize("sizes", [["--n", "4", "--count", "1000000000"],
                                   ["--n", "1000000000", "--count", "2"]],
                         ids=["count-long-totals", "n-wide-block-row"])
def test_memory_failure_is_one_error_line(sizes):
    done = run_fresh(LIMITED_CLI, "simulate", *MARKET, *sizes, returncode=1)
    assert done.stdout == ""
    assert re.fullmatch(r"error: Unable to allocate 7\.45 GiB [^\n]*\n", done.stderr)


# The golden cases: every subcommand in every format, each --help and one
# validation error per subcommand. Their exact stdout, stderr and exit codes
# are in cli_golden.json, recorded from the CLI before its subcommands shared
# one argument and one output path; a change that moves a byte says why.
MARKET = ["--r", "10", "--c", "8", "--nu", "2", "--t", "1",
          "--mu", "100", "--sigma", "20", "--rho", "0.3"]
MARKET_RHO0 = [*MARKET[:-1], "0"]
MARKET_RHO1 = [*MARKET[:-1], "1"]
GOLDEN_FILES = {
    "market.cfg": "r=10\nc=8\nnu=2\nt=1\nmu=100\nsigma=20\nrho=0.3\n",
    "surplus.csv": "agent,H,E\n1,1.5,0\n2,1,0\n3,0,1\n4,0,2\n",
    "profit.csv": "0,0,10,9\n0,0,8,1\n0,0,0,0\n0,0,0,0\n",
    "bad_header.csv": "a,b,c\n1,1,0\n",
    # Identical agents: one profit on every route, an idle agent, and amounts
    # whose exact sums do not round to each other (0.1 + 0.2 > 0.3).
    "identical_surplus.csv": "agent,H,E\n1,0.1,0\n2,0,0.3\n3,0.2,0\n4,0,0.15\n"
                             "5,0.3,0\n6,0,0.05\n7,0,0\n",
    "identical_profit.csv": "3.7,3.7,3.7,3.7,3.7,3.7,3.7\n" * 7,
}
RECOURSE = ["recourse", "--surplus-file", "surplus.csv", "--profit-file", "profit.csv"]
GOLDEN_COMMANDS = {
    "solve": ["solve", *MARKET, "--n", "5"],
    "solve-config": ["solve", "--config", "market.cfg", "--t", "1.5", "--n", "3"],
    "sweep-t": ["sweep", "--over", "t", "--from", "0", "--to", "7.5", "--steps", "4",
                *UNDER_ARGS, "--n", "3"],
    "sweep-n-rho0": ["sweep", "--over", "n", "--from", "1", "--to", "4", *MARKET_RHO0],
    "sweep-n-rho": ["sweep", "--over", "n", "--from", "2", "--to", "5", *MARKET],
    "limits": ["limits", *UNDER_ARGS, "--t", "6"],
    "simulate": ["simulate", *MARKET, "--n", "3", "--count", "200", "--seed", "7"],
    "simulate-rho1": ["simulate", *MARKET_RHO1, "--n", "128", "--count", "200", "--seed", "7"],
    "core-check": ["core-check", *MARKET_RHO0, "--n", "6"],
    "recourse": RECOURSE,
    "recourse-identical": ["recourse", "--surplus-file", "identical_surplus.csv",
                           "--profit-file", "identical_profit.csv"],
}
GOLDEN_CASES = {
    **{f"{name}-{fmt}": [*argv, "--format", fmt]
       for name, argv in GOLDEN_COMMANDS.items() for fmt in ("table", "csv", "json")},
    "solve-default-format": GOLDEN_COMMANDS["solve"],
    **{f"help-{name}": [name, "--help"] for name in
       ("solve", "sweep", "limits", "simulate", "core-check", "recourse")},
    "help": ["--help"],
    "no-command": [],
    "error-solve": ["solve", *[{"8": "12"}.get(a, a) for a in MARKET], "--n", "2"],
    "error-solve-missing-param": ["solve", "--r", "10", "--c", "6", "--n", "1"],
    "error-solve-bad-format": ["solve", *MARKET, "--n", "2", "--format", "xml"],
    "error-solve-bad-config": ["solve", "--config", "surplus.csv", "--n", "2"],
    "error-sweep": ["sweep", "--over", "n", "--from", "1.5", "--to", "4", *MARKET],
    "error-limits": ["limits", *MARKET],
    "error-simulate": ["simulate", *MARKET, "--n", "3", "--count", "0"],
    "error-core-check": ["core-check", *MARKET, "--n", "4", "--tolerance", "-1"],
    "error-recourse": ["recourse", "--surplus-file", "bad_header.csv",
                       "--profit-file", "profit.csv"],
}
# Texts argparse writes itself, in Python 3.11's wording; other versions
# word and wrap them differently.
ARGPARSE_CASES = {case for case in GOLDEN_CASES if case.startswith("help")} | {
    "no-command", "error-solve-bad-format"}
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def run_golden(argv):
    """(exit code, stdout, stderr) of the CLI as a user runs it, in the
    current directory, with argparse's help formatted for 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and argparse's own errors
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def test_golden_cases_are_recorded():
    assert sorted(GOLDEN) == sorted(GOLDEN_CASES)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_output(case, tmp_path, monkeypatch):
    if case in ARGPARSE_CASES and sys.version_info[:2] != (3, 11):
        pytest.skip("argparse's help and usage text differ between Python versions")
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert run_golden(GOLDEN_CASES[case]) == GOLDEN[case]
