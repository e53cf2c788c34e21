import csv
import io
import json

import numpy as np
import pytest

from support import edge_markets
from transship.analytic_solver import limit_analysis, solve_optimal_quantity
from transship.cli import DEFAULT_SEED, SWEEP_HEADER, main
from transship.core_analysis import check_equal_allocation_core
from transship.game_model import PARAM_KEYS, MarketParams

MEAN_ARGS = ["--r", "10", "--c", "6", "--nu", "2", "--t", "2",
             "--mu", "100", "--sigma", "20", "--rho", "0"]
UNDER_ARGS = ["--r", "10", "--c", "8", "--nu", "2",
              "--mu", "100", "--sigma", "20", "--rho", "0"]


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

    def test_over_n_requires_integer_bounds(self, capsys):
        code, _ = run_cli(["sweep", "--over", "n", "--from", "1.5", "--to", "4",
                           *MEAN_ARGS, "--format", "csv"])
        assert code != 0
        assert "integer bounds" in capsys.readouterr().err

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

    def test_correlated_demands_blank_limit_column(self):
        args = [a if a != "0" else "0.4" for a in MEAN_ARGS]
        code, text = run_cli(["sweep", "--over", "n", "--from", "1", "--to", "3",
                              *args, "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert all(row[6] == "" for row in rows[1:])


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


class TestCoreCheck:
    def test_matches_library(self):
        code, text = run_cli(["core-check", *MEAN_ARGS, "--n", "10", "--format", "json"])
        assert code == 0
        record = json.loads(text)
        report = check_equal_allocation_core(
            MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=0), 10)
        assert record["in_core"] is True
        assert record["beta"] == list(report.beta)
        assert record["worst_margin"] == report.worst_margin

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

    def test_short_row_rejected(self, tmp_path, capsys):
        surplus = tmp_path / "ss.csv"
        surplus.write_text("agent,H,E\n1,1\n")
        profit = tmp_path / "p.csv"
        profit.write_text("0\n")
        code, _ = run_cli(["recourse", "--surplus-file", str(surplus),
                           "--profit-file", str(profit)])
        assert code != 0
        assert "expected 3 fields" in capsys.readouterr().err


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

    def test_missing_param_reported(self, capsys):
        code, _ = run_cli(["solve", "--r", "10", "--c", "6", "--n", "1"])
        assert code != 0
        assert "missing parameter" in capsys.readouterr().err
