"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PROG = run.load_program(ROOT)


def tiny(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](PROG, seed, tiny=True, scratch=tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_runs_emit_every_metric(name, tmp_path):
    setup = run.measure_setup(ROOT, name, 3, probes=1)
    ops, verdicts, metrics, _ = run.end_to_end(tiny(name, tmp_path), 0.3, setup)
    assert sorted(metrics) == sorted(k for k, _ in run.END_TO_END + run.WALL_CLOCK)
    assert all(v > 0 for v in metrics.values())
    assert ops and not [v.failures for v in verdicts if v.failures]

    ops, verdicts, metrics, _ = run.traced(tiny(name, tmp_path), tmp_path, count=6)
    assert sorted(metrics) == sorted(k for k, _ in run.PER_LAYER)
    assert not [v.failures for v in verdicts if v.failures]
    assert (tmp_path / f"spans-{name}-seed3.jsonl").is_file()
    _, _, again, _ = run.traced(tiny(name, tmp_path), tmp_path, count=6)
    counts = [k for k, unit in run.PER_LAYER if unit == "count"]
    assert [metrics[k] for k in counts] == [again[k] for k in counts]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_equal_untraced_and_wrappers_come_off(name, tmp_path):
    before = {layer: dict(vars(getattr(PROG, layer))) for layer in spans.LAYERS}
    workload = tiny(name, tmp_path)
    ops = [workload.make(k) for k in range(6)]
    plain = run.run_ops(workload, ops, digests=True)
    tracer = spans.Tracer({layer: getattr(PROG, layer) for layer in spans.LAYERS})
    tracer.install()
    tracer.active = True
    try:
        traced = run.run_ops(workload, ops, digests=True)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert [r.digest for r in plain] == [r.digest for r in traced]
    assert sum(calls for calls, _, _ in tracer.totals().values()) > 0
    after = {layer: dict(vars(getattr(PROG, layer))) for layer in spans.LAYERS}
    assert after == before


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a, b, c = (tiny(name, tmp_path, seed) for seed in (5, 5, 6))
        assert repr(a.make(7).args) == repr(b.make(7).args)
        assert repr(a.make(7).args) != repr(c.make(7).args)


def _failures(workload, op, output):
    kept = workload.keep(op, output) if not isinstance(output, Exception) else output
    result = run.OpResult(0.0, 0.0, 0.0, kept, "")
    return run.check_ops(workload, [(op.index, op.kind)], [result])[0].failures


def test_corrupted_root_fails_its_oracle(tmp_path):
    workload = tiny("closed_form", tmp_path)
    op = workload.make(0)
    code, text, results, report, core, grid, limit = workload.run(op)
    assert not _failures(workload, op, (code, text, results, report, core, grid, limit))
    bad = list(results)
    bad[0] = dataclasses.replace(bad[0], y_opt=bad[0].y_opt + 1e-6)
    failures = _failures(workload, op, (code, text, bad, report, core, grid, limit))
    assert any("y_opt(n=1)" in f for f in failures)


def test_corrupted_sweep_row_fails(tmp_path):
    workload = tiny("closed_form", tmp_path)
    op = workload.make(1)
    output = list(workload.run(op))
    lines = output[1].splitlines()
    fields = lines[3].split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-15))
    output[1] = "\r\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\r\n"
    assert any("sweep row 2" in f for f in _failures(workload, op, tuple(output)))


def test_grid_argmax_off_by_two_spacings_fails(tmp_path):
    workload = tiny("closed_form", tmp_path)
    op = workload.make(0)
    output = list(workload.run(op))
    x, profit = output[5]
    output[5] = (x + 2 * 12 * op.args["params"].sigma / (workload.grid_points - 1), profit)
    assert any("grid argmax" in f for f in _failures(workload, op, tuple(output)))


def test_shipment_above_surplus_fails(tmp_path):
    workload = tiny("recourse", tmp_path)
    for k in (0, 1):
        op = workload.make(k)
        plan = workload.run(op)
        assert not _failures(workload, op, plan)
        i = next(i for i, h in enumerate(op.args["ss"].surplus) if h > 0)
        j = next(j for j, e in enumerate(op.args["ss"].shortage) if e > 0)
        rows = [list(row) for row in plan.shipments]
        rows[i][j] += op.args["ss"].surplus[i] + 1.0
        bad = dataclasses.replace(plan, shipments=tuple(map(tuple, rows)))
        assert any("infeasible" in f for f in _failures(workload, op, bad))


def test_biased_estimator_fails_even_after_reseed(tmp_path, monkeypatch):
    workload = tiny("monte_carlo", tmp_path)
    op = workload.make(1)
    assert not _failures(workload, op, workload.run(op))
    honest = PROG.simulation.estimate_profit

    def biased(x, samples, params):
        est = honest(x, samples, params)
        return dataclasses.replace(est, mean=est.mean + 10 * est.std_error)

    monkeypatch.setattr(PROG.simulation, "estimate_profit", biased)
    failures = _failures(workload, op, workload.run(op))
    assert any("MC profit" in f for f in failures)


def test_raising_op_counts_as_failed(tmp_path):
    workload = tiny("recourse", tmp_path)
    op = workload.make(0)
    assert "raised ValueError" in _failures(workload, op, ValueError("boom"))[0]


def test_self_time_subtracts_union_of_overlapping_children():
    assert spans._union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert spans._union_length([]) == 0.0


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "recourse", "--seed", "1", "--seconds", "1"]) == 2
