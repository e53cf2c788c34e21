"""tools/bench_summary.py pairs two checkouts' perfbench results by seed."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_result(root, workload, seed, p50, failed=0, ops=()):
    out = root / ".perfbench"
    out.mkdir(parents=True, exist_ok=True)
    record = {"attempted": 10, "failed": failed,
              "metrics": {"op_cpu_p50_ms": {"value": p50, "unit": "ms"},
                          "peak_rss_mb": {"value": 40.0, "unit": "MiB"}},
              "ops": [[k, kind, 0.01 * k, cpu, cpu] for k, (kind, cpu) in enumerate(ops)]}
    (out / f"result-{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_pairs_runs_by_seed_and_reports_medians_changes_and_lower_pairs(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, before, after in ((1, 2.0, 1.0), (2, 4.0, 2.0), (3, 3.0, 3.5)):
        write_result(parent, "recourse", seed, before,
                     ops=[("uniform", before), ("uniform", before + 2), ("general", 6.0)])
        write_result(change, "recourse", seed, after, failed=seed == 2,
                     ops=[("uniform", after), ("general", 6.0)])
    write_result(parent, "recourse", 4, 9.0)      # on one side only
    write_result(change, "closed_form", 1, 9.0)   # another workload
    write_result(change, "recourse_x", 1, 9.0)    # a workload whose name only starts alike
    (change / ".perfbench" / "result-recourse-seed1-trace1.json").write_text("{}")

    assert load_tool().main([str(parent), str(change), "recourse"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "3 pairs, seeds 1, 2, 3"
    assert lines[2] == "left out, on one side only: seeds 4"
    assert lines[3:5] == ["parent: 0 of 30 ops failed", "change: 1 of 30 ops failed"]
    rows = {line.split(" (")[0]: line.split() for line in lines[6:]}
    # parent p50s 2, 3, 4 -> change 1, 2, 3.5: median 3 -> 2, lower in 2 of 3 pairs
    assert rows["op_cpu_p50_ms"][2:5] == ["3", "[2,", "4]"]
    assert rows["op_cpu_p50_ms"][5] == "2" and rows["op_cpu_p50_ms"][-2:] == ["-33.3%", "2/3"]
    assert rows["peak_rss_mb"][-2:] == ["+0.0%", "0/3"]
    # per-kind medians of one run: uniform (b, b + 2) has median b + 1
    assert rows["uniform op cpu p50"][5] == "4" and rows["uniform op cpu p50"][-1] == "3/3"
    assert rows["general op cpu p50"][-2:] == ["+0.0%", "0/3"]


def test_no_common_seed(tmp_path):
    tool = load_tool()
    write_result(tmp_path / "a", "recourse", 1, 1.0)
    assert tool.summary(tool.load(tmp_path / "a", "recourse"),
                        tool.load(tmp_path / "b", "recourse")) == [
        "no seed has a result on both sides"]
