"""Compare two checkouts' perfbench results on one workload, pair by pair.

    python tools/bench_summary.py PARENT CHANGE WORKLOAD

reads every `.perfbench/result-<WORKLOAD>-seed<s>-trace0.json` under each
checkout, the files `perfbench/run.py --trace 0` writes, and pairs the two
sides' runs by seed. For each end-to-end metric it prints each side's
median [quartiles] over the paired runs, the relative change of the
medians, and in how many pairs the change read lower. Then it does the same
for each op kind's median per-op CPU time in one run, taken from the files'
`ops` records ([index, kind, start, wall ms, cpu ms] per op). Quartiles are
`statistics.quantiles(n=4)`'s. It runs nothing and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

_NAME = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>-?\d+)-trace0\.json")


def load(root: Path, workload: str) -> dict[int, dict]:
    """The untraced result records of one workload under a checkout, by seed."""
    records = {}
    for path in sorted((root / ".perfbench").glob(f"result-{workload}-seed*-trace0.json")):
        match = _NAME.fullmatch(path.name)
        if match and match["workload"] == workload:
            records[int(match["seed"])] = json.loads(path.read_text())
    return records


def kind_medians(record: dict) -> dict[str, float]:
    """Median per-op CPU time in ms of each op kind in one run."""
    by_kind: dict[str, list[float]] = {}
    for _, kind, _, _, cpu_ms in record.get("ops", []):
        by_kind.setdefault(kind, []).append(cpu_ms)
    return {kind: statistics.median(values) for kind, values in by_kind.items()}


def spread(values: list[float]) -> str:
    """median [first quartile, third quartile], or the median alone for one value."""
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def row(label: str, pairs: list[tuple[float, float]], width: int) -> str:
    parent = [a for a, _ in pairs]
    change = [b for _, b in pairs]
    base = statistics.median(parent)
    moved = f"{(statistics.median(change) - base) / base:+.1%}" if base else "n/a"
    lower = sum(b < a for a, b in pairs)
    return (f"{label:{width}} {spread(parent):>28} {spread(change):>28} {moved:>8} "
            f"{lower:>3}/{len(pairs)}")


def summary(parent: dict[int, dict], change: dict[int, dict]) -> list[str]:
    seeds = sorted(parent.keys() & change.keys())
    if not seeds:
        return ["no seed has a result on both sides"]
    lines = [f"{len(seeds)} pairs, seeds {', '.join(map(str, seeds))}"]
    unpaired = sorted(parent.keys() ^ change.keys())
    if unpaired:
        lines.append(f"left out, on one side only: seeds {', '.join(map(str, unpaired))}")
    for side, records in (("parent", parent), ("change", change)):
        failed = sum(records[s]["failed"] for s in seeds)
        attempted = sum(records[s]["attempted"] for s in seeds)
        lines.append(f"{side}: {failed} of {attempted} ops failed")
    rows = []
    for name, figure in parent[seeds[0]]["metrics"].items():
        pairs = [(parent[s]["metrics"][name]["value"], change[s]["metrics"][name]["value"])
                 for s in seeds]
        rows.append((f"{name} ({figure['unit']})", pairs))
    kinds = [kind_medians(parent[s]) for s in seeds], [kind_medians(change[s]) for s in seeds]
    for kind in sorted(set().union(*kinds[0], *kinds[1])):
        pairs = [(a[kind], b[kind]) for a, b in zip(*kinds) if kind in a and kind in b]
        if pairs:
            rows.append((f"{kind} op cpu p50 (ms)", pairs))
    width = max(len(label) for label, _ in rows)
    lines.append(f"{'metric':{width}} {'parent':>28} {'change':>28} {'moved':>8} lower")
    return lines + [row(label, pairs, width) for label, pairs in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout whose results are the base")
    parser.add_argument("change", type=Path, help="checkout compared with it")
    parser.add_argument("workload")
    args = parser.parse_args(argv)
    print(f"{args.workload}: {args.parent} -> {args.change}")
    print("\n".join(summary(load(args.parent, args.workload), load(args.change, args.workload))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
