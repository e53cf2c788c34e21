"""transship benchmark: one workload per invocation, checked op by op.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
./src/transship and nothing is installed. --trace 0 prints the end-to-end
metrics of an untraced, time-bounded loop; --trace 1 runs a fixed set of ops
untraced and then traced, and prints the per-layer metrics. Human-readable
lines come first; the last line of standard output is the JSON result. Span
records and a result file with the machine set-up go to ./.perfbench/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
OUT_DIR = ".perfbench"
# The program's own knob: the CLI pool runs as users get it.
PROGRAM_ENV = ("TRANSSHIP_THREADS",)
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")



def _metric_specs(section):
    """(name, unit) pairs from BENCHMARK.json, which sits beside this directory."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return tuple((m["name"], m["unit"]) for m in spec[section])


END_TO_END = _metric_specs("end_to_end")
PER_LAYER = _metric_specs("per_layer")
# Wall-clock figures: printed and recorded, not gated. On a shared host the
# time stolen from this VM moves them far more than the CPU-time figures.
WALL_CLOCK = (("setup_wall_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"))


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad arguments)."""


def load_program(root: Path, layers=spans.LAYERS):
    """Import transship from root/src and return a namespace of its modules."""
    src = root / "src"
    if not (src / "transship" / "__init__.py").is_file():
        raise BenchError(f"no transship sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("transship")
    if Path(package.__file__).resolve().parent != (src / "transship").resolve():
        raise BenchError(f"imported transship from {package.__file__}, not from {src}")
    prog = argparse.Namespace()
    for layer in set(layers) | {"game_model"}:
        setattr(prog, layer, importlib.import_module(f"transship.{layer}"))
    return prog


# ---------------------------------------------------------------------------
# set-up time


def probe(root: Path, name: str, seed: int) -> None:
    """Child side of a set-up probe: import what the workload calls, build op 0."""
    prog = load_program(root, workloads.WORKLOADS[name].modules)
    workloads.WORKLOADS[name](prog, seed).make(0)
    print(f"ready {time.process_time()!r}", flush=True)


def measure_setup(root: Path, name: str, seed: int, probes: int = SETUP_PROBES):
    """CPU and wall seconds of fresh interpreters from start until op 0 could be issued.

    The CPU figure is the child's own process time (user + sys, every thread)
    when it is ready. One untimed probe first, so every timed one finds the
    same warm file cache.
    """
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", name, "--seed", str(seed)]
    cpu, wall = [], []
    for i in range(probes + 1):
        start = time.perf_counter()
        child = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        word, _, seconds = line.partition(" ")
        if word != "ready" or child.returncode != 0:
            raise BenchError(f"set-up probe failed ({child.returncode}): {err.strip()[-400:]}")
        if i:
            cpu.append(float(seconds))
            wall.append(elapsed)
    return cpu, wall


# ---------------------------------------------------------------------------
# op loops


class OpResult(NamedTuple):
    start: float      # perf_counter at issue
    wall: float       # seconds
    cpu: float        # process CPU seconds, every thread
    kept: object      # workload.keep(output), or the exception the op raised
    digest: str       # of the full output, when asked for


def _call(workload, op):
    try:
        return workload.run(op)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return exc


def run_ops(workload, ops, record=None, digests=False):
    """Run ops in order, one OpResult each.

    CPU time is the whole process's, so it includes the CLI pool's and BLAS's
    threads. Keeping the output and its digest happens after the op's clocks stop.
    """
    results = []
    for op in ops:
        if record:
            record(op)
        cpu_start, start = time.process_time(), time.perf_counter()
        output = _call(workload, op)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        digest = workloads.digest(output) if digests else None
        if not isinstance(output, Exception):
            try:
                output = workload.keep(op, output)
            except Exception as exc:
                output = exc
        results.append(OpResult(start, wall, cpu, output, digest))
    return results


def timed_loop(workload, seconds: float, chunk: int = 16):
    """Issue ops 0, 1, 2, ... until they have taken `seconds` of wall time.

    Inputs are drawn in chunks between ops, outside the ops' clocks. Only each
    op's (index, kind) is held afterwards, so that the inputs, like the
    outputs, do not grow the resident set with the op count.
    """
    labels, results, busy = [], [], 0.0
    while busy < seconds:
        for op in [workload.make(k) for k in range(len(labels), len(labels) + chunk)]:
            results += run_ops(workload, [op])
            labels.append((op.index, op.kind))
            busy += results[-1].wall
            if busy >= seconds:
                break
    return labels, results


def check_ops(workload, labels, results):
    """Oracle verdicts, one per op; an op that raised fails with its exception.

    Each op's inputs are drawn again from its index.
    """
    verdicts = []
    for (index, _), result in zip(labels, results):
        op = workload.make(index)
        kept = result.kept
        if isinstance(kept, Exception):
            verdict = workloads.Verdict([f"raised {type(kept).__name__}: {kept}"])
        else:
            try:
                verdict = workload.check(op, kept)
            except Exception as exc:
                verdict = workloads.Verdict([f"check raised {type(exc).__name__}: {exc}"])
        verdicts.append(verdict)
    return verdicts


# ---------------------------------------------------------------------------
# machine record


def machine_info(removed_env: dict) -> dict:
    import numpy

    info = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "machine": platform.machine()}
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    info["blas_threads"] = _blas_threads()
    info["env"] = {key: os.environ.get(key) for key in THREAD_ENV}
    info["program_knobs"] = {key: "unset" for key in PROGRAM_ENV}
    info["program_knobs_removed"] = removed_env
    return info


def _blas_threads():
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(workload, seconds, setup):
    workload.run(workload.warmup())
    labels, results = timed_loop(workload, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_ms = [r.wall * 1e3 for r in results]
    cpu_ms = [r.cpu * 1e3 for r in results]
    wall, cpu = sum(wall_ms) / 1e3, sum(cpu_ms) / 1e3
    verdicts = check_ops(workload, labels, results)
    setup_cpu, setup_wall = setup
    metrics = {
        "setup_s": statistics.median(setup_cpu),
        "op_cpu_p50_ms": statistics.median(cpu_ms),
        "op_cpu_p90_ms": statistics.quantiles(cpu_ms, n=10)[-1],
        "cpu_ms_per_op": cpu * 1e3 / len(results),
        "peak_rss_mb": peak_rss_mb,
        "setup_wall_s": statistics.median(setup_wall),
        "ops_per_s": len(results) / wall,
        "op_p50_ms": statistics.median(wall_ms),
        "op_p90_ms": statistics.quantiles(wall_ms, n=10)[-1],
    }
    t0 = results[0].start
    extra = {"setup_cpu_s": setup_cpu, "setup_wall_s": setup_wall,
             "loop_wall_s": wall, "loop_cpu_s": cpu,
             "ops": [[index, kind, r.start - t0, r.wall * 1e3, r.cpu * 1e3]
                     for (index, kind), r in zip(labels, results)]}
    return labels, verdicts, metrics, extra


def traced(workload, out_dir, count=None):
    ops = [workload.make(k) for k in range(count or workload.trace_ops)]
    run_ops(workload, ops)  # a first pass warms the heap, so the untraced one is not slower
    plain = run_ops(workload, ops, digests=True)
    solves_before = workload.solves
    tracer = spans.Tracer({layer: getattr(workload.prog, layer) for layer in spans.LAYERS})
    tracer.install()
    tracer.active = workload.measure_alloc = True
    try:
        traced_results = run_ops(workload, ops, lambda op: setattr(tracer, "op", op.index),
                                 digests=True)
    finally:
        tracer.active = workload.measure_alloc = False
        tracer.uninstall()
    solves = workload.solves - solves_before
    labels = [(op.index, op.kind) for op in ops]
    verdicts = check_ops(workload, labels, plain)
    for verdict, untraced, traced_ in zip(verdicts, plain, traced_results):
        if untraced.digest != traced_.digest:
            verdict.failures.append("traced output differs from the untraced one")
    tracer.write_spans(out_dir / f"spans-{workload.name}-seed{workload.seed}.jsonl")
    metrics = layer_metrics(tracer, workload, labels, verdicts, solves,
                            sum(r.wall for r in plain), sum(r.wall for r in traced_results))
    return labels, verdicts, metrics, {}


def layer_metrics(tracer, workload, labels, verdicts, solves, plain_wall, traced_wall):
    m = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}
    simulation_spans = {"brute_force_optimal": "grid_s", "sample_demands": "sample_s",
                        "estimate_profit": "estimate_s", "estimate_transshipment": "estimate_s",
                        "dump_scenarios": "dump_s"}
    totals = tracer.totals()
    for (layer, name, _), (calls, self_s, total_s) in totals.items():
        if f"{layer}.calls" in m:
            m[f"{layer}.calls"] += calls
            m[f"{layer}.self_s"] += self_s
        if layer == "simulation" and name in simulation_spans:
            m[f"simulation.{simulation_spans[name]}"] += total_s
    cdf_calls = totals.get(("normal_math", "std_cdf", "analytic_solver"), [0])[0]
    m["analytic_solver.cdf_per_solve"] = cdf_calls / solves if solves else 0.0
    observed = [v.observed for v in verdicts]
    m["analytic_solver.tail_rel_err_max"] = max(
        (o["tail_rel_err"] for o in observed if "tail_rel_err" in o), default=0.0)
    m["simulation.max_abs_z"] = max((o["z"] for o in observed if "z" in o), default=0.0)
    m["simulation.alloc_peak_mb"] = max(workload.alloc_peaks, default=0) / 2**20
    m["recourse.routes_used"] = sum(o.get("routes", 0) for o in observed)
    kinds = dict(labels)
    for kind in ("uniform", "general"):
        plans = [(end - start) * 1e3 for _, name, start, end, _, op, _ in tracer.spans
                 if name == "recourse.solve_transshipment_plan" and kinds.get(op) == kind]
        m[f"recourse.plan_ms.{kind}"] = statistics.median(plans) if plans else 0.0
    m["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path.cwd()
    removed = {key: os.environ.pop(key) for key in PROGRAM_ENV if key in os.environ}
    try:
        if args.setup_probe:
            probe(root, args.workload, args.seed)
            return 0
        return bench(root, args, removed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def bench(root: Path, args, removed) -> int:
    out_dir = root / OUT_DIR
    if not (root / "src" / "transship" / "__init__.py").is_file():
        raise BenchError(f"no transship sources under {root / 'src'}; run from a checkout root")
    out_dir.mkdir(exist_ok=True)
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        setup = None if args.trace else measure_setup(root, args.workload, args.seed)
        prog = load_program(root)
        info = machine_info(removed)  # before scipy, which loads a second OpenBLAS
        workload = workloads.WORKLOADS[args.workload](prog, args.seed, scratch=scratch)
        if args.trace:
            labels, verdicts, values, extra = traced(workload, out_dir)
        else:
            labels, verdicts, values, extra = end_to_end(workload, args.seconds, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = {name: (values[name], unit)
               for name, unit in (PER_LAYER if args.trace else END_TO_END)}
    wall_clock = {} if args.trace else {name: (values[name], unit) for name, unit in WALL_CLOCK}
    failed = [(label, v) for label, v in zip(labels, verdicts) if v.failures]
    retries = sum(v.observed.get("retries", 0) for v in verdicts)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"ops attempted {len(labels)}  failed {len(failed)}  "
          f"error_rate {len(failed) / len(labels):.6g} fraction"
          + (f"  mc_reseeds {retries}" if retries else ""))
    for (index, kind), verdict in failed:
        print(f"FAILED op {index} [{kind}]: " + "; ".join(verdict.failures))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    for name, (value, unit) in wall_clock.items():
        print(f"{name:34s} {value:.6g} {unit}  (wall clock, not gated)")
    def as_json(figures):
        return {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}

    result = {"correct": not failed, "attempted": len(labels), "failed": len(failed),
              "metrics": as_json(metrics)}
    record = dict(result, wall_clock=as_json(wall_clock),
                  workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, machine=info, error_rate=len(failed) / len(labels),
                  **extra)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
