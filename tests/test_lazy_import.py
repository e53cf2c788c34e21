"""numpy loads only with the first pass that draws or reduces scenarios;
`solve` and the scalar simulation calls load neither typing nor pathlib, and
json loads only with JSON output.

The test modules import numpy themselves, so what a user's process loads is
checked in a fresh interpreter.
"""

import ast
import json

import pytest

from support import run_fresh
import transship
from transship import simulation

SIMULATION_NAMES = ("RNG_ALGORITHM", "DemandMatrix", "McEstimate", "sample_demands",
                    "estimate_profit", "estimate_transshipment", "brute_force_optimal",
                    "dump_scenarios")
MARKET = ["--r", "10", "--c", "6", "--nu", "2", "--t", "2",
          "--mu", "100", "--sigma", "20", "--rho", "0"]

# `simulate` output recorded while `simulation` was still imported eagerly.
SIMULATE_ARGS = ["simulate", "--r", "10", "--c", "6", "--nu", "2", "--t", "2", "--mu", "100",
                 "--sigma", "20", "--rho", "0.3", "--n", "3", "--count", "5", "--seed", "7"]
SIMULATE_TEXT = {
    "table": (
        "x = 100.0  n = 3  count = 5  seed = 7 (numpy-philox4x64)\n"
        "profit         closed 1047.2422770149883  mc 1150.044475029457 +- 25.413974544548328"
        "  [FAIL at 4 std errors]\n"
        "transshipment  closed 6.455761934612695  mc 10.526230060740161 +- 3.361383793113896"
        "  [PASS at 4 std errors]\n"),
    "csv": (
        "quantity,closed_form,mc_mean,mc_std_error,count,within_4_std_errors\r\n"
        "profit,1047.2422770149883,1150.044475029457,25.413974544548328,5,False\r\n"
        "transshipment,6.455761934612695,10.526230060740161,3.361383793113896,5,True\r\n"),
    "json": (
        '{"quantity": "profit", "closed_form": 1047.2422770149883, "mc_mean": 1150.044475029457,'
        ' "mc_std_error": 25.413974544548328, "count": 5, "within_4_std_errors": false}\n'
        '{"quantity": "transshipment", "closed_form": 6.455761934612695,'
        ' "mc_mean": 10.526230060740161, "mc_std_error": 3.361383793113896, "count": 5,'
        ' "within_4_std_errors": true}\n'),
}
SIMULATE_DUMP = (
    b"scenario_id,D_1,D_2,D_3\r\n"
    b"0,69.1207329937095,108.01268272308417,108.67764763752494\r\n"
    b"1,107.0431558163614,129.7123122764167,81.48941502810274\r\n"
    b"2,89.26280421033889,103.03644836863654,103.82526853604182\r\n"
    b"3,89.43148193348392,113.80806661378456,111.80091738785501\r\n"
    b"4,136.77842431394214,104.36868507484718,108.8851777631741\r\n")

FRESH_INTERPRETER = """
import io, json, sys
steps, codes = {}, {}
import transship
steps["import transship"] = "numpy" in sys.modules
import transship.cli
steps["import transship.cli"] = "numpy" in sys.modules
for name, argv in json.loads(sys.argv[1]):
    codes[name] = transship.cli.main(argv, out=io.StringIO())
    steps[name] = "numpy" in sys.modules
lazy = json.loads(sys.argv[2])
listed = {name: name in dir(transship) for name in [*lazy, "simulation"]}
steps["dir(transship)"] = "numpy" in sys.modules
star = {}
exec("from transship import *", star)
steps["from transship import *"] = "numpy" in sys.modules
from transship import DemandMatrix
exposed = {name: [getattr(transship, name) is getattr(transship.simulation, name),
                  star[name] is getattr(transship.simulation, name)] for name in lazy}
exposed["DemandMatrix"].append(DemandMatrix is transship.simulation.DemandMatrix)
simulate = {}
for fmt in ("table", "csv", "json"):
    out = io.StringIO()
    transship.cli.main([*json.loads(sys.argv[3]), "--format", fmt], out=out)
    simulate[fmt] = out.getvalue()
print(json.dumps({"steps": steps, "codes": codes, "listed": listed, "exposed": exposed,
                  "simulate": simulate}))
"""


@pytest.fixture(scope="module")
def fresh_interpreter(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lazy")
    (tmp / "ss.csv").write_text("agent,H,E\n1,1,0\n2,0,1\n")
    (tmp / "p.csv").write_text("0,5\n0,0\n")
    commands = [
        ("solve", ["solve", *MARKET, "--n", "4"]),
        ("sweep --over n", ["sweep", "--over", "n", "--from", "1", "--to", "5", *MARKET]),
        ("limits", ["limits", *MARKET]),
        ("core-check", ["core-check", *MARKET, "--n", "5"]),
        ("recourse", ["recourse", "--surplus-file", str(tmp / "ss.csv"),
                      "--profit-file", str(tmp / "p.csv")]),
    ]
    done = run_fresh(FRESH_INTERPRETER, json.dumps(commands), json.dumps(SIMULATION_NAMES),
                     json.dumps(SIMULATE_ARGS))
    return json.loads(done.stdout)


def test_scalar_commands_leave_numpy_unloaded(fresh_interpreter):
    commands = ["solve", "sweep --over n", "limits", "core-check", "recourse"]
    assert fresh_interpreter["codes"] == {name: 0 for name in commands}
    assert fresh_interpreter["steps"] == {
        "import transship": False, "import transship.cli": False,
        **{name: False for name in commands},
        "dir(transship)": False, "from transship import *": False}


# Reads the market from argv and prints a repr, so that the script itself
# loads no watched module.
START_UP_MODULES = """
import io, sys
watched = {"json", "pathlib", "typing"}
market = sys.argv[1:]
steps = {}
import transship
steps["import transship"] = sorted(watched & set(sys.modules))
import transship.cli
for name, argv in [("solve", ["solve", *market, "--n", "5"]),
                   ("csv sweep", ["sweep", "--over", "n", "--from", "1", "--to", "5",
                                  *market, "--format", "csv"]),
                   ("json solve", ["solve", *market, "--n", "5", "--format", "json"])]:
    assert transship.cli.main(argv, out=io.StringIO()) == 0, name
    steps[name] = sorted(watched & set(sys.modules))
# JSON output has loaded json; the simulation steps watch the other two.
watched.discard("json")
import transship.simulation as simulation
steps["import transship.simulation"] = sorted(watched & set(sys.modules))
from transship.game_model import MarketParams
params = MarketParams(**{key[2:]: float(value) for key, value in zip(market[::2], market[1::2])})
simulation.brute_force_optimal(params, 5, 6.0, 2001)
steps["brute_force_optimal"] = sorted(watched & set(sys.modules))
simulation.sample_demands(3, 100.0, 20.0, 0.3, 50, 7)
steps["sample_demands"] = sorted(watched & set(sys.modules))
print(repr(steps))
"""


def test_start_up_and_scalar_simulation_load_no_typing_or_pathlib():
    # Without `site`, which can preload all three, the package, `solve` and a
    # CSV sweep load none of them, and JSON output loads json alone. The
    # simulation module, its grid search and a DemandMatrix, none of which
    # needs numpy, load neither typing nor pathlib.
    done = run_fresh(START_UP_MODULES, *MARKET, flags=["-S"])
    assert ast.literal_eval(done.stdout) == {
        "import transship": [], "solve": [], "csv sweep": [], "json solve": ["json"],
        "import transship.simulation": [], "brute_force_optimal": [], "sample_demands": []}


SIMULATION_STEPS = """
import json, sys
from transship.game_model import MarketParams
steps = {}
import transship.simulation as simulation
steps["import transship.simulation"] = "numpy" in sys.modules
market = MarketParams(r=10, c=6, nu=2, t=2, mu=100, sigma=20, rho=0.3)
simulation.brute_force_optimal(market, 50, 6.0, 20001)
steps["brute_force_optimal"] = "numpy" in sys.modules
samples = simulation.sample_demands(3, 100.0, 20.0, 0.3, 50, 7)
steps["sample_demands"] = "numpy" in sys.modules
simulation.estimate_transshipment(100.0, samples)
steps["estimate_transshipment"] = "numpy" in sys.modules
print(json.dumps(steps))
"""


def test_numpy_loads_with_the_first_estimate():
    # the grid search and a DemandMatrix are scalar; the first pass draws
    steps = json.loads(run_fresh(SIMULATION_STEPS).stdout)
    assert steps == {"import transship.simulation": False, "brute_force_optimal": False,
                     "sample_demands": False, "estimate_transshipment": True}


def test_simulation_names_resolve_on_first_use(fresh_interpreter):
    listed = [*SIMULATION_NAMES, "simulation"]
    assert fresh_interpreter["listed"] == {name: True for name in listed}
    expected = {name: [True, True] for name in SIMULATION_NAMES}
    expected["DemandMatrix"].append(True)
    assert fresh_interpreter["exposed"] == expected


def test_simulate_output_unchanged(fresh_interpreter):
    assert fresh_interpreter["simulate"] == SIMULATE_TEXT


RUN_CLI = "import sys, transship.cli; sys.exit(transship.cli.main(sys.argv[1:]))"


def test_simulate_dump_unchanged(tmp_path):
    path = tmp_path / "draws.csv"
    run_fresh(RUN_CLI, *SIMULATE_ARGS, "--dump-scenarios", str(path))
    assert path.read_bytes() == SIMULATE_DUMP


def test_simulate_overflow_is_one_error_line(tmp_path):
    # Demands past the float maximum: a numpy RuntimeWarning that escapes the
    # CLI would be a traceback here, since warnings are errors.
    # One agent and r - nu = 1 keep the closed forms, solved first, finite.
    argv = [*SIMULATE_ARGS[:SIMULATE_ARGS.index("--n")], "--n", "1", "--count", "100",
            "--dump-scenarios", str(tmp_path / "draws.csv")]
    for flag, value in {"--r": "1", "--c": "0.5", "--nu": "0", "--t": "0.2",
                        "--mu": "0", "--sigma": "1e308"}.items():
        argv[argv.index(flag) + 1] = value
    done = run_fresh(RUN_CLI, *argv, returncode=1)
    assert done.stdout == ""
    assert done.stderr == ("error: scenario demands are not finite from row 40: "
                           "mu = 0.0 and sigma = 1e+308 overflow the float range\n")


PEAK_RSS_MIB = """
import io, sys, transship.cli
transship.cli.main(sys.argv[1:], out=io.StringIO())
try:
    # This process's own peak: ru_maxrss can carry the parent's across exec.
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    print(peak / 2**10)
except OSError:
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(peak / 2**20 if sys.platform == "darwin" else peak / 2**10)
"""


def simulate_peak_mib(rho):
    """Peak resident MiB of a fresh `simulate` process at 128 agents and
    100,000 scenarios, whose matrix alone is 97.7 MiB."""
    pytest.importorskip("resource")
    market = SIMULATE_ARGS[:SIMULATE_ARGS.index("--n")]
    market[market.index("--rho") + 1] = rho
    return float(run_fresh(PEAK_RSS_MIB, *market, "--n", "128", "--count", "100000").stdout)


def test_simulate_does_not_hold_the_scenario_matrix():
    assert simulate_peak_mib("0.3") < 80.0


def test_simulate_at_perfect_correlation_does_not_hold_the_scenario_matrix():
    assert simulate_peak_mib("1") < 80.0


def test_all_lists_every_public_name():
    namespace = {}
    exec("from transship import *", namespace)
    assert set(transship.__all__) <= set(namespace)
    assert set(SIMULATION_NAMES) <= set(transship.__all__)
    assert transship.simulation is simulation


def test_lazy_names_are_the_simulation_names():
    assert transship._SIMULATION_NAMES == set(simulation.__all__)
    assert set(SIMULATION_NAMES) == set(simulation.__all__)


def test_all_names_each_public_name_once():
    from transship import analytic_solver, core_analysis, game_model, normal_math, recourse
    modules = (analytic_solver, core_analysis, game_model, normal_math, recourse)
    assert len(transship.__all__) == len(set(transship.__all__))
    assert set(transship.__all__) == {
        *(name for module in modules for name in module.__all__), *SIMULATION_NAMES}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        transship.no_such_name
    assert not hasattr(transship, "no_such_name")
