"""Every function under src/popdyn is run by a command or a demo.

One child process calls the CLI's `main()` under `sys.setprofile`, which
records the code object of every Python call: each command on the fixtures,
with and without --verify, `simulate` with --script and --initial, `oracle
--adjacency`, `stochastic --dot`, a type given by its payoffs, and a chain
above EXACT_SOLVE_LIMIT, whose stationary solve is the float one. The four
demos run in the same process after them. A function that none of these
reaches must be on `UNREACHED`, with the reason it stays; anything else is
code that no command runs, and should go.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from genpop import scaled_config
import popdyn
from popdyn import cli

SRC = Path(popdyn.__file__).resolve().parent
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
FIXTURES = SRC / "fixtures"

# "module.qualified name" of each function that no command or demo reaches,
# with the reason it stays
UNREACHED = {
    "cli.run": "the process entry, which exits; the runs here call main()",
    "oracle.TransitionDigraph.matrix":
        "perfbench/tracer.py counts edges and CSR bytes from it (ROADMAP item 1a)",
    "oracle.TransitionDigraph.scc_labels": "perfbench/tracer.py wraps it (ROADMAP item 1a)",
    "oracle.TransitionDigraph.reachable_mask": "perfbench/tracer.py wraps it (ROADMAP item 1a)",
    "dynamics.Trajectory.__len__": "perfbench/tracer.py counts a run's steps with it",
    "dynamics.ActivationPolicy.extend": "the interface that every policy overrides",
    "dynamics.Weighted.extend": "README names Weighted as an activation policy",
    "dynamics.Trajectory.refined": "README names it beside `records` and `final_state`",
}


def _functions() -> dict[tuple[str, int], str]:
    """{(file, first line of its code object): "module.qualified name"} of
    every function defined under src/popdyn, nested ones included."""
    found = {}

    def walk(node, path: Path, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    # a decorated function's code starts at its first decorator
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[str(path), first] = name
                walk(child, path, name)
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem)
    return found


def _runs(tmp: Path) -> list[list[str]]:
    """The command lines to trace: every command on the fixtures, and each
    option that selects code of its own."""
    fixtures = sorted(p.stem for p in FIXTURES.glob("*.json"))
    binary = [name for name in fixtures if name.startswith("ex7_")]
    runs = []
    for name in fixtures:
        config = str(FIXTURES / f"{name}.json")
        runs.append(["simulate", "--config", config, "--steps", "200", "--seed", "0"])
        for command in ("equilibria", "invariants", "oracle"):
            for verify in ([], ["--verify"]):
                runs.append([command, "--config", config, "--max-states", "20000000", *verify])
        runs.append(["equilibria", "--oracle", "--config", config, "--max-states", "20000000"])
        if name in binary:
            for verify in ([], ["--verify"]):
                runs.append(["stochastic", "--config", config, "--epsilon", "1/1000", *verify])
    ex7_1 = str(FIXTURES / "ex7_1.json")
    script = tmp / "script.txt"
    script.write_text("# one best responder, then one imitator\n"
                      "bestResponder,anticoordinating,1,C\nimitator,coordinating,1,D\n")
    runs.append(["simulate", "--config", ex7_1, "--steps", "2", "--script", str(script),
                 "--initial", "0,1,0"])
    runs.append(["oracle", "--config", ex7_1, "--adjacency", str(tmp / "adjacency.txt")])
    runs.append(["stochastic", "--config", ex7_1, "--dot", str(tmp / "classes.dot")])
    # a type given by its payoff matrix, as in README's example population
    payoff = tmp / "payoff.json"
    payoff.write_text(json.dumps({"coordinating": [{"payoff": ["3", "1", "2", "2"],
                                                    "bestResponders": 7}]}))
    runs.append(["equilibria", "--config", str(payoff)])
    tripled = tmp / "ex7_1x3.json"
    tripled.write_text(json.dumps(scaled_config("ex7_1", 3)))
    runs.append(["stochastic", "--config", str(tripled), "--epsilon", "1/1000", "--verify"])
    return runs


# the child: the profiler starts before popdyn is imported, so nothing that a
# run calls can hide behind a cache or an import made earlier
TRACE = """
import contextlib, io, json, runpy, sys
codes = set()

def record(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

runs, demos = json.load(open(sys.argv[1]))
sys.setprofile(record)
from popdyn import cli
exits = []
with contextlib.redirect_stdout(io.StringIO()):
    exits += [cli.main(argv) for argv in runs]
    for demo in demos:
        runpy.run_path(demo, run_name="__main__")
sys.setprofile(None)
print(json.dumps([exits, sorted({(c.co_filename, c.co_firstlineno) for c in codes})]))
"""


def test_every_function_is_reached_by_a_command_or_a_demo(tmp_path):
    runs = _runs(tmp_path)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([runs, [str(demo) for demo in DEMOS]]))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", TRACE, str(plan)], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    exits, reached = json.loads(proc.stdout)
    assert exits == [cli.EXIT_OK] * len(runs), [a for a, e in zip(runs, exits) if e]

    reached = {(str(Path(file).resolve()), line) for file, line in reached}
    functions = _functions()
    assert set(UNREACHED) <= set(functions.values()), "an UNREACHED entry names no function"
    unreached = {name for key, name in functions.items() if key not in reached}
    dead = sorted(unreached - set(UNREACHED))
    assert not dead, f"run by no command or demo: {dead}"
    stale = sorted(set(UNREACHED) - unreached)
    assert not stale, f"on UNREACHED but run by a command or demo: {stale}"
