"""Command-line front end: config ingestion, analysis orchestration, exports.

Commands: simulate | equilibria | invariants | oracle | stochastic.
Exit codes: 0 success, 2 configuration error (the config, an option's value,
a file that cannot be opened, or a population the command does not take),
3 state-space guard exceeded, 4 verification failure, 5 internal error. The
state guard, --max-states (default 10^6 refined states), is read only by
`oracle`, `stochastic`, `equilibria --oracle` or --verify, and `invariants
--verify`, which all build an oracle but `equilibria --oracle`; there it must
be a positive integer, and it is checked against the population's refined
states before any other work. The stationary solve has its own guard, on the
bytes of its band matrix. Output paths are checked before the command runs:
an unwritable one is a configuration error before any work.

A command imports the analysis modules it runs when it runs, `verify` only
under --verify, `local` only under `equilibria --oracle` or --verify and
`adjacency` only under `oracle --adjacency`, so each process loads and
compiles no other popdyn code: `import popdyn.cli` itself loads only
`errors` and `model`, and no numpy.

Each process runs a command through `run()`, which freezes every object once
the command has returned, so the interpreter's last collection at exit
traverses none of them: that collection took about 20 ms of an ex7
`stochastic --verify` process, which runs for 0.3 s. A command leaves a few
hundred cyclic objects uncollected then, none of them a file: every output
is closed by its `with` block. The collector stays on while the command
runs; off, it kept the garbage of the command's imports (about 0.2 MB) in
every process's peak RSS. A write to a closed stdout ends the process by
SIGPIPE, as it ends any filter whose reader left; `main()`'s configuration
error covers the files named on the command line. `main()` itself leaves
the collector and the signal handlers as it finds them, so tests, tracers
and other callers in process keep their own.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, NoReturn

from .errors import NoSuchAgent, PopdynError, StateSpaceTooLarge
from .model import PopulationSpec, State, validate_population

if TYPE_CHECKING:
    from . import dynamics, oracle

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4
EXIT_INTERNAL = 5


class _InputError(Exception):
    """The config, an option's value or the population cannot be used."""


@contextmanager
def _input(errors=(PopdynError, ValueError, KeyError, TypeError)):
    """Report `errors` raised inside the block as bad input, not internal faults."""
    try:
        yield
    except errors as exc:
        raise _InputError(exc) from exc


def _load_population(path: str) -> PopulationSpec:
    with _input(), open(path) as fh:
        return validate_population(json.load(fh))


def _check_outputs(args) -> None:
    """Refuse an output path that cannot be written, before any work starts."""
    for option in ("json", "csv", "adjacency", "dot"):
        path = getattr(args, option, None)
        if path is None or path == "-":
            continue
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            problem = f"directory {folder} does not exist"
        elif os.path.isdir(path):
            problem = "is a directory"
        elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
            problem = "is not writable"
        else:
            continue
        raise _InputError(f"--{option} {path}: {problem}")


@contextmanager
def _output(path: str | None):
    """The stream of an output option: stdout for None or "-", else the opened file."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


def _emit(payload: dict, path: str | None) -> None:
    with _output(path) as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")


def _parse_initial(pop: PopulationSpec, text: str | None) -> State:
    if text is None:
        return State(0, (0,) * pop.b, (0,) * pop.bp)
    with _input():
        values = [int(v) for v in text.replace(" ", "").split(",")]
        return pop.state(*values)


def _parse_script(path: str) -> dynamics.Scripted:
    from . import dynamics

    refs = []
    with _input(), open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            role, kind, index, strategy = (p.strip() for p in line.split(","))
            refs.append(dynamics.AgentRef(role, kind, int(index), strategy))
        return dynamics.Scripted(tuple(refs))


def cmd_simulate(args) -> int:
    from . import dynamics

    if not args.script and args.seed is None:
        raise _InputError("--seed is required for random activation")
    pop = _load_population(args.config)
    initial = _parse_initial(pop, args.initial)
    if args.script:
        policy: dynamics.ActivationPolicy = _parse_script(args.script)
    else:
        policy = dynamics.UniformRandom(seed=args.seed)
    # simulate checks --steps, and the script against the population as it runs
    with _input((NoSuchAgent, ValueError)):
        trajectory = dynamics.simulate(pop, initial, policy, args.steps)
    with _output(args.csv) as stream:
        trajectory.to_csv(stream)
    return EXIT_OK


def _max_states(args) -> int:
    """The oracle's state guard: --max-states, else its default, checked to be
    a positive integer."""
    from . import oracle

    guard = oracle.DEFAULT_MAX_STATES if args.max_states is None else args.max_states
    if guard < 1:
        raise _InputError(f"--max-states must be a positive integer, not {guard}")
    return guard


def _oracle_graph(pop: PopulationSpec, args) -> oracle.TransitionDigraph:
    from . import oracle

    return oracle.build_transition_digraph(pop, max_states=_max_states(args))


def _verification(problems: list[str]) -> dict:
    return {"passed": not problems, "problems": problems}


def _sink_entry(res: oracle.InvariantSetResult) -> dict:
    return {
        "states": sorted(list(s.to_tuple()) for s in res.states),
        "singleton": res.is_singleton,
        "cooperator_bounds": list(res.cooperator_bounds),
    }


def cmd_equilibria(args) -> int:
    from . import equilibria

    pop = _load_population(args.config)
    # the guard, and the oracle of --verify, come before the report, so a
    # refusal does not wait for it; the stability searches read no oracle
    if args.verify:
        graph = _oracle_graph(pop, args)
    elif args.oracle:
        from . import oracle

        oracle.check_state_guard(pop.space, _max_states(args))
    records = equilibria.enumerate_equilibria(pop)
    report = equilibria.equilibria_report(pop, records)
    problems: list[str] = []
    if args.oracle or args.verify:
        from . import oracle

        for entry, rec in zip(report["equilibria"], records):
            entry["oracle_stable"] = oracle.is_stable_oracle(pop, rec.state)
    if args.verify:
        from . import verify

        problems = verify.verify_equilibria(pop, graph, records=records)
        report["verification"] = _verification(problems)
    _emit(report, args.json)
    return EXIT_VERIFY if problems else EXIT_OK


def cmd_invariants(args) -> int:
    from . import invariants

    pop = _load_population(args.config)
    # the oracle, and its guard, come before the report, so a refusal does not wait for it
    graph = _oracle_graph(pop, args) if args.verify else None
    report = invariants.invariance_report(pop)
    problems: list[str] = []
    if graph is not None:
        from . import oracle, verify

        problems = verify.verify_invariants(pop, graph, report=report)
        report["verification"] = {**_verification(problems), "skipped": []}
        report["oracle_minimal_invariant_sets"] = [
            _sink_entry(res) for res in oracle.minimal_invariant_sets(graph)
        ]
    _emit(report, args.json)
    return EXIT_VERIFY if problems else EXIT_OK


def cmd_oracle(args) -> int:
    from . import oracle

    pop = _load_population(args.config)
    graph = _oracle_graph(pop, args)
    sets_ = oracle.minimal_invariant_sets(graph)
    report = {
        "states": graph.n_states,
        "transitions": graph.n_edges,
        "minimal_invariant_sets": [
            {"size": int(len(res.indices)), **_sink_entry(res)} for res in sets_
        ],
    }
    problems: list[str] = []
    if args.verify:
        from . import verify

        problems = verify.verify_oracle(graph)
        report["verification"] = _verification(problems)
    if args.adjacency:
        with _output(args.adjacency) as stream:
            oracle.export_adjacency(graph, stream)
    _emit(report, args.json)
    return EXIT_VERIFY if problems else EXIT_OK


def cmd_stochastic(args) -> int:
    from . import stochastic

    pop = _load_population(args.config)
    with _input():
        stochastic.check_binary(pop)
        epsilons = [stochastic.tremble_rate(e, solve=True) for e in args.epsilon or []]
    # one chain serves every epsilon, and builds its class table once
    chain = stochastic.build_chain(pop, _oracle_graph(pop, args))
    stationary = {eps: stochastic.stationary_distribution(chain, eps) for eps in epsilons}
    report = stochastic.stochastic_report(chain, stationary)
    problems: list[str] = []
    if args.verify:
        from . import verify

        problems = verify.verify_stochastic(chain, epsilons, stationary)
        report["verification"] = _verification(problems)
    if args.dot:
        with _output(args.dot) as stream:
            stochastic.export_class_digraph_dot(chain, stream)
    _emit(report, args.json)
    return EXIT_VERIFY if problems else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popdyn",
        description="Exact analysis of asynchronous best-response/imitation population dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", required=True, help="population spec JSON")
        p.add_argument("--max-states", type=int, default=None,
                       help="state guard of the oracle (default 10^6), read only by oracle, "
                            "stochastic, equilibria --oracle/--verify and invariants --verify")
        p.add_argument("--json", default=None, help="report path (default stdout)")
        p.add_argument("--verify", action="store_true",
                       help="run analytic-vs-oracle cross-checks; exit 4 on disagreement")

    p = sub.add_parser("simulate", help="run one seeded trajectory, emit CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--initial", default=None,
                   help="comma-separated state (xI, xa_1.., xc_b'..); default all-defect")
    p.add_argument("--script", default=None,
                   help="scripted activation file: role,kind,index,strategy per line")
    p.add_argument("--csv", default=None, help="trajectory path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("equilibria", help="enumerate equilibria and classify stability")
    common(p)
    p.add_argument("--oracle", action="store_true",
                   help="attach oracle stability verdicts to the report")
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("invariants", help="invariant-set analysis over benchmark indices")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("oracle", help="exhaustive transition digraph and its sinks")
    common(p)
    p.add_argument("--adjacency", default=None, help="write adjacency-list text export")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("stochastic", help="perturbed-chain analysis of a binary-type population")
    common(p)
    p.add_argument("--epsilon", action="append", default=None,
                   help="tremble rate (repeatable), e.g. 1e-4 or 1/10000")
    p.add_argument("--dot", default=None, help="DOT export of the class cost digraph")
    p.set_defaults(func=cmd_stochastic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except StateSpaceTooLarge as exc:
        print(f"state-space guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (_InputError, OSError) as exc:
        # every file the CLI opens is named on its command line
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        import traceback

        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> NoReturn:
    """The program entry: `python -m popdyn.cli` and the `popdyn` script.

    Runs `main()`, then freezes every object, so that the interpreter's last
    collection at exit traverses none of them. Where SIGPIPE exists, a write
    to a closed stdout ends the process by that signal, as it ends any filter
    whose reader left.
    """
    # the builtin that `signal` wraps, loaded at start-up: importing `signal`
    # builds its enums, about 1 ms and 0.1 MB of peak RSS a process
    import _signal

    if hasattr(_signal, "SIGPIPE"):
        _signal.signal(_signal.SIGPIPE, _signal.SIG_DFL)
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
