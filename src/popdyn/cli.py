"""Command-line front end: config ingestion, analysis orchestration, exports.

Commands: simulate | equilibria | invariants | oracle | stochastic.
Exit codes: 0 success, 2 configuration error (the config, an option's value,
a file that cannot be opened, or a population the command does not take),
3 state-space guard exceeded, 4 verification failure, 5 internal error. The
guard applies only where an oracle or a dense stationary solve is built, not
in plain `invariants` or `equilibria`. POPDYN_MAX_STATES overrides the
oracle's default guard, and --max-states both; the guard is resolved once,
before the command runs, and must be a positive integer. Output paths are
checked then too: an unwritable one is a configuration error before any work.

A command imports the analysis modules it runs when it runs, and `verify`
only under --verify, so each process loads and compiles no other popdyn
code: `import popdyn.cli` itself loads only `errors` and `model`, and no
numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING

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


def _oracle_graph(pop: PopulationSpec, args) -> oracle.TransitionDigraph:
    from . import oracle

    return oracle.build_transition_digraph(pop, max_states=args.max_states)


def _verification(problems: list[str]) -> dict:
    return {"passed": not problems, "problems": problems}


def _sink_entry(res: oracle.InvariantSetResult) -> dict:
    return {
        "states": sorted(list(s.to_tuple()) for s in res.states),
        "singleton": res.is_singleton,
        "cooperator_bounds": list(res.cooperator_bounds),
    }


def cmd_equilibria(args) -> int:
    from . import equilibria, oracle

    pop = _load_population(args.config)
    records = equilibria.enumerate_equilibria(pop)
    report = equilibria.equilibria_report(pop, records)
    problems: list[str] = []
    if args.verify or args.oracle:
        graph = _oracle_graph(pop, args)
        for entry, rec in zip(report["equilibria"], records):
            entry["oracle_stable"] = oracle.is_stable_oracle(graph, rec.state)
        if args.verify:
            from . import verify

            problems = verify.verify_equilibria(pop, graph)
            report["verification"] = _verification(problems)
    _emit(report, args.json)
    return EXIT_VERIFY if problems else EXIT_OK


def cmd_invariants(args) -> int:
    from . import invariants

    pop = _load_population(args.config)
    report = invariants.invariance_report(pop)
    problems: list[str] = []
    if args.verify:
        from . import oracle, verify

        graph = _oracle_graph(pop, args)
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
                       help="state-space guard (default 10^6 or POPDYN_MAX_STATES)")
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
        if "max_states" in args:
            from . import oracle

            with _input():
                args.max_states = oracle.resolve_max_states(args.max_states)
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


if __name__ == "__main__":
    sys.exit(main())
