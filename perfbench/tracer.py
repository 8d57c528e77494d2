"""Run one popdyn CLI command in this process with every layer traced.

Usage: python3 perfbench/tracer.py SPANS_JSON -- <popdyn CLI arguments>

The public module-level functions of each popdyn module, plus the methods in
METHODS, are wrapped before `popdyn.cli.main(argv)` is called. A wrapped
function is rebound in every popdyn namespace that holds it, so names imported
with `from .oracle import minimal_invariant_sets` are traced too. Each call
records a span (id, name, start, end, parent); self time is the span's
duration minus the time covered by its child spans. Sizes are recorded as
counts at the same boundaries. Everything stays in memory and is written to
SPANS_JSON when the command returns. `src/` is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import resource
import sys
import time
from collections import defaultdict

MODULES = ("model", "cells", "oracle", "equilibria", "invariants",
           "stochastic", "dynamics", "verify", "cli")
# Methods traced in addition to module functions, with the metric name used.
METHODS = {
    ("oracle", "TransitionDigraph", "reachable_mask"): "oracle.reachable_mask",
    ("oracle", "TransitionDigraph", "scc_labels"): "oracle.scc_labels",
    ("dynamics", "Trajectory", "to_csv"): "dynamics.Trajectory.to_csv",
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder with per-name self and inclusive time, calls and peak-RSS deltas."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.stack: list[list] = []  # [span id, name, start, child time, rss at start]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.peak_mb: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.sinks_by_graph: dict[int, int] = {}
        self.ids = itertools.count()
        self.t0 = time.perf_counter()

    def in_span(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.stack)

    def wrap(self, name: str, fn, hook=None):
        if inspect.isgeneratorfunction(fn):
            # A generator's body runs interleaved with its consumer, so it
            # gets no span; only the items it yields are counted.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    self.counts[name + ".n"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            span_id = next(self.ids)
            frame = [span_id, name, time.perf_counter(), 0.0, _maxrss_mb()]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[2]
                self.self_s[name] += duration - frame[3]
                if not self.in_span(name):  # inclusive time, counted once under recursion
                    self.total_s[name] += duration
                self.calls[name] += 1
                self.peak_mb[name] = max(self.peak_mb[name], _maxrss_mb() - frame[4])
                if self.stack:
                    self.stack[-1][3] += duration
                self.spans.append((span_id, name, frame[2] - self.t0, end - self.t0, parent))
            if hook is not None:
                hook(self, result, args)
            return result

        return wrapper

    def to_json(self) -> dict:
        names = sorted(self.calls)
        return {
            "layers": {
                n: {"self_s": self.self_s[n], "total_s": self.total_s[n],
                    "calls": self.calls[n], "peak_mb": self.peak_mb[n]}
                for n in names
            },
            "counts": dict(self.counts),
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in sorted(self.spans)
            ],
        }


# -- counts taken from results at layer boundaries -----------------------------


def _after_build(tr: Tracer, graph, args) -> None:
    m = graph.matrix
    tr.counts["oracle.states"] += graph.n_states
    tr.counts["oracle.edges"] += int(m.nnz)
    tr.counts["oracle.csr_bytes"] += int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def _after_sinks(tr: Tracer, results, args) -> None:
    # minimal_invariant_sets caches per graph; count each graph's sinks once.
    tr.sinks_by_graph[id(args[0])] = len(results)
    tr.counts["oracle.sinks"] = sum(tr.sinks_by_graph.values())


def _after_reach(tr: Tracer, mask, args) -> None:
    if tr.in_span("verify.verify_oracle"):
        tr.counts["verify.oracle_reach_checks.n"] += 1


def _after_mask(tr: Tracer, mask, args) -> None:
    tr.counts["invariants.masks"] += 1
    tr.counts["invariants.nonempty_masks"] += int(bool(mask.any()))


def _after_chain(tr: Tracer, chain, args) -> None:
    tr.counts["stochastic.chain_states"] += chain.n_states


def _after_classes(tr: Tracer, classes, args) -> None:
    tr.counts["stochastic.classes"] += len(classes)


def _after_simulate(tr: Tracer, trajectory, args) -> None:
    tr.counts["dynamics.steps.n"] += len(trajectory) - 1


HOOKS = {
    "oracle.build_transition_digraph": _after_build,
    "oracle.minimal_invariant_sets": _after_sinks,
    "oracle.reachable_mask": _after_reach,
    "invariants.x_membership_mask": _after_mask,
    "invariants.s_membership_mask": _after_mask,
    "stochastic.build_chain": _after_chain,
    "stochastic.recurrent_classes": _after_classes,
    "dynamics.simulate": _after_simulate,
}


def _wrap_export(tr: Tracer, fn):
    """export_adjacency also reports the bytes it wrote to its stream."""
    traced = tr.wrap("oracle.export_adjacency", fn)

    @functools.wraps(fn)
    def wrapper(graph, stream, *args, **kwargs):
        start = stream.tell()
        try:
            return traced(graph, stream, *args, **kwargs)
        finally:
            tr.counts["oracle.export_adjacency.bytes"] += stream.tell() - start

    return wrapper


def install(tr: Tracer) -> None:
    """Wrap every traced function and rebind it wherever popdyn binds it."""
    mods = {name: importlib.import_module(f"popdyn.{name}") for name in MODULES}
    replacements: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for mod_name, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{mod_name}.{attr}"
            if name == "oracle.export_adjacency":
                replacements[id(obj)] = (obj, _wrap_export(tr, obj))
            else:
                replacements[id(obj)] = (obj, tr.wrap(name, obj, HOOKS.get(name)))
    for (mod_name, cls_name, meth), name in METHODS.items():
        cls = getattr(mods[mod_name], cls_name)
        setattr(cls, meth, tr.wrap(name, getattr(cls, meth), HOOKS.get(name)))
    for mod_name in sorted(sys.modules):
        mod = sys.modules[mod_name]
        if mod is None or not (mod_name == "popdyn" or mod_name.startswith("popdyn.")):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = replacements.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <popdyn arguments>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    tr = Tracer()
    install(tr)
    cli = sys.modules["popdyn.cli"]
    code = cli.main(cli_argv)
    with open(out_path, "w") as fh:
        json.dump(tr.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
