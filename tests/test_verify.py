"""Every shipped fixture passes the full analytic-vs-oracle battery.

These are the in-process equivalents of the CLI --verify runs, sharing the
session-scoped oracle digraphs; the CLI wiring itself is covered in
test_cli. The three large fixtures dominate the suite's runtime.
"""

import dataclasses
import tracemalloc
from collections import Counter

import pytest

from genpop import population
from popdyn import equilibria, invariants, oracle, verify
from popdyn import stochastic as st
from popdyn.oracle import build_transition_digraph, minimal_invariant_sets
from popdyn.verify import (
    verify_equilibria,
    verify_invariants,
    verify_oracle,
    verify_stochastic,
)

SMALL = ("ex7_1", "ex7_2", "ex7_3", "ex7_4")


@pytest.mark.parametrize("name", SMALL)
def test_small_fixture_full_battery(name, pops, graphs):
    pop, graph = pops[name], graphs(name)
    assert verify_equilibria(pop, graph) == []
    assert verify_invariants(pop, graph, invariants.invariance_report(pop)) == []
    assert verify_oracle(graph) == []
    assert verify_stochastic(st.build_chain(pop, graph)) == []


@pytest.mark.parametrize("name", ("ex1", "ex2", "ex3"))
def test_large_fixture_full_battery(name, pops, graphs):
    pop, graph = pops[name], graphs(name)
    assert verify_equilibria(pop, graph) == []
    assert verify_invariants(pop, graph, invariants.invariance_report(pop)) == []
    assert verify_oracle(graph) == []


def test_verify_oracle_flags_states_missing_their_sink(pops):
    graph = build_transition_digraph(pops["ex7_2"])
    sinks = minimal_invariant_sets(graph)
    assert len(sinks) > 1
    del sinks[-1]  # the cached list, read again by verify_oracle
    problems = verify_oracle(graph)
    assert any("cannot reach any minimal invariant set" in p for p in problems)


def test_verify_invariants_flags_wrong_x_verdict(pops, graphs, monkeypatch):
    pop, graph = pops["ex7_4"], graphs("ex7_4")
    real = invariants.is_invariant_X
    monkeypatch.setattr(invariants, "is_invariant_X", lambda p, idx: not real(p, idx))
    problems = verify_invariants(pop, graph, invariants.invariance_report(pop))
    assert any(p.startswith("X invariance disagrees") for p in problems)


def test_verify_invariants_reuses_the_report_s_verdicts(pops, graphs, monkeypatch):
    pop, graph = pops["ex7_4"], graphs("ex7_4")
    report = invariants.invariance_report(pop)
    decided = [e for e in report["benchmark_sets"] if not e["S_empty"]]
    assert decided
    assert invariants.s_verdicts(report) == {
        invariants.BenchmarkIndex(*e["idx"]): e["S_invariant"] for e in decided}

    def refuse(*args, **kwargs):
        raise AssertionError("an S verdict was decided again")

    with monkeypatch.context() as m:
        m.setattr(invariants, "s_invariance_details", refuse)
        assert verify_invariants(pop, graph, report) == []
        # the report's verdict is the one checked against the oracle
        decided[0]["S_invariant"] = not decided[0]["S_invariant"]
        problems = verify_invariants(pop, graph, report)
    assert problems == [
        f"S invariance disagrees at {invariants.BenchmarkIndex(*decided[0]['idx'])}: "
        f"analytic {decided[0]['S_invariant']}, oracle {not decided[0]['S_invariant']}"]


def test_verify_invariants_builds_no_decoded_view(pops, graphs, monkeypatch):
    pop, graph = pops["ex1"], graphs("ex1")
    minimal_invariant_sets(graph)  # cached; the sink search is not measured here
    report = invariants.invariance_report(pop)

    def refuse(self):
        raise AssertionError("verify_invariants built a decoded view")

    # a data descriptor on the class wins over a view cached by another test
    for name in ("coords", "n_c"):
        monkeypatch.setattr(oracle.TransitionDigraph, name, property(refuse))
    tracemalloc.start()
    try:
        assert verify_invariants(pop, graph, report) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few arrays of one block of members (about 2 MB here), whatever the
    # state count; one int64 row array over ex1's 1,552,320 states takes 12 MB
    assert peak < 4 << 20


def test_verify_stochastic_computes_each_plain_cost_once(pops, graphs, monkeypatch):
    pop = pops["ex7_4"]
    calls = []
    real = st._mistake_costs

    def counting(chain, sources, reverse=False):
        if reverse:
            calls.append(tuple(sources))
        return real(chain, sources, reverse)

    monkeypatch.setattr(st, "_mistake_costs", counting)
    chain = st.build_chain(pop, graphs("ex7_4"))
    assert verify_stochastic(chain) == []
    classes = st.recurrent_classes(chain)
    # one plain backward search per class, none per (state, class) pair
    assert sorted(calls) == sorted(classes)
    plain = chain.class_table.plain
    for t, cls in enumerate(classes):
        assert {i: plain[t, i] for i in range(chain.n_states) if i not in cls} \
            == {i: st.cost(chain, [i], cls) for i in range(chain.n_states) if i not in cls}


def test_verify_stochastic_runs_two_searches_per_class(pops, graphs, monkeypatch):
    pop = pops["ex7_1"]
    calls = []
    real = st._mistake_costs

    def counting(chain, sources, *args, **kwargs):
        calls.append(tuple(sources))
        return real(chain, sources, *args, **kwargs)

    monkeypatch.setattr(st, "_mistake_costs", counting)
    chain = st.build_chain(pop, graphs("ex7_1"))
    assert verify_stochastic(chain) == []
    classes = st.recurrent_classes(chain)
    assert len(classes) == 8
    # two whole-chain searches from each class, none from any other state
    assert Counter(calls) == {cls: 2 for cls in classes}


def test_scaled_fixture_full_stochastic_battery():
    # ex7_1 with every count tripled: 1,792 chain states, float stationary solves
    assert verify_stochastic(st.build_chain(population("ex7_1", 3))) == []


# raising class 0's gamma by one leaves ex7_1's stable set alone, but on ex7_4
# class 0 is one of the two stable classes, so the stable set shrinks
@pytest.mark.parametrize("name, stable_set_moves", (("ex7_1", False), ("ex7_4", True)))
def test_verify_stochastic_flags_gamma_off_the_potential(name, stable_set_moves, pops, graphs,
                                                         monkeypatch):
    real = st.gamma
    monkeypatch.setattr(st, "gamma", lambda costs, root: real(costs, root) + (root == 0))
    problems = verify_stochastic(st.build_chain(pops[name], graphs(name)))
    assert any(p.startswith("stochastic potential [") and "of class 0 " in p for p in problems)
    assert any(p.startswith("stochastic potential is minimal on") for p in problems) \
        == stable_set_moves


def _coradius_problems(pop, graph, **changes):
    chain = st.build_chain(pop, graph)
    chain.class_table = dataclasses.replace(chain.class_table, **changes)
    problems = verify_stochastic(chain)
    return [p for p in problems if "modified coradius" in p]


def test_verify_stochastic_flags_a_radius_above_the_coradius(pops, graphs):
    # the condition R > CR* holds for no class of ex7_4; an unbounded radius
    # of the unstable extreme class z makes it hold there
    pop, graph = pops["ex7_4"], graphs("ex7_4")
    table = st.build_chain(pop, graph).class_table
    assert _coradius_problems(pop, graph) == []
    (z,) = set(range(3)) - set(table.stable_ids)
    radii = tuple(float("inf") if t == z else r for t, r in enumerate(table.radii))
    assert any(p.startswith(f"class {z} has radius inf")
               for p in _coradius_problems(pop, graph, radii=radii))


def test_verify_stochastic_flags_a_leg_discount(pops, graphs):
    # on ex7_1 only the stable class passes R > CR*; legs into class 0 that
    # are discounted by 100 mistakes put its modified coradius below its radius
    pop, graph = pops["ex7_1"], graphs("ex7_1")
    table = st.build_chain(pop, graph).class_table
    assert table.stable_ids != (0,)
    legs = tuple(tuple(w - 100 if b == 0 and a != 0 else w for b, w in enumerate(row))
                 for a, row in enumerate(table.legs))
    assert any(p.startswith("class 0 has radius")
               for p in _coradius_problems(pop, graph, legs=legs))


def test_verify_equilibria_runs_no_sink_search(pops, monkeypatch):
    # the oracle's equilibria are its states with no move; no sink search is needed
    graph = build_transition_digraph(pops["ex7_4"])

    def no_search(graph):
        raise AssertionError("verify_equilibria ran a sink search")

    for module in (oracle, verify):
        monkeypatch.setattr(module, "minimal_invariant_sets", no_search)
    monkeypatch.setattr(oracle, "_sinks", no_search)
    assert verify_equilibria(pops["ex7_4"], graph) == []


def test_verify_equilibria_flags_wrong_cooperation_preserving_verdict(pops, graphs, monkeypatch):
    pop, graph = pops["ex7_2"], graphs("ex7_2")
    real = equilibria.is_exclusive_cooperation_preserving
    monkeypatch.setattr(equilibria, "is_exclusive_cooperation_preserving",
                        lambda p, state: not real(p, state))
    problems = verify_equilibria(pop, graph)
    assert any(p.startswith("cooperation-preserving mismatch") for p in problems)
