"""Every shipped fixture passes the full analytic-vs-oracle battery.

These are the in-process equivalents of the CLI --verify runs, sharing the
session-scoped oracle digraphs; the CLI wiring itself is covered in
test_cli. The three large fixtures dominate the suite's runtime.
"""

import pytest

from popdyn import invariants
from popdyn.oracle import build_transition_digraph, minimal_invariant_sets
from popdyn.stochastic import BinaryTypePopulation
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
    problems, skipped = verify_invariants(pop, graph)
    assert problems == [] and skipped == []
    assert verify_oracle(graph) == []
    assert verify_stochastic(BinaryTypePopulation.from_population_spec(pop), graph=graph) == []


@pytest.mark.parametrize("name", ("ex1", "ex2", "ex3"))
def test_large_fixture_full_battery(name, pops, graphs):
    pop, graph = pops[name], graphs(name)
    assert verify_equilibria(pop, graph) == []
    problems, skipped = verify_invariants(pop, graph)
    assert problems == []
    assert skipped == []
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
    problems, _ = verify_invariants(pop, graph)
    assert any(p.startswith("X invariance disagrees") for p in problems)
