"""Every shipped fixture passes the full analytic-vs-oracle battery.

These are the in-process equivalents of the CLI --verify runs, sharing the
session-scoped oracle digraphs; the CLI wiring itself is covered in
test_cli. The three large fixtures dominate the suite's runtime.
"""

from collections import Counter
from fractions import Fraction

import pytest

from popdyn import invariants
from popdyn import stochastic as st
from popdyn.fixtures import fixture_config
from popdyn.model import validate_population
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


def test_verify_stochastic_computes_each_plain_cost_once(pops, graphs, monkeypatch):
    bpop = BinaryTypePopulation.from_population_spec(pops["ex7_4"])
    calls = []
    real = st._mistake_costs

    def counting(chain, sources, reverse=False):
        if reverse:
            calls.append(tuple(sources))
        return real(chain, sources, reverse)

    monkeypatch.setattr(st, "_mistake_costs", counting)
    assert verify_stochastic(bpop, graph=graphs("ex7_4")) == []
    chain = st.build_chain(bpop, Fraction(0), graphs("ex7_4"))
    classes = st.recurrent_classes(chain)
    # one plain backward search per class, none per (state, class) pair
    assert sorted(calls) == sorted(classes)
    plain = chain.class_table.plain
    for t, cls in enumerate(classes):
        assert {i: plain[t, i] for i in range(chain.n_states) if i not in cls} \
            == {i: st.cost(chain, [i], cls) for i in range(chain.n_states) if i not in cls}


def test_verify_stochastic_runs_two_searches_per_class(pops, graphs, monkeypatch):
    bpop = BinaryTypePopulation.from_population_spec(pops["ex7_1"])
    calls = []
    real = st._mistake_costs

    def counting(chain, sources, *args, **kwargs):
        calls.append(tuple(sources))
        return real(chain, sources, *args, **kwargs)

    monkeypatch.setattr(st, "_mistake_costs", counting)
    assert verify_stochastic(bpop, graph=graphs("ex7_1")) == []
    classes = st.recurrent_classes(st.build_chain(bpop, 0, graphs("ex7_1")))
    assert len(classes) == 8
    # two whole-chain searches from each class, none from any other state
    assert Counter(calls) == {cls: 2 for cls in classes}


def test_scaled_fixture_full_stochastic_battery():
    # ex7_1 with every count tripled: 1,792 chain states, float stationary solves
    raw = fixture_config("ex7_1")
    for group in raw["anticoordinating"] + raw["coordinating"]:
        group["bestResponders"] *= 3
        group["imitators"] *= 3
    bpop = BinaryTypePopulation.from_population_spec(validate_population(raw))
    assert verify_stochastic(bpop) == []


# raising class 0's gamma by one leaves ex7_1's stable set alone, but on ex7_4
# class 0 is one of the two stable classes, so the stable set shrinks
@pytest.mark.parametrize("name, stable_set_moves", (("ex7_1", False), ("ex7_4", True)))
def test_verify_stochastic_flags_gamma_off_the_potential(name, stable_set_moves, pops, graphs,
                                                         monkeypatch):
    bpop = BinaryTypePopulation.from_population_spec(pops[name])
    real = st.gamma
    monkeypatch.setattr(st, "gamma", lambda cg, root: real(cg, root) + (root == 0))
    problems = verify_stochastic(bpop, graph=graphs(name))
    assert any(p.startswith("stochastic potential [") and "of class 0 " in p for p in problems)
    assert any(p.startswith("stochastic potential is minimal on") for p in problems) \
        == stable_set_moves
