import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from genpop import (is_closed_under_step, s_membership_mask, sample_populations,
                    with_empty_best_responder_cell, x_membership_mask)
from popdyn import invariants
from popdyn.errors import EmptySet
from popdyn.invariants import (
    BenchmarkIndex,
    all_benchmark_indices,
    benchmark_types_from_bounds,
    invariance_report,
    is_closed_on_members,
    is_invariant_S,
    is_invariant_X,
    membership_I,
    membership_S,
    membership_X,
    member_blocks,
    s_cooperator_range,
    s_nonemptiness_conditions,
    tau_max,
    tau_min,
    verify_necessary_conditions,
)
from popdyn.model import State
from popdyn.oracle import build_transition_digraph, minimal_invariant_sets


def test_benchmarks_at_zero_bounds(pops):
    pop = pops["ex2"]
    idx = benchmark_types_from_bounds(pop, 0, 0)
    # every real temper exceeds 0, so only the sentinel sits below S = 0
    assert idx.j2 == pop.b + 1
    assert idx.j1p == 0
    assert idx.j1 == pop.b  # all nonconformist tempers exceed L = 0
    assert idx.j2p == 1


def test_benchmarks_ex2_fluctuation(pops):
    pop = pops["ex2"]
    idx = benchmark_types_from_bounds(pop, 26, 27)
    # tau_a = (26.75, 10.25), tau_c = (23.5, 31.5, 40.75)
    assert (idx.j1, idx.j2, idx.j2p, idx.j1p) == (0, 2, 2, 1)


def test_benchmarks_at_full_bounds(pops):
    pop = pops["ex2"]
    idx = benchmark_types_from_bounds(pop, pop.n, pop.n)
    assert idx.j2 == 1  # every nonconformist temper sits below n
    assert idx.j1p == pop.bp


def test_membership_x_all_defect(pops):
    pop = pops["ex2"]
    idx = BenchmarkIndex(0, 1, 1, 0)
    assert membership_X(pop, idx, State(0, (0, 0), (0, 0, 0)))


def test_membership_x_counterexample(pops):
    pop = pops["ex2"]
    idx = BenchmarkIndex(0, 2, 3, 1)
    assert not membership_X(pop, idx, pop.state(14, 9, 0, 0, 0, 0))


def test_membership_x_on_oracle_sets(pops, graphs):
    for name in ("ex7_1", "ex7_2", "ex7_3", "ex7_4", "ex2"):
        pop, g = pops[name], graphs(name)
        for res in minimal_invariant_sets(g):
            idx = benchmark_types_from_bounds(pop, *res.cooperator_bounds)
            assert all(membership_X(pop, idx, st) for st in res.states)


def test_is_invariant_x_extreme_index(pops):
    pop = pops["ex2"]
    idx = BenchmarkIndex(pop.b, pop.b + 1, pop.bp + 1, pop.bp)
    expected = tau_max(pop, idx) < sum(
        pop.n_a(i) for i in range(1, pop.b + 1)
    ) + sum(pop.n_c(i) for i in range(1, pop.bp + 1)) and pop.n < tau_min(pop, idx)
    assert is_invariant_X(pop, idx) == expected


def test_is_invariant_x_constructed_violation(pops):
    # ex2: benchmark (0,2,3,1) pins 15 cooperators, below the 23.5 temper
    pop = pops["ex2"]
    assert not is_invariant_X(pop, BenchmarkIndex(0, 2, 3, 1))


def test_is_invariant_x_matches_closure(pops, graphs):
    for name in ("ex7_1", "ex7_2", "ex7_4"):
        pop, g = pops[name], graphs(name)
        for idx in all_benchmark_indices(pop):
            mask = x_membership_mask(g, idx)
            assert is_invariant_X(pop, idx) == is_closed_under_step(g, mask)


def test_s_membership(pops):
    pop = pops["ex2"]
    idx = BenchmarkIndex(0, 2, 2, 1)
    # the count window is (tau_1^c, tau_2^c) = (23.5, 31.5)
    state = pop.state(8, 9, 0, 0, 0, 15)  # 32 cooperators
    assert membership_X(pop, idx, state)
    assert not membership_S(pop, idx, state)
    inside = pop.state(3, 9, 0, 0, 0, 15)  # 27 cooperators
    assert membership_S(pop, idx, inside)


def test_s_empty_set_raises(pops):
    pop = pops["ex7_1"]  # tau_a = 4.1, tau_c = 4.5
    # fixing everyone to cooperate pushes the count window above its ceiling
    idx = BenchmarkIndex(1, 2, 2, 1)
    lo, hi = s_cooperator_range(pop, idx)
    assert lo > hi
    with pytest.raises(EmptySet):
        is_invariant_S(pop, idx)


def test_s_trivial_pinned_invariant():
    from popdyn.model import UtilityLine, validate_population

    # wide S window: both short-circuit arms hold
    pop = validate_population(
        {
            "anticoordinating": [
                {"uC": UtilityLine(-1, Fraction(25, 2)), "uD": UtilityLine(0, 0),
                 "bestResponders": 3, "imitators": 1},
            ],
            "coordinating": [
                {"uC": UtilityLine(1, 0), "uD": UtilityLine(0, Fraction(1, 2)),
                 "bestResponders": 3},
            ],
        }
    )
    # tau_a = 12.5 > n = 7, tau_c = 0.5: fix everyone to cooperate
    idx = BenchmarkIndex(pop.b, pop.b + 1, pop.bp + 1, pop.bp)
    assert s_nonemptiness_conditions(pop, idx) == (True, True)
    assert is_invariant_S(pop, idx)


def test_s_invariance_matches_closure_on_fixtures(pops, graphs):
    for name in ("ex7_1", "ex7_2", "ex7_3", "ex7_4"):
        pop, g = pops[name], graphs(name)
        for idx in all_benchmark_indices(pop):
            lo, hi = s_cooperator_range(pop, idx)
            if lo > hi:
                continue
            mask = s_membership_mask(g, idx)
            assert is_invariant_S(pop, idx) == (
                is_closed_under_step(g, mask) and bool(mask.any())
            )


def _walks_the_mask(graph, idx, mask, window=None) -> bool:
    """Whether `member_blocks` yields each state of `mask` once, with its
    cooperator count, each block sorted by count."""
    seen = np.zeros(graph.n_states, dtype=bool)
    total = 0
    for members, counts in member_blocks(graph.space, idx, window):
        if not ((counts == graph.n_c[members]).all() and (np.diff(counts) >= 0).all()):
            return False
        seen[members] = True
        total += members.size
    return total == mask.sum() and np.array_equal(seen, mask)


def _member_closure_check(pop, graph, cases: Counter) -> list:
    """The benchmark indices where the member walk's X or S verdict, or its
    members, differ from the whole-space masks and `is_closed_under_step`;
    `cases` counts the kinds of index met."""
    wrong = []
    for idx in all_benchmark_indices(pop):
        x_mask = x_membership_mask(graph, idx)
        closed = is_closed_under_step(graph, x_mask)
        cases[f"X closed {closed}"] += 1
        # every fixed cell takes a count in its range and the free cells are
        # unconstrained, so X always has members
        if not (x_mask.any() and _walks_the_mask(graph, idx, x_mask)
                and is_closed_on_members(graph, idx) == closed):
            wrong.append(("X", idx))
        s_mask = s_membership_mask(graph, idx, x_mask)
        lo, hi = s_cooperator_range(pop, idx)
        if lo > hi:
            cases["S empty"] += 1
            if s_mask.any():
                wrong.append(("S empty", idx))
            continue
        if (lo > math.floor(tau_max(pop, idx)) + 1 or hi < math.ceil(tau_min(pop, idx)) - 1):
            cases["S window clamped by X's extremes"] += 1
        closed = is_closed_under_step(graph, s_mask)
        cases[f"S closed {closed}"] += 1
        if not (s_mask.any() and _walks_the_mask(graph, idx, s_mask, (lo, hi))
                and is_closed_on_members(graph, idx, (lo, hi)) == closed):
            wrong.append(("S", idx))
    return wrong


def _closure_corpus(pops, graphs, with_ex1=True):
    corpus = [(pops[name], graphs(name)) for name in ("ex7_1", "ex7_2", "ex7_3", "ex7_4")]
    if with_ex1:
        corpus.append((pops["ex1"], graphs("ex1")))
    randomized = list(sample_populations(seed=19, count=40))
    randomized.append(with_empty_best_responder_cell(randomized[0]))
    corpus += [(pop, build_transition_digraph(pop, max_states=200_000)) for pop in randomized]
    assert 0 in corpus[-1][1].space.caps
    return corpus


def test_member_closure_matches_masks_randomized(pops, graphs):
    cases = Counter()
    for pop, graph in _closure_corpus(pops, graphs):
        assert _member_closure_check(pop, graph, cases) == []
    for case in ("X closed True", "X closed False", "S closed True", "S closed False",
                 "S empty", "S window clamped by X's extremes"):
        assert cases[case], case


@pytest.mark.parametrize("skip", ["edge levels", "fixed cells"])
def test_member_closure_check_catches_mutants(pops, graphs, monkeypatch, skip):
    real = invariants._leaving_bits

    def mutant(space, idx):
        fixed, down, up = real(space, idx)
        return (fixed, 0, 0) if skip == "edge levels" else (0, down, up)

    monkeypatch.setattr(invariants, "_leaving_bits", mutant)
    cases = Counter()
    wrong = [w for pop, graph in _closure_corpus(pops, graphs, with_ex1=False)
             for w in _member_closure_check(pop, graph, cases)]
    # inside S's window every fixed best responder already plays its fixed
    # strategy, so only X's verdicts show the fixed-cell test missing
    assert {kind for kind, _ in wrong} == ({"S"} if skip == "edge levels" else {"X"})


def test_s_invariance_covers_ex7_2_omega(pops, graphs):
    pop, g = pops["ex7_2"], graphs("ex7_2")
    omega = next(s for s in minimal_invariant_sets(g) if not s.is_singleton)
    idx = benchmark_types_from_bounds(pop, *omega.cooperator_bounds)
    assert is_invariant_S(pop, idx)
    mask = s_membership_mask(g, idx)
    assert is_closed_under_step(g, mask)


def test_membership_i_vacuous_without_wanderers(pops):
    pop = pops["ex2"]
    idx = BenchmarkIndex(1, 2, 2, 1)  # j2 = j1+1: no wandering nonconformists
    state = pop.state(0, 9, 0, 0, 0, 15)
    assert membership_I(pop, idx, state) == membership_X(pop, idx, state)


def test_membership_i_partial_sum(pops):
    pop = pops["ex2"]
    idx = benchmark_types_from_bounds(pop, 26, 27)  # (0, 2, 2, 1)
    state = pop.state(2, 9, 0, 0, 0, 15)
    # the only wandering nonconformist type is 1: 15 + 0 + 9 <= ceil(26.75) = 27
    assert membership_I(pop, idx, state)


def test_membership_i_on_oracle_sets(pops, graphs):
    for name in ("ex2", "ex7_2", "ex7_3"):
        pop, g = pops[name], graphs(name)
        for res in minimal_invariant_sets(g):
            if res.is_singleton:
                continue
            idx = benchmark_types_from_bounds(pop, *res.cooperator_bounds)
            assert all(membership_I(pop, idx, st) for st in res.states)


def test_verify_necessary_conditions_ex2(pops, graphs):
    pop, g = pops["ex2"], graphs("ex2")
    fluct = next(s for s in minimal_invariant_sets(g) if not s.is_singleton)
    report = verify_necessary_conditions(pop, fluct)
    assert report["all_pass"]
    assert report["cooperator_bounds"] == [26, 27]


def test_verify_necessary_conditions_rejects_singleton(pops, graphs):
    pop, g = pops["ex2"], graphs("ex2")
    singleton = next(s for s in minimal_invariant_sets(g) if s.is_singleton)
    with pytest.raises(ValueError):
        verify_necessary_conditions(pop, singleton)


def test_invariance_report_shape(pops):
    report = invariance_report(pops["ex7_2"])
    entries = report["benchmark_sets"]
    assert len(entries) == sum(1 for _ in all_benchmark_indices(pops["ex7_2"]))
    assert all("X_invariant" in e and "S_empty" in e for e in entries)
