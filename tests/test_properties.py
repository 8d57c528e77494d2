"""Randomized cross-checks beyond the fixtures."""

from dataclasses import replace
from fractions import Fraction

import numpy as np

from genpop import sample_populations
from popdyn import stochastic as st
from popdyn.dynamics import UniformRandom, Weighted, simulate
from popdyn.equilibria import enumerate_equilibria
from popdyn.invariants import (
    all_benchmark_indices,
    is_closed_under_step,
    s_membership_mask,
    x_membership_mask,
)
from popdyn.model import PopulationSpec, State, validate_population
from popdyn.oracle import build_transition_digraph, minimal_invariant_sets
from popdyn.verify import _gamma_reference


def test_validate_population_idempotent_randomized():
    for pop in sample_populations(seed=31, count=60):
        assert validate_population(pop) == pop


def test_equilibria_are_fixed_under_simulation():
    for k, pop in enumerate(sample_populations(seed=17, count=40)):
        g = build_transition_digraph(pop, max_states=200_000)
        singles = [s for s in minimal_invariant_sets(g) if s.is_singleton]
        for res in singles[:2]:
            state = next(iter(res.states))
            for policy in (UniformRandom(seed=k), Weighted({}, seed=k + 1)):
                traj = simulate(pop, state, policy, 60)
                assert all(r.state == state for r in traj.records)


def test_trajectory_locality_randomized():
    for k, pop in enumerate(sample_populations(seed=23, count=30)):
        traj = simulate(
            pop,
            pop.state(*(0 for _ in range(1 + pop.b + pop.bp))),
            UniformRandom(seed=k),
            150,
        )
        for prev, cur in zip(traj.refined, traj.refined[1:]):
            assert sum(abs(a - b) for a, b in zip(prev, cur)) <= 1


def _closed_by_edge_scan(graph, mask):
    src = np.repeat(np.arange(graph.n_states), np.diff(graph.matrix.indptr))
    return not (mask[src] & ~mask[graph.matrix.indices]).any()


def _with_empty_best_responder_cell(pop):
    # validate_population drops empty types, so build the spec directly; the
    # empty cell is last and shares its stride with the cell before it
    last = pop.coordinating[-1] if pop.coordinating else pop.anticoordinating[-1]
    empty = replace(last, temper=last.temper + 1 if last.kind == "coordinating"
                    else last.temper - 1, best_responders=0, imitators=0)
    if pop.coordinating:
        return PopulationSpec(pop.anticoordinating, pop.coordinating + (empty,))
    return PopulationSpec(pop.anticoordinating + (empty,), pop.coordinating)


def _moves_by_edge_scan(graph):
    src = np.repeat(np.arange(graph.n_states), np.diff(graph.matrix.indptr))
    dst = graph.matrix.indices
    change = graph.coords[:, dst].astype(int) - graph.coords[:, src]
    cell = np.argmax(change != 0, axis=0)
    up = change[cell, np.arange(len(dst))] > 0
    moves = np.zeros(graph.n_states, dtype=np.int64)
    np.bitwise_or.at(moves, src, 1 << (2 * cell + up))
    return moves


def test_closure_check_matches_edge_scan_randomized():
    pops = list(sample_populations(seed=61, count=25))
    pops.append(_with_empty_best_responder_cell(pops[0]))
    assert 0 in build_transition_digraph(pops[-1]).space.caps
    rng = np.random.default_rng(61)
    for pop in pops:
        g = build_transition_digraph(pop, max_states=200_000)
        decoded = np.array([g.space.coords_of(i) for i in range(g.n_states)]).T
        assert (g.coords == decoded).all()
        assert (g.n_c == decoded.sum(axis=0)).all()
        assert (g.moves == _moves_by_edge_scan(g)).all()
        masks = []
        for idx in all_benchmark_indices(pop):
            x_mask = x_membership_mask(g, idx)
            masks += [x_mask, s_membership_mask(g, idx), s_membership_mask(g, idx, x_mask)]
        for density in (0.05, 0.5, 0.95):
            masks.append(rng.random(g.n_states) < density)
            # forward closures are closed; removing one state usually breaks that
            reach = g.reachable_mask(rng.integers(0, g.n_states, size=2))
            masks.append(reach)
            trimmed = reach.copy()
            trimmed[rng.choice(np.flatnonzero(reach))] = False
            masks.append(trimmed)
        verdicts = [_closed_by_edge_scan(g, m) for m in masks]
        assert any(verdicts)
        assert [is_closed_under_step(g, m) for m in masks] == verdicts


def _binary_pops(seed, count):
    produced = 0
    for pop in sample_populations(seed=seed, count=400, max_agents=11, max_types=2):
        if pop.b != 1 or pop.bp != 1:
            continue
        try:
            bpop = st.BinaryTypePopulation.from_population_spec(pop)
        except ValueError:
            continue
        yield pop, bpop
        produced += 1
        if produced >= count:
            return


def test_singleton_classes_match_closed_form_randomized():
    for pop, bpop in _binary_pops(seed=41, count=25):
        chain = st.build_chain(bpop, 0)
        singletons = {
            State(s.x1I + s.x2I, (s.xa,), (s.xc,))
            for s in (chain.states[cls[0]] for cls in st.recurrent_classes(chain) if len(cls) == 1)
        }
        assert singletons == {r.state for r in enumerate_equilibria(pop)}


def test_cost_dominates_modified_cost_randomized():
    for pop, bpop in _binary_pops(seed=43, count=12):
        chain = st.build_chain(bpop, 0)
        classes = st.recurrent_classes(chain)
        for cls in classes:
            cls_set = set(cls)
            for i in range(chain.n_states):
                if i in cls_set:
                    continue
                assert st.cost(chain, [i], cls) >= st.modified_cost(chain, i, cls)


def test_gamma_routes_agree_randomized():
    for pop, bpop in _binary_pops(seed=47, count=20):
        chain = st.build_chain(bpop, 0)
        cg = st.build_class_graph(chain)
        for t in range(cg.k):
            assert st.gamma(cg, t) == _gamma_reference(cg, t)


def test_stationary_exact_on_random_chain():
    for pop, bpop in _binary_pops(seed=53, count=4):
        chain = st.build_chain(bpop, Fraction(1, 128))
        mu = st.stationary_distribution(chain)
        assert sum(mu) == 1
        assert st.stationary_residual(chain, mu) == 0
        # cross-check against a float eigen solve
        n = chain.n_states
        mat = np.zeros((n, n))
        for i, row in enumerate(chain.rows):
            for j, p in row.items():
                mat[i, j] = float(p)
        w, v = np.linalg.eig(mat.T)
        lead = np.argmin(np.abs(w - 1))
        vec = np.abs(np.real(v[:, lead]))
        vec /= vec.sum()
        assert np.abs(np.array([float(x) for x in mu]) - vec).max() < 1e-9
