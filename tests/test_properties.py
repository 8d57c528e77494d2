"""Randomized cross-checks beyond the fixtures."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from genpop import (is_closed_under_step, reference_top_utilities, s_membership_mask,
                    sample_populations, with_empty_best_responder_cell, x_membership_mask)
from popdyn import stochastic as st
from popdyn.cells import CellSpace
from popdyn.dynamics import UniformRandom, Weighted, simulate
from popdyn.equilibria import enumerate_equilibria, is_exclusive_cooperation_preserving
from popdyn.fixtures import FIXTURE_NAMES, fixture_population
from popdyn.invariants import all_benchmark_indices, s_cooperator_range, s_invariance_details
from popdyn.model import State, validate_population
from popdyn.oracle import build_transition_digraph, minimal_invariant_sets
from test_stochastic import (_assert_potential_matches_gamma, _gamma_reference,
                             _rows, _stationary_reference, divided_exactly)


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


def _top_earner_decisions(pops) -> tuple[list[dict], list[bool]]:
    """Every nonempty S's `s_invariance_details`, and the cooperation-preserving
    verdict at every pooled state where no best-responder type is split (the
    states `verify_equilibria` checks)."""
    details, verdicts = [], []
    for pop in pops:
        for idx in all_benchmark_indices(pop):
            lo, hi = s_cooperator_range(pop, idx)
            if lo <= hi:
                details.append(s_invariance_details(pop, idx))
        for xI, *br in product(range(pop.m + 1), *((0, t.best_responders) for t in pop.all_types())):
            state = State(xI, tuple(br[:pop.b]), tuple(br[pop.b:]))
            verdicts.append(is_exclusive_cooperation_preserving(pop, state))
    return details, verdicts


@pytest.fixture(scope="module")
def enumerated():
    """The populations of the quantifier comparison, and their decisions with
    each quantification made over the listed states instead."""
    pops = [fixture_population(name) for name in FIXTURE_NAMES]
    pops += [pop for seed in (23, 29, 5) for pop in sample_populations(seed=seed, count=150)]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(CellSpace, "top_utilities", reference_top_utilities)
        return pops, _top_earner_decisions(pops)


def test_presence_patterns_match_the_enumeration(enumerated):
    pops, (details, verdicts) = enumerated
    assert _top_earner_decisions(pops) == (details, verdicts)
    # both top-earner tests and both cooperation-preserving outcomes occur
    outcomes = {(key, d[key]) for d in details
                for key in ("cooperator_top_at_min", "defector_top_at_max") if key in d}
    assert len(outcomes) == 4 and set(verdicts) == {True, False}


def test_enumeration_catches_a_quantifier_without_interior(enumerated, monkeypatch):
    # a type whose agents play both strategies is the interior pattern
    pops, (details, verdicts) = enumerated
    real = CellSpace.presence_patterns
    monkeypatch.setattr(CellSpace, "presence_patterns", lambda self, ranges, n_c: (
        pattern for pattern in real(self, ranges, n_c) if (True, True) not in pattern))
    mutant_details, mutant_verdicts = _top_earner_decisions(pops)
    assert mutant_details != details and mutant_verdicts != verdicts


def _closed_by_edge_scan(graph, mask):
    src = np.repeat(np.arange(graph.n_states), np.diff(graph.matrix.indptr))
    return not (mask[src] & ~mask[graph.matrix.indices]).any()


def test_closure_check_matches_edge_scan_randomized():
    pops = list(sample_populations(seed=61, count=25))
    pops.append(with_empty_best_responder_cell(pops[0]))
    assert 0 in build_transition_digraph(pops[-1]).space.caps
    rng = np.random.default_rng(61)
    for pop in pops:
        g = build_transition_digraph(pop, max_states=200_000)
        decoded = np.array([g.space.coords_of(i) for i in range(g.n_states)]).T
        assert (g.coords == decoded).all()
        assert (g.n_c == decoded.sum(axis=0)).all()
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


def _binary_pops(seed, count, max_agents=11, samples=400):
    produced = 0
    for pop in sample_populations(seed=seed, count=samples, max_agents=max_agents, max_types=2):
        try:
            st.check_binary(pop)
        except ValueError:
            continue
        yield pop
        produced += 1
        if produced >= count:
            return


def test_singleton_classes_match_closed_form_randomized():
    for pop in _binary_pops(seed=41, count=25):
        chain = st.build_chain(pop)
        singletons = {
            State(s.x1I + s.x2I, (s.xa,), (s.xc,))
            for s in (chain.states[cls[0]] for cls in st.recurrent_classes(chain) if len(cls) == 1)
        }
        assert singletons == {r.state for r in enumerate_equilibria(pop)}


def test_cost_dominates_modified_cost_randomized():
    for pop in _binary_pops(seed=43, count=12):
        chain = st.build_chain(pop)
        classes = st.recurrent_classes(chain)
        for cls in classes:
            cls_set = set(cls)
            for i in range(chain.n_states):
                if i in cls_set:
                    continue
                assert st.cost(chain, [i], cls) >= st.modified_cost(chain, i, cls)


def test_gamma_routes_agree_randomized():
    for pop in _binary_pops(seed=47, count=20):
        costs = st.build_chain(pop).class_table.costs
        for t in range(len(costs)):
            assert st.gamma(costs, t) == _gamma_reference(costs, t)


def test_potential_matches_gamma_randomized():
    for pop in _binary_pops(seed=47, count=20):
        _assert_potential_matches_gamma(st.build_chain(pop))


def test_exact_kernel_divides_exactly_randomized():
    # up to 7 agents, so the Fraction reference stays quick: 16 to 54 states
    chains = [st.build_chain(pop)
              for pop in _binary_pops(seed=59, count=30, max_agents=7, samples=4000)]
    assert len(chains) == 30
    for chain in chains:
        for eps in (Fraction(1, 2), Fraction(1, 100), Fraction(1, 10000)):
            assert divided_exactly(chain, eps) == _stationary_reference(chain, eps)


def test_stationary_exact_on_random_chain():
    for pop in _binary_pops(seed=53, count=4):
        chain, eps = st.build_chain(pop), Fraction(1, 128)
        mu = st.stationary_distribution(chain, eps)
        assert sum(mu) == 1
        assert st.stationary_residual(chain, eps, mu) == 0
        assert mu == _stationary_reference(chain, eps)
        # cross-check against a float eigen solve
        n = chain.n_states
        mat = np.zeros((n, n))
        for i, row in enumerate(_rows(chain, eps)):
            for j, p in row.items():
                mat[i, j] = float(p)
        w, v = np.linalg.eig(mat.T)
        lead = np.argmin(np.abs(w - 1))
        vec = np.abs(np.real(v[:, lead]))
        vec /= vec.sum()
        assert np.abs(np.array([float(x) for x in mu]) - vec).max() < 1e-9
