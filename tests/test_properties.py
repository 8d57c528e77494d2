"""Randomized cross-checks beyond the fixtures."""

import inspect
import textwrap
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from genpop import (cooperators, is_closed_under_step, mistake_cost, reference_outearns,
                    s_membership_mask, sample_populations, with_empty_best_responder_cell,
                    x_membership_mask)
from popdyn import cells
from popdyn import stochastic as st
from popdyn.cells import BEST_RESPONDER, IMITATOR, CellSpace
from popdyn.dynamics import UniformRandom, Weighted, simulate
from popdyn.equilibria import enumerate_equilibria, is_exclusive_cooperation_preserving
from popdyn.fixtures import FIXTURE_NAMES, fixture_population
from popdyn.invariants import all_benchmark_indices, s_cooperator_range, s_invariance_details
from popdyn.model import ANTICOORDINATING, COORDINATING, C, D, State, validate_population
from popdyn.oracle import build_transition_digraph, minimal_invariant_sets
from test_stochastic import (_assert_potential_matches_gamma, _gamma_reference, _rows,
                             _stationary_reference)


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
        m.setattr(CellSpace, "outearns", reference_outearns)
        return pops, _top_earner_decisions(pops)


def test_outearns_matches_the_enumeration(enumerated):
    pops, (details, verdicts) = enumerated
    assert _top_earner_decisions(pops) == (details, verdicts)
    # both top-earner tests and both cooperation-preserving outcomes occur
    outcomes = {(key, d[key]) for d in details
                for key in ("cooperator_top_at_min", "defector_top_at_max") if key in d}
    assert len(outcomes) == 4 and set(verdicts) == {True, False}


@pytest.fixture(scope="module")
def top_earner_queries():
    """Top-earner questions with their answers by enumeration: for each
    fixture and sample population, 20 random per-cell sub-ranges, each with a
    random n_c inside their summed range, asked for both sides."""
    pops = [fixture_population(name) for name in FIXTURE_NAMES]
    pops += [pop for seed in (23, 29) for pop in sample_populations(seed=seed, count=150)]
    rng = np.random.default_rng(43)
    queries = []
    for pop in pops:
        space = CellSpace(pop)
        for _ in range(20):
            ranges = [tuple(sorted(rng.integers(0, cap + 1, size=2).tolist())) for cap in space.caps]
            n_c = int(rng.integers(sum(lo for lo, _ in ranges), sum(hi for _, hi in ranges) + 1))
            queries += [(space, ranges, n_c, side, reference_outearns(space, ranges, n_c, side))
                        for side in (C, D)]
    return queries


def test_outearns_matches_the_enumeration_per_query(top_earner_queries):
    answers = [space.outearns(ranges, n_c, side) for space, ranges, n_c, side, _ in top_earner_queries]
    assert answers == [want for *_, want in top_earner_queries]
    assert 0 < sum(answers) < len(answers)


def _outearns_with(old: str, new: str):
    """`CellSpace.outearns` with the one occurrence of `old` in its source replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(CellSpace.outearns))
    assert source.count(old) == 1, old
    namespace = dict(vars(cells))
    exec(source.replace(old, new), namespace)
    return namespace["outearns"]


def test_outearns_on_object_arrays_matches_per_query(top_earner_queries, monkeypatch):
    # a population of 2^63 agents or more counts in object arrays, not int64
    monkeypatch.setattr(CellSpace, "outearns", _outearns_with("np.int64 if n < 2 ** 63 else object", "object"))
    answers = [space.outearns(ranges, n_c, side) for space, ranges, n_c, side, _ in top_earner_queries]
    assert answers == [want for *_, want in top_earner_queries]


# each a one-token change to `CellSpace.outearns` that the decisions of
# `test_outearns_matches_the_enumeration` alone need not catch
_OUTEARNS_MUTANTS = (
    ("np.maximum(floors.diagonal(), 1)", "floors.diagonal()"),  # the top earner's type may be absent
    ("rival >= own[:, None]", "rival > own[:, None]"),  # a tie on the other side no longer counts
    ("np.where(rival >= own[:, None], cap, 0)", "np.where(rival >= own[:, None], 0, 0)"),
)


def test_per_query_comparison_catches_outearns_mutants(top_earner_queries):
    for old, new in _OUTEARNS_MUTANTS:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(CellSpace, "outearns", _outearns_with(old, new))
            assert any(space.outearns(ranges, n_c, side) != want
                       for space, ranges, n_c, side, want in top_earner_queries), new


# the cell of each BState field, by role, kind and type index
_BSTATE_CELLS = {"x1I": (IMITATOR, ANTICOORDINATING, 1),
                 "xa": (BEST_RESPONDER, ANTICOORDINATING, 1),
                 "x2I": (IMITATOR, COORDINATING, 1),
                 "xc": (BEST_RESPONDER, COORDINATING, 1)}


def test_cell_space_encoding_randomized():
    pops = [fixture_population(name) for name in FIXTURE_NAMES]
    pops += sample_populations(seed=37, count=30)
    pops.append(with_empty_best_responder_cell(pops[-1]))
    assert 0 in CellSpace(pops[-1]).caps
    rng = np.random.default_rng(37)
    for pop in pops:
        space = CellSpace(pop)
        n = space.n_states
        indices = np.unique(np.append(rng.integers(0, n, size=min(n, 500)), [0, n - 1]))
        digits = space.digits(indices)
        assert digits.T.tolist() == [list(space.coords_of(i)) for i in indices.tolist()]

        # a range from state 0 (all of a small space), and ranges that start and end inside runs
        starts = rng.integers(0, n, size=4)
        stops = np.minimum(n, starts + rng.integers(1, 1000, size=4))
        cuts = [(0, min(n, 1000)), *zip(starts.tolist(), stops.tolist())]
        for k, cap in enumerate(space.caps):
            values = rng.permutation(cap + 1)  # any function of the count
            for lo, hi in cuts:
                want = values[space.digits(np.arange(lo, hi))[k]]
                assert np.array_equal(space.column(k, values, lo, hi), want)

        # the table lists both moves of every cell with capacity, ascending
        live = [k for k, cap in enumerate(space.caps) if cap]
        assert sorted(space.move_cell.tolist()) == sorted(2 * live)
        assert (np.diff(space.steps) > 0).all()
        moves = space.moves(list(digits))
        assert not (moves & ~np.bitwise_or.reduce(space.bits, initial=0)).any()
        sizes = space.group_sizes(indices)
        for j, (step, bit, k, up) in enumerate(zip(space.steps, space.bits, space.move_cell,
                                                   space.move_up)):
            has = (moves & bit) != 0
            assert (sizes[j][has] > 0).all()
            want = digits[:, has].copy()
            want[k] += 1 if up else -1
            assert np.array_equal(space.digits(indices[has] + step), want)

        pooled = space.pooled_columns(indices)
        assert [State(x, tuple(br[:pop.b]), tuple(br[pop.b:])) for x, *br in pooled.T.tolist()] \
            == [space.pooled(space.coords_of(i)) for i in indices.tolist()]

        if pop.b == pop.bp == 1 and all(t.imitators for t in pop.all_types()):
            chain = st.build_chain(pop, build_transition_digraph(pop))
            for i in indices.tolist():
                coords = space.coords_of(i)
                fields = {f: coords[space.position[key]] for f, key in _BSTATE_CELLS.items()}
                assert chain.states[i] == st.BState(**fields)
                assert chain.index_of(chain.states[i]) == i


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
        assert (cooperators(g) == decoded.sum(axis=0)).all()
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
        table = chain.class_table
        for t, cls in enumerate(table.classes):
            modified = table.modified_costs(t)
            for i in np.flatnonzero(table.class_of != t).tolist():
                assert mistake_cost(chain, [i], cls) == table.plain[t, i] >= modified[i]


def test_gamma_routes_agree_randomized():
    for pop in _binary_pops(seed=47, count=20):
        costs = st.build_chain(pop).class_table.costs
        for t in range(len(costs)):
            assert st.gamma(costs, t) == _gamma_reference(costs, t)


def test_potential_matches_gamma_randomized():
    for pop in _binary_pops(seed=47, count=20):
        _assert_potential_matches_gamma(st.build_chain(pop))


def test_exact_solve_matches_reference_randomized():
    # up to 7 agents, so the Fraction reference stays quick: 16 to 54 states
    chains = [st.build_chain(pop)
              for pop in _binary_pops(seed=59, count=30, max_agents=7, samples=4000)]
    assert len(chains) == 30
    for chain in chains:
        for eps in (Fraction(1, 2), Fraction(1, 100), Fraction(1, 10000)):
            assert st.stationary_distribution(chain, eps) == _stationary_reference(chain, eps)


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
