import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import breadth_first_order

from genpop import reference_next, reference_step, sample_populations, with_empty_best_responder_cell
from popdyn import oracle
from popdyn.cells import CellSpace
from popdyn.dynamics import AgentRef, step
from popdyn.errors import NoSuchAgent, NotAnEquilibrium, StateSpaceTooLarge
from popdyn.model import State, UtilityLine, validate_population
from popdyn.oracle import (
    build_transition_digraph,
    export_adjacency,
    is_equilibrium_oracle,
    is_stable_oracle,
    minimal_invariant_sets,
    reachable_set,
    resolve_max_states,
)


def test_ex7_2_has_72_nodes(graphs):
    assert graphs("ex7_2").n_states == 72


# SHA-256 of `moves.tobytes() + self_loop.tobytes()` per fixture
MOVES_DIGESTS = {
    "ex1": "6a71cc8226c3019130c8aad70a4b19eb1e47052e0faaa8e7cb217a16cc477bbe",
    "ex2": "f38971969d1860d93d23ddeb1e92e899311d2a4c44318572d4142781fe856a63",
    "ex3": "293361e2cfcd973588e5d2ef3154bf6054a60af84b1d5020eb3dea99129042af",
    "ex7_1": "0f3fa15e45f461e89f6199c16145a19d80fa33d8130fba9c5373b011abd20687",
    "ex7_2": "c1519e1646046ed639ce425b4dcfd13e53651364655bc404f2087dc0619bc7e6",
    "ex7_3": "a731a9c6306d2af1836668863009232a45b2d958c95e8dba957c68092cf0413a",
    "ex7_4": "c7e76f62f219436abc7586860d0a9515825d5a8779e1a13f5c1f5ef9a87e6dd9",
}


@pytest.mark.parametrize("name", sorted(MOVES_DIGESTS))
def test_moves_and_self_loops_pinned(graphs, name):
    g = graphs(name)
    digest = hashlib.sha256(g.moves.tobytes() + g.self_loop.tobytes()).hexdigest()
    assert digest == MOVES_DIGESTS[name]


def test_single_best_responder_two_nodes():
    pop = validate_population(
        {"coordinating": [{"uC": UtilityLine(1, 0), "uD": UtilityLine(0, "1/2"),
                           "bestResponders": 1}]}
    )
    g = build_transition_digraph(pop)
    assert g.n_states == 2
    assert all(len(g.successors(i)) == 1 for i in range(2))


def test_ex1_node_count_matches_closed_form(pops, graphs):
    # single imitator group, so the refined space equals the pooled product
    from popdyn.model import state_space_size

    assert graphs("ex1").n_states == state_space_size(pops["ex1"])


def test_guard_refuses_large_spaces(pops):
    with pytest.raises(StateSpaceTooLarge):
        build_transition_digraph(pops["ex1"], max_states=1000)


def test_guard_env_override(pops, monkeypatch):
    monkeypatch.setenv("POPDYN_MAX_STATES", "10")
    assert resolve_max_states() == 10
    with pytest.raises(StateSpaceTooLarge):
        build_transition_digraph(pops["ex7_1"], max_states=None)
    assert resolve_max_states(50) == 50  # explicit argument wins
    monkeypatch.delenv("POPDYN_MAX_STATES")
    assert resolve_max_states() == 10**6
    for bad in (0, -5):
        with pytest.raises(ValueError, match="positive integer"):
            resolve_max_states(bad)
    monkeypatch.setenv("POPDYN_MAX_STATES", "abc")
    with pytest.raises(ValueError, match="positive integer"):
        resolve_max_states()


def _tied_population():
    # at n_c = 3: uC = 100 and uD = 98.5 for the nonconformists, uC = 99.5 and
    # uD = 100 for the conformists, so a nonconformist cooperator and a
    # conformist defector tie for the top and imitators keep their strategy
    return validate_population({
        "anticoordinating": [{"uC": UtilityLine(-1, 103), "uD": UtilityLine(0, "197/2"),
                              "bestResponders": 2, "imitators": 2}],
        "coordinating": [{"uC": UtilityLine(1, "193/2"), "uD": UtilityLine(0, 100),
                          "bestResponders": 2, "imitators": 1}],
    })


def _route_pops():
    pops = list(sample_populations(seed=99, count=25))
    pops.append(with_empty_best_responder_cell(pops[0]))
    pops.append(_tied_population())
    return pops


def _reference_successors(space, coords):
    out = set()
    for k, cap in enumerate(space.caps):
        for current, members in (("C", coords[k]), ("D", cap - coords[k])):
            if members:
                out.add(reference_step(space, coords, k, current))
    return out


def test_successors_match_pure_python_route():
    # the digraph, built by the update-rule kernel, vs the Fraction rules at
    # every state
    imitator_ties = 0
    for pop in _route_pops():
        g = build_transition_digraph(pop, max_states=200_000)
        space = g.space
        for i in range(g.n_states):
            coords = space.coords_of(i)
            expected = _reference_successors(space, coords)
            assert g.successors(i) == sorted(space.index_of(c) for c in expected)
            assert bool(g.self_loop[i]) == (coords in expected)
            sup_c, sup_d = space.imitation_sups(coords)
            imitator_ties += bool(space.imitator_positions) and sup_c == sup_d
    assert imitator_ties > 0
    # `step`, through the same kernel, at every state and activation of the
    # population whose imitators tie
    space = CellSpace(_tied_population())
    activations = 0
    for i in range(space.n_states):
        coords = space.coords_of(i)
        for k, cell in enumerate(space.cells):
            for current, members in (("C", coords[k]), ("D", space.caps[k] - coords[k])):
                agent = AgentRef(cell.role, cell.kind, cell.type_index, current)
                if not members:
                    with pytest.raises(NoSuchAgent):
                        step(space.pop, coords, agent)
                    continue
                assert step(space.pop, coords, agent) == reference_step(space, coords, k, current)
                activations += 1
    assert space.n_states == 54 and activations > space.n_states


def test_moves_search_matches_csr_search():
    rng = np.random.default_rng(5)
    for pop in _route_pops():
        g = build_transition_digraph(pop, max_states=200_000)
        matrix = g.matrix
        assert matrix.nnz == g.n_edges and matrix.has_sorted_indices
        for i in range(g.n_states):
            row = matrix.indices[matrix.indptr[i] : matrix.indptr[i + 1]]
            assert row.tolist() == [j for j in g.successors(i) if j != i]
        for start in rng.integers(0, g.n_states, size=4).tolist():
            for csr, reverse in ((matrix, False), (matrix.T.tocsr(), True)):
                want = np.zeros(g.n_states, dtype=bool)
                want[breadth_first_order(csr, start, return_predecessors=False)] = True
                assert (oracle.frontier_search(g, [start], reverse=reverse) == want).all()
                bound = want | (rng.random(g.n_states) < 0.5)
                assert (oracle.frontier_search(g, [start], bound, reverse) == want).all()
                others = np.flatnonzero(want)
                others = others[others != start]
                if others.size:
                    bound[rng.choice(others)] = False
                    assert oracle.frontier_search(g, [start], bound, reverse) is None


def _reference_sinks(g):
    """Sink SCCs from scipy's strong components of the CSR matrix, by smallest state."""
    labels = g.scc_labels()
    matrix = g.matrix
    src = np.repeat(np.arange(g.n_states), np.diff(matrix.indptr))
    leaves = labels[src][labels[src] != labels[matrix.indices]]
    sinks = np.setdiff1d(labels, leaves)
    return sorted((np.flatnonzero(labels == lab) for lab in sinks), key=lambda idx: idx[0])


def test_sinks_match_scipy_strong_components(pops, monkeypatch):
    sweeps = []
    search = oracle.search_layers

    def traced(moves, steps, bits, starts, label, free, to):
        sweeps.append((free, to))
        return search(moves, steps, bits, starts, label, free, to)

    monkeypatch.setattr(oracle, "search_layers", traced)
    corpus = [pops["ex1"], *sample_populations(seed=1000, count=200)]
    for pop in corpus:
        g = build_transition_digraph(pop, max_states=2_000_000)
        got, want = minimal_invariant_sets(g), _reference_sinks(g)
        assert [r.indices.tolist() for r in got] == [w.tolist() for w in want]
        assert [r.is_singleton for r in got] == [w.size == 1 for w in want]
    # each forward closure F is followed by one backward search per pivot;
    # a second one means the first pivot's ancestors did not cover F
    closures = [i for i, sweep in enumerate(sweeps) if sweep == (oracle._FREE, oracle._OPEN)]
    pivots = [sweeps[i + 1 :].index((oracle._FREE, oracle._DONE)) for i in closures]
    assert max(pivots) > 1


def test_scc_call_does_not_copy_the_graph(pops):
    # indices (4 bytes per edge) plus indptr, labels and scipy's per-state
    # work arrays; a float64 copy of the data adds 8 bytes per edge
    g = build_transition_digraph(pops["ex1"], max_states=2_000_000)
    tracemalloc.start()
    try:
        g.scc_labels()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * g.n_edges + 32 * g.n_states


def test_sink_search_allocates_a_few_bytes_per_state(pops):
    # the reversed moves (2 bytes per state here), one label byte per state
    # and the search layers; a CSR copy of the graph would take 4 bytes per edge
    g = build_transition_digraph(pops["ex1"], max_states=2_000_000)
    tracemalloc.start()
    try:
        minimal_invariant_sets(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * g.n_states


def test_is_equilibrium_examples(pops, graphs):
    pop, g = pops["ex1"], graphs("ex1")
    assert is_equilibrium_oracle(g, pop.state(0, 9, 0, 0, 0, 15))
    all_coop = pop.state(20, 9, 20, 10, 1, 15)
    assert not is_equilibrium_oracle(g, all_coop)


def test_witness_successor_breaks_equilibrium(pops, graphs):
    # a state where an imitator strictly prefers to switch cannot be fixed
    pop, g = pops["ex2"], graphs("ex2")
    state = pop.state(13, 9, 0, 0, 0, 0)  # top earners cooperate, one imitator defects
    assert not is_equilibrium_oracle(g, state)


def test_stability_oracle_ex2(pops, graphs):
    assert not is_stable_oracle(graphs("ex2"), pops["ex2"].state(14, 9, 0, 0, 0, 0))


def test_stability_oracle_rejects_non_equilibrium(pops, graphs):
    with pytest.raises(NotAnEquilibrium):
        is_stable_oracle(graphs("ex2"), State(0, (0, 0), (0, 0, 0)))


def test_stability_special_case_all_defect():
    # one coordinating type with temper above 1: all-defect is stable
    pop = validate_population(
        {"coordinating": [{"uC": UtilityLine(1, 0), "uD": UtilityLine(0, "3/2"),
                           "bestResponders": 3, "imitators": 1}]}
    )
    g = build_transition_digraph(pop)
    assert is_stable_oracle(g, State(0, (), (0,)))


def test_stability_oracle_ex7_1(pops):
    pop = pops["ex7_1"]
    g = build_transition_digraph(pop)
    assert is_stable_oracle(g, pop.state(0, 1, 0))  # pooled (xI, xa, xc)


def test_reachable_set_from_equilibrium(pops, graphs):
    pop, g = pops["ex1"], graphs("ex1")
    eq = pop.state(0, 9, 0, 0, 0, 15)
    closure = reachable_set(g, eq)
    assert closure.pooled_states() == frozenset({eq})


def test_reachable_set_ex2_covers_both_outcomes(pops, graphs):
    pop, g = pops["ex2"], graphs("ex2")
    closure = reachable_set(g, State(0, (0, 0), (0, 0, 0)))
    assert pop.state(14, 9, 0, 0, 0, 0) in closure
    fluctuation = next(s for s in minimal_invariant_sets(g) if not s.is_singleton)
    assert all(st in closure for st in fluctuation.states)


def test_minimal_invariant_sets_ex7_2(pops, graphs):
    g = graphs("ex7_2")
    sets_ = minimal_invariant_sets(g)
    singles = [s for s in sets_ if s.is_singleton]
    multis = [s for s in sets_ if not s.is_singleton]
    assert len(singles) == 4 and len(multis) == 1
    assert multis[0].states == frozenset({State(4, (0,), (0,)), State(4, (1,), (0,))})
    assert multis[0].cooperator_bounds == (4, 5)


def test_minimal_invariant_sets_ex3(pops, graphs):
    sets_ = minimal_invariant_sets(graphs("ex3"))
    assert all(not s.is_singleton for s in sets_)


def test_adjacency_export_format():
    pop = validate_population(
        {"coordinating": [{"uC": UtilityLine(1, 0), "uD": UtilityLine(0, "1/2"),
                           "bestResponders": 1}]}
    )
    g = build_transition_digraph(pop)
    out = io.StringIO()
    export_adjacency(g, out)
    lines = out.getvalue().strip().split("\n")
    assert len(lines) == 2
    index, succs = lines[0].split(":")
    assert index == "0" and succs.strip()


def _export_adjacency_reference(graph, stream):
    """The per-row writer: each row's successor set, sorted and joined."""
    for i in range(graph.n_states):
        succ = graph.successors(i)
        stream.write(f"{i}: {' '.join(str(s) for s in succ)}\n")


def _adjacency_texts(graph):
    fast, slow = io.StringIO(), io.StringIO()
    export_adjacency(graph, fast)
    _export_adjacency_reference(graph, slow)
    return fast.getvalue(), slow.getvalue()


def test_adjacency_export_matches_row_writer_randomized(monkeypatch):
    # a few rows per block, so that rows meet block boundaries
    monkeypatch.setattr(oracle, "_EXPORT_ROWS", 7)
    pops = list(sample_populations(seed=67, count=25))
    pops.append(with_empty_best_responder_cell(pops[0]))
    for pop in pops:
        g = build_transition_digraph(pop, max_states=200_000)
        fast, slow = _adjacency_texts(g)
        assert fast == slow
    # rows without successors: drop the self-loop of every state without edges
    g.self_loop = g.self_loop & (g.moves > 0)
    assert not g.self_loop.all()
    fast, slow = _adjacency_texts(g)
    assert fast == slow
    assert any(line.endswith(": ") for line in fast.split("\n"))


def test_self_loop_iff_someone_keeps(graphs):
    for g in (graphs("ex7_1"), build_transition_digraph(_tied_population())):
        space = g.space
        for i in range(g.n_states):
            coords = space.coords_of(i)
            keeps = False
            for k, cap in enumerate(space.caps):
                if coords[k] > 0 and reference_next(space, coords, k, "C") == "C":
                    keeps = True
                if coords[k] < cap and reference_next(space, coords, k, "D") == "D":
                    keeps = True
            assert bool(g.self_loop[i]) == keeps
