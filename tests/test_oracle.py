import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import breadth_first_order

from genpop import (reference_next, reference_step, reference_sups, sample_populations,
                    with_empty_best_responder_cell)
from popdyn import oracle
from popdyn.cells import IMITATOR, CellSpace
from popdyn.dynamics import AgentRef, step
from popdyn.equilibria import enumerate_equilibria
from popdyn.errors import NoSuchAgent, NotAnEquilibrium, StateSpaceTooLarge
from popdyn.model import (
    ANTICOORDINATING,
    State,
    UtilityLine,
    validate_population,
)
from popdyn.oracle import (
    build_transition_digraph,
    export_adjacency,
    is_equilibrium_oracle,
    is_stable_oracle,
    minimal_invariant_sets,
    reachable_set,
)


def test_ex7_2_has_72_nodes(graphs):
    assert graphs("ex7_2").n_states == 72


def _moves_digest(g):
    """SHA-256 of the move bitmask and the self-loop flags derived from it."""
    return hashlib.sha256(g.moves.tobytes() + g.self_loops(0, g.n_states).tobytes()).hexdigest()


# `_moves_digest` per fixture
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
    assert _moves_digest(graphs(name)) == MOVES_DIGESTS[name]


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


def test_guard_ignores_the_environment(pops, monkeypatch):
    # the guard is the max_states argument, else 10^6; POPDYN_MAX_STATES is not read
    for env in ("10", "abc"):
        monkeypatch.setenv("POPDYN_MAX_STATES", env)
        assert build_transition_digraph(pops["ex7_1"]).n_states == 72
        with pytest.raises(StateSpaceTooLarge, match="guard of 1000000;"):
            build_transition_digraph(pops["ex1"])
    for guard in (71, 0, -5):
        with pytest.raises(StateSpaceTooLarge, match=f"guard of {guard};"):
            build_transition_digraph(pops["ex7_1"], max_states=guard)


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
        space, loops = g.space, g.self_loops(0, g.n_states)
        for i in range(g.n_states):
            coords = space.coords_of(i)
            expected = _reference_successors(space, coords)
            assert g.successors(i) == sorted(space.index_of(c) for c in expected)
            assert bool(loops[i]) == (coords in expected)
            sup_c, sup_d = reference_sups(space, coords)
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


@pytest.mark.parametrize("chunk", [1, 64, 4096])
def test_build_in_small_blocks_matches_the_kernel_per_state(pops, monkeypatch, chunk):
    # every size gives some population an outer prefix (at 4096 through the
    # key space of a 576-state one); at 1 every inner suffix is one cell, a
    # cap-0 cell in the population with an empty cell
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    for name in ("ex7_1", "ex7_2", "ex7_3", "ex7_4"):
        g = build_transition_digraph(pops[name])
        assert _moves_digest(g) == MOVES_DIGESTS[name]
    splits = []
    for pop in _route_pops():
        g = build_transition_digraph(pop, max_states=200_000)
        moves = g.space.moves(list(g.coords))
        assert (g.moves == moves).all()
        assert g.n_edges == int(np.bitwise_count(moves).sum())
        splits.append((oracle._inner_split(g.space.caps), len(g.space.caps)))
    assert any(split for split, _ in splits)
    assert all(split == cells - 1 for split, cells in splits) == (chunk == 1)


@pytest.mark.parametrize("members, types", [(1, 14), (2, 11)])
def test_build_bounds_the_key_space(members, types):
    # 14 one-agent cells: 16,384 states and 15 * 3^14 keys if every cell took
    # three pattern codes; 11 two-agent cells: 177,147 states and 23 * 3^11
    # keys in one block
    pop = validate_population({
        "anticoordinating": [],
        "coordinating": [{"uC": UtilityLine(1, f"-{2 * t + 1}/2"), "uD": UtilityLine(0, 0),
                          "bestResponders": members} for t in range(types)],
    })
    tracemalloc.start()
    try:
        g = build_transition_digraph(pop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n_states == (members + 1) ** types
    assert (g.moves == g.space.moves(list(g.coords))).all()
    assert peak <= 4 << 20


def test_ex1_build_runs_the_kernel_once_per_state_class(pops, monkeypatch):
    rows = []
    kernel = CellSpace.moves

    def counted(self, coords):
        rows.append(len(coords[0]))
        return kernel(self, coords)

    monkeypatch.setattr(CellSpace, "moves", counted)
    tracemalloc.start()
    try:
        g = build_transition_digraph(pops["ex1"], max_states=2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one row per state would be 1,552,320
    assert g.n_states == 1_552_320 and sum(rows) <= 60_000
    assert peak <= 16 << 20


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


@pytest.mark.parametrize("block", [7, 64])
def test_reverse_moves_in_small_blocks_match_the_transpose(monkeypatch, block):
    # the CSR fill and the reversed moves both run in blocks of `_BLOCK` states
    monkeypatch.setattr(oracle, "_BLOCK", block)
    for pop in _route_pops()[::3]:
        g = build_transition_digraph(pop, max_states=200_000)
        t = g.matrix.T.tocsr()
        flipped = g.reverse_moves
        for o in range(g.n_states):
            preds = o - g.steps[(flipped[o] & g.bits) != 0]
            assert sorted(preds.tolist()) == t.indices[t.indptr[o] : t.indptr[o + 1]].tolist()


def _reference_sinks(g):
    """Sink SCCs from scipy's strong components of the CSR matrix, by smallest state."""
    labels = g.scc_labels()
    matrix = g.matrix
    src = np.repeat(np.arange(g.n_states), np.diff(matrix.indptr))
    leaves = labels[src][labels[src] != labels[matrix.indices]]
    sinks = np.setdiff1d(labels, leaves)
    return sorted((np.flatnonzero(labels == lab) for lab in sinks), key=lambda idx: idx[0])


def test_sinks_match_scipy_strong_components(pops, monkeypatch):
    # the number of pivots taken after each closure F, traced over the
    # closures' forward searches and the narrowing's ancestor searches
    pivots = []
    search, ancestors = oracle.search_layers, oracle._free_ancestors

    def traced_search(moves, steps, bits, starts, label, free, to):
        if (free, to) == (oracle._FREE, oracle._OPEN):
            pivots.append(0)
        return search(moves, steps, bits, starts, label, free, to)

    def traced_ancestors(graph, v, label):
        pivots[-1] += 1
        return ancestors(graph, v, label)

    monkeypatch.setattr(oracle, "search_layers", traced_search)
    monkeypatch.setattr(oracle, "_free_ancestors", traced_ancestors)
    corpus = [pops["ex1"], *sample_populations(seed=1000, count=200)]
    unwalked_pivots = []
    for pop in corpus:
        g = build_transition_digraph(pop, max_states=2_000_000)
        got, want = minimal_invariant_sets(g), _reference_sinks(g)
        assert [r.indices.tolist() for r in got] == [w.tolist() for w in want]
        assert [r.is_singleton for r in got] == [w.size == 1 for w in want]
        # without the walk each closure F is all that its start reaches, so
        # the narrowing gets large closed sets that hold transient states
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_walk", lambda graph, start: [start])
            pivots.clear()
            unwalked = sorted(oracle._sinks(g), key=lambda s: int(s[0]))
        assert [s.tolist() for s in unwalked] == [w.tolist() for w in want]
        unwalked_pivots += pivots
    # a second pivot means the first pivot's ancestors did not cover F
    assert max(unwalked_pivots) > 1


def test_sinks_skip_starts_that_reach_a_found_sink():
    # 4,608 states and one 19-state sink. Without the found-sink check some
    # start's closure runs into the sink found before, and the narrowing of
    # that open set reports a set that is not a sink
    pop = list(sample_populations(23, 80, max_agents=40, max_types=4))[66]
    g = build_transition_digraph(pop)
    want = _reference_sinks(g)
    assert g.n_states == 4608 and [w.size for w in want] == [19]
    assert [r.indices.tolist() for r in minimal_invariant_sets(g)] == [w.tolist() for w in want]


def _brute_force_cycles(g):
    """The states on the cycles of the chosen-move map, following the map
    from every state until a state repeats. The chosen move leads to the
    largest successor other than the state itself."""
    image = [max((j for j in g.successors(i) if j != i), default=i) for i in range(g.n_states)]
    status = [0] * g.n_states  # 0 unvisited, 1 on the current path, 2 done
    cycles = set()
    for state in range(g.n_states):
        path = []
        while status[state] == 0:
            status[state] = 1
            path.append(state)
            state = image[state]
        if status[state] == 1:
            cycles.update(path[path.index(state) :])
        for visited in path:
            status[visited] = 2
    return sorted(cycles)


def test_choice_cycles_match_brute_force(pops):
    corpus = list(sample_populations(seed=77, count=40))
    corpus += [with_empty_best_responder_cell(corpus[0]), pops["ex7_2"], pops["ex7_4"]]
    without_moves = 0
    for pop in corpus:
        g = build_transition_digraph(pop, max_states=200_000)
        assert oracle._choice_cycles(g).tolist() == _brute_force_cycles(g)
        without_moves += int((g.moves == 0).any())
    assert without_moves


@pytest.mark.parametrize("name, cycles", [("ex1", 26), ("ex2", 3), ("ex3", 2)])
def test_choice_cycles_are_few_on_the_fixtures(graphs, name, cycles):
    assert oracle._choice_cycles(graphs(name)).size == cycles


# the sink search's walks per fixture
WALKS = {"ex1": 25, "ex2": 2, "ex3": 1}


@pytest.mark.parametrize("name, sink_size", [("ex1", 2), ("ex2", 1), ("ex3", 1427)])
def test_walk_ends_in_a_sink(graphs, monkeypatch, name, sink_size):
    g = graphs(name)
    path = oracle._walk(g, 0)
    assert all(j in g.successors(i) for i, j in zip(path, path[1:]))
    closure = np.flatnonzero(oracle.frontier_search(g, path[-1:]))
    assert closure.size == sink_size
    assert any(np.array_equal(closure, s.indices) for s in minimal_invariant_sets(g))
    # the sink search walks only from cycle states of the chosen-move map
    # that lie in no sink found before, and on the fixtures every such walk
    # ends inside a sink
    paths, walk = [], oracle._walk

    def traced(graph, start):
        paths.append(walk(graph, start))
        return paths[-1]

    monkeypatch.setattr(oracle, "_walk", traced)
    sinks = oracle._sinks(g)
    in_sinks = np.concatenate(sinks)
    assert len(paths) == WALKS[name]
    assert np.isin([p[0] for p in paths], oracle._choice_cycles(g)).all()
    assert np.isin([p[-1] for p in paths], in_sinks).all()


def _pooled_distance(graph, eq):
    """Pooled L1 distance of every refined state from eq, from the decoded view."""
    space = graph.space
    dist = np.zeros(graph.n_states, dtype=np.int32)
    imit_total = np.zeros(graph.n_states, dtype=np.int32)
    for cell, column in zip(space.cells, graph.coords):
        if cell.role == IMITATOR:
            imit_total += column
        else:
            target = (
                eq.xa[cell.type_index - 1]
                if cell.kind == ANTICOORDINATING
                else eq.xc[cell.type_index - 1]
            )
            dist += np.abs(column.astype(np.int32) - target)
    dist += np.abs(imit_total - eq.xI)
    return dist


def _is_stable_full_mask(graph, dist):
    """Stability from every state at pooled distance 1, bounded by a mask of
    the states at distance at most 1; `dist` is `_pooled_distance`."""
    starts = np.flatnonzero(dist == 1)
    return not starts.size or oracle.frontier_search(graph, starts, bound=dist <= 1) is not None


def test_stability_matches_full_mask_reference(pops):
    corpus = [pops[name] for name in sorted(pops)]
    corpus += sample_populations(seed=314, count=60)
    corpus.append(with_empty_best_responder_cell(corpus[-1]))
    verdicts = set()
    for pop in corpus:
        g = build_transition_digraph(pop, max_states=20_000_000)
        states = [rec.state for rec in enumerate_equilibria(pop)]
        got = [is_stable_oracle(g, eq) for eq in states]
        starts = [oracle._stability_starts(g, eq) for eq in states]
        assert "coords" not in g.__dict__
        for eq, verdict, start in zip(states, got, starts):
            dist = _pooled_distance(g, eq)
            assert verdict == _is_stable_full_mask(g, dist)
            assert start.tolist() == np.flatnonzero(dist == 1).tolist()
            verdicts.add(verdict)
    assert verdicts == {True, False}


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
    # one label byte per state, the states without up moves and one block's
    # temporaries: about 1.2 bytes per state on ex1. The reversed moves would
    # add 2 bytes per state here, a CSR copy of the graph 4 bytes per edge
    g = build_transition_digraph(pops["ex1"], max_states=2_000_000)
    tracemalloc.start()
    try:
        minimal_invariant_sets(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * g.n_states
    assert "reverse_moves" not in g.__dict__


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


def test_index_tokens_match_str_across_powers_of_ten():
    # ranges that straddle each power of ten, and the uint16 and uint32 limits
    edges = [10**k for k in range(11)] + [2**16, 2**32]
    for edge in edges:
        lo, hi = max(edge - 37, 0), edge + 37
        size = 8 * -(-(len(str(hi - 1)) + 1) // 8)
        for width in (size, size + 8):
            out = np.full((hi - lo, width), 0xFF, dtype=np.uint8)
            oracle._index_tokens(lo, out)
            expected = "".join(f" {i}".rjust(width, "\0") for i in range(lo, hi))
            assert out.tobytes() == expected.encode("ascii"), (edge, width)


@pytest.mark.parametrize("rows", [1, 5, 11])
def test_adjacency_export_window_slides_across_blocks(monkeypatch, graphs, rows):
    # ex7_1's largest stride (24) exceeds the block, and the window a block
    # needs, twice over, is shorter than the state space: the window moves
    monkeypatch.setattr(oracle, "_EXPORT_ROWS", rows)
    g = graphs("ex7_1")
    reach = int(np.abs(g.steps).max())
    assert rows < reach and 2 * (rows + 2 * reach) < g.n_states + 2 * reach
    fast, slow = _adjacency_texts(g)
    assert fast == slow


def test_self_loop_iff_someone_keeps():
    # over populations with an empty cell and with tied imitators
    for pop in _route_pops():
        g = build_transition_digraph(pop, max_states=200_000)
        space, loops = g.space, g.self_loops(0, g.n_states)
        for i in range(g.n_states):
            coords = space.coords_of(i)
            keeps = False
            for k, cap in enumerate(space.caps):
                if coords[k] > 0 and reference_next(space, coords, k, "C") == "C":
                    keeps = True
                if coords[k] < cap and reference_next(space, coords, k, "D") == "D":
                    keeps = True
            assert bool(loops[i]) == keeps
            assert g.self_loops(i, i + 1)[0] == keeps


def test_the_move_bitmask_is_the_whole_graph(graphs):
    # the kernel returns the bitmask alone, and the graph stores no flags
    g = graphs("ex7_3")
    moves = g.space.moves(list(g.coords))
    assert isinstance(moves, np.ndarray) and moves.dtype == g.space.move_dtype
    assert not hasattr(g, "self_loop")
    assert [k for k, v in vars(g).items() if isinstance(v, np.ndarray) and v.dtype == bool] == []
    # a range's flags are the whole space's flags over that range
    loops = g.self_loops(0, g.n_states)
    for lo, hi in ((0, 1), (7, 52), (44, 90), (89, 90)):
        assert (g.self_loops(lo, hi) == loops[lo:hi]).all()


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(20)
    cases = [np.zeros(0, dtype=np.int64), np.array([7]), np.array([3, 3, 3]),
             rng.integers(-5, 5, size=(4, 6))]
    cases += [rng.integers(0, high, size=size, dtype=dtype)
              for high, size in ((3, 50), (1000, 200), (1 << 40, 500))
              for dtype in (np.int64, np.intp, np.int32) if high < np.iinfo(dtype).max]
    for values in cases:
        expected, got = np.unique(values), oracle.sorted_unique(values)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
