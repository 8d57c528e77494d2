"""Brute-force ground truth: the full one-step transition digraph.

States are refined per (role, type) cell (see `cells`), successors are
materialized exhaustively for every state, and minimal positively invariant
sets fall out as sink strongly-connected components. The update-rule kernel
`CellSpace.moves` reads a state only through its cooperator count and whether
each cell is empty, interior or full, so the build runs it once per such
class of states in each block of states, not once per state, and fills the
block from the class results; desk-scale spaces (about 10^7 states) build in
a fraction of a second.

Every edge moves one cell by one agent, so the build stores the edges as a
per-state move bitmask (`moves`, two bits per cell) and nothing else: a
state has a self-loop exactly when a present (cell, strategy) group's bit is
unset (`TransitionDigraph.self_loops`). Closure of a state set is a check of
each member's moves, and reachability, forwards or backwards, is a numpy
frontier search over the bitmask. The sink components come from such
searches too (`minimal_invariant_sets`), so no graph library is needed. A
state's chosen move, its move of largest step, maps each sink into itself,
so every sink holds a cycle of that map; on ex1 / ex2 / ex3 the cycles hold
26 / 3 / 2 states, found from the states without up moves alone
(`_choice_cycles`). Each search for a sink starts where a short walk from a
cycle state ends (`_walk`), which on the bundled fixtures is inside the sink,
so the search reads about as many states as the sink holds and no search
runs over the whole space. The X and S checks read the moves at their
members (`invariants.is_closed_on_members`), so the graph holds no decoded
view of every state; the decode and the move table are `CellSpace`'s. The
stability search needs no graph: `local` runs the kernel at the states it
visits. The adjacency export lives in `adjacency`, which only `oracle
--adjacency` loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cells import CellSpace
from .errors import StateSpaceTooLarge
from .model import PopulationSpec, State

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

DEFAULT_MAX_STATES = 10**6

# the most states in one block of the build, and the most keys of its state
# classes (see `_inner_split`)
_CHUNK = 1 << 19
# states per block of the passes over every state: the CSR fill, the
# reversed moves and the sink search's scan for states without up moves
_BLOCK = 1 << 16
# labels of the sink search: untouched, in the closed set being narrowed, and
# in a sink already found
_FREE, _OPEN, _DONE = 0, 1, 2
# below this many states a search layer takes every step at once and sorts.
# The largest searches are `verify_oracle`'s, one of them backward over
# every state: on ex3 it takes 0.54-0.57 s at any threshold from 0 to 1 << 13
# and 0.60 s at 1 << 16 (one core, medians of 3)
_SMALL_LAYER = 1 << 11


@dataclass(frozen=True)
class InvariantSetResult:
    """A minimal positively invariant set (sink SCC of the oracle digraph)."""

    indices: np.ndarray
    states: frozenset[State]
    is_singleton: bool
    cooperator_bounds: tuple[int, int]


class TransitionDigraph:
    """Exhaustive successor relation, stored as a per-state move bitmask.

    Bit `bits[j]` of `moves[o]` is the edge o -> o + `steps[j]`, the space's
    move j (`CellSpace.steps`); `n_edges` counts the set bits. It is the
    whole graph: the self-loops (some agent keeps its strategy) are derived
    from it (`self_loops`); they do not affect SCC structure.
    """

    def __init__(self, pop: PopulationSpec, moves: np.ndarray, n_edges: int):
        self.pop = pop
        self.space = space = pop.space
        self.moves = moves
        self.n_edges = n_edges
        self.n_states = space.n_states
        self.steps, self.bits = space.steps, space.bits
        self._labels: np.ndarray | None = None
        self._sink_results: list[InvariantSetResult] | None = None

    # -- basic access -------------------------------------------------------

    def self_loops(self, lo: int, hi: int) -> np.ndarray:
        """Whether each state of range(lo, hi) has a self-loop: fewer of its move
        bits are set than it has present (cell, strategy) groups, two in a cell at
        an interior count and one in an empty or full cell with capacity."""
        present = np.zeros(hi - lo, dtype=np.uint8)
        for k, cap in enumerate(self.space.caps):
            count = np.arange(cap + 1)
            present += self.space.column(k, np.add(count > 0, count < cap, dtype=np.uint8), lo, hi)
        return np.bitwise_count(self.moves[lo:hi]) < present

    def pooled_states_of(self, indices: np.ndarray | Sequence[int]) -> frozenset[State]:
        """The pooled states of refined state indices, one `State` per distinct one.

        The pooled columns are deduplicated before any `State` is built
        (ex3's 1,427-state sink pools to 376 states)."""
        b = self.pop.b
        distinct = set(zip(*self.space.pooled_columns(indices).tolist()))
        return frozenset(State(x, tuple(br[:b]), tuple(br[b:])) for x, *br in distinct)

    @property
    def matrix(self) -> csr_matrix:
        """The switch edges as a scipy CSR matrix, built from `moves` on every access.

        A reference for tests and tracing only: no package code path reads it,
        and scipy is imported here, not by the package. Rows are filled one
        step at a time in ascending order of step (`CellSpace.steps`), so each
        row's indices come out sorted. The data is one read-only float64 1
        broadcast over every edge, which scipy's csgraph routines take without
        a copy.
        """
        from scipy.sparse import csr_matrix

        n = self.n_states
        index_dtype = np.int32 if max(n, self.n_edges) < 2**31 else np.int64
        indptr = np.zeros(n + 1, dtype=index_dtype)
        np.cumsum(np.bitwise_count(self.moves), out=indptr[1:])
        indices = np.empty(self.n_edges, dtype=index_dtype)
        for lo in range(0, n, _BLOCK):
            chunk = self.moves[lo : lo + _BLOCK]
            fill = indptr[lo : lo + len(chunk)].copy()
            for step, bit in zip(self.steps, self.bits):
                rows = np.flatnonzero(chunk & bit)
                at = fill[rows]
                indices[at] = rows + (lo + step)
                fill[rows] = at + 1
        data = np.broadcast_to(np.float64(1), (self.n_edges,))
        return csr_matrix((data, indices, indptr), shape=(n, n))

    def oriented(self, reverse: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (moves, steps, bits) that `search_layers` walks: the successors,
        or with `reverse` the predecessors."""
        if reverse:
            return self.reverse_moves, -self.steps, self.bits
        return self.moves, self.steps, self.bits

    @cached_property
    def reverse_moves(self) -> np.ndarray:
        """The moves of the reversed digraph: bit j of `reverse_moves[o]` is set
        when o - step_j has move j, so o steps by -step_j to a predecessor.

        Filled `_BLOCK` states at a time, every step per block, through one
        reused buffer, so no temporary is as large as `moves`. The sink search
        does not build it (`_free_ancestors`).
        """
        n, moves = self.n_states, self.moves
        flipped = np.zeros_like(moves)
        buffer = np.empty(_BLOCK, dtype=moves.dtype)
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            for step, bit in zip(self.steps.tolist(), self.bits):
                # the states o of the block whose o - step lies in range(n)
                first, stop = max(lo, step), min(hi, n + step)
                if first < stop:
                    part = np.bitwise_and(moves[first - step : stop - step], bit,
                                          out=buffer[: stop - first])
                    flipped[first:stop] |= part
        return flipped

    # -- reachability ---------------------------------------------------------

    def reachable_mask(self, starts: Sequence[int]) -> np.ndarray:
        """Boolean mask of states reachable from any start (starts included)."""
        return frontier_search(self, starts)

    # -- reference condensation -----------------------------------------------

    def scc_labels(self) -> np.ndarray:
        """Strong-component label of every state, from scipy over `matrix`.

        A reference for tests and tracing only; `minimal_invariant_sets` does
        not call it.
        """
        from scipy.sparse.csgraph import connected_components

        if self._labels is None:
            _, self._labels = connected_components(self.matrix, directed=True, connection="strong")
        return self._labels


def sorted_unique(values) -> np.ndarray:
    """The distinct values of an array, sorted: `np.unique` of it, which in
    numpy 2.4 imports `numpy.ma` (about 10-20 ms) on its first call."""
    values = np.sort(values, axis=None)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _sparse_zeros(n: int, dtype) -> np.ndarray:
    """`np.zeros(n, dtype)` for a per-state array that a search writes at few
    states, allocated with numpy's huge-page advice off.

    numpy advises huge pages for arrays of 4 MiB or more, so under the
    `madvise` mode of transparent huge pages each scattered write into such
    an array makes a whole 2 MiB page resident. With the advice on, the sink
    label (8.4 MB on ex3) took the ex3 `oracle` command's peak RSS from 50.3
    to 53.5 MB, and the bounded searches' masks took `oracle --verify` from
    97 to 102 MB. numpy's previous setting is restored.
    """
    advise = np._core.multiarray._set_madvise_hugepage
    previous = advise(False)
    try:
        return np.zeros(n, dtype=dtype)
    finally:
        advise(previous)


def search_layers(moves: np.ndarray, steps: np.ndarray, bits: np.ndarray, starts: np.ndarray,
                  label: np.ndarray, free, to):
    """Breadth-first layers from `starts` over the `moves` bitmask.

    The search enters only states whose `label` is `free` and relabels each
    one `to` as it enters it; `starts` (distinct) are relabelled first. A
    large layer takes the steps one at a time, each into states not yet
    relabelled, so no state is found twice and nothing is sorted. A layer
    below `_SMALL_LAYER` states takes every step at once and drops repeats
    with `sorted_unique`, in fewer numpy calls.
    """
    frontier = starts
    label[frontier] = to
    while frontier.size:
        yield frontier
        here = moves[frontier]
        if frontier.size < _SMALL_LAYER:
            reached = sorted_unique((frontier[:, None] + steps)[(here[:, None] & bits) != 0])
            frontier = reached[label[reached] == free]
            label[frontier] = to
            continue
        found = []
        for step, bit in zip(steps, bits):
            reached = frontier[(here & bit) != 0] + step
            reached = reached[label[reached] == free]
            label[reached] = to
            found.append(reached)
        frontier = np.concatenate(found)


def frontier_search(graph: TransitionDigraph, starts, bound: np.ndarray | None = None,
                    reverse: bool = False) -> np.ndarray | None:
    """Mask of the states reachable from `starts` (included) over the moves.

    With `reverse` the search runs over `graph.reverse_moves`, the
    predecessors. With `bound`, returns None as soon as a state outside it is
    reached.
    """
    # a bounded search, `verify_oracle`'s in each sink, writes few states
    seen = np.zeros(graph.n_states, dtype=bool) if bound is None else _sparse_zeros(graph.n_states, bool)
    starts = sorted_unique(np.asarray(starts, dtype=np.int64))
    for layer in search_layers(*graph.oriented(reverse), starts, seen, False, True):
        if bound is not None and not bound[layer].all():
            return None
    return seen


def build_transition_digraph(pop: PopulationSpec,
                             max_states: int = DEFAULT_MAX_STATES) -> TransitionDigraph:
    """Materialize the multivalued one-step dynamics of the population.

    The kernel reads a state only through its cooperator count and whether
    each cell is empty, interior or full (see `CellSpace.moves`). So the cells
    are split into an outer prefix and an inner suffix (`_inner_split`); the
    states of one block share their outer coords, and two states of a block
    with the same inner cooperator count and inner pattern have the same
    moves. The inner digits are decoded once and keyed; each block runs the
    kernel on one representative per key that occurs, and takes every state's
    moves from its key's representative. A space of more than `max_states`
    refined states is refused before any of this.
    """
    space = pop.space
    check_state_guard(space, max_states)
    n, split = space.n_states, _inner_split(space.caps)
    dtype = np.min_scalar_type(pop.n)
    cls, size, rep_digits = _inner_classes(space, split, dtype)
    block = cls.size
    moves = np.empty(n, dtype=space.move_dtype)
    n_edges = 0
    for lo in range(0, n, block):
        outer = [np.full(size.size, v, dtype=dtype) for v in space.coords_of(lo)[:split]]
        rep_moves = space.moves(outer + rep_digits)
        # every class index is in range; "clip" lets `take` write into `out` unbuffered
        np.take(rep_moves, cls, out=moves[lo : lo + block], mode="clip")
        n_edges += int(np.bitwise_count(rep_moves) @ size)
    return TransitionDigraph(pop, moves, n_edges)


def check_state_guard(space: CellSpace, max_states: int) -> None:
    """Refuse a space of more than `max_states` refined states."""
    if space.n_states > max_states:
        raise StateSpaceTooLarge(
            f"{space.n_states} refined states exceed the guard of {max_states}; raise max_states"
        )


def _inner_classes(space: CellSpace, split: int, dtype) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The classes of one block's states by inner cooperator count and pattern.

    Returns each state's class index (classes in key order), each class's
    size, and the inner cells' digits at one representative per class.
    """
    inner = list(enumerate(space.caps))[split:]
    block = space.strides[split] * (space.caps[split] + 1)
    digits = [space.column(k, np.arange(cap + 1, dtype=dtype), 0, block) for k, cap in inner]
    key = sum(digits, np.zeros(block, dtype=np.int64))
    for k, cap in inner:
        key *= min(cap, 2) + 1
        key += space.column(k, _pattern(cap), 0, block)
    occurs = np.zeros(_key_space(space.caps[split:]), dtype=bool)
    occurs[key] = True
    cls = np.searchsorted(np.flatnonzero(occurs), key)
    size = np.bincount(cls)
    rep = np.empty(size.size, dtype=np.int64)
    rep[cls] = np.arange(block)
    return cls, size, [column[rep] for column in digits]


def _pattern(cap: int) -> np.ndarray:
    """The pattern code of each count 0..cap of a cell: 0 empty, 1 interior,
    2 full; a one-agent cell is empty (0) or full (1)."""
    code = np.ones(cap + 1, dtype=np.int64)
    code[0] = 0
    code[-1] = min(cap, 2)
    return code


def _key_space(caps: Sequence[int]) -> int:
    """The number of (cooperator count, pattern) keys of cells with `caps`."""
    keys = sum(caps) + 1
    for cap in caps:
        keys *= min(cap, 2) + 1
    return keys


def _inner_split(caps: Sequence[int]) -> int:
    """The first inner cell: the longest suffix of cells whose block of states
    and whose key space both hold at most `_CHUNK` entries. The last cell is
    always inner."""
    split = len(caps) - 1
    while split and max(math.prod(c + 1 for c in caps[split - 1 :]),
                        _key_space(caps[split - 1 :])) <= _CHUNK:
        split -= 1
    return split


def minimal_invariant_sets(graph: TransitionDigraph) -> list[InvariantSetResult]:
    """Sink SCCs of the successor digraph, ordered by their smallest state.

    Found from the cycles of the chosen-move map, with a short walk and a
    sink-sized frontier search from each cycle state (see `_sinks`).
    """
    if graph._sink_results is not None:
        return graph._sink_results
    results: list[InvariantSetResult] = []
    for idxs in sorted(_sinks(graph), key=lambda s: int(s[0])):
        states = graph.pooled_states_of(idxs)
        n_cs = [s.n_cooperators for s in states]
        results.append(
            InvariantSetResult(
                indices=idxs,
                states=states,
                is_singleton=len(idxs) == 1,
                cooperator_bounds=(min(n_cs), max(n_cs)),
            )
        )
    graph._sink_results = results
    return results


def _sinks(graph: TransitionDigraph) -> list[np.ndarray]:
    """The sorted members of every sink SCC.

    A sink is closed, so the chosen-move map keeps it inside itself, and it
    holds one of the map's cycles (`_choice_cycles`). Each cycle state not in
    a sink found so far is a start. A `_walk` from it ends at a state whose
    forward closure F over the states outside the found sinks is taken. If
    the walk's end, or a move out of F, lands in a found sink, the start
    reaches that sink, so it lies in no other and is skipped. Otherwise F is
    closed and so holds a sink. A pivot v of F is picked, the deepest in the
    search, and the states of F that reach v are taken out of F; what is left
    is still closed, because nothing in it reaches v. When that empties F,
    every state of the closed set F was reaching v, so each sink inside F
    holds v: v lies in a sink, and the sink is v's forward closure. A start
    inside a sink reaches only that sink, so the sink is the one found from
    it, and every sink is found.
    """
    forward = graph.oriented()
    label = _sparse_zeros(graph.n_states, np.uint8)
    sinks = []
    for start in _choice_cycles(graph).tolist():
        if label[start] == _DONE:
            continue
        end = _walk(graph, start)[-1]
        if label[end] == _DONE:
            continue
        layers = list(search_layers(*forward, np.array([end]), label, _FREE, _OPEN))
        if _lands_on(graph, np.concatenate(layers), label, _DONE):
            for layer in layers:
                label[layer] = _FREE
            continue
        while layers:
            left = layers[-1][label[layers[-1]] == _OPEN]
            if not left.size:
                layers.pop()
                continue
            v = left[-1:]
            _free_ancestors(graph, v, label)
        sinks.append(np.sort(np.concatenate(list(search_layers(*forward, v, label, _FREE, _DONE)))))
    return sinks


def _choice_cycles(graph: TransitionDigraph) -> np.ndarray:
    """The sorted states on the cycles of the chosen-move map.

    A state's chosen move is its move of largest step: the first up move in
    cell order, else the last down move; a state without moves maps to
    itself. Any choice of one move per state keeps each sink inside itself,
    but each cycle state can cost the sink search a walk and a closure: this
    rule leaves 26 / 3 / 2 cycle states on ex1 / ex2 / ex3, where taking each
    state's lowest move bit leaves 5,758 / 186,231 / 410,474.

    Up moves raise the index, so every cycle passes through a top, a state
    without up moves (9,919 / 69,240 / 90,898 of 1.6 / 4.1 / 8.4 million
    states), and only the tops are kept over the search. From each top the
    map makes one move and then climbs by up moves, each adding a
    cooperator, to the next top. The image of this top map taken m or more
    times (m tops; by repeated squaring) is exactly the tops on its cycles,
    and the climbs from them are the rest of the cycles.
    """
    n, moves = graph.n_states, graph.moves
    up = np.bitwise_or.reduce(graph.bits[graph.space.move_up])
    tops = np.concatenate([np.flatnonzero((moves[lo : lo + _BLOCK] & up) == 0) + lo
                           for lo in range(0, n, _BLOCK)])
    after = _chosen(graph, tops)
    climbing = np.flatnonzero(moves[after] & up)
    while climbing.size:
        after[climbing] = _chosen(graph, after[climbing])
        climbing = climbing[(moves[after[climbing]] & up) != 0]
    power, taken = np.searchsorted(tops, after), 1  # the top map, taken `taken` times
    while taken < tops.size:
        power, taken = power[power], 2 * taken
    path = tops[sorted_unique(power)]
    cycles = [path]
    while path.size:
        path = _chosen(graph, path)
        path = path[(moves[path] & up) != 0]
        cycles.append(path)
    return sorted_unique(np.concatenate(cycles))


def _chosen(graph: TransitionDigraph, states: np.ndarray) -> np.ndarray:
    """The chosen-move map (`_choice_cycles`) at `states`."""
    here = graph.moves[states]
    image = states.copy()
    # move j is the chosen one when no move of a larger step is set
    larger = np.bitwise_or.accumulate(graph.bits[::-1])[::-1]
    for step, bit, mask in zip(graph.steps.tolist(), graph.bits, larger):
        image[(here & mask) == bit] += step
    return image


def _lands_on(graph: TransitionDigraph, states: np.ndarray, label: np.ndarray, value) -> bool:
    """Whether a move out of `states` lands on a state labelled `value`."""
    here = graph.moves[states]
    return any((label[states[(here & bit) != 0] + step] == value).any()
               for step, bit in zip(graph.steps.tolist(), graph.bits))


def _free_ancestors(graph: TransitionDigraph, v: np.ndarray, label: np.ndarray) -> None:
    """Relabel `_FREE` the states v and every `_OPEN` state that reaches them
    through `_OPEN` states.

    A predecessor o - step of o is read from `moves` at the candidate: it
    lies in range and has the move of that step. The sets searched are
    sink-sized, so one gather per step beats building `reverse_moves`.
    """
    n = graph.n_states
    frontier = v
    label[frontier] = _FREE
    while frontier.size:
        found = []
        for step, bit in zip(graph.steps.tolist(), graph.bits):
            pred = frontier - step
            pred = pred[(pred >= 0) & (pred < n)]
            pred = pred[label[pred] == _OPEN]
            pred = pred[(graph.moves[pred] & bit) != 0]
            label[pred] = _FREE
            found.append(pred)
        frontier = np.concatenate(found)


def _walk(graph: TransitionDigraph, start: int) -> list[int]:
    """The states of a walk along the moves from `start`, `start` first.

    It takes at most 4 n steps (n agents) and ends early at a state without
    moves. Step i takes the (i mod m)-th of the state's m moves in
    ascending order of step, so the walk is deterministic but does not keep one
    direction: always taking the first move ends, on ex3, at a state that
    still reaches all 3,626,359 states that state 0 reaches, and always
    taking the chosen move (`_choice_cycles`) goes round the start's cycle,
    which on ex1 lies in no sink for 20 of the 26 cycle states. `_sinks`
    walks from those cycle states; on the bundled fixtures every walk ends
    inside a sink, so the closure taken from its end is the sink itself
    (1,427 states on ex3).
    """
    steps, bits = graph.steps.tolist(), graph.bits.tolist()
    path = [int(start)]
    for i in range(4 * graph.pop.n):
        here = int(graph.moves[path[-1]])
        options = [step for step, bit in zip(steps, bits) if here & bit]
        if not options:
            break
        path.append(path[-1] + options[i % len(options)])
    return path


def is_stable_oracle(pop: PopulationSpec, eq: State) -> bool:
    """Whether the equilibrium eq is stable, from the kernel at the states its
    search visits (see `local`, which this loads)."""
    from .local import is_stable_oracle

    return is_stable_oracle(pop, eq)


def export_adjacency(graph: TransitionDigraph, stream) -> None:
    """Write the adjacency list of `graph` to `stream` (see `adjacency`)."""
    from .adjacency import export_adjacency

    export_adjacency(graph, stream)
