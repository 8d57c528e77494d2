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
runs over the whole space. The stability search likewise starts at the
neighbours of the equilibrium and decodes only the states it visits. Only the
stochastic layer and the tests read the decoded views (`coords`, `n_c`),
built once on first use: the X and S checks read the moves at their members
(`invariants.is_closed_on_members`). A row of the adjacency export is its
state's moves in a fixed order, so in a block of rows each successor slot
reads one contiguous range of indices; the export formats each index once
and fills the slots by slice copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .cells import IMITATOR, CellSpace
from .errors import NotAnEquilibrium, StateSpaceTooLarge
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


class ReachableSet:
    """Forward closure of a state; supports membership tests without materializing."""

    def __init__(self, graph: "TransitionDigraph", mask: np.ndarray):
        self.graph = graph
        self.mask = mask

    def __contains__(self, state) -> bool:
        return bool(self.mask[self.graph.indices_of(state)].any())

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def pooled_states(self) -> frozenset[State]:
        return self.graph.pooled_states_of(self.indices)


class TransitionDigraph:
    """Exhaustive successor relation, stored as a per-state move bitmask.

    Bit 2k of `moves[o]` is the edge o -> o - stride_k (cell k loses a
    cooperator), bit 2k+1 the edge o -> o + stride_k; `n_edges` counts the set
    bits. It is the whole graph: the self-loops (some agent keeps its strategy)
    are derived from it (`self_loops`); they do not affect SCC structure.
    """

    def __init__(self, pop: PopulationSpec, space: CellSpace, moves: np.ndarray, n_edges: int):
        self.pop = pop
        self.space = space
        self.moves = moves
        self.n_edges = n_edges
        self.n_states = space.n_states
        self.steps, self.bits = _move_steps(space, moves.dtype)
        self._labels: np.ndarray | None = None
        self._sink_results: list[InvariantSetResult] | None = None

    # -- basic access -------------------------------------------------------

    def successors(self, index: int) -> list[int]:
        succ = (index + self.steps[(self.moves[index] & self.bits) != 0]).tolist()
        if self.self_loops(index, index + 1)[0]:
            succ.append(int(index))
        return sorted(succ)

    def self_loops(self, lo: int, hi: int) -> np.ndarray:
        """Whether each state of range(lo, hi) has a self-loop: fewer of its move
        bits are set than it has present (cell, strategy) groups, two in a cell at
        an interior count and one in an empty or full cell with capacity."""
        present = np.zeros(hi - lo, dtype=np.uint8)
        for cap, stride in zip(self.space.caps, self.space.strides):
            count = np.arange(cap + 1)
            groups = np.add(count > 0, count < cap, dtype=np.uint8)
            present += _digit_column(groups, stride, lo, hi)
        return np.bitwise_count(self.moves[lo:hi]) < present

    def indices_of(self, state) -> list[int]:
        """The refined states of a pooled State, or the one state of refined coords."""
        if isinstance(state, State):
            return [self.space.index_of(c) for c in self.space.splits_of_pooled(state)]
        return [self.space.index_of(self.space.refine(state))]

    def pooled_states_of(self, indices: Iterable[int]) -> frozenset[State]:
        return frozenset(self.space.pooled(self.space.coords_of(int(i))) for i in indices)

    @property
    def matrix(self) -> csr_matrix:
        """The switch edges as a scipy CSR matrix, built from `moves` on every access.

        A reference for tests and tracing only: no package code path reads it,
        and scipy is imported here, not by the package. Rows are filled one
        step at a time in `_move_steps` order, so each row's indices come out
        sorted. The data is one read-only float64 1 broadcast over every edge,
        which scipy's csgraph routines take without a copy.
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

    # -- decoded views, built on first use -----------------------------------

    @cached_property
    def coords(self) -> np.ndarray:
        """(cells, states) table of cooperator counts; row k is cell k's column."""
        space = self.space
        dtype = np.min_scalar_type(max(space.caps))
        table = np.empty((len(space.cells), self.n_states), dtype=dtype)
        for k, (cap, stride) in enumerate(zip(space.caps, space.strides)):
            table[k] = _digit_column(np.arange(cap + 1, dtype=dtype), stride, 0, self.n_states)
        return table

    @cached_property
    def n_c(self) -> np.ndarray:
        """Number of cooperators at each state."""
        return self.coords.sum(axis=0, dtype=np.min_scalar_type(self.pop.n))

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


def _digit_column(values: np.ndarray, stride: int, lo: int, hi: int) -> np.ndarray:
    """`values[(i // stride) % len(values)]` for i in range(lo, hi): a cell's
    digit, or a function of it, on runs of `stride` states (the end runs cut)."""
    first, stop = lo // stride, -(-hi // stride)
    digits = np.tile(np.roll(values, -first), -(-(stop - first) // values.size))[: stop - first]
    if lo % stride == 0 and hi % stride == 0:  # whole runs only
        return np.repeat(digits, stride)
    runs = np.full(digits.size, stride)
    runs[0] -= lo - first * stride
    runs[-1] -= stop * stride - hi
    return np.repeat(digits, runs)


def _move_steps(space: CellSpace, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Every possible edge step (dst - src) in ascending order, with its `moves` bit.

    The steps are -stride_0 < ... < -stride_K < stride_K < ... < stride_0 over
    the cells k that have capacity.
    """
    live = [k for k, cap in enumerate(space.caps) if cap]
    steps = [-space.strides[k] for k in live] + [space.strides[k] for k in reversed(live)]
    bits = [1 << 2 * k for k in live] + [1 << 2 * k + 1 for k in reversed(live)]
    return np.array(steps, dtype=np.int64), np.array(bits, dtype=dtype)


def sorted_unique(values) -> np.ndarray:
    """The distinct values of an array, sorted: `np.unique` of it, which in
    numpy 2.4 imports `numpy.ma` (about 10-20 ms) on its first call."""
    values = np.sort(values, axis=None)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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
    seen = np.zeros(graph.n_states, dtype=bool)
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
    moves from its key's representative.
    """
    space = CellSpace(pop)
    if space.n_states > max_states:
        raise StateSpaceTooLarge(
            f"{space.n_states} refined states exceed the guard of {max_states}; raise max_states"
        )

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
    return TransitionDigraph(pop, space, moves, n_edges)


def _inner_classes(space: CellSpace, split: int, dtype) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The classes of one block's states by inner cooperator count and pattern.

    Returns each state's class index (classes in key order), each class's
    size, and the inner cells' digits at one representative per class.
    """
    inner = list(zip(space.caps[split:], space.strides[split:]))
    block = space.strides[split] * (space.caps[split] + 1)
    digits = [_digit_column(np.arange(cap + 1, dtype=dtype), stride, 0, block) for cap, stride in inner]
    key = sum(digits, np.zeros(block, dtype=np.int64))
    for cap, stride in inner:
        key *= min(cap, 2) + 1
        key += _digit_column(_pattern(cap), stride, 0, block)
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
    label = np.zeros(graph.n_states, dtype=np.uint8)
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
    up = np.bitwise_or.reduce(graph.bits[graph.steps > 0])
    tops = np.concatenate([np.flatnonzero((moves[lo : lo + _BLOCK] & up) == 0) + lo
                           for lo in range(0, n, _BLOCK)])
    after = _chosen(graph, tops)
    climbing = np.flatnonzero(moves[after] & up)
    while climbing.size:
        after[climbing] = _chosen(graph, after[climbing])
        climbing = climbing[(moves[after[climbing]] & up) != 0]
    power = np.searchsorted(tops, after)
    for _ in range(tops.size.bit_length()):
        power = power[power]
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
    `_move_steps` order, so the walk is deterministic but does not keep one
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


def is_equilibrium_oracle(graph: TransitionDigraph, state) -> bool:
    """True iff every refined representative has itself as only successor."""
    return not graph.moves[graph.indices_of(state)].any()


def is_stable_oracle(graph: TransitionDigraph, eq: State) -> bool:
    """Discrete stability: no trajectory from pooled distance 1 ever exceeds it.

    The search starts at the states at pooled distance 1 (`_stability_starts`)
    and decodes only the states of each layer it visits, so it costs what the
    ball around eq holds, not the whole state space.
    """
    if not is_equilibrium_oracle(graph, eq):
        raise NotAnEquilibrium(f"{eq} is not an equilibrium")
    split = next(graph.space.splits_of_pooled(eq))
    seen = np.zeros(graph.n_states, dtype=bool)
    for layer in search_layers(*graph.oriented(), _stability_starts(graph, eq), seen, False, True):
        if (_distance_from(graph.space, split, layer) > 1).any():
            return False
    return True


def _stability_starts(graph: TransitionDigraph, eq: State) -> np.ndarray:
    """The states at pooled distance 1 from eq, sorted: the grid neighbours
    (one cell one agent off, within its capacity) of eq's refined splits.

    Such a neighbour has one best responder's count off its target or the
    imitator total off by one, so it lies at distance 1; and every state at
    distance 1 is one such move away from a split.
    """
    space = graph.space
    splits = np.array(graph.indices_of(eq), dtype=np.int64)
    starts = []
    for cap, stride in zip(space.caps, space.strides):
        digit = splits // stride % (cap + 1)
        starts += [splits[digit > 0] - stride, splits[digit < cap] + stride]
    return sorted_unique(np.concatenate(starts))


def _distance_from(space: CellSpace, split: Sequence[int], indices: np.ndarray) -> np.ndarray:
    """Pooled L1 distance of the states `indices` from the pooled state of the
    refined coords `split`, read off their digits."""
    dist = np.zeros(indices.size, dtype=np.int64)
    imitated = np.zeros(indices.size, dtype=np.int64)
    for cell, value, cap, stride in zip(space.cells, split, space.caps, space.strides):
        digit = indices // stride % (cap + 1)
        if cell.role == IMITATOR:
            imitated += digit - value
        else:
            dist += np.abs(digit - value)
    return dist + np.abs(imitated)


def reachable_set(graph: TransitionDigraph, from_state) -> ReachableSet:
    """Forward closure (including the start states themselves)."""
    return ReachableSet(graph, graph.reachable_mask(graph.indices_of(from_state)))


# rows per block of the export. On ex1 (2 vCPUs) 2^12 to 2^13 rows are the
# fastest, and a block of 2^15 rows was 20% slower and held 13 MB
_EXPORT_ROWS = 1 << 13


@cache
def _digit_groups() -> np.ndarray:
    """The ASCII digits of 0..9999, zero-padded, one uint32 word each; built
    on first use."""
    table = np.empty((10_000, 4), dtype=np.uint8)
    rest = np.arange(10_000, dtype=np.uint16)
    for col in range(3, -1, -1):
        rest, digit = np.divmod(rest, 10)
        table[:, col] = digit + ord("0")
    words = table.view(np.uint32)[:, 0]
    words.flags.writeable = False
    return words


def _digit_runs(lo: int, hi: int):
    """(start, stop, digits) for each run of indices in range(lo, hi) that
    have the same number of digits."""
    for d in range(len(str(lo)), len(str(hi - 1)) + 1):
        yield max(lo, 10 ** (d - 1) if d > 1 else 0), min(hi, 10**d), d


def _index_tokens(lo: int, out: np.ndarray) -> None:
    """Fill row r of `out` (uint8, one row per index) with the token `" " +
    str(lo + r)`, right-aligned and NUL-padded on the left.

    A row's width must be a multiple of 4 and longer than the largest index's
    digits. The digits come four at a time from `_digit_groups`; the zeros
    before the leading digit are then blanked per run of equal digit counts.
    """
    hi = lo + len(out)
    size = out.shape[1]
    groups = out.view(np.uint32)[:, ::-1]  # the last four digits first
    rest = np.arange(lo, hi, dtype=np.promote_types(np.min_scalar_type(hi - 1), np.uint16))
    for col in range(-(-len(str(hi - 1)) // 4)):
        rest, group = np.divmod(rest, 10_000)
        groups[:, col] = _digit_groups()[group]
    for a, b, d in _digit_runs(lo, hi):
        out[a - lo : b - lo, : size - d] = 0
        out[a - lo : b - lo, size - d - 1] = ord(" ")


def export_adjacency(graph: TransitionDigraph, stream) -> None:
    """Write `index: succ1 succ2 ...` lines (self-loop listed when present, see
    `TransitionDigraph.self_loops`).

    A state's successors are itself and its moves, so a row lists them in the
    order of `_move_steps` with the state in the middle, and in a block of
    rows [lo, hi) successor slot j holds the indices [lo + offset_j, hi +
    offset_j). Each index is formatted once, as the token `" " + digits`
    right-aligned in whole uint64 words and NUL-padded on the left, into a
    window over [lo - reach, hi + reach) that slides with the blocks (reach
    is the largest stride). A block of `_EXPORT_ROWS` rows is one word array:
    a label (`digits + ":"`), one slice copy of the window per slot, and a
    newline token. The tokens that the moves and self-loops keep are selected
    whole, and the padding is dropped in one pass.
    """
    n, steps, bits = graph.n_states, graph.steps, graph.bits
    mid = len(steps) // 2
    # the successor slots: the moves in ascending order, the state itself in the middle
    offsets = np.insert(steps, mid, 0).tolist()
    slot_bits = np.insert(bits, mid, 0)
    reach = max((abs(s) for s in offsets), default=0)
    words = -(-(len(str(n - 1)) + 1) // 8)
    size = 8 * words
    block = min(_EXPORT_ROWS, n)
    # twice the span a block reads, so the window moves back to the front of
    # the buffer at most once every span / block blocks
    span = block + 2 * reach
    window = np.zeros((min(2 * span, n + 2 * reach), words), dtype=np.uint64)
    chars = window.view(np.uint8)
    first, done = -reach, 0  # the index at window[0], and the first index not yet formatted

    newline = np.zeros(size, dtype=np.uint8)
    newline[-1] = ord("\n")
    newline = newline.view(np.uint64)
    # a row's tokens: its label, its successors in ascending order, a newline
    table = np.empty((block, len(offsets) + 2, words), dtype=np.uint64)
    keep = np.ones((block, len(offsets) + 2), dtype=bool)  # label and newline always
    ahead = 8 * _EXPORT_ROWS  # rows per `self_loops` call, which costs mostly per cell, not per row
    for lo in range(0, n, _EXPORT_ROWS):
        hi = min(lo + _EXPORT_ROWS, n)
        rows = hi - lo
        if lo % ahead == 0:
            loops_ahead = graph.self_loops(lo, min(lo + ahead, n))
        if hi + reach - first > len(window):
            start = lo - reach
            window[: done - start] = window[start - first : done - first]
            first = start
        stop = min(hi + reach, n)
        if stop > done:
            _index_tokens(done, chars[done - first : stop - first])
            done = stop

        for slot, offset in enumerate(offsets, 1):
            table[:rows, slot] = window[lo + offset - first : hi + offset - first]
        # the row's own token one byte to the left, ":" after it, its space blanked
        label = table[:rows, 0].view(np.uint8)
        label[:, :-1] = chars[lo - first : hi - first, 1:]
        label[:, -1] = ord(":")
        for a, b, d in _digit_runs(lo, hi):
            label[a - lo : b - lo, : size - 1 - d] = 0
        here, loops = graph.moves[lo:hi], loops_ahead[lo % ahead : lo % ahead + rows]
        np.not_equal(here[:, None] & slot_bits, 0, out=keep[:rows, 1:-1])
        keep[:rows, mid + 1] = loops
        table[:rows, -1] = newline
        kept = np.compress(keep[:rows].ravel(), table[:rows].reshape(-1, words), axis=0)
        stream.write(kept.tobytes().translate(None, b"\0").decode("ascii"))
