"""Brute-force ground truth: the full one-step transition digraph.

States are refined per (role, type) cell (see `cells`), successors are
materialized exhaustively by deciding every state's moves with the update-rule
kernel `CellSpace.moves`, one chunk of states per call, and minimal positively
invariant sets fall out as sink strongly-connected components.
Construction is vectorized and chunked so desk-scale spaces (about 10^7
states) stay within a few hundred MB.

Every edge moves one cell by one agent, so the build stores the edges as a
per-state move bitmask (`moves`, two bits per cell). Closure of a state set is
a check of each member's moves, a row of the adjacency export is its state's
moves in a fixed order, and reachability, forwards or backwards, is a numpy
frontier search over the bitmask. The sink components come from such searches
too (`minimal_invariant_sets`), so no graph library is needed. The
cross-checks read decoded views (`coords`, `n_c`) built once on first use,
never by the build or the sink search.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .cells import IMITATOR, CellSpace
from .errors import NotAnEquilibrium, StateSpaceTooLarge
from .model import ANTICOORDINATING, PopulationSpec, State

DEFAULT_MAX_STATES = 10**6
MAX_STATES_ENV = "POPDYN_MAX_STATES"

_CHUNK = 1 << 19
_CSR_ROWS = 1 << 16
# labels of the sink search: untouched, in the closed set being narrowed, and
# known to reach a sink already found
_FREE, _OPEN, _DONE = 0, 1, 2
# below this many states a search layer takes every step at once and sorts:
# the ex3 sink search then takes 1.3-1.5 s (2.1 s without, 1.9 s at 1 << 14)
_SMALL_LAYER = 1 << 11


def resolve_max_states(max_states: int | None = None) -> int:
    """The state guard: `max_states`, else `MAX_STATES_ENV`, else the default;
    ValueError unless it is a positive integer."""
    if max_states is None:
        max_states = os.environ.get(MAX_STATES_ENV) or DEFAULT_MAX_STATES
    if not str(max_states).isdecimal() or int(max_states) < 1:
        raise ValueError(f"the state guard must be a positive integer, not {max_states!r}")
    return int(max_states)


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

    def __len__(self) -> int:
        return int(self.mask.sum())


class TransitionDigraph:
    """Exhaustive successor relation, stored as a per-state move bitmask.

    Bit 2k of `moves[o]` is the edge o -> o - stride_k (cell k loses a
    cooperator), bit 2k+1 the edge o -> o + stride_k; `n_edges` counts the set
    bits. Self-loops (some agent keeps her strategy) are tracked in a separate
    boolean array; they do not affect SCC structure.
    """

    def __init__(self, pop: PopulationSpec, space: CellSpace, moves: np.ndarray,
                 self_loop: np.ndarray, n_edges: int):
        self.pop = pop
        self.space = space
        self.moves = moves
        self.self_loop = self_loop
        self.n_edges = n_edges
        self.n_states = space.n_states
        self.steps, self.bits = _move_steps(space, moves.dtype)
        self._labels: np.ndarray | None = None
        self._sink_results: list[InvariantSetResult] | None = None

    # -- basic access -------------------------------------------------------

    def successors(self, index: int) -> list[int]:
        succ = (index + self.steps[(self.moves[index] & self.bits) != 0]).tolist()
        if self.self_loop[index]:
            succ.append(int(index))
        return sorted(succ)

    def indices_of(self, state) -> list[int]:
        """The refined states of a pooled State, or the one state of refined coords."""
        if isinstance(state, State):
            return [self.space.index_of(c) for c in self.space.splits_of_pooled(state)]
        return [self.space.index_of(self.space.refine(state))]

    def pooled_states_of(self, indices: Iterable[int]) -> frozenset[State]:
        return frozenset(self.space.pooled(self.space.coords_of(int(i))) for i in indices)

    @property
    def matrix(self) -> "csr_matrix":
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
        for lo in range(0, n, _CSR_ROWS):
            chunk = self.moves[lo : lo + _CSR_ROWS]
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
        when o - step_j has move j, so o steps by -step_j to a predecessor."""
        n, moves = self.n_states, self.moves
        flipped = np.zeros_like(moves)
        for step, bit in zip(self.steps.tolist(), self.bits):
            src, dst = _shifted(n, step)
            flipped[dst] |= moves[src] & bit
        return flipped

    # -- decoded views, built on first use -----------------------------------

    @cached_property
    def coords(self) -> np.ndarray:
        """(cells, states) table of cooperator counts; row k is cell k's column."""
        space = self.space
        dtype = np.min_scalar_type(max(space.caps))
        table = np.empty((len(space.cells), self.n_states), dtype=dtype)
        for k, (cap, stride) in enumerate(zip(space.caps, space.strides)):
            digit = np.repeat(np.arange(cap + 1, dtype=dtype), stride)
            table[k] = np.tile(digit, self.n_states // digit.size)
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


def _move_steps(space: CellSpace, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Every possible edge step (dst - src) in ascending order, with its `moves` bit.

    The steps are -stride_0 < ... < -stride_K < stride_K < ... < stride_0 over
    the cells k that have capacity.
    """
    live = [k for k, cap in enumerate(space.caps) if cap]
    steps = [-space.strides[k] for k in live] + [space.strides[k] for k in reversed(live)]
    bits = [1 << 2 * k for k in live] + [1 << 2 * k + 1 for k in reversed(live)]
    return np.array(steps, dtype=np.int64), np.array(bits, dtype=dtype)


def _shifted(n: int, step: int) -> tuple[slice, slice]:
    """Slices (src, dst) of the states o and o + step that both lie in range(n)."""
    if step > 0:
        return slice(0, n - step), slice(step, n)
    return slice(-step, n), slice(0, n + step)


def search_layers(moves: np.ndarray, steps: np.ndarray, bits: np.ndarray, starts: np.ndarray,
                  label: np.ndarray, free, to):
    """Breadth-first layers from `starts` over the `moves` bitmask.

    The search enters only states whose `label` is `free` and relabels each
    one `to` as it enters it; `starts` (distinct) are relabelled first. A
    large layer takes the steps one at a time, each into states not yet
    relabelled, so no state is found twice and nothing is sorted. A layer
    below `_SMALL_LAYER` states takes every step at once and drops repeats
    with `np.unique`, in fewer numpy calls.
    """
    frontier = starts
    label[frontier] = to
    while frontier.size:
        yield frontier
        here = moves[frontier]
        if frontier.size < _SMALL_LAYER:
            reached = np.unique((frontier[:, None] + steps)[(here[:, None] & bits) != 0])
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
    starts = np.unique(np.asarray(starts, dtype=np.int64))
    for layer in search_layers(*graph.oriented(reverse), starts, seen, False, True):
        if bound is not None and not bound[layer].all():
            return None
    return seen


def build_transition_digraph(pop: PopulationSpec, max_states: int | None = None) -> TransitionDigraph:
    """Materialize the multivalued one-step dynamics of the population."""
    space = CellSpace(pop)
    guard = resolve_max_states(max_states)
    if space.n_states > guard:
        raise StateSpaceTooLarge(
            f"{space.n_states} refined states exceed the guard of {guard}; "
            f"raise max_states or {MAX_STATES_ENV}"
        )

    n = space.n_states
    moves = np.empty(n, dtype=space.move_dtype)
    self_loop = np.empty(n, dtype=bool)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        idx = np.arange(lo, hi, dtype=np.int64)
        coords = [(idx // stride) % (cap + 1) for cap, stride in zip(space.caps, space.strides)]
        moves[lo:hi], self_loop[lo:hi] = space.moves(coords)

    n_edges = int(np.bitwise_count(moves).sum(dtype=np.int64))
    return TransitionDigraph(pop, space, moves, self_loop, n_edges)


def minimal_invariant_sets(graph: TransitionDigraph) -> list[InvariantSetResult]:
    """Sink SCCs of the successor digraph, ordered by their smallest state.

    Found by frontier searches over the moves, labelling every state once as
    known to reach a sink (see `_sinks`).
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

    States without moves are the singleton sinks. For the rest, from the first
    state not yet known to reach a sink: its forward closure F is closed and
    so holds a sink. A pivot v of F is picked, the deepest in the search, and
    the states of F that reach v are taken out of F; what is left is still
    closed, because nothing in it reaches v. When that empties F, every state
    of the closed set F was reaching v, so each sink inside F holds v: v lies
    in a sink, and the sink is v's forward closure. After each find, one
    backward search labels every state that reaches the new sinks, never
    entering a labelled state, so every state is labelled once.
    """
    forward, backward = graph.oriented(), graph.oriented(reverse=True)
    label = np.zeros(graph.n_states, dtype=np.uint8)
    found = np.flatnonzero(graph.moves == 0)
    sinks = [found[i : i + 1] for i in range(found.size)]
    start = 0
    while True:
        for _ in search_layers(*backward, found, label, _FREE, _DONE):
            pass
        start += int(np.argmin(label[start:]))
        if label[start] != _FREE:
            return sinks
        layers = list(search_layers(*forward, np.array([start]), label, _FREE, _OPEN))
        while layers:
            left = layers[-1][label[layers[-1]] == _OPEN]
            if not left.size:
                layers.pop()
                continue
            v = left[-1:]
            for _ in search_layers(*backward, v, label, _OPEN, _FREE):
                pass
        found = np.sort(np.concatenate(list(search_layers(*forward, v, label, _FREE, _DONE))))
        sinks.append(found)


def is_equilibrium_oracle(graph: TransitionDigraph, state) -> bool:
    """True iff every refined representative has itself as only successor."""
    return not graph.moves[graph.indices_of(state)].any()


def _pooled_distance(graph: TransitionDigraph, eq: State) -> np.ndarray:
    """Pooled L1 distance of every refined state from eq."""
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


def is_stable_oracle(graph: TransitionDigraph, eq: State) -> bool:
    """Discrete stability: no trajectory from pooled distance 1 ever exceeds it."""
    if not is_equilibrium_oracle(graph, eq):
        raise NotAnEquilibrium(f"{eq} is not an equilibrium")
    dist = _pooled_distance(graph, eq)
    starts = np.flatnonzero(dist == 1)
    if starts.size == 0:
        return True
    reached = frontier_search(graph, starts, bound=dist <= 1)
    return reached is not None


def reachable_set(graph: TransitionDigraph, from_state) -> ReachableSet:
    """Forward closure (including the start states themselves)."""
    return ReachableSet(graph, graph.reachable_mask(graph.indices_of(from_state)))


_EXPORT_ROWS = 1 << 15


def export_adjacency(graph: TransitionDigraph, stream) -> None:
    """Write `index: succ1 succ2 ...` lines (self-loop listed when present).

    A state's successors are itself and its moves, so a row lists them in the
    order of `_move_steps` with the state inserted in the middle. Rows are
    formatted as ASCII digits with numpy, `_EXPORT_ROWS` at a time.
    """
    steps, bits = graph.steps, graph.bits
    mid = len(steps) // 2
    # slot 0 holds the row label, then come the successors in ascending order
    offsets = np.concatenate([[0], steps[:mid], [0], steps[mid:]])
    largest = max(graph.n_states - 1, 0)
    index_dtype = np.min_scalar_type(largest)  # unsigned divisions are faster
    width = len(str(largest))
    for lo in range(0, graph.n_states, _EXPORT_ROWS):
        hi = min(lo + _EXPORT_ROWS, graph.n_states)
        moved = (graph.moves[lo:hi, None] & bits) != 0
        keep = np.empty((hi - lo, len(offsets)), dtype=bool)
        keep[:, 0] = True
        keep[:, 1 : mid + 1] = moved[:, :mid]
        keep[:, mid + 1] = graph.self_loop[lo:hi]
        keep[:, mid + 2 :] = moved[:, mid:]
        values = (np.arange(lo, hi)[:, None] + offsets)[keep].astype(index_dtype)
        ends = np.cumsum(keep.sum(axis=1))
        is_label = np.zeros(len(values), dtype=bool)
        is_label[np.concatenate([[0], ends[:-1]])] = True
        is_last = np.zeros(len(values), dtype=bool)
        is_last[ends - 1] = True

        # one token per kept slot: its digits, then ": " after a label, " "
        # or "\n" after a successor, ": \n" after the label of an empty row
        chars = np.empty((len(values), width + 3), dtype=np.uint8)
        show = np.empty(chars.shape, dtype=bool)
        rest = values
        for col in range(width - 1, -1, -1):
            rest, digit = np.divmod(rest, 10)
            chars[:, col] = digit + ord("0")
            show[:, col] = values >= 10 ** (width - 1 - col)
        show[:, width - 1] = True
        chars[:, width] = np.where(is_label, ord(":"), np.where(is_last, ord("\n"), ord(" ")))
        chars[:, width + 1] = ord(" ")
        chars[:, width + 2] = ord("\n")
        show[:, width] = True
        show[:, width + 1] = is_label
        show[:, width + 2] = is_label & is_last
        stream.write(chars[show].tobytes().decode("ascii"))
