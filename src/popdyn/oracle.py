"""Brute-force ground truth: the full one-step transition digraph.

States are refined per (role, type) cell (see `cells`), successors are
materialized exhaustively with exact integer arithmetic, and minimal
positively invariant sets fall out as sink strongly-connected components.
Construction is vectorized and chunked so desk-scale spaces (about 10^7
states) stay within a few hundred MB.

The cross-checks read decoded views (`coords`, `n_c`, `moves`) built once on
first use, never by the build or the sink search. Every edge moves one cell by
one agent, so closure of a state set is a check of each member's moves, and
reachability is a numpy frontier search over the CSR arrays.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .cells import BEST_RESPONDER, IMITATOR, CellSpace
from .errors import NotAnEquilibrium, StateSpaceTooLarge
from .model import ANTICOORDINATING, COORDINATING, PopulationSpec, State

DEFAULT_MAX_STATES = 10**6
MAX_STATES_ENV = "POPDYN_MAX_STATES"

_CHUNK = 1 << 19
_NEG = np.int64(-(2**62))


def resolve_max_states(max_states: int | None = None) -> int:
    if max_states is not None:
        return int(max_states)
    env = os.environ.get(MAX_STATES_ENV)
    if env:
        return int(env)
    return DEFAULT_MAX_STATES


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
        if isinstance(state, State):
            return any(self.mask[i] for i in self.graph.indices_of_pooled(state))
        return bool(self.mask[self.graph.space.index_of(self.graph.space.refine(state))])

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def pooled_states(self) -> frozenset[State]:
        return self.graph.pooled_states_of(self.indices)

    def __len__(self) -> int:
        return int(self.mask.sum())


class TransitionDigraph:
    """Exhaustive successor relation; edges are agent switches, kept in CSR form.

    Self-loops (some agent keeps her strategy) are tracked in a separate
    boolean array; they do not affect SCC structure.
    """

    def __init__(self, pop: PopulationSpec, space: CellSpace, matrix: csr_matrix, self_loop: np.ndarray):
        self.pop = pop
        self.space = space
        self.matrix = matrix
        self.self_loop = self_loop
        self.n_states = space.n_states
        self._labels: np.ndarray | None = None
        self._sink_results: list[InvariantSetResult] | None = None

    # -- basic access -------------------------------------------------------

    def switch_successors(self, index: int) -> np.ndarray:
        lo, hi = self.matrix.indptr[index], self.matrix.indptr[index + 1]
        return self.matrix.indices[lo:hi]

    def successors(self, index: int) -> list[int]:
        succ = set(int(j) for j in self.switch_successors(index))
        if self.self_loop[index]:
            succ.add(int(index))
        return sorted(succ)

    def out_degree(self, index: int) -> int:
        return int(self.matrix.indptr[index + 1] - self.matrix.indptr[index])

    def indices_of_pooled(self, state: State) -> list[int]:
        return [self.space.index_of(c) for c in self.space.splits_of_pooled(state)]

    def pooled_states_of(self, indices: Iterable[int]) -> frozenset[State]:
        return frozenset(self.space.pooled(self.space.coords_of(int(i))) for i in indices)

    def iter_edge_blocks(self, rows_per_block: int = _CHUNK) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (src, dst) arrays block by block; memory stays bounded."""
        indptr, indices = self.matrix.indptr, self.matrix.indices
        for lo in range(0, self.n_states, rows_per_block):
            hi = min(lo + rows_per_block, self.n_states)
            e_lo, e_hi = indptr[lo], indptr[hi]
            if e_lo == e_hi:
                continue
            counts = np.diff(indptr[lo : hi + 1]).astype(np.int64)
            src = np.repeat(np.arange(lo, hi, dtype=np.int64), counts)
            yield src, indices[e_lo:e_hi].astype(np.int64, copy=False)

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

    @cached_property
    def moves(self) -> np.ndarray:
        """Per-state bitmask: bit 2k set iff cell k can lose a cooperator, 2k+1 gain one.

        Cells without capacity never move and share their stride with the
        previous cell, so they are skipped.
        """
        space = self.space
        dtype = np.min_scalar_type((1 << 2 * len(space.cells)) - 1)
        moves = np.zeros(self.n_states, dtype=dtype)
        for src, dst in self.iter_edge_blocks():
            step = dst - src
            for k, (cap, stride) in enumerate(zip(space.caps, space.strides)):
                if cap:
                    moves[src[step == -stride]] |= 1 << 2 * k
                    moves[src[step == stride]] |= 1 << 2 * k + 1
        return moves

    # -- reachability ---------------------------------------------------------

    def reachable_mask(self, starts: Sequence[int]) -> np.ndarray:
        """Boolean mask of states reachable from any start (starts included)."""
        return frontier_search(self.matrix.indptr, self.matrix.indices, starts)

    # -- condensation ----------------------------------------------------------

    def scc_labels(self) -> np.ndarray:
        if self._labels is None:
            _, labels = connected_components(self.matrix, directed=True, connection="strong")
            self._labels = labels
        return self._labels


def frontier_search(indptr: np.ndarray, indices: np.ndarray, starts,
                    bound: np.ndarray | None = None) -> np.ndarray | None:
    """Mask of the states reachable from `starts` (included) over CSR rows.

    With `bound`, returns None as soon as a state outside it is reached.
    """
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    frontier = np.unique(np.asarray(starts, dtype=np.int64))
    seen[frontier] = True
    while frontier.size:
        if bound is not None and not bound[frontier].all():
            return None
        lo = indptr[frontier]
        counts = indptr[frontier + 1] - lo
        offsets = np.cumsum(counts) - counts
        edges = np.repeat(lo - offsets, counts) + np.arange(offsets[-1] + counts[-1])
        found = indices[edges]
        found = np.sort(found[~seen[found]])
        frontier = found[np.diff(found, prepend=-1) != 0]
        seen[frontier] = True
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
    caps = space.caps
    strides = space.strides
    scaled = space.scaled
    cells = space.cells

    index_dtype = np.int32 if n < 2**31 else np.int64
    self_loop = np.zeros(n, dtype=bool)
    degrees = np.zeros(n, dtype=np.int32)
    dst_blocks: list[np.ndarray] = []

    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        idx = np.arange(lo, hi, dtype=np.int64)
        coords = [(idx // strides[k]) % (caps[k] + 1) for k in range(len(cells))]
        n_c = coords[0].copy()
        for arr in coords[1:]:
            n_c += arr

        # per-type presence and line values
        coop_present: dict[tuple[str, int], np.ndarray] = {}
        def_present: dict[tuple[str, int], np.ndarray] = {}
        for key, positions in space.cells_of_type.items():
            cp = coords[positions[0]] > 0
            dp = coords[positions[0]] < caps[positions[0]]
            for k in positions[1:]:
                cp = cp | (coords[k] > 0)
                dp = dp | (coords[k] < caps[k])
            coop_present[key] = cp
            def_present[key] = dp

        sup_c = np.full(hi - lo, _NEG, dtype=np.int64)
        sup_d = np.full(hi - lo, _NEG, dtype=np.int64)
        for key in space.types:
            ac, bc, ad, bd = scaled.lines[key]
            val_c = ac * n_c + bc
            np.maximum(sup_c, np.where(coop_present[key], val_c, _NEG), out=sup_c)
            val_d = ad * n_c + bd
            np.maximum(sup_d, np.where(def_present[key], val_d, _NEG), out=sup_d)
        imit_wants_c = sup_c > sup_d
        imit_wants_d = sup_d > sup_c

        # per-type best-response tendencies (strict; ties keep)
        br_wants_c: dict[tuple[str, int], np.ndarray] = {}
        br_wants_d: dict[tuple[str, int], np.ndarray] = {}
        for key in space.types:
            tn, td = scaled.tempers[key]
            above = n_c * td > tn
            below = n_c * td < tn
            if key[0] == COORDINATING:
                br_wants_c[key], br_wants_d[key] = above, below
            else:
                br_wants_c[key], br_wants_d[key] = below, above

        chunk_src: list[np.ndarray] = []
        chunk_dst: list[np.ndarray] = []
        keeps = np.zeros(hi - lo, dtype=bool)
        for k, cell in enumerate(cells):
            key = (cell.kind, cell.type_index)
            if cell.role == BEST_RESPONDER:
                wants_c, wants_d = br_wants_c[key], br_wants_d[key]
            else:
                wants_c, wants_d = imit_wants_c, imit_wants_d
            has_coop = coords[k] > 0
            has_def = coords[k] < caps[k]
            switch_down = has_coop & wants_d
            switch_up = has_def & wants_c
            keeps |= has_coop & ~wants_d
            keeps |= has_def & ~wants_c
            if switch_down.any():
                src = idx[switch_down]
                chunk_src.append(src)
                chunk_dst.append(src - strides[k])
            if switch_up.any():
                src = idx[switch_up]
                chunk_src.append(src)
                chunk_dst.append(src + strides[k])

        self_loop[lo:hi] = keeps
        if chunk_src:
            src_all = np.concatenate(chunk_src)
            dst_all = np.concatenate(chunk_dst)
            order = np.argsort(src_all, kind="stable")
            dst_blocks.append(dst_all[order].astype(index_dtype))
            degrees[lo:hi] += np.bincount(
                (src_all - lo).astype(np.int64), minlength=hi - lo
            ).astype(np.int32)

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = (
        np.concatenate(dst_blocks) if dst_blocks else np.zeros(0, dtype=index_dtype)
    )
    data = np.ones(len(indices), dtype=np.int8)
    matrix = csr_matrix((data, indices, indptr), shape=(n, n))
    return TransitionDigraph(pop, space, matrix, self_loop)


def minimal_invariant_sets(graph: TransitionDigraph) -> list[InvariantSetResult]:
    """Sink SCCs of the successor digraph, in deterministic order."""
    if graph._sink_results is not None:
        return graph._sink_results
    labels = graph.scc_labels()
    n_comp = int(labels.max()) + 1 if graph.n_states else 0
    is_sink = np.ones(n_comp, dtype=bool)
    for src, dst in graph.iter_edge_blocks():
        cross = labels[src] != labels[dst]
        if cross.any():
            is_sink[labels[src[cross]]] = False
    sink_labels = np.flatnonzero(is_sink)
    member_mask = is_sink[labels]
    members = np.flatnonzero(member_mask)
    member_labels = labels[members]

    results: list[InvariantSetResult] = []
    for lab in sink_labels:
        idxs = members[member_labels == lab]
        states = graph.pooled_states_of(idxs)
        n_cs = [s.n_cooperators for s in states]
        results.append(
            InvariantSetResult(
                indices=np.sort(idxs),
                states=states,
                is_singleton=len(idxs) == 1,
                cooperator_bounds=(min(n_cs), max(n_cs)),
            )
        )
    results.sort(key=lambda r: int(r.indices[0]))
    graph._sink_results = results
    return results


def is_equilibrium_oracle(graph: TransitionDigraph, state) -> bool:
    """True iff every refined representative has itself as only successor."""
    if isinstance(state, State):
        indices = graph.indices_of_pooled(state)
    else:
        indices = [graph.space.index_of(graph.space.refine(state))]
    return all(graph.out_degree(i) == 0 for i in indices)


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
    reached = frontier_search(graph.matrix.indptr, graph.matrix.indices, starts, bound=dist <= 1)
    return reached is not None


def reachable_set(graph: TransitionDigraph, from_state) -> ReachableSet:
    """Forward closure (including the start states themselves)."""
    if isinstance(from_state, State):
        starts = graph.indices_of_pooled(from_state)
    else:
        starts = [graph.space.index_of(graph.space.refine(from_state))]
    return ReachableSet(graph, graph.reachable_mask(starts))


def export_adjacency(graph: TransitionDigraph, stream) -> None:
    """Write `index: succ1 succ2 ...` lines (self-loop listed when present)."""
    for i in range(graph.n_states):
        succ = graph.successors(i)
        stream.write(f"{i}: {' '.join(str(s) for s in succ)}\n")
