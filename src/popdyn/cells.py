"""Refined state machinery: one cell per (role, type) subpopulation.

The pooled `model.State` cannot drive the imitation rule when imitators of
several types exist (which type lines have cooperators is then ambiguous), so
simulation and the reachability oracle run on refined states: a cooperator
count per cell, imitator groups kept separate. Reports collapse back to the
pooled form.

A state drives the update rules only through its cooperator count n_c and
which types have cooperators and defectors, so `CellSpace.ranks` ranks the
types' utilities at n_c, on first use of each n_c: each population has one
space (`PopulationSpec.space`) and so ranks each count once. The ranks are
exact: the space scales the population's `Fraction` utility lines once, by
the lcm of their denominators, into integer lines, and evaluates those.
`CellSpace.moves` is the one kernel that reads the ranks: it decides every
agent's switch at a batch of states by comparing two ranks, in unmasked
numpy operations over one gather of the ranks, and the oracle build and
`dynamics.simulate` take every decision from it. The oracle build runs it on
one state per class of states that share the cooperator count and each
cell's empty/interior/full pattern, since the kernel reads nothing else. Its
move bitmask is its whole result: a state keeps itself (a self-loop) exactly
when some present (cell, strategy) group's bit is unset
(`oracle.TransitionDigraph.self_loops`). The
closed forms' quantifiers over states (S invariance, cooperation preservation)
ask whether a side can be out-earned, in O(types²) (`CellSpace.outearns`).

`CellSpace` is the one owner of the state encoding: the mixed radix of a
state index, its decode at a batch of indices (`digits`, and `column` over a
range), the pooled projection (`pooled_columns`), and the move table that
lays out the bits of `moves` (`steps`, `bits`, `move_cell`, `move_up`, built
on first use, so only a space that an oracle is built on needs int64 steps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .model import ANTICOORDINATING, C, D, PopulationSpec, State

BEST_RESPONDER = "bestResponder"
IMITATOR = "imitator"

Coords = tuple[int, ...]


@dataclass(frozen=True)
class Cell:
    role: str
    kind: str
    type_index: int
    capacity: int

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.role, self.kind, self.type_index)


class CellSpace:
    """Mixed-radix indexing over the refined state space of a population.

    Cell order: imitator groups (anticoordinating types ascending, then
    coordinating ascending), then best-responder cells in the same type order.
    The last cell varies fastest in the index.
    """

    def __init__(self, pop: PopulationSpec):
        self.pop = pop
        cells: list[Cell] = []
        for kind, idx, t in pop.typed():
            if t.imitators > 0:
                cells.append(Cell(IMITATOR, kind, idx, t.imitators))
        for kind, idx, t in pop.typed():
            cells.append(Cell(BEST_RESPONDER, kind, idx, t.best_responders))
        self.cells: tuple[Cell, ...] = tuple(cells)
        self.caps: tuple[int, ...] = tuple(c.capacity for c in cells)
        self.imitator_positions: tuple[int, ...] = tuple(
            k for k, c in enumerate(cells) if c.role == IMITATOR
        )
        strides = [1] * len(cells)
        for k in range(len(cells) - 2, -1, -1):
            strides[k] = strides[k + 1] * (self.caps[k + 1] + 1)
        self.strides: tuple[int, ...] = tuple(strides)
        self.n_states: int = strides[0] * (self.caps[0] + 1)
        self._ranks: dict[int, np.ndarray] = {}  # `ranks` by n_c
        # the types' cooperator, then defector, utility lines times the lcm of
        # every denominator: exact integer (slope, intercept) pairs in the same
        # order, as the scale is positive
        types = list(pop.all_types())
        lines = [t.cooperator_utility for t in types] + [t.defector_utility for t in types]
        scale = math.lcm(*(v.denominator for line in lines for v in (line.slope, line.intercept)))
        self._lines = [(int(line.slope * scale), int(line.intercept * scale)) for line in lines]
        self.position: dict[tuple[str, str, int], int] = {
            c.key: k for k, c in enumerate(cells)
        }
        self.types: tuple[tuple[str, int], ...] = tuple(
            (kind, idx) for kind, idx, _ in pop.typed()
        )
        self.cells_of_type: dict[tuple[str, int], tuple[int, ...]] = {
            key: tuple(k for k, c in enumerate(cells) if (c.kind, c.type_index) == key)
            for key in self.types
        }
        # each cell's type, its column in `ranks`
        self.type_row: tuple[int, ...] = tuple(
            self.types.index((c.kind, c.type_index)) for c in cells
        )
        self.of_type = np.equal.outer(self.type_row, range(len(self.types)))  # (cells, types)

    # -- indexing ---------------------------------------------------------

    def index_of(self, coords: Sequence[int]) -> int:
        return sum(v * s for v, s in zip(coords, self.strides))

    def coords_of(self, index: int) -> Coords:
        return tuple(index // stride % (cap + 1) for cap, stride in zip(self.caps, self.strides))

    def digits(self, indices) -> np.ndarray:
        """Every cell's count at each state of `indices`, one int64 row per cell."""
        idx = np.asarray(indices, dtype=np.int64)
        return idx // np.array(self.strides)[:, None] % (np.array(self.caps)[:, None] + 1)

    def column(self, k: int, values: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """`values[digit]` at each state of range(lo, hi), digit being cell k's
        count (`values` has one entry per count 0..cap_k). The digit is
        constant on runs of stride_k states, so the column is built by
        repeating runs (the end runs cut), not by dividing every index."""
        stride = self.strides[k]
        first, stop = lo // stride, -(-hi // stride)
        runs = stop - first
        digits = np.tile(np.roll(values, -first), -(-runs // values.size))[:runs]
        if lo % stride == 0 and hi % stride == 0:  # whole runs only
            return np.repeat(digits, stride)
        lengths = np.full(runs, stride)
        lengths[0] -= lo - first * stride
        lengths[-1] -= stop * stride - hi
        return np.repeat(digits, lengths)

    def group_sizes(self, indices) -> np.ndarray:
        """(moves, len(indices)): at each state, the number of agents whose
        switch makes move j: cell `move_cell[j]`'s cooperators for a step
        down, its defectors for a step up."""
        counts = self.digits(indices)[self.move_cell]
        caps = np.array(self.caps)[self.move_cell][:, None]
        return np.where(self.move_up[:, None], caps - counts, counts)

    def pooled_columns(self, indices) -> np.ndarray:
        """The pooled state of each state of `indices` as a column: its
        cooperating imitators, then each best-responder cell's count, which
        in cell order are a `State`'s xa followed by its xc."""
        digits = self.digits(indices)
        m = len(self.imitator_positions)  # the imitator cells come first
        return np.vstack([digits[:m].sum(axis=0), digits[m:]])

    def check_coords(self, coords: Sequence[int]) -> None:
        if len(coords) != len(self.cells):
            raise ValueError("wrong number of cells")
        for v, cap in zip(coords, self.caps):
            if not 0 <= v <= cap:
                raise ValueError(f"cell value {v} outside 0..{cap}")

    # -- pooled <-> refined -----------------------------------------------

    def pooled(self, coords: Sequence[int]) -> State:
        xI = 0
        xa = [0] * self.pop.b
        xc = [0] * self.pop.bp
        for cell, v in zip(self.cells, coords):
            if cell.role == IMITATOR:
                xI += v
            elif cell.kind == ANTICOORDINATING:
                xa[cell.type_index - 1] = v
            else:
                xc[cell.type_index - 1] = v
        return State(xI, tuple(xa), tuple(xc))

    def _br_part(self, state: State) -> list[int]:
        part = [0] * len(self.cells)
        for k, cell in enumerate(self.cells):
            if cell.role == BEST_RESPONDER:
                if cell.kind == ANTICOORDINATING:
                    part[k] = state.xa[cell.type_index - 1]
                else:
                    part[k] = state.xc[cell.type_index - 1]
        return part

    def splits_of_pooled(self, state: State) -> Iterator[Coords]:
        """All refined states projecting to the pooled state."""
        self.pop.check_state(state)
        return self.fills(self._br_part(state), self.imitator_positions, state.xI)

    def fills(self, base: Sequence[int], free: Sequence[int], total: int) -> Iterator[Coords]:
        """Every state equal to `base` off the `free` cells, with `total`
        cooperators in the free cells; lexicographic in the free cells."""
        out = list(base)
        tails = [0] * (len(free) + 1)  # capacity of free[pos:]
        for pos in range(len(free) - 1, -1, -1):
            tails[pos] = tails[pos + 1] + self.caps[free[pos]]

        def rec(pos: int, remaining: int) -> Iterator[Coords]:
            if pos == len(free):
                if remaining == 0:
                    yield tuple(out)
                return
            k = free[pos]
            for v in range(max(0, remaining - tails[pos + 1]), min(self.caps[k], remaining) + 1):
                out[k] = v
                yield from rec(pos + 1, remaining - v)

        return rec(0, total)

    def fill_refine(self, state: State) -> Coords:
        """Deterministic refinement: fill imitator groups in cell order."""
        self.pop.check_state(state)
        base = self._br_part(state)
        remaining = state.xI
        for k in self.imitator_positions:
            take = min(remaining, self.caps[k])
            base[k] = take
            remaining -= take
        return tuple(base)

    def refine(self, state) -> Coords:
        """Accept refined coords or a pooled State (fill-refined)."""
        if isinstance(state, State):
            return self.fill_refine(state)
        coords = tuple(int(v) for v in state)
        self.check_coords(coords)
        return coords

    # -- update rules ------------------------------------------------------

    def ranks(self, n_c: int) -> np.ndarray:
        """(2, types): each type's cooperator, then defector, utility at n_c, in
        `types` order, as its dense rank among all 2·types of them, so that
        ranks compare exactly, ties included. The utilities are the integer
        lines over one denominator, evaluated at n_c; computed on first use
        of n_c."""
        if n_c not in self._ranks:
            values = [slope * n_c + intercept for slope, intercept in self._lines]
            dense = {v: r for r, v in enumerate(sorted(set(values)))}
            ranks = np.array([dense[v] for v in values], dtype=np.min_scalar_type(-len(values)))
            self._ranks[n_c] = ranks.reshape(2, -1)
        return self._ranks[n_c]

    # The move table, one entry per possible move in ascending order of step:
    # -stride_0 < ... < -stride_K < stride_K < ... < stride_0 over the cells k
    # with capacity. Move j moves cell `move_cell[j]` down (a cooperator
    # switches to D) or, where `move_up[j]`, up, by `steps[j]` in the index,
    # and is bit `bits[j]` of `moves`, which has two bits per cell.
    @cached_property
    def move_dtype(self) -> np.dtype:
        return np.min_scalar_type((1 << 2 * len(self.cells)) - 1)

    @cached_property
    def move_cell(self) -> np.ndarray:
        live = [k for k, cap in enumerate(self.caps) if cap]
        return np.array(live + live[::-1], dtype=np.intp)

    @cached_property
    def move_up(self) -> np.ndarray:
        return np.arange(self.move_cell.size) >= self.move_cell.size // 2

    @cached_property
    def steps(self) -> np.ndarray:
        return np.where(self.move_up, 1, -1) * np.array(self.strides, dtype=np.int64)[self.move_cell]

    @cached_property
    def bits(self) -> np.ndarray:
        return np.array([1 << int(s) for s in 2 * self.move_cell + self.move_up], dtype=self.move_dtype)

    def moves(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """Both update rules at a batch of states, one integer array per cell.

        Returns the move bitmask, in which bit 2k is set iff cell k has
        cooperators and they switch to D, and bit 2k+1 iff it has defectors
        and they switch to C. A present group whose bit is unset keeps its
        strategy, so the bitmask also says which states have a self-loop.
        Every switch is one comparison of exact utility ranks at n_c, and a
        tie keeps the strategy. A best responder compares its own type's
        cooperator and defector ranks. An imitator copies the top earner: it
        compares the best present cooperator's rank with the best present
        defector's. A type's rank counts toward a top times its presence, so an
        empty side's top is 0, the lowest rank, and no imitator switches to it.

        The kernel reads `coords` only through n_c = sum(coords),
        `coords[k] > 0` and `coords[k] < caps[k]`, so states that agree on
        these get the same moves; the oracle build relies on this. Each
        array's dtype must hold the population size, as n_c is summed in it.
        """
        n_c = coords[0].copy()
        for arr in coords[1:]:
            n_c += arr
        # one gather of the ranks, in their own type, at each n_c of the batch:
        # row t holds type t's cooperators, row types + t its defectors
        lo, types = int(n_c.min()), len(self.types)
        table = np.array([self.ranks(v) for v in range(lo, int(n_c.max()) + 1)])
        ranks = np.take(table.reshape(-1, 2 * types).T, np.subtract(n_c, lo, dtype=np.intp), axis=1)

        has_c = [arr > 0 for arr in coords]
        has_d = [arr < cap for arr, cap in zip(coords, self.caps)]
        top_c = np.zeros(n_c.shape, dtype=ranks.dtype)
        top_d = top_c.copy()
        for t, positions in enumerate(self.cells_of_type.values()):
            type_c, type_d = has_c[positions[0]], has_d[positions[0]]
            for k in positions[1:]:
                type_c, type_d = type_c | has_c[k], type_d | has_d[k]
            np.maximum(top_c, ranks[t] * type_c, out=top_c)
            np.maximum(top_d, ranks[types + t] * type_d, out=top_d)

        # each bit is a mask cast to the move dtype and shifted: from 33 cells
        # that dtype is object, whose Python ints do not overflow
        moves = np.zeros(n_c.shape, dtype=self.move_dtype)
        for k, cell in enumerate(self.cells):
            if cell.role == BEST_RESPONDER:
                t = self.type_row[k]
                own_c, own_d = ranks[t], ranks[types + t]
            else:
                own_c, own_d = top_c, top_d
            wants_c, wants_d = own_c > own_d, own_d > own_c
            moves |= (has_c[k] & wants_d).astype(self.move_dtype) << 2 * k
            moves |= (has_d[k] & wants_c).astype(self.move_dtype) << 2 * k + 1
        return moves

    def outearns(self, ranges: Sequence[tuple[int, int]], n_c: int, side: str) -> bool:
        """Is there a state with n_c cooperators and cell k's count in the
        inclusive ranges[k] in which an agent on `side` (C or D) earns strictly
        more than every agent on the other side?

        Exactly when some type b has agents on `side` and every type whose
        other-side utility at n_c is at least b's has none on the other side:
        floors of 1 and of the capacity under a type's count on `side`, which
        takes every value of its cells' summed range. So b qualifies iff no
        floor exceeds its type's range and the floored sums bracket the total.
        """
        coop, n = side == C, sum(self.caps)
        own, rival = self.ranks(n_c)[::1 if coop else -1]
        # each type's least and most agents on `side`, from its cells' ranges, and its capacity
        by_cell = np.array([*zip(*ranges), self.caps], dtype=np.int64 if n < 2 ** 63 else object)
        lo, hi, cap = by_cell @ self.of_type
        lo, hi, total = (lo, hi, n_c) if coop else (cap - hi, cap - lo, n - n_c)
        # row b: each type's floor when b is the top earner on `side`
        floors = np.maximum(lo, np.where(rival >= own[:, None], cap, 0))
        np.fill_diagonal(floors, np.maximum(floors.diagonal(), 1))
        fits = (floors <= hi).all(axis=1) & (floors.sum(axis=1) <= total)
        return bool(fits.any()) and total <= hi.sum()
