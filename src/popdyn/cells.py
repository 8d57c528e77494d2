"""Refined state machinery: one cell per (role, type) subpopulation.

The pooled `model.State` cannot drive the imitation rule when imitators of
several types exist (which type lines have cooperators is then ambiguous), so
simulation and the reachability oracle run on refined states: a cooperator
count per cell, imitator groups kept separate. Reports collapse back to the
pooled form.

A state drives the update rules only through its cooperator count n_c and
which types have cooperators and defectors, so `CellSpace.rules` ranks each
type's two utilities once per (type, n_c), exactly, from the population's
`Fraction`s. `CellSpace.moves` is the one kernel that reads that table: it
decides every agent's switch at a batch of states by comparing two ranks,
and the oracle build, `dynamics.simulate` and `dynamics.step` take every
decision from it. The oracle build runs it on one state per class of
states that share the cooperator count and each cell's empty/interior/full
pattern, since the kernel reads nothing else. Its move bitmask is its whole
result: a state keeps itself (a self-loop) exactly when some present (cell,
strategy) group's bit is unset (`oracle.TransitionDigraph.self_loops`). The
closed forms' quantifiers over states (S invariance, cooperation preservation)
likewise run over presence patterns (`CellSpace.presence_patterns`).

`CellSpace` is the one owner of the state encoding: the mixed radix of a
state index, its decode at a batch of indices (`digits`, and `column` over a
range), the pooled projection (`pooled_columns`), and the move table that
lays out the bits of `moves` (`steps`, `bits`, `move_cell`, `move_up`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .model import ANTICOORDINATING, PopulationSpec, State

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


class RuleTable(NamedTuple):
    """Exact utility ranks per (type, n_c), as (types, n + 1) arrays in `CellSpace.types` order.

    `rank_c` and `rank_d` are the dense ranks of type t's cooperator and
    defector utility among the 2T utilities at n_c, so comparing ranks
    compares the utilities exactly, ties included. Both update rules read
    only these: a best responder compares its own type's two ranks, an
    imitator the top present cooperator's and defector's.
    """

    rank_c: np.ndarray
    rank_d: np.ndarray


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
        # two move bits per cell (see `moves`)
        self.move_dtype = np.min_scalar_type((1 << 2 * len(cells)) - 1)
        # The move table, one entry per possible move in ascending order of
        # step: -stride_0 < ... < -stride_K < stride_K < ... < stride_0 over
        # the cells k with capacity. Move j moves cell `move_cell[j]` down
        # (a cooperator switches to D) or, where `move_up[j]`, up, by
        # `steps[j]` in the index, and is bit `bits[j]` of `moves`.
        live = [k for k, cap in enumerate(self.caps) if cap]
        table = [(k, False) for k in live] + [(k, True) for k in reversed(live)]
        self.move_cell = np.array([k for k, _ in table], dtype=np.intp)
        self.move_up = np.array([up for _, up in table], dtype=bool)
        self.steps = np.array([strides[k] if up else -strides[k] for k, up in table], dtype=np.int64)
        self.bits = np.array([1 << 2 * k + up for k, up in table], dtype=self.move_dtype)
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
        # each cell's row in the rule table
        self.type_row: tuple[int, ...] = tuple(
            self.types.index((c.kind, c.type_index)) for c in cells
        )

    # -- indexing ---------------------------------------------------------

    def index_of(self, coords: Sequence[int]) -> int:
        return sum(v * s for v, s in zip(coords, self.strides))

    def coords_of(self, index: int) -> Coords:
        out = []
        for cap, stride in zip(self.caps, self.strides):
            v, index = divmod(index, stride)
            out.append(v)
        return tuple(out)

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

    @cached_property
    def rules(self) -> RuleTable:
        """The exact utility-rank table, built on first use from the population's `Fraction`s."""
        n = self.pop.n
        types = [self.pop.get_type(kind, idx) for kind, idx in self.types]
        rank_c = np.zeros((len(types), n + 1), dtype=np.min_scalar_type(-2 * len(types)))
        rank_d = np.zeros_like(rank_c)
        for n_c in range(n + 1):
            coop = [typ.cooperator_utility(n_c) for typ in types]
            defect = [typ.defector_utility(n_c) for typ in types]
            dense = {v: r for r, v in enumerate(sorted(set(coop + defect)))}
            rank_c[:, n_c] = [dense[v] for v in coop]
            rank_d[:, n_c] = [dense[v] for v in defect]
        return RuleTable(rank_c, rank_d)

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
        defector's (-1 for an empty side).

        The kernel reads `coords` only through n_c = sum(coords),
        `coords[k] > 0` and `coords[k] < caps[k]`, so states that agree on
        these get the same moves; the oracle build relies on this. Each
        array's dtype must hold the population size, as n_c is summed in it.
        """
        caps, rules = self.caps, self.rules
        n_c = coords[0].copy()
        for arr in coords[1:]:
            n_c += arr

        top_c = np.full(n_c.shape, -1, dtype=rules.rank_c.dtype)
        top_d = np.full(n_c.shape, -1, dtype=rules.rank_d.dtype)
        for t, positions in enumerate(self.cells_of_type.values()):
            has_c = coords[positions[0]] > 0
            has_d = coords[positions[0]] < caps[positions[0]]
            for k in positions[1:]:
                has_c |= coords[k] > 0
                has_d |= coords[k] < caps[k]
            np.maximum(top_c, rules.rank_c[t][n_c], out=top_c, where=has_c)
            np.maximum(top_d, rules.rank_d[t][n_c], out=top_d, where=has_d)

        moves = np.zeros(n_c.shape, dtype=self.move_dtype)
        for k, cell in enumerate(self.cells):
            if cell.role == BEST_RESPONDER:
                t = self.type_row[k]
                own_c, own_d = rules.rank_c[t][n_c], rules.rank_d[t][n_c]
            else:
                own_c, own_d = top_c, top_d
            wants_c, wants_d = own_c > own_d, own_d > own_c
            np.bitwise_or(moves, 1 << 2 * k, out=moves, where=(coords[k] > 0) & wants_d)
            np.bitwise_or(moves, 1 << 2 * k + 1, out=moves, where=(coords[k] < caps[k]) & wants_c)
        return moves

    def presence_patterns(self, ranges: Sequence[tuple[int, int]],
                          n_c: int) -> Iterator[tuple[tuple[bool, bool], ...]]:
        """Each tuple of a (has cooperators, has defectors) pair per type, in
        `types` order, that some state with n_c cooperators and cell k's count
        in the inclusive ranges[k] (a fixed cell [v, v], a free one [0, cap])
        realises; once each.

        A type has cooperators iff its cells' sum is above 0 and defectors
        iff it is below their capacity. Integer ranges add to a range, so the
        sum takes every value of its cells' summed range, which cut to empty
        [0, 0], interior [1, cap - 1] or full [cap, cap] gives its patterns; a
        choice of one per type is realised iff the ranges' sums bracket n_c.
        """
        options = []
        for positions in self.cells_of_type.values():
            lo, hi = (sum(ranges[k][end] for k in positions) for end in (0, 1))
            cap = sum(self.caps[k] for k in positions)
            cut = dict.fromkeys((max(a, lo), min(b, hi)) for a, b in ((0, 0), (1, cap - 1), (cap, cap)))
            options.append([(a, b, (b > 0, a < cap)) for a, b in cut if a <= b])
        for choice in product(*options):
            if sum(a for a, _, _ in choice) <= n_c <= sum(b for _, b, _ in choice):
                yield tuple(present for _, _, present in choice)

    def top_utilities(self, ranges: Sequence[tuple[int, int]],
                      n_c: int) -> Iterator[tuple[Fraction | float, Fraction | float]]:
        """Each of the `presence_patterns`' exact top cooperator and defector
        utility at n_c, -inf for an empty side; imitators copy the higher."""
        utils = [(t.cooperator_utility(n_c), t.defector_utility(n_c)) for t in self.pop.all_types()]
        for pattern in self.presence_patterns(ranges, n_c):
            yield tuple(max((u[side] for u, has in zip(utils, pattern) if has[side]),
                            default=float("-inf")) for side in (0, 1))
