"""Refined state machinery: one cell per (role, type) subpopulation.

The pooled `model.State` cannot drive the imitation rule when imitators of
several types exist (which type lines have cooperators is then ambiguous), so
simulation and the reachability oracle run on refined states: a cooperator
count per cell, imitator groups kept separate. Reports collapse back to the
pooled form.

A state drives the update rules only through its cooperator count n_c and
which types have cooperators and defectors, so `CellSpace.rules` decides both
rules once per (type, n_c) in exact `Fraction`s; simulation and the oracle
read that one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NoSuchAgent
from .model import ANTICOORDINATING, C, COORDINATING, D, PopulationSpec, State, parse_rational

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


def best_response_next(kind: str, temper: Fraction, current: str, n_c: int) -> str:
    """Threshold rule; the tie branch is unreachable for non-integer tempers."""
    temper = parse_rational(temper)
    if kind == COORDINATING:
        if n_c > temper:
            return C
        if n_c < temper:
            return D
        return current
    if kind == ANTICOORDINATING:
        if n_c < temper:
            return C
        if n_c > temper:
            return D
        return current
    raise ValueError(f"unknown kind {kind!r}")


class RuleTable(NamedTuple):
    """Both update rules per (type, n_c), as (types, n + 1) arrays in `CellSpace.types` order.

    A best responder of type t playing D switches iff `wants_c[t, n_c]`, one
    playing C iff `wants_d[t, n_c]`. `rank_c` and `rank_d` are the dense ranks
    of type t's cooperator and defector utility among the 2T utilities at n_c,
    so comparing ranks compares the utilities exactly, ties included.
    """

    wants_c: np.ndarray
    wants_d: np.ndarray
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
        self.n_states: int = strides[0] * (self.caps[0] + 1) if cells else 1
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
        base = self._br_part(state)
        positions = self.imitator_positions

        def rec(pos: int, remaining: int):
            if pos == len(positions):
                if remaining == 0:
                    yield tuple(base)
                return
            k = positions[pos]
            cap = self.caps[k]
            tail_cap = sum(self.caps[p] for p in positions[pos + 1 :])
            lo = max(0, remaining - tail_cap)
            hi = min(cap, remaining)
            for v in range(lo, hi + 1):
                base[k] = v
                yield from rec(pos + 1, remaining - v)
            base[k] = 0

        yield from rec(0, state.xI)

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
        """The exact rule table, built on first use from the population's `Fraction`s."""
        n = self.pop.n
        types = [self.pop.get_type(kind, idx) for kind, idx in self.types]
        shape = (len(types), n + 1)
        wants_c = np.zeros(shape, dtype=bool)
        wants_d = np.zeros(shape, dtype=bool)
        rank_c = np.zeros(shape, dtype=np.min_scalar_type(-2 * len(types)))
        rank_d = np.zeros_like(rank_c)
        for n_c in range(n + 1):
            for t, ((kind, _), typ) in enumerate(zip(self.types, types)):
                wants_c[t, n_c] = best_response_next(kind, typ.temper, D, n_c) == C
                wants_d[t, n_c] = best_response_next(kind, typ.temper, C, n_c) == D
            coop = [typ.cooperator_utility(n_c) for typ in types]
            defect = [typ.defector_utility(n_c) for typ in types]
            dense = {v: r for r, v in enumerate(sorted(set(coop + defect)))}
            rank_c[:, n_c] = [dense[v] for v in coop]
            rank_d[:, n_c] = [dense[v] for v in defect]
        return RuleTable(wants_c, wants_d, rank_c, rank_d)

    def presence(self, coords: Sequence[int]) -> tuple[list[bool], list[bool]]:
        """Per type, in `types` order: does any member cooperate / defect at this state."""
        coop, defect = [], []
        for positions in self.cells_of_type.values():
            coop.append(any(coords[k] > 0 for k in positions))
            defect.append(any(coords[k] < self.caps[k] for k in positions))
        return coop, defect

    def imitation_sups(self, coords: Sequence[int]) -> tuple[Fraction | float, Fraction | float]:
        """(sup of cooperating agents' utilities, sup of defecting agents')."""
        n_c = sum(coords)
        coop, defect = self.presence(coords)
        sup_c: Fraction | float = float("-inf")
        sup_d: Fraction | float = float("-inf")
        for (kind, idx), has_coop, has_def in zip(self.types, coop, defect):
            t = self.pop.get_type(kind, idx)
            if has_coop:
                sup_c = max(sup_c, t.cooperator_utility(n_c))
            if has_def:
                sup_d = max(sup_d, t.defector_utility(n_c))
        return sup_c, sup_d

    def imitation_next(self, coords: Sequence[int], current: str) -> str:
        """Copy the top earner: compare the best cooperator's and the best
        defector's utility ranks; an empty side ranks -1, a tie keeps `current`."""
        n_c = sum(coords)
        coop, defect = self.presence(coords)
        ranks_c = self.rules.rank_c[:, n_c].tolist()
        ranks_d = self.rules.rank_d[:, n_c].tolist()
        top_c = max((r for r, has in zip(ranks_c, coop) if has), default=-1)
        top_d = max((r for r, has in zip(ranks_d, defect) if has), default=-1)
        if top_c > top_d:
            return C
        if top_c < top_d:
            return D
        return current

    def intended_strategy(self, coords: Sequence[int], cell_pos: int, current: str) -> str:
        """Next strategy of an active member of the cell playing `current`."""
        if self.cells[cell_pos].role == IMITATOR:
            return self.imitation_next(coords, current)
        t, n_c = self.type_row[cell_pos], sum(coords)
        if current == D:
            return C if self.rules.wants_c[t, n_c] else D
        return D if self.rules.wants_d[t, n_c] else C

    def apply(self, coords: Coords, cell_pos: int, current: str, new: str) -> Coords:
        if new == current:
            return coords
        out = list(coords)
        out[cell_pos] += 1 if new == C else -1
        return tuple(out)

    def successor(self, coords: Coords, cell_pos: int, current: str) -> Coords:
        """One step: activate a member of the cell playing `current`."""
        v = coords[cell_pos]
        members = v if current == C else self.caps[cell_pos] - v
        if members == 0:
            cell = self.cells[cell_pos]
            raise NoSuchAgent(f"no {current}-playing member in cell {cell.key}")
        return self.apply(coords, cell_pos, current, self.intended_strategy(coords, cell_pos, current))

    def successors(self, coords: Coords) -> set[Coords]:
        """All one-step successors over every possible active agent."""
        out: set[Coords] = set()
        for k, cap in enumerate(self.caps):
            if coords[k] > 0:
                out.add(self.successor(coords, k, C))
            if coords[k] < cap:
                out.add(self.successor(coords, k, D))
        return out
