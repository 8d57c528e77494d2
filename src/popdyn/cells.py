"""Refined state machinery: one cell per (role, type) subpopulation.

The pooled `model.State` cannot drive the imitation rule when imitators of
several types exist (which type lines have cooperators is then ambiguous), so
simulation and the reachability oracle run on refined states: a cooperator
count per cell, imitator groups kept separate. Reports collapse back to the
pooled form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

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


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


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

    def n_cooperators(self, coords: Sequence[int]) -> int:
        return sum(coords)

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

    @property
    def imitator_positions(self) -> list[int]:
        return [k for k, c in enumerate(self.cells) if c.role == IMITATOR]

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

    def presence(self, coords: Sequence[int]) -> tuple[dict, dict]:
        """Per type: does any member cooperate / defect at this state."""
        coop: dict[tuple[str, int], bool] = {}
        defect: dict[tuple[str, int], bool] = {}
        for key, positions in self.cells_of_type.items():
            coop[key] = any(coords[k] > 0 for k in positions)
            defect[key] = any(coords[k] < self.caps[k] for k in positions)
        return coop, defect

    def imitation_sups(self, coords: Sequence[int]) -> tuple[Fraction | float, Fraction | float]:
        """(sup of cooperating agents' utilities, sup of defecting agents')."""
        n_c = sum(coords)
        coop_present, def_present = self.presence(coords)
        sup_c: Fraction | float = float("-inf")
        sup_d: Fraction | float = float("-inf")
        for (kind, idx), has_coop in coop_present.items():
            t = self.pop.get_type(kind, idx)
            if has_coop:
                v = t.cooperator_utility(n_c)
                if v > sup_c:
                    sup_c = v
            if def_present[(kind, idx)]:
                v = t.defector_utility(n_c)
                if v > sup_d:
                    sup_d = v
        return sup_c, sup_d

    def intended_strategy(self, coords: Sequence[int], cell_pos: int, current: str) -> str:
        """Next strategy of an active member of the cell playing `current`."""
        cell = self.cells[cell_pos]
        n_c = sum(coords)
        if cell.role == BEST_RESPONDER:
            tau = self.pop.get_type(cell.kind, cell.type_index).temper
            return best_response_next(cell.kind, tau, current, n_c)
        sup_c, sup_d = self.imitation_sups(coords)
        if sup_c > sup_d:
            return C
        if sup_c < sup_d:
            return D
        return current

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

    # -- integer-scaled tables for the vectorized oracle -------------------

    @cached_property
    def scaled(self) -> "_ScaledTables":
        """Built on first use: only the oracle build reads it."""
        return _ScaledTables(self.pop)


class _ScaledTables:
    """Utility lines and tempers scaled to integers for exact numpy comparisons."""

    def __init__(self, pop: PopulationSpec):
        denom = 1
        for t in pop.all_types():
            for line in (t.cooperator_utility, t.defector_utility):
                denom = _lcm(denom, line.slope.denominator)
                denom = _lcm(denom, line.intercept.denominator)
        self.denominator = denom
        self.lines: dict[tuple[str, int], tuple[int, int, int, int]] = {}
        bound = 0
        for kind, idx, t in pop.typed():
            ac = int(t.cooperator_utility.slope * denom)
            bc = int(t.cooperator_utility.intercept * denom)
            ad = int(t.defector_utility.slope * denom)
            bd = int(t.defector_utility.intercept * denom)
            self.lines[(kind, idx)] = (ac, bc, ad, bd)
            bound = max(bound, abs(ac) * pop.n + abs(bc), abs(ad) * pop.n + abs(bd))
        self.tempers: dict[tuple[str, int], tuple[int, int]] = {}
        for kind, idx, t in pop.typed():
            tau = t.temper
            self.tempers[(kind, idx)] = (tau.numerator, tau.denominator)
            bound = max(bound, pop.n * tau.denominator, abs(tau.numerator))
        if bound >= 2**62:
            raise OverflowError(
                "scaled utilities exceed int64 range; use smaller rational coefficients"
            )
        self.value_bound = bound
