"""Seeded random small populations for the cross-check suites, the update
rules straight from a population's tempers and `Fraction`s as their
reference, the top earners of every listed state as the reference for the
presence-pattern quantifier, and whole-space membership masks with a generic
closure test as the reference for the X and S checks."""

from __future__ import annotations

import copy
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from popdyn.cells import BEST_RESPONDER
from popdyn.errors import DuplicateTemper, IntegerTemper
from popdyn.fixtures import fixture_config
from popdyn.invariants import BenchmarkIndex, _fixed_cells, tau_max, tau_min
from popdyn.model import (
    ANTICOORDINATING, COORDINATING, C, D, PopulationSpec, UtilityLine, parse_rational,
    validate_population,
)
from popdyn.oracle import TransitionDigraph


def population(config, factor: int = 1) -> PopulationSpec:
    """A fixture by name, or a raw config, with every member count multiplied by `factor`."""
    raw = fixture_config(config) if isinstance(config, str) else copy.deepcopy(config)
    for group in raw["anticoordinating"] + raw["coordinating"]:
        group["bestResponders"] *= factor
        group["imitators"] *= factor
    return validate_population(raw)


def _random_rational(rng, lo: int, hi: int, max_den: int = 8) -> Fraction:
    den = int(rng.integers(1, max_den + 1))
    num = int(rng.integers(lo * den, hi * den + 1))
    return Fraction(num, den)


def _lines_crossing_at(rng, tau: Fraction, kind: str) -> tuple[UtilityLine, UtilityLine]:
    # slope gap sign decides the kind: negative for anticoordinating
    while True:
        s_c = _random_rational(rng, -6, 6)
        s_d = _random_rational(rng, -6, 6)
        gap = s_c - s_d
        if gap == 0:
            continue
        if (kind == "anticoordinating") == (gap < 0):
            break
    i_d = _random_rational(rng, -10, 10)
    i_c = i_d + tau * (s_d - s_c)
    return UtilityLine(s_c, i_c), UtilityLine(s_d, i_d)


def random_population(rng: np.random.Generator, max_agents: int = 14, max_types: int = 3):
    """One random heterogeneous population; may raise on unlucky draws."""
    while True:
        b = int(rng.integers(0, max_types + 1))
        bp = int(rng.integers(0 if b else 1, max_types - b + 1))
        if 1 <= b + bp <= max_types:
            break
    types = {"anticoordinating": [], "coordinating": []}
    total = 0
    n_types = b + bp
    for pos in range(n_types):
        kind = "anticoordinating" if pos < b else "coordinating"
        best = int(rng.integers(1, 4))
        imit = int(rng.integers(0, 4)) if rng.random() < 0.7 else 0
        types[kind].append({"bestResponders": best, "imitators": imit})
        total += best + imit
    if total > max_agents:
        raise ValueError("too many agents")
    n = total
    for kind in ("anticoordinating", "coordinating"):
        for t in types[kind]:
            tau_num = int(rng.integers(-4 * 2, (n + 4) * 2)) * 2 + 1  # odd => non-integer
            tau = Fraction(tau_num, 2) if rng.random() < 0.7 else _random_rational(rng, -3, n + 3)
            if tau.denominator == 1:
                tau += Fraction(1, 2)
            coop, defect = _lines_crossing_at(rng, tau, kind)
            t["uC"] = coop
            t["uD"] = defect
    return validate_population(types)


def sample_populations(seed: int, count: int, max_agents: int = 14, max_types: int = 3):
    """Yield exactly `count` valid populations, deterministically from the seed."""
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < count:
        try:
            pop = random_population(rng, max_agents, max_types)
        except (ValueError, DuplicateTemper, IntegerTemper):
            continue
        produced += 1
        yield pop


def with_empty_best_responder_cell(pop):
    """The population plus one type with no agents.

    validate_population drops empty types, so the spec is built directly; the
    empty cell is last and shares its stride with the cell before it. Its
    cooperator line is shifted so that the lines cross one past the last
    type's temper, so the constructor's sort keeps it last.
    """
    last = pop.coordinating[-1] if pop.coordinating else pop.anticoordinating[-1]
    shift = 1 if last.kind == "coordinating" else -1
    coop, defect = last.cooperator_utility, last.defector_utility
    # uC - uD = (sC - sD)(n - temper), so moving the temper moves uC's intercept
    coop = UtilityLine(coop.slope, coop.intercept - (coop.slope - defect.slope) * shift)
    empty = replace(last, cooperator_utility=coop, best_responders=0, imitators=0)
    if pop.coordinating:
        return PopulationSpec(pop.anticoordinating, pop.coordinating + (empty,))
    return PopulationSpec(pop.anticoordinating + (empty,), pop.coordinating)


def best_response_next(kind: str, temper: Fraction, current: str, n_c: int) -> str:
    """The best responders' threshold rule, read from the temper alone.

    The kernel compares utility ranks instead; the tie branch is unreachable
    for non-integer tempers.
    """
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


def reference_sups(space, coords):
    """(top utility of a cooperating agent, of a defecting agent) at a
    refined state, from the `Fraction`s; -inf for a side with no agent."""
    n_c = sum(coords)
    sup_c = sup_d = float("-inf")
    for (kind, idx), positions in space.cells_of_type.items():
        t = space.pop.get_type(kind, idx)
        if any(coords[k] > 0 for k in positions):
            sup_c = max(sup_c, t.cooperator_utility(n_c))
        if any(coords[k] < space.caps[k] for k in positions):
            sup_d = max(sup_d, t.defector_utility(n_c))
    return sup_c, sup_d


def reference_top_utilities(space, ranges, n_c):
    """`CellSpace.top_utilities` by enumeration: the `reference_sups` of
    every state with n_c cooperators and cell k's count in ranges[k], listed
    by `fills` over the cells whose range holds more than one count."""
    base = [lo if lo == hi else 0 for lo, hi in ranges]
    free = [k for k, (lo, hi) in enumerate(ranges) if lo < hi]
    for coords in space.fills(base, free, n_c - sum(base)):
        if all(lo <= v <= hi for v, (lo, hi) in zip(coords, ranges)):
            yield reference_sups(space, coords)


def reference_next(space, coords, k, current):
    """Next strategy of an active `current` player of cell k, from the temper
    (best responders) or the `Fraction` utilities (imitators)."""
    cell = space.cells[k]
    if cell.role == BEST_RESPONDER:
        tau = space.pop.get_type(cell.kind, cell.type_index).temper
        return best_response_next(cell.kind, tau, current, sum(coords))
    sup_c, sup_d = reference_sups(space, coords)
    return "C" if sup_c > sup_d else "D" if sup_c < sup_d else current


def reference_step(space, coords, k, current):
    """The refined state after an active `current` player of cell k moves."""
    new = reference_next(space, coords, k, current)
    if new == current:
        return tuple(coords)
    out = list(coords)
    out[k] += 1 if new == "C" else -1
    return tuple(out)


def x_membership_mask(graph: TransitionDigraph, idx: BenchmarkIndex) -> np.ndarray:
    """X membership over all refined states of the oracle digraph."""
    idx.check(graph.pop)
    mask = np.ones(graph.n_states, dtype=bool)
    for k, count in _fixed_cells(graph.space, idx).items():
        mask &= graph.coords[k] == count
    return mask


def s_membership_mask(graph: TransitionDigraph, idx: BenchmarkIndex,
                      x_mask: np.ndarray | None = None) -> np.ndarray:
    """X membership (`x_mask` when already computed) within the open temper window."""
    if x_mask is None:
        x_mask = x_membership_mask(graph, idx)
    lo = math.floor(tau_max(graph.pop, idx)) + 1
    hi = math.ceil(tau_min(graph.pop, idx)) - 1
    return x_mask & (graph.n_c >= lo) & (graph.n_c <= hi)


def is_closed_under_step(graph: TransitionDigraph, mask: np.ndarray) -> bool:
    """True iff no one-step transition leaves the masked set.

    Each edge moves one cell by one agent, so a member whose cell k can move
    down (up) must have its neighbour at -stride_k (+stride_k) in the set.
    """
    rows = np.flatnonzero(mask)
    moves = graph.moves[rows]
    for step, bit in zip(graph.steps, graph.bits):
        if not mask[rows[(moves & bit) != 0] + step].all():
            return False
    return True
