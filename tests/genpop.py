"""Seeded random small populations for the cross-check suites, the update
rules straight from a population's tempers and `Fraction`s as their
reference (bit by bit for the kernel's moves, and as dense ranks for its
utility ranks), the top earners of every listed state as the reference for the
top-earner test (`CellSpace.outearns`), whole-space membership masks,
decoded through the space's column builder, with a generic closure test as
the reference for the X and S checks, the dense oracle's equilibrium test and
stability search as the references for `local`'s, and a plain 0-1 search over
the perturbed chain's support as the reference for its mistake costs."""

from __future__ import annotations

import copy
import math
from collections import deque
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


def scaled_config(config, factor: int = 1) -> dict:
    """The JSON config of a fixture by name, or of a raw config, with every
    member count multiplied by `factor`."""
    raw = fixture_config(config) if isinstance(config, str) else copy.deepcopy(config)
    for group in raw["anticoordinating"] + raw["coordinating"]:
        group["bestResponders"] *= factor
        group["imitators"] *= factor
    return raw


def population(config, factor: int = 1) -> PopulationSpec:
    """A fixture by name, or a raw config, with every member count multiplied by `factor`."""
    return validate_population(scaled_config(config, factor))


def probe_population(k: int) -> PopulationSpec:
    """k anticoordinating types, type i with one best responder, one imitator
    and temper i + 1/2: the smallest population with k imitator cells."""
    return validate_population({"anticoordinating": [
        {"uC": ["-1", f"{2 * i + 1}/2"], "uD": ["0", "0"], "bestResponders": 1, "imitators": 1}
        for i in range(1, k + 1)], "coordinating": []})


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


def type_specs(pop) -> dict:
    """Each type's `AgentTypeSpec` by (kind, index), the key of `CellSpace.cells_of_type`."""
    return {(kind, idx): t for kind, idx, t in pop.typed()}


def reference_sups(space, coords):
    """(top utility of a cooperating agent, of a defecting agent) at a
    refined state, from the `Fraction`s; -inf for a side with no agent."""
    n_c = sum(coords)
    sup_c = sup_d = float("-inf")
    types = type_specs(space.pop)
    for key, positions in space.cells_of_type.items():
        t = types[key]
        if any(coords[k] > 0 for k in positions):
            sup_c = max(sup_c, t.cooperator_utility(n_c))
        if any(coords[k] < space.caps[k] for k in positions):
            sup_d = max(sup_d, t.defector_utility(n_c))
    return sup_c, sup_d


def reference_top_utilities(space, ranges, n_c):
    """The `reference_sups` of every state with n_c cooperators and cell k's
    count in ranges[k], listed cell by cell in lexicographic order."""
    least = [sum(lo for lo, _ in ranges[k:]) for k in range(len(ranges) + 1)]
    most = [sum(hi for _, hi in ranges[k:]) for k in range(len(ranges) + 1)]

    def states(coords, remaining):
        k = len(coords)
        if k == len(ranges):
            yield coords
            return
        lo, hi = ranges[k]
        for v in range(max(lo, remaining - most[k + 1]), min(hi, remaining - least[k + 1]) + 1):
            yield from states(coords + (v,), remaining - v)

    return (reference_sups(space, coords) for coords in states((), n_c))


def reference_outearns(space, ranges, n_c, side):
    """`CellSpace.outearns` by enumeration: does one of the
    `reference_top_utilities` have `side`'s top utility above the other's?"""
    own = 0 if side == C else 1
    return any(sups[own] > sups[1 - own] for sups in reference_top_utilities(space, ranges, n_c))


def reference_ranks(pop, n_c) -> list[list[int]]:
    """`CellSpace.ranks` from the `Fraction`s: each type's cooperator, then
    defector, utility at n_c, as its dense rank among all of them."""
    types = list(pop.all_types())
    values = [t.cooperator_utility(n_c) for t in types] + [t.defector_utility(n_c) for t in types]
    order = sorted(set(values))
    ranks = [order.index(v) for v in values]
    return [ranks[: len(types)], ranks[len(types) :]]


def reference_moves(space, coords) -> int:
    """`CellSpace.moves` at one refined state, bit by bit from `reference_next`."""
    moves = 0
    for k, cap in enumerate(space.caps):
        if coords[k] > 0 and reference_next(space, coords, k, C) == D:
            moves |= 1 << 2 * k
        if coords[k] < cap and reference_next(space, coords, k, D) == C:
            moves |= 1 << 2 * k + 1
    return moves


def reference_next(space, coords, k, current):
    """Next strategy of an active `current` player of cell k, from the temper
    (best responders) or the `Fraction` utilities (imitators)."""
    cell = space.cells[k]
    if cell.role == BEST_RESPONDER:
        tau = type_specs(space.pop)[cell.kind, cell.type_index].temper
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


def cell_counts(graph: TransitionDigraph, k: int) -> np.ndarray:
    """Cell k's count at every state of the oracle digraph, one byte each."""
    values = np.arange(graph.space.caps[k] + 1, dtype=np.uint8)
    return graph.space.column(k, values, 0, graph.n_states)


def cooperators(graph: TransitionDigraph) -> np.ndarray:
    """The cooperator count n_c at every state of the oracle digraph."""
    return sum((cell_counts(graph, k) for k in range(len(graph.space.cells))),
               np.zeros(graph.n_states, dtype=np.int32))


def x_membership_mask(graph: TransitionDigraph, idx: BenchmarkIndex) -> np.ndarray:
    """X membership over all refined states of the oracle digraph."""
    idx.check(graph.pop)
    mask = np.ones(graph.n_states, dtype=bool)
    for k, count in _fixed_cells(graph.space, idx).items():
        mask &= cell_counts(graph, k) == count
    return mask


def s_membership_mask(graph: TransitionDigraph, idx: BenchmarkIndex,
                      x_mask: np.ndarray | None = None) -> np.ndarray:
    """X membership (`x_mask` when already computed) within the open temper window."""
    if x_mask is None:
        x_mask = x_membership_mask(graph, idx)
    lo = math.floor(tau_max(graph.pop, idx)) + 1
    hi = math.ceil(tau_min(graph.pop, idx)) - 1
    n_c = cooperators(graph)
    return x_mask & (n_c >= lo) & (n_c <= hi)


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


def _split_indices(graph: TransitionDigraph, state) -> list[int]:
    """The refined states of a pooled state, as indices of the oracle digraph."""
    return [graph.space.index_of(c) for c in graph.space.splits_of_pooled(state)]


def dense_is_equilibrium(graph: TransitionDigraph, state) -> bool:
    """The dense oracle's equilibrium test: no refined split of the pooled
    state has a move in `graph.moves`."""
    return not graph.moves[_split_indices(graph, state)].any()


def dense_stability(graph: TransitionDigraph, eq) -> tuple[bool, list[int]]:
    """The stability search over the dense oracle, and the states it read.

    A breadth-first search over `graph.moves`, one state at a time, starts at
    the grid neighbours of eq's refined splits (the states at pooled distance
    1) and fails at the first layer that holds a state past distance 1.
    Returns the verdict and the sorted states whose moves the search read:
    every layer before the one that fails, each state once. The distance is
    read from each state's decoded coords, and the layers from Python sets,
    so that a fault in `CellSpace.pooled_columns` or `oracle.search_layers`
    shows against it.
    """
    space = graph.space
    target = (eq.xI, *eq.xa, *eq.xc)

    def far(index):
        state = space.pooled(space.coords_of(index))
        return sum(abs(a - b) for a, b in zip((state.xI, *state.xa, *state.xc), target)) > 1

    layer = set()
    for index in _split_indices(graph, eq):
        for count, cap, stride in zip(space.coords_of(index), space.caps, space.strides):
            if count > 0:
                layer.add(index - stride)
            if count < cap:
                layer.add(index + stride)
    steps = list(zip(graph.steps.tolist(), graph.bits.tolist()))
    seen, read = set(layer), []
    while layer:
        if any(map(far, layer)):
            return False, sorted(read)
        read += layer
        here = {index: int(graph.moves[index]) for index in layer}
        layer = {index + step for index, moves in here.items()
                 for step, bit in steps if moves & bit} - seen
        seen |= layer
    return True, sorted(read)


def mistake_cost(chain, sources, targets) -> int | float:
    """Fewest mistakes over paths of the perturbed chain from `sources` into
    `targets` (chain indices or BStates), math.inf when none leads there.

    A plain 0-1 breadth-first search over `chain.support`, one state at a
    time: a step the unperturbed chain takes costs 0, a tremble costs 1.
    """
    dst, mistakes = chain.support
    targets = {chain.index_of(s) for s in targets}
    queue = deque((0, chain.index_of(s)) for s in sources)
    settled = set()
    while queue:
        d, u = queue.popleft()
        if u in settled:
            continue
        if u in targets:
            return d
        settled.add(u)
        for v, c in zip(dst[u].tolist(), mistakes[u].tolist()):
            if v >= 0 and v not in settled:
                if c:
                    queue.append((d + 1, v))
                else:
                    queue.appendleft((d, v))
    return math.inf
