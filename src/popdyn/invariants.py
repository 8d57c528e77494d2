"""Analytic machinery around positively invariant sets.

Three nested set families over the state space, indexed by benchmark types
(j1, j2, j2', j1') that split best-responders into fixed cooperators, fixed
defectors, and wandering agents:

  X: the fixed agents play their assigned strategies, everyone else is free;
  S: X restricted to cooperator counts strictly between the pivotal tempers;
  I: S-like with ordered partial-sum constraints on wandering nonconformists.

Invariance of X and S is decidable in closed form; every minimal invariant
set found by the oracle must satisfy the necessary conditions checked by
`verify_necessary_conditions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .cells import BEST_RESPONDER, IMITATOR, CellSpace
from .errors import EmptySet, StateSpaceTooLarge
from .model import ANTICOORDINATING, PopulationSpec, State
from .oracle import InvariantSetResult, TransitionDigraph, resolve_max_states


@dataclass(frozen=True)
class BenchmarkIndex:
    """(j1, j2, j2p, j1p): boundaries of the fixed cooperator/defector blocks."""

    j1: int
    j2: int
    j2p: int
    j1p: int

    def check(self, pop: PopulationSpec) -> None:
        if not (0 <= self.j1 <= pop.b and self.j1 + 1 <= self.j2 <= pop.b + 1):
            raise ValueError(f"bad nonconformist benchmarks {self.j1}, {self.j2}")
        if not (0 <= self.j1p <= pop.bp and self.j1p + 1 <= self.j2p <= pop.bp + 1):
            raise ValueError(f"bad conformist benchmarks {self.j1p}, {self.j2p}")


def all_benchmark_indices(pop: PopulationSpec) -> Iterator[BenchmarkIndex]:
    for j1 in range(pop.b + 1):
        for j2 in range(j1 + 1, pop.b + 2):
            for j1p in range(pop.bp + 1):
                for j2p in range(j1p + 1, pop.bp + 2):
                    yield BenchmarkIndex(j1, j2, j2p, j1p)


def benchmark_types_from_bounds(pop: PopulationSpec, s_min: int, l_max: int) -> BenchmarkIndex:
    """Benchmarks forced by a fluctuation interval [s_min, l_max]."""
    if not 0 <= s_min <= l_max <= pop.n:
        raise ValueError("need 0 <= S <= L <= n")
    xi1 = max(j for j in range(pop.b + 2) if pop.tau_a(j) > l_max)
    xi2 = min(j for j in range(pop.b + 2) if pop.tau_a(j) < s_min)
    xi2p = min(j for j in range(pop.bp + 2) if pop.tau_c(j) > l_max)
    xi1p = max(j for j in range(pop.bp + 2) if pop.tau_c(j) < s_min)
    return BenchmarkIndex(xi1, xi2, xi2p, xi1p)


def tau_max(pop: PopulationSpec, idx: BenchmarkIndex) -> Fraction:
    return max(pop.tau_a(idx.j2), pop.tau_c(idx.j1p))


def tau_min(pop: PopulationSpec, idx: BenchmarkIndex) -> Fraction:
    return min(pop.tau_a(idx.j1), pop.tau_c(idx.j2p))


def _fixed_coop_sum(pop: PopulationSpec, idx: BenchmarkIndex) -> int:
    return sum(pop.n_a(i) for i in range(1, idx.j1 + 1)) + sum(
        pop.n_c(i) for i in range(1, idx.j1p + 1)
    )


def _free_max_sum(pop: PopulationSpec, idx: BenchmarkIndex) -> int:
    """Largest cooperator count in X: imitators plus everyone left of j2/j2'."""
    return (
        pop.m
        + sum(pop.n_a(i) for i in range(1, idx.j2))
        + sum(pop.n_c(i) for i in range(1, idx.j2p))
    )


def membership_X(pop: PopulationSpec, idx: BenchmarkIndex, state: State) -> bool:
    idx.check(pop)
    pop.check_state(state)
    for i in range(1, pop.b + 1):
        if i <= idx.j1 and state.xa[i - 1] != pop.n_a(i):
            return False
        if i >= idx.j2 and state.xa[i - 1] != 0:
            return False
    for i in range(1, pop.bp + 1):
        if i <= idx.j1p and state.xc[i - 1] != pop.n_c(i):
            return False
        if i >= idx.j2p and state.xc[i - 1] != 0:
            return False
    return True


def is_invariant_X(pop: PopulationSpec, idx: BenchmarkIndex) -> bool:
    """Closed-form invariance of X: no fixed best-responder ever switches."""
    idx.check(pop)
    return (
        tau_max(pop, idx) < _fixed_coop_sum(pop, idx)
        and pop.m
        + sum(pop.n_a(i) for i in range(1, idx.j2))
        + sum(pop.n_c(i) for i in range(1, idx.j2p))
        < tau_min(pop, idx)
    )


def membership_S(pop: PopulationSpec, idx: BenchmarkIndex, state: State) -> bool:
    return membership_X(pop, idx, state) and tau_max(pop, idx) < state.n_cooperators < tau_min(
        pop, idx
    )


def s_nonemptiness_conditions(pop: PopulationSpec, idx: BenchmarkIndex) -> tuple[bool, bool]:
    """The two necessary nonemptiness inequalities for S."""
    return (
        tau_max(pop, idx) < _free_max_sum(pop, idx),
        _fixed_coop_sum(pop, idx) < tau_min(pop, idx),
    )


def s_cooperator_range(pop: PopulationSpec, idx: BenchmarkIndex) -> tuple[int, int]:
    """Realizable cooperator counts in S as an inclusive [lo, hi]; empty iff lo > hi."""
    lo = max(math.floor(tau_max(pop, idx)) + 1, _fixed_coop_sum(pop, idx))
    hi = min(math.ceil(tau_min(pop, idx)) - 1, _free_max_sum(pop, idx))
    return lo, hi


def _iter_s_states_at(pop: PopulationSpec, idx: BenchmarkIndex, target_nc: int,
                      guard: int | None = None) -> Iterator[tuple[CellSpace, tuple[int, ...]]]:
    """Refined states of S with exactly target_nc cooperators."""
    space = CellSpace(pop)
    limit = resolve_max_states(guard)
    fixed: dict[int, int] = {}
    free: list[int] = []
    for k, cell in enumerate(space.cells):
        if cell.role == IMITATOR:
            free.append(k)
        elif cell.kind == ANTICOORDINATING:
            if cell.type_index <= idx.j1:
                fixed[k] = cell.capacity
            elif cell.type_index >= idx.j2:
                fixed[k] = 0
            else:
                free.append(k)
        else:
            if cell.type_index <= idx.j1p:
                fixed[k] = cell.capacity
            elif cell.type_index >= idx.j2p:
                fixed[k] = 0
            else:
                free.append(k)

    base = [0] * len(space.cells)
    for k, v in fixed.items():
        base[k] = v
    remaining_target = target_nc - sum(fixed.values())
    if remaining_target < 0:
        return
    tail_caps = [0] * (len(free) + 1)
    for pos in range(len(free) - 1, -1, -1):
        tail_caps[pos] = tail_caps[pos + 1] + space.caps[free[pos]]

    produced = 0

    def rec(pos: int, remaining: int) -> Iterator[tuple[CellSpace, tuple[int, ...]]]:
        nonlocal produced
        if pos == len(free):
            if remaining == 0:
                produced += 1
                if produced > limit:
                    raise StateSpaceTooLarge(
                        f"more than {limit} states at one cooperator count; raise the guard"
                    )
                yield space, tuple(base)
            return
        k = free[pos]
        lo = max(0, remaining - tail_caps[pos + 1])
        hi = min(space.caps[k], remaining)
        for v in range(lo, hi + 1):
            base[k] = v
            yield from rec(pos + 1, remaining - v)
        base[k] = 0

    yield from rec(0, remaining_target)


def is_invariant_S(pop: PopulationSpec, idx: BenchmarkIndex, guard: int | None = None) -> bool:
    """Closed-form invariance of S (raises EmptySet when S has no states).

    Each side short-circuits when the attainable extreme of the cooperator
    count inside X already respects the temper window; otherwise the extreme
    count must bracket between the adjacent wandering tempers and the right
    side must hold a top earner at every state realizing that count in which
    an imitator could actually move the count the wrong way. The verdict
    matches the exhaustive one-step closure exactly (tested against the
    oracle), including populations where some types carry no imitators.
    """
    details = s_invariance_details(pop, idx, guard)
    return details["invariant"]


def s_invariance_details(pop: PopulationSpec, idx: BenchmarkIndex, guard: int | None = None) -> dict:
    idx.check(pop)
    lo, hi = s_cooperator_range(pop, idx)
    if lo > hi:
        raise EmptySet(f"S_{(idx.j1, idx.j2, idx.j2p, idx.j1p)} is empty")
    t_max = tau_max(pop, idx)
    t_min = tau_min(pop, idx)
    ceil_max = math.ceil(t_max)
    floor_min = math.floor(t_min)

    details: dict = {"idx": idx, "invariant": None}

    # the short-circuit arms are the attainable extremes of n^C inside X:
    # the fixed cooperators from below, imitators plus everyone left of the
    # defector blocks from above
    low_pinned = _fixed_coop_sum(pop, idx) >= ceil_max
    details["low_pinned_by_fixed_cooperators"] = low_pinned
    if low_pinned:
        low_ok = True
    else:
        brackets = pop.tau_c(idx.j2p - 1) < ceil_max < pop.tau_a(idx.j2 - 1)
        details["low_temper_bracket"] = brackets
        if brackets:
            # only a cooperating imitator can pull the count below the floor,
            # so the top-earner test quantifies over states that have one
            earner = all(
                _coop_among_top(space, coords)
                for space, coords in _iter_s_states_at(pop, idx, ceil_max, guard)
                if any(coords[k] >= 1 for k in space.imitator_positions)
            )
            details["cooperator_top_at_min"] = earner
            low_ok = earner
        else:
            low_ok = False

    high_pinned = _free_max_sum(pop, idx) <= floor_min
    details["high_pinned_by_population"] = high_pinned
    if high_pinned:
        high_ok = True
    else:
        brackets = pop.tau_a(idx.j1 + 1) < floor_min < pop.tau_c(idx.j1p + 1)
        details["high_temper_bracket"] = brackets
        if brackets:
            earner = all(
                _def_among_top(space, coords)
                for space, coords in _iter_s_states_at(pop, idx, floor_min, guard)
                if any(coords[k] < space.caps[k] for k in space.imitator_positions)
            )
            details["defector_top_at_max"] = earner
            high_ok = earner
        else:
            high_ok = False

    details["invariant"] = low_ok and high_ok
    return details


def _coop_among_top(space: CellSpace, coords) -> bool:
    sup_c, sup_d = space.imitation_sups(coords)
    return sup_c >= sup_d


def _def_among_top(space: CellSpace, coords) -> bool:
    sup_c, sup_d = space.imitation_sups(coords)
    return sup_d >= sup_c


def membership_I(pop: PopulationSpec, idx: BenchmarkIndex, state: State) -> bool:
    """Ordered partial sums of wandering nonconformists stay within the tempers."""
    if not membership_X(pop, idx, state):
        return False
    coop_c_low = sum(pop.n_c(i) for i in range(1, idx.j1p + 1))
    coop_c_high = sum(pop.n_c(i) for i in range(1, idx.j2p))
    coop_a = sum(pop.n_a(i) for i in range(1, idx.j1 + 1))
    for i in range(idx.j1 + 1, idx.j2):
        tau_i = pop.tau_a(i)
        upper = coop_c_low + coop_a + sum(state.xa[k - 1] for k in range(i, idx.j2))
        if not upper <= math.ceil(tau_i):
            return False
        lower = (
            pop.m
            + coop_c_high
            + coop_a
            + sum(state.xa[k - 1] for k in range(idx.j1 + 1, i + 1))
            + sum(pop.n_a(k) for k in range(i + 1, idx.j2))
        )
        if not lower >= math.floor(tau_i):
            return False
    return True


# -- oracle-facing sweeps -----------------------------------------------------


def x_membership_mask(graph: TransitionDigraph, idx: BenchmarkIndex) -> np.ndarray:
    """Vectorized X membership over all refined states of the oracle digraph."""
    idx.check(graph.pop)
    space = graph.space
    mask = np.ones(graph.n_states, dtype=bool)
    for cell, cap, column in zip(space.cells, space.caps, graph.coords):
        if cell.role != BEST_RESPONDER:
            continue
        j_coop, j_def = (idx.j1, idx.j2) if cell.kind == ANTICOORDINATING else (idx.j1p, idx.j2p)
        if cell.type_index <= j_coop:
            mask &= column == cap
        elif cell.type_index >= j_def:
            mask &= column == 0
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


def verify_necessary_conditions(pop: PopulationSpec, inv_set: InvariantSetResult,
                                graph: TransitionDigraph) -> dict:
    """Check every necessary condition against an oracle minimal invariant set.

    Returns a report dict; `all_pass` False would falsify the implementation,
    not the input.
    """
    if inv_set.is_singleton:
        raise ValueError("necessary-condition checks apply to non-singleton sets")
    space = graph.space
    s_min, l_max = inv_set.cooperator_bounds
    xi = benchmark_types_from_bounds(pop, s_min, l_max)
    report: dict = {
        "benchmarks": {"j1": xi.j1, "j2": xi.j2, "j2p": xi.j2p, "j1p": xi.j1p},
        "cooperator_bounds": [s_min, l_max],
    }

    pooled = [space.pooled(space.coords_of(int(i))) for i in inv_set.indices]

    contained_x = all(membership_X(pop, xi, st) for st in pooled)
    report["contained_in_X"] = contained_x

    wandering_c = range(xi.j1p + 1, xi.j2p)
    conformists_defect_at_min = True
    conformists_cooperate_at_max = True
    witness_min = witness_max = None
    for st in pooled:
        if st.n_cooperators == s_min:
            if any(st.xc[i - 1] != 0 for i in wandering_c):
                conformists_defect_at_min = False
                witness_min = st.to_tuple()
        if st.n_cooperators == l_max:
            if any(st.xc[i - 1] != pop.n_c(i) for i in wandering_c):
                conformists_cooperate_at_max = False
                witness_max = st.to_tuple()
    report["wandering_conformists_defect_at_min"] = conformists_defect_at_min
    report["wandering_conformists_cooperate_at_max"] = conformists_cooperate_at_max
    if witness_min:
        report["witness_min"] = list(witness_min)
    if witness_max:
        report["witness_max"] = list(witness_max)

    wander_ok = True
    per_type = {}
    for i in range(xi.j1 + 1, xi.j2):
        values = {st.xa[i - 1] for st in pooled}
        entry = {
            "takes_two_values": len(values) >= 2,
            "sometimes_cooperates": max(values) > 0,
            "sometimes_defects": min(values) < pop.n_a(i),
        }
        per_type[i] = entry
        wander_ok = wander_ok and all(entry.values())
    report["wandering_nonconformists"] = per_type
    report["wandering_nonconformists_ok"] = wander_ok

    contained_i = all(membership_I(pop, xi, st) for st in pooled)
    report["contained_in_I"] = contained_i

    report["all_pass"] = (
        contained_x
        and conformists_defect_at_min
        and conformists_cooperate_at_max
        and wander_ok
        and contained_i
    )
    return report


def invariance_report(pop: PopulationSpec, guard: int | None = None) -> dict:
    """Per-benchmark-index verdicts for the X and S families."""
    entries = []
    for idx in all_benchmark_indices(pop):
        entry: dict = {"idx": [idx.j1, idx.j2, idx.j2p, idx.j1p]}
        cond1, cond2 = s_nonemptiness_conditions(pop, idx)
        lo, hi = s_cooperator_range(pop, idx)
        entry["X_invariant"] = is_invariant_X(pop, idx)
        entry["S_nonemptiness_conditions"] = [cond1, cond2]
        entry["S_empty"] = lo > hi
        if lo <= hi:
            details = s_invariance_details(pop, idx, guard)
            entry["S_invariant"] = details["invariant"]
            entry["S_details"] = {
                k: v for k, v in details.items() if k not in ("idx", "invariant")
            }
        entries.append(entry)
    return {"benchmark_sets": entries}
