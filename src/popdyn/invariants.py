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

The oracle's side of the X and S verdicts visits their members only. X fixes
some best-responder cells and leaves the rest free, so its members are a
constant offset plus a mixed-radix sub-grid of the free cells, walked in
blocks (`member_blocks`); S is the same walk cut to its cooperator window.
A move changes one cell by one agent, so `is_closed_on_members` reads three
bit masks of the moves at each block: the fixed cells' moves, and for S the
moves down at the window's lowest count and up at its highest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

import numpy as np

from .cells import BEST_RESPONDER, CellSpace
from .errors import EmptySet
from .model import ANTICOORDINATING, PopulationSpec, State
from .oracle import InvariantSetResult, TransitionDigraph


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
    return (tau_max(pop, idx) < _fixed_coop_sum(pop, idx)
            and _free_max_sum(pop, idx) < tau_min(pop, idx))


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


def _fixed_cells(space: CellSpace, idx: BenchmarkIndex) -> dict[int, int]:
    """The best-responder cells that X fixes, each with its cooperator count."""
    fixed = {}
    for k, cell in enumerate(space.cells):
        if cell.role != BEST_RESPONDER:
            continue
        j_coop, j_def = (idx.j1, idx.j2) if cell.kind == ANTICOORDINATING else (idx.j1p, idx.j2p)
        if cell.type_index <= j_coop:
            fixed[k] = cell.capacity
        elif cell.type_index >= j_def:
            fixed[k] = 0
    return fixed


def is_invariant_S(pop: PopulationSpec, idx: BenchmarkIndex) -> bool:
    """Closed-form invariance of S (raises EmptySet when S has no states).

    Each side short-circuits when the attainable extreme of the cooperator
    count inside X already respects the temper window; otherwise the extreme
    count must bracket between the adjacent wandering tempers and the right
    side must hold a top earner at every state realizing that count in which
    an imitator could actually move the count the wrong way. The verdict
    matches the exhaustive one-step closure exactly (tested against the
    oracle), including populations where some types carry no imitators.
    """
    return s_invariance_details(pop, idx)["invariant"]


def s_invariance_details(pop: PopulationSpec, idx: BenchmarkIndex) -> dict:
    """`is_invariant_S` with the outcome of each test it made."""
    idx.check(pop)
    lo, hi = s_cooperator_range(pop, idx)
    if lo > hi:
        raise EmptySet(f"S_{(idx.j1, idx.j2, idx.j2p, idx.j1p)} is empty")
    ceil_max, floor_min = math.ceil(tau_max(pop, idx)), math.floor(tau_min(pop, idx))
    details: dict = {}
    space = CellSpace(pop)
    fixed = _fixed_cells(space, idx)
    box = [(fixed[k],) * 2 if k in fixed else (0, cap) for k, cap in enumerate(space.caps)]

    def top_earner_everywhere(n_c: int, coop_side: bool) -> bool:
        # the S states at n_c with an imitator on `coop_side`: that imitator's
        # cell narrows its range by one
        for k in space.imitator_positions:
            ranges = box.copy()
            ranges[k] = (1, space.caps[k]) if coop_side else (0, space.caps[k] - 1)
            for sup_c, sup_d in space.top_utilities(ranges, n_c):
                if (sup_c < sup_d) if coop_side else (sup_d < sup_c):
                    return False
        return True

    # the short-circuit arms are the attainable extremes of n^C inside X:
    # the fixed cooperators from below, imitators plus everyone left of the
    # defector blocks from above
    low_ok = details["low_pinned_by_fixed_cooperators"] = _fixed_coop_sum(pop, idx) >= ceil_max
    if not low_ok:
        details["low_temper_bracket"] = pop.tau_c(idx.j2p - 1) < ceil_max < pop.tau_a(idx.j2 - 1)
        if details["low_temper_bracket"]:
            # only a cooperating imitator can pull the count below the floor
            low_ok = details["cooperator_top_at_min"] = top_earner_everywhere(ceil_max, True)

    high_ok = details["high_pinned_by_population"] = _free_max_sum(pop, idx) <= floor_min
    if not high_ok:
        details["high_temper_bracket"] = pop.tau_a(idx.j1 + 1) < floor_min < pop.tau_c(idx.j1p + 1)
        if details["high_temper_bracket"]:
            high_ok = details["defector_top_at_max"] = top_earner_everywhere(floor_min, False)

    details["invariant"] = low_ok and high_ok
    return details


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


_MEMBER_BLOCK = 1 << 16  # the most states in one block of `member_blocks`


def member_blocks(space: CellSpace, idx: BenchmarkIndex,
                  window: tuple[int, int] | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The members of X, or with `window` = (lo, hi) of S, as blocks of
    (indices, cooperator counts), each block sorted by count.

    X fixes some best-responder cells (`_fixed_cells`) and leaves the others
    free, so its members are a constant offset plus a mixed-radix sub-grid over
    the free cells' strides. The free cells of smallest stride span an inner
    grid of at most `_MEMBER_BLOCK` states, built once and sorted by count;
    each combination of the other free cells shifts it by its offset and
    count. S keeps, of each shift, the one run of the inner grid whose count
    falls in [lo, hi]. No array as long as the state space is built.
    """
    idx.check(space.pop)
    fixed = _fixed_cells(space, idx)
    free = [k for k in reversed(range(len(space.cells))) if k not in fixed and space.caps[k]]
    inner_index = inner_count = np.zeros(1, dtype=np.int64)
    while free and inner_index.size * (space.caps[free[0]] + 1) <= _MEMBER_BLOCK:
        k = free.pop(0)
        digits = np.arange(space.caps[k] + 1)
        inner_index = (inner_index[:, None] + digits * space.strides[k]).ravel()
        inner_count = (inner_count[:, None] + digits).ravel()
    # a stable sort of a narrow integer type is a radix sort
    order = np.argsort(inner_count.astype(np.min_scalar_type(space.pop.n)), kind="stable")
    inner_index, inner_count = inner_index[order], inner_count[order]
    lo, hi = window or (0, space.pop.n)
    offset = sum(count * space.strides[k] for k, count in fixed.items())
    fixed_count = sum(fixed.values())
    # the outer cells, the one of smallest stride varying fastest
    for digits in product(*(range(space.caps[k] + 1) for k in reversed(free))):
        start = offset + sum(v * space.strides[k] for v, k in zip(digits, reversed(free)))
        count = fixed_count + sum(digits)
        a, b = np.searchsorted(inner_count, (lo - count, hi - count + 1))
        if a < b:
            yield start + inner_index[a:b], count + inner_count[a:b]


def _leaving_bits(space: CellSpace, idx: BenchmarkIndex) -> tuple[int, int, int]:
    """The move bits of the fixed cells, and of every cell's moves down and up."""
    fixed = sum(3 << 2 * k for k in _fixed_cells(space, idx))
    down = sum(1 << 2 * k for k in range(len(space.cells)))
    return fixed, down, down << 1


def is_closed_on_members(graph: TransitionDigraph, idx: BenchmarkIndex,
                         window: tuple[int, int] | None = None) -> bool:
    """True iff no one-step transition of the oracle leaves X, or with
    `window` = `s_cooperator_range` S, read from the move bits at its members.

    A move changes one cell by one agent. So a member leaves X exactly when a
    fixed cell has a move bit set, and leaves S by such a move or by any move
    down at count lo or up at count hi. Returns at the first block that leaves.
    """
    fixed, down, up = _leaving_bits(graph.space, idx)
    for members, counts in member_blocks(graph.space, idx, window):
        moves = graph.moves[members]
        if np.bitwise_or.reduce(moves) & fixed:
            return False
        if window is not None:
            at_lo = np.searchsorted(counts, window[0], side="right")
            at_hi = np.searchsorted(counts, window[1])
            if (np.bitwise_or.reduce(moves[:at_lo]) & down
                    or np.bitwise_or.reduce(moves[at_hi:]) & up):
                return False
    return True


def in_x(space: CellSpace, idx: BenchmarkIndex, indices: np.ndarray) -> np.ndarray:
    """Whether each state of `indices` lies in X, from its fixed cells' digits."""
    inside = np.ones(len(indices), dtype=bool)
    for k, count in _fixed_cells(space, idx).items():
        inside &= indices // space.strides[k] % (space.caps[k] + 1) == count
    return inside


def verify_necessary_conditions(pop: PopulationSpec, inv_set: InvariantSetResult) -> dict:
    """Check every necessary condition against an oracle minimal invariant set.

    Returns a report dict; `all_pass` False would falsify the implementation,
    not the input.
    """
    if inv_set.is_singleton:
        raise ValueError("necessary-condition checks apply to non-singleton sets")
    s_min, l_max = inv_set.cooperator_bounds
    xi = benchmark_types_from_bounds(pop, s_min, l_max)
    report: dict = {
        "benchmarks": {"j1": xi.j1, "j2": xi.j2, "j2p": xi.j2p, "j1p": xi.j1p},
        "cooperator_bounds": [s_min, l_max],
    }

    pooled = sorted(inv_set.states, key=State.to_tuple)

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


def invariance_report(pop: PopulationSpec) -> dict:
    """Per-benchmark-index verdicts for the X and S families."""
    entries = []
    for idx in all_benchmark_indices(pop):
        entry: dict = {"idx": [idx.j1, idx.j2, idx.j2p, idx.j1p]}
        lo, hi = s_cooperator_range(pop, idx)
        entry["X_invariant"] = is_invariant_X(pop, idx)
        entry["S_nonemptiness_conditions"] = list(s_nonemptiness_conditions(pop, idx))
        entry["S_empty"] = lo > hi
        if lo <= hi:
            details = s_invariance_details(pop, idx)
            entry["S_invariant"] = details.pop("invariant")
            entry["S_details"] = details
        entries.append(entry)
    return {"benchmark_sets": entries}


def s_verdicts(report: dict) -> dict[BenchmarkIndex, bool]:
    """The S invariance verdicts of an `invariance_report`, by index; an
    index whose S is empty has none."""
    return {BenchmarkIndex(*entry["idx"]): entry["S_invariant"]
            for entry in report["benchmark_sets"] if not entry["S_empty"]}
