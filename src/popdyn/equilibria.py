"""Closed-form equilibrium enumeration and stability classification.

Candidate states have the benchmark form (r cooperating imitators, the first
j1 nonconformist types and first j1' conformist types fully cooperating, all
other best-responders defecting). A candidate is an equilibrium iff the
cooperator count sits strictly between the right tempers and the top
cooperator / top defector payoffs compare the right way; stability tightens
the temper margins by one and extends the payoff comparison to the three
cooperator counts around the equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .cells import CellSpace
from .errors import AssumptionViolated
from .model import ANTICOORDINATING, PopulationSpec, State

NEG_INF = float("-inf")
Sup = Union[Fraction, float]

STABLE = "stable"
UNSTABLE = "unstable"
SPECIAL_CASE = "special_case"

DEFECTION = "defection"
COOPERATION = "cooperation"
MIXED = "mixed"


@dataclass(frozen=True)
class CandidateIndex:
    r: int
    j1: int
    j1p: int


@dataclass(frozen=True)
class StabilityVerdict:
    status: str
    failed_clause: str | None = None
    details: dict | None = None

    @property
    def is_stable(self) -> bool | None:
        if self.status == STABLE:
            return True
        if self.status == UNSTABLE:
            return False
        return None  # special case, deferred to the oracle


@dataclass(frozen=True)
class EquilibriumRecord:
    candidate: CandidateIndex
    state: State
    n_c: int
    kind: str


def sup_C(pop: PopulationSpec, j: int, k: int, n_c: int) -> Sup:
    """Top cooperator payoff over nonconformist types 1..j and conformist 1..k."""
    best: Sup = NEG_INF
    for i in range(1, j + 1):
        v = pop.type_a(i).cooperator_utility(n_c)
        if v > best:
            best = v
    for i in range(1, k + 1):
        v = pop.type_c(i).cooperator_utility(n_c)
        if v > best:
            best = v
    return best


def sup_D(pop: PopulationSpec, j: int, k: int, n_c: int) -> Sup:
    """Top defector payoff over nonconformist types j..b and conformist k..b'."""
    best: Sup = NEG_INF
    for i in range(max(j, 1), pop.b + 1):
        v = pop.type_a(i).defector_utility(n_c)
        if v > best:
            best = v
    for i in range(max(k, 1), pop.bp + 1):
        v = pop.type_c(i).defector_utility(n_c)
        if v > best:
            best = v
    return best


def candidate_state(pop: PopulationSpec, r: int, j1: int, j1p: int) -> State:
    xa = tuple(pop.n_a(i) if i <= j1 else 0 for i in range(1, pop.b + 1))
    xc = tuple(pop.n_c(i) if i <= j1p else 0 for i in range(1, pop.bp + 1))
    return State(r, xa, xc)


def candidate_cooperators(pop: PopulationSpec, r: int, j1: int, j1p: int) -> int:
    return (
        r
        + sum(pop.n_a(i) for i in range(1, j1 + 1))
        + sum(pop.n_c(i) for i in range(1, j1p + 1))
    )


def _temper_brackets(pop: PopulationSpec, j1: int, j1p: int, n: int, margin: int) -> bool:
    return (
        pop.tau_a(j1 + 1) + margin < n < pop.tau_a(j1) - margin
        and pop.tau_c(j1p) + margin < n < pop.tau_c(j1p + 1) - margin
    )


def enumerate_equilibria(pop: PopulationSpec) -> list[EquilibriumRecord]:
    """All equilibria, by exhaustive check of every candidate (r, j1, j1')."""
    out: list[EquilibriumRecord] = []
    m = pop.m
    for r in range(m + 1):
        for j1 in range(pop.b + 1):
            for j1p in range(pop.bp + 1):
                n = candidate_cooperators(pop, r, j1, j1p)
                if not _temper_brackets(pop, j1, j1p, n, margin=0):
                    continue
                c_val = sup_C(pop, j1, j1p, n)
                d_val = sup_D(pop, j1 + 1, j1p + 1, n)
                if r > 0 and not c_val >= d_val:
                    continue
                if r < m and not c_val <= d_val:
                    continue
                kind = DEFECTION if r == 0 else COOPERATION if r == m else MIXED
                out.append(
                    EquilibriumRecord(
                        candidate=CandidateIndex(r, j1, j1p),
                        state=candidate_state(pop, r, j1, j1p),
                        n_c=n,
                        kind=kind,
                    )
                )
    return out


def check_lemma_assumptions(pop: PopulationSpec) -> None:
    """Blanket counts the three-point payoff comparisons lean on."""
    if pop.m < 1:
        raise AssumptionViolated("stability conditions assume m >= 1")
    for i in range(1, pop.b + 1):
        if pop.n_a(i) < 2:
            raise AssumptionViolated(f"stability conditions assume n_{i}^a >= 2")
    for i in range(1, pop.bp + 1):
        if pop.n_c(i) < 2:
            raise AssumptionViolated(f"stability conditions assume n_{i}^c >= 2")


def _violated_margins(pop: PopulationSpec, r: int, j1: int, j1p: int, n: int) -> list[str]:
    out = []
    if not n < pop.tau_a(j1) - 1:
        out.append("a_upper")
    if not n > pop.tau_a(j1 + 1) + 1:
        out.append("a_lower")
    if not n < pop.tau_c(j1p + 1) - 1:
        out.append("c_upper")
    if not n > pop.tau_c(j1p) + 1:
        out.append("c_lower")
    return out


def _margin_escape_realizable(pop: PopulationSpec, r: int, j1: int, j1p: int, side: str) -> bool:
    """Can the two-step escape behind a violated margin actually be staged?

    Each violated margin is escaped by flipping one agent toward the boundary
    side and then activating a member of the boundary type, so it needs a
    flip source and a surviving activator.
    """
    coop_members = candidate_cooperators(pop, r, j1, j1p)
    defect_members = pop.n - coop_members
    if side == "a_upper":  # a cooperating type-j1 nonconformist defects at n+1
        return j1 >= 1 and defect_members >= 1
    if side == "a_lower":  # a defecting type-(j1+1) nonconformist cooperates at n-1
        return j1 + 1 <= pop.b and coop_members >= 1
    if side == "c_upper":  # a defecting type-(j1p+1) conformist cooperates at n+1
        if j1p + 1 > pop.bp:
            return False
        boundary = pop.n_c(j1p + 1)
        return defect_members - boundary >= 1 or boundary >= 2
    if side == "c_lower":  # a cooperating type-j1p conformist defects at n-1
        if j1p < 1:
            return False
        boundary = pop.n_c(j1p)
        return coop_members - boundary >= 1 or boundary >= 2
    raise ValueError(side)


def classify_stability(pop: PopulationSpec, rec: EquilibriumRecord) -> StabilityVerdict:
    """Stability of an enumerated equilibrium from the closed-form conditions.

    The all-defect and all-cooperate corner candidates have their own one-line
    conditions; the all-cooperate one is ambiguous in its source, so both
    readings are reported and the verdict defers to the reachability oracle.
    Raises AssumptionViolated when the population counts fall below what the
    conditions assume; the caller should then fall back to the oracle.
    """
    r, j1, j1p = rec.candidate.r, rec.candidate.j1, rec.candidate.j1p
    n = rec.n_c

    if (r, j1, j1p) == (pop.m, pop.b, pop.bp):
        # the all-cooperate corner's one-line condition has an ambiguous type
        # subscript in its source; report both readings, defer to the oracle
        reading_last_conformist = pop.n > pop.tau_c(pop.bp) + 1
        reading_literal = pop.n > pop.tau_c(pop.b) + 1 if pop.b <= pop.bp else None
        return StabilityVerdict(
            status=SPECIAL_CASE,
            details={
                "deferred_to": "oracle",
                "reading_n_gt_tau_c_bprime_plus_1": reading_last_conformist,
                "reading_n_gt_tau_c_b_plus_1": reading_literal,
            },
        )

    if pop.m < 1:
        raise AssumptionViolated("stability conditions assume m >= 1")

    if (r, j1, j1p) == (0, 0, 0):
        # all-defect corner: one deviation puts the count at 1, so the first
        # conformist temper decides, provided no lone-member type could hand
        # the top payoff to a solitary cooperator
        if not pop.tau_c(1) > 1:
            return StabilityVerdict(status=UNSTABLE, failed_clause="all_defect_needs_tau_c1_above_1")
        types = list(pop.typed())
        for kind, idx_t, t in types:
            if t.count == 1:
                rivals = [
                    o.defector_utility(1)
                    for k2, i2, o in types
                    if (k2, i2) != (kind, idx_t)
                ]
                if not rivals or not t.cooperator_utility(1) <= max(rivals):
                    raise AssumptionViolated(
                        f"lone {kind} type {idx_t} could top the payoffs alone; "
                        "the corner condition cannot decide stability"
                    )
        return StabilityVerdict(status=STABLE)

    violated = _violated_margins(pop, r, j1, j1p, n)
    for side in violated:
        if _margin_escape_realizable(pop, r, j1, j1p, side):
            return StabilityVerdict(status=UNSTABLE, failed_clause=f"temper_margin_{side}")
    if violated:
        # a margin fails on paper but the population is too thin to stage
        # the escape; the closed form cannot decide this
        raise AssumptionViolated(
            f"margin violated on {violated} but no escape is realizable at these counts"
        )

    check_lemma_assumptions(pop)
    for n_c in (n - 1, n, n + 1):
        c_val = sup_C(pop, j1, j1p, n_c)
        d_val = sup_D(pop, j1 + 1, j1p + 1, n_c)
        if r < pop.m and not c_val <= d_val:
            return StabilityVerdict(status=UNSTABLE, failed_clause=f"top_cooperator_overtakes_at_{n_c}")
        if r > 0 and not c_val >= d_val:
            return StabilityVerdict(status=UNSTABLE, failed_clause=f"top_defector_overtakes_at_{n_c}")
    return StabilityVerdict(status=STABLE)


def is_exclusive_cooperation_preserving(pop: PopulationSpec, state: State) -> bool:
    """Would exactly this cooperator set sustain itself, with no outsider joining?

    Holds iff every cooperating best-responder keeps cooperating at this
    count, no defecting best-responder tends to cooperate, a group member is
    a top earner whenever the group contains an imitator, and an outsider is
    a top earner whenever some imitator is outside. Quantified over every way
    of splitting the pooled imitator count across imitator groups, through
    the presence patterns of those splits (`CellSpace.top_utilities`).
    """
    pop.check_state(state)
    n = state.n_cooperators
    for (kind, _, t), x in zip(pop.typed(), state.xa + state.xc):
        # best responders cooperate below an anticoordinating temper, above a coordinating one
        cooperates = (n < t.temper) == (kind == ANTICOORDINATING)
        if (x >= 1 and not cooperates) or (x < t.best_responders and cooperates):
            return False
    # the splits fix every best-responder cell and share xI among the imitator cells
    space = CellSpace(pop)
    ranges = [(0, cap) if k in space.imitator_positions else (v, v)
              for k, (v, cap) in enumerate(zip(space.fill_refine(state), space.caps))]
    for sup_coop, sup_def in space.top_utilities(ranges, n):
        if state.xI >= 1 and not sup_coop >= sup_def:
            return False
        if state.xI < pop.m and not sup_def >= sup_coop:
            return False
    return True


def equilibria_report(pop: PopulationSpec,
                      records: Iterable[EquilibriumRecord] | None = None) -> dict:
    """JSON-ready report: records with candidate indices, counts, verdicts."""
    if records is None:
        records = enumerate_equilibria(pop)
    entries = []
    for rec in records:
        r, j1, j1p = rec.candidate.r, rec.candidate.j1, rec.candidate.j1p
        c_val = sup_C(pop, j1, j1p, rec.n_c)
        d_val = sup_D(pop, j1 + 1, j1p + 1, rec.n_c)
        entry = {
            "candidate": {"r": r, "j1": j1, "j1p": j1p},
            "state": list(rec.state.to_tuple()),
            "nC": rec.n_c,
            "kind": rec.kind,
            "conditions": {
                "temper_window": _temper_brackets(pop, j1, j1p, rec.n_c, margin=0),
                "top_cooperator_ok": (not r > 0) or c_val >= d_val,
                "top_defector_ok": (not r < pop.m) or c_val <= d_val,
            },
        }
        try:
            verdict = classify_stability(pop, rec)
        except AssumptionViolated as exc:
            entry["stability"] = {"status": "assumption_violated", "reason": str(exc)}
        else:
            entry["stability"] = {
                "status": verdict.status,
                "failed_clause": verdict.failed_clause,
                "details": verdict.details,
            }
        entries.append(entry)
    return {"equilibria": entries, "count": len(entries)}
