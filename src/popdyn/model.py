"""Domain types: payoff matrices, utility lines, typed populations, states.

All payoffs, tempers and utilities are exact rationals (`fractions.Fraction`).
Every analytic condition downstream is a strict inequality between rationals,
so nothing in this package ever compares floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

from .errors import (
    DegeneratePayoff,
    DuplicateTemper,
    EmptyPopulation,
    ImitatorWithoutMatchingType,
    IntegerTemper,
)

ANTICOORDINATING = "anticoordinating"
COORDINATING = "coordinating"
KINDS = (ANTICOORDINATING, COORDINATING)

C = "C"
D = "D"

RationalLike = Union[int, str, Fraction]


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a "p/q"/decimal string.

    Floats are accepted via their shortest repr, which matches the literal the
    user wrote in common cases; strings are the reliable encoding.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot parse rational from {value!r}")


@dataclass(frozen=True)
class PayoffMatrix:
    """2x2 payoffs: C-vs-C, C-vs-D, D-vs-C, D-vs-D."""

    R: Fraction
    S: Fraction
    T: Fraction
    P: Fraction

    def __post_init__(self):
        for name in ("R", "S", "T", "P"):
            object.__setattr__(self, name, parse_rational(getattr(self, name)))
        if self.R + self.P == self.T + self.S:
            raise DegeneratePayoff(
                f"R+P == T+S ({self.R}+{self.P} == {self.T}+{self.S}); "
                "encode the dominant-strategy agent via an explicit sentinel temper instead"
            )

    @property
    def gap(self) -> Fraction:
        """R+P-T-S; negative for anticoordination, positive for coordination games."""
        return self.R + self.P - self.T - self.S


@dataclass(frozen=True)
class UtilityLine:
    """Affine payoff in the cooperator count: value(nC) = slope*nC + intercept."""

    slope: Fraction
    intercept: Fraction

    def __post_init__(self):
        object.__setattr__(self, "slope", parse_rational(self.slope))
        object.__setattr__(self, "intercept", parse_rational(self.intercept))

    def __call__(self, n_c: int) -> Fraction:
        return self.slope * n_c + self.intercept

    @classmethod
    def cooperator(cls, matrix: PayoffMatrix, n: int) -> "UtilityLine":
        return cls(matrix.R - matrix.S, n * matrix.S)

    @classmethod
    def defector(cls, matrix: PayoffMatrix, n: int) -> "UtilityLine":
        return cls(matrix.T - matrix.P, n * matrix.P)


def temper_from_payoffs(matrix: PayoffMatrix, n: int) -> Fraction:
    """Crossing point of the two payoff-derived utility lines: n(P-S)/(R+P-S-T)."""
    if n < 1:
        raise ValueError("population size must be >= 1")
    if matrix.gap == 0:
        raise DegeneratePayoff("R+P == T+S")
    tau = Fraction(n) * (matrix.P - matrix.S) / matrix.gap
    if tau.denominator == 1:
        raise IntegerTemper(f"temper {tau} is an integer")
    return tau


@dataclass(frozen=True)
class AgentTypeSpec:
    """One payoff-matrix type: its utility lines, temper, and member counts."""

    kind: str
    cooperator_utility: UtilityLine
    defector_utility: UtilityLine
    temper: Fraction
    best_responders: int
    imitators: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "temper", parse_rational(self.temper))
        if self.temper.denominator == 1:
            raise IntegerTemper(f"temper {self.temper} is an integer")
        if self.best_responders < 0 or self.imitators < 0:
            raise ValueError("member counts must be non-negative")
        slope_gap = self.cooperator_utility.slope - self.defector_utility.slope
        if self.kind == ANTICOORDINATING and slope_gap >= 0:
            raise ValueError("anticoordinating type needs uC - uD strictly decreasing in nC")
        if self.kind == COORDINATING and slope_gap <= 0:
            raise ValueError("coordinating type needs uC - uD strictly increasing in nC")
        # the update rules read the lines and the closed forms the temper
        crossing = (self.defector_utility.intercept - self.cooperator_utility.intercept) / slope_gap
        if self.temper != crossing:
            raise ValueError(f"temper {self.temper} != crossing of the utility lines {crossing}")

    @property
    def count(self) -> int:
        return self.best_responders + self.imitators


def utilities(type_spec: AgentTypeSpec, n_c: int) -> tuple[Fraction, Fraction]:
    """Exact (uC, uD) of the type's lines at cooperator count n_c."""
    return type_spec.cooperator_utility(n_c), type_spec.defector_utility(n_c)


@dataclass(frozen=True)
class State:
    """Cooperator counts: pooled imitators, then per-type best-responders.

    `xa[i-1]` counts cooperating type-i nonconformists, `xc[i-1]` cooperating
    type-i conformists. The tuple form follows the convention
    (xI, xa_1..xa_b, xc_b'..xc_1), i.e. conformist entries in descending label.
    """

    xI: int
    xa: tuple[int, ...]
    xc: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "xa", tuple(int(v) for v in self.xa))
        object.__setattr__(self, "xc", tuple(int(v) for v in self.xc))

    @property
    def n_cooperators(self) -> int:
        return self.xI + sum(self.xa) + sum(self.xc)

    def to_tuple(self) -> tuple[int, ...]:
        return (self.xI, *self.xa, *reversed(self.xc))

    @classmethod
    def from_tuple(cls, values: Sequence[int], b: int, bp: int) -> "State":
        values = tuple(int(v) for v in values)
        if len(values) != 1 + b + bp:
            raise ValueError(f"expected {1 + b + bp} coordinates, got {len(values)}")
        xa = values[1 : 1 + b]
        xc = tuple(reversed(values[1 + b :]))
        return cls(values[0], xa, xc)


@dataclass(frozen=True)
class PopulationSpec:
    """Validated population: types sorted by temper, sentinels attached.

    Anticoordinating types are labelled 1..b in descending temper order and
    coordinating types 1..b' in ascending order, so construct instances via
    `validate_population` rather than directly.
    """

    anticoordinating: tuple[AgentTypeSpec, ...]
    coordinating: tuple[AgentTypeSpec, ...]

    @property
    def b(self) -> int:
        return len(self.anticoordinating)

    @property
    def bp(self) -> int:
        return len(self.coordinating)

    @property
    def m(self) -> int:
        return sum(t.imitators for t in self.anticoordinating) + sum(
            t.imitators for t in self.coordinating
        )

    @property
    def n(self) -> int:
        return sum(t.count for t in self.anticoordinating) + sum(
            t.count for t in self.coordinating
        )

    def type_a(self, i: int) -> AgentTypeSpec:
        return self.anticoordinating[i - 1]

    def type_c(self, i: int) -> AgentTypeSpec:
        return self.coordinating[i - 1]

    def n_a(self, i: int) -> int:
        return self.anticoordinating[i - 1].best_responders

    def n_c(self, i: int) -> int:
        return self.coordinating[i - 1].best_responders

    @property
    def sentinel_high(self) -> Fraction:
        """tau_0^a = tau_{b'+1}^c: above n and every temper, non-integer.

        Sits 3/2 beyond the bound so that even the one-tightened stability
        margins can never bind on a sentinel.
        """
        bound = self.n
        for t in self.all_types():
            bound = max(bound, math.ceil(t.temper))
        return Fraction(bound) + Fraction(3, 2)

    @property
    def sentinel_low(self) -> Fraction:
        """tau_{b+1}^a = tau_0^c: below 0 and every temper, non-integer."""
        bound = 0
        for t in self.all_types():
            bound = min(bound, math.floor(t.temper))
        return Fraction(bound) - Fraction(3, 2)

    def tau_a(self, j: int) -> Fraction:
        """Anticoordinating temper with sentinels: j in 0..b+1."""
        if j == 0:
            return self.sentinel_high
        if j == self.b + 1:
            return self.sentinel_low
        return self.anticoordinating[j - 1].temper

    def tau_c(self, j: int) -> Fraction:
        """Coordinating temper with sentinels: j in 0..b'+1."""
        if j == 0:
            return self.sentinel_low
        if j == self.bp + 1:
            return self.sentinel_high
        return self.coordinating[j - 1].temper

    def all_types(self) -> Iterator[AgentTypeSpec]:
        yield from self.anticoordinating
        yield from self.coordinating

    def typed(self) -> Iterator[tuple[str, int, AgentTypeSpec]]:
        for i, t in enumerate(self.anticoordinating, start=1):
            yield ANTICOORDINATING, i, t
        for i, t in enumerate(self.coordinating, start=1):
            yield COORDINATING, i, t

    def get_type(self, kind: str, index: int) -> AgentTypeSpec:
        return self.type_a(index) if kind == ANTICOORDINATING else self.type_c(index)

    def check_state(self, state: State) -> None:
        if len(state.xa) != self.b or len(state.xc) != self.bp:
            raise ValueError("state shape does not match population")
        if not 0 <= state.xI <= self.m:
            raise ValueError(f"xI out of range: {state.xI}")
        for i, v in enumerate(state.xa, start=1):
            if not 0 <= v <= self.n_a(i):
                raise ValueError(f"xa[{i}] out of range: {v}")
        for i, v in enumerate(state.xc, start=1):
            if not 0 <= v <= self.n_c(i):
                raise ValueError(f"xc[{i}] out of range: {v}")

    def state(self, *values: int) -> State:
        """Build and bound-check a state from paper-order coordinates."""
        s = State.from_tuple(values, self.b, self.bp)
        self.check_state(s)
        return s

    def to_json_dict(self) -> dict:
        def type_dict(t: AgentTypeSpec) -> dict:
            return {
                "uC": [str(t.cooperator_utility.slope), str(t.cooperator_utility.intercept)],
                "uD": [str(t.defector_utility.slope), str(t.defector_utility.intercept)],
                "temper": str(t.temper),
                "bestResponders": t.best_responders,
                "imitators": t.imitators,
            }

        return {
            "anticoordinating": [type_dict(t) for t in self.anticoordinating],
            "coordinating": [type_dict(t) for t in self.coordinating],
        }


def _parse_line(raw) -> UtilityLine:
    if isinstance(raw, UtilityLine):
        return raw
    if isinstance(raw, Mapping):
        return UtilityLine(parse_rational(raw["slope"]), parse_rational(raw["intercept"]))
    slope, intercept = raw
    return UtilityLine(parse_rational(slope), parse_rational(intercept))


def _parse_payoff(raw) -> "PayoffMatrix":
    if isinstance(raw, PayoffMatrix):
        return raw
    if isinstance(raw, Mapping):
        return PayoffMatrix(*(parse_rational(raw[k]) for k in ("R", "S", "T", "P")))
    r, s, t, p = raw
    return PayoffMatrix(parse_rational(r), parse_rational(s), parse_rational(t), parse_rational(p))


def _build_type(kind: str, raw, n: int) -> AgentTypeSpec | None:
    """Resolve one raw type entry once the total population size n is known."""
    if isinstance(raw, AgentTypeSpec):
        raw = {
            "uC": raw.cooperator_utility,
            "uD": raw.defector_utility,
            "temper": raw.temper,
            "bestResponders": raw.best_responders,
            "imitators": raw.imitators,
        }
    best = int(raw.get("bestResponders", 0))
    imit = int(raw.get("imitators", 0))
    if best < 0 or imit < 0:
        raise ValueError("member counts must be non-negative")
    if best == 0:
        if imit > 0:
            raise ImitatorWithoutMatchingType(
                f"{imit} imitators assigned to a {kind} type with no best-responders"
            )
        return None

    payoff = _parse_payoff(raw["payoff"]) if "payoff" in raw else None
    if "uC" in raw or "uD" in raw:
        if not ("uC" in raw and "uD" in raw):
            raise ValueError("uC and uD must be given together")
        coop = _parse_line(raw["uC"])
        defect = _parse_line(raw["uD"])
        if payoff is not None:
            if coop != UtilityLine.cooperator(payoff, n) or defect != UtilityLine.defector(
                payoff, n
            ):
                raise ValueError("payoff matrix and utility lines disagree")
    elif payoff is not None:
        coop = UtilityLine.cooperator(payoff, n)
        defect = UtilityLine.defector(payoff, n)
    else:
        raise ValueError("each type needs utility lines (uC/uD) or a payoff matrix")

    # the temper is where the two lines cross
    if coop.slope == defect.slope:
        raise DegeneratePayoff("utility lines are parallel (equivalent to R+P == T+S)")
    tau = (defect.intercept - coop.intercept) / (coop.slope - defect.slope)
    if tau.denominator == 1:
        raise IntegerTemper(f"temper {tau} is an integer")
    if "temper" in raw and raw["temper"] is not None:
        declared = parse_rational(raw["temper"])
        if declared != tau:
            raise ValueError(f"declared temper {declared} != derived temper {tau}")
    return AgentTypeSpec(
        kind=kind,
        cooperator_utility=coop,
        defector_utility=defect,
        temper=tau,
        best_responders=best,
        imitators=imit,
    )


def _counts_of(raw) -> tuple[int, int]:
    if isinstance(raw, AgentTypeSpec):
        return raw.best_responders, raw.imitators
    return int(raw.get("bestResponders", 0)), int(raw.get("imitators", 0))


def validate_population(raw) -> PopulationSpec:
    """Normalize a raw specification into a PopulationSpec.

    Accepts the JSON schema dict ({"anticoordinating": [...], "coordinating":
    [...]}, entries may also be AgentTypeSpec objects) or an existing
    PopulationSpec; the operation is idempotent. Types are sorted into the
    canonical temper order and relabelled.
    """
    if isinstance(raw, PopulationSpec):
        raw = {"anticoordinating": list(raw.anticoordinating), "coordinating": list(raw.coordinating)}
    if not isinstance(raw, dict):
        raise ValueError("a population spec is an object holding the two type lists")
    raw_a = list(raw.get("anticoordinating", ()))
    raw_c = list(raw.get("coordinating", ()))
    if not all(isinstance(t, (dict, AgentTypeSpec)) for t in raw_a + raw_c):
        raise ValueError("every type entry must be an object")

    n = sum(sum(_counts_of(t)) for t in raw_a + raw_c)
    if n == 0:
        raise EmptyPopulation("population has no agents")

    types_a = [t for t in (_build_type(ANTICOORDINATING, r, n) for r in raw_a) if t is not None]
    types_c = [t for t in (_build_type(COORDINATING, r, n) for r in raw_c) if t is not None]
    if not types_a and not types_c:
        raise EmptyPopulation("population has no best-responder types")

    for group, label in ((types_a, "anticoordinating"), (types_c, "coordinating")):
        seen: set[Fraction] = set()
        for t in group:
            if t.temper in seen:
                raise DuplicateTemper(f"two {label} types share temper {t.temper}")
            seen.add(t.temper)

    types_a.sort(key=lambda t: t.temper, reverse=True)
    types_c.sort(key=lambda t: t.temper)
    return PopulationSpec(anticoordinating=tuple(types_a), coordinating=tuple(types_c))


def state_space_size(pop: PopulationSpec) -> int:
    """Size of the pooled-imitator state space: (m+1) * prod(n_i^a+1) * prod(n_i^c+1)."""
    size = pop.m + 1
    for t in pop.anticoordinating:
        size *= t.best_responders + 1
    for t in pop.coordinating:
        size *= t.best_responders + 1
    return size
