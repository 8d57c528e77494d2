"""Domain types: payoff matrices, utility lines, typed populations, states.

All payoffs, tempers and utilities are exact rationals (`fractions.Fraction`).
Every analytic condition downstream is a strict inequality between rationals,
so nothing in this package ever compares floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Sequence, Union

from .errors import (
    DegeneratePayoff,
    DuplicateTemper,
    EmptyPopulation,
    ImitatorWithoutMatchingType,
    IntegerTemper,
)

if TYPE_CHECKING:
    from .cells import CellSpace

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
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
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


def _crossing(coop: UtilityLine, defect: UtilityLine) -> Fraction:
    """The temper: the cooperator count at which the two utility lines cross."""
    if coop.slope == defect.slope:
        raise DegeneratePayoff("utility lines are parallel (equivalent to R+P == T+S)")
    tau = (defect.intercept - coop.intercept) / (coop.slope - defect.slope)
    if tau.denominator == 1:
        raise IntegerTemper(f"temper {tau} is an integer")
    return tau


def _count(value) -> int:
    """A member count: a non-negative int, so neither a bool nor a float."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"member counts must be non-negative integers, got {value!r}")
    return value


@dataclass(frozen=True)
class AgentTypeSpec:
    """One payoff-matrix type: its utility lines, their crossing (the temper,
    derived), and its member counts."""

    kind: str
    cooperator_utility: UtilityLine
    defector_utility: UtilityLine
    temper: Fraction = field(init=False)
    best_responders: int
    imitators: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        _count(self.best_responders)
        _count(self.imitators)
        object.__setattr__(self, "temper", _crossing(self.cooperator_utility, self.defector_utility))
        falling = self.cooperator_utility.slope < self.defector_utility.slope
        if falling != (self.kind == ANTICOORDINATING):
            trend = "decreasing" if self.kind == ANTICOORDINATING else "increasing"
            raise ValueError(f"{self.kind} type needs uC - uD strictly {trend} in nC")

    @property
    def count(self) -> int:
        return self.best_responders + self.imitators


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
    """A population: its types of each kind, in canonical temper order.

    The constructor sorts the types it is given: anticoordinating types are
    labelled 1..b in descending temper order, coordinating types 1..b' in
    ascending order. It refuses a type listed under the other kind
    (ValueError), imitators of a type with no best responders, a population
    with no agents, and two types of one kind with one temper.
    """

    anticoordinating: tuple[AgentTypeSpec, ...]
    coordinating: tuple[AgentTypeSpec, ...]

    def __post_init__(self):
        for kind, t in ((kind, t) for kind in KINDS for t in getattr(self, kind)):
            if t.kind != kind:
                raise ValueError(f"a {t.kind} type is listed as {kind}")
            if t.imitators and not t.best_responders:
                raise ImitatorWithoutMatchingType(
                    f"{t.imitators} imitators assigned to a {kind} type with no best-responders"
                )
        if self.n == 0:
            raise EmptyPopulation("population has no agents")
        for kind in KINDS:
            group = sorted(getattr(self, kind), key=lambda t: t.temper,
                           reverse=kind == ANTICOORDINATING)
            for a, b in zip(group, group[1:]):
                if a.temper == b.temper:
                    raise DuplicateTemper(f"two {kind} types share temper {a.temper}")
            object.__setattr__(self, kind, tuple(group))

    @property
    def b(self) -> int:
        return len(self.anticoordinating)

    @property
    def bp(self) -> int:
        return len(self.coordinating)

    @property
    def m(self) -> int:
        return sum(t.imitators for t in self.all_types())

    @property
    def n(self) -> int:
        return sum(t.count for t in self.all_types())

    def type_a(self, i: int) -> AgentTypeSpec:
        return self.anticoordinating[i - 1]

    def type_c(self, i: int) -> AgentTypeSpec:
        return self.coordinating[i - 1]

    def n_a(self, i: int) -> int:
        return self.anticoordinating[i - 1].best_responders

    def n_c(self, i: int) -> int:
        return self.coordinating[i - 1].best_responders

    @cached_property
    def sentinel_high(self) -> Fraction:
        """tau_0^a = tau_{b'+1}^c: above n and every temper, non-integer.

        Sits 3/2 beyond the bound so that even the one-tightened stability
        margins can never bind on a sentinel.
        """
        bound = max([self.n, *(math.ceil(t.temper) for t in self.all_types())])
        return Fraction(bound) + Fraction(3, 2)

    @cached_property
    def sentinel_low(self) -> Fraction:
        """tau_{b+1}^a = tau_0^c: below 0 and every temper, non-integer."""
        bound = min([0, *(math.floor(t.temper) for t in self.all_types())])
        return Fraction(bound) - Fraction(3, 2)

    @cached_property
    def space(self) -> CellSpace:
        """The refined state space, built on first use: the population's one
        `CellSpace`, so its ranks are computed once. `cells` (and numpy) load
        only then."""
        from .cells import CellSpace

        return CellSpace(self)

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


def _parse_array(raw, cls: type, size: int):
    """A `cls` value as it is, or one read from a JSON array of `size` rationals."""
    if isinstance(raw, cls):
        return raw
    if not isinstance(raw, list):
        raise TypeError(f"a {cls.__name__} is an array of {size} rationals, got {raw!r}")
    if len(raw) != size:
        raise ValueError(f"a {cls.__name__} is an array of {size} rationals, got {raw!r}")
    return cls(*raw)


# the free-text keys beside the two kinds, and the keys of a type entry
_POPULATION_KEYS = (*KINDS, "name", "description", "notes")
_ENTRY_KEYS = ("payoff", "uC", "uD", "bestResponders", "imitators", "temper")


def _build_type(kind: str, raw: dict, n: int) -> AgentTypeSpec:
    """Read one JSON type entry in a population of n agents."""
    lines = None
    if "payoff" in raw:
        payoff = _parse_array(raw["payoff"], PayoffMatrix, 4)
        lines = UtilityLine.cooperator(payoff, n), UtilityLine.defector(payoff, n)
    if "uC" in raw or "uD" in raw:
        if not ("uC" in raw and "uD" in raw):
            raise ValueError("uC and uD must be given together")
        given = _parse_array(raw["uC"], UtilityLine, 2), _parse_array(raw["uD"], UtilityLine, 2)
        if lines is not None and given != lines:
            raise ValueError("payoff matrix and utility lines disagree")
        lines = given
    if lines is None:
        raise ValueError("each type needs utility lines (uC/uD) or a payoff matrix")
    spec = AgentTypeSpec(kind, *lines, raw["bestResponders"], raw.get("imitators", 0))
    if raw.get("temper") is not None:
        declared = parse_rational(raw["temper"])
        if declared != spec.temper:
            raise ValueError(f"declared temper {declared} != derived temper {spec.temper}")
    return spec


def validate_population(raw) -> PopulationSpec:
    """A PopulationSpec as it is, or one read from the population JSON.

    The JSON keys are the ones README.md documents; any other is refused.
    Entries with no agents are dropped, and the `PopulationSpec` constructor
    sorts and checks the rest.
    """
    if isinstance(raw, PopulationSpec):
        return raw
    if not isinstance(raw, dict):
        raise ValueError("a population spec is an object holding the two type lists")
    entries = []
    for kind in KINDS:
        group = raw.get(kind, [])
        if not isinstance(group, list) or not all(isinstance(t, dict) for t in group):
            raise ValueError(f"{kind} is a list of type objects")
        entries += [(kind, t) for t in group]
    for keys, known in [(raw, _POPULATION_KEYS), *((t, _ENTRY_KEYS) for _, t in entries)]:
        unknown = [k for k in keys if k not in known]
        if unknown:
            raise ValueError(f"unknown keys {unknown}; the known ones are {list(known)}")
    if not all("bestResponders" in t for _, t in entries):
        raise ValueError("every type entry needs bestResponders")

    counts = [_count(t["bestResponders"]) + _count(t.get("imitators", 0)) for _, t in entries]
    n = sum(counts)
    types: dict[str, list[AgentTypeSpec]] = {kind: [] for kind in KINDS}
    for (kind, t), count in zip(entries, counts):
        if count:
            types[kind].append(_build_type(kind, t, n))
    return PopulationSpec(*(tuple(types[kind]) for kind in KINDS))

