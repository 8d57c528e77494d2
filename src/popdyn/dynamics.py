"""Update rules, one-step transitions, activation policies, and simulation.

Simulation runs on refined states internally (imitator groups kept separate,
see `cells`); trajectories report the pooled state. All randomness flows
through a named seeded generator (numpy PCG64), so trajectories are
bit-stable for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .cells import BEST_RESPONDER, IMITATOR, CellSpace, Coords, best_response_next
from .errors import NoSuchAgent
from .model import ANTICOORDINATING, C, COORDINATING, D, PopulationSpec, State, parse_rational

CellKey = tuple[str, str, int]  # (role, kind, type_index)


@dataclass(frozen=True)
class AgentRef:
    """One active agent: her subpopulation cell and current strategy."""

    role: str
    kind: str
    type_index: int
    strategy: str

    def __post_init__(self):
        if self.role not in (BEST_RESPONDER, IMITATOR):
            raise ValueError(f"unknown role {self.role!r}")
        if self.kind not in (ANTICOORDINATING, COORDINATING):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.strategy not in (C, D):
            raise ValueError(f"unknown strategy {self.strategy!r}")

    @property
    def cell_key(self) -> CellKey:
        return (self.role, self.kind, self.type_index)


def imitation_next(pop: PopulationSpec, state, current: str) -> str:
    """Copy the highest earner: C if the top cooperator out-earns the top
    defector, D in the opposite case, keep the current strategy on a tie.
    Empty sides count as -inf."""
    space = CellSpace(pop)
    coords = space.refine(state)
    sup_c, sup_d = space.imitation_sups(coords)
    if sup_c > sup_d:
        return C
    if sup_c < sup_d:
        return D
    return current


def step(pop: PopulationSpec, state, agent: AgentRef):
    """Apply one activation. Returns the same flavor of state it was given
    (pooled State in, pooled State out; refined coords in, coords out)."""
    space = CellSpace(pop)
    coords = space.refine(state)
    try:
        pos = space.position[agent.cell_key]
    except KeyError:
        raise NoSuchAgent(f"population has no cell {agent.cell_key}") from None
    new = space.successor(coords, pos, agent.strategy)
    if isinstance(state, State):
        return space.pooled(new)
    return new


# -- activation policies ----------------------------------------------------


class ActivationPolicy:
    """Chooses the active agent at each step."""

    def make_sampler(self, space: CellSpace) -> Callable[[Coords], tuple[int, str, AgentRef]]:
        raise NotImplementedError


def _ref_for(space: CellSpace, pos: int, strategy: str) -> AgentRef:
    cell = space.cells[pos]
    return AgentRef(cell.role, cell.kind, cell.type_index, strategy)


@dataclass(frozen=True)
class UniformRandom(ActivationPolicy):
    """Each agent equally likely, i.i.d. across steps."""

    seed: int

    def make_sampler(self, space):
        rng = np.random.default_rng(self.seed)
        caps = space.caps
        n = sum(caps)

        def sample(coords: Coords) -> tuple[int, str, AgentRef]:
            r = int(rng.integers(n))
            for pos, cap in enumerate(caps):
                if r < cap:
                    strategy = C if r < coords[pos] else D
                    return pos, strategy, _ref_for(space, pos, strategy)
                r -= cap
            raise AssertionError("unreachable")

        return sample


@dataclass(frozen=True)
class Weighted(ActivationPolicy):
    """Per-subpopulation positive weights, uniform within each cell.

    `weights` maps (role, kind, type_index) to a per-agent weight; cells not
    mentioned get weight 1.
    """

    weights: Mapping[CellKey, object]
    seed: int

    def make_sampler(self, space):
        rng = np.random.default_rng(self.seed)
        per_cell = []
        denom = 1
        for cell in space.cells:
            w = parse_rational(self.weights.get(cell.key, 1))
            if w <= 0:
                raise ValueError(f"weight for {cell.key} must be strictly positive")
            per_cell.append(w)
            denom = denom * w.denominator // math.gcd(denom, w.denominator)
        units = [int(w * denom) for w in per_cell]
        total = sum(u * cap for u, cap in zip(units, space.caps))

        def sample(coords: Coords) -> tuple[int, str, AgentRef]:
            r = int(rng.integers(total))
            for pos, (u, cap) in enumerate(zip(units, space.caps)):
                block = u * cap
                if r < block:
                    member = r // u
                    strategy = C if member < coords[pos] else D
                    return pos, strategy, _ref_for(space, pos, strategy)
                r -= block
            raise AssertionError("unreachable")

        return sample


@dataclass(frozen=True)
class Scripted(ActivationPolicy):
    """Replay a fixed agent sequence, cycling when exhausted.

    Raises NoSuchAgent if the referenced (role, type, strategy) cell is empty
    when its turn comes.
    """

    agents: tuple[AgentRef, ...]
    cycle: bool = True

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if not self.agents:
            raise ValueError("scripted policy needs at least one agent")

    def make_sampler(self, space):
        counter = {"t": 0}

        def sample(coords: Coords) -> tuple[int, str, AgentRef]:
            i = counter["t"]
            if i >= len(self.agents) and not self.cycle:
                raise IndexError("scripted activation sequence exhausted")
            ref = self.agents[i % len(self.agents)]
            counter["t"] = i + 1
            try:
                pos = space.position[ref.cell_key]
            except KeyError:
                raise NoSuchAgent(f"population has no cell {ref.cell_key}") from None
            members = coords[pos] if ref.strategy == C else space.caps[pos] - coords[pos]
            if members == 0:
                raise NoSuchAgent(f"cell {ref.cell_key} has no {ref.strategy}-player at step {i}")
            return pos, ref.strategy, ref

        return sample


# -- trajectories -------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryRecord:
    t: int
    state: State
    n_c: int
    agent: AgentRef | None


@dataclass(frozen=True)
class Trajectory:
    pop: PopulationSpec
    records: tuple[TrajectoryRecord, ...]
    refined: tuple[Coords, ...]

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final_state(self) -> State:
        return self.records[-1].state

    def csv_header(self) -> list[str]:
        cols = ["t", "active_role", "active_kind", "active_type", "xI"]
        cols += [f"xa_{i}" for i in range(1, self.pop.b + 1)]
        cols += [f"xc_{i}" for i in range(self.pop.bp, 0, -1)]
        cols.append("nC")
        return cols

    def to_csv(self, stream) -> None:
        stream.write(",".join(self.csv_header()) + "\n")
        for rec in self.records:
            if rec.agent is None:
                active = ["", "", ""]
            else:
                active = [rec.agent.role, rec.agent.kind, str(rec.agent.type_index)]
            row = [str(rec.t), *active]
            row += [str(v) for v in rec.state.to_tuple()]
            row.append(str(rec.n_c))
            stream.write(",".join(row) + "\n")


def simulate(pop: PopulationSpec, initial, policy: ActivationPolicy, steps: int) -> Trajectory:
    """Run the asynchronous dynamics; deterministic given (pop, initial, policy).

    `initial` may be a pooled State (refined deterministically by filling
    imitator groups in canonical order) or refined cell coordinates.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    space = CellSpace(pop)
    coords = space.refine(initial)
    sampler = policy.make_sampler(space)
    records = [TrajectoryRecord(0, space.pooled(coords), sum(coords), None)]
    refined = [coords]
    for t in range(1, steps + 1):
        pos, strategy, ref = sampler(coords)
        coords = space.apply(coords, pos, strategy, space.intended_strategy(coords, pos, strategy))
        records.append(TrajectoryRecord(t, space.pooled(coords), sum(coords), ref))
        refined.append(coords)
    return Trajectory(pop, tuple(records), tuple(refined))
