"""One-step transitions, activation policies, and simulation.

Simulation runs on refined states internally (imitator groups kept separate,
see `cells`); trajectories report the pooled state. Every decision comes from
the update-rule kernel `CellSpace.moves`, the one the oracle build uses: an
activated agent switches iff her (cell, strategy) bit is set in the state's
move bitmask. All randomness flows through a named seeded generator (numpy
PCG64), so trajectories are bit-stable for a fixed seed. Random policies draw
agent indices in chunks, which gives the same sequence as one draw per step.

`simulate` memoises per visited refined state: its pooled view, its move
bitmask, and the state each (cell, strategy) activation leads to, so the
kernel runs once per distinct state rather than once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .cells import BEST_RESPONDER, IMITATOR, CellSpace, Coords
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


def _active_cell(space: CellSpace, coords: Coords, agent: AgentRef, when: str = "") -> int:
    """The agent's cell; NoSuchAgent unless it has a member playing the agent's strategy."""
    pos = space.position.get(agent.cell_key)
    if pos is None:
        raise NoSuchAgent(f"population has no cell {agent.cell_key}")
    members = coords[pos] if agent.strategy == C else space.caps[pos] - coords[pos]
    if members == 0:
        raise NoSuchAgent(f"cell {agent.cell_key} has no {agent.strategy}-player{when}")
    return pos


def _move_mask(space: CellSpace, coords: Coords) -> int:
    """The state's move bitmask, from the update-rule kernel on one-element columns."""
    return int(space.moves(np.array(coords, dtype=np.int64)[:, None])[0][0])


def _activate(coords: Coords, mask: int, pos: int, strategy: str) -> Coords:
    """The state after a `strategy` player of cell `pos` is activated: the
    agent switches iff bit 2 pos + (strategy == D) of the state's `mask` is set."""
    if not mask >> (2 * pos + (strategy == D)) & 1:
        return coords
    out = list(coords)
    out[pos] += 1 if strategy == D else -1
    return tuple(out)


def step(pop: PopulationSpec, state, agent: AgentRef):
    """Apply one activation. Returns the same flavor of state it was given
    (pooled State in, pooled State out; refined coords in, coords out)."""
    space = CellSpace(pop)
    coords = space.refine(state)
    pos = _active_cell(space, coords, agent)
    new = _activate(coords, _move_mask(space, coords), pos, agent.strategy)
    if isinstance(state, State):
        return space.pooled(new)
    return new


# -- activation policies ----------------------------------------------------


class ActivationPolicy:
    """Chooses the active agent at each step."""

    def make_sampler(self, space: CellSpace) -> Callable[[Coords], tuple[int, str, AgentRef]]:
        raise NotImplementedError


_DRAW_CHUNK = 1 << 12


def _draw_agents(rng: np.random.Generator, space: CellSpace, units: list[int]):
    """Endless (cell, member) draws; each member of cell k weighs units[k].

    Draws come `_DRAW_CHUNK` at a time, which numpy's generator makes the same
    sequence as one `rng.integers(total)` per step.
    """
    blocks = [u * cap for u, cap in zip(units, space.caps)]
    total = sum(blocks)
    draws = rng.integers(total, size=_DRAW_CHUNK)
    starts = np.cumsum([0] + blocks[:-1])
    per_member = np.array(units)
    while True:
        cell = np.searchsorted(starts, draws, side="right") - 1
        member = (draws - starts[cell]) // per_member[cell]
        yield from zip(cell.tolist(), member.tolist())
        draws = rng.integers(total, size=_DRAW_CHUNK)


def _random_sampler(space: CellSpace, seed: int, units: list[int]):
    agents = _draw_agents(np.random.default_rng(seed), space, units)
    refs = [{s: AgentRef(c.role, c.kind, c.type_index, s) for s in (C, D)} for c in space.cells]

    def sample(coords: Coords) -> tuple[int, str, AgentRef]:
        pos, member = next(agents)
        strategy = C if member < coords[pos] else D
        return pos, strategy, refs[pos][strategy]

    return sample


@dataclass(frozen=True)
class UniformRandom(ActivationPolicy):
    """Each agent equally likely, i.i.d. across steps."""

    seed: int

    def make_sampler(self, space):
        return _random_sampler(space, self.seed, [1] * len(space.cells))


@dataclass(frozen=True)
class Weighted(ActivationPolicy):
    """Per-subpopulation positive weights, uniform within each cell.

    `weights` maps (role, kind, type_index) to a per-agent weight; cells not
    mentioned get weight 1.
    """

    weights: Mapping[CellKey, object]
    seed: int

    def make_sampler(self, space):
        per_cell = []
        denom = 1
        for cell in space.cells:
            w = parse_rational(self.weights.get(cell.key, 1))
            if w <= 0:
                raise ValueError(f"weight for {cell.key} must be strictly positive")
            per_cell.append(w)
            denom = denom * w.denominator // math.gcd(denom, w.denominator)
        return _random_sampler(space, self.seed, [int(w * denom) for w in per_cell])


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
            return _active_cell(space, coords, ref, f" at step {i}"), ref.strategy, ref

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
        lines = [",".join(self.csv_header())]
        tails: dict[tuple, str] = {}  # everything after t, per distinct (agent, state, n_c)
        for rec in self.records:
            key = (rec.agent, rec.state, rec.n_c)
            tail = tails.get(key)
            if tail is None:
                if rec.agent is None:
                    active = ["", "", ""]
                else:
                    active = [rec.agent.role, rec.agent.kind, str(rec.agent.type_index)]
                tail = tails[key] = ",".join([*active, *map(str, rec.state.to_tuple()), str(rec.n_c)])
            lines.append(f"{rec.t},{tail}")
        lines.append("")
        stream.write("\n".join(lines))


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
    # per visited refined state: its pooled State, n_c, move bitmask, and the
    # visit entry each (cell, strategy) activation leads to
    visited: dict[Coords, tuple[Coords, State, int, int, dict]] = {}

    def visit(coords: Coords) -> tuple[Coords, State, int, int, dict]:
        entry = visited.get(coords)
        if entry is None:
            mask = _move_mask(space, coords)
            entry = visited[coords] = (coords, space.pooled(coords), sum(coords), mask, {})
        return entry

    here = visit(coords)
    records = [TrajectoryRecord(0, here[1], here[2], None)]
    refined = [coords]
    for t in range(1, steps + 1):
        coords, _, _, mask, after = here
        pos, strategy, ref = sampler(coords)
        here = after.get((pos, strategy))
        if here is None:
            here = after[pos, strategy] = visit(_activate(coords, mask, pos, strategy))
        records.append(TrajectoryRecord(t, here[1], here[2], ref))
        refined.append(here[0])
    return Trajectory(pop, tuple(records), tuple(refined))
