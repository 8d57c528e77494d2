"""One-step transitions, activation policies, and simulation.

Simulation runs on refined states internally (imitator groups kept separate,
see `cells`); trajectories report the pooled state. Every decision comes from
the update-rule kernel `CellSpace.moves`, the one the oracle build uses: an
activated agent switches iff her (cell, strategy) bit is set in the state's
move bitmask. All randomness flows through a named seeded generator (numpy
PCG64), so trajectories are bit-stable for a fixed seed. Random policies draw
agent indices in chunks, which gives the same sequence as one draw per step.

A run is stored as integers. Each distinct refined state gets an id in order
of first visit, and each agent an id, 2 cell + (strategy == D), which is also
its bit in a state's move bitmask. Per visited state `simulate` keeps one
successor-id row, indexed by agent id and filled from one kernel call, so the
kernel runs once per distinct state and a step is two list lookups. Per step
the run stores only the agent id and the new state id, in typed arrays.
`Trajectory.records`, `refined` and `final_state` are built from them on
request; `Trajectory.to_csv` formats one row tail per distinct (agent, state)
pair and writes the rows in fixed-size chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .cells import BEST_RESPONDER, IMITATOR, CellSpace, Coords
from .errors import NoSuchAgent
from .model import ANTICOORDINATING, C, COORDINATING, D, PopulationSpec, State, parse_rational

if TYPE_CHECKING:
    from array import array

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


def _agent_id(space: CellSpace, agent: AgentRef) -> int:
    """The agent's id, 2 cell + (strategy == D); NoSuchAgent if the population has no such cell."""
    pos = space.position.get(agent.cell_key)
    if pos is None:
        raise NoSuchAgent(f"population has no cell {agent.cell_key}")
    return 2 * pos + (agent.strategy == D)


# -- runs ---------------------------------------------------------------------

_UNSEEN = -1  # a successor not yet taken
_ABSENT = -2  # no agent with this id at the state


class _Walk:
    """A run being recorded on integer ids.

    `visited[s]` holds state s's coords and `rows[s][a]` the id of the state
    that activating agent a leads to: `_UNSEEN` until first taken, `_ABSENT`
    when the state has no such agent. `agents[t - 1]` is step t's agent id and
    `states[t]` the state id after step t.
    """

    def __init__(self, space: CellSpace, coords: Coords):
        # not imported with the module: the CLI's other commands never load it
        from array import array

        self.space = space
        self.visited: list[Coords] = []
        self.ids: dict[Coords, int] = {}
        self.rows: list[list[int]] = []
        self.agents = array("q")
        self.states = array("q", [self.visit(coords)])

    def visit(self, coords: Coords) -> int:
        s = self.ids.get(coords)
        if s is None:
            s = self.ids[coords] = len(self.visited)
            self.visited.append(coords)
            mask = int(self.space.moves(np.array(coords, dtype=np.int64)[:, None])[0])
            row = []
            for pos, (v, cap) in enumerate(zip(coords, self.space.caps)):
                for a, present in ((2 * pos, v > 0), (2 * pos + 1, v < cap)):
                    row.append(_ABSENT if not present else _UNSEEN if mask >> a & 1 else s)
            self.rows.append(row)
        return s

    def take(self, s: int, a: int) -> int:
        """The successor of state s by agent a, for a row entry below zero."""
        if self.rows[s][a] == _ABSENT:
            cell = self.space.cells[a >> 1]
            raise NoSuchAgent(
                f"cell {cell.key} has no {D if a & 1 else C}-player at step {len(self.agents)}"
            )
        out = list(self.visited[s])
        out[a >> 1] += 1 if a & 1 else -1
        nxt = self.rows[s][a] = self.visit(tuple(out))
        return nxt

    def step(self, a: int) -> None:
        """Record one step by agent a."""
        here = self.states[-1]
        nxt = self.rows[here][a]
        if nxt < 0:
            nxt = self.take(here, a)
        self.agents.append(a)
        self.states.append(nxt)


# -- activation policies ----------------------------------------------------


class ActivationPolicy:
    """Chooses the active agent at each step."""

    def extend(self, walk: _Walk, steps: int) -> None:
        """Record `steps` more steps of `walk`."""
        raise NotImplementedError


_DRAW_CHUNK = 1 << 12


def _draw_agents(rng: np.random.Generator, space: CellSpace, units: list[int]):
    """Endless chunks of (cells, members) draws; each member of cell k weighs units[k].

    Draws come `_DRAW_CHUNK` at a time, which numpy's generator makes the same
    sequence as one `rng.integers(total)` per step.
    """
    blocks = [u * cap for u, cap in zip(units, space.caps)]
    total = sum(blocks)
    starts = np.cumsum([0] + blocks[:-1])
    per_member = np.array(units)
    while True:
        draws = rng.integers(total, size=_DRAW_CHUNK)
        cell = np.searchsorted(starts, draws, side="right") - 1
        member = (draws - starts[cell]) // per_member[cell]
        yield cell.tolist(), member.tolist()


def _extend_random(walk: _Walk, seed: int, units: list[int], steps: int) -> None:
    """Record `steps` steps whose agents are drawn at random, member by member."""
    visited, rows, take = walk.visited, walk.rows, walk.take
    add_agent, add_state = walk.agents.append, walk.states.append
    here = walk.states[-1]
    draws = _draw_agents(np.random.default_rng(seed), walk.space, units)
    while steps > 0:
        cells, members = next(draws)
        for cell, member in zip(cells[:steps], members[:steps]):
            # a drawn member plays C iff her index is below the cell's cooperator count
            a = 2 * cell + (member >= visited[here][cell])
            nxt = rows[here][a]
            if nxt < 0:
                nxt = take(here, a)
            add_agent(a)
            add_state(nxt)
            here = nxt
        steps -= len(cells)


@dataclass(frozen=True)
class UniformRandom(ActivationPolicy):
    """Each agent equally likely, i.i.d. across steps."""

    seed: int

    def extend(self, walk, steps):
        _extend_random(walk, self.seed, [1] * len(walk.space.cells), steps)


@dataclass(frozen=True)
class Weighted(ActivationPolicy):
    """Per-subpopulation positive weights, uniform within each cell.

    `weights` maps (role, kind, type_index) to a per-agent weight; cells not
    mentioned get weight 1. A key naming a cell the population does not have
    is a ValueError.
    """

    weights: Mapping[CellKey, object]
    seed: int

    def extend(self, walk, steps):
        space = walk.space
        for key in self.weights:
            if key not in space.position:
                raise ValueError(f"weight for {key}: the population has no such cell")
        per_cell = []
        denom = 1
        for cell in space.cells:
            w = parse_rational(self.weights.get(cell.key, 1))
            if w <= 0:
                raise ValueError(f"weight for {cell.key} must be strictly positive")
            per_cell.append(w)
            denom = denom * w.denominator // math.gcd(denom, w.denominator)
        _extend_random(walk, self.seed, [int(w * denom) for w in per_cell], steps)


@dataclass(frozen=True)
class Scripted(ActivationPolicy):
    """Replay a fixed agent sequence, cycling when exhausted.

    Raises NoSuchAgent if the referenced (role, type, strategy) cell is empty
    when its turn comes.
    """

    agents: tuple[AgentRef, ...]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if not self.agents:
            raise ValueError("scripted policy needs at least one agent")

    def extend(self, walk, steps):
        for i in range(steps):
            walk.step(_agent_id(walk.space, self.agents[i % len(self.agents)]))


# -- trajectories -------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryRecord:
    t: int
    state: State
    n_c: int
    agent: AgentRef | None


_CSV_CHUNK = 1 << 12  # rows per write


class Trajectory:
    """One run, stored as integers (see the module docstring).

    `visited[s]` holds state s's refined coords, `agents[t - 1]` step t's
    agent id and `states[t]` the state id after step t. The per-step objects,
    `records` and `refined`, are built on first use.
    """

    def __init__(self, space: CellSpace, visited: tuple[Coords, ...], agents: array, states: array):
        self.space = space
        self.pop = space.pop
        self.visited = visited
        self.agents = agents
        self.states = states

    def __len__(self) -> int:
        return len(self.states)

    def _agent_refs(self) -> list[AgentRef]:
        return [AgentRef(c.role, c.kind, c.type_index, s) for c in self.space.cells for s in (C, D)]

    @cached_property
    def records(self) -> tuple[TrajectoryRecord, ...]:
        pooled = [self.space.pooled(c) for c in self.visited]
        n_c = [sum(c) for c in self.visited]
        refs = self._agent_refs()
        first = self.states[0]
        records = [TrajectoryRecord(0, pooled[first], n_c[first], None)]
        records += (TrajectoryRecord(t, pooled[s], n_c[s], refs[a])
                    for t, a, s in zip(range(1, len(self.states)), self.agents, self.states[1:]))
        return tuple(records)

    @cached_property
    def refined(self) -> tuple[Coords, ...]:
        return tuple(self.visited[s] for s in self.states)

    @property
    def final_state(self) -> State:
        return self.space.pooled(self.visited[self.states[-1]])

    def csv_header(self) -> list[str]:
        cols = ["t", "active_role", "active_kind", "active_type", "xI"]
        cols += [f"xa_{i}" for i in range(1, self.pop.b + 1)]
        cols += [f"xc_{i}" for i in range(self.pop.bp, 0, -1)]
        cols.append("nC")
        return cols

    def to_csv(self, stream) -> None:
        # everything after t, per distinct (agent id, state id); agent id
        # `width - 1` stands for the absent agent of row 0
        width = 2 * len(self.space.cells) + 1
        active = [f"{r.role},{r.kind},{r.type_index}" for r in self._agent_refs()] + [",,"]
        tails: dict[int, str] = {}

        def tail(a: int, s: int) -> str:
            coords = self.visited[s]
            pooled = ",".join(map(str, self.space.pooled(coords).to_tuple()))
            text = tails[s * width + a] = f"{active[a]},{pooled},{sum(coords)}"
            return text

        stream.write(f"{','.join(self.csv_header())}\n0,{tail(width - 1, self.states[0])}\n")
        n = len(self.states)
        for lo in range(1, n, _CSV_CHUNK):
            hi = min(lo + _CSV_CHUNK, n)
            rows = []
            for t, a, s in zip(range(lo, hi), self.agents[lo - 1:hi - 1], self.states[lo:hi]):
                text = tails.get(s * width + a)
                rows.append(f"{t},{text if text is not None else tail(a, s)}\n")
            stream.write("".join(rows))


def simulate(pop: PopulationSpec, initial, policy: ActivationPolicy, steps: int) -> Trajectory:
    """Run the asynchronous dynamics; deterministic given (pop, initial, policy).

    `initial` may be a pooled State (refined deterministically by filling
    imitator groups in canonical order) or refined cell coordinates.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    space = pop.space
    walk = _Walk(space, space.refine(initial))
    policy.extend(walk, steps)
    return Trajectory(space, tuple(walk.visited), walk.agents, walk.states)
