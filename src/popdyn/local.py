"""The oracle's local questions, answered from the update kernel.

Whether a pooled state is an equilibrium, and whether an equilibrium is
stable, read the moves at few refined states: the state's splits, and the
states that the stability search visits around them (5 to 10 per equilibrium
on the bundled fixtures, against 4,065,600 states in ex2's space).
`KernelMoves` runs `CellSpace.moves` at just the states it is indexed with,
so the searches here read no dense oracle, and `equilibria --oracle` builds
none. Only `equilibria --oracle` and `equilibria --verify` load this module;
the dense oracle's stability search stays in the tests, as their reference.
"""

from __future__ import annotations

import numpy as np

from .cells import CellSpace
from .errors import NotAnEquilibrium
from .model import PopulationSpec, State
from .oracle import _sparse_zeros, search_layers, sorted_unique


class KernelMoves:
    """The move bitmask of a space, as `TransitionDigraph.moves` holds it,
    computed at the states it is indexed with: `moves[indices]` decodes the
    indices and runs the kernel on them, so `oracle.search_layers` walks it
    as it walks the dense bitmask."""

    def __init__(self, space: CellSpace):
        self.space = space

    def __getitem__(self, indices) -> np.ndarray:
        return self.space.moves(list(self.space.digits(indices)))


def split_indices(space: CellSpace, state: State) -> np.ndarray:
    """The indices of the refined states that project to the pooled `state`."""
    return np.array([space.index_of(c) for c in space.splits_of_pooled(state)], dtype=np.int64)


def is_equilibrium_oracle(pop: PopulationSpec, state: State) -> bool:
    """True iff no refined split of the pooled state has a move."""
    space = pop.space
    return not KernelMoves(space)[split_indices(space, state)].any()


def is_stable_oracle(pop: PopulationSpec, eq: State) -> bool:
    """Discrete stability: no trajectory from pooled distance 1 ever exceeds it.

    A breadth-first search over the kernel's moves starts at the states at
    pooled distance 1 (`_stability_starts`) and fails at the first layer that
    holds a state past distance 1. It decodes only the states it visits, so
    it costs what the ball around eq holds, not the whole state space.
    """
    space = pop.space
    moves, splits = KernelMoves(space), split_indices(space, eq)
    if moves[splits].any():
        raise NotAnEquilibrium(f"{eq} is not an equilibrium")
    pooled = np.array([eq.xI, *eq.xa, *eq.xc])[:, None]  # as `CellSpace.pooled_columns`
    seen = _sparse_zeros(space.n_states, bool)
    for layer in search_layers(moves, space.steps, space.bits, _stability_starts(space, splits),
                               seen, False, True):
        if (np.abs(space.pooled_columns(layer) - pooled).sum(axis=0) > 1).any():
            return False
    return True


def _stability_starts(space: CellSpace, splits: np.ndarray) -> np.ndarray:
    """The states at pooled distance 1 from an equilibrium, sorted: the grid
    neighbours (one cell one agent off, within its capacity) of its refined
    `splits`.

    Such a neighbour has one best responder's count off its target or the
    imitator total off by one, so it lies at distance 1; and every state at
    distance 1 is one such move away from a split.
    """
    neighbours = splits + space.steps[:, None]
    return sorted_unique(neighbours[space.group_sizes(splits) > 0])
