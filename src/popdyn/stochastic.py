"""Perturbed dynamics of mixed binary-type populations.

One nonconformist type and one conformist type, each with at least one
imitator and one best-responder. Active agents tremble: with probability
epsilon they play the opposite of what their update rule says. The resulting
chain is an aperiodic irreducible Markov chain for every epsilon in (0,1);
its epsilon->0 behavior is governed by the 0/1/infinity mistake-cost graph:
recurrent classes, basins and radii, minimum-weight rooted spanning
arborescences (gamma), and exact stationary distributions. The chain has no
update rules of its own: its states are the oracle digraph's, numbered as
the oracle numbers them, it reads each group's intended move off the
oracle's moves, and its recurrent classes are the oracle's minimal invariant
sets. BStates, and their lexicographic order, appear only in the output.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NotMixed, SingularSystem, StateSpaceTooLarge
from .model import PopulationSpec, parse_rational
from .oracle import (TransitionDigraph, build_transition_digraph, minimal_invariant_sets,
                     search_layers, sorted_unique)

EXACT_SOLVE_LIMIT = 500
# the stationary solve holds one dense n x n matrix of 8-byte floats or pointers
DENSE_SOLVE_BYTES = 1 << 30


class BState(NamedTuple):
    """Refined binary-type state: cooperating (anticoordinating imitators,
    nonconformists, coordinating imitators, conformists)."""

    x1I: int
    xa: int
    x2I: int
    xc: int


# The CellSpace of a binary-type population has the cells (I_a, I_c, BR_a,
# BR_c); BState field f is cell _FIELDS[f], and since the map swaps two
# positions, cell k is BState field _FIELDS[k] as well.
_FIELDS = [0, 2, 1, 3]


def check_binary(pop: PopulationSpec) -> None:
    """Raise ValueError unless the population has one type of each kind, each
    with imitators (validation already gives each type a best responder)."""
    if pop.b != 1 or pop.bp != 1:
        raise ValueError("binary-type analysis needs exactly one type of each kind")
    if pop.type_a(1).imitators < 1 or pop.type_c(1).imitators < 1:
        raise ValueError("binary-type analysis needs imitators of both types")


def tremble_rate(epsilon, solve: bool = False) -> Fraction:
    """epsilon as a Fraction, checked to lie in [0, 1), and in (0, 1) for a
    stationary solve, which needs every transition."""
    epsilon = parse_rational(epsilon)
    if not (0 < epsilon < 1 if solve else 0 <= epsilon < 1):
        raise ValueError(f"epsilon must lie in {'(0, 1)' if solve else '[0, 1)'}, got {epsilon}")
    return epsilon


@dataclass
class PerturbedChain:
    """The exact perturbed chain at every tremble rate, held as arrays over
    the states of the oracle digraph `graph`: chain state i is oracle state i.

    Group g is the agents whose switch moves the state by `graph.steps[g]`:
    a cell's cooperators for its negative step, its defectors for its
    positive one. `members[i, g]` counts them at state i, and `switch[i, g]`,
    the oracle's move bit, says that their rule switches their strategy; both
    are read off `graph` on first use.
    Every agent is activated with probability 1/n; group g moves the state
    with probability members / n * (1 - epsilon) if it switches, members / n *
    epsilon if not, and the rest of its mass stays on the self-loop. Only
    these masses depend on epsilon: the support, the mistake costs and
    everything derived from them do not.
    """

    graph: TransitionDigraph

    @property
    def pop(self) -> PopulationSpec:
        return self.graph.pop

    @cached_property
    def members(self) -> np.ndarray:
        # bit 2k + d of a move is cell k's step down (d = 0) or up (d = 1)
        cell, up = np.divmod([int(bit).bit_length() - 1 for bit in self.graph.bits], 2)
        coords = self.graph.coords[cell].T
        return np.where(up == 1, np.array(self.graph.space.caps)[cell] - coords, coords)

    @cached_property
    def switch(self) -> np.ndarray:
        return (self.graph.moves[:, None] & self.graph.bits) != 0

    @property
    def n_states(self) -> int:
        return self.graph.n_states

    @property
    def steps(self) -> np.ndarray:
        return self.graph.steps

    @cached_property
    def states(self) -> list[BState]:
        """The BState of every chain state."""
        return [BState(*row) for row in self.graph.coords[_FIELDS].T.tolist()]

    def index_of(self, state) -> int:
        """Chain index of an integer index (of any integer type) or of four BState counts."""
        try:
            i = operator.index(state)
        except TypeError:
            counts = tuple(state)
            if len(counts) != 4:
                raise ValueError(f"{state} is not a state of the chain") from None
            coords = [int(counts[f]) for f in _FIELDS]
            self.graph.space.check_coords(coords)
            return self.graph.space.index_of(coords)
        if not 0 <= i < self.n_states:
            raise ValueError(f"state index {i} out of range")
        return i

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(dst, mistakes), each (n, 9): column 0 is every state's self-loop
        and column 1 + g the move of group g, with dst -1 where the group is
        empty. `mistakes` is the one-step mistake cost: 0 where the
        probability is positive at epsilon = 0, 1 where only a tremble makes it.
        """
        here = np.arange(self.n_states)
        dst = np.column_stack([here, np.where(self.members > 0, here[:, None] + self.steps, -1)])
        mistakes = np.column_stack([~self.graph.self_loops(0, self.n_states), ~self.switch])
        return dst, mistakes.astype(np.int64)

    def denominator(self, epsilon) -> int:
        """Common denominator of every transition probability at tremble rate epsilon."""
        return self.pop.n * tremble_rate(epsilon).denominator

    def transitions(self, epsilon) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dst, num, mistakes): the `support`, and in its columns the exact
        probabilities at tremble rate epsilon as Python ints over
        `denominator(epsilon)`. The self-loop is the sum of every group's
        part that stays.
        """
        eps = tremble_rate(epsilon)  # the factors epsilon and 1 - epsilon over its denominator
        factor = np.array([eps.numerator, eps.denominator - eps.numerator], dtype=object)
        mass = self.members.astype(object)
        moved = mass * factor[self.switch.astype(np.intp)]
        stays = mass * factor[(~self.switch).astype(np.intp)]
        dst, mistakes = self.support
        return dst, np.column_stack([stays.sum(axis=1), moved]), mistakes

    def one_step_cost(self, i, j) -> int | float:
        """Mistakes of the step i -> j: 0 if the unperturbed chain takes it
        with positive probability, 1 if only a tremble does, math.inf if no
        transition leads there."""
        i, j = self.index_of(i), self.index_of(j)
        if i == j:
            return int(not self.graph.self_loops(i, i + 1)[0])
        g = np.flatnonzero((self.members[i] > 0) & (self.steps == j - i))
        return int(not self.switch[i, g[0]]) if g.size else math.inf

    def is_equilibrium(self, state) -> bool:
        """No group of the state switches: the unperturbed chain stays put."""
        return not self.switch[self.index_of(state)].any()

    @cached_property
    def class_table(self) -> ClassTable:
        """Recurrent classes with their basins, radii, costs and tree weights,
        built on first use."""
        return _class_table(self)


def build_chain(pop: PopulationSpec, graph: TransitionDigraph | None = None) -> PerturbedChain:
    """The perturbed dynamics of the binary-type population `pop`.

    Each group's intended move comes from `graph`, the oracle digraph of
    `pop` (built when not given): the oracle's move bit for a cell's -1 (+1)
    step says that its cooperators (defectors) switch.
    """
    check_binary(pop)
    if graph is None:
        graph = build_transition_digraph(pop)
    return PerturbedChain(graph)


# -- transition costs ---------------------------------------------------------


def _number(x) -> int | float:
    """A search distance as a Python int, or math.inf."""
    return int(x) if math.isfinite(x) else math.inf


def _mistake_costs(chain: PerturbedChain, sources, reverse: bool = False) -> np.ndarray:
    """Fewest mistakes from `sources` to every state, inf where unreachable.

    A 0-1 search over the whole chain, one layer per mistake. Layer d is the
    zero-cost closure, over the oracle's switch moves (`search_layers`, which
    does not enter states already settled), of the states first reached with
    d mistakes. A tremble reaches any in-range +-1
    neighbour, the same set forwards and backwards, and leads to layer d + 1.
    With `reverse` the search runs against the edges, so dist[i] is the
    fewest mistakes from state i into `sources`. Distances are floats.
    """
    live = chain.members > 0
    walk = chain.graph.oriented(reverse)
    dist = np.full(chain.n_states, np.inf)
    settled = np.zeros(chain.n_states, dtype=bool)
    layer = sorted_unique(np.asarray(sources, dtype=np.int64))
    for d in itertools.count():
        new = np.concatenate(list(search_layers(*walk, layer, settled, False, True)))
        dist[new] = d
        tremble = (new[:, None] + chain.steps)[live[new]]
        layer = sorted_unique(tremble[~settled[tremble]])
        if not layer.size:
            return dist


def cost(chain: PerturbedChain, from_set, to_set) -> int:
    """Minimum mistakes over paths from `from_set` to `to_set`.

    One backward `_mistake_costs` search from `to_set`, read at `from_set`;
    paths end on first entry to `to_set`, which with non-negative step costs
    enforces the no-revisit, no-passing-through rule.
    """
    sources = [chain.index_of(s) for s in from_set]
    targets = [chain.index_of(s) for s in to_set]
    if not sources or not targets:
        raise ValueError("cost needs non-empty state sets")
    best = _mistake_costs(chain, targets, reverse=True)[sources].min()
    if math.isinf(best):
        raise SingularSystem("target unreachable; perturbed chain should be irreducible")
    return int(best)


@dataclass(frozen=True, eq=False)
class ClassTable:
    """Recurrent classes of a chain and their mistake-cost quantities.

    Class ids are positions in `classes` (see `recurrent_classes`);
    `class_of[i]` is state i's class id, -1 outside every class. Each class t
    takes two whole-chain searches: a backward one gives `plain[t, x]`,
    cost(x, class t), whose zeros are the states that fall into class t
    without a mistake (`basins[t]` marks those that fall into no other
    class), and a forward one gives its radius.
    `costs[a][b]` is cost(class a, class b), and `legs[a][b]` the cheapest
    walk over classes from a to b when a leg leaving class q weighs
    costs[q][.] - radii[q] (0 on the diagonal). `gammas[t]` is class t's
    tree weight over `costs` (see `gamma`).
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray
    basins: np.ndarray
    radii: tuple[int | float, ...]
    costs: tuple[tuple[int, ...], ...]
    legs: tuple[tuple[int | float, ...], ...]
    plain: np.ndarray
    gammas: tuple[int, ...]

    @property
    def stable_ids(self) -> tuple[int, ...]:
        """The stochastically stable classes: those of minimum tree weight."""
        best = min(self.gammas)
        return tuple(t for t, g in enumerate(self.gammas) if g == best)

    def modified_costs(self, t: int) -> np.ndarray:
        """Modified cost from every state to class t (see `modified_cost`), as
        floats; the entries on class t itself mean nothing."""
        via = np.array([r + row[t] for r, row in zip(self.radii, self.legs)], dtype=float)
        through = np.where(np.arange(len(via)) == t, 0, via)
        out = (self.plain + through[:, None]).min(axis=0)
        inside = self.class_of >= 0
        out[inside] = via[self.class_of[inside]]
        return out


def _class_table(chain: PerturbedChain) -> ClassTable:
    classes = recurrent_classes(chain)
    k = len(classes)
    class_of = np.full(chain.n_states, -1)
    for a, cls in enumerate(classes):
        class_of[list(cls)] = a
    plain = np.array([_mistake_costs(chain, cls, reverse=True) for cls in classes])
    if np.isinf(plain).any():
        raise SingularSystem("target unreachable; perturbed chain should be irreducible")
    reaches = plain == 0
    basins = reaches & (reaches.sum(axis=0) == 1)
    radii = [_number(_mistake_costs(chain, cls)[~basins[a]].min(initial=np.inf))
             for a, cls in enumerate(classes)]
    costs = [[int(plain[b, list(cls)].min()) for b in range(k)] for cls in classes]
    legs = [[0 if a == b else costs[a][b] - radii[a] for b in range(k)] for a in range(k)]
    for q in range(k):
        for a in range(k):
            for b in range(k):
                legs[a][b] = min(legs[a][b], legs[a][q] + legs[q][b])
    gammas = tuple(gamma(costs, t) for t in range(k))
    return ClassTable(tuple(classes), class_of, basins, tuple(radii), tuple(map(tuple, costs)),
                      tuple(map(tuple, legs)), plain, gammas)


def _class_id(chain: PerturbedChain, omega: Sequence) -> int:
    table = chain.class_table
    members = {chain.index_of(s) for s in omega}
    a = table.class_of[min(members)] if members else -1
    if a >= 0 and members == set(table.classes[a]):
        return int(a)
    raise ValueError("omega is not a recurrent class of the chain")


def _by_bstate(chain: PerturbedChain, indices) -> list[int]:
    """Chain states sorted by their BStates."""
    return sorted(map(int, indices), key=chain.states.__getitem__)


def recurrent_classes(chain: PerturbedChain) -> list[tuple[int, ...]]:
    """Sink SCCs of the unperturbed support digraph: the oracle's minimal
    invariant sets, since the unperturbed support is the oracle's switch
    edges plus self-loops. Each class lists its states by BState, and the
    classes come in the order of their smallest BState.
    """
    classes = (tuple(_by_bstate(chain, res.indices)) for res in minimal_invariant_sets(chain.graph))
    return sorted(classes, key=lambda c: chain.states[c[0]])


def basin(chain: PerturbedChain, omega: Sequence) -> frozenset[int]:
    """States from which the unperturbed chain reaches omega with probability one,
    i.e. from which no other recurrent class is reachable.

    Each class's zero-cost reverse closure is the first layer of its plain
    backward search; the basin is the part of omega's closure in no other.
    """
    return frozenset(np.flatnonzero(chain.class_table.basins[_class_id(chain, omega)]).tolist())


def radius(chain: PerturbedChain, omega: Sequence) -> int | float:
    """Mistakes needed to leave the basin of attraction, starting inside omega:
    the fewest mistakes from omega to a state outside its basin, math.inf when
    the basin is every state."""
    return chain.class_table.radii[_class_id(chain, omega)]


# -- rooted spanning arborescences --------------------------------------------


def gamma(costs: Sequence[Sequence[int]], root: int) -> int:
    """Minimum total weight of a spanning tree whose paths all lead to `root`,
    over the complete class digraph with costs[a][b] = c(class a, class b).

    Chu-Liu/Edmonds on the reversed class digraph: every class but the root
    takes its cheapest parent; each cycle this closes is contracted into one
    node, whose incoming weights are reduced by the choice they would replace.
    """
    k = len(costs)
    # (u, v, w): class v points at parent u at mistake cost w; nothing leaves the root
    edges = [(u, v, costs[v][u]) for v in range(k) if v != root for u in range(k) if u != v]
    total = 0
    while True:
        best = [math.inf] * k
        parent = [-1] * k
        for u, v, w in edges:
            if w < best[v]:
                best[v], parent[v] = w, u
        comp = [-1] * k
        seen = [-1] * k
        n_comp = 0
        for v in range(k):
            if v == root:
                continue
            if math.isinf(best[v]):
                raise SingularSystem("no rooted spanning arborescence exists")
            total += best[v]
            x = v
            while seen[x] != v and comp[x] == -1 and x != root:
                seen[x] = v
                x = parent[x]
            if x != root and comp[x] == -1:  # the walk from v closed a new cycle at x
                y = parent[x]
                while y != x:
                    comp[y] = n_comp
                    y = parent[y]
                comp[x] = n_comp
                n_comp += 1
        if n_comp == 0:
            return total
        for v in range(k):
            if comp[v] == -1:
                comp[v] = n_comp
                n_comp += 1
        edges = [(comp[u], comp[v], w - best[v]) for u, v, w in edges if comp[u] != comp[v]]
        k, root = n_comp, comp[root]


def stochastically_stable_set(chain: PerturbedChain) -> frozenset[BState]:
    """Union of the recurrent classes of minimum tree weight."""
    table = chain.class_table
    return frozenset(chain.states[i] for t in table.stable_ids for i in table.classes[t])


# -- GTH state reduction: stationary distributions and stochastic potentials ---


def _gth(chain: PerturbedChain, kernel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One GTH (Grassmann-Taksar-Heyman) state reduction of the chain.

    States are eliminated in level order (`_elimination_order`), which keeps
    fill inside a narrow band. Each step touches only the nonzero rows and
    columns of the eliminated state, and GTH never subtracts. `kernel`
    supplies the algebra: its dense n x n matrix of 8-byte entries (checked
    against DENSE_SOLVE_BYTES before anything is allocated), its no-edge
    value, the elimination of one pivot, the weight `root` of the state at
    position 0, which is never eliminated, and one back-substitution step.

    Returns (pi, position, pivots): pi[position[i]] is chain state i's
    weight, on the scale where the root weighs `root`, and pivots[k - 1] is
    the pivot of the state at position k.
    """
    n = chain.n_states
    needed = 8 * n * n
    if needed > DENSE_SOLVE_BYTES:
        raise StateSpaceTooLarge(
            f"the stationary solve of {n} states needs {needed} bytes of dense matrix, "
            f"above the limit of {DENSE_SOLVE_BYTES}"
        )
    position = np.argsort(_elimination_order(chain))
    p = kernel.matrix(chain, position)
    none = kernel.no_edge
    # the pivot of state k goes on the diagonal, and no later step touches
    # column k, so the back-substitution reads both as this step left them
    for k in range(n - 1, 0, -1):
        cols = np.flatnonzero(p[k, :k] != none)
        if not cols.size:
            raise SingularSystem("state-reduction hit a zero pivot; chain not irreducible")
        kernel.pivot(p, k, np.flatnonzero(p[:k, k] != none), cols)
    pi = np.full(n, kernel.root, dtype=p.dtype)
    for k in range(1, n):
        rows = np.flatnonzero(p[:k, k] != none)
        pi[k] = kernel.back(pi[rows], p[rows, k], p[k, k])
    return pi, position, p.diagonal()[1:].copy()


def _elimination_order(chain: PerturbedChain) -> np.ndarray:
    """Chain states by level, their number of cooperators, and within a level
    by their counts, the field with the most values most significant.

    Every transition moves one agent, so it joins adjacent levels and a
    level order is a breadth-first order of the support from the all-defect
    state. The within-level tie-break is tied for the least GTH work of the
    24 field orders on ex7_1..4, ex7_1x2 and ex7_3x2, less than reverse
    Cuthill-McKee on each.
    """
    counts = chain.graph.coords[_FIELDS]  # one row per BState field
    caps = [chain.graph.space.caps[k] for k in _FIELDS]
    # least significant first; of two fields with equal ranges the earlier
    # BState field is the less significant, whatever the cell order
    fields = np.argsort(caps, kind="stable")
    return np.lexsort((*counts[fields], chain.graph.n_c))


def _dense(position: np.ndarray, dst: np.ndarray, values: np.ndarray, fill, dtype) -> np.ndarray:
    """n x n matrix of `values` at the positions of each transition, `fill` elsewhere."""
    n = len(position)
    p = np.full((n, n), fill, dtype=dtype)
    rows, cols = np.nonzero(dst >= 0)
    p[position[rows], position[dst[rows, cols]]] = values[rows, cols]
    return p


class _FloatKernel:
    """Probabilities at tremble rate `epsilon` as float64."""

    no_edge, root = 0, 1

    def __init__(self, epsilon: Fraction):
        self.epsilon = epsilon

    def matrix(self, chain: PerturbedChain, position: np.ndarray) -> np.ndarray:
        # int / int is correctly rounded: each entry is the float of the exact one
        dst, num, _ = chain.transitions(self.epsilon)
        return _dense(position, dst, num / chain.denominator(self.epsilon), 0, float)

    @staticmethod
    def pivot(p: np.ndarray, k: int, rows: np.ndarray, cols: np.ndarray) -> None:
        p[k, k] = s = p[k, cols].sum()
        p[np.ix_(rows, cols)] += np.multiply.outer(p[rows, k] / s, p[k, cols])

    @staticmethod
    def back(pi, col, pivot):
        return (pi * col).sum() / pivot


class _ExactKernel(_FloatKernel):
    """Exact probabilities at tremble rate `epsilon`: a fraction-free
    (Bareiss) elimination of A = N(I - P) in Python ints, N the chain's
    `denominator(epsilon)`, on B = N P, which is -A off the diagonal.

    Eliminating k takes the GTH pivot S, the sum of B[k, :k], which is also
    A's Bareiss pivot because A's rows sum to zero. Bareiss sets each row r
    that k touches to (B[r, :k] S + B[r, k] B[k, :k]) // root, `root` the
    previous pivot (1 before the first): by Sylvester's identity every entry
    is then a minor of A, so the division is exact and no row gcd is needed.
    A pivot only scales the rows it does not touch, by S / root, so that is
    done lazily: `at[r]` is the pivot of row r's last update, and row r holds
    its minors times at[r] / root. The pivot row is brought up to root
    (B[k] root // at[k]) before it is read; a touched row is updated from its
    own scale, dividing by at[r] instead of root, and its entry in column k,
    which the back-substitution reads, is brought up to root. The diagonal is
    never read: it starts N above -A's (the self-loop) and stays N at[r]
    above what a minor would give there, so its divisions are exact as well.

    The last pivot is A's tree sum for the root, the state at position 0;
    the back-substitution then gives every state's tree sum, an integer, by
    n divisions, and a remainder there means a fault in the elimination."""

    def matrix(self, chain: PerturbedChain, position: np.ndarray) -> np.ndarray:
        dst, num, _ = chain.transitions(self.epsilon)
        self.root = 1
        self.at = np.full(chain.n_states, 1, dtype=object)
        return _dense(position, dst, num, 0, object)

    @staticmethod
    def divide(block: np.ndarray, divisor) -> np.ndarray:
        """block // divisor, which the elimination only asks when it is exact."""
        return block // divisor

    def pivot(self, p: np.ndarray, k: int, rows: np.ndarray, cols: np.ndarray) -> None:
        prev, at = self.root, self.at[rows]
        if self.at[k] != prev:
            p[k, :k] = self.divide(p[k, :k] * prev, self.at[k])
        s = sum(p[k, cols].tolist())
        block = p[rows, :k] * s
        block[:, cols] += np.multiply.outer(p[rows, k], p[k, cols])
        p[rows, :k] = self.divide(block, at[:, None])
        stale = rows[at != prev]
        p[stale, k] = self.divide(p[stale, k] * prev, self.at[stale])
        self.at[rows] = p[k, k] = self.root = s

    @staticmethod
    def back(pi, col, pivot):
        weight, rest = divmod(sum((pi * col).tolist()), pivot)
        if rest:
            raise SingularSystem("inexact back-substitution in the exact state reduction")
        return weight


# no-edge marker of the order kernel; never enters its arithmetic
_NO_EDGE = np.iinfo(np.int64).max


class _OrderKernel:
    """Leading epsilon-orders: min-plus over the one-step mistake costs, which
    do not depend on epsilon. GTH never subtracts, so no leading term of a
    sum it forms cancels: the order of a sum is the least order of its terms,
    and the order of a product or quotient the sum or difference of the
    orders."""

    no_edge, root = _NO_EDGE, 0

    @staticmethod
    def matrix(chain: PerturbedChain, position: np.ndarray) -> np.ndarray:
        return _dense(position, *chain.support, _NO_EDGE, np.int64)

    @staticmethod
    def pivot(p: np.ndarray, k: int, rows: np.ndarray, cols: np.ndarray) -> None:
        p[k, k] = s = p[k, cols].min()
        block = np.ix_(rows, cols)
        p[block] = np.minimum(p[block], np.add.outer(p[rows, k] - s, p[k, cols]))

    @staticmethod
    def back(pi, col, pivot):
        return (pi + col).min() - pivot


def stationary_distribution(chain: PerturbedChain, epsilon) -> list[Fraction]:
    """Unique stationary row vector of the perturbed chain at tremble rate
    epsilon, which must be positive.

    One GTH state reduction (see `_gth`) over a dense n x n matrix: a
    fraction-free one in Python ints up to EXACT_SOLVE_LIMIT states, whose
    weights are the states' rooted tree sums, so mu(x) is x's tree sum over
    their total, exactly; of float64 above it. An irreducible chain has
    exactly one stationary distribution, so the exact result does not depend
    on the elimination order. Float results come back as Fraction(float(x)).
    """
    epsilon = tremble_rate(epsilon, solve=True)
    if chain.n_states <= EXACT_SOLVE_LIMIT:
        pi, position, _ = _gth(chain, _ExactKernel(epsilon))
        total = sum(pi.tolist())
        return [Fraction(w, total) for w in pi[position].tolist()]
    pi, position, _ = _gth(chain, _FloatKernel(epsilon))
    return [Fraction(float(x)) for x in pi[position] / pi.sum()]


def stochastic_potential(chain: PerturbedChain) -> np.ndarray:
    """Stochastic potential of every chain state: the fewest mistakes of a
    spanning tree of one-step costs whose paths all lead to that state.

    The same GTH state reduction over leading epsilon-orders: each
    transition's one-step mistake cost, and no edge elsewhere. By the Markov
    chain tree theorem mu_eps(x) is proportional to the sum of the
    x-rooted tree weights, and the product of the GTH pivots is that sum for
    the state that is never eliminated; so the potential of x is its order
    relative to that state plus the sum of the pivot orders. On a recurrent class it
    equals the class's gamma, and its minimum is taken exactly on the
    stochastically stable states. It does not depend on epsilon.
    """
    pi, position, pivots = _gth(chain, _OrderKernel)
    return (pi + pivots.sum())[position]


def stationary_residual(chain: PerturbedChain, epsilon, mu: Sequence[Fraction]) -> Fraction:
    """L1 residual of mu P - mu at tremble rate epsilon; identically zero for
    the exact solver.

    Exact, in Python ints over the common denominator of mu (one power of two
    for a float solve) times the chain's, so no Fraction is formed per term.
    """
    dst, num, _ = chain.transitions(epsilon)
    den, chain_den = math.lcm(*(x.denominator for x in mu)), chain.denominator(epsilon)
    weights = np.array([x.numerator * (den // x.denominator) for x in mu], dtype=object)
    live = dst >= 0
    flow = np.zeros(chain.n_states, dtype=object)
    np.add.at(flow, dst[live], (weights[:, None] * num)[live])
    return Fraction(sum(abs(flow - weights * chain_den)), den * chain_den)


# -- modified costs (step-by-step evolution discounts) -------------------------


def modified_cost(chain: PerturbedChain, start, omega: Sequence) -> int | float:
    """Path cost to omega minus the radii of intermediate recurrent classes.

    Minimized over sequences of recurrent classes ending at omega; segment
    costs are shortest paths entering no other class, and each strictly
    intermediate class contributes minus its radius. A path's first class is
    never discounted. Raw values are reported without clamping.

    Every path out of a class q leaves q's basin first, so each leg out of q
    costs at least R(q) and every discounted leg weight is non-negative. A
    path that passes through a class on its way therefore costs no less than
    the same path counted with that class as a discounted stop, so segments
    and legs may be plain costs, which may enter other classes, and the
    cheapest walk over classes is a simple one. The shortest-path table
    `legs` over the weights cost(q, .) - R(q) equals the minimum over simple
    sequences: from a state of class s it is R(s) + legs[s][omega], and from
    any other state x min(cost(x, omega), min_q cost(x, q) + R(q) +
    legs[q][omega]), one vectorized minimum over q of the class table's
    plain costs (`ClassTable.modified_costs`).
    """
    table = chain.class_table
    t = _class_id(chain, omega)
    x = chain.index_of(start)
    if table.class_of[x] == t:
        raise ValueError("start state must lie outside omega")
    return _number(table.modified_costs(t)[x])


# -- extreme-equilibrium theorem -----------------------------------------------


def equilibria_of_chain(chain: PerturbedChain) -> list[BState]:
    """The states no group of which switches, in BState order."""
    return sorted(chain.states[i] for i in np.flatnonzero(~chain.switch.any(axis=1)))


def is_mixed_equilibrium_state(pop: PopulationSpec, state: BState) -> bool:
    r = state.x1I + state.x2I
    return 1 <= r <= pop.m - 1


def corresponding_extreme(pop: PopulationSpec, mixed: BState) -> BState:
    """The unanimity state adjacent to a mixed equilibrium's cooperator block."""
    r = mixed.x1I + mixed.x2I
    if not 1 <= r <= pop.m - 1:
        raise NotMixed(f"{mixed} has r={r}, needs 1..{pop.m - 1}")
    na, nc = pop.n_a(1), pop.n_c(1)
    if mixed.xa == na and mixed.xc == 0:
        return BState(0, na, 0, 0)
    if mixed.xa == 0 and mixed.xc == nc:
        return BState(pop.type_a(1).imitators, 0, pop.type_c(1).imitators, nc)
    raise NotMixed(f"{mixed} is not of a mixed-equilibrium form")


@dataclass(frozen=True)
class ExtremeTheoremVerdict:
    hypothesis_holds: bool
    conclusion_status: str  # "verified" | "trivially_consistent" | "not_applicable" | "violated"
    mixed_equilibria: tuple[BState, ...]
    stable_equilibria: tuple[BState, ...]


def check_extreme_theorem(chain: PerturbedChain) -> ExtremeTheoremVerdict:
    """Does stochastic stability of equilibria force an extreme equilibrium?

    Checks the hypothesis (each mixed equilibrium's corresponding extreme
    state is itself an equilibrium) and then the conclusion (the set of
    stochastically stable equilibria is empty or contains an extreme one).
    """
    pop = chain.pop
    stable = stochastically_stable_set(chain)
    eqs = equilibria_of_chain(chain)
    mixed = tuple(s for s in eqs if is_mixed_equilibrium_state(pop, s))
    # a list, so that corresponding_extreme checks the form of every mixed equilibrium
    hypothesis = all([chain.is_equilibrium(corresponding_extreme(pop, s)) for s in mixed])
    stable_eqs = tuple(s for s in eqs if s in stable)

    if not eqs:
        status = "trivially_consistent"
    else:
        extreme_in = any(not is_mixed_equilibrium_state(pop, s) for s in stable_eqs)
        conclusion = (len(stable_eqs) == 0) or extreme_in
        if hypothesis:
            status = "verified" if conclusion else "violated"
        else:
            status = "not_applicable"
    return ExtremeTheoremVerdict(
        hypothesis_holds=hypothesis,
        conclusion_status=status,
        mixed_equilibria=mixed,
        stable_equilibria=stable_eqs,
    )


# -- reporting -----------------------------------------------------------------


def exact_str(q: Fraction) -> str:
    """`str(q)` at any size: a stationary mass can have more digits than
    Python's int-to-str limit allows (4,300), so ints go 1,000 at a time."""
    def digits(n: int) -> str:
        chunks = []
        while n >= 10 ** 1000:
            n, low = divmod(n, 10 ** 1000)
            chunks.append(f"{low:01000d}")
        return str(n) + "".join(reversed(chunks))

    num, den = digits(abs(q.numerator)), digits(q.denominator)
    return ("-" if q < 0 else "") + (num if q.denominator == 1 else f"{num}/{den}")


def stochastic_report(chain: PerturbedChain,
                      stationary: dict[Fraction, list[Fraction]] | None = None) -> dict:
    """JSON-ready report on the chain, states as BStates; `stationary` maps
    each tremble rate to report to its solved distribution
    (`stationary_distribution`)."""
    table = chain.class_table
    stable = stochastically_stable_set(chain)
    report: dict = {
        "states": chain.n_states,
        "classes": [
            {
                "id": t,
                "states": [list(chain.states[j]) for j in cls],
                "singleton": len(cls) == 1,
                "radius": r if isinstance(r, int) else None,
                "basin": sorted(list(chain.states[j]) for j in np.flatnonzero(basin)),
                "gamma": g,
            }
            for t, (cls, r, basin, g) in enumerate(zip(table.classes, table.radii, table.basins,
                                                        table.gammas))
        ],
        "pairwise_costs": [list(row) for row in table.costs],
        "stochastically_stable_class_ids": list(table.stable_ids),
        "stochastically_stable_states": sorted(list(s) for s in stable),
    }
    verdict = check_extreme_theorem(chain)
    report["extreme_theorem"] = {
        "hypothesis_holds": verdict.hypothesis_holds,
        "conclusion_status": verdict.conclusion_status,
        "mixed_equilibria": [list(s) for s in verdict.mixed_equilibria],
        "stable_equilibria": [list(s) for s in verdict.stable_equilibria],
    }
    if stationary:
        stable_indices = [i for t in table.stable_ids for i in table.classes[t]]
        by_eps = {}
        for eps, mu in stationary.items():
            by_eps[exact_str(eps)] = {
                "stable_set_mass": exact_str(sum((mu[i] for i in stable_indices), Fraction(0))),
                "by_state": {str(tuple(chain.states[i])): exact_str(mu[i])
                             for i in _by_bstate(chain, range(chain.n_states))},
            }
        report["stationary"] = by_eps
    return report


def export_class_digraph_dot(chain: PerturbedChain, stream) -> None:
    """DOT rendering of the chain's recurrent-class cost digraph."""
    table = chain.class_table
    stream.write("digraph recurrent_classes {\n")
    for t, cls in enumerate(table.classes):
        label = ", ".join(str(tuple(chain.states[j])) for j in cls)
        stream.write(f'  n{t} [label="{label}"];\n')
    for a, row in enumerate(table.costs):
        for b, c in enumerate(row):
            if a != b:
                stream.write(f'  n{a} -> n{b} [label="{c}"];\n')
    stream.write("}\n")
