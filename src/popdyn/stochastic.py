"""Perturbed dynamics of mixed binary-type populations.

One nonconformist type and one conformist type, each with at least one
imitator and one best-responder. Active agents tremble: with probability
epsilon they play the opposite of what their update rule says. The resulting
chain is an aperiodic irreducible Markov chain for every epsilon in (0,1);
its epsilon->0 behavior is governed by the 0/1/infinity mistake-cost graph:
recurrent classes, basins and radii, minimum-weight rooted spanning
arborescences (gamma), and exact stationary distributions. The chain has no
update rules of its own: it reads each group's intended move off the oracle
digraph, and its recurrent classes are the oracle's minimal invariant sets.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .cells import BEST_RESPONDER, IMITATOR
from .errors import NotMixed, SingularSystem, StateSpaceTooLarge
from .model import (
    ANTICOORDINATING,
    COORDINATING,
    AgentTypeSpec,
    PopulationSpec,
    UtilityLine,
    parse_rational,
    temper_from_lines,
    validate_population,
)
from .oracle import (TransitionDigraph, build_transition_digraph, frontier_search,
                     minimal_invariant_sets)

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


@dataclass(frozen=True)
class BinaryTypePopulation:
    """Counts, utility lines, tempers and activation weights of the four cells."""

    ma: int
    na: int
    mc: int
    nc: int
    line_ca: UtilityLine
    line_da: UtilityLine
    line_cc: UtilityLine
    line_dc: UtilityLine
    tau_a: Fraction
    tau_c: Fraction
    weights: tuple[Fraction, Fraction, Fraction, Fraction]  # (p_Ia, p_a, p_Ic, p_c)

    def __post_init__(self):
        if min(self.ma, self.na, self.mc, self.nc) < 1:
            raise ValueError("binary-type populations need ma, na, mc, nc >= 1")
        if any(w <= 0 for w in self.weights):
            raise ValueError("activation weights must be strictly positive")
        total = (
            self.ma * self.weights[0]
            + self.na * self.weights[1]
            + self.mc * self.weights[2]
            + self.nc * self.weights[3]
        )
        if total != 1:
            raise ValueError(f"activation weights must sum to 1 over agents, got {total}")

    @property
    def m(self) -> int:
        return self.ma + self.mc

    @property
    def n(self) -> int:
        return self.ma + self.na + self.mc + self.nc

    @property
    def caps(self) -> tuple[int, int, int, int]:
        return (self.ma, self.na, self.mc, self.nc)

    @classmethod
    def from_lines(cls, ma, na, mc, nc, line_ca, line_da, line_cc, line_dc, weights=None):
        tau_a = temper_from_lines(line_ca, line_da)
        tau_c = temper_from_lines(line_cc, line_dc)
        if line_ca.slope - line_da.slope >= 0:
            raise ValueError("anticoordinating type needs uC - uD decreasing")
        if line_cc.slope - line_dc.slope <= 0:
            raise ValueError("coordinating type needs uC - uD increasing")
        n = ma + na + mc + nc
        if weights is None:
            w = Fraction(1, n)
            weights = (w, w, w, w)
        else:
            weights = tuple(parse_rational(x) for x in weights)
        return cls(ma, na, mc, nc, line_ca, line_da, line_cc, line_dc, tau_a, tau_c, weights)

    @classmethod
    def from_population_spec(cls, pop: PopulationSpec, weights=None) -> "BinaryTypePopulation":
        if pop.b != 1 or pop.bp != 1:
            raise ValueError("binary-type analysis needs exactly one type of each kind")
        ta, tc = pop.type_a(1), pop.type_c(1)
        if ta.imitators < 1 or tc.imitators < 1:
            raise ValueError("binary-type analysis needs imitators of both types")
        return cls.from_lines(
            ta.imitators, ta.best_responders, tc.imitators, tc.best_responders,
            ta.cooperator_utility, ta.defector_utility,
            tc.cooperator_utility, tc.defector_utility,
            weights,
        )

    def to_population_spec(self) -> PopulationSpec:
        return validate_population(
            {
                "anticoordinating": [
                    AgentTypeSpec(ANTICOORDINATING, self.line_ca, self.line_da,
                                  self.tau_a, self.na, self.ma)
                ],
                "coordinating": [
                    AgentTypeSpec(COORDINATING, self.line_cc, self.line_dc,
                                  self.tau_c, self.nc, self.mc)
                ],
            }
        )


# BState fields in order, as (role, kind) cells of the oracle's CellSpace; the
# one place that knows (x1I, xa, x2I, xc) <-> (I_a, I_c, BR_a, BR_c).
_BSTATE_CELLS = (
    (IMITATOR, ANTICOORDINATING),
    (BEST_RESPONDER, ANTICOORDINATING),
    (IMITATOR, COORDINATING),
    (BEST_RESPONDER, COORDINATING),
)


@dataclass
class PerturbedChain:
    """Sparse exact transition matrix plus the epsilon-independent supports.

    Chain indices enumerate BStates lexicographically; `oracle_index[i]` is the
    index of chain state i in the oracle digraph `graph`.
    """

    bpop: BinaryTypePopulation
    epsilon: Fraction
    states: list[BState]
    index: dict[BState, int]
    rows: list[dict[int, Fraction]]
    support0: list[frozenset[int]]
    support_eps: list[frozenset[int]]
    graph: TransitionDigraph
    oracle_index: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.states)

    def one_step_cost(self, i: int, j: int) -> float:
        if j in self.support0[i]:
            return 0
        if j in self.support_eps[i]:
            return 1
        return math.inf

    def is_equilibrium(self, state: BState | int) -> bool:
        i = state if isinstance(state, int) else self.index[state]
        return self.support0[i] == frozenset((i,))

    @cached_property
    def support_matrix(self) -> csr_matrix:
        """0/1 CSR matrix of the perturbed support `support_eps`."""
        src = [i for i, succ in enumerate(self.support_eps) for _ in succ]
        dst = [j for succ in self.support_eps for j in succ]
        n = self.n_states
        return csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n))

    @cached_property
    def mistake_steps(self) -> tuple[list[list[tuple[int, int]]], list[list[tuple[int, int]]]]:
        """(forward, backward) one-step mistake costs over the perturbed support:
        forward[i] lists (j, cost) for each j in support_eps[i], and backward[j]
        the same edges as (i, cost); a cost is 0 on support0 and 1 elsewhere."""
        forward = [[(j, int(j not in zero)) for j in succ]
                   for succ, zero in zip(self.support_eps, self.support0)]
        backward: list[list[tuple[int, int]]] = [[] for _ in forward]
        for i, edges in enumerate(forward):
            for j, c in edges:
                backward[j].append((i, c))
        return forward, backward

    @cached_property
    def class_table(self) -> ClassTable:
        """Recurrent classes with their basins, radii and costs, built on first use."""
        return _class_table(self)


def build_chain(bpop: BinaryTypePopulation, epsilon,
                graph: TransitionDigraph | None = None) -> PerturbedChain:
    """Exact transition matrix of the perturbed dynamics at tremble rate epsilon.

    Each of the up-to-8 (cell, strategy) groups of a state is activated with
    mass (member count) * (per-agent weight); the active agent plays her rule's
    choice with probability 1-epsilon and the opposite with epsilon. The rule's
    choice comes from `graph`, the oracle digraph of `bpop.to_population_spec()`
    (built when not given): a switch edge o -> o - stride (o + stride) moves a
    cooperator out of (into) that cell, and a group with no such edge keeps its
    strategy.
    """
    epsilon = parse_rational(epsilon)
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must lie in [0, 1)")
    if graph is None:
        graph = build_transition_digraph(bpop.to_population_spec())
    space = graph.space
    strides = [space.strides[space.position[(role, kind, 1)]] for role, kind in _BSTATE_CELLS]
    caps = bpop.caps
    grid = np.indices(tuple(c + 1 for c in caps)).reshape(4, -1).T
    oracle_index = grid @ np.array(strides, dtype=np.int64)
    chain_of = np.argsort(oracle_index).tolist()
    states = [BState(*row) for row in grid.tolist()]
    index = {s: i for i, s in enumerate(states)}
    weights = bpop.weights
    keep = 1 - epsilon
    rows: list[dict[int, Fraction]] = []
    support0: list[frozenset[int]] = []
    support_eps: list[frozenset[int]] = []
    for i, (state, o) in enumerate(zip(states, oracle_index.tolist())):
        switches = set(graph.switch_successors(o).tolist())
        row: dict[int, Fraction] = {}
        sup0: set[int] = set()
        for f in range(4):
            for members, dst in ((state[f], o - strides[f]), (caps[f] - state[f], o + strides[f])):
                if members == 0:
                    continue
                mass = members * weights[f]
                moved = chain_of[dst]
                main, flip = (moved, i) if dst in switches else (i, moved)
                row[main] = row.get(main, 0) + mass * keep
                row[flip] = row.get(flip, 0) + mass * epsilon
                sup0.add(main)
        support_eps.append(frozenset(row))
        if epsilon == 0:
            row = {j: p for j, p in row.items() if p > 0}
        rows.append(row)
        support0.append(frozenset(sup0))
    return PerturbedChain(bpop, epsilon, states, index, rows, support0, support_eps,
                          graph, oracle_index)


# -- transition costs ---------------------------------------------------------


def _as_indices(chain: PerturbedChain, group) -> list[int]:
    return [s if isinstance(s, int) else chain.index[BState(*s)] for s in group]


def _mistake_costs(chain: PerturbedChain, sources: Iterable[int],
                   stop=frozenset(), reverse: bool = False) -> list[int | float]:
    """Fewest mistakes from `sources` to every state, math.inf where unreachable.

    A 0-1 breadth-first search over the perturbed support: a step the
    unperturbed chain takes costs 0, a tremble costs 1. States in `stop` are
    reached but never left. With `reverse` the search runs against the edges,
    so dist[i] is the fewest mistakes from state i into `sources`.
    """
    steps = chain.mistake_steps[reverse]
    dist: list[int | float] = [math.inf] * chain.n_states
    queue = deque(sources)
    for i in queue:
        dist[i] = 0
    while queue:
        u = queue.popleft()
        if u in stop:
            continue
        d = dist[u]
        for v, c in steps[u]:
            if d + c < dist[v]:
                dist[v] = d + c
                if c:
                    queue.append(v)
                else:
                    queue.appendleft(v)
    return dist


def cost(chain: PerturbedChain, from_set, to_set) -> int:
    """Minimum mistakes over paths from `from_set` to `to_set`.

    The minimum over `to_set` of one `_mistake_costs` search from `from_set`;
    paths end on first entry to `to_set`, which with non-negative step costs
    enforces the no-revisit, no-passing-through rule.
    """
    sources = _as_indices(chain, from_set)
    targets = frozenset(_as_indices(chain, to_set))
    if not sources or not targets:
        raise ValueError("cost needs non-empty state sets")
    dist = _mistake_costs(chain, sources, stop=targets)
    best = min(dist[j] for j in targets)
    if math.isinf(best):
        raise SingularSystem("target unreachable; perturbed chain should be irreducible")
    return best


@dataclass(frozen=True)
class ClassTable:
    """Recurrent classes of a chain and their mistake-cost quantities.

    Class ids are positions in `classes`; `class_of` maps each class state to
    its id. `costs[a][b]` is cost(class a, class b) and `rseg[a][b]` the
    cheapest path from class a into class b that enters no other class.
    `legs[a][b]` is the cheapest walk over classes from a to b when a leg
    leaving class q weighs rseg[q][.] - radii[q] (0 on the diagonal).
    `seg[x][q]`, for a state x in no class, is the cheapest path from x into
    class q that enters no other class; it is filled on first use.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: dict[int, int]
    basins: tuple[frozenset[int], ...]
    radii: tuple[int | float, ...]
    costs: tuple[tuple[int, ...], ...]
    rseg: tuple[tuple[int | float, ...], ...]
    legs: tuple[tuple[int | float, ...], ...]
    seg: dict[int, tuple[int | float, ...]] = field(default_factory=dict, compare=False)


def _class_table(chain: PerturbedChain) -> ClassTable:
    classes = recurrent_classes(chain)
    k = len(classes)
    class_of = {i: a for a, cls in enumerate(classes) for i in cls}
    # reaches[a][i]: chain state i falls into class a without a mistake
    order = chain.oracle_index
    reaches = np.array([frontier_search(chain.graph, order[list(cls)], reverse=True)[order]
                        for cls in classes])
    shared = reaches.sum(axis=0) > 1
    basins = tuple(frozenset(np.flatnonzero(r & ~shared).tolist()) for r in reaches)
    radii, costs, rseg = [], [], []
    for a, cls in enumerate(classes):
        dist = _mistake_costs(chain, cls)
        if math.inf in dist:
            raise SingularSystem("target unreachable; perturbed chain should be irreducible")
        radii.append(min((d for i, d in enumerate(dist) if i not in basins[a]), default=math.inf))
        costs.append(tuple(min(dist[j] for j in other) for other in classes))
        dist = _mistake_costs(chain, cls, stop=class_of.keys() - set(cls))
        rseg.append(tuple(min(dist[j] for j in other) for other in classes))
    legs = [[0 if a == b else rseg[a][b] - radii[a] for b in range(k)] for a in range(k)]
    for q in range(k):
        for a in range(k):
            for b in range(k):
                legs[a][b] = min(legs[a][b], legs[a][q] + legs[q][b])
    return ClassTable(tuple(classes), class_of, basins, tuple(radii), tuple(costs),
                      tuple(rseg), tuple(map(tuple, legs)))


def _class_id(chain: PerturbedChain, omega: Sequence) -> int:
    omega_set = set(_as_indices(chain, omega))
    for a, cls in enumerate(chain.class_table.classes):
        if omega_set == set(cls):
            return a
    raise ValueError("omega is not a recurrent class of the chain")


def recurrent_classes(chain: PerturbedChain) -> list[tuple[int, ...]]:
    """Sink SCCs of the unperturbed support digraph, ordered by smallest state.

    These are the oracle's minimal invariant sets in chain indices: the
    unperturbed support is the oracle's switch edges plus self-loops.
    """
    chain_of = np.argsort(chain.oracle_index)
    classes = (tuple(sorted(chain_of[res.indices].tolist()))
               for res in minimal_invariant_sets(chain.graph))
    return sorted(classes, key=lambda c: c[0])


def basin(chain: PerturbedChain, omega: Sequence) -> frozenset[int]:
    """States from which the unperturbed chain reaches omega with probability one,
    i.e. from which no other recurrent class is reachable.

    Each class's zero-cost reverse closure is one backward search over the
    oracle's moves; the basin is the part of omega's closure in no other.
    """
    return chain.class_table.basins[_class_id(chain, omega)]


def radius(chain: PerturbedChain, omega: Sequence) -> int | float:
    """Mistakes needed to leave the basin of attraction, starting inside omega:
    the fewest mistakes from omega to a state outside its basin, math.inf when
    the basin is every state."""
    return chain.class_table.radii[_class_id(chain, omega)]


# -- rooted spanning arborescences --------------------------------------------


@dataclass(frozen=True)
class ClassGraph:
    """Complete digraph over recurrent classes with pairwise transition costs."""

    classes: tuple[tuple[int, ...], ...]
    costs: tuple[tuple[int, ...], ...]  # costs[i][j] = c(class_i, class_j); 0 on diagonal

    @property
    def k(self) -> int:
        return len(self.classes)


def build_class_graph(chain: PerturbedChain) -> ClassGraph:
    table = chain.class_table
    return ClassGraph(table.classes, table.costs)


def gamma(class_graph: ClassGraph, root: int) -> int:
    """Minimum total weight of a spanning tree whose paths all lead to `root`.

    Chu-Liu/Edmonds on the reversed class digraph: every class but the root
    takes its cheapest parent; each cycle this closes is contracted into one
    node, whose incoming weights are reduced by the choice they would replace.
    """
    k = class_graph.k
    # (u, v, w): class v points at parent u at mistake cost w; nothing leaves the root
    edges = [
        (u, v, class_graph.costs[v][u]) for v in range(k) if v != root for u in range(k) if u != v
    ]
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


@dataclass(frozen=True)
class StochasticStabilityResult:
    class_graph: ClassGraph
    gammas: tuple[int, ...]
    stable_class_ids: tuple[int, ...]
    stable_states: frozenset[BState]
    radii: tuple[object, ...]
    basins: tuple[frozenset[int], ...]


def stochastically_stable_set(bpop: BinaryTypePopulation,
                              chain: PerturbedChain | None = None) -> StochasticStabilityResult:
    """Union of the recurrent classes of minimum tree weight, plus the per-class report."""
    if chain is None:
        chain = build_chain(bpop, Fraction(0))
    cg = build_class_graph(chain)
    gammas = tuple(gamma(cg, i) for i in range(cg.k))
    best = min(gammas)
    stable_ids = tuple(i for i, g in enumerate(gammas) if g == best)
    states: set[BState] = set()
    for i in stable_ids:
        states.update(chain.states[j] for j in cg.classes[i])
    table = chain.class_table
    return StochasticStabilityResult(cg, gammas, stable_ids, frozenset(states),
                                     table.radii, table.basins)


# -- GTH state reduction: stationary distributions and stochastic potentials ---


def _gth(chain: PerturbedChain, kernel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One GTH (Grassmann-Taksar-Heyman) state reduction of the chain.

    States are eliminated in reverse Cuthill-McKee order of the support; every
    move changes one cell by +-1, so that order keeps fill inside a narrow
    band. Each step touches only the nonzero rows and columns of the
    eliminated state, and GTH never subtracts. `kernel` supplies the algebra:
    its dense n x n matrix of 8-byte entries (checked against
    DENSE_SOLVE_BYTES before anything is allocated), its no-edge and unit
    values, the elimination of one pivot, and one back-substitution step.

    Returns (pi, position, pivots): pi[position[i]] is chain state i's
    weight relative to the state at position 0, which is never eliminated,
    and pivots[k - 1] is the pivot of the state at position k.
    """
    n = chain.n_states
    needed = 8 * n * n
    if needed > DENSE_SOLVE_BYTES:
        raise StateSpaceTooLarge(
            f"the stationary solve of {n} states needs {needed} bytes of dense matrix, "
            f"above the limit of {DENSE_SOLVE_BYTES}"
        )
    order = reverse_cuthill_mckee(chain.support_matrix, symmetric_mode=False)
    position = np.argsort(order)
    p = kernel.matrix(chain, position)
    none = kernel.no_edge
    # the pivot of state k goes on the diagonal, and no later step touches
    # column k, so the back-substitution reads both as this step left them
    for k in range(n - 1, 0, -1):
        cols = np.flatnonzero(p[k, :k] != none)
        if not cols.size:
            raise SingularSystem("state-reduction hit a zero pivot; chain not irreducible")
        kernel.pivot(p, k, np.flatnonzero(p[:k, k] != none), cols)
    pi = np.full(n, kernel.one, dtype=p.dtype)
    for k in range(1, n):
        rows = np.flatnonzero(p[:k, k] != none)
        pi[k] = kernel.back(pi[rows], p[rows, k], p[k, k])
    return pi, position, p.diagonal()[1:].copy()


class _FloatKernel:
    """Probabilities as float64."""

    no_edge, one = 0, 1

    @staticmethod
    def matrix(chain: PerturbedChain, position: np.ndarray) -> np.ndarray:
        n = chain.n_states
        p = np.zeros((n, n))
        for i, row in enumerate(chain.rows):
            p[position[i], position[list(row)]] = list(row.values())
        return p

    @staticmethod
    def pivot(p: np.ndarray, k: int, rows: np.ndarray, cols: np.ndarray) -> None:
        p[k, k] = s = p[k, cols].sum()
        p[np.ix_(rows, cols)] += np.multiply.outer(p[rows, k] / s, p[k, cols])

    @staticmethod
    def back(pi, col, pivot):
        return (pi * col).sum() / pivot


class _ExactKernel(_FloatKernel):
    """Exact probabilities: each working row holds Python ints over one row
    denominator. Eliminating pivot k scales every touched row's columns below k
    by the pivot's integer sum S, adds a[r, k] * a[k, cols] and divides the row
    by its gcd; column k and the pivot become Fractions once, and the float
    kernel's back-substitution runs on them."""

    def matrix(self, chain: PerturbedChain, position: np.ndarray) -> np.ndarray:
        n = chain.n_states
        p = np.zeros((n, n), dtype=object)
        self.den = np.zeros(n, dtype=object)
        for i, row in enumerate(chain.rows):
            self.den[position[i]] = d = math.lcm(*(x.denominator for x in row.values()))
            p[position[i], position[list(row)]] = [x.numerator * (d // x.denominator)
                                                   for x in row.values()]
        return p

    def pivot(self, p: np.ndarray, k: int, rows: np.ndarray, cols: np.ndarray) -> None:
        s = sum(p[k, cols].tolist())
        col, den = p[rows, k], self.den[rows]
        block = p[rows, :k] * s
        block[:, cols] += np.multiply.outer(col, p[k, cols])
        scaled = den * s
        g = np.array([math.gcd(d, *r) for d, r in zip(scaled.tolist(), block.tolist())],
                     dtype=object)
        p[rows, :k] = block // g[:, None]
        self.den[rows] = scaled // g
        p[rows, k] = [Fraction(a, d) for a, d in zip(col.tolist(), den.tolist())]
        p[k, k] = Fraction(s, self.den[k])


# no-edge marker of the order kernel; never enters its arithmetic
_NO_EDGE = np.iinfo(np.int64).max


class _OrderKernel:
    """Leading epsilon-orders: min-plus over one-step mistake costs. GTH never
    subtracts, so no leading term of a sum it forms cancels: the order of a sum
    is the least order of its terms, and the order of a product or quotient the
    sum or difference of the orders."""

    no_edge, one = _NO_EDGE, 0

    @staticmethod
    def matrix(chain: PerturbedChain, position: np.ndarray) -> np.ndarray:
        n = chain.n_states
        p = np.full((n, n), _NO_EDGE, dtype=np.int64)
        for i, edges in enumerate(chain.mistake_steps[0]):
            p[position[i], position[[j for j, _ in edges]]] = [c for _, c in edges]
        return p

    @staticmethod
    def pivot(p: np.ndarray, k: int, rows: np.ndarray, cols: np.ndarray) -> None:
        p[k, k] = s = p[k, cols].min()
        block = np.ix_(rows, cols)
        p[block] = np.minimum(p[block], np.add.outer(p[rows, k] - s, p[k, cols]))

    @staticmethod
    def back(pi, col, pivot):
        return (pi + col).min() - pivot


def stationary_distribution(chain: PerturbedChain) -> list[Fraction]:
    """Unique stationary row vector of the perturbed chain.

    One GTH state reduction (see `_gth`) over a dense n x n matrix: of Python
    ints over per-row denominators up to EXACT_SOLVE_LIMIT states, so the
    result is exact, and of float64 above it. An irreducible chain has
    exactly one stationary distribution, so the exact result does not depend
    on the elimination order. Float results come back as Fraction(float(x)).
    """
    if chain.epsilon <= 0:
        raise ValueError("stationary distribution requires epsilon > 0")
    exact = chain.n_states <= EXACT_SOLVE_LIMIT
    pi, position, _ = _gth(chain, _ExactKernel() if exact else _FloatKernel)
    mu = pi[position] / pi.sum()
    return mu.tolist() if exact else [Fraction(float(x)) for x in mu]


def stochastic_potential(chain: PerturbedChain) -> np.ndarray:
    """Stochastic potential of every chain state: the fewest mistakes of a
    spanning tree of one-step costs whose paths all lead to that state.

    The same GTH state reduction over leading epsilon-orders, with 0 on
    `support0`, 1 on the rest of `support_eps` and no edge elsewhere. By the
    Markov chain tree theorem mu_eps(x) is proportional to the sum of the
    x-rooted tree weights, and the product of the GTH pivots is that sum for
    the state that is never eliminated; so the potential of x is its order
    relative to that state plus the sum of the pivot orders. On a recurrent class it
    equals the class's gamma, and its minimum is taken exactly on the
    stochastically stable states. It does not depend on epsilon.
    """
    pi, position, pivots = _gth(chain, _OrderKernel)
    return (pi + pivots.sum())[position]


def stationary_distributions(bpop: BinaryTypePopulation, epsilons: Sequence,
                             graph: TransitionDigraph | None = None) -> dict[Fraction, list[Fraction]]:
    """Stationary distribution of the chain at each epsilon, keyed by the parsed rational."""
    return {
        eps: stationary_distribution(build_chain(bpop, eps, graph))
        for eps in map(parse_rational, epsilons)
    }


def stationary_residual(chain: PerturbedChain, mu: Sequence[Fraction]) -> Fraction:
    """L1 residual of mu P - mu; identically zero for the exact solver."""
    n = chain.n_states
    acc = [Fraction(0)] * n
    for i, row in enumerate(chain.rows):
        mi = mu[i]
        if mi:
            for j, prob in row.items():
                acc[j] += mi * prob
    return sum(abs(acc[j] - mu[j]) for j in range(n))


# -- modified costs (step-by-step evolution discounts) -------------------------


def modified_cost(chain: PerturbedChain, start, omega: Sequence) -> int | float:
    """Path cost to omega minus the radii of intermediate recurrent classes.

    Minimized over sequences of recurrent classes ending at omega; segment
    costs are shortest paths entering no other class, and each strictly
    intermediate class contributes minus its radius. A path's first class is
    never discounted. Raw values are reported without clamping.

    Every path out of a class q leaves q's basin first, so each leg out of q
    costs at least R(q) and every discounted leg weight rseg - R(q) is
    non-negative. The cheapest walk over classes is then a simple one, so the
    shortest-path table `legs` equals the minimum over simple sequences: from
    a state of class s it is R(s) + legs[s][omega], and from any other state x
    min(seg(x, omega), min_q seg(x, q) + R(q) + legs[q][omega]), where seg(x, .)
    comes from one search from x that stops at every class state, made once
    per x.
    """
    table = chain.class_table
    t = _class_id(chain, omega)
    x = start if isinstance(start, int) else _as_indices(chain, [start])[0]
    s = table.class_of.get(x)
    if s == t:
        raise ValueError("start state must lie outside omega")
    if s is not None:
        return table.radii[s] + table.legs[s][t]
    if x not in table.seg:
        dist = _mistake_costs(chain, [x], stop=table.class_of.keys())
        table.seg[x] = tuple(min(dist[j] for j in cls) for cls in table.classes)
    return min(seg + (0 if q == t else table.radii[q] + table.legs[q][t])
               for q, seg in enumerate(table.seg[x]))


# -- extreme-equilibrium theorem -----------------------------------------------


def equilibria_of_chain(chain: PerturbedChain) -> list[BState]:
    return [s for i, s in enumerate(chain.states) if chain.is_equilibrium(i)]


def is_mixed_equilibrium_state(bpop: BinaryTypePopulation, state: BState) -> bool:
    r = state.x1I + state.x2I
    return 1 <= r <= bpop.m - 1


def corresponding_extreme(bpop: BinaryTypePopulation, mixed: BState) -> BState:
    """The unanimity state adjacent to a mixed equilibrium's cooperator block."""
    r = mixed.x1I + mixed.x2I
    if not 1 <= r <= bpop.m - 1:
        raise NotMixed(f"{mixed} has r={r}, needs 1..{bpop.m - 1}")
    if mixed.xa == bpop.na and mixed.xc == 0:
        return BState(0, bpop.na, 0, 0)
    if mixed.xa == 0 and mixed.xc == bpop.nc:
        return BState(bpop.ma, 0, bpop.mc, bpop.nc)
    raise NotMixed(f"{mixed} is not of a mixed-equilibrium form")


@dataclass(frozen=True)
class ExtremeTheoremVerdict:
    hypothesis_holds: bool
    conclusion_status: str  # "verified" | "trivially_consistent" | "not_applicable" | "violated"
    mixed_equilibria: tuple[BState, ...]
    corresponding_extremes: dict
    stable_states: frozenset[BState]
    stable_equilibria: tuple[BState, ...]


def check_extreme_theorem(bpop: BinaryTypePopulation, chain: PerturbedChain | None = None,
                          result: StochasticStabilityResult | None = None) -> ExtremeTheoremVerdict:
    """Does stochastic stability of equilibria force an extreme equilibrium?

    Checks the hypothesis (each mixed equilibrium's corresponding extreme
    state is itself an equilibrium) and then the conclusion (the set of
    stochastically stable equilibria is empty or contains an extreme one).
    `chain` and `result` are the unperturbed chain and its stability result,
    computed when not given.
    """
    if chain is None:
        chain = build_chain(bpop, Fraction(0))
    if result is None:
        result = stochastically_stable_set(bpop, chain)
    eqs = equilibria_of_chain(chain)
    mixed = tuple(s for s in eqs if is_mixed_equilibrium_state(bpop, s))
    extremes: dict[BState, tuple[BState, bool]] = {}
    hypothesis = True
    for s in mixed:
        ext = corresponding_extreme(bpop, s)
        ext_is_eq = chain.is_equilibrium(ext)
        extremes[s] = (ext, ext_is_eq)
        hypothesis = hypothesis and ext_is_eq

    eq_set = set(eqs)
    stable_eqs = tuple(sorted(s for s in result.stable_states if s in eq_set))

    if not eqs:
        status = "trivially_consistent"
    else:
        extreme_in = any(not is_mixed_equilibrium_state(bpop, s) for s in stable_eqs)
        conclusion = (len(stable_eqs) == 0) or extreme_in
        if hypothesis:
            status = "verified" if conclusion else "violated"
        else:
            status = "not_applicable"
    return ExtremeTheoremVerdict(
        hypothesis_holds=hypothesis,
        conclusion_status=status,
        mixed_equilibria=mixed,
        corresponding_extremes=extremes,
        stable_states=result.stable_states,
        stable_equilibria=stable_eqs,
    )


# -- reporting -----------------------------------------------------------------


def stochastic_report(bpop: BinaryTypePopulation, epsilons: Sequence = (),
                      graph: TransitionDigraph | None = None,
                      stationary: dict[Fraction, list[Fraction]] | None = None) -> dict:
    """JSON-ready report; `graph` is the oracle digraph of the population and
    `stationary` the distributions at `epsilons`, when already computed."""
    chain = build_chain(bpop, Fraction(0), graph)
    result = stochastically_stable_set(bpop, chain)
    cg = result.class_graph
    report: dict = {
        "states": chain.n_states,
        "classes": [
            {
                "id": i,
                "states": [list(chain.states[j]) for j in cg.classes[i]],
                "singleton": len(cg.classes[i]) == 1,
                "radius": int(result.radii[i]) if isinstance(result.radii[i], int) else None,
                "basin": sorted(list(chain.states[j]) for j in result.basins[i]),
                "gamma": result.gammas[i],
            }
            for i in range(cg.k)
        ],
        "pairwise_costs": [list(row) for row in cg.costs],
        "stochastically_stable_class_ids": list(result.stable_class_ids),
        "stochastically_stable_states": sorted(list(s) for s in result.stable_states),
    }
    verdict = check_extreme_theorem(bpop, chain, result)
    report["extreme_theorem"] = {
        "hypothesis_holds": verdict.hypothesis_holds,
        "conclusion_status": verdict.conclusion_status,
        "mixed_equilibria": [list(s) for s in verdict.mixed_equilibria],
        "stable_equilibria": [list(s) for s in verdict.stable_equilibria],
    }
    if epsilons:
        if stationary is None:
            stationary = stationary_distributions(bpop, epsilons, chain.graph)
        table = {}
        for eps in map(parse_rational, epsilons):
            mu = stationary[eps]
            ss_mass = sum((mu[chain.index[s]] for s in result.stable_states), Fraction(0))
            table[str(eps)] = {
                "stable_set_mass": str(ss_mass),
                "by_state": {str(tuple(s)): str(mu[i]) for i, s in enumerate(chain.states)},
            }
        report["stationary"] = table
    return report


def export_class_digraph_dot(bpop: BinaryTypePopulation, stream,
                             graph: TransitionDigraph | None = None) -> None:
    """DOT rendering of the recurrent-class cost digraph; `graph` is the oracle
    digraph of the population, built when not given."""
    chain = build_chain(bpop, Fraction(0), graph)
    cg = build_class_graph(chain)
    stream.write("digraph recurrent_classes {\n")
    for i, cls in enumerate(cg.classes):
        label = ", ".join(str(tuple(chain.states[j])) for j in cls)
        stream.write(f'  n{i} [label="{label}"];\n')
    for i in range(cg.k):
        for j in range(cg.k):
            if i != j:
                stream.write(f'  n{i} -> n{j} [label="{cg.costs[i][j]}"];\n')
    stream.write("}\n")
