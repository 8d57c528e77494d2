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

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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
from .oracle import TransitionDigraph, build_transition_digraph, minimal_invariant_sets

EXACT_SOLVE_LIMIT = 500
# the float fallback holds three dense n x n float64 matrices at once
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

    def cost_edges(self, i: int) -> Iterable[tuple[int, int]]:
        """(successor, one-step mistake cost) pairs; cost 0 edges first."""
        zero = self.support0[i]
        for j in sorted(zero):
            yield j, 0
        for j in sorted(self.support_eps[i] - zero):
            yield j, 1

    def one_step_cost(self, i: int, j: int) -> float:
        if j in self.support0[i]:
            return 0
        if j in self.support_eps[i]:
            return 1
        return math.inf

    def is_equilibrium(self, state: BState | int) -> bool:
        i = state if isinstance(state, int) else self.index[state]
        return self.support0[i] == frozenset((i,))


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
    out = []
    for s in group:
        out.append(s if isinstance(s, int) else chain.index[BState(*s)])
    return out


def cost(chain: PerturbedChain, from_set, to_set) -> int:
    """Minimum mistakes over paths from `from_set` to `to_set`.

    Paths terminate on first entry to the target set, which together with
    non-negative step costs enforces the no-revisit, no-passing-through rule.
    """
    sources = _as_indices(chain, from_set)
    targets = set(_as_indices(chain, to_set))
    if not sources or not targets:
        raise ValueError("cost needs non-empty state sets")
    if set(sources) & targets:
        return 0
    dist = {i: 0 for i in sources}
    heap = [(0, i) for i in sources]
    heapq.heapify(heap)
    settled: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u in targets:
            return d
        for v, w in chain.cost_edges(u):
            nd = d + w
            if v not in settled and nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    raise SingularSystem("target unreachable; perturbed chain should be irreducible")


def recurrent_classes(chain: PerturbedChain) -> list[tuple[int, ...]]:
    """Sink SCCs of the unperturbed support digraph, ordered by smallest state.

    These are the oracle's minimal invariant sets in chain indices: the
    unperturbed support is the oracle's switch edges plus self-loops.
    """
    chain_of = np.argsort(chain.oracle_index)
    classes = (
        tuple(sorted(chain_of[res.indices].tolist()))
        for res in minimal_invariant_sets(chain.graph)
    )
    return sorted(classes, key=lambda c: c[0])


def basin(chain: PerturbedChain, omega: Sequence) -> frozenset[int]:
    """States from which the unperturbed chain reaches omega with probability one,
    i.e. from which no other recurrent class is reachable."""
    classes = recurrent_classes(chain)
    omega_idx = frozenset(_as_indices(chain, omega))
    reach_some_other = set()
    reach_omega = set()
    for cls in classes:
        cls_set = frozenset(cls)
        hits = _reverse_closure(chain, cls_set)
        if cls_set == omega_idx:
            reach_omega = hits
        else:
            reach_some_other |= hits
    if not reach_omega:
        raise ValueError("omega is not a recurrent class of the chain")
    return frozenset(reach_omega - reach_some_other)


def _reverse_closure(chain: PerturbedChain, targets: frozenset[int]) -> set[int]:
    preds: dict[int, list[int]] = {}
    for i in range(chain.n_states):
        for j in chain.support0[i]:
            preds.setdefault(j, []).append(i)
    seen = set(targets)
    frontier = list(targets)
    while frontier:
        v = frontier.pop()
        for p in preds.get(v, ()):
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return seen


def radius(chain: PerturbedChain, omega: Sequence) -> int | float:
    """Mistakes needed to leave the basin of attraction, starting inside omega."""
    omega_idx = _as_indices(chain, omega)
    inside = basin(chain, omega)
    outside = [i for i in range(chain.n_states) if i not in inside]
    if not outside:
        return math.inf
    return cost(chain, omega_idx, outside)


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
    classes = recurrent_classes(chain)
    k = len(classes)
    costs = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j:
                costs[i][j] = cost(chain, classes[i], classes[j])
    return ClassGraph(tuple(classes), tuple(tuple(row) for row in costs))


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
    radii = tuple(radius(chain, cg.classes[i]) for i in range(cg.k))
    basins = tuple(basin(chain, cg.classes[i]) for i in range(cg.k))
    return StochasticStabilityResult(cg, gammas, stable_ids, frozenset(states), radii, basins)


# -- stationary distributions --------------------------------------------------


def stationary_distribution(chain: PerturbedChain) -> list[Fraction]:
    """Unique stationary row vector of the perturbed chain.

    Exact rational state-reduction (GTH) up to EXACT_SOLVE_LIMIT states;
    float solve with iterative refinement beyond (residual <= 1e-12).
    """
    if chain.epsilon <= 0:
        raise ValueError("stationary distribution requires epsilon > 0")
    n = chain.n_states
    if n > EXACT_SOLVE_LIMIT:
        return _stationary_float(chain)
    p = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(chain.rows):
        for j, prob in row.items():
            p[i][j] = prob
    scale: list[Fraction] = [Fraction(1)] * n
    for k in range(n - 1, 0, -1):
        s = sum(p[k][j] for j in range(k))
        if s == 0:
            raise SingularSystem("state-reduction hit a zero pivot; chain not irreducible")
        scale[k] = s
        row_k = p[k]
        for i in range(k):
            pik = p[i][k]
            if pik:
                row_i = p[i]
                for j in range(k):
                    if row_k[j]:
                        row_i[j] += pik * row_k[j] / s
    pi = [Fraction(0)] * n
    pi[0] = Fraction(1)
    for k in range(1, n):
        pi[k] = sum(pi[i] * p[i][k] for i in range(k)) / scale[k]
    total = sum(pi)
    return [x / total for x in pi]


def _stationary_float(chain: PerturbedChain) -> list[Fraction]:
    n = chain.n_states
    needed = 3 * 8 * n * n
    if needed > DENSE_SOLVE_BYTES:
        raise StateSpaceTooLarge(
            f"the float stationary solve of {n} states needs {needed} bytes of dense "
            f"matrices, above the limit of {DENSE_SOLVE_BYTES}"
        )
    mat = np.zeros((n, n))
    for i, row in enumerate(chain.rows):
        for j, prob in row.items():
            mat[i, j] = float(prob)
    a = mat.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    mu = np.linalg.solve(a, b)
    for _ in range(10_000):
        mu = np.clip(mu, 0, None)
        mu = mu / mu.sum()
        if np.abs(mu @ mat - mu).sum() <= 1e-12:
            break
        mu = mu @ mat
    else:
        raise SingularSystem("stationary refinement did not reach the residual target")
    return [Fraction(float(x)) for x in mu]


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


def _restricted_cost(chain: PerturbedChain, sources: Iterable[int], targets: set[int],
                     banned: set[int]) -> int | float:
    dist = {i: 0 for i in sources if i not in banned}
    heap = [(0, i) for i in dist]
    heapq.heapify(heap)
    settled: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u in targets:
            return d
        for v, w in chain.cost_edges(u):
            if v in banned and v not in targets:
                continue
            nd = d + w
            if v not in settled and nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return math.inf


class _ModifiedCostArtifacts:
    """Chain-level cache: classes, radii, and pairwise restricted segment costs."""

    def __init__(self, chain: PerturbedChain):
        self.classes = recurrent_classes(chain)
        self.class_sets = [set(c) for c in self.classes]
        self.radii = [radius(chain, c) for c in self.classes]
        self.all_class_states: set[int] = set().union(*self.class_sets) if self.class_sets else set()
        k = len(self.classes)
        self.rseg = [[math.inf] * k for _ in range(k)]
        for a in range(k):
            for b in range(k):
                if a != b:
                    banned = self.all_class_states - self.class_sets[a] - self.class_sets[b]
                    self.rseg[a][b] = _restricted_cost(
                        chain, self.class_sets[a], self.class_sets[b], banned
                    )

    def seg_from_state(self, chain: PerturbedChain, x: int, t_to: int) -> int | float:
        banned = self.all_class_states - self.class_sets[t_to]
        return _restricted_cost(chain, [x], self.class_sets[t_to], banned)


def _modified_cost_artifacts(chain: PerturbedChain) -> _ModifiedCostArtifacts:
    cached = getattr(chain, "_mc_artifacts", None)
    if cached is None:
        cached = _ModifiedCostArtifacts(chain)
        chain._mc_artifacts = cached
    return cached


def modified_cost(chain: PerturbedChain, start, omega: Sequence) -> int | float:
    """Path cost to omega minus the radii of intermediate recurrent classes.

    Minimized over simple sequences of recurrent classes ending at omega
    (exhaustively, as a subset dynamic program); segment costs are shortest
    paths avoiding every other class, and each strictly intermediate class
    contributes minus its radius. A path's first class is never discounted.
    Raw values are reported without clamping.
    """
    art = _modified_cost_artifacts(chain)
    omega_set = set(_as_indices(chain, omega))
    target = next((t for t, c in enumerate(art.class_sets) if c == omega_set), None)
    if target is None:
        raise ValueError("omega is not a recurrent class")
    x = start if isinstance(start, int) else _as_indices(chain, [start])[0]
    if x in omega_set:
        raise ValueError("start state must lie outside omega")
    k = len(art.classes)
    start_class = next((t for t, c in enumerate(art.class_sets) if x in c), None)

    best: int | float = math.inf
    others = [t for t in range(k) if t != target]
    bit_of = {t: 1 << pos for pos, t in enumerate(others)}

    if start_class is None:
        entries = []
        direct = art.seg_from_state(chain, x, target)
        best = min(best, direct)
        for q1 in others:
            c0 = art.seg_from_state(chain, x, q1)
            if not math.isinf(c0):
                entries.append((q1, c0))
    else:
        entries = [(start_class, 0)]

    for q1, cost0 in entries:
        # dp[(mask, v)] = best sequence cost q1 -> ... -> v over visited mask,
        # with discounts applied for every class already departed except q1
        dp = {(bit_of[q1], q1): cost0}
        frontier = [(bit_of[q1], q1)]
        while frontier:
            new_frontier = []
            for key in frontier:
                mask, v = key
                val = dp[key]
                leave = val - (art.radii[v] if v != q1 else 0)
                arrival = leave + art.rseg[v][target]
                if arrival < best:
                    best = arrival
                for w in others:
                    bw = bit_of[w]
                    if mask & bw:
                        continue
                    step = art.rseg[v][w]
                    if math.isinf(step):
                        continue
                    nkey = (mask | bw, w)
                    nval = leave + step
                    if nval < dp.get(nkey, math.inf):
                        dp[nkey] = nval
                        new_frontier.append(nkey)
            frontier = new_frontier
    return best


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


def export_class_digraph_dot(bpop: BinaryTypePopulation, stream) -> None:
    """DOT rendering of the recurrent-class cost digraph."""
    chain = build_chain(bpop, Fraction(0))
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
