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

from .cells import BEST_RESPONDER, IMITATOR
from .errors import CertificateFailed, NotMixed, SingularSystem, StateSpaceTooLarge
from .model import ANTICOORDINATING, COORDINATING, PopulationSpec, parse_rational
from .oracle import (TransitionDigraph, build_transition_digraph, minimal_invariant_sets,
                     search_layers, sorted_unique)

EXACT_SOLVE_LIMIT = 500
# the stationary solve holds one band of n x (2w + 1) entries, w the support's
# bandwidth in level order: 8-byte floats, or one 4-byte residue per prime
DENSE_SOLVE_BYTES = 1 << 30


class BState(NamedTuple):
    """Refined binary-type state: cooperating (anticoordinating imitators,
    nonconformists, coordinating imitators, conformists)."""

    x1I: int
    xa: int
    x2I: int
    xc: int


# the key of each BState field's cell (`CellSpace.position`)
_FIELD_CELLS = ((IMITATOR, ANTICOORDINATING, 1), (BEST_RESPONDER, ANTICOORDINATING, 1),
                (IMITATOR, COORDINATING, 1), (BEST_RESPONDER, COORDINATING, 1))


def check_binary(pop: PopulationSpec) -> None:
    """Raise ValueError unless the population has one type of each kind, each
    with imitators (validation already gives each type a best responder)."""
    if pop.b != 1 or pop.bp != 1:
        raise ValueError("binary-type analysis needs exactly one type of each kind")
    if pop.type_a(1).imitators < 1 or pop.type_c(1).imitators < 1:
        raise ValueError("binary-type analysis needs imitators of both types")


def tremble_rate(epsilon, solve: bool = False) -> Fraction:
    """epsilon as a Fraction, checked to lie in [0, 1), and in (0, 1) for a
    stationary solve, which needs every transition. A refused epsilon is
    named as written, or by `exact_str`, which writes one of any size."""
    rate = parse_rational(epsilon)
    if not (0 < rate < 1 if solve else 0 <= rate < 1):
        shown = epsilon if isinstance(epsilon, str) else exact_str(rate)
        raise ValueError(f"epsilon must lie in {'(0, 1)' if solve else '[0, 1)'}, got {shown}")
    return rate


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
        return self.graph.space.group_sizes(np.arange(self.n_states)).T

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
    def fields(self) -> list[int]:
        """The cell of each BState field."""
        return [self.graph.space.position[key] for key in _FIELD_CELLS]

    @cached_property
    def states(self) -> list[BState]:
        """The BState of every chain state."""
        counts = self.graph.space.digits(np.arange(self.n_states))[self.fields]
        return [BState(*row) for row in counts.T.tolist()]

    def index_of(self, state) -> int:
        """Chain index of an integer index (of any integer type) or of four BState counts."""
        try:
            i = operator.index(state)
        except TypeError:
            counts = tuple(state)
            if len(counts) != 4:
                raise ValueError(f"{state} is not a state of the chain") from None
            coords = [int(counts[self.fields.index(k)]) for k in range(4)]
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


@dataclass(frozen=True, eq=False)
class ClassTable:
    """Recurrent classes of a chain and their mistake-cost quantities.

    Class ids are positions in `classes` (see `recurrent_classes`);
    `class_of[i]` is state i's class id, -1 outside every class. Each class t
    takes two whole-chain searches: a backward one gives `plain[t, x]`,
    cost(x, class t), the fewest mistakes over paths from x into the class,
    whose zeros are the states that fall into class t without a mistake.
    `basins[t]` marks those that fall into no other class: the states from
    which the unperturbed chain reaches class t with probability one. A
    forward search gives `radii[t]`, the fewest mistakes from class t to a
    state outside its basin, math.inf when the basin is every state.
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
        """Modified cost from every state to class t, as floats; the entries on
        class t itself mean nothing.

        The modified cost is the path cost to class t minus the radii of the
        intermediate recurrent classes, minimized over sequences of classes
        ending at t. Segments are shortest paths entering no other class, and
        each strictly intermediate class contributes minus its radius; a
        path's first class is never discounted. Raw values, not clamped.

        Every path out of a class q leaves q's basin first, so each leg out of
        q costs at least R(q) and every discounted leg weight is non-negative.
        A path that passes through a class on its way therefore costs no less
        than the same path counted with that class as a discounted stop, so
        segments and legs may be plain costs, which may enter other classes,
        and the cheapest walk over classes is a simple one. So the table
        `legs` over the weights cost(q, .) - R(q) equals the minimum over
        simple sequences: from a state of class s the modified cost is
        R(s) + legs[s][t], and from any other state x min(cost(x, t), min_q
        cost(x, q) + R(q) + legs[q][t]), one vectorized minimum over q of
        the plain costs.
        """
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

    States are eliminated from the last position of the level order
    (`_level_band`), so each step touches only the band of width w around
    the diagonal: state k's pivot is the sum of its row in positions
    k - w .. k - 1, and it updates the block of those rows and columns.
    Fill stays inside that band, and GTH never subtracts. The matrix is held
    as the band alone, n x (2w + 1) entries (`_band`), and each step reads
    and writes slices of it (`_square`). `kernel` supplies the algebra: its
    `entry_bytes` (the band's bytes are checked against DENSE_SOLVE_BYTES
    before anything is allocated), its band, the elimination of one pivot,
    which returns False when the state has none, the weight `root` of the
    state at position 0, which is never eliminated, and one
    back-substitution step, which reads the weights in positions lo .. k - 1
    of the weights so far. The skeleton hands every step the whole slice,
    so no entry's value, such as a residue that vanishes modulo a prime,
    decides which rows and columns a step updates.

    Returns (pi, position, pivots): pi[position[i]] is chain state i's
    weight, on the scale where the root weighs `root`, and pivots[k - 1] is
    the pivot of the state at position k.
    """
    n = chain.n_states
    position, w = _level_band(chain)
    needed = n * (2 * w + 1) * kernel.entry_bytes
    if needed > DENSE_SOLVE_BYTES:
        raise StateSpaceTooLarge(
            f"the stationary solve of {n} states needs {needed} bytes of band storage, "
            f"above the limit of {DENSE_SOLVE_BYTES}"
        )
    band = kernel.band(chain, position, w)
    p = _square(band)
    # the pivot of state k goes on the diagonal, and no later step touches
    # column k, so the back-substitution reads both as this step left them
    for k in range(n - 1, 0, -1):
        if not kernel.pivot(p, k, max(k - w, 0)):
            raise SingularSystem("state-reduction hit a zero pivot; chain not irreducible")
    pi = np.full(band[:, w].shape, kernel.root, dtype=band.dtype)
    for k in range(1, n):
        lo = max(k - w, 0)
        pi[k] = kernel.back(pi[:k], lo, p[lo:k, k], p[k, k])
    return pi, position, band[1:, w].copy()


def _elimination_order(chain: PerturbedChain) -> np.ndarray:
    """Chain states by level, their number of cooperators, and within a level
    by their counts, the field with the most values most significant.

    Every transition moves one agent, so it joins adjacent levels and a
    level order is a breadth-first order of the support from the all-defect
    state. The within-level tie-break is tied for the least GTH work of the
    24 field orders on ex7_1..4, ex7_1x2 and ex7_3x2, less than reverse
    Cuthill-McKee on each.
    """
    counts = np.array(chain.states).T  # one row per BState field
    # least significant first; of two fields with equal ranges the earlier
    # BState field is the less significant, whatever the cell order
    fields = np.argsort(np.array(chain.graph.space.caps)[chain.fields], kind="stable")
    return np.lexsort((*counts[fields], counts.sum(axis=0)))


def _level_band(chain: PerturbedChain) -> tuple[np.ndarray, int]:
    """(position, w): each state's position in `_elimination_order`, and the
    bandwidth of the support there, the farthest any move carries a state."""
    position = np.argsort(_elimination_order(chain))
    dst = chain.support[0][:, 1:]
    live = dst >= 0
    here = np.broadcast_to(position[:, None], dst.shape)[live]
    return position, int(np.abs(position[dst[live]] - here).max(initial=0))


def _band(position: np.ndarray, w: int, dst: np.ndarray, values: np.ndarray, fill,
          dtype) -> np.ndarray:
    """The moves' `values` (n x 8, each entry perhaps a vector) at the
    positions of their transitions, `fill` elsewhere, in band storage: row r
    holds positions r - w .. r + w, entry (r, c) in its column w + c - r. The
    self-loops lie on the diagonal, where each pivot goes, and are not stored."""
    rows, cols = np.nonzero(dst >= 0)
    r, c = position[rows], position[dst[rows, cols]]
    band = np.full((len(position), 2 * w + 1, *values.shape[2:]), fill, dtype=dtype)
    band[r, w + c - r] = values[rows, cols]
    return band


def _square(band: np.ndarray) -> np.ndarray:
    """The n x n matrix that `band` stores, as a view: entry (r, c) is
    band[r, w + c - r] while |c - r| <= w, and every entry farther out
    aliases one of the band's, so only the band may be read or written.

    Entry (r, c) lies r (2w + 1) + w + c - r = w + 2w r + c entries into the
    band, so the view steps 2w entries a row and one a column, and all of
    it lies inside the band: its last entry, (n - 1, n - 1), is w entries
    before the band's last."""
    n, width = band.shape[:2]
    row, entry = band.strides[:2]
    flat = band.reshape(n * width, *band.shape[2:])
    return np.lib.stride_tricks.as_strided(flat[width // 2:], (n, n, *band.shape[2:]),
                                           (row - entry, entry, *band.strides[2:]))


_FLOAT_WEIGHT_LIMIT, _FLOAT_RESCALE = 2.0**256, 2.0**-256


class _FloatKernel:
    """Probabilities at tremble rate `epsilon` as float64. Each sum runs over
    the nonzero entries of its slice only, in position order, so that it adds
    the same terms in the same grouping whatever the band's width: numpy
    sums in pairs, and a zero among the terms would move the pairs.

    The weights, on the scale where the root weighs 1, grow like a power of
    1/epsilon. They count only up to a common factor, so a weight above
    _FLOAT_WEIGHT_LIMIT rescales every weight so far by a power of two,
    which is exact: a solve that never rescales is unchanged by the check."""

    root, entry_bytes = 1, 8

    def __init__(self, epsilon: Fraction):
        self.epsilon = epsilon

    def band(self, chain: PerturbedChain, position: np.ndarray, w: int) -> np.ndarray:
        # int / int is correctly rounded: each entry is the float of the exact one
        dst, num, _ = chain.transitions(self.epsilon)
        return _band(position, w, dst[:, 1:], num[:, 1:] / chain.denominator(self.epsilon),
                     0, float)

    @staticmethod
    def pivot(p: np.ndarray, k: int, lo: int) -> bool:
        row = p[k, lo:k]
        p[k, k] = s = row[row != 0].sum()
        if not s:
            return False
        block = p[lo:k, lo:k]
        block += np.multiply.outer(p[lo:k, k] / s, row)
        return True

    @staticmethod
    def back(pi, lo, col, pivot):
        live = col != 0
        x = (pi[lo:][live] * col[live]).sum() / pivot
        if x > _FLOAT_WEIGHT_LIMIT:
            pi *= _FLOAT_RESCALE
            x = (pi[lo:][live] * col[live]).sum() / pivot
        return x


class _OrderKernel:
    """Leading epsilon-orders: min-plus over the one-step mistake costs, which
    do not depend on epsilon, with inf where there is no edge. GTH never
    subtracts, so no leading term of a sum it forms cancels: the order of a
    sum is the least order of its terms, and the order of a product or
    quotient the sum or difference of the orders. The orders are small
    integers, which float64 holds exactly."""

    root, entry_bytes = 0, 8

    @staticmethod
    def band(chain: PerturbedChain, position: np.ndarray, w: int) -> np.ndarray:
        dst, mistakes = chain.support
        return _band(position, w, dst[:, 1:], mistakes[:, 1:], np.inf, float)

    @staticmethod
    def pivot(p: np.ndarray, k: int, lo: int) -> bool:
        row = p[k, lo:k]
        p[k, k] = s = row.min()
        if s == np.inf:
            return False
        block = p[lo:k, lo:k]
        np.minimum(block, np.add.outer(p[lo:k, k] - s, row), out=block)
        return True

    @staticmethod
    def back(pi, lo, col, pivot):
        return (pi[lo:] + col).min() - pivot


# every residue lies below 2^31, so the product of two fits in an int64
_WORD_PRIME_LIMIT = 1 << 31


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 7 and 61, which decide every odd n from
    63 to 4,759,123,140."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the odd primes below 50: a candidate that shares none of them takes the full test
_SMALL_PRIME_PRODUCT = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))


def _word_primes():
    """The primes below 2^31, largest first."""
    for n in range(_WORD_PRIME_LIMIT - 1, 62, -2):
        if math.gcd(n, _SMALL_PRIME_PRODUCT) == 1 and _is_prime(n):
            yield n


class _ResidueKernel:
    """Exact GTH modulo each of `primes`: the band holds the residues of each
    entry of B = N P, N the chain's `denominator(epsilon)`, one int32 per
    prime on its last axis, and a pivot's update multiplies by the pivot's
    inverse modulo each prime, in int64. Every value the reduction forms
    over the rationals is a ratio whose denominator is a product of pivots,
    so while no pivot vanishes modulo a prime, the residues are those of the
    rational values.

    A pivot that vanishes modulo some primes marks them `lost`; their
    residues mean nothing from then on. `bound` is the tree-sum bound
    (`_tree_sums`), which bounds every product of leading pivots, a sum of
    spanning forests, as well: a pivot that vanishes modulo every prime not
    yet lost, whose product exceeds the bound, is zero, and the state has
    none.

    The update stores column k divided by the pivot, which the
    back-substitution then reads, and leaves the pivot on the diagonal."""

    root = 1

    def __init__(self, epsilon: Fraction, primes: Sequence[int], bound):
        self.epsilon = epsilon
        self.primes = list(primes)
        self.modulus = np.array(self.primes, dtype=np.int64)
        self.entry_bytes = 4 * len(self.primes)
        self.bound = bound
        self.lost = np.array([False] * len(self.primes))

    def band(self, chain: PerturbedChain, position: np.ndarray, w: int) -> np.ndarray:
        dst, num, _ = chain.transitions(self.epsilon)
        moves = num[:, 1:].ravel().tolist()
        # each distinct integer is reduced once: a move's mass is its group's
        # size times epsilon's numerator or its complement
        values = sorted(set(moves))
        code = {v: i for i, v in enumerate(values)}
        table = np.array([[v % q for q in self.primes] for v in values], dtype=np.int64)
        residues = table[[code[v] for v in moves]].reshape(*num[:, 1:].shape, len(self.primes))
        return _band(position, w, dst[:, 1:], residues, 0, np.int32)

    def pivot(self, p: np.ndarray, k: int, lo: int) -> bool:
        q = self.modulus
        row = p[k, lo:k].astype(np.int64)
        p[k, k] = s = row.sum(axis=0) % q
        vanished = s == 0
        if vanished.any():
            live = ~self.lost
            if vanished[live].all() and \
                    math.prod(itertools.compress(self.primes, live)) > self.bound:
                return False
            self.lost |= vanished
        inverse = [pow(a, -1, m) if a else 0 for a, m in zip(s.tolist(), self.primes)]
        p[lo:k, k] = col = p[lo:k, k] * np.array(inverse) % q
        block = p[lo:k, lo:k]
        update = col[:, None] * row
        update += block
        np.remainder(update, q, out=block)
        return True

    def back(self, pi, lo, col, pivot):
        q = self.modulus
        return (np.multiply(pi[lo:], col, dtype=np.int64) % q).sum(axis=0) % q


def _tree_sums(chain: PerturbedChain, epsilon: Fraction) -> list[int]:
    """Every chain state's rooted tree sum W of B = N P, N the chain's
    `denominator(epsilon)`: the total weight of the spanning trees whose
    paths all lead to that state, a non-negative integer. By the Markov
    chain tree theorem mu(x) is W[x] / sum(W).

    A tree takes one move out of every other state, so W[x] is at most the
    product of those states' off-diagonal row sums of B, and every W at most
    the product of all row sums but the smallest: the bound. `_ResidueKernel`
    finds W modulo the fewest largest primes below 2^31 whose product exceeds
    the bound: W is the product of the pivots times the back-substituted
    weight, with the root weighing 1. The next primes replace those at which
    a pivot vanished, and the Chinese remainder theorem, with coefficients
    computed once per prime set, rebuilds W.
    """
    _, num, _ = chain.transitions(epsilon)
    bound = math.prod(sorted(num[:, 1:].sum(axis=1).tolist())[1:])
    supply = _word_primes()
    primes: list[int] = []
    residues = []
    modulus = 1
    while modulus <= bound:
        batch, reach = [], modulus
        while reach <= bound:
            batch.append(next(supply))
            reach *= batch[-1]
        kernel = _ResidueKernel(epsilon, batch, bound)
        pi, position, pivots = _gth(chain, kernel)
        tree = np.ones(len(batch), dtype=np.int64)
        for s in pivots:
            tree = tree * s % kernel.modulus
        kept = ~kernel.lost
        residues.append((pi[position] * tree % kernel.modulus)[:, kept])
        primes += [q for q, keep in zip(batch, kept.tolist()) if keep]
        modulus = math.prod(primes)
    coeffs = [modulus // q * pow(modulus // q, -1, q) for q in primes]
    return [sum(map(operator.mul, row, coeffs)) % modulus
            for row in np.concatenate(residues, axis=1).tolist()]


def solves_exactly(chain: PerturbedChain) -> bool:
    """Whether `stationary_distribution` solves the chain exactly, so that its
    residual (`stationary_residual`) is 0, rather than in float64."""
    return chain.n_states <= EXACT_SOLVE_LIMIT


def stationary_distribution(chain: PerturbedChain, epsilon) -> list[Fraction]:
    """Unique stationary row vector of the perturbed chain at tremble rate
    epsilon, which must be positive.

    One GTH state reduction in band storage (see `_gth`): up to
    EXACT_SOLVE_LIMIT states, modulo word-size primes, which gives every
    state's rooted tree sum (`_tree_sums`), so mu(x) is x's tree sum over
    their total, exactly; of float64 above it. An irreducible chain has
    exactly one stationary distribution, so the exact result does not depend
    on the elimination order or the primes, and a zero residual proves it:
    every exact solve is checked so, and any other residual raises
    CertificateFailed. Float results come back as Fraction(float(x)).
    """
    epsilon = tremble_rate(epsilon, solve=True)
    if solves_exactly(chain):
        weights = _tree_sums(chain, epsilon)
        if _flow_residual(chain, epsilon, weights):
            raise CertificateFailed("the exact stationary solve left a non-zero residual")
        total = sum(weights)
        return [Fraction(w, total) for w in weights]
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
    return (pi + pivots.sum())[position].astype(np.int64)


def _flow_residual(chain: PerturbedChain, epsilon, weights: Sequence[int]) -> int:
    """The L1 norm of w (N P) - N w for integer weights w, N the chain's
    `denominator(epsilon)`: 0 exactly when w is stationary."""
    dst, num, _ = chain.transitions(epsilon)
    weights = np.array(weights, dtype=object)
    live = dst >= 0
    flow = np.zeros(chain.n_states, dtype=object)
    np.add.at(flow, dst[live], (weights[:, None] * num)[live])
    return sum(abs(flow - weights * chain.denominator(epsilon)))


def stationary_residual(chain: PerturbedChain, epsilon, mu: Sequence[Fraction]) -> Fraction:
    """L1 residual of mu P - mu at tremble rate epsilon; identically zero for
    the exact solver.

    Exact, in Python ints over the common denominator of mu (one power of two
    for a float solve) times the chain's, so no Fraction is formed per term.
    """
    den = math.lcm(*(x.denominator for x in mu))
    weights = [x.numerator * (den // x.denominator) for x in mu]
    return Fraction(_flow_residual(chain, epsilon, weights), den * chain.denominator(epsilon))


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
