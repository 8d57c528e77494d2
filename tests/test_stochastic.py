import heapq
import io
import itertools
import math
import random
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from genpop import population
from popdyn import stochastic
from popdyn.errors import NotMixed, SingularSystem, StateSpaceTooLarge
from popdyn.stochastic import (
    BState,
    basin,
    build_chain,
    check_extreme_theorem,
    corresponding_extreme,
    cost,
    equilibria_of_chain,
    export_class_digraph_dot,
    gamma,
    modified_cost,
    radius,
    recurrent_classes,
    stationary_distribution,
    stationary_residual,
    stochastic_potential,
    stochastic_report,
    stochastically_stable_set,
)
from popdyn.verify import is_irreducible

# exhaustive gamma enumerates (k-1)^(k-1) parent assignments: 823,543 at k = 8,
# 387,420,489 at k = 10
REFERENCE_TREE_LIMIT = 8


def _gamma_reference(costs, root):
    """Exhaustive minimum over every parent choice; the cross-check for gamma.

    It enumerates (k-1)^(k-1) parent assignments at once, so it refuses more
    than REFERENCE_TREE_LIMIT classes instead of allocating.
    """
    k = len(costs)
    if k > REFERENCE_TREE_LIMIT:
        raise ValueError(
            f"exhaustive tree enumeration is limited to {REFERENCE_TREE_LIMIT} classes, got {k}"
        )
    if k == 1:
        return 0
    non_root = [v for v in range(k) if v != root]
    choices = [np.array([u for u in range(k) if u != v], dtype=np.int8) for v in non_root]
    grids = np.meshgrid(*choices, indexing="ij")
    m = grids[0].size
    parent_full = np.empty((m, k), dtype=np.int8)
    parent_full[:, root] = root
    for pos, v in enumerate(non_root):
        parent_full[:, v] = grids[pos].reshape(-1)
    del grids
    # pointer doubling: after ceil(log2(k)) squarings every pointer has
    # travelled >= k steps, so valid assignments all point at the root
    ptr = parent_full
    hops = 1
    while hops < k:
        ptr = np.take_along_axis(ptr, ptr, axis=1)
        hops *= 2
    valid = (ptr[:, non_root] == root).all(axis=1)
    weights = np.array(costs, dtype=np.int64)
    total = np.zeros(m, dtype=np.int64)
    for v in non_root:
        total += weights[v, parent_full[:, v]]
    if not valid.any():
        raise SingularSystem("no rooted spanning arborescence exists")
    return int(total[valid].min())


def _rows(chain, epsilon):
    """Every state's exact transition row {j: probability > 0} at tremble rate epsilon."""
    dst, num, _ = chain.transitions(epsilon)
    den = chain.denominator(epsilon)
    return [{int(j): Fraction(v, den) for j, v in zip(d, r) if j >= 0 and v > 0}
            for d, r in zip(dst.tolist(), num.tolist())]


def _step_costs(chain):
    """[{j: one-step mistake cost of i -> j}] read off the exact transition
    rows: positive at eps = 0 costs 0, positive only at eps > 0 costs 1."""
    rows0, rows_eps = _rows(chain, 0), _rows(chain, Fraction(1, 2))
    return [{j: 0 if j in r0 else 1 for j in r_eps} for r0, r_eps in zip(rows0, rows_eps)]


def _support(chain, epsilon):
    """0/1 CSR matrix of the chain's support, read off the exact transition rows."""
    rows = _rows(chain, epsilon)
    src = [i for i, row in enumerate(rows) for _ in row]
    dst = [j for row in rows for j in row]
    return csr_matrix((np.ones(len(src)), (src, dst)), shape=(chain.n_states,) * 2)


def _stationary_reference(chain, epsilon):
    """Exact stationary distribution at tremble rate epsilon by a GTH reduction
    over a dense matrix of Fractions, eliminated in reverse Cuthill-McKee
    order; the cross-check for the fraction-free kernel and its level order."""
    n = chain.n_states
    order = reverse_cuthill_mckee(_support(chain, epsilon), symmetric_mode=False)
    position = np.argsort(order)
    p = np.zeros((n, n), dtype=object)
    for i, row in enumerate(_rows(chain, epsilon)):
        p[position[i], position[list(row)]] = list(row.values())
    # the pivot of state k goes on the diagonal, which no later step reads
    for k in range(n - 1, 0, -1):
        cols = np.flatnonzero(p[k, :k])
        if not cols.size:
            raise SingularSystem("state-reduction hit a zero pivot; chain not irreducible")
        p[k, k] = s = p[k, cols].sum()
        rows = np.flatnonzero(p[:k, k])
        p[np.ix_(rows, cols)] += np.multiply.outer(p[rows, k] / s, p[k, cols])
    pi = np.ones(n, dtype=p.dtype)
    for k in range(1, n):
        rows = np.flatnonzero(p[:k, k])
        pi[k] = (pi[rows] * p[rows, k]).sum() / p[k, k]
    mu = pi[position] / pi.sum()
    return mu.tolist()


def _assert_potential_matches_gamma(chain):
    """The state-level potential equals gamma on every class, is constant on
    it, and is minimal exactly on the stochastically stable states."""
    table = chain.class_table
    potential = stochastic_potential(chain)
    for cls, g in zip(table.classes, table.gammas):
        assert set(potential[list(cls)].tolist()) == {g}
    argmin = np.flatnonzero(potential == potential.min())
    assert {chain.states[i] for i in argmin} == stochastically_stable_set(chain)
    return table.gammas


BINARY = ("ex7_1", "ex7_2", "ex7_3", "ex7_4")


@pytest.fixture(scope="module")
def chains(pops):
    return {name: build_chain(pops[name]) for name in BINARY}


def test_binary_type_requires_all_cells(pops):
    with pytest.raises(ValueError):
        build_chain(pops["ex1"])  # two nonconformist types


def test_activation_is_uniform(pops):
    # every agent is activated with probability 1/9 and trembles at 1/100
    chain = build_chain(pops["ex7_1"])
    assert chain.denominator(Fraction(1, 100)) == 9 * 100
    _, num, _ = chain.transitions(Fraction(1, 100))
    assert (num[:, 1:] == chain.members * np.where(chain.switch, 99, 1)).all()


def test_chain_rows_sum_to_one(pops):
    chain = build_chain(pops["ex7_2"])
    assert chain.n_states == 72
    for eps in (0, Fraction(1, 100)):
        for row in _rows(chain, eps):
            assert sum(row.values()) == 1


def test_chain_support_monotone(pops):
    chain = build_chain(pops["ex7_1"])
    for i, (row0, row_eps) in enumerate(zip(_rows(chain, 0), _rows(chain, Fraction(1, 50)))):
        assert row0.keys() <= row_eps.keys()
        assert row0.keys() == {j for j in row_eps if chain.one_step_cost(i, j) == 0}


def test_perturbed_chain_irreducible_aperiodic(pops):
    chain = build_chain(pops["ex7_1"])
    support = _support(chain, Fraction(1, 100))
    assert connected_components(support, directed=True, connection="strong")[0] == 1
    assert all(i in row for i, row in enumerate(_rows(chain, Fraction(1, 100))))
    # the edges the battery's irreducibility check searches are the support
    dst = chain.transitions(Fraction(1, 100))[0]
    tails, cols = np.nonzero(dst >= 0)
    edges = csr_matrix((np.ones(tails.size), (tails, dst[tails, cols])), shape=support.shape)
    assert (edges != support).nnz == 0
    assert is_irreducible(dst)


def test_irreducibility_check_can_fail(pops):
    chain = build_chain(pops["ex7_1"])
    dst = chain.transitions(Fraction(1, 100))[0]
    assert is_irreducible(dst)
    # drop every edge into state 0 but its self-loop: a backward search from
    # it reaches no other state
    into = dst.copy()
    into[(into == 0) & (np.arange(chain.n_states)[:, None] != 0)] = -1
    assert not is_irreducible(into)
    # drop one direction of one cell's moves: with no anticoordinating
    # imitator ever switching to C (the largest step), no state with x1I > 0
    # is reached from the all-defect state 0
    up = dst.copy()
    up[:, 1 + np.argmax(chain.steps)] = -1
    assert not is_irreducible(up)


def test_recurrent_classes_ex7_2(chains):
    chain = chains["ex7_2"]
    classes = recurrent_classes(chain)
    as_states = [tuple(chain.states[i] for i in cls) for cls in classes]
    flat = {frozenset(c) for c in as_states}
    assert frozenset({BState(2, 0, 2, 0), BState(2, 1, 2, 0)}) in flat
    singletons = {next(iter(c)) for c in flat if len(c) == 1}
    assert singletons == {
        BState(0, 1, 0, 0), BState(0, 1, 1, 0), BState(1, 1, 0, 0), BState(2, 0, 2, 3),
    }


def test_recurrent_classes_ex7_4(chains):
    chain = chains["ex7_4"]
    classes = recurrent_classes(chain)
    states = {frozenset(chain.states[i] for i in cls) for cls in classes}
    assert states == {
        frozenset({BState(1, 1, 0, 0)}),
        frozenset({BState(0, 1, 1, 0)}),
        frozenset({BState(2, 0, 2, 3)}),
    }


def test_all_defect_absorbing_single_class():
    # tempers outside [0, n] on both sides: everyone heads to defection
    pop = population({
        "anticoordinating": [{"uC": [-1, 0], "uD": [1, 1],          # tau_a = -1/2
                              "imitators": 1, "bestResponders": 2}],
        "coordinating": [{"uC": [1, -13], "uD": [-1, 0],            # tau_c = 13/2 > n = 6
                          "imitators": 1, "bestResponders": 2}],
    })
    chain = build_chain(pop)
    classes = recurrent_classes(chain)
    assert len(classes) == 1
    (cls,) = classes
    assert [chain.states[i] for i in cls] == [BState(0, 0, 0, 0)]


def test_cost_examples_ex7_1(chains):
    chain = chains["ex7_1"]
    assert cost(chain, [BState(0, 0, 0, 5)], [BState(0, 1, 0, 0)]) == 1
    assert cost(chain, [BState(0, 1, 0, 0)], [BState(0, 1, 0, 0)]) == 0


def test_cost_mixed_to_extreme_ex7_4(chains):
    chain = chains["ex7_4"]
    x, y, z = BState(1, 1, 0, 0), BState(0, 1, 1, 0), BState(2, 0, 2, 3)
    assert cost(chain, [x], [y]) == 1 and cost(chain, [y], [x]) == 1
    assert cost(chain, [z], [x]) == 1 and cost(chain, [z], [y]) == 1
    assert cost(chain, [x], [z]) >= 2 and cost(chain, [y], [z]) >= 2


def test_basin_and_radius_ex7_1(chains):
    chain = chains["ex7_1"]
    assert radius(chain, [BState(0, 0, 0, 5)]) == 1
    assert radius(chain, [BState(0, 1, 0, 0)]) >= 2


def test_basin_ex7_2_against_the_18_reported_states(chains):
    # the historically reported 18-state basin is exactly omega plus its
    # one-mistake entries; the probability-one basin additionally holds four
    # states that funnel into omega but need two mistakes to reach
    chain = chains["ex7_2"]
    omega = [BState(2, 0, 2, 0), BState(2, 1, 2, 0)]
    listed = {
        (2, 0, 2, 0), (2, 1, 2, 0), (1, 1, 1, 0), (0, 1, 2, 0), (1, 0, 2, 0),
        (2, 0, 1, 0), (2, 1, 0, 0), (1, 1, 2, 0), (2, 1, 1, 0), (1, 1, 1, 1),
        (0, 1, 2, 1), (1, 0, 2, 1), (2, 1, 0, 1), (2, 0, 1, 1), (1, 1, 2, 1),
        (2, 1, 1, 1), (2, 0, 2, 1), (2, 1, 2, 1),
    }
    one_mistake = {
        tuple(chain.states[i])
        for i in range(chain.n_states)
        if cost(chain, omega, [i]) == 1
    }
    assert one_mistake == listed - {(2, 0, 2, 0), (2, 1, 2, 0), (2, 1, 0, 0), (2, 1, 0, 1)}
    computed = {tuple(chain.states[i]) for i in basin(chain, omega)}
    assert listed <= computed
    assert computed == listed | {(1, 0, 1, 0), (1, 0, 1, 1), (2, 0, 0, 0), (2, 0, 0, 1)}
    # every extra member still funnels into omega without a single mistake
    assert all(cost(chain, [BState(*s)], omega) == 0 for s in computed)
    assert radius(chain, omega) >= 2


def test_gamma_singleton_graph():
    assert gamma(((0,),), 0) == 0


def test_gamma_ex7_4(chains):
    chain = chains["ex7_4"]
    table = chain.class_table
    gs = {frozenset(chain.states[i] for i in cls): gamma(table.costs, t)
          for t, cls in enumerate(table.classes)}
    x, y, z = BState(1, 1, 0, 0), BState(0, 1, 1, 0), BState(2, 0, 2, 3)
    assert gs[frozenset({x})] == 2 and gs[frozenset({y})] == 2
    assert gs[frozenset({z})] >= 3


def test_gamma_brute_vs_arborescence(chains):
    for chain in chains.values():
        costs = chain.class_table.costs
        for t in range(len(costs)):
            assert gamma(costs, t) == _gamma_reference(costs, t)


def test_gamma_matches_reference_on_random_costs():
    # small integer costs force ties and cycles nested inside contracted cycles
    rng = np.random.default_rng(7)
    for k in range(1, 7):
        for _ in range(40):
            costs = rng.integers(0, 5, size=(k, k))
            np.fill_diagonal(costs, 0)
            costs = costs.tolist()
            for root in range(k):
                assert gamma(costs, root) == _gamma_reference(costs, root)


def test_gamma_reference_refuses_nine_classes():
    with pytest.raises(ValueError):
        _gamma_reference([[1] * 9] * 9, 0)


def test_gamma_unique_minimum_ex7_1(chains):
    chain = chains["ex7_1"]
    table = chain.class_table
    gammas = [gamma(table.costs, t) for t in range(len(table.classes))]
    assert tuple(gammas) == table.gammas
    best = min(gammas)
    winners = [t for t, g in enumerate(gammas) if g == best]
    assert winners == list(table.stable_ids)
    assert len(winners) == 1
    assert [chain.states[i] for i in table.classes[winners[0]]] == [BState(0, 1, 0, 0)]


def test_potential_matches_gamma_on_fixtures(chains):
    gammas = {name: _assert_potential_matches_gamma(chain) for name, chain in chains.items()}
    assert gammas == {
        "ex7_1": (8, 7, 8, 8, 8, 8, 8, 8),
        "ex7_2": (5, 5, 5, 4, 5),
        "ex7_3": (4, 4, 4, 4, 4),
        "ex7_4": (2, 2, 6),
    }


def test_potential_matches_gamma_tripled_ex7_1():
    chain = build_chain(population("ex7_1", 3))
    assert chain.n_states == 1792
    assert _assert_potential_matches_gamma(chain) == (18, 1)


def test_stochastically_stable_sets(chains):
    expected = {
        "ex7_1": {BState(0, 1, 0, 0)},
        "ex7_2": {BState(2, 0, 2, 0), BState(2, 1, 2, 0)},
        "ex7_4": {BState(1, 1, 0, 0), BState(0, 1, 1, 0)},
    }
    for name, want in expected.items():
        assert stochastically_stable_set(chains[name]) == frozenset(want)


def test_stochastically_stable_union_ex7_3(chains):
    chain = chains["ex7_3"]
    table = chain.class_table
    assert len(set(table.gammas)) == 1  # full tie
    everything = {chain.states[i] for cls in table.classes for i in cls}
    assert stochastically_stable_set(chain) == frozenset(everything)


def test_stationary_distribution_exact(pops):
    chain = build_chain(pops["ex7_2"])
    mu = stationary_distribution(chain, Fraction(1, 1000))
    assert sum(mu) == 1
    assert all(x > 0 for x in mu)
    assert stationary_residual(chain, Fraction(1, 1000), mu) == 0


def test_stationary_requires_noise(chains):
    with pytest.raises(ValueError):
        stationary_distribution(chains["ex7_1"], 0)


def test_tremble_rate_out_of_range(chains):
    chain = chains["ex7_1"]
    with pytest.raises(ValueError):
        chain.transitions(Fraction(-1, 2))
    with pytest.raises(ValueError):
        stationary_distribution(chain, 1)
    with pytest.raises(ValueError):
        stationary_residual(chain, 1, [Fraction(1, chain.n_states)] * chain.n_states)
    # the masses at epsilon = 0 are the unperturbed chain's
    _, num, mistakes = chain.transitions(0)
    assert ((num > 0) == (mistakes == 0)).all()


def test_stationary_guard_precedes_allocation(pops, monkeypatch):
    eps = Fraction(1, 1000)
    chain = build_chain(pops["ex7_2"])
    needed = 8 * chain.n_states ** 2

    def no_allocation(*args, **kwargs):
        raise AssertionError("dense matrix allocated before the guard")

    def solved_stationary(result):
        return stationary_residual(chain, eps, result) <= Fraction(1, 10**12)

    def solved_potential(result):
        return min(result) == min(chain.class_table.gammas)

    def stationary(chain):
        return stationary_distribution(chain, eps)

    # the float path, the exact one, then the epsilon-order one
    for limit, solve, solved in ((10, stationary, solved_stationary),
                                 (stochastic.EXACT_SOLVE_LIMIT, stationary, solved_stationary),
                                 (stochastic.EXACT_SOLVE_LIMIT, stochastic_potential,
                                  solved_potential)):
        monkeypatch.setattr(stochastic, "EXACT_SOLVE_LIMIT", limit)
        monkeypatch.setattr(stochastic, "DENSE_SOLVE_BYTES", needed - 1)
        with monkeypatch.context() as m:
            for name in ("zeros", "empty", "eye", "ones", "full"):
                m.setattr(stochastic.np, name, no_allocation)
            with pytest.raises(StateSpaceTooLarge):
                solve(chain)
        monkeypatch.setattr(stochastic, "DENSE_SOLVE_BYTES", needed)
        assert solved(solve(chain))


class InexactDivision(AssertionError):
    pass


class CheckedKernel(stochastic._ExactKernel):
    """The exact kernel with every division checked by `divmod`: each one in
    the elimination and the back-substitution must leave no remainder."""

    def __init__(self, epsilon):
        super().__init__(epsilon)
        self.divisions = self.back_steps = self.stale_pivots = 0

    def pivot(self, p, k, rows, cols):
        self.stale_pivots += self.at[k] != self.root
        super().pivot(p, k, rows, cols)

    def divide(self, block, divisor):
        quotient, rest = np.frompyfunc(divmod, 2, 2)(block, divisor)
        if np.count_nonzero(rest):
            raise InexactDivision(f"remainder in {np.count_nonzero(rest)} of {rest.size}")
        self.divisions += 1
        return quotient

    def back(self, pi, col, pivot):
        weight, rest = divmod(sum((pi * col).tolist()), pivot)
        if rest:
            raise InexactDivision("remainder in the back-substitution")
        self.back_steps += 1
        return weight


def checked_stationary(chain, epsilon, kernel=CheckedKernel):
    """The exact stationary distribution through `kernel`, which counts its
    divisions; returns (mu, kernel)."""
    made = []

    def making(eps):
        made.append(kernel(eps))
        return made[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(stochastic, "_ExactKernel", making)
        mu = stationary_distribution(chain, epsilon)
    return mu, made[0]


def divided_exactly(chain, epsilon):
    """mu through CheckedKernel, which fails on any remainder, after checking
    that it took every back-substitution step."""
    mu, kernel = checked_stationary(chain, epsilon)
    assert kernel.back_steps == chain.n_states - 1
    assert kernel.divisions >= chain.n_states - 1
    return mu


@pytest.mark.parametrize("name", BINARY)
def test_exact_kernel_matches_fraction_reference(chains, name):
    for eps in (Fraction(1, 2), Fraction(1, 100), Fraction(1, 10000)):
        expected = _stationary_reference(chains[name], eps)
        assert stationary_distribution(chains[name], eps) == expected
        assert divided_exactly(chains[name], eps) == expected


def test_exact_kernel_divides_exactly_in_any_order(chains, monkeypatch):
    # the level order never eliminates a row that the previous pivot left
    # untouched; random orders do, so the pivot row's catch-up runs too
    rng = np.random.default_rng(20)
    for name in BINARY:
        chain, eps = chains[name], Fraction(1, 100)
        expected = stationary_distribution(chain, eps)
        with monkeypatch.context() as m:
            m.setattr(stochastic, "_elimination_order",
                      lambda chain: rng.permutation(chain.n_states))
            mu, kernel = checked_stationary(chain, eps)
        assert kernel.stale_pivots > 0
        assert mu == expected


class NoCatchUp(CheckedKernel):
    """Mutant: every row passes for current, so no row is caught up."""

    def pivot(self, p, k, rows, cols):
        self.at[:] = self.root
        super().pivot(p, k, rows, cols)


class DividesByPivot(CheckedKernel):
    """Mutant: the touched rows are divided by the new pivot, not by their scale."""

    def pivot(self, p, k, rows, cols):
        prev, at = self.root, self.at[rows]
        if self.at[k] != prev:
            p[k, :k] = self.divide(p[k, :k] * prev, self.at[k])
        s = sum(p[k, cols].tolist())
        block = p[rows, :k] * s
        block[:, cols] += np.multiply.outer(p[rows, k], p[k, cols])
        p[rows, :k] = self.divide(block, s)
        stale = rows[at != prev]
        p[stale, k] = self.divide(p[stale, k] * prev, self.at[stale])
        self.at[rows] = p[k, k] = self.root = s


class Unchecked:
    """A mutant's divisions as the kernel makes them, floored with no check,
    so only the kernel's own back-substitution check can catch it."""

    divide = staticmethod(stochastic._ExactKernel.divide)
    back = staticmethod(stochastic._ExactKernel.back)


@pytest.mark.parametrize("mutant", [NoCatchUp, DividesByPivot], ids=["no catch-up", "by pivot"])
def test_exact_kernel_catches_mutants(chains, mutant):
    unchecked = type("Unchecked" + mutant.__name__, (Unchecked, mutant), {})
    for name in BINARY:
        with pytest.raises(InexactDivision):
            checked_stationary(chains[name], Fraction(1, 100), mutant)
        # unchecked, the mutant fails the back-substitution's remainder check,
        # divides by a pivot it floored to zero, or gives a wrong mu
        try:
            mu, _ = checked_stationary(chains[name], Fraction(1, 100), unchecked)
        except (SingularSystem, ZeroDivisionError):
            continue
        assert mu != _stationary_reference(chains[name], Fraction(1, 100))


def test_exact_solve_builds_no_fraction_before_mu(chains, monkeypatch):
    eps = Fraction(1, 10000)
    chain = chains["ex7_3"]
    expected = stationary_distribution(chain, eps)
    gth, weights = stochastic._gth, []

    def no_fraction(*args, **kwargs):
        raise AssertionError("Fraction built inside the exact state reduction")

    def guarded(chain, kernel):
        with monkeypatch.context() as m:
            m.setattr(stochastic, "Fraction", no_fraction)
            pi, position, pivots = gth(chain, kernel)
        weights.extend(pi.tolist())
        return pi, position, pivots

    monkeypatch.setattr(stochastic, "_gth", guarded)
    assert stationary_distribution(chain, eps) == expected
    assert weights and all(type(w) is int for w in weights)


def test_float_solve_matches_exact(pops, monkeypatch):
    for name in BINARY:
        chain = build_chain(pops[name])
        exact = stationary_distribution(chain, Fraction(1, 10000))
        with monkeypatch.context() as m:
            m.setattr(stochastic, "EXACT_SOLVE_LIMIT", 0)
            approx = stationary_distribution(chain, Fraction(1, 10000))
        for i, (a, e) in enumerate(zip(approx, exact)):
            assert a > 0, (name, i)
            assert abs(a - e) <= e / 10**12, (name, i, float(a), float(e))


def test_stationary_mass_concentrates_ex7_1(pops):
    target = BState(0, 1, 0, 0)
    masses = []
    chain = build_chain(pops["ex7_1"])
    for eps in (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000)):
        mu = stationary_distribution(chain, eps)
        masses.append(mu[chain.index_of(target)])
    assert masses[0] < masses[1] < masses[2]
    assert masses[2] > Fraction(99, 100)


def test_stationary_mass_ex7_4_mixed_pair(pops):
    chain = build_chain(pops["ex7_4"])
    mu = stationary_distribution(chain, Fraction(1, 10000))
    x, y, z = BState(1, 1, 0, 0), BState(0, 1, 1, 0), BState(2, 0, 2, 3)
    assert mu[chain.index_of(x)] + mu[chain.index_of(y)] > Fraction(99, 100)
    assert mu[chain.index_of(z)] < Fraction(1, 10**6)


def test_modified_cost_no_intermediate_class(chains):
    chain = chains["ex7_4"]
    x, y = BState(1, 1, 0, 0), BState(0, 1, 1, 0)
    # adjacent mixed equilibria: the only stop is the target itself
    assert modified_cost(chain, x, [y]) == cost(chain, [x], [y]) == 1


def test_modified_cost_ex7_4_discount(chains):
    chain = chains["ex7_4"]
    x, z = BState(1, 1, 0, 0), BState(2, 0, 2, 3)
    assert modified_cost(chain, z, [x]) <= cost(chain, [z], [x]) == 1


def test_modified_cost_rejects_inside_start(chains):
    chain = chains["ex7_4"]
    x = BState(1, 1, 0, 0)
    with pytest.raises(ValueError):
        modified_cost(chain, x, [x])


def test_corresponding_extreme_formulas(pops):
    b = pops["ex7_1"]
    assert corresponding_extreme(b, BState(1, 1, 0, 0)) == BState(0, 1, 0, 0)
    assert corresponding_extreme(b, BState(1, 0, 1, 5)) == BState(2, 0, 1, 5)


def test_corresponding_extreme_rejects_non_mixed(pops):
    b = pops["ex7_1"]
    with pytest.raises(NotMixed):
        corresponding_extreme(b, BState(0, 1, 0, 0))  # r = 0
    with pytest.raises(NotMixed):
        corresponding_extreme(b, BState(1, 1, 1, 1))  # not a mixed-equilibrium form


def test_corresponding_extreme_ex7_4_not_equilibrium(pops, chains):
    b = pops["ex7_4"]
    ext = corresponding_extreme(b, BState(1, 1, 0, 0))
    assert ext == BState(0, 1, 0, 0)
    assert not chains["ex7_4"].is_equilibrium(ext)


def test_extreme_theorem_verdicts(pops, chains):
    for name in ("ex7_1", "ex7_2", "ex7_3"):
        verdict = check_extreme_theorem(chains[name])
        assert verdict.hypothesis_holds
        assert verdict.conclusion_status == "verified"
    verdict = check_extreme_theorem(chains["ex7_4"])
    assert not verdict.hypothesis_holds
    assert verdict.conclusion_status == "not_applicable"
    assert all(
        not (1 <= s.x1I + s.x2I <= pops["ex7_4"].m - 1) is False
        for s in verdict.stable_equilibria
    )  # the stable equilibria are all mixed here


def test_extreme_theorem_trivial_without_equilibria():
    pop = population({
        "anticoordinating": [{"uC": ["-19/4", "1971/56"], "uD": ["-1/2", "-66/7"],
                              "imitators": 3, "bestResponders": 2}],
        "coordinating": [{"uC": ["9/2", "-75/4"], "uD": [-2, -9],
                          "imitators": 3, "bestResponders": 3}],
    })
    chain = build_chain(pop)
    assert equilibria_of_chain(chain) == []
    verdict = check_extreme_theorem(chain)
    assert verdict.hypothesis_holds
    assert verdict.conclusion_status == "trivially_consistent"


def test_report_and_dot_exports(chains):
    mu = stationary_distribution(chains["ex7_1"], Fraction(1, 100))
    report = stochastic_report(chains["ex7_1"], {Fraction(1, 100): mu})
    assert report["states"] == 72
    assert report["stochastically_stable_states"] == [[0, 1, 0, 0]]
    assert "1/100" in report["stationary"]
    out = io.StringIO()
    export_class_digraph_dot(chains["ex7_1"], out)
    text = out.getvalue()
    assert text.startswith("digraph") and "->" in text


# -- reference mistake costs: plain Dijkstra, per-class closures, subset DP ------


def _dijkstra(steps, sources, targets, banned=frozenset()):
    """Fewest mistakes from `sources` into `targets`, never entering a banned
    state outside `targets`, over the one-step costs `steps` (see
    `_step_costs`); math.inf when no such path exists."""
    dist = {i: 0 for i in sources if i not in banned}
    heap = [(0, i) for i in dist]
    heapq.heapify(heap)
    settled = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u in targets:
            return d
        for v, c in steps[u].items():
            if v in banned and v not in targets:
                continue
            nd = d + c
            if v not in settled and nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return math.inf


def _radii_reference(steps, classes):
    preds = {}
    for i, row in enumerate(steps):
        for j, c in row.items():
            if c == 0:
                preds.setdefault(j, []).append(i)

    def closure(cls):
        seen, stack = set(cls), list(cls)
        while stack:
            for p in preds.get(stack.pop(), ()):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    closures = [closure(cls) for cls in classes]
    radii = []
    for a, cls in enumerate(classes):
        inside = closures[a].difference(*(c for b, c in enumerate(closures) if b != a))
        outside = set(range(len(steps))) - inside
        radii.append(_dijkstra(steps, cls, outside) if outside else math.inf)
    return radii


def _modified_cost_reference(chain, starts):
    """{(x, t): modified cost from state x to class t} for x in `starts`, by the
    subset dynamic program over every simple sequence of classes ending at t."""
    classes = recurrent_classes(chain)
    class_sets = [set(c) for c in classes]
    every = set().union(*class_sets)
    k = len(classes)
    steps = _step_costs(chain)
    radii = _radii_reference(steps, classes)
    rseg = [
        [_dijkstra(steps, class_sets[a], class_sets[b], every - class_sets[a] - class_sets[b])
         if a != b else math.inf for b in range(k)]
        for a in range(k)
    ]
    out = {}
    for x in starts:
        start_class = next((t for t, c in enumerate(class_sets) if x in c), None)
        seg = [_dijkstra(steps, [x], c, every - c) for c in class_sets]
        for target in range(k):
            if target == start_class:
                continue
            others = [t for t in range(k) if t != target]
            bit_of = {t: 1 << pos for pos, t in enumerate(others)}
            if start_class is None:
                best = seg[target]
                entries = [(q, seg[q]) for q in others if not math.isinf(seg[q])]
            else:
                best = math.inf
                entries = [(start_class, 0)]
            for q1, cost0 in entries:
                # dp[(mask, v)]: cheapest q1 -> ... -> v over the visited mask,
                # every class departed so far but q1 discounted by its radius
                dp = {(bit_of[q1], q1): cost0}
                frontier = list(dp)
                while frontier:
                    new_frontier = []
                    for mask, v in frontier:
                        leave = dp[(mask, v)] - (radii[v] if v != q1 else 0)
                        best = min(best, leave + rseg[v][target])
                        for w in others:
                            if mask & bit_of[w] or math.isinf(rseg[v][w]):
                                continue
                            key = (mask | bit_of[w], w)
                            if leave + rseg[v][w] < dp.get(key, math.inf):
                                dp[key] = leave + rseg[v][w]
                                new_frontier.append(key)
                    frontier = new_frontier
            out[(x, target)] = best
    return out


def _assert_modified_costs_match(chain, starts):
    classes = recurrent_classes(chain)
    assert [radius(chain, cls) for cls in classes] == _radii_reference(_step_costs(chain), classes)
    want = _modified_cost_reference(chain, starts)
    got = {(x, t): modified_cost(chain, x, classes[t]) for x, t in want}
    assert got == want
    assert all(type(v) is int or v == math.inf for v in got.values())


@pytest.mark.parametrize("name", BINARY)
def test_modified_cost_matches_subset_dp(chains, name):
    chain = chains[name]
    _assert_modified_costs_match(chain, range(chain.n_states))


@pytest.mark.parametrize("name", ["ex7_1", "ex7_4"])
def test_modified_cost_matches_subset_dp_doubled(name):
    chain = build_chain(population(name, 2))
    assert len(recurrent_classes(chain)) == 4
    starts = random.Random(11).sample(range(chain.n_states), 50)
    _assert_modified_costs_match(chain, starts)


def test_mistake_costs_match_dijkstra(chains):
    # every state's cost from and into each class and some random state sets
    chain = chains["ex7_1"]
    steps = _step_costs(chain)
    n = chain.n_states
    rng = random.Random(3)
    groups = [list(c) for c in recurrent_classes(chain)] + [rng.sample(range(n), m) for m in (1, 5)]
    for sources in groups:
        forward = stochastic._mistake_costs(chain, sources)
        backward = stochastic._mistake_costs(chain, sources, reverse=True)
        assert forward.tolist() == [_dijkstra(steps, sources, {v}) for v in range(n)]
        assert backward.tolist() == [_dijkstra(steps, [v], set(sources)) for v in range(n)]


def _zero_one_search(steps, sources, stop):
    """Fewest mistakes from `sources` to every state, states in `stop` reached
    but never left: the per-start 0-1 breadth-first search that modified costs
    were once computed with."""
    dist = [math.inf] * len(steps)
    queue = deque(sources)
    for i in queue:
        dist[i] = 0
    while queue:
        u = queue.popleft()
        if u in stop:
            continue
        for v, c in steps[u].items():
            if dist[u] + c < dist[v]:
                dist[v] = dist[u] + c
                if c:
                    queue.append(v)
                else:
                    queue.appendleft(v)
    return dist


@pytest.mark.parametrize("name, factor, k", [("ex7_1", 2, 4), ("ex7_1", 3, 2)])
def test_modified_cost_matches_per_start_search(name, factor, k):
    # every (state, class) pair against segments and legs that enter no other
    # class, each start outside the classes searched on its own
    chain = build_chain(population(name, factor))
    classes = [set(c) for c in recurrent_classes(chain)]
    assert len(classes) == k
    steps = _step_costs(chain)
    in_class = set().union(*classes)
    radii = _radii_reference(steps, classes)
    legs = [[0] * k for _ in range(k)]
    for a, cls in enumerate(classes):
        dist = _zero_one_search(steps, cls, in_class - cls)
        for b, other in enumerate(classes):
            if a != b:
                legs[a][b] = min(dist[j] for j in other) - radii[a]
    for q, a, b in itertools.product(range(k), repeat=3):
        legs[a][b] = min(legs[a][b], legs[a][q] + legs[q][b])
    for x in range(chain.n_states):
        s = next((a for a, cls in enumerate(classes) if x in cls), None)
        if s is not None:
            via = [radii[s] + legs[s][t] for t in range(k)]
        else:
            dist = _zero_one_search(steps, [x], in_class)
            seg = [min(dist[j] for j in cls) for cls in classes]
            via = [min(seg[q] + (0 if q == t else radii[q] + legs[q][t]) for q in range(k))
                   for t in range(k)]
        for t, cls in enumerate(classes):
            if x not in cls:
                assert modified_cost(chain, x, sorted(cls)) == via[t], (x, t)


def test_numpy_integer_indices(chains):
    chain = chains["ex7_1"]
    cls = recurrent_classes(chain)[0]
    x = next(i for i in range(chain.n_states) if i not in cls)

    class Index:  # any integer, through operator.index
        def __index__(self):
            return x

    for start in (np.int64(x), np.int32(x), np.uint8(x), Index()):
        assert modified_cost(chain, start, cls) == modified_cost(chain, x, cls)
        assert cost(chain, [start], cls) == cost(chain, [x], cls)
        assert chain.is_equilibrium(start) == chain.is_equilibrium(x)
    assert cost(chain, np.array([x]), np.array(cls)) == cost(chain, [x], cls)
    assert radius(chain, np.array(cls)) == radius(chain, cls)
    assert basin(chain, np.array(cls)) == basin(chain, cls)
    assert chain.is_equilibrium(np.int64(cls[0]))
    assert type(modified_cost(chain, np.int64(x), cls)) is int
    with pytest.raises(ValueError):
        chain.index_of(np.int64(chain.n_states))
    with pytest.raises(ValueError):
        chain.index_of(BState(0, 0, 0, 99))
