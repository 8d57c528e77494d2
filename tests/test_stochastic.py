import io
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from popdyn import stochastic
from popdyn.errors import NotMixed, StateSpaceTooLarge
from popdyn.model import UtilityLine
from popdyn.stochastic import (
    BinaryTypePopulation,
    BState,
    basin,
    build_chain,
    build_class_graph,
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
    stochastic_report,
    stochastically_stable_set,
)
from popdyn.verify import _gamma_reference


@pytest.fixture(scope="module")
def bpops(pops):
    return {
        name: BinaryTypePopulation.from_population_spec(pops[name])
        for name in ("ex7_1", "ex7_2", "ex7_3", "ex7_4")
    }


@pytest.fixture(scope="module")
def chains(bpops):
    return {name: build_chain(bpop, 0) for name, bpop in bpops.items()}


def test_binary_type_requires_all_cells(pops):
    with pytest.raises(ValueError):
        BinaryTypePopulation.from_population_spec(pops["ex1"])  # two nonconformist types


def test_weights_default_uniform(bpops):
    b = bpops["ex7_1"]
    assert b.weights == (Fraction(1, 9),) * 4


def test_weights_must_normalize():
    with pytest.raises(ValueError):
        BinaryTypePopulation.from_lines(
            2, 1, 1, 5,
            UtilityLine(-2, Fraction(51, 5)), UtilityLine(5, Fraction(-37, 2)),
            UtilityLine(Fraction(33, 5), Fraction(-297, 10)), UtilityLine(Fraction(-14, 5), Fraction(63, 5)),
            weights=(Fraction(1, 9), Fraction(1, 9), Fraction(1, 9), Fraction(1, 2)),
        )


def test_chain_rows_sum_to_one(bpops):
    for eps in (0, Fraction(1, 100)):
        chain = build_chain(bpops["ex7_2"], eps)
        assert chain.n_states == 72
        for row in chain.rows:
            assert sum(row.values()) == 1


def test_chain_support_monotone(bpops):
    chain0 = build_chain(bpops["ex7_1"], 0)
    chain_eps = build_chain(bpops["ex7_1"], Fraction(1, 50))
    for i in range(chain0.n_states):
        assert chain0.support0[i] <= chain_eps.support_eps[i]
        assert chain0.support0[i] == chain_eps.support0[i]


def test_perturbed_chain_irreducible_aperiodic(bpops):
    chain = build_chain(bpops["ex7_1"], Fraction(1, 100))
    src = [i for i, succ in enumerate(chain.support_eps) for _ in succ]
    dst = [j for succ in chain.support_eps for j in succ]
    n = chain.n_states
    support = csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    assert connected_components(support, directed=True, connection="strong")[0] == 1
    assert all(i in chain.support_eps[i] for i in range(chain.n_states))


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
    bpop = BinaryTypePopulation.from_lines(
        1, 2, 1, 2,
        UtilityLine(-1, 0), UtilityLine(1, 1),            # tau_a = -1/2
        UtilityLine(1, -13), UtilityLine(-1, 0),          # tau_c = 13/2 > n = 6
    )
    chain = build_chain(bpop, 0)
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
    from popdyn.stochastic import ClassGraph

    cg = ClassGraph(classes=((0,),), costs=((0,),))
    assert gamma(cg, 0) == 0


def test_gamma_ex7_4(chains, bpops):
    chain = chains["ex7_4"]
    cg = build_class_graph(chain)
    gs = {frozenset(chain.states[i] for i in cg.classes[t]): gamma(cg, t) for t in range(cg.k)}
    x, y, z = BState(1, 1, 0, 0), BState(0, 1, 1, 0), BState(2, 0, 2, 3)
    assert gs[frozenset({x})] == 2 and gs[frozenset({y})] == 2
    assert gs[frozenset({z})] >= 3


def test_gamma_brute_vs_arborescence(chains):
    for chain in chains.values():
        cg = build_class_graph(chain)
        for t in range(cg.k):
            assert gamma(cg, t) == _gamma_reference(cg, t)


def test_gamma_matches_reference_on_random_costs():
    # small integer costs force ties and cycles nested inside contracted cycles
    from popdyn.stochastic import ClassGraph

    rng = np.random.default_rng(7)
    for k in range(1, 7):
        for _ in range(40):
            costs = rng.integers(0, 5, size=(k, k))
            np.fill_diagonal(costs, 0)
            cg = ClassGraph(tuple((i,) for i in range(k)), tuple(map(tuple, costs.tolist())))
            for root in range(k):
                assert gamma(cg, root) == _gamma_reference(cg, root)


def test_gamma_reference_refuses_nine_classes():
    from popdyn.stochastic import ClassGraph

    cg = ClassGraph(tuple((i,) for i in range(9)), tuple((1,) * 9 for _ in range(9)))
    with pytest.raises(ValueError):
        _gamma_reference(cg, 0)


def test_gamma_unique_minimum_ex7_1(chains):
    chain = chains["ex7_1"]
    cg = build_class_graph(chain)
    gammas = [gamma(cg, t) for t in range(cg.k)]
    best = min(gammas)
    winners = [t for t, g in enumerate(gammas) if g == best]
    assert len(winners) == 1
    assert [chain.states[i] for i in cg.classes[winners[0]]] == [BState(0, 1, 0, 0)]


def test_stochastically_stable_sets(bpops, chains):
    expected = {
        "ex7_1": {BState(0, 1, 0, 0)},
        "ex7_2": {BState(2, 0, 2, 0), BState(2, 1, 2, 0)},
        "ex7_4": {BState(1, 1, 0, 0), BState(0, 1, 1, 0)},
    }
    for name, want in expected.items():
        res = stochastically_stable_set(bpops[name], chains[name])
        assert res.stable_states == frozenset(want)


def test_stochastically_stable_union_ex7_3(bpops, chains):
    chain = chains["ex7_3"]
    res = stochastically_stable_set(bpops["ex7_3"], chain)
    assert len(set(res.gammas)) == 1  # full tie
    everything = {chain.states[i] for cls in res.class_graph.classes for i in cls}
    assert res.stable_states == frozenset(everything)


def test_stationary_distribution_exact(bpops):
    chain = build_chain(bpops["ex7_2"], Fraction(1, 1000))
    mu = stationary_distribution(chain)
    assert sum(mu) == 1
    assert all(x > 0 for x in mu)
    assert stationary_residual(chain, mu) == 0


def test_stationary_requires_noise(chains):
    with pytest.raises(ValueError):
        stationary_distribution(chains["ex7_1"])


def test_float_solve_guard_precedes_allocation(bpops, monkeypatch):
    chain = build_chain(bpops["ex7_2"], Fraction(1, 1000))
    needed = 3 * 8 * chain.n_states ** 2
    monkeypatch.setattr(stochastic, "EXACT_SOLVE_LIMIT", 10)
    monkeypatch.setattr(stochastic, "DENSE_SOLVE_BYTES", needed - 1)

    def no_allocation(*args, **kwargs):
        raise AssertionError("dense matrix allocated before the guard")

    with monkeypatch.context() as m:
        for name in ("zeros", "empty", "eye"):
            m.setattr(stochastic.np, name, no_allocation)
        with pytest.raises(StateSpaceTooLarge):
            stationary_distribution(chain)
    monkeypatch.setattr(stochastic, "DENSE_SOLVE_BYTES", needed)
    mu = stationary_distribution(chain)
    assert stationary_residual(chain, mu) <= Fraction(1, 10**12)


def test_stationary_mass_concentrates_ex7_1(bpops):
    target = BState(0, 1, 0, 0)
    masses = []
    for eps in (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000)):
        chain = build_chain(bpops["ex7_1"], eps)
        mu = stationary_distribution(chain)
        masses.append(mu[chain.index[target]])
    assert masses[0] < masses[1] < masses[2]
    assert masses[2] > Fraction(99, 100)


def test_stationary_mass_ex7_4_mixed_pair(bpops):
    chain = build_chain(bpops["ex7_4"], Fraction(1, 10000))
    mu = stationary_distribution(chain)
    x, y, z = BState(1, 1, 0, 0), BState(0, 1, 1, 0), BState(2, 0, 2, 3)
    assert mu[chain.index[x]] + mu[chain.index[y]] > Fraction(99, 100)
    assert mu[chain.index[z]] < Fraction(1, 10**6)


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


def test_corresponding_extreme_formulas(bpops):
    b = bpops["ex7_1"]
    assert corresponding_extreme(b, BState(1, 1, 0, 0)) == BState(0, 1, 0, 0)
    assert corresponding_extreme(b, BState(1, 0, 1, 5)) == BState(2, 0, 1, 5)


def test_corresponding_extreme_rejects_non_mixed(bpops):
    b = bpops["ex7_1"]
    with pytest.raises(NotMixed):
        corresponding_extreme(b, BState(0, 1, 0, 0))  # r = 0
    with pytest.raises(NotMixed):
        corresponding_extreme(b, BState(1, 1, 1, 1))  # not a mixed-equilibrium form


def test_corresponding_extreme_ex7_4_not_equilibrium(bpops, chains):
    b = bpops["ex7_4"]
    ext = corresponding_extreme(b, BState(1, 1, 0, 0))
    assert ext == BState(0, 1, 0, 0)
    assert not chains["ex7_4"].is_equilibrium(ext)


def test_extreme_theorem_verdicts(bpops):
    for name in ("ex7_1", "ex7_2", "ex7_3"):
        verdict = check_extreme_theorem(bpops[name])
        assert verdict.hypothesis_holds
        assert verdict.conclusion_status == "verified"
    verdict = check_extreme_theorem(bpops["ex7_4"])
    assert not verdict.hypothesis_holds
    assert verdict.conclusion_status == "not_applicable"
    assert all(
        not (1 <= s.x1I + s.x2I <= bpops["ex7_4"].m - 1) is False
        for s in verdict.stable_equilibria
    )  # the stable equilibria are all mixed here


def test_extreme_theorem_trivial_without_equilibria():
    bpop = BinaryTypePopulation.from_lines(
        3, 2, 3, 3,
        UtilityLine(Fraction(-19, 4), Fraction(1971, 56)), UtilityLine(Fraction(-1, 2), Fraction(-66, 7)),
        UtilityLine(Fraction(9, 2), Fraction(-75, 4)), UtilityLine(-2, -9),
    )
    chain = build_chain(bpop, 0)
    assert equilibria_of_chain(chain) == []
    verdict = check_extreme_theorem(bpop)
    assert verdict.hypothesis_holds
    assert verdict.conclusion_status == "trivially_consistent"


def test_report_and_dot_exports(bpops):
    report = stochastic_report(bpops["ex7_1"], epsilons=[Fraction(1, 100)])
    assert report["states"] == 72
    assert report["stochastically_stable_states"] == [[0, 1, 0, 0]]
    assert "1/100" in report["stationary"]
    out = io.StringIO()
    export_class_digraph_dot(bpops["ex7_1"], out)
    text = out.getvalue()
    assert text.startswith("digraph") and "->" in text
