"""Acceptance gate: the ten headline guarantees, one pass/fail line each.

Discrete outputs are matched exactly; the only tolerances are the ones the
statements themselves carry (stationary residual 1e-12, stated runtimes).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from genpop import sample_populations
from popdyn import stochastic as st
from popdyn.equilibria import classify_stability, enumerate_equilibria
from popdyn.fixtures import fixture_config
from popdyn.invariants import invariance_report
from popdyn.oracle import (
    build_transition_digraph,
    is_equilibrium_oracle,
    is_stable_oracle,
    minimal_invariant_sets,
)
from popdyn.verify import verify_equilibria, verify_invariants

EPS_GRID = (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000))


def _criterion(num: int, checks: list[tuple[str, bool]], note: str = "") -> None:
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"criterion {num:02d} [{status}] {len(checks)} checks{suffix}")
    assert not failed, f"criterion {num} failed: {failed}"


@pytest.fixture(scope="module")
def stochastic_artifacts(pops):
    """Unperturbed chains, their stable sets and stationary distributions for ex7_1..ex7_4."""
    out = {}
    for name in ("ex7_1", "ex7_2", "ex7_3", "ex7_4"):
        chain = st.build_chain(pops[name])
        mus = {}
        for eps in EPS_GRID:
            mu = st.stationary_distribution(chain, eps)
            mus[eps] = (mu, st.stationary_residual(chain, eps, mu))
        out[name] = (chain, st.stochastically_stable_set(chain), mus)
    return out


def test_criterion_1_ex1_equilibria(pops):
    pop = pops["ex1"]
    t0 = time.perf_counter()
    records = enumerate_equilibria(pop)
    graph = build_transition_digraph(pop, max_states=2_000_000)
    sinks = minimal_invariant_sets(graph)
    elapsed = time.perf_counter() - t0
    analytic = {r.state.to_tuple() for r in records}
    oracle_eqs = {next(iter(s.states)).to_tuple() for s in sinks if s.is_singleton}
    expected = {
        (0, 9, 0, 0, 0, 15),
        (20, 0, 0, 0, 1, 15),
        (20, 0, 0, 10, 1, 15),
        (15, 0, 0, 0, 0, 15),
    }
    _criterion(1, [
        ("analytic set equals the four listed equilibria", analytic == expected),
        ("oracle singleton sinks agree", oracle_eqs == expected),
        ("runtime under 10 s", elapsed < 10.0),
    ], note=f"{elapsed:.1f}s")


def test_criterion_2_ex2_equilibrium_and_fluctuation(pops, graphs):
    pop, graph = pops["ex2"], graphs("ex2")
    eq = pop.state(14, 9, 0, 0, 0, 0)
    records = enumerate_equilibria(pop)
    analytic_eq = len(records) == 1 and records[0].state == eq
    oracle_eq = is_equilibrium_oracle(graph, eq)

    multis = [s for s in minimal_invariant_sets(graph) if not s.is_singleton]
    pattern_ok = False
    for res in multis:
        if all(
            s.xa[1] == 0 and s.xc[1] == 0 and s.xc[2] == 0 and s.xc[0] == pop.n_c(1)
            for s in res.states
        ):
            pattern_ok = True

    verdict = classify_stability(pop, records[0])
    oracle_stable = is_stable_oracle(graph, eq)
    _criterion(2, [
        ("analytic equilibrium is exactly (14,9,0,0,0,0)", analytic_eq),
        ("oracle confirms it", oracle_eq),
        ("a non-singleton set fixes type-2 nonconformists and type-2,3 conformists to defect "
         "and type-1 conformists to cooperate", pattern_ok),
        ("closed-form stability matches the oracle", verdict.is_stable == oracle_stable),
        ("both say unstable", verdict.is_stable is False and oracle_stable is False),
    ])


def test_criterion_3_ex3_no_equilibria_and_bounds(pops, graphs):
    pop, graph = pops["ex3"], graphs("ex3")
    records = enumerate_equilibria(pop)
    sinks = minimal_invariant_sets(graph)
    notes = fixture_config("ex3").get("notes", "")
    _criterion(3, [
        ("analytic equilibrium set is empty", records == []),
        ("every minimal invariant set is non-singleton", all(not s.is_singleton for s in sinks)),
        ("exactly one minimal invariant set", len(sinks) == 1),
        ("its cooperator bounds are (21, 35)", sinks[0].cooperator_bounds == (21, 35)),
        ("the fixture documents the conflicting reported ranges", "25,32" in notes and "21" in notes),
    ], note="oracle bounds supersede the three inconsistent reported ranges")


def test_criterion_4_ex7_1_costs_and_stability(pops):
    t0 = time.perf_counter()
    chain = st.build_chain(pops["ex7_1"])
    stable = st.stochastically_stable_set(chain)
    classes_states = {frozenset(chain.states[i] for i in cls) for cls in chain.class_table.classes}
    expected_eqs = {
        st.BState(0, 1, 0, 0), st.BState(1, 1, 1, 0), st.BState(2, 1, 0, 0),
        st.BState(2, 1, 1, 0), st.BState(0, 0, 0, 5), st.BState(1, 0, 1, 5),
        st.BState(2, 0, 0, 5), st.BState(2, 0, 1, 5),
    }
    c_value = st.cost(chain, [st.BState(0, 0, 0, 5)], [st.BState(0, 1, 0, 0)])
    r_coop = st.radius(chain, [st.BState(0, 0, 0, 5)])
    r_star = st.radius(chain, [st.BState(0, 1, 0, 0)])
    elapsed = time.perf_counter() - t0
    _criterion(4, [
        ("recurrent classes are the eight equilibria",
         classes_states == {frozenset({s}) for s in expected_eqs}),
        ("c((0,0,0,5),(0,1,0,0)) = 1", c_value == 1),
        ("R((0,0,0,5)) = 1", r_coop == 1),
        ("R((0,1,0,0)) >= 2", r_star >= 2),
        ("stochastically stable set is {(0,1,0,0)}",
         stable == frozenset({st.BState(0, 1, 0, 0)})),
        ("runtime under 5 s", elapsed < 5.0),
    ], note=f"{elapsed:.1f}s")


def test_criterion_5_ex7_2_basin_and_stability(pops, stochastic_artifacts):
    chain, stable, _ = stochastic_artifacts["ex7_2"]
    table = chain.class_table
    omega = frozenset({st.BState(2, 0, 2, 0), st.BState(2, 1, 2, 0)})
    classes_states = {frozenset(chain.states[i] for i in cls) for cls in table.classes}
    expected = {
        frozenset({st.BState(0, 1, 0, 0)}), frozenset({st.BState(1, 1, 0, 0)}),
        frozenset({st.BState(0, 1, 1, 0)}), frozenset({st.BState(2, 0, 2, 3)}),
        omega,
    }
    omega_id = next(t for t, cls in enumerate(table.classes)
                    if frozenset(chain.states[j] for j in cls) == omega)
    basin_states = {tuple(chain.states[i]) for i in np.flatnonzero(table.basins[omega_id])}
    listed_18 = {
        (2, 0, 2, 0), (2, 1, 2, 0), (1, 1, 1, 0), (0, 1, 2, 0), (1, 0, 2, 0),
        (2, 0, 1, 0), (2, 1, 0, 0), (1, 1, 2, 0), (2, 1, 1, 0), (1, 1, 1, 1),
        (0, 1, 2, 1), (1, 0, 2, 1), (2, 1, 0, 1), (2, 0, 1, 1), (1, 1, 2, 1),
        (2, 1, 1, 1), (2, 0, 2, 1), (2, 1, 2, 1),
    }
    exact_basin = listed_18 | {(1, 0, 1, 0), (1, 0, 1, 1), (2, 0, 0, 0), (2, 0, 0, 1)}
    _criterion(5, [
        ("72 states", chain.n_states == 72),
        ("recurrent classes are the four equilibria plus the two-state set",
         classes_states == expected),
        ("the 18 reported basin states all belong to the basin", listed_18 <= basin_states),
        ("the exact probability-one basin is those 18 plus four further feeder states",
         basin_states == exact_basin),
        ("R(omega) >= 2", table.radii[omega_id] >= 2),
        ("stochastically stable set is omega", stable == omega),
    ], note="exact basin supersedes the reported 18-state display; see the notes ledger")


def test_criterion_6_ex7_3_union_of_all_sets(pops, stochastic_artifacts):
    chain, stable, _ = stochastic_artifacts["ex7_3"]
    table = chain.class_table
    everything = {chain.states[i] for cls in table.classes for i in cls}
    _criterion(6, [
        ("five minimal invariant sets", len(table.classes) == 5),
        ("tree weights tie across all classes", len(set(table.gammas)) == 1),
        ("stochastically stable set is the union of all five",
         stable == frozenset(everything)),
    ])


def test_criterion_7_ex7_4_mixed_pair(pops, stochastic_artifacts):
    chain, stable, _ = stochastic_artifacts["ex7_4"]
    table = chain.class_table
    x, y, z = st.BState(1, 1, 0, 0), st.BState(0, 1, 1, 0), st.BState(2, 0, 2, 3)
    eqs = set(st.equilibria_of_chain(chain))
    gamma_of = {chain.states[cls[0]]: g for cls, g in zip(table.classes, table.gammas)}
    verdict = st.check_extreme_theorem(chain)
    _criterion(7, [
        ("exactly the three equilibria x, y, z", eqs == {x, y, z}),
        ("c(x,y) = c(y,x) = 1",
         st.cost(chain, [x], [y]) == 1 and st.cost(chain, [y], [x]) == 1),
        ("c(z,x) = c(z,y) = 1",
         st.cost(chain, [z], [x]) == 1 and st.cost(chain, [z], [y]) == 1),
        ("c(x,z) >= 2 and c(y,z) >= 2",
         st.cost(chain, [x], [z]) >= 2 and st.cost(chain, [y], [z]) >= 2),
        ("gamma(x) = gamma(y) = 2", gamma_of[x] == 2 and gamma_of[y] == 2),
        ("gamma(z) >= 3", gamma_of[z] >= 3),
        ("stochastically stable set is {x, y}", stable == frozenset({x, y})),
        ("extreme-state hypothesis fails", not verdict.hypothesis_holds),
        ("verdict records the failure", verdict.conclusion_status == "not_applicable"),
    ])


def test_criterion_8_randomized_property_suite():
    t0 = time.perf_counter()
    count = 220
    problems = []
    for k, pop in enumerate(sample_populations(seed=20260810, count=count)):
        graph = build_transition_digraph(pop, max_states=400_000)
        problems += verify_equilibria(pop, graph)
        problems += verify_invariants(pop, graph, invariance_report(pop))
    elapsed = time.perf_counter() - t0
    _criterion(8, [
        (f"all cross-checks agree on {count} random populations", problems == []),
        ("runtime under 5 min", elapsed < 300.0),
    ], note=f"{elapsed:.1f}s; first problems: {problems[:2]}")


def test_criterion_9_stationary_corroboration(stochastic_artifacts):
    checks = []
    for name, (chain0, stable, mus) in stochastic_artifacts.items():
        table = chain0.class_table
        masses = []
        for eps in EPS_GRID:
            mu, residual = mus[eps]
            checks.append((f"{name}: residual exactly zero at eps={eps}", residual == 0))
            checks.append((f"{name}: residual under 1e-12 at eps={eps}",
                           residual <= Fraction(1, 10**12)))
            mass = sum((mu[chain0.index_of(s)] for s in stable), Fraction(0))
            masses.append(mass)
        checks.append((f"{name}: stable-set mass strictly increases as eps decreases",
                       masses[0] < masses[1] < masses[2]))
        checks.append((f"{name}: mass at 1e-4 beats mass at 1e-2", masses[2] > masses[0]))

        mu_small, _ = mus[EPS_GRID[-1]]
        class_mass = [sum((mu_small[i] for i in cls), Fraction(0)) for cls in table.classes]
        top = max(class_mass)
        retained = {i for i, v in enumerate(class_mass) if v >= top * Fraction(1, 1000)}
        checks.append((f"{name}: mass-retaining classes equal the gamma-minimal ones",
                       retained == set(table.stable_ids)))
    _criterion(9, checks)


def test_criterion_10_modified_cost_dominance(stochastic_artifacts):
    checks = []
    for name, (chain0, _, mus) in stochastic_artifacts.items():
        # every (state, class) cost is read off the class table, one column per
        # class; a whole-chain search must agree with it at a few fixed pairs
        table = chain0.class_table
        searched = True
        dominance = True
        vanishing_ok = True
        for t, cls in enumerate(table.classes):
            outside = np.flatnonzero(table.class_of != t)
            plain = table.plain[t, outside]
            for i in outside[[0, -1]].tolist():
                searched &= st.cost(chain0, [i], cls) == table.plain[t, i]
            dominance &= bool((plain >= table.modified_costs(t)[outside]).all())
            r = table.radii[t]
            if not isinstance(r, int):
                continue
            for i in outside[plain < r].tolist():
                series = [mus[eps][0][i] for eps in EPS_GRID]
                vanishing_ok &= series[0] > series[1] > series[2]
        checks.append((f"{name}: cost searches agree with the class table", searched))
        checks.append((f"{name}: c(x, omega) >= c*(x, omega) for every pair", dominance))
        checks.append((f"{name}: sub-radius states lose stationary mass as eps shrinks",
                       vanishing_ok))
    _criterion(10, checks)
