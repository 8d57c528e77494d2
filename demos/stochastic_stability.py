"""Which outcomes survive trembling hands?

With a small tremble rate, every state is visited; as the rate vanishes, the
stationary distribution concentrates on the recurrent classes cheapest to
assemble by mistakes (minimum-weight rooted spanning trees over the class
cost digraph). In ex7_1 a single extreme equilibrium wins; in ex7_4 the two
mixed equilibria beat the extreme one and the corresponding-extreme-state
hypothesis demonstrably fails.
"""

from fractions import Fraction

from popdyn.fixtures import fixture_population
from popdyn.stochastic import (
    BinaryTypePopulation,
    build_chain,
    check_extreme_theorem,
    stationary_distribution,
    stochastically_stable_set,
)

for name in ("ex7_1", "ex7_4"):
    bpop = BinaryTypePopulation.from_population_spec(fixture_population(name))
    chain = build_chain(bpop, 0)
    result = stochastically_stable_set(bpop, chain)
    cg = result.class_graph
    print(f"=== {name}: counts (ma, na, mc, nc) = {bpop.caps}, "
          f"tempers ({bpop.tau_a}, {bpop.tau_c})")
    for t in range(cg.k):
        states = [tuple(chain.states[i]) for i in cg.classes[t]]
        marker = "  <- stochastically stable" if t in result.stable_class_ids else ""
        print(f"  class {t}: {states} radius={result.radii[t]} "
              f"tree weight={result.gammas[t]}{marker}")

    for eps in (Fraction(1, 100), Fraction(1, 10000)):
        mu = stationary_distribution(build_chain(bpop, eps))
        mass = sum((mu[chain.index_of(s)] for s in result.stable_states), Fraction(0))
        print(f"  stationary mass on the stable set at eps={eps}: {float(mass):.6f}")

    verdict = check_extreme_theorem(bpop)
    print(f"  corresponding-extreme hypothesis holds: {verdict.hypothesis_holds} "
          f"-> {verdict.conclusion_status}\n")
