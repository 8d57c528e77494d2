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
    build_chain,
    check_extreme_theorem,
    stationary_distribution,
    stochastically_stable_set,
)

for name in ("ex7_1", "ex7_4"):
    pop = fixture_population(name)
    chain = build_chain(pop)
    table = chain.class_table
    stable = stochastically_stable_set(chain)
    ta, tc = pop.type_a(1), pop.type_c(1)
    print(f"=== {name}: counts (ma, na, mc, nc) = "
          f"{(ta.imitators, ta.best_responders, tc.imitators, tc.best_responders)}, "
          f"tempers ({ta.temper}, {tc.temper})")
    for t, cls in enumerate(table.classes):
        states = [tuple(chain.states[i]) for i in cls]
        marker = "  <- stochastically stable" if t in table.stable_ids else ""
        print(f"  class {t}: {states} radius={table.radii[t]} "
              f"tree weight={table.gammas[t]}{marker}")

    for eps in (Fraction(1, 100), Fraction(1, 10000)):
        mu = stationary_distribution(chain, eps)
        mass = sum((mu[chain.index_of(s)] for s in stable), Fraction(0))
        print(f"  stationary mass on the stable set at eps={eps}: {float(mass):.6f}")

    verdict = check_extreme_theorem(chain)
    print(f"  corresponding-extreme hypothesis holds: {verdict.hypothesis_holds} "
          f"-> {verdict.conclusion_status}\n")
