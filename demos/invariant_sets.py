"""Where can the dynamics get stuck? Minimal invariant sets and their anatomy.

The oracle finds every minimal positively invariant set as a sink component
of the one-step transition digraph. For each non-singleton set, the
fluctuation interval of the cooperator count forces benchmark types: agents
beyond them freeze, agents between them wander. The closed-form tests for
the X and S set families bound the search without any enumeration.
"""

from popdyn.fixtures import fixture_population
from popdyn.invariants import (
    all_benchmark_indices,
    benchmark_types_from_bounds,
    is_invariant_S,
    is_invariant_X,
    s_cooperator_range,
    verify_necessary_conditions,
)
from popdyn.oracle import build_transition_digraph, minimal_invariant_sets

pop = fixture_population("ex2")
graph = build_transition_digraph(pop, max_states=8_000_000)
print(f"ex2: {graph.n_states} refined states")

for res in minimal_invariant_sets(graph):
    kind = "equilibrium" if res.is_singleton else f"fluctuation set ({len(res.indices)} states)"
    print(f"\nminimal invariant set: {kind}, cooperator bounds {res.cooperator_bounds}")
    if res.is_singleton:
        print(f"  state: {next(iter(res.states)).to_tuple()}")
        continue
    s_min, l_max = res.cooperator_bounds
    xi = benchmark_types_from_bounds(pop, s_min, l_max)
    print(f"  benchmark types (j1, j2, j2', j1') = "
          f"({xi.j1}, {xi.j2}, {xi.j2p}, {xi.j1p})")
    report = verify_necessary_conditions(pop, res)
    print(f"  contained in X: {report['contained_in_X']}, in I: {report['contained_in_I']}")
    print(f"  wandering conformists defect at the minimum: "
          f"{report['wandering_conformists_defect_at_min']}, "
          f"cooperate at the maximum: {report['wandering_conformists_cooperate_at_max']}")

print("\nclosed-form invariance of the benchmark families:")
for idx in all_benchmark_indices(pop):
    lo, hi = s_cooperator_range(pop, idx)
    x_inv = is_invariant_X(pop, idx)
    if not x_inv and lo > hi:
        continue
    s_inv = is_invariant_S(pop, idx) if lo <= hi else None
    if x_inv or s_inv:
        print(f"  ({idx.j1}, {idx.j2}, {idx.j2p}, {idx.j1p}): "
              f"X invariant: {x_inv}, S invariant: {s_inv}, counts {lo}..{hi}")
