"""Analytic-vs-oracle cross-checks shared by the CLI --verify flag and the tests.

Each verifier returns a list of problem strings; an empty list means every
cross-check agreed. Checks that would exceed the state guard are reported as
skips, not failures.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from . import equilibria as eq
from . import invariants as inv
from . import stochastic as st
from .errors import AssumptionViolated, SingularSystem, StateSpaceTooLarge
from .model import PopulationSpec, State, state_space_size
from .oracle import (
    TransitionDigraph,
    frontier_search,
    is_equilibrium_oracle,
    is_stable_oracle,
    minimal_invariant_sets,
)

DEFAULT_S_GUARD = 200_000
# exhaustive gamma enumerates (k-1)^(k-1) parent assignments: 823,543 at k = 8,
# 387,420,489 at k = 10
REFERENCE_TREE_LIMIT = 8


def iter_pooled_states(pop: PopulationSpec):
    ranges = [range(pop.m + 1)]
    ranges += [range(pop.n_a(i) + 1) for i in range(1, pop.b + 1)]
    ranges += [range(pop.n_c(i) + 1) for i in range(1, pop.bp + 1)]
    for values in product(*ranges):
        yield State(values[0], values[1 : 1 + pop.b], values[1 + pop.b :])


def _sample_pooled_states(pop: PopulationSpec, count: int, seed: int) -> list[State]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        xI = int(rng.integers(pop.m + 1))
        xa = tuple(int(rng.integers(pop.n_a(i) + 1)) for i in range(1, pop.b + 1))
        xc = tuple(int(rng.integers(pop.n_c(i) + 1)) for i in range(1, pop.bp + 1))
        out.append(State(xI, xa, xc))
    return out


def verify_equilibria(pop: PopulationSpec, graph: TransitionDigraph,
                      sample: int = 200, seed: int = 0) -> list[str]:
    """Analytic enumeration vs oracle sinks, stability lemmas vs reachability,
    and the cooperation-preserving-group equivalence."""
    problems: list[str] = []
    records = eq.enumerate_equilibria(pop)
    analytic = {r.state for r in records}
    sinks = minimal_invariant_sets(graph)
    oracle_eqs = {next(iter(s.states)) for s in sinks if s.is_singleton}
    if analytic != oracle_eqs:
        problems.append(
            f"equilibrium sets differ: analytic {sorted(s.to_tuple() for s in analytic)} "
            f"vs oracle {sorted(s.to_tuple() for s in oracle_eqs)}"
        )

    for rec in records:
        try:
            verdict = eq.classify_stability(pop, rec)
        except AssumptionViolated:
            continue
        if verdict.is_stable is None:
            continue
        oracle_stable = is_stable_oracle(graph, rec.state)
        if oracle_stable != verdict.is_stable:
            problems.append(
                f"stability disagrees at {rec.state.to_tuple()}: "
                f"analytic {verdict.status}, oracle {'stable' if oracle_stable else 'unstable'}"
            )

    if state_space_size(pop) <= 5000:
        candidates = list(iter_pooled_states(pop))
    else:
        candidates = list(analytic) + _sample_pooled_states(pop, sample, seed)
    for state in candidates:
        lhs = eq.is_exclusive_cooperation_preserving(pop, state)
        rhs = is_equilibrium_oracle(graph, state)
        if lhs != rhs:
            problems.append(
                f"cooperation-preserving mismatch at {state.to_tuple()}: "
                f"analytic {lhs}, oracle {rhs}"
            )
    return problems


def verify_invariants(pop: PopulationSpec, graph: TransitionDigraph,
                      s_guard: int = DEFAULT_S_GUARD) -> tuple[list[str], list[str]]:
    """Closed-form invariance verdicts vs exhaustive one-step closure, plus the
    necessary-condition checklist on every oracle minimal invariant set.

    Returns (problems, skipped)."""
    problems: list[str] = []
    skipped: list[str] = []

    sinks = minimal_invariant_sets(graph)
    for idx in inv.all_benchmark_indices(pop):
        x_mask = inv.x_membership_mask(graph, idx)
        analytic = inv.is_invariant_X(pop, idx)
        if x_mask.any():
            oracle = inv.is_closed_under_step(graph, x_mask)
            if analytic != oracle:
                problems.append(
                    f"X invariance disagrees at {idx}: analytic {analytic}, oracle {oracle}"
                )
        if analytic and not any(x_mask[res.indices].all() for res in sinks):
            problems.append(f"invariant X at {idx} holds no minimal invariant set")

        lo, hi = inv.s_cooperator_range(pop, idx)
        if lo > hi:
            continue
        try:
            analytic = inv.is_invariant_S(pop, idx, guard=s_guard)
        except StateSpaceTooLarge:
            skipped.append(f"S check at {idx} exceeds the enumeration guard {s_guard}")
            continue
        s_mask = inv.s_membership_mask(graph, idx, x_mask)
        if s_mask.any():
            oracle = inv.is_closed_under_step(graph, s_mask)
            if analytic != oracle:
                problems.append(
                    f"S invariance disagrees at {idx}: analytic {analytic}, oracle {oracle}"
                )

    for inv_set in sinks:
        if inv_set.is_singleton:
            continue
        report = inv.verify_necessary_conditions(pop, inv_set, graph)
        if not report["all_pass"]:
            problems.append(
                f"necessary conditions fail on the invariant set with bounds "
                f"{inv_set.cooperator_bounds}: {report}"
            )
    return problems, skipped


def verify_oracle(graph: TransitionDigraph) -> list[str]:
    """Structural sanity of the oracle digraph and its minimal invariant sets.

    Each set must be closed, strongly connected and disjoint from the others,
    and every state must reach one: a single search backwards from all their
    members covers every state.
    """
    problems: list[str] = []
    sinks = minimal_invariant_sets(graph)
    if not sinks:
        problems.append("no minimal invariant set found; finite dynamics must have one")

    indptr, indices = graph.matrix.indptr, graph.matrix.indices
    owner = np.full(graph.n_states, -1, dtype=np.int32)
    for t, res in enumerate(sinks):
        if (owner[res.indices] >= 0).any():
            problems.append("minimal invariant sets are not pairwise disjoint")
        owner[res.indices] = t
        reached = frontier_search(indptr, indices, res.indices[:1], bound=owner == t)
        if reached is None:
            problems.append(f"a transition leaves the minimal invariant set {res.cooperator_bounds}")
        elif not reached[res.indices].all():
            problems.append(f"minimal invariant set {res.cooperator_bounds} is not strongly reachable")

    reverse = graph.matrix.tocsc()
    reaches_sink = frontier_search(reverse.indptr, reverse.indices, np.flatnonzero(owner >= 0))
    if not reaches_sink.all():
        problems.append(f"state {int(np.argmin(reaches_sink))} cannot reach any minimal invariant set")
    return problems


def verify_stochastic(bpop: st.BinaryTypePopulation,
                      epsilons: Sequence = (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000)),
                      graph: TransitionDigraph | None = None,
                      stationary: dict[Fraction, list[Fraction]] | None = None) -> list[str]:
    """Full stochastic-stability cross-check battery on a binary-type population.

    `graph` is the oracle digraph of `bpop.to_population_spec()`, built when not
    given. `stationary` maps an epsilon to its already solved distribution;
    the others are solved here. Tree weights are compared with exhaustive
    enumeration when there are at most REFERENCE_TREE_LIMIT recurrent classes.
    """
    problems: list[str] = []
    chain0 = st.build_chain(bpop, 0, graph)
    result = st.stochastically_stable_set(bpop, chain0)
    cg = result.class_graph
    classes = cg.classes

    analytic = {r.state for r in eq.enumerate_equilibria(chain0.graph.pop)}
    singletons = {
        State(s.x1I + s.x2I, (s.xa,), (s.xc,))
        for s in (chain0.states[cls[0]] for cls in classes if len(cls) == 1)
    }
    if analytic != singletons:
        problems.append(
            f"singleton recurrent classes {sorted(s.to_tuple() for s in singletons)} differ "
            f"from the closed-form equilibria {sorted(s.to_tuple() for s in analytic)}"
        )

    chains = {eps: st.build_chain(bpop, eps, chain0.graph) for eps in epsilons}
    for eps, chain in chains.items():
        for i, row in enumerate(chain.rows):
            if sum(row.values()) != 1:
                problems.append(f"row {i} of the eps={eps} chain does not sum to 1")
                break
        for i in range(chain.n_states):
            if not chain0.support0[i] <= chain.support_eps[i]:
                problems.append("support of the unperturbed chain escapes the perturbed support")
                break
        # one-step mistake costs against the numeric transition rows
        for i in range(chain.n_states):
            positive0 = {j for j, p in chain0.rows[i].items() if p > 0}
            positive_eps = {j for j, p in chain.rows[i].items() if p > 0}
            for j in positive_eps | positive0:
                c_val = chain0.one_step_cost(i, j)
                want = 0 if j in positive0 else 1 if j in positive_eps else math.inf
                if c_val != want:
                    problems.append(f"one-step cost mismatch at ({i},{j}): {c_val} vs {want}")
                    break
        src = [i for i, succ in enumerate(chain.support_eps) for _ in succ]
        dst = [j for succ in chain.support_eps for j in succ]
        n = chain.n_states
        support = csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n))
        if connected_components(support, directed=True, connection="strong")[0] != 1:
            problems.append(f"perturbed chain at eps={eps} is not irreducible")
        if not any(i in chain.support_eps[i] for i in range(chain.n_states)):
            problems.append(f"perturbed chain at eps={eps} has no positive self-loop")

    if cg.k <= REFERENCE_TREE_LIMIT:
        for i in range(cg.k):
            if result.gammas[i] != _gamma_reference(cg, i):
                problems.append(f"gamma disagrees with exhaustive enumeration at class {i}")

    # cost vs modified cost dominance over every (state, class) pair
    for t, cls in enumerate(classes):
        cls_set = set(cls)
        for i in range(chain0.n_states):
            if i in cls_set:
                continue
            c_val = st.cost(chain0, [i], cls)
            c_star = st.modified_cost(chain0, i, cls)
            if not c_val >= c_star:
                problems.append(
                    f"modified cost exceeds plain cost from state {i} to class {t}: "
                    f"{c_star} > {c_val}"
                )

    solved = stationary or {}
    mus = {}
    for eps, chain in chains.items():
        mu = solved[eps] if eps in solved else st.stationary_distribution(chain)
        if st.stationary_residual(chain, mu) > Fraction(1, 10**12):
            problems.append(f"stationary residual too large at eps={eps}")
        mus[eps] = mu
    ordered = sorted(epsilons, key=Fraction, reverse=True)  # decreasing eps
    masses = []
    for eps in ordered:
        mass = sum((mus[eps][chain0.index[s]] for s in result.stable_states), Fraction(0))
        masses.append(mass)
    if not all(a < b for a, b in zip(masses, masses[1:])):
        problems.append(f"stable-set stationary mass not increasing as eps decreases: {masses}")

    # class-level argmax of the smallest-eps distribution vs gamma-minimal classes
    mu_small = mus[ordered[-1]]
    class_mass = [
        sum((mu_small[i] for i in cls), Fraction(0)) for cls in cg.classes
    ]
    top = max(class_mass)
    argmax_ids = {i for i, v in enumerate(class_mass) if v == top}
    # compare by dominant order of magnitude: gamma-minimal classes hold the mass
    if not argmax_ids <= set(result.stable_class_ids):
        problems.append(
            f"stationary mass concentrates on classes {sorted(argmax_ids)} "
            f"but gamma selects {sorted(result.stable_class_ids)}"
        )

    # persistence corroboration: strictly sub-radius states lose mass as eps shrinks
    for t, cls in enumerate(classes):
        r = result.radii[t]
        for i in range(chain0.n_states):
            if i in set(cls):
                continue
            if isinstance(r, int) and r > st.cost(chain0, [i], cls):
                series = [mus[eps][i] for eps in ordered]
                if not all(a > b for a, b in zip(series, series[1:])):
                    problems.append(
                        f"state {i} dominated by class {t} but its mass is not vanishing"
                    )
                    break

    verdict = st.check_extreme_theorem(bpop, chain0, result)
    if verdict.conclusion_status == "violated":
        problems.append("extreme-equilibrium conclusion violated despite its hypothesis")
    return problems


def _gamma_reference(class_graph: st.ClassGraph, root: int) -> int:
    """Exhaustive minimum over every parent choice; the cross-check for st.gamma.

    It enumerates (k-1)^(k-1) parent assignments at once, so it refuses more
    than REFERENCE_TREE_LIMIT classes instead of allocating.
    """
    k = class_graph.k
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
    weights = np.array(class_graph.costs, dtype=np.int64)
    total = np.zeros(m, dtype=np.int64)
    for v in non_root:
        total += weights[v, parent_full[:, v]]
    if not valid.any():
        raise SingularSystem("no rooted spanning arborescence exists")
    return int(total[valid].min())
