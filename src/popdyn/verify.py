"""Analytic-vs-oracle cross-checks shared by the CLI --verify flag and the tests.

Each verifier returns a list of problem strings; an empty list means every
cross-check agreed. Each battery imports the analysis modules it calls when
it runs, so `oracle --verify` loads no `equilibria`, `invariants`,
`stochastic` or `local`, and `stochastic --verify` no `invariants`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import AssumptionViolated
from .model import PopulationSpec, State
from .oracle import TransitionDigraph, frontier_search, minimal_invariant_sets

if TYPE_CHECKING:
    from . import stochastic as st
    from .equilibria import EquilibriumRecord

DEFAULT_EPSILONS = (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000))


def verify_equilibria(pop: PopulationSpec, graph: TransitionDigraph,
                      records: list[EquilibriumRecord]) -> list[str]:
    """Analytic enumeration vs the oracle's equilibria, stability lemmas vs
    reachability, and the cooperation-preserving-group equivalence on every
    pooled state. `records` is `equilibria.enumerate_equilibria(pop)`.

    The oracle's equilibria are the pooled states of the refined states with
    no move, its singleton sinks. The closed form of the equivalence asks
    n < tau and n > tau at once of a best-responder type split between C and
    D, so it is evaluated only on the pooled states where no type is split.
    The oracle's side is the equilibria all of whose refined splits have no
    move. Both oracle verdicts per state are `local`'s.
    """
    from . import equilibria as eq
    from .local import is_equilibrium_oracle, is_stable_oracle

    problems: list[str] = []
    analytic = {r.state for r in records}
    still = graph.pooled_states_of(np.flatnonzero(graph.moves == 0))
    if analytic != still:
        problems.append(
            f"equilibrium sets differ: analytic {sorted(s.to_tuple() for s in analytic)} "
            f"vs oracle {sorted(s.to_tuple() for s in still)}"
        )

    for rec in records:
        try:
            verdict = eq.classify_stability(pop, rec)
        except AssumptionViolated:
            continue
        if verdict.is_stable is None:
            continue
        oracle_stable = is_stable_oracle(pop, rec.state)
        if oracle_stable != verdict.is_stable:
            problems.append(
                f"stability disagrees at {rec.state.to_tuple()}: "
                f"analytic {verdict.status}, oracle {'stable' if oracle_stable else 'unstable'}"
            )

    unsplit = product(range(pop.m + 1), *((0, t.best_responders) for t in pop.all_types()))
    closed_form = set()
    for xI, *br in unsplit:
        state = State(xI, br[:pop.b], br[pop.b:])
        if eq.is_exclusive_cooperation_preserving(pop, state):
            closed_form.add(state)
    preserved = {state for state in still if is_equilibrium_oracle(pop, state)}
    for state in sorted(closed_form ^ preserved, key=State.to_tuple):
        problems.append(
            f"cooperation-preserving mismatch at {state.to_tuple()}: "
            f"analytic {state in closed_form}, oracle {state in preserved}"
        )
    return problems


def verify_invariants(pop: PopulationSpec, graph: TransitionDigraph, report: dict) -> list[str]:
    """Closed-form invariance verdicts vs exhaustive one-step closure, plus the
    necessary-condition checklist on every oracle minimal invariant set.
    `report` is `invariants.invariance_report(pop)`; its S verdicts are the
    ones checked, so none is decided twice.

    Closure of X and S reads the move bits at their members only
    (`invariants.is_closed_on_members`), and whether a sink lies in X reads
    its members' fixed digits, so no decoded view or whole-space mask is
    built."""
    from . import invariants as inv

    problems: list[str] = []

    sinks = minimal_invariant_sets(graph)
    s_invariant = inv.s_verdicts(report)
    for idx in inv.all_benchmark_indices(pop):
        analytic = inv.is_invariant_X(pop, idx)
        oracle = inv.is_closed_on_members(graph, idx)
        if analytic != oracle:
            problems.append(
                f"X invariance disagrees at {idx}: analytic {analytic}, oracle {oracle}"
            )
        if analytic and not any(inv.in_x(graph.space, idx, res.indices).all() for res in sinks):
            problems.append(f"invariant X at {idx} holds no minimal invariant set")

        if idx not in s_invariant:
            continue
        analytic = s_invariant[idx]
        oracle = inv.is_closed_on_members(graph, idx, inv.s_cooperator_range(pop, idx))
        if analytic != oracle:
            problems.append(
                f"S invariance disagrees at {idx}: analytic {analytic}, oracle {oracle}"
            )

    for inv_set in sinks:
        if inv_set.is_singleton:
            continue
        conditions = inv.verify_necessary_conditions(pop, inv_set)
        if not conditions["all_pass"]:
            problems.append(
                f"necessary conditions fail on the invariant set with bounds "
                f"{inv_set.cooperator_bounds}: {conditions}"
            )
    return problems


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

    # each state's sink number, -1 outside every sink, in the smallest signed
    # type that holds them (int8 on every bundled fixture): this array is live
    # at the command's peak RSS
    owner = np.full(graph.n_states, -1, dtype=np.min_scalar_type(-1 - len(sinks)))
    for t, res in enumerate(sinks):
        if (owner[res.indices] >= 0).any():
            problems.append("minimal invariant sets are not pairwise disjoint")
        owner[res.indices] = t
        reached = frontier_search(graph, res.indices[:1], bound=owner == t)
        if reached is None:
            problems.append(f"a transition leaves the minimal invariant set {res.cooperator_bounds}")
        elif not reached[res.indices].all():
            problems.append(f"minimal invariant set {res.cooperator_bounds} is not strongly reachable")

    # the label is not read again: releasing it lowers the backward search's peak
    members = np.flatnonzero(owner >= 0)
    del owner
    reaches_sink = frontier_search(graph, members, reverse=True)
    if not reaches_sink.all():
        problems.append(f"state {int(np.argmin(reaches_sink))} cannot reach any minimal invariant set")
    return problems


def is_irreducible(dst: np.ndarray) -> bool:
    """Whether a search forwards and a search backwards from state 0, over
    the edges i -> dst[i, c] where dst[i, c] >= 0, each reach every state."""
    tails, cols = np.nonzero(dst >= 0)
    heads = dst[tails, cols]
    for src, to in ((tails, heads), (heads, tails)):
        seen = np.zeros(len(dst), dtype=bool)
        frontier = seen.copy()
        seen[0] = frontier[0] = True
        while frontier.any():
            reached = to[frontier[src]]
            frontier[:] = False
            frontier[reached] = True
            frontier &= ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def verify_stochastic(chain: st.PerturbedChain, epsilons: Sequence = (),
                      stationary: dict[Fraction, list[Fraction]] | None = None) -> list[str]:
    """Full stochastic-stability cross-check battery on the perturbed chain of
    a binary-type population, at the tremble rates `epsilons`
    (DEFAULT_EPSILONS when empty). `stationary` maps an epsilon to its
    already solved distribution; the others are solved here.

    Each class's gamma, found by Chu-Liu/Edmonds over class-to-class costs,
    is checked against the stochastic potential of its states, found by a
    min-plus GTH reduction over state-level one-step costs: the potential
    must be constant on the class and equal its gamma, and its minimum must
    be taken exactly on the stochastically stable states. Ellison's
    radius-coradius theorem (Rev. Econ. Stud. 67, 2000) is checked against
    the stable classes gamma selects: a class whose radius exceeds its
    modified coradius, the largest modified cost into it from outside, must
    be the only stable class. Plain and modified costs from every state to
    every class come from the chain's class table, two
    whole-chain searches per class. The stationary residual must be 0 for
    an exact solve and at most 10^-12 for a float one.
    """
    from . import equilibria as eq
    from . import stochastic as st

    problems: list[str] = []
    epsilons = list(dict.fromkeys(st.tremble_rate(eps, solve=True)
                                  for eps in epsilons or DEFAULT_EPSILONS))
    table = chain.class_table
    classes = table.classes
    stable_states = st.stochastically_stable_set(chain)

    analytic = {r.state for r in eq.enumerate_equilibria(chain.pop)}
    singletons = chain.graph.pooled_states_of([cls[0] for cls in classes if len(cls) == 1])
    if analytic != singletons:
        problems.append(
            f"singleton recurrent classes {sorted(s.to_tuple() for s in singletons)} differ "
            f"from the closed-form equilibria {sorted(s.to_tuple() for s in analytic)}"
        )

    _, num0, mistakes = chain.transitions(0)
    positive0 = num0 > 0
    if not is_irreducible(chain.support[0]):  # the support at every epsilon > 0
        problems.append("the perturbed chain is not irreducible")
    for eps in epsilons:
        dst, num, _ = chain.transitions(eps)
        positive = num > 0
        bad = np.flatnonzero(num.sum(axis=1) != chain.denominator(eps))
        if bad.size:
            problems.append(f"row {bad[0]} of the eps={eps} chain does not sum to 1")
        if (positive0 & ~positive).any():
            problems.append("support of the unperturbed chain escapes the perturbed support")
        # one-step mistake costs against the numeric transition rows
        want = np.where(positive0, 0, 1)
        for i, c in np.argwhere((positive | positive0) & (mistakes != want))[:1]:
            problems.append(f"one-step cost mismatch at ({i},{dst[i, c]}): "
                            f"{mistakes[i, c]} vs {want[i, c]}")
        if not positive[:, 0].any():
            problems.append(f"perturbed chain at eps={eps} has no positive self-loop")

    potential = st.stochastic_potential(chain)
    for c, cls in enumerate(classes):
        values = set(potential[list(cls)].tolist())
        if values != {table.gammas[c]}:
            problems.append(f"stochastic potential {sorted(values)} of class {c} "
                            f"disagrees with its gamma {table.gammas[c]}")
    argmin = {chain.states[i] for i in np.flatnonzero(potential == potential.min())}
    if argmin != stable_states:
        problems.append(
            f"stochastic potential is minimal on {sorted(map(tuple, argmin))} but gamma "
            f"selects {sorted(map(tuple, stable_states))}"
        )

    for t, r in enumerate(table.radii):
        coradius = table.modified_costs(t)[table.class_of != t].max(initial=0)
        if r > coradius and table.stable_ids != (t,):
            problems.append(
                f"class {t} has radius {r} above its modified coradius "
                f"{st._number(coradius)}, but gamma selects classes {list(table.stable_ids)}"
            )

    solved = stationary or {}
    mus = {}
    tolerance = 0 if st.solves_exactly(chain) else Fraction(1, 10**12)
    for eps in epsilons:
        mu = solved[eps] if eps in solved else st.stationary_distribution(chain, eps)
        if st.stationary_residual(chain, eps, mu) > tolerance:
            problems.append(f"stationary residual above {tolerance} at eps={eps}")
        mus[eps] = mu
    ordered = sorted(epsilons, reverse=True)  # decreasing eps
    stable = [i for t in table.stable_ids for i in classes[t]]
    masses = [sum((mus[eps][i] for i in stable), Fraction(0)) for eps in ordered]
    if not all(a < b for a, b in zip(masses, masses[1:])):
        problems.append(f"stable-set stationary mass not increasing as eps decreases: {masses}")

    # class-level argmax of the smallest-eps distribution vs gamma-minimal classes
    mu_small = mus[ordered[-1]]
    class_mass = [sum((mu_small[i] for i in cls), Fraction(0)) for cls in classes]
    top = max(class_mass)
    argmax_ids = {i for i, v in enumerate(class_mass) if v == top}
    # compare by dominant order of magnitude: gamma-minimal classes hold the mass
    if not argmax_ids <= set(table.stable_ids):
        problems.append(
            f"stationary mass concentrates on classes {sorted(argmax_ids)} "
            f"but gamma selects {sorted(table.stable_ids)}"
        )

    # persistence corroboration: strictly sub-radius states lose mass as eps shrinks
    for t, r in enumerate(table.radii):
        if not isinstance(r, int):
            continue
        for i in np.flatnonzero((table.class_of != t) & (table.plain[t] < r)):
            series = [mus[eps][i] for eps in ordered]
            if not all(a > b for a, b in zip(series, series[1:])):
                problems.append(f"state {i} dominated by class {t} but its mass is not vanishing")
                break

    verdict = st.check_extreme_theorem(chain)
    if verdict.conclusion_status == "violated":
        problems.append("extreme-equilibrium conclusion violated despite its hypothesis")
    return problems
