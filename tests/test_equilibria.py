from fractions import Fraction

import pytest

from popdyn.equilibria import (
    CandidateIndex,
    candidate_cooperators,
    classify_stability,
    enumerate_equilibria,
    equilibria_report,
    is_exclusive_cooperation_preserving,
    sup_C,
    sup_D,
)
from popdyn.errors import AssumptionViolated
from popdyn.model import State, UtilityLine, validate_population
from popdyn.stochastic import BState


def test_sup_empty_ranges(pops):
    pop = pops["ex1"]
    assert sup_C(pop, 0, 0, 10) == float("-inf")
    assert sup_D(pop, pop.b + 1, pop.bp + 1, 10) == float("-inf")


def test_sup_d_ex1_attained_by_third_conformist(pops):
    pop = pops["ex1"]
    n = candidate_cooperators(pop, 0, 1, 1)
    assert n == 24
    value = sup_D(pop, 2, 2, n)
    assert value == pop.type_c(3).defector_utility(24) == Fraction(2262, 43)


def test_sup_c_ex7_1(pops):
    pop = pops["ex7_1"]
    assert sup_C(pop, 1, 0, 1) == Fraction(41, 5)


def test_enumerate_ex1_exact_set(pops):
    pop = pops["ex1"]
    states = {r.state for r in enumerate_equilibria(pop)}
    assert states == {
        pop.state(0, 9, 0, 0, 0, 15),
        pop.state(20, 0, 0, 0, 1, 15),
        pop.state(20, 0, 0, 10, 1, 15),
        pop.state(15, 0, 0, 0, 0, 15),
    }


def test_enumerate_ex3_empty(pops):
    assert enumerate_equilibria(pops["ex3"]) == []


def test_enumerate_ex7_1_expands_to_eight_refined(pops):
    pop = pops["ex7_1"]
    from popdyn.stochastic import build_chain, equilibria_of_chain

    refined = set(equilibria_of_chain(build_chain(pop)))
    assert refined == {
        BState(0, 1, 0, 0), BState(1, 1, 1, 0), BState(2, 1, 0, 0), BState(2, 1, 1, 0),
        BState(0, 0, 0, 5), BState(1, 0, 1, 5), BState(2, 0, 0, 5), BState(2, 0, 1, 5),
    }
    pooled = {r.state for r in enumerate_equilibria(pop)}
    assert pooled == {State(s.x1I + s.x2I, (s.xa,), (s.xc,)) for s in refined}


def test_classify_ex2_unstable(pops):
    pop = pops["ex2"]
    (rec,) = enumerate_equilibria(pop)
    verdict = classify_stability(pop, rec)
    assert verdict.status == "unstable"
    # 23 is not one below the first conformist temper 23.5
    assert verdict.failed_clause == "temper_margin_c_upper"


def test_classify_special_case_all_defect_unstable():
    # all-defect equilibrium whose lowest conformist temper sits below 1
    pop = validate_population(
        {
            "coordinating": [
                {"uC": UtilityLine(1, Fraction(-1, 2)), "uD": UtilityLine(0, 0),
                 "bestResponders": 2, "imitators": 1},
                {"uC": UtilityLine(1, Fraction(-13, 2)), "uD": UtilityLine(0, 0),
                 "bestResponders": 2},
            ]
        }
    )
    recs = enumerate_equilibria(pop)
    all_defect = next(r for r in recs if r.n_c == 0)
    assert classify_stability(pop, all_defect).status == "unstable"


def test_classify_special_case_all_defect_stable():
    pop = validate_population(
        {
            "coordinating": [
                {"uC": UtilityLine(1, Fraction(-3, 2)), "uD": UtilityLine(0, 0),
                 "bestResponders": 2, "imitators": 1},
            ]
        }
    )
    recs = enumerate_equilibria(pop)
    all_defect = next(r for r in recs if r.n_c == 0)
    assert classify_stability(pop, all_defect).status == "stable"


def test_classify_all_cooperate_defers_with_both_readings():
    # anticoordinating temper above n, so universal cooperation is fixed
    pop = validate_population(
        {
            "anticoordinating": [
                {"uC": UtilityLine(-1, Fraction(13, 2)), "uD": UtilityLine(0, 0),
                 "bestResponders": 2, "imitators": 1},
            ],
            "coordinating": [
                {"uC": UtilityLine(1, 0), "uD": UtilityLine(0, Fraction(5, 2)),
                 "bestResponders": 2, "imitators": 1},
            ],
        }
    )
    recs = enumerate_equilibria(pop)
    top = next(r for r in recs if r.candidate == CandidateIndex(pop.m, pop.b, pop.bp))
    verdict = classify_stability(pop, top)
    assert verdict.status == "special_case"
    assert verdict.details["deferred_to"] == "oracle"
    assert "reading_n_gt_tau_c_bprime_plus_1" in verdict.details
    assert "reading_n_gt_tau_c_b_plus_1" in verdict.details

    from popdyn.oracle import build_transition_digraph, is_stable_oracle

    # both readings say yes here (n = 6 > tau_c + 1), and the oracle concurs
    assert verdict.details["reading_n_gt_tau_c_bprime_plus_1"] is True
    assert is_stable_oracle(build_transition_digraph(pop), top.state)


def test_classify_requires_lemma_assumptions(pops):
    # ex7_1's single nonconformist sits on the candidate boundary (j1 = 1),
    # violating the two-member assumption the escape constructions need
    pop = pops["ex7_1"]
    rec = next(r for r in enumerate_equilibria(pop) if r.state == pop.state(0, 1, 0))
    with pytest.raises(AssumptionViolated):
        classify_stability(pop, rec)


def test_classify_stable_instance():
    # well-separated defection equilibrium: three-point conditions comfortably hold
    pop = validate_population(
        {
            "anticoordinating": [
                {"uC": UtilityLine(-1, 1), "uD": UtilityLine(1, -10),
                 "bestResponders": 3, "imitators": 2},
            ],
            "coordinating": [
                {"uC": UtilityLine(1, 0), "uD": UtilityLine(0, Fraction(13, 2)),
                 "bestResponders": 3},
            ],
        }
    )
    recs = enumerate_equilibria(pop)
    rec = next(r for r in recs if r.candidate.r == 0 and r.candidate.j1 == 1)
    assert classify_stability(pop, rec).status == "stable"

    from popdyn.oracle import build_transition_digraph, is_stable_oracle

    assert is_stable_oracle(build_transition_digraph(pop), rec.state)


def test_cooperation_preserving_on_fixture_equilibria(pops):
    for name in ("ex1", "ex2", "ex7_1", "ex7_3"):
        pop = pops[name]
        for rec in enumerate_equilibria(pop):
            assert is_exclusive_cooperation_preserving(pop, rec.state)


def test_cooperation_preserving_ex3_all_cooperate_false(pops):
    pop = pops["ex3"]
    all_coop = pop.state(14, 9, 20, 10, 5, 10)
    assert not is_exclusive_cooperation_preserving(pop, all_coop)


def test_cooperation_preserving_ex1_mixed(pops):
    pop = pops["ex1"]
    assert is_exclusive_cooperation_preserving(pop, pop.state(15, 0, 0, 0, 0, 15))


def test_report_round_trips_to_json(pops):
    import json

    report = equilibria_report(pops["ex1"])
    payload = json.dumps(report, sort_keys=True)
    assert json.loads(payload)["count"] == 4
