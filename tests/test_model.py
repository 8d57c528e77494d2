from fractions import Fraction

import pytest

from genpop import sample_populations, with_empty_best_responder_cell
from popdyn.errors import (
    DegeneratePayoff,
    DuplicateTemper,
    EmptyPopulation,
    ImitatorWithoutMatchingType,
    IntegerTemper,
)
from popdyn.cells import CellSpace
from popdyn.model import (
    AgentTypeSpec,
    PayoffMatrix,
    PopulationSpec,
    State,
    UtilityLine,
    parse_rational,
    state_space_size,
    temper_from_payoffs,
    utilities,
    validate_population,
)


def test_parse_rational_forms():
    assert parse_rational("26.8") == Fraction(134, 5)
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(7) == Fraction(7)
    assert parse_rational("1e-4") == Fraction(1, 10000)
    with pytest.raises(TypeError):
        parse_rational(None)


def test_temper_from_payoffs_integer_rejected():
    with pytest.raises(IntegerTemper):
        temper_from_payoffs(PayoffMatrix(2, 0, 1, 1), 10)  # 10/2 = 5


def test_temper_from_payoffs_value():
    assert temper_from_payoffs(PayoffMatrix(2, 0, 1, 1), 9) == Fraction(9, 2)


def test_temper_zero_numerator_rejected():
    # P == S makes the temper 0, an integer
    with pytest.raises(IntegerTemper):
        temper_from_payoffs(PayoffMatrix(2, 1, 0, 1), 7)


def test_degenerate_payoff_rejected():
    with pytest.raises(DegeneratePayoff):
        PayoffMatrix(1, 0, 2, 1)  # R+P == T+S


def test_temper_is_line_crossing():
    m = PayoffMatrix(3, 1, 2, 2)
    n = 11
    tau = temper_from_payoffs(m, n)
    coop = UtilityLine.cooperator(m, n)
    defect = UtilityLine.defector(m, n)
    assert coop(0) - defect(0) != 0
    assert coop.slope * tau + coop.intercept == defect.slope * tau + defect.intercept


def test_utilities_examples():
    t = AgentTypeSpec(
        "anticoordinating",
        UtilityLine(Fraction(-40, 13), Fraction(1655, 13)),
        UtilityLine(Fraction(36, 13), Fraction(-378, 13)),
        Fraction(107, 4),
        best_responders=9,
        imitators=4,
    )
    assert utilities(t, 22) == (Fraction(775, 13), Fraction(414, 13))

    conformist = AgentTypeSpec(
        "coordinating",
        UtilityLine(Fraction(33, 5), Fraction(-297, 10)),
        UtilityLine(Fraction(-14, 5), Fraction(63, 5)),
        Fraction(9, 2),
        best_responders=5,
        imitators=1,
    )
    assert utilities(conformist, 5) == (Fraction(33, 10), Fraction(-7, 5))


def test_utilities_intercept_case():
    m = PayoffMatrix(3, 1, 2, 2)
    n = 11
    t = AgentTypeSpec(
        "coordinating",
        UtilityLine.cooperator(m, n),
        UtilityLine.defector(m, n),
        temper_from_payoffs(m, n),
        best_responders=3,
    )
    assert utilities(t, 0)[1] == n * m.P


def test_validate_population_ex1():
    from popdyn.fixtures import fixture_config

    pop = validate_population(fixture_config("ex1"))
    assert pop.b == 2 and pop.bp == 3
    assert pop.m == 20 and pop.n == 75
    assert [t.temper for t in pop.anticoordinating] == [Fraction(107, 4), Fraction(41, 4)]
    assert [t.temper for t in pop.coordinating] == [
        Fraction(47, 2),
        Fraction(63, 2),
        Fraction(163, 4),
    ]


def _line_pair(tau: Fraction, kind: str):
    if kind == "anticoordinating":
        coop, defect = UtilityLine(-1, tau), UtilityLine(0, 0)
    else:
        coop, defect = UtilityLine(1, -tau), UtilityLine(0, 0)
    return coop, defect


def test_validate_population_sorts_descending_anticoordinating():
    raw = {
        "anticoordinating": [
            {"uC": _line_pair(Fraction(5, 2), "anticoordinating")[0],
             "uD": _line_pair(Fraction(5, 2), "anticoordinating")[1],
             "bestResponders": 2},
            {"uC": _line_pair(Fraction(11, 2), "anticoordinating")[0],
             "uD": _line_pair(Fraction(11, 2), "anticoordinating")[1],
             "bestResponders": 2},
        ]
    }
    pop = validate_population(raw)
    assert [t.temper for t in pop.anticoordinating] == [Fraction(11, 2), Fraction(5, 2)]


def test_validate_population_duplicate_temper():
    coop, defect = _line_pair(Fraction(5, 2), "coordinating")
    raw = {
        "coordinating": [
            {"uC": coop, "uD": defect, "bestResponders": 2},
            {"uC": UtilityLine(2, -5), "uD": UtilityLine(0, 0), "bestResponders": 2},
        ]
    }
    with pytest.raises(DuplicateTemper):
        validate_population(raw)


def test_validate_population_idempotent():
    from popdyn.fixtures import fixture_config

    pop = validate_population(fixture_config("ex2"))
    again = validate_population(pop)
    assert again == pop


def test_validate_population_empty():
    with pytest.raises(EmptyPopulation):
        validate_population({"anticoordinating": [], "coordinating": []})


def test_validate_population_imitators_need_best_responders():
    coop, defect = _line_pair(Fraction(5, 2), "coordinating")
    raw = {"coordinating": [{"uC": coop, "uD": defect, "bestResponders": 0, "imitators": 3}]}
    with pytest.raises(ImitatorWithoutMatchingType):
        validate_population(raw)


def test_validate_population_payoff_line_agreement():
    m = PayoffMatrix(3, 1, 2, 2)
    raw = {
        "coordinating": [
            {
                "payoff": m,
                "uC": UtilityLine(1, 1),  # deliberately inconsistent
                "uD": UtilityLine(0, 0),
                "bestResponders": 4,
            }
        ]
    }
    with pytest.raises(ValueError):
        validate_population(raw)


def test_type_spec_temper_must_be_the_line_crossing():
    # the update rules read the lines and the closed forms the temper
    coop, defect = UtilityLine(1, 0), UtilityLine(0, Fraction(5, 2))
    AgentTypeSpec("coordinating", coop, defect, Fraction(5, 2), best_responders=1)
    with pytest.raises(ValueError, match="crossing"):
        AgentTypeSpec("coordinating", coop, defect, Fraction(7, 2), best_responders=1)


def test_fixtures_and_generated_populations_validate_unchanged(pops):
    generated = [*sample_populations(seed=41, count=30), *sample_populations(seed=43, count=30)]
    for pop in [*pops.values(), *generated]:
        assert validate_population(pop) == pop
        # built directly, so it raises unless its lines cross at its temper
        with_empty_best_responder_cell(pop)


def test_validate_population_payoff_only():
    m = PayoffMatrix(3, 1, 2, 2)
    pop = validate_population({"coordinating": [{"payoff": m, "bestResponders": 5}]})
    t = pop.type_c(1)
    assert t.cooperator_utility == UtilityLine.cooperator(m, 5)
    assert t.temper == temper_from_payoffs(m, 5)


def test_state_space_size_pooled(pops):
    pop = pops["ex1"]
    assert state_space_size(pop) == 21 * 10 * 21 * 16 * 2 * 11


def test_state_space_size_empty_product():
    # formula edge: a lone zero-count type gives the empty product
    t = AgentTypeSpec(
        "coordinating", UtilityLine(1, 0), UtilityLine(0, Fraction(5, 2)),
        Fraction(5, 2), best_responders=0, imitators=0,
    )
    pop = PopulationSpec(anticoordinating=(), coordinating=(t,))
    assert state_space_size(pop) == 1


def test_refined_space_size_ex7_2(pops):
    assert CellSpace(pops["ex7_2"]).n_states == 72


def test_sentinels_bracket_everything(pops):
    for pop in pops.values():
        high, low = pop.sentinel_high, pop.sentinel_low
        assert high > pop.n and low < 0
        for t in pop.all_types():
            assert low < t.temper < high
        assert pop.tau_a(0) == high and pop.tau_a(pop.b + 1) == low
        assert pop.tau_c(0) == low and pop.tau_c(pop.bp + 1) == high


def test_utility_gap_monotone(pops):
    # uC - uD strictly decreasing for anticoordinating types, increasing for coordinating
    pop = pops["ex1"]
    for t in pop.anticoordinating:
        gaps = [utilities(t, k)[0] - utilities(t, k)[1] for k in range(pop.n + 1)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
    for t in pop.coordinating:
        gaps = [utilities(t, k)[0] - utilities(t, k)[1] for k in range(pop.n + 1)]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))


def test_state_tuple_roundtrip():
    s = State(3, (1, 2), (4, 5, 6))
    assert s.to_tuple() == (3, 1, 2, 6, 5, 4)
    assert State.from_tuple(s.to_tuple(), 2, 3) == s
    assert s.n_cooperators == 21
