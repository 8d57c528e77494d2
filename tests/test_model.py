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
    validate_population,
)


def test_parse_rational_forms():
    assert parse_rational("26.8") == Fraction(134, 5)
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(7) == Fraction(7)
    assert parse_rational("1e-4") == Fraction(1, 10000)
    with pytest.raises(TypeError):
        parse_rational(None)


def _closed_form_temper(m: PayoffMatrix, n: int) -> Fraction:
    """The temper of payoffs m among n agents, written out: n(P - S)/(R + P - S - T)."""
    return Fraction(n * (m.P - m.S), m.R + m.P - m.S - m.T)


def _payoff_temper(m: PayoffMatrix, n: int) -> Fraction:
    """The temper that validation derives for a type of n coordinating best
    responders given by its payoffs alone."""
    raw = {"coordinating": [{"payoff": m, "bestResponders": n}]}
    return validate_population(raw).type_c(1).temper


def test_temper_from_payoffs_integer_rejected():
    assert _closed_form_temper(PayoffMatrix(2, 0, 1, 1), 10) == 5
    with pytest.raises(IntegerTemper):
        _payoff_temper(PayoffMatrix(2, 0, 1, 1), 10)


def test_temper_from_payoffs_value():
    m = PayoffMatrix(2, 0, 1, 1)
    assert _payoff_temper(m, 9) == _closed_form_temper(m, 9) == Fraction(9, 2)


def test_temper_zero_numerator_rejected():
    # P == S makes the temper 0, an integer
    with pytest.raises(IntegerTemper):
        _payoff_temper(PayoffMatrix(2, 1, 0, 1), 7)


def test_degenerate_payoff_rejected():
    m = PayoffMatrix(1, 0, 2, 1)  # R+P == T+S: parallel utility lines
    with pytest.raises(DegeneratePayoff):
        _payoff_temper(m, 7)
    with pytest.raises(DegeneratePayoff):
        AgentTypeSpec("coordinating", UtilityLine.cooperator(m, 7), UtilityLine.defector(m, 7), 7)


def test_temper_is_line_crossing():
    m = PayoffMatrix(3, 1, 2, 2)
    n = 11
    tau = _payoff_temper(m, n)
    assert tau == _closed_form_temper(m, n)
    coop = UtilityLine.cooperator(m, n)
    defect = UtilityLine.defector(m, n)
    assert coop(0) - defect(0) != 0
    assert coop.slope * tau + coop.intercept == defect.slope * tau + defect.intercept


def test_utilities_examples():
    t = AgentTypeSpec(
        "anticoordinating",
        UtilityLine(Fraction(-40, 13), Fraction(1655, 13)),
        UtilityLine(Fraction(36, 13), Fraction(-378, 13)),
        best_responders=9,
        imitators=4,
    )
    assert t.temper == Fraction(107, 4)
    assert (t.cooperator_utility(22), t.defector_utility(22)) == (
        Fraction(775, 13), Fraction(414, 13))

    conformist = AgentTypeSpec(
        "coordinating",
        UtilityLine(Fraction(33, 5), Fraction(-297, 10)),
        UtilityLine(Fraction(-14, 5), Fraction(63, 5)),
        best_responders=5,
        imitators=1,
    )
    assert conformist.temper == Fraction(9, 2)
    assert (conformist.cooperator_utility(5), conformist.defector_utility(5)) == (
        Fraction(33, 10), Fraction(-7, 5))


def test_utilities_intercept_case():
    m = PayoffMatrix(3, 1, 2, 2)
    n = 11
    t = AgentTypeSpec(
        "coordinating",
        UtilityLine.cooperator(m, n),
        UtilityLine.defector(m, n),
        best_responders=3,
    )
    assert t.temper == _closed_form_temper(m, n)
    assert t.defector_utility(0) == n * m.P


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
    # the update rules read the lines and the closed forms the temper, so the
    # temper is derived from the lines and cannot be given
    coop, defect = UtilityLine(1, 0), UtilityLine(0, Fraction(5, 2))
    assert AgentTypeSpec("coordinating", coop, defect, best_responders=1).temper == Fraction(5, 2)
    with pytest.raises(TypeError):
        AgentTypeSpec("coordinating", coop, defect, temper=Fraction(7, 2), best_responders=1)


@pytest.mark.parametrize("kind, coop, defect, error", [
    ("coordinating", UtilityLine(1, 0), UtilityLine(1, 3), DegeneratePayoff),
    ("coordinating", UtilityLine(1, -3), UtilityLine(0, 0), IntegerTemper),
    ("coordinating", UtilityLine(-1, "5/2"), UtilityLine(0, 0), ValueError),
    ("anticoordinating", UtilityLine(1, "-5/2"), UtilityLine(0, 0), ValueError),
    # an integer crossing is refused before a wrong slope sign
    ("anticoordinating", UtilityLine(1, -3), UtilityLine(0, 0), IntegerTemper),
])
def test_invalid_lines_raise_alike_built_or_validated(kind, coop, defect, error):
    with pytest.raises(error) as built:
        AgentTypeSpec(kind, coop, defect, best_responders=2)
    with pytest.raises(error) as validated:
        validate_population({kind: [{"uC": coop, "uD": defect, "bestResponders": 2}]})
    assert type(built.value) is type(validated.value) is error


@pytest.mark.parametrize("count", [-1, 1.5, True, "2", None])
def test_member_counts_are_non_negative_integers(count):
    coop, defect = UtilityLine(1, 0), UtilityLine(0, Fraction(5, 2))
    with pytest.raises(ValueError, match="non-negative integers"):
        AgentTypeSpec("coordinating", coop, defect, best_responders=1, imitators=count)
    for key in ("bestResponders", "imitators"):
        entry = {"uC": coop, "uD": defect, "bestResponders": 1, key: count}
        with pytest.raises(ValueError, match="non-negative integers"):
            validate_population({"coordinating": [entry]})


def test_declared_temper_is_checked_against_the_crossing():
    entry = {"uC": ["1", "-5/2"], "uD": ["0", "0"], "bestResponders": 2}
    pop = validate_population({"coordinating": [{**entry, "temper": "5/2"}]})
    assert pop.type_c(1).temper == Fraction(5, 2)
    with pytest.raises(ValueError, match="declared temper 7/2"):
        validate_population({"coordinating": [{**entry, "temper": "7/2"}]})


def test_population_spec_sorts_its_types(pops):
    for pop in pops.values():
        shuffled = PopulationSpec(pop.anticoordinating[::-1], pop.coordinating[::-1])
        assert shuffled == pop
        assert validate_population(shuffled) is shuffled
    with pytest.raises(ValueError, match="listed as"):
        PopulationSpec(pops["ex7_1"].coordinating, ())


def _spec_and_entry(kind, tau, best, imitators=0):
    coop, defect = _line_pair(tau, kind)
    spec = AgentTypeSpec(kind, coop, defect, best_responders=best, imitators=imitators)
    return spec, {"uC": coop, "uD": defect, "bestResponders": best, "imitators": imitators}


@pytest.mark.parametrize("types, error", [
    ([], EmptyPopulation),
    ([("coordinating", Fraction(5, 2), 0)], EmptyPopulation),
    ([("coordinating", Fraction(5, 2), 0, 3)], ImitatorWithoutMatchingType),
    ([("coordinating", Fraction(5, 2), 2), ("anticoordinating", Fraction(7, 2), 0, 1)],
     ImitatorWithoutMatchingType),
    ([("anticoordinating", Fraction(5, 2), 2), ("anticoordinating", Fraction(5, 2), 1)],
     DuplicateTemper),
])
def test_invalid_population_raises_alike_built_or_validated(types, error):
    specs = {"anticoordinating": [], "coordinating": []}
    raw = {"anticoordinating": [], "coordinating": []}
    for kind, *rest in types:
        spec, entry = _spec_and_entry(kind, *rest)
        specs[kind].append(spec)
        raw[kind].append(entry)
    with pytest.raises(error) as built:
        PopulationSpec(tuple(specs["anticoordinating"]), tuple(specs["coordinating"]))
    with pytest.raises(error) as validated:
        validate_population(raw)
    assert type(built.value) is type(validated.value) is error


@pytest.mark.parametrize("key, value, error", [
    ("uC", "12", TypeError), ("uC", {"slope": "1", "intercept": "2"}, TypeError),
    ("uC", ("1", "2"), TypeError), ("uD", None, TypeError), ("uC", ["1", "2", "3"], ValueError),
    ("payoff", "3122", TypeError), ("payoff", ["3", "1", "2"], ValueError),
])
def test_lines_and_payoffs_are_arrays(key, value, error):
    # the README's two types
    kind, entry = (("coordinating", {"payoff": ["3", "1", "2", "2"], "bestResponders": 5})
                   if key == "payoff" else ("anticoordinating", {
                       "uC": ["-16/13", "623/13"], "uD": ["36/13", "-768/13"], "bestResponders": 9}))
    validate_population({kind: [entry]})
    with pytest.raises(error, match="is an array of"):
        validate_population({kind: [{**entry, key: value}]})


def test_population_json_keys_are_the_documented_ones():
    # each was read silently as a smaller population: a misspelled kind or
    # bestResponders key as no types there
    from popdyn.fixtures import fixture_config

    raw = fixture_config("ex1")
    first, second = raw["anticoordinating"]
    misspelled = {**second, "bestresponders": second.pop("bestResponders")}
    renamed = {k: v for k, v in raw.items() if k != "coordinating"}
    for config in ({**renamed, "cordinating": raw["coordinating"]},
                   {**raw, "anticoordinating": [first, misspelled]},
                   {**raw, "anticoordinating": [first, {**second, "bestResponders": 1, "count": 2}]}):
        with pytest.raises(ValueError, match="unknown keys"):
            validate_population(config)
    with pytest.raises(ValueError, match="needs bestResponders"):
        validate_population({**raw, "anticoordinating": [first, second]})


def test_fixtures_and_generated_populations_validate_unchanged(pops):
    generated = [*sample_populations(seed=41, count=30), *sample_populations(seed=43, count=30)]
    for pop in [*pops.values(), *generated]:
        assert validate_population(pop) == pop
        # built directly: the empty type's shifted lines cross one past the last temper
        grown = with_empty_best_responder_cell(pop)
        last, empty = list(grown.all_types())[-2:]
        assert empty.temper == last.temper + (1 if empty.kind == "coordinating" else -1)


def test_validate_population_payoff_only():
    m = PayoffMatrix(3, 1, 2, 2)
    pop = validate_population({"coordinating": [{"payoff": m, "bestResponders": 5}]})
    t = pop.type_c(1)
    assert t.cooperator_utility == UtilityLine.cooperator(m, 5)
    assert t.temper == _closed_form_temper(m, 5)


def test_state_space_size_pooled(pops):
    # one imitator group, so the refined space is the pooled one:
    # (m + 1) * prod(n_i^a + 1) * prod(n_i^c + 1)
    assert CellSpace(pops["ex1"]).n_states == 21 * 10 * 21 * 16 * 2 * 11


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
        gaps = [t.cooperator_utility(k) - t.defector_utility(k) for k in range(pop.n + 1)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
    for t in pop.coordinating:
        gaps = [t.cooperator_utility(k) - t.defector_utility(k) for k in range(pop.n + 1)]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))


def test_state_tuple_roundtrip():
    s = State(3, (1, 2), (4, 5, 6))
    assert s.to_tuple() == (3, 1, 2, 6, 5, 4)
    assert State.from_tuple(s.to_tuple(), 2, 3) == s
    assert s.n_cooperators == 21
