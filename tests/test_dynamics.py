import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from genpop import (
    best_response_next,
    population,
    probe_population,
    reference_moves,
    reference_ranks,
    reference_next,
    reference_step,
    sample_populations,
    type_specs,
    with_empty_best_responder_cell,
)
import popdyn
from popdyn.cells import CellSpace
from popdyn import dynamics
from popdyn.dynamics import (
    AgentRef,
    Scripted,
    TrajectoryRecord,
    UniformRandom,
    Weighted,
    simulate,
)
from popdyn.errors import NoSuchAgent
from popdyn.model import State, UtilityLine, validate_population


def test_best_response_threshold_rule():
    tau = Fraction("26.8")
    assert best_response_next("anticoordinating", tau, "C", 26) == "C"
    assert best_response_next("anticoordinating", tau, "C", 27) == "D"
    assert best_response_next("coordinating", Fraction("23.5"), "D", 24) == "C"
    # sentinel above n: an anticoordinating agent always cooperates
    for current in ("C", "D"):
        for n_c in (0, 10, 75):
            assert best_response_next("anticoordinating", Fraction("75.5"), current, n_c) == "C"


def test_best_response_tie_keeps_current():
    assert best_response_next("coordinating", Fraction(4), "D", 4) == "D"
    assert best_response_next("anticoordinating", Fraction(4), "C", 4) == "C"


def test_best_response_monotone_in_cooperators(pops):
    # the rule's value flips at most once as n_c sweeps 0..n
    pop = pops["ex1"]
    for kind, idx, t in pop.typed():
        for current in ("C", "D"):
            values = [best_response_next(kind, t.temper, current, k) for k in range(pop.n + 1)]
            flips = sum(1 for a, b in zip(values, values[1:]) if a != b)
            assert flips <= 1


def test_best_responders_rank_comparison_is_the_threshold_rule(pops):
    # the kernel switches a best responder on its own type's utility ranks,
    # never its temper; validation makes the lines cross at the temper
    generated = [*sample_populations(seed=41, count=30), *sample_populations(seed=43, count=30)]
    checked = 0
    for pop in [*pops.values(), *generated, *map(with_empty_best_responder_cell, generated)]:
        space = CellSpace(pop)
        types = type_specs(pop)
        for t, (kind, idx) in enumerate(space.types):
            temper = types[kind, idx].temper
            for n_c in range(pop.n + 1):
                rank_c, rank_d = space.ranks(n_c)[:, t]
                wants_c, wants_d = rank_c > rank_d, rank_d > rank_c
                assert ("C" if wants_c else "D") == best_response_next(kind, temper, "D", n_c)
                assert ("D" if wants_d else "C") == best_response_next(kind, temper, "C", n_c)
                checked += 1
    assert checked > 4000


def test_the_kernel_reads_no_threshold_rule():
    for path in Path(popdyn.__file__).parent.glob("*.py"):
        assert "best_response_next" not in path.read_text(), path.name


def _tied_population():
    """A cooperator line of one type and the defector line of another tie at
    an integer count (1), and another pair at 0."""
    return validate_population({
        "anticoordinating": [{"uC": UtilityLine(-1, Fraction(7, 2)), "uD": UtilityLine(0, 0),
                              "bestResponders": 3, "imitators": 2}],
        "coordinating": [{"uC": UtilityLine(1, 0), "uD": UtilityLine(0, Fraction(5, 2)),
                          "bestResponders": 2, "imitators": 2}],
    })


def _large_denominator_population():
    """Utility lines whose denominators' lcm exceeds 2^64: two cooperator
    lines that differ by less than 2^-30 at every count, and one that exceeds
    a third type's defector line by 2^-61, which a float does not hold."""
    p1, p2, p3 = 2**61 - 1, 2**31 - 1, 2**32 - 5  # primes
    return validate_population({"anticoordinating": [], "coordinating": [
        {"uC": UtilityLine(1, Fraction(1, p1)), "uD": UtilityLine(0, Fraction(5, 2)),
         "bestResponders": 2, "imitators": 1},
        {"uC": UtilityLine(1, Fraction(1, p2)), "uD": UtilityLine(0, Fraction(7, 2) + Fraction(1, p3)),
         "bestResponders": 1, "imitators": 2},
        {"uC": UtilityLine(2, Fraction(-9, 2)), "uD": UtilityLine(1, 0), "bestResponders": 1},
    ]})


def _distinct_population():
    """64 types of one best responder whose 128 utility lines take distinct
    values at every count, so the ranks run up to 127."""
    return validate_population({"coordinating": [], "anticoordinating": [
        {"uC": UtilityLine(-1, Fraction(2 * i + 1, 2)), "uD": UtilityLine(0, Fraction(i, 1000)),
         "bestResponders": 1} for i in range(1, 65)]})


def _counts_to_rank(pop):
    """Every count 0..n; past 10,000 agents, the counts next to each crossing
    of two utility lines, and 0 and n. The lines' order, and so the ranks, is
    the same at every count between two consecutive crossings, and each run
    of such counts holds one next to a crossing, so these counts cover every
    ranking that occurs."""
    if pop.n <= 10_000:
        return range(pop.n + 1)
    lines = [line for t in pop.all_types() for line in (t.cooperator_utility, t.defector_utility)]
    counts = {0, pop.n}
    for a, b in itertools.combinations(lines, 2):
        if a.slope != b.slope:
            x = (b.intercept - a.intercept) / (a.slope - b.slope)
            counts.update(v for v in range(math.floor(x) - 1, math.ceil(x) + 2) if 0 <= v <= pop.n)
    return sorted(counts)


def test_ranks_match_the_fraction_reference(pops):
    # the integer lines over one denominator rank exactly as the Fractions do:
    # ties at an integer count, lines a tiny fraction apart, and a common
    # denominator past 2^64
    tied, large, distinct = _tied_population(), _large_denominator_population(), _distinct_population()
    lines = [line for t in large.all_types() for line in (t.cooperator_utility, t.defector_utility)]
    assert math.lcm(*(v.denominator for line in lines for v in (line.slope, line.intercept))) > 2**64
    ladder = [*map(probe_population, (17, 31, 32, 40)), *(population("ex1", f) for f in (10, 100, 1000))]
    generated = [*sample_populations(seed=23, count=150), *sample_populations(seed=29, count=150)]
    checked = 0
    for pop in [*pops.values(), *generated, *ladder, tied, large, distinct]:
        space = CellSpace(pop)
        for n_c in _counts_to_rank(pop):
            ranks = space.ranks(n_c)
            assert ranks.tolist() == reference_ranks(pop, n_c), n_c
            assert ranks.dtype == np.min_scalar_type(-2 * len(space.types))
            checked += 1
    assert checked > 10_000
    assert tied.space.ranks(1)[0, 0] == tied.space.ranks(1)[1, 1]  # the tie at 1
    assert distinct.space.ranks(0).max() == 127


@pytest.mark.parametrize("name, size, states", [("probe", 17, 40), ("probe", 32, 30), ("probe", 40, 30),
                                                ("probe", 64, 10), ("ex1", 10, 300), ("ex1", 100, 300),
                                                ("tied", 1, 300), ("large", 1, 300),
                                                ("distinct", 1, 100)])
def test_moves_match_the_reference_at_random_states(name, size, states):
    # each cell empty, full or at a uniform count, so that every pattern occurs
    pop = {"probe": lambda: probe_population(size), "ex1": lambda: population("ex1", size),
           "tied": _tied_population, "large": _large_denominator_population,
           "distinct": _distinct_population}[name]()
    space = pop.space
    # from 33 cells the bitmask takes Python ints, which the kernel must not
    # overflow; at 64 types the ranks reach 127, the most an int8 holds (the
    # probe's defector lines tie, so its ranks stay lower)
    assert (space.move_dtype == object) == (len(space.cells) >= 33)
    rng = np.random.default_rng(size)
    caps = np.array(space.caps)
    coords = np.select([rng.random((states, caps.size)) < p for p in (1 / 3, 2 / 3)],
                       [0, caps], rng.integers(0, caps + 1, size=(states, caps.size)))
    moves = space.moves(list(coords.T))
    assert moves.dtype == space.move_dtype
    for row, got in zip(coords.tolist(), moves.tolist()):
        assert got == reference_moves(space, row), row


def _imitators(pop, strategy):
    """An active imitator of each imitator cell, playing `strategy`."""
    return [AgentRef("imitator", cell.kind, cell.type_index, strategy)
            for cell in CellSpace(pop).cells if cell.role == "imitator"]


def test_imitation_all_defect_stays_defect(pops):
    pop = pops["ex2"]
    all_defect = State(0, (0, 0), (0, 0, 0))
    for agent in _imitators(pop, "D"):
        assert simulate(pop, all_defect, Scripted((agent,)), 1).final_state == all_defect


def test_imitation_at_ex2_equilibrium(pops):
    # type-1 nonconformists are the top earners and they cooperate, so every
    # (cooperating) imitator keeps cooperating
    pop = pops["ex2"]
    state = pop.state(14, 9, 0, 0, 0, 0)
    for agent in _imitators(pop, "C"):
        assert simulate(pop, state, Scripted((agent,)), 1).final_state == state


def test_imitation_tie_keeps_current(pops):
    # both strategies optimal at the all-cooperate equilibrium of ex7_4
    pop = pops["ex7_4"]
    z = pop.state(4, 0, 3)
    for agent in _imitators(pop, "C"):
        assert simulate(pop, z, Scripted((agent,)), 1).final_state == z


def test_step_fixed_at_equilibrium(pops):
    pop = pops["ex1"]
    eq = pop.state(0, 9, 0, 0, 0, 15)
    refs = []
    for kind, idx, t in pop.typed():
        refs.append(AgentRef("bestResponder", kind, idx, "C"))
        refs.append(AgentRef("bestResponder", kind, idx, "D"))
        if t.imitators:
            refs.append(AgentRef("imitator", kind, idx, "C"))
            refs.append(AgentRef("imitator", kind, idx, "D"))
    for ref in refs:
        space = CellSpace(pop)
        pos = space.position.get(ref.cell_key)
        if pos is None:
            continue
        coords = space.fill_refine(eq)
        members = coords[pos] if ref.strategy == "C" else space.caps[pos] - coords[pos]
        if members == 0:
            continue
        assert simulate(pop, eq, Scripted((ref,)), 1).final_state == eq


def test_step_all_defect_cooperates(pops):
    pop = pops["ex1"]
    all_defect = State(0, (0, 0), (0, 0, 0))
    ref = AgentRef("bestResponder", "anticoordinating", 1, "D")
    after = simulate(pop, all_defect, Scripted((ref,)), 1).final_state
    assert after == pop.state(0, 1, 0, 0, 0, 0)


def test_step_no_such_agent(pops):
    pop = pops["ex1"]
    all_defect = State(0, (0, 0), (0, 0, 0))
    ref = AgentRef("bestResponder", "anticoordinating", 1, "C")
    with pytest.raises(NoSuchAgent):
        simulate(pop, all_defect, Scripted((ref,)), 1)


def test_simulate_zero_steps(pops):
    pop = pops["ex2"]
    traj = simulate(pop, State(0, (0, 0), (0, 0, 0)), UniformRandom(seed=1), 0)
    assert len(traj) == 1
    assert traj.records[0].agent is None


def test_simulate_deterministic(pops):
    pop = pops["ex2"]
    initial = State(0, (0, 0), (0, 0, 0))
    a = simulate(pop, initial, UniformRandom(seed=42), 500)
    b = simulate(pop, initial, UniformRandom(seed=42), 500)
    assert a.records == b.records


def test_simulate_one_step_locality(pops):
    pop = pops["ex2"]
    traj = simulate(pop, State(0, (0, 0), (0, 0, 0)), UniformRandom(seed=5), 800)
    for prev, cur in zip(traj.refined, traj.refined[1:]):
        assert sum(abs(a - b) for a, b in zip(prev, cur)) <= 1


def test_simulate_ex2_absorption_seed(pops):
    pop = pops["ex2"]
    traj = simulate(pop, State(0, (0, 0), (0, 0, 0)), UniformRandom(seed=0), 4000)
    eq = pop.state(14, 9, 0, 0, 0, 0)
    assert traj.final_state == eq
    assert all(r.state == eq for r in traj.records[-200:])


def test_simulate_ex2_fluctuation_seed(pops):
    pop = pops["ex2"]
    traj = simulate(pop, State(0, (0, 0), (0, 0, 0)), UniformRandom(seed=3), 6000)
    assert {r.n_c for r in traj.records[-800:]} == {26, 27}


def test_simulate_ex3_long_run_within_oracle_bounds(pops):
    # ex3 has a single minimal invariant set with cooperator bounds (21, 35);
    # any long run from universal defection ends up confined to it
    pop = pops["ex3"]
    traj = simulate(pop, State(0, (0, 0), (0, 0, 0)), UniformRandom(seed=11), 8000)
    tail = [r.n_c for r in traj.records[-2000:]]
    assert min(tail) >= 21 and max(tail) <= 35

    script = Scripted(tuple(r.agent for r in traj.records[1:]))
    replay = simulate(pop, State(0, (0, 0), (0, 0, 0)), script, 8000)
    assert replay.records == traj.records


def test_scripted_replay_reproduces_uniform_run(pops):
    pop = pops["ex2"]
    initial = State(0, (0, 0), (0, 0, 0))
    traj = simulate(pop, initial, UniformRandom(seed=3), 300)
    script = Scripted(tuple(r.agent for r in traj.records[1:]))
    replay = simulate(pop, initial, script, 300)
    assert [r.state for r in replay.records] == [r.state for r in traj.records]


def test_scripted_cycles(pops):
    pop = pops["ex7_1"]
    script = Scripted((AgentRef("bestResponder", "anticoordinating", 1, "D"),))
    # first activation flips her to C; the next cycle finds no defector left
    with pytest.raises(NoSuchAgent, match="has no D-player at step 1"):
        simulate(pop, State(0, (0,), (0,)), script, 2)


def test_weighted_policy_requires_positive_weights(pops):
    pop = pops["ex7_1"]
    policy = Weighted({("bestResponder", "coordinating", 1): 0}, seed=1)
    with pytest.raises(ValueError):
        simulate(pop, State(0, (0,), (0,)), policy, 1)


def test_weighted_policy_rejects_unknown_cell(pops):
    # ex2 has no best-responder cell of coordinating type 99
    pop = pops["ex2"]
    policy = Weighted({("bestResponder", "coordinating", 99): 5}, seed=1)
    with pytest.raises(ValueError, match="'coordinating', 99"):
        simulate(pop, State(0, (0, 0), (0, 0, 0)), policy, 10)


def test_weighted_policy_runs_deterministically(pops):
    pop = pops["ex7_1"]
    w = {("bestResponder", "coordinating", 1): Fraction(3, 2)}
    a = simulate(pop, State(0, (0,), (0,)), Weighted(w, seed=9), 200)
    b = simulate(pop, State(0, (0,), (0,)), Weighted(w, seed=9), 200)
    assert a.records == b.records


def test_trajectory_csv_format(pops):
    pop = pops["ex2"]
    traj = simulate(pop, State(0, (0, 0), (0, 0, 0)), UniformRandom(seed=0), 3)
    out = io.StringIO()
    traj.to_csv(out)
    lines = out.getvalue().strip().split("\n")
    assert lines[0] == "t,active_role,active_kind,active_type,xI,xa_1,xa_2,xc_3,xc_2,xc_1,nC"
    assert lines[1].startswith("0,,,,")
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[4:] == ["0", "0", "0", "0", "0", "0", "0"]


# -- the per-step loop and row writer, as references ---------------------------


def _reference_sampler(space, policy):
    """One `rng.integers` draw and one scan over the cells per step; a script
    is replayed ref by ref, checking that the ref's cell has such a player."""
    if isinstance(policy, Scripted):
        turns = itertools.count()

        def replay(coords):
            i = next(turns)
            ref = policy.agents[i % len(policy.agents)]
            pos = space.position.get(ref.cell_key)
            if pos is None:
                raise NoSuchAgent(ref.cell_key)
            if (coords[pos] if ref.strategy == "C" else space.caps[pos] - coords[pos]) == 0:
                raise NoSuchAgent(f"{ref} at step {i}")
            return pos, ref.strategy, ref

        return replay
    weights = policy.weights if isinstance(policy, Weighted) else {}
    per_cell = [Fraction(weights.get(cell.key, 1)) for cell in space.cells]
    denom = math.lcm(*(w.denominator for w in per_cell))
    units = [int(w * denom) for w in per_cell]
    total = sum(u * cap for u, cap in zip(units, space.caps))
    rng = np.random.default_rng(policy.seed)

    def sample(coords):
        r = int(rng.integers(total))
        for pos, (u, cap) in enumerate(zip(units, space.caps)):
            if r < u * cap:
                strategy = "C" if r // u < coords[pos] else "D"
                cell = space.cells[pos]
                return pos, strategy, AgentRef(cell.role, cell.kind, cell.type_index, strategy)
            r -= u * cap
        raise AssertionError("unreachable")

    return sample


@dataclass(frozen=True)
class _ReferenceRun:
    pop: object
    records: tuple
    refined: tuple


def _reference_simulate(pop, initial, policy, steps):
    space = CellSpace(pop)
    coords = space.refine(initial)
    sampler = _reference_sampler(space, policy)
    records = [TrajectoryRecord(0, space.pooled(coords), sum(coords), None)]
    refined = [coords]
    for t in range(1, steps + 1):
        pos, strategy, ref = sampler(coords)
        coords = reference_step(space, coords, pos, strategy)
        records.append(TrajectoryRecord(t, space.pooled(coords), sum(coords), ref))
        refined.append(coords)
    return _ReferenceRun(pop, tuple(records), tuple(refined))


def _reference_csv(run):
    header = ["t", "active_role", "active_kind", "active_type", "xI"]
    header += [f"xa_{i}" for i in range(1, run.pop.b + 1)]
    header += [f"xc_{i}" for i in range(run.pop.bp, 0, -1)] + ["nC"]
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for rec in run.records:
        if rec.agent is None:
            active = ["", "", ""]
        else:
            active = [rec.agent.role, rec.agent.kind, str(rec.agent.type_index)]
        row = [str(rec.t), *active]
        row += [str(v) for v in rec.state.to_tuple()]
        row.append(str(rec.n_c))
        out.write(",".join(row) + "\n")
    return out.getvalue()


def _assert_same_run(pop, initial, policy, steps, ref=None):
    """simulate against the per-step reference; `ref` is a reference run of at
    least `steps` steps from the same start, cut to `steps`."""
    traj = simulate(pop, initial, policy, steps)
    if ref is None:
        ref = _reference_simulate(pop, initial, policy, steps)
    ref = _ReferenceRun(pop, ref.records[: steps + 1], ref.refined[: steps + 1])
    assert traj.records == ref.records
    assert traj.refined == ref.refined
    out = io.StringIO()
    traj.to_csv(out)
    assert out.getvalue() == _reference_csv(ref)
    return ref


def _still(space, coords):
    """Does no present agent switch at the state, by the reference rules?"""
    return all(reference_next(space, coords, k, s) == s
               for k, cap in enumerate(space.caps)
               for s, present in (("C", coords[k] > 0), ("D", coords[k] < cap)) if present)


def _run_kind(space, refined):
    still = {}
    for t, coords in enumerate(refined):
        if coords not in still:
            still[coords] = _still(space, coords)
        if still[coords]:
            return "starts still" if t == 0 else "settles mid-chunk" if t % dynamics._DRAW_CHUNK else "settles"
    return "never settles"


def test_simulate_matches_per_step_reference_randomized():
    # from a random start and from a still state, where no present agent
    # switches; each run is cut at the step counts around a chunk of draws
    chunk = dynamics._DRAW_CHUNK
    counts = (0, 1, chunk - 1, chunk, chunk + 1)
    pops = list(sample_populations(seed=71, count=12))
    pops.append(with_empty_best_responder_cell(pops[0]))
    fractions = [Fraction(3, 2), Fraction(2, 5), Fraction(7, 3), Fraction(1), Fraction(5, 4)]
    rng = np.random.default_rng(71)
    kinds = {UniformRandom: set(), Weighted: set()}
    for k, pop in enumerate(pops):
        space = CellSpace(pop)
        initial = tuple(int(rng.integers(cap + 1)) for cap in space.caps)
        still = [c for c in map(space.coords_of, range(space.n_states)) if _still(space, c)]
        weights = {cell.key: fractions[(k + j) % len(fractions)] for j, cell in enumerate(space.cells)}
        for start in [initial, *still[:1]]:
            for policy in (UniformRandom(seed=k), Weighted(weights, seed=k + 100)):
                ref = _reference_simulate(pop, start, policy, counts[-1])
                kinds[type(policy)].add(_run_kind(space, ref.refined))
                for steps in counts:
                    _assert_same_run(pop, start, policy, steps, ref)
        uniform = _reference_simulate(pop, initial, UniformRandom(seed=k), 300)
        script = Scripted(tuple(r.agent for r in uniform.records[1:300]))
        _assert_same_run(pop, initial, script, 299)
    for found in kinds.values():
        assert found == {"starts still", "settles mid-chunk", "never settles"}


def test_to_csv_matches_row_writer_across_digit_counts(pops):
    # t crosses 9,999 -> 10,000 and 99,999 -> 100,000 inside a chunk of rows;
    # seed 0 settles at an equilibrium, seed 3 keeps fluctuating
    assert 10_000 % dynamics._CSV_CHUNK != 1 and 100_000 % dynamics._CSV_CHUNK != 1
    for seed in (0, 3):
        traj = simulate(pops["ex2"], State(0, (0, 0), (0, 0, 0)), UniformRandom(seed=seed), 120_000)
        out = io.StringIO()
        traj.to_csv(out)
        assert out.getvalue() == _reference_csv(traj)


def test_fluctuating_run_calls_the_kernel_once_per_kernel_input(pops, monkeypatch):
    # the kernel reads a state only through n_c and each cell's
    # empty/interior/full pattern, so states that share these share one call
    pop = pops["ex2"]
    space = pop.space
    calls = []
    kernel = space.moves
    monkeypatch.setattr(space, "moves", lambda coords: calls.append(coords) or kernel(coords))
    traj = simulate(pop, State(0, (0, 0), (0, 0, 0)), UniformRandom(seed=3), 20_000)
    assert _run_kind(space, traj.refined) == "never settles"
    keys = {(sum(c), *(v > 0 for v in c), *(v < cap for v, cap in zip(c, space.caps)))
            for c in traj.visited}
    assert len(calls) <= len(keys) < len(traj.visited)


def test_weighted_policy_refuses_weights_beyond_one_draw(pops):
    # the agents' weights, over their common denominator, must sum below 2^63
    pop = pops["ex7_1"]
    key = ("bestResponder", "coordinating", 1)
    ok = simulate(pop, State(0, (0,), (0,)), Weighted({key: Fraction(1, 2**40)}, seed=1), 100)
    assert len(ok) == 101
    with pytest.raises(ValueError, match=r"weights \{\('bestResponder', 'coordinating', 1\).*limit of 2\^63 - 1"):
        simulate(pop, State(0, (0,), (0,)), Weighted({key: Fraction(1, 2**70)}, seed=1), 100)
