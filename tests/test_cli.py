import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from popdyn import cli

FIXDIR = Path(__file__).resolve().parents[1] / "src" / "popdyn" / "fixtures"


def run_cli(*argv):
    return cli.main(list(argv))


def test_equilibria_exit_zero(tmp_path):
    out = tmp_path / "eq.json"
    code = run_cli("equilibria", "--config", str(FIXDIR / "ex7_2.json"), "--json", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["count"] == 3


def test_missing_config_is_config_error(tmp_path):
    assert run_cli("equilibria", "--config", str(tmp_path / "nope.json")) == cli.EXIT_CONFIG


def test_malformed_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    for text in ("{not json", "[1, 2]", '{"anticoordinating": [1]}'):
        bad.write_text(text)
        assert run_cli("equilibria", "--config", str(bad)) == cli.EXIT_CONFIG


def test_stochastic_rejects_non_binary(tmp_path):
    assert (
        run_cli("stochastic", "--config", str(FIXDIR / "ex1.json"), "--json", str(tmp_path / "o.json"))
        == cli.EXIT_CONFIG
    )


def test_guard_exit_code(tmp_path):
    code = run_cli(
        "oracle", "--config", str(FIXDIR / "ex1.json"),
        "--max-states", "1000", "--json", str(tmp_path / "o.json"),
    )
    assert code == cli.EXIT_GUARD


def test_verification_failure_exit_code(tmp_path, monkeypatch):
    from popdyn import verify

    monkeypatch.setattr(verify, "verify_equilibria", lambda pop, graph, **kw: ["forced problem"])
    code = run_cli(
        "equilibria", "--config", str(FIXDIR / "ex7_2.json"),
        "--verify", "--json", str(tmp_path / "o.json"),
    )
    assert code == cli.EXIT_VERIFY
    report = json.loads((tmp_path / "o.json").read_text())
    assert report["verification"]["passed"] is False


def test_internal_fault_exit_code(tmp_path, monkeypatch, capsys):
    from popdyn import verify

    def broken(pop, graph, **kw):
        raise ValueError("forced fault")

    monkeypatch.setattr(verify, "verify_invariants", broken)
    code = run_cli(
        "invariants", "--config", str(FIXDIR / "ex7_2.json"),
        "--verify", "--json", str(tmp_path / "o.json"),
    )
    assert code == cli.EXIT_INTERNAL
    assert "internal error: ValueError('forced fault')" in capsys.readouterr().err


def test_bad_epsilon_is_config_error(tmp_path):
    for eps in ("0", "1", "abc"):
        assert run_cli(
            "stochastic", "--config", str(FIXDIR / "ex7_2.json"),
            "--epsilon", eps, "--json", str(tmp_path / "o.json"),
        ) == cli.EXIT_CONFIG


def test_simulate_csv_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code = run_cli(
            "simulate", "--config", str(FIXDIR / "ex2.json"),
            "--steps", "300", "--seed", "7", "--csv", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "t,active_role,active_kind,active_type,xI,xa_1,xa_2,xc_3,xc_2,xc_1,nC"
    assert len(out1.read_text().splitlines()) == 302


def test_simulate_zero_steps_single_row(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli(
        "simulate", "--config", str(FIXDIR / "ex2.json"),
        "--steps", "0", "--seed", "1", "--csv", str(out),
    ) == 0
    assert len(out.read_text().splitlines()) == 2  # header + initial row


def test_simulate_requires_seed(tmp_path):
    assert (
        run_cli("simulate", "--config", str(FIXDIR / "ex2.json"), "--steps", "5")
        == cli.EXIT_CONFIG
    )


def test_simulate_scripted(tmp_path):
    script = tmp_path / "seq.txt"
    script.write_text(
        "# activate one nonconformist, then a conformist\n"
        "bestResponder,anticoordinating,1,D\n"
        "bestResponder,coordinating,1,D\n"
    )
    out = tmp_path / "t.csv"
    code = run_cli(
        "simulate", "--config", str(FIXDIR / "ex7_1.json"),
        "--steps", "1", "--script", str(script), "--csv", str(out),
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[-1].split(",")[:4] == ["1", "bestResponder", "anticoordinating", "1"]


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli(
            "stochastic", "--config", str(FIXDIR / "ex7_4.json"),
            "--epsilon", "1e-2", "--json", str(out),
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_oracle_command_builds_no_decoded_views(tmp_path, monkeypatch):
    from popdyn.oracle import TransitionDigraph

    def refuse(self):
        raise AssertionError("decoded view built without --verify")

    for name in ("coords", "n_c", "moves"):
        monkeypatch.setattr(TransitionDigraph, name, property(refuse))
    code = run_cli("oracle", "--config", str(FIXDIR / "ex7_2.json"), "--json", str(tmp_path / "o.json"))
    assert code == 0
    code = run_cli("oracle", "--config", str(FIXDIR / "ex7_2.json"), "--verify",
                   "--json", str(tmp_path / "o.json"))
    assert code == 0


def test_oracle_adjacency_export(tmp_path):
    adj = tmp_path / "adj.txt"
    code = run_cli(
        "oracle", "--config", str(FIXDIR / "ex7_2.json"),
        "--adjacency", str(adj), "--json", str(tmp_path / "o.json"),
    )
    assert code == 0
    lines = adj.read_text().splitlines()
    assert len(lines) == 72
    assert all(":" in line for line in lines)
    report = json.loads((tmp_path / "o.json").read_text())
    assert report["states"] == 72
    assert len(report["minimal_invariant_sets"]) == 5


def test_stochastic_dot_export(tmp_path):
    dot = tmp_path / "g.dot"
    code = run_cli(
        "stochastic", "--config", str(FIXDIR / "ex7_1.json"),
        "--dot", str(dot), "--json", str(tmp_path / "o.json"),
    )
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_invariants_command(tmp_path):
    out = tmp_path / "inv.json"
    assert run_cli("invariants", "--config", str(FIXDIR / "ex7_3.json"), "--json", str(out)) == 0
    report = json.loads(out.read_text())
    assert "benchmark_sets" in report


def test_env_guard_override(tmp_path, monkeypatch):
    monkeypatch.setenv("POPDYN_MAX_STATES", "10")
    code = run_cli("oracle", "--config", str(FIXDIR / "ex7_1.json"), "--json", str(tmp_path / "o.json"))
    assert code == cli.EXIT_GUARD


def test_console_entry_point_subprocess(tmp_path):
    out = tmp_path / "o.json"
    # the child finds popdyn where this process did, installed or not
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "popdyn.cli", "equilibria",
         "--config", str(FIXDIR / "ex7_1.json"), "--json", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["count"] == 6


def test_stochastic_verify_ex7_1(tmp_path):
    out = tmp_path / "st.json"
    code = run_cli(
        "stochastic", "--config", str(FIXDIR / "ex7_1.json"),
        "--epsilon", "1e-4", "--verify", "--json", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verification"]["passed"] is True
    assert report["stochastically_stable_states"] == [[0, 1, 0, 0]]


def test_stochastic_float_fallback_scaled_ex7_1(tmp_path):
    # every count of ex7_1 tripled: 1,792 chain states, above EXACT_SOLVE_LIMIT
    from popdyn import stochastic
    from popdyn.fixtures import fixture_config
    from popdyn.model import validate_population

    raw = fixture_config("ex7_1")
    for group in raw["anticoordinating"] + raw["coordinating"]:
        group["bestResponders"] *= 3
        group["imitators"] *= 3
    config, out = tmp_path / "ex7_1x3.json", tmp_path / "st.json"
    config.write_text(json.dumps(raw))
    code = run_cli("stochastic", "--config", str(config), "--epsilon", "1/1000", "--json", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["states"] == 1792
    by_state = report["stationary"]["1/1000"]["by_state"]
    bpop = stochastic.BinaryTypePopulation.from_population_spec(validate_population(raw))
    chain = stochastic.build_chain(bpop, Fraction(1, 1000))
    mu = [Fraction(by_state[str(tuple(s))]) for s in chain.states]
    assert abs(sum(mu) - 1) <= Fraction(1, 10**12)
    assert stochastic.stationary_residual(chain, mu) <= Fraction(1, 10**12)


def test_stochastic_verify_solves_each_epsilon_once(tmp_path, monkeypatch):
    from popdyn import stochastic

    solved = []
    real = stochastic.stationary_distribution

    def counting(chain):
        solved.append(chain.epsilon)
        return real(chain)

    monkeypatch.setattr(stochastic, "stationary_distribution", counting)
    code = run_cli(
        "stochastic", "--config", str(FIXDIR / "ex7_4.json"),
        "--epsilon", "1/100", "--epsilon", "1/1000", "--verify",
        "--json", str(tmp_path / "st.json"),
    )
    assert code == 0
    assert sorted(solved) == [Fraction(1, 1000), Fraction(1, 100)]
