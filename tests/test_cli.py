import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from genpop import population, probe_population, scaled_config
from popdyn import cli, oracle
from popdyn.fixtures import fixture_config

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


def test_malformed_config_is_config_error(tmp_path, capsys):
    bad, out = tmp_path / "bad.json", str(tmp_path / "o.json")
    texts = ["{not json", "[1, 2]", '{"anticoordinating": [1]}']
    # a zero denominator anywhere a rational is read, and counts that are not
    # non-negative integers
    entry = fixture_config("ex7_1")["anticoordinating"][0]
    for change in ({"uC": ["1/0", "0"]}, {"uD": ["5", "1/0"]},
                   {"payoff": ["1/0", "0", "1", "1"]}, {"temper": "1/0"},
                   {"bestResponders": 1.5}, {"imitators": True}):
        config = fixture_config("ex7_1")
        config["anticoordinating"][0] = {**entry, **change}
        texts.append(json.dumps(config))
    # inputs once read as another population: a type without bestResponders
    # (or with the key misspelled) as no type, a misspelled kind as no types,
    # strings as the arrays of their characters, and {"slope", "intercept"}
    # lines; bestResponders is required, and lines and payoffs are arrays
    first, second = fixture_config("ex1")["anticoordinating"]
    without_best = {k: v for k, v in second.items() if k != "bestResponders"}
    for kind, i, replaced in (
            ("anticoordinating", 1, without_best),
            ("anticoordinating", 1, {**without_best, "bestresponders": 20}),
            ("anticoordinating", 1, {**second, "uC": {"slope": "-80/79", "intercept": "4375/79"}}),
            ("anticoordinating", 0, {**first, "uC": "12"}),
            ("coordinating", 1, {"payoff": "3122", "bestResponders": 1})):
        config = fixture_config("ex1")
        config[kind][i] = replaced
        texts.append(json.dumps(config))
    config = fixture_config("ex1")
    config["cordinating"] = config.pop("coordinating")
    texts.append(json.dumps(config))
    for text in texts:
        bad.write_text(text)
        assert run_cli("equilibria", "--config", str(bad), "--json", out) == cli.EXIT_CONFIG, text
        assert "Traceback" not in capsys.readouterr().err
    assert run_cli("stochastic", "--config", str(FIXDIR / "ex7_1.json"), "--epsilon", "1/0",
                   "--json", out) == cli.EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err
    # an epsilon with more digits than Python writes by default is named as written
    assert run_cli("stochastic", "--config", str(FIXDIR / "ex7_1.json"), "--epsilon", "1e5000",
                   "--json", out) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: epsilon must lie in (0, 1), got 1e5000\n")


def test_stochastic_rejects_non_binary(tmp_path, capsys):
    # ex1 has two nonconformist types; ex7_1 without coordinating imitators
    # passes validation, and is refused before its oracle is built
    no_imitators = fixture_config("ex7_1")
    no_imitators["coordinating"][0]["imitators"] = 0
    (tmp_path / "c.json").write_text(json.dumps(no_imitators))
    for config in (FIXDIR / "ex1.json", tmp_path / "c.json"):
        assert run_cli(
            "stochastic", "--config", str(config), "--json", str(tmp_path / "o.json")
        ) == cli.EXIT_CONFIG
    assert "needs imitators of both types" in capsys.readouterr().err


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
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "internal error: ValueError('forced fault')" in err


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


def test_simulate_csv_digests_pinned(tmp_path):
    # written by the per-step loop and row writer, before simulate was memoised
    pinned = [
        "07882fdc52fd4b2b564c787a1d0ad3484ea0541407050e20fc1d0a5e0f8bf5e4",
        "4e10c1ed3e8df45427b7df9f10381b448c8c60f96304938d014acfcbd0feae8b",
        "4addd5d22be303c29843c2c3300477b4bdd028fa1759b641d9d0f0d53817b6c0",
        "fcc9f165dbf5b07763452fdd323f31576527e9cd9ccc9ae46ca6f4d9cc909fbf",
        "ad8d3d24196cec157984ed146e1f71ddea22c6eeb62b859c17d8fcc376d8b9ff",
    ]
    out = tmp_path / "t.csv"
    for seed, digest in enumerate(pinned):
        assert run_cli(
            "simulate", "--config", str(FIXDIR / "ex2.json"),
            "--steps", "2000", "--seed", str(seed), "--csv", str(out),
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    # the benchmark's 200,000-step run at seed 0
    assert run_cli(
        "simulate", "--config", str(FIXDIR / "ex2.json"),
        "--steps", "200000", "--seed", "0", "--csv", str(out),
    ) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8e744ea3cec2208d97991acea1461009f043ecfc021fa3ab416417210124d902"
    )


def test_simulate_csv_matches_benchmark_pins(tmp_path):
    # the benchmark's 200,000-step ex2 runs, against the pins it gates on
    spec = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "spec.json").read_text())
    out = tmp_path / "t.csv"
    for seed in (0, 3):
        assert run_cli(
            "simulate", "--config", str(FIXDIR / "ex2.json"),
            "--steps", "200000", "--seed", str(seed), "--csv", str(out),
        ) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == spec["digests"][f"ex2.simulate@seed={seed}"]["csv"], seed


def test_adjacency_export_matches_benchmark_pin(graphs):
    # the benchmark's ex1 adjacency export, built in process, against its pin
    spec = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "spec.json").read_text())

    class Digest:
        def __init__(self):
            self.sha = hashlib.sha256()

        def write(self, text):
            self.sha.update(text.encode("ascii"))

    out = Digest()
    oracle.export_adjacency(graphs("ex1"), out)
    assert out.sha.hexdigest() == spec["digests"]["ex1.oracle-adjacency"]["adjacency"]


def test_simulate_command_builds_no_trajectory_records(tmp_path, monkeypatch):
    from popdyn import dynamics

    def refuse(*args):
        raise AssertionError("per-step record built by the simulate command")

    monkeypatch.setattr(dynamics, "TrajectoryRecord", refuse)
    out = tmp_path / "t.csv"
    assert run_cli(
        "simulate", "--config", str(FIXDIR / "ex2.json"),
        "--steps", "5000", "--seed", "3", "--csv", str(out),
    ) == 0
    assert len(out.read_text().splitlines()) == 5002
    script = tmp_path / "seq.txt"
    script.write_text("bestResponder,anticoordinating,1,D\n")
    assert run_cli(
        "simulate", "--config", str(FIXDIR / "ex7_1.json"),
        "--steps", "1", "--script", str(script), "--csv", str(out),
    ) == 0


def test_big_intercept_config_simulates_and_verifies_oracle(tmp_path):
    # utilities with 22-digit denominators: both the simulation and the oracle
    # compare them exactly, through the rule table's ranks, so nothing overflows
    from popdyn.fixtures import fixture_config

    raw = fixture_config("ex1")
    raw["anticoordinating"][0]["uD"][1] = "-768/1300000000000000000007"
    config, out = tmp_path / "ex1_big_intercept.json", tmp_path / "t.csv"
    config.write_text(json.dumps(raw))
    assert run_cli(
        "simulate", "--config", str(config), "--steps", "5", "--seed", "0", "--csv", str(out),
    ) == 0
    assert len(out.read_text().splitlines()) == 7
    report = tmp_path / "eq.json"
    assert run_cli(
        "equilibria", "--config", str(config), "--oracle", "--verify",
        "--max-states", "2000000", "--json", str(report),
    ) == 0
    assert json.loads(report.read_text())["verification"]["passed"] is True


def test_simulate_zero_steps_single_row(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli(
        "simulate", "--config", str(FIXDIR / "ex2.json"),
        "--steps", "0", "--seed", "1", "--csv", str(out),
    ) == 0
    assert len(out.read_text().splitlines()) == 2  # header + initial row


def test_simulate_requires_seed(tmp_path, capsys):
    # refused like any other bad option, and before the config is read
    for config in (FIXDIR / "ex2.json", tmp_path / "missing.json"):
        assert run_cli("simulate", "--config", str(config), "--steps", "5") == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "--seed" in err, err


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


# SHA-256 of each binary fixture's `stochastic --epsilon 1/10000 --verify`
# report, the same pins as the benchmark's
STOCHASTIC_VERIFY_DIGESTS = {
    "ex7_1": "2f04e0f9f6935511ee6de90ced1a627db1c677ccc686437fcfff62afda6bbb09",
    "ex7_2": "47e835db31733b35b22b0033d3e83902ac8419504dc2e8bdba9d947e1683b7de",
    "ex7_3": "2cff3cb250df18ffbd6cdb3588b70e390ad3add1d015f6a76a850273f0c3ff2c",
    "ex7_4": "d44ee2e2302673389180dbe223c1aba031c70e0ec84dbcf9abdaa34a95d2c499",
}


# SHA-256 of ex1's `--verify --max-states 20000000` reports, the benchmark's pins
EX1_VERIFY_DIGESTS = {
    "equilibria": "b689089665188179ae3ee85279da90d5187e7e2cb390a701b4ceb0ad79043c23",
    "invariants": "ea208cdb6a72e1219a1cb80b4d290ee81380a8f336579b8d21069304d2c94992",
    "oracle": "5e4ef0e2a4c9561216fb9889189cffc1ead24b6ec4b2beccc8e1a04f6b873aed",
}


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli(
            "stochastic", "--config", str(FIXDIR / "ex7_4.json"),
            "--epsilon", "1e-2", "--json", str(out),
        ) == 0
    assert a.read_bytes() == b.read_bytes()
    for name, digest in STOCHASTIC_VERIFY_DIGESTS.items():
        out = tmp_path / f"{name}.json"
        assert run_cli(
            "stochastic", "--config", str(FIXDIR / f"{name}.json"),
            "--epsilon", "1/10000", "--verify", "--json", str(out),
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name
    for command, digest in EX1_VERIFY_DIGESTS.items():
        out = tmp_path / f"ex1-{command}.json"
        assert run_cli(
            command, "--config", str(FIXDIR / "ex1.json"), "--verify",
            "--max-states", "20000000", "--json", str(out),
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, command


def test_oracle_command_builds_no_decoded_views(tmp_path, monkeypatch):
    from popdyn.cells import CellSpace

    real = CellSpace.digits

    def digits(self, indices):
        if len(indices) == self.n_states:
            raise AssertionError("every state decoded")
        return real(self, indices)

    # the build sets `moves` itself; only the stochastic chain decodes every state
    monkeypatch.setattr(CellSpace, "digits", digits)
    code = run_cli("oracle", "--config", str(FIXDIR / "ex7_2.json"), "--json", str(tmp_path / "o.json"))
    assert code == 0
    code = run_cli("oracle", "--config", str(FIXDIR / "ex7_2.json"), "--verify",
                   "--json", str(tmp_path / "o.json"))
    assert code == 0
    # the stability search decodes only the states it visits
    code = run_cli("equilibria", "--config", str(FIXDIR / "ex7_2.json"), "--oracle",
                   "--json", str(tmp_path / "e.json"))
    assert code == 0
    verdicts = [e["oracle_stable"] for e in json.loads((tmp_path / "e.json").read_text())["equilibria"]]
    assert verdicts == [True, False, False]
    # the X and S checks read the moves at their members only
    code = run_cli("invariants", "--config", str(FIXDIR / "ex7_2.json"), "--verify",
                   "--json", str(tmp_path / "i.json"))
    assert code == 0


def test_equilibria_oracle_builds_no_oracle(tmp_path, monkeypatch):
    # the stability searches read the kernel at the states they visit; the
    # report is the benchmark's pin, which the dense oracle's searches wrote
    from popdyn import oracle

    def build(*args, **kwargs):
        raise AssertionError("dense oracle built")

    monkeypatch.setattr(oracle, "build_transition_digraph", build)
    out = tmp_path / "e.json"
    assert run_cli("equilibria", "--oracle", "--config", str(FIXDIR / "ex2.json"),
                   "--max-states", "20000000", "--json", str(out)) == cli.EXIT_OK
    spec = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "spec.json").read_text())
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        spec["digests"]["ex2.equilibria-oracle"]["json"])


@pytest.mark.parametrize("command, config, flags, option, work", [
    ("simulate", "ex2", ["--steps", "200000", "--seed", "0"], "--csv", "dynamics.simulate"),
    ("equilibria", "ex7_2", [], "--json", "equilibria.enumerate_equilibria"),
    ("oracle", "ex1", ["--max-states", "20000000"], "--adjacency", "oracle.build_transition_digraph"),
    ("stochastic", "ex7_2", [], "--dot", "stochastic.build_chain"),
])
def test_unwritable_output_path_fails_before_any_work(
    tmp_path, monkeypatch, capsys, command, config, flags, option, work,
):
    import importlib

    module, name = work.split(".")

    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output path was checked")

    monkeypatch.setattr(importlib.import_module(f"popdyn.{module}"), name, refuse)
    missing = tmp_path / "missing" / "out.txt"
    for path in (missing, tmp_path):  # a missing directory; a directory as the file
        code = run_cli(command, "--config", str(FIXDIR / f"{config}.json"), *flags, option, str(path))
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and option in err, err
    assert not missing.parent.exists()


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
    # the per-row writer's output, before the export was built from `moves`
    assert hashlib.sha256(adj.read_bytes()).hexdigest() == (
        "d1b0e87d2a945d9e6a2bc9931a3c04f1fcde1c61369bdab7076f19eb994842e3"
    )


def test_dash_writes_every_output_to_stdout(tmp_path, monkeypatch, capsys):
    # "-" is stdout for --adjacency and --dot as for --json and --csv, and no
    # file named "-" appears
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "o.json"
    code = run_cli("oracle", "--config", str(FIXDIR / "ex7_2.json"), "--adjacency", "-",
                   "--json", str(report))
    assert code == 0 and json.loads(report.read_text())["states"] == 72
    # the pinned export of `test_oracle_adjacency_export`
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "d1b0e87d2a945d9e6a2bc9931a3c04f1fcde1c61369bdab7076f19eb994842e3"
    )
    code = run_cli("stochastic", "--config", str(FIXDIR / "ex7_1.json"), "--dot", "-",
                   "--json", str(report))
    assert code == 0 and capsys.readouterr().out.startswith("digraph")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.json"]


def test_stochastic_dot_export(tmp_path):
    dot = tmp_path / "g.dot"
    code = run_cli(
        "stochastic", "--config", str(FIXDIR / "ex7_1.json"),
        "--dot", str(dot), "--json", str(tmp_path / "o.json"),
    )
    assert code == 0
    assert dot.read_text().startswith("digraph")
    pinned = {
        "ex7_2": "1b628f810bfebbcf1d04143c9509f40637fd59893910eb68fe3243e6946481a6",
        "ex7_3": "0cc9f5379375baaffeb2c9b7d3c8419a57a36ee954d3e538060ec8bde8df6d1c",
        "ex7_4": "f615b0f8cb0c821cd63c22881586e8384b6986b492bec5a41650b9843a2759a2",
    }
    for name, digest in pinned.items():
        assert run_cli(
            "stochastic", "--config", str(FIXDIR / f"{name}.json"),
            "--dot", str(dot), "--json", str(tmp_path / "o.json"),
        ) == 0
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == digest, name


def test_stochastic_dot_export_uses_the_guarded_oracle(tmp_path, monkeypatch):
    # the DOT export comes from the oracle built under --max-states: a guard
    # below ex7_1's 72 states writes none, and the environment sets no guard
    monkeypatch.setenv("POPDYN_MAX_STATES", "10")
    dot = tmp_path / "c.dot"
    argv = ["stochastic", "--config", str(FIXDIR / "ex7_1.json"),
            "--dot", str(dot), "--json", str(tmp_path / "o.json")]
    assert run_cli(*argv, "--max-states", "10") == cli.EXIT_GUARD
    assert not dot.exists()
    for guard in ([], ["--max-states", "1000"]):
        assert run_cli(*argv, *guard) == 0
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == (
            "5a198c6cae6e4ff175c73587445d0b7096eb639251cd16c60d877ad3c9f2ef21"
        )


def test_invariants_command(tmp_path):
    out = tmp_path / "inv.json"
    assert run_cli("invariants", "--config", str(FIXDIR / "ex7_3.json"), "--json", str(out)) == 0
    report = json.loads(out.read_text())
    assert "benchmark_sets" in report


def test_state_guard_is_read_only_where_an_oracle_is_built(tmp_path, monkeypatch, capsys):
    # --max-states is the guard, else 10^6; POPDYN_MAX_STATES is not read.
    # A command that builds an oracle refuses a guard that is not positive
    # (exit 2) and a space above it (exit 3)
    ex7_1 = str(FIXDIR / "ex7_1.json")
    out = str(tmp_path / "o.json")
    for command in [("oracle",), ("equilibria", "--oracle"), ("invariants", "--verify"),
                    ("stochastic",)]:
        argv = [*command, "--config", ex7_1, "--json", out]
        for flag, code in (("0", cli.EXIT_CONFIG), ("-5", cli.EXIT_CONFIG),
                           ("10", cli.EXIT_GUARD)):
            assert run_cli(*argv, "--max-states", flag) == code, (command, flag)
            err = capsys.readouterr().err
            refused = "must be a positive integer" in err
            assert refused == (code == cli.EXIT_CONFIG), (command, flag)
        monkeypatch.setenv("POPDYN_MAX_STATES", "abc")
        assert run_cli(*argv) == cli.EXIT_OK, command
        monkeypatch.delenv("POPDYN_MAX_STATES")
    # plain equilibria and invariants build no oracle: they read no guard,
    # whatever its value, and write the same report
    for command in ("equilibria", "invariants"):
        for name in ("ex1", "ex7_1"):
            argv = [command, "--config", str(FIXDIR / f"{name}.json"), "--json", out]
            assert run_cli(*argv) == cli.EXIT_OK
            report = Path(out).read_bytes()
            assert run_cli(*argv, "--max-states", "0") == cli.EXIT_OK, (command, name)
            assert Path(out).read_bytes() == report
            monkeypatch.setenv("POPDYN_MAX_STATES", "abc")
            assert run_cli(*argv) == cli.EXIT_OK, (command, name)
            assert Path(out).read_bytes() == report
            monkeypatch.delenv("POPDYN_MAX_STATES")


def test_guard_refuses_before_the_report(tmp_path, monkeypatch, capsys):
    # ex1 with every count x1000 has a 79-bit state count: a command that
    # builds an oracle refuses it on the guard before it builds the plain
    # report, which takes seconds at that size
    from popdyn import equilibria, invariants

    def report(*args, **kwargs):
        raise AssertionError("report built before the guard")

    monkeypatch.setattr(equilibria, "enumerate_equilibria", report)
    monkeypatch.setattr(invariants, "invariance_report", report)
    config = tmp_path / "ex1x1000.json"
    config.write_text(json.dumps(scaled_config("ex1", 1000)))
    for command in (("equilibria", "--oracle"), ("equilibria", "--verify"),
                    ("invariants", "--verify")):
        argv = [*command, "--config", str(config), "--json", str(tmp_path / "r.json")]
        assert run_cli(*argv) == cli.EXIT_GUARD, command
        assert "state-space guard exceeded" in capsys.readouterr().err
        assert run_cli(*argv, "--max-states", "0") == cli.EXIT_CONFIG, command
        assert "must be a positive integer" in capsys.readouterr().err


def _child_env() -> dict:
    """The environment of a child that finds popdyn where this process did,
    installed or not."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}


def test_console_entry_point_subprocess(tmp_path):
    out = tmp_path / "o.json"
    proc = subprocess.run(
        [sys.executable, "-m", "popdyn.cli", "equilibria",
         "--config", str(FIXDIR / "ex7_1.json"), "--json", str(out)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["count"] == 6


def test_run_entry_freezes_the_collector_before_exit(tmp_path):
    # `python -m popdyn.cli` runs the module as __main__ through runpy, as
    # here; the hook runs after run() returned control to the interpreter.
    # The collector stays on for the command, so the garbage of its imports
    # is freed before the command's peak RSS
    seen, out = tmp_path / "seen.json", tmp_path / "o.json"
    script = (
        "import atexit, gc, json, runpy, sys\n"
        "seen = sys.argv[1]\n"
        "def hook():\n"
        "    with open(seen, 'w') as fh:\n"
        "        json.dump([gc.isenabled(), gc.get_freeze_count()], fh)\n"
        "atexit.register(hook)\n"
        "sys.argv = ['popdyn', *sys.argv[2:]]\n"
        "runpy.run_module('popdyn.cli', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(seen), "equilibria",
         "--config", str(FIXDIR / "ex7_1.json"), "--json", str(out)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(out.read_text())["count"] == 6
    enabled, frozen = json.loads(seen.read_text())
    assert enabled and frozen > 0


def test_main_leaves_the_collector_alone(tmp_path):
    assert gc.isenabled() and gc.get_freeze_count() == 0
    for argv in (["equilibria", "--config", str(FIXDIR / "ex7_1.json")],
                 ["equilibria", "--config", str(tmp_path / "nope.json")]):
        run_cli(*argv, "--json", str(tmp_path / "o.json"))
        assert gc.isenabled() and gc.get_freeze_count() == 0


def test_exit_freeze_skips_no_open_file(tmp_path):
    # after run() freezes, the interpreter never collects what a command left
    # in cycles. Each benchmark command, and a failing one, leaves a few
    # hundred such objects, and no file among them waits for a collection to
    # be flushed and closed: every output is closed by its `with` block
    scaled = fixture_config("ex7_1")
    for group in scaled["anticoordinating"] + scaled["coordinating"]:
        group["bestResponders"] *= 3
        group["imitators"] *= 3
    (tmp_path / "ex7_1x3.json").write_text(json.dumps(scaled))
    fx = {name: str(FIXDIR / f"{name}.json") for name in ("ex1", "ex2", "ex3")}
    fx.update({f"ex7_{i}": str(FIXDIR / f"ex7_{i}.json") for i in range(1, 5)})
    fx["ex7_1x3"] = str(tmp_path / "ex7_1x3.json")
    big, out = ["--max-states", "20000000"], str(tmp_path / "out")
    runs = [["oracle", "--config", fx["ex3"], *big, "--json", out],
            ["equilibria", "--oracle", "--config", fx["ex2"], *big, "--json", out],
            ["equilibria", "--verify", "--config", fx["ex1"], *big, "--json", out],
            ["invariants", "--verify", "--config", fx["ex1"], *big, "--json", out],
            ["oracle", "--verify", "--config", fx["ex1"], *big, "--json", out],
            *(["stochastic", "--epsilon", "1/10000", "--verify", "--config", fx[f"ex7_{i}"],
               "--json", out] for i in range(1, 5)),
            ["stochastic", "--config", fx["ex7_1x3"], "--json", out],
            ["stochastic", "--epsilon", "1/1000", "--config", fx["ex7_1x3"], "--json", out],
            ["simulate", "--steps", "200000", "--seed", "0", "--config", fx["ex2"],
             "--csv", out],
            ["oracle", "--config", fx["ex1"], *big, "--adjacency", out, "--json", out],
            ["equilibria", "--config", str(tmp_path / "nope.json")]]
    script = (
        "import gc, io, json, sys\n"
        "from popdyn import cli\n"
        "left = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    cli.main(argv)\n"
        "    gc.set_debug(gc.DEBUG_SAVEALL)\n"
        "    gc.collect()\n"
        "    gc.set_debug(0)\n"
        "    files = [repr(o) for o in gc.garbage if isinstance(o, io.IOBase)]\n"
        "    left.append([len(gc.garbage), files])\n"
        "    gc.garbage.clear()\n"
        "    gc.collect()\n"
        "print(json.dumps(left))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          capture_output=True, text=True, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    left = json.loads(proc.stdout)
    assert len(left) == len(runs)
    assert max(count for count, _ in left) < 2000, left
    assert [files for _, files in left] == [[]] * len(runs)


def test_module_entry_matches_main(tmp_path, monkeypatch, capsys):
    # exit 0, 2, 3 and 4, each with its report on stdout or its message on
    # stderr. The exit-4 child patches a battery and then runs the module as
    # `python -m` does, through runpy
    from popdyn import verify

    cases = [
        (cli.EXIT_OK, ["equilibria", "--config", str(FIXDIR / "ex7_1.json")]),
        (cli.EXIT_CONFIG, ["equilibria", "--config", str(tmp_path / "nope.json")]),
        (cli.EXIT_GUARD, ["oracle", "--config", str(FIXDIR / "ex1.json"), "--max-states", "1000"]),
        (cli.EXIT_VERIFY, ["equilibria", "--verify", "--config", str(FIXDIR / "ex7_2.json")]),
    ]
    forced = (
        "import runpy, sys\n"
        "from popdyn import verify\n"
        "verify.verify_equilibria = lambda pop, graph, **kw: ['forced problem']\n"
        "sys.argv = ['popdyn', *sys.argv[1:]]\n"
        "runpy.run_module('popdyn.cli', run_name='__main__')\n"
    )
    monkeypatch.setattr(verify, "verify_equilibria", lambda pop, graph, **kw: ["forced problem"])
    for code, argv in cases:
        entry = ["-c", forced] if code == cli.EXIT_VERIFY else ["-m", "popdyn.cli"]
        proc = subprocess.run([sys.executable, *entry, *argv],
                              capture_output=True, text=True, env=_child_env())
        capsys.readouterr()
        assert run_cli(*argv) == code
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_process_by_sigpipe():
    # about 600 KB of CSV, more than a pipe holds, so the child is still
    # writing when its reader leaves after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "popdyn.cli", "simulate", "--config", str(FIXDIR / "ex2.json"),
         "--steps", "20000", "--seed", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    )
    assert proc.stdout.readline().startswith(b"t,active_role,")
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == -signal.SIGPIPE
    assert "configuration error" not in stderr


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma in numpy 2.4; a fresh process shows whether
    # any command still reaches it
    ex1, ex2, ex7_1 = (str(FIXDIR / f"{name}.json") for name in ("ex1", "ex2", "ex7_1"))
    big = ["--max-states", "20000000"]
    runs = [["oracle", "--config", ex1, *big], ["oracle", "--verify", "--config", ex1, *big],
            ["equilibria", "--oracle", "--config", ex1, *big],
            ["invariants", "--verify", "--config", ex1, *big],
            ["stochastic", "--verify", "--epsilon", "1/10000", "--config", ex7_1],
            ["simulate", "--steps", "2000", "--seed", "0", "--config", ex2]]
    script = (
        "import contextlib, io, json, sys\n"
        "from popdyn import cli\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if m == 'numpy.ma' or m.startswith('numpy.ma.'))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          capture_output=True, text=True, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0] * len(runs)
    assert loaded == []


def test_commands_load_only_their_modules(tmp_path):
    # every process imports, and where no bytecode cache is written compiles,
    # each module it loads, so a command loads only the modules it runs
    script = (
        "import contextlib, io, json, sys\n"
        "from popdyn import cli\n"
        "code = None\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code] + [sorted(m for m in sys.modules if m.split('.')[0] == p)\n"
        "                           for p in ('popdyn', 'numpy')]))\n"
    )

    def child(*argv):
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True, env=_child_env(), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    base = {"popdyn", "popdyn.cli", "popdyn.errors", "popdyn.model"}
    assert child() == [None, sorted(base), []]
    graph = base | {"popdyn.cells", "popdyn.oracle"}
    expected = {
        ("simulate", "--steps", "10", "--seed", "0"): base | {"popdyn.cells", "popdyn.dynamics"},
        # the closed forms alone read no refined space, so no numpy
        ("equilibria",): base | {"popdyn.equilibria"},
        ("equilibria", "--oracle"): graph | {"popdyn.equilibria", "popdyn.local"},
        ("equilibria", "--verify"): graph | {"popdyn.equilibria", "popdyn.verify", "popdyn.local"},
        ("invariants",): base | {"popdyn.cells", "popdyn.invariants"},
        ("invariants", "--verify"): graph | {"popdyn.invariants", "popdyn.verify"},
        ("oracle",): graph,
        ("oracle", "--verify"): graph | {"popdyn.verify"},
        ("oracle", "--adjacency", str(tmp_path / "adj.txt")): graph | {"popdyn.adjacency"},
        ("stochastic",): graph | {"popdyn.stochastic"},
        ("stochastic", "--verify"):
            graph | {"popdyn.stochastic", "popdyn.verify", "popdyn.equilibria"},
    }
    for form, modules in expected.items():
        code, loaded, numpy = child(*form, "--config", str(FIXDIR / "ex7_1.json"))
        assert (code, loaded) == (0, sorted(modules)), form
        assert bool(numpy) == ("popdyn.cells" in modules), form
        # the export's formatter is compiled only where the export is written,
        # and the kernel-backed stability search only where equilibria reads it
        assert ("popdyn.adjacency" in loaded) == ("--adjacency" in form), form
        assert ("popdyn.local" in loaded) == (form[:2] in {("equilibria", "--oracle"),
                                                          ("equilibria", "--verify")}), form


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

    pop = population("ex7_1", 3)
    config, out = tmp_path / "ex7_1x3.json", tmp_path / "st.json"
    config.write_text(json.dumps(scaled_config("ex7_1", 3)))
    # the plain report is the benchmark's pin; the float masses change with
    # the elimination order, so their pin fixes that order's sequence of states
    assert run_cli("stochastic", "--config", str(config), "--json", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c116f526342fbe8cdeba86e73d54e3848f48a172cabaf6f6f8ddc6fd80ec80ed"
    )
    code = run_cli("stochastic", "--config", str(config), "--epsilon", "1/1000", "--json", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1b4068d19d064e4beeba95543de300647eea129d012529335ec0ea447a4ee0e3"
    )
    report = json.loads(out.read_text())
    assert report["states"] == 1792
    by_state = report["stationary"]["1/1000"]["by_state"]
    chain = stochastic.build_chain(pop)
    mu = [Fraction(by_state[str(tuple(s))]) for s in chain.states]
    assert abs(sum(mu) - 1) <= Fraction(1, 10**12)
    assert all(m > 0 for m in mu)  # the chain is irreducible
    assert stochastic.stationary_residual(chain, Fraction(1, 1000), mu) <= Fraction(1, 10**12)


@pytest.mark.parametrize("epsilon", ["1e-20", "1e-80"])
def test_stochastic_float_fallback_at_small_epsilon(tmp_path, epsilon):
    # the float weights grow like a power of 1/epsilon and once overflowed
    # float64 (exit 5); rescaled by powers of two, they solve and verify
    config, out = tmp_path / "ex7_1x3.json", tmp_path / "st.json"
    config.write_text(json.dumps(scaled_config("ex7_1", 3)))
    code = run_cli("stochastic", "--config", str(config), "--epsilon", epsilon, "--verify",
                   "--json", str(out))
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert report["verification"]["passed"] is True
    (solved,) = report["stationary"].values()
    assert all(Fraction(mass) >= 0 for mass in solved["by_state"].values())
    assert Fraction(solved["stable_set_mass"]) > Fraction(99, 100)


def test_stochastic_verify_solves_each_epsilon_once(tmp_path, monkeypatch):
    from popdyn import stochastic

    solved = []
    real = stochastic.stationary_distribution

    def counting(chain, epsilon):
        solved.append(epsilon)
        return real(chain, epsilon)

    monkeypatch.setattr(stochastic, "stationary_distribution", counting)
    code = run_cli(
        "stochastic", "--config", str(FIXDIR / "ex7_4.json"),
        "--epsilon", "1/100", "--epsilon", "1/1000", "--verify",
        "--json", str(tmp_path / "st.json"),
    )
    assert code == 0
    assert sorted(solved) == [Fraction(1, 1000), Fraction(1, 100)]


def test_stochastic_verify_takes_a_repeated_epsilon_once(tmp_path):
    # 0.01 and 1/100 are one tremble rate, solved and checked once
    code = run_cli(
        "stochastic", "--config", str(FIXDIR / "ex7_1.json"),
        "--epsilon", "1/100", "--epsilon", "0.01", "--epsilon", "1/1000", "--verify",
        "--json", str(tmp_path / "st.json"),
    )
    assert code == 0
    report = json.loads((tmp_path / "st.json").read_text())
    assert list(report["stationary"]) == ["1/100", "1/1000"]


def test_invariants_verify_decides_each_s_verdict_once(tmp_path, monkeypatch):
    # the verification reuses the report's S verdicts instead of deciding them again
    from popdyn import invariants

    decided = []
    real = invariants.s_invariance_details

    def recording(pop, idx):
        decided.append(idx)
        return real(pop, idx)

    monkeypatch.setattr(invariants, "s_invariance_details", recording)
    code = run_cli(
        "invariants", "--config", str(FIXDIR / "ex7_4.json"), "--verify",
        "--json", str(tmp_path / "inv.json"),
    )
    assert code == 0
    assert decided and len(decided) == len(set(decided))


def test_invariants_report_takes_no_state_guard(tmp_path):
    # without --verify nothing as large as the state space is built, so the
    # guard does not apply: the report is the one made without a guard given
    for name in ("ex1", "ex2", "ex3"):
        argv = ["invariants", "--config", str(FIXDIR / f"{name}.json"), "--json"]
        assert run_cli(*argv, str(tmp_path / "default.json")) == cli.EXIT_OK
        assert run_cli(*argv, str(tmp_path / "guarded.json"), "--max-states", "1") \
            == cli.EXIT_OK, name
        assert (tmp_path / "guarded.json").read_text() == (tmp_path / "default.json").read_text()


# the time budget of each analysis on a rung of the ladder below, in process,
# as CI's command-line run of the ladder allows each command 10 s; the
# slowest, plain equilibria on ex1 x1000, takes about 1.2 s on 2 vCPUs
LADDER_BUDGET_S = 10


@pytest.mark.parametrize("name, size", [("probe", 17), ("probe", 31), ("probe", 32), ("probe", 40),
                                        ("ex1", 10), ("ex1", 100), ("ex1", 1000)])
def test_every_analysis_runs_or_refuses_at_any_size(name, size):
    # the probe has 2k cells of capacity 1, so from k = 32 its refined states
    # reach 2^64; ex1 with every count x1000 has a 79-bit state count. Plain
    # invariants, plain equilibria and a 1,000-step simulate run within the
    # budget, and the oracle build refuses on the guard
    from popdyn.dynamics import UniformRandom, simulate
    from popdyn.equilibria import equilibria_report
    from popdyn.errors import StateSpaceTooLarge
    from popdyn.invariants import invariance_report

    pop = probe_population(size) if name == "probe" else population(name, size)
    assert pop.space.n_states > oracle.DEFAULT_MAX_STATES
    start = pop.state(*(0 for _ in range(1 + pop.b + pop.bp)))
    analyses = {"invariants": lambda: invariance_report(pop),
                "equilibria": lambda: equilibria_report(pop),
                "simulate": lambda: simulate(pop, start, UniformRandom(seed=0), 1000)}
    for label, analysis in analyses.items():
        began = time.perf_counter()
        result = analysis()
        assert time.perf_counter() - began < LADDER_BUDGET_S, label
    assert len(result) == 1001
    with pytest.raises(StateSpaceTooLarge):
        oracle.build_transition_digraph(pop)


def test_each_population_ranks_each_count_once(monkeypatch):
    # a population has one refined space (`pop.space`), which ranks the
    # utilities at a cooperator count when first asked: the S verdicts of
    # the plain invariants report share it, and a run ranks only the counts
    # of the states it visits, not all n + 1
    from popdyn import cells
    from popdyn.dynamics import UniformRandom, simulate
    from popdyn.invariants import invariance_report

    spaces, ranked = [], []
    init, ranks = cells.CellSpace.__init__, cells.CellSpace.ranks

    def counting_init(self, pop):
        spaces.append(pop)
        init(self, pop)

    def counting_ranks(self, n_c):
        # a count not yet in its space's cache is ranked now, by population and count
        if n_c not in self._ranks:
            ranked.append((id(self.pop), n_c))
        return ranks(self, n_c)

    monkeypatch.setattr(cells.CellSpace, "__init__", counting_init)
    monkeypatch.setattr(cells.CellSpace, "ranks", counting_ranks)

    invariance_report(probe_population(17))
    assert len(spaces) == 1
    assert ranked and len(ranked) == len(set(ranked))

    spaces.clear()
    ranked.clear()
    pop = population("ex1", 1000)
    run = simulate(pop, pop.state(*(0 for _ in range(1 + pop.b + pop.bp))), UniformRandom(seed=0),
                   1000)
    assert len(spaces) == 1
    assert ranked and len(ranked) == len(set(ranked))
    assert len({n_c for _, n_c in ranked}) <= len(run.visited)


def test_stochastic_reports_masses_of_any_size(tmp_path):
    # at epsilon 1e-80 the exact masses have more digits than Python writes
    # or reads by default; the report writes them whole, and they sum to 1
    out = tmp_path / "st.json"
    code = run_cli("stochastic", "--config", str(FIXDIR / "ex7_1.json"), "--epsilon", "1e-80",
                   "--json", str(out))
    assert code == cli.EXIT_OK
    (solved,) = json.loads(out.read_text())["stationary"].values()
    limit = sys.get_int_max_str_digits()
    assert max(len(mass) for mass in solved["by_state"].values()) > 2 * limit
    sys.set_int_max_str_digits(0)
    try:
        masses = [Fraction(mass) for mass in solved["by_state"].values()]
        stable_mass = Fraction(solved["stable_set_mass"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert sum(masses) == 1 and 0 < stable_mass <= 1


def test_stochastic_builds_each_chain_once(tmp_path, monkeypatch):
    from popdyn import stochastic

    built = []
    real = stochastic.build_chain

    def counting(pop, graph=None):
        built.append(pop)
        return real(pop, graph)

    monkeypatch.setattr(stochastic, "build_chain", counting)
    code = run_cli(
        "stochastic", "--config", str(FIXDIR / "ex7_4.json"),
        "--epsilon", "1/100", "--epsilon", "1/1000", "--verify", "--dot", str(tmp_path / "c.dot"),
        "--json", str(tmp_path / "st.json"),
    )
    assert code == 0
    # one chain serves every epsilon, the report, the verification battery
    # and the DOT export
    assert len(built) == 1
