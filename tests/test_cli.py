import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from genpop import population
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
    from popdyn.oracle import TransitionDigraph

    def refuse(self):
        raise AssertionError("decoded view built without --verify")

    # the build sets `moves` itself; the decoded per-cell views stay unbuilt
    for name in ("coords", "n_c"):
        monkeypatch.setattr(TransitionDigraph, name, property(refuse))
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
    # --max-states overrides the environment guard for the DOT export too
    monkeypatch.setenv("POPDYN_MAX_STATES", "10")
    dot = tmp_path / "c.dot"
    code = run_cli(
        "stochastic", "--config", str(FIXDIR / "ex7_1.json"), "--max-states", "1000",
        "--dot", str(dot), "--json", str(tmp_path / "o.json"),
    )
    assert code == 0
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == (
        "5a198c6cae6e4ff175c73587445d0b7096eb639251cd16c60d877ad3c9f2ef21"
    )


def test_invariants_command(tmp_path):
    out = tmp_path / "inv.json"
    assert run_cli("invariants", "--config", str(FIXDIR / "ex7_3.json"), "--json", str(out)) == 0
    report = json.loads(out.read_text())
    assert "benchmark_sets" in report


def test_env_guard_override(tmp_path, monkeypatch, capsys):
    # every guarded command: the environment's guard applies, a flag overrides
    # it, and a guard that is not a positive integer is bad input, not an
    # internal fault (loops rather than parameters, so the test keeps its name)
    commands = [("oracle",), ("equilibria", "--oracle"), ("invariants", "--verify"), ("stochastic",)]
    cases = [
        ("10", None, cli.EXIT_GUARD),
        ("abc", None, cli.EXIT_CONFIG),
        ("0", None, cli.EXIT_CONFIG),
        ("abc", "1000", cli.EXIT_OK),
        (None, "-5", cli.EXIT_CONFIG),
        (None, "0", cli.EXIT_CONFIG),
    ]
    for command in commands:
        for env, flag, code in cases:
            if env is None:
                monkeypatch.delenv("POPDYN_MAX_STATES", raising=False)
            else:
                monkeypatch.setenv("POPDYN_MAX_STATES", env)
            argv = [*command, "--config", str(FIXDIR / "ex7_1.json"), "--json", str(tmp_path / "o.json")]
            if flag is not None:
                argv += ["--max-states", flag]
            assert run_cli(*argv) == code, (command, env, flag)
            err = capsys.readouterr().err
            if code == cli.EXIT_CONFIG:
                assert "must be a positive integer" in err, (command, env, flag)


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
        ("equilibria",): graph | {"popdyn.equilibria"},
        ("equilibria", "--oracle"): graph | {"popdyn.equilibria"},
        ("equilibria", "--verify"): graph | {"popdyn.equilibria", "popdyn.verify"},
        ("invariants",): graph | {"popdyn.invariants"},
        ("invariants", "--verify"): graph | {"popdyn.invariants", "popdyn.verify"},
        ("oracle",): graph,
        ("oracle", "--verify"): graph | {"popdyn.verify"},
        ("stochastic",): graph | {"popdyn.stochastic"},
        ("stochastic", "--verify"):
            graph | {"popdyn.stochastic", "popdyn.verify", "popdyn.equilibria"},
    }
    for form, modules in expected.items():
        code, loaded, _ = child(*form, "--config", str(FIXDIR / "ex7_1.json"))
        assert (code, loaded) == (0, sorted(modules)), form


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
    config.write_text(json.dumps(pop.to_json_dict()))
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


def test_invariants_report_takes_no_state_guard(tmp_path, monkeypatch):
    # without --verify nothing as large as the state space is built, so the
    # guard does not apply: the report is the one made under the default guard
    for name in ("ex1", "ex2", "ex3"):
        argv = ["invariants", "--config", str(FIXDIR / f"{name}.json"), "--json"]
        monkeypatch.delenv("POPDYN_MAX_STATES", raising=False)
        assert run_cli(*argv, str(tmp_path / "default.json")) == cli.EXIT_OK
        monkeypatch.setenv("POPDYN_MAX_STATES", "1")
        assert run_cli(*argv, str(tmp_path / "guarded.json")) == cli.EXIT_OK, name
        assert (tmp_path / "guarded.json").read_text() == (tmp_path / "default.json").read_text()


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
