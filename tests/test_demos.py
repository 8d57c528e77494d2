"""Every narrative script under demos/, and every Python block of
README.md, runs to completion; every `popdyn` command of README.md's sh
blocks exits 0; every JSON block of README.md is a valid population spec."""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

import popdyn
from popdyn import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.DOTALL | re.MULTILINE)
README_JSON = re.findall(r"^```json\n(.*?)^```", README, re.DOTALL | re.MULTILINE)
README_SH = re.findall(r"^```sh\n(.*?)^```", README, re.DOTALL | re.MULTILINE)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    # the child finds popdyn where this process did, installed or not
    package_root = str(Path(popdyn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_python_blocks_run():
    assert README_BLOCKS
    for block in README_BLOCKS:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # each line as written, in a directory that holds the packaged fixtures
    for config in files("popdyn.fixtures").iterdir():
        if config.name.endswith(".json"):
            shutil.copy(config, tmp_path / config.name)
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line, comments=True) for block in README_SH for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["popdyn"]]
    assert commands
    for argv in commands:
        assert cli.main(argv) == cli.EXIT_OK, argv
        capsys.readouterr()


def test_readme_json_blocks_validate():
    assert README_JSON
    for block in README_JSON:
        popdyn.validate_population(json.loads(block))
