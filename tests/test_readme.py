"""Every ``cytk`` command of README's command-line block runs and exits 0,
so that no removed option or subcommand stays documented."""

import re
import shlex
from pathlib import Path

import pytest

from cytk.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    for line in block.splitlines()
    if line.startswith("cytk ")
]


def test_readme_lists_every_subcommand():
    assert {shlex.split(line)[1] for line in COMMANDS} == {
        "analyze", "census", "surface", "enumerate-zero-c2", "torus-quotient"
    }


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(line, tmp_path, monkeypatch, capsys):
    # my-action.json is the action described in README's JSON example.
    (example,) = re.findall(r"^```json\n(.*?)^```", README, re.M | re.S)
    (tmp_path / "my-action.json").write_text(example, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = [
        str(ROOT / arg) if arg.startswith("perfbench/") else arg
        for arg in shlex.split(line)[1:]
    ]
    code = main(argv)
    assert code == 0, capsys.readouterr().err
