"""The README's examples run as written: its Python block, and every
``manhattan`` line of its shell blocks, in order, in one working directory."""

import re
import shlex
from pathlib import Path

from manhattan.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_python_example_runs():
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})


def test_cli_examples_run_in_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = [
        line for block in _blocks("sh") for line in block.splitlines()
        if line.startswith("manhattan ")
    ]
    assert len(lines) >= 6
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
