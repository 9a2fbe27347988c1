"""The README's CLI examples run as written and print what the README shows.

Each ``hybridamm`` line of the README's CLI block runs through ``cli.main`` in
a temporary directory, where ``simulate`` reads the README's scenario config
as ``scenario.json``.  The ``# `` lines printed under a command, up to a
``# ...`` line, must be the start of its stdout.
"""

import re
import shlex
from pathlib import Path

import pytest

from hybridamm.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def block(section, language):
    """The first ```language block after the ``## section`` heading."""
    start = README.index(f"\n## {section}\n")
    return re.search(rf"```{language}\n(.*?)```", README[start:], re.S).group(1)


def examples():
    """(argv, expected stdout prefix) of each command in the CLI block."""
    lines = block("CLI", "sh").splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("hybridamm "):
            continue
        shown = []
        for below in lines[i + 1:]:
            if not below.startswith("# ") or below == "# ...":
                break
            shown.append(below[2:] + "\n")
        yield pytest.param(shlex.split(line, comments=True)[1:], "".join(shown), id=line)


def test_readme_has_cli_examples():
    commands = [param.values for param in examples()]
    assert len(commands) == 5
    assert [argv[0] for argv, shown in commands if shown] == ["swap", "slippage", "simulate"]


@pytest.mark.parametrize("argv, shown", examples())
def test_readme_cli_example(capsys, tmp_path, monkeypatch, argv, shown):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.json").write_text(block("Scenario configs", "json"), encoding="utf-8")
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out.startswith(shown)
