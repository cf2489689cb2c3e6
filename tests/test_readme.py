"""The README's examples run: the python blocks execute, and every
`splitlab ...` line of the "Command line" block exits 0.  That block
shows every subcommand of the parser."""

import argparse
import pathlib
import re
import shlex

import pytest

from splitlab import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _command_lines():
    section = README.split("## Command line", 1)[1]
    block = re.search(r"^```text\n(.*?)^```", section, re.M | re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("splitlab ")]


def test_python_blocks_run():
    # one namespace, in order: later blocks use the first block's import
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    namespace = {}
    for source in blocks:
        exec(compile(source, "README.md", "exec"), namespace)


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_exits_0(capsys, line):
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def _subcommands(parser, words=()):
    """The words of every leaf subcommand of parser, e.g. ("lfsr", "period")."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield words
    for group in groups:
        for name, sub in group.choices.items():
            yield from _subcommands(sub, words + (name,))


def test_every_subcommand_has_a_command_line():
    # the reverse of test_command_line_exits_0: a subcommand added to or
    # removed from the parser needs a README edit too
    lines = [tuple(shlex.split(line)[1:]) for line in _command_lines()]
    commands = list(_subcommands(cli._build_parser()))
    assert ("lfsr", "simulate") in commands and ("verify",) in commands
    missing = [c for c in commands if not any(line[: len(c)] == c for line in lines)]
    assert not missing, missing
