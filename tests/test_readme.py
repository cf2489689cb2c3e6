"""The README's examples run: the python blocks execute, and every
`splitlab ...` line of the "Command line" block exits 0."""

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
