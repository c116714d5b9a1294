"""The README's CLI examples, run through cli.main and compared line for line.

The JSON code document in the README is written to canon.json in a scratch
directory, and every ```text block that starts with `$ thermocode` is run
there: its first line is the command, the rest is stdout followed by stderr.
"""

import re
import shlex
from pathlib import Path

import pytest

from thermocode.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
CANON_DOC = re.search(r"```json\n(.*?)```", README, re.S).group(1)
EXAMPLES = [
    block
    for block in re.findall(r"```text\n(.*?)```", README, re.S)
    if block.startswith("$ thermocode ")
]


def test_readme_examples_found():
    commands = [block.split()[2] for block in EXAMPLES]
    assert commands == ["check", "omega", "temperature", "gibbs", "dimension", "prefixes"]


@pytest.mark.parametrize("block", EXAMPLES, ids=lambda block: block.split()[2])
def test_readme_example(block, tmp_path, monkeypatch, capsys):
    (tmp_path / "canon.json").write_text(CANON_DOC)
    monkeypatch.chdir(tmp_path)
    command, *expected = block.splitlines()
    assert main(shlex.split(command)[2:]) == 0
    captured = capsys.readouterr()
    assert (captured.out + captured.err).splitlines() == expected
