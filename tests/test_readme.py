"""README's examples run as written.

The ``$ deptrees`` transcript under "Command line" is run through
``cli.main`` in process, each command's stdout held to the lines that
follow it; the code block under "Library" is executed, and the values its
comments describe are checked.
"""
from __future__ import annotations

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from deptrees import cli, count_closed_form, serialize, size

README = (Path(__file__).parent.parent / "README.md").read_text()


def block(heading: str, lang: str) -> str:
    """The first fenced ``lang`` block after the ``## heading`` line."""
    match = re.search(rf"^## {heading}\n.*?^```{lang}\n(.*?)^```$", README, re.M | re.S)
    assert match, f"no {lang} block under '## {heading}'"
    return match.group(1)


def transcript() -> list[tuple[str, str]]:
    """Each ``$ deptrees`` command of the Command line block, with its output."""
    pairs = []
    for part in block("Command line", "text").split("$ deptrees ")[1:]:
        command, _, output = part.partition("\n")
        pairs.append((command, output))
    return pairs


def test_the_transcript_has_every_command():
    assert [command.split()[0] for command, _ in transcript()] == [
        "count", "count", "enumerate", "sample", "series", "param", "approx", "verify"
    ]


@pytest.mark.parametrize("command, output", transcript(), ids=[c for c, _ in transcript()])
def test_command_line_transcript(capsys, command, output):
    assert cli.main(shlex.split(command)) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (output, "")


def test_library_block():
    names: dict = {}
    exec(block("Library", "python"), names)
    assert names["table"].tree_count(100) == count_closed_form(100)
    assert len(str(names["table"].tree_count(100))) == 79
    texts = [serialize(t) for t in names["trees"]]
    assert len(texts) == 30 and texts == sorted(texts)
    assert size(names["t"]) == 100
    assert len(names["T"]) == 65 and names["T"][:4] == (0, 1, 2, 7)
    assert isinstance(names["mean_parameter"](names["toll_by_name"]("leaf"), 50), Fraction)
