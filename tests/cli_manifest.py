"""Digest manifest of the command line's output.

Each line of a manifest list is one argv vector and what it gave:

    <exit code> <SHA-256 of stdout> <SHA-256 of stderr> <argv as a JSON list>

The argv is last and JSON-encoded, so no word of it can be misread.  Every
vector runs in process through :func:`deptrees.cli.main` with both streams
captured, COLUMNS=80 (argparse wraps its help and usage to the terminal
width).  Identical argv print identical bytes: a vector appears once.

There are two lists.  ``manifest/fast.txt`` holds the vectors that take well
under a second; ``tests/test_manifest.py`` checks it in Tier-1.
``manifest/slow.txt`` holds those that take a second or more (n = 10^5, the
full oracle limit, the largest series order); check it with

    PYTHONPATH=src python -S tests/cli_manifest.py

which prints each line that differs, as the manifest has it and as the code
gives it, and exits 1 if any does.  A changed line is a behaviour change.

    PYTHONPATH=src python tests/cli_manifest.py --write

rewrites the digests of both lists from the code as it stands, keeping their
vectors; add a vector by adding a line with any digests, then rewrite.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

from deptrees import cli

MANIFEST = Path(__file__).resolve().parent / "manifest"
FAST = MANIFEST / "fast.txt"
SLOW = MANIFEST / "slow.txt"


class _Digest:
    """A text stream that keeps only the SHA-256 of its UTF-8 bytes."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def line_of(argv: list[str]) -> str:
    """The manifest line of ``argv`` as the code gives it now."""
    out, err = _Digest(), _Digest()
    saved = sys.stdout, sys.stderr, os.environ.get("COLUMNS")
    sys.stdout, sys.stderr = out, err
    os.environ["COLUMNS"] = "80"
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdout, sys.stderr = saved[:2]
        if saved[2] is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved[2]
    return f"{code} {out.sha.hexdigest()} {err.sha.hexdigest()} {json.dumps(argv)}"


def read(path: Path) -> list[tuple[str, list[str]]]:
    """(line, argv) of each line of a manifest list."""
    lines = path.read_text().splitlines()
    return [(line, json.loads(line.split(" ", 3)[3])) for line in lines]


def mismatches(path: Path) -> list[tuple[str, str]]:
    """(manifest line, line the code gives) of each vector that differs."""
    return [(line, now) for line, argv in read(path) if (now := line_of(argv)) != line]


def main(args: list[str]) -> int:
    if args == ["--write"]:
        for path in (FAST, SLOW):
            path.write_text("".join(line_of(argv) + "\n" for _, argv in read(path)))
        return 0
    if args:
        print("usage: cli_manifest.py [--write]", file=sys.stderr)
        return 2
    differ = mismatches(SLOW)
    for line, now in differ:
        print(f"manifest: {line}\nnow:      {now}")
    print(f"{len(differ)} of {len(read(SLOW))} vectors in {SLOW.name} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
