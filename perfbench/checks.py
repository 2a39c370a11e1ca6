"""Independent checks of every CLI output the benchmark receives.

Counts and series coefficients are compared to binom(3n-2, n-1)/n computed
here with ``math.comb``; trees are validated by this module's own bracket
scan.  Outputs with no independent closed form (``param --toll leaf|size``
and ``approx --compare``) are compared to digests of the reference commit's
bytes in ``expected.json`` (see ``make_expected.py``).
"""
from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache
from pathlib import Path


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:24]


def load_expected() -> dict[str, str]:
    return json.loads(Path(__file__).with_name("expected.json").read_text())


@lru_cache(maxsize=None)
def tree_count(n: int) -> int:
    return math.comb(3 * n - 2, n - 1) // n


def tree_size(text: str) -> int | None:
    """Node count of one tree in the canonical grammar, or None if malformed.

    tree := "[" tree* "|" tree* "]"; each open node remembers whether its
    "|" has been seen.
    """
    if not text.startswith("["):
        return None
    open_nodes: list[bool] = []
    nodes = 0
    for pos, ch in enumerate(text):
        if ch == "[":
            if not open_nodes and pos:
                return None
            open_nodes.append(False)
            nodes += 1
        elif ch == "|":
            if not open_nodes or open_nodes[-1]:
                return None
            open_nodes[-1] = True
        elif ch == "]":
            if not open_nodes or not open_nodes[-1]:
                return None
            open_nodes.pop()
        else:
            return None
    return None if open_nodes else nodes


def _lines(out: bytes) -> list[str]:
    text = out.decode()
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    return text[:-1].split("\n")


def _trees_of_size(lines: list[str], n: int) -> str | None:
    for i, line in enumerate(lines):
        if tree_size(line) != n:
            return f"line {i + 1} is not a well-formed tree of size {n}"
    return None


def check(argv: tuple[str, ...], out: bytes, expected: dict[str, str]) -> str | None:
    """None if ``out`` is the right stdout for ``argv``, else the reason."""
    cmd = argv[0]
    if cmd == "count" and argv[1] == "--upto":
        want = "".join(f"{n} {tree_count(n)}\n" for n in range(1, int(argv[2]) + 1))
        return None if out == want.encode() else "count table differs from binom(3n-2, n-1)/n"
    if cmd == "count":
        n = int(argv[1])
        return None if out == f"{tree_count(n)}\n".encode() else f"t_{n} differs"
    if cmd == "series":
        terms = int(argv[2])
        want = "k,coefficient\n0,0\n" + "".join(
            f"{k},{tree_count(k)}\n" for k in range(1, terms + 1)
        )
        return None if out == want.encode() else "series coefficients differ from t_k"
    if cmd == "param" and argv[2] == "unit":
        n = int(argv[3])
        want = f"n,total,mean_num,mean_den\n{n},{n * tree_count(n)},{n},1\n"
        return None if out == want.encode() else "unit toll total is not n * t_n"
    if cmd in ("param", "approx"):
        key = " ".join(argv)
        if key not in expected:
            return f"no reference digest for {key!r}"
        if cmd == "approx" and f"\nexact {tree_count(int(argv[1]))}\n".encode() not in out:
            return "approx --compare prints a wrong exact count"
        return None if digest(out) == expected[key] else "differs from the reference bytes"
    lines = _lines(out)
    if cmd == "verify":
        bad = [line for line in lines if line.split()[1:2] != ["ok"]]
        return f"check not ok: {bad[0]!r}" if bad else None
    if cmd == "sample":
        n, k = int(argv[1]), int(argv[3])
        if len(lines) != k:
            return f"{len(lines)} trees, wanted {k}"
        return _trees_of_size(lines, n)
    if cmd == "enumerate":
        n = int(argv[1])
        if len(lines) != tree_count(n):
            return f"{len(lines)} trees, wanted t_{n} = {tree_count(n)}"
        if any(a >= b for a, b in zip(lines, lines[1:])):
            return "trees are not strictly sorted (unsorted or repeated)"
        return _trees_of_size(lines, n)
    return f"no check for command {cmd!r}"
