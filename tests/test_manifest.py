"""The command line against its committed digest manifest.

Every vector of ``manifest/fast.txt`` (every subcommand and format, the size
edges, help and usage errors, each refusal, and the requests of the
benchmark workloads) must give the exit code and the stdout and stderr
digests its line records.  ``cli_manifest.py`` documents the format and
checks the slow list.
"""
from __future__ import annotations

import cli_manifest


def test_fast_vectors_match_the_manifest():
    differ = cli_manifest.mismatches(cli_manifest.FAST)
    assert differ == [], "\n".join(f"manifest: {line}\nnow:      {now}" for line, now in differ)


def test_lists_are_disjoint_and_without_repeats():
    vectors = [argv for path in (cli_manifest.FAST, cli_manifest.SLOW)
               for _, argv in cli_manifest.read(path)]
    assert len({tuple(argv) for argv in vectors}) == len(vectors)
