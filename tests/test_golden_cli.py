"""Golden CLI corpus: every recorded call must print the same bytes again.

Each line of ``golden/cli_corpus.jsonl`` holds one call -- its argv, the
output format, the exit code, stdout and stderr -- replayed here through
``cli.main`` in-process.  A refactor that keeps the program's answers
keeps this corpus byte-identical.  After an intended output change,
re-record it from the same argv list with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from symcart.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.jsonl"


def run(argv, fmt):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--format", fmt])
    return {"argv": argv, "format": fmt, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_corpus():
    return [json.loads(line) for line in CORPUS.read_text().splitlines()]


@pytest.mark.parametrize("case", load_corpus(),
                         ids=lambda c: f"{' '.join(c['argv'])} [{c['format']}]")
def test_cli_output_matches_corpus(case):
    assert run(case["argv"], case["format"]) == case


def test_corpus_replays_in_reverse_in_one_process():
    """``main`` reuses one parser per process; no call leaks into the next.

    The parametrized test replays the corpus in order; this one replays,
    in reverse, each command's first case per exit code and format, so
    commands and error paths interleave.  The slow corollary1-check scan
    is left to the parametrized test.
    """
    first = {}
    for c in load_corpus():
        if c["argv"][0] != "corollary1-check":
            first.setdefault((c["argv"][0], c["exit"], c["format"]), c)
    cases = list(first.values())[::-1]
    assert [run(c["argv"], c["format"]) for c in cases] == cases


if __name__ == "__main__":
    cases = [run(c["argv"], c["format"]) for c in load_corpus()]
    CORPUS.write_text("".join(json.dumps(c) + "\n" for c in cases))
