"""Golden CLI corpus: every recorded call must print the same bytes again.

Each line of ``golden/cli_corpus.jsonl`` holds one call -- its argv, the
output format, the exit code, stdout and stderr -- replayed here through
``cli.main`` in-process.  A refactor that keeps the program's answers
keeps this corpus byte-identical.

``golden/cli_surface.jsonl`` does the same for the argument parser's own
output: ``--help`` of the program and of each command, and the calls
argparse rejects before any command runs.  Help text is wrapped to the
terminal width, so both recording and replay pin ``COLUMNS=80``.

After an intended output change, re-record both files from the same argv
lists with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from symcart.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.jsonl"
SURFACE = Path(__file__).parent / "golden" / "cli_surface.jsonl"
COMMANDS = ("table", "kp", "homotopy", "distinguish", "corollary1-check",
            "decompose", "gate", "tgeo", "dump-roots")
SURFACE_ARGV = [
    ["--help"], ["-h"], *([command, "--help"] for command in COMMANDS),
    [],                                         # no command
    ["no-such-command"], ["KP", "S(5)"],        # unknown commands
    ["kp"],                                     # no space
    ["kp", "S(12)", "--bogus"],
    ["--format", "xml"], ["kp", "S(12)", "--format", "xml"],
    ["--format", "json", "kp", "S(5)"],         # a leading option
    ["--max-degree", "3", "homotopy", "S(7)"],
]


def run(argv, fmt):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--format", fmt])
    return {"argv": argv, "format": fmt, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def call(argv):
    """One call as ``symcart`` makes it, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_corpus(path=CORPUS):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("case", load_corpus(),
                         ids=lambda c: f"{' '.join(c['argv'])} [{c['format']}]")
def test_cli_output_matches_corpus(case):
    assert run(case["argv"], case["format"]) == case


def test_corpus_replays_in_reverse_in_one_process():
    """``main`` reuses its parsers in a process; no call leaks into the next.

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


@pytest.mark.parametrize("case", load_corpus(SURFACE),
                         ids=lambda c: " ".join(c["argv"]) or "no-arguments")
def test_parser_surface_matches_corpus(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert call(case["argv"]) == case


def write_corpus(path, cases):
    path.write_text("".join(json.dumps(c) + "\n" for c in cases))


if __name__ == "__main__":
    write_corpus(CORPUS, [run(c["argv"], c["format"]) for c in load_corpus()])
    os.environ["COLUMNS"] = "80"
    write_corpus(SURFACE, [call(argv) for argv in SURFACE_ARGV])
