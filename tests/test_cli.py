"""End-to-end tests of the command-line front end."""

import argparse
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import symcart
from symcart import cli, rootsys
from symcart.catalog import FAMILIES, reference_classical
from symcart.recognize import decompose
from symcart.cli import SpaceSyntaxError, main, parse_space
from symcart.rootsys import deletion_counts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_parse_space_aliases():
    assert parse_space("Gr(R,3,10)").label() == "BDI(3,7)"
    assert parse_space("Gr(H,1,5)").label() == "CII(1,4)"
    assert parse_space("CP(7)").label() == "AIII(1,7)"
    assert parse_space("HP(2)").label() == "CII(1,2)"
    # complementary planes give the same Grassmannian
    assert parse_space("Gr(C,8,11)").label() == "AIII(3,8)"


def test_parse_space_products_and_rewrites():
    q = parse_space("AI(11) x S(12)")
    assert len(q.factors) == 2 and q.dim == 77
    assert parse_space("Spin(4)").label() == "S(3) x S(3)"
    assert parse_space("Sp(1)").label() == "S(3)"
    assert parse_space("E6").label() == "E6"


def test_parse_space_errors_carry_positions():
    with pytest.raises(SpaceSyntaxError) as exc:
        parse_space("S(12) y S(10)")
    assert exc.value.pos == 6
    with pytest.raises(SpaceSyntaxError):
        parse_space("Gr(Q,2,5)")
    with pytest.raises(SpaceSyntaxError):
        parse_space("S(1)")
    with pytest.raises(SpaceSyntaxError):
        parse_space("")
    for spec, message in (("CP(2,3)", "CP takes one parameter (at position 0)"),
                          ("S(3", "unclosed '(' (at position 1)")):
        with pytest.raises(SpaceSyntaxError) as exc:
            parse_space(spec)
        assert str(exc.value) == message


def test_table_check_passes(capsys):
    code, out = run(capsys, "table", "classical", "--check", "--max-param", "15")
    assert code == 0 and "0 mismatch(es)" in out
    code, out = run(capsys, "table", "exceptional", "--check")
    assert code == 0 and "EVIII" in out


def test_table_check_renders_a_mismatch(capsys, monkeypatch):
    """A published value that the computation misses is one MISMATCH line
    and a count, with exit 1."""
    def off_by_one(symbol, params):
        ref = reference_classical(symbol, params)
        if (symbol, params) != ("SU", (3,)):
            return ref
        d, k, cp = ref
        return d + 1, k, cp
    monkeypatch.setattr(cli, "reference_classical", off_by_one)
    code, out = run(capsys, "table", "classical", "--check", "--max-param", "3")
    assert code == 1
    assert out.splitlines()[-2:] == [
        "MISMATCH SU(3) d_P: published 5, computed 4",
        "check: 1 mismatch(es) in 19 rows"]


def test_kp_command(capsys):
    code, out = run(capsys, "kp", "Gr(R,3,10)")
    assert code == 0
    assert "BDI(3,7): dim=21 rank=3 k_P=13 d_P=8 C_P=0 valid=False" in out


def test_kp_of_a_large_rank_enumerates_no_root(capsys, monkeypatch):
    def no_enumeration(t):
        raise AssertionError(f"positive roots of {t} enumerated")

    monkeypatch.setattr(rootsys, "positive_roots", no_enumeration)
    monkeypatch.setattr(cli, "positive_roots", no_enumeration)
    code, out = run(capsys, "kp", "SU(1000)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["k_P"], payload["d_P"]) == (998001, 1998)
    assert (payload["d_P"], payload["k_P"]) == \
        reference_classical("SU", (1000,))[:2]


def test_kp_of_a_huge_rank_visits_four_nodes(capsys, monkeypatch):
    calls = []

    def counted(t, j):
        calls.append(j)
        return deletion_counts(t, j)

    monkeypatch.setattr(rootsys, "deletion_counts", counted)
    code, out = run(capsys, "kp", "SU(100000000)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["d_P"], payload["k_P"]) == \
        reference_classical("SU", (10 ** 8,))[:2]
    assert 1 <= len(calls) <= 4


def test_homotopy_command(capsys):
    code, out = run(capsys, "homotopy", "FII", "--max-degree", "8")
    assert code == 0 and "pi_7(FII) = Z\n" in out


def test_distinguish_blind_spot(capsys):
    code, out = run(capsys, "distinguish", "CP(5)", "Gr(R,2,13)")
    assert code == 0 and out.strip() == "Indistinguishable(9)"


def test_gate_command(capsys):
    code, out = run(capsys, "gate", "S(12)", "--codim", "1",
                    "--delta", "1", "--focal-r", "0")
    assert code == 0 and out.startswith("Item1")


@pytest.mark.parametrize("delta", ("nan", "inf", "0"))
def test_gate_rejects_a_non_finite_or_non_positive_delta(capsys, delta):
    code = main(["gate", "SU(20)", "--codim", "1", "--delta", delta,
                 "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: delta must be positive and finite\n"


def test_tgeo_command(capsys):
    code, out = run(capsys, "tgeo", "C", "3", "23", "--codim", "7")
    assert code == 0 and out.startswith("Applicable")


def test_decompose_command(capsys):
    code, out = run(capsys, "decompose", "S(12)")
    assert code == 0
    assert out.splitlines()[:3] == ["S(12) (dim 12)", "S(11) (dim 11)",
                                    "S(10) (dim 10)"]


def test_decompose_node_bound_is_one_error_line(capsys):
    code = main(["decompose", "S(12)", "--max-candidates", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: decomposition search exceeded "
                            "--max-candidates = 2 nodes\n")


def test_decompose_of_a_big_ambient_is_one_error_line(capsys):
    code = main(["decompose", "E8"])          # past the default bound
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: decomposition search exceeded "
                            "--max-candidates = 1000000 nodes\n")


_UNDER_ONE_GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from symcart.cli import main
sys.exit(main(["decompose", sys.argv[1]]))
"""


@pytest.mark.parametrize("spec", ["SU(100000)", "S(100000000)"])
def test_decompose_of_a_huge_ambient_fails_fast_in_bounded_memory(spec):
    """A dim of 10^10 or 10^8 costs what the node bound allows, not an
    array of dim + 1 counts: under a 1 GiB address space the call is the
    node bound's one error line."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(symcart.__file__)))
    done = subprocess.run([sys.executable, "-c", _UNDER_ONE_GIB, spec],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == ("error: decomposition search exceeded "
                           "--max-candidates = 1000000 nodes\n")


def test_decompose_node_bound_is_bounded(capsys, monkeypatch):
    """A --max-candidates past MAX_CANDIDATES is one error line, before
    the space is parsed or searched; the bound itself is the default."""
    def unreachable(*args):
        raise AssertionError("decompose called past MAX_CANDIDATES")
    monkeypatch.setattr(cli, "decompose", unreachable)
    too_many = str(cli.MAX_CANDIDATES + 1)
    for argv in (["decompose", "S(120)", "--max-candidates", too_many],
                 ["decompose", "S(120)", "--max-candidates", "10" + "0" * 12]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: --max-candidates {argv[-1]} exceeds "
                                f"MAX_CANDIDATES = {cli.MAX_CANDIDATES}\n")
    assert cli.MAX_CANDIDATES == 10 ** 6
    args = cli._build_parser().parse_args(["decompose", "S(12)"])
    assert args.max_candidates == cli.MAX_CANDIDATES == \
        inspect.signature(decompose).parameters["max_candidates"].default


def test_dump_roots_command(capsys):
    code, out = run(capsys, "dump-roots", "E6")
    assert code == 0 and out.splitlines()[-1] == "36 positive roots"


def test_dump_roots_rank_is_bounded(capsys, monkeypatch):
    def unreachable(t):
        raise AssertionError("roots enumerated past the rank bound")
    monkeypatch.setattr(cli, "positive_roots", unreachable)
    code = main(["dump-roots", "A", "--rank", str(cli.MAX_DUMP_RANK + 1)])
    captured = capsys.readouterr()
    assert cli.MAX_DUMP_RANK >= 12        # the largest rank a session asks for
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: --rank {cli.MAX_DUMP_RANK + 1} exceeds "
                            f"MAX_DUMP_RANK = {cli.MAX_DUMP_RANK} "
                            "(the output grows as rank^3)\n")


def test_table_param_is_bounded(capsys, monkeypatch):
    def unreachable(max_param):
        raise AssertionError("rows listed past the parameter bound")
    monkeypatch.setattr(cli, "classical_presentations", unreachable)
    code = main(["table", "classical",
                 "--max-param", str(cli.MAX_TABLE_PARAM + 1)])
    captured = capsys.readouterr()
    assert cli.MAX_TABLE_PARAM >= 30      # the default
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: --max-param {cli.MAX_TABLE_PARAM + 1} "
                            f"exceeds MAX_TABLE_PARAM = "
                            f"{cli.MAX_TABLE_PARAM}\n")


@pytest.mark.parametrize("max_param", [-3, 1])
def test_table_param_below_two_is_rejected(capsys, max_param):
    """A bound below every reference row's parameter would check no row
    and pass; it is one error line naming the accepted range."""
    code = main(["table", "classical", "--check",
                 "--max-param", str(max_param)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: --max-param {max_param} lists no row: "
                            f"expected 2 <= --max-param <= "
                            f"{cli.MAX_TABLE_PARAM}\n")


@pytest.mark.parametrize("max_param", ["-3", "30"])
def test_table_param_is_rejected_for_the_exceptional_kind(capsys, max_param):
    """The exceptional table has no parameter to bound: a --max-param
    there is one error line, not silently ignored."""
    code = main(["table", "exceptional", "--check", "--max-param", max_param])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: --max-param applies to the classical "
                            "table only\n")


def test_table_param_two_lists_rows(capsys):
    code, out = run(capsys, "table", "classical", "--check",
                    "--max-param", "2")
    assert code == 0 and "check: 0 mismatch(es) in 7 rows" in out


def test_max_dim_is_bounded(capsys, monkeypatch):
    class Scanned(Exception):
        pass

    def scan(max_dim, *args):
        raise Scanned(max_dim)

    monkeypatch.setattr(cli, "corollary1_scan", scan)
    code = main(["corollary1-check", "--max-dim", str(cli.MAX_SCAN_DIM + 1)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: --max-dim {cli.MAX_SCAN_DIM + 1} exceeds "
                            f"MAX_SCAN_DIM = {cli.MAX_SCAN_DIM}\n")
    # the bound itself and the default of 300 still reach the scan
    for argv in (["--max-dim", str(cli.MAX_SCAN_DIM)], []):
        with pytest.raises(Scanned):
            main(["corollary1-check", *argv])


def test_a_well_formed_call_builds_no_parser(capsys, monkeypatch):
    """A well-formed call is read from ``COMMANDS`` and builds no parser,
    however often it runs.  A call argparse rejects, ``--help``, no
    command and an unknown command share the whole tree (the program's
    parser and one per command), built once per process."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    calls = [["kp", "SU(5)"], ["homotopy", "S(7)", "--format", "json"],
             ["distinguish", "CP(5)", "Gr(R,2,13)"], ["kp", "XYZ(3)"],
             ["gate", "S(12)", "--codim", "1"],
             ["tgeo", "C", "3", "23", "--codim", "7"],
             ["dump-roots", "G2"], ["decompose", "S(12)"],
             ["table", "exceptional"],
             ["corollary1-check", "--max-dim", "20"]]
    rejected_call = ["homotopy", "S(7)", "--max-degree", "99"]
    counts, rejected = [], 0
    for argv in [*calls, *calls, rejected_call, rejected_call,
                 ["--help"], ["no-such-command"], []]:
        before = len(built)
        try:
            main(argv)
        except SystemExit:     # --max-degree 99, --help and the last two
            rejected += 1
        counts.append(len(built) - before)
    n = len(calls)
    assert counts[:2 * n] == [0] * 2 * n           # read, not parsed
    assert counts[2 * n:2 * n + 2] == [10, 0]      # the whole tree, once
    assert counts[2 * n + 2:] == [0, 0, 0]         # and reused
    assert rejected == 5


def _parsed(argv):
    """``vars`` of the namespace argparse makes of ``argv`` (a command and
    its arguments), or None where argparse exits: help or a rejection."""
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


def _agrees_with_argparse(argv):
    """The table reader's namespace equals argparse's, or the reader
    leaves the call to argparse; whatever argparse rejects, it leaves.
    Returns whether the reader read the call."""
    read = cli._read_args(argv[0], argv[1:])
    parsed = _parsed(argv)
    assert read is None or vars(read) == parsed, argv
    return read is not None


def test_the_reader_knows_every_keyword_the_table_uses():
    for command in cli.COMMANDS:
        for flags, kwargs in cli._arguments(command):
            assert len(flags) == 1 and "dest" not in kwargs
            assert set(kwargs) <= {"type", "choices", "default",
                                   "required", "action", "help"}, flags
            assert kwargs.get("action", "store_true") == "store_true"


def test_the_reader_reads_every_golden_call_as_argparse_does():
    """Both golden corpora: each call the reader reads, it reads as
    argparse does; it reads every call argparse accepts (the corpora
    use exact option strings only) and none it rejects."""
    golden = Path(__file__).parent / "golden"
    argvs = [[*c["argv"], "--format", c["format"]] for c in map(
        json.loads, (golden / "cli_corpus.jsonl").read_text().splitlines())]
    argvs += [c["argv"] for c in map(
        json.loads, (golden / "cli_surface.jsonl").read_text().splitlines())]
    argvs = [argv for argv in argvs if argv and argv[0] in cli.COMMANDS]
    assert len(argvs) == 184 + 12
    for argv in argvs:
        assert _agrees_with_argparse(argv) == (_parsed(argv) is not None)


_VALUES = ("3", "0", "7", "10", "99", "1.5", "1e3", "inf", " 7", "",
           "S(5)", "SU(3)", "XYZ(3)", "Gr(R,2,13)", "classical", "R", "C",
           "G2", "text", "xml")
_ODD = ("-h", "--help", "--", "-", "--m", "--max", "--format=json", "-1",
        "-0.5", "\u0661\u0662", "\u00b2", "\uff11",
        *{flags[0] for command in cli.COMMANDS
          for flags, _ in cli._arguments(command) if flags[0][0] == "-"})


@st.composite
def _calls(draw):
    """A command with its arguments in any order, each value drawn one
    time in six from ``_ODD``, else mostly from its choices if it has
    any, else from ``_VALUES``; then up to two tokens inserted (an option
    string, an abbreviation, a negative number, ...) or deleted."""
    def value(kwargs):
        if not draw(st.integers(0, 5)):
            return draw(st.sampled_from(_ODD))
        if "choices" in kwargs and draw(st.integers(0, 3)):
            return draw(st.sampled_from([*map(str, kwargs["choices"])]))
        return draw(st.sampled_from(_VALUES))

    command = draw(st.sampled_from(list(cli.COMMANDS)))
    groups = []
    for flags, kwargs in cli._arguments(command):
        if flags[0][0] != "-":
            groups.append([value(kwargs)])
        elif draw(st.booleans()):
            if kwargs.get("action") == "store_true":
                groups.append([flags[0]])
            elif draw(st.integers(0, 4)):
                groups.append([flags[0], value(kwargs)])
            else:                                       # --x=v
                groups.append([f"{flags[0]}={value(kwargs)}"])
    argv = [t for group in draw(st.permutations(groups)) for t in group]
    for at, token in draw(st.lists(st.tuples(
            st.integers(0, 12),
            st.none() | st.sampled_from(_ODD + _VALUES)), max_size=2)):
        if token is not None:
            argv.insert(at, token)
        elif at < len(argv):
            del argv[at]
    return [command, *argv]


@settings(max_examples=400, deadline=None)
@given(_calls())
def test_the_reader_reads_any_call_as_argparse_does(argv):
    _agrees_with_argparse(argv)


_NAMES = (*FAMILIES, "Gr", "CP", "HP", "XYZ", "E9", "s")
_ARGS = st.one_of(st.integers(0, 30).map(str),
                  st.sampled_from(["-3", "+4", "", " ", " 7 ", "R", "C", "H",
                                   "\u0661\u0662", "\u00b2", "\uff11"]),
                  st.integers(10 ** 19, 10 ** 20 - 1).map(str))
_FACTORS = st.tuples(st.sampled_from(_NAMES),
                     st.none() | st.lists(_ARGS, max_size=3)).map(
    lambda f: f[0] if f[1] is None else f"{f[0]}({','.join(f[1])})")
_SPECS = st.lists(_FACTORS, min_size=1, max_size=3).map(" x ".join)


@settings(max_examples=200, deadline=None)
@given(_SPECS, _SPECS)
def test_any_spec_finishes_with_at_most_one_error_line(spec, other):
    """Specs drawn from ``parse_space``'s grammar, known and unknown
    names, signed, blank, non-ASCII and 20-digit arguments among them:
    every command that reads a space exits 0, 1 or 2 with at most one
    ``error:`` line."""
    for argv in (["kp", spec], ["homotopy", spec],
                 ["distinguish", spec, other], ["gate", spec, "--codim", "2"],
                 ["decompose", spec, "--max-candidates", "1000"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        assert err.getvalue().count("error:") <= 1, argv


# numbers as a call spells them: small, past a bound, signed, non-ASCII
_ODD_NUMBERS = st.sampled_from(["-1", "-40", "+3", "0", "", " 7",
                                "\u0661\u0662", "\u00b2", "\uff11"])


def _numbers(lo, hi, bound=None):
    """A number in lo..hi, above ``bound``, or an odd spelling."""
    drawn = [st.integers(lo, hi).map(str), _ODD_NUMBERS]
    if bound is not None:
        drawn.append(st.integers(bound + 1, bound + 10 ** 6).map(str))
    return st.one_of(*drawn)


def _options(*pairs):
    """Each (flag, values) either left out or given one drawn value."""
    return st.tuples(*(st.none() | values for _, values in pairs)).map(
        lambda drawn: [part for (flag, _), value in zip(pairs, drawn)
                       if value is not None for part in (flag, value)])


_BOUNDED_CALLS = st.one_of(
    st.tuples(st.just(["table"]),
              st.sampled_from(["classical", "exceptional", "other"]),
              st.sampled_from([[], ["--check"]]),
              _options(("--max-param",
                        _numbers(-3, 12, cli.MAX_TABLE_PARAM)))),
    st.tuples(st.just(["corollary1-check"]),
              _options(("--max-dim", _numbers(-3, 30, cli.MAX_SCAN_DIM)),
                       ("--max-degree", _numbers(-1, 11)),
                       ("--max-listed", _numbers(-1, 3)))),
    st.tuples(st.just(["tgeo"]), st.sampled_from(["R", "C", "H", "O"]),
              _numbers(-3, 12), _numbers(-3, 30),
              _numbers(-3, 12).map(lambda codim: ["--codim", codim]),
              _options(("--index", _numbers(-3, 12)))),
    st.tuples(st.just(["dump-roots"]),
              st.sampled_from(["A", "B", "C", "D", "BC", "E6", "E7", "E8",
                               "F4", "G2", "X", ""]),
              _options(("--rank", _numbers(-3, 33))))).map(
    lambda parts: [part for p in parts
                   for part in ([p] if isinstance(p, str) else p)])


@settings(max_examples=200, deadline=None)
@given(_BOUNDED_CALLS)
def test_any_bounded_call_finishes_with_at_most_one_error_line(argv):
    """``table``, ``corollary1-check``, ``tgeo`` and ``dump-roots`` with
    small, out-of-bound, negative and non-ASCII numbers, any option left
    out: each exits 0, 1 or 2 with at most one ``error:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert err.getvalue().count("error:") <= 1, argv


def test_sphere_arity_is_a_named_condition(capsys):
    for spec, text in (("S(2,3)", "S(2,3): requires one parameter n >= 2"),
                       ("S", "S: requires one parameter n >= 2")):
        assert main(["kp", spec]) == 2
        assert capsys.readouterr().err == f"error: {text} (at position 0)\n"


@pytest.mark.parametrize("spec", ["S(\u00b2)", "S(\u0661\u0662)"],
                         ids=("superscript-two", "arabic-indic-twelve"))
def test_space_parameters_take_ascii_digits_only(capsys, spec):
    """'²' and '١٢' pass ``str.isdigit``; the grammar names them, rather
    than failing in ``int`` or reading the second as S(12)."""
    assert main(["kp", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: expected an integer, got {spec[2:-1]!r} (at position 0)\n"


@pytest.mark.parametrize("argv, message", [
    (["corollary1-check", "--max-dim", "\u0661\u0662\u0660"],
     "argument --max-dim: invalid int value: '\u0661\u0662\u0660'"),
    (["decompose", "S(12)", "--max-candidates", "\u0661\u0662"],
     "argument --max-candidates: expected an integer >= 0, "
     "got '\u0661\u0662'"),
    (["corollary1-check", "--max-listed", "\u0662"],
     "argument --max-listed: expected an integer >= 0, got '\u0662'"),
    (["homotopy", "S(7)", "--max-degree", "\u0669"],
     "argument --max-degree: invalid int value: '\u0669'"),
    (["table", "classical", "--max-param", "\u0668"],
     "argument --max-param: invalid int value: '\u0668'"),
    (["dump-roots", "A", "--rank", "\u00b3"],
     "argument --rank: invalid int value: '\u00b3'"),
    (["gate", "S(12)", "--codim", "\u0661"],
     "argument --codim: invalid int value: '\u0661'"),
    (["tgeo", "C", "\u0663", "23", "--codim", "7"],
     "argument p: invalid int value: '\u0663'"),
    (["tgeo", "C", "3", "\u0662\u0663", "--codim", "7"],
     "argument n: invalid int value: '\u0662\u0663'"),
    (["tgeo", "C", "3", "23", "--codim", "7", "--index", "\u0661"],
     "argument --index: invalid int value: '\u0661'"),
    (["gate", "S(12)", "--codim", "1", "--delta", "\u0661"],
     "argument --delta: invalid float value: '\u0661'"),
    (["gate", "S(12)", "--codim", "1", "--delta", "\uff11"],
     "argument --delta: invalid float value: '\uff11'"),
    (["gate", "S(12)", "--codim", "1", "--focal-r", "0.\u0665"],
     "argument --focal-r: invalid float value: '0.\u0665'"),
], ids=("max-dim", "max-candidates", "max-listed", "max-degree", "max-param",
        "rank", "codim", "tgeo-p", "tgeo-n", "index", "delta",
        "delta-fullwidth", "focal-r"))
def test_numeric_options_take_ascii_digits_only(capsys, argv, message):
    """``int`` reads '\u0661\u0662\u0660' as 120 and ``float`` reads
    '\uff11' as 1; every numeric option rejects them as one ``error:``
    line, as a space spec does."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["corollary1-check", "--max-dim", "-5"],
     "max_dim >= 11 required (no valid space is smaller)"),
    (["gate", "S(12)", "--codim", "-1"],
     "codim >= 1 for a proper submanifold"),
    (["dump-roots", "A", "--rank", "-2"], "A requires rank >= 1, got -2"),
    (["gate", "S(12)", "--codim", "1", "--focal-r", "-0.5"],
     "focal radius floor must lie in [0, pi/2)"),
    (["tgeo", "C", "3", "23", "--codim", "0"],
     "codim >= 1 for a proper submanifold"),
    (["tgeo", "C", "3", "23", "--codim", "-1"],
     "codim >= 1 for a proper submanifold"),
    (["tgeo", "C", "3", "23", "--codim", "1", "--index", "0"],
     "index bound >= 1 required"),
    (["tgeo", "C", "3", "23", "--codim", "1", "--index", "-5"],
     "index bound >= 1 required"),
], ids=("max-dim", "codim", "rank", "focal-r", "tgeo-codim-0",
        "tgeo-codim-negative", "tgeo-index-0", "tgeo-index-negative"))
def test_signed_ascii_options_reach_their_range_checks(capsys, argv,
                                                       message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_json_output_is_schema_versioned(capsys):
    code, out = run(capsys, "kp", "S(12)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 2
    assert payload["k_P"] == 1 and payload["dim"] == 12


def test_repeat_invocation_is_identical(capsys):
    for argv in (("homotopy", "EVII"), ("kp", "AI(11) x S(12)"),
                 ("distinguish", "AI(12)", "AII(6)", "--format", "json")):
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second


def test_bad_space_exits_nonzero(capsys):
    code = main(["kp", "XYZ(3)"])
    captured = capsys.readouterr()
    assert code == 2 and "error:" in captured.err
    assert main(["decompose", "S(3) x S(4)"]) == 2
    assert capsys.readouterr().err == \
        "error: expected a single irreducible space (at position 0)\n"


@pytest.mark.parametrize("argv, message", [
    (["homotopy", "S(7)", "--max-degree", "99"],
     "argument --max-degree: invalid choice: 99 "
     "(choose from 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)"),
    (["kp"], "the following arguments are required: space"),
    (["corollary1-check", "--max-dim", "120", "--max-listed", "-1"],
     "argument --max-listed: expected an integer >= 0, got '-1'"),
    (["decompose", "S(12)", "--max-candidates", "-1"],
     "argument --max-candidates: expected an integer >= 0, got '-1'"),
    (["no-such-command"], "argument command: invalid choice: "
     "'no-such-command' (choose from 'table', 'kp', 'homotopy', "
     "'distinguish', 'corollary1-check', 'decompose', 'gate', 'tgeo', "
     "'dump-roots')"),
], ids=("invalid-choice", "missing-positional", "negative-count",
        "negative-node-bound", "unknown-command"))
def test_argparse_rejection_is_one_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_module_entry_point_reads_its_own_argv(capsys):
    """``python -m symcart.cli`` passes no argv to ``main``, which picks
    its command from ``sys.argv``: no arguments is argparse's one error
    line, and a kp call prints what the same call prints in-process."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(symcart.__file__)))

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "symcart.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)

    done = module()
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == \
        "error: the following arguments are required: command\n"
    argv = ["kp", "SU(5)", "--format", "json"]
    done = module(*argv)
    code, out = run(capsys, *argv)
    assert code == 0 and (done.returncode, done.stdout, done.stderr) == \
        (0, out, "")


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kp", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: symcart kp [-h]")


# each command with its required arguments only
_CALLS = {"table": ["table", "exceptional"], "kp": ["kp", "S(12)"],
          "homotopy": ["homotopy", "S(7)"],
          "distinguish": ["distinguish", "S(7)", "S(8)"],
          "corollary1-check": ["corollary1-check"],
          "decompose": ["decompose", "S(12)"],
          "gate": ["gate", "S(12)", "--codim", "1"],
          "tgeo": ["tgeo", "C", "3", "23", "--codim", "7"],
          "dump-roots": ["dump-roots", "G2"]}


@pytest.mark.parametrize("argv", [
    *(_CALLS[c] + ["--data-dir", "X"]
      for c in ("kp", "table", "gate", "tgeo", "dump-roots")),
    *(_CALLS[c] + ["--max-candidates", "3"] for c in _CALLS
      if c != "decompose"),
], ids=lambda argv: f"{argv[0]} {' '.join(argv[-2:])}")
def test_options_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == \
        f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"


def test_data_dir_reaches_the_tables(capsys, tmp_path):
    for f in (Path(symcart.__file__).parent / "data").glob("*.txt"):
        shutil.copy(f, tmp_path)
    grassmannians = tmp_path / "real_grassmannians.txt"
    text = grassmannians.read_text()
    assert "BDI(2,q) | q >= 11 | 2=Z\n" in text
    grassmannians.write_text(text.replace("BDI(2,q) | q >= 11 | 2=Z\n",
                                          "BDI(2,q) | q >= 11 | 2=Z; 9=Z_2\n"))
    for data, pi_9, verdict in (
            ([], "0", "Indistinguishable(9)"),
            (["--data-dir", str(tmp_path)], "Z_2",
             "Distinguishable(degree=9, field=Z_2, ranks [0,0] vs [1,1])")):
        code, out = run(capsys, "homotopy", "Gr(R,2,13)", *data)
        assert code == 0 and f"pi_9(BDI(2,11)) = {pi_9}\n" in out
        code, out = run(capsys, "distinguish", "CP(5)", "Gr(R,2,13)", *data)
        assert code == 0 and out == f"{verdict}\n"


@pytest.mark.parametrize("row, message", [
    ("E6 | - | 2=Z | 3=Z", "expected 3 '|'-separated fields, found 4"),
    ("BDI(3,q) | q >= | 2=Z", "guard 'q >=' does not parse"),
    ("E6 | - | 4=Z_11", "group 'Z_11' has prime 11; cells are compared "
                        "over ('Q', 2, 3, 5, 7) only\n"),
    ("S(\u00b2) | - | 2=Z", "bad pattern 'S(\u00b2)'\n"),
    ("BDI(p,q) | k < q - p | 2=Z", "guard 'k < q - p' compares p and q in "
                                   "one comparison; each may read one "
                                   "parameter besides k\n"),
    ("BDI(k,q) | k >= 9 | 9=Z_5", "pattern 'BDI(k,q)' names a parameter k, "
                                  "which guards read as the degree\n"),
    ("BDI(p,p) | - | 2=Z_5", "pattern 'BDI(p,p)' names p twice\n"),
])
def test_a_malformed_data_row_is_one_error_line(capsys, tmp_path, row,
                                                message):
    for f in (Path(symcart.__file__).parent / "data").glob("*.txt"):
        shutil.copy(f, tmp_path)
    table = tmp_path / "exceptional.txt"
    text = table.read_text()
    table.write_text(text + row + "\n")
    lineno = text.count("\n") + 1
    code = main(["homotopy", "S(7)", "--data-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {table}:{lineno}: {message}")
    assert captured.err.count("\n") == 1


def test_a_guard_dividing_by_a_variable_is_one_error_line(capsys, tmp_path):
    """Any ``//`` or ``%`` in a guard, by a variable or a constant, is a
    malformed row: one ``error:`` line, exit 2."""
    for f in (Path(symcart.__file__).parent / "data").glob("*.txt"):
        shutil.copy(f, tmp_path)
    table = tmp_path / "exceptional.txt"
    text = table.read_text()
    lineno = text.count("\n") + 1
    for guard, construct in (("k // (k - k) >= 1", "FloorDiv"),
                             ("k // 3 >= 1", "FloorDiv"),
                             ("k % 4 == 2", "Mod")):
        table.write_text(text + f"E6 | {guard} | 2=Z\n")
        code = main(["homotopy", "E6", "--data-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: {table}:{lineno}: disallowed "
                                f"construct {construct} in guard "
                                f"{guard!r}\n")


def test_a_data_dir_without_the_tables_is_one_error_line(capsys, tmp_path):
    code = main(["distinguish", "S(7)", "S(8)", "--data-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == \
        f"error: homotopy table {tmp_path / 'spheres.txt'} not found\n"
