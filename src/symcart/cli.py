"""Command-line front end for the symmetric-space catalog.

Commands: ``table``, ``kp``, ``homotopy``, ``distinguish``,
``corollary1-check``, ``decompose``, ``gate``, ``tgeo``, ``dump-roots``.
Every command is a pure function of its arguments and the shipped data
files, so repeated invocations are byte-identical.  Each ``cmd_*``
returns ``(payload, exit code)``; ``main`` prints the payload as one
schema-versioned JSON object (``--format json``) or as the lines that
the command's text renderer derives from it.  An option is attached only
to the commands that read it.

``COMMANDS`` declares each command once: its ``cmd_*`` function, text
renderer, help line and arguments.  When the first argument names a
command and the rest are plainly well-formed, ``main`` reads them
straight from the table (``_read_args``) into the namespace argparse
would make, and builds no parser.  argparse handles every other call
(help, a rejected call, no or an unknown command), so help, usage and
error text are its own; they come from the whole program's parser,
built from the same table once per process, which holds no per-call
state.  ``COMMANDS`` binds the functions when the module is imported: a
test that replaces one replaces its table entry.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache
from typing import List, Tuple

from .abelian import format_group
from .catalog import (EXCEPTIONAL_SYMBOLS, GRASSMANNIANS, ProductSpace,
                      ReducibleError, SpaceInstance, classical_presentations,
                      instantiate, product_kp, reference_classical,
                      reference_exceptional)
from .geom import HypothesisSet, theorem_a_gate, theorem_b_check
from .homotopy import DEFAULT_DEGREE, MAX_DEGREE, profile
from .recognize import (MAX_CANDIDATES, CandidateOverflow, corollary1_scan,
                        decompose, distinguish)
from .rootsys import RootSystemType, positive_roots

SCHEMA_VERSION = 2


class SpaceSyntaxError(ValueError):
    """Malformed or unsatisfiable space spec, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_SPACE_RE = re.compile(r"\s*")


def _int_arg(text: str, pos: int) -> int:
    if not (text.isascii() and text.isdigit()):    # not '²' or '١٢'
        raise SpaceSyntaxError(f"expected an integer, got {text!r}", pos)
    return int(text)


def _resolve_factor(name: str, args: Tuple[str, ...],
                    pos: int) -> List[SpaceInstance]:
    if name == "Gr":
        if len(args) != 3 or args[0] not in GRASSMANNIANS:
            raise SpaceSyntaxError("Gr takes (R|C|H, p, n)", pos)
        p = _int_arg(args[1], pos)
        n = _int_arg(args[2], pos)
        if not 1 <= p < n:
            raise SpaceSyntaxError("Gr(F,p,n) needs 1 <= p < n", pos)
        symbol = GRASSMANNIANS[args[0]][0]
        params = (min(p, n - p), max(p, n - p))
    elif name in ("CP", "HP"):
        if len(args) != 1:
            raise SpaceSyntaxError(f"{name} takes one parameter", pos)
        # FP^n is the Grassmannian Gr(F, 1, n+1) of lines
        symbol = GRASSMANNIANS[name[0]][0]
        params = (1, _int_arg(args[0], pos))
    else:
        symbol = name
        params = tuple(_int_arg(a, pos) for a in args)
    try:
        return [instantiate(symbol, params)]
    except ReducibleError as err:
        return [instantiate(s, ps) for s, ps in err.factors]
    except ValueError as err:         # ConstraintError among them
        raise SpaceSyntaxError(str(err), pos) from err


def parse_space(text: str) -> ProductSpace:
    """Parse a space spec such as ``"Gr(R,3,10)"`` or ``"AI(11) x S(12)"``.

    Aliases expand to catalog classes, special isomorphisms rewrite to
    canonical representatives, and reducible presentations such as
    ``Spin(4)`` become products of their factors.
    """
    factors: List[SpaceInstance] = []
    pos = _SPACE_RE.match(text).end()
    while True:
        m = _NAME_RE.match(text, pos)
        if not m:
            raise SpaceSyntaxError("expected a space name", pos)
        name, start = m.group(0), pos
        pos = m.end()
        args: Tuple[str, ...] = ()
        if pos < len(text) and text[pos] == "(":
            close = text.find(")", pos)
            if close < 0:
                raise SpaceSyntaxError("unclosed '('", pos)
            args = tuple(a.strip() for a in text[pos + 1:close].split(","))
            pos = close + 1
        factors.extend(_resolve_factor(name, args, start))
        pos = _SPACE_RE.match(text, pos).end()
        if pos == len(text):
            return ProductSpace(tuple(factors))
        if text[pos] != "x":
            raise SpaceSyntaxError("expected 'x' between factors", pos)
        pos = _SPACE_RE.match(text, pos + 1).end()


def _single_factor(text: str) -> SpaceInstance:
    space = parse_space(text)
    if len(space.factors) != 1:
        raise SpaceSyntaxError("expected a single irreducible space", 0)
    return space.factors[0]


def _instance_row(s: SpaceInstance) -> dict:
    return {"space": s.label(), "dim": s.dim, "rank": s.rank, "k_P": s.kp,
            "d_P": s.dp, "C_P": str(s.cp), "valid": s.valid}


# the table has about max_param^2 rows: `table classical --max-param 120`
# took 1.0 s and 46 MB peak RSS as a whole process (1.2 s and 52 MB with
# --check --format json; Python 3.11, 2-vCPU Xeon host), 240 took 3.9 s
# and 133 MB
MAX_TABLE_PARAM = 120
DEFAULT_TABLE_PARAM = 30


def cmd_table(args) -> Tuple[dict, int]:
    if args.kind == "classical":
        max_param = (DEFAULT_TABLE_PARAM if args.max_param is None
                     else args.max_param)
        if max_param > MAX_TABLE_PARAM:
            raise ValueError(f"--max-param {max_param} exceeds "
                             f"MAX_TABLE_PARAM = {MAX_TABLE_PARAM}")
        if max_param < 2:             # no reference row has a parameter < 2
            raise ValueError(f"--max-param {max_param} lists no row: "
                             f"expected 2 <= --max-param <= {MAX_TABLE_PARAM}")
        published = [(f"{symbol}({','.join(map(str, params))})",
                      instantiate(symbol, params),
                      reference_classical(symbol, params))
                     for symbol, params in classical_presentations(max_param)]
    elif args.max_param is not None:  # the exceptional table is fixed
        raise ValueError("--max-param applies to the classical table only")
    else:
        published = [(symbol, instantiate(symbol),
                      reference_exceptional(symbol))
                     for symbol in EXCEPTIONAL_SYMBOLS]
    rows, mismatches = [], []
    for label, s, ref in published:
        rows.append({"presentation": label, "canonical": s.label(),
                     "dim": s.dim, "d_P": s.dp, "k_P": s.kp, "C_P": str(s.cp)})
        if args.check:                # the exceptional rows publish no C_P
            mismatches += [{"row": label, "column": col,
                            "published": str(want), "computed": str(got)}
                           for col, got, want in zip(("d_P", "k_P", "C_P"),
                                                     (s.dp, s.kp, s.cp), ref)
                           if got != want]
    payload = {"command": "table", "kind": args.kind, "rows": rows}
    if args.check:
        payload["mismatches"] = mismatches
    return payload, 1 if mismatches else 0


def _text_table(p, args):
    yield f"{'presentation':<14} {'dim':>5} {'d_P':>5} {'k_P':>6} {'C_P':>8}"
    for r in p["rows"]:
        yield (f"{r['presentation']:<14} {r['dim']:>5} {r['d_P']:>5} "
               f"{r['k_P']:>6} {r['C_P']:>8}")
    if "mismatches" in p:
        for m in p["mismatches"]:
            yield (f"MISMATCH {m['row']} {m['column']}: published "
                   f"{m['published']}, computed {m['computed']}")
        yield (f"check: {len(p['mismatches'])} mismatch(es) in "
               f"{len(p['rows'])} rows")


def cmd_kp(args) -> Tuple[dict, int]:
    space = parse_space(args.space)
    if len(space.factors) == 1:
        return {"command": "kp", **_instance_row(space.factors[0])}, 0
    k = product_kp(space)
    return {"command": "kp", "space": space.label(), "dim": space.dim,
            "k_P": k, "d_P": space.dim - k,
            "factors": [_instance_row(f) for f in space.factors]}, 0


def _text_kp(p, args):
    # a product's payload has no rank, C_P or validity of its own
    yield f"{p['space']}: " + " ".join(
        f"{key}={p[key]}"
        for key in ("dim", "rank", "k_P", "d_P", "C_P", "valid") if key in p)


def cmd_homotopy(args) -> Tuple[dict, int]:
    space = parse_space(args.space)
    prof = profile(space, args.max_degree, args.data_dir)
    return {"command": "homotopy", "space": space.label(),
            "max_degree": args.max_degree,
            "groups": {str(k): format_group(g) for k, g in prof.items()}}, 0


def _text_homotopy(p, args):
    for k, group in p["groups"].items():
        yield f"pi_{k}({p['space']}) = {group}"


def cmd_distinguish(args) -> Tuple[dict, int]:
    a, b = parse_space(args.a), parse_space(args.b)
    v = distinguish(a, b, args.max_degree, args.data_dir)
    payload = {"command": "distinguish", "a": a.label(), "b": b.label(),
               "kind": v.kind, "verdict": str(v)}
    if v.degree:
        payload["degree"] = v.degree
        payload["field"] = str(v.field)
    return payload, 0


def _text_verdict(p, args):
    yield p["verdict"]


# the largest scan measured: `corollary1-check --max-dim 2000` took 0.13 s
# and 19 MB peak RSS as a whole process from source (0.09 s and 18 MB from
# bytecode), against 0.11 s and 17 MB (0.08 s, 16 MB) at 300, of which the
# interpreter's start-up (`python3 -c pass`) took 0.04 s (median of 7 runs;
# Python 3.11, 2-vCPU Xeon host).  The scan reads regions and counts its
# pairs, but this command lists every violation and undetermined pair,
# about 1.5 per unit of max_dim at degree 9, so the bound stays
MAX_SCAN_DIM = 2000


def cmd_corollary1_check(args) -> Tuple[dict, int]:
    if args.max_dim > MAX_SCAN_DIM:
        raise ValueError(f"--max-dim {args.max_dim} exceeds MAX_SCAN_DIM = "
                         f"{MAX_SCAN_DIM}")
    report = corollary1_scan(args.max_dim, args.max_degree, args.data_dir)

    def listed(pairs):
        return [{"a": a.label(), "b": b.label(), "verdict": str(v)}
                for a, b, v in pairs]
    return {"command": "corollary1-check", "max_dim": report.max_dim,
            "max_degree": report.max_degree, "instances": report.instances,
            "distinguishable_pairs": report.distinguishable_pairs,
            "blind_pairs": len(report.blind_pairs),
            "violations": listed(report.violations),
            "undetermined": listed(report.undetermined),
            "clean": report.clean}, 0 if report.clean else 1


def _text_corollary1_check(p, args):
    yield f"instances: {p['instances']}"
    yield f"distinguishable pairs: {p['distinguishable_pairs']}"
    yield f"blind pairs: {p['blind_pairs']}"
    for bucket in ("violations", "undetermined"):
        yield f"{bucket}: {len(p[bucket])}"
    for bucket, name in (("violations", "violation"),
                         ("undetermined", "undetermined")):
        for pair in p[bucket][:args.max_listed]:
            yield f"{name}: {pair['a']} vs {pair['b']}: {pair['verdict']}"
    yield "clean" if p["clean"] else "NOT CLEAN"


def cmd_decompose(args) -> Tuple[dict, int]:
    if args.max_candidates > MAX_CANDIDATES:
        raise ValueError(f"--max-candidates {args.max_candidates} exceeds "
                         f"MAX_CANDIDATES = {MAX_CANDIDATES}")
    s = _single_factor(args.space)
    try:
        results = decompose(s, args.max_degree, args.max_candidates,
                            args.data_dir)
    except CandidateOverflow as err:      # a named bound, like --max-dim's
        raise ValueError(f"decomposition search exceeded --max-candidates = "
                         f"{args.max_candidates} nodes") from err
    return {"command": "decompose", "space": s.label(),
            "max_degree": args.max_degree,
            "candidates": [{"product": r.label(), "dim": r.dim}
                           for r in results]}, 0


def _text_decompose(p, args):
    for c in p["candidates"]:
        yield f"{c['product']} (dim {c['dim']})"
    yield f"{len(p['candidates'])} candidate(s)"


def cmd_gate(args) -> Tuple[dict, int]:
    s = _single_factor(args.space)
    v = theorem_a_gate(s, HypothesisSet(args.delta, args.focal_r, args.codim))
    payload = {"command": "gate", "space": s.label(), "kind": v.kind,
               "reason": v.reason, "allowed": v.allowed,
               "verdict": str(v)}
    if v.trace_bound is not None:
        payload["trace_bound"] = v.trace_bound
    return payload, 0


def cmd_tgeo(args) -> Tuple[dict, int]:
    v = theorem_b_check(args.field, args.p, args.n, args.codim, args.index)
    payload = {"command": "tgeo", "field": args.field, "p": args.p,
               "n": args.n, "codim": args.codim,
               "ambient": v.ambient.label(), "C_P": str(v.cp),
               "index_bound": v.index_bound, "applicable": v.applicable,
               "verdict": str(v)}
    if v.min_meridian_codim is not None:
        payload["min_meridian_codim"] = v.min_meridian_codim
    return payload, 0


# dump-roots lists every positive root, about rank^2 roots of rank
# coefficients each; past this rank the listing outgrows any use of it
MAX_DUMP_RANK = 32


def cmd_dump_roots(args) -> Tuple[dict, int]:
    if args.rank > MAX_DUMP_RANK:
        raise ValueError(f"--rank {args.rank} exceeds MAX_DUMP_RANK = "
                         f"{MAX_DUMP_RANK} (the output grows as rank^3)")
    t = RootSystemType(args.type, args.rank)
    roots = positive_roots(t)
    return {"command": "dump-roots", "type": args.type, "rank": t.rank,
            "count": len(roots),
            "roots": [{"coeffs": list(r.coeffs), "class": r.length_class}
                      for r in roots]}, 0


def _text_dump_roots(p, args):
    for r in p["roots"]:
        yield f"{' '.join(map(str, r['coeffs']))}  {r['class']}"
    yield f"{p['count']} positive roots"


def _ascii(number):
    """An argparse type: ``number`` (``int`` or ``float``) of ASCII text,
    a sign included.  Other digits, which ``number`` would read too ('١٢'
    as 12, '１' as 1), are rejected, as they are in a space spec."""
    def read(text: str):
        if text.isascii():
            try:
                return number(text)
            except ValueError:
                pass
        raise argparse.ArgumentTypeError(
            f"invalid {number.__name__} value: {text!r}")
    return read


_integer, _real = _ascii(int), _ascii(float)


def _count(text: str) -> int:
    """An argparse type: an integer >= 0, in ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are one ``error:`` line.

    argparse prints its usage block before the message; this parser, and
    the subcommand parsers it creates, print only ``error: <message>`` on
    stderr and exit 2, as the commands do for their own errors.
    """

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _arg(*flags, **kwargs):
    """One ``add_argument`` call, kept as data until a parser is built."""
    return flags, kwargs


_FORMAT = _arg("--format", choices=("text", "json"), default="text")
_SPACE = _arg("space")
_CELLS = (      # the options of the commands that read pi_k cells
    _arg("--max-degree", type=_integer, default=DEFAULT_DEGREE,
         choices=range(1, MAX_DEGREE + 1)),
    _arg("--data-dir", default=None,
         help="override the bundled homotopy data files"))

# each command once: its function, its text renderer, its help line and
# its arguments after _FORMAT, which every command takes
COMMANDS = {
    "table": (cmd_table, _text_table,
              "reproduce the classical/exceptional tables", (
                  _arg("kind", choices=("classical", "exceptional")),
                  _arg("--check", action="store_true",
                       help="compare against the published values; exit "
                            "nonzero on any mismatch"),
                  _arg("--max-param", type=_integer, default=None,
                       help="largest parameter of the classical table "
                            f"(default {DEFAULT_TABLE_PARAM})"))),
    "kp": (cmd_kp, _text_kp, "dim, rank, k_P, d_P, C_P of a space",
           (_SPACE,)),
    "homotopy": (cmd_homotopy, _text_homotopy,
                 "homotopy groups of a space through a degree",
                 (*_CELLS, _SPACE)),
    "distinguish": (cmd_distinguish, _text_verdict,
                    "compare the homotopy profiles of two spaces",
                    (*_CELLS, _arg("a"), _arg("b"))),
    "corollary1-check": (cmd_corollary1_check, _text_corollary1_check,
                         "pairwise recognition scan over the catalog", (
                             *_CELLS,
                             _arg("--max-dim", type=_integer, default=300),
                             _arg("--max-listed", type=_count, default=20,
                                  help="cap on violations/undetermined "
                                       "pairs listed as text"))),
    "decompose": (cmd_decompose, _text_decompose,
                  "products indistinguishable from the ambient", (
                      *_CELLS, _SPACE,
                      _arg("--max-candidates", type=_count,
                           default=MAX_CANDIDATES,
                           help="node budget for the decomposition search"))),
    "gate": (cmd_gate, _text_verdict,
             "allowed submanifold types for an ambient space", (
                 _SPACE, _arg("--codim", type=_integer, required=True),
                 _arg("--delta", type=_real, default=1.0),
                 _arg("--focal-r", type=_real, default=0.0))),
    "tgeo": (cmd_tgeo, _text_verdict,
             "meridian obstruction gate for Grassmannians", (
                 _arg("field", choices=tuple(GRASSMANNIANS)),
                 _arg("p", type=_integer), _arg("n", type=_integer),
                 _arg("--codim", type=_integer, required=True),
                 _arg("--index", type=_integer, default=None,
                      help="override the bundled index lower bound"))),
    "dump-roots": (cmd_dump_roots, _text_dump_roots,
                   "positive roots of a restricted root system", (
                       _arg("type",
                            help="A, B, C, D, BC, E6, E7, E8, F4 or G2"),
                       _arg("--rank", type=_integer, default=0))),
}


def _arguments(command):
    """The ``_arg`` entries of ``command``, ``--format`` first."""
    return (_FORMAT, *COMMANDS[command][3])


def _add_arguments(parser, command):
    func, render, _, _ = COMMANDS[command]
    parser.set_defaults(func=func, render=render)
    for flags, kwargs in _arguments(command):
        parser.add_argument(*flags, **kwargs)


def _dest(flags):
    return flags[0].lstrip("-").replace("-", "_")


def _read_args(command, argv):
    """The namespace that ``command``'s parser makes of ``argv``, the
    arguments after the command name, read from ``COMMANDS`` without
    argparse; or None, and argparse judges the call.

    Only a plainly well-formed call is read: each option given at most
    once, by its exact option string, and followed by a value that does
    not start with ``-``; every positional and required option present;
    every value accepted by its ``type`` and ``choices``.  Any other token
    starting with ``-`` (``-h``, an abbreviation, ``--opt=value``, ``--``,
    a negative number) returns None, so argparse alone words help and
    errors.  The table's ``_arg`` keywords are ``type``, ``choices``,
    ``default``, ``required``, ``action="store_true"`` and ``help``.
    """
    arguments = _arguments(command)
    options = {flags[0]: (_dest(flags), kwargs)
               for flags, kwargs in arguments if flags[0][0] == "-"}
    positionals = iter([(_dest(flags), kwargs)
                        for flags, kwargs in arguments if flags[0][0] != "-"])
    given = {}
    tokens = iter(argv)
    for token in tokens:
        if token[:1] == "-":
            dest, kwargs = options.get(token, (None, None))
            if dest is None or dest in given:
                return None
            if kwargs.get("action") == "store_true":
                given[dest] = True
                continue
            token = next(tokens, "-")      # a missing value reads as "-"
            if token[:1] == "-":
                return None
        else:
            dest, kwargs = next(positionals, (None, None))
            if dest is None:
                return None
        try:
            value = kwargs.get("type", str)(token)
        except Exception:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[dest] = value
    if next(positionals, None) is not None:
        return None
    func, render, _, _ = COMMANDS[command]
    args = argparse.Namespace(command=command, func=func, render=render)
    for flags, kwargs in arguments:
        dest = _dest(flags)
        if dest in given:
            value = given[dest]
        elif kwargs.get("required"):
            return None
        elif kwargs.get("action") == "store_true":
            value = False
        else:
            value = kwargs.get("default")
        setattr(args, dest, value)
    return args


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The whole program's parser.  A well-formed call is read by
    ``_read_args`` instead; argparse parses the calls that ask for help
    or that it rejects."""
    parser = _Parser(
        prog="symcart",
        description="Ricci thresholds, orbit codimensions and homotopy "
                    "recognition for compact symmetric spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    if argv and argv[0] in COMMANDS:
        args = _read_args(argv[0], argv[1:])
    if args is None:      # help, a rejected call, no or an unknown command
        args = _build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
    except ValueError as err:        # spec, constraint and bound errors
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({**payload, "schema_version": SCHEMA_VERSION},
                         sort_keys=True))
    else:
        for line in args.render(payload, args):
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
