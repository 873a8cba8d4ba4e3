"""Command-line front end for the symmetric-space catalog.

Commands: ``table``, ``kp``, ``homotopy``, ``distinguish``,
``corollary1-check``, ``decompose``, ``gate``, ``tgeo``, ``dump-roots``.
Every command is a pure function of its arguments and the shipped data
files, so repeated invocations are byte-identical.  ``--format json``
emits one schema-versioned JSON object per invocation.

``main`` builds the argument parser on its first call and reuses it for
every later call in the same process; the ``symcart`` command calls it
once per process, so only a caller that calls ``main`` repeatedly gains.
The parser holds no per-call state: each ``parse_args`` returns a fresh
namespace, and the command functions read this module's globals when
they run.  The parser binds each subcommand to its ``cmd_*`` function
when it is built, so a test that replaces a ``cmd_*`` function must call
``_build_parser.cache_clear()`` before its next ``main`` call.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .abelian import format_group
from .catalog import (EXCEPTIONAL_SYMBOLS, GRASSMANNIANS, ConstraintError,
                      ProductSpace, ReducibleError, SpaceInstance,
                      classical_presentations, instantiate, product_kp,
                      reference_classical, reference_exceptional)
from .geom import HypothesisSet, theorem_a_gate, theorem_b_check
from .homotopy import MAX_DEGREE, profile
from .recognize import corollary1_scan, decompose, distinguish
from .rootsys import EXTRA_LONG, LONG, SHORT, RootSystemType, positive_roots

SCHEMA_VERSION = 1


class SpaceSyntaxError(ValueError):
    """Malformed or unsatisfiable space spec, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


def _int_arg(text: str, pos: int) -> int:
    if not text.isdigit():
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
    except (ConstraintError, ValueError) as err:
        raise SpaceSyntaxError(str(err), pos) from err


def parse_space(text: str) -> ProductSpace:
    """Parse a space spec such as ``"Gr(R,3,10)"`` or ``"AI(11) x S(12)"``.

    Aliases expand to catalog classes, special isomorphisms rewrite to
    canonical representatives, and reducible presentations such as
    ``Spin(4)`` become products of their factors.
    """
    factors: List[SpaceInstance] = []
    pos = 0
    while pos < len(text) and text[pos].isspace():
        pos += 1
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
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            break
        if text[pos] != "x":
            raise SpaceSyntaxError("expected 'x' between factors", pos)
        pos += 1
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return ProductSpace(tuple(factors))


def _single_factor(text: str) -> SpaceInstance:
    space = parse_space(text)
    if len(space.factors) != 1:
        raise SpaceSyntaxError("expected a single irreducible space", 0)
    return space.factors[0]


def _rat(x: Fraction) -> str:
    return str(x)


def _emit(args, payload: dict, lines: List[str]) -> None:
    if args.format == "json":
        payload["schema_version"] = SCHEMA_VERSION
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _instance_row(s: SpaceInstance) -> dict:
    return {"space": s.label(), "dim": s.dim, "rank": s.rank, "k_P": s.kp,
            "d_P": s.dp, "C_P": _rat(s.cp), "valid": s.valid}


def cmd_table(args) -> int:
    rows = []
    mismatches = []
    if args.kind == "classical":
        for symbol, params in classical_presentations(args.max_param):
            s = instantiate(symbol, params)
            ref = reference_classical(symbol, params)
            label = f"{symbol}({','.join(map(str, params))})"
            rows.append({"presentation": label, "canonical": s.label(),
                         "dim": s.dim, "d_P": s.dp, "k_P": s.kp,
                         "C_P": _rat(s.cp)})
            if args.check:
                for col, got, want in (("d_P", s.dp, ref[0]),
                                       ("k_P", s.kp, ref[1]),
                                       ("C_P", s.cp, ref[2])):
                    if got != want:
                        mismatches.append({"row": label, "column": col,
                                           "published": _rat(Fraction(want)),
                                           "computed": _rat(Fraction(got))})
    else:
        for symbol in EXCEPTIONAL_SYMBOLS:
            s = instantiate(symbol)
            dp_ref, kp_ref = reference_exceptional(symbol)
            rows.append({"presentation": symbol, "canonical": s.label(),
                         "dim": s.dim, "d_P": s.dp, "k_P": s.kp,
                         "C_P": _rat(s.cp)})
            if args.check:
                for col, got, want in (("d_P", s.dp, dp_ref),
                                       ("k_P", s.kp, kp_ref)):
                    if got != want:
                        mismatches.append({"row": symbol, "column": col,
                                           "published": str(want),
                                           "computed": str(got)})
    lines = [f"{'presentation':<14} {'dim':>5} {'d_P':>5} {'k_P':>6} {'C_P':>8}"]
    for r in rows:
        lines.append(f"{r['presentation']:<14} {r['dim']:>5} {r['d_P']:>5} "
                     f"{r['k_P']:>6} {r['C_P']:>8}")
    if args.check:
        for m in mismatches:
            lines.append(f"MISMATCH {m['row']} {m['column']}: published "
                         f"{m['published']}, computed {m['computed']}")
        lines.append(f"check: {len(mismatches)} mismatch(es) in {len(rows)} rows")
    payload = {"command": "table", "kind": args.kind, "rows": rows}
    if args.check:
        payload["mismatches"] = mismatches
    _emit(args, payload, lines)
    return 1 if mismatches else 0


def cmd_kp(args) -> int:
    space = parse_space(args.space)
    if len(space.factors) == 1:
        s = space.factors[0]
        payload = {"command": "kp", **_instance_row(s)}
        lines = [f"{s.label()}: dim={s.dim} rank={s.rank} k_P={s.kp} "
                 f"d_P={s.dp} C_P={_rat(s.cp)} valid={s.valid}"]
    else:
        k = product_kp(space)
        payload = {"command": "kp", "space": space.label(), "dim": space.dim,
                   "k_P": k, "d_P": space.dim - k,
                   "factors": [_instance_row(f) for f in space.factors]}
        lines = [f"{space.label()}: dim={space.dim} k_P={k} "
                 f"d_P={space.dim - k}"]
    _emit(args, payload, lines)
    return 0


def cmd_homotopy(args) -> int:
    space = parse_space(args.space)
    prof = profile(space, args.max_degree, args.data_dir)
    groups = {k: format_group(g) for k, g in prof.items()}
    payload = {"command": "homotopy", "space": space.label(),
               "max_degree": args.max_degree,
               "groups": {str(k): v for k, v in groups.items()}}
    lines = [f"pi_{k}({space.label()}) = {groups[k]}"
             for k in sorted(groups)]
    _emit(args, payload, lines)
    return 0


def cmd_distinguish(args) -> int:
    a, b = parse_space(args.a), parse_space(args.b)
    v = distinguish(a, b, args.max_degree, args.data_dir)
    payload = {"command": "distinguish", "a": a.label(), "b": b.label(),
               "kind": v.kind, "verdict": str(v)}
    if v.degree:
        payload["degree"] = v.degree
        payload["field"] = str(v.field)
    _emit(args, payload, [str(v)])
    return 0


# the largest scan measured: dim 2000 took 4.8 s and 183 MB peak RSS on a
# 2-vCPU host; the blind-pair list grows about as max_dim^2
MAX_SCAN_DIM = 2000


def cmd_corollary1_check(args) -> int:
    if args.max_dim > MAX_SCAN_DIM:
        raise ValueError(f"--max-dim {args.max_dim} exceeds MAX_SCAN_DIM = "
                         f"{MAX_SCAN_DIM}")
    report = corollary1_scan(args.max_dim, args.max_degree, args.data_dir)
    payload = {"command": "corollary1-check", "max_dim": report.max_dim,
               "max_degree": report.max_degree,
               "instances": report.instances,
               "distinguishable_pairs": report.distinguishable_pairs,
               "blind_pairs": len(report.blind_pairs),
               "violations": [{"a": a.label(), "b": b.label(),
                               "verdict": str(v)}
                              for a, b, v in report.violations],
               "undetermined": [{"a": a.label(), "b": b.label(),
                                 "verdict": str(v)}
                                for a, b, v in report.undetermined],
               "clean": report.clean}
    lines = [f"instances: {report.instances}",
             f"distinguishable pairs: {report.distinguishable_pairs}",
             f"blind pairs: {len(report.blind_pairs)}",
             f"violations: {len(report.violations)}",
             f"undetermined: {len(report.undetermined)}"]
    for a, b, v in report.violations[:args.max_listed]:
        lines.append(f"violation: {a.label()} vs {b.label()}: {v}")
    for a, b, v in report.undetermined[:args.max_listed]:
        lines.append(f"undetermined: {a.label()} vs {b.label()}: {v}")
    lines.append("clean" if report.clean else "NOT CLEAN")
    _emit(args, payload, lines)
    return 0 if report.clean else 1


def cmd_decompose(args) -> int:
    s = _single_factor(args.space)
    results = decompose(s, args.max_degree, args.max_candidates,
                        args.data_dir)
    payload = {"command": "decompose", "space": s.label(),
               "max_degree": args.max_degree,
               "candidates": [{"product": r.label(), "dim": r.dim}
                              for r in results]}
    lines = [f"{r.label()} (dim {r.dim})" for r in results]
    lines.append(f"{len(results)} candidate(s)")
    _emit(args, payload, lines)
    return 0


def cmd_gate(args) -> int:
    s = _single_factor(args.space)
    h = HypothesisSet(args.delta, args.focal_r, args.codim)
    v = theorem_a_gate(s, h)
    payload = {"command": "gate", "space": s.label(), "kind": v.kind,
               "reason": v.reason, "allowed": v.allowed,
               "verdict": str(v)}
    if v.trace_bound is not None:
        payload["trace_bound"] = v.trace_bound
    _emit(args, payload, [str(v)])
    return 0


def cmd_tgeo(args) -> int:
    v = theorem_b_check(args.field, args.p, args.n, args.codim, args.index)
    payload = {"command": "tgeo", "field": args.field, "p": args.p,
               "n": args.n, "codim": args.codim,
               "ambient": v.ambient.label(), "C_P": _rat(v.cp),
               "index_bound": v.index_bound, "applicable": v.applicable,
               "verdict": str(v)}
    if v.min_meridian_codim is not None:
        payload["min_meridian_codim"] = v.min_meridian_codim
    _emit(args, payload, [str(v)])
    return 0


_CLASS_NAMES = {SHORT: "short", LONG: "long", EXTRA_LONG: "extra_long"}

# dump-roots lists every positive root, about rank^2 roots of rank
# coefficients each; past this rank the listing outgrows any use of it
MAX_DUMP_RANK = 32


def cmd_dump_roots(args) -> int:
    if args.rank > MAX_DUMP_RANK:
        raise ValueError(f"--rank {args.rank} exceeds MAX_DUMP_RANK = "
                         f"{MAX_DUMP_RANK} (the output grows as rank^3)")
    t = RootSystemType(args.type, args.rank)
    roots = positive_roots(t)
    payload = {"command": "dump-roots", "type": args.type, "rank": t.rank,
               "count": len(roots),
               "roots": [{"coeffs": list(r.coeffs),
                          "class": _CLASS_NAMES[r.length_class]}
                         for r in roots]}
    lines = [f"{' '.join(map(str, r.coeffs))}  {_CLASS_NAMES[r.length_class]}"
             for r in roots]
    lines.append(f"{len(roots)} positive roots")
    _emit(args, payload, lines)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are one ``error:`` line.

    argparse prints its usage block before the message; this parser, and
    the subcommand parsers it creates, print only ``error: <message>`` on
    stderr and exit 2, as the commands do for their own errors.
    """

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--data-dir", default=None,
                        help="override the bundled homotopy data files")
    common.add_argument("--max-candidates", type=int, default=10 ** 6,
                        help="node budget for the decomposition search")

    parser = _Parser(
        prog="symcart",
        description="Ricci thresholds, orbit codimensions and homotopy "
                    "recognition for compact symmetric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", parents=[common],
                       help="reproduce the classical/exceptional tables")
    p.add_argument("kind", choices=("classical", "exceptional"))
    p.add_argument("--check", action="store_true",
                   help="compare against the published values; exit nonzero "
                        "on any mismatch")
    p.add_argument("--max-param", type=int, default=30)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("kp", parents=[common],
                       help="dim, rank, k_P, d_P, C_P of a space")
    p.add_argument("space")
    p.set_defaults(func=cmd_kp)

    p = sub.add_parser("homotopy", parents=[common],
                       help="homotopy groups of a space through a degree")
    p.add_argument("space")
    p.add_argument("--max-degree", type=int, default=9,
                   choices=range(1, MAX_DEGREE + 1))
    p.set_defaults(func=cmd_homotopy)

    p = sub.add_parser("distinguish", parents=[common],
                       help="compare the homotopy profiles of two spaces")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--max-degree", type=int, default=9,
                   choices=range(1, MAX_DEGREE + 1))
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("corollary1-check", parents=[common],
                       help="pairwise recognition scan over the catalog")
    p.add_argument("--max-dim", type=int, default=300)
    p.add_argument("--max-degree", type=int, default=9,
                   choices=range(1, MAX_DEGREE + 1))
    p.add_argument("--max-listed", type=int, default=20,
                   help="cap on violations/undetermined pairs listed as text")
    p.set_defaults(func=cmd_corollary1_check)

    p = sub.add_parser("decompose", parents=[common],
                       help="products indistinguishable from the ambient")
    p.add_argument("space")
    p.add_argument("--max-degree", type=int, default=9,
                   choices=range(1, MAX_DEGREE + 1))
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("gate", parents=[common],
                       help="allowed submanifold types for an ambient space")
    p.add_argument("space")
    p.add_argument("--codim", type=int, required=True)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--focal-r", type=float, default=0.0)
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("tgeo", parents=[common],
                       help="meridian obstruction gate for Grassmannians")
    p.add_argument("field", choices=tuple(GRASSMANNIANS))
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--codim", type=int, required=True)
    p.add_argument("--index", type=int, default=None,
                   help="override the bundled index lower bound")
    p.set_defaults(func=cmd_tgeo)

    p = sub.add_parser("dump-roots", parents=[common],
                       help="positive roots of a restricted root system")
    p.add_argument("type", help="A, B, C, D, BC, E6, E7, E8, F4 or G2")
    p.add_argument("--rank", type=int, default=0)
    p.set_defaults(func=cmd_dump_roots)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpaceSyntaxError, ConstraintError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
