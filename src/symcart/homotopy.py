"""Homotopy-group database pi_1..pi_10 for the catalog spaces.

The group tables ship as line-oriented text files under ``data/``, one
record per row:

    pattern | guard | k=<group>; k=<group>; ...

``pattern`` is a space pattern such as ``SU(3)``, ``BDI(3,q)`` or ``E6``;
``guard`` is a boolean expression over the pattern's parameters and the
degree ``k`` (``-`` for none).  Groups use the mini-grammar of
:mod:`symcart.abelian`.  Degrees missing from a record are trivial;
``?`` marks genuinely unknown cells.

Resolution order for pi(s, k): sphere rules, the complex-projective-space
fibration rule, the unstable tables, then the stable table (degree 10
stable values follow from mod-8 periodicity: pi_10 repeats the k=2
column).  Anything not covered is Unknown.

Which records match a space does not depend on the degree: each space is
matched against the tables once, and for each k only the guards of its
few matching records are evaluated.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from .abelian import (AbelianGroup, PartialAbelianGroup, compatible,
                      direct_sum, parse_group, INCOMPATIBLE)
from .catalog import ProductSpace, SpaceInstance, instantiate

MAX_DEGREE = 10

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

_ALLOWED_NODES = (ast.Expression, ast.BoolOp, ast.And, ast.Or, ast.UnaryOp,
                  ast.Not, ast.USub, ast.Compare, ast.BinOp, ast.Add,
                  ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod, ast.Eq,
                  ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                  ast.Name, ast.Load, ast.Constant)


@lru_cache(maxsize=None)
def _compile_guard(text: str, names: Tuple[str, ...]):
    """Compile a guard expression, allowing only arithmetic/comparison nodes
    over integer constants and the variables in ``names``."""
    tree = ast.parse(text, mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"disallowed construct {type(node).__name__} "
                             f"in guard {text!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, int):
            raise ValueError(f"non-integer constant in guard {text!r}")
        if isinstance(node, ast.Name) and node.id not in names:
            raise ValueError(f"unknown name {node.id!r} in guard {text!r}")
    return compile(tree, "<guard>", "eval")


@dataclass(frozen=True)
class HomotopyRecord:
    source: str
    symbol: str
    param_names: Tuple[str, ...]      # variable names or "" for fixed slots
    param_values: Tuple[Optional[int], ...]
    guard_text: str
    groups: Dict[int, PartialAbelianGroup]
    stable: bool                      # mod-8 periodic family

    def matches(self, s: SpaceInstance) -> bool:
        if s.symbol != self.symbol or len(s.params) != len(self.param_values):
            return False
        return all(v is None or v == p
                   for v, p in zip(self.param_values, s.params))

    def bindings(self, s: SpaceInstance) -> Dict[str, int]:
        return {name: p for name, p in zip(self.param_names, s.params) if name}

    def guard_holds(self, s: SpaceInstance, k: int) -> bool:
        if self.guard_text == "-":
            return True
        env = self.bindings(s)
        env["k"] = k
        code = _compile_guard(self.guard_text, tuple(env))
        return bool(eval(code, {"__builtins__": {}}, env))

    def value(self, k: int) -> PartialAbelianGroup:
        if self.stable and k == MAX_DEGREE and MAX_DEGREE not in self.groups:
            k = MAX_DEGREE - 8
        return self.groups.get(k, PartialAbelianGroup.trivial())


_PATTERN_RE = re.compile(r"^([A-Za-z0-9]+)(?:\(([^)]*)\))?$")


def _parse_record(line: str, source: str, stable: bool) -> HomotopyRecord:
    pattern, guard, cells = (part.strip() for part in line.split("|"))
    m = _PATTERN_RE.match(pattern)
    if not m:
        raise ValueError(f"bad pattern {pattern!r} in {source}")
    symbol, args = m.group(1), m.group(2)
    names, values = [], []
    if args:
        for piece in args.split(","):
            piece = piece.strip()
            if piece.isdigit():
                names.append("")
                values.append(int(piece))
            else:
                names.append(piece)
                values.append(None)
    groups = {}
    for cell in cells.split(";"):
        deg, _, group_text = cell.partition("=")
        k = int(deg.strip())
        if not 1 <= k <= MAX_DEGREE:
            raise ValueError(f"degree {k} out of range in {source}: {line!r}")
        groups[k] = parse_group(group_text)
    if guard != "-":                  # a guard names the parameters and k
        _compile_guard(guard, (*filter(None, names), "k"))
    return HomotopyRecord(source, symbol, tuple(names), tuple(values),
                          guard, groups, stable)


_FILES = (("spheres", False), ("unstable_classical", False),
          ("real_grassmannians", False), ("exceptional", False),
          ("stable", True))


@lru_cache(maxsize=None)
def load_records(data_dir: Optional[str] = None) -> Tuple[HomotopyRecord, ...]:
    records = []
    base = data_dir or _DATA_DIR
    for name, stable in _FILES:
        with open(os.path.join(base, name + ".txt")) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    records.append(_parse_record(line, name, stable))
    return tuple(records)


@lru_cache(maxsize=None)
def _records_for(s: SpaceInstance, data_dir=None) -> Tuple[HomotopyRecord, ...]:
    """The records whose pattern matches s, for every degree at once."""
    # load_records() and load_records(None) are separate lru_cache keys;
    # asking for the shipped tables one way parses them once per process
    records = load_records() if data_dir is None else load_records(data_dir)
    return tuple(rec for rec in records if rec.matches(s))


def _matching_records(s: SpaceInstance, k: int, data_dir=None):
    return [rec for rec in _records_for(s, data_dir) if rec.guard_holds(s, k)]


def pi_candidates(s: SpaceInstance, k: int, data_dir=None):
    """All applicable (source, value) pairs for pi_k(s), rules included."""
    if not 1 <= k <= MAX_DEGREE:
        raise ValueError(f"degree {k} out of range 1..{MAX_DEGREE}")
    out = []
    if s.symbol == "S":
        n = s.params[0]
        if k < n:
            out.append(("sphere_rule", PartialAbelianGroup.trivial()))
        elif k == n:
            out.append(("sphere_rule",
                        PartialAbelianGroup.exact(AbelianGroup(1))))
    if s.symbol == "AIII" and s.params[0] == 1:
        # CP^n fibers over a point with fiber S^1 under S^(2n+1); hence
        # pi_2 = Z and pi_k = pi_k(S^(2n+1)) for k >= 3.
        n = s.params[1]
        if k == 1:
            out.append(("projective_rule", PartialAbelianGroup.trivial()))
        elif k == 2:
            out.append(("projective_rule",
                        PartialAbelianGroup.exact(AbelianGroup(1))))
        else:
            out.append(("projective_rule",
                        pi(instantiate("S", (2 * n + 1,)), k, data_dir)))
    for rec in _matching_records(s, k, data_dir):
        out.append((rec.source, rec.value(k)))
    if k == 1 and not out:
        out.append(("simply_connected", PartialAbelianGroup.trivial()))
    return out


NOT_COVERED = "not_covered"

# source precedence: specific rules and unstable tables before stable
_PRECEDENCE = {"sphere_rule": 0, "projective_rule": 0, "spheres": 1,
               "unstable_classical": 1, "real_grassmannians": 1,
               "exceptional": 1, "stable": 2, "simply_connected": 3}


@lru_cache(maxsize=None)
def pi(s: SpaceInstance, k: int, data_dir=None) -> PartialAbelianGroup:
    """pi_k(s) from the database; Unknown when no table covers the cell."""
    cands = pi_candidates(s, k, data_dir)
    if not cands:
        return PartialAbelianGroup("unknown")
    cands.sort(key=lambda sv: _PRECEDENCE[sv[0]])
    return cands[0][1]


def coverage(s: SpaceInstance, k: int, data_dir=None) -> str:
    """Name of the source answering pi_k(s), or 'not_covered'."""
    cands = pi_candidates(s, k, data_dir)
    if not cands:
        return NOT_COVERED
    return min(cands, key=lambda sv: _PRECEDENCE[sv[0]])[0]


def profile(q: ProductSpace, max_degree: int = 9,
            data_dir=None) -> Dict[int, PartialAbelianGroup]:
    """Degreewise direct sum of the factors' homotopy groups."""
    if not 1 <= max_degree <= MAX_DEGREE:
        raise ValueError("max_degree out of range")
    out = {}
    for k in range(1, max_degree + 1):
        acc = PartialAbelianGroup.trivial()
        for f in q.factors:
            acc = direct_sum(acc, pi(f, k, data_dir))
        out[k] = acc
    return out


def consistency_violations(max_dim: int, data_dir=None):
    """Cells where two overlapping sources give provably different groups.

    Returns a list of (space, degree, source_a, value_a, source_b, value_b)
    tuples; an empty list certifies the shipped tables agree wherever they
    overlap, up to dimension max_dim.
    """
    from .catalog import enumerate_catalog
    bad = []
    for s in enumerate_catalog(max_dim):
        for k in range(1, MAX_DEGREE + 1):
            cands = pi_candidates(s, k, data_dir)
            for i in range(len(cands)):
                for j in range(i + 1, len(cands)):
                    verdict, _ = compatible(cands[i][1], cands[j][1])
                    if verdict == INCOMPATIBLE:
                        bad.append((s, k, *cands[i], *cands[j]))
    return bad
