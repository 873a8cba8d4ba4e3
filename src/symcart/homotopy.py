"""Homotopy-group database pi_1..pi_10 for the catalog spaces.

The group tables ship as line-oriented text files under ``data/``, one
record per row:

    pattern | guard | k=<group>; k=<group>; ...

``pattern`` is a space pattern such as ``SU(3)``, ``BDI(3,q)`` or ``E6``;
``guard`` is a boolean expression over the pattern's parameters and the
degree ``k`` (``-`` for none).  Groups use the mini-grammar of
:mod:`symcart.abelian`.  Degrees missing from a record are trivial;
``?`` marks genuinely unknown cells.

Resolution order.  A space's row lists, for each k = 1..MAX_DEGREE, every
candidate ``(source, value)`` of pi_k: the sphere rules and the
complex-projective-space fibration rule first, then the matching table
records in file order -- the unstable tables before the stable one, whose
degree-10 cells follow from mod-8 periodicity (pi_10 repeats the k=2
column) -- and, for an uncovered pi_1, ``simply_connected``.  That is
precedence order, so the first candidate answers pi_k, and a degree with
no candidate is Unknown.  ``pi``, ``coverage``, ``pi_candidates``,
``consistency_violations`` and the recognition scan all read rows; each
row is built once per (space, data directory).

Records are found through an index built on the first lookup: a record
whose pattern fixes every parameter (``BDI(3,12)``, ``E6``) is keyed by
(symbol, params), any other by symbol, so a space is matched only against
the patterned records of its own symbol.  Each record compiles its guard
and builds its per-degree cells when it is parsed; rows share those cells.

>>> cp3 = instantiate("AIII", (1, 3))
>>> pi(cp3, 7), coverage(cp3, 7)
(Partial('Z'), 'projective_rule')
>>> row(instantiate("S", (4,)))[7 - 1]
(('spheres', Partial('Z + Z_4 + Z_3')),)
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from functools import lru_cache, wraps
from operator import itemgetter
from types import CodeType
from typing import Dict, List, Optional, Tuple

from .abelian import (UNKNOWN, AbelianGroup, PartialAbelianGroup, compatible,
                      direct_sum, parse_group, INCOMPATIBLE)
from .catalog import ProductSpace, SpaceInstance, instantiate

MAX_DEGREE = 10

_DATA_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "data"))

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


def _cached_per_data_dir(fn):
    """``lru_cache`` of ``fn``, whose last parameter is a data directory.

    The directory is keyed by its absolute path, so ``f(x)``,
    ``f(x, None)`` and ``f(x, <the shipped directory>)`` share one cache
    entry, and ``fn`` always receives the absolute path.  ``cache_info``
    and ``cache_clear`` are the cache's own.
    """
    cached = lru_cache(maxsize=None)(fn)
    arity = fn.__code__.co_argcount - 1

    @wraps(fn)
    def call(*args, data_dir=None):
        if len(args) > arity:
            args, data_dir = args[:arity], args[arity]
        if data_dir is not None and data_dir != _DATA_DIR:
            return cached(*args, os.path.abspath(data_dir))
        return cached(*args, _DATA_DIR)

    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


Cell = Tuple[str, PartialAbelianGroup]          # (source, value) of a pi_k

_NO_BUILTINS = {"__builtins__": {}}
_TRIVIAL = PartialAbelianGroup.trivial()
_Z = PartialAbelianGroup.exact(AbelianGroup(1))
_UNKNOWN = PartialAbelianGroup(UNKNOWN)


@dataclass(frozen=True)
class HomotopyRecord:
    source: str
    symbol: str
    param_names: Tuple[str, ...]      # variable names or "" for fixed slots
    param_values: Tuple[Optional[int], ...]
    guard_text: str
    guard: Optional[CodeType]         # guard_text compiled; None for "-"
    cells: Tuple[Cell, ...]           # (source, pi_k) for k = 1..MAX_DEGREE

    def matches(self, s: SpaceInstance) -> bool:
        if s.symbol != self.symbol or len(s.params) != len(self.param_values):
            return False
        return all(v is None or v == p
                   for v, p in zip(self.param_values, s.params))

    def bindings(self, s: SpaceInstance) -> Dict[str, int]:
        return {name: p for name, p in zip(self.param_names, s.params) if name}


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
    by_degree = {}
    for cell in cells.split(";"):
        deg, _, group_text = cell.partition("=")
        k = int(deg.strip())
        if not 1 <= k <= MAX_DEGREE:
            raise ValueError(f"degree {k} out of range in {source}: {line!r}")
        by_degree[k] = parse_group(group_text)
    if stable:
        by_degree.setdefault(MAX_DEGREE,
                             by_degree.get(MAX_DEGREE - 8, _TRIVIAL))
    code = None
    if guard != "-":                  # a guard names the parameters and k
        code = _compile_guard(guard, (*filter(None, names), "k"))
    return HomotopyRecord(
        source, symbol, tuple(names), tuple(values), guard, code,
        tuple((source, by_degree.get(k, _TRIVIAL))
              for k in range(1, MAX_DEGREE + 1)))


_FILES = (("spheres", False), ("unstable_classical", False),
          ("real_grassmannians", False), ("exceptional", False),
          ("stable", True))


@_cached_per_data_dir
def load_records(data_dir: Optional[str] = None) -> Tuple[HomotopyRecord, ...]:
    records = []
    for name, stable in _FILES:
        with open(os.path.join(data_dir, name + ".txt")) as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    records.append(_parse_record(line, name, stable))
    return tuple(records)


@lru_cache(maxsize=None)
def _index(data_dir: str):
    """``load_records(data_dir)`` as (fixed, patterned) dicts.

    A record whose pattern fixes every parameter is filed in ``fixed``
    under (symbol, params), any other in ``patterned`` under its symbol;
    each entry is a list of (file position, record) in file order.
    """
    fixed, patterned = {}, {}
    for pos, rec in enumerate(load_records(data_dir)):
        if None in rec.param_values:
            patterned.setdefault(rec.symbol, []).append((pos, rec))
        else:
            fixed.setdefault((rec.symbol, rec.param_values), []).append(
                (pos, rec))
    return fixed, patterned


def _rule_cells(s: SpaceInstance, k: int, data_dir: str) -> List[Cell]:
    """The sphere and complex-projective-space rules' cells for pi_k(s)."""
    if s.symbol == "S":
        n = s.params[0]
        if k < n:
            return [("sphere_rule", _TRIVIAL)]
        if k == n:
            return [("sphere_rule", _Z)]
    elif s.symbol == "AIII" and s.params[0] == 1:
        # CP^n fibers over a point with fiber S^1 under S^(2n+1); hence
        # pi_2 = Z and pi_k = pi_k(S^(2n+1)) for k >= 3.
        if k == 1:
            return [("projective_rule", _TRIVIAL)]
        if k == 2:
            return [("projective_rule", _Z)]
        return [("projective_rule",
                 pi(instantiate("S", (2 * s.params[1] + 1,)), k, data_dir))]
    return []


@_cached_per_data_dir
def row(s: SpaceInstance, data_dir=None) -> Tuple[Tuple[Cell, ...], ...]:
    """Every candidate (source, value) of pi_k(s), for k = 1..MAX_DEGREE.

    ``row(s)[k - 1]`` holds pi_k's candidates in precedence order (see
    the module docstring): the first answers ``pi(s, k)``, and an empty
    tuple means no table covers the cell.
    """
    fixed, patterned = _index(data_dir)
    found = fixed.get((s.symbol, s.params), []) + [
        (pos, rec) for pos, rec in patterned.get(s.symbol, ())
        if rec.matches(s)]
    found.sort(key=itemgetter(0))
    bound = [(rec, rec.bindings(s)) for _, rec in found]
    out = []
    for k in range(1, MAX_DEGREE + 1):
        cands = _rule_cells(s, k, data_dir)
        for rec, env in bound:
            if rec.guard is not None:
                env["k"] = k
                if not eval(rec.guard, _NO_BUILTINS, env):
                    continue
            cands.append(rec.cells[k - 1])
        if k == 1 and not cands:
            cands.append(("simply_connected", _TRIVIAL))
        out.append(tuple(cands))
    return tuple(out)


def _check_degree(k: int) -> None:
    if not 1 <= k <= MAX_DEGREE:
        raise ValueError(f"degree {k} out of range 1..{MAX_DEGREE}")


def pi_candidates(s: SpaceInstance, k: int, data_dir=None) -> List[Cell]:
    """All applicable (source, value) pairs for pi_k(s), rules included,
    in precedence order."""
    _check_degree(k)
    return list(row(s, data_dir)[k - 1])


NOT_COVERED = "not_covered"


@_cached_per_data_dir
def pi(s: SpaceInstance, k: int, data_dir=None) -> PartialAbelianGroup:
    """pi_k(s) from the database; Unknown when no table covers the cell."""
    _check_degree(k)
    cands = row(s, data_dir)[k - 1]
    return cands[0][1] if cands else _UNKNOWN


def coverage(s: SpaceInstance, k: int, data_dir=None) -> str:
    """Name of the source answering pi_k(s), or 'not_covered'."""
    _check_degree(k)
    cands = row(s, data_dir)[k - 1]
    return cands[0][0] if cands else NOT_COVERED


def groups(s: SpaceInstance, max_degree: int = 9,
           data_dir=None) -> Dict[int, PartialAbelianGroup]:
    """pi_k(s) for k = 1..max_degree, read from s's row in one lookup."""
    _check_degree(max_degree)
    return {k: cands[0][1] if cands else _UNKNOWN
            for k, cands in enumerate(row(s, data_dir)[:max_degree], 1)}


def profile(q: ProductSpace, max_degree: int = 9,
            data_dir=None) -> Dict[int, PartialAbelianGroup]:
    """Degreewise direct sum of the factors' homotopy groups."""
    _check_degree(max_degree)
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
    overlap, up to dimension max_dim.  A cell with one candidate has
    nothing to compare, and the tables hold few distinct values, so
    ``compatible`` runs once per distinct (value_a, value_b) pair.
    """
    from .catalog import enumerate_catalog
    bad = []
    incompatible = {}       # (value_a, value_b) -> whether INCOMPATIBLE
    for s in enumerate_catalog(max_dim):
        for k, cands in enumerate(row(s, data_dir), 1):
            if len(cands) < 2:
                continue
            for i, (src_a, val_a) in enumerate(cands):
                for src_b, val_b in cands[i + 1:]:
                    key = (val_a, val_b)
                    if key not in incompatible:
                        incompatible[key] = \
                            compatible(val_a, val_b)[0] == INCOMPATIBLE
                    if incompatible[key]:
                        bad.append((s, k, src_a, val_a, src_b, val_b))
    return bad
