"""Homotopy-group database pi_1..pi_10 for the catalog spaces.

The group tables ship as line-oriented text files under ``data/``, one
record per row:

    pattern | guard | k=<group>; k=<group>; ...

``pattern`` is a space pattern such as ``SU(3)``, ``BDI(3,q)`` or ``E6``;
``guard`` is an ``and`` of ordered or equality comparisons over the
pattern's parameters and the degree ``k`` (``-`` for none).  Groups use
the mini-grammar of :mod:`symcart.abelian`.  Degrees missing from a
record are trivial; ``?`` marks genuinely unknown cells.

Resolution order.  A space's row lists, for each k = 1..MAX_DEGREE, every
candidate ``(source, value)`` of pi_k: the sphere rules and the
complex-projective-space fibration rule first, then the matching table
records in file order -- the unstable tables before the stable one, whose
degree-10 cells follow from mod-8 periodicity (pi_10 repeats the k=2
column) -- and, for an uncovered pi_1, ``simply_connected``.  That is
precedence order, so the first candidate answers pi_k, and a degree with
no candidate is Unknown.  ``row(s)[k - 1]`` is pi_k's candidates, so
its ``[0][0]`` names the answering source and ``()`` is an uncovered
cell; ``pi``, ``groups``, ``consistency_violations`` and the recognition
scan all read rows, each built once per (space, data directory).  The
last two read one row per region of ``symcart.regions``, its least
member's, built here: a region holds no row.

Records are found through an index, built on the first lookup, that
files each record under its pattern, so a space looks up at most
2^arity patterns and tests none slot by slot.  Each record is parsed
once: its per-degree cells are built then, equal values shared between
records, and its whitelisted guard is read into a ``Guard``: a flat
tuple of links c + d*x >= 0, with their constants at k = 1..MAX_DEGREE,
so a row evaluates a matched guard once, in integers; no guard is
compiled.  The sphere and CP^n rules are applied only to spaces of
their symbols.  A missing table file, or a row that does not parse (a
repeated degree, a prime outside ``abelian.FIELDS``, a pattern naming
k or a parameter twice, a guard with ``or``, ``not`` or ``!=``, among
them) raises ``ValueError`` whose message starts with the row's
``file:line``.  A guard adds, subtracts and multiplies integers, so one
that loads cannot fail when evaluated.  A pattern's fixed parameters
and a cell's degree are ASCII digits, and a guard is linear: each
comparison reads one parameter besides k, so its truth is constant in
every parameter from a start that ``_read_guard`` finds, as regions
need.

>>> row(instantiate("AIII", (1, 3)))[7 - 1]
(('projective_rule', Partial('Z')),)
>>> row(instantiate("S", (4,)))[7 - 1]
(('spheres', Partial('Z + Z_4 + Z_3')),)
"""

from __future__ import annotations

import ast
import os
import re
from functools import lru_cache, wraps
from heapq import merge
from itertools import chain, product, repeat
from keyword import iskeyword
from operator import and_, ge, itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .abelian import (FIELDS, AbelianGroup, PartialAbelianGroup, compatible,
                      direct_sum_all, parse_group, INCOMPATIBLE)
from .catalog import ProductSpace, SpaceInstance, instantiate

MAX_DEGREE = 10
DEFAULT_DEGREE = 9           # the paper compares groups through pi_9

_DATA_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "data"))

_ALLOWED_NODES = (ast.Expression, ast.BoolOp, ast.And, ast.UnaryOp, ast.USub,
                  ast.Compare, ast.BinOp, ast.Add, ast.Sub, ast.Mult,
                  ast.Eq, ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Name,
                  ast.Load, ast.Constant)


def _check_guard(text: str, names: Tuple[str, ...]) -> ast.Expression:
    """Parse a guard expression, allowing only arithmetic/comparison nodes
    over integer constants (no ``bool``) and the variables in ``names``.

    No allowed node divides, so no guard that passes this check can
    raise when evaluated.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as err:
        raise ValueError(f"guard {text!r} does not parse: {err.msg}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"disallowed construct {type(node).__name__} "
                             f"in guard {text!r}")
        if isinstance(node, ast.Constant) and type(node.value) is not int:
            raise ValueError(f"non-integer constant in guard {text!r}")
        if isinstance(node, ast.Name) and node.id not in names:
            raise ValueError(f"unknown name {node.id!r} in guard {text!r}")
    return tree


def _linear(node: ast.AST, text: str) -> Dict[str, int]:
    """An arithmetic term of a guard as its integer coefficient of each
    name it reads, the constant's under "".

    A term is linear: integer constants and names, joined by ``+`` and
    ``-``, and by ``*`` with a side that reads no name.  A name read
    stays a key when its coefficient cancels, so ``(q - q) * k`` still
    multiplies two variable terms.
    """
    if isinstance(node, ast.Constant):
        return {"": int(node.value)}
    if isinstance(node, ast.Name):
        return {node.id: 1}
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return {n: -c for n, c in _linear(node.operand, text).items()}
    if isinstance(node, ast.BinOp):
        a, b = _linear(node.left, text), _linear(node.right, text)
        if not isinstance(node.op, ast.Mult):
            sign = -1 if isinstance(node.op, ast.Sub) else 1
            return {n: a.get(n, 0) + sign * b.get(n, 0) for n in a | b}
        if a.keys() - {""} and b.keys() - {""}:
            raise ValueError(f"guard {text!r} multiplies two variable terms")
        if a.keys() - {""}:
            a, b = b, a
        return {n: a[""] * c for n, c in b.items()}
    raise ValueError(f"guard {text!r} uses a {type(node).__name__} "
                     "as a number")


_DEGREES = tuple(range(1, MAX_DEGREE + 1))
_ALWAYS, _NEVER = (True,) * MAX_DEGREE, (False,) * MAX_DEGREE
# a op b as its links sign*(a - b) - strict >= 0, each (sign, strict)
_LINKS = {ast.Lt: ((-1, 1),), ast.LtE: ((-1, 0),), ast.Gt: ((1, 1),),
          ast.GtE: ((1, 0),), ast.Eq: ((1, 0), (-1, 0))}


class Guard(NamedTuple):
    """A loaded guard: the "and" of links c + d*x >= 0, each (name of x,
    d, consts) with consts = c + c_k*k at k = 1..MAX_DEGREE.  From
    ``start`` on in every parameter, its truth at each degree is
    constant."""

    links: Tuple[Tuple[Optional[str], int, Tuple[int, ...]], ...]
    start: int

    def holds(self, bindings: Dict[str, int]) -> Tuple[bool, ...]:
        """The guard's truth at k = 1..MAX_DEGREE, in integers.  A link
        that reads no k has equal consts, and is settled once."""
        truth = None
        for name, d, consts in self.links:
            shift = -d * bindings[name] if d else 0
            if consts[0] == consts[-1]:
                if consts[0] < shift:
                    return _NEVER
            else:
                now = map(ge, consts, repeat(shift))
                truth = now if truth is None else map(and_, truth, now)
        return _ALWAYS if truth is None else tuple(truth)


def _read(node: ast.AST, text: str) -> List[tuple]:
    """A whitelisted guard's links (see ``Guard``): those of each
    adjacent pair of each comparison chain that it joins by "and".
    ``a < b`` is b - a - 1 >= 0, ``a <= b`` is b - a >= 0, ``>`` and
    ``>=`` swap the sides, and ``a == b`` is both a - b >= 0 and
    b - a >= 0.  A comparison may read one parameter besides k
    (``k < q - p`` need not settle in either and is rejected)."""
    if isinstance(node, ast.BoolOp):    # the whitelist admits only "and"
        return [link for value in node.values for link in _read(value, text)]
    if not isinstance(node, ast.Compare):
        raise ValueError(f"guard {text!r} is not an 'and' of comparisons")
    forms = [_linear(t, text) for t in (node.left, *node.comparators)]
    names = set().union(*forms) - {"", "k"}
    if len(names) > 1:
        raise ValueError(f"guard {text!r} compares "
                         f"{' and '.join(sorted(names))} in one comparison; "
                         "each may read one parameter besides k")
    name = next(iter(names), None)
    links = []
    for a, b, op in zip(forms, forms[1:], node.ops):
        c, c_k, d = (a.get(n, 0) - b.get(n, 0) for n in ("", "k", name))
        for sign, strict in _LINKS[type(op)]:
            links.append((name, sign * d, tuple(sign * (c + c_k * k) - strict
                                                for k in _DEGREES)))
    return links


@lru_cache(maxsize=None)
def _read_guard(text: str, names: Tuple[str, ...]) -> Guard:
    """A guard over ``names`` and k, whitelisted as written and then read
    into links; no code is compiled.  A link c + d*x >= 0 is final in x
    from -(c // d) for d > 0, or from c // -d + 1 for d < 0, at every
    degree; the start is the largest of these, or 0."""
    links = tuple(_read(_check_guard(text, (*names, "k")).body, text))
    return Guard(links, max([0, *(-(c // d) if d > 0 else c // -d + 1
                                  for _, d, consts in links if d
                                  for c in consts)]))


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

_TRIVIAL = PartialAbelianGroup.trivial()
_Z = PartialAbelianGroup.exact(AbelianGroup(1))
_UNKNOWN = parse_group("?")


class HomotopyRecord(NamedTuple):
    symbol: str
    param_names: Tuple[str, ...]      # variable names or "" for fixed slots
    param_values: Tuple[Optional[int], ...]
    guard: Optional[Guard]            # None for "-"
    cells: Tuple[Cell, ...]           # (source, pi_k) for k = 1..MAX_DEGREE

    def bindings(self, s: SpaceInstance) -> Dict[str, int]:
        return {name: p for name, p in zip(self.param_names, s.params) if name}


_PATTERN_RE = re.compile(r"^([A-Za-z0-9]+)(?:\(([^)]*)\))?$")


def _parse_record(line: str, source: str, stable: bool,
                  parsed: Dict[str, PartialAbelianGroup]) -> HomotopyRecord:
    """One table row as a record; ``parsed`` holds the group texts seen
    so far, so each distinct text is parsed once and its value shared."""
    parts = [part.strip() for part in line.split("|")]
    if len(parts) != 3:
        raise ValueError(f"expected 3 '|'-separated fields, found {len(parts)}")
    pattern, guard, cells = parts
    m = _PATTERN_RE.match(pattern)
    if not m:
        raise ValueError(f"bad pattern {pattern!r}")
    symbol, args = m.group(1), m.group(2)
    names, values = [], []
    if args:
        for piece in args.split(","):
            piece = piece.strip()
            if piece.isascii() and piece.isdigit():     # not '²' or '١٢'
                names.append("")
                values.append(int(piece))
            elif not piece.isascii() or not piece.isidentifier() \
                    or iskeyword(piece):        # a guard reads True as 1
                raise ValueError(f"bad pattern {pattern!r}")
            elif piece == "k":
                raise ValueError(f"pattern {pattern!r} names a parameter k, "
                                 "which guards read as the degree")
            elif piece in names:
                raise ValueError(f"pattern {pattern!r} names {piece} twice")
            else:
                names.append(piece)
                values.append(None)
    by_degree = {}
    for cell in cells.split(";"):
        deg, _, text = (part.strip() for part in cell.partition("="))
        if not (deg.isascii() and deg.isdigit()):   # not '٣', '1_0' or '+3'
            raise ValueError(f"bad degree {deg!r} in cell {cell.strip()!r}")
        k = int(deg)
        _check_degree(k)
        if k in by_degree:
            raise ValueError(f"degree {k} repeated")
        if text not in parsed:
            g = parse_group(text)
            if extra := g.group.primes().difference(FIELDS):
                raise ValueError(f"group {text!r} has prime {min(extra)}; "
                                 f"cells are compared over {FIELDS} only")
            parsed[text] = g
        by_degree[k] = parsed[text]
    if stable:
        by_degree.setdefault(MAX_DEGREE,
                             by_degree.get(MAX_DEGREE - 8, _TRIVIAL))
    params = tuple(filter(None, names))         # a guard reads these and k
    return HomotopyRecord(
        symbol, tuple(names), tuple(values),
        None if guard == "-" else _read_guard(guard, params),
        tuple((source, by_degree.get(k, _TRIVIAL)) for k in _DEGREES))


_FILES = (("spheres", False), ("unstable_classical", False),
          ("real_grassmannians", False), ("exceptional", False),
          ("stable", True))


@_cached_per_data_dir
def load_records(data_dir: Optional[str] = None) -> Tuple[HomotopyRecord, ...]:
    """Every table record, in file order.

    A missing table file or a malformed row raises ``ValueError``; a bad
    row's message starts with its ``file:line``.
    """
    records = []
    parsed = {}
    for name, stable in _FILES:
        path = os.path.join(data_dir, name + ".txt")
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            raise ValueError(f"homotopy table {path} not found") from None
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    records.append(_parse_record(line, name, stable, parsed))
                except ValueError as err:
                    raise ValueError(f"{path}:{lineno}: {err}") from None
    return tuple(records)


@lru_cache(maxsize=None)
def _index(data_dir: str):
    """``load_records(data_dir)`` filed by pattern: each record under
    (symbol, its ``param_values``, None in each named slot) as (file
    position, record), in file order."""
    by_pattern = {}
    for pos, rec in enumerate(load_records(data_dir)):
        by_pattern.setdefault((rec.symbol, rec.param_values),
                              []).append((pos, rec))
    return by_pattern


def _sphere_rule(s: SpaceInstance, data_dir: str) -> List[List[Cell]]:
    """pi_k(S^n) is trivial below n and Z at n."""
    n = s.params[0]
    return [[("sphere_rule", _TRIVIAL if k < n else _Z)] if k <= n else []
            for k in _DEGREES]


def _projective_rule(s: SpaceInstance, data_dir: str) -> List[List[Cell]]:
    """CP^n fibers over a point with fiber S^1 under S^(2n+1); hence
    pi_2 = Z and pi_k = pi_k(S^(2n+1)) for k >= 3."""
    if s.params[0] != 1:
        return [[] for _ in _DEGREES]
    sphere = instantiate("S", (2 * s.params[1] + 1,))
    return [[("projective_rule", _TRIVIAL if k == 1 else _Z if k == 2
              else pi(sphere, k, data_dir))] for k in _DEGREES]


# each rule's cells for pi_1..pi_MAX_DEGREE of a space of its symbol
_RULES = {"S": _sphere_rule, "AIII": _projective_rule}


@_cached_per_data_dir
def row(s: SpaceInstance, data_dir=None) -> Tuple[Tuple[Cell, ...], ...]:
    """Every candidate (source, value) of pi_k(s), for k = 1..MAX_DEGREE.

    ``row(s)[k - 1]`` holds pi_k's candidates in precedence order (see
    the module docstring): the first answers ``pi(s, k)``, and an empty
    tuple means no table covers the cell.
    """
    by_pattern = _index(data_dir)
    found = sorted(chain.from_iterable(    # each slot fixed to s's or named
        by_pattern.get((s.symbol, pattern), ())
        for pattern in product(*((p, None) for p in s.params))),
        key=itemgetter(0))
    rule = _RULES.get(s.symbol)
    out = rule(s, data_dir) if rule else [[] for _ in _DEGREES]
    for _, rec in found:
        holds = _ALWAYS if rec.guard is None else \
            rec.guard.holds(rec.bindings(s))
        for cands, cell, ok in zip(out, rec.cells, holds):
            if ok:
                cands.append(cell)
    if not out[0]:
        out[0].append(("simply_connected", _TRIVIAL))
    return tuple(map(tuple, out))


def _check_degree(k: int) -> None:
    if not 1 <= k <= MAX_DEGREE:
        raise ValueError(f"degree {k} out of range 1..{MAX_DEGREE}")


@_cached_per_data_dir
def pi(s: SpaceInstance, k: int, data_dir=None) -> PartialAbelianGroup:
    """pi_k(s) from the database; Unknown when no table covers the cell."""
    _check_degree(k)
    cands = row(s, data_dir)[k - 1]
    return cands[0][1] if cands else _UNKNOWN


def groups(s: SpaceInstance, max_degree: int = DEFAULT_DEGREE,
           data_dir=None) -> Dict[int, PartialAbelianGroup]:
    """pi_k(s) for k = 1..max_degree, read from s's row in one lookup."""
    _check_degree(max_degree)
    return {k: cands[0][1] if cands else _UNKNOWN
            for k, cands in enumerate(row(s, data_dir)[:max_degree], 1)}


def profile(q: ProductSpace, max_degree: int = DEFAULT_DEGREE,
            data_dir=None) -> Dict[int, PartialAbelianGroup]:
    """Degreewise direct sum of the factors' homotopy groups: each
    factor's row is read once (``groups``), each degree summed in one
    pass (``direct_sum_all``).  A summed cell's rank interval over each
    field equals the sum of the factors' intervals, so the profile does
    not depend on the factors' order."""
    factor_groups = [groups(f, max_degree, data_dir) for f in q.factors]
    return {k: direct_sum_all(g[k] for g in factor_groups)
            for k in range(1, max_degree + 1)}


def consistency_violations(max_dim: int, data_dir=None):
    """Cells where two overlapping sources give provably different groups.

    Returns a list of (space, degree, source_a, value_a, source_b, value_b)
    tuples, in catalog order; an empty list certifies the shipped tables
    agree wherever they overlap, up to dimension max_dim.  One row is read
    per region (see ``regions``), and a clash in it is listed for each
    member of the region, so only the members of a clashing region are
    instantiated.  Each overlapping pair is compared by ``compatible``,
    the recognition verdicts' rule, whose rank intervals
    ``abelian.field_ranks`` computes once per distinct value.
    """
    from .regions import regions        # built by the first scan or check
    if max_dim < 1:
        raise ValueError("max_dim >= 1 required")
    clashing = []           # each region's members, paired with its clashes
    for region in regions(data_dir):
        clashes = []
        for k, cands in enumerate(row(region.least, data_dir), 1):
            for i, (src_a, val_a) in enumerate(cands):
                for src_b, val_b in cands[i + 1:]:
                    if compatible(val_a, val_b)[0] == INCOMPATIBLE:
                        clashes.append((k, src_a, val_a, src_b, val_b))
        if clashes:
            clashing.append(zip(region.members(max_dim), repeat(clashes)))
    return [(s, *clash) for s, clashes in merge(*clashing, key=itemgetter(0))
            for clash in clashes]
