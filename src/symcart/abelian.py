"""Exact and partially-known finitely generated abelian groups.

An exact group is stored as a free rank together with its torsion in
primary (prime-power) decomposition, canonically ordered.  A cell of a
homotopy table holds a group H, its floor, and a tag: EXACT (the group
is H), CONTAINS (it contains H) or RANK (it contains H, and its free
rank is H's).  The table's named cells are such values: "finite" ``f``
is RANK over 0, "rank one" ``r1`` RANK over Z, ``r>=1`` CONTAINS Z, and
a blank ``?`` CONTAINS 0.  The only arithmetic ever extracted from a
cell are rank intervals over ``FIELDS``: Q, Z_2, Z_3, Z_5 and Z_7.  Two
cells differ provably only where one of those intervals is disjoint
(``separating_field``), the one rule that recognition and
``compatible`` read; the homotopy tables reject other primes.  A direct
sum adds the floors and keeps the weakest tag, so over every field its
interval equals the sum of its summands' intervals: nothing is widened.
``refined_by``, the tests' oracle, decides each tag on its own.

>>> parse_group("Z + Z_12")
Partial('Z + Z_4 + Z_3')
>>> q_rank(parse_group("r>=1"))
RankInterval(1, None)
>>> direct_sum_all(parse_group(g) for g in ("f", "Z_2", "r1"))
Partial('Z + Z_2 in r1')
>>> compatible(parse_group("Z_2"), parse_group("0"))[0]
'Incompatible'
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Optional, Tuple

from .values import value_tuple


def _factor_prime_powers(n: int) -> Tuple[Tuple[int, int], ...]:
    """Factor n >= 2 into (prime, exponent) pairs by trial division."""
    assert n >= 2
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


class AbelianGroup(value_tuple("AbelianGroup", "free_rank torsion")):
    """A finitely generated abelian group in canonical form.

    ``torsion`` is a tuple of (prime, exponent) pairs, sorted by prime
    then exponent; each pair stands for one cyclic factor Z_{p^e}.
    Composite cyclic orders are split on construction, so e.g.
    Z_12 = Z_4 + Z_3.
    """

    __slots__ = ()

    def __new__(cls, free_rank: int = 0,
                torsion: Tuple[Tuple[int, int], ...] = ()):
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for p, e in torsion:
            if e < 1 or p < 2 or _factor_prime_powers(p) != ((p, 1),):
                raise ValueError("torsion entries must be prime powers")
        if tuple(sorted(torsion)) != torsion:
            raise ValueError("torsion must be canonically sorted")
        return tuple.__new__(cls, (free_rank, torsion))

    @staticmethod
    def from_orders(free_rank: int = 0, orders: Iterable[int] = ()) -> "AbelianGroup":
        """Build a group from arbitrary cyclic orders (normalized here).

        >>> AbelianGroup.from_orders(1, [12])
        Exact(Z + Z_4 + Z_3)
        """
        tors = []
        for n in orders:
            if n == 1:
                continue
            for p, e in _factor_prime_powers(n):
                tors.append((p, e))
        return AbelianGroup(free_rank, tuple(sorted(tors)))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def primes(self) -> frozenset:
        return frozenset(p for p, _ in self.torsion)

    def p_count(self, p: int) -> int:
        """dim over Z_p of G (x) Z_p = free rank + number of p-power factors."""
        return self.free_rank + sum(1 for q, _ in self.torsion if q == p)

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup(self.free_rank + other.free_rank,
                            tuple(sorted(self.torsion + other.torsion)))

    def contains_subgroup(self, h: "AbelianGroup") -> bool:
        """Whether h embeds as a subgroup (standard abelian-group criterion).

        For each prime p and exponent e, the number of p-factors of
        exponent >= e in h may not exceed the same count in self
        (subgroups of finite abelian p-groups), and the free rank of h
        may not exceed ours.
        """
        if h.free_rank > self.free_rank:
            return False
        for p in h.primes():
            mine = sorted(e for q, e in self.torsion if q == p)
            theirs = sorted(e for q, e in h.torsion if q == p)
            for e in set(theirs):
                if sum(1 for x in theirs if x >= e) > sum(1 for x in mine if x >= e):
                    return False
        return True

    def __repr__(self):
        return f"Exact({format_group(PartialAbelianGroup.exact(self))})"


TRIVIAL = AbelianGroup()
_Z = AbelianGroup(1)

# The tags of a cell; each holds its floor, a group.
EXACT = "exact"                            # "H": the group is H
CONTAINS = "contains"                      # "H in": contains H as a subgroup
RANK = "rank"                              # "H in r<n>": contains H, free rank n


class PartialAbelianGroup(value_tuple("PartialAbelianGroup", "tag group")):
    """An exactly or partially known finitely generated abelian group.

    ``group`` is the floor, a subgroup of every refinement of the cell,
    and ``tag`` says what more is known (see the module docstring).
    Cells key the recognition scan's profile classes and several caches;
    a value hashes as the tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, tag: str, group: Optional[AbelianGroup] = None):
        if tag not in (EXACT, CONTAINS, RANK):
            raise ValueError(f"unknown variant tag {tag!r}")
        if group is None:
            raise ValueError("missing group payload")
        return tuple.__new__(cls, (tag, group))

    @staticmethod
    def exact(g: AbelianGroup) -> "PartialAbelianGroup":
        return PartialAbelianGroup(EXACT, g)

    @staticmethod
    def trivial() -> "PartialAbelianGroup":
        """The exact trivial group: one shared instance, frozen as all are."""
        return _TRIVIAL_PARTIAL

    @property
    def is_exact(self) -> bool:
        return self.tag == EXACT

    @property
    def is_exact_trivial(self) -> bool:
        return self.tag == EXACT and self.group.is_trivial

    def refined_by(self, g: AbelianGroup) -> bool:
        """Whether the exact group g is a possible value of this cell."""
        if self.tag == EXACT:
            return g == self.group
        if self.tag == RANK:
            return (g.free_rank == self.group.free_rank
                    and g.contains_subgroup(self.group))
        return g.contains_subgroup(self.group)

    def __repr__(self):
        return f"Partial({format_group(self)!r})"


_TRIVIAL_PARTIAL = PartialAbelianGroup(EXACT, TRIVIAL)


class RankInterval(value_tuple("RankInterval", "lo hi")):
    """Closed integer interval [lo, hi]; hi=None stands for +infinity."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: Optional[int]):
        if lo < 0 or (hi is not None and hi < lo):
            raise ValueError("need 0 <= lo <= hi")
        return tuple.__new__(cls, (lo, hi))

    def disjoint(self, other: "RankInterval") -> bool:
        if self.hi is not None and self.hi < other.lo:
            return True
        if other.hi is not None and other.hi < self.lo:
            return True
        return False

    def __add__(self, other: "RankInterval") -> "RankInterval":
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return RankInterval(self.lo + other.lo, hi)

    def __repr__(self):
        return f"RankInterval({self.lo}, {self.hi})"


def q_rank(g: PartialAbelianGroup) -> RankInterval:
    """Interval of possible free ranks (rank of G (x) Q)."""
    r = g.group.free_rank
    return RankInterval(r, None if g.tag == CONTAINS else r)


def p_rank(g: PartialAbelianGroup, p: int) -> RankInterval:
    """Interval of possible dimensions of G (x) Z_p."""
    d = g.group.p_count(p)
    return RankInterval(d, d if g.is_exact else None)


def direct_sum_all(cells: Iterable[PartialAbelianGroup]) -> PartialAbelianGroup:
    """The direct sum of cells, in one pass: the sum of their floors,
    EXACT if every cell is, CONTAINS if any cell is, and RANK otherwise.

    Over every field its rank interval is the sum of the cells' intervals
    (``decompose``'s rule), so the sum does not depend on the cells'
    order.  The torsion is sorted and checked once, by the one group
    built at the end.
    """
    tag, free, torsion = EXACT, 0, []
    for c in cells:
        free += c.group.free_rank
        torsion += c.group.torsion
        if c.tag != EXACT and tag != CONTAINS:
            tag = c.tag
    return PartialAbelianGroup(tag, AbelianGroup(free, tuple(sorted(torsion))))


def direct_sum(a: PartialAbelianGroup, b: PartialAbelianGroup) -> PartialAbelianGroup:
    """The direct sum of two cells (``direct_sum_all``)."""
    return direct_sum_all((a, b))


EQUAL = "Equal"
POSSIBLY_EQUAL = "PossiblyEqual"
INCOMPATIBLE = "Incompatible"

FIELDS = ("Q", 2, 3, 5, 7)


@lru_cache(maxsize=None)
def field_ranks(
        g: PartialAbelianGroup) -> Tuple[Tuple[object, RankInterval], ...]:
    """``(field, rank interval)`` of the cell g over each of ``FIELDS``.

    Cells are frozen values, and a profile holds few distinct ones, so
    each is ranked once per process; callers share the tuple.
    """
    return (("Q", q_rank(g)),) + tuple((p, p_rank(g, p)) for p in FIELDS[1:])


def separating_field(a: PartialAbelianGroup, b: PartialAbelianGroup):
    """The first ``(field, interval_a, interval_b)`` of ``FIELDS`` whose
    rank intervals are disjoint, or None."""
    for (f, ia), (_, ib) in zip(field_ranks(a), field_ranks(b)):
        if ia.disjoint(ib):
            return f, ia, ib
    return None


def compatible(a: PartialAbelianGroup, b: PartialAbelianGroup):
    """Decide whether two cells can denote the same group.

    Returns (verdict, witness); the witness of an Incompatible verdict
    is ``separating_field(a, b)``.
    """
    if witness := separating_field(a, b):
        return INCOMPATIBLE, witness
    if a.is_exact and b.is_exact and a.group == b.group:
        return EQUAL, None
    return POSSIBLY_EQUAL, None


# ---------------------------------------------------------------------------
# The group mini-grammar.
#
#   cell ::= expr | expr " in" | expr " in r<n>" | "f" | "r1" | "r>=1" | "?"
#   expr ::= "0" | term ("+" term)*
#   term ::= "Z" | "Z_<n>" | "Z^<k>" | "Z_<n>^<k>"
#
# "H" is EXACT H, "H in" CONTAINS H, and "H in r<n>" RANK H, where n is
# H's free rank; a blank cell is "?".  The four names spell RANK 0, RANK Z,
# CONTAINS Z and CONTAINS 0, and are how those values are written.
# ---------------------------------------------------------------------------

class GroupSyntaxError(ValueError):
    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.pos = pos


def _parse_exact(text: str, original: str, offset: int) -> AbelianGroup:
    free = 0
    orders = []
    pos = offset
    for term in text.split("+"):
        stripped = term.strip()
        if not stripped:
            raise GroupSyntaxError(original, pos, "empty term")
        t = stripped
        power = 1
        if "^" in t:
            t, _, exp = t.partition("^")
            if not (exp.isascii() and exp.isdigit()) or int(exp) < 1:
                raise GroupSyntaxError(original, pos, "bad exponent")
            power = int(exp)
        if t == "Z":
            free += power
        elif t.startswith("Z_"):
            order = t[2:]
            # not '²' or '١٢', which str.isdigit passes
            if not (order.isascii() and order.isdigit()) or int(order) < 2:
                raise GroupSyntaxError(original, pos, "bad cyclic order")
            orders.extend([int(order)] * power)
        elif t == "0" and power == 1:
            pass
        else:
            raise GroupSyntaxError(original, pos, f"unrecognized term {stripped!r}")
        pos += len(term) + 1
    return AbelianGroup.from_orders(free, orders)


_NAMED = {"f": PartialAbelianGroup(RANK, TRIVIAL),
          "r1": PartialAbelianGroup(RANK, _Z),
          "r>=1": PartialAbelianGroup(CONTAINS, _Z),
          "?": PartialAbelianGroup(CONTAINS, TRIVIAL)}
_NAMES = {cell: name for name, cell in _NAMED.items()}
# "<expr> in" and "<expr> in r<n>", n in ASCII digits
_CONTAINED = re.compile(r"(.*?)(?:^|\s)in(?: r([0-9]+))?")


def parse_group(text: str) -> PartialAbelianGroup:
    """Parse the mini-grammar used by data files and the CLI.

    >>> format_group(parse_group("Z + Z_2^3"))
    'Z + Z_2^3'
    >>> parse_group("f").tag, parse_group("Z + Z_2 in r1").tag
    ('rank', 'rank')
    >>> parse_group("Z_2 in").tag
    'contains'
    """
    s = text.strip() or "?"                         # a blank cell
    if s in _NAMED:
        return _NAMED[s]
    m = _CONTAINED.fullmatch(s)
    if m is None:
        if s == "0":
            return PartialAbelianGroup.trivial()
        return PartialAbelianGroup.exact(_parse_exact(s, text, 0))
    inner, rank = m[1].strip(), m[2]
    if not inner:
        raise GroupSyntaxError(text, 0, "missing group before 'in'")
    floor = _parse_exact(inner, text, 0)
    if rank is None:
        return PartialAbelianGroup(CONTAINS, floor)
    if int(rank) != floor.free_rank:
        raise GroupSyntaxError(text, text.rindex("r"),
                               "rank differs from the floor's free rank")
    return PartialAbelianGroup(RANK, floor)


def _format_exact(g: AbelianGroup) -> str:
    if g.is_trivial:
        return "0"
    parts = []
    if g.free_rank == 1:
        parts.append("Z")
    elif g.free_rank > 1:
        parts.append(f"Z^{g.free_rank}")
    i = 0
    tors = g.torsion
    while i < len(tors):
        j = i
        while j < len(tors) and tors[j] == tors[i]:
            j += 1
        p, e = tors[i]
        base = f"Z_{p ** e}"
        parts.append(base if j - i == 1 else f"{base}^{j - i}")
        i = j
    return " + ".join(parts)


def format_group(g: PartialAbelianGroup) -> str:
    """Inverse of parse_group on canonical values."""
    if g in _NAMES:
        return _NAMES[g]
    if g.tag == CONTAINS:
        return f"{_format_exact(g.group)} in"
    if g.tag == RANK:
        return f"{_format_exact(g.group)} in r{g.group.free_rank}"
    return _format_exact(g.group)
