"""Exact and partially-known finitely generated abelian groups.

An exact group is stored as a free rank together with its torsion in
primary (prime-power) decomposition, canonically ordered.  Partially
known groups (as they occur in homotopy tables: "finite", "rank one",
"contains Z_2", blank) are modelled as tagged variants; the only
arithmetic ever extracted from them are rank intervals over ``FIELDS``:
Q, Z_2, Z_3, Z_5 and Z_7.  Two cells differ provably only where one of
those intervals is disjoint (``separating_field``), the one rule that
recognition and ``compatible`` read; the homotopy tables reject other
primes.  ``_KINDS`` states each payload-free kind once; ``refined_by``,
the tests' oracle for it, and the direct sums decide kinds on their own.

>>> parse_group("Z + Z_12")
Partial('Z + Z_4 + Z_3')
>>> q_rank(parse_group("r>=1"))
RankInterval(1, None)
>>> compatible(parse_group("Z_2"), parse_group("0"))[0]
'Incompatible'
"""

from __future__ import annotations

from collections import namedtuple
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

# Variant tags for partially known groups; EXACT and CONTAINS hold a group.
EXACT = "exact"
CONTAINS = "contains"                      # "H in": contains H as a subgroup
FINITE = "finite"                          # finite, possibly zero
RANK_ONE = "rank_one"                      # free rank 1, torsion unknown
RANK_AT_LEAST_ONE = "rank_at_least_one"
UNKNOWN = "unknown"                        # a blank table cell

# each kind without a payload once: its spelling, its floor (a subgroup of
# every refinement) and the largest free rank of one (None for no bound)
_Kind = namedtuple("_Kind", "spelling floor bound")
_KINDS = {FINITE: _Kind("f", TRIVIAL, 0), RANK_ONE: _Kind("r1", _Z, 1),
          RANK_AT_LEAST_ONE: _Kind("r>=1", _Z, None),
          UNKNOWN: _Kind("?", TRIVIAL, None)}
_SPELLED = {kind.spelling: tag for tag, kind in _KINDS.items()}


class PartialAbelianGroup(value_tuple("PartialAbelianGroup", "tag group")):
    """An exactly or partially known finitely generated abelian group.

    ``group`` is the payload of EXACT and CONTAINS, None otherwise.
    Cells key the recognition scan's profile classes and several caches;
    a value hashes as the tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, tag: str, group: Optional[AbelianGroup] = None):
        if tag in (EXACT, CONTAINS):
            if group is None:
                raise ValueError("missing group payload")
        elif tag not in _KINDS:
            raise ValueError(f"unknown variant tag {tag!r}")
        elif group is not None:
            raise ValueError(f"variant {tag} takes no payload")
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

    def lower_bound(self) -> AbelianGroup:
        """A group provably contained in every refinement of this value."""
        return _KINDS[self.tag].floor if self.group is None else self.group

    def primes(self) -> frozenset:
        return self.lower_bound().primes()

    def refined_by(self, g: AbelianGroup) -> bool:
        """Whether the exact group g is a possible value of this cell."""
        if self.tag == EXACT:
            return g == self.group
        if self.tag == FINITE:
            return g.free_rank == 0
        if self.tag == RANK_ONE:
            return g.free_rank == 1
        if self.tag == RANK_AT_LEAST_ONE:
            return g.free_rank >= 1
        if self.tag == CONTAINS:
            return g.contains_subgroup(self.group)
        return True

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
    r = g.lower_bound().free_rank
    if g.is_exact:
        return RankInterval(r, r)
    return RankInterval(r, None if g.tag == CONTAINS else _KINDS[g.tag].bound)


def p_rank(g: PartialAbelianGroup, p: int) -> RankInterval:
    """Interval of possible dimensions of G (x) Z_p."""
    d = g.lower_bound().p_count(p)
    return RankInterval(d, d if g.is_exact else None)


def direct_sum(a: PartialAbelianGroup, b: PartialAbelianGroup) -> PartialAbelianGroup:
    """Direct sum, conservatively widened on partially known operands.

    The widening preserves provable lower bounds: whatever cannot be
    represented exactly is returned as the most precise of Finite /
    RankOne / RankAtLeastOne / ContainsSubgroup that is still sound.
    """
    if a.is_exact and b.is_exact:
        return PartialAbelianGroup.exact(a.group.direct_sum(b.group))
    if a.is_exact_trivial:
        return b
    if b.is_exact_trivial:
        return a
    qa, qb = q_rank(a), q_rank(b)
    q = qa + qb
    if q.hi == 0:
        return PartialAbelianGroup(FINITE)
    low = a.lower_bound().direct_sum(b.lower_bound())
    if q.lo == q.hi == 1 and not low.torsion:
        return PartialAbelianGroup(RANK_ONE)
    if q.lo == 1 and low == _Z:
        return PartialAbelianGroup(RANK_AT_LEAST_ONE)
    if low.is_trivial:
        return PartialAbelianGroup(UNKNOWN)
    return PartialAbelianGroup(CONTAINS, low)


# the tags whose q_rank has an end
_BOUNDED = (EXACT, *(t for t, kind in _KINDS.items() if kind.bound is not None))


def direct_sum_all(cells: Iterable[PartialAbelianGroup]) -> PartialAbelianGroup:
    """``direct_sum`` folded left over cells from the trivial group.

    The fold is kept as a tag, a free rank and a torsion list -- the
    lower bound of a partial sum, whose free rank is the low end of its
    ``q_rank`` -- so the cells' torsion is sorted and checked once, by the
    one group built at the end, not at every step.  Each step takes
    ``direct_sum``'s branch, the widening of a partial operand among them,
    so the result equals the fold's.
    """
    tag, free, torsion = EXACT, 0, []
    for c in cells:
        g = c.lower_bound()
        if c.tag == EXACT and g.is_trivial:
            continue
        if tag == EXACT and not (free or torsion):
            tag, free, torsion = c.tag, g.free_rank, list(g.torsion)
            continue
        free += g.free_rank
        torsion += g.torsion
        if tag == EXACT == c.tag:
            continue
        bounded = tag in _BOUNDED and c.tag in _BOUNDED
        if bounded and not free:
            tag = FINITE
            torsion.clear()
        elif torsion or free > 1:
            tag = CONTAINS
        elif free:
            tag = RANK_ONE if bounded else RANK_AT_LEAST_ONE
        else:
            tag = UNKNOWN
    if tag in (EXACT, CONTAINS):
        return PartialAbelianGroup(tag, AbelianGroup(free, tuple(sorted(torsion))))
    return PartialAbelianGroup(tag)


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
#   expr ::= term ("+" term)*
#   term ::= "Z" | "Z_<n>" | "Z^<k>" | "Z_<n>^<k>"
#   expr may instead be "<expr> in", "0" or a spelling in _KINDS
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


def parse_group(text: str) -> PartialAbelianGroup:
    """Parse the mini-grammar used by data files and the CLI.

    >>> format_group(parse_group("Z + Z_2^3"))
    'Z + Z_2^3'
    >>> parse_group("f").tag
    'finite'
    >>> parse_group("Z_2 in").tag
    'contains'
    """
    s = text.strip() or _KINDS[UNKNOWN].spelling      # a blank cell
    if s in _SPELLED:
        return PartialAbelianGroup(_SPELLED[s])
    if s.endswith(" in") or s == "in":
        inner = s[:-2].strip()
        if not inner:
            raise GroupSyntaxError(text, 0, "missing group before 'in'")
        return PartialAbelianGroup(CONTAINS, _parse_exact(inner, text, 0))
    if s == "0":
        return PartialAbelianGroup.trivial()
    return PartialAbelianGroup.exact(_parse_exact(s, text, 0))


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
    if g.group is None:
        return _KINDS[g.tag].spelling
    if g.tag == CONTAINS:
        return f"{_format_exact(g.group)} in"
    return _format_exact(g.group)
