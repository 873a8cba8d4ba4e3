"""Arithmetic gates for the curvature/connectivity theorems.

Nothing here touches actual metrics: the functions evaluate the
connectivity formula, the shape-operator trace bound, the classification
of allowed submanifold types for classical ambient spaces, and the
meridian-codimension obstruction for Grassmannians, all as exact
arithmetic over the catalog quantities.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .catalog import (EXCEPTIONAL_SYMBOLS, GRASSMANNIANS, SpaceInstance,
                      instantiate)
from .values import value_tuple


def connectivity(ambient: SpaceInstance, sub_dim: int) -> int:
    """Connectedness degree 2l - k - n + 2 of an l-dimensional inclusion.

    >>> connectivity(instantiate("S", (12,)), 11)     # k_P = 1, n = 12
    11
    """
    if not 1 <= sub_dim < ambient.dim:
        raise ValueError("submanifold dimension out of range")
    return 2 * sub_dim - ambient.kp - ambient.dim + 2


def trace_bound(delta: float, k: int, r: float) -> float:
    """Shape-operator trace bound sqrt(d/k) * k * cot(pi/2 - sqrt(d/k)*r).

    Defined for finite delta > 0 while sqrt(delta/k) * r < pi/2; r = 0
    gives 0 (the totally geodesic threshold).
    """
    if not 0 < delta < math.inf:        # NaN fails both comparisons
        raise ValueError("delta must be positive and finite")
    if k <= 0:
        raise ValueError("k must be positive")
    if not r >= 0:                      # NaN fails it too
        raise ValueError("r must be nonnegative")
    lam = math.sqrt(delta / k)
    if lam * r >= math.pi / 2:
        raise ValueError("sqrt(delta/k) * r must be below pi/2")
    return lam * k * math.tan(lam * r)


def _require_proper(codim: int) -> None:
    if codim < 1:
        raise ValueError("codim >= 1 for a proper submanifold")


class HypothesisSet(value_tuple("HypothesisSet", "delta focal_floor codim")):
    __slots__ = ()

    def __new__(cls, delta: float, focal_floor: float, codim: int):
        if not 0 < delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not 0 <= focal_floor < math.pi / 2:
            raise ValueError("focal radius floor must lie in [0, pi/2)")
        _require_proper(codim)
        return tuple.__new__(cls, (delta, focal_floor, codim))


ITEM1 = "Item1"
ITEM2 = "Item2"
ITEM3 = "Item3"
ITEM4 = "Item4"
NOT_APPLICABLE = "NotApplicable"


class GateVerdict(NamedTuple):
    kind: str
    ambient: SpaceInstance
    reason: str
    allowed: str = ""
    trace_bound: Optional[float] = None

    def __str__(self):
        if self.kind == NOT_APPLICABLE:
            return f"NotApplicable({self.reason})"
        return f"{self.kind}: {self.allowed}"


def _gate_item(p: SpaceInstance) -> Tuple[str, str, str]:
    if p.symbol == "S":
        return (ITEM1, "sphere ambient",
                "Q is a product of spheres of dimension at least 10")
    if (p.symbol == "BDI" and p.params[0] == 2 and p.params[1] >= 10) or \
            (p.symbol == "AIII" and p.params[0] == 1 and p.params[1] >= 11):
        return (ITEM2, "plane-Grassmannian / complex-projective ambiguity",
                "Q is homotopy equivalent to Gr(R,2,q) (q >= 10) or CP^n "
                "(n >= 11), possibly times spheres of dimension at least 10")
    if any(p.symbol == symbol for symbol, _ in GRASSMANNIANS.values()):
        return (ITEM3, "Grassmannian ambient",
                "Q has the Cartan type of the ambient space, possibly times "
                "spheres of dimension at least 10")
    return (ITEM4, "generic classical ambient",
            "Q is reducible: Q1 times spheres of dimension at least 10, "
            "with Q1 of the ambient Cartan type")


def theorem_a_gate(ambient: SpaceInstance, h: HypothesisSet) -> GateVerdict:
    """Classify the submanifold types a codim-h.codim inclusion allows."""
    if ambient.symbol in EXCEPTIONAL_SYMBOLS:
        return GateVerdict(NOT_APPLICABLE, ambient,
                           "stated for classical ambient spaces only")
    if not ambient.valid:
        return GateVerdict(NOT_APPLICABLE, ambient,
                           f"dimension is not valid (C_P = {ambient.cp} < 1)")
    if Fraction(h.codim) > ambient.cp:
        return GateVerdict(NOT_APPLICABLE, ambient,
                           f"codim {h.codim} exceeds C_P = {ambient.cp}")
    kind, reason, allowed = _gate_item(ambient)
    return GateVerdict(kind, ambient, reason, allowed,
                       trace_bound(h.delta, ambient.kp, h.focal_floor))


def meridian_codim(fld: str, p: int, q: int, a: int, b: int) -> int:
    """Codimension of the meridian Gr(a, n-2b) x Gr(b, 2b) in Gr(F, p, n).

    Requires a + b = p, 0 <= a < p, p <= q (n = p + q).  The real case
    follows the complex and quaternionic pattern with c = 1.  In
    Gr(C, 3, 23) the a = 2 meridian is the smallest, above C_P = 35/2:

    >>> [meridian_codim("C", 3, 20, a, 3 - a) for a in range(3)]
    [102, 76, 42]
    """
    c = GRASSMANNIANS[fld][1]
    if a + b != p or not 0 <= a < p or not p <= q:
        raise ValueError("need a + b = p, 0 <= a < p, p <= q")
    n = p + q
    return c * p * q - (c * a * (n - 2 * b - a) + c * b * b)


def index_lower_bound(fld: str, p: int) -> int:
    """Index value c * p for Gr(F, p, n) submanifolds, c = dim_R F.

    >>> [index_lower_bound(fld, 3) for fld in "RCH"]
    [3, 6, 12]
    """
    # External-source lower bounds for the index of a totally geodesic
    # submanifold of Gr(F, p, n), taken from the literature on the index
    # of symmetric spaces; nothing in this package derives them.
    return GRASSMANNIANS[fld][1] * p


class ObstructionVerdict(NamedTuple):
    applicable: bool
    reason: str
    ambient: SpaceInstance
    index_bound: int
    min_meridian_codim: Optional[int] = None

    @property
    def cp(self) -> Fraction:
        return self.ambient.cp

    @property
    def analogy_derived(self) -> bool:
        """Real ambient (c = 1): meridians follow the C/H pattern."""
        return self.ambient.symbol == GRASSMANNIANS["R"][0]

    def __str__(self):
        head = "Applicable" if self.applicable else "NotApplicable"
        extra = (f", min meridian codim {self.min_meridian_codim} > C_P = {self.cp}"
                 if self.min_meridian_codim is not None else "")
        return f"{head}({self.reason}{extra})"


def theorem_b_check(fld: str, p: int, n: int, codim: int,
                    index_bound: Optional[int] = None) -> ObstructionVerdict:
    """Gate for the Cartan-type rigidity of low-codimension submanifolds.

    Preconditions: 3 <= p < n/2, codim >= 1 and an ``index_bound``, if
    given, of at least 1.  Applicable when
    index <= codim <= C_P; in that case the meridian obstruction is
    verified: every meridian of the ambient Grassmannian has codimension
    strictly above C_P, so no sphere factor can hide in one.
    """
    if fld not in GRASSMANNIANS:
        raise ValueError("field must be R, C or H")
    if not (3 <= p and 2 * p < n):
        raise ValueError("need 3 <= p < n/2")
    _require_proper(codim)
    if index_bound is not None and index_bound < 1:
        raise ValueError("index bound >= 1 required")
    q = n - p
    ambient = instantiate(GRASSMANNIANS[fld][0], (p, q))
    idx = index_lower_bound(fld, p) if index_bound is None else index_bound
    if not idx <= codim:
        return ObstructionVerdict(False, f"codim {codim} below index bound {idx}",
                                  ambient, idx)
    if Fraction(codim) > ambient.cp:
        return ObstructionVerdict(False, f"codim {codim} exceeds C_P = {ambient.cp}",
                                  ambient, idx)
    mmin = min_meridian_codim(fld, p, q)
    assert Fraction(mmin) > ambient.cp, (fld, p, q, mmin, ambient.cp)
    return ObstructionVerdict(True, "index <= codim <= C_P", ambient, idx, mmin)


def min_meridian_codim(fld: str, p: int, q: int) -> int:
    """Smallest proper-meridian codimension over the family a + b = p, a < p.

    When p = q the a = 0 meridian is the whole Grassmannian (codimension
    0) and is not a proper submanifold, so it is excluded.  The
    codimension c * (p(q - p) - 2a^2 - a(q - 3p)) is concave in a and 0
    at a = p, so it is positive for 0 < a < p (and at a = 0 when p < q),
    and its minimum over the proper range lies at one of its two ends.
    """
    ends = {0 if p < q else 1, p - 1}
    proper = [c for c in (meridian_codim(fld, p, q, a, p - a)
                          for a in ends if 0 <= a < p) if c > 0]
    assert proper, (fld, p, q)
    return min(proper)
