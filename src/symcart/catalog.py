"""Catalog of irreducible simply connected compact symmetric spaces.

Each space is identified by a Cartan symbol and integer parameters, e.g.
AIII(2,5) for SU(7)/S(U(2)U(5)).  Instantiation derives the dimension,
the restricted root system with multiplicities, the threshold k_P, the
minimal orbit dimension d_P = dim - k_P, and the codimension budget
C_P = d_P/2 - 4 (an exact rational: half-integers are common).

>>> s = instantiate("AII", (5,))
>>> (s.dim, s.kp, s.dp, s.cp)
(44, 28, 16, Fraction(4, 1))
>>> instantiate("DIII", (5,)).cp
Fraction(5, 2)
>>> instantiate("Sp", (2,)).label()
'Spin(5)'
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import attrgetter
from typing import Callable, Iterator, List, NamedTuple, Tuple

from .rootsys import (Multiplicities, RootSystemType, kp_by_deletion, mults,
                      root_type)
from .values import value_tuple


def _label(symbol: str, params: Tuple[int, ...]) -> str:
    """``AIII(3,2)``, ``SU(1)``, or the bare symbol without parameters."""
    return f"{symbol}({','.join(map(str, params))})" if params else symbol


class SpaceInstance(NamedTuple):
    """One catalog space: its Cartan symbol, parameters, dimension, rank
    and threshold k_P; d_P and C_P follow from these.  Spaces sort by
    these fields in this order."""

    symbol: str
    params: Tuple[int, ...]
    dim: int
    rank: int
    kp: int

    @property
    def dp(self) -> int:
        return self.dim - self.kp

    @property
    def cp(self) -> Fraction:
        return Fraction(self.dp, 2) - 4

    @property
    def valid(self) -> bool:
        """Valid dimension: C_P >= 1, equivalently d_P >= 10."""
        return self.dp >= 10

    def label(self) -> str:
        return _label(self.symbol, self.params)

    def __repr__(self):
        return f"<{self.label()} dim={self.dim} k={self.kp}>"


class ConstraintError(ValueError):
    """Parameters violate a class constraint; message names the condition."""


class ReducibleError(ConstraintError):
    """The presentation is a product, not an irreducible space."""

    def __init__(self, label, factors):
        super().__init__(f"{label} is reducible; use the product {factors}")
        self.factors = factors


# Presentations that coincide with another catalog space.  The canonical
# representative is always on the right; instantiate() follows these
# rewrites, so the left-hand presentations never appear as instances.
SPECIAL_ISOMORPHISMS = {
    ("AI", (2,)): ("S", (2,)),
    ("AII", (2,)): ("S", (5,)),
    ("AIII", (1, 1)): ("S", (2,)),
    ("AIII", (2, 2)): ("BDI", (2, 4)),
    ("BDI", (3, 3)): ("AI", (4,)),
    ("CI", (1,)): ("S", (2,)),
    ("CI", (2,)): ("BDI", (2, 3)),
    ("CII", (1, 1)): ("S", (4,)),
    ("DIII", (2,)): ("S", (2,)),
    ("DIII", (3,)): ("AIII", (1, 3)),
    ("DIII", (4,)): ("BDI", (2, 6)),
    ("SU", (2,)): ("S", (3,)),
    ("Spin", (3,)): ("S", (3,)),
    ("Spin", (6,)): ("SU", (4,)),
    ("Sp", (1,)): ("S", (3,)),
    ("Sp", (2,)): ("Spin", (5,)),
}

# Presentations that split as products of spheres.
PRODUCT_ISOMORPHISMS = {
    ("Spin", (4,)): (("S", (3,)), ("S", (3,))),
    ("BDI", (2, 2)): (("S", (2,)), ("S", (2,))),
}

# Exceptional spaces: dim, restricted root system, multiplicities
# (m_s, m_l, m_xl), and the published (d_P, k_P) pair kept for
# cross-checking.
_EXCEPTIONAL = {
    "E6": (78, root_type("E6", 6), mults(0, 2, 0), (32, 46)),
    "E7": (133, root_type("E7", 7), mults(0, 2, 0), (54, 79)),
    "E8": (248, root_type("E8", 8), mults(0, 2, 0), (114, 134)),
    "EI": (42, root_type("E6", 6), mults(0, 1, 0), (16, 26)),
    "EII": (40, root_type("F4", 4), mults(2, 1, 0), (21, 19)),
    "EIII": (32, root_type("BC", 2), mults(8, 6, 1), (21, 11)),
    "EIV": (26, root_type("A", 2), mults(0, 8, 0), (16, 10)),
    "EV": (70, root_type("E7", 7), mults(0, 1, 0), (27, 43)),
    "EVI": (64, root_type("F4", 4), mults(4, 1, 0), (33, 31)),
    "EVII": (54, root_type("C", 3), mults(8, 1, 0), (27, 27)),
    "EVIII": (128, root_type("E8", 8), mults(0, 1, 0), (57, 71)),
    "EIX": (112, root_type("F4", 4), mults(8, 1, 0), (57, 55)),
    "F4": (52, root_type("F4", 4), mults(2, 2, 0), (30, 22)),
    "FI": (28, root_type("F4", 4), mults(1, 1, 0), (15, 13)),
    "FII": (16, root_type("BC", 1), mults(8, 0, 7), (15, 1)),
    "G2": (14, root_type("G2", 2), mults(2, 2, 0), (10, 4)),
    "G": (8, root_type("G2", 2), mults(1, 1, 0), (5, 3)),
}

EXCEPTIONAL_SYMBOLS = tuple(_EXCEPTIONAL)


class _Family(NamedTuple):
    """One family of catalog spaces: presentations ``symbol(params)``.

    Parameters (at most two) are nondecreasing and at least ``smallest``
    (n >= n0, or p0 <= p <= q); ``note`` says why smaller ones are left
    out.  ``dim`` grows in every parameter.  ``sweep`` lists and ``count``
    counts the tuples up to a dim, for the catalog build and for each
    region of ``symcart.regions``, a family of its running parameters.
    For a classical family ``datum`` gives the restricted root system
    and its multiplicities (Helgason, Differential Geometry, Lie Groups,
    and Symmetric Spaces, Ch. X), built by ``rootsys``'s interning
    constructors.
    """

    smallest: Tuple[int, ...]
    dim: Callable[..., int]
    datum: Callable[..., Tuple[RootSystemType, Multiplicities]]
    note: str = ""

    def requires(self) -> str:
        lo = self.smallest[0]
        cond = f"n >= {lo}" if len(self.smallest) == 1 else f"{lo} <= p <= q"
        return f"{cond} ({self.note})" if self.note else cond

    def admits(self, params: Tuple[int, ...]) -> bool:
        return (len(params) == len(self.smallest)
                and self.smallest[0] <= params[0] <= params[-1])

    def _runs(self, max_dim: int) -> Iterator[Tuple[Tuple[int, ...],
                                                    Tuple[range, ...]]]:
        """The admitted tuples with dim <= max_dim as runs (prefix, rest),
        each the tuples prefix + r for r in ``product(*rest)``.

        ``rest`` is a range of the last parameter, one run per value of
        the first if there are two; a family with no parameters has the
        one run ((), ()), of the tuple (), if dim() <= max_dim.  dim
        grows in every parameter, and an integer dim passes max_dim
        within max_dim + 1 steps, so bisection ends each range; the first
        empty one ends the prefixes, since later ones start no lower.
        """
        if not self.smallest:
            if self.dim() <= max_dim:
                yield (), ()
            return
        *first, last = self.smallest
        prefixes = ((p,) for p in itertools.count(*first)) if first else [()]
        for prefix in prefixes:
            start = max((last, *prefix))
            values = range(start, start + max_dim + 1)
            end = bisect_right(values, max_dim,
                               key=lambda v: self.dim(*prefix, v))
            if not end:
                return
            yield prefix, (values[:end],)

    def sweep(self, max_dim: int) -> List[Tuple[int, ...]]:
        """Every admitted parameter tuple with dim <= max_dim, in order."""
        return [prefix + r for prefix, rest in self._runs(max_dim)
                for r in itertools.product(*rest)]

    def count(self, max_dim: int) -> int:
        """The number of admitted tuples with dim <= max_dim, summed over
        the runs without building a tuple."""
        return sum(prod(map(len, rest)) for _, rest in self._runs(max_dim))


def _grassmannian(c: int) -> _Family:
    """Gr(F, p, p+q) over the field F of real dimension c."""
    def datum(p, q):
        if p == q:
            if c == 1:
                return root_type("D", p), mults(0, 1, 0)
            return root_type("C", p), mults(c, c - 1, 0)
        if c == 1:
            return root_type("B", p), mults(q - p, 1, 0)
        return root_type("BC", p), mults(c * (q - p), c, c - 1)

    smallest, note = ((2, 2), "p = 1 is a sphere") if c == 1 else ((1, 1), "")
    return _Family(smallest, lambda p, q: c * p * q, datum, note)


# Grassmannians Gr(F, p, n) by field F: Cartan symbol and real dimension c.
GRASSMANNIANS = {"R": ("BDI", 1), "C": ("AIII", 2), "H": ("CII", 4)}

_CLASSICAL = {
    "SU": _Family((2,), lambda n: n * n - 1, lambda n: (
        root_type("A", n - 1), mults(0, 2, 0))),
    "AI": _Family((2,), lambda n: (n - 1) * (n + 2) // 2, lambda n: (
        root_type("A", n - 1), mults(0, 1, 0))),
    "AII": _Family((2,), lambda n: (n - 1) * (2 * n + 1), lambda n: (
        root_type("A", n - 1), mults(0, 4, 0))),
    "Spin": _Family((5,), lambda n: n * (n - 1) // 2, lambda n: (
        (root_type("B", (n - 1) // 2), mults(2, 2, 0))
        if n % 2 else (root_type("D", n // 2), mults(0, 2, 0))),
        "smaller spin groups are spheres/products"),
    "Sp": _Family((2,), lambda n: n * (2 * n + 1), lambda n: (
        root_type("C", n), mults(2, 2, 0))),
    "CI": _Family((2,), lambda n: n * (n + 1), lambda n: (
        root_type("C", n), mults(1, 1, 0))),
    "DIII": _Family((5,), lambda n: n * (n - 1), lambda n: (
        (root_type("BC", (n - 1) // 2), mults(4, 4, 1))
        if n % 2 else (root_type("C", n // 2), mults(4, 1, 0))),
        "smaller cases are isomorphic to other spaces"),
    **{symbol: _grassmannian(c) for symbol, c in GRASSMANNIANS.values()},
}

# Every catalog symbol's family: the spheres, the classical families and
# the exceptional spaces (no parameter); ``instantiate`` builds the
# spheres and the exceptional spaces without a ``datum``.
FAMILIES = {
    "S": _Family((2,), lambda n: n, None),
    **_CLASSICAL,
    **{symbol: _Family((), lambda dim=dim: dim, None)
       for symbol, (dim, *_) in _EXCEPTIONAL.items()},
}


def _require(cond: bool, label: str, condition: str):
    if not cond:
        raise ConstraintError(f"{label}: requires {condition}")


def _root_datum(symbol: str, params: Tuple[int, ...]):
    """(dim, root system, multiplicities) for a classical presentation."""
    family = _CLASSICAL.get(symbol)
    if family is None:
        raise ConstraintError(f"unknown class symbol {symbol!r}")
    if not family.admits(params):
        raise ConstraintError(f"{_label(symbol, params)}: requires "
                              f"{family.requires()}")
    return (family.dim(*params), *family.datum(*params))


@lru_cache(maxsize=None)
def instantiate(symbol: str, params: Tuple[int, ...] = ()) -> SpaceInstance:
    """Build a space, following special isomorphisms to the canonical form;
    ``params`` is a tuple, since it is part of the cache key."""
    if symbol == "BDI" and len(params) == 2 and params[0] == 1:
        symbol, params = "S", (params[1],)          # Gr(R,1,1+q) covers to S^q
    while (symbol, params) in SPECIAL_ISOMORPHISMS:
        symbol, params = SPECIAL_ISOMORPHISMS[(symbol, params)]
    if (symbol, params) in PRODUCT_ISOMORPHISMS:
        raise ReducibleError(_label(symbol, params),
                             PRODUCT_ISOMORPHISMS[(symbol, params)])
    return build_space(symbol, params)


def build_space(symbol: str, params: Tuple[int, ...]) -> SpaceInstance:
    """The space of a canonical presentation, uncached.

    The parameters are checked (``ConstraintError``), but no isomorphism
    is followed: ``instantiate`` rewrites a presentation first and caches
    the result, and the catalog build calls this on the canonical
    presentations it sweeps.
    """
    if symbol == "S":
        _require(len(params) == 1, _label("S", params), "one parameter n >= 2")
        n, = params
        _require(n >= 2, f"S({n})", "n >= 2 (the circle is not simply connected)")
        return SpaceInstance("S", params, dim=n, rank=1, kp=1)
    if symbol in _EXCEPTIONAL:
        _require(not params, symbol, "no parameters")
        dim, root, mult, published = _EXCEPTIONAL[symbol]
    else:
        (dim, root, mult), published = _root_datum(symbol, params), None
    kp = kp_by_deletion(root, mult).value
    assert published in (None, (dim - kp, kp)), (symbol, kp, published)
    return SpaceInstance(symbol, params, dim, root.rank, kp)


def sharp(p: SpaceInstance, codim: int) -> int:
    """Connectivity number of a codimension-`codim` inclusion: 2 + d_P - 2 codim."""
    if not 0 <= codim <= p.dim:
        raise ValueError("codimension out of range")
    return 2 + p.dp - 2 * codim


class ProductSpace(value_tuple("ProductSpace", "factors")):
    """A finite product of catalog spaces, order-insensitive: the
    factors are kept sorted."""

    __slots__ = ()

    def __new__(cls, factors: Tuple[SpaceInstance, ...]):
        if not factors:
            raise ValueError("a product needs at least one factor")
        return tuple.__new__(cls, (tuple(sorted(factors)),))

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    def label(self) -> str:
        return " x ".join(f.label() for f in self.factors)

    def __repr__(self):
        return f"<{self.label()}>"


def product_kp(q: ProductSpace) -> int:
    """k of a product: total dimension minus the smallest factor d_P.

    For two factors this is max(n + k2, m + k1), since n + k2 =
    (n + m) - d2; the fold extends it to any number of factors.
    """
    return q.dim - min(f.dp for f in q.factors)


def reference_classical(symbol: str, params: Tuple[int, ...]):
    """Published (d_P, k_P, C_P) for a classical presentation, or None.

    These are the independently printed closed forms, kept verbatim so the
    root-system computation can be checked against them.  Conditions follow
    the published rows; presentations outside them return None.
    """
    def row(d, k):
        return d, k, Fraction(d, 2) - 4

    if symbol == "SU":
        n, = params
        if n >= 3:
            return row(2 * (n - 1), (n - 1) ** 2)
    elif symbol == "AI":
        n, = params
        if n >= 2:
            return row(n - 1, n * (n - 1) // 2)
    elif symbol == "AII":
        n, = params
        if n >= 2:
            return row(4 * (n - 1), (2 * n - 3) * (n - 1))
    elif symbol == "AIII":
        p, q = params
        if p == 2 == q:
            return row(4, 4)
        if p == 2 and q == 3:
            return row(7, 5)
        if p == 2 and q >= 4:
            return row(2 * q + 1, 2 * q - 1)
        if 3 <= p <= q:
            return row(2 * (p + q) - 3, 2 * p * q - 2 * (p + q) + 3)
    elif symbol == "Spin":
        m, = params
        if m % 2 and m >= 5:
            n = (m - 1) // 2
            return row(4 * n - 2, n * (2 * n - 3) + 2)
        if m % 2 == 0 and m >= 8:
            n = m // 2
            return row(4 * n - 4, n * (2 * n - 5) + 4)
    elif symbol == "BDI":
        p, q = params
        if p == 2 and q >= 3:
            return row(q, q)
        if p == 3 == q:
            return row(3, 6)
        if p == 3 and q >= 4:
            return row(q + 1, 2 * q - 1)
        if 4 <= p <= q:
            return row(p + q - 2, p * q - p - q + 2)
    elif symbol == "Sp":
        n, = params
        if n >= 2:
            return row(4 * n - 2, n * (2 * n - 3) + 2)
    elif symbol == "CI":
        n, = params
        if n >= 2:
            return row(2 * n - 1, n * (n - 1) + 1)
    elif symbol == "CII":
        p, q = params
        if p == 2 == q:
            return row(10, 6)
        if p == 2 and q >= 3:
            return row(4 * q + 3, 4 * q - 3)
        if 3 <= p <= q:
            return row(4 * (p + q) - 5, 4 * p * q - 4 * (p + q) + 5)
    elif symbol == "DIII":
        m, = params
        if m in (4, 5, 6, 7):
            return row({4: 6, 5: 13, 6: 15, 7: 21}[m],
                       {4: 6, 5: 7, 6: 15, 7: 21}[m])
        if m >= 8:
            return row(4 * m - 7, m * (m - 5) + 7)
    return None


def reference_exceptional(symbol: str):
    """Published (d_P, k_P) for an exceptional space."""
    return _EXCEPTIONAL[symbol][3]


def classical_presentations(max_param: int = 30):
    """Every classical presentation with a reference row, parameters bounded.

    Yields (symbol, params) pairs covering each row family of
    reference_classical with its table parameter swept up to max_param.
    """
    for n in range(3, max_param + 1):
        yield "SU", (n,)
    for n in range(2, max_param + 1):
        yield "AI", (n,)
        yield "AII", (n,)
        yield "Sp", (n,)
        yield "CI", (n,)
    for n in range(2, max_param + 1):       # Spin(2n+1)
        yield "Spin", (2 * n + 1,)
    for n in range(4, max_param + 1):       # Spin(2n)
        yield "Spin", (2 * n,)
    for q in range(2, max_param + 1):
        yield "AIII", (2, q)
        yield "CII", (2, q)
    for q in range(3, max_param + 1):
        yield "BDI", (2, q)
    for q in range(3, max_param + 1):
        yield "BDI", (3, q)
    for p in range(3, max_param + 1):
        for q in range(p, max_param + 1):
            yield "AIII", (p, q)
            yield "CII", (p, q)
    for p in range(4, max_param + 1):
        for q in range(p, max_param + 1):
            yield "BDI", (p, q)
    for n in range(4, max_param + 1):
        yield "DIII", (n,)


_name = attrgetter("symbol", "params")     # a space's (symbol, params)

# The presentations instantiate() rewrites or rejects as a product.  No
# family's sweep or region's box reaches another non-canonical one: both
# start BDI at p = 2, so the sphere Gr(R,1,1+q) is never read as BDI(1,q).
_NOT_CANONICAL = SPECIAL_ISOMORPHISMS.keys() | PRODUCT_ISOMORPHISMS.keys()

# every canonical instance with dim <= _catalog_dim, in enumerate_catalog's
# order; built for the largest max_dim asked so far in this process
_catalog: List[SpaceInstance] = []
_catalog_dim = 0


def _build_catalog(max_dim: int) -> List[SpaceInstance]:
    """Every canonical space with dim <= max_dim, in (symbol, params) order.

    Each family's parameters are swept in runs (``_Family.sweep``).  A
    presentation that is a special or product isomorphism is skipped by
    one lookup; every other one is canonical and is built by the uncached
    ``build_space``, so a build leaves nothing in ``instantiate``'s cache.
    The spaces share their root data, interned by ``rootsys``, and the
    deletion counts of each (type, node), cached there.
    """
    out = []
    for symbol, family in FAMILIES.items():
        for params in family.sweep(max_dim):
            if (symbol, params) not in _NOT_CANONICAL:
                out.append(build_space(symbol, params))
    out.sort(key=_name)
    assert len(set(map(_name, out))) == len(out)
    return out


def enumerate_catalog(max_dim: int):
    """Every canonical irreducible instance with dim <= max_dim, once each.

    Spheres are included, from S^2 up.  A presentation is listed only in
    the canonical form instantiate() returns, so presentations merged by
    special isomorphism are never emitted twice.

    The catalog is built once per process, for the largest max_dim asked
    so far, by ``_build_catalog``: families swept in runs, isomorphic
    presentations skipped by lookup, each space made by the uncached
    ``build_space`` from interned root data and cached deletion counts.
    Each call returns a fresh list of the catalog's instances with
    dim <= max_dim, in its (symbol, params) order.
    """
    global _catalog, _catalog_dim
    if max_dim < 1:
        raise ValueError("max_dim >= 1 required")
    if max_dim > _catalog_dim:
        _catalog, _catalog_dim = _build_catalog(max_dim), max_dim
    return [s for s in _catalog if s.dim <= max_dim]
