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

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Callable, List, NamedTuple, Tuple

from .rootsys import Multiplicities, RootSystemType, kp_by_deletion


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
        if not self.params:
            return self.symbol
        return f"{self.symbol}({','.join(map(str, self.params))})"

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

# Exceptional spaces: dim, restricted root system, multiplicities,
# and the published (d_P, k_P) pair kept for cross-checking.
_EXCEPTIONAL = {
    "E6": (78, RootSystemType("E6"), Multiplicities(m_l=2), (32, 46)),
    "E7": (133, RootSystemType("E7"), Multiplicities(m_l=2), (54, 79)),
    "E8": (248, RootSystemType("E8"), Multiplicities(m_l=2), (114, 134)),
    "EI": (42, RootSystemType("E6"), Multiplicities(m_l=1), (16, 26)),
    "EII": (40, RootSystemType("F4"), Multiplicities(m_s=2, m_l=1), (21, 19)),
    "EIII": (32, RootSystemType("BC", 2), Multiplicities(8, 6, 1), (21, 11)),
    "EIV": (26, RootSystemType("A", 2), Multiplicities(m_l=8), (16, 10)),
    "EV": (70, RootSystemType("E7"), Multiplicities(m_l=1), (27, 43)),
    "EVI": (64, RootSystemType("F4"), Multiplicities(m_s=4, m_l=1), (33, 31)),
    "EVII": (54, RootSystemType("C", 3), Multiplicities(m_s=8, m_l=1), (27, 27)),
    "EVIII": (128, RootSystemType("E8"), Multiplicities(m_l=1), (57, 71)),
    "EIX": (112, RootSystemType("F4"), Multiplicities(m_s=8, m_l=1), (57, 55)),
    "F4": (52, RootSystemType("F4"), Multiplicities(m_s=2, m_l=2), (30, 22)),
    "FI": (28, RootSystemType("F4"), Multiplicities(m_s=1, m_l=1), (15, 13)),
    "FII": (16, RootSystemType("BC", 1), Multiplicities(m_s=8, m_xl=7), (15, 1)),
    "G2": (14, RootSystemType("G2"), Multiplicities(m_s=2, m_l=2), (10, 4)),
    "G": (8, RootSystemType("G2"), Multiplicities(m_s=1, m_l=1), (5, 3)),
}

EXCEPTIONAL_SYMBOLS = tuple(_EXCEPTIONAL)


class _Family(NamedTuple):
    """One family of catalog spaces: presentations ``symbol(params)``.

    Parameters are nondecreasing and at least ``smallest`` (n >= n0, or
    p0 <= p <= q); ``note`` says why smaller ones are left out.  ``dim``
    grows in every parameter; for a classical family ``datum`` gives the
    restricted root system and its multiplicities (Helgason, Differential
    Geometry, Lie Groups, and Symmetric Spaces, Ch. X).
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
                and self.smallest[0] <= params[0]
                and list(params) == sorted(params))

    def sweep(self, max_dim: int, prefix: Tuple[int, ...] = ()):
        """Every admitted parameter tuple from prefix on with dim <= max_dim."""
        rest = len(self.smallest) - len(prefix)
        if not rest:
            yield prefix
            return
        i = len(prefix)
        v = max(self.smallest[i], prefix[-1]) if prefix else self.smallest[0]
        # dim grows in every parameter: the least completion bounds the rest
        while self.dim(*prefix, *[v] * rest) <= max_dim:
            yield from self.sweep(max_dim, prefix + (v,))
            v += 1


def _grassmannian(c: int) -> _Family:
    """Gr(F, p, p+q) over the field F of real dimension c."""
    def datum(p, q):
        if p == q:
            if c == 1:
                return RootSystemType("D", p), Multiplicities(m_l=1)
            return RootSystemType("C", p), Multiplicities(m_s=c, m_l=c - 1)
        if c == 1:
            return RootSystemType("B", p), Multiplicities(m_s=q - p, m_l=1)
        return RootSystemType("BC", p), Multiplicities(c * (q - p), c, c - 1)

    smallest, note = ((2, 2), "p = 1 is a sphere") if c == 1 else ((1, 1), "")
    return _Family(smallest, lambda p, q: c * p * q, datum, note)


# Grassmannians Gr(F, p, n) by field F: Cartan symbol and real dimension c.
GRASSMANNIANS = {"R": ("BDI", 1), "C": ("AIII", 2), "H": ("CII", 4)}

_CLASSICAL = {
    "SU": _Family((2,), lambda n: n * n - 1, lambda n: (
        RootSystemType("A", n - 1), Multiplicities(m_l=2))),
    "AI": _Family((2,), lambda n: (n - 1) * (n + 2) // 2, lambda n: (
        RootSystemType("A", n - 1), Multiplicities(m_l=1))),
    "AII": _Family((2,), lambda n: (n - 1) * (2 * n + 1), lambda n: (
        RootSystemType("A", n - 1), Multiplicities(m_l=4))),
    "Spin": _Family((5,), lambda n: n * (n - 1) // 2, lambda n: (
        (RootSystemType("B", (n - 1) // 2), Multiplicities(m_s=2, m_l=2))
        if n % 2 else (RootSystemType("D", n // 2), Multiplicities(m_l=2))),
        "smaller spin groups are spheres/products"),
    "Sp": _Family((2,), lambda n: n * (2 * n + 1), lambda n: (
        RootSystemType("C", n), Multiplicities(m_s=2, m_l=2))),
    "CI": _Family((2,), lambda n: n * (n + 1), lambda n: (
        RootSystemType("C", n), Multiplicities(m_s=1, m_l=1))),
    "DIII": _Family((5,), lambda n: n * (n - 1), lambda n: (
        (RootSystemType("BC", (n - 1) // 2), Multiplicities(4, 4, 1))
        if n % 2 else (RootSystemType("C", n // 2), Multiplicities(m_s=4, m_l=1))),
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
        raise ConstraintError(f"{symbol}{params}: requires {family.requires()}")
    return (family.dim(*params), *family.datum(*params))


@lru_cache(maxsize=None)
def instantiate(symbol: str, params: Tuple[int, ...] = ()) -> SpaceInstance:
    """Build a space, following special isomorphisms to the canonical form."""
    params = tuple(params)
    if symbol == "BDI" and len(params) == 2 and params[0] == 1:
        symbol, params = "S", (params[1],)          # Gr(R,1,1+q) covers to S^q
    while (symbol, params) in SPECIAL_ISOMORPHISMS:
        symbol, params = SPECIAL_ISOMORPHISMS[(symbol, params)]
    if (symbol, params) in PRODUCT_ISOMORPHISMS:
        raise ReducibleError(f"{symbol}{params}",
                             PRODUCT_ISOMORPHISMS[(symbol, params)])
    if symbol == "S":
        _require(len(params) == 1, f"S{params}", "one parameter n >= 2")
        n, = params
        _require(n >= 2, f"S({n})", "n >= 2 (the circle is not simply connected)")
        return SpaceInstance("S", params, dim=n, rank=1, kp=1)
    if symbol in _EXCEPTIONAL:
        _require(not params, symbol, "no parameters")
        dim, root, mults, published = _EXCEPTIONAL[symbol]
    else:
        (dim, root, mults), published = _root_datum(symbol, params), None
    kp = kp_by_deletion(root, mults).value
    assert published in (None, (dim - kp, kp)), (symbol, kp, published)
    return SpaceInstance(symbol, params, dim, root.rank, kp)


def sharp(p: SpaceInstance, codim: int) -> int:
    """Connectivity number of a codimension-`codim` inclusion: 2 + d_P - 2 codim."""
    if not 0 <= codim <= p.dim:
        raise ValueError("codimension out of range")
    return 2 + p.dp - 2 * codim


class ProductSpace(namedtuple("ProductSpace", "factors")):
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

# every canonical instance with dim <= _catalog_dim, in enumerate_catalog's
# order; built for the largest max_dim asked so far in this process
_catalog: List[SpaceInstance] = []
_catalog_dim = 0


def _build_catalog(max_dim: int) -> List[SpaceInstance]:
    out = []
    for symbol, family in FAMILIES.items():
        for params in family.sweep(max_dim):
            try:
                s = instantiate(symbol, params)
            except ReducibleError:
                continue
            # a space without parameters is swept whatever its dim
            if (s.symbol, s.params) == (symbol, params) and s.dim <= max_dim:
                out.append(s)
    out.sort(key=_name)
    assert len(set(map(_name, out))) == len(out)
    return out


def enumerate_catalog(max_dim: int):
    """Every canonical irreducible instance with dim <= max_dim, once each.

    Spheres are included, from S^2 up.  A classical presentation is kept
    only when instantiate() returns it unchanged, so presentations merged
    by special isomorphism are never emitted twice.

    The catalog is built once per process, for the largest max_dim asked
    so far; each call returns a fresh list of its instances with
    dim <= max_dim, in the catalog's (symbol, params) order.
    """
    global _catalog, _catalog_dim
    if max_dim < 1:
        raise ValueError("max_dim >= 1 required")
    if max_dim > _catalog_dim:
        _catalog, _catalog_dim = _build_catalog(max_dim), max_dim
    return [s for s in _catalog if s.dim <= max_dim]
