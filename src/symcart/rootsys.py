"""Restricted root systems with length classes.

Positive roots are stored as coefficient vectors over the simple roots
alpha_1..alpha_r.  A classical type's roots are listed in the orthonormal
basis e_1..e_n, as Bourbaki's Plates I-IV state them, and one change of
basis gives their coefficients; an exceptional type's come from the
closure of its simple roots' Gram matrix.  The key quantity computed here
is

    k(type, mult) = r + max_j  sum of multiplicities of the positive
                               roots whose j-th coefficient vanishes,

The roots whose j-th coefficient vanishes are the positive roots of the
subsystem left by deleting node j of the Dynkin diagram (Bourbaki, Lie
Groups and Lie Algebras, Ch. VI), so each node's count follows from the
types of the pieces left, with no root enumerated, and k costs O(1) for
a classical type (only four nodes can maximize) and O(rank) otherwise:
this is ``kp_by_deletion``, the path the catalog uses.  Two independent
oracles check it: direct enumeration of the positive roots
(``zero_coeff_counts``, ``kp_enumerated``) and the published closed
forms for k itself (``kp_closed_form``, with small-rank and exceptional
gaps).  The catalog's many spaces share few root data: ``root_type`` and
``mults`` intern them, and ``deletion_counts`` is cached per (type, node).

>>> len(positive_roots(RootSystemType("E8")))
120
>>> zero_coeff_counts(RootSystemType("F4"), 1)
(6, 3, 0)
>>> kp_enumerated(RootSystemType("A", 7), Multiplicities(m_l=2))
KpResult(value=49, maximizer=1)
>>> kp_by_deletion(RootSystemType("A", 7), Multiplicities(m_l=2))
KpResult(value=49, maximizer=1)
"""

from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import NamedTuple, Optional, Tuple

from .values import value_tuple

SHORT = "short"
LONG = "long"
EXTRA_LONG = "extra_long"

_EXCEPTIONAL_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
_EXCEPTIONAL_COUNT = {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "BC": 1}
CLASSICAL_SYMBOLS = tuple(_MIN_RANK)


class RootSystemType(value_tuple("RootSystemType", "symbol rank")):
    """A (possibly non-reduced) irreducible root system type.

    An exceptional type's rank may be left out.  D(2) and D(3) are
    rejected: the former is reducible and the latter coincides with
    A(3), so neither is a separate type here.
    """

    __slots__ = ()

    def __new__(cls, symbol: str, rank: int = 0):
        if symbol in _EXCEPTIONAL_RANK:
            r = _EXCEPTIONAL_RANK[symbol]
            if rank not in (0, r):
                raise ValueError(f"{symbol} has rank {r}")
            return tuple.__new__(cls, (symbol, r))
        lo = _MIN_RANK.get(symbol)
        if lo is None:
            raise ValueError(f"unknown root system symbol {symbol!r}")
        if rank < lo:
            raise ValueError(f"{symbol} requires rank >= {lo}, got {rank}")
        return tuple.__new__(cls, (symbol, rank))


class PositiveRoot(NamedTuple):
    coeffs: Tuple[int, ...]
    length_class: str


class Multiplicities(value_tuple("Multiplicities", "m_s m_l m_xl")):
    """Root-space dimensions per length class.

    Simply-laced systems store their single multiplicity in m_l; unused
    classes are zero.
    """

    __slots__ = ()

    def __new__(cls, m_s: int = 0, m_l: int = 0, m_xl: int = 0):
        if min(m_s, m_l, m_xl) < 0:
            raise ValueError("multiplicities must be nonnegative")
        return tuple.__new__(cls, (m_s, m_l, m_xl))


# The catalog's root data, built once per distinct value: every argument
# is passed, so each value has one cache key.

@lru_cache(maxsize=None)
def root_type(symbol: str, rank: int, /) -> RootSystemType:
    """The process's one ``RootSystemType(symbol, rank)``."""
    return RootSystemType(symbol, rank)


@lru_cache(maxsize=None)
def mults(m_s: int, m_l: int, m_xl: int, /) -> Multiplicities:
    """The process's one ``Multiplicities(m_s, m_l, m_xl)``."""
    return Multiplicities(m_s, m_l, m_xl)


def _classical_roots(symbol: str, r: int) -> list:
    """Positive roots of A, B, C, D or BC, listed in the orthonormal basis.

    Bourbaki (Ch. VI, Plates I-IV) states each root in e_1..e_n (n = r + 1
    for A, else r), with simple roots alpha_i = e_i - e_{i+1} for i < r and
    alpha_r = e_r - e_{r+1} (A), e_r (B, BC), 2e_r (C) or e_{r-1} + e_r
    (D).  Over the alpha_i = e_i - e_{i+1} a root's coefficients are its
    partial sums; only alpha_r differs by type: C halves the last sum, and
    D halves it and takes the half from the sum before.
    """
    n = r + 1 if symbol == "A" else r
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    unit = [{j: 1} for j in range(n)]                       # e_j
    double = [{j: 2} for j in range(n)]                     # 2e_j
    minus = [{j: 1, k: -1} for j, k in pairs]               # e_j - e_k
    plus = [{j: 1, k: 1} for j, k in pairs]                 # e_j + e_k
    both = [v for pair in zip(minus, plus) for v in pair]
    listed = {"A": [(minus, LONG)],
              "B": [(unit, SHORT), (both, LONG)],
              "BC": [(unit, SHORT), (both, LONG), (double, EXTRA_LONG)],
              "C": [(double, LONG), (both, SHORT)],
              "D": [(minus, LONG), (plus, LONG)]}[symbol]
    roots = []
    for vectors, cls in listed:
        for v in vectors:
            sums, total = [], 0
            for j, c in v.items():                # partial sums of v
                sums += [total] * (j - len(sums))
                total += c
            sums += [total] * (r - len(sums))
            if symbol in ("C", "D"):
                sums[-1] //= 2
                if symbol == "D":
                    sums[-2] -= sums[-1]
            roots.append(PositiveRoot(tuple(sums), cls))
    return roots


def _exceptional_gram(symbol: str):
    """Integer Gram matrix of the simple roots (Bourbaki numbering)."""
    if symbol in ("E6", "E7", "E8"):
        r = _EXCEPTIONAL_RANK[symbol]
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if r >= 7:
            edges.append((6, 7))
        if r >= 8:
            edges.append((7, 8))
        g = [[0] * r for _ in range(r)]
        for i in range(r):
            g[i][i] = 2
        for a, b in edges:
            g[a - 1][b - 1] = g[b - 1][a - 1] = -1
        return g
    if symbol == "F4":
        # alpha1, alpha2 long; alpha3, alpha4 short; scaled by 2 to stay integral
        return [[4, -2, 0, 0],
                [-2, 4, -2, 0],
                [0, -2, 2, -1],
                [0, 0, -1, 2]]
    if symbol == "G2":
        return [[2, -3],
                [-3, 6]]
    raise AssertionError(symbol)


def _closure_roots(g) -> list:
    """Positive roots spanned by simple roots of Gram matrix g, by closure.

    Built height by height: a candidate alpha + alpha_i is a root iff
    q > 0 where q = p - <alpha, alpha_i^vee>, p the largest k with
    alpha - k*alpha_i still a root.  Each root carries its inner products
    with the simple roots and its norm, each updated from its parent's,
    and the pairing is an exact integer division.  The roots of largest
    norm are long, the rest short.
    """
    r = len(g)
    # root -> (its inner products with the simple roots, its norm)
    roots = {tuple(int(j == i) for j in range(r)): (tuple(g[i]), g[i][i])
             for i in range(r)}
    frontier = list(roots)
    while frontier:
        nxt = []
        for alpha in frontier:
            inner, norm = roots[alpha]
            for i in range(r):
                # p: how far we can subtract alpha_i and stay a root
                p = 0
                probe = list(alpha)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in roots:
                        break
                    p += 1
                pairing, rest = divmod(2 * inner[i], g[i][i])
                assert not rest, (alpha, i)
                if p > pairing:
                    cand = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                    if cand not in roots:
                        roots[cand] = (tuple(map(add, inner, g[i])),
                                       norm + 2 * inner[i] + g[i][i])
                        nxt.append(cand)
        frontier = nxt

    top = max(norm for _, norm in roots.values())
    return [PositiveRoot(a, LONG if roots[a][1] == top else SHORT)
            for a in sorted(roots)]


@lru_cache(maxsize=None)
def positive_roots(t: RootSystemType) -> Tuple[PositiveRoot, ...]:
    """All positive roots of t, with length classes.

    >>> [root.length_class for root in positive_roots(RootSystemType("BC", 1))]
    ['short', 'extra_long']
    """
    if t.symbol in CLASSICAL_SYMBOLS:
        roots = _classical_roots(t.symbol, t.rank)
    else:
        roots = _closure_roots(_exceptional_gram(t.symbol))
    expected = {
        "A": t.rank * (t.rank + 1) // 2,
        "B": t.rank ** 2,
        "C": t.rank ** 2,
        "D": t.rank * (t.rank - 1),
        "BC": t.rank ** 2 + t.rank,
    }.get(t.symbol, _EXCEPTIONAL_COUNT.get(t.symbol))
    assert len(roots) == expected, (t, len(roots), expected)
    assert len({root.coeffs for root in roots}) == len(roots)
    return tuple(roots)


def zero_coeff_counts(t: RootSystemType, j: int) -> Tuple[int, int, int]:
    """(n_short, n_long, n_extra_long) among positive roots with j-th coeff 0."""
    if not 1 <= j <= t.rank:
        raise IndexError(f"simple-root index {j} out of range 1..{t.rank}")
    n = {SHORT: 0, LONG: 0, EXTRA_LONG: 0}
    for root in positive_roots(t):
        if root.coeffs[j - 1] == 0:
            n[root.length_class] += 1
    return n[SHORT], n[LONG], n[EXTRA_LONG]


@lru_cache(maxsize=None)
def deletion_counts(t: RootSystemType, j: int) -> Tuple[int, int, int]:
    """(n_short, n_long, n_extra_long) among positive roots with j-th coeff 0.

    These are the positive roots of the diagram left by deleting node j.
    For a classical type that is A(j-1), whose a = j(j-1)/2 roots are
    e_i - e_k, beside a tail of rank b = r - j of the type's own kind (for
    D, A(r-1) alone when j >= r - 1).  An exceptional diagram leaves
    pieces of type A, B, C, D, E6 or E7, read off its Gram matrix.  No
    root is enumerated either way, and each (type, node) is counted once
    per process.

    >>> [deletion_counts(RootSystemType("BC", 3), j) for j in (1, 2, 3)]
    [(2, 2, 2), (1, 1, 1), (0, 3, 0)]
    """
    if not 1 <= j <= t.rank:
        raise IndexError(f"simple-root index {j} out of range 1..{t.rank}")
    r, s = t.rank, t.symbol
    a, b = j * (j - 1) // 2, r - j
    if s == "A":
        return 0, a + b * (b + 1) // 2, 0
    if s == "B":
        return b, a + b * (b - 1), 0
    if s == "BC":
        return b, a + b * (b - 1), b
    if s == "C":
        return a + b * (b - 1), b, 0
    if s == "D":
        return 0, (a + b * (b - 1) if j <= r - 2 else r * (r - 1) // 2), 0
    return _exceptional_deletion_counts(t, j)


def _exceptional_deletion_counts(t: RootSystemType,
                                 j: int) -> Tuple[int, int, int]:
    g = _exceptional_gram(t.symbol)
    top = max(g[i][i] for i in range(t.rank))
    rest = set(range(t.rank)) - {j - 1}
    n_short = n_long = 0
    while rest:
        piece = [rest.pop()]
        for i in piece:                       # grows into a connected piece
            linked = {k for k in rest if g[i][k]}
            rest -= linked
            piece.extend(linked)
        n = len(piece)
        short = sum(g[i][i] < top for i in piece)
        if 0 < short < n:                     # B(n) or C(n): F4's double bond
            n_s, n_l = (n, n * (n - 1)) if short == 1 else (n * (n - 1), n)
        else:                                 # simply laced, of one length
            roots = _simply_laced_root_count(g, piece)
            n_s, n_l = (roots, 0) if short else (0, roots)
        n_short += n_s
        n_long += n_l
    return n_short, n_long, 0


def _simply_laced_root_count(g, piece) -> int:
    """Positive roots of a connected simply laced piece: A(n), D(n), E6, E7."""
    n = len(piece)
    links = {i: [k for k in piece if k != i and g[i][k]] for i in piece}
    branch = [i for i in piece if len(links[i]) == 3]
    if not branch:
        return n * (n + 1) // 2
    leaves = sum(len(links[k]) == 1 for k in links[branch[0]])
    if leaves >= 2:
        return n * (n - 1)
    return _EXCEPTIONAL_COUNT[f"E{n}"]


class KpResult(NamedTuple):
    value: int
    maximizer: int


def _kp_over_nodes(t: RootSystemType, m: Multiplicities, counts,
                   nodes) -> KpResult:
    m_s, m_l, m_xl = m
    best, best_j = -1, 0
    for j in nodes:
        n_s, n_l, n_xl = counts(t, j)
        total = m_s * n_s + m_l * n_l + m_xl * n_xl
        if total > best:
            best, best_j = total, j
    return KpResult(t.rank + best, best_j)


def kp_enumerated(t: RootSystemType, m: Multiplicities) -> KpResult:
    """k = rank + max_j (multiplicity-weighted zero-coefficient count).

    Reports the smallest maximizing simple-root index.  Counts by
    enumerating every positive root; the oracle for ``kp_by_deletion``.
    """
    return _kp_over_nodes(t, m, zero_coeff_counts, range(1, t.rank + 1))


def kp_by_deletion(t: RootSystemType, m: Multiplicities) -> KpResult:
    """``kp_enumerated``'s result from ``deletion_counts``.

    For a classical type every per-node total is convex in j on
    [1, r-2] and on [r-1, r] (a = j(j-1)/2 and b(b +- 1) are convex in j,
    b = r - j is linear), so the smallest maximizer is one of the nodes
    1, r-2, r-1, r, and k costs O(1).  Exceptional types visit every node.
    The node counts are cached per (type, node), so the catalog build,
    whose spaces share far fewer types than it has spaces, counts each
    type's nodes once; this is still the one k formula.
    """
    r = t.rank
    nodes = range(1, r + 1)
    if t.symbol in CLASSICAL_SYMBOLS and r > 4:
        nodes = (1, r - 2, r - 1, r)
    return _kp_over_nodes(t, m, deletion_counts, nodes)


def kp_closed_form(t: RootSystemType, m: Multiplicities) -> Optional[int]:
    """Closed-form k where one exists, else None.

    B/C/BC at ranks 2 and 3 and F4 with long multiplicity != 1 have no
    closed form here and return None.
    """
    r = t.rank
    s = t.symbol
    if s == "A":
        return r + r * (r - 1) // 2 * m.m_l
    if s == "D":
        return r + m.m_l * (r - 1) * (r - 2)
    if s == "B":
        if r < 4:
            return None
        return r + m.m_s * (r - 1) + m.m_l * (r - 1) * (r - 2)
    if s == "C":
        if r < 4:
            return None
        return r + m.m_s * (r - 1) * (r - 2) + m.m_l * (r - 1)
    if s == "BC":
        if 2 <= r < 4:
            return None
        if r == 1:
            return 1
        return r + (m.m_s + m.m_xl) * (r - 1) + m.m_l * (r - 1) * (r - 2)
    if s == "F4":
        return 7 + 6 * m.m_s if m.m_l == 1 else None
    if s == "G2":
        return 2 + max(m.m_s, m.m_l)
    if s in ("E6", "E7", "E8"):
        return r + m.m_l * {"E6": 20, "E7": 36, "E8": 63}[s]
    raise AssertionError(s)
