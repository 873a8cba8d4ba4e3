"""Independent oracles that the tests check the package against.

Each restates a published formula on its own terms, apart from the code
it checks: the connectivity number of an inclusion, the closed forms
for k, and each classical family's restricted root datum at one point.
"""

from typing import Optional

from symcart.catalog import SpaceInstance
from symcart.rootsys import Multiplicities, RootSystemType


def sharp(p: SpaceInstance, codim: int) -> int:
    """Connectivity number of a codimension-`codim` inclusion: 2 + d_P - 2 codim."""
    if not 0 <= codim <= p.dim:
        raise ValueError("codimension out of range")
    return 2 + p.dp - 2 * codim


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


def classical_datum(symbol: str, params):
    """(root type, multiplicities) of a classical presentation, each at
    its own parameters (Helgason, Ch. X)."""
    if symbol in ("AIII", "BDI", "CII"):
        c = {"BDI": 1, "AIII": 2, "CII": 4}[symbol]
        p, q = params
        if p == q:
            if c == 1:
                return RootSystemType("D", p), Multiplicities(0, 1, 0)
            return RootSystemType("C", p), Multiplicities(c, c - 1, 0)
        if c == 1:
            return RootSystemType("B", p), Multiplicities(q - p, 1, 0)
        return RootSystemType("BC", p), Multiplicities(c * (q - p), c, c - 1)
    n, = params
    if symbol == "Spin":
        if n % 2:
            return RootSystemType("B", (n - 1) // 2), Multiplicities(2, 2, 0)
        return RootSystemType("D", n // 2), Multiplicities(0, 2, 0)
    if symbol == "DIII":
        if n % 2:
            return RootSystemType("BC", (n - 1) // 2), Multiplicities(4, 4, 1)
        return RootSystemType("C", n // 2), Multiplicities(4, 1, 0)
    return {"SU": (RootSystemType("A", n - 1), Multiplicities(0, 2, 0)),
            "AI": (RootSystemType("A", n - 1), Multiplicities(0, 1, 0)),
            "AII": (RootSystemType("A", n - 1), Multiplicities(0, 4, 0)),
            "Sp": (RootSystemType("C", n), Multiplicities(2, 2, 0)),
            "CI": (RootSystemType("C", n), Multiplicities(1, 1, 0))}[symbol]
