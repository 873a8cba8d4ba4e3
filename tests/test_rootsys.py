"""Root-system enumeration, zero-coefficient counts and the two k computations."""

from itertools import product

import pytest

from symcart.rootsys import (EXTRA_LONG, LONG, SHORT, KpResult,
                             Multiplicities, RootSystemType, _closure_roots,
                             deletion_counts, kp_by_deletion, kp_closed_form,
                             kp_enumerated, positive_roots, zero_coeff_counts)


def _count(symbol, rank=0):
    return len(positive_roots(RootSystemType(symbol, rank)))


def test_positive_root_counts_classical():
    for r in range(1, 13):
        assert _count("A", r) == r * (r + 1) // 2
        assert _count("BC", r) == r * r + r
    for r in range(2, 13):
        assert _count("B", r) == r * r
        assert _count("C", r) == r * r
    for r in range(4, 13):
        assert _count("D", r) == r * (r - 1)


def test_positive_root_counts_exceptional():
    assert _count("E6") == 36
    assert _count("E7") == 63
    assert _count("E8") == 120
    assert _count("F4") == 24
    assert _count("G2") == 6


def test_roots_are_nonzero_nonnegative_vectors():
    for t in (RootSystemType("B", 5), RootSystemType("BC", 4),
              RootSystemType("F4"), RootSystemType("E7")):
        for root in positive_roots(t):
            assert len(root.coeffs) == t.rank
            assert all(c >= 0 for c in root.coeffs)
            assert any(c > 0 for c in root.coeffs)


def test_simply_laced_systems_are_all_long():
    for t in (RootSystemType("A", 6), RootSystemType("D", 5),
              RootSystemType("E6"), RootSystemType("E8")):
        assert all(r.length_class == LONG for r in positive_roots(t))


def test_bc_contains_b_plus_doubled_shorts():
    for r in range(2, 9):
        roots = positive_roots(RootSystemType("BC", r))
        extra = [x for x in roots if x.length_class == EXTRA_LONG]
        assert len(extra) == r
        assert len(roots) - len(extra) == r * r
        coeff_set = {x.coeffs for x in roots}
        for x in extra:
            half = tuple(c // 2 for c in x.coeffs)
            assert all(c % 2 == 0 for c in x.coeffs)
            assert half in coeff_set


def _cartan_gram(symbol, r):
    """Gram matrix of the simple roots of A, B, C or D (Bourbaki, Plates I-IV).

    alpha_i = e_i - e_{i+1} for i < r; alpha_r is e_r - e_{r+1} (A), e_r
    (B), 2e_r (C) or e_{r-1} + e_r (D).
    """
    g = [[0] * r for _ in range(r)]
    for i in range(r):
        g[i][i] = 2
        if i + 1 < r:
            g[i][i + 1] = g[i + 1][i] = -1
    if symbol == "B":
        g[r - 1][r - 1] = 1
    elif symbol == "C":
        g[r - 1][r - 1] = 4
        g[r - 2][r - 1] = g[r - 1][r - 2] = -2
    elif symbol == "D":
        g[r - 2][r - 1] = g[r - 1][r - 2] = 0
        g[r - 3][r - 1] = g[r - 1][r - 3] = -1
    return g


@pytest.mark.parametrize("symbol,rank", [
    (s, r) for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4), ("BC", 1))
    for r in range(lo, 9)])
def test_classical_roots_match_the_cartan_matrix_closure(symbol, rank):
    """An independent source: the roots the simple roots' Gram matrix closes to.

    BC is B's closure, its short roots (norm 1) doubled as extra long.
    """
    if symbol == "BC":
        g = _cartan_gram("B", rank)
        b = [root.coeffs for root in _closure_roots(g)]
        short = [a for a in b
                 if sum(a[i] * a[j] * g[i][j]
                        for i in range(rank) for j in range(rank)) == 1]
        expected = ({(a, SHORT if a in short else LONG) for a in b}
                    | {(tuple(2 * c for c in a), EXTRA_LONG) for a in short})
    else:
        expected = {(root.coeffs, root.length_class)
                    for root in _closure_roots(_cartan_gram(symbol, rank))}
    got = positive_roots(RootSystemType(symbol, rank))
    assert {(root.coeffs, root.length_class) for root in got} == expected


def test_invalid_ranks_rejected():
    for symbol, rank in (("A", 0), ("B", 1), ("C", 1), ("D", 2), ("D", 3),
                         ("BC", 0), ("Z", 4)):
        with pytest.raises(ValueError):
            RootSystemType(symbol, rank)


@pytest.mark.parametrize("symbol,rank,table", [
    ("B", 2, [(1, 0, 0), (0, 1, 0)]),
    ("B", 3, [(2, 2, 0), (1, 1, 0), (0, 3, 0)]),
    ("C", 3, [(2, 2, 0), (1, 1, 0), (3, 0, 0)]),
    ("BC", 2, [(1, 0, 1), (0, 1, 0)]),
    ("BC", 3, [(2, 2, 2), (1, 1, 1), (0, 3, 0)]),
    ("F4", 0, [(6, 3, 0), (3, 1, 0), (1, 3, 0), (3, 6, 0)]),
    ("G2", 0, [(0, 1, 0), (1, 0, 0)]),
])
def test_zero_coefficient_counts_low_rank(symbol, rank, table):
    t = RootSystemType(symbol, rank)
    assert [zero_coeff_counts(t, j) for j in range(1, t.rank + 1)] == table


def test_zero_coeff_index_out_of_range():
    t = RootSystemType("B", 3)
    for counts in (zero_coeff_counts, deletion_counts):
        with pytest.raises(IndexError):
            counts(t, 0)
        with pytest.raises(IndexError):
            counts(t, 4)


def test_deletion_counts_match_enumeration_at_every_node():
    lowest = {"A": 1, "B": 2, "C": 2, "D": 4, "BC": 1}
    checked = 0
    for symbol, lo in lowest.items():
        for r in range(lo, 13):
            t = RootSystemType(symbol, r)
            for j in range(1, r + 1):
                assert deletion_counts(t, j) == zero_coeff_counts(t, j), \
                    (symbol, r, j)
                checked += 1
    for symbol in ("E6", "E7", "E8", "F4", "G2"):
        t = RootSystemType(symbol)
        for j in range(1, t.rank + 1):
            assert deletion_counts(t, j) == zero_coeff_counts(t, j), (symbol, j)
            checked += 1
    assert checked == 2 * 78 + 2 * 77 + 72 + 27   # A, BC; B, C; D; E, F, G
    # the smallest cases: BC1 has no root with a zero coefficient, and
    # D4's three outer nodes are alike
    assert deletion_counts(RootSystemType("BC", 1), 1) == (0, 0, 0)
    d4 = RootSystemType("D", 4)
    assert [deletion_counts(d4, j) for j in range(1, 5)] == \
        [(0, 6, 0), (0, 3, 0), (0, 6, 0), (0, 6, 0)]


def test_classical_kp_by_deletion_equals_the_scan_over_every_node():
    """Only nodes 1, r-2, r-1, r are visited; every node may win a tie."""
    lowest = {"A": 1, "B": 2, "C": 2, "D": 4, "BC": 1}
    mult_sets = [Multiplicities(*m) for m in product(range(4), repeat=3)]
    for symbol, lo in lowest.items():
        for r in range(lo, 30):
            t = RootSystemType(symbol, r)
            counts = [deletion_counts(t, j) for j in range(1, r + 1)]
            for m in mult_sets:
                totals = [m.m_s * n_s + m.m_l * n_l + m.m_xl * n_xl
                          for n_s, n_l, n_xl in counts]
                best = max(totals)
                assert kp_by_deletion(t, m) == \
                    KpResult(r + best, totals.index(best) + 1), (t, m)


def test_kp_examples():
    assert kp_enumerated(RootSystemType("E8"), Multiplicities(m_l=2)) == \
        KpResult(134, 8)
    assert kp_enumerated(RootSystemType("BC", 2),
                         Multiplicities(8, 6, 1)).value == 11
    assert kp_enumerated(RootSystemType("A", 1),
                         Multiplicities(m_l=5)).value == 1


def test_maximizers_are_end_nodes():
    assert kp_enumerated(RootSystemType("A", 7),
                         Multiplicities(m_l=2)).maximizer == 1
    assert kp_enumerated(RootSystemType("D", 8),
                         Multiplicities(m_l=1)).maximizer == 1
    assert kp_enumerated(RootSystemType("E6"),
                         Multiplicities(m_l=2)).maximizer == 1
    assert kp_enumerated(RootSystemType("E7"),
                         Multiplicities(m_l=2)).maximizer == 7
    assert kp_enumerated(RootSystemType("E8"),
                         Multiplicities(m_l=2)).maximizer == 8


def _multiplicity_sets(symbol):
    if symbol in ("A", "D", "E6", "E7", "E8"):
        return [Multiplicities(m_l=m) for m in (1, 2, 4, 8)]
    if symbol in ("B", "C", "F4", "G2"):
        return [Multiplicities(m_s=s, m_l=l)
                for s in (1, 2, 4, 7) for l in (1, 2, 4)]
    return [Multiplicities(s, l, x)                       # BC
            for s, l, x in ((2, 2, 1), (4, 4, 1), (8, 6, 1),
                            (4, 4, 3), (2, 1, 1), (1, 2, 1))]


def test_closed_form_matches_enumeration():
    cases = [("A", r) for r in range(1, 13)]
    cases += [(s, r) for s in ("B", "C") for r in range(2, 13)]
    cases += [("D", r) for r in range(4, 13)]
    cases += [("BC", r) for r in range(1, 13)]
    cases += [("E6", 0), ("E7", 0), ("E8", 0), ("F4", 0), ("G2", 0)]
    checked = 0
    for symbol, rank in cases:
        t = RootSystemType(symbol, rank)
        for m in _multiplicity_sets(symbol):
            closed = kp_closed_form(t, m)
            enumerated = kp_enumerated(t, m).value
            if closed is not None:
                assert closed == enumerated, (symbol, rank, m)
                checked += 1
    assert checked > 100


def test_closed_form_gaps():
    """The published closed forms skip low ranks and F4 with m_l > 1."""
    assert kp_closed_form(RootSystemType("B", 2), Multiplicities(1, 1)) is None
    assert kp_closed_form(RootSystemType("F4"), Multiplicities(2, 2)) is None
    assert kp_closed_form(RootSystemType("F4"), Multiplicities(2, 1)) == 19
    assert kp_closed_form(RootSystemType("G2"), Multiplicities(1, 1)) == 3
