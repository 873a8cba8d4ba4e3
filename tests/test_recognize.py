"""Profile recognition: distinguish, the pairwise scan and decomposition."""

import pytest

from symcart.catalog import ProductSpace, enumerate_catalog, instantiate
from symcart.recognize import (DISTINGUISHABLE, INDISTINGUISHABLE,
                               UNDETERMINED, CandidateOverflow, corollary1_scan,
                               decompose, distinguish, _is_blind_pair)


def test_blind_spot_pair_is_indistinguishable():
    v = distinguish(instantiate("AIII", (1, 5)), instantiate("BDI", (2, 11)))
    assert str(v) == "Indistinguishable(9)"


def test_distinguishable_pair_with_witness():
    v = distinguish(instantiate("AI", (12,)), instantiate("AII", (6,)))
    assert v.kind == DISTINGUISHABLE
    assert (v.degree, v.field) == (2, 2)
    assert str(v) == ("Distinguishable(degree=2, field=Z_2, "
                      "ranks [1,1] vs [0,0])")


def test_rational_witness_comes_first():
    # CP^n vs HP^m differ already in the free rank at degree 2
    v = distinguish(instantiate("AIII", (1, 6)), instantiate("CII", (1, 3)))
    assert v.kind == DISTINGUISHABLE
    assert (v.degree, v.field) == (2, "Q")


def test_undetermined_pair_reports_blockers():
    v = distinguish(instantiate("FI"), instantiate("EIX"))
    assert v.kind == UNDETERMINED
    assert any(k == 3 for k, _, _ in v.blockers)
    assert "pi_3" in str(v)


def test_distinguish_is_reflexively_safe():
    for s in list(enumerate_catalog(40))[:25]:
        v = distinguish(s, s)
        assert v.kind != DISTINGUISHABLE, s


def test_distinguish_accepts_products():
    q = ProductSpace((instantiate("S", (2,)), instantiate("S", (3,))))
    v = distinguish(q, instantiate("S", (2,)))
    assert v.kind == DISTINGUISHABLE and (v.degree, v.field) == (3, "Q")
    # degree-9 profiles of S^10 x S^11 and S^10 agree; the difference
    # lives above the comparison window
    high = ProductSpace((instantiate("S", (10,)), instantiate("S", (11,))))
    assert distinguish(high, instantiate("S", (10,))).kind == INDISTINGUISHABLE


def test_blind_pair_predicate():
    cp = instantiate("AIII", (1, 7))
    assert _is_blind_pair(cp, instantiate("BDI", (2, 10)))
    assert _is_blind_pair(instantiate("BDI", (2, 10)), cp)
    assert not _is_blind_pair(cp, instantiate("BDI", (2, 9)))
    assert not _is_blind_pair(instantiate("AIII", (1, 4)),
                              instantiate("BDI", (2, 10)))


def test_blind_pair_predicate_follows_the_degree():
    cp5, cp4 = instantiate("AIII", (1, 5)), instantiate("AIII", (1, 4))
    gr10, gr11 = instantiate("BDI", (2, 10)), instantiate("BDI", (2, 11))
    # S^11 -> CP^5 is 10-connected; V_2(R^12) -> Gr(R,2,10) is 9-connected
    assert _is_blind_pair(cp5, gr11, 10)
    assert not _is_blind_pair(cp5, gr10, 10)
    assert not _is_blind_pair(cp4, gr11, 9)
    assert _is_blind_pair(cp4, gr11, 8)
    assert _is_blind_pair(cp5, gr10) == _is_blind_pair(cp5, gr10, 9)


def test_scan_through_degree_ten():
    """pi_10 separates CP^n from Gr(R,2,10), so those pairs leave the blind set."""
    report = corollary1_scan(300, 10)
    assert report.distinguishable_pairs == 845098
    assert len(report.blind_pairs) == 20300
    assert len(report.undetermined) == 147
    assert sorted(sorted((a.label(), b.label())) + [str(v)]
                  for a, b, v in report.violations) == [
        ["BDI(2,10)", "EVII", "Indistinguishable(10)"],
        ["E7", "E8", "Indistinguishable(10)"]]
    assert all(_is_blind_pair(a, b, 10) for a, b in report.blind_pairs)


def test_scan_report_structure():
    report = corollary1_scan(60)
    assert report.instances == len([s for s in enumerate_catalog(60) if s.valid])
    assert report.distinguishable_pairs > 0
    for a, b in report.blind_pairs:
        assert _is_blind_pair(a, b)
    for a, b, v in report.violations:
        assert not _is_blind_pair(a, b) or v.kind != INDISTINGUISHABLE
    with pytest.raises(ValueError):
        corollary1_scan(10)


def test_decompose_sphere():
    out = decompose(instantiate("S", (12,)))
    assert [p.label() for p in out] == ["S(12)", "S(11)", "S(10)"]


def test_decompose_contains_trivial_decomposition():
    amb = instantiate("AIII", (1, 10))
    out = decompose(amb)
    labels = {p.label() for p in out}
    assert "AIII(1,10)" in labels                 # the ambient itself
    assert "BDI(2,10)" in labels                  # the blind partner
    assert "AIII(1,5) x S(10)" in labels          # sphere-padded product
    for p in out:
        assert distinguish(p, amb).kind != DISTINGUISHABLE
        assert p.dim <= amb.dim


def test_decompose_rejects_invalid_ambient():
    with pytest.raises(ValueError):
        decompose(instantiate("S", (9,)))


def test_decompose_overflow_guard():
    with pytest.raises(CandidateOverflow):
        decompose(instantiate("S", (12,)), max_candidates=2)
