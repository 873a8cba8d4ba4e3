"""Homotopy database: rules, tables, coverage and internal consistency."""

import shutil
from pathlib import Path

import pytest

import symcart.homotopy
from symcart.abelian import format_group, parse_group
from symcart.catalog import ProductSpace, enumerate_catalog, instantiate
from symcart.homotopy import (MAX_DEGREE, NOT_COVERED, consistency_violations,
                              coverage, load_records, pi, pi_candidates,
                              profile)


def _fmt(s, k):
    return format_group(pi(s, k))


def test_sphere_rules():
    for n in range(2, 14):
        s = instantiate("S", (n,))
        for k in range(1, min(n, MAX_DEGREE + 1)):
            assert pi(s, k).is_exact_trivial, (n, k)
        if n <= MAX_DEGREE:
            assert _fmt(s, n) == "Z"


def test_sphere_table_spot_values():
    assert _fmt(instantiate("S", (2,)), 3) == "Z"
    assert _fmt(instantiate("S", (4,)), 7) == "Z + Z_4 + Z_3"
    assert _fmt(instantiate("S", (6,)), 9) == "Z_8 + Z_3"
    assert _fmt(instantiate("S", (6,)), 10) == "0"
    assert _fmt(instantiate("S", (5,)), 8) == "Z_8 + Z_3"


def test_complex_projective_space_fibration_rule():
    cp3 = instantiate("AIII", (1, 3))
    assert _fmt(cp3, 2) == "Z"
    for k in range(3, MAX_DEGREE + 1):
        assert pi(cp3, k) == pi(instantiate("S", (7,)), k)
    assert coverage(cp3, 5) == "projective_rule"


def test_quaternionic_projective_space_row():
    hp3 = instantiate("CII", (1, 3))
    assert _fmt(hp3, 4) == "Z"
    assert _fmt(hp3, 7) == "Z_4 + Z_3"
    assert pi(hp3, 3).is_exact_trivial


def test_degree_one_is_trivial_everywhere():
    for s in enumerate_catalog(80):
        assert pi(s, 1).is_exact_trivial, s


def test_stable_rows_and_mod8_degree_ten():
    assert _fmt(instantiate("AI", (6,)), 5) == "Z"
    assert _fmt(instantiate("AI", (12,)), 2) == "Z_2"
    # degree 10 repeats the degree-2 column inside the stable range
    assert _fmt(instantiate("AI", (12,)), 10) == "Z_2"
    assert _fmt(instantiate("AII", (9,)), 9) == "Z"
    assert _fmt(instantiate("CI", (8,)), 10) == "Z"


def test_spin_cross_checks():
    # pi_5(SU(n)/SO(n)) = Z for large n while pi_5(Spin(n)) = 0
    assert _fmt(instantiate("Spin", (9,)), 3) == "Z"
    assert pi(instantiate("Spin", (9,)), 5).is_exact_trivial
    assert _fmt(instantiate("Spin", (9,)), 7) == "Z"


def test_exceptional_rows():
    assert _fmt(instantiate("FII"), 7) == "Z"
    assert _fmt(instantiate("EVII"), 2) == "Z"
    assert pi(instantiate("EII"), 9).tag == "unknown"
    assert pi(instantiate("FI"), 3).tag == "finite"
    assert _fmt(instantiate("G"), 6) == "Z_2^2 in"


def test_real_grassmannian_rows():
    g = instantiate("BDI", (2, 11))
    assert _fmt(g, 2) == "Z"
    assert pi(g, 3).is_exact_trivial
    assert pi(g, 9) == pi(instantiate("AIII", (1, 5)), 9)


def test_out_of_range_degree():
    with pytest.raises(ValueError):
        pi(instantiate("S", (5,)), 11)
    with pytest.raises(ValueError):
        pi(instantiate("S", (5,)), 0)


def test_profile_sums_factors():
    s2, s3 = instantiate("S", (2,)), instantiate("S", (3,))
    prof = profile(ProductSpace((s2, s3)), 6)
    assert format_group(prof[3]) == "Z^2"
    assert format_group(prof[2]) == "Z"
    assert format_group(prof[6]) == "Z_4^2 + Z_3^2"


def test_full_catalog_coverage_through_degree_ten():
    missing = [(s, k) for s in enumerate_catalog(80)
               for k in range(1, MAX_DEGREE + 1)
               if coverage(s, k) == NOT_COVERED]
    assert missing == []


def test_unstable_beats_stable_on_overlap():
    # SU(4)/SO(4) at degree 4: the unstable row supplies Z where the
    # stable guard is silent; adjacent overlaps must agree (see below)
    s = instantiate("AI", (4,))
    assert _fmt(s, 4) == "Z"
    sources = {src for src, _ in pi_candidates(s, 4)}
    assert "unstable_classical" in sources


def test_tables_are_internally_consistent():
    assert consistency_violations(150) == []


def test_tables_are_parsed_once_per_process():
    load_records.cache_clear()
    load_records()
    pi_candidates(instantiate("SU", (3,)), 3)
    assert load_records.cache_info().misses == 1


def test_guards_name_only_their_pattern_parameters_and_k(tmp_path):
    data = Path(symcart.homotopy.__file__).parent / "data"
    for f in data.glob("*.txt"):
        shutil.copy(f, tmp_path)
    with open(tmp_path / "real_grassmannians.txt", "a") as fh:
        fh.write("BDI(2,q) | p >= 11 and k <= 2 | 2=Z\n")
    with pytest.raises(ValueError, match="unknown name 'p'"):
        load_records(str(tmp_path))
