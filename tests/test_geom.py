"""Connectivity, trace-bound and meridian-obstruction arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from symcart import geom
from symcart.catalog import enumerate_catalog, instantiate
from symcart.geom import (HypothesisSet, ITEM1, ITEM2, ITEM3, ITEM4,
                          NOT_APPLICABLE, connectivity, index_lower_bound,
                          meridian_codim, min_meridian_codim, theorem_a_gate,
                          theorem_b_check, trace_bound)

from oracles import sharp


def test_connectivity_equals_sharp():
    rng = random.Random(11)
    pool = list(enumerate_catalog(200))
    for _ in range(10000):
        p = rng.choice(pool)
        codim = rng.randint(1, p.dim - 1)
        assert connectivity(p, p.dim - codim) == sharp(p, codim)


def test_connectivity_range_check():
    s = instantiate("S", (12,))
    with pytest.raises(ValueError):
        connectivity(s, 0)
    with pytest.raises(ValueError):
        connectivity(s, 12)


def test_trace_bound_zero_and_monotone():
    for k in (1, 7, 55):
        assert trace_bound(k, k, 0.0) == 0.0
    grid = [i * (math.pi / 2) * 0.999 / 1000 for i in range(1000)]
    prev = -1.0
    for r in grid:
        val = trace_bound(1.0, 1.0, r)
        assert val > prev - 1e-12
        prev = val


def test_trace_bound_domain_errors():
    with pytest.raises(ValueError):
        trace_bound(1.0, 1.0, math.pi / 2)
    for delta in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta must be positive and "
                                             "finite"):
            trace_bound(delta, 1.0, 0.1)
    for r in (-0.1, math.nan):
        with pytest.raises(ValueError, match="r must be nonnegative"):
            trace_bound(1.0, 1.0, r)
    with pytest.raises(ValueError, match="k must be positive"):
        trace_bound(1.0, 0, 0.0)


def test_hypothesis_set_validation():
    HypothesisSet(1.0, 0.0, 1)
    for delta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta must be positive and "
                                             "finite"):
            HypothesisSet(delta, 0.0, 1)
    with pytest.raises(ValueError):
        HypothesisSet(1.0, math.pi / 2, 1)
    with pytest.raises(ValueError):
        HypothesisSet(1.0, 0.0, 0)


def _gate(label_symbol, params, codim):
    h = HypothesisSet(1.0, 0.0, codim)
    return theorem_a_gate(instantiate(label_symbol, params), h)


def test_gate_items():
    assert _gate("S", (12,), 1).kind == ITEM1
    assert _gate("AIII", (1, 11), 1).kind == ITEM2
    assert _gate("BDI", (2, 12), 1).kind == ITEM2
    assert _gate("CII", (3, 5), 1).kind == ITEM3
    assert _gate("CI", (11,), 1).kind == ITEM4
    assert str(_gate("S", (12,), 1)).startswith("Item1")


def test_gate_not_applicable():
    assert _gate("E6", (), 1).kind == NOT_APPLICABLE          # exceptional
    assert _gate("S", (9,), 1).kind == NOT_APPLICABLE         # C_P < 1
    # codimension above the budget C_P = 3/2
    assert _gate("S", (11,), 2).kind == NOT_APPLICABLE
    assert _gate("S", (11,), 1).kind == ITEM1


def test_gate_reports_trace_bound():
    v = _gate("S", (12,), 1)
    assert v.trace_bound == 0.0
    h = HypothesisSet(1.0, 0.5, 1)
    v = theorem_a_gate(instantiate("S", (12,)), h)
    assert v.trace_bound == pytest.approx(math.tan(0.5))


def test_meridian_codim_examples():
    assert meridian_codim("C", 3, 7, 0, 3) == 24
    assert meridian_codim("H", 3, 7, 0, 3) == 48
    assert meridian_codim("R", 3, 7, 0, 3) == 12
    with pytest.raises(ValueError):
        meridian_codim("C", 3, 7, 1, 1)


def test_min_meridian_codim_excludes_whole_space():
    # at p = q the a = 0 "meridian" is the whole Grassmannian
    assert meridian_codim("C", 3, 3, 0, 3) == 0
    assert min_meridian_codim("C", 3, 3) > 0


def _min_meridian_codim_loop(fld, p, q):
    """The oracle: the least positive codimension over every a < p."""
    return min(c for c in (meridian_codim(fld, p, q, a, p - a)
                           for a in range(p)) if c > 0)


def test_min_meridian_codim_equals_the_loop():
    for fld in ("R", "C", "H"):
        for p in range(1, 60):
            for q in range(max(p, 2), 80):
                assert min_meridian_codim(fld, p, q) == \
                    _min_meridian_codim_loop(fld, p, q), (fld, p, q)


def test_min_meridian_codim_evaluates_two_meridians(monkeypatch):
    """Counts, not wall time: a huge p costs two meridians, not p."""
    calls = []

    def counted(*args):
        calls.append(args)
        return meridian_codim(*args)

    monkeypatch.setattr(geom, "meridian_codim", counted)
    v = theorem_b_check("R", 3000000, 9000000, 3000000)
    assert v.applicable and v.min_meridian_codim == 8999998
    assert len(calls) == 2


def test_meridian_obstruction_sweep():
    for fld in ("C", "H"):
        for p in range(3, 16):
            for q in range(p, 16):
                amb = instantiate({"C": "AIII", "H": "CII"}[fld], (p, q))
                assert Fraction(min_meridian_codim(fld, p, q)) > amb.cp


def test_index_lower_bounds():
    """c * p, the rows R | p, C | 2*p, H | 4*p of the index table that
    shipped as a data file before the bound was read from GRASSMANNIANS."""
    for p in range(1, 41):
        assert [index_lower_bound(fld, p) for fld in "RCH"] == \
            [p, 2 * p, 4 * p]
    with pytest.raises(KeyError):
        index_lower_bound("O", 3)


def test_theorem_b_verdicts():
    v = theorem_b_check("C", 3, 23, 7)
    assert v.applicable and v.min_meridian_codim == 42
    assert v.ambient.label() == "AIII(3,20)"
    v = theorem_b_check("C", 3, 10, 6)
    assert not v.applicable and "exceeds C_P" in v.reason
    v = theorem_b_check("C", 3, 10, 2)
    assert not v.applicable and "below index" in v.reason
    v = theorem_b_check("R", 4, 30, 5)
    assert v.analogy_derived
    for fld, p, n in (("R", 3, 7), ("C", 3, 23), ("H", 5, 40)):
        for codim in (1, 4 * p, 200):
            v = theorem_b_check(fld, p, n, codim)
            assert v.cp == v.ambient.cp and v.analogy_derived == (fld == "R")
            assert v.index_bound == index_lower_bound(fld, p)
    for codim in (0, -1):
        with pytest.raises(ValueError,
                           match="codim >= 1 for a proper submanifold"):
            theorem_b_check("C", 3, 23, codim)
    for index_bound in (0, -5):
        with pytest.raises(ValueError, match="index bound >= 1 required"):
            theorem_b_check("C", 3, 23, 1, index_bound)
    assert theorem_b_check("C", 3, 23, 1, 1).applicable
    with pytest.raises(ValueError):
        theorem_b_check("C", 2, 10, 3)
    with pytest.raises(ValueError):
        theorem_b_check("X", 3, 10, 3)
