"""Regions: the family splits that the scan and the consistency check read."""

import shutil
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import symcart
from symcart.abelian import INCOMPATIBLE, compatible, format_group
from symcart.catalog import (FAMILIES, ReducibleError, enumerate_catalog,
                             instantiate)
from symcart.cli import main
from symcart.homotopy import (MAX_DEGREE, _read_guard, consistency_violations,
                              load_records, row)
from symcart.recognize import _blind_side, corollary1_scan
from symcart.regions import MAX_REGION_START, _family_regions, _tails, regions
from test_homotopy import _oracle_holds
from test_recognize import _pair_loop_scan

_DATA = Path(symcart.__file__).parent / "data"


def _tables(tmp_path, **extra):
    """A copy of the shipped tables, each named table with extra rows."""
    for f in _DATA.glob("*.txt"):
        shutil.copy(f, tmp_path)
    for name, rows in extra.items():
        with open(tmp_path / f"{name}.txt", "a") as fh:
            fh.write("".join(line + "\n" for line in rows))
    return str(tmp_path)


def test_every_region_member_is_what_its_region_predicts():
    """Each member up to dim 2000, instantiated and read on its own, has
    its region's canonical form, validity, blind side at degrees 9 and
    10, and full row; together the members are the catalog, in order."""
    members = []
    for region in regions():
        least = region.least
        sides = [_blind_side(least, degree) for degree in (9, 10)]
        listed = list(region.params(2000))
        assert listed == sorted(listed) and listed[:1] == [least.params]
        for params in listed:
            s = instantiate(least.symbol, params)
            assert (s.symbol, s.params) == (least.symbol, params)
            assert s.valid == least.valid, s
            assert [_blind_side(s, degree) for degree in (9, 10)] == sides
            assert row(s) == row(least), s
            members.append(s)
        for max_dim in (11, 60, 300, 1999, 2000):
            assert region.count(max_dim) == \
                sum(1 for _ in region.params(max_dim))
    assert [r.least for r in regions()] == sorted(r.least for r in regions())
    assert sorted(members) == enumerate_catalog(2000)


def test_regions_are_few_and_start_where_the_tables_settle():
    """Every shipped guard settles by parameter 12 (Spin(n), whose stable
    row holds for k <= n - 2).  A family starts where its own sources
    settle: past MAX_DEGREE only for the sphere rule (S) and the blind
    side of Gr(R,2,q) (BDI), at q = 5 for CP^n, whose S(2q + 1) passes
    MAX_DEGREE there, and elsewhere at its own guards, patterns and
    isomorphisms.  A family's start is then raised until its tails start
    valid (CP^5, dim 10, is not)."""
    starts = _tails(load_records())
    assert {s: start for s, start in starts.items()
            if FAMILIES[s].smallest} == {
        "S": 11, "SU": 6, "AI": 11, "AII": 3, "Spin": 12, "Sp": 3, "CI": 5,
        "DIII": 6, "BDI": 11, "AIII": 5, "CII": 2}
    assert all(starts[s] <= MAX_DEGREE for s in ("CII", "SU", "DIII"))
    for symbol in ("SU", "DIII"):       # the stable row starts holding there
        start = starts[symbol]
        assert row(instantiate(symbol, (start - 1,))) != \
            row(instantiate(symbol, (start,)))
    assert len(regions()) == 133
    assert all(r.fixed + r.running.smallest == r.least.params
               for r in regions())
    tails = [r for r in regions() if r.running.smallest]
    assert max(r.running.smallest[0] for r in tails) == 12
    assert all(r.least.valid for r in tails)


def _canonical(symbol, params):
    """Whether ``instantiate`` returns the presentation as it is given."""
    try:
        s = instantiate(symbol, params)
    except ReducibleError:
        return False
    return (s.symbol, s.params) == (symbol, params)


@pytest.mark.parametrize("symbol", FAMILIES)
def test_a_family_box_holds_the_least_members_at_every_start(symbol):
    """At every start up to MAX_REGION_START, a family's least members
    are its swept tuples with no parameter past top (the start, or the
    family's least parameter if higher) that ``instantiate`` returns as
    they are; each parameter below top is fixed, the rest run from top."""
    family = FAMILIES[symbol]
    for start in range(MAX_REGION_START + 1):
        top = max((start, *family.smallest))
        swept = family.sweep(family.dim(*(top,) * len(family.smallest)))
        assert {(s.symbol, s.params, fixed)
                for s, fixed in _family_regions(symbol, start)} == {
            (symbol, p, len(p) - p.count(top)) for p in swept
            if all(v <= top for v in p) and _canonical(symbol, p)}, start


def _per_instance_violations(max_dim, data_dir):
    """consistency_violations by reading every catalog space's row: the
    oracle for the check that reads one row per region."""
    bad = []
    for s in enumerate_catalog(max_dim):
        for k, cands in enumerate(row(s, data_dir), 1):
            for i, (src_a, val_a) in enumerate(cands):
                for src_b, val_b in cands[i + 1:]:
                    if compatible(val_a, val_b)[0] == INCOMPATIBLE:
                        bad.append((s, k, src_a, val_a, src_b, val_b))
    return bad


def test_a_clash_in_a_tail_region_is_listed_for_each_member(tmp_path):
    """pi_2 = Z_2 on Gr(R,2,q), q >= 11, against the shipped Z, plus
    pi_4 = Z on CP^3 against the CP^n rule's 0: listed space by space,
    in catalog order."""
    data_dir = _tables(tmp_path, exceptional=["BDI(2,q) | q >= 11 | 2=Z_2",
                                              "AIII(1,3) | k == 4 | 4=Z"])
    bad = consistency_violations(300, data_dir)
    assert bad == _per_instance_violations(300, data_dir)
    assert [(s.label(), k, format_group(a), format_group(b))
            for s, k, _, a, _, b in bad[:2]] == [
        ("AIII(1,3)", 4, "0", "Z"), ("BDI(2,11)", 2, "Z", "Z_2")]
    assert len(bad) == 1 + sum(1 for s in enumerate_catalog(300)
                               if s.symbol == "BDI" and s.params[0] == 2
                               and s.params[1] >= 11)


# linear terms in one parameter q and the degree k
_leaves = st.one_of(st.sampled_from(["q", "k"]),
                    st.integers(-30, 30).map(str))


def _extend(terms):
    return st.one_of(
        st.tuples(terms, st.sampled_from(["+", "-"]), terms)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.integers(-4, 4), terms).map(lambda t: f"{t[0]} * {t[1]}"),
        st.tuples(terms, st.integers(-4, 4)).map(lambda t: f"{t[0]} * {t[1]}"))


_terms = st.recursive(_leaves, _extend, max_leaves=6)
_ops = st.sampled_from(["<", "<=", ">", ">=", "=="])
_comparisons = st.one_of(
    st.tuples(_terms, _ops, _terms).map(" ".join),
    st.tuples(_terms, _ops, _terms, _ops, _terms).map(" ".join))


def _conjunctions(comparisons, max_leaves):
    """Conjunctions of ``comparisons``, some parenthesised in others."""
    return st.recursive(
        comparisons,
        lambda inner: st.tuples(inner, inner, st.booleans()).map(
            lambda t: ("({} and {})" if t[2] else "{} and {}")
            .format(t[0], t[1])),
        max_leaves=max_leaves)


_guards = _conjunctions(_comparisons, 3)


@settings(max_examples=500)
@given(_guards, st.integers(-60, 60))
def test_a_guard_holds_where_eval_says(guard, q):
    """A guard read into links has the truth that ``eval`` of its text
    gives, at every degree."""
    assert _read_guard(guard, ("q",)).holds({"q": q}) == \
        _oracle_holds(guard, {"q": q})


@given(_guards)
def test_a_guard_repeats_past_its_start(guard):
    """Brute force: from the start the reader gives, the guard's truth
    at every degree, by ``eval`` of its text, is constant."""
    start = _read_guard(guard, ("q",)).start
    for q in range(start, start + 40):
        assert _oracle_holds(guard, {"q": q}) == \
            _oracle_holds(guard, {"q": start}), (guard, q)


# guards over p, q and k whose comparisons each read at most one of p, q
_comparisons_in_p_or_q = st.one_of(
    _comparisons, _comparisons.map(lambda c: c.replace("q", "p")))
_two_parameter_guards = _conjunctions(_comparisons_in_p_or_q, 4)


@given(_two_parameter_guards)
def test_a_two_parameter_guard_repeats_past_its_one_start(guard):
    """Brute force: one start serves both parameters; for all p, q from
    it on, the guard's truth at every degree, by ``eval``, is constant."""
    start = _read_guard(guard, ("p", "q")).start
    settled = _oracle_holds(guard, {"p": start, "q": start})
    for p, q in product((*range(start, start + 8), start + 40), repeat=2):
        assert _oracle_holds(guard, {"p": p, "q": q}) == settled, (guard, p, q)


def test_guard_tails_of_the_shipped_forms():
    def start(text, *names):
        return _read_guard(text, names).start

    assert start("k <= 2*n - 1", "n") == 6
    assert start("n >= 5 and k <= n - 2", "n") == 12
    assert start("p >= 11 and k < q", "p", "q") == 11
    assert start("k > 2") == 0


@pytest.mark.parametrize("rows, message", [
    (["BDI(2,q) | q >= 100 | 2=Z"],
     f"the homotopy rows of BDI do not settle by parameter "
     f"MAX_REGION_START = {MAX_REGION_START}"),
    (["BDI(2,100) | - | 2=Z"],
     f"the homotopy rows of BDI do not settle by parameter "
     f"MAX_REGION_START = {MAX_REGION_START}"),
], ids=("guard", "pattern"))
def test_a_table_past_the_region_bounds_fails_the_scan_only(
        capsys, tmp_path, rows, message):
    """Such a table loads and answers single spaces; a scan or check on
    it is one ``error:`` line, exit 2."""
    data_dir = _tables(tmp_path, exceptional=rows)
    assert load_records(data_dir)
    assert main(["homotopy", "Gr(R,2,13)", "--data-dir", data_dir]) == 0
    capsys.readouterr()
    with pytest.raises(ValueError, match=f"^{message}$"):
        consistency_violations(300, data_dir)
    assert main(["corollary1-check", "--data-dir", data_dir]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_a_record_of_no_familys_arity_moves_no_bucket(tmp_path):
    """A BDI record with one parameter matches no catalog space: it
    starts no region, and the dim-300 scan keeps criterion 4's buckets."""
    data_dir = _tables(tmp_path, spheres=["BDI(q) | - | 5=Z_49"])
    assert _tails(load_records(data_dir)) == _tails(load_records())
    report = corollary1_scan(300, data_dir=data_dir)
    assert (report.instances, report.distinguishable_pairs,
            len(report.blind_pairs), len(report.violations),
            len(report.undetermined)) == (1524, 844668, 20445, 287, 147)


def test_a_comparison_of_two_parameters_is_a_malformed_row(capsys, tmp_path):
    data_dir = _tables(tmp_path, real_grassmannians=[
        "BDI(p,q) | p >= 11 and k < q - p | 2=Z"])
    table = tmp_path / "real_grassmannians.txt"
    lineno = table.read_text().count("\n")
    assert main(["corollary1-check", "--data-dir", data_dir]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: {table}:{lineno}: guard 'p >= 11 and k < q - p' compares "
        "p and q in one comparison; each may read one parameter besides k\n")


def test_a_late_sphere_row_leaves_the_cpn_tail(tmp_path):
    """A sphere row that settles at n = 20 starts S's tail there, but
    CP^n = AIII(1,q), which reads pi_k(S(2q + 1)), keeps its tail from
    CP^6: the sphere rule, read first, answers every k <= MAX_DEGREE
    < 2q + 1.  Every member is what its region predicts, and the scan and
    the check equal their per-space oracles."""
    data_dir = _tables(tmp_path, spheres=["S(n) | n >= 20 and k == 9 | 9=Z_2"])
    starts = _tails(load_records(data_dir))
    assert (starts["S"], starts["AIII"]) == (20, 5)
    found = regions(data_dir)
    cpn = [(r.least.params[1], r.fixed) for r in found
           if r.least.symbol == "AIII" and r.least.params[0] == 1]
    assert cpn == [(q, (1, q)) for q in range(2, 6)] + [(6, (1,))]
    spheres = [(r.least.params[0], r.fixed) for r in found
               if r.least.symbol == "S"]
    assert spheres[-1] == (20, ())
    for region in found:
        least = region.least
        sides = [_blind_side(least, degree) for degree in (9, 10)]
        for s in region.members(300):
            assert s.valid == least.valid, s
            assert [_blind_side(s, degree) for degree in (9, 10)] == sides
            assert row(s, data_dir) == row(least, data_dir), s
    for max_dim, degree in ((120, 9), (60, 10)):
        report = corollary1_scan(max_dim, degree, data_dir)
        assert (report.distinguishable_pairs, report.blind_pairs,
                report.violations, report.undetermined) == \
            _pair_loop_scan(max_dim, degree, data_dir)
    bad = consistency_violations(300, data_dir)
    assert bad == _per_instance_violations(300, data_dir)
    assert [s.label() for s, *_ in bad[:1]] == ["S(20)"]
