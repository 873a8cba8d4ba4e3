"""Profile recognition: distinguish, the pairwise scan and decomposition."""

import json
import os
import shutil
import subprocess
import sys
from operator import eq
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import symcart
from symcart import homotopy, recognize
from symcart.abelian import (EQUAL, FIELDS, INCOMPATIBLE, POSSIBLY_EQUAL,
                             compatible, field_ranks, p_rank, q_rank)
from symcart.catalog import ProductSpace, enumerate_catalog, instantiate
from symcart.homotopy import groups, load_records, pi, profile
from symcart.recognize import (DISTINGUISHABLE, INDISTINGUISHABLE,
                               UNDETERMINED, CandidateOverflow, Verdict,
                               corollary1_scan, decompose, distinguish,
                               distinguish_profiles, _is_blind_pair)
from test_abelian import partial_groups


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


@pytest.mark.parametrize("max_degree, count", ((9, 20445), (10, 20300)))
def test_blind_pairs_are_a_sized_view(max_degree, count):
    """``len`` comes from the class counts, before any pair is listed;
    iterating yields that many pairs, the same sequence each time."""
    view = corollary1_scan(300, max_degree).blind_pairs
    assert len(view) == count
    first = list(view)
    assert len(first) == count
    assert list(view) == first
    assert view == first and first == view and view != first[:-1]


_SCAN_PEAK = """
import json, sys, tracemalloc
from symcart.recognize import corollary1_scan
corollary1_scan(1000)               # the catalog and rows are cached
tracemalloc.start()
report = corollary1_scan(1000)
print(json.dumps({"peak": tracemalloc.get_traced_memory()[1],
                  "blind": len(report.blind_pairs),
                  "tuple": sys.getsizeof((None, None))}))
"""


def test_scan_memory_does_not_grow_with_the_blind_pairs():
    """Allocation peak of a warm dim-1000 scan, measured by ``tracemalloc``.

    Listing its 243,045 blind pairs would take one 2-tuple and one list
    slot each, about 15 MB; the scan stays under a third of that.
    """
    src = os.path.dirname(os.path.dirname(symcart.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _SCAN_PEAK], env=env,
                         capture_output=True, text=True, check=True).stdout
    got = json.loads(out)
    assert got["blind"] == 243045
    listed = got["blind"] * (got["tuple"] + 8)
    assert got["peak"] < listed / 3, (got["peak"], listed)


def _pair_loop_scan(max_dim, max_degree, data_dir=None):
    """The scan by visiting every pair: the oracle for the class counting.

    Returns (distinguishable count, blind, violations, undetermined) with
    the lists in the order the scan reports them.
    """
    classes, profiles = {}, {}
    for s in enumerate_catalog(max_dim):
        if s.valid:
            prof = {k: pi(s, k, data_dir) for k in range(1, max_degree + 1)}
            sig = tuple(sorted((k, g.tag, g.group) for k, g in prof.items()))
            classes.setdefault(sig, []).append(s)
            profiles[sig] = prof
    sigs = sorted(classes, key=lambda sig: classes[sig][0])
    distinguishable, blind, violations, undetermined = 0, [], [], []
    for i, sa in enumerate(sigs):
        for sb in sigs[i:]:
            ma, mb = classes[sa], classes[sb]
            if sa == sb:
                pairs = [(ma[x], ma[y]) for x in range(len(ma))
                         for y in range(x + 1, len(ma))]
            else:
                pairs = [(a, b) for a in ma for b in mb]
            pairs = [(a, b) for a, b in pairs if a.symbol != b.symbol]
            if not pairs:
                continue
            v = distinguish_profiles(profiles[sa], profiles[sb], max_degree)
            for a, b in pairs:
                is_blind = _is_blind_pair(a, b, max_degree)
                if v.kind == DISTINGUISHABLE and not is_blind:
                    distinguishable += 1
                elif v.kind == INDISTINGUISHABLE and is_blind:
                    blind.append((a, b))
                elif v.kind == UNDETERMINED:
                    undetermined.append((a, b, v))
                else:
                    violations.append((a, b, v))
    return distinguishable, blind, violations, undetermined


def _assert_counts_equal_listings(report):
    """Each bucket's ``len``, taken from the class counts, is the length
    of its listing, and two iterations list one sequence."""
    for view in (report.blind_pairs, report.violations, report.undetermined):
        assert len(view) == sum(1 for _ in view)
        assert sum(map(eq, view, view)) == len(view)


@pytest.mark.parametrize("max_degree, max_dim", [
    (9, 120), (9, 300), (10, 120), (10, 300),
    # at degree 3 most classes merge: 12,939 violations at dim 120
    (3, 120), (3, 60), (9, 60), (10, 60), (3, 300)])
def test_counted_scan_equals_the_pair_loop(max_dim, max_degree):
    report = corollary1_scan(max_dim, max_degree)
    _assert_counts_equal_listings(report)
    assert (report.distinguishable_pairs, report.blind_pairs,
            report.violations, report.undetermined) == \
        _pair_loop_scan(max_dim, max_degree)


@pytest.mark.parametrize("max_degree", (3, 9, 10))
def test_bucket_counts_equal_listings_at_dim_1000(max_degree):
    """The pair loop takes about 20 s here, so only the listings are
    checked: 1,355,312 violations at degree 3, never held at once."""
    _assert_counts_equal_listings(corollary1_scan(1000, max_degree))


@pytest.mark.parametrize("max_dim, max_degree, counts", [
    (1000, 9, (6041, 12777484, 243045, 987, 497)),
    (1000, 10, (6041, 12778964, 242550, 2, 497)),
    (2000, 9, (13197, 59954858, 986045, 1987, 997)),
    (2000, 10, (13197, 59957838, 985050, 2, 997)),
    (200_000, 9, (2097461, 1424838680919, 9998600045, 199987, 99997)),
    (200_000, 3, (2097461, 1321139829729, 9998600045, 103696315168, 2836006)),
    (200_000, 10, (2097461, 1424838980899, 9998500050, 2, 99997)),
])
def test_scan_counts_at_large_dims(max_dim, max_degree, counts):
    """(instances, distinguishable, blind, violations, undetermined) as
    the per-instance scan counted them, before scans read regions, up to
    dim 2000; at dim 200,000, far past the listing bound, as the region
    scan counted them when each region swept its own members."""
    report = corollary1_scan(max_dim, max_degree)
    assert (report.instances, report.distinguishable_pairs,
            len(report.blind_pairs), len(report.violations),
            len(report.undetermined)) == counts


def _split_blind_pairs(tmp_path):
    """A copy of the shipped tables whose blind pairs span profile classes.

    With the shipped tables every blind pair lies inside one class.  Here
    spurious pi_9 cells move Gr(R,2,q) with 11 <= q <= 14, together with
    AII(4), into a class that sorts before CP^n's, and Gr(R,2,q) with
    15 <= q <= 18 into one that sorts after it; their blind pairs become
    violations of distinguishable class pairs, counted from either side.
    """
    for f in (Path(symcart.__file__).parent / "data").glob("*.txt"):
        shutil.copy(f, tmp_path)
    grassmannians = tmp_path / "real_grassmannians.txt"
    text = grassmannians.read_text()
    assert "BDI(2,q) | q >= 11 | 2=Z\n" in text
    grassmannians.write_text(text.replace(
        "BDI(2,q) | q >= 11 | 2=Z\n",
        "BDI(2,q) | q >= 11 and q <= 14 | 2=Z; 9=Z_2\n"
        "BDI(2,q) | q >= 15 and q <= 18 | 2=Z; 9=Z_3\n"
        "BDI(2,q) | q >= 19 | 2=Z\n"))
    spheres = tmp_path / "spheres.txt"   # read first: its rows win ties
    spheres.write_text("AII(4) | - | 2=Z; 9=Z_2\n" + spheres.read_text())
    return str(tmp_path)


def test_counted_scan_equals_the_pair_loop_across_classes(tmp_path):
    """Blind pairs split over profile classes are still found."""
    data_dir = _split_blind_pairs(tmp_path)
    report = corollary1_scan(120, 9, data_dir)
    blind_violations = [(a.symbol, b.symbol) for a, b, _ in report.violations
                        if _is_blind_pair(a, b)]
    assert ("BDI", "AIII") in blind_violations
    assert ("AIII", "BDI") in blind_violations
    _assert_counts_equal_listings(report)
    assert (report.distinguishable_pairs, report.blind_pairs,
            report.violations, report.undetermined) == \
        _pair_loop_scan(120, 9, data_dir)


def _oracle_compatible(a, b):
    """``compatible``'s verdict and witness, ranked here with ``q_rank``
    and ``p_rank`` over Q, Z_2, Z_3, Z_5, Z_7 in that order."""
    for f in ("Q", 2, 3, 5, 7):
        ia, ib = ((q_rank(a), q_rank(b)) if f == "Q"
                  else (p_rank(a, f), p_rank(b, f)))
        if ia.disjoint(ib):
            return INCOMPATIBLE, (f, ia, ib)
    if a.is_exact and b.is_exact and a.group == b.group:
        return EQUAL, None
    return POSSIBLY_EQUAL, None


def _compatible_verdict(pa, pb, max_degree):
    """``distinguish_profiles`` by one oracle comparison per degree.

    The oracle for the comparison from per-value field ranks: the first
    Incompatible degree (Q before Z_2, Z_3, Z_5, Z_7) distinguishes, and
    every degree that is not Equal blocks.
    """
    blockers = []
    for k in range(1, max_degree + 1):
        a, b = pa[k], pb[k]
        verdict, witness = _oracle_compatible(a, b)
        if verdict == INCOMPATIBLE:
            f, ia, ib = witness
            return Verdict(DISTINGUISHABLE, max_degree, k, f, (ia, ib))
        if verdict != EQUAL:
            blockers.append((k, a, b))
    if blockers:
        return Verdict(UNDETERMINED, max_degree, blockers=tuple(blockers))
    return Verdict(INDISTINGUISHABLE, max_degree)


def _class_profiles(max_dim, max_degree, data_dir=None):
    """One profile per class of equal profiles among the valid spaces."""
    out = {}
    for s in enumerate_catalog(max_dim):
        if s.valid:
            prof = groups(s, max_degree, data_dir)
            out.setdefault(tuple(sorted((k, g.tag, g.group)
                                        for k, g in prof.items())), prof)
    return list(out.values())


def _assert_verdicts_equal_the_oracle(profiles, max_degree):
    kinds = set()
    for pa in profiles:
        for pb in profiles:
            v = distinguish_profiles(pa, pb, max_degree)
            assert v == _compatible_verdict(pa, pb, max_degree), (pa, pb)
            kinds.add(v.kind)
    return kinds


@pytest.mark.parametrize("max_dim", (120, 300))
@pytest.mark.parametrize("max_degree", (9, 10))
def test_verdicts_equal_the_compatible_oracle(max_dim, max_degree):
    """Every ordered pair of class profiles: kind, degree, field, witness
    and blockers all equal."""
    kinds = _assert_verdicts_equal_the_oracle(
        _class_profiles(max_dim, max_degree), max_degree)
    assert kinds == {DISTINGUISHABLE, INDISTINGUISHABLE, UNDETERMINED}


def test_verdicts_equal_the_compatible_oracle_across_classes(tmp_path):
    data_dir = _split_blind_pairs(tmp_path)
    profiles = _class_profiles(120, 9, data_dir)
    assert len(profiles) > len(_class_profiles(120, 9))
    _assert_verdicts_equal_the_oracle(profiles, 9)


# a degree's two cells: independent, or one value on both sides
_cell_pairs = st.one_of(st.tuples(partial_groups, partial_groups),
                        partial_groups.map(lambda g: (g, g)))


def test_compatible_equals_the_oracle_on_the_table_values():
    """Every ordered pair of the shipped tables' cell values."""
    values = {g for rec in load_records() for _, g in rec.cells}
    verdicts = set()
    for a in values:
        for b in values:
            assert compatible(a, b) == _oracle_compatible(a, b), (a, b)
            verdicts.add(compatible(a, b)[0])
    assert verdicts == {EQUAL, POSSIBLY_EQUAL, INCOMPATIBLE}


@given(_cell_pairs)
def test_compatible_equals_the_oracle_on_drawn_cells(pair):
    a, b = pair
    assert compatible(a, b) == _oracle_compatible(a, b)
    assert compatible(b, a) == _oracle_compatible(b, a)


@given(st.lists(_cell_pairs, min_size=1, max_size=10))
def test_verdicts_equal_the_compatible_oracle_on_drawn_cells(cells):
    """All six tags (exact, finite, rank one, rank >= 1, contains,
    unknown), drawn into profiles of 1 to 10 degrees."""
    pa = {k: a for k, (a, _) in enumerate(cells, 1)}
    pb = {k: b for k, (_, b) in enumerate(cells, 1)}
    for x, y in ((pa, pb), (pb, pa)):
        assert distinguish_profiles(x, y, len(cells)) == \
            _compatible_verdict(x, y, len(cells))


_COUNT_WORK = """
import json, sys
from symcart import abelian, catalog, homotopy, recognize
from symcart.catalog import instantiate

max_dim = int(sys.argv[1])
calls = {"guard_evals": 0, "blind": 0, "compatible": 0}
holds, is_blind = homotopy.Guard.holds, recognize._is_blind_pair
compatible = abelian.compatible

def counted_holds(*args):
    calls["guard_evals"] += 1
    return holds(*args)

def counted_is_blind(*args):
    calls["blind"] += 1
    return is_blind(*args)

def counted_compatible(*args):
    calls["compatible"] += 1
    return compatible(*args)

homotopy.Guard.holds = counted_holds   # rows evaluate a guard by its holds
recognize._is_blind_pair = counted_is_blind
# every symcart module that holds compatible, as perfbench's tracer rebinds it
for module in (abelian, homotopy, recognize):
    if hasattr(module, "compatible"):
        module.compatible = counted_compatible
report = recognize.corollary1_scan(max_dim)
scan_compatible = calls["compatible"]
field_ranks = abelian.field_ranks.cache_info().misses
instantiated = catalog.instantiate.cache_info().misses
homotopy.consistency_violations(max_dim)
check_instantiated = catalog.instantiate.cache_info().misses - instantiated
counted = [len(report.blind_pairs), len(report.violations),
           len(report.undetermined)]
cached = catalog.instantiate.cache_info().currsize
from symcart.regions import regions
leasts = {r.least for r in regions()}
listed = {s for a, b, _ in report.violations for s in (a, b)}
listing_built = catalog.instantiate.cache_info().currsize - cached
# the (value, value) pairs that the consistency check compares
value_pairs = [(a, b) for r in regions()
               for cands in homotopy.row(r.least)
               for i, (_, a) in enumerate(cands) for _, b in cands[i + 1:]]
cell_values = {g for s in leasts if s.valid
               for g in homotopy.groups(s, 9).values()}
# the CP^n rule reads the row of S(2n + 1)
read = leasts | {instantiate("S", (2 * s.params[1] + 1,)) for s in leasts
                 if s.symbol == "AIII" and s.params[0] == 1}
records = homotopy.load_records()
guarded = sum(1 for s in read for rec in records
              if rec.guard is not None and rec.symbol == s.symbol
              and len(rec.param_values) == len(s.params)
              and all(v is None or v == p
                      for v, p in zip(rec.param_values, s.params)))
# a space is hashed only as a key of these caches
space_caches = (homotopy.row, homotopy.pi, recognize._ranked)

def space_lookups():
    return sum(c.cache_info().hits + c.cache_info().misses for c in space_caches)

before = space_lookups()
recognize.corollary1_scan(max_dim)
warm_lookups = space_lookups() - before
print(json.dumps({**calls, "regions": len(leasts), "read": len(read),
                  "valid_regions": sum(s.valid for s in leasts),
                  "guarded": guarded, "warm_lookups": warm_lookups,
                  "rows": homotopy.row.cache_info().misses,
                  "parses": homotopy.load_records.cache_info().misses,
                  "scan_compatible": scan_compatible,
                  "field_ranks": field_ranks,
                  "cell_values": len(cell_values),
                  "check_instantiated": check_instantiated,
                  "counted": counted, "cached": cached,
                  "listing_built": listing_built,
                  "listed_new": len(listed - leasts),
                  "overlaps": len(value_pairs),
                  "value_pairs": len(set(value_pairs))}))
"""


def _count_work(max_dim):
    src = os.path.dirname(os.path.dirname(symcart.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return json.loads(subprocess.run(
        [sys.executable, "-c", _COUNT_WORK, str(max_dim)], env=env,
        capture_output=True, text=True, check=True).stdout)


def test_scan_work_counts_per_region_and_per_class_pair():
    """Work counters of a cold scan plus consistency check, at dim 300 and
    at dim 2000.

    Counts, not wall time.  The records are parsed once, and the scan
    and the check read one homotopy row per region, plus the sphere rows
    that the CP^n rule reads: 133 regions stand for the 1,576 catalog
    spaces of dim <= 300 and the 13,249 of dim <= 2000, so both dims
    build the same 134 rows (the 133 regions' and that of S(13), read by
    CP^6) and evaluate the same 168 guards, each matched guard once per
    row.  Only the class pairs that hold a violating or
    undetermined pair visit their pairs, never a blind one, without a
    per-pair ``_is_blind_pair`` call.  The scan compares class profiles
    without ``compatible``, ranking each distinct cell value at most
    once.  A warm scan looks a space up in a space-keyed cache only to
    read a region's row.  The check that follows reads the scan's
    regions and instantiates no space; it calls ``compatible`` once per
    overlapping pair of candidates, 125 of them, holding 3 distinct pairs
    of values.

    Taking ``len`` of the report's buckets lists no pair, so the scan
    and the check leave only the 134 spaces that building the regions
    (no row) and then, through ``homotopy.row``, the rows of their least
    members instantiates, at both dims: the 133 least members and S(13),
    read by CP^6.  A region's box skips the non-canonical
    presentations by lookup, so none of them is instantiated.  Iterating
    the violations then builds exactly the members it lists that are no
    region's least.
    """
    small, big = _count_work(300), _count_work(2000)
    for counts in (small, big):
        assert counts["parses"] == 1
        assert counts["rows"] == counts["read"] == 134
        assert counts["guard_evals"] == counts["guarded"] == 168
        assert counts["blind"] == 0
        assert counts["scan_compatible"] == 0 < counts["compatible"]
        assert 0 < counts["field_ranks"] <= counts["cell_values"]
        assert counts["check_instantiated"] == 0
        assert counts["compatible"] == counts["overlaps"] == 125
        assert counts["value_pairs"] == 3
        assert 0 < counts["warm_lookups"] <= counts["valid_regions"]
        assert counts["cached"] == 134
        assert 0 < counts["listing_built"] == counts["listed_new"]
    assert small["counted"] == [20445, 287, 147]
    assert big["counted"] == [986045, 1987, 997]
    assert big["rows"] == small["rows"]
    assert big["guard_evals"] == small["guard_evals"]


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


@pytest.mark.parametrize("ambient, max_degree", [
    (("E8",), -5), (("S", (200,)), 0), (("S", (200,)), 11)])
def test_decompose_checks_its_degree_first(ambient, max_degree):
    """A degree out of range is the ValueError that ``distinguish`` and
    ``profile`` raise, before the padding count or any ranking runs."""
    with pytest.raises(ValueError, match=f"^degree {max_degree} out of range"):
        decompose(instantiate(*ambient), max_degree=max_degree)


_FRESH_DECOMPOSE = """
import json
from symcart.catalog import instantiate
from symcart.recognize import decompose
print(json.dumps([[p.label() for p in decompose(instantiate(*spec))]
                  for spec in (("S", (20,)), ("AIII", (1, 10)))]))
"""


def test_decompose_ranks_each_space_once(monkeypatch):
    """Counts of the profiles ``_ranked`` reads, not wall time.

    A second ``decompose`` of the same ambient ranks nothing again, and
    one of another ambient ranks only the catalog spaces not seen yet.
    Neither changes a result: both equal a run in a fresh process.
    """
    ranked = []
    read = recognize.groups

    def counted(s, *args):
        ranked.append(s)
        return read(s, *args)

    monkeypatch.setattr(recognize, "groups", counted)
    recognize._ranked.cache_clear()
    s20, cp10 = instantiate("S", (20,)), instantiate("AIII", (1, 10))
    seen = set(enumerate_catalog(20)) | {s20}

    first = [p.label() for p in decompose(s20)]
    assert len(ranked) == len(seen)
    again = [p.label() for p in decompose(s20)]
    assert again == first and len(ranked) == len(seen)
    other = [p.label() for p in decompose(cp10)]
    unseen = set(enumerate_catalog(cp10.dim)) | {cp10}
    assert len(ranked) == len(seen) + len(unseen - seen)

    src = os.path.dirname(os.path.dirname(symcart.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _FRESH_DECOMPOSE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [first, other]


def test_ranked_is_cached_by_the_absolute_data_directory():
    """Every spelling of the shipped data directory shares ``_ranked``'s
    cache entries, as it shares ``row``'s."""
    recognize._ranked.cache_clear()
    s20 = instantiate("S", (20,))
    first = decompose(s20)
    misses = recognize._ranked.cache_info().misses
    assert misses == len(set(enumerate_catalog(20)) | {s20})
    for data_dir in (homotopy._DATA_DIR,
                     os.path.relpath(homotopy._DATA_DIR),
                     os.path.join(homotopy._DATA_DIR, "..", "data")):
        assert decompose(s20, data_dir=data_dir) == first
    assert recognize._ranked.cache_info().misses == misses


def _product_dfs(ambient, max_degree=9, max_candidates=10 ** 6):
    """The search over whole products: the oracle for the core search.

    Visits every multiset of catalog spaces that fits the dimension
    budget and whose summed lower ranks stay within the ambient's upper
    ones, sphere padding included, and compares each whose upper ranks
    reach the ambient's lower ones exactly.  Returns (results, nodes
    visited); raises CandidateOverflow past max_candidates nodes.
    """
    cells = [(k, f) for k in range(1, max_degree + 1) for f in FIELDS]

    def ranks(s):
        return {(k, f): i for k, g in groups(s, max_degree).items()
                for f, i in field_ranks(g)}

    amb_prof, amb = groups(ambient, max_degree), ranks(ambient)
    cands = [(t, r) for t, r in ((t, ranks(t))
                                 for t in enumerate_catalog(ambient.dim))
             if not any(amb[c].hi is not None and r[c].lo > amb[c].hi
                        for c in cells)]
    cands.sort(key=lambda tr: (-tr[0].dim, tr[0].label()))
    results, nodes = [], 0

    def dfs(start, budget, chosen, lo, hi):
        nonlocal nodes
        nodes += 1
        if nodes > max_candidates:
            raise CandidateOverflow(
                f"decomposition search exceeded {max_candidates} nodes")
        if chosen and all(hi[c] is None or hi[c] >= amb[c].lo
                          for c in cells):
            q = ProductSpace(tuple(chosen))
            if distinguish_profiles(profile(q, max_degree), amb_prof,
                                    max_degree).kind != DISTINGUISHABLE:
                results.append(q)
        for i in range(start, len(cands)):
            t, r = cands[i]
            if t.dim > budget:
                continue
            new_lo = {c: lo[c] + r[c].lo for c in cells}
            new_hi = {c: None if hi[c] is None or r[c].hi is None
                      else hi[c] + r[c].hi for c in cells}
            if any(amb[c].hi is not None and new_lo[c] > amb[c].hi
                   for c in cells):
                continue
            chosen.append(t)
            dfs(i, budget - t.dim, chosen, new_lo, new_hi)
            chosen.pop()

    zero = {c: 0 for c in cells}
    dfs(0, ambient.dim, [], zero, zero)
    results.sort(key=lambda r: (-r.dim, r.label()))
    return results, nodes


_ORACLE_AMBIENTS = [("S", (12,)), ("S", (30,)), ("AIII", (1, 10)),
                    ("DIII", (5,)), ("CII", (1, 3)), ("G2", ())]


@pytest.mark.parametrize("max_degree, spec", [
    pytest.param(degree, spec, id=f"{instantiate(*spec).label()}-{degree}")
    for degree, specs in (
        (9, _ORACLE_AMBIENTS + [("AIII", (1, 20)), ("EVII", ())]),
        # at degree 3 factors other than spheres are invisible too
        (3, _ORACLE_AMBIENTS))
    for spec in specs])
def test_core_search_equals_the_product_dfs(max_degree, spec):
    """Same products in the same order, and CandidateOverflow from exactly
    the oracle's node count on: the padding is counted exactly."""
    ambient = instantiate(*spec)
    expected, nodes = _product_dfs(ambient, max_degree)
    got = decompose(ambient, max_degree)
    assert [p.label() for p in got] == [p.label() for p in expected]
    assert got == expected
    assert decompose(ambient, max_degree, max_candidates=nodes) == expected
    with pytest.raises(CandidateOverflow):
        decompose(ambient, max_degree, max_candidates=nodes - 1)


@pytest.mark.parametrize("spec", [("S", (12,)), ("S", (30,)),
                                  ("AIII", (1, 10)), ("EVII", ())])
@pytest.mark.parametrize("max_candidates", (0, 1, 2, 3, 5, 10, 100))
def test_overflow_equals_the_product_dfs(spec, max_candidates):
    ambient = instantiate(*spec)
    try:
        expected = _product_dfs(ambient, 9, max_candidates)[0]
    except CandidateOverflow as err:
        with pytest.raises(CandidateOverflow, match=f"^{err}$"):
            decompose(ambient, 9, max_candidates)
    else:
        assert decompose(ambient, 9, max_candidates) == expected


@pytest.mark.parametrize("spec", [("E8", ()), ("E7", ()), ("AI", (20,)),
                                  ("S", (20000,))])
def test_a_big_ambient_overflows_before_any_exact_comparison(monkeypatch,
                                                             spec):
    """Counts, not wall time: S^n for n > 9 is invisible whatever the
    tables say, and the padding count over those spheres alone passes the
    default bound, so a big ambient overflows before the catalog is
    enumerated, any space is ranked or any core is visited."""
    visited, compared, enumerated = [], [], []
    cores, read = recognize._cores, recognize.profile

    def counted_cores(*args):
        for node in cores(*args):
            visited.append(node)
            yield node

    def counted_profile(*args):
        compared.append(args)
        return read(*args)

    def counted_catalog(max_dim):
        enumerated.append(max_dim)
        return enumerate_catalog(max_dim)

    monkeypatch.setattr(recognize, "_cores", counted_cores)
    monkeypatch.setattr(recognize, "profile", counted_profile)
    monkeypatch.setattr(recognize, "enumerate_catalog", counted_catalog)
    recognize._ranked.cache_clear()
    with pytest.raises(CandidateOverflow,
                       match="^decomposition search exceeded 1000000 nodes$"):
        decompose(instantiate(*spec))
    assert not visited and not compared and not enumerated
    assert recognize._ranked.cache_info().misses == 0


def test_sphere_padding_costs_no_exact_comparison(monkeypatch):
    """The summed rank intervals decide alone: ``decompose`` computes no
    product profile and makes no exact comparison."""
    compared = []

    def counted(name):
        read = getattr(recognize, name)

        def call(*args):
            compared.append(name)
            return read(*args)
        return call

    for name in ("profile", "distinguish_profiles"):
        monkeypatch.setattr(recognize, name, counted(name))
    assert len(decompose(instantiate("S", (60,)))) == 2364
    assert len(decompose(instantiate("EVII"))) == 1987
    assert not compared


@pytest.mark.parametrize("spec", _ORACLE_AMBIENTS + [("BDI", (4, 10))],
                         ids=lambda spec: instantiate(*spec).label())
def test_decompose_lists_what_distinguish_does_not_tell_apart(spec):
    """One product rule: among the products of one or two catalog spaces
    within the ambient's dimension, ``decompose`` lists exactly those
    that ``distinguish`` does not answer Distinguishable from it.  A sum
    that dropped a floor (``BDI(3,8) x HP(4)`` against ``BDI(4,10)``)
    left ``distinguish`` Undetermined where ``decompose``'s summed rank
    intervals excluded the product."""
    ambient = instantiate(*spec)
    listed = {q for q in decompose(ambient) if len(q.factors) <= 2}
    spaces = list(enumerate_catalog(ambient.dim))
    products = [ProductSpace((a,)) for a in spaces] + [
        ProductSpace((a, b)) for i, a in enumerate(spaces)
        for b in spaces[i:] if a.dim + b.dim <= ambient.dim]
    apart = {q for q in products
             if distinguish(q, ambient).kind == DISTINGUISHABLE}
    assert listed == set(products) - apart
