"""Homotopy database: rules, tables, coverage and internal consistency."""

import re
import shutil
from functools import lru_cache, reduce
from itertools import cycle, islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import symcart.homotopy
from symcart.abelian import (FIELDS, AbelianGroup, PartialAbelianGroup,
                             direct_sum, field_ranks, format_group,
                             parse_group)
from symcart.catalog import ProductSpace, enumerate_catalog, instantiate
from symcart.cli import parse_space
from symcart.homotopy import (MAX_DEGREE, consistency_violations, groups,
                              load_records, pi, profile, row)


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


# the stable stems pi_1^s..pi_4^s (Toda 1962)
_STEMS = {1: "Z_2", 2: "Z_2", 3: "Z_8 + Z_3", 4: "0"}


def test_sphere_rows_agree_with_freudenthal():
    """pi_k(S^n) is the stable stem pi_(k-n)^s once n >= (k - n) + 2:
    16 cells with 2 <= n < k <= 10."""
    cells = [(n, k) for k in range(3, MAX_DEGREE + 1) for n in range(2, k)
             if n >= (k - n) + 2]
    assert len(cells) == 16
    for n, k in cells:
        assert _fmt(instantiate("S", (n,)), k) == _STEMS[k - n], (n, k)


def test_complex_projective_space_fibration_rule():
    cp3 = instantiate("AIII", (1, 3))
    assert _fmt(cp3, 2) == "Z"
    for k in range(3, MAX_DEGREE + 1):
        assert pi(cp3, k) == pi(instantiate("S", (7,)), k)
    assert row(cp3)[5 - 1][0][0] == "projective_rule"


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


# F -> E -> B: each fibre, total space and base, as ``parse_space`` reads
# it; "S(1)" stands for the circle, which no catalog space is
_SPHERE_BUNDLES = (
    *((f"SU({n})", f"SU({n + 1})", f"S({2 * n + 1})") for n in range(2, 12)),
    *((f"Sp({n})", f"Sp({n + 1})", f"S({4 * n + 3})") for n in range(1, 6)),
    *((f"Spin({n})", f"Spin({n + 1})", f"S({n})") for n in range(3, 14)),
    ("S(1)", "S(3)", "S(2)"), ("S(3)", "S(7)", "S(4)"),
    ("S(7)", "S(15)", "S(8)"),
    ("G2", "Spin(7)", "S(7)"), ("SU(3)", "G2", "S(6)"),
    ("Spin(7)", "Spin(9)", "S(15)"), ("Spin(9)", "F4", "FII"),
    ("F4", "E6", "EIV"))


def _bundle_profile(spec):
    if spec == "S(1)":
        return {k: parse_group("Z" if k == 1 else "0")
                for k in range(1, MAX_DEGREE + 1)}
    return profile(parse_space(spec), MAX_DEGREE)


def _provably_above(a, b, c):
    """Whether rank interval a lies above every sum of b and c."""
    return b.hi is not None and c.hi is not None and a.lo > b.hi + c.hi


def test_group_rows_against_the_sphere_bundles():
    """The exact sequence of F -> E -> B bounds ranks over each field:
    r(pi_k E) <= r(pi_k F) + r(pi_k B), r(pi_k B) <= r(pi_k E) +
    r(pi_(k-1) F) and r(pi_(k-1) F) <= r(pi_k B) + r(pi_(k-1) E), an
    unbounded interval passing.  Of the 1,530 (bundle, k, field) triples
    for k = 2..10, only Spin(9) -> F4 -> FII breaks one, at the shipped
    FII row.  Its pi_7 = Z breaks the second at k = 7 over every field,
    and its pi_10 = Z_8 + Z_3 over F_3.  At k = 8, pi_7(Spin(9)) = Z has
    rank 1 over Q, F_3, F_5 and F_7, where pi_8(FII) = Z_2 and pi_7(F4)
    = 0 have none, which breaks the third."""
    flagged, triples = set(), 0
    for bundle in _SPHERE_BUNDLES:
        f, e, b = map(_bundle_profile, bundle)
        for k in range(2, MAX_DEGREE + 1):
            ranks = [[r for _, r in field_ranks(g)]
                     for g in (f[k], e[k], b[k], f[k - 1], e[k - 1])]
            for i, field in enumerate(FIELDS):
                fk, ek, bk, f1, e1 = (r[i] for r in ranks)
                triples += 1
                for which, broken in enumerate((
                        _provably_above(ek, fk, bk),
                        _provably_above(bk, ek, f1),
                        _provably_above(f1, bk, e1)), 1):
                    if broken:
                        flagged.add((bundle, k, field, which))
    assert triples == 1530
    assert {bundle for bundle, *_ in flagged} == {("Spin(9)", "F4", "FII")}
    assert {(k, field, which) for _, k, field, which in flagged} == {
        *((7, field, 2) for field in FIELDS), (10, 3, 2),
        *((8, field, 3) for field in ("Q", 3, 5, 7))}


def test_exceptional_rows():
    assert _fmt(instantiate("FII"), 7) == "Z"
    assert _fmt(instantiate("EVII"), 2) == "Z"
    assert _fmt(instantiate("EII"), 9) == "?"
    assert _fmt(instantiate("FI"), 3) == "f"
    assert _fmt(instantiate("G"), 6) == "Z_2^2 in"


def test_real_grassmannian_rows():
    g = instantiate("BDI", (2, 11))
    assert _fmt(g, 2) == "Z"
    assert pi(g, 3).is_exact_trivial
    assert pi(g, 9) == pi(instantiate("AIII", (1, 5)), 9)


def test_out_of_range_degree():
    for read in (pi, groups):
        for k in (0, MAX_DEGREE + 1):
            with pytest.raises(ValueError):
                read(instantiate("S", (5,)), k)


def test_profile_sums_factors():
    s2, s3 = instantiate("S", (2,)), instantiate("S", (3,))
    prof = profile(ProductSpace((s2, s3)), 6)
    assert format_group(prof[3]) == "Z^2"
    assert format_group(prof[2]) == "Z"
    assert format_group(prof[6]) == "Z_4^2 + Z_3^2"


def test_a_products_profile_builds_one_group_per_degree(monkeypatch):
    """``profile`` sums each degree's cells in one pass, so the groups
    it builds per degree do not grow with the factor count; the left
    fold of ``direct_sum`` re-sorted and re-checked the whole torsion at
    every factor (``homotopy`` on 4,000 factors took 25 s).  Its sums
    are the fold's, partial and widened cells among them."""
    kinds = [instantiate(symbol, params) for symbol, params in (
        ("S", (5,)), ("S", (2,)), ("BDI", (3, 7)), ("G", ()), ("AI", (4,)))]
    profile(ProductSpace(tuple(kinds)))         # each kind's row, built once
    made = []
    new = AbelianGroup.__new__

    def counted(cls, *args):
        made.append(cls)
        return new(cls, *args)

    monkeypatch.setattr(AbelianGroup, "__new__", staticmethod(counted))
    built = {}
    for n in (1, 30, 4000):
        q = ProductSpace(tuple(islice(cycle(kinds), n)))
        made.clear()
        prof = profile(q)
        built[n] = len(made)
        if n <= 30:
            assert prof == {k: reduce(direct_sum, (pi(f, k) for f in q.factors),
                                      PartialAbelianGroup.trivial())
                            for k in range(1, 10)}
    assert built[1] == built[30] == built[4000] <= 9


def test_full_catalog_coverage_through_degree_ten():
    missing = [(s, k) for s in enumerate_catalog(80)
               for k in range(1, MAX_DEGREE + 1)
               if row(s)[k - 1] == ()]
    assert missing == []


def test_unstable_beats_stable_on_overlap():
    # SU(4)/SO(4) at degree 4: the unstable row supplies Z where the
    # stable guard is silent; adjacent overlaps must agree (see below)
    s = instantiate("AI", (4,))
    assert _fmt(s, 4) == "Z"
    sources = {src for src, _ in row(s)[4 - 1]}
    assert "unstable_classical" in sources


def test_tables_are_internally_consistent():
    assert consistency_violations(150) == []
    with pytest.raises(ValueError, match="max_dim >= 1 required"):
        consistency_violations(0)


def test_consistency_violations_report_a_clash_by_both_sources(tmp_path):
    """A shipped-table copy with a row that says pi_2(AI(3)) = Z, against
    the Z_2 of the unstable and stable rows: each incompatible pair of
    candidates is one report, and the compatible Z_2/Z_2 pair is none."""
    for f in _DATA.glob("*.txt"):
        shutil.copy(f, tmp_path)
    table = tmp_path / "exceptional.txt"
    table.write_text(table.read_text() + "AI(3) | k <= 2 | 2=Z\n")
    bad = consistency_violations(150, str(tmp_path))
    assert [(s.label(), k, src_a, format_group(a), src_b, format_group(b))
            for s, k, src_a, a, src_b, b in bad] == [
        ("AI(3)", 2, "unstable_classical", "Z_2", "exceptional", "Z"),
        ("AI(3)", 2, "exceptional", "Z", "stable", "Z_2")]


def test_tables_are_parsed_once_per_process():
    load_records.cache_clear()
    load_records()
    row(instantiate("SU", (3,)))
    assert load_records.cache_info().misses == 1


def test_each_cache_has_one_key_per_data_directory():
    shipped = str(_DATA)
    load_records.cache_clear()
    assert load_records() is load_records(None) is load_records(shipped)
    assert load_records.cache_info().misses == 1
    s = instantiate("SU", (4,))
    pi.cache_clear()
    pi(s, 3)
    pi(s, 3, None)
    pi(s, 3, data_dir=shipped)
    assert pi.cache_info().misses == 1


def test_guards_name_only_their_pattern_parameters_and_k(tmp_path):
    data = Path(symcart.homotopy.__file__).parent / "data"
    for f in data.glob("*.txt"):
        shutil.copy(f, tmp_path)
    with open(tmp_path / "real_grassmannians.txt", "a") as fh:
        fh.write("BDI(2,q) | p >= 11 and k <= 2 | 2=Z\n")
    with pytest.raises(ValueError, match="unknown name 'p'"):
        load_records(str(tmp_path))


@pytest.mark.parametrize("guard, message", [
    ("[q for q in k]", "disallowed construct ListComp"),
    ("__import__('os') == 0", "disallowed construct Call"),
    ("q.real >= 11", "disallowed construct Attribute"),
    ("q >= 1.5", "non-integer constant in guard"),
    ("q >= 11 and k <= 2", None),
])
def test_degree_guards_pass_the_whitelist_before_the_wrapper(guard, message):
    """A guard is checked as written, before the reader wraps its
    comparisons in their constants at k = 1..MAX_DEGREE: a comprehension
    over k, a call and an attribute fail the whitelist."""
    read_guard = symcart.homotopy._read_guard
    if message is None:
        assert read_guard(guard, ("q",)).holds({"q": 12}) == \
            tuple(k <= 2 for k in range(1, MAX_DEGREE + 1))
    else:
        with pytest.raises(ValueError, match=message):
            read_guard(guard, ("q",))


# The per-cell resolution that rows replaced, kept as the reference: for
# each (space, degree) it matches the space against every record, compiles
# and evaluates each matching record's guard, reads the record's group
# from the data file's text, and picks the answer by source precedence.
_PRECEDENCE = {"sphere_rule": 0, "projective_rule": 0, "spheres": 1,
               "unstable_classical": 1, "real_grassmannians": 1,
               "exceptional": 1, "stable": 2, "simply_connected": 3}

_DATA = Path(symcart.homotopy.__file__).parent / "data"


def _oracle_records(data_dir):
    """(record, its table's name, its guard text, its {degree: group}) of
    each of load_records(data_dir), read anew from the file lines."""
    lines = [(name, line.strip()) for name, _ in symcart.homotopy._FILES
             for line in (Path(data_dir or _DATA) / f"{name}.txt")
             .read_text().splitlines()
             if line.strip() and not line.strip().startswith("#")]
    records = load_records(data_dir)
    assert len(records) == len(lines)
    out = []
    for rec, (source, line) in zip(records, lines):
        _, guard_text, cells = (part.strip() for part in line.split("|"))
        groups = {}
        for cell in cells.split(";"):
            deg, _, text = cell.partition("=")
            groups[int(deg)] = parse_group(text)
        out.append((rec, source, guard_text, groups))
    return out


def _matches(rec, s):
    """Whether the record's pattern matches s, slot by slot."""
    if s.symbol != rec.symbol or len(s.params) != len(rec.param_values):
        return False
    return all(v is None or v == p for v, p in zip(rec.param_values, s.params))


@lru_cache(maxsize=None)
def _oracle_guard(text):
    """A guard's code; ``load_records`` has already whitelisted its text."""
    return compile(text, "<guard>", "eval")


def _oracle_holds(text, bindings):
    """A whitelisted guard's truth at k = 1..MAX_DEGREE, by ``eval``."""
    return tuple(bool(eval(_oracle_guard(text), {"__builtins__": {}},
                           {**bindings, "k": k}))
                 for k in range(1, MAX_DEGREE + 1))


def test_every_shipped_guard_holds_where_eval_says():
    """Each shipped guard, read into integer comparisons, has the truth
    that ``eval`` of its text gives, for every parameter in 1..40."""
    guards = {(text, tuple(filter(None, rec.param_names))): rec.guard
              for rec, _, text, _ in _oracle_records(None)
              if rec.guard is not None}
    assert len(guards) == 20
    for (text, names), guard in guards.items():
        for values in product(range(1, 41), repeat=len(names)):
            bindings = dict(zip(names, values))
            assert guard.holds(bindings) == _oracle_holds(text, bindings), \
                (text, bindings)


def _oracle_candidates(s, k, records):
    trivial, z = parse_group("0"), parse_group("Z")
    out = []
    if s.symbol == "S":
        n = s.params[0]
        if k < n:
            out.append(("sphere_rule", trivial))
        elif k == n:
            out.append(("sphere_rule", z))
    if s.symbol == "AIII" and s.params[0] == 1:
        sphere = instantiate("S", (2 * s.params[1] + 1,))
        out.append(("projective_rule", trivial if k == 1 else z if k == 2
                    else _oracle_pi(_oracle_candidates(sphere, k, records))))
    for rec, source, guard_text, groups in records:
        if not _matches(rec, s):
            continue
        env = {**rec.bindings(s), "k": k}
        if guard_text != "-" and not eval(
                _oracle_guard(guard_text), {"__builtins__": {}}, env):
            continue
        if source == "stable" and k == MAX_DEGREE \
                and MAX_DEGREE not in groups:
            out.append((source, groups.get(MAX_DEGREE - 8, trivial)))
        else:
            out.append((source, groups.get(k, trivial)))
    if k == 1 and not out:
        out.append(("simply_connected", trivial))
    return out


def _oracle_first(cands):
    """The candidate that answers pi_k, by source precedence, as a
    1-tuple; () when no source covers the cell."""
    return (min(cands, key=lambda sv: _PRECEDENCE[sv[0]]),) if cands else ()


def _oracle_pi(cands):
    first = _oracle_first(cands)
    return first[0][1] if first else parse_group("?")


def _assert_rows_equal_the_oracle(data_dir=None):
    spaces = set(enumerate_catalog(300))
    # the CP^n rule reads pi of S^(2n+1), which may lie just past max_dim
    spaces |= {instantiate("S", (2 * s.params[1] + 1,)) for s in list(spaces)
               if s.symbol == "AIII" and s.params[0] == 1}
    records = _oracle_records(data_dir)
    for s in sorted(spaces, key=lambda s: s.label()):
        for k in range(1, MAX_DEGREE + 1):
            cands = _oracle_candidates(s, k, records)
            cells = row(s, data_dir)[k - 1]
            assert list(cells) == cands, (s, k)
            assert pi(s, k, data_dir) == _oracle_pi(cands), (s, k)
            assert cells[:1] == _oracle_first(cands), (s, k)


def test_rows_equal_the_per_cell_oracle():
    _assert_rows_equal_the_oracle()


def test_an_uncovered_pi_1_is_simply_connected(tmp_path):
    """With the SU rows removed, no table covers SU(3): its pi_1 falls
    back to ``simply_connected`` and its other cells are uncovered."""
    for f in _DATA.glob("*.txt"):
        lines = f.read_text().splitlines(keepends=True)
        (tmp_path / f.name).write_text(
            "".join(line for line in lines if not line.startswith("SU(")))
    data_dir = str(tmp_path)
    cells = row(instantiate("SU", (3,)), data_dir)
    assert cells[0] == (("simply_connected", PartialAbelianGroup.trivial()),)
    assert cells[1:] == ((),) * (MAX_DEGREE - 1)
    _assert_rows_equal_the_oracle(data_dir)


def test_rows_merge_fixed_and_patterned_records_in_file_order(tmp_path):
    """BDI(3,12) gains fixed rows in the first and last files and a
    patterned one between the shipped BDI(3,q) row and the last file."""
    for f in _DATA.glob("*.txt"):
        shutil.copy(f, tmp_path)
    for name, line in (("spheres", "BDI(3,12) | k >= 9 | 9=Z_5; 10=Z_7"),
                       ("exceptional", "BDI(p,12) | p == 3 and k <= 4 | "
                                       "2=Z_2; 4=Z"),
                       ("stable", "BDI(3,12) | - | 2=Z_2")):
        with open(tmp_path / f"{name}.txt", "a") as fh:
            fh.write(line + "\n")
    _assert_rows_equal_the_oracle(str(tmp_path))
    s = instantiate("BDI", (3, 12))
    cells = row(s, str(tmp_path))
    assert [src for src, _ in cells[2 - 1]] == \
        ["real_grassmannians", "exceptional", "stable"]
    assert [src for src, _ in cells[9 - 1]] == \
        ["spheres", "real_grassmannians", "stable"]
    assert cells[9 - 1][0][0] == "spheres"
    assert _fmt(s, 9) == "Z_3"          # the shipped tables' rows are apart


def test_rows_equal_the_oracle_on_shapes_the_tables_lack(tmp_path):
    """Patterns that fix a later slot only (BDI(p,12)) or have another
    arity (BDI(q)), and a k-free guard beside a k-guard on SU, each fall
    under their own index shape; rows still equal the oracle."""
    for f in _DATA.glob("*.txt"):
        shutil.copy(f, tmp_path)
    for name, line in (("spheres", "BDI(p,12) | p >= 4 and k >= 8 | 8=Z_7"),
                       ("spheres", "BDI(q) | - | 5=Z_49"),
                       ("unstable_classical", "SU(n) | n >= 7 | 4=Z_5"),
                       ("exceptional", "BDI(p,12) | - | 6=Z_25"),
                       ("exceptional", "SU(n) | n >= 3 and n <= 4 | 8=Z_9")):
        with open(tmp_path / f"{name}.txt", "a") as fh:
            fh.write(line + "\n")
    _assert_rows_equal_the_oracle(str(tmp_path))
    data_dir = str(tmp_path)
    assert [src for src, _ in row(
        instantiate("BDI", (5, 12)), data_dir)[8 - 1]][:2] == \
        ["spheres", "real_grassmannians"]
    assert "spheres" not in {src for src, _ in row(
        instantiate("BDI", (3, 12)), data_dir)[8 - 1]}
    assert parse_group("Z_49") not in {g for _, g in row(
        instantiate("BDI", (2, 12)), data_dir)[5 - 1]}
    assert format_group(pi(instantiate("SU", (7,)), 4, data_dir)) == "Z_5"
    for k in range(1, MAX_DEGREE + 1):      # a k-free guard holds at every k
        assert "exceptional" in {src for src, _ in row(
            instantiate("SU", (4,)), data_dir)[k - 1]}
        assert "exceptional" not in {src for src, _ in row(
            instantiate("SU", (5,)), data_dir)[k - 1]}


def test_malformed_rows_name_their_file_and_line(tmp_path):
    for f in _DATA.glob("*.txt"):
        shutil.copy(f, tmp_path)
    table = tmp_path / "exceptional.txt"
    shipped = table.read_text()
    lineno = shipped.count("\n") + 1
    for row, message in (("E6 | - | 2=Z | 3=Z", "expected 3 '|'-separated "
                                                "fields, found 4"),
                         ("BDI(3,q) | q >= | 2=Z", "guard 'q >=' does not "
                                                   "parse"),
                         ("E6 | - | 11=Z", "degree 11 out of range"),
                         ("E6 | - | 2=Z; 2=Z_2", "degree 2 repeated"),
                         ("E6 | - | 2=Z_2; 5=Z + Z_22 in",
                          "group 'Z \\+ Z_22 in' has prime 11; cells are "
                          "compared over \\('Q', 2, 3, 5, 7\\) only"),
                         ("E6( | - | 2=Z", "bad pattern 'E6\\('"),
                         # '²' and '١٢' pass str.isdigit, and int reads the
                         # second as 12
                         ("S(\u00b2) | - | 2=Z", "bad pattern 'S\\(\u00b2\\)'"),
                         ("S(\u0661\u0662) | - | 2=Z",
                          "bad pattern 'S\\(\u0661\u0662\\)'"),
                         ("BDI(3,) | - | 2=Z", "bad pattern 'BDI\\(3,\\)'"),
                         ("BDI(p,q) | k < q - p | 2=Z", "guard 'k < q - p' "
                          "compares p and q in one comparison"),
                         ("BDI(3,q) | q * q > 20 | 2=Z", "guard 'q \\* q > "
                          "20' multiplies two variable terms"),
                         ("BDI(3,q) | (q > 3) + k > 1 | 2=Z",
                          "guard '\\(q > 3\\) \\+ k > 1' uses a Compare "
                          "as a number"),
                         # k would read as the degree, so BDI(3,12) would
                         # gain pi_9 = Z_5; p,p would match any BDI(p,q)
                         ("BDI(k,q) | k >= 9 | 9=Z_5", "pattern "
                          "'BDI\\(k,q\\)' names a parameter k, which guards "
                          "read as the degree"),
                         ("BDI(p,p) | - | 2=Z_5",
                          "pattern 'BDI\\(p,p\\)' names p twice"),
                         # a guard would read True as 1
                         ("BDI(True,q) | True >= 2 | 2=Z",
                          "bad pattern 'BDI\\(True,q\\)'"),
                         # int reads each degree as 3, 10 and 3
                         ("E6 | - | \u0663=Z_2",
                          "bad degree '\u0663' in cell '\u0663=Z_2'"),
                         ("E6 | - | 1_0=Z_2",
                          "bad degree '1_0' in cell '1_0=Z_2'"),
                         ("E6 | - | +3=Z_2",
                          "bad degree '\\+3' in cell '\\+3=Z_2'"),
                         # int reads the first as Z_12 and fails on the rest
                         ("E6 | - | 3=Z_\u0661\u0662", "bad cyclic order at "
                          "position 0 in 'Z_\u0661\u0662'"),
                         ("E6 | - | 3=Z_\u00b2",
                          "bad cyclic order at position 0 in 'Z_\u00b2'"),
                         ("E6 | - | 3=Z^\u00b2",
                          "bad exponent at position 0 in 'Z\\^\u00b2'")):
        table.write_text(shipped + row + "\n")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(table))}:{lineno}: "
                                 f"{message}"):
            load_records(str(tmp_path))


@pytest.mark.parametrize("guard, message", [
    ("q >= 11 or k <= 2", "disallowed construct Or"),
    ("not q >= 11", "disallowed construct Not"),
    ("q != 3", "disallowed construct NotEq"),
    ("q - 3", "guard 'q - 3' is not an 'and' of comparisons"),
    ("q >= 3 and q", "guard 'q >= 3 and q' is not an 'and' of comparisons"),
])
def test_a_guard_outside_the_and_of_comparisons_is_a_malformed_row(
        tmp_path, guard, message):
    """A guard is an "and" of ordered or equality comparisons: "or",
    "not", "!=" and a bare term fail at load, by ``file:line``."""
    for f in _DATA.glob("*.txt"):
        shutil.copy(f, tmp_path)
    table = tmp_path / "real_grassmannians.txt"
    shipped = table.read_text()
    lineno = shipped.count("\n") + 1
    table.write_text(shipped + f"BDI(3,q) | {guard} | 2=Z\n")
    with pytest.raises(ValueError, match=(
            f"^{re.escape(str(table))}:{lineno}: {re.escape(message)}")):
        load_records(str(tmp_path))


def _forms(forms, parts):
    """Two drawn ``parts`` put into a form drawn from ``forms``, format
    strings of one or two slots."""
    return st.tuples(st.sampled_from(forms), parts, parts).map(
        lambda t: t[0].format(t[1], t[2]))


# guards from a grammar wider than the tables': "or", "not", all six
# comparisons, bare terms, division, powers, calls, attributes, floats,
# True and non-ASCII digits; the tables' own forms drawn most often
_wide_terms = st.recursive(
    st.sampled_from(["p", "q", "k", "0", "3", "12"] * 3
                    + ["x", "1.5", "True", "\u0661\u0662", "\u00b2"]),
    lambda inner: _forms(["({} + {})", "({} - {})", "{} * {}"] * 3
                         + ["{} // {}", "{} % {}", "{} ** {}", "-{}",
                            "abs({})", "({}).real"], inner),
    max_leaves=4)
_wide_guards = st.recursive(
    _forms(["{} < {}", "{} <= {}", "{} > {}", "{} >= {}", "{} == {}"] * 3
           + ["{} != {}", "{}"], _wide_terms),
    lambda inner: _forms(["{} and {}", "({} and {})"] * 3
                         + ["{} or {}", "not {}", "{} < {}"], inner),
    max_leaves=4)


@pytest.fixture(scope="module")
def table_copy(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("tables")
    for f in _DATA.glob("*.txt"):
        shutil.copy(f, data_dir)
    table = data_dir / "exceptional.txt"
    shipped = table.read_text()
    return str(data_dir), table, shipped, shipped.count("\n") + 1


@settings(max_examples=200, deadline=None)
@given(_wide_guards)
def test_any_guard_loads_as_eval_reads_it_or_fails_by_file_and_line(
        table_copy, guard):
    """A drawn row either loads, with a guard that holds where ``eval``
    of its text says, or is a ``ValueError`` at its ``file:line``."""
    data_dir, table, shipped, lineno = table_copy
    table.write_text(shipped + f"BDI(p,q) | {guard} | 2=Z_49\n")
    try:        # the uncached reader: every example rewrites the same copy
        records = load_records.__wrapped__(data_dir)
    except ValueError as err:
        assert str(err).startswith(f"{table}:{lineno}: "), (guard, err)
        return
    *_, rec = (r for r in records if r.cells[0][0] == "exceptional")
    assert rec.symbol == "BDI" and rec.param_names == ("p", "q")
    for p, q in ((1, 1), (2, 9), (7, 3), (40, 12)):
        assert rec.guard.holds({"p": p, "q": q}) == \
            _oracle_holds(guard, {"p": p, "q": q}), (guard, p, q)


def test_a_guard_dividing_by_a_variable_is_a_malformed_row(tmp_path):
    """A guard adds, subtracts and multiplies only: ``//`` and ``%`` fail
    at load, by ``file:line``, whether they divide by a variable or by a
    constant, so no guard that loads can divide by zero."""
    for f in _DATA.glob("*.txt"):
        shutil.copy(f, tmp_path)
    table = tmp_path / "exceptional.txt"
    shipped = table.read_text()
    lineno = shipped.count("\n") + 1
    for guard, construct in (("k // (k - k) >= 1", "FloorDiv"),
                             ("k // 3 >= 1", "FloorDiv"),
                             ("k % 4 == 2", "Mod")):
        table.write_text(shipped + f"E6 | {guard} | 2=Z\n")
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(table))}:{lineno}: disallowed construct "
                f"{construct} in guard {re.escape(repr(guard))}$")):
            row(instantiate("E6"), str(tmp_path))


def test_a_missing_table_is_a_value_error(tmp_path):
    with pytest.raises(ValueError, match="spheres.txt not found"):
        load_records(str(tmp_path))
