"""Acceptance gate: one test and one printed [PASS]/[FAIL] line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see every line;
without ``-s`` pytest still shows the line for any failing criterion.
"""

import math
import random
from fractions import Fraction

from symcart.catalog import (EXCEPTIONAL_SYMBOLS, ProductSpace,
                             classical_presentations, enumerate_catalog,
                             instantiate, product_kp, reference_classical,
                             reference_exceptional, sharp)
from symcart.geom import connectivity, min_meridian_codim, trace_bound
from symcart.homotopy import consistency_violations
from symcart.recognize import INDISTINGUISHABLE, UNDETERMINED, \
    corollary1_scan
from symcart.rootsys import Multiplicities, RootSystemType, kp_by_deletion, \
    kp_closed_form, kp_enumerated


def _report(ok, name, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_classical_table_reproduction():
    bad = []
    rows = 0
    for symbol, params in classical_presentations(30):
        s = instantiate(symbol, params)
        if (s.dp, s.kp, s.cp) != reference_classical(symbol, params):
            bad.append((symbol, params))
        rows += 1
    _report(not bad and rows > 1500,
            "criterion 1: classical table reproduction",
            f"{rows} rows, {len(bad)} mismatches")


def test_criterion_2_exceptional_table_reproduction():
    bad = [sym for sym in EXCEPTIONAL_SYMBOLS
           if (instantiate(sym).dp, instantiate(sym).kp)
           != reference_exceptional(sym)]
    _report(not bad and len(EXCEPTIONAL_SYMBOLS) == 17,
            "criterion 2: exceptional table reproduction (17 rows)",
            f"{len(bad)} mismatches")


def test_criterion_3_oracle_equivalence():
    def mult_sets(symbol):
        if symbol in ("A", "D", "E6", "E7", "E8"):
            return [Multiplicities(m_l=m) for m in (1, 2, 4, 8)]
        if symbol in ("B", "C", "F4", "G2"):
            return [Multiplicities(m_s=s, m_l=l)
                    for s in (1, 2, 4, 6, 7) for l in (1, 2)]
        return [Multiplicities(s, l, x)
                for s, l, x in ((2, 2, 1), (4, 4, 1), (8, 6, 1), (4, 4, 3),
                                (2, 1, 1), (6, 4, 1), (1, 2, 1))]

    cases = [("A", r) for r in range(1, 13)]
    cases += [(s, r) for s in ("B", "C") for r in range(2, 13)]
    cases += [("D", r) for r in range(4, 13)]
    cases += [("BC", r) for r in range(1, 13)]
    cases += [("E6", 0), ("E7", 0), ("E8", 0), ("F4", 0), ("G2", 0)]
    bad = []
    bad_deletion = []
    checked = 0
    deleted = 0
    for symbol, rank in cases:
        t = RootSystemType(symbol, rank)
        for m in mult_sets(symbol):
            enumerated = kp_enumerated(t, m)
            # the catalog's path: value and smallest maximizing node
            deleted += 1
            if kp_by_deletion(t, m) != enumerated:
                bad_deletion.append((symbol, rank, m))
            closed = kp_closed_form(t, m)
            if closed is not None:
                checked += 1
                if closed != enumerated.value:
                    bad.append((symbol, rank, m))
    _report(not bad and not bad_deletion and checked > 100,
            "criterion 3: closed form = deletion = enumeration oracle",
            f"{checked} closed-form cases, {len(bad)} disagreements; "
            f"{deleted} deletion cases, {len(bad_deletion)} disagreements")


def test_criterion_4_corollary1_scan():
    report = corollary1_scan(300)
    valid = [s for s in enumerate_catalog(300) if s.valid]
    by_symbol = {}
    for s in valid:
        by_symbol.setdefault(s.symbol, []).append(s)

    def family(symbol, p, least_q):
        return [s for s in by_symbol.get(symbol, ())
                if s.params[0] == p and s.params[1] >= least_q]

    def pairs(xs, ys):
        return {frozenset((x, y)) for x in xs for y in ys}

    # S^{2n+1} -> CP^n and V_2(R^{q+2}) -> Gr(R,2,q) are circle bundles
    # whose total spaces are 9-connected for n >= 5 and q >= 10, so both
    # have pi_<=9 = (0, Z, 0, ..., 0).  This is the blind-spot set of
    # _is_blind_pair; every pair must be Indistinguishable(9).
    cp, gr = family("AIII", 1, 5), family("BDI", 2, 10)
    blind = pairs(cp, gr)
    # Equal through degree 9, yet outside the blind-spot set, so the scan
    # files them as violations by design; no table can separate them.
    # EVII = E7/E6.U(1): the exact sequence of E6.U(1) -> E7 -> EVII,
    # with pi_4..pi_10(E7) = 0, pi_4..pi_8(E6) = 0 and pi_3(E6) ->
    # pi_3(E7) an isomorphism, gives pi_<=9 = (0, Z, 0, ..., 0), the
    # profile of CP^n and Gr(R,2,q) above.
    # E7 and E8 both have pi_<=9 = (0, 0, Z, 0, ..., 0) (Mimura, Homotopy
    # theory of Lie groups, Handbook of Algebraic Topology, 1995).
    equal = pairs(by_symbol["EVII"], cp + gr) | pairs(by_symbol["E7"],
                                                     by_symbol["E8"])
    # S^3 -> S^{4q+3} -> HP^q gives pi_k(HP^q) = pi_{k-1}(S^3) for
    # k <= 9 when q >= 2.  The shipped FI and EIX rows carry exactly
    # these groups at pi_4..pi_9, no pi_2, and pi_3 = f ("finite,
    # possibly zero"), so only pi_3 blocks the verdict (0 vs f for HP^q,
    # f vs f for FI vs EIX) and Undetermined is the only sound answer.
    fi, eix = by_symbol["FI"], by_symbol["EIX"]
    blocked = pairs(family("CII", 1, 2), fi + eix) | pairs(fi, eix)

    all_pairs = (len(valid) * (len(valid) - 1)
                 - sum(n * (n - 1) for n in map(len, by_symbol.values()))) // 2
    distinguishable = all_pairs - len(blind) - len(equal) - len(blocked)
    wrong = []

    def bucket(name, got, expected, verdict_ok=lambda v: True):
        got_set = {frozenset(p[:2]) for p in got}
        missing, extra = expected - got_set, got_set - expected
        bad = [p for p in got if len(p) > 2 and not verdict_ok(p[2])]
        if missing or extra or bad or len(got) != len(got_set):
            sample = sorted(min(p).label() + " x " + max(p).label()
                            for p in missing | extra)[:3]
            wrong.append(f"{name}: {len(got)} vs {len(expected)} expected, "
                         f"{len(missing)} missing, {len(extra)} extra "
                         f"{sample}, {len(bad)} with a wrong verdict")

    # blind_pairs holds only pairs the scan found Indistinguishable
    bucket("blind CP(n) x Gr(R,2,q)", report.blind_pairs, blind)
    bucket("violations EVII x CP(n)/Gr(R,2,q), E7 x E8", report.violations,
           equal, lambda v: (v.kind == INDISTINGUISHABLE
                             and v.through_degree == 9))
    bucket("undetermined HP(q)/FI/EIX at pi_3", report.undetermined,
           blocked, lambda v: (v.kind == UNDETERMINED
                               and {k for k, _, _ in v.blockers} == {3}))
    if report.distinguishable_pairs != distinguishable:
        wrong.append(f"distinguishable: {report.distinguishable_pairs} vs "
                     f"{distinguishable} expected")
    if report.instances != len(valid):
        wrong.append(f"instances: {report.instances} vs {len(valid)}")
    detail = (f"{report.instances} instances, "
              f"{report.distinguishable_pairs} distinguishable, "
              f"{len(report.blind_pairs)} blind, "
              f"{len(report.violations)} equal-profile violations, "
              f"{len(report.undetermined)} pi_3-blocked undetermined")
    _report(not wrong, "criterion 4: degree-9 recognition scan (dim <= 300)",
            "; ".join(wrong) or detail)


def test_criterion_5_homotopy_internal_consistency():
    bad = consistency_violations(300)
    _report(not bad, "criterion 5: homotopy tables internally consistent",
            f"{len(bad)} incompatible overlapping cells")


def test_criterion_6_meridian_obstruction_sweep():
    bad = []
    for fld, symbol in (("C", "AIII"), ("H", "CII")):
        for p in range(3, 31):
            for q in range(p, 31):
                amb = instantiate(symbol, (p, q))
                if Fraction(min_meridian_codim(fld, p, q)) <= amb.cp:
                    bad.append((fld, p, q))
    _report(not bad, "criterion 6: meridian codimension exceeds C_P",
            f"fields C,H, 3 <= p <= q <= 30, {len(bad)} failures")


def test_criterion_7_gate_arithmetic():
    rng = random.Random(2026)
    pool = list(enumerate_catalog(300))
    mismatch = sum(1 for _ in range(10 ** 4)
                   for p in [rng.choice(pool)]
                   for codim in [rng.randint(1, p.dim - 1)]
                   if connectivity(p, p.dim - codim) != sharp(p, codim))
    zero_ok = all(trace_bound(k, k, 0.0) == 0.0 for k in (1, 5, 134))
    grid = [i * (math.pi / 2) * 0.999 / 1000 for i in range(1001)]
    vals = [trace_bound(3.0, 7.0, r) for r in grid]
    monotone = all(b - a > -1e-12 for a, b in zip(vals, vals[1:]))
    _report(mismatch == 0 and zero_ok and monotone,
            "criterion 7: connectivity = sharp; trace bound zero/monotone",
            f"{mismatch} mismatches over 10^4 samples")


def test_criterion_8_product_kp_fold():
    rng = random.Random(2027)
    pool = list(enumerate_catalog(120))
    bad = 0
    for _ in range(10 ** 3):
        factors = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
        dim, k = factors[0].dim, factors[0].kp
        for f in factors[1:]:
            dim, k = dim + f.dim, max(dim + f.kp, f.dim + k)
        if k != product_kp(ProductSpace(tuple(factors))):
            bad += 1
    _report(bad == 0, "criterion 8: product k equals pairwise fold",
            f"{bad} disagreements over 10^3 products")
