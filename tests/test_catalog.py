"""Catalog instances, reference-table agreement and product spaces."""

import copy
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import symcart
from symcart.catalog import (EXCEPTIONAL_SYMBOLS, FAMILIES, GRASSMANNIANS,
                             ConstraintError, ProductSpace, ReducibleError,
                             SPECIAL_ISOMORPHISMS, SpaceInstance, build_space,
                             classical_presentations,
                             enumerate_catalog, instantiate, product_kp,
                             reference_classical, reference_exceptional,
                             _NOT_CANONICAL, _build_catalog, _build_run)
from symcart.regions import regions
from symcart.rootsys import (Multiplicities, RootSystemType, kp_by_deletion,
                             kp_enumerated)

from oracles import classical_datum, sharp


@pytest.mark.parametrize("symbol,params", [("S", (12,)), ("AIII", (2, 5)),
                                           ("BDI", (3, 12)), ("E8", ())])
def test_hash_is_the_fields_hash_and_is_not_pickled(symbol, params):
    """A space's hash is the hash of the tuple of its fields; a pickled or
    copied space is a space of the same class, equals it and hashes the
    same."""
    s = instantiate(symbol, params)
    fields = tuple(getattr(s, name) for name in s._fields)
    assert hash(s) == hash(s) == hash(fields)
    for clone in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert type(clone) is SpaceInstance
        assert clone == s and hash(clone) == hash(s)


def test_a_space_is_its_five_fields():
    s = instantiate("E8")
    assert list(s._fields) == ["symbol", "params", "dim", "rank", "kp"]
    assert tuple(s) == tuple(getattr(s, name) for name in s._fields)
    assert not hasattr(s, "__dict__")


def test_classical_reference_rows_match_computation():
    count = 0
    for symbol, params in classical_presentations(30):
        ref = reference_classical(symbol, params)
        assert ref is not None, (symbol, params)
        s = instantiate(symbol, params)
        assert (s.dp, s.kp, s.cp) == ref, (symbol, params)
        count += 1
    assert count > 1000


def test_exceptional_reference_rows_match_computation():
    assert len(EXCEPTIONAL_SYMBOLS) == 17
    for symbol in EXCEPTIONAL_SYMBOLS:
        s = instantiate(symbol)
        assert (s.dp, s.kp) == reference_exceptional(symbol), symbol


def test_specific_exceptional_values():
    assert reference_exceptional("E8") == (114, 134)
    assert instantiate("EIII").kp == 11
    assert instantiate("EVII").kp == 27
    assert instantiate("EVIII").dp == 57
    assert instantiate("EVIII").kp == 71


def test_spot_values():
    s = instantiate("AII", (5,))
    assert (s.dim, s.kp, s.dp, s.cp) == (44, 28, 16, Fraction(4))
    assert instantiate("DIII", (5,)).cp == Fraction(5, 2)
    assert instantiate("S", (12,)).kp == 1
    assert instantiate("AI", (4,)).cp == Fraction(-5, 2)


def test_invalid_table_rows_kept_but_flagged():
    # the published table lists these with negative codimension budget
    assert instantiate("AIII", (2, 2)).cp == Fraction(-2)
    assert not instantiate("AIII", (2, 2)).valid
    assert instantiate("BDI", (3, 3)).cp == Fraction(-5, 2)


def test_derived_quantity_invariants():
    for s in enumerate_catalog(120):
        assert 1 <= s.kp < s.dim
        assert s.dp == s.dim - s.kp >= 1
        assert s.cp == Fraction(s.dp, 2) - 4
        assert s.valid == (s.dp >= 10) == (s.cp >= 1)
        if s.rank == 1:
            assert s.kp == 1


def test_special_isomorphisms_rewrite_to_canonical_form():
    for (symbol, params), (target, tparams) in SPECIAL_ISOMORPHISMS.items():
        assert instantiate(symbol, params) == instantiate(target, tparams)
    assert instantiate("Sp", (1,)).label() == "S(3)"
    assert instantiate("BDI", (1, 9)).label() == "S(9)"
    assert instantiate("DIII", (4,)).label() == "BDI(2,6)"


def test_reducible_presentations_raise():
    with pytest.raises(ReducibleError) as exc:
        instantiate("Spin", (4,))
    assert exc.value.factors == (("S", (3,)), ("S", (3,)))
    with pytest.raises(ReducibleError):
        instantiate("BDI", (2, 2))


def test_constraint_errors():
    with pytest.raises(ConstraintError):
        instantiate("S", (1,))
    with pytest.raises(ConstraintError):
        instantiate("NoSuch", (3,))
    with pytest.raises(ConstraintError):
        instantiate("E6", (2,))


@pytest.mark.parametrize("build, symbol, params, error, text", [
    (instantiate, "Spin", (2,), ConstraintError,
     "Spin(2): requires n >= 5 (smaller spin groups are spheres/products)"),
    (instantiate, "DIII", (1,), ConstraintError,
     "DIII(1): requires n >= 5 (smaller cases are isomorphic to other "
     "spaces)"),
    (instantiate, "BDI", (3, 2), ConstraintError,
     "BDI(3,2): requires 2 <= p <= q (p = 1 is a sphere)"),
    (instantiate, "CII", (0, 4), ConstraintError,
     "CII(0,4): requires 1 <= p <= q"),
    (instantiate, "SU", (3, 4), ConstraintError, "SU(3,4): requires n >= 2"),
    (instantiate, "S", (2, 3), ConstraintError,
     "S(2,3): requires one parameter n >= 2"),
    (build_space, "S", (2, 3), ConstraintError,
     "S(2,3): requires one parameter n >= 2"),
    (instantiate, "S", (), ConstraintError,
     "S: requires one parameter n >= 2"),
    (build_space, "S", (), ConstraintError,
     "S: requires one parameter n >= 2"),
    (instantiate, "AIII", (3,), ConstraintError,
     "AIII(3): requires 1 <= p <= q"),
    (build_space, "AIII", (3,), ConstraintError,
     "AIII(3): requires 1 <= p <= q"),
    (instantiate, "SU", (2, 3), ConstraintError, "SU(2,3): requires n >= 2"),
    (build_space, "SU", (2, 3), ConstraintError, "SU(2,3): requires n >= 2"),
    (instantiate, "E6", (1,), ConstraintError, "E6: requires no parameters"),
    (build_space, "E6", (1,), ConstraintError, "E6: requires no parameters"),
    (instantiate, "XYZ", (), ConstraintError, "unknown class symbol 'XYZ'"),
    (build_space, "XYZ", (), ConstraintError, "unknown class symbol 'XYZ'"),
    (instantiate, "Spin", (4,), ReducibleError,
     "Spin(4) is reducible; use the product (('S', (3,)), ('S', (3,)))"),
    (build_space, "Spin", (4,), ConstraintError,
     "Spin(4): requires n >= 5 (smaller spin groups are spheres/products)"),
    (instantiate, "BDI", (1, 0), ConstraintError,
     "S(0): requires n >= 2 (the circle is not simply connected)"),
    (build_space, "BDI", (1, 0), ConstraintError,
     "BDI(1,0): requires 2 <= p <= q (p = 1 is a sphere)"),
])
def test_error_texts_of_both_builders(build, symbol, params, error, text):
    """``instantiate`` rewrites a presentation before it checks it;
    ``build_space`` checks it as given.  Each error names the presentation
    it checked and the condition it broke, in these exact words."""
    with pytest.raises(ConstraintError) as exc:
        build(symbol, params)
    assert type(exc.value) is error
    assert str(exc.value) == text


@pytest.mark.parametrize("symbol", FAMILIES)
def test_every_family_admits_and_requires(symbol):
    """Its smallest tuple is admitted, a tuple one too long is not, and ()
    only by a family with no parameters; ``requires`` states the rule."""
    family = FAMILIES[symbol]
    assert family.admits(family.smallest)
    assert not family.admits((*family.smallest, 9))
    assert family.admits(()) == (not family.smallest)
    stated = ["no parameters", "n >= {}", "{} <= p <= q"][
        len(family.smallest)].format(*family.smallest[:1])
    assert family.requires() in (stated, f"{stated} ({family.note})")


def test_enumerate_catalog_is_canonical_and_deduplicated():
    spaces = enumerate_catalog(150)
    labels = [s.label() for s in spaces]
    assert len(set(labels)) == len(labels)
    for s in spaces:
        assert s.dim <= 150
        assert instantiate(s.symbol, s.params) == s
    assert sum(s.symbol == "S" for s in spaces) == 149       # S^2..S^150
    with pytest.raises(ValueError, match="max_dim >= 1 required"):
        enumerate_catalog(0)


def test_enumerate_catalog_slices_one_catalog():
    """A smaller max_dim after a larger one is the larger catalog's slice,
    equal to a catalog built for it alone, and a fresh list each time."""
    big = enumerate_catalog(300)
    small = enumerate_catalog(120)
    assert small == [s for s in big if s.dim <= 120]
    assert small == _build_catalog(120)
    small.clear()
    assert enumerate_catalog(120) == [s for s in big if s.dim <= 120]


def _recursive_sweep(family, max_dim, prefix=()):
    """Every admitted parameter tuple from prefix on with dim <= max_dim,
    by recursion over the parameters; a family without parameters yields
    () whatever its dim."""
    rest = len(family.smallest) - len(prefix)
    if not rest:
        yield prefix
        return
    i = len(prefix)
    v = max(family.smallest[i], prefix[-1]) if prefix else family.smallest[0]
    while family.dim(*prefix, *[v] * rest) <= max_dim:
        yield from _recursive_sweep(family, max_dim, prefix + (v,))
        v += 1


def _catalog_by_instantiate(max_dim):
    """The catalog one presentation at a time: every swept presentation
    through instantiate(), kept where it comes back unchanged."""
    out = []
    for symbol, family in FAMILIES.items():
        for params in _recursive_sweep(family, max_dim):
            try:
                s = instantiate(symbol, params)
            except ReducibleError:
                continue
            if (s.symbol, s.params) == (symbol, params) and s.dim <= max_dim:
                out.append(s)
    return sorted(out, key=attrgetter("symbol", "params"))


@pytest.mark.parametrize("max_dim", [60, 300, 1500])
def test_bulk_build_lists_what_instantiate_keeps(max_dim):
    """The bulk build skips the rewritten presentations by lookup and
    builds the rest uncached; it misses no space and adds none."""
    assert _build_catalog(max_dim) == _catalog_by_instantiate(max_dim)


def test_kp_at_the_builds_scale_against_the_published_rows():
    """Every space of the dim-1500 catalog, past criterion 1's parameter
    30: a classical one has its published (d_P, k_P, C_P) wherever a row
    covers it, an exceptional one its published pair, and a sphere S^n
    has (n - 1, 1)."""
    spaces = enumerate_catalog(1500)
    rows = 0
    for s in spaces:
        if s.symbol == "S":
            assert (s.dp, s.kp) == (s.params[0] - 1, 1), s
        elif s.symbol in EXCEPTIONAL_SYMBOLS:
            assert (s.dp, s.kp) == reference_exceptional(s.symbol), s
        else:
            ref = reference_classical(s.symbol, s.params)
            if ref is not None:
                assert (s.dp, s.kp, s.cp) == ref, s
                rows += 1
    assert (len(spaces), rows) == (9605, 6966)


# every canonical classical presentation to dim 1500
_PRESENTATIONS = [(symbol, params) for symbol in FAMILIES
                  if FAMILIES[symbol].smallest and symbol != "S"
                  for params in FAMILIES[symbol].sweep(1500)
                  if (symbol, params) not in _NOT_CANONICAL]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_PRESENTATIONS))
def test_a_run_of_one_is_its_member_of_a_long_run(presentation):
    """``instantiate`` builds a run of one; the catalog built to its dim
    reads the same space from a long run, and both have the oracle
    datum's k, by deletion and, up to rank 10, by enumeration."""
    symbol, params = presentation
    s = instantiate(symbol, params)
    assert [t for t in _build_catalog(s.dim)
            if (t.symbol, t.params) == presentation] == [s]
    t, m = classical_datum(symbol, params)
    assert (s.rank, s.kp) == (t.rank, kp_by_deletion(t, m).value)
    if t.rank <= 10:
        assert s.kp == kp_enumerated(t, m).value


def test_each_grassmannian_stretch_moves_to_the_oracle_datum():
    """The builder reads Gr(F,p,p+q) at q > p from the datum stated at q
    = p + 1, moved along its slope; at every canonical (p, q) to dim
    1500 that gives the published datum, as does the statement at (p, q)
    itself."""
    checked = 0
    for symbol, _ in GRASSMANNIANS.values():
        family = FAMILIES[symbol]
        for p, q in family.sweep(1500):
            if (symbol, (p, q)) in _NOT_CANONICAL:
                continue
            start = q if q == p else p + 1
            root, m, slope = family.stretch(p, start)
            moved = tuple(a + b * (q - start) for a, b in zip(m, slope or (
                0, 0, 0)))
            assert (root, moved) == classical_datum(symbol, (p, q))
            assert family.stretch(p, q)[:2] == (root, moved)
            checked += 1
    assert checked == 7830


def test_a_datum_that_is_not_affine_raises(monkeypatch):
    """A family that claims a slope its datum does not keep, here m_s =
    (q - p)^2 for Gr(R,p,p+q), fails the restatement at a stretch's last
    member: the build raises rather than read a wrong k_P.  A run of one
    reads the datum at its own point."""
    bdi = FAMILIES["BDI"]

    def squared(p, q):
        root, m, slope = bdi.stretch(p, q)
        return (root, Multiplicities((q - p) ** 2, 1, 0), slope) if slope \
            else (root, m, slope)

    monkeypatch.setitem(FAMILIES, "BDI", bdi._replace(stretch=squared))
    with pytest.raises(ValueError, match=r"BDI\(4,5\): the root datum is "
                       "not affine in the last parameter up to 9"):
        _build_run("BDI", (4,), range(4, 10))
    with pytest.raises(ValueError, match="not affine"):
        _build_catalog(100)
    assert build_space("BDI", (4, 9)).kp == kp_by_deletion(
        RootSystemType("B", 4), Multiplicities(25, 1, 0)).value


@pytest.mark.parametrize("symbol, prefix, values", [
    ("BDI", (4,), range(4, 12)), ("AIII", (3,), range(3, 12)),
    ("CII", (2,), range(2, 9)), ("AIII", (2,), range(2, 9)),
    ("Spin", (), range(7, 20)), ("DIII", (), range(5, 18))])
def test_a_run_across_a_change_of_type_is_read_per_space(symbol, prefix,
                                                          values):
    """A run crossing q = p -> q > p, or Spin's and DIII's parity
    changes, gives each space the k_P of its own datum."""
    run = _build_run(symbol, prefix, values)
    assert [s.params for s in run] == [(*prefix, v) for v in values]
    for s in run:
        t, m = classical_datum(symbol, s.params)
        assert (s.dim, s.rank, s.kp) == (FAMILIES[symbol].dim(*s.params),
                                         t.rank, kp_by_deletion(t, m).value)


def test_one_sweep_lists_and_counts_what_recursion_finds():
    """Each family's runs, and each region's running family's, list the
    tuples that recursion over the parameters finds, and count as many,
    at fixed dims and at one that a member's dim equals."""
    families = [*FAMILIES.values(), *(r.running for r in regions())]
    for family in families:
        hit = family.dim(*(v + 3 for v in family.smallest))
        for max_dim in (1, 10, 11, 60, 300, 1500, hit):
            swept = family.sweep(max_dim)
            # the recursion yields () whatever a parameterless dim is
            assert swept == [p for p in _recursive_sweep(family, max_dim)
                             if family.dim(*p) <= max_dim], (family, max_dim)
            assert family.count(max_dim) == len(swept), (family, max_dim)
        assert hit in {family.dim(*p) for p in family.sweep(hit)}


_WORK_COUNT = """
import json
from itertools import groupby
from symcart import catalog, rootsys
from symcart.rootsys import RootSystemType
from oracles import classical_datum

counted = rootsys.deletion_counts
calls = []

def recording(t, j):
    calls.append((t, j))
    return counted(t, j)

results = []

class CountedKpResult(rootsys.KpResult):
    def __new__(cls, *fields):
        results.append(fields)
        return super().__new__(cls, *fields)

statements = []

def stating(symbol, stretch):
    def statement(*params):
        statements.append((symbol, params))
        return stretch(*params)
    return statement

rootsys.deletion_counts = recording
rootsys.KpResult = CountedKpResult
for symbol, family in catalog.FAMILIES.items():
    catalog.FAMILIES[symbol] = family._replace(
        stretch=stating(symbol, family.stretch))
interned = {f.__name__: f.cache_info() for f in (rootsys.root_type,
                                                  rootsys.mults)}
spaces = catalog.enumerate_catalog(1500)
caches = {f.__name__: f.cache_info()._asdict() for f in
          (catalog.instantiate, rootsys._node_counts, rootsys.root_type,
           rootsys.mults)}

def root(s):
    if s.symbol == "S":
        return RootSystemType("A", 1)
    if s.symbol in catalog.EXCEPTIONAL_SYMBOLS:
        return catalog._EXCEPTIONAL[s.symbol][1]
    return classical_datum(s.symbol, s.params)[0]

# a stretch: consecutive spaces of one family and prefix, of one type
stretches = [len(list(group)) for _, group in groupby(
    spaces, lambda s: (s.symbol, s.params[:-1], root(s)))]
types = {root(s) for s in spaces}
print(json.dumps({
    "spaces": len(spaces), "caches": caches, "kp_results": len(results),
    "statements": len(statements), "stretches": len(stretches),
    "long_stretches": sum(n > 1 for n in stretches),
    "interned": {name: caches[name]["hits"] + caches[name]["misses"]
                 - info.hits - info.misses for name, info in interned.items()},
    "calls": len(calls), "deletion_keys": len(set(calls)),
    "candidate_nodes": sum(
        4 if t.symbol in rootsys.CLASSICAL_SYMBOLS and t.rank > 4
        else t.rank for t in types),
    "types": len(types)}))
"""


def test_catalog_build_work_counts_in_a_fresh_interpreter():
    """The catalog and the caches are per process, so this counts one
    build from a cold start.  It fills no instantiate() cache and builds
    no KpResult.  Its stretches -- runs of consecutive spaces of one
    family, prefix and root type, counted from the spaces with the
    oracle's data -- each state their datum once, and once more at their
    last member if they hold several spaces, intern their root data with
    that statement and read one node table: one table is built per root
    type, whose rows count each candidate node of the type once (1, r-2,
    r-1, r for a classical type of rank above 4, else every node)."""
    tests = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(symcart.__file__).parents[1]), str(tests)]))
    out = json.loads(subprocess.run(
        [sys.executable, "-c", _WORK_COUNT], env=env, capture_output=True,
        text=True, check=True).stdout)
    caches = out["caches"]
    assert caches["instantiate"]["currsize"] == 0
    assert out["kp_results"] == 0
    assert (out["spaces"], out["stretches"], out["long_stretches"]) == (
        9605, 436, 81)
    assert out["statements"] == out["stretches"] + out["long_stretches"]
    tables = caches["_node_counts"]
    assert tables["misses"] == out["types"]
    assert tables["hits"] + tables["misses"] == out["stretches"]
    # the exceptional data are interned on import, not by the build
    stated = out["statements"] - len(EXCEPTIONAL_SYMBOLS)
    assert out["interned"] == {"root_type": stated, "mults": stated}
    assert out["calls"] == out["deletion_keys"] == out["candidate_nodes"]


def test_valid_is_codimension_budget_at_least_one():
    spaces = enumerate_catalog(300)
    assert {s.valid for s in spaces} == {True, False}
    for s in spaces:
        assert s.valid == (s.cp >= 1), s


def test_sharp_formula():
    s = instantiate("AI", (11,))
    for codim in range(0, 6):
        assert sharp(s, codim) == 2 + s.dp - 2 * codim
    with pytest.raises(ValueError):
        sharp(s, -1)


def test_product_space_is_order_insensitive():
    a, b = instantiate("S", (2,)), instantiate("AI", (5,))
    assert ProductSpace((a, b)) == ProductSpace((b, a))
    assert ProductSpace((a, b)).dim == a.dim + b.dim
    with pytest.raises(ValueError):
        ProductSpace(())


def test_product_kp_examples():
    s2 = instantiate("S", (2,))
    s10 = instantiate("S", (10,))
    assert product_kp(ProductSpace((s2, s2))) == 3
    assert product_kp(ProductSpace((s10, s10, s10))) == 21


def test_product_kp_equals_pairwise_fold():
    rng = random.Random(7)
    pool = [s for s in enumerate_catalog(40)]
    for _ in range(1000):
        factors = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
        q = ProductSpace(tuple(factors))
        dim, k = factors[0].dim, factors[0].kp
        for f in factors[1:]:
            dim, k = dim + f.dim, max(dim + f.kp, f.dim + k)
        assert (dim, k) == (q.dim, product_kp(q))
