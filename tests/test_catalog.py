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

import symcart
from symcart.catalog import (EXCEPTIONAL_SYMBOLS, FAMILIES, ConstraintError,
                             ProductSpace, ReducibleError,
                             SPECIAL_ISOMORPHISMS, SpaceInstance,
                             classical_presentations,
                             enumerate_catalog, instantiate, product_kp,
                             reference_classical, reference_exceptional,
                             sharp, _build_catalog)
from symcart.regions import regions


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
    for symbol, params, text in (
            ("Spin", (2,), "Spin(2): requires n >= 5 (smaller spin groups "
                           "are spheres/products)"),
            ("DIII", (1,), "DIII(1): requires n >= 5 (smaller cases are "
                           "isomorphic to other spaces)"),
            ("BDI", (3, 2), "BDI(3,2): requires 2 <= p <= q (p = 1 is a "
                            "sphere)"),
            ("CII", (0, 4), "CII(0,4): requires 1 <= p <= q"),
            ("SU", (3, 4), "SU(3,4): requires n >= 2"),
            ("AIII", (3,), "AIII(3): requires 1 <= p <= q"),
            ("S", (2, 3), "S(2,3): requires one parameter n >= 2"),
            ("S", (), "S: requires one parameter n >= 2")):
        with pytest.raises(ConstraintError) as exc:
            instantiate(symbol, params)
        assert str(exc.value) == text


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
from symcart import catalog, rootsys

counted = rootsys.deletion_counts
keys = set()

def recording(t, j):
    keys.add((t, j))
    return counted(t, j)

rootsys.deletion_counts = recording
spaces = catalog.enumerate_catalog(1500)
caches = {f.__name__: f.cache_info()._asdict() for f in
          (catalog.instantiate, counted, rootsys.root_type, rootsys.mults)}
data = [catalog._root_datum(s.symbol, s.params)[1:]
        if s.symbol in catalog._CLASSICAL else catalog._EXCEPTIONAL[s.symbol][1:3]
        for s in spaces if s.symbol != "S"]
print(json.dumps({"spaces": len(spaces), "caches": caches,
                  "deletion_keys": len(keys),
                  "types": len({t for t, m in data}),
                  "mults": len({m for t, m in data})}))
"""


def test_catalog_build_work_counts_in_a_fresh_interpreter():
    """The catalog and the caches are per process, so this counts one
    build from a cold start: it fills no instantiate() cache, counts each
    (type, node) once and builds each distinct root datum once."""
    env = dict(os.environ, PYTHONPATH=str(Path(symcart.__file__).parents[1]))
    out = json.loads(subprocess.run(
        [sys.executable, "-c", _WORK_COUNT], env=env, capture_output=True,
        text=True, check=True).stdout)
    caches = out["caches"]
    assert caches["instantiate"]["currsize"] == 0
    deletion = caches["deletion_counts"]
    assert deletion["misses"] == out["deletion_keys"] < deletion["hits"]
    assert caches["root_type"]["misses"] == out["types"]
    assert caches["mults"]["misses"] == out["mults"]
    assert out["types"] + out["mults"] < out["spaces"]


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
