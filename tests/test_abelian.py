"""Unit and property tests for exact / partial abelian groups."""

import copy
import itertools
import pickle
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from symcart.abelian import (AbelianGroup, GroupSyntaxError,
                             PartialAbelianGroup, RankInterval, compatible,
                             direct_sum, direct_sum_all, field_ranks, format_group,
                             parse_group, p_rank, q_rank, CONTAINS, EQUAL,
                             FIELDS, INCOMPATIBLE, POSSIBLY_EQUAL, RANK)

exact_groups = st.builds(
    AbelianGroup.from_orders,
    st.integers(0, 3),
    st.lists(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 12, 24, 25]), max_size=4))

_NAMED = ("f", "r1", "r>=1", "?")

partial_groups = st.one_of(
    exact_groups.map(PartialAbelianGroup.exact),
    st.sampled_from(_NAMED).map(parse_group),
    st.builds(PartialAbelianGroup, st.sampled_from([CONTAINS, RANK]),
              exact_groups))


@given(partial_groups)
def test_hash_is_the_fields_hash_and_is_not_pickled(g):
    """A cell is the tuple of its two fields and hashes as that tuple; it
    holds no other state, so a pickled or copied cell is rebuilt from
    its fields, as a cell of the same class."""
    assert g._fields == ("tag", "group") and not hasattr(g, "__dict__")
    assert hash(g) == hash(g) == hash((g.tag, g.group))
    for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert type(clone) is PartialAbelianGroup
        assert clone == g and hash(clone) == hash(g)


def test_composite_orders_split_into_prime_powers():
    g = AbelianGroup.from_orders(1, [12])
    assert g == AbelianGroup(1, ((2, 2), (3, 1)))
    assert AbelianGroup.from_orders(1, [1, 12]) == g    # Z_1 is trivial


def test_normalization_is_idempotent():
    g = AbelianGroup.from_orders(2, [8, 9, 2])
    assert AbelianGroup(g.free_rank, g.torsion) == g


def test_invalid_groups_rejected():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, ((6, 1),))          # composite entry
    with pytest.raises(ValueError):
        AbelianGroup(0, ((3, 1), (2, 1)))   # unsorted


def test_contains_subgroup_criterion():
    z4 = AbelianGroup.from_orders(0, [4])
    z2 = AbelianGroup.from_orders(0, [2])
    z2z2 = AbelianGroup.from_orders(0, [2, 2])
    assert z4.contains_subgroup(z2)
    assert not z4.contains_subgroup(z2z2)
    assert not z2.contains_subgroup(AbelianGroup(1))
    assert AbelianGroup(2).contains_subgroup(AbelianGroup(1))


@pytest.mark.parametrize("text", [
    "0", "Z", "Z^2", "Z_2", "Z + Z_2^3", "Z_4 + Z_3", "Z^2 + Z_8 + Z_9",
    "f", "r1", "r>=1", "Z_2 in", "Z + Z_2 in", "?",
    "Z_2 in r0", "Z + Z_2 in r1", "Z^2 + Z_3 in r2",
])
def test_parse_format_round_trip(text):
    assert format_group(parse_group(text)) == text


def test_parse_normalizes_composite_orders():
    assert format_group(parse_group("Z_12")) == "Z_4 + Z_3"
    assert format_group(parse_group("Z + Z_24")) == "Z + Z_8 + Z_3"
    assert parse_group("Z + 0") == parse_group("Z")


@pytest.mark.parametrize("text", [
    "Z_", "Z +", "Z_1", "Z^0", "in", "Z_x", "in r0", "Z in r2", "Z in r",
    "Z in r\u00b2",
    # str.isdigit passes these; int reads the first as Z_12, fails on the rest
    "Z_\u0661\u0662", "Z_\u00b2", "Z^\u00b2", "Z + Z_2^\u0663",
])
def test_parse_errors_are_positioned(text):
    with pytest.raises(GroupSyntaxError) as exc:
        parse_group(text)
    assert exc.value.pos >= 0


def test_rank_intervals():
    assert q_rank(parse_group("Z^2 + Z_2")) == RankInterval(2, 2)
    assert q_rank(parse_group("f")) == RankInterval(0, 0)
    assert q_rank(parse_group("r1")) == RankInterval(1, 1)
    assert q_rank(parse_group("r>=1")) == RankInterval(1, None)
    assert q_rank(parse_group("?")) == RankInterval(0, None)
    assert p_rank(parse_group("Z + Z_4 + Z_3"), 2) == RankInterval(2, 2)
    assert p_rank(parse_group("Z_2 in"), 2) == RankInterval(1, None)
    assert p_rank(parse_group("f"), 2) == RankInterval(0, None)
    assert q_rank(parse_group("Z + Z_2 in r1")) == RankInterval(1, 1)
    assert p_rank(parse_group("Z + Z_2 in r1"), 2) == RankInterval(2, None)


@given(exact_groups, exact_groups)
def test_rank_additivity(g, h):
    s = g.direct_sum(h)
    assert s.free_rank == g.free_rank + h.free_rank
    for p in (2, 3, 5, 7) + tuple(s.primes()):
        assert s.p_count(p) == g.p_count(p) + h.p_count(p)


@given(exact_groups, exact_groups, exact_groups)
def test_direct_sum_associative_commutative(g, h, k):
    assert g.direct_sum(h) == h.direct_sum(g)
    assert g.direct_sum(h).direct_sum(k) == g.direct_sum(h.direct_sum(k))


@settings(max_examples=500)
@given(st.lists(partial_groups, max_size=8))
@example([parse_group(g) for g in ("f", "Z_2", "r1")])
@example([parse_group(g) for g in ("r1", "Z + Z_2", "f")])
def test_direct_sum_all_is_the_left_fold_of_direct_sum(cells):
    """f + Z_2 + r1 is "Z + Z_2 in r1", the free rank exactly 1 and the
    Z_2 kept; r1 + (Z + Z_2) + f is "Z^2 + Z_2 in r2"."""
    assert direct_sum_all(cells) == \
        reduce(direct_sum, cells, PartialAbelianGroup.trivial())


@given(st.lists(partial_groups, max_size=4))
@example([parse_group(g) for g in ("f", "Z_2", "r1")])
@example([parse_group(g) for g in ("Z_2", "?", "r1", "Z")])
def test_direct_sum_all_does_not_depend_on_the_order(cells):
    sums = {direct_sum_all(order) for order in itertools.permutations(cells)}
    assert len(sums) == 1, sums


@given(partial_groups, partial_groups)
def test_compatible_is_symmetric(a, b):
    assert compatible(a, b)[0] == compatible(b, a)[0]


def _small_exact_groups(max_order=64, max_rank=3):
    """All exact groups with torsion order <= max_order, free rank <= max_rank."""
    powers = [p ** e for p in (2, 3, 5, 7)
              for e in range(1, 7) if p ** e <= max_order]
    torsions = {()}
    frontier = [((), 1)]
    while frontier:
        tors, order = frontier.pop()
        for q in powers:
            if order * q <= max_order and (not tors or q >= tors[-1]):
                new = tors + (q,)
                if new not in torsions:
                    torsions.add(new)
                    frontier.append((new, order * q))
    for rank in range(max_rank + 1):
        for tors in torsions:
            yield AbelianGroup.from_orders(rank, tors)


def test_incompatible_is_sound():
    """Incompatible cells admit no common exact refinement (brute force)."""
    pool = list(_small_exact_groups())
    cells = [parse_group(t) for t in
             ("0", "Z", "Z_2", "Z + Z_2", "Z^2", "Z_4 + Z_3", "f", "r1",
              "r>=1", "?", "Z_2 in", "Z_2^2 in", "Z in")]
    for a, b in itertools.combinations(cells, 2):
        verdict, _ = compatible(a, b)
        if verdict == INCOMPATIBLE:
            assert not any(a.refined_by(g) and b.refined_by(g) for g in pool), \
                (a, b)


# free rank 0-3, at most two cyclic factors from Z_2, Z_4, Z_3, Z_9, Z_5, Z_7
_REFINEMENTS = [AbelianGroup.from_orders(rank, orders)
                for rank in range(4) for n in range(3)
                for orders in itertools.combinations_with_replacement(
                    (2, 4, 3, 9, 5, 7), n)]


@given(partial_groups)
@example(parse_group("f"))
@example(parse_group("r1"))
@example(parse_group("r>=1"))
@example(parse_group("?"))
@example(parse_group("Z + Z_2 in r1"))
def test_the_kinds_table_agrees_with_refined_by(cell):
    """The named kinds of cell (``abelian._NAMED``) and every drawn cell:
    a cell's floor and rank intervals hold for every exact refinement,
    which the independent ``refined_by`` decides; and off EXACT, a group
    refines a cell exactly when it contains the cell's floor and its free
    rank is within the top of ``q_rank``."""
    low, top = cell.group, q_rank(cell).hi
    for g in _REFINEMENTS:
        refines = cell.refined_by(g)
        if refines:
            assert g.contains_subgroup(low), (cell, g)
            ranks = [g.free_rank] + [g.p_count(p) for p in FIELDS[1:]]
            for rank, (f, i) in zip(ranks, field_ranks(cell)):
                assert i.lo <= rank and (i.hi is None or rank <= i.hi), \
                    (cell, g, f)
        if not cell.is_exact:
            assert refines == (g.contains_subgroup(low) and (
                top is None or g.free_rank <= top)), (cell, g)


def test_compatible_verdicts_and_witness():
    assert compatible(parse_group("Z_2"), parse_group("Z_2"))[0] == EQUAL
    assert compatible(parse_group("f"), parse_group("0"))[0] == POSSIBLY_EQUAL
    verdict, witness = compatible(parse_group("Z_2"), parse_group("0"))
    assert verdict == INCOMPATIBLE and witness[0] == 2
    verdict, witness = compatible(parse_group("Z"), parse_group("f"))
    assert verdict == INCOMPATIBLE and witness[0] == "Q"
    # only the primes of FIELDS are compared; the tables admit no other
    assert compatible(parse_group("Z_11"),
                      parse_group("0"))[0] == POSSIBLY_EQUAL


def test_widening_cases():
    """No sum widens: a sum adds the floors, and it is exact if both
    cells are, "contains" if either is, and of known free rank otherwise."""
    r1, f, unknown = parse_group("r1"), parse_group("f"), parse_group("?")
    assert direct_sum(r1, r1) == parse_group("Z^2 in r2")
    assert direct_sum(r1, f) == r1
    assert direct_sum(f, f) == f
    assert direct_sum(f, parse_group("Z_2")) == parse_group("Z_2 in r0")
    assert direct_sum(unknown, parse_group("Z_2")) == parse_group("Z_2 in")
    assert direct_sum(unknown, f) == unknown
    assert direct_sum(unknown, r1) == parse_group("r>=1")
    assert direct_sum(parse_group("r>=1"), f) == parse_group("r>=1")
    assert direct_sum(parse_group("Z_2"), parse_group("Z")) == \
        parse_group("Z + Z_2")


@given(partial_groups, exact_groups)
def test_widening_preserves_exact_trivial_identity(a, g):
    triv = PartialAbelianGroup.trivial()
    assert direct_sum(a, triv) == a
    assert direct_sum(triv, a) == a


@given(partial_groups, partial_groups)
def test_widened_sum_admits_all_pointwise_sums(a, b):
    """Soundness of the sum on a small refinement sample."""
    pool = [AbelianGroup(), AbelianGroup(1), AbelianGroup(2),
            AbelianGroup.from_orders(0, [2]), AbelianGroup.from_orders(1, [2]),
            AbelianGroup.from_orders(0, [4, 3])]
    s = direct_sum(a, b)
    for ga in pool:
        if not a.refined_by(ga):
            continue
        for gb in pool:
            if b.refined_by(gb):
                assert s.refined_by(ga.direct_sum(gb)), (a, b, ga, gb)


@given(partial_groups, partial_groups)
def test_sum_ranks_contain_the_summed_ranks(a, b):
    """Over every field, the rank interval of a direct sum is the sum of
    its summands' intervals, so ``distinguish`` and ``decompose``, which
    decides a core by its summed intervals, apply one rule."""
    for (f, got), (_, ia), (_, ib) in zip(field_ranks(direct_sum(a, b)),
                                          field_ranks(a), field_ranks(b)):
        assert got == ia + ib, (a, b, f)
