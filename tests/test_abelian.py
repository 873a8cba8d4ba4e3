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
                             FIELDS, FINITE, INCOMPATIBLE, POSSIBLY_EQUAL,
                             RANK_AT_LEAST_ONE, RANK_ONE, UNKNOWN)

exact_groups = st.builds(
    AbelianGroup.from_orders,
    st.integers(0, 3),
    st.lists(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 12, 24, 25]), max_size=4))

partial_groups = st.one_of(
    exact_groups.map(PartialAbelianGroup.exact),
    st.sampled_from([PartialAbelianGroup(FINITE),
                     PartialAbelianGroup(RANK_ONE),
                     PartialAbelianGroup(RANK_AT_LEAST_ONE),
                     PartialAbelianGroup(UNKNOWN)]),
    exact_groups.filter(lambda g: not g.is_trivial)
    .map(lambda g: PartialAbelianGroup(CONTAINS, g)))


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
])
def test_parse_format_round_trip(text):
    assert format_group(parse_group(text)) == text


def test_parse_normalizes_composite_orders():
    assert format_group(parse_group("Z_12")) == "Z_4 + Z_3"
    assert format_group(parse_group("Z + Z_24")) == "Z + Z_8 + Z_3"


@pytest.mark.parametrize("text", [
    "Z_", "Z +", "Z_1", "Z^0", "in", "Z_x",
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
    """The fold is order-sensitive where a partial sum widens: f + Z_2
    is f, so f + Z_2 + r1 is r1, while Z_2 + r1 + f is "Z + Z_2 in"; and
    r1 + (Z + Z_2), of rank exactly 2, widens to "Z^2 + Z_2 in"."""
    assert direct_sum_all(cells) == \
        reduce(direct_sum, cells, PartialAbelianGroup.trivial())


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
@example(PartialAbelianGroup(FINITE))
@example(PartialAbelianGroup(RANK_ONE))
@example(PartialAbelianGroup(RANK_AT_LEAST_ONE))
@example(PartialAbelianGroup(UNKNOWN))
def test_the_kinds_table_agrees_with_refined_by(cell):
    """The lower bound and rank intervals read from ``_KINDS`` hold for
    every exact refinement, which the independent ``refined_by`` decides;
    and off EXACT, a group refines a cell exactly when it contains the
    cell's lower bound and its free rank is within the top of ``q_rank``."""
    low, top = cell.lower_bound(), q_rank(cell).hi
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
    r1 = parse_group("r1")
    f = parse_group("f")
    assert direct_sum(r1, r1) == parse_group("Z^2 in")
    assert direct_sum(r1, f).tag == RANK_ONE
    assert direct_sum(f, f).tag == FINITE
    assert direct_sum(parse_group("?"), parse_group("Z_2")) == parse_group("Z_2 in")
    assert direct_sum(parse_group("?"), parse_group("f")).tag == UNKNOWN
    assert direct_sum(parse_group("r>=1"), f).tag == RANK_AT_LEAST_ONE


@given(partial_groups, exact_groups)
def test_widening_preserves_exact_trivial_identity(a, g):
    triv = PartialAbelianGroup.trivial()
    assert direct_sum(a, triv) == a
    assert direct_sum(triv, a) == a


@given(partial_groups, partial_groups)
def test_widened_sum_admits_all_pointwise_sums(a, b):
    """Soundness of widening on a small refinement sample."""
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
    """Over every field, the rank interval of a direct sum contains the
    sum of its summands' intervals: widening only loosens an interval.
    ``decompose`` decides a core by its summed intervals on this alone."""
    for (f, got), (_, ia), (_, ib) in zip(field_ranks(direct_sum(a, b)),
                                          field_ranks(a), field_ranks(b)):
        summed = ia + ib
        assert got.lo <= summed.lo, (a, b, f)
        assert got.hi is None or (summed.hi is not None
                                  and summed.hi <= got.hi), (a, b, f)
