"""Each value class's constructor checks its fields and normalises them.

The messages are pinned exactly: a value class may change how it is
built, but not what it rejects or what it says when it does.
"""

import math
import re

import pytest

from symcart.abelian import (CONTAINS, EXACT, RANK, AbelianGroup,
                             PartialAbelianGroup, RankInterval)
from symcart.catalog import ProductSpace, instantiate
from symcart.geom import HypothesisSet
from symcart.rootsys import Multiplicities, RootSystemType


@pytest.mark.parametrize("build,message", [
    (lambda: AbelianGroup(-1), "free rank must be nonnegative"),
    (lambda: AbelianGroup(0, ((6, 1),)), "torsion entries must be prime powers"),
    (lambda: AbelianGroup(0, ((2, 0),)), "torsion entries must be prime powers"),
    (lambda: AbelianGroup(0, ((3, 1), (2, 1))),
     "torsion must be canonically sorted"),
    (lambda: PartialAbelianGroup(EXACT), "missing group payload"),
    (lambda: PartialAbelianGroup(CONTAINS), "missing group payload"),
    (lambda: PartialAbelianGroup(RANK), "missing group payload"),
    (lambda: PartialAbelianGroup("finite"), "unknown variant tag 'finite'"),
    (lambda: RankInterval(-1, None), "need 0 <= lo <= hi"),
    (lambda: RankInterval(2, 1), "need 0 <= lo <= hi"),
    (lambda: RootSystemType("Q", 3), "unknown root system symbol 'Q'"),
    (lambda: RootSystemType("D", 3), "D requires rank >= 4, got 3"),
    (lambda: RootSystemType("A"), "A requires rank >= 1, got 0"),
    (lambda: RootSystemType("E8", 7), "E8 has rank 8"),
    (lambda: Multiplicities(m_l=-1), "multiplicities must be nonnegative"),
    (lambda: ProductSpace(()), "a product needs at least one factor"),
    (lambda: HypothesisSet(0.0, 0.0, 1), "delta must be positive and finite"),
    (lambda: HypothesisSet(math.inf, 0.0, 1),
     "delta must be positive and finite"),
    (lambda: HypothesisSet(1.0, -0.1, 1),
     "focal radius floor must lie in [0, pi/2)"),
    (lambda: HypothesisSet(1.0, math.pi / 2, 1),
     "focal radius floor must lie in [0, pi/2)"),
    (lambda: HypothesisSet(1.0, 0.0, 0), "codim >= 1 for a proper submanifold"),
])
def test_constructor_rejects_with_its_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_an_exceptional_type_fills_in_its_rank():
    assert RootSystemType("E8").rank == 8
    assert RootSystemType("E8") == RootSystemType("E8", 8)
    assert RootSystemType("G2").rank == 2


def test_a_product_sorts_its_factors():
    a, b, c = (instantiate("S", (5,)), instantiate("AIII", (2, 5)),
               instantiate("E8"))
    assert ProductSpace((c, a, b)).factors == (b, c, a)
    assert ProductSpace((c, a, b)) == ProductSpace((a, b, c))


@pytest.mark.parametrize("build,message", [
    (lambda: AbelianGroup(1)._replace(free_rank=-1),
     "free rank must be nonnegative"),
    (lambda: AbelianGroup._make((0, ((6, 1),))),
     "torsion entries must be prime powers"),
    (lambda: PartialAbelianGroup(RANK, AbelianGroup())._replace(group=None),
     "missing group payload"),
    pytest.param(lambda: PartialAbelianGroup._make(("finite", AbelianGroup(1))),
                 "unknown variant tag 'finite'", id="former-finite-tag"),
    (lambda: PartialAbelianGroup(RANK, AbelianGroup())._replace(tag="bogus"),
     "unknown variant tag 'bogus'"),
    (lambda: PartialAbelianGroup._make(("bogus", None)),
     "unknown variant tag 'bogus'"),
    (lambda: RankInterval(1, 2)._replace(hi=0), "need 0 <= lo <= hi"),
    (lambda: RankInterval._make((-1, None)), "need 0 <= lo <= hi"),
    (lambda: RootSystemType._make(("Q", 3)), "unknown root system symbol 'Q'"),
    (lambda: RootSystemType("A", 3)._replace(symbol="D"),
     "D requires rank >= 4, got 3"),
    (lambda: Multiplicities(1, 1)._replace(m_s=-5),
     "multiplicities must be nonnegative"),
    (lambda: ProductSpace._make(((),)), "a product needs at least one factor"),
    (lambda: ProductSpace((instantiate("E8"),))._replace(factors=()),
     "a product needs at least one factor"),
    (lambda: HypothesisSet(1.0, 0.0, 1)._replace(codim=0),
     "codim >= 1 for a proper submanifold"),
    (lambda: HypothesisSet._make((0.0, 0.0, 1)),
     "delta must be positive and finite"),
])
def test_make_and_replace_reject_with_the_constructors_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_make_and_replace_build_what_the_constructor_builds():
    assert RootSystemType._make(("E8", 0)).rank == 8
    assert RootSystemType._make(("E8", 0)) == RootSystemType("E8")
    a, b = instantiate("S", (5,)), instantiate("AIII", (2, 5))
    made = ProductSpace._make(((a, b),))
    assert type(made) is ProductSpace and made.factors == (b, a)
    assert ProductSpace((a,))._replace(factors=(a, b)) == ProductSpace((b, a))
    assert RankInterval(1, 2)._replace(hi=None) == RankInterval(1, None)
    assert Multiplicities(1, 1)._replace(m_xl=2) == Multiplicities(1, 1, 2)
    with pytest.raises(TypeError, match="^Expected 2 arguments, got 1$"):
        RankInterval._make((1,))
    with pytest.raises(ValueError, match="unexpected field names"):
        RankInterval(1, 2)._replace(mid=1)
