"""Parameter regions of the catalog on which homotopy rows are constant.

Every loaded guard is an "and" of links c + d*x >= 0, each linear in
one parameter x and the degree k <= MAX_DEGREE (``homotopy.Guard``),
so a family's row stops changing once its parameters pass a start that
the tables determine.  A family's canonical spaces therefore split into
finitely many regions: each parameter is either fixed below the
family's start or runs from the start on.  A region's least member is a
canonical tuple (not in ``catalog._NOT_CANONICAL``) of the family's box,
its nondecreasing parameter tuples up to the start.  On a region the
row, validity, canonical form and blind side of recognition are
constant, so ``recognize.corollary1_scan`` and
``homotopy.consistency_violations`` read one row per region, that of
its least member, built by ``homotopy.row``; a region holds no row.  A
region's running parameters form a family of their own
(``catalog._Family``, its dim the family's with the fixed parameters
bound), so the catalog's one sweep counts the region's members, building
no tuple, and lists them; members are instantiated only where listed.

Each family's start comes from the sources its own rows and blind side
read (``_tails``): its guards' starts, found as each guard is loaded,
the fixed parameters of record patterns and of the non-canonical
presentations, and three rules that settle past MAX_DEGREE -- the
sphere rule for S, the CP^n rule and the CP^n blind side for AIII, the
Gr(R,2,q) blind side for BDI.  A start is then raised until each tail
starts valid.  The regions are derived once per data directory, on the
first scan or check, and the module is imported only then.

CP^n = AIII(1,q) settles at q = 5, where S(2q + 1) passes MAX_DEGREE,
but CP^5 is not valid, so its tail region starts at CP^6:

>>> cp = [r for r in regions() if r.least.label() == "AIII(1,6)"][0]
>>> cp.fixed, cp.count(300), [s.label() for s in cp.members(16)]
((1,), 145, ['AIII(1,6)', 'AIII(1,7)', 'AIII(1,8)'])
"""

from __future__ import annotations

from functools import partial
from itertools import combinations_with_replacement
from operator import attrgetter
from typing import Dict, Iterator, NamedTuple, Tuple

from .catalog import (FAMILIES, _NOT_CANONICAL, SpaceInstance, _Family,
                      instantiate)
from .homotopy import MAX_DEGREE, _cached_per_data_dir, load_records

# A table whose rows would settle only past this parameter is refused by
# the region scan: its regions could outnumber the catalog spaces they
# stand for.
MAX_REGION_START = 32


def _tails(records) -> Dict[str, int]:
    """Each symbol's start: from it on, a parameter no longer changes a
    space's row or blind side.

    A family's start lies past what its own sources fix, and no further:

    - each guard's start (``homotopy.Guard``), read with the guard, and
      each fixed parameter of a record pattern and of a non-canonical
      presentation;
    - S: the sphere rule gives pi_n(S^n) = Z at each n <= MAX_DEGREE,
      so it settles past MAX_DEGREE;
    - AIII: CP^n = AIII(1,q) reads pi_k(S(2q + 1)), which the sphere
      rule, read first, makes trivial at each k <= MAX_DEGREE once
      2q + 1 > MAX_DEGREE, as its blind side needs;
    - BDI: the blind side of Gr(R,2,q) needs q > MAX_DEGREE.
    """
    starts = dict.fromkeys(FAMILIES, 0)
    starts["S"] = starts["BDI"] = MAX_DEGREE + 1
    starts["AIII"] = (MAX_DEGREE + 1) // 2
    for rec in records:
        family = FAMILIES.get(rec.symbol)
        if family is None or len(rec.param_values) != len(family.smallest):
            continue                    # matches no catalog space
        guard = 0 if rec.guard is None else rec.guard.start
        starts[rec.symbol] = max((starts[rec.symbol], guard, *(
            v + 1 for v in rec.param_values if v is not None)))
    for symbol, params in _NOT_CANONICAL:
        starts[symbol] = max((starts[symbol], *(v + 1 for v in params)))
    return starts


class Region(NamedTuple):
    """The canonical spaces of one family that share one homotopy row.

    A member's parameters are ``fixed``, then a tuple of ``running``:
    the family of the parameters that run on from ``least``'s, kept
    nondecreasing, whose dim is the family's with ``fixed`` bound.
    Every member has ``least``'s row, validity, canonical form and blind
    side, and ``least`` has the smallest parameters, and so the smallest
    dim.
    """

    least: SpaceInstance
    running: _Family

    @property
    def fixed(self) -> Tuple[int, ...]:
        """The parameters every member shares: ``least``'s first ones."""
        params = self.least.params
        return params[:len(params) - len(self.running.smallest)]

    def params(self, max_dim: int) -> Iterator[Tuple[int, ...]]:
        """Every member's parameters with dim <= max_dim, in order."""
        return (self.fixed + p for p in self.running.sweep(max_dim))

    def members(self, max_dim: int) -> Iterator[SpaceInstance]:
        """Every member with dim <= max_dim, in catalog order."""
        symbol = self.least.symbol
        return (instantiate(symbol, p) for p in self.params(max_dim))

    def count(self, max_dim: int) -> int:
        """The number of members with dim <= max_dim, none instantiated."""
        return self.running.count(max_dim)


def _family_regions(symbol: str, start: int):
    """(least member, number of fixed parameters) of each region of one
    family: each canonical tuple of its box, nondecreasing from its least
    parameter to ``top``; a parameter below ``top`` is fixed."""
    smallest = FAMILIES[symbol].smallest
    top = max((start, *smallest))
    box = (combinations_with_replacement(range(smallest[0], top + 1),
                                         len(smallest)) if smallest else [()])
    return ((instantiate(symbol, params), sum(p < top for p in params))
            for params in box if (symbol, params) not in _NOT_CANONICAL)


@_cached_per_data_dir
def regions(data_dir=None) -> Tuple[Region, ...]:
    """Every catalog space, as regions, in the catalog order of their
    least members.  No row is built.

    Derived once per data directory, on the first scan or check.  A
    family's start is raised, if need be, until each region with a
    tail starts with a valid space; d_P grows in every parameter, so
    the whole tail is then valid.  A family whose rows settle past
    MAX_REGION_START raises ``ValueError``.
    """
    starts = _tails(load_records(data_dir))
    out = []
    for symbol in FAMILIES:
        for start in range(starts[symbol], MAX_REGION_START + 1):
            found = list(_family_regions(symbol, start))
            if all(s.valid for s, fixed in found if fixed < len(s.params)):
                break
        else:
            raise ValueError(f"the homotopy rows of {symbol} do not settle "
                             f"by parameter MAX_REGION_START = "
                             f"{MAX_REGION_START}")
        for s, fixed in found:
            running = _Family(s.params[fixed:], partial(
                FAMILIES[symbol].dim, *s.params[:fixed]), None)
            out.append(Region(s, running))
    return tuple(sorted(out, key=attrgetter("least")))
