"""Cartan-type recognition from homotopy profiles through degree 9.

Two profiles are compared cell by cell by the one rule of ``abelian``:
a pair is distinguishable when some cell pair has disjoint rank
intervals over one of ``abelian.FIELDS`` (Q, Z_2, Z_3, Z_5, Z_7);
indistinguishable when every cell is known exactly and equal;
undetermined otherwise (partially known cells block the decision without
ever being guessed).  Each cell value is ranked once per process
(``abelian.field_ranks``); ``decompose`` reads the same intervals.

``corollary1_scan`` costs per region and per profile class, not per
space or per pair: it reads the catalog as the regions of
``symcart.regions``, counts their members from the families' dim
formulas, and counts the pairs of each bucket it reports; spaces are
instantiated only when a bucket's pairs are listed.

``decompose`` searches cores, not products.  A space whose every pi_k
through the degree is exactly trivial (S^n for n > max_degree) is
invisible: padding a product with it changes no rank interval and no
direct sum.  Only multisets of visible spaces are visited, each decided
by its summed rank intervals; the paddings that fit beside a core are
counted by an integer recurrence for the node bound and listed only for
the cores that pass.  A space's profile never changes within a process,
so each space is ranked once: its rank intervals and visibility are
cached per (space, degree, data directory).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import cached_property, partial
from heapq import merge
from itertools import accumulate, repeat
from operator import add, attrgetter, eq, ge
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .abelian import (PartialAbelianGroup, RankInterval, field_ranks,
                      format_group, separating_field)
from .catalog import ProductSpace, SpaceInstance, enumerate_catalog
from .homotopy import (DEFAULT_DEGREE, _cached_per_data_dir, _check_degree,
                       groups, profile)

DISTINGUISHABLE = "Distinguishable"
INDISTINGUISHABLE = "Indistinguishable"
UNDETERMINED = "Undetermined"


class Verdict(NamedTuple):
    kind: str
    through_degree: int
    degree: int = 0
    field: object = None
    witness: Tuple = ()
    blockers: Tuple = ()

    def __str__(self):
        if self.kind == DISTINGUISHABLE:
            a, b = (f"[{i.lo},{'inf)' if i.hi is None else f'{i.hi}]'}"
                    for i in self.witness)
            f = self.field if self.field == "Q" else f"Z_{self.field}"
            return (f"Distinguishable(degree={self.degree}, field={f}, "
                    f"ranks {a} vs {b})")
        if self.kind == INDISTINGUISHABLE:
            return f"Indistinguishable({self.through_degree})"
        cells = "; ".join(f"pi_{k}: {format_group(ga)} vs {format_group(gb)}"
                          for k, ga, gb in self.blockers)
        return f"Undetermined({cells})"


def distinguish_profiles(pa: Dict[int, PartialAbelianGroup],
                         pb: Dict[int, PartialAbelianGroup],
                         max_degree: int) -> Verdict:
    """Compare two profiles cell by cell through max_degree.

    The first degree with a ``separating_field`` makes the pair
    distinguishable.  Otherwise a degree blocks the verdict unless its
    two cells are one exact group.  Equal cells have equal intervals, so
    only unequal ones are ranked.
    """
    blockers = []
    for k in range(1, max_degree + 1):
        a, b = pa[k], pb[k]
        if a == b:
            if not a.is_exact:
                blockers.append((k, a, b))
            continue
        if witness := separating_field(a, b):
            f, ia, ib = witness
            return Verdict(DISTINGUISHABLE, max_degree, k, f, (ia, ib))
        blockers.append((k, a, b))
    if blockers:
        return Verdict(UNDETERMINED, max_degree, blockers=tuple(blockers))
    return Verdict(INDISTINGUISHABLE, max_degree)


Space = Union[SpaceInstance, ProductSpace]


def _as_product(x: Space) -> ProductSpace:
    return x if isinstance(x, ProductSpace) else ProductSpace((x,))


def distinguish(a: Space, b: Space, max_degree: int = DEFAULT_DEGREE,
                data_dir=None) -> Verdict:
    """Lowest-degree, Q-before-Z_p provable difference of two spaces.

    >>> from .catalog import instantiate
    >>> str(distinguish(instantiate("AIII", (1, 5)), instantiate("BDI", (2, 11))))
    'Indistinguishable(9)'
    """
    return distinguish_profiles(profile(_as_product(a), max_degree, data_dir),
                                profile(_as_product(b), max_degree, data_dir),
                                max_degree)


_CP_SIDE, _GR_SIDE = "CP^n", "Gr(R,2,q)"
# a pair is blind iff its spaces' blind sides are one of these
_BLIND_SIDE_PAIRS = frozenset({(_CP_SIDE, _GR_SIDE), (_GR_SIDE, _CP_SIDE)})


def _blind_side(s: SpaceInstance, max_degree: int):
    """The side of the degree-max_degree blind spot ``s`` sits on, or None.

    CP^n with 2n + 1 > max_degree is on ``_CP_SIDE``, Gr(R,2,q) with
    q > max_degree on ``_GR_SIDE``; a pair is blind iff it takes one space
    from each side (see ``_is_blind_pair``).
    """
    if s.symbol == "AIII" and s.params[0] == 1:
        return _CP_SIDE if 2 * s.params[1] + 1 > max_degree else None
    if s.symbol == "BDI" and s.params[0] == 2:
        return _GR_SIDE if s.params[1] > max_degree else None
    return None


def _is_blind_pair(a: SpaceInstance, b: SpaceInstance,
                   max_degree: int = 9) -> bool:
    """The recognition blind spot through max_degree: CP^n vs Gr(R,2,q).

    Both have pi_2 = Z and trivial pi_k for k != 2 below the first
    homotopy group of their circle bundle's total space: S^(2n+1) is
    2n-connected and V_2(R^(q+2)) is (q-1)-connected, so the pair is
    blind iff 2n + 1 > max_degree and q > max_degree.  At degree 9 this
    is CP^n (n >= 5) vs Gr(R,2,q) (q >= 10).

    Only this set is expected blind.  Other pairs whose groups through
    degree 9 are equal -- EVII against CP^n or Gr(R,2,q), and E7 against
    E8 -- fall outside it and are reported as violations by design;
    acceptance criterion 4 lists them with the reason for each.
    """
    return (_blind_side(a, max_degree),
            _blind_side(b, max_degree)) in _BLIND_SIDE_PAIRS


# a blind pair takes one space from each side
_OTHER_SIDE = dict(_BLIND_SIDE_PAIRS)


class _ProfileClass:
    """The valid spaces of one profile with dim <= max_dim, held as
    regions: counted per symbol and per blind side from the regions'
    counts, and listed, in catalog order, only when a pair is listed."""

    def __init__(self, prof: Dict[int, PartialAbelianGroup], max_dim: int):
        self.prof = prof
        self.max_dim = max_dim
        self.regions = []                   # (region, its blind side)
        self.size = 0
        self.symbols: Counter = Counter()
        self.sided: Counter = Counter()     # blind side -> members

    def add(self, region, count: int, side: Optional[str]) -> None:
        self.regions.append((region, side))
        self.size += count
        self.symbols[region.least.symbol] += count
        if side is not None:
            self.sided[side] += count

    @cached_property
    def members(self) -> List[Tuple[SpaceInstance, Optional[str]]]:
        """Every member and its blind side, in catalog order."""
        return list(merge(*(zip(region.members(self.max_dim), repeat(side))
                            for region, side in self.regions)))

    @cached_property
    def unsided(self) -> List[Tuple[SpaceInstance, None]]:
        """The members with no blind side, as ``members`` lists them."""
        return [m for m in self.members if m[1] is None]


def _pairs(ca: _ProfileClass, cb: Optional[_ProfileClass], sided_too: bool):
    """The different-symbol pairs of a class pair, in member order.

    ``cb`` None pairs ``ca``'s members among themselves.  Without
    ``sided_too`` a member with a blind side is paired only with members
    that have none: two sided members either share a symbol or form a
    blind pair.
    """
    unsided = 0                     # ca's unsided members up to a
    for x, (a, side) in enumerate(ca.members):
        unsided += side is None
        if side is None or sided_too:
            partners = ca.members[x + 1:] if cb is None else cb.members
        else:
            partners = ca.unsided[unsided:] if cb is None else cb.unsided
        yield from ((a, b) for b, _ in partners if a.symbol != b.symbol)


def _blind(ca: _ProfileClass, cb: Optional[_ProfileClass]):
    """The blind pairs of a class pair, in member order (see ``_pairs``)."""
    side = dict(ca.members + (cb or ca).members)    # member -> blind side
    return ((a, b) for a, b in _pairs(ca, cb, True)
            if (side[a], side[b]) in _BLIND_SIDE_PAIRS)


def _apart(classes: List[_ProfileClass], max_degree: int) -> List[int]:
    """Per class, the bitmask of the classes it is distinguishable from.

    Two profiles are distinguishable iff the cells of some degree have a
    ``separating_field`` (see ``distinguish_profiles``), so the classes
    are split by their cell at each degree, and each pair of one
    degree's distinct values is ranked once.
    """
    masks = [0] * len(classes)
    for k in range(1, max_degree + 1):
        holders: Dict[PartialAbelianGroup, List[int]] = {}
        for i, c in enumerate(classes):
            holders.setdefault(c.prof[k], []).append(i)
        bits = {g: sum(1 << i for i in held) for g, held in holders.items()}
        for g, held in holders.items():
            apart = 0
            for h, mask in bits.items():
                if separating_field(g, h):
                    apart |= mask
            for i in held:
                masks[i] |= apart
    return masks


class ScanPairs:
    """One bucket of the scan's pairs, counted rather than listed: a
    read-only view.

    It holds, per class pair whose pairs fall in the bucket, a function
    that lists them and the verdict each listed pair carries (None for
    a blind pair, listed as ``(a, b)``; otherwise ``(a, b, verdict)``),
    and their count from the classes' counts, so ``len`` lists nothing;
    iterating lists the classes' members and yields every pair in scan
    order, the same sequence each time, and the view equals a list of
    those pairs.
    """

    def __init__(self):
        self._parts = []                    # (listing, verdict)
        self._count = 0

    def _add(self, count: int, listing, verdict: Optional[Verdict] = None):
        """File ``count`` pairs, which the argless ``listing`` lists.  No
        pair, no part: iterating lists no class that adds no pair."""
        if count:
            self._parts.append((listing, verdict))
            self._count += count

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        for listing, v in self._parts:
            if v is None:
                yield from listing()
            else:
                yield from ((a, b, v) for a, b in listing())

    def __eq__(self, other):
        if not isinstance(other, (ScanPairs, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self):
        return f"<ScanPairs: {len(self)} pairs>"


class ScanReport:
    """``corollary1_scan``'s counts, and its buckets of pairs as
    ``ScanPairs`` views: ``len`` of a bucket lists no pair, and only
    iterating one instantiates the members it lists."""

    def __init__(self, max_dim: int, max_degree: int):
        self.max_dim = max_dim
        self.max_degree = max_degree
        self.instances = 0
        self.distinguishable_pairs = 0
        self.blind_pairs = ScanPairs()
        self.violations = ScanPairs()
        self.undetermined = ScanPairs()

    @property
    def clean(self) -> bool:
        return not self.violations and not self.undetermined


def corollary1_scan(max_dim: int, max_degree: int = DEFAULT_DEGREE,
                    data_dir=None) -> ScanReport:
    """Pairwise scan of all valid irreducible instances up to max_dim.

    Every pair of spaces with different Cartan symbols must be provably
    distinguishable at some degree <= max_degree, except the blind-spot
    pairs of ``_is_blind_pair``, which must be indistinguishable.  Any
    other indistinguishable pair is a violation, even when its groups are
    provably equal (EVII vs CP^n or Gr(R,2,q), E7 vs E8 at degree 9), so
    ``clean`` keeps its strict meaning and is false at max_dim 300;
    acceptance criterion 4 lists the expected violations and undetermined
    pairs.

    The work is per region and per class, not per space or per pair.
    The catalog is read as regions (``regions.regions``): sets of one
    family's spaces that share one homotopy row, validity and blind side
    of ``_is_blind_pair``.  A region's members up to max_dim are counted
    from its family's dim formula, not instantiated.  Regions of equal
    profile through max_degree form a class, counted per symbol and per
    blind side.  Every pair of different symbols but the blind ones is
    first counted distinguishable: (n^2 - sum h^2)/2 over the symbol
    histogram, less the product of the two blind sides' sizes.  One
    bitmask per class (``_apart``) then names the classes it is
    distinguishable from, and only the other class pairs, and those that
    may hold blind pairs, are compared: their different-symbol pairs,
    |A|.|B| - sum h_A.h_B (or (n^2 - sum h^2)/2 within one class), are
    moved out of the count.  Each compared class pair files its pairs in
    the report's buckets, ``ScanPairs`` views that count them from the
    class counts and list nothing: a distinguishable class pair's blind
    pairs are violations; an indistinguishable one's blind pairs are
    blind, and its other pairs, diff - n_blind of them, violations; an
    undetermined one's pairs, all diff of them, undetermined.  A class's
    members are instantiated, in catalog order, only when a bucket that
    holds its pairs is iterated.  The comparisons read each distinct
    cell value's rank intervals from ``abelian.field_ranks``, so they
    too cost per value.
    """
    from .regions import regions        # built by the first scan or check
    if max_dim < 11:
        raise ValueError("max_dim >= 11 required (no valid space is smaller)")
    report = ScanReport(max_dim, max_degree)

    # a profile dict is in degree order, so its values name its class; the
    # regions come in the catalog order of their least members, so a
    # class's first region holds its first member
    by_profile: Dict[Tuple, _ProfileClass] = {}
    for region in regions(data_dir):
        count = region.count(max_dim) if region.least.valid else 0
        if not count:
            continue
        prof = groups(region.least, max_degree, data_dir)
        cls = by_profile.get(key := tuple(prof.values()))
        if cls is None:
            cls = by_profile[key] = _ProfileClass(prof, max_dim)
        cls.add(region, count, _blind_side(region.least, max_degree))
        report.instances += count
    classes = list(by_profile.values())

    # every pair of different symbols but the blind ones counts as
    # distinguishable; then each class pair that is not, or that may hold
    # blind pairs, is compared, in class order, and its pairs moved
    symbols, sides = Counter(), Counter()
    for c in classes:
        symbols.update(c.symbols)
        sides.update(c.sided)
    n = report.instances
    report.distinguishable_pairs = (
        (n * n - sum(h * h for h in symbols.values())) // 2
        - sides[_CP_SIDE] * sides[_GR_SIDE])
    sided = [i for i, c in enumerate(classes) if c.sided]
    compared = sorted(
        {(i, j) for i, mask in enumerate(_apart(classes, max_degree))
         for j in range(i, len(classes)) if not mask >> j & 1}
        | {(i, j) for i in sided for j in sided if i <= j})
    for i, j in compared:
        ca, cb = classes[i], None if i == j else classes[j]
        if cb is None:
            diff = (ca.size * ca.size
                    - sum(h * h for h in ca.symbols.values())) // 2
            n_blind = ca.sided[_CP_SIDE] * ca.sided[_GR_SIDE]
        else:
            diff = ca.size * cb.size - sum(
                h * cb.symbols[symbol] for symbol, h in ca.symbols.items())
            n_blind = sum(ca.sided[side] * cb.sided[other]
                          for side, other in _OTHER_SIDE.items())
        if not diff:
            continue
        v = distinguish_profiles(ca.prof, (cb or ca).prof, max_degree)
        blind = partial(_blind, ca, cb)
        if v.kind == DISTINGUISHABLE:
            report.violations._add(n_blind, blind, v)
            continue
        report.distinguishable_pairs -= diff - n_blind
        if v.kind == INDISTINGUISHABLE:
            report.blind_pairs._add(n_blind, blind)
            report.violations._add(diff - n_blind,
                                   partial(_pairs, ca, cb, False), v)
        else:
            report.undetermined._add(diff, partial(_pairs, ca, cb, True), v)
    return report


class CandidateOverflow(RuntimeError):
    pass


# decompose's node bound by default, and the largest the CLI accepts.  The
# slowest runs it allows list about 10^6 products: the largest S(n) within
# it at --max-degree 1..10 (S(39) at 1 up to S(128) at 10) took 31-37 s as
# whole processes, the slowest S(69) at degree 3, with 52-59 MB of text
# output and 495 MB peak RSS (S(108) at 7; Python 3.11, 2-vCPU Xeon host)
MAX_CANDIDATES = 10 ** 6


class _Ranked(NamedTuple):
    """A space's rank intervals through one degree, for ``decompose``.

    Cell ``c`` is field ``FIELDS[c % len(FIELDS)]`` of ``abelian`` at
    degree ``c // len(FIELDS) + 1``.
    """

    intervals: Tuple[RankInterval, ...]       # per cell
    floors: Tuple[Tuple[int, int], ...]       # (cell, lower rank) where > 0
    invisible: bool                           # every pi_k exactly trivial


@_cached_per_data_dir
def _ranked(s: SpaceInstance, max_degree: int, data_dir=None) -> _Ranked:
    """The rank intervals of ``s``'s profile through max_degree.

    Computed once per process for each space, degree and data directory,
    the directory keyed by its absolute path, as ``pi`` itself is;
    callers share the result and must not mutate it.
    """
    prof = groups(s, max_degree, data_dir)
    intervals = tuple(i for g in prof.values() for _, i in field_ranks(g))
    return _Ranked(intervals,
                   tuple((c, i.lo) for c, i in enumerate(intervals) if i.lo),
                   all(g.is_exact_trivial for g in prof.values()))


def _cores(cands, budget: int, ceiling, need):
    """Every multiset of ``cands`` within ``budget`` and ``ceiling``, once.

    ``ceiling`` holds the ambient's upper rank per cell (None for none),
    ``need`` its positive lower ranks, in cell order.  ``cands`` holds
    ``(space, floors, reach)`` by decreasing dimension: the space's positive
    lower ranks as ``(cell, rank)`` and its upper ranks on the cells of
    ``need``, each capped at the rank needed there.  A multiset is kept
    while its summed lower ranks stay within ``ceiling``; each is yielded
    as ``(core, budget left, reaches)``, where ``reaches`` says whether
    its summed upper ranks reach every ``need``.  Lower ranks only grow,
    so every prefix of a kept multiset is kept, and only the cells a
    space raises are checked.  Each step starts at the first space that
    fits the budget left.
    """
    floor = [0] * len(ceiling)
    core: List[SpaceInstance] = []
    neg_dims = [-t.dim for t, _, _ in cands]

    def visit(start, left, reach):
        yield tuple(core), left, all(map(ge, reach, need))
        for i in range(max(start, bisect_left(neg_dims, -left)), len(cands)):
            t, floors, more = cands[i]
            for c, lo in floors:
                floor[c] += lo
            if all(ceiling[c] is None or floor[c] <= ceiling[c]
                   for c, _ in floors):
                core.append(t)
                yield from visit(i, left - t.dim, tuple(map(add, reach, more)))
                core.pop()
            for c, lo in floors:
                floor[c] -= lo

    return visit(0, budget, (0,) * len(need))


def decompose(ambient: SpaceInstance, max_degree: int = DEFAULT_DEGREE,
              max_candidates: int = MAX_CANDIDATES,
              data_dir=None) -> List[ProductSpace]:
    """All catalog products whose profile could equal the ambient's.

    A product is a multiset of catalog spaces within the ambient's
    dimension.  It splits into a core of visible factors and a padding
    of invisible ones, whose every pi_k through max_degree is exactly
    trivial (S^n for n > max_degree, found from the profiles).  Padding
    adds [0, 0] to every rank interval and an exact 0 to every direct
    sum, so it never changes a verdict: only cores are searched.

    The search runs over nonnegative multiplicities of the visible
    factors that can fit, pruned by the dimension budget and by the
    ambient's per-degree, per-field rank ceilings.  Each core whose
    upper ranks reach the ambient's lower ones is listed with every
    padding that fits its leftover dimension (the empty core with every
    non-empty one), by total dimension descending, then label.  These are
    exactly the products that ``distinguish`` does not answer
    Distinguishable: a direct sum's rank intervals equal its summands'
    summed ones, which meet the ambient's on every cell.

    max_candidates bounds the nodes of the search over whole products:
    one per product that fits the budget and the ceilings, the empty one
    included.  Each core stands for itself with every padding that fits,
    whose number an integer count over the invisible factors' dimensions
    gives, so the nodes are counted, not visited; CandidateOverflow is
    raised, rather than a result truncated, as soon as the count passes
    the bound.  S^n for n > max_degree is invisible whatever the tables
    say, so the count over those spheres alone, smallest first and over
    totals up to a doubling cap, passes the bound of a big ambient before
    the catalog is ranked, at a cost set by the bound, not by the dim.

    Every space's rank intervals come from a per-process
    cache (``_ranked``), so a later call ranks only the catalog spaces
    that no earlier call has seen.
    """
    _check_degree(max_degree)
    if not ambient.valid:
        raise ValueError(f"{ambient.label()} does not have a valid dimension")
    overflow = CandidateOverflow(
        f"decomposition search exceeded {max_candidates} nodes")

    def count_padding(exact, dims):
        for d in dims:
            for total in range(d, len(exact)):
                exact[total] += exact[total - d]
            if sum(exact) > max_candidates:
                raise overflow

    # exact[L]: the multisets of the padding counted so far with total
    # dimension L; all of them together bound the empty core's nodes.  The
    # spheres are counted over totals up to a cap that doubles until it
    # reaches the ambient's dim: S^L alone has total L, so the count passes
    # the bound before the cap passes max_degree + max_candidates.
    top = 0
    while top < ambient.dim:
        top = min(2 * top + 64, ambient.dim)
        exact = [1] + [0] * top
        count_padding(exact, range(max_degree + 1, top + 1))
    amb = _ranked(ambient, max_degree, data_dir)
    ceiling = [i.hi for i in amb.intervals]
    need = [want for _, want in amb.floors]

    visible, padding = [], []
    for t in sorted(enumerate_catalog(ambient.dim), key=attrgetter("dim"),
                    reverse=True):
        r = _ranked(t, max_degree, data_dir)
        if r.invisible:
            padding.append(t)
        # a factor whose guaranteed ranks already exceed the ambient's
        # ceiling can never appear
        elif all(ceiling[c] is None or lo <= ceiling[c] for c, lo in r.floors):
            # an upper rank capped at the rank needed, an unbounded one
            # there too: their sum reaches it exactly when the true one does
            visible.append((t, r.floors, tuple(
                want if r.intervals[c].hi is None
                else min(r.intervals[c].hi, want)
                for c, want in amb.floors)))

    # the spheres among the padding are counted already
    count_padding(exact, (t.dim for t in padding if t.symbol != "S"))
    counts = list(accumulate(exact))
    nodes, reaching = 0, []
    for core, left, reaches in _cores(visible, ambient.dim, ceiling, need):
        nodes += counts[left]
        if nodes > max_candidates:
            raise overflow
        if reaches:
            reaching.append((core, left))

    # every multiset of the padding within a core's leftover dimension
    pads = [(t, (), ()) for t in padding]
    results = [ProductSpace(core + pad) for core, left in reaching
               for pad, _, _ in _cores(pads, left, (), ()) if core or pad]
    results.sort(key=lambda r: (-r.dim, r.label()))
    return results
