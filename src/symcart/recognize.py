"""Cartan-type recognition from homotopy profiles through degree 9.

Two profiles are compared field by field: free ranks over Q first, then
dimensions over Z_2, Z_3, Z_5, Z_7.  A pair is distinguishable when some
cell pair has provably disjoint rank intervals; indistinguishable when
every cell is known exactly and equal; undetermined otherwise (partially
known cells block the decision without ever being guessed).

A whole catalog's profiles hold only a handful of distinct cell values,
so each value's five rank intervals are computed once per process
(``_field_ranks``); ``distinguish_profiles`` and ``RankVector`` both
read them there.

A space's profile never changes within a process, so ``decompose``
ranks each space once: its profile and rank vector are cached per
(space, degree, data directory), as ``pi`` caches each group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Tuple, Union

from .abelian import (PartialAbelianGroup, RankInterval, format_group, p_rank,
                      q_rank)
from .catalog import ProductSpace, SpaceInstance, enumerate_catalog
from .homotopy import groups, profile

FIELDS = ("Q", 2, 3, 5, 7)

DISTINGUISHABLE = "Distinguishable"
INDISTINGUISHABLE = "Indistinguishable"
UNDETERMINED = "Undetermined"


@lru_cache(maxsize=None)
def _field_ranks(
        g: PartialAbelianGroup) -> Tuple[Tuple[object, RankInterval], ...]:
    """``(field, rank interval)`` of the cell g over each of ``FIELDS``.

    Cells are frozen values, and a profile holds few distinct ones, so
    each is ranked once per process; callers share the tuple.
    """
    return (("Q", q_rank(g)),) + tuple((p, p_rank(g, p)) for p in FIELDS[1:])


@dataclass(frozen=True)
class RankVector:
    """Per-degree, per-field rank intervals of a homotopy profile."""

    intervals: Dict[Tuple[int, object], RankInterval]

    @staticmethod
    def of(prof: Dict[int, PartialAbelianGroup]) -> "RankVector":
        return RankVector({(k, f): i for k, g in prof.items()
                           for f, i in _field_ranks(g)})


@dataclass(frozen=True)
class Verdict:
    kind: str
    through_degree: int
    degree: int = 0
    field: object = None
    witness: Tuple = ()
    blockers: Tuple = ()

    def __str__(self):
        if self.kind == DISTINGUISHABLE:
            a, b = self.witness
            f = self.field if self.field == "Q" else f"Z_{self.field}"
            return (f"Distinguishable(degree={self.degree}, field={f}, "
                    f"ranks [{a.lo},{a.hi}] vs [{b.lo},{b.hi}])")
        if self.kind == INDISTINGUISHABLE:
            return f"Indistinguishable({self.through_degree})"
        cells = "; ".join(f"pi_{k}: {format_group(ga)} vs {format_group(gb)}"
                          for k, ga, gb in self.blockers)
        return f"Undetermined({cells})"


def distinguish_profiles(pa: Dict[int, PartialAbelianGroup],
                         pb: Dict[int, PartialAbelianGroup],
                         max_degree: int) -> Verdict:
    """Compare two profiles cell by cell through max_degree.

    The first degree with a field whose rank intervals are disjoint (Q
    before Z_2, Z_3, Z_5, Z_7) makes the pair distinguishable.  Otherwise
    a degree blocks the verdict unless its two cells are one exact group.
    Equal cells have equal intervals, so only unequal ones are ranked.
    """
    blockers = []
    for k in range(1, max_degree + 1):
        a, b = pa[k], pb[k]
        if a == b:
            if not a.is_exact:
                blockers.append((k, a, b))
            continue
        for (f, ia), (_, ib) in zip(_field_ranks(a), _field_ranks(b)):
            if ia.disjoint(ib):
                return Verdict(DISTINGUISHABLE, max_degree, k, f, (ia, ib))
        blockers.append((k, a, b))
    if blockers:
        return Verdict(UNDETERMINED, max_degree, blockers=tuple(blockers))
    return Verdict(INDISTINGUISHABLE, max_degree)


Space = Union[SpaceInstance, ProductSpace]


def _as_product(x: Space) -> ProductSpace:
    return x if isinstance(x, ProductSpace) else ProductSpace((x,))


def distinguish(a: Space, b: Space, max_degree: int = 9,
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


@dataclass
class ScanReport:
    max_dim: int
    max_degree: int
    instances: int = 0
    distinguishable_pairs: int = 0
    blind_pairs: List[Tuple[SpaceInstance, SpaceInstance]] = field(default_factory=list)
    violations: List[Tuple[SpaceInstance, SpaceInstance, Verdict]] = field(default_factory=list)
    undetermined: List[Tuple[SpaceInstance, SpaceInstance, Verdict]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations and not self.undetermined


def corollary1_scan(max_dim: int, max_degree: int = 9,
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

    The work is per class pair, not per pair.  Spaces are grouped into
    classes of equal profile, and each pair of classes is compared once.
    Its different-symbol pairs are counted from the classes' symbol
    histograms, |A|.|B| - sum h_A.h_B (or (n^2 - sum h^2)/2 within one
    class), and its blind pairs from each class's CP^n and Gr(R,2,q)
    counts.  A distinguishable class pair with no blind pair only adds
    its count; any other one lists its pairs, in member order, and files
    each by its members' blind sides, found once per space when the
    classes are formed (``_BLIND_SIDE_PAIRS``, the rule of
    ``_is_blind_pair``).  The comparison itself reads each distinct cell
    value's rank intervals from ``_field_ranks``, so it too costs per
    value, not per class pair.
    """
    if max_dim < 11:
        raise ValueError("max_dim >= 11 required (no valid space is smaller)")
    spaces = [s for s in enumerate_catalog(max_dim) if s.valid]
    report = ScanReport(max_dim, max_degree, instances=len(spaces))

    # a profile dict is in degree order, so its values name its class
    by_profile: Dict[Tuple, Tuple[List, Dict]] = {}
    for s in spaces:
        prof = groups(s, max_degree, data_dir)
        by_profile.setdefault(tuple(prof.values()), ([], prof))[0].append(
            (s, _blind_side(s, max_degree)))
    # one entry per class, in member order: its (member, blind side) list,
    # its profile, its symbol histogram and its count of members per side
    classes = sorted(((members, prof, Counter(s.symbol for s, _ in members),
                       Counter(side for _, side in members))
                      for members, prof in by_profile.values()),
                     key=lambda c: c[0][0][0])
    for i, (members_a, prof_a, hist_a, on_side_a) in enumerate(classes):
        for j in range(i, len(classes)):
            members_b, prof_b, hist_b, on_side_b = classes[j]
            if i == j:
                n = len(members_a)
                diff = (n * n - sum(h * h for h in hist_a.values())) // 2
                n_blind = on_side_a[_CP_SIDE] * on_side_a[_GR_SIDE]
            else:
                diff = len(members_a) * len(members_b) - sum(
                    h * hist_b[symbol] for symbol, h in hist_a.items())
                n_blind = (on_side_a[_CP_SIDE] * on_side_b[_GR_SIDE]
                           + on_side_a[_GR_SIDE] * on_side_b[_CP_SIDE])
            if not diff:
                continue
            v = distinguish_profiles(prof_a, prof_b, max_degree)
            if v.kind == DISTINGUISHABLE and not n_blind:
                report.distinguishable_pairs += diff
                continue
            if i == j:
                pairs = [(a, b) for x, a in enumerate(members_a)
                         for b in members_a[x + 1:]
                         if a[0].symbol != b[0].symbol]
            else:
                pairs = [(a, b) for a in members_a for b in members_b
                         if a[0].symbol != b[0].symbol]
            for (a, side_a), (b, side_b) in pairs:
                blind = (side_a, side_b) in _BLIND_SIDE_PAIRS
                if v.kind == DISTINGUISHABLE and not blind:
                    report.distinguishable_pairs += 1
                elif v.kind == INDISTINGUISHABLE and blind:
                    report.blind_pairs.append((a, b))
                elif v.kind == UNDETERMINED:
                    report.undetermined.append((a, b, v))
                else:
                    report.violations.append((a, b, v))
    return report


class CandidateOverflow(RuntimeError):
    pass


@lru_cache(maxsize=None)
def _ranked(s: SpaceInstance, max_degree: int, data_dir=None):
    """The profile of ``s`` through max_degree and its ``RankVector``.

    Computed once per process for each (space, degree, data directory),
    like ``pi`` itself; callers share the result and must not mutate it.
    """
    prof = groups(s, max_degree, data_dir)
    return prof, RankVector.of(prof)


def decompose(ambient: SpaceInstance, max_degree: int = 9,
              max_candidates: int = 10 ** 6,
              data_dir=None) -> List[ProductSpace]:
    """All catalog products whose profile could equal the ambient's.

    Searches nonnegative-integer multiplicities of candidate factors under
    per-degree, per-field rank box constraints and the dimension budget,
    then re-filters survivors by exact degreewise compatibility.  The
    result is deterministic: sorted by total dimension descending, then
    label.  Exceeding max_candidates raises CandidateOverflow rather than
    silently truncating.

    The ambient's and every candidate's profile and rank vector come from
    a per-process cache (``_ranked``), so a later call ranks only the
    catalog spaces that no earlier call has seen.
    """
    if not ambient.valid:
        raise ValueError(f"{ambient.label()} does not have a valid dimension")
    amb_prof, amb_rv = _ranked(ambient, max_degree, data_dir)
    cells = [(k, f) for k in range(1, max_degree + 1) for f in FIELDS]

    cands = []
    for t in enumerate_catalog(ambient.dim):
        prof, rv = _ranked(t, max_degree, data_dir)
        # a factor whose guaranteed ranks already exceed the ambient's
        # ceiling can never appear
        if any(amb_rv.intervals[c].hi is not None
               and rv.intervals[c].lo > amb_rv.intervals[c].hi for c in cells):
            continue
        cands.append((t, prof, rv))
    cands.sort(key=lambda tpr: (-tpr[0].dim, tpr[0].label()))

    results = []
    explored = 0

    def feasible_completion(chosen_lo):
        for c in cells:
            amb = amb_rv.intervals[c]
            if amb.hi is not None and chosen_lo[c] > amb.hi:
                return False
        return True

    def closes(chosen, chosen_hi):
        for c in cells:
            need = amb_rv.intervals[c].lo
            hi = chosen_hi[c]
            if hi is not None and hi < need:
                return False
        # exact degreewise filter
        prod = ProductSpace(tuple(chosen))
        prof = profile(prod, max_degree, data_dir)
        v = distinguish_profiles(prof, amb_prof, max_degree)
        return v.kind != DISTINGUISHABLE

    def dfs(idx, budget, chosen, chosen_lo, chosen_hi):
        nonlocal explored
        explored += 1
        if explored > max_candidates:
            raise CandidateOverflow(
                f"decomposition search exceeded {max_candidates} nodes")
        if chosen and closes(chosen, chosen_hi):
            results.append(ProductSpace(tuple(chosen)))
        for i in range(idx, len(cands)):
            t, prof, rv = cands[i]
            if t.dim > budget:
                continue
            new_lo = dict(chosen_lo)
            new_hi = dict(chosen_hi)
            for c in cells:
                new_lo[c] += rv.intervals[c].lo
                hi = rv.intervals[c].hi
                new_hi[c] = (None if hi is None or new_hi[c] is None
                             else new_hi[c] + hi)
            if not feasible_completion(new_lo):
                continue
            chosen.append(t)
            dfs(i, budget - t.dim, chosen, new_lo, new_hi)
            chosen.pop()

    dfs(0, ambient.dim, [], {c: 0 for c in cells}, {c: 0 for c in cells})
    results.sort(key=lambda r: (-r.dim, r.label()))
    return results
