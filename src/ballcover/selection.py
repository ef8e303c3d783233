"""Constructive covering selections over finite ball families.

Five deterministic procedures share the same skeleton: group balls into
geometric scale bands, then select or color greedily inside each band,
largest scales first.

* :func:`select_bounded_overlap_subcover` keeps a subfamily that still
  covers the requested centers while its pointwise overlap stays bounded.
* :func:`partition_into_disjoint_families` colors a family with the
  fewest greedy colors so that each color class is pairwise disjoint.
* :func:`besicovitch_cover_1d` is the complete line algorithm: it covers
  any finite center set with at most two disjoint families of intervals.
* :func:`cip_subcover` selects with a radius-threshold rule whose output
  satisfies an exact pairwise separation property.
* :func:`morse_partition` extends the disjoint partition to quasi-round
  sets via their outer balls.

Throughout, balls are closed: two balls sharing exactly one boundary
point count as intersecting, and selections treat a center as covered
when its distance to a selected ball's center is <= that ball's radius,
evaluated exactly on the given floats.  Greedy tie-breaking is always
"larger radius first, then lexicographically smallest center", which
makes every procedure deterministic.

The greedy loops test a ball with the scalar
:func:`~ballcover.geometry.distance` against the chosen balls that a
radius-band grid (``geometry._Grid``) cannot rule out, so each decision
is that of a loop over every pair, without numpy.  Violated internal
guarantees raise :class:`~ballcover.errors.InternalError`, never ``assert``.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Optional, Sequence

from .covering import BallFamily, OverlapProfile, overlap_profile, strict_net_bound
from .errors import DomainError, InputError, InternalError, UnsupportedFeatureError
from .geometry import Ball, Point, Space, _Grid, distance, injectivity_radius

__all__ = [
    "SubcoverResult",
    "DisjointPartition",
    "select_bounded_overlap_subcover",
    "partition_into_disjoint_families",
    "besicovitch_cover_1d",
    "cip_subcover",
    "morse_partition",
]


class SubcoverResult(NamedTuple):
    """A selected subfamily together with its coverage evidence.

    ``bands[k]`` is the scale-band index of ``selected[k]``: band ``i``
    holds radii in ``(beta**i * R, beta**(i-1) * R]`` where ``R`` is the
    largest input radius (zero-radius balls get the first unused index).
    """

    selected: BallFamily
    covered_centers: tuple
    overlap: OverlapProfile
    bands: tuple


class DisjointPartition(NamedTuple):
    """Balls split into families that are internally pairwise disjoint.

    ``assignment[i]`` maps input index ``i`` to its family index, or -1
    when the i-th input ball was not part of the final selection.
    ``family_count_bound`` reports the bound the construction guarantees
    or estimates; ``bound_is_empirical`` distinguishes a certified bound
    from a heuristic one.  ``tags`` are the line cover's, by left end.
    """

    families: tuple
    assignment: tuple
    family_count_bound: Optional[int] = None
    bound_is_empirical: bool = False
    tags: Optional[tuple] = None


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _check_ratio(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise InputError(f"{name} must lie in (0, 1), got {value!r}")


def _assign_bands(pairs, ratio) -> dict:
    """Group payloads by geometric band of their values, largest first.

    ``pairs`` is a list of (value, payload) tuples already sorted by
    descending value; returns ``{band_index: [payload, ...]}`` with the
    payloads in the same order.  Band ``i`` holds values in
    ``(ratio**i * top, ratio**(i-1) * top]`` where ``top`` is the
    largest value; values of exactly zero share the first unused index.
    """
    out: dict[int, list] = {}
    if not pairs:
        return out
    top = pairs[0][0]
    band, lo = 1, ratio * top
    zero_band = None
    for value, payload in pairs:
        if value <= 0.0:
            if zero_band is None:
                zero_band = band + 1 if top > 0.0 else 1
            out.setdefault(zero_band, []).append(payload)
            continue
        while value <= lo:
            band += 1
            lo *= ratio
        out.setdefault(band, []).append(payload)
    return out


# ---------------------------------------------------------------------------
# bounded-overlap subcover
# ---------------------------------------------------------------------------


def _profile_for(family_out: BallFamily, probes) -> OverlapProfile:
    return overlap_profile(family_out, None if family_out.space.is_line else list(probes))


def select_bounded_overlap_subcover(
    family: BallFamily,
    centers: Sequence[Point],
    beta: float = 0.5,
) -> SubcoverResult:
    """Keep a subfamily covering all centers with bounded overlap.

    Balls are grouped into radius bands shrinking by ``beta``; within a
    band, maximal pairwise-disjoint subfamilies are extracted round after
    round, each round drawing only from balls centered at a still
    uncovered listed center, until no band center remains uncovered.
    Only balls centered exactly (by coordinates) at a listed center are
    eligible; every listed center must have at least one such ball.
    """
    _check_ratio("beta", beta)
    space, coords, radii = family.space, family.coords, family.radii
    ball_centers = family.centers
    center_list = list(centers)
    by_coords = {}
    for i, c in enumerate(coords):
        by_coords.setdefault(c, []).append(i)
    ball_to_center = {}
    for ci, p in enumerate(center_list):
        owners = by_coords.get(p.coords)
        if not owners:
            raise InputError(f"center {ci} has no ball centered on it")
        for bi in owners:
            ball_to_center.setdefault(bi, ci)
    covered = [False] * len(center_list)

    candidates = sorted(ball_to_center, key=lambda i: (-radii[i], coords[i], i))
    by_band = _assign_bands([(radii[i], i) for i in candidates], beta)

    reach = 2.0 * max(radii, default=0.0)
    selected_idx = []
    selected_bands = []
    for band in sorted(by_band):
        while True:
            pool = [i for i in by_band[band] if not covered[ball_to_center[i]]]
            if not pool:
                break
            chosen = _Grid(space, center_list, reach)  # this round's balls
            for i in pool:
                c, r = ball_centers[i], radii[i]
                if all(distance(space, c, ball_centers[j]) > r + radii[j]
                       for j in chosen.near(c.coords, r)):
                    chosen.add(c.coords, r, i)
                    selected_idx.append(i)
                    selected_bands.append(band)
            for ci, p in enumerate(center_list):
                if not covered[ci] and any(distance(space, p, ball_centers[j]) <= radii[j]
                                           for j in chosen.near(p.coords, 0.0)):
                    covered[ci] = True

    selected = family._subset(selected_idx)
    profile = _profile_for(selected, center_list)
    return SubcoverResult(
        selected=selected,
        covered_centers=tuple(covered),
        overlap=profile,
        bands=tuple(selected_bands),
    )


# ---------------------------------------------------------------------------
# disjoint-family partition
# ---------------------------------------------------------------------------


def _first_fit(space: Space, centers, radii, order) -> tuple:
    """Greedy colouring of the balls ``B(centers[i], radii[i])`` visited in
    ``order``.

    Each ball takes the lowest colour that no already coloured ball
    meeting it carries (closed balls meet when the center distance is at
    most the radius sum).  A colour's balls are its family, so this is
    the rule "the lowest family where the ball is disjoint from every
    member, else a new family".  Returns the families, as input indices
    in colouring order, and the input-indexed colour assignment.
    """
    grid = _Grid(space, centers, 2.0 * max(radii, default=0.0))
    families: list[list[int]] = []
    assignment = [-1] * len(centers)
    for i in order:
        c, r = centers[i], radii[i]
        used = set()
        for j in grid.near(c.coords, r):
            if assignment[j] not in used and not distance(space, c, centers[j]) > r + radii[j]:
                used.add(assignment[j])
        f = 0
        while f in used:
            f += 1
        if f == len(families):
            families.append([])
        families[f].append(i)
        assignment[i] = f
        grid.add(c.coords, r, i)
    return families, assignment


def partition_into_disjoint_families(
    family: BallFamily,
    alpha: float = 0.75,
) -> DisjointPartition:
    """Color the family so each color class is pairwise disjoint.

    Balls are processed largest radius first (which realizes the
    radius-band grouping with ratio ``alpha`` implicitly) and each goes
    to the lowest-index family where it is disjoint from everything
    already assigned, opening a new family when none fits.  Alongside
    the measured family count, ``family_count_bound`` reports
    ``max_overlap * strict_net_bound(alpha, dim) + 1`` where
    ``max_overlap`` is the input family's measured pointwise overlap
    (exact on the line, probed at ball centers elsewhere - the bound is
    flagged empirical in the probed case).
    """
    if not 0.5 < alpha < 1.0:
        raise InputError(f"alpha must lie in (1/2, 1), got {alpha!r}")
    space, coords, radii = family.space, family.coords, family.radii
    n = len(family)
    order = sorted(range(n), key=lambda i: (-radii[i], coords[i], i))
    centers = family.centers
    families, assignment = _first_fit(space, centers, radii, order)

    if n:
        profile = _profile_for(family, centers)
        exact = space.is_line
        bound = profile.max_overlap * strict_net_bound(alpha, space.dim) + 1
    else:
        exact, bound = True, 1
    return DisjointPartition(
        families=tuple(map(family._subset, families)),
        assignment=tuple(assignment),
        family_count_bound=bound,
        bound_is_empirical=not exact,
    )


# ---------------------------------------------------------------------------
# the complete 1-D algorithm
# ---------------------------------------------------------------------------


def _phase_a_greedy(cs, rs, ids):
    """Largest-radius-first selection until every center is covered.

    ``rs[k]`` and ``ids[k]`` are the radius and input index of the best
    interval on the k-th center of the sorted list ``cs``; returns the
    chosen (left, right, input_index) triples in selection order: by
    descending radius, ties by center, which one stable sort of the
    center positions gives.  The chosen radius is always the maximum
    over uncovered centers, which satisfies the required
    more-than-half-the-supremum rule and makes radii non-increasing
    along the selection.  A center is chosen only while no chosen
    interval holds it, so it lies more than the earlier radius, and so
    more than its own, from every earlier center: no chosen interval
    holds the center of one chosen after it, and one chosen before it
    only through the rounding of its ends (centers -(2**53 + 2) and
    -2**53 + 1, both with radius 2.25, give the later interval the left
    end -(2**53 + 2)).  So, but for rounding, no point lies in three
    chosen intervals (the middle center would lie in one of the outer
    intervals), which phase B checks, and marking the centers each one
    covers visits at most 2n positions in all.
    """
    covered = bytearray(len(cs))
    remaining = len(cs)
    neg_radii = [-r for r in rs]
    chosen = []
    for k in sorted(range(len(cs)), key=neg_radii.__getitem__):
        if not remaining:
            break
        if covered[k]:
            continue
        left, right = cs[k] - rs[k], cs[k] + rs[k]
        chosen.append((left, right, ids[k]))
        lo, hi = bisect_left(cs, left), bisect_right(cs, right)
        remaining -= hi - lo - covered.count(1, lo, hi)
        covered[lo:hi] = b"\x01" * (hi - lo)
    return chosen


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _phase_b_two_color(chosen):
    """Tag phase A's intervals with two families, in one sweep.

    Lemma: sorted by left end, each interval ``ivs[i]`` ends before
    ``ivs[i + 2]`` starts, so each meets at most its two neighbours by
    left end.  For phase A's intervals this holds: were ``ivs[i + 2]`` to
    start inside ``ivs[i]``, the interval between them would either hold
    that point too, a point in three chosen intervals, or lie inside
    ``ivs[i]`` with its center, and phase A makes neither but for
    rounding.  So the lemma is checked, and its failure raises
    :class:`InternalError`.

    The intervals are placed in selection order, each at its position by
    left end (equal left ends in selection order).  A run is a stretch of
    placed positions, each meeting the next; ``run[lo] = hi`` and
    ``run[hi] = lo`` hold at its ends, and tags alternate along it.  A
    new interval meets a neighbour only when that neighbour is placed
    and overlaps it, and joins the runs it meets.  When it meets two
    runs whose end tags differ, the smaller run (the right one on a tie)
    has its tags flipped first; a flipped position's run at least
    doubles, so the sweep takes O(n log n).  The new tag differs from
    its left neighbour's, else from its right neighbour's, else is 0.

    Returns the (left, right, input_index) triples by left end and their
    tags.
    """
    order = sorted(range(len(chosen)), key=lambda k: chosen[k][0])
    ivs = [chosen[k] for k in order]
    if not all(map(operator.lt, [iv[1] for iv in ivs], [iv[0] for iv in ivs[2:]])):
        raise InternalError("more than two chosen intervals share a point")
    n = len(ivs)
    tags = bytearray(n)
    run = [-1] * n  # -1 until placed
    for p in sorted(range(n), key=order.__getitem__):
        left, right, _idx = ivs[p]
        lo = run[p - 1] if p and run[p - 1] >= 0 and ivs[p - 1][1] >= left else p
        hi = run[p + 1] if p + 1 < n and run[p + 1] >= 0 and right >= ivs[p + 1][0] else p
        if lo < p < hi and tags[p - 1] != tags[p + 1]:
            a, b = (p + 1, hi + 1) if hi - p <= p - lo else (lo, p)
            tags[a:b] = tags[a:b].translate(_FLIP)
        tags[p] = tags[p - 1] ^ 1 if lo < p else tags[p + 1] ^ 1 if p < hi else 0
        run[lo], run[hi] = hi, lo
    return ivs, tags


def _scattered_anchors(lefts, rights, ids):
    """The greedy pairwise disjoint anchors, as positions, left to right.

    Interval ``k`` is ``[lefts[k], rights[k]]`` with input index
    ``ids[k]``.  Taken longest first, ties by left end, then index, an
    interval becomes an anchor when it meets no anchor taken before it.
    An interval that meets no other is an anchor in any order, so one
    sweep by left end keeps those, and only the others are sorted (on a
    scattered line most intervals meet no other, and skipping their sort
    and ranks takes a third to a half off the scattered cover).  Each
    anchor taken before a candidate is at least as long, so the candidate
    meets it exactly when one of the candidate's endpoints lies inside it
    (a candidate containing an anchor has its length, so, by the tie
    rule, its left end): every endpoint value inside a new anchor is
    marked, by rank, and each test reads two marks.  A new anchor's
    endpoint values were all unmarked, since a marked one would lie
    inside an anchor that it meets, so each is marked once.
    """
    by_left = sorted(range(len(lefts)), key=lefts.__getitem__)
    # opens[j]: the j-th interval by left end starts after every earlier
    # one ends; with opens[j + 1] too, it meets no other interval
    opens = []
    reach = None
    for k in by_left:
        opens.append(reach is None or lefts[k] > reach)
        if reach is None or rights[k] > reach:
            reach = rights[k]
    opens.append(True)
    anchor = bytearray(len(lefts))
    crowded = []
    for j, k in enumerate(by_left):
        if opens[j] and opens[j + 1]:
            anchor[k] = 1
        else:
            crowded.append(k)
    crowded.sort(key=lambda k: (-(rights[k] - lefts[k]), lefts[k], ids[k]))
    ends = [x for k in crowded for x in (lefts[k], rights[k])]
    rank = [0] * len(ends)
    r, prev = -1, None
    for p in sorted(range(len(ends)), key=ends.__getitem__):
        if ends[p] != prev:
            r, prev = r + 1, ends[p]
        rank[p] = r
    inside = bytearray(r + 1)
    for j, k in enumerate(crowded):
        lo, hi = rank[2 * j], rank[2 * j + 1]
        if not (inside[lo] or inside[hi]):
            anchor[k] = 1
            inside[lo:hi + 1] = b"\x01" * (hi + 1 - lo)
    return [k for k in by_left if anchor[k]]


def _scattered_candidates(cs, rs, ids):
    """The (left, right, idx) candidates of the wide-spread decomposition.

    Interval ``k`` is centered at ``cs[k]`` with radius ``rs[k]`` and
    input index ``ids[k]``.  Every interval is assigned to a greedy
    anchor it meets, its home, and each anchor's bundle (the intervals
    at home there) gives its leftmost and rightmost members and the
    anchor itself.
    """
    lefts = list(map(operator.sub, cs, rs))
    rights = list(map(operator.add, cs, rs))
    anchors = _scattered_anchors(lefts, rights, ids)
    anchor_lefts = [lefts[a] for a in anchors]
    anchor_rights = [rights[a] for a in anchors]
    # extras[t]: the members of anchor t's bundle other than the anchor
    extras: dict[int, list] = {}
    for k, (left, right) in enumerate(zip(lefts, rights)):
        pos = bisect_right(anchor_lefts, left)
        if 0 < pos <= len(anchors) and anchors[pos - 1] == k:
            continue  # an anchor, at home in its own bundle
        for t in (pos - 1, pos):
            if 0 <= t < len(anchors) and anchor_lefts[t] <= right and anchor_rights[t] >= left:
                break
        else:
            raise InternalError("greedy anchors must meet every interval")
        extras.setdefault(t, []).append(k)
    # the anchors, then the leftmost and rightmost members of each bundle
    # with more than its anchor (the cover reads the candidates by left
    # end, so their order here does not matter)
    cands = list(zip(anchor_lefts, anchor_rights, map(ids.__getitem__, anchors)))
    for t, members in extras.items():
        bundle = [cands[t]] + [(lefts[k], rights[k], ids[k]) for k in members]
        outermost = (
            min(bundle, key=lambda iv: (iv[0], -iv[1], iv[2])),
            max(bundle, key=lambda iv: (iv[1], -iv[0], -iv[2])),
        )
        cands.extend({iv[2]: iv for iv in outermost if iv is not bundle[0]}.values())
    return cands


def _staircase_two_color(cands, cs):
    """Classic left-to-right point cover with alternating tags.

    ``cands`` are (left, right, idx) candidate intervals whose union
    covers every coordinate in the sorted list ``cs``.  For the leftmost
    uncovered coordinate, the candidate reaching furthest right among
    those containing it is chosen (ties by smaller left end, then index);
    consecutive choices may overlap but choices two apart never do, so
    alternating tags yield two disjoint families.  Candidates are read
    once, by left end: one that starts at or before a chosen coordinate
    ends no later than the choice, so it contains no coordinate left
    uncovered.
    """
    cands = sorted(cands)
    chosen = []
    n, m = len(cs), len(cands)
    ptr, k = 0, 0
    while k < n:
        x = cs[k]
        best = None
        while ptr < m and cands[ptr][0] <= x:
            cand = cands[ptr]
            ptr += 1
            if cand[1] >= x and (
                best is None or (-cand[1], cand[0], cand[2]) < (-best[1], best[0], best[2])
            ):
                best = cand
        if best is None:
            raise InternalError(f"no candidate interval contains {x!r}")
        chosen.append(best)
        reach = best[1]
        while k < n and cs[k] <= reach:
            k += 1
    return chosen


def _check_two_family_cover(chosen, tags, cs) -> None:
    """Raise :class:`InternalError` unless the intervals ``chosen``
    (left, right, input index), tagged ``tags``, carry at most two tags,
    the intervals of each tag are pairwise disjoint, and together they
    cover every coordinate of the sorted list ``cs``; one sweep after a
    sort by left end, on the floats the construction compared."""
    order = sorted(range(len(chosen)), key=chosen.__getitem__)
    if len(set(tags)) > 2:
        raise InternalError(f"the line cover uses {len(set(tags))} families")
    last_right = {}
    for i in order:
        left, right, idx = chosen[i]
        # closed intervals sorted by left end: disjoint iff each starts
        # after the previous one of its family ends
        if tags[i] in last_right and not last_right[tags[i]] < left:
            raise InternalError(f"interval {idx} meets an earlier interval of its family")
        last_right[tags[i]] = right
    k, reach = 0, -math.inf
    for c in cs:
        while k < len(order) and chosen[order[k]][0] <= c:
            if chosen[order[k]][1] > reach:
                reach = chosen[order[k]][1]
            k += 1
        if not c <= reach:
            raise InternalError(f"center {c!r} is not covered by the line cover")


_SCATTERED_DENSITY = 0.3  # the measured crossover (see besicovitch_cover_1d)


def besicovitch_cover_1d(
    family: BallFamily,
    centers: Sequence[float],
) -> DisjointPartition:
    """Cover every center with at most two disjoint interval families.

    Only intervals centered exactly at a listed center participate; each
    center keeps its largest such interval.  The density ``D = 2 * sum(r)
    / spread`` of the kept intervals (``spread`` from the first center to
    the last) picks the construction: the scattered one when ``0 < D <
    0.3``, else, also for one center or all radii zero, the bounded one.
    That runs the greedy largest-radius selection, then a two-coloring
    sweep that flips the smaller of two chains it joins; the scattered
    one takes greedy disjoint anchors, cuts each anchor's bundle to its
    leftmost and rightmost members and the anchor, and covers the centers
    left to right with alternating tags.  The result is checked to cover
    every center with at most two internally disjoint families, and a
    failed check raises :class:`InternalError`.

    0.3 is where the two times cross, measured with radii uniform or
    log-uniform: D = 0.2-0.3 at 3*10^4 intervals, 0.3-0.5 at 3*10^5.  At
    3*10^4 intervals, D = 1 takes the bounded one 0.073 s and the
    scattered one 0.128 s; D = 0.1 takes 0.109 s and 0.086 s.

    Both take O(n log n) time for n intervals: every pass is a sort, a
    binary search per interval or center, a sweep that marks each center
    or endpoint a bounded number of times, or the bounded flips, each of
    which at least doubles a chain.  The cover reads the family's
    ``coords`` and ``radii`` columns and returns column subsets of it,
    so it builds no ``Ball``.
    """
    space = family.space
    if not space.is_line:
        raise UnsupportedFeatureError(
            "the two-family interval algorithm works on the line only"
        )

    cs = sorted(set(map(float, centers)))
    # best[x]: the index of the largest interval centered at x, the first
    # of equal ones
    radii = family.radii
    best = {}
    for i, (c, r) in enumerate(zip([c[0] for c in family.coords], radii)):
        if c not in best or r > radii[best[c]]:
            best[c] = i
    try:
        ids = list(map(best.__getitem__, cs))
    except KeyError as exc:
        raise InputError(f"center {exc.args[0]!r} has no interval centered on it") from None
    rs = list(map(radii.__getitem__, ids))

    # D < 0.3 as a product, so a zero spread is never divided by (and an
    # empty cs never read); fsum makes the choice the same on every Python
    try:
        scattered = 0.0 < 2.0 * math.fsum(rs) < _SCATTERED_DENSITY * (cs[-1] - cs[0])
    except OverflowError:  # the radii sum beyond the float range: a dense line
        scattered = False
    if scattered:
        chosen = _staircase_two_color(_scattered_candidates(cs, rs, ids), cs)
        # tags alternate in the order of choice; the intervals go by left end
        order = sorted(range(len(chosen)), key=chosen.__getitem__)
        chosen, tags = [chosen[i] for i in order], [i % 2 for i in order]
    else:
        chosen, tags = _phase_b_two_color(_phase_a_greedy(cs, rs, ids))
    _check_two_family_cover(chosen, tags, cs)

    # families in tag order, dropping an absent tag
    members = [[iv[2] for iv, t in zip(chosen, tags) if t == tag] for tag in sorted(set(tags))]
    assignment = [-1] * len(family)
    for f, ms in enumerate(members):
        for idx in ms:
            assignment[idx] = f

    return DisjointPartition(
        families=tuple(family._subset(ms) for ms in members),
        assignment=tuple(assignment),
        family_count_bound=2,
        tags=tuple(tags),
    )


# ---------------------------------------------------------------------------
# threshold selection with exact separation
# ---------------------------------------------------------------------------


def _check_separation(selected: BallFamily, s: float) -> None:
    """Raise unless ``distance(x_t, x_j) > s * max(r_t, r_j)`` on all pairs."""
    space, centers, radii = selected.space, selected.centers, selected.radii
    grid = _Grid(space, centers, 2.0 * s * max(radii, default=0.0))
    for j, (c, r) in enumerate(zip(centers, radii)):
        for t in grid.near(c.coords, s * r):
            if not distance(space, centers[t], c) > s * max(radii[t], r):
                raise InternalError("selection lost its separation guarantee")
        grid.add(c.coords, s * r, j)


def cip_subcover(
    family: BallFamily,
    m: int,
    s: float,
    beta: float = 0.5,
) -> SubcoverResult:
    """Band-by-band threshold selection over the balls' own centers.

    Within each radius band, the largest ball whose center is not yet
    covered is selected repeatedly; the chosen radius always exceeds
    ``s`` times the supremum of the remaining admissible radii.  The
    output is checked for the exact separation
    ``distance(x_t, x_j) > s * max(r_t, r_j)`` on all selected pairs, and
    for pairwise center exclusion of the ``s``-shrunk selected balls.
    ``m`` is the order of the intersection-contraction hypothesis the
    bound lives under; it is validated but does not alter the greedy.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InputError(f"m must be a positive integer, got {m!r}")
    _check_ratio("s", s)
    _check_ratio("beta", beta)
    space, coords, radii = family.space, family.coords, family.radii
    centers = family.centers
    n = len(family)
    order = sorted(range(n), key=lambda i: (-radii[i], coords[i], i))
    by_band = _assign_bands([(radii[i], i) for i in order], beta)

    covered = [False] * n
    selected_idx: list[int] = []
    selected_bands: list[int] = []
    for band in sorted(by_band):
        pool = by_band[band]
        while True:
            pick = next((i for i in pool if not covered[i]), None)
            if pick is None:
                break
            selected_idx.append(pick)
            selected_bands.append(band)
            for i in range(n):
                if not covered[i] and distance(space, centers[i], centers[pick]) <= radii[pick]:
                    covered[i] = True

    selected = family._subset(selected_idx)
    _check_separation(selected, s)
    profile = _profile_for(selected, centers)
    return SubcoverResult(
        selected=selected,
        covered_centers=tuple(covered),
        overlap=profile,
        bands=tuple(selected_bands),
    )


# ---------------------------------------------------------------------------
# quasi-round partition
# ---------------------------------------------------------------------------


def morse_partition(
    space: Space,
    sets,
    tau: float,
    lam: float,
) -> DisjointPartition:
    """Disjointly color the outer balls of quasi-round sets.

    Sets are processed in diameter bands shrinking by ``tau`` (realized
    by a largest-diameter-first order); each set's outer ball
    ``B(anchor, lam * inner_radius)`` goes to the lowest-index family in
    which it is disjoint from all assigned outer balls.  On spaces with
    a finite injectivity radius, diameters must stay under one eighth of
    a quarter injectivity radius and inner radii under a quarter
    injectivity radius divided by ``4*lam + 1``.  The reported family
    bound is a heuristic volume-ratio count and is flagged empirical.
    ``tau`` must lie in (1, 2] and ``lam`` in [1, inf).
    """
    if not 1.0 < tau <= 2.0:
        raise InputError(f"tau must lie in (1, 2], got {tau!r}")
    if not 1.0 <= lam < math.inf:
        raise InputError(f"lam must be finite and >= 1, got {lam!r}")
    sets = list(sets)
    for k, qs in enumerate(sets):
        if qs.lam > lam * (1.0 + 1e-12):
            raise InputError(
                f"set {k} has roundness {qs.lam}, exceeding the given {lam}"
            )
        if len(qs.anchor.coords) != space.ambient_dim:
            raise InputError(f"set {k} anchor does not live in the given space")
    inj = injectivity_radius(space)
    if math.isfinite(inj):
        cap = inj / 4.0
        for k, qs in enumerate(sets):
            if qs.diameter > cap / 8.0:
                raise DomainError(
                    f"set {k} diameter {qs.diameter} exceeds the cap {cap / 8.0}"
                )
            if not qs.inner_radius < cap / (4.0 * lam + 1.0):
                raise DomainError(
                    f"set {k} inner radius {qs.inner_radius} exceeds the cap "
                    f"{cap / (4.0 * lam + 1.0)}"
                )

    outer = BallFamily(space, [Ball(qs.anchor, lam * qs.inner_radius) for qs in sets])
    order = sorted(
        range(len(sets)),
        key=lambda k: (-sets[k].diameter, sets[k].anchor.coords, k),
    )
    families, assignment = _first_fit(space, [qs.anchor for qs in sets], outer.radii, order)

    dim = space.dim
    bound = math.ceil((4.0 * lam * tau + 1.0) ** dim) + math.ceil(
        (2.0 * lam * tau + 1.0) ** dim
    ) * math.ceil((2.0 * lam + 3.0) ** dim)
    return DisjointPartition(
        families=tuple(map(outer._subset, families)),
        assignment=tuple(assignment),
        family_count_bound=bound,
        bound_is_empirical=True,
    )
