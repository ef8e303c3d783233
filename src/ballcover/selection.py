"""Constructive covering selections over finite ball families.

Four deterministic procedures share the same skeleton: group balls into
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

The greedy loops test one ball against every ball already chosen with
one call of the row form of :func:`~ballcover.geometry.distance`, whose
entries equal the scalar distances, so each decision is the one a
pairwise loop would make.  Violated internal guarantees raise
:class:`~ballcover.errors.InternalError`, never a bare ``assert``.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .covering import BallFamily, OverlapProfile, overlap_profile, strict_net_bound
from .errors import DomainError, InputError, InternalError, UnsupportedFeatureError
from .geometry import Ball, Point, Space, _coord_rows, distance, injectivity_radius

__all__ = [
    "SubcoverResult",
    "DisjointPartition",
    "ChainState",
    "select_bounded_overlap_subcover",
    "partition_into_disjoint_families",
    "besicovitch_cover_1d",
    "cip_subcover",
    "morse_partition",
]


@dataclass(frozen=True)
class SubcoverResult:
    """A selected subfamily together with its coverage evidence.

    ``bands[k]`` is the scale-band index of ``selected[k]``: band ``i``
    holds radii in ``(beta**i * R, beta**(i-1) * R]`` where ``R`` is the
    largest input radius (zero-radius balls get the first unused index).
    """

    selected: BallFamily
    covered_centers: tuple
    overlap: OverlapProfile
    bands: tuple


@dataclass(frozen=True)
class ChainState:
    """Left-to-right record of the two-family interval structure.

    ``tags[k]`` is the family tag (0 or 1) of the k-th kept interval in
    left-to-right order and ``chain_ids[k]`` the index of the maximal run
    of pairwise-touching intervals it belongs to.  Within a chain,
    consecutive intervals intersect and therefore must alternate tags.
    """

    tags: tuple
    chain_ids: tuple


@dataclass(frozen=True)
class DisjointPartition:
    """Balls split into families that are internally pairwise disjoint.

    ``assignment[i]`` maps input index ``i`` to its family index, or -1
    when the i-th input ball was not part of the final selection.
    ``family_count_bound`` reports the bound the construction guarantees
    or estimates; ``bound_is_empirical`` distinguishes a certified bound
    from a heuristic one.
    """

    families: tuple
    assignment: tuple
    family_count_bound: Optional[int] = None
    bound_is_empirical: bool = False
    chain_state: Optional[ChainState] = None


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _check_ratio(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise InputError(f"{name} must lie in (0, 1), got {value!r}")


def _covers(space: Space, ball: Ball, p: Point) -> bool:
    return distance(space, p, ball.center) <= ball.radius


def _assign_bands(pairs, ratio):
    """Assign a geometric band index to each value, largest first.

    ``pairs`` is a list of (value, payload) tuples already sorted by
    descending value; returns (band_index, value, payload) triples in
    the same order.  Band ``i`` holds values in
    ``(ratio**i * top, ratio**(i-1) * top]`` where ``top`` is the
    largest value; values of exactly zero share the first unused index.
    """
    out = []
    if not pairs:
        return out
    top = pairs[0][0]
    band, lo = 1, ratio * top
    zero_band = None
    for value, payload in pairs:
        if value <= 0.0:
            if zero_band is None:
                zero_band = band + 1 if top > 0.0 else 1
            out.append((zero_band, value, payload))
            continue
        while value <= lo:
            band += 1
            lo *= ratio
        out.append((band, value, payload))
    return out


# ---------------------------------------------------------------------------
# bounded-overlap subcover
# ---------------------------------------------------------------------------


def _profile_for(family_out: BallFamily, probes) -> OverlapProfile:
    space = family_out.space
    if space.kind == "euclidean" and space.dim == 1:
        return overlap_profile(family_out, exact_1d=True)
    return overlap_profile(family_out, probes=list(probes))


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
    space = family.space
    center_list = list(centers)
    by_coords = {}
    for i, b in enumerate(family):
        by_coords.setdefault(b.center.coords, []).append(i)
    ball_to_center = {}
    for ci, p in enumerate(center_list):
        owners = by_coords.get(p.coords)
        if not owners:
            raise InputError(f"center {ci} has no ball centered on it")
        for bi in owners:
            ball_to_center.setdefault(bi, ci)
    covered = [False] * len(center_list)

    candidates = sorted(
        ball_to_center,
        key=lambda i: (-family[i].radius, family[i].center.coords, i),
    )
    banded = _assign_bands([(family[i].radius, i) for i in candidates], beta)
    by_band = {}
    for band, _r, i in banded:
        by_band.setdefault(band, []).append(i)

    # the current round's balls, as rows
    round_rows = np.empty((len(family), space.ambient_dim))
    round_radii = np.empty(len(family))
    selected_idx = []
    selected_bands = []
    for band in sorted(by_band):
        while True:
            pool = [i for i in by_band[band] if not covered[ball_to_center[i]]]
            if not pool:
                break
            k = 0
            for i in pool:
                b = family[i]
                d = distance(space, b.center, round_rows[:k])
                if np.all(d > b.radius + round_radii[:k]):
                    round_rows[k], round_radii[k] = b.center.coords, b.radius
                    selected_idx.append(i)
                    selected_bands.append(band)
                    k += 1
            for ci, p in enumerate(center_list):
                if not covered[ci] and np.any(
                    distance(space, p, round_rows[:k]) <= round_radii[:k]
                ):
                    covered[ci] = True

    selected = BallFamily(space, tuple(family[i] for i in selected_idx))
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


def _first_fit(space: Space, balls, order) -> tuple:
    """Greedy colouring of ``balls`` visited in ``order``.

    Each ball takes the lowest colour that no already coloured ball
    meeting it carries (closed balls meet when the center distance is at
    most the radius sum).  A colour's balls are its family, so this is
    the rule "the lowest family where the ball is disjoint from every
    member, else a new family".  Returns the families, as input indices
    in colouring order, and the input-indexed colour assignment.
    """
    rows = _coord_rows([balls[i].center for i in order], space.ambient_dim)
    radii = np.array([balls[i].radius for i in order], dtype=float)
    colours = np.empty(len(order), dtype=np.intp)
    families: list[list[int]] = []
    assignment = [-1] * len(balls)
    for t, i in enumerate(order):
        d = distance(space, balls[i].center, rows[:t])
        used = np.zeros(len(families) + 1, dtype=bool)
        used[colours[:t][~(d > radii[t] + radii[:t])]] = True
        f = int(np.argmin(used))
        if f == len(families):
            families.append([])
        families[f].append(i)
        assignment[i] = colours[t] = f
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
    space = family.space
    n = len(family)
    order = sorted(
        range(n), key=lambda i: (-family[i].radius, family[i].center.coords, i)
    )
    families, assignment = _first_fit(space, family.balls, order)

    if n:
        profile = _profile_for(family, [b.center for b in family])
        exact = space.kind == "euclidean" and space.dim == 1
        bound = profile.max_overlap * strict_net_bound(alpha, space.dim) + 1
    else:
        exact, bound = True, 1
    return DisjointPartition(
        families=tuple(
            BallFamily(space, tuple(family[i] for i in members))
            for members in families
        ),
        assignment=tuple(assignment),
        family_count_bound=bound,
        bound_is_empirical=not exact,
    )


# ---------------------------------------------------------------------------
# the complete 1-D algorithm
# ---------------------------------------------------------------------------


class _Iv:
    __slots__ = ("left", "right", "idx", "tag", "node", "alive")

    def __init__(self, left, right, idx):
        self.left = left
        self.right = right
        self.idx = idx
        self.tag = 0
        self.node = -1
        self.alive = True


class _Chains:
    """Disjoint-set over kept intervals with taggable member lists."""

    def __init__(self):
        self.parent = []
        self.size = []
        self.members = []

    def make(self, rec) -> int:
        node = len(self.parent)
        self.parent.append(node)
        self.size.append(1)
        self.members.append([rec])
        rec.node = node
        return node

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.members[ra].extend(self.members[rb])
        self.members[rb] = []
        return ra

    def flip_smaller(self, a: int, b: int) -> None:
        """Toggle every tag in the smaller of the two distinct chains."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            raise InternalError("conflicting constraints inside a single chain")
        smaller = rb if self.size[rb] <= self.size[ra] else ra
        for rec in self.members[smaller]:
            rec.tag ^= 1


def _phase_a_greedy(items, cs):
    """Largest-radius-first selection until every center is covered.

    ``items`` maps each center to its best interval; returns the chosen
    (left, right, input_index) triples in selection order.  The chosen
    radius is always the maximum over uncovered centers, which satisfies
    the required more-than-half-the-supremum rule, makes radii
    non-increasing along the selection, and guarantees that no chosen
    interval contains another chosen interval or its center.
    """
    pos = {c: k for k, c in enumerate(cs)}
    nxt = list(range(len(cs) + 1))

    def find(k):
        root = k
        while nxt[root] != root:
            root = nxt[root]
        while nxt[k] != root:
            nxt[k], k = root, nxt[k]
        return root

    heap = [(-r, c, idx) for c, (r, idx) in items.items()]
    heapq.heapify(heap)
    chosen = []
    remaining = len(cs)
    while heap and remaining:
        negr, c, idx = heapq.heappop(heap)
        k = pos[c]
        if find(k) != k:
            continue
        r = -negr
        left, right = c - r, c + r
        chosen.append((left, right, idx))
        j = find(bisect_left(cs, left))
        while j < len(cs) and cs[j] <= right:
            nxt[j] = j + 1
            remaining -= 1
            j = find(j + 1)
    return chosen


def _phase_b_two_color(chosen):
    """Incrementally maintain two disjoint families over the selection.

    Each new interval can meet at most two kept intervals at each of its
    endpoints; when an endpoint has two, the inner one is contained in
    the union of the outer one and the new interval and is dropped.  The
    survivors force the new interval's tag; when the two survivors carry
    different tags they belong to different chains (the new interval's
    center is covered by neither side), and all tags in the smaller
    chain are flipped before the tag is assigned.
    """
    chains = _Chains()
    kept_lefts: list[float] = []
    kept: list[_Iv] = []

    for left, right, idx in chosen:
        rec = _Iv(left, right, idx)
        survivors = []
        for end, x in enumerate((left, right)):
            pos = bisect_right(kept_lefts, x)
            hits = []
            for t in (pos - 1, pos - 2):
                if t >= 0 and kept[t].right >= x and kept[t] not in hits:
                    hits.append(kept[t])
            if pos - 3 >= 0 and not kept[pos - 3].right < x:
                raise InternalError("more than two kept intervals hit one endpoint")
            hits = [h for h in hits if h not in survivors]
            if len(hits) == 2:
                # hits[0] has the larger left (found at pos-1).  At the
                # left endpoint that is the inner hit (reaching furthest
                # into the new interval); at the right endpoint the inner
                # hit is the one with the smaller left, hits[1].
                inner = hits[0] if end == 0 else hits[1]
                outer = hits[1] if end == 0 else hits[0]
                at = bisect_left(kept_lefts, inner.left)
                inner.alive = False
                kept_lefts.pop(at)
                kept.pop(at)
                survivors.append(outer)
            elif len(hits) == 1:
                survivors.append(hits[0])

        chains.make(rec)
        if not survivors:
            rec.tag = 0
        elif len(survivors) == 1:
            rec.tag = survivors[0].tag ^ 1
            chains.union(rec.node, survivors[0].node)
        else:
            a, b = survivors
            if a.tag != b.tag:
                chains.flip_smaller(a.node, b.node)
            rec.tag = a.tag ^ 1
            chains.union(rec.node, a.node)
            chains.union(rec.node, b.node)

        at = bisect_right(kept_lefts, rec.left)
        kept_lefts.insert(at, rec.left)
        kept.insert(at, rec)
    return kept


def _staircase_two_color(cands, cs):
    """Classic left-to-right point cover with alternating tags.

    ``cands`` are (left, right, idx) candidate intervals whose union
    covers every coordinate in the sorted list ``cs``.  For the leftmost
    uncovered coordinate, the candidate reaching furthest right among
    those containing it is chosen; consecutive choices may overlap but
    choices two apart never do, so alternating tags yield two disjoint
    families.
    """
    cands = sorted(cands, key=lambda t: (t[0], -t[1], t[2]))
    chosen = []
    heap = []
    ptr = 0
    k = 0
    while k < len(cs):
        x = cs[k]
        while ptr < len(cands) and cands[ptr][0] <= x:
            left, right, idx = cands[ptr]
            heapq.heappush(heap, (-right, left, idx))
            ptr += 1
        while heap and -heap[0][0] < x:
            heapq.heappop(heap)
        if not heap:
            raise InternalError(f"no candidate interval contains {x!r}")
        negright, left, idx = heapq.heappop(heap)
        chosen.append((left, -negright, idx))
        k = bisect_right(cs, -negright)
    return chosen


def besicovitch_cover_1d(
    family: BallFamily,
    centers: Sequence[float],
    mode: str = "auto",
) -> DisjointPartition:
    """Cover every center with at most two disjoint interval families.

    Only intervals centered exactly at a listed center participate; each
    center keeps its largest such interval.  ``mode`` selects the
    construction: ``"bounded"`` runs the greedy largest-radius selection
    followed by incremental two-coloring with exchange and chain-flip
    repairs; ``"scattered"`` runs the wide-spread decomposition (greedy
    disjoint anchors, reduction of each anchor's bundle to its leftmost
    and rightmost members plus the anchor, then a left-to-right point
    cover with alternating tags); ``"auto"`` picks ``"scattered"`` when
    the center spread exceeds 1000 times the largest radius.  Both
    constructions cover all centers with at most two internally disjoint
    families.
    """
    space = family.space
    if space.kind != "euclidean" or space.dim != 1:
        raise UnsupportedFeatureError(
            "the two-family interval algorithm works on the line only"
        )
    if mode not in ("auto", "bounded", "scattered"):
        raise InputError(f"unknown mode {mode!r}")

    n = len(family)
    cs = sorted({float(c) for c in centers})
    best: dict[float, tuple] = {}
    for i, b in enumerate(family):
        c = b.center.coords[0]
        cur = best.get(c)
        if cur is None or b.radius > cur[0]:
            best[c] = (b.radius, i)
    items = {}
    for ci, c in enumerate(cs):
        if c not in best:
            raise InputError(f"center {c!r} has no interval centered on it")
        items[c] = best[c]

    if not cs:
        return DisjointPartition(
            families=(),
            assignment=tuple([-1] * n),
            family_count_bound=2,
            chain_state=ChainState((), ()),
        )

    max_r = max(r for r, _ in items.values())
    spread = cs[-1] - cs[0]
    if mode == "auto":
        mode = "scattered" if spread > 1000.0 * max_r and max_r > 0.0 else "bounded"

    if mode == "bounded":
        chosen = _phase_a_greedy(items, cs)
        kept = _phase_b_two_color(chosen)
        final = [(r.left, r.right, r.idx, r.tag) for r in kept]
    else:
        triples = [
            (c - r, c + r, idx) for c, (r, idx) in items.items()
        ]
        triples.sort(key=lambda t: (-(t[1] - t[0]), t[0], t[2]))
        anchor_lefts: list[float] = []
        anchors: list[tuple] = []
        for left, right, idx in triples:
            pos = bisect_right(anchor_lefts, left)
            intersecting = any(
                anchors[t][0] <= right and anchors[t][1] >= left
                for t in (pos - 1, pos)
                if 0 <= t < len(anchors)
            )
            if not intersecting:
                anchor_lefts.insert(pos, left)
                anchors.insert(pos, (left, right, idx))
        # second pass: assign every interval to an intersecting anchor
        groups: dict[int, list] = {k: [] for k in range(len(anchors))}
        for left, right, idx in triples:
            pos = bisect_right(anchor_lefts, left)
            home = None
            for t in (pos - 1, pos):
                if 0 <= t < len(anchors):
                    al, ar, _ai = anchors[t]
                    if al <= right and ar >= left:
                        home = t
                        break
            if home is None:
                raise InternalError("greedy anchors must meet every interval")
            groups[home].append((left, right, idx))
        cands = []
        seen = set()
        for k, (al, ar, ai) in enumerate(anchors):
            bundle = groups[k]
            picks = [
                min(bundle, key=lambda t: (t[0], -t[1], t[2])),
                (al, ar, ai),
                max(bundle, key=lambda t: (t[1], -t[0], -t[2])),
            ]
            for p in picks:
                if p[2] not in seen:
                    seen.add(p[2])
                    cands.append(p)
        chosen = _staircase_two_color(cands, cs)
        final = [
            (left, right, idx, k % 2) for k, (left, right, idx) in enumerate(chosen)
        ]
        final.sort()

    # families in tag order, dropping an absent tag
    present = sorted({t for _l, _r, _i, t in final})
    fam_index = {t: f for f, t in enumerate(present)}
    members: list[list[int]] = [[] for _ in present]
    assignment = [-1] * n
    for left, right, idx, t in final:
        members[fam_index[t]].append(idx)
        assignment[idx] = fam_index[t]

    chain_ids = []
    chain = -1
    prev_right = None
    for left, right, _idx, _t in final:
        if prev_right is None or left > prev_right:
            chain += 1
        chain_ids.append(chain)
        prev_right = max(prev_right, right) if prev_right is not None else right

    return DisjointPartition(
        families=tuple(
            BallFamily(space, tuple(family[i] for i in ms)) for ms in members
        ),
        assignment=tuple(assignment),
        family_count_bound=2,
        bound_is_empirical=False,
        chain_state=ChainState(
            tuple(t for _l, _r, _i, t in final),
            tuple(chain_ids),
        ),
    )


# ---------------------------------------------------------------------------
# threshold selection with exact separation
# ---------------------------------------------------------------------------


def _check_separation(selected: BallFamily, s: float) -> None:
    """Raise unless ``distance(x_t, x_j) > s * max(r_t, r_j)`` on all pairs."""
    space = selected.space
    rows = _coord_rows(selected.centers, space.ambient_dim)
    radii = np.array(selected.radii, dtype=float)
    for t, b in enumerate(selected.balls[:-1]):
        d = distance(space, b.center, rows[t + 1:])
        if not np.all(d > s * np.maximum(b.radius, radii[t + 1:])):
            raise InternalError("selection lost its separation guarantee")


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
    space = family.space
    n = len(family)
    order = sorted(
        range(n), key=lambda i: (-family[i].radius, family[i].center.coords, i)
    )
    banded = _assign_bands([(family[i].radius, i) for i in order], beta)
    by_band: dict[int, list] = {}
    for band, _r, i in banded:
        by_band.setdefault(band, []).append(i)

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
            chosen = family[pick]
            for i in range(n):
                if not covered[i] and _covers(space, chosen, family[i].center):
                    covered[i] = True

    selected = BallFamily(space, tuple(family[i] for i in selected_idx))
    _check_separation(selected, s)
    profile = _profile_for(selected, [b.center for b in family])
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
    """
    if not 1.0 < tau <= 2.0:
        raise InputError(f"tau must lie in (1, 2], got {tau!r}")
    if lam < 1.0:
        raise InputError(f"lam must be >= 1, got {lam!r}")
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

    outer = [Ball(qs.anchor, lam * qs.inner_radius) for qs in sets]
    order = sorted(
        range(len(sets)),
        key=lambda k: (-sets[k].diameter, sets[k].anchor.coords, k),
    )
    families, assignment = _first_fit(space, outer, order)

    dim = space.dim
    bound = math.ceil((4.0 * lam * tau + 1.0) ** dim) + math.ceil(
        (2.0 * lam * tau + 1.0) ** dim
    ) * math.ceil((2.0 * lam + 3.0) ** dim)
    return DisjointPartition(
        families=tuple(
            BallFamily(space, tuple(outer[k] for k in ms)) for ms in families
        ),
        assignment=tuple(assignment),
        family_count_bound=bound,
        bound_is_empirical=True,
    )
