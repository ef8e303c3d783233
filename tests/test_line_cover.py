"""The line cover against a frozen copy of its quadratic predecessor.

``reference_cover_1d`` and its stages below are the heap-and-insert
implementation of ``besicovitch_cover_1d`` as it stood before the cover
moved to columns and near-linear passes, kept as it was (renamed, with
the annotations of its signature dropped, and returning the tags without
the chain ids the cover no longer reports) as the reference.  The cover
picks its construction from the density of the line, and the reference
is run with the one that rule picks, and with each one forced.  Every
comparison is ``==`` on whole ``DisjointPartition``s: the same families,
assignment and tags, on random inputs and on adversarial ones, for a
family of ``Ball``s and for the same family as columns.
The stages are also compared one by one where their inputs can be
chosen freely (phase B, the staircase), and ``oned`` is checked to build
no ``Ball`` or ``Point``.
"""

import heapq
import json
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter

import pytest

from ballcover import Ball, BallFamily, InputError, InternalError, Point, Space
from ballcover.cli import run_command
from ballcover.errors import UnsupportedFeatureError
from ballcover import selection
from ballcover.selection import DisjointPartition, besicovitch_cover_1d

E1 = Space.euclidean(1)

# ---------------------------------------------------------------------------
# the reference: the cover as it was, with heapq and sorted-list inserts
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


def _check_two_family_cover(final, cs) -> None:
    """Raise :class:`InternalError` unless the intervals ``final``
    (left, right, input index, tag) carry at most two tags, the intervals
    of each tag are pairwise disjoint, and together they cover every
    coordinate of the sorted list ``cs``; one sweep after a sort by left
    end, on the floats the construction compared."""
    final = sorted(final)
    tags = {t for _l, _r, _i, t in final}
    if len(tags) > 2:
        raise InternalError(f"the line cover uses {len(tags)} families")
    last_right = {}
    for left, right, idx, t in final:
        # closed intervals sorted by left end: disjoint iff each starts
        # after the previous one of its family ends
        if t in last_right and not last_right[t] < left:
            raise InternalError(f"interval {idx} meets an earlier interval of its family")
        last_right[t] = right
    k, reach = 0, -math.inf
    for c in cs:
        while k < len(final) and final[k][0] <= c:
            reach = max(reach, final[k][1])
            k += 1
        if not c <= reach:
            raise InternalError(f"center {c!r} is not covered by the line cover")


def reference_cover_1d(
    family,
    centers,
    mode: str = "auto",
):
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
    families; the result is checked for exactly that before it is
    returned, and a failed check raises :class:`InternalError`.
    """
    space = family.space
    if not space.is_line:
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
            tags=(),
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
    _check_two_family_cover(final, cs)

    # families in tag order, dropping an absent tag
    present = sorted({t for _l, _r, _i, t in final})
    fam_index = {t: f for f, t in enumerate(present)}
    members: list[list[int]] = [[] for _ in present]
    assignment = [-1] * n
    for left, right, idx, t in final:
        members[fam_index[t]].append(idx)
        assignment[idx] = fam_index[t]

    return DisjointPartition(
        families=tuple(
            BallFamily(space, tuple(family[i] for i in ms)) for ms in members
        ),
        assignment=tuple(assignment),
        family_count_bound=2,
        bound_is_empirical=False,
        tags=tuple(t for _l, _r, _i, t in final),
    )


# ---------------------------------------------------------------------------
# the cover equals the reference
# ---------------------------------------------------------------------------


def family_of(pairs):
    return BallFamily(E1, tuple(Ball(Point((float(c),)), float(r)) for c, r in pairs))


def outcome(cover, family, centers, *mode):
    """The partition, or the class and message of the error raised."""
    try:
        return cover(family, list(centers), *mode)
    except (InputError, InternalError, UnsupportedFeatureError) as exc:
        return type(exc).__name__, str(exc)


def rule(pairs, centers, threshold):
    """The construction the cover's density rule picks: scattered when
    the kept intervals (the largest on each center) have
    ``0 < 2 * sum(r) < threshold * spread``."""
    best = {}
    for c, r in pairs:
        best[float(c)] = max(best.get(float(c), r), r)
    cs = sorted({float(c) for c in centers} & set(best))
    if not cs:
        return "bounded"
    try:
        mass = 2.0 * math.fsum(best[c] for c in cs)
    except OverflowError:
        return "bounded"
    return "scattered" if 0.0 < mass < threshold * (cs[-1] - cs[0]) else "bounded"


def assert_same_cover(pairs, centers=None):
    """The cover equals the reference run with the construction the rule
    picks, also with the threshold forced to 0 (always bounded) and to
    infinity (scattered whenever the radii and the spread are not 0)."""
    family = family_of(pairs)
    columns = BallFamily.from_columns(E1, [(float(c),) for c, _r in pairs],
                                      [float(r) for _c, r in pairs])
    if centers is None:
        centers = [c for c, _r in pairs]
    for threshold in (selection._SCATTERED_DENSITY, 0.0, math.inf):
        mode = rule(pairs, centers, threshold)
        want = outcome(reference_cover_1d, family, centers, mode)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selection, "_SCATTERED_DENSITY", threshold)
            assert outcome(besicovitch_cover_1d, family, centers) == want, mode
            # the same decisions when the family is given as columns
            assert outcome(besicovitch_cover_1d, columns, centers) == want, mode


def random_pairs(rng, n, spread, rlo, rhi, log=False):
    if log:
        return [(rng.uniform(0.0, spread), math.exp(rng.uniform(math.log(rlo), math.log(rhi))))
                for _ in range(n)]
    return [(rng.uniform(0.0, spread), rng.uniform(rlo, rhi)) for _ in range(n)]


@pytest.mark.parametrize("seed", range(60))
def test_random_lines_match_the_reference(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3, 5, 8, 20, 60])
    shape = seed % 4
    if shape == 0:  # bounded-like: dense, radii over two decades
        pairs = random_pairs(rng, n, 4.0 * n, 0.5, 50.0, log=True)
    elif shape == 1:  # scattered-like: spread far above the radii
        pairs = random_pairs(rng, n, 1e5 * n, 1.0, 10.0)
    elif shape == 2:  # integer grid: equal and touching ends, duplicate centers
        pairs = [(rng.randrange(2 * n), rng.randrange(12) * 0.5) for _ in range(n)]
    else:  # heavy overlap
        pairs = random_pairs(rng, n, 10.0, 0.1, 20.0)
    assert_same_cover(pairs)
    # a center list smaller than the family
    centers = sorted({c for c, _r in pairs})
    assert_same_cover(pairs, centers[::2])


@pytest.mark.parametrize("seed", range(3))
def test_large_random_lines_match_the_reference(seed):
    rng = random.Random(1000 + seed)
    assert_same_cover(random_pairs(rng, 3000, 4000.0, 0.5, 50.0, log=True))
    assert_same_cover(random_pairs(rng, 3000, 1e9, 1.0, 10.0))
    assert_same_cover(random_pairs(rng, 3000, 300.0, 0.5, 3.0))


ADVERSARIAL = {
    "empty": [],
    "one": [(0.0, 1.0)],
    "one zero radius": [(3.0, 0.0)],
    "nested, shared center": [(0.0, r) for r in (1.0, 2.0, 3.0, 5.0)],
    "nested, shifted centers": [(0.01 * k, 100.0 - k) for k in range(40)],
    "nested both ways": [(float(k), 50.0 - abs(k - 20)) for k in range(41)],
    "equal lengths": [(0.7 * k, 1.0) for k in range(50)],
    "equal lengths, far apart": [(1e4 * k, 1.0) for k in range(30)],
    "touching ends": [(2.0 * k, 1.0) for k in range(30)],
    "touching chains of two sizes": [(3.0 * k, 1.5 if k % 2 else 1.5) for k in range(20)]
    + [(3.0 * k + 1.5, 0.0) for k in range(20)],
    "duplicate centers": [(float(k // 3), 0.5 + (k % 3)) for k in range(45)],
    "duplicate centers, equal radii": [(float(k // 2), 1.0) for k in range(40)],
    "duplicate centers, first largest": [(0.0, 2.0), (0.0, 1.0), (5.0, 2.0), (5.0, 2.0)],
    "zero radii": [(float(k), 0.0) for k in range(20)],
    "zero and positive radii": [(0.5 * k, 0.0 if k % 3 else 0.75) for k in range(40)],
    "signed zero centers": [(0.0, 1.0), (-0.0, 2.0), (3.0, 1.0), (-3.0, 0.0)],
    "near 2**53": [(2.0 ** 53 + 2 * k, (0.5, 1.0, 3.0, 0.0)[k % 4]) for k in range(40)],
    "near 2**53, scattered": [(2.0 ** 53 + 2e9 * k, 1.0 + (k % 3)) for k in range(40)],
    "near -2**53": [(-(2.0 ** 53) - 4 * k, float(k % 5)) for k in range(40)],
    # phase A chooses both, and the second interval's left end rounds to
    # -(2**53 + 2), the first center
    "binade crossing below -2**53": [(-(2.0 ** 53 + 2), 2.25), (-(2.0 ** 53) + 1, 2.25)],
    "huge radius": [(0.0, 1e300), (1.0, 1.0), (-1e300, 2.0), (1e300, 1e299)],
    "one long, many short": [(0.0, 1e6)] + [(1e3 * k, 1.0) for k in range(1, 40)],
    "staircase of decreasing radii": [(float(sum(range(k))), 40.0 - k) for k in range(1, 40)],
    # [1, 11] is an anchor; [-1, 5] and [-1, 1] join its bundle, and the
    # longer of the two is its leftmost member
    "bundle with two leftmost members": [(6.0, 5.0), (2.0, 3.0), (0.0, 1.0)],
    # [10, 20] joins the bundle of [0, 12] and ends where the anchor
    # [15, 20] ends: the cover takes the one with the smaller left end
    "equal right ends across bundles": [(6.0, 6.0), (15.0, 5.0), (17.5, 2.5)],
    # two centers, one interval: both give [2**53 - 5, 2**53 + 4]
    "one interval from two centers": [(2.0 ** 53, 5.0), (2.0 ** 53 - 1, 4.0),
                                      (2.0 ** 53 + 6, 1.0), (2.0 ** 53 - 8, 2.0)],
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_lines_match_the_reference(name):
    pairs = ADVERSARIAL[name]
    assert_same_cover(pairs)
    centers = sorted({c for c, _r in pairs})
    assert_same_cover(pairs, centers[1::2])
    assert_same_cover(pairs, [])


def test_errors_match_the_reference():
    pairs = [(0.0, 1.0), (2.0, 1.0)]
    assert_same_cover(pairs, [0.0, 1.0])  # a center with no interval on it
    plane = BallFamily(Space.euclidean(2), (Ball(Point((0.0, 0.0)), 1.0),))
    assert outcome(besicovitch_cover_1d, plane, [0.0]) == outcome(
        reference_cover_1d, plane, [0.0])


def test_phase_b_matches_the_reference_on_chosen_lists():
    """The sweep raises on every list where, by left end, an interval
    meets the one two places after it, as it does whenever three
    intervals share a point.  On every other list it keeps the
    reference's intervals; it tags them as the reference does where no
    interval holds another, as phase A's lists are but for rounding, and
    gives intervals that meet different tags everywhere.  The lists also
    hold shapes phase A never makes: shared left ends and intervals
    inside others."""
    from ballcover import selection

    rng = random.Random(7)
    seen = Counter()
    for _ in range(300):
        chosen = []
        for idx in range(rng.randrange(1, 12)):
            left = float(rng.randrange(10))
            chosen.append((left, left + rng.randrange(6), idx))
        ivs = sorted(chosen, key=lambda iv: iv[0])
        if any(a[1] >= b[0] for a, b in zip(ivs, ivs[2:])):
            seen["raises"] += 1
            with pytest.raises(InternalError, match="^more than two chosen intervals share a point$"):
                selection._phase_b_two_color(chosen)
            continue
        want = [(r.left, r.right, r.idx, r.tag) for r in _phase_b_two_color(chosen)]
        got_ivs, got_tags = selection._phase_b_two_color(chosen)
        assert got_ivs == [w[:3] for w in want], chosen
        nested = any(a is not b and a[0] <= b[0] and b[1] <= a[1] for a in ivs for b in ivs)
        if not nested:
            seen["as the reference"] += 1
            assert list(got_tags) == [w[3] for w in want], chosen
        else:
            seen["nested"] += 1
        assert set(got_tags) <= {0, 1}
        assert all(s != t for a, b, s, t in zip(ivs, ivs[1:], got_tags, got_tags[1:])
                   if a[1] >= b[0]), chosen
    assert min(seen.values()) > 20 and len(seen) == 3, seen


def _chain(order):
    """Intervals ``[2k, 2k + 2.5]``, each meeting only the ones next to it
    by left end, chosen with the positions ``order`` names."""
    return [(2.0 * k, 2.0 * k + 2.5, idx) for idx, k in enumerate(order)]


# a run at positions 0, 1, 2 or 3, 4 is placed first, and the interval
# between the runs joins them; the runs' tags disagree, so one is flipped
RUN_JOINS = {
    # left run (0) tagged 0, right run (2, 3, 4) tagged 1, 0, 1
    "left run smaller": ([0, 3, 2, 4, 1], [1, 0, 1, 0, 1]),
    # left run (0, 1, 2) tagged 1, 0, 1, right run (4) tagged 0
    "right run smaller": ([1, 0, 2, 4, 3], [1, 0, 1, 0, 1]),
    # left run (0, 1) tagged 0, 1, right run (3, 4) tagged 0, 1
    "equal runs, the right one flips": ([0, 1, 3, 4, 2], [0, 1, 0, 1, 0]),
}


@pytest.mark.parametrize("name", list(RUN_JOINS))
def test_phase_b_flips_the_smaller_run_as_the_reference_does(name):
    from ballcover import selection

    order, want = RUN_JOINS[name]
    chosen = _chain(order)
    ivs, tags = selection._phase_b_two_color(chosen)
    assert ivs == sorted(chosen)
    assert list(tags) == want
    assert list(tags) == [r.tag for r in _phase_b_two_color(chosen)]


def test_phase_b_tags_one_long_chain_as_the_reference_does():
    """Placed in random order, the 20,000 links of one chain join and
    flip many runs; the tags still alternate, as the reference's do."""
    from ballcover import selection

    order = list(range(20_000))
    random.Random(11).shuffle(order)
    chosen = _chain(order)
    ivs, tags = selection._phase_b_two_color(chosen)
    assert ivs == sorted(chosen)
    assert list(tags) == [r.tag for r in _phase_b_two_color(chosen)]
    assert len(set(tags[0::2])) == len(set(tags[1::2])) == 1 and tags[0] != tags[1]


# ---------------------------------------------------------------------------
# oned builds no object per interval
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spread,construction", [(4e3, "_phase_a_greedy"),
                                                 (1e8, "_staircase_two_color")])
def test_oned_builds_no_ball_and_no_point(spread, construction, tmp_path, monkeypatch, capsys):
    rng = random.Random(5)
    doc = {
        "version": 1,
        "space": {"kind": "euclidean", "dim": 1},
        "balls": [{"center": [rng.uniform(0.0, spread)], "radius": rng.uniform(0.5, 5.0)}
                  for _ in range(1000)],
    }
    scene = tmp_path / "line.json"
    scene.write_text(json.dumps(doc))
    made = Counter()
    for cls in (Ball, Point):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
            made[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    # the spread decides the construction: density 1.4 or 6e-5
    built = getattr(selection, construction)
    monkeypatch.setattr(selection, construction,
                        lambda *a: made.update(["construction"]) or built(*a))
    assert run_command(["oned", str(scene)]) == 0
    assert made == Counter(construction=1)
    report = json.loads(capsys.readouterr().out)
    assert len(report["payload"]["assignment"]) == 1000
    assert sum(map(len, report["payload"]["families"])) > 0


def test_staircase_matches_the_reference_on_candidate_lists():
    """The one-pass staircase picks as the heap did, ties included:
    furthest right end, then smaller left end, then smaller index."""
    from ballcover import selection

    rng = random.Random(11)
    for _ in range(400):
        cands = []
        for idx in range(rng.randrange(1, 10)):
            left = float(rng.randrange(8))
            cands.append((left, left + rng.randrange(4), idx))
        cands += [(left, right, idx + 100) for left, right, idx in cands[: rng.randrange(3)]]
        rng.shuffle(cands)
        cs = sorted({float(rng.randrange(12)) for _ in range(6)})
        try:
            want = _staircase_two_color(cands, cs)
        except InternalError as exc:
            with pytest.raises(InternalError, match=str(exc)):
                selection._staircase_two_color(cands, cs)
            continue
        assert selection._staircase_two_color(cands, cs) == want, (cands, cs)
