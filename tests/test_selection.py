import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ballcover import (
    Ball,
    BallFamily,
    DomainError,
    InputError,
    InternalError,
    Point,
    QuasiRoundSet,
    Space,
    UnsupportedFeatureError,
    distance,
)
from ballcover import selection
from ballcover.selection import (
    besicovitch_cover_1d,
    cip_subcover,
    morse_partition,
    partition_into_disjoint_families,
    select_bounded_overlap_subcover,
)

E1 = Space.euclidean(1)
E2 = Space.euclidean(2)


def interval_family(pairs):
    return BallFamily(E1, tuple(Ball(Point((float(c),)), float(r)) for c, r in pairs))


def as_intervals(fam):
    return [(b.center.coords[0] - b.radius, b.center.coords[0] + b.radius) for b in fam]


def assert_family_disjoint_1d(fam):
    """Independent sweep oracle: closed intervals must not share any point."""
    ivs = sorted(as_intervals(fam))
    for (l1, r1), (l2, r2) in zip(ivs, ivs[1:]):
        assert l2 > r1, f"intervals [{l1},{r1}] and [{l2},{r2}] touch or overlap"


def assert_family_disjoint_metric(space, fam):
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            d = distance(space, fam[i].center, fam[j].center)
            assert d > fam[i].radius + fam[j].radius - 1e-9


def assert_centers_covered_1d(partition, centers):
    ivs = [iv for fam in partition.families for iv in as_intervals(fam)]
    for c in centers:
        assert any(l <= c <= r for l, r in ivs), f"center {c} uncovered"


def random_1d_instance(rng, n_centers, spread=10.0, rmax=2.0):
    centers = sorted(rng.uniform(-spread, spread, n_centers))
    balls = []
    for c in centers:
        for _ in range(int(rng.integers(1, 3))):
            balls.append((c, float(rng.uniform(0.05, rmax))))
    return centers, interval_family(balls)


# ---------------------------------------------------------------------------
# bounded-overlap subcover
# ---------------------------------------------------------------------------


def test_subcover_keeps_everything_when_nothing_is_removable():
    # neither ball's closed disk reaches the other's center, so both stay
    fam = interval_family([(0.0, 1.0), (1.05, 1.0)])
    res = select_bounded_overlap_subcover(fam, [Point((0.0,)), Point((1.05,))])
    assert len(res.selected) == 2
    assert res.overlap.max_overlap == 2
    assert all(res.covered_centers)


def test_subcover_boundary_center_counts_as_covered():
    # closed-ball convention: B(0,1) reaches the center at exactly 1,
    # so the second ball is redundant and is not selected
    fam = interval_family([(0.0, 1.0), (1.0, 1.0)])
    res = select_bounded_overlap_subcover(fam, [Point((0.0,)), Point((1.0,))])
    assert as_intervals(res.selected) == [(-1.0, 1.0)]
    assert all(res.covered_centers)


def test_subcover_collapses_one_band_cluster():
    centers = [Point((k / 10.0,)) for k in range(11)]
    fam = interval_family([(k / 10.0, 1.0) for k in range(11)])
    res = select_bounded_overlap_subcover(fam, centers)
    assert as_intervals(res.selected) == [(-1.0, 1.0)]
    assert res.overlap.max_overlap == 1
    assert all(res.covered_centers)


def test_subcover_band_indices():
    fam = interval_family([(-10.0, 1.0), (0.0, 0.5), (10.0, 0.2)])
    pts = [Point((-10.0,)), Point((0.0,)), Point((10.0,))]
    res = select_bounded_overlap_subcover(fam, pts, beta=0.5)
    # radius 1 in (0.5, 1], radius 0.5 in (0.25, 0.5], radius 0.2 in (0.125, 0.25]
    assert res.bands == (1, 2, 3)
    assert len(res.selected) == 3


def test_subcover_three_band_overlap_bound():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        centers = rng.uniform(-8.0, 8.0, n)
        radii = rng.choice([1.0, 0.4, 0.15], n) * rng.uniform(0.8, 1.0, n)
        fam = interval_family(zip(centers, radii))
        pts = [Point((float(c),)) for c in centers]
        res = select_bounded_overlap_subcover(fam, pts, beta=0.5)
        assert all(res.covered_centers)
        ivs = as_intervals(res.selected)
        for c in centers:
            assert any(l <= c <= r for l, r in ivs)
        assert res.overlap.max_overlap <= 19


def test_subcover_monotone_coverage():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        centers = rng.uniform(-5.0, 5.0, n)
        radii = rng.uniform(0.1, 2.0, n)
        pts = [Point((float(c),)) for c in centers]
        fam = interval_family(zip(centers, radii))
        grown = interval_family(
            list(zip(centers, radii)) + [(float(rng.uniform(-5, 5)), 0.5)]
        )
        res = select_bounded_overlap_subcover(grown, pts)
        assert all(res.covered_centers)


def test_subcover_center_without_ball():
    fam = interval_family([(0.0, 1.0)])
    with pytest.raises(InputError):
        select_bounded_overlap_subcover(fam, [Point((3.0,))])


def test_subcover_empty():
    res = select_bounded_overlap_subcover(BallFamily(E1, ()), [])
    assert len(res.selected) == 0
    assert res.covered_centers == ()
    assert res.overlap.max_overlap == 0


def test_subcover_bad_beta():
    fam = interval_family([(0.0, 1.0)])
    for beta in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(InputError):
            select_bounded_overlap_subcover(fam, [Point((0.0,))], beta=beta)


# ---------------------------------------------------------------------------
# disjoint-family partition
# ---------------------------------------------------------------------------


def test_partition_hand_example():
    fam = interval_family([(0.0, 1.0), (1.5, 1.0), (3.0, 1.0)])
    part = partition_into_disjoint_families(fam)
    assert part.assignment == (0, 1, 0)
    assert len(part.families) == 2
    for f in part.families:
        assert_family_disjoint_1d(f)


def test_partition_disjoint_input_single_family():
    fam = interval_family([(0.0, 1.0), (5.0, 1.0), (10.0, 1.0)])
    part = partition_into_disjoint_families(fam)
    assert len(part.families) == 1
    assert part.assignment == (0, 0, 0)


def test_partition_identical_balls():
    fam = interval_family([(0.0, 1.0)] * 5)
    part = partition_into_disjoint_families(fam)
    assert len(part.families) == 5
    assert sorted(part.assignment) == [0, 1, 2, 3, 4]


def test_partition_alpha_range():
    fam = interval_family([(0.0, 1.0)])
    for alpha in (0.5, 1.0, 0.2, 1.5):
        with pytest.raises(InputError):
            partition_into_disjoint_families(fam, alpha=alpha)


def test_partition_count_within_reported_bound_1d():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        centers = rng.uniform(-6.0, 6.0, n)
        radii = rng.uniform(0.1, 2.0, n)
        fam = interval_family(zip(centers, radii))
        part = partition_into_disjoint_families(fam, alpha=0.75)
        assert not part.bound_is_empirical
        assert len(part.families) <= part.family_count_bound
        for f in part.families:
            assert_family_disjoint_1d(f)
        # every ball assigned exactly once
        assert sorted(i for f in part.families for i in range(len(f))) is not None
        assert all(a >= 0 for a in part.assignment)


def test_partition_plane_families_disjoint():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-4.0, 4.0, (25, 2))
    radii = rng.uniform(0.2, 1.5, 25)
    fam = BallFamily(
        E2, tuple(Ball(Point((x, y)), float(r)) for (x, y), r in zip(pts, radii))
    )
    part = partition_into_disjoint_families(fam)
    assert part.bound_is_empirical  # probe-measured overlap off the line
    for f in part.families:
        assert_family_disjoint_metric(E2, f)
    counts = sum(len(f) for f in part.families)
    assert counts == 25


# ---------------------------------------------------------------------------
# the 1-D two-family algorithm
# ---------------------------------------------------------------------------


def test_oned_hand_example():
    fam = interval_family([(0.0, 0.9), (1.0, 0.9), (2.0, 0.9)])
    part = besicovitch_cover_1d(fam, [0.0, 1.0, 2.0])
    got = sorted(sorted(as_intervals(f)) for f in part.families)
    want = sorted([[(-0.9, 0.9), (1.1, 2.9)], [(0.1, 1.9)]])
    assert len(got) == len(want) == 2
    for gf, wf in zip(got, want):
        np.testing.assert_allclose(np.array(gf), np.array(wf), atol=1e-12)
    assert_centers_covered_1d(part, [0.0, 1.0, 2.0])


def test_oned_single_interval():
    fam = interval_family([(0.0, 1.0)])
    part = besicovitch_cover_1d(fam, [0.0])
    assert len(part.families) == 1
    assert part.assignment == (0,)
    assert part.family_count_bound == 2


def test_oned_touching_intervals_split():
    fam = interval_family([(0.0, 1.0), (2.0, 1.0)])
    part = besicovitch_cover_1d(fam, [0.0, 2.0])
    assert len(part.families) == 2  # closed intervals share the point 1


def test_oned_disjoint_intervals_one_family():
    fam = interval_family([(0.0, 1.0), (5.0, 1.0)])
    part = besicovitch_cover_1d(fam, [0.0, 5.0])
    assert len(part.families) == 1


def test_oned_chain_flip_case():
    # bridging interval whose two frontier neighbours carry opposite tags:
    # the singleton chain must be re-tagged, never a third family opened
    fam = interval_family(
        [(5.95, 1.05), (1.0, 1.0), (4.0, 1.0), (2.5, 0.6)]
    )
    centers = [5.95, 1.0, 4.0, 2.5]
    part = besicovitch_cover_1d(fam, centers)
    assert len(part.families) == 2
    for f in part.families:
        assert_family_disjoint_1d(f)
    assert_centers_covered_1d(part, centers)
    # the bridge [1.9, 3.1] must sit opposite both neighbours
    byiv = {}
    for fi, f in enumerate(part.families):
        for iv in as_intervals(f):
            byiv[iv] = fi
    assert byiv[(1.9, 3.1)] != byiv[(0.0, 2.0)]
    assert byiv[(1.9, 3.1)] != byiv[(3.0, 5.0)]


def test_oned_non_line_space_rejected():
    fam = BallFamily(E2, (Ball(Point((0.0, 0.0)), 1.0),))
    with pytest.raises(UnsupportedFeatureError):
        besicovitch_cover_1d(fam, [0.0])


def test_oned_center_without_interval():
    fam = interval_family([(0.0, 1.0)])
    with pytest.raises(InputError):
        besicovitch_cover_1d(fam, [0.0, 3.0])


def test_oned_bad_mode():
    fam = interval_family([(0.0, 1.0)])
    with pytest.raises(InputError):
        besicovitch_cover_1d(fam, [0.0], mode="fast")


def test_oned_randomized_bounded_route():
    rng = np.random.default_rng(101)
    for trial in range(800):
        n = int(rng.integers(1, 40))
        centers, fam = random_1d_instance(rng, n)
        part = besicovitch_cover_1d(fam, centers, mode="bounded")
        assert len(part.families) <= 2
        for f in part.families:
            assert_family_disjoint_1d(f)
        assert_centers_covered_1d(part, centers)
        cs = part.chain_state
        for k in range(1, len(cs.tags)):
            if cs.chain_ids[k] == cs.chain_ids[k - 1]:
                assert cs.tags[k] != cs.tags[k - 1]


def test_oned_randomized_scattered_route():
    rng = np.random.default_rng(103)
    for trial in range(300):
        n = int(rng.integers(1, 40))
        centers, fam = random_1d_instance(rng, n, spread=1e6, rmax=100.0)
        part = besicovitch_cover_1d(fam, centers, mode="scattered")
        assert len(part.families) <= 2
        for f in part.families:
            assert_family_disjoint_1d(f)
        assert_centers_covered_1d(part, centers)
        cs = part.chain_state
        for k in range(1, len(cs.tags)):
            if cs.chain_ids[k] == cs.chain_ids[k - 1]:
                assert cs.tags[k] != cs.tags[k - 1]


def test_oned_auto_picks_scattered_for_wide_spread():
    rng = np.random.default_rng(107)
    centers, fam = random_1d_instance(rng, 50, spread=1e6, rmax=10.0)
    auto = besicovitch_cover_1d(fam, centers, mode="auto")
    scattered = besicovitch_cover_1d(fam, centers, mode="scattered")
    assert auto == scattered


def test_oned_both_routes_valid_on_same_input():
    rng = np.random.default_rng(109)
    for _ in range(100):
        centers, fam = random_1d_instance(rng, int(rng.integers(2, 25)))
        for mode in ("bounded", "scattered"):
            part = besicovitch_cover_1d(fam, centers, mode=mode)
            assert len(part.families) <= 2
            for f in part.families:
                assert_family_disjoint_1d(f)
            assert_centers_covered_1d(part, centers)


def test_oned_deterministic():
    rng = np.random.default_rng(113)
    centers, fam = random_1d_instance(rng, 30)
    a = besicovitch_cover_1d(fam, centers)
    b = besicovitch_cover_1d(fam, centers)
    assert a == b


def test_oned_zero_radius():
    fam = interval_family([(0.0, 0.0), (5.0, 0.0)])
    part = besicovitch_cover_1d(fam, [0.0, 5.0])
    assert len(part.families) == 1
    assert_centers_covered_1d(part, [0.0, 5.0])


# ---------------------------------------------------------------------------
# threshold selection
# ---------------------------------------------------------------------------


def test_cip_subcover_parameter_validation():
    fam = interval_family([(0.0, 1.0)])
    for bad_s in (0.0, 1.0, -0.1):
        with pytest.raises(InputError):
            cip_subcover(fam, 2, bad_s)
    for bad_m in (0, -1, 1.5, True):
        with pytest.raises(InputError):
            cip_subcover(fam, bad_m, 0.9)
    with pytest.raises(InputError):
        cip_subcover(fam, 2, 0.9, beta=1.0)


def test_cip_subcover_threshold_example():
    fam = interval_family([(0.0, 1.0), (0.5, 0.6), (2.0, 0.55)])
    res = cip_subcover(fam, 2, 0.9)
    ivs = as_intervals(res.selected)
    assert ivs[0] == (-1.0, 1.0)  # the radius-1 ball is picked first
    assert (1.45, 2.55) in ivs
    assert len(ivs) == 2  # the 0.6 ball's center got covered
    assert all(res.covered_centers)


def test_cip_subcover_matches_band_greedy_on_equal_radii():
    fam = interval_family([(0.0, 1.0), (1.5, 1.0), (3.0, 1.0)])
    pts = [Point((c,)) for c in (0.0, 1.5, 3.0)]
    a = set(as_intervals(cip_subcover(fam, 2, 0.9).selected))
    b = set(as_intervals(select_bounded_overlap_subcover(fam, pts).selected))
    assert a == b


def test_cip_subcover_separation_property():
    rng = np.random.default_rng(17)
    s = 0.95
    for _ in range(300):
        n = int(rng.integers(2, 25))
        centers = rng.uniform(-6.0, 6.0, n)
        radii = rng.uniform(0.05, 2.0, n)
        fam = interval_family(zip(centers, radii))
        res = cip_subcover(fam, 3, s)
        assert all(res.covered_centers)
        sel = res.selected
        for i in range(len(sel)):
            for j in range(len(sel)):
                if i == j:
                    continue
                d = abs(sel[i].center.coords[0] - sel[j].center.coords[0])
                assert d > s * max(sel[i].radius, sel[j].radius)
                assert d > s * sel[j].radius  # shrunk center exclusion


def test_cip_subcover_plane():
    rng = np.random.default_rng(19)
    pts = rng.uniform(-3.0, 3.0, (20, 2))
    radii = rng.uniform(0.2, 1.0, 20)
    fam = BallFamily(
        E2, tuple(Ball(Point((x, y)), float(r)) for (x, y), r in zip(pts, radii))
    )
    res = cip_subcover(fam, 2, 0.9)
    assert all(res.covered_centers)
    for i in range(len(res.selected)):
        for j in range(i + 1, len(res.selected)):
            d = distance(E2, res.selected[i].center, res.selected[j].center)
            assert d > 0.9 * max(res.selected[i].radius, res.selected[j].radius)


# ---------------------------------------------------------------------------
# quasi-round partition
# ---------------------------------------------------------------------------


def qset2(x, y, r, lam=1.0, diam=None):
    return QuasiRoundSet(Point((float(x), float(y))), r, lam, 2.0 * r if diam is None else diam)


def test_morse_parameter_validation():
    s = qset2(0.0, 0.0, 1.0)
    with pytest.raises(InputError):
        morse_partition(E2, [s], tau=1.0, lam=1.0)
    with pytest.raises(InputError):
        morse_partition(E2, [s], tau=2.5, lam=1.0)
    with pytest.raises(InputError):
        morse_partition(E2, [s], tau=1.5, lam=0.5)
    rich = qset2(0.0, 0.0, 1.0, lam=2.0, diam=3.0)
    with pytest.raises(InputError):
        morse_partition(E2, [rich], tau=1.5, lam=1.5)


def test_morse_two_far_sets_single_family():
    sets = [qset2(0.0, 0.0, 1.0), qset2(10.0, 0.0, 1.0)]
    part = morse_partition(E2, sets, tau=1.5, lam=1.0)
    assert len(part.families) == 1
    assert part.bound_is_empirical


def test_morse_reduces_to_ball_partition_when_lam_is_one():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 20))
        pts = rng.uniform(-5.0, 5.0, (n, 2))
        radii = rng.uniform(0.2, 1.5, n)
        sets = [
            qset2(x, y, float(r)) for (x, y), r in zip(pts, radii)
        ]
        fam = BallFamily(
            E2, tuple(Ball(Point((x, y)), float(r)) for (x, y), r in zip(pts, radii))
        )
        a = morse_partition(E2, sets, tau=1.5, lam=1.0)
        b = partition_into_disjoint_families(fam, alpha=1.0 / 1.5)
        assert a.assignment == b.assignment
        assert [as_intervals_2d(f) for f in a.families] == [
            as_intervals_2d(f) for f in b.families
        ]


def as_intervals_2d(fam):
    return [(b.center.coords, b.radius) for b in fam]


def test_morse_random_quasi_round_plane():
    rng = np.random.default_rng(29)
    sets = []
    for _ in range(20):
        x, y = rng.uniform(-6.0, 6.0, 2)
        r = float(rng.uniform(0.2, 1.0))
        lam_i = float(rng.uniform(1.0, 2.0))
        diam = float(rng.uniform(r, 2.0 * lam_i * r))
        sets.append(QuasiRoundSet(Point((x, y)), r, lam_i, diam))
    part = morse_partition(E2, sets, tau=2.0, lam=2.0)
    assert sum(len(f) for f in part.families) == 20
    assert all(a >= 0 for a in part.assignment)
    for f in part.families:
        assert_family_disjoint_metric(E2, f)
    # each anchor is inside its own outer ball, so anchors are covered
    assert part.bound_is_empirical
    assert part.family_count_bound >= len(part.families)


def test_morse_sphere_caps():
    s2 = Space.sphere(2)
    cap = (math.pi / 4.0)
    ok = QuasiRoundSet(s2.point([1.0, 0.0, 0.0]), cap / 40.0, 1.0, cap / 20.0)
    part = morse_partition(s2, [ok], tau=1.5, lam=1.0)
    assert len(part.families) == 1
    too_wide = QuasiRoundSet(s2.point([1.0, 0.0, 0.0]), cap / 9.0, 1.0, cap / 4.5)
    with pytest.raises(DomainError):
        morse_partition(s2, [too_wide], tau=1.5, lam=1.0)


# ---------------------------------------------------------------------------
# internal guards: explicit raises that survive python -O
# ---------------------------------------------------------------------------


def test_flip_smaller_on_one_chain_raises():
    chains = selection._Chains()
    node = chains.make(selection._Iv(0.0, 1.0, 0))
    with pytest.raises(InternalError, match="single chain"):
        chains.flip_smaller(node, node)


def test_phase_b_more_than_two_hits_raises():
    # (-5, 20) and (-3, 30) touch no endpoint of the intervals kept before
    # them, so three kept intervals contain the left end of (5, 6)
    chosen = [(0.0, 10.0, 0), (-5.0, 20.0, 1), (-3.0, 30.0, 2), (5.0, 6.0, 3)]
    with pytest.raises(InternalError, match="more than two"):
        selection._phase_b_two_color(chosen)


def test_staircase_uncovered_coordinate_raises():
    with pytest.raises(InternalError, match="no candidate"):
        selection._staircase_two_color([(0.0, 1.0, 0)], [5.0])


def test_scattered_interval_without_anchor_raises(monkeypatch):
    # an anchor lookup that never finds a neighbour leaves intervals homeless
    monkeypatch.setattr(selection, "bisect_right", lambda a, x: len(a) + 2)
    fam = interval_family([(0.0, 1.0), (5e6, 1.0)])
    with pytest.raises(InternalError, match="anchors"):
        besicovitch_cover_1d(fam, [0.0, 5e6], mode="scattered")


def test_separation_check_raises_on_close_pair():
    selection._check_separation(interval_family([(0.0, 1.0), (0.95, 1.0)]), 0.9)
    with pytest.raises(InternalError, match="separation"):
        selection._check_separation(interval_family([(0.0, 1.0), (0.9, 1.0)]), 0.9)
    with pytest.raises(InternalError, match="separation"):
        selection._check_separation(
            BallFamily(E2, (Ball(Point((0.0, 0.0)), 0.5), Ball(Point((0.3, 0.4)), 1.0))), 0.5
        )


def test_guards_survive_optimized_mode():
    code = (
        "from ballcover import InternalError, selection\n"
        "c = selection._Chains()\n"
        "n = c.make(selection._Iv(0.0, 1.0, 0))\n"
        "try:\n"
        "    c.flip_smaller(n, n)\n"
        "except InternalError:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(selection.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout == "raised\n", out.stderr
