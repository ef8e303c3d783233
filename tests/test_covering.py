import math
import random
import re
from bisect import bisect_left, bisect_right
from collections import Counter

import numpy as np
import pytest

from ballcover import Ball, InputError, Point, Space, UnsupportedFeatureError, distance
from ballcover.covering import (
    BallFamily,
    QuasiRoundSet,
    covering_number,
    epsilon_net_greedy,
    find_common_point,
    is_alpha_configuration,
    is_besicovitch_family,
    is_k_configuration,
    is_tau_satellite_configuration,
    overlap_profile,
    strict_net_bound,
)

E1 = Space.euclidean(1)
E2 = Space.euclidean(2)


def interval_family(pairs):
    return BallFamily(E1, tuple(Ball(Point((float(c),)), float(r)) for c, r in pairs))


def disk_family(triples):
    return BallFamily(E2, tuple(Ball(Point((float(x), float(y))), float(r)) for x, y, r in triples))


def pentagon_family(containment=0.99):
    """Five disks around the origin: a valid 5-member family in the plane."""
    balls = []
    for k in range(5):
        a = 2.0 * math.pi * k / 5.0
        balls.append(Ball(Point((containment * math.cos(a), containment * math.sin(a))), 1.0))
    return BallFamily(E2, tuple(balls))


# ---------------------------------------------------------------------------
# Besicovitch-family validator
# ---------------------------------------------------------------------------


def test_empty_and_singleton_families_are_valid():
    assert is_besicovitch_family(BallFamily(E2, ())).is_valid
    assert is_besicovitch_family(disk_family([(0, 0, 1)])).is_valid


def test_pentagon_family_is_valid():
    v = is_besicovitch_family(pentagon_family())
    assert v.is_valid
    # the certified witness point really lies in all five balls
    fam = pentagon_family()
    for b in fam:
        assert distance(E2, v.witness, b.center) <= b.radius + 1e-8


def test_center_containment_is_detected():
    fam = interval_family([(0.0, 1.0), (0.5, 1.0)])
    v = is_besicovitch_family(fam)
    assert v.status == "invalid"
    assert "center" in v.reason
    assert set(v.witness) == {0, 1}


def test_disjoint_balls_have_no_common_point():
    fam = interval_family([(0.0, 1.0), (10.0, 1.0)])
    v = is_besicovitch_family(fam)
    assert v == ("invalid", "balls 0 and 1 do not intersect", (0, 1))


def _on_a_geodesic(space, t):
    """The point at distance t from the origin along the first axis."""
    if space.kind == "sphere":
        return space.point([math.sin(t), 0.0, math.cos(t)])
    if space.kind == "hyperbolic":
        return space.point([math.sinh(t), 0.0, math.cosh(t)])
    return space.point([t, 0.0])


def _independent_distance(space, a, b):
    if space.kind == "sphere":
        return math.acos(max(-1.0, min(1.0, sum(x * y for x, y in zip(a, b)))))
    if space.kind == "hyperbolic":
        return math.acosh(max(1.0, a[2] * b[2] - a[0] * b[0] - a[1] * b[1]))
    p = space.pnorm
    return sum(abs(x - y) ** p for x, y in zip(a, b)) ** (1.0 / p)


@pytest.mark.parametrize("space", [E2, Space.euclidean(2, 3.0), Space.sphere(2),
                                   Space.hyperbolic(2)], ids=str)
def test_an_apart_pair_is_the_invalid_witness(space):
    # balls 0 and 1 meet, and so do 1 and 2, but 0 and 2 are apart
    s = 0.7 if space.kind == "sphere" else 1.0
    fam = BallFamily(space, tuple(Ball(_on_a_geodesic(space, s * t), s) for t in (0.0, 1.5, 3.0)))
    v = is_besicovitch_family(fam)
    assert v == ("invalid", "balls 0 and 2 do not intersect", (0, 2))
    i, j = v.witness
    d = _independent_distance(space, fam.coords[i], fam.coords[j])
    assert d > fam.radii[i] + fam.radii[j]


def test_the_side_19_triangle_of_unit_disks_is_indeterminate():
    # every pair meets and no center lies in another disk, but the
    # circumradius 1.9 / sqrt(3) exceeds 1, so no point lies in all three:
    # no pair certifies that, and the verdict says what the search reached
    pts = [(0.0, 0.0), (1.9, 0.0), (0.95, 0.95 * math.sqrt(3.0))]
    fam = disk_family([(x, y, 1.0) for x, y in pts])
    v = is_besicovitch_family(fam)
    feas = find_common_point(fam)
    assert feas.point is None and feas.max_violation > 0.05
    assert v == ("indeterminate", "no common point was found (max violation %.3g, "
                 "tolerance 2e-09)" % feas.max_violation, None)


def test_validator_against_interval_oracle():
    # Independent 1-D oracle: common point iff max(c - r) <= min(c + r);
    # center exclusion by direct comparison.
    rng = np.random.default_rng(42)
    checked = {True: 0, False: 0}
    for _ in range(400):
        n = int(rng.integers(2, 6))
        centers = rng.uniform(-2.0, 2.0, n)
        radii = rng.uniform(0.2, 2.5, n)
        fam = interval_family(zip(centers, radii))
        common = np.max(centers - radii) <= np.min(centers + radii)
        excluded = all(
            abs(centers[i] - centers[j]) > radii[j]
            for i in range(n)
            for j in range(n)
            if i != j
        )
        expected = common and excluded
        v = is_besicovitch_family(fam)
        assert v.status != "indeterminate"
        assert v.is_valid == expected
        checked[expected] += 1
    assert checked[True] > 20 and checked[False] > 20


def test_validator_similarity_invariance():
    # Rigid motions and scalings of the plane must not change the verdict.
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        centers = rng.uniform(-2.0, 2.0, (n, 2))
        radii = rng.uniform(0.3, 2.0, n)
        fam = disk_family([(c[0], c[1], r) for c, r in zip(centers, radii)])
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        scale = float(rng.uniform(0.1, 10.0))
        shift = rng.uniform(-50.0, 50.0, 2)
        moved = disk_family(
            [
                (*(scale * rot @ c + shift), scale * r)
                for c, r in zip(centers, radii)
            ]
        )
        assert is_besicovitch_family(fam).status == is_besicovitch_family(moved).status


def test_validator_on_curved_spaces():
    s2 = Space.sphere(2)
    a = s2.point([1.0, 0.0, 0.0])
    b = s2.point([0.0, 1.0, 0.0])
    fam = BallFamily(s2, (Ball(a, 1.0), Ball(b, 1.0)))
    # both contain the mid-arc point, centers are pi/2 > 1 apart
    assert is_besicovitch_family(fam).is_valid
    h2 = Space.hyperbolic(2)
    o = h2.origin()
    q = h2.point([math.sinh(1.5), 0.0, math.cosh(1.5)])
    fam_h = BallFamily(h2, (Ball(o, 1.0), Ball(q, 1.0)))
    assert is_besicovitch_family(fam_h).is_valid
    fam_bad = BallFamily(h2, (Ball(o, 2.0), Ball(q, 1.0)))  # q inside first ball
    assert is_besicovitch_family(fam_bad).status == "invalid"


def test_indeterminate_when_iteration_cap_is_tiny():
    # an acute triangle on the unit circle, radii just above it: every
    # pair meets, and the small common region takes more than two sweeps
    fam = disk_family([(math.cos(a), math.sin(a), 1.001) for a in (0.0, 1.9, 4.0)])
    v = is_besicovitch_family(fam, max_iter=1)
    assert v.status == "indeterminate"
    assert is_besicovitch_family(fam).is_valid


def test_family_dimension_mismatch():
    with pytest.raises(InputError):
        BallFamily(E2, (Ball(Point((0.0,)), 1.0),))


# ---------------------------------------------------------------------------
# K-configurations (pairwise intersection, no common-point requirement)
# ---------------------------------------------------------------------------


def test_k_configuration_accepts_besicovitch_families():
    assert is_k_configuration(pentagon_family()).is_valid


def test_k_configuration_without_common_point():
    # equilateral triangle, side 1.9, unit radii: pairwise intersecting,
    # centers excluded, but the triple intersection is empty
    pts = [(0.0, 0.0), (1.9, 0.0), (0.95, 0.95 * math.sqrt(3.0))]
    fam = disk_family([(x, y, 1.0) for x, y in pts])
    assert is_k_configuration(fam).is_valid
    assert is_besicovitch_family(fam).status == "indeterminate"


def test_k_configuration_rejects_disjoint_pairs():
    fam = disk_family([(0, 0, 1), (5, 0, 1)])
    v = is_k_configuration(fam)
    assert v.status == "invalid"
    assert "intersect" in v.reason


# ---------------------------------------------------------------------------
# Families whose distances overflow are validated rescaled
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pnorm,bound", [(1.0, 2.0 ** 500), (2.0, 2.0 ** 500),
                                         (math.inf, 2.0 ** 500), (3.0, 2.0 ** (1000 / 3 - 1)),
                                         (1.5, 2.0 ** (1000 / 1.5 - 1))])
def test_the_overflow_bound_and_the_least_power_of_two(pnorm, bound):
    from ballcover.covering import _scaled

    space = Space.euclidean(2, pnorm)
    assert space._model.huge == bound
    for top in (bound, math.nextafter(bound, math.inf), 1.5 * bound, 1e300, 1.7e308):
        for family in (BallFamily.from_columns(space, [(0.5, -top)], [1.0]),
                       BallFamily.from_columns(space, [(0.5, 2.0)], [top])):
            scaled, k = _scaled(family)
            assert k > 0
            # the least power of two: one less would leave the family at the bound
            assert math.ldexp(top, -k) < bound <= math.ldexp(top, 1 - k)
            assert scaled.coords == tuple(tuple(math.ldexp(v, -k) for v in c)
                                          for c in family.coords)
            assert scaled.radii == tuple(math.ldexp(r, -k) for r in family.radii)


@pytest.mark.parametrize("pnorm", [1.0, math.inf, 2.0])
def test_a_family_that_never_overflows_is_never_scaled(pnorm, monkeypatch):
    import ballcover.covering as covering

    def never(family):
        raise AssertionError("scaled")

    monkeypatch.setattr(covering, "_scaled", never)
    # l1 and l-inf sums stay finite at 1e300, and l2 squares below 2**511
    big = 1e300 if pnorm != 2.0 else 2.0 ** 500
    space = Space.euclidean(2, pnorm)
    tangent = BallFamily.from_columns(space, [(big, 0.0), (-big, 0.0)], [big, big])
    assert is_besicovitch_family(tangent).witness == Point((0.0, 0.0))
    assert is_k_configuration(tangent).is_valid
    apart = BallFamily.from_columns(space, [(big, 0.0), (-big, 0.0)], [0.9 * big] * 2)
    assert is_besicovitch_family(apart).witness == is_k_configuration(apart).witness == (0, 1)


@pytest.mark.parametrize("pnorm", [math.inf, 1.0, 2.0, 3.0])
def test_the_slack_keeps_its_unit_when_scaled(pnorm):
    # two unit balls 1 apart beside a ball of radius ~2**600: their gap is far
    # above tol * (1 + 1 + 1) in every l^p, whether the distances to the big
    # ball overflow (l2, l3: the family is checked scaled by 2**-101 or less)
    # or not (l1, l-inf)
    space = Space.euclidean(2, pnorm)
    family = BallFamily.from_columns(space, [(2.0 ** 600, 0.0), (0.0, 0.0), (3.0, 0.0)],
                                     [2.0 ** 600 * (1.0 - 2.0 ** -40), 1.0, 1.0])
    verdict = is_k_configuration(family)
    assert (verdict.status, verdict.witness) == ("invalid", (1, 2))
    assert verdict.reason == "balls 1 and 2 do not intersect"
    # the common-point slack, tol * (1 + max radius), takes in a point near (2, 0)
    witness = is_besicovitch_family(family).witness
    assert witness.coords == pytest.approx((2.0, 0.0))


def test_a_scaled_sweep_meets_the_slack_of_the_family():
    # three balls of radius 2**512 whose pairwise distances overflow, around a
    # triangle of side sqrt(3) * (1 + 1e-7): no common point within tol * (1 + r).
    # Scaled by 2**-521, the sweep's own slack, tol * (1 + r * 2**-521), takes
    # its point in; the family's, tol * (2**-521 + r * 2**-521), does not
    side = math.sqrt(3.0) * (1.0 + 1e-7)
    pts = [(0.0, 0.0), (side, 0.0), (side / 2, side / 2 * math.sqrt(3.0))]
    small = disk_family([(x, y, 1.0) for x, y in pts])
    huge = BallFamily.from_columns(
        Space.euclidean(3), [(math.ldexp(x, 512), math.ldexp(y, 512), 2.0 ** 1020) for x, y in pts],
        [2.0 ** 512] * 3)
    assert is_k_configuration(small).is_valid and is_k_configuration(huge).is_valid
    v_small, v_huge = is_besicovitch_family(small), is_besicovitch_family(huge)
    assert v_small.status == v_huge.status == "indeterminate"
    assert v_huge.reason.endswith("tolerance %.3g)" % (1e-9 * (1.0 + 2.0 ** 512)))


def test_a_huge_family_keeps_its_verdicts_scaled_back():
    big = 1e300
    tangent = disk_family([(big, 0.0, big), (-big, 0.0, big)])
    verdict = is_besicovitch_family(tangent)
    assert verdict.is_valid and verdict.witness == Point((0.0, 0.0))
    assert is_k_configuration(tangent).is_valid
    apart = disk_family([(big, 0.0, 0.9 * big), (-big, 0.0, 0.9 * big)])
    assert is_besicovitch_family(apart).witness == is_k_configuration(apart).witness == (0, 1)
    inside = disk_family([(big, 0.0, big), (0.5 * big, 0.0, 0.25 * big)])
    assert is_besicovitch_family(inside).reason == "center containment: center 1 lies in ball 0"
    # the triangle of test_k_configuration_without_common_point, scaled by 2**900: the
    # same verdicts, and the violation and tolerance in the family's units
    pts = [(0.0, 0.0), (1.9, 0.0), (0.95, 0.95 * math.sqrt(3.0))]
    small = disk_family([(x, y, 1.0) for x, y in pts])
    huge = disk_family([(math.ldexp(x, 900), math.ldexp(y, 900), math.ldexp(1.0, 900))
                        for x, y in pts])
    assert is_k_configuration(huge).is_valid
    v_small, v_huge = is_besicovitch_family(small), is_besicovitch_family(huge)
    assert v_small.status == v_huge.status == "indeterminate"
    violation = [float(re.search(r"max violation ([^,]+),", v.reason).group(1))
                 for v in (v_small, v_huge)]
    assert violation[1] == pytest.approx(math.ldexp(violation[0], 900), rel=1e-2)


@pytest.mark.parametrize("pnorm", [1.0, 2.0, 3.0, math.inf])
def test_a_pair_whose_distance_and_radius_sum_both_overflow_is_apart(pnorm):
    # 3.4e308 apart against radii summing to 3.0e308: both overflow to inf,
    # and inf > inf would read the pair as meeting
    family = BallFamily.from_columns(Space.euclidean(2, pnorm), [(1.7e308, 0.0), (-1.7e308, 0.0)],
                                     [1.5e308, 1.5e308])
    for verdict in (is_k_configuration(family), is_besicovitch_family(family)):
        assert (verdict.status, verdict.witness) == ("invalid", (0, 1))
        assert verdict.reason == "balls 0 and 1 do not intersect"


# ---------------------------------------------------------------------------
# Overlap profiles
# ---------------------------------------------------------------------------


def test_overlap_profile_trivial_cases():
    assert overlap_profile(BallFamily(E1, ())).max_overlap == 0
    fam = interval_family([(0.0, 1.0), (10.0, 1.0)])
    prof = overlap_profile(fam)
    assert prof.max_overlap == 1


def test_overlap_profile_exact_known_value():
    # [0,2], [1,3], [2.5,4]: depth 2 on [1,2] and on [2.5,3]
    fam = interval_family([(1.0, 1.0), (2.0, 1.0), (3.25, 0.75)])
    prof = overlap_profile(fam)
    assert prof.max_overlap == 2
    assert prof.histogram[2] >= 1


def test_overlap_profile_touching_endpoints_count_together():
    # closed intervals sharing exactly one point have depth 2 there
    fam = interval_family([(0.0, 1.0), (2.0, 1.0)])
    prof = overlap_profile(fam)
    assert prof.max_overlap == 2
    assert prof.witness.coords[0] == pytest.approx(1.0)


def test_overlap_profile_exact_vs_brute_force_and_probes():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        centers = rng.uniform(-5.0, 5.0, n)
        radii = rng.uniform(0.1, 3.0, n)
        fam = interval_family(zip(centers, radii))
        lefts, rights = centers - radii, centers + radii
        # independent oracle: depth at every endpoint by direct counting
        cand = np.concatenate([lefts, rights])
        brute = max(int(np.sum((lefts <= x) & (x <= rights))) for x in cand)
        prof = overlap_profile(fam)
        assert prof.max_overlap == brute
        # probe mode agrees when probes include all endpoints
        probes = [Point((float(x),)) for x in cand]
        assert overlap_profile(fam, probes=probes).max_overlap == brute


def sweep_profile(family):
    """The exact line profile as an endpoint sweep computed it: openings
    first at a shared coordinate, then input order; the witness is where
    the running depth first reaches its maximum."""
    lefts = [c[0] - r for c, r in zip(family.coords, family.radii)]
    rights = [c[0] + r for c, r in zip(family.coords, family.radii)]
    depth = max_overlap = 0
    for x, kind in sorted([(x, 0) for x in lefts] + [(x, 1) for x in rights]):
        depth += 1 - 2 * kind
        if depth > max_overlap:
            max_overlap, witness = depth, x
    ls, rs = sorted(lefts), sorted(rights)
    depths = Counter(bisect_right(ls, x) - bisect_left(rs, x) for x in lefts + rights)
    return max_overlap, witness, dict(sorted(depths.items()))


def test_overlap_profile_exact_matches_the_endpoint_sweep():
    rng = random.Random(19)
    for _ in range(500):
        n = rng.randrange(1, 12)
        pairs = [(rng.choice([-0.0, 0.0, 1.0, -1.0, rng.uniform(-3.0, 3.0)]),
                  rng.choice([0.0, 1.0, 0.5, rng.uniform(0.0, 2.0)])) for _ in range(n)]
        family = BallFamily.from_columns(E1, [(c,) for c, _r in pairs], [r for _c, r in pairs])
        prof = overlap_profile(family)
        top, x, histogram = sweep_profile(family)
        assert (prof.max_overlap, prof.histogram) == (top, histogram)
        (got,) = prof.witness.coords
        assert got == x and math.copysign(1.0, got) == math.copysign(1.0, x), pairs


def test_overlap_profile_exact_needs_the_line():
    # without probes the profile is the exact one, which only the line has
    with pytest.raises(UnsupportedFeatureError, match="euclidean line"):
        overlap_profile(disk_family([(0, 0, 1)]))
    with pytest.raises(UnsupportedFeatureError, match="euclidean line"):
        overlap_profile(BallFamily(Space.sphere(1), ()))
    # with probes a plane family is measured at them
    assert overlap_profile(disk_family([(0, 0, 1)]), [Point((0.5, 0.0))]).max_overlap == 1


def test_overlap_profile_probe_histogram():
    fam = disk_family([(0, 0, 1), (0.5, 0, 1)])
    probes = [Point((0.25, 0.0)), Point((5.0, 5.0))]
    prof = overlap_profile(fam, probes=probes)
    assert prof.max_overlap == 2
    assert prof.histogram == {2: 1, 0: 1}


# ---------------------------------------------------------------------------
# Greedy nets
# ---------------------------------------------------------------------------


def test_epsilon_net_known_example():
    pts = [Point((0.0,)), Point((0.5,)), Point((1.2,)), Point((3.0,))]
    net = epsilon_net_greedy(E1, pts, 1.0)
    assert [p.coords[0] for p in net.points] == [0.0, 1.2, 3.0]
    assert net.indices == [0, 2, 3]


def test_epsilon_net_strictness_at_ties():
    pts = [Point((0.0,)), Point((1.0,)), Point((2.0,))]
    lax = epsilon_net_greedy(E1, pts, 1.0, strict=False)
    assert [p.coords[0] for p in lax.points] == [0.0, 1.0, 2.0]
    strict = epsilon_net_greedy(E1, pts, 1.0, strict=True)
    assert [p.coords[0] for p in strict.points] == [0.0, 2.0]


def test_epsilon_net_separation_and_maximality():
    rng = np.random.default_rng(23)
    for space in (E1, E2, Space.sphere(2), Space.hyperbolic(2)):
        from ballcover.geometry import random_point

        pts = [random_point(space, rng) for _ in range(120)]
        for strict in (False, True):
            net = epsilon_net_greedy(space, pts, 0.6, strict=strict)
            for i, p in enumerate(net.points):
                for q in net.points[:i]:
                    d = distance(space, p, q)
                    assert d > 0.6 if strict else d >= 0.6
            for p in pts:
                near = min(distance(space, p, q) for q in net.points)
                assert near <= 0.6


def test_epsilon_net_idempotent():
    rng = np.random.default_rng(29)
    from ballcover.geometry import random_point

    pts = [random_point(E2, rng) for _ in range(60)]
    net = epsilon_net_greedy(E2, pts, 0.5)
    again = epsilon_net_greedy(E2, net.points, 0.5)
    assert again.points == net.points


def test_epsilon_net_bad_eps():
    with pytest.raises(InputError):
        epsilon_net_greedy(E1, [Point((0.0,))], 0.0)


# ---------------------------------------------------------------------------
# Covering-number estimates
# ---------------------------------------------------------------------------


def test_covering_number_line_segment():
    # 1-nets of [-2, 2]: any maximal one has between 3 and 5 points
    for seed in range(20):
        est = covering_number(E1, Ball(Point((0.0,)), 2.0), 1.0, budget=200, seed=seed)
        assert est in (3, 4, 5)


def test_covering_number_deterministic_for_fixed_seed():
    a = covering_number(E2, Ball(Point((0.0, 0.0)), 2.0), 1.0, budget=128, seed=7)
    b = covering_number(E2, Ball(Point((0.0, 0.0)), 2.0), 1.0, budget=128, seed=7)
    assert a == b


def test_covering_number_doubling_estimate():
    # Covering B(0, 2r) by r-balls in the plane.  The hexagonal construction
    # below is an independent oracle showing the true covering number is <= 7;
    # the sampled estimate may exceed it slightly but stays within 9.
    centers = [(0.0, 0.0)] + [
        (math.sqrt(3.0) * math.cos(k * math.pi / 3.0), math.sqrt(3.0) * math.sin(k * math.pi / 3.0))
        for k in range(6)
    ]
    rng = np.random.default_rng(1)
    for _ in range(4000):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = 2.0 * math.sqrt(rng.uniform())
        x, y = rad * math.cos(ang), rad * math.sin(ang)
        assert min(math.hypot(x - cx, y - cy) for cx, cy in centers) <= 1.0 + 1e-12
    for seed in range(10):
        est = covering_number(E2, Ball(Point((0.0, 0.0)), 2.0), 1.0, budget=96, seed=seed)
        assert est <= 9


def test_covering_number_budget_check():
    with pytest.raises(InputError):
        covering_number(E2, Ball(Point((0.0, 0.0)), 1.0), 0.5, budget=2)


# ---------------------------------------------------------------------------
# Alpha-configurations
# ---------------------------------------------------------------------------


def test_alpha_configuration_interval_example():
    fam = interval_family([(0.0, 1.0)])
    target = Ball(Point((1.2,)), 0.7)
    assert is_alpha_configuration(fam, target, 0.75).is_valid


def test_alpha_configuration_radius_violation():
    fam = interval_family([(0.0, 1.0)])
    target = Ball(Point((0.5,)), 0.8)  # 0.8 >= 0.75 * 1.0
    v = is_alpha_configuration(fam, target, 0.75)
    assert v.status == "invalid"
    assert v.witness == 0


def test_alpha_configuration_miss_violation():
    fam = interval_family([(0.0, 1.0)])
    target = Ball(Point((5.0,)), 0.7)
    v = is_alpha_configuration(fam, target, 0.75)
    assert v.status == "invalid"
    assert "meet" in v.reason


def test_alpha_configuration_empty_is_valid():
    assert is_alpha_configuration(BallFamily(E1, ()), Ball(Point((0.0,)), 0.5), 0.8).is_valid


def test_alpha_configuration_alpha_range():
    fam = interval_family([(0.0, 1.0)])
    target = Ball(Point((1.2,)), 0.7)
    for bad in (0.5, 1.0, 0.2, 1.3):
        with pytest.raises(InputError):
            is_alpha_configuration(fam, target, bad)


# ---------------------------------------------------------------------------
# Satellite configurations
# ---------------------------------------------------------------------------


def qset(x, y, r, lam=1.0, diam=None):
    return QuasiRoundSet(Point((float(x), float(y))), r, lam, 2.0 * r if diam is None else diam)


def test_satellite_singleton():
    s = qset(0.0, 0.0, 1.0)
    v = is_tau_satellite_configuration(E2, [s], [Point((0.0, 0.0))], tau=1.5)
    assert v.is_valid
    assert v.witness == 0


def test_satellite_three_set_chain():
    # ordered chain: anchors outside earlier inner balls, diameters shrinking,
    # and the first set meets the other two - so index 0 is central
    sets = [
        qset(0.0, 0.0, 1.0, diam=2.0),
        qset(1.8, 0.0, 0.9, diam=1.8),
        qset(0.9, 0.8, 0.85, diam=1.7),
    ]
    points = [s.anchor for s in sets]
    v = is_tau_satellite_configuration(E2, sets, points, tau=1.5)
    assert v.is_valid
    assert v.witness == 0


def test_satellite_exclusion_violation():
    sets = [qset(0.0, 0.0, 1.0), qset(0.5, 0.0, 0.9, diam=1.8)]
    points = [s.anchor for s in sets]
    v = is_tau_satellite_configuration(E2, sets, points, tau=1.5)
    assert v.status == "invalid"
    assert v.witness[0] == "exclusion"


def test_satellite_diameter_order_violation():
    sets = [qset(0.0, 0.0, 1.0, diam=1.0), qset(3.0, 0.0, 1.0, diam=1.9)]
    points = [s.anchor for s in sets]
    v = is_tau_satellite_configuration(E2, sets, points, tau=1.5)
    assert v.status == "invalid"
    assert v.witness[0] == "diameter-order"


def test_satellite_membership_uses_outer_radius():
    # distance 1.5 from the anchor: outside the inner ball (r = 1) but
    # possibly inside the set (lam = 2), so membership passes
    s = qset(0.0, 0.0, 1.0, lam=2.0, diam=3.0)
    v = is_tau_satellite_configuration(E2, [s], [Point((1.5, 0.0))], tau=1.5)
    assert v.is_valid
    far = is_tau_satellite_configuration(E2, [s], [Point((2.5, 0.0))], tau=1.5)
    assert far.status == "invalid"


def test_satellite_input_errors():
    s = qset(0.0, 0.0, 1.0)
    with pytest.raises(InputError):
        is_tau_satellite_configuration(E2, [s], [], tau=1.5)
    with pytest.raises(InputError):
        is_tau_satellite_configuration(E2, [s], [s.anchor], tau=1.0)


def test_quasi_round_set_invariants():
    with pytest.raises(InputError):
        QuasiRoundSet(Point((0.0, 0.0)), 1.0, 1.0, 5.0)  # diameter > 2*lam*r
    with pytest.raises(InputError):
        QuasiRoundSet(Point((0.0, 0.0)), 1.0, 0.5, 1.0)  # lam < 1
    with pytest.raises(InputError):
        QuasiRoundSet(Point((0.0, 0.0)), -1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Net-cardinality bound
# ---------------------------------------------------------------------------


def test_strict_net_bound_values():
    assert strict_net_bound(0.75, 2) == 20
    assert strict_net_bound(0.75, 1) == 4
    assert strict_net_bound(0.51, 1) == 4
    assert strict_net_bound(0.6, 3) == 74


def test_strict_net_bound_monotone_in_dim():
    for alpha in (0.55, 0.75, 0.95):
        vals = [strict_net_bound(alpha, d) for d in range(1, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestToleranceRange:
    """A NaN or infinite slack passes every comparison it enters, so it
    would certify a family with a disjoint pair; a negative one turns
    true tests false.  Every validator refuses all three."""

    BAD = [math.nan, math.inf, -1.0]

    def apart(self):
        return disk_family([(-3.0, 0.0, 1.0), (3.0, 0.0, 1.0), (0.0, 2.5, 1.2)])

    @pytest.mark.parametrize("tol", BAD, ids=repr)
    def test_validators_raise(self, tol):
        family = self.apart()
        target = Ball(Point((0.0, 0.0)), 0.1)
        sets = [QuasiRoundSet(Point((0.0, 0.0)), 1.0, 1.0, 1.5)]
        with pytest.raises(InputError, match="tolerance must be finite and >= 0"):
            find_common_point(family, tol=tol)
        with pytest.raises(InputError, match="tolerance must be finite and >= 0"):
            is_besicovitch_family(family, tol=tol)
        with pytest.raises(InputError, match="tolerance must be finite and >= 0"):
            is_k_configuration(family, tol=tol)
        with pytest.raises(InputError, match="tolerance must be finite and >= 0"):
            is_alpha_configuration(family, target, 0.75, tol=tol)
        with pytest.raises(InputError, match="tolerance must be finite and >= 0"):
            is_tau_satellite_configuration(E2, sets, [Point((0.0, 0.0))], 2.0, tol=tol)

    def test_zero_is_accepted(self):
        family = self.apart()
        assert is_besicovitch_family(family, tol=0.0).status == "invalid"
        assert is_k_configuration(family, tol=0.0).status == "invalid"
        assert find_common_point(family, tol=0.0).point is None
