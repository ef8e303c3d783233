"""The grid-indexed loops of selection and covering against scalar loops.

Every routine that measures one point against many balls through the
grid index must decide exactly as a loop over every pair of ``distance``
calls does.  The references below are those loops, and the comparisons
use ``==`` with no tolerance.
"""

import math

import numpy as np
import pytest

from ballcover import (
    Ball,
    BallFamily,
    Point,
    QuasiRoundSet,
    Space,
    distance,
    epsilon_net_greedy,
    overlap_profile,
)
from ballcover.errors import InternalError
from ballcover.geometry import _Grid, random_point, uniform_in_ball
from ballcover.selection import (
    _check_separation,
    morse_partition,
    partition_into_disjoint_families,
    select_bounded_overlap_subcover,
)

# ---------------------------------------------------------------------------
# seeded scenes and scalar references
# ---------------------------------------------------------------------------


def clustered_scene(space, seed, n, spread, rlo, rhi):
    rng = np.random.default_rng(seed)
    region = Ball(space.origin(), spread)
    return BallFamily(
        space,
        tuple(Ball(uniform_in_ball(space, region, rng), float(rng.uniform(rlo, rhi)))
              for _ in range(n)),
    )


def wide_sphere_scene(seed, n):
    space = Space.sphere(2)
    rng = np.random.default_rng(seed)
    return BallFamily(
        space,
        tuple(Ball(random_point(space, rng), float(rng.uniform(0.2, 0.7))) for _ in range(n)),
    )


def grid_scene(dim, seed):
    """Balls on integer points with radii 1, 1.5 or 2: exact boundary ties."""
    rng = np.random.default_rng(seed)
    side = 40 if dim == 1 else 9
    cells = np.stack(np.meshgrid(*[np.arange(side)] * dim), -1).reshape(-1, dim)
    return BallFamily(
        Space.euclidean(dim),
        tuple(Ball(Point(tuple(float(v) for v in c)), float(rng.choice([1.0, 1.5, 2.0])))
              for c in cells),
    )


SCENES = {
    "grid-line": lambda: grid_scene(1, 8),
    "grid-plane": lambda: grid_scene(2, 9),
    "line": lambda: clustered_scene(Space.euclidean(1), 1, 150, 20.0, 0.2, 2.0),
    "plane": lambda: clustered_scene(Space.euclidean(2), 2, 150, 8.0, 0.3, 1.5),
    "l3": lambda: clustered_scene(Space.euclidean(3, 3.0), 3, 120, 4.0, 0.3, 1.2),
    "sphere-cap": lambda: clustered_scene(Space.sphere(2), 4, 120, 0.4, 0.02, 0.1),
    "sphere-wide": lambda: wide_sphere_scene(5, 100),
    "hyperbolic": lambda: clustered_scene(Space.hyperbolic(2), 6, 120, 2.0, 0.1, 0.6),
}


def ref_first_fit(space, balls, order):
    families, assignment = [], [-1] * len(balls)
    for i in order:
        for f, members in enumerate(families):
            if all(
                distance(space, balls[i].center, balls[j].center)
                > balls[i].radius + balls[j].radius
                for j in members
            ):
                members.append(i)
                assignment[i] = f
                break
        else:
            assignment[i] = len(families)
            families.append([i])
    return families, assignment


def ref_select(family, centers, beta):
    """Bands, disjoint rounds and coverage, as a scalar loop."""
    space = family.space
    ball_to_center = {}
    for ci, p in enumerate(centers):
        for bi, b in enumerate(family):
            if b.center.coords == p.coords:
                ball_to_center.setdefault(bi, ci)
    covered = [False] * len(centers)
    cands = sorted(ball_to_center, key=lambda i: (-family[i].radius, family[i].center.coords, i))
    by_band = {}
    if cands:
        band, lo = 1, beta * family[cands[0]].radius
        for i in cands:
            while family[i].radius <= lo:
                band += 1
                lo *= beta
            by_band.setdefault(band, []).append(i)
    selected, bands = [], []
    for band in sorted(by_band):
        while True:
            pool = [i for i in by_band[band] if not covered[ball_to_center[i]]]
            if not pool:
                break
            round_sel = []
            for i in pool:
                if all(
                    distance(space, family[i].center, family[j].center)
                    > family[i].radius + family[j].radius
                    for j in round_sel
                ):
                    round_sel.append(i)
            selected += round_sel
            bands += [band] * len(round_sel)
            for ci, p in enumerate(centers):
                if not covered[ci] and any(
                    distance(space, p, family[i].center) <= family[i].radius for i in round_sel
                ):
                    covered[ci] = True
    return selected, bands, covered


def ref_net(space, points, eps, strict):
    kept = []
    for i, p in enumerate(points):
        ok = True
        for j in kept:
            d = distance(space, p, points[j])
            if d < eps or (strict and d == eps):
                ok = False
                break
        if ok:
            kept.append(i)
    return kept


def ref_profile(family, probes, tol=1e-9):
    histogram, best, witness = {}, -1, None
    for p in probes:
        depth = sum(
            1 for b in family
            if distance(family.space, p, b.center) <= b.radius + tol * (1.0 + b.radius)
        )
        histogram[depth] = histogram.get(depth, 0) + 1
        if depth > best:
            best, witness = depth, p
    return best, witness, histogram


def sorted_order(family):
    return sorted(range(len(family)), key=lambda i: (-family[i].radius, family[i].center.coords, i))


# ---------------------------------------------------------------------------
# the loops against their references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENES))
def test_partition_matches_scalar_first_fit(name):
    fam = SCENES[name]()
    res = partition_into_disjoint_families(fam, 0.75)
    families, assignment = ref_first_fit(fam.space, fam.balls, sorted_order(fam))
    assert len(families) > 1
    assert list(res.assignment) == assignment
    assert [f.balls for f in res.families] == [tuple(fam[i] for i in ms) for ms in families]


@pytest.mark.parametrize("name", ["plane", "l3", "sphere-cap", "hyperbolic"])
def test_morse_partition_matches_scalar_first_fit(name):
    fam = SCENES[name]()
    rng = np.random.default_rng(7)
    lam, sets = 1.3, []
    for b in fam:
        r = b.radius / 2.0
        sets.append(QuasiRoundSet(b.center, r, float(rng.uniform(1.0, lam)), 1.5 * r))
    res = morse_partition(fam.space, sets, 1.5, lam)
    outer = [Ball(s.anchor, lam * s.inner_radius) for s in sets]
    order = sorted(
        range(len(sets)), key=lambda k: (-sets[k].diameter, sets[k].anchor.coords, k)
    )
    families, assignment = ref_first_fit(fam.space, outer, order)
    assert len(families) > 1
    assert list(res.assignment) == assignment
    assert [f.balls for f in res.families] == [tuple(outer[k] for k in ms) for ms in families]


@pytest.mark.parametrize("name", sorted(SCENES))
def test_select_matches_scalar_rounds(name):
    fam = SCENES[name]()
    centers = fam.centers
    res = select_bounded_overlap_subcover(fam, centers, 0.5)
    selected, bands, covered = ref_select(fam, centers, 0.5)
    assert res.selected.balls == tuple(fam[i] for i in selected)
    assert list(res.bands) == bands
    assert list(res.covered_centers) == covered
    if fam.space.kind != "euclidean" or fam.space.dim != 1:
        assert res.overlap.max_overlap == ref_profile(res.selected, centers)[0]


@pytest.mark.parametrize("name", sorted(SCENES))
@pytest.mark.parametrize("strict", [False, True])
def test_net_matches_scalar_greedy(name, strict):
    fam = SCENES[name]()
    space, points = fam.space, fam.centers
    if name.startswith("grid"):
        eps_values = (1.0, 2.0)
    else:
        d = [distance(space, points[0], q) for q in points[1:]]
        eps_values = (float(np.median(d)) / 4.0, float(np.median(d)))
    for eps in eps_values:
        net = epsilon_net_greedy(space, points, eps, strict=strict)
        want = ref_net(space, points, eps, strict)
        assert net.indices == want
        assert net.points == [points[i] for i in want]


def test_net_strict_flag_changes_grid_result():
    fam = SCENES["grid-line"]()
    loose = epsilon_net_greedy(fam.space, fam.centers, 2.0)
    assert loose.indices != epsilon_net_greedy(fam.space, fam.centers, 2.0, strict=True).indices


@pytest.mark.parametrize("name", sorted(SCENES))
def test_overlap_profile_matches_scalar_probes(name):
    fam = SCENES[name]()
    rng = np.random.default_rng(11)
    probes = fam.centers + [uniform_in_ball(fam.space, b, rng) for b in fam.balls[:40]]
    prof = overlap_profile(fam, probes=probes)
    best, witness, histogram = ref_profile(fam, probes)
    assert prof.max_overlap == best > 1
    assert prof.witness == witness
    assert prof.histogram == histogram


# ---------------------------------------------------------------------------
# empty and single-ball inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("space", [Space.euclidean(1), Space.euclidean(2), Space.sphere(2)],
                         ids=str)
def test_empty_inputs(space):
    empty = BallFamily(space, ())
    res = select_bounded_overlap_subcover(empty, [])
    assert len(res.selected) == 0 and res.bands == () and res.covered_centers == ()
    assert res.overlap.max_overlap == 0
    part = partition_into_disjoint_families(empty)
    assert part.families == () and part.assignment == ()
    assert morse_partition(space, [], 1.5, 1.0).families == ()
    assert epsilon_net_greedy(space, [], 1.0) == ([], [])
    one = BallFamily(space, (Ball(space.origin(), 0.1),))
    assert overlap_profile(one, probes=[]).histogram == {}
    assert overlap_profile(empty, probes=[space.origin()]).max_overlap == 0


@pytest.mark.parametrize("space", [Space.euclidean(1), Space.euclidean(2), Space.hyperbolic(2)],
                         ids=str)
def test_single_ball_inputs(space):
    ball = Ball(space.origin(), 0.5)
    fam = BallFamily(space, (ball,))
    res = select_bounded_overlap_subcover(fam, [ball.center])
    assert res.selected.balls == (ball,) and res.bands == (1,) and res.covered_centers == (True,)
    part = partition_into_disjoint_families(fam)
    assert part.assignment == (0,) and part.families[0].balls == (ball,)
    qs = QuasiRoundSet(ball.center, 0.05, 1.0, 0.1)
    assert morse_partition(space, [qs], 1.5, 1.0).assignment == (0,)
    assert epsilon_net_greedy(space, [ball.center], 1.0).indices == [0]
    prof = overlap_profile(fam, probes=[ball.center])
    assert (prof.max_overlap, prof.witness, prof.histogram) == (1, ball.center, {1: 1})


def test_overlap_profile_probes_on_the_tolerance_boundary():
    fam = SCENES["grid-line"]()
    tol = 1e-9
    probes = [Point((b.center.coords[0] + b.radius + tol * (1.0 + b.radius),)) for b in fam]
    prof = overlap_profile(fam, probes=probes, tol=tol)
    best, witness, histogram = ref_profile(fam, probes, tol)
    assert (prof.max_overlap, prof.witness, prof.histogram) == (best, witness, histogram)


# ---------------------------------------------------------------------------
# grid stress: scenes where pruning by cells could go wrong
# ---------------------------------------------------------------------------


def family_of(space, centers, radii):
    return BallFamily(space, tuple(Ball(Point(tuple(float(v) for v in c)), float(r))
                                   for c, r in zip(centers, radii)))


def edge_scene(seed):
    """Centers on the cell edges of their band and radii of half a cell
    side: neighbours touch up to the last bit of the key division."""
    rng = np.random.default_rng(seed)
    side = math.ldexp(1.000001, 1)  # the cells of radii in [1, 2)
    keys = rng.integers(-6, 6, (120, 2))
    return family_of(Space.euclidean(2), keys * side, [side / 2.0] * len(keys))


def decades_scene(seed):
    rng = np.random.default_rng(seed)
    return family_of(Space.euclidean(2), rng.uniform(0.0, 60.0, (150, 2)),
                     10.0 ** rng.uniform(-2.0, 2.0, 150))


def zero_scene(seed, dim=2):
    """Zero radii on repeated integer points: balls meet only where they
    coincide."""
    rng = np.random.default_rng(seed)
    return family_of(Space.euclidean(dim), rng.integers(0, 8, (120, dim)), [0.0] * 120)


def tiny_scene(space, seed, scale):
    """Coordinate gaps where the kernel's sums underflow (for l2 below
    about 1e-161, for l3 below 1e-107, for l100 below 6e-4), so that
    balls whose gap is above their radii can still meet."""
    rng = np.random.default_rng(seed)
    centers = rng.integers(-3, 4, (100, space.dim)) * scale
    return family_of(space, centers, rng.choice([scale / 10.0, scale / 3.0, scale], 100))


def huge_scene(seed, r):
    """1e300 coordinates: differences overflow to inf; with radii near
    the float limit the reach overflows too, and with small radii a
    coordinate over the radius band's cell side does."""
    rng = np.random.default_rng(seed)
    return family_of(Space.euclidean(2), rng.uniform(-1e300, 1e300, (80, 2)),
                     r * rng.uniform(0.5, 1.0, 80))


def offset_scene(seed):
    """Touching balls 2**50 cells away from the origin, where a key
    division has no bits left below the cell."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 40, (120, 2))
    return family_of(Space.euclidean(2), 2.0 ** 47 + keys * 0.125, [0.0625] * 120)


def antipodal_scene(seed):
    """Caps and the caps centered at their antipodes, with radius sums on
    both sides of pi."""
    space = Space.sphere(2)
    rng = np.random.default_rng(seed)
    base = [random_point(space, rng) for _ in range(40)]
    pts = base + [Point(tuple(-x for x in b.coords)) for b in base]
    return BallFamily(space, tuple(Ball(p, float(rng.uniform(1.45, 1.7))) for p in pts))


STRESS = {
    "edges": lambda: edge_scene(20),
    "decades": lambda: decades_scene(21),
    "zero-radii": lambda: zero_scene(22),
    "zero-radii-line": lambda: zero_scene(23, dim=1),
    "tiny-l2": lambda: tiny_scene(Space.euclidean(2), 24, 1e-162),
    "tiny-l3": lambda: tiny_scene(Space.euclidean(2, 3.0), 25, 1e-108),
    "tiny-l100": lambda: tiny_scene(Space.euclidean(2, 100.0), 26, 4e-4),
    "huge": lambda: huge_scene(27, 1e299),
    "huge-reach": lambda: huge_scene(28, 1.7e308),
    "huge-small-radii": lambda: huge_scene(33, 1e-10),
    "antipodal": lambda: antipodal_scene(29),
    "offset": lambda: offset_scene(32),
    "hyperbolic-far": lambda: clustered_scene(Space.hyperbolic(2), 30, 100, 12.0, 0.5, 6.0),
    "l3": lambda: clustered_scene(Space.euclidean(3, 3.0), 31, 100, 6.0, 0.01, 2.0),
}


@pytest.mark.parametrize("name", sorted(STRESS))
def test_stress_partition_and_select_match_the_references(name):
    fam = STRESS[name]()
    res = partition_into_disjoint_families(fam, 0.75)
    assert list(res.assignment) == ref_first_fit(fam.space, fam.balls, sorted_order(fam))[1]
    if min(fam.radii) == 0.0:
        return  # ref_select bands positive radii only
    centers = fam.centers
    sel = select_bounded_overlap_subcover(fam, centers, 0.5)
    selected, bands, covered = ref_select(fam, centers, 0.5)
    assert sel.selected.balls == tuple(fam[i] for i in selected)
    assert (list(sel.bands), list(sel.covered_centers)) == (bands, covered)


@pytest.mark.parametrize("name", sorted(STRESS))
def test_stress_nets_and_probes_match_the_references(name):
    fam = STRESS[name]()
    space, points = fam.space, fam.centers
    for eps in sorted({b.radius for b in fam.balls[:3]} | {1e-3, 2.0}):
        if eps > 0.0:
            for strict in (False, True):
                want = ref_net(space, points, eps, strict)
                assert epsilon_net_greedy(space, points, eps, strict=strict).indices == want
    prof = overlap_profile(fam, probes=points)
    assert (prof.max_overlap, prof.witness, prof.histogram) == ref_profile(fam, points)


@pytest.mark.parametrize("name", sorted(STRESS))
def test_stress_separation_check_matches_the_reference(name):
    fam = STRESS[name]()
    space = fam.space
    for s in (0.3, 0.9):
        violated = any(
            not distance(space, fam[t].center, fam[j].center) > s * max(fam[t].radius, fam[j].radius)
            for t in range(len(fam)) for j in range(t + 1, len(fam))
        )
        raised = False
        try:
            _check_separation(fam, s)
        except InternalError:
            raised = True
        assert raised == violated


def test_the_stress_scenes_reach_both_decisions():
    # each scene has meeting and disjoint pairs, so a wrongly pruned pair
    # would change a decision
    for name in ("edges", "decades", "zero-radii", "tiny-l2", "tiny-l3", "tiny-l100",
                 "antipodal", "offset"):
        fam = STRESS[name]()
        part = partition_into_disjoint_families(fam, 0.75)
        assert 1 < len(part.families) < len(fam), name


def test_grid_falls_back_to_every_pair_without_a_finite_scale():
    space = Space.euclidean(2)
    pts = [Point((0.0, 0.0)), Point((1e300, -1e300))]
    assert len(_Grid(space, pts, 1.0).axes) == 2
    assert len(_Grid(space, pts, math.inf).axes) == 0
    assert len(_Grid(space, pts + [Point((math.inf, 0.0))], 1.0).axes) == 0
    assert len(_Grid(Space.hyperbolic(2), [], 1.0).axes) == 0
    grid = _Grid(space, pts, math.inf)
    for k, p in enumerate(pts):
        grid.add(p.coords, 1.0, k)
    assert sorted(grid.near(pts[0].coords, 0.0)) == [0, 1]
