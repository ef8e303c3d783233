"""The unrolled sweeps and the satellite validator on plain floats.

``_Flat`` binds an unrolled common-point sweep for l2 in dimensions 2
and 3, and ``_Sphere`` one for S^2, in place of the generic
``_Model.sweep``, and ``is_tau_satellite_configuration`` calls the
space's scalar kernel on coordinate tuples instead of ``distance`` on
points.  Both must give the
floats, verdicts and error messages of the code they replace: floats are
compared with ``==`` and their signs with ``math.copysign``, so a zero
of the wrong sign fails too.
"""

import math
import random
from functools import partial
from types import SimpleNamespace

import pytest

from ballcover import (
    Ball,
    BallFamily,
    DomainError,
    InputError,
    Point,
    Space,
    Tangent,
    distance,
    exp_map,
    find_common_point,
)
from ballcover.covering import (
    INVALID,
    VALID,
    QuasiRoundSet,
    Verdict,
    is_besicovitch_family,
    is_tau_satellite_configuration,
)
from ballcover._rng import Generator
from ballcover.geometry import (
    DEFAULT_TOL,
    _Model,
    _sweep_l2_2,
    _sweep_l2_3,
    _sweep_s2,
    random_point,
)


def same_floats(a, b):
    return len(a) == len(b) and all(
        (x == y or (math.isnan(x) and math.isnan(y)))
        and math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in zip(a, b)
    )


def generic(space):
    """A copy of ``space`` whose model sweeps with the generic loop."""
    twin = Space(space.kind, space.dim, space.pnorm, space.radius)
    twin._model.sweep = _Model.sweep.__get__(twin._model)
    return twin


def generic_sweep(model, x, balls, sweeps, stop):
    """``_Model.sweep`` with ``model``'s kernel and step, and whether its
    stationarity test ended it before the cap: a sweep calls the kernel
    once per ball and once more for that test."""
    calls = []

    def kernel(a, b):
        calls.append(None)
        return model.kernel(a, b)

    x = _Model.sweep(SimpleNamespace(kernel=kernel, step=model.step), x, balls, sweeps, stop)
    return x, len(calls) < sweeps * (len(balls) + 1)


def draw(rng, dim, n, scale=1.0):
    return tuple(tuple(scale * rng.gauss(0.0, 1.0) for _ in range(dim)) for _ in range(n))


def random_families(dim, seed):
    rng = random.Random(seed)
    out = []
    for n in (1, 2, 3, 5, 8):
        y = draw(rng, dim, 1)[0]
        centers = draw(rng, dim, n, 2.0)
        for slack in (1e-6, 0.3, -1e-3):  # feasible tight, loose, infeasible
            radii = tuple((1.0 + slack) * math.dist(c, y) for c in centers)
            out.append((centers, radii))
        out.append((draw(rng, dim, n, 10.0), tuple(rng.uniform(0.2, 1.0) for _ in range(n))))
    return out


def edge_families(dim):
    def at(*lead):
        return tuple(lead) + (0.0,) * (dim - len(lead))

    return [
        ((at(-1.0), at(1.0)), (1.0, 1.0)),  # tangent pair
        ((at(0.0, -2.0), at(0.0, 2.0)), (2.0, 2.0)),
        ((at(0.5, 0.25),), (0.75,)),  # one ball
        ((at(0.5, 0.25),), (0.0,)),
        ((at(0.0), at(1.0), at(0.0, 1.0)), (0.0, 0.0, 0.0)),  # zero radii
        ((at(1.0), at(1.0)), (0.0, 0.0)),
        ((at(1e150, -1e150), at(-1e150, 1e150)), (1.5e150, 1.5e150)),  # squares near 1e300
        ((at(1e150, 3e149), at(-2e150), at(0.0, 1e150)), (2e150, 2e150, 2e150)),
        ((at(-0.0, -0.0), at(0.0, 0.0)), (0.0, 1.0)),  # signed zeros
    ]


def starts(centers, dim):
    return [centers[0], (0.0,) * dim, (-0.0,) * dim, tuple(3.0 for _ in range(dim))]


@pytest.mark.parametrize("dim", [2, 3])
def test_unrolled_sweep_is_bound_for_l2_in_two_and_three_dimensions(dim):
    unrolled = _sweep_l2_2 if dim == 2 else _sweep_l2_3
    assert Space.euclidean(dim)._model.sweep is unrolled
    # S^2 binds its own unrolled sweep; S^1, S^3 and the hyperboloid do not
    sweep = Space.sphere(2, 2.5)._model.sweep
    assert sweep.func is _sweep_s2 and sweep.args == (2.5,)
    for other in (Space.euclidean(1), Space.euclidean(4), Space.euclidean(dim, 1.0),
                  Space.sphere(1), Space.sphere(3), Space.hyperbolic(dim)):
        assert other._model.sweep.__func__ is _Model.sweep


@pytest.mark.parametrize("dim", [2, 3])
def test_unrolled_sweep_equals_the_generic_one(dim):
    model = Space.euclidean(dim)._model
    cases = random_families(dim, 70 + dim) + edge_families(dim)
    stopped = set()
    for centers, radii in cases:
        balls = list(zip(centers, radii))
        for x in starts(centers, dim):
            for sweeps, stop in ((2, 1e-10), (400, 1e-10), (50, 0.0), (1, math.inf)):
                got = model.sweep(x, balls, sweeps, stop)
                want, early = generic_sweep(model, x, balls, sweeps, stop)
                assert same_floats(got, want), (centers, radii, x, got, want)
                stopped.add(early)
    assert stopped == {True, False}


@pytest.mark.parametrize("dim", [2, 3])
def test_a_start_inside_every_ball_does_not_move(dim):
    model = Space.euclidean(dim)._model
    x = (0.25,) + (-0.0,) * (dim - 1)
    balls = [((1.0,) + (0.0,) * (dim - 1), 1.0), ((0.0,) * dim, 0.5)]
    got = model.sweep(x, balls, 10, 1e-10)
    want, early = generic_sweep(model, x, balls, 10, 1e-10)
    assert early and same_floats(got, x) and same_floats(got, want)


@pytest.mark.parametrize("dim", [2, 3])
def test_find_common_point_matches_the_generic_sweep(dim):
    space = Space.euclidean(dim)
    twin = generic(space)
    outcomes = set()
    for centers, radii in random_families(dim, 80 + dim) + edge_families(dim):
        for max_iter, threshold in ((10_000, 1e-10), (2 * len(radii), 1e-10), (600, 0.0)):
            got = find_common_point(BallFamily.from_columns(space, centers, radii),
                                    max_iter=max_iter, threshold=threshold)
            want = find_common_point(BallFamily.from_columns(twin, centers, radii),
                                     max_iter=max_iter, threshold=threshold)
            assert same_floats((got.max_violation,), (want.max_violation,))
            assert (got.point is None) == (want.point is None)
            if got.point is not None:
                assert same_floats(got.point.coords, want.point.coords)
            outcomes.add(got.point is not None)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the S^2 sweep against the generic one
# ---------------------------------------------------------------------------

SPHERE_RADII = (1.0, 2.5)


def on_sphere(rng, radius):
    g = [rng.gauss(0.0, 1.0) for _ in range(3)]
    n = math.hypot(*g)
    return tuple(radius * v / n for v in g)


def random_caps(radius, seed):
    rng = random.Random(seed)
    arc = Space.sphere(2, radius)._model.kernel
    out = []
    for n in (1, 2, 3, 5, 8):
        y = on_sphere(rng, radius)
        centers = tuple(on_sphere(rng, radius) for _ in range(n))
        for slack in (1e-6, 0.3, -1e-3):  # feasible tight, loose, infeasible
            out.append((centers, tuple((1.0 + slack) * arc(c, y) for c in centers)))
        out.append((centers, tuple(rng.uniform(0.2, 1.0) * radius for _ in range(n))))
    return out


def edge_caps(radius):
    R = radius
    s, c = R * math.sin(0.4), R * math.cos(0.4)
    return [
        (((s, 0.0, c), (-s, 0.0, c)), (0.4 * R, 0.4 * R)),  # tangent at the pole
        (((R, 0.0, 0.0), (-R, 0.0, 0.0)), (0.5 * math.pi * R,) * 2),  # a great circle
        (((0.0, 0.0, R),), (0.75 * R,)),  # one cap
        (((0.0, 0.6 * R, 0.8 * R),), (0.0,)),
        (((0.0, 0.0, R),), (4.0 * R,)),  # the whole sphere
        (((R, 0.0, 0.0), (0.0, R, 0.0), (0.0, 0.0, R)), (0.0, 0.0, 0.0)),  # zero radii
        (((0.0, 0.0, R), (0.0, 0.0, R)), (0.0, 0.0)),
        (((-0.0, -0.0, R), (0.0, 0.0, R)), (0.0, R)),  # signed zeros
        (((0.0, -0.0, -R), (-0.0, R, 0.0)), (R, R)),
        (((0.0, 0.0, R), (0.0, 0.0, -R)), (0.5 * R, 0.5 * R)),  # infeasible, antipodal
    ]


def cap_starts(centers, radius, rng):
    return [centers[0], on_sphere(rng, radius), (0.0, -0.0, radius), (-0.0, -0.0, -radius),
            tuple(-v for v in centers[0])]  # antipodal to a center


def sweep_outcome(sweep, *args):
    try:
        return sweep(*args)
    except DomainError as e:
        return str(e)


def count_away(monkeypatch):
    """Count the steps that leave the antipode of a center (both sweeps
    call ``geometry._away`` there)."""
    from ballcover import geometry

    calls = []
    away = geometry._away
    monkeypatch.setattr(geometry, "_away", lambda R, x: calls.append(x) or away(R, x))
    return calls


@pytest.mark.parametrize("radius", SPHERE_RADII)
def test_sphere_sweep_equals_the_generic_one(radius, monkeypatch):
    model = Space.sphere(2, radius)._model
    rng = random.Random(60)
    seen = set()
    antipodal = count_away(monkeypatch)
    for centers, radii in random_caps(radius, 61) + edge_caps(radius):
        balls = list(zip(centers, radii))
        for x in cap_starts(centers, radius, rng):
            for sweeps, stop in ((2, 1e-10), (400, 1e-10), (50, 0.0), (1, math.inf)):
                got = sweep_outcome(model.sweep, x, balls, sweeps, stop)
                want = sweep_outcome(generic_sweep, model, x, balls, sweeps, stop)
                if isinstance(want, str):
                    assert got == want
                    seen.add(want)
                    continue
                assert not isinstance(got, str), (centers, radii, x, got)
                assert same_floats(got, want[0]), (centers, radii, x, got, want)
                seen.add(want[1])
    assert seen == {True, False}
    assert len(antipodal) > 100  # the starts antipodal to a center, in both sweeps


@pytest.mark.parametrize("radius", SPHERE_RADII)
def test_sphere_sweep_from_the_antipode_of_a_center_steps_as_the_generic_one(radius):
    """At the antipode of a center, where the log map is undefined, both
    sweeps step along the axis with the least |x_k|, projected: here the
    first, so the step stays in the plane of x and that axis, and ends on
    the ball's boundary."""
    model = Space.sphere(2, radius)._model
    c = (0.0, 0.6 * radius, 0.8 * radius)
    x = tuple(-v for v in c)
    got, want = (sweep(x, [(c, 0.5 * radius)], 3, 1e-10)
                 for sweep in (model.sweep, partial(_Model.sweep, model)))
    assert same_floats(got, want)
    assert got[0] > 0.0 and got[1] * x[2] == pytest.approx(got[2] * x[1], abs=1e-15 * radius)
    assert model.kernel(got, c) == pytest.approx(0.5 * radius, rel=1e-12)
    with pytest.raises(DomainError, match="^log map is undefined at antipodal points$"):
        model.log(x, c, None)


def test_the_hyperboloid_steps_through_the_log_map_at_every_distance(monkeypatch):
    """The antipode step is the spheres' only: a hyperboloid step, at an
    infinite distance too, goes through ``log_map``, which the benchmark's
    layer trace counts, and never through ``_away``."""
    from ballcover import geometry

    away = count_away(monkeypatch)
    logs = []
    log_map = geometry.log_map
    monkeypatch.setattr(geometry, "log_map", lambda *a: logs.append(a) or log_map(*a))
    space = Space.hyperbolic(2)
    model = space._model
    c = exp_map(space, Tangent(Point(model.origin), (5.0, 0.0, 0.0))).coords
    for d in (model.kernel(model.origin, c), math.inf):
        model.step(model.origin, c, 1.0, d)
    assert len(logs) == 2 and away == []


@pytest.mark.parametrize("radius", SPHERE_RADII)
def test_the_step_off_an_antipode_is_a_unit_tangent_along_the_least_axis(radius):
    from ballcover.geometry import _away

    rng = random.Random(63)
    points = [on_sphere(rng, radius) for _ in range(200)]
    points += [(0.0, 0.0, radius), (0.0, -radius, 0.0), (radius, 0.0, 0.0)]  # ties: the first
    for x in points:
        u = _away(radius, x)
        k = min(range(3), key=lambda i: abs(x[i]))
        assert math.fsum(v * v for v in u) == pytest.approx(1.0, abs=1e-15)
        assert abs(math.fsum(a * b for a, b in zip(u, x))) < 1e-15 * radius
        # u lies in the plane of x and the axis: its cross terms off the axis vanish
        i, j = (m for m in range(3) if m != k)
        assert u[i] * x[j] == pytest.approx(u[j] * x[i], abs=1e-15 * radius)
        assert u[k] > 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_antipodal_hemispheres_meet_on_the_equator(dim):
    space = Space.sphere(dim)
    pole = (0.0,) * dim + (1.0,)
    family = BallFamily.from_columns(space, [pole, tuple(-v for v in pole)], [math.pi / 2] * 2)
    verdict = is_besicovitch_family(family)
    assert verdict.is_valid and abs(verdict.witness.coords[-1]) < 1e-12


@pytest.mark.parametrize("radius", SPHERE_RADII)
def test_find_common_point_on_the_two_sphere_matches_the_generic_sweep(radius):
    space = Space.sphere(2, radius)
    twin = generic(space)
    assert twin._model.sweep.__func__ is _Model.sweep
    outcomes = set()
    for centers, radii in random_caps(radius, 62) + edge_caps(radius):
        for max_iter, threshold in ((10_000, 1e-10), (2 * len(radii), 1e-10), (600, 0.0)):
            got, want = (
                sweep_outcome(find_common_point, BallFamily.from_columns(s, centers, radii),
                              DEFAULT_TOL, max_iter, threshold)
                for s in (space, twin)
            )
            if isinstance(want, str):
                assert got == want
                outcomes.add(want)
                continue
            assert same_floats((got.max_violation,), (want.max_violation,))
            assert (got.point is None) == (want.point is None)
            if got.point is not None:
                assert same_floats(got.point.coords, want.point.coords)
            outcomes.add(got.point is not None)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the satellite validator against the distance-based loop it replaces
# ---------------------------------------------------------------------------


def ref_satellite(space, sets, points, tau, tol=1e-9):
    n = len(sets)
    if n == 0:
        return Verdict(INVALID, reason="empty configuration")
    for i, (s, a) in enumerate(zip(sets, points)):
        if distance(space, a, s.anchor) > s.outer_radius + tol * (1.0 + s.outer_radius):
            return Verdict(INVALID, reason="point %d lies outside its set" % i,
                           witness=("membership", i))
    for i in range(n):
        si = sets[i]
        for j in range(i + 1, n):
            if distance(space, points[j], si.anchor) <= si.inner_radius:
                return Verdict(INVALID, reason="point %d lies inside earlier set %d" % (j, i),
                               witness=("exclusion", i, j))
            if not sets[j].diameter < tau * si.diameter:
                return Verdict(INVALID,
                               reason="set %d is not tau-smaller than earlier set %d" % (j, i),
                               witness=("diameter-order", i, j))
    for i0 in range(n):
        s0 = sets[i0]
        ok = True
        for i in range(n):
            if i == i0:
                continue
            si = sets[i]
            reach = s0.outer_radius + si.outer_radius
            if distance(space, s0.anchor, si.anchor) > reach + tol * (1.0 + reach):
                ok = False
                break
            if not s0.diameter < tau * si.diameter:
                ok = False
                break
        if ok:
            return Verdict(VALID, witness=i0)
    return Verdict(INVALID, reason="no admissible central set", witness=("central", None))


def random_configuration(space, rng, n):
    sets, points = [], []
    for _ in range(n):
        r = rng.uniform(0.05, 1.0)
        lam = rng.uniform(1.0, 1.5)
        anchor = random_point(space, rng, 1.0)
        if space.is_flat:
            a = Point(tuple(x + rng.normal(0.0, 0.5 * r) for x in anchor.coords))
        else:
            a = random_point(space, rng, 1.0) if rng.uniform() < 0.3 else anchor
        sets.append(QuasiRoundSet(anchor, r, lam, rng.uniform(r, 2.0 * lam * r)))
        points.append(a)
    return sets, points


@pytest.mark.parametrize("space", [Space.euclidean(2), Space.euclidean(3), Space.euclidean(2, 1.0),
                                   Space.sphere(2), Space.hyperbolic(2)], ids=str)
def test_satellite_validator_matches_the_distance_loop(space):
    rng = Generator(90)
    statuses = set()
    for k in range(300):
        sets, points = random_configuration(space, rng, 1 + rng.integers(0, 6))
        tau = rng.uniform(1.01, 4.0)
        got = is_tau_satellite_configuration(space, sets, points, tau)
        assert got == ref_satellite(space, sets, points, tau)
        statuses.add(got.witness[0] if got.status == INVALID else VALID)
    assert VALID in statuses and len(statuses) >= 3


def test_satellite_validator_keeps_the_width_message():
    space = Space.euclidean(2)
    sets = [QuasiRoundSet(Point((0.0, 0.0)), 1.0, 1.0, 1.5)] * 2
    with pytest.raises(InputError, match=r"^p has 3 coordinates, expected 2$"):
        is_tau_satellite_configuration(space, sets, [Point((0.0, 0.0)), Point((0.0, 0.0, 0.0))], 2.0)
    bad = [sets[0], QuasiRoundSet(Point((0.0,)), 1.0, 1.0, 1.5)]
    with pytest.raises(InputError, match=r"^q has 1 coordinates, expected 2$"):
        is_tau_satellite_configuration(space, bad, [Point((0.0, 0.0))] * 2, 2.0)
    # the message is the one distance gives on the same pair
    with pytest.raises(InputError, match=r"^p has 3 coordinates, expected 2$"):
        distance(space, Point((0.0, 0.0, 0.0)), sets[0].anchor)
