import math

import numpy as np
import pytest
from scipy import integrate

from ballcover import (
    Ball,
    DomainError,
    InputError,
    Point,
    Space,
    Tangent,
    ball_volume,
    distance,
    exp_map,
    geodesic_interpolate,
    injectivity_radius,
    log_map,
    shrink_ball_toward,
    unit_ball_volume,
)
from ballcover.geometry import (
    project_tangent,
    random_point,
    random_unit_tangent,
    tangent_norm,
    uniform_in_ball,
)

ALL_SPACES = [
    Space.euclidean(1),
    Space.euclidean(2),
    Space.euclidean(3),
    Space.euclidean(2, pnorm=1.0),
    Space.euclidean(3, pnorm=3.0),
    Space.sphere(2),
    Space.sphere(2, radius=2.5),
    Space.sphere(3),
    Space.hyperbolic(2),
    Space.hyperbolic(3),
]


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_space_validation():
    with pytest.raises(InputError):
        Space("torus", 2)
    with pytest.raises(InputError):
        Space.euclidean(0)
    with pytest.raises(InputError):
        Space.euclidean(2, pnorm=0.5)
    with pytest.raises(InputError):
        Space.sphere(2, radius=-1.0)


def test_point_validation():
    s2 = Space.sphere(2)
    with pytest.raises(InputError):
        s2.point([0.5, 0.0, 0.0])  # not on the unit sphere
    with pytest.raises(InputError):
        s2.point([1.0, 0.0])  # wrong ambient dimension
    h2 = Space.hyperbolic(2)
    with pytest.raises(InputError):
        h2.point([0.0, 0.0, -1.0])  # wrong sheet
    with pytest.raises(InputError):
        Space.euclidean(2).point([math.nan, 0.0])
    # re-projection puts slightly-off coordinates exactly on the surface
    p = s2.point([0.0, 0.0, 1.0 + 1e-8])
    assert sum(v * v for v in p.coords) == pytest.approx(1.0, abs=1e-15)


def test_dimension_mismatch_is_input_error():
    e2 = Space.euclidean(2)
    with pytest.raises(InputError):
        distance(e2, Point((0.0, 0.0)), Point((0.0, 0.0, 0.0)))


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def test_euclidean_distance_values():
    e2 = Space.euclidean(2)
    assert distance(e2, Point((0.0, 0.0)), Point((3.0, 4.0))) == pytest.approx(5.0)
    e1 = Space.euclidean(2, pnorm=1.0)
    assert distance(e1, Point((0.0, 0.0)), Point((3.0, 4.0))) == pytest.approx(7.0)
    e3 = Space.euclidean(2, pnorm=3.0)
    assert distance(e3, Point((0.0, 0.0)), Point((1.0, 1.0))) == pytest.approx(2.0 ** (1.0 / 3.0))


def test_sphere_distance_pole_to_equator():
    for R in (1.0, 2.5):
        s2 = Space.sphere(2, radius=R)
        pole = s2.point([0.0, 0.0, R])
        equator = s2.point([R, 0.0, 0.0])
        assert distance(s2, pole, equator) == pytest.approx(math.pi * R / 2.0, rel=1e-12)
        antipode = s2.point([0.0, 0.0, -R])
        assert distance(s2, pole, antipode) == pytest.approx(math.pi * R, rel=1e-12)


def test_hyperbolic_distance_analytic():
    # (sinh t, 0, cosh t) lies at distance exactly t from the base point.
    h2 = Space.hyperbolic(2)
    o = h2.origin()
    for t in (1e-8, 1e-3, 0.5, 2.0, 5.0):
        q = h2.point([math.sinh(t), 0.0, math.cosh(t)])
        assert distance(h2, o, q) == pytest.approx(t, rel=1e-10, abs=1e-14)


def test_distance_symmetry_and_identity():
    rng = np.random.default_rng(7)
    for space in ALL_SPACES:
        for _ in range(50):
            p = random_point(space, rng)
            q = random_point(space, rng)
            assert distance(space, p, q) == pytest.approx(distance(space, q, p), rel=1e-12, abs=1e-12)
            assert distance(space, p, p) <= 1e-12


def test_triangle_inequality():
    rng = np.random.default_rng(11)
    per_space = 10_000 // len(ALL_SPACES) + 1
    for space in ALL_SPACES:
        for _ in range(per_space):
            p = random_point(space, rng)
            q = random_point(space, rng)
            z = random_point(space, rng)
            dpq = distance(space, p, q)
            dpz = distance(space, p, z)
            dzq = distance(space, z, q)
            assert dpq <= dpz + dzq + 1e-9 * (1.0 + dpq)


# ---------------------------------------------------------------------------
# Exponential and logarithmic maps
# ---------------------------------------------------------------------------


def test_exp_map_reaches_stated_distance():
    rng = np.random.default_rng(13)
    for space in ALL_SPACES:
        cap = 0.9 * min(injectivity_radius(space), 10.0)
        for _ in range(200):
            base = random_point(space, rng)
            u = random_unit_tangent(space, base, rng)
            ln = cap * float(rng.uniform(1e-6, 1.0))
            q = exp_map(space, Tangent(base, tuple(ln * v for v in u.vector)))
            assert distance(space, base, q) == pytest.approx(ln, rel=1e-9, abs=1e-12)


def test_exp_log_round_trip():
    rng = np.random.default_rng(17)
    per_space = 10_000 // len(ALL_SPACES) + 1
    for space in ALL_SPACES:
        cap = 0.9 * min(injectivity_radius(space), 10.0)
        for _ in range(per_space):
            base = random_point(space, rng)
            u = random_unit_tangent(space, base, rng)
            ln = cap * float(rng.uniform(0.0, 1.0))
            vec = tuple(ln * v for v in u.vector)
            q = exp_map(space, Tangent(base, vec))
            back = log_map(space, base, q)
            err = math.sqrt(sum((a - b) ** 2 for a, b in zip(back.vector, vec)))
            assert err <= 1e-8 * (1.0 + ln)


def test_log_map_euclidean_is_difference():
    e3 = Space.euclidean(3)
    t = log_map(e3, Point((1.0, 2.0, 3.0)), Point((4.0, 2.0, 1.0)))
    assert t.vector == (3.0, 0.0, -2.0)


def test_sphere_exp_past_injectivity_radius():
    s2 = Space.sphere(2)
    pole = s2.origin()
    u = (1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        exp_map(s2, Tangent(pole, tuple(3.2 * v for v in u)))
    # exactly pi lands on the antipode and is fine
    q = exp_map(s2, Tangent(pole, tuple(math.pi * v for v in u)))
    assert distance(s2, pole, q) == pytest.approx(math.pi, rel=1e-12)


def test_log_map_antipodal_is_domain_error():
    s2 = Space.sphere(2)
    with pytest.raises(DomainError):
        log_map(s2, s2.point([0.0, 0.0, 1.0]), s2.point([0.0, 0.0, -1.0]))


def test_geodesic_interpolate_endpoints_and_midpoint():
    rng = np.random.default_rng(19)
    for space in ALL_SPACES:
        for _ in range(40):
            x = random_point(space, rng)
            # keep pairs inside one injectivity neighbourhood
            u = random_unit_tangent(space, x, rng)
            d0 = 0.8 * min(injectivity_radius(space), 4.0) * float(rng.uniform(0.1, 1.0))
            y = exp_map(space, Tangent(x, tuple(d0 * v for v in u.vector)))
            assert distance(space, geodesic_interpolate(space, x, y, 0.0), x) <= 1e-9
            assert distance(space, geodesic_interpolate(space, x, y, 1.0), y) <= 1e-9
            mid = geodesic_interpolate(space, x, y, 0.5)
            d = distance(space, x, y)
            assert distance(space, x, mid) == pytest.approx(d / 2.0, rel=1e-8, abs=1e-10)
            assert distance(space, mid, y) == pytest.approx(d / 2.0, rel=1e-8, abs=1e-10)


def test_geodesic_interpolate_bad_parameter():
    e1 = Space.euclidean(1)
    with pytest.raises(InputError):
        geodesic_interpolate(e1, Point((0.0,)), Point((1.0,)), 1.5)


def test_project_tangent_is_tangent():
    rng = np.random.default_rng(23)
    for space in ALL_SPACES:
        base = random_point(space, rng)
        t = project_tangent(space, base, rng.normal(0.0, 1.0, space.ambient_dim))
        if space.kind == "sphere":
            assert abs(sum(a * b for a, b in zip(t.vector, base.coords))) < 1e-9
        elif space.kind == "hyperbolic":
            spatial = sum(a * b for a, b in zip(t.vector[:-1], base.coords[:-1]))
            assert abs(spatial - t.vector[-1] * base.coords[-1]) < 1e-9


# ---------------------------------------------------------------------------
# Ball shrinking
# ---------------------------------------------------------------------------


def test_shrink_ball_line_example():
    e1 = Space.euclidean(1)
    inner = shrink_ball_toward(e1, Ball(Point((0.0,)), 2.0), Point((1.5,)), 1.0)
    assert inner.center.coords[0] == pytest.approx(0.5)
    assert inner.radius == 1.0


def test_shrink_ball_sphere_example():
    # y at distance 0.6 from the outer center, shrink radius 0.3: the new
    # center sits halfway along the geodesic from y to the outer center.
    s2 = Space.sphere(2)
    x = s2.origin()
    u = random_unit_tangent(s2, x, np.random.default_rng(3))
    y = exp_map(s2, Tangent(x, tuple(0.6 * v for v in u.vector)))
    inner = shrink_ball_toward(s2, Ball(x, 0.8), y, 0.3)
    expected = geodesic_interpolate(s2, y, x, 0.5)
    assert distance(s2, inner.center, expected) <= 1e-9
    assert distance(s2, inner.center, x) == pytest.approx(0.3, abs=1e-9)


def test_shrink_ball_containment_property():
    rng = np.random.default_rng(29)
    for space in ALL_SPACES:
        cap = 0.4 * min(injectivity_radius(space), 5.0)
        for _ in range(25):
            center = random_point(space, rng)
            r = cap * float(rng.uniform(0.2, 1.0))
            s = r * float(rng.uniform(0.05, 0.95))
            d0 = r * float(rng.uniform(0.0, 1.0))
            u = random_unit_tangent(space, center, rng)
            y = exp_map(space, Tangent(center, tuple(d0 * v for v in u.vector)))
            inner = shrink_ball_toward(space, Ball(center, r), y, s)
            # y is inside the shrunk ball
            assert distance(space, inner.center, y) <= s + 1e-9 * (1.0 + s)
            # 64 sampled boundary points of the shrunk ball stay inside outer
            for _ in range(64):
                w = random_unit_tangent(space, inner.center, rng)
                b = exp_map(space, Tangent(inner.center, tuple(s * v for v in w.vector)))
                assert distance(space, center, b) <= r + 1e-9 * (1.0 + r)


def test_shrink_ball_input_errors():
    e1 = Space.euclidean(1)
    with pytest.raises(InputError):
        shrink_ball_toward(e1, Ball(Point((0.0,)), 1.0), Point((0.5,)), 1.0)
    with pytest.raises(InputError):
        shrink_ball_toward(e1, Ball(Point((0.0,)), 1.0), Point((5.0,)), 0.5)


# ---------------------------------------------------------------------------
# Volumes
# ---------------------------------------------------------------------------


def test_unit_ball_volume_closed_forms():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(2, pnorm=1.0) == pytest.approx(2.0)  # diamond
    assert unit_ball_volume(2, pnorm=math.inf) == pytest.approx(4.0)  # square


def test_ball_volume_euclidean():
    assert ball_volume(Space.euclidean(1), 3.0) == pytest.approx(6.0)
    assert ball_volume(Space.euclidean(2), 2.0) == pytest.approx(4.0 * math.pi)


def test_ball_volume_sphere_closed_form():
    s2 = Space.sphere(2)
    for r in (0.1, 0.5, 1.0, 2.0, math.pi):
        assert ball_volume(s2, r) == pytest.approx(2.0 * math.pi * (1.0 - math.cos(r)), rel=1e-12)
    assert ball_volume(s2, math.pi) == pytest.approx(4.0 * math.pi, rel=1e-12)
    with pytest.raises(DomainError):
        ball_volume(s2, 3.5)


def test_ball_volume_hyperbolic_closed_form():
    h2 = Space.hyperbolic(2)
    for r in (0.1, 1.0, 3.0):
        assert ball_volume(h2, r) == pytest.approx(2.0 * math.pi * (math.cosh(r) - 1.0), rel=1e-12)


@pytest.mark.parametrize(
    "space,r",
    [
        (Space.hyperbolic(3), 800.0),  # cosh overflows
        (Space.hyperbolic(40), 30.0),  # sinh(30) ** 39 overflows
        (Space.hyperbolic(2), 709.0),  # finite terms, infinite product
        (Space.euclidean(3), 1e200),  # r ** 3 overflows
    ],
    ids=str,
)
def test_ball_volume_beyond_float_range_is_a_domain_error(space, r):
    with pytest.raises(DomainError, match="beyond the float range"):
        ball_volume(space, r)


def test_ball_volume_just_inside_float_range():
    assert math.isfinite(ball_volume(Space.hyperbolic(3), 300.0))
    assert math.isfinite(ball_volume(Space.hyperbolic(40), 15.0))


def test_ball_volume_against_quadrature():
    # Independent oracle: numerically integrate the area element.
    for space, density in [
        (Space.sphere(3), lambda t: 4.0 * math.pi * math.sin(t) ** 2),
        (Space.hyperbolic(3), lambda t: 4.0 * math.pi * math.sinh(t) ** 2),
        (Space.sphere(2, radius=2.0), lambda t: 2.0 * math.pi * 2.0 * math.sin(t / 2.0)),
        (Space.hyperbolic(2), lambda t: 2.0 * math.pi * math.sinh(t)),
    ]:
        for r in (0.3, 1.1, 2.4):
            expected, err = integrate.quad(density, 0.0, r)
            assert ball_volume(space, r) == pytest.approx(expected, rel=1e-9)


def test_ball_volume_strictly_increasing():
    for space in ALL_SPACES:
        cap = min(injectivity_radius(space), 6.0)
        radii = [cap * k / 40.0 for k in range(1, 40)]
        vols = [ball_volume(space, r) for r in radii]
        assert all(b > a for a, b in zip(vols, vols[1:]))


def test_injectivity_radius_values():
    assert injectivity_radius(Space.euclidean(3)) == math.inf
    assert injectivity_radius(Space.hyperbolic(2)) == math.inf
    assert injectivity_radius(Space.sphere(2, radius=2.0)) == pytest.approx(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Sampling helpers
# ---------------------------------------------------------------------------


def test_uniform_in_ball_stays_inside():
    rng = np.random.default_rng(31)
    for space in ALL_SPACES:
        center = random_point(space, rng)
        r = 0.5 * min(injectivity_radius(space), 4.0)
        ball = Ball(center, r)
        for _ in range(200):
            p = uniform_in_ball(space, ball, rng)
            assert distance(space, center, p) <= r + 1e-9


def test_uniform_in_ball_spreads_over_the_ball():
    # crude check that sampling is not collapsed near the center
    rng = np.random.default_rng(37)
    e2 = Space.euclidean(2)
    ball = Ball(Point((0.0, 0.0)), 1.0)
    ds = [distance(e2, ball.center, uniform_in_ball(e2, ball, rng)) for _ in range(2000)]
    # for uniform area measure, median distance is sqrt(1/2) ~ 0.707
    med = sorted(ds)[len(ds) // 2]
    assert 0.65 < med < 0.76


def test_tangent_norm_lp():
    e = Space.euclidean(2, pnorm=1.0)
    assert tangent_norm(e, Tangent(Point((0.0, 0.0)), (3.0, -4.0))) == pytest.approx(7.0)
