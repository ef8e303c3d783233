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
    covering_number,
    distance,
    exp_map,
    injectivity_radius,
    log_map,
    unit_ball_volume,
)
from ballcover._rng import Generator
from ballcover.geometry import (
    _dot,
    _sumsq,
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


@pytest.mark.parametrize("kind, name, value", [
    ("euclidean", "radius", -5.0), ("euclidean", "radius", 2.0),
    ("sphere", "pnorm", 3.0), ("sphere", "pnorm", math.nan),
    ("hyperbolic", "pnorm", 1.0), ("hyperbolic", "radius", 2.0),
])
def test_a_parameter_the_kind_does_not_read_is_an_input_error(kind, name, value):
    with pytest.raises(InputError, match=f"^a {kind} space takes no {name}, got {name}="):
        Space(kind, 2, **{name: value})


@pytest.mark.parametrize("space", [Space.euclidean(2), Space.sphere(2), Space.hyperbolic(2)],
                         ids=str)
def test_a_parameter_the_kind_does_not_read_may_keep_its_default(space):
    assert Space(space.kind, 2, pnorm=2.0, radius=1.0) == space
    assert Space(space.kind, 2, pnorm=2, radius=1) == space


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, 1e-200, 2.0 ** -501,
                                    1e200, 2.0 ** 501])
def test_sphere_radius_outside_the_range_is_an_input_error(radius):
    message = r"^sphere radius must lie in \[2\*\*-500, 2\*\*500\], got "
    with pytest.raises(InputError, match=message):
        Space.sphere(2, radius)


@pytest.mark.parametrize("radius", [2.0 ** -500, 2.0 ** 500])
def test_sphere_radius_at_the_ends_of_the_range(radius):
    space = Space.sphere(2, radius)
    p = space.point((radius, 0.0, 0.0))
    q = space.point((0.0, 0.0, radius))
    assert distance(space, p, q) == pytest.approx(0.5 * math.pi * radius)


def test_sums_run_left_to_right_on_every_python():
    # a compensated sum, as sum() of floats is from Python 3.12 on, gives
    # 1.0, 1e16 + 2 and (1 / 3,) here
    assert _dot((1e16, 1.0, -1e16), (1.0, 1.0, 1.0)) == 0.0
    assert _sumsq((1e8, 1.0, 1.0)) == 1e16
    assert Space.euclidean(1)._model.centroid([(1e16,), (1.0,), (-1e16,)]) == (0.0,)


def test_flat_and_line_spaces():
    flat = [Space.euclidean(1), Space.euclidean(2), Space.euclidean(3, 1.0),
            Space.euclidean(2, math.inf)]
    curved = [Space.sphere(1), Space.sphere(2, radius=2.0), Space.hyperbolic(2)]
    assert [s.is_flat for s in flat + curved] == [True] * 4 + [False] * 3
    assert [s.is_line for s in flat + curved] == [True] + [False] * 6


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
    with pytest.raises(InputError, match="^q has 3 coordinates, expected 2$"):
        distance(e2, Point((0.0, 0.0)), Point((0.0, 0.0, 0.0)))
    with pytest.raises(InputError, match="^p has 1 coordinates, expected 2$"):
        distance(e2, Point((0.0,)), Point((0.0, 0.0, 0.0)))


@pytest.mark.parametrize("space", ALL_SPACES, ids=str)
def test_distance_checks_the_width_of_p_then_q(space):
    w = space.ambient_dim
    good, short, long = (Point((0.0,) * n) for n in (w, w - 1, w + 1))
    with pytest.raises(InputError, match=f"^p has {w - 1} coordinates, expected {w}$"):
        distance(space, short, long)
    with pytest.raises(InputError, match=f"^p has {w + 1} coordinates, expected {w}$"):
        distance(space, long, good)
    with pytest.raises(InputError, match=f"^q has {w - 1} coordinates, expected {w}$"):
        distance(space, space.origin(), short)


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


def test_exp_of_half_the_log_is_the_midpoint():
    rng = np.random.default_rng(19)
    for space in ALL_SPACES:
        for _ in range(40):
            x = random_point(space, rng)
            # keep pairs inside one injectivity neighbourhood
            u = random_unit_tangent(space, x, rng)
            d0 = 0.8 * min(injectivity_radius(space), 4.0) * float(rng.uniform(0.1, 1.0))
            y = exp_map(space, Tangent(x, tuple(d0 * v for v in u.vector)))
            v = log_map(space, x, y)
            mid = exp_map(space, Tangent(x, tuple(0.5 * c for c in v.vector)))
            d = distance(space, x, y)
            assert distance(space, x, mid) == pytest.approx(d / 2.0, rel=1e-8, abs=1e-10)
            assert distance(space, mid, y) == pytest.approx(d / 2.0, rel=1e-8, abs=1e-10)


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


@pytest.mark.parametrize("space", ALL_SPACES, ids=str)
def test_step_moves_onto_the_ball_along_the_geodesic(space):
    # the common-point sweep's move: from x at distance d > r from c to a
    # point at distance r from c and d - r from x
    model = space._model
    rng = np.random.default_rng(29)
    for spread in (0.1, 1.0, 3.0):
        for _ in range(40):
            x, c = random_point(space, rng, spread).coords, random_point(space, rng, spread).coords
            d = model.kernel(x, c)
            r = d * float(rng.uniform(0.01, 0.99))
            y = model.step(x, c, r, d)
            assert len(y) == model.width
            assert model.kernel(y, c) == pytest.approx(r, rel=1e-9, abs=1e-12)
            assert model.kernel(x, y) == pytest.approx(d - r, rel=1e-9, abs=1e-12)


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


@pytest.mark.parametrize("make", [Generator, np.random.default_rng], ids=["_rng", "numpy"])
@pytest.mark.parametrize("space", [Space.euclidean(d, p) for p in (1.0, 3.0, math.inf)
                                   for d in (2, 3)], ids=str)
def test_lp_draws_fill_the_ball(space, make):
    # a uniform draw lies within half the radius with probability 2**-d;
    # the share of 4000 draws must be within 4 sigma of it
    rng = make(41)
    center = Point((0.5,) * space.dim)
    n, q = 4000, 2.0 ** -space.dim
    ds = [distance(space, center, uniform_in_ball(space, Ball(center, 2.0), rng)) for _ in range(n)]
    assert max(ds) <= 2.0 + 1e-12
    share = sum(d <= 1.0 for d in ds) / n
    assert abs(share - q) <= 4.0 * math.sqrt(q * (1.0 - q) / n)


@pytest.mark.parametrize("space", [Space.euclidean(2), Space.euclidean(3), Space.sphere(2),
                                   Space.sphere(3, radius=2.5), Space.hyperbolic(2)], ids=str)
def test_the_port_samples_what_numpy_samples(space):
    # _rng ports numpy's normal and uniform bit for bit, so every sampler
    # that draws only with them gives the same points from the same seed
    for seed in (0, 7, 2718):
        draws = []
        for rng in (Generator(seed), np.random.default_rng(seed)):
            center = random_point(space, rng)
            ball = Ball(center, 0.5 * min(injectivity_radius(space), 4.0))
            draws.append([center, random_unit_tangent(space, center, rng)]
                         + [uniform_in_ball(space, ball, rng) for _ in range(20)])
        assert draws[0] == draws[1]


@pytest.mark.parametrize("dim, r", [(1, 800.0), (2, 800.0), (2, 400.0), (3, 400.0)])
def test_a_hyperbolic_ball_beyond_the_float_range_is_a_domain_error(dim, r):
    space = Space.hyperbolic(dim)
    ball = Ball(space.origin(), r)
    with pytest.raises(DomainError, match=f"radius-{r} ball"):
        uniform_in_ball(space, ball, Generator(1))
    with pytest.raises(DomainError, match=f"radius-{r} ball"):
        covering_number(space, ball, 1.0, 20)


def test_tangent_norm_lp():
    e = Space.euclidean(2, pnorm=1.0)
    assert tangent_norm(e, Tangent(Point((0.0, 0.0)), (3.0, -4.0))) == pytest.approx(7.0)
