"""The scalar distance kernels and the tuple-based common-point solver.

``geometry.distance`` evaluates one cached kernel per space on coordinate
tuples, and ``find_common_point`` sweeps plain floats.  Both must give
the floats of the straightforward formulas bit for bit, so no verdict,
search trajectory or report byte can move.  The references below are
those formulas and that solver written out in full with generator sums,
``Point`` steps and scalar distances, as the package computed them
before the kernels existed.  Floats are compared through ``repr``, which
round-trips every float and tells -0.0 from 0.0 and an int from a float.
"""

import contextlib
import hashlib
import io
import math
import pickle

import numpy as np
import pytest

from ballcover import Ball, BallFamily, Point, Space, distance, find_common_point
from ballcover.cli import run_command
from ballcover.geometry import Tangent, exp_map, log_map, project_tangent, random_point

# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------


def ltr_sum(values):
    """``sum()`` as Python computes it up to 3.11: left to right from the
    int 0.  From 3.12 the builtin sums floats with compensation; the
    distances keep the uncompensated floats on every version."""
    s = 0
    for v in values:
        s = s + v
    return s


def ref_distance(space, p, q):
    a, b = p.coords, q.coords
    if space.kind == "euclidean":
        v = tuple(x - y for x, y in zip(a, b))
        pn = space.pnorm
        if pn == 2.0:
            return math.sqrt(ltr_sum(x * x for x in v))
        if pn == 1.0:
            return ltr_sum(abs(x) for x in v)
        if math.isinf(pn):
            return max(abs(x) for x in v)
        return ltr_sum(abs(x) ** pn for x in v) ** (1.0 / pn)
    if space.kind == "sphere":
        R = space.radius
        cos_t = ltr_sum(x * y for x, y in zip(a, b)) / (R * R)
        if cos_t > 0.5:
            chord = math.sqrt(ltr_sum((x - y) ** 2 for x, y in zip(a, b)))
            return 2.0 * R * math.asin(min(1.0, chord / (2.0 * R)))
        return R * math.acos(max(-1.0, min(1.0, cos_t)))
    d = tuple(x - y for x, y in zip(a, b))
    s = 0.0
    for i in range(len(d) - 1):
        s += d[i] * d[i]
    m = max(0.0, s - d[-1] * d[-1])
    half = 0.5 * m
    return math.log1p(half + math.sqrt(m + half * half))


def ref_project_once(space, p, ball):
    d = ref_distance(space, p, ball.center)
    if d <= ball.radius:
        return p
    if space.kind == "euclidean":
        t = ball.radius / d
        c = ball.center.coords
        return Point(tuple(cc + t * (pc - cc) for pc, cc in zip(p.coords, c)))
    v = log_map(space, p, ball.center)
    scale = (d - ball.radius) / d
    return exp_map(space, Tangent(p, tuple(scale * x for x in v.vector)))


def ref_find_common_point(family, tol=1e-9, max_iter=10_000, threshold=1e-10):
    space = family.space
    scale = 1.0 + max(b.radius for b in family)
    starts = [min(family, key=lambda b: b.radius).center]
    if space.kind == "euclidean":
        n = space.dim
        # the builtin sum, as the solver's centroid start uses it
        starts.append(Point(
            tuple(sum(b.center.coords[k] for b in family) / len(family) for k in range(n))
        ))
    starts.extend(b.center for b in family[:6])
    best, best_v, any_converged = None, math.inf, False
    sweeps = max(2, max_iter // max(1, len(family)))
    for start in starts:
        p = start
        converged = False
        for _ in range(sweeps):
            sweep_start = p
            for b in family:
                p = ref_project_once(space, p, b)
            if ref_distance(space, sweep_start, p) < threshold * scale:
                converged = True
                break
        v = max(ref_distance(space, p, b.center) - b.radius for b in family)
        any_converged = any_converged or converged
        if v < best_v:
            best_v, best = v, p
        if v <= tol * scale:
            return p, v, True
    return (None if best_v > tol * scale else best), best_v, any_converged


def bits(x):
    return repr(x)


# ---------------------------------------------------------------------------
# kernel == row form == reference
# ---------------------------------------------------------------------------

SPACES = [
    Space.euclidean(1, 1.0),
    Space.euclidean(3, 1.0),
    Space.euclidean(2, 1.5),
    Space.euclidean(1),
    Space.euclidean(2),
    Space.euclidean(3),
    Space.euclidean(4),
    Space.euclidean(2, 3.0),
    Space.euclidean(3, math.inf),
    Space.sphere(2),
    Space.sphere(3, radius=2.5),
    Space.hyperbolic(2),
    Space.hyperbolic(3),
]


def sample_points(space, rng, n=90):
    pts = [random_point(space, rng, spread=s) for s in (1e-3, 1.0, 40.0) for _ in range(n // 3)]
    if space.kind == "sphere":
        base = pts[:20]
        # antipodes and near-antipodes (acos branch near cos = -1) and
        # close neighbours (chord branch near cos = 1)
        pts += [Point(tuple(-x for x in b.coords)) for b in base]
        pts += [space.point([-x + 1e-9 * rng.normal() for x in b.coords]) for b in base]
        pts += [space.point([x + 1e-7 * rng.normal() for x in b.coords]) for b in base]
    if space.kind == "euclidean":
        # signed zeros and exact ties
        zero = (0.0,) * space.dim
        pts += [Point(zero), Point(tuple(-x for x in zero)), pts[0]]
        if space.pnorm in (1.0, 2.0, math.inf):
            # differences and squares that overflow to inf (for other p,
            # ``**`` raises OverflowError there instead)
            pts += [Point((1e300,) * space.dim), Point((-1e300,) * space.dim)]
    return pts


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_kernel_rows_and_reference_agree_bit_for_bit(space):
    rng = np.random.default_rng(51)
    pts = sample_points(space, rng)
    rows = np.array([q.coords for q in pts])
    for p in pts[::4]:
        want = [bits(ref_distance(space, p, q)) for q in pts]
        assert [bits(distance(space, p, q)) for q in pts] == want
        assert [bits(space._kernel(p.coords, q.coords)) for q in pts] == want
        with np.errstate(over="ignore"):
            got = distance(space, p, rows).tolist()
        assert [bits(x) for x in got] == want


def test_sphere_samples_reach_both_branches():
    space = Space.sphere(2)
    pts = sample_points(space, np.random.default_rng(51))
    cos = [sum(a * b for a, b in zip(pts[0].coords, q.coords)) for q in pts]
    assert any(c > 0.5 for c in cos) and any(c < -0.999 for c in cos)


def test_integer_coordinates_keep_the_sum_types():
    # sum() of ints stays exact; the kernels start from the int 0 as it does
    for space in (Space.euclidean(5), Space.euclidean(2, 1.0), Space.euclidean(4, 3.0)):
        p = Point((3, -4, 10**9, 7, 1)[: space.dim])
        q = Point((0, 0, -(10**9), 2, 1)[: space.dim])
        assert bits(distance(space, p, q)) == bits(ref_distance(space, p, q))


def test_kernel_is_cached_and_space_still_pickles():
    space = Space.sphere(2, radius=3.0)
    assert space._kernel is space._kernel
    p, q = space.point([0.0, 0.0, 3.0]), space.point([3.0, 0.0, 0.0])
    d = distance(space, p, q)
    clone = pickle.loads(pickle.dumps(space))
    assert clone == space and hash(clone) == hash(space)
    assert bits(distance(clone, p, q)) == bits(d)


# ---------------------------------------------------------------------------
# find_common_point == reference solver
# ---------------------------------------------------------------------------


def planted(space, rng, n, slack):
    """n balls through a random point y: radius (1 + slack) * d(c, y)."""
    y = random_point(space, rng)
    balls = []
    for _ in range(n):
        c = Point(tuple(a + float(rng.uniform(0.5, 2.0)) * float(g)
                        for a, g in zip(y.coords, rng.normal(0.0, 1.0, space.dim))))
        balls.append(Ball(c, (1.0 + slack) * distance(space, c, y)))
    return BallFamily(space, tuple(balls))


def spread_out(space, rng, n):
    """Small balls far apart: no common point."""
    return BallFamily(space, tuple(
        Ball(Point(tuple(float(v) for v in rng.normal(0.0, 10.0, space.dim))),
             float(rng.uniform(0.2, 1.0)))
        for _ in range(n)
    ))


def families(space, seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in (2, 3, 5, 8):
        out.append((planted(space, rng, n, 1e-6), 10_000))  # feasible, tight
        out.append((planted(space, rng, n, 0.3), 10_000))  # feasible, loose
        out.append((planted(space, rng, n, -1e-3), 10_000))  # slightly infeasible
        out.append((spread_out(space, rng, n), 10_000))  # infeasible
        out.append((planted(space, rng, n, 1e-9), 2 * n))  # two sweeps only
        out.append((planted(space, rng, n, -1e-3), 2 * n))
    return out


EUCLIDEAN = [
    Space.euclidean(1),
    Space.euclidean(2),
    Space.euclidean(3),
    Space.euclidean(4),
    Space.euclidean(2, 1.0),
    Space.euclidean(3, 1.0),
    Space.euclidean(2, 3.0),
    Space.euclidean(3, math.inf),
]


def same_result(family, max_iter, threshold=1e-10):
    got = find_common_point(family, max_iter=max_iter, threshold=threshold)
    point, v, converged = ref_find_common_point(family, max_iter=max_iter, threshold=threshold)
    assert bits(got.max_violation) == bits(v)
    assert got.converged == converged
    assert (got.point is None) == (point is None)
    if point is not None:
        assert bits(got.point.coords) == bits(point.coords)
    return got


@pytest.mark.parametrize("space", EUCLIDEAN, ids=str)
def test_solver_matches_reference_on_seeded_families(space):
    outcomes = set()
    for family, max_iter in families(space, 61):
        got = same_result(family, max_iter)
        outcomes.add((got.point is not None, got.converged))
    # the families reach every kind of outcome the solver has (on the line
    # and in l1 d=2 two sweeps already reach a stationary point)
    assert (True, True) in outcomes and (False, True) in outcomes
    assert (False, False) in outcomes or (space.dim, space.pnorm) in ((1, 2.0), (2, 1.0))


@pytest.mark.parametrize("space", [Space.sphere(2), Space.hyperbolic(2)], ids=str)
def test_curved_solver_matches_reference(space):
    rng = np.random.default_rng(62)
    base = space.origin()
    for n in (2, 3, 4):
        balls = []
        for _ in range(n):
            v = tuple(0.6 * float(g) for g in rng.normal(0.0, 1.0, space.ambient_dim))
            c = exp_map(space, project_tangent(space, base, v))
            balls.append(Ball(c, 1.05 * distance(space, c, base)))
        same_result(BallFamily(space, tuple(balls)), 10_000)
        same_result(BallFamily(space, tuple(balls)), 2 * n)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_solver_edge_families_match_reference(dim):
    space = Space.euclidean(dim)

    def at(x, *rest):
        return Point((x,) + tuple(rest) + (0.0,) * (dim - 1 - len(rest)))

    cases = [
        # huge touching balls: distances overflow to inf mid-sweep
        [Ball(at(1e300), 1e300), Ball(at(-1e300), 1e300)],
        # differences beyond the float range: steps turn into nan
        [Ball(at(1.7e308), 1.0), Ball(at(-1.7e308), 1.0), Ball(at(0.0), 1.0)],
        # integer centers: a start that never moves keeps its ints
        [Ball(Point((0,) * dim), 2.0), Ball(Point((1,) + (0,) * (dim - 1)), 2.0)],
        # one ball, and concentric balls
        [Ball(at(1.0), 0.5)],
        [Ball(at(0.0), 1.0), Ball(at(0.0), 2.0)],
        # tangent balls
        [Ball(at(-1.0), 1.0), Ball(at(1.0), 1.0)],
    ]
    for balls in cases:
        family = BallFamily(space, tuple(balls))
        same_result(family, 10_000)
        # a zero threshold: only an exactly stationary sweep stops early
        same_result(family, 600, threshold=0.0)
    for family, _ in families(space, 64)[:10]:
        same_result(family, 600, threshold=0.0)


# ---------------------------------------------------------------------------
# whole reports, pinned to digests of reports computed with the formulas above
# ---------------------------------------------------------------------------

REPORTS = [
    ("search --what wbcp --dim 2 --seed 1 --budget 2000 --restarts 2", 0,
     "b405a637eb6428bc9f5194acd3213db72e3a9064e78f98ed071fe4c37a25834a"),
    ("search --what wbcp --dim 3 --seed 2 --budget 1000 --restarts 2", 0,
     "70796adc96dd3492f7b819a600746d7cb301c31a9a32a8c1f91f4acbbb877408"),
    ("search --what wbcp --dim 4 --seed 3 --budget 200 --restarts 1", 0,
     "d98299c248c562a29d423abd78dbc6e015f2d592bd493dad2413ec1140a09304"),
    ("search --what wbcp --dim 1 --seed 4 --budget 400 --restarts 2", 0,
     "29512ce1097b7386860f92d68edf605027e146f88f8670839a4dd2ed3e02e969"),
    ("search --what satellite --dim 2 --seed 1 --budget 1000 --restarts 2", 0,
     "8689fe6e2a3430af2244bf16d6e3220d94abcda167a4e52a9831ce48ec16010c"),
    ("search --what pack5 --dim 2 --seed 3 --budget 1000 --restarts 2", 0,
     "489e8af16d508148334297a343012dd9246c4a367a291020127c68b621c316b7"),
    ("cip --m 2 --trials 200 --seed 1", 0,
     "92413f77214007bd685c3c4f0304903d4dfba335b62908c11f5ad5c0b9aad34f"),
    ("cip --m 3 --trials 100 --seed 4", 0,
     "28ca06a5f89fd79532a1ea1bad706a0ff3345204e263cb35dad7c2f67c608abf"),
    ("constants --dims 1,2,3 --seed 1 --budget 500", 0,
     "9239a841401dae0bf99d37591fdcad552925337ce38e6e53c206671c3334b1e6"),
]


@pytest.mark.parametrize("command,code,digest", REPORTS, ids=[r[0] for r in REPORTS])
def test_seeded_reports_are_unchanged(command, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(command.split()) == code
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest
