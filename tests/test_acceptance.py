"""Acceptance suite: one test per headline guarantee, in order.

Run with ``pytest -v`` to get one pass/fail line per criterion.  Every
check uses an oracle independent of the code path under test: interval
sweeps for disjointness, direct coordinate arithmetic for coverage and
separation, closed-form formulas for volumes, and re-validation of every
randomized result.
"""

import json
import math
import time

import numpy as np
import pytest

from ballcover.cli import run_command
from ballcover.covering import (
    BallFamily,
    epsilon_net_greedy,
    is_besicovitch_family,
    overlap_profile,
    strict_net_bound,
)
from ballcover.geometry import (
    Ball,
    Point,
    Space,
    ball_volume,
    distance,
    exp_map,
    log_map,
    random_point,
    random_unit_tangent,
    uniform_in_ball,
    Tangent,
)
from ballcover.sceneio import SceneFile, parse_scene, serialize_scene
from ballcover.search import (
    SearchConfig,
    cip_check,
    constants_report,
    construct_strict_hadwiger,
    search_max_besicovitch_family,
)
from ballcover.selection import (
    besicovitch_cover_1d,
    partition_into_disjoint_families,
    select_bounded_overlap_subcover,
)

LINE = Space.euclidean(1)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def assert_disjoint_by_sweep(family):
    """Exact endpoint sweep: closed intervals, no tolerance."""
    ivs = sorted(
        (b.center.coords[0] - b.radius, b.center.coords[0] + b.radius) for b in family
    )
    for (l1, r1), (l2, r2) in zip(ivs, ivs[1:]):
        assert r1 < l2, f"intervals [{l1},{r1}] and [{l2},{r2}] intersect"


def assert_centers_covered(families, centers):
    """Sort-and-sweep: a center is covered iff some interval starting at or
    before it reaches it, i.e. the largest right end among those does."""
    kept = sorted(
        (b.center.coords[0] - b.radius, b.center.coords[0] + b.radius)
        for fam in families
        for b in fam
    )
    k, reach = 0, -math.inf
    for c in sorted(centers):
        while k < len(kept) and kept[k][0] <= c:
            reach = max(reach, kept[k][1])
            k += 1
        assert c <= reach, f"center {c} uncovered"


def exact_max_overlap(family) -> int:
    """Brute-force depth at every interval endpoint (closed intervals)."""
    ends = []
    for b in family:
        ends.append(b.center.coords[0] - b.radius)
        ends.append(b.center.coords[0] + b.radius)
    best = 0
    for x in ends:
        depth = sum(
            1
            for b in family
            if b.center.coords[0] - b.radius <= x <= b.center.coords[0] + b.radius
        )
        best = max(best, depth)
    return best


def random_1d_family(rng, size):
    centers = rng.uniform(-1e6, 1e6, size)
    radii = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size))
    balls = tuple(Ball(Point((float(c),)), float(r)) for c, r in zip(centers, radii))
    return BallFamily(LINE, balls), [float(c) for c in centers]


# ---------------------------------------------------------------------------
# criterion 1: two-family disjoint cover on the line
# ---------------------------------------------------------------------------


def test_criterion_01_line_two_family_cover():
    rng = np.random.default_rng(2026)
    sizes = np.minimum(rng.zipf(2.0, size=100_000), 10_000)
    for size in sizes:
        fam, centers = random_1d_family(rng, int(size))
        result = besicovitch_cover_1d(fam, centers)
        assert len(result.families) <= 2
        for sub in result.families:
            assert_disjoint_by_sweep(sub)
        assert_centers_covered(result.families, centers)

    # full-size instances, timed individually
    for seed in (1, 2, 3):
        fam, centers = random_1d_family(np.random.default_rng(seed), 10_000)
        t0 = time.perf_counter()
        result = besicovitch_cover_1d(fam, centers)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"10^4-interval instance took {elapsed:.3f}s"
        assert len(result.families) <= 2
        for sub in result.families:
            assert_disjoint_by_sweep(sub)
        assert_centers_covered(result.families, centers)

    # the same guarantee through the command-line surface
    sub_rng = np.random.default_rng(99)
    for _ in range(100):
        fam, centers = random_1d_family(sub_rng, int(sub_rng.integers(1, 60)))
        doc = {
            "version": 1,
            "space": {"kind": "euclidean", "dim": 1},
            "balls": [
                {"center": list(b.center.coords), "radius": b.radius} for b in fam
            ],
        }
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".json")
        out = path + ".report"
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(doc))
            assert run_command(["oned", path, "--out", out]) == 0
            rep = json.loads(open(out).read())
            assert rep["payload"]["family_count"] <= 2
            got = [
                BallFamily(
                    LINE,
                    tuple(Ball(Point(tuple(b["center"])), b["radius"]) for b in famdoc),
                )
                for famdoc in rep["payload"]["families"]
            ]
            for sub in got:
                assert_disjoint_by_sweep(sub)
            assert_centers_covered(got, centers)
        finally:
            os.unlink(path)
            if os.path.exists(out):
                os.unlink(out)


# ---------------------------------------------------------------------------
# criterion 2: the line admits only two-ball families
# ---------------------------------------------------------------------------


def test_criterion_02_line_maximum_is_two():
    for seed in range(100):
        cfg = SearchConfig(seed=seed, budget=400, restarts=2)
        res = search_max_besicovitch_family(LINE, (0.5, 1.5), cfg)
        assert res.score == 2, f"seed {seed} returned {res.score}"
        assert res.feasible

    # exhaustive grid over normalized triples: common point at 0, the
    # largest radius scaled to 1 and assigned to the first interval
    step = 0.05
    ks = np.arange(1, 21)  # radii 0.05 .. 1.00
    pairs = []  # every (center, radius) with |center| <= radius on the grid
    for k in ks:
        r = k * step
        for j in range(-int(k), int(k) + 1):
            pairs.append((j * step, r))
    P = np.array(pairs)  # (N, 2)
    c, r = P[:, 0], P[:, 1]
    # mutual center exclusion between any two grid intervals
    dcc = np.abs(c[:, None] - c[None, :])
    ok2 = (dcc > r[None, :]) & (dcc > r[:, None])
    c1s = np.arange(-20, 21) * step  # centers of the radius-1 interval
    for c1 in c1s:
        d1 = np.abs(c - c1)
        compat = (d1 > 1.0) & (d1 > r)  # exclusion against interval 1, both ways
        idx = np.nonzero(compat)[0]
        assert not ok2[np.ix_(idx, idx)].any(), f"grid triple found at c1={c1}"


# ---------------------------------------------------------------------------
# criterion 3: five balls in the plane, never six
# ---------------------------------------------------------------------------


def test_criterion_03_plane_five_ball_family():
    res = search_max_besicovitch_family(
        Space.euclidean(2), (0.5, 1.5), SearchConfig()
    )
    assert res.score == 5
    assert res.feasible
    # serialize, re-parse, and re-validate from the serialized form
    text = serialize_scene(SceneFile(space=res.best.space, family=res.best))
    again = parse_scene(text)
    verdict = is_besicovitch_family(again.family)
    assert verdict.is_valid
    assert len(again.family) == 5

    for seed in range(100):
        cfg = SearchConfig(seed=seed, budget=500, restarts=2)
        out = search_max_besicovitch_family(Space.euclidean(2), (0.5, 1.5), cfg)
        assert out.score == 5, f"seed {seed} returned {out.score}"


# ---------------------------------------------------------------------------
# criterion 4: strict tangent configurations
# ---------------------------------------------------------------------------


def test_criterion_04_strict_tangent_configurations():
    expected = {1: 2, 2: 5, 3: 12}
    for dim in (1, 2, 3):
        fam = construct_strict_hadwiger(dim)
        assert len(fam) == expected[dim]
        space = fam.space
        for b in fam:
            d = math.sqrt(sum(x * x for x in b.center.coords))
            assert abs(d - 2.0) < 1e-12
            assert b.radius == 1.0
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                assert distance(space, fam[i].center, fam[j].center) > 2.0


# ---------------------------------------------------------------------------
# criterion 5: packing constants and the chain
# ---------------------------------------------------------------------------


def test_criterion_05_packing_constants_and_chain():
    rows = constants_report([1, 2], SearchConfig(seed=0, budget=1500, restarts=2))
    got = {(r.name, r.dim): r for r in rows}
    assert got[("beta", 1)].achieved_lower_bound == 5
    assert got[("beta", 2)].achieved_lower_bound == 19
    # chain on every emitted dimension, achieved and classical
    order = ["w", "K", "alpha", "beta"]
    for dim in (1, 2):
        present = [got[(n, dim)] for n in order if (n, dim) in got]
        ach = [r.achieved_lower_bound for r in present] + [5 ** dim]
        assert all(a <= b for a, b in zip(ach, ach[1:]))
        bounds = [
            r.paper_value if isinstance(r.paper_value, tuple)
            else (r.paper_value, r.paper_value)
            for r in present
        ] + [(5 ** dim, 5 ** dim)]
        for (lo1, hi1), (lo2, hi2) in zip(bounds, bounds[1:]):
            assert lo1 <= lo2 and hi1 <= hi2


# ---------------------------------------------------------------------------
# criterion 6: shrunk common points among 2m+1 balls
# ---------------------------------------------------------------------------


def test_criterion_06_shrunk_common_point_found_rate():
    plane = Space.euclidean(2)
    for m in (1, 2, 3, 4):
        rng = np.random.default_rng(600 + m)
        t0 = time.perf_counter()
        for _ in range(1000):
            y = rng.uniform(-1.0, 1.0, 2)
            balls = []
            for _ in range(2 * m + 1):
                r = rng.uniform(0.5, 2.0)
                ang = rng.uniform(0.0, 2.0 * math.pi)
                d = r * rng.uniform(0.0, 0.999)
                balls.append(
                    Ball(Point((y[0] + d * math.cos(ang), y[1] + d * math.sin(ang))), r)
                )
            fam = BallFamily(plane, tuple(balls))
            res = cip_check(fam, m, 0.95)
            assert res.found, f"m={m}: no shrunk common point reported"
            assert len(res.indices) == m + 1
            for i in res.indices:
                assert (
                    distance(plane, res.witness, fam[i].center)
                    <= 0.95 * fam[i].radius + 1e-9
                )
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"m={m} took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criteria 7 and 8: bounded-overlap selection, then disjoint partition
# ---------------------------------------------------------------------------

_SELECTED = []


def _three_band_instance(rng):
    """Radii drawn from three separated bands (ratio > 4 at beta = 1/2)."""
    bands = [(0.8, 1.0), (0.3, 0.4), (0.1, 0.125)]
    balls = []
    for lo, hi in bands:
        for _ in range(10):
            c = float(rng.uniform(-5.0, 5.0))
            balls.append(Ball(Point((c,)), float(rng.uniform(lo, hi))))
    return BallFamily(LINE, tuple(balls))


def test_criterion_07_bounded_overlap_selection():
    rng = np.random.default_rng(7007)
    _SELECTED.clear()
    for _ in range(1000):
        fam = _three_band_instance(rng)
        radii = [b.radius for b in fam]
        assert max(radii) / min(radii) > 4.0  # spans at least three bands
        centers = [b.center for b in fam]
        result = select_bounded_overlap_subcover(fam, centers, beta=0.5)
        assert len(result.covered_centers) == len(centers)
        # coverage oracle
        kept = [
            (b.center.coords[0] - b.radius, b.center.coords[0] + b.radius)
            for b in result.selected
        ]
        for c in centers:
            x = c.coords[0]
            assert any(l <= x <= r for l, r in kept)
        # exact overlap oracle, independent of the library profile
        ov = exact_max_overlap(result.selected)
        assert ov <= 19, f"overlap {ov} exceeds the 2*9+1 bound"
        # the library's own exact profile agrees
        assert result.overlap.max_overlap == ov
        _SELECTED.append(result.selected)


def test_criterion_08_partition_of_selected_families():
    if not _SELECTED:  # allow running this test in isolation
        rng = np.random.default_rng(7007)
        for _ in range(200):
            fam = _three_band_instance(rng)
            _SELECTED.append(
                select_bounded_overlap_subcover(
                    fam, [b.center for b in fam], beta=0.5
                ).selected
            )
    per_point = strict_net_bound(0.75, 1)
    for selected in _SELECTED:
        part = partition_into_disjoint_families(selected, alpha=0.75)
        for sub in part.families:
            assert_disjoint_by_sweep(sub)
        # every ball is assigned, so every center stays covered
        assert all(a >= 0 for a in part.assignment)
        assert sum(len(f) for f in part.families) == len(selected)
        assert_centers_covered(part.families, [b.center.coords[0] for b in selected])
        ov = exact_max_overlap(selected)
        bound = ov * per_point + 1
        assert len(part.families) <= bound
        assert part.family_count_bound == bound
        assert not part.bound_is_empirical  # exact on the line


# ---------------------------------------------------------------------------
# criterion 9: model-space geometry
# ---------------------------------------------------------------------------


def test_criterion_09_model_space_geometry():
    spaces = [Space.euclidean(3), Space.sphere(2), Space.hyperbolic(2)]
    for space in spaces:
        rng = np.random.default_rng(hash(space.kind) & 0xFFFF)
        for _ in range(10_000):
            base = random_point(space, rng, spread=1.0)
            t = random_unit_tangent(space, base, rng)
            length = float(rng.uniform(0.01, 2.5 if space.kind != "sphere" else 3.0))
            vec = Tangent(base, tuple(length * v for v in t.vector))
            q = exp_map(space, vec)
            q2 = exp_map(space, log_map(space, base, q))
            assert distance(space, q, q2) < 1e-8

    s2 = Space.sphere(2)
    for r in np.linspace(1e-6, math.pi, 10_000):
        assert abs(ball_volume(s2, float(r)) - 2.0 * math.pi * (1.0 - math.cos(r))) < 1e-9

    # strict separated subsets inside sphere balls stay under (2a+3)^dim
    cap = strict_net_bound(0.75, 2)
    assert cap == 20
    rng = np.random.default_rng(909)
    for _ in range(1000):
        center = random_point(s2, rng)
        r = float(rng.uniform(0.1, math.pi / 4))
        ball = Ball(center, r)
        pts = [uniform_in_ball(s2, ball, rng) for _ in range(40)]
        net = epsilon_net_greedy(s2, pts, 0.75 * r, strict=True)
        assert len(net.points) <= cap


# ---------------------------------------------------------------------------
# criterion 10: byte-identical seeded reports
# ---------------------------------------------------------------------------


def test_criterion_10_byte_identical_reports(tmp_path):
    out = str(tmp_path / "report.json")
    seeded_commands = [
        ["search", "--what", "wbcp", "--dim", "2", "--budget", "400",
         "--restarts", "2", "--seed", "5", "--out", out],
        ["search", "--what", "pack5", "--dim", "2", "--budget", "300",
         "--restarts", "1", "--seed", "5", "--out", out],
        ["search", "--what", "satellite", "--dim", "1", "--tau", "2.0",
         "--budget", "300", "--restarts", "1", "--seed", "5", "--out", out],
        ["search", "--what", "hadwiger", "--dim", "3", "--seed", "5", "--out", out],
        ["cip", "--m", "2", "--trials", "30", "--seed", "5", "--out", out],
        ["constants", "--dims", "1,2", "--seed", "5", "--budget", "800", "--out", out],
    ]
    for argv in seeded_commands:
        assert run_command(argv) == 0, argv
        first = open(out, "rb").read()
        assert run_command(argv) == 0, argv
        assert open(out, "rb").read() == first, f"report differs for {argv}"
