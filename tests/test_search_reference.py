"""The searches and the cip check against frozen copies of their predecessors.

``reference_besicovitch_search``, ``reference_pack_radius5`` and
``reference_satellite_search`` below are ``search_max_besicovitch_family``,
``pack_unit_balls_radius5`` and ``satellite_max_search`` as they stood
before the searches moved onto one driver, ``search._anneal``: each with
its own copy of the restart loop, the temperature schedule, the stall
counter and the best-so-far tracking.  They are kept as they were
(renamed), with the two helpers the refactor changed
(``_besicovitch_warm_start`` and ``_incremental_family_ok``) and the
cutoff helper it removed.  Every comparison is ``==`` and ``repr``
equality on whole ``SearchResult``s: the best family, score, feasibility
and trace, over spaces, dimensions and configurations that reach the
plateau cutoff, run fewer proposals than restarts and draw with a seed
of 2**32 or more.  The references read the fixed temperature schedule
and step scale that the searches read.

``reference_cip_check`` is ``cip_check`` as it stood while it read the
centers as ``Point``s through ``distance``, with its two helpers; it is
compared on random families with a common point in the Euclidean plane
(where the sector route runs), in the l1 plane and on the sphere, with
shrink factors that find a witness and ones that do not, and on a family
whose common point the sweep misses, where both raise the same error.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Optional

import pytest

from ballcover import search
from ballcover.covering import (
    BallFamily,
    QuasiRoundSet,
    find_common_point,
    is_besicovitch_family,
    is_tau_satellite_configuration,
)
from ballcover.errors import DomainError, InputError, InternalError
from ballcover.geometry import (
    Ball,
    Point,
    Space,
    distance,
    exp_map,
    injectivity_radius,
    project_tangent,
)
from ballcover.search import (
    _PACK_TOL,
    CipResult,
    SearchConfig,
    SearchResult,
    _clamp_to_radius,
    _icosahedron_directions,
    _length,
    _pack_valid_add,
    _pack_warm_start,
    _restart_rng,
    cip_check,
    pack_unit_balls_radius5,
    satellite_max_search,
    search_max_besicovitch_family,
)

# ---------------------------------------------------------------------------
# the reference: the three searches as they were, each with its own loop
# ---------------------------------------------------------------------------

# the searches' fixed schedule: temperature 1, decaying by 0.95, and step scale 0.3
INITIAL_TEMPERATURE, DECAY, PERTURBATION_SCALE = 1.0, 0.95, 0.3


def _plateau_cutoff(per_restart_budget: int) -> int:
    return max(200, per_restart_budget // 5)


def _besicovitch_warm_start(space: Space, rmin: float, rmax: float):
    """A known valid family, scaled so all radii equal min(rmax, fit)."""
    if space.is_flat:
        r = rmax
        if space.dim == 1:
            centers = [(-0.9 * r,), (0.9 * r,)]
        elif space.dim == 2:
            centers = [
                (0.99 * r * math.cos(2.0 * math.pi * k / 5.0),
                 0.99 * r * math.sin(2.0 * math.pi * k / 5.0))
                for k in range(5)
            ]
        elif space.dim == 3:
            rho = 2.0 / 2.05 * r
            centers = [tuple(rho * x for x in u) for u in _icosahedron_directions()]
        else:
            rho = 2.0 / 2.05 * r
            centers = []
            for axis in range(space.dim):
                for sign in (1.0, -1.0):
                    c = [0.0] * space.dim
                    c[axis] = sign * rho
                    centers.append(tuple(c))
        return [Ball(Point(c), r) for c in centers], space.origin()
    # curved spaces: two balls along a geodesic through the base point
    inj = injectivity_radius(space)
    r = min(rmax, 0.45 * inj) if math.isfinite(inj) else rmax
    if r < rmin:
        r = rmin
    base = space.origin()
    out = []
    for sign in (1.0, -1.0):
        v = [0.0] * space.ambient_dim
        v[0] = sign * 0.75 * r
        p = exp_map(space, project_tangent(space, base, v))
        out.append(Ball(p, r))
    return out, base


def _incremental_family_ok(space, balls, candidate, sweeps=60):
    """Cheap feasibility gate for adding one ball to a valid family: the
    new common point, or None."""
    for b in balls:
        d = distance(space, candidate.center, b.center)
        if not (d > b.radius and d > candidate.radius):
            return None
    trial = BallFamily(space, tuple(balls) + (candidate,))
    return find_common_point(trial, max_iter=sweeps * len(trial)).point


def reference_besicovitch_search(
    space: Space,
    radii_range,
    config: Optional[SearchConfig] = None,
) -> SearchResult:
    """Grow the largest family of common-point, center-excluding balls.

    Annealed local search: each restart starts from a known layout or a
    single ball, then alternates gated add moves (a new ball near the
    current common point) with temperature-scaled Gaussian perturbations
    of centers and log-radii.  Moves are accepted only when the family
    validator still certifies the configuration, so the final score is a
    certified lower bound for this space.  A restart stops early once
    proposals stall.
    """
    config = config or SearchConfig()
    rmin, rmax = float(radii_range[0]), float(radii_range[1])
    if not rmin > 0.0 or rmin > rmax:
        raise InputError(f"infeasible radii range [{rmin}, {rmax}]")
    per_restart = max(1, config.budget // config.restarts)
    cutoff = _plateau_cutoff(per_restart)
    dim = space.ambient_dim

    best_balls: Optional[tuple] = None
    trace = []
    for restart in range(config.restarts):
        rng = _restart_rng(config, restart)
        if restart == 0:
            balls, witness = _besicovitch_warm_start(space, rmin, rmax)
            if any(not rmin <= b.radius <= rmax for b in balls):
                balls, witness = balls[:1], balls[0].center
            if not is_besicovitch_family(BallFamily(space, tuple(balls))).is_valid:
                balls, witness = [balls[0]], balls[0].center
        else:
            r0 = math.exp(rng.uniform(math.log(rmin), math.log(rmax)))
            balls, witness = [Ball(space.origin(), r0)], space.origin()

        stalled = 0
        for step in range(per_restart):
            if stalled >= cutoff:
                break
            temp = INITIAL_TEMPERATURE * DECAY ** (
                50.0 * step / per_restart
            )
            sigma = PERTURBATION_SCALE * rmax * max(temp, 0.05)
            offsets = rng.normal(0.0, 1.0, dim)
            u_radius = rng.uniform()
            u_kind = rng.uniform()
            j = rng.integers(0, max(1, len(balls)))
            radius = math.exp(
                math.log(rmin) + u_radius * (math.log(rmax) - math.log(rmin))
            )
            if u_kind < 0.7:
                v = tuple(sigma * o for o in offsets)
                try:
                    center = exp_map(space, project_tangent(space, witness, v))
                except DomainError:
                    stalled += 1
                    continue
                cand = Ball(center, radius)
                new_witness = _incremental_family_ok(space, balls, cand)
                if new_witness is not None:
                    balls.append(cand)
                    witness = new_witness
                    stalled = 0
                else:
                    stalled += 1
            else:
                if len(balls) <= 1:
                    stalled += 1
                    continue
                old = balls[j]
                v = tuple(0.3 * sigma * o for o in offsets)
                try:
                    center = exp_map(space, project_tangent(space, old.center, v))
                except DomainError:
                    stalled += 1
                    continue
                new_r = min(rmax, max(rmin, old.radius * math.exp(0.2 * (u_radius - 0.5))))
                trial = list(balls)
                trial[j] = Ball(center, new_r)
                verdict = is_besicovitch_family(
                    BallFamily(space, tuple(trial)), max_iter=3000
                )
                if verdict.is_valid:
                    balls = trial
                    witness = verdict.witness
                stalled += 1
        if best_balls is None or len(balls) > len(best_balls):
            best_balls = tuple(balls)
        trace.append(len(balls))

    family = BallFamily(space, best_balls or ())
    verdict = is_besicovitch_family(family)
    return SearchResult(
        best=family,
        score=len(family),
        feasible=verdict.is_valid,
        trace=tuple(trace),
    )


def reference_pack_radius5(dim: int, config: Optional[SearchConfig] = None) -> SearchResult:
    """Pack open unit balls into the radius-5 ball, one pinned at the origin.

    Open balls are disjoint exactly when their center distance is at
    least 2 (equality allowed), and fitting inside radius 5 means every
    center lies within distance 4 of the origin.  The line is solved
    exactly; higher dimensions start from known layouts (hexagonal rings
    in the plane, a cubic-lattice slice beyond) and anneal insertions
    plus center jiggles.  The score is checked against the 5**dim
    volume cap.
    """
    if dim < 1:
        raise InputError(f"dimension must be >= 1, got {dim}")
    config = config or SearchConfig()
    space = Space.euclidean(dim)
    if dim == 1:
        centers = [(0.0,), (-2.0,), (2.0,), (-4.0,), (4.0,)]
        fam = BallFamily(space, tuple(Ball(Point(c), 1.0) for c in centers))
        return SearchResult(best=fam, score=5, feasible=True, trace=(5,))

    # the l2 kernel sums its squares left to right, as _length does
    dist = space._model.kernel
    per_restart = max(1, config.budget // config.restarts)
    cutoff = _plateau_cutoff(per_restart)
    best: Optional[list] = None
    trace = []
    for restart in range(config.restarts):
        rng = _restart_rng(config, restart)
        pts = _pack_warm_start(dim)
        stalled = 0
        for step in range(per_restart):
            if stalled >= cutoff:
                break
            temp = INITIAL_TEMPERATURE * DECAY ** (
                50.0 * step / per_restart
            )
            u_kind = rng.uniform()
            direction = rng.normal(0.0, 1.0, dim)
            u_r = rng.uniform()
            j = rng.integers(0, max(1, len(pts)))
            if u_kind < 0.5:
                norm = _length(direction)
                if norm == 0.0:
                    stalled += 1
                    continue
                reach = u_r ** (1.0 / dim)
                cand = _clamp_to_radius(tuple([x / norm * 4.0 * reach for x in direction]))
                if _pack_valid_add(dist, pts, cand):
                    pts.append(cand)
                    stalled = 0
                else:
                    stalled += 1
            else:
                if j == 0:
                    stalled += 1
                    continue  # the pinned center never moves
                sigma = PERTURBATION_SCALE * max(temp, 0.02)
                cand = _clamp_to_radius(tuple([p + sigma * x for p, x in zip(pts[j], direction)]))
                others = pts[:j] + pts[j + 1 :]
                if _pack_valid_add(dist, others, cand):
                    pts[j] = cand
                stalled += 1
        if best is None or len(pts) > len(best):
            best = pts
        trace.append(len(pts))

    if best is None:
        raise InternalError("packing search ran no restart")
    if len(best) > 5 ** dim:
        raise InternalError(f"packing of {len(best)} balls exceeds the volume cap {5 ** dim}")
    fam = BallFamily(space, tuple(Ball(Point(p), 1.0) for p in best))
    feasible = all(
        _length(p) <= 4.0 for p in best
    ) and all(
        dist(best[i], best[j]) >= 2.0 - _PACK_TOL
        for i in range(len(best))
        for j in range(i + 1, len(best))
    ) and not any(best[0])
    return SearchResult(best=fam, score=len(best), feasible=feasible, trace=tuple(trace))


def reference_satellite_search(
    space: Space,
    tau: float,
    lam: float,
    config: Optional[SearchConfig] = None,
) -> SearchResult:
    """Grow ordered quasi-round configurations accepted by the validator.

    Add-only annealing: each proposal appends a new set (anchor placed
    near an existing one, diameter below tau times the current minimum)
    and keeps it only when the full ordered-configuration validator
    accepts.  The score is an empirical lower bound for the largest
    configuration size; ``best`` packs each set's outer ball so the
    result can be serialized like any family.
    """
    if not 1.0 < tau <= 2.0:
        raise InputError(f"tau must lie in (1, 2], got {tau!r}")
    if lam < 1.0:
        raise InputError(f"lam must be >= 1, got {lam!r}")
    config = config or SearchConfig()
    per_restart = max(1, config.budget // config.restarts)
    cutoff = _plateau_cutoff(per_restart)
    dim = space.ambient_dim

    best_sets: Optional[list] = None
    trace = []
    for restart in range(config.restarts):
        rng = _restart_rng(config, restart)
        base = space.origin()
        sets = [QuasiRoundSet(base, 1.0, lam, min(2.0, 2.0 * lam))]
        points = [base]
        stalled = 0
        for step in range(per_restart):
            if stalled >= cutoff:
                break
            offsets = rng.normal(0.0, 1.0, dim)
            u_dist = rng.uniform()
            u_diam = rng.uniform()
            u_round = rng.uniform()
            j = rng.integers(0, len(sets))
            anchor_j = sets[j].anchor
            rj = sets[j].inner_radius
            reach = rj * (0.6 + 1.6 * u_dist)
            norm = _length(offsets) or 1.0
            v = tuple(reach * o / norm for o in offsets)
            try:
                anchor = exp_map(space, project_tangent(space, anchor_j, v))
            except DomainError:
                stalled += 1
                continue
            min_diam = min(qs.diameter for qs in sets)
            diam = min_diam * (0.4 + 0.58 * (tau - 1.0 + 1.0) * u_diam)
            diam = min(diam, min_diam * tau * 0.98)
            r_new = diam / (1.0 + (2.0 * lam - 1.0) * u_round)
            try:
                cand = QuasiRoundSet(anchor, r_new, lam, diam)
            except InputError:
                stalled += 1
                continue
            trial_sets = sets + [cand]
            trial_points = points + [anchor]
            verdict = is_tau_satellite_configuration(
                space, trial_sets, trial_points, tau
            )
            if verdict.is_valid:
                sets, points = trial_sets, trial_points
                stalled = 0
            else:
                stalled += 1
        if best_sets is None or len(sets) > len(best_sets):
            best_sets = sets
        trace.append(len(sets))

    if best_sets is None:
        raise InternalError("satellite search ran no restart")
    verdict = is_tau_satellite_configuration(
        space, best_sets, [qs.anchor for qs in best_sets], tau
    )
    fam = BallFamily(
        space,
        tuple(Ball(qs.anchor, qs.lam * qs.inner_radius) for qs in best_sets),
    )
    return SearchResult(
        best=fam,
        score=len(best_sets),
        feasible=verdict.is_valid,
        trace=tuple(trace),
    )


def _reference_cip_verify(space, centers, radii, s, indices, z) -> bool:
    return all(distance(space, z, centers[i]) <= s * radii[i] + 1e-9 for i in indices)


def reference_cip_check(family: BallFamily, m: int, s: float) -> CipResult:
    """Search m+1 balls whose s-shrunk copies still share a point."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InputError(f"m must be a positive integer, got {m!r}")
    if not 0.0 < s < 1.0:
        raise InputError(f"s must lie in (0, 1), got {s!r}")
    n = len(family)
    if n < 2 * m + 1:
        raise InputError(f"need at least {2 * m + 1} balls, got {n}")
    space, coords, radii = family.space, family.coords, family.radii
    if any(r <= 0.0 for r in radii):
        raise InputError("all radii must be positive")
    feas = find_common_point(family, max_iter=20_000)
    if feas.point is None:
        raise InputError("no common point was found (max violation %.3g)" % feas.max_violation)
    y = feas.point
    target = m + 1
    scale = 1.0 + max(radii)

    centers = family.centers
    slack = [distance(space, y, c) - s * r for c, r in zip(centers, radii)]
    inside = [i for i in range(n) if slack[i] <= 1e-9 * scale]
    if len(inside) >= target:
        idx = tuple(inside[:target])
        if _reference_cip_verify(space, centers, radii, s, idx, y):
            return CipResult(True, idx, y)

    if space.is_flat and space.dim == 2 and space.pnorm == 2.0:
        got = _reference_cip_sector_route(space, centers, radii, s, y, target, scale)
        if got is not None:
            return got

    # subset feasibility: restrict to the 2m+1 tightest balls, then widen
    by_slack = sorted(range(n), key=lambda i: (slack[i], i))
    pools = [by_slack[: 2 * m + 1]]
    if n > 2 * m + 1:
        pools.append(by_slack)
    tried = 0
    for pool in pools:
        for subset in itertools.combinations(sorted(pool), target):
            tried += 1
            if tried > 5000:
                break
            shrunk = BallFamily._columns(
                space, tuple(map(coords.__getitem__, subset)), tuple(s * radii[i] for i in subset)
            )
            sub = find_common_point(shrunk, max_iter=4000)
            if sub.point is not None and _reference_cip_verify(
                space, centers, radii, s, subset, sub.point
            ):
                return CipResult(True, tuple(subset), sub.point)
        if tried > 5000:
            break
    return CipResult(False)


def _reference_cip_sector_route(space, centers, radii, s, y, target, scale):
    """Planar analytic stage: tightest angular bundle plus a line search."""
    dirs = []
    for i, c in enumerate(centers):
        dx = c.coords[0] - y.coords[0]
        dy = c.coords[1] - y.coords[1]
        d = math.hypot(dx, dy)
        if d > 1e-15:
            dirs.append((math.atan2(dy, dx), i))
    if len(dirs) < target:
        return None
    dirs.sort()
    k = len(dirs)
    best_span, best_at = math.inf, 0
    for a in range(k):
        b = a + target - 1
        ang_a = dirs[a][0]
        ang_b = dirs[b % k][0] + (2.0 * math.pi if b >= k else 0.0)
        span = ang_b - ang_a
        if span < best_span:
            best_span, best_at = span, a
    if best_span >= math.pi:
        return None
    bundle = [dirs[(best_at + t) % k][1] for t in range(target)]
    mid = dirs[best_at][0] + best_span / 2.0
    ux, uy = math.cos(mid), math.sin(mid)
    dmax = max(
        math.hypot(centers[i].coords[0] - y.coords[0], centers[i].coords[1] - y.coords[1])
        for i in bundle
    )
    for t in range(1, 65):
        delta = dmax * t / 64.0
        z = Point((y.coords[0] + delta * ux, y.coords[1] + delta * uy))
        hits = [
            i
            for i, (c, r) in enumerate(zip(centers, radii))
            if distance(space, z, c) <= s * r + 1e-12 * scale
        ]
        if len(hits) >= target:
            idx = tuple(hits[:target])
            if _reference_cip_verify(space, centers, radii, s, idx, z):
                return CipResult(True, idx, z)
    return None


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------

CONFIGS = {
    # 300 proposals per restart against a cutoff of 200 stalled ones
    "plateau": SearchConfig(seed=3, budget=600, restarts=2),
    # fewer proposals than restarts: one proposal per restart
    "tiny": SearchConfig(seed=5, budget=3, restarts=4),
    # a seed past 32 bits, on three restarts of the fixed schedule
    "schedule": SearchConfig(seed=2**32 + 7, budget=300, restarts=3),
}

WBCP_SPACES = {
    "l2d1": Space.euclidean(1),
    "l2d2": Space.euclidean(2),
    "l2d3": Space.euclidean(3),
    "l2d4": Space.euclidean(4),
    "l1d2": Space.euclidean(2, pnorm=1.0),
    "l3d2": Space.euclidean(2, pnorm=3.0),
    "sphere": Space.sphere(2),
    "hyper": Space.hyperbolic(2),
}


def assert_same(got, want):
    assert isinstance(got, SearchResult)
    assert got == want
    assert repr(got) == repr(want)  # tells -0.0 from 0.0


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("space", sorted(WBCP_SPACES))
def test_family_search_matches_the_reference(space, config):
    args = (WBCP_SPACES[space], (0.5, 1.5), CONFIGS[config])
    assert_same(search_max_besicovitch_family(*args), reference_besicovitch_search(*args))


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_packing_search_matches_the_reference(dim, config):
    args = (dim, CONFIGS[config])
    assert_same(pack_unit_balls_radius5(*args), reference_pack_radius5(*args))


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("lam", [1.0, 1.5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_satellite_search_matches_the_reference(dim, lam, config):
    args = (Space.euclidean(dim), 1.5, lam, CONFIGS[config])
    assert_same(satellite_max_search(*args), reference_satellite_search(*args))


def test_the_grid_reaches_the_plateau_cutoff(monkeypatch):
    """The configurations above exercise what they claim: a restart of
    ``plateau`` stops before its budget, one of ``tiny`` makes one proposal."""
    real = search._anneal
    counts = []

    def counting(config, start, propose):
        def counted_start(restart, rng):
            counts.append(0)
            return start(restart, rng)

        def counted_propose(state, temp, rng):
            counts[-1] += 1
            return propose(state, temp, rng)

        return real(config, counted_start, counted_propose)

    monkeypatch.setattr(search, "_anneal", counting)
    for name in ("l2d2", "sphere"):
        search_max_besicovitch_family(WBCP_SPACES[name], (0.5, 1.5), CONFIGS["plateau"])
    pack_unit_balls_radius5(2, CONFIGS["plateau"])
    satellite_max_search(Space.euclidean(2), 1.5, 1.0, CONFIGS["plateau"])
    assert len(counts) == 8 and min(counts) < 300, counts
    counts.clear()
    search_max_besicovitch_family(WBCP_SPACES["l2d2"], (0.5, 1.5), CONFIGS["tiny"])
    assert counts == [1, 1, 1, 1]


CIP_SPACES = {
    "l2": Space.euclidean(2),
    "l1": Space.euclidean(2, pnorm=1.0),
    "sphere": Space.sphere(2),
}


def planted_cip_family(space, rng, n):
    """``n`` balls around a common point ``y``: each center at distance
    ``d <= r`` from ``y``, in a uniform random direction."""
    coords, radii = [], []
    if space.is_flat:
        y = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    else:
        y = (0.0, 0.0, 1.0)
    for _ in range(n):
        r = rng.uniform(0.3, 1.2)
        d = r * rng.uniform(0.3, 1.0)
        a = rng.uniform(0.0, 2.0 * math.pi)
        u = (math.cos(a), math.sin(a))
        if not space.is_flat:
            c = (math.sin(d) * u[0], math.sin(d) * u[1], math.cos(d))
        elif space.pnorm == 1.0:
            n = abs(u[0]) + abs(u[1])
            c = (y[0] + d * u[0] / n, y[1] + d * u[1] / n)
        else:
            c = (y[0] + d * u[0], y[1] + d * u[1])
        coords.append(c)
        radii.append(r)
    return BallFamily.from_columns(space, coords, radii)


def test_a_missed_common_point_is_reported_as_the_reference_reports_it(tmp_path, capsys):
    # the side-1.9 triangle of unit disks: every pair meets but no point
    # lies in all three; the sweep's miss certifies no emptiness, so the
    # error says only what the sweep reached
    from ballcover.cli import run_command

    coords = [(0.0, 0.0), (1.9, 0.0), (0.95, 0.95 * math.sqrt(3.0))]
    family = BallFamily.from_columns(Space.euclidean(2), coords, [1.0] * 3)
    violation = find_common_point(family, max_iter=20_000).max_violation
    message = "no common point was found (max violation %.3g)" % violation
    for check in (cip_check, reference_cip_check):
        with pytest.raises(InputError) as raised:
            check(family, 1, 0.5)
        assert str(raised.value) == message
    scene = tmp_path / "triangle.json"
    scene.write_text(json.dumps({"version": 1, "space": {"kind": "euclidean", "dim": 2},
                                 "balls": [{"center": c, "radius": 1.0} for c in coords]}))
    assert run_command(["cip", str(scene), "--m", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("space", sorted(CIP_SPACES))
def test_cip_check_matches_the_reference(space, monkeypatch):
    import random

    real, routed = search._cip_sector_route, []

    def sector_route(*args):
        got = real(*args)
        routed.append(got is not None)
        return got

    monkeypatch.setattr(search, "_cip_sector_route", sector_route)
    rng = random.Random(f"cip-{space}")
    outcomes = set()
    for trial in range(12 if space == "sphere" else 40):  # sphere sweeps are slow
        m = 1 + trial % 3
        family = planted_cip_family(CIP_SPACES[space], rng, 2 * m + 1 + trial % 4)
        for s in (0.3, 0.7, 0.95):
            got, want = cip_check(family, m, s), reference_cip_check(family, m, s)
            assert got == want and repr(got) == repr(want), (trial, s)
            outcomes.add(got.found)
    assert outcomes == {True, False}
    if space == "l2":
        assert True in routed and False in routed
    else:
        assert routed == []
