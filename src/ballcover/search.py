"""Randomized configuration search and verification for extremal constants.

Everything here estimates extremal configuration sizes from below: a
result is reported only after the corresponding validator re-certifies
it, so scores are certified lower bounds (never upper bounds).  All
searches are deterministic functions of their :class:`SearchConfig`:
each restart derives an independent random stream from (seed, restart),
and a fixed number of random draws happens per proposal regardless of
acceptance.

Known-good layouts (a pentagon for the plane, icosahedral directions in
three dimensions, hexagonal rings and cubic-lattice slices for the
radius-5 packing) are built in as warm starts so the classical values
reproduce within small budgets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .covering import (
    BallFamily,
    find_common_point,
    is_besicovitch_family,
    is_k_configuration,
    is_tau_satellite_configuration,
)
from .covering import QuasiRoundSet
from .errors import DomainError, InputError, InternalError, UnsupportedFeatureError
from .geometry import (
    Ball,
    Point,
    Space,
    distance,
    exp_map,
    injectivity_radius,
    project_tangent,
)

__all__ = [
    "SearchConfig",
    "SearchResult",
    "CipResult",
    "ConstantsRow",
    "search_max_besicovitch_family",
    "construct_strict_hadwiger",
    "pack_unit_balls_radius5",
    "cip_check",
    "satellite_max_search",
    "constants_report",
    "constants_markdown",
]

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class SearchConfig:
    """Reproducibility and effort envelope for the randomized searches."""

    seed: int = 0
    budget: int = 100_000
    restarts: int = 8
    initial_temperature: float = 1.0
    decay: float = 0.95
    perturbation_scale: float = 0.3

    def __post_init__(self):
        if self.budget < 1:
            raise InputError(f"budget must be >= 1, got {self.budget}")
        if self.restarts < 1:
            raise InputError(f"restarts must be >= 1, got {self.restarts}")
        if not 0.0 < self.decay < 1.0:
            raise InputError(f"decay must lie in (0, 1), got {self.decay}")
        if not self.initial_temperature > 0.0:
            raise InputError("initial temperature must be positive")
        if not self.perturbation_scale > 0.0:
            raise InputError("perturbation scale must be positive")


@dataclass(frozen=True)
class SearchResult:
    """Best configuration found, with its certification status."""

    best: BallFamily
    score: int
    feasible: bool
    trace: tuple


@dataclass(frozen=True)
class CipResult:
    """Outcome of a shrunk-common-point search."""

    found: bool
    indices: Optional[tuple] = None
    witness: Optional[Point] = None


@dataclass(frozen=True)
class ConstantsRow:
    """One line of the extremal-constants report.

    ``paper_value`` is an exact integer or an (inclusive) integer
    interval when only a range is known; ``achieved_lower_bound`` is what
    the constructions in this module certify.
    """

    name: str
    dim: int
    paper_value: object
    achieved_lower_bound: int
    method: str

    def __post_init__(self):
        if self.name not in ("w", "Hstar", "K", "alpha", "beta"):
            raise InputError(f"unknown constant name {self.name!r}")
        hi = self.paper_value[1] if isinstance(self.paper_value, tuple) else self.paper_value
        if self.achieved_lower_bound > hi:
            raise InputError(
                f"achieved bound {self.achieved_lower_bound} exceeds the "
                f"known upper value {hi} for {self.name}({self.dim})"
            )


def _restart_rng(config: SearchConfig, restart: int) -> np.random.Generator:
    return np.random.default_rng([config.seed & 0xFFFFFFFF, restart])


def _plateau_cutoff(per_restart_budget: int) -> int:
    return max(200, per_restart_budget // 5)


# ---------------------------------------------------------------------------
# warm-start layouts
# ---------------------------------------------------------------------------


def _icosahedron_directions():
    pts = []
    for a, b in ((1.0, _GOLDEN), (-1.0, _GOLDEN), (1.0, -_GOLDEN), (-1.0, -_GOLDEN)):
        pts.append((0.0, a, b))
        pts.append((a, b, 0.0))
        pts.append((b, 0.0, a))
    norm = math.sqrt(1.0 + _GOLDEN * _GOLDEN)
    return [tuple(x / norm for x in p) for p in pts]


def _besicovitch_warm_start(space: Space, rmin: float, rmax: float):
    """A known valid family, scaled so all radii equal min(rmax, fit)."""
    if space.kind == "euclidean":
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


def _incremental_family_ok(space, balls, candidate, witness, sweeps=60):
    """Cheap feasibility gate for adding one ball to a valid family."""
    for b in balls:
        d = distance(space, candidate.center, b.center)
        if not (d > b.radius and d > candidate.radius):
            return None
    trial = BallFamily(space, tuple(balls) + (candidate,))
    feas = find_common_point(trial, max_iter=sweeps * len(trial))
    if feas.point is None:
        return None
    return feas.point


def search_max_besicovitch_family(
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
            temp = config.initial_temperature * config.decay ** (
                50.0 * step / per_restart
            )
            sigma = config.perturbation_scale * rmax * max(temp, 0.05)
            offsets = rng.normal(0.0, 1.0, dim)
            u_radius = rng.uniform()
            u_kind = rng.uniform()
            j = int(rng.integers(0, max(1, len(balls))))
            radius = math.exp(
                math.log(rmin) + u_radius * (math.log(rmax) - math.log(rmin))
            )
            if u_kind < 0.7:
                try:
                    if space.kind == "euclidean":
                        center = Point(
                            tuple(
                                w + sigma * o for w, o in zip(witness.coords, offsets)
                            )
                        )
                    else:
                        v = tuple(sigma * o for o in offsets)
                        center = exp_map(space, project_tangent(space, witness, v))
                except DomainError:
                    stalled += 1
                    continue
                cand = Ball(center, radius)
                new_witness = _incremental_family_ok(space, balls, cand, witness)
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
                try:
                    if space.kind == "euclidean":
                        center = Point(
                            tuple(
                                c + 0.3 * sigma * o
                                for c, o in zip(old.center.coords, offsets)
                            )
                        )
                    else:
                        v = tuple(0.3 * sigma * o for o in offsets)
                        center = exp_map(
                            space, project_tangent(space, old.center, v)
                        )
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


# ---------------------------------------------------------------------------
# strict tangent configurations
# ---------------------------------------------------------------------------


def construct_strict_hadwiger(dim: int) -> BallFamily:
    """Unit balls tangent to the central unit ball, pairwise disjoint.

    The returned family contains only the touching balls: 2 on the line,
    5 in the plane (a pentagon at center distance exactly 2), 12 in
    space (icosahedron vertex directions).  Tangency (center distance
    exactly 2 within 1e-12) and strict pairwise disjointness (center
    distances > 2) are re-verified numerically before returning.
    """
    if dim < 1:
        raise InputError(f"dimension must be >= 1, got {dim}")
    if dim > 3:
        raise UnsupportedFeatureError(
            "strict tangent configurations are built for dimensions 1-3 only"
        )
    space = Space.euclidean(dim)
    if dim == 1:
        centers = [(-2.0,), (2.0,)]
    elif dim == 2:
        centers = [
            (2.0 * math.cos(2.0 * math.pi * k / 5.0),
             2.0 * math.sin(2.0 * math.pi * k / 5.0))
            for k in range(5)
        ]
    else:
        centers = [tuple(2.0 * x for x in u) for u in _icosahedron_directions()]
    balls = tuple(Ball(Point(c), 1.0) for c in centers)
    for i, b in enumerate(balls):
        d = math.sqrt(sum(x * x for x in b.center.coords))
        if abs(d - 2.0) >= 1e-12:
            raise InternalError(f"tangent ball {i} lost tangency ({d})")
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            d = distance(space, balls[i].center, balls[j].center)
            if not d > 2.0:
                raise InternalError(f"tangent balls {i} and {j} are not strictly disjoint")
    return BallFamily(space, balls)


# ---------------------------------------------------------------------------
# radius-5 packing
# ---------------------------------------------------------------------------

_PACK_TOL = 1e-9


def _clamp_to_radius(vec, limit=4.0):
    v = np.asarray(vec, dtype=float)
    norm = float(np.sqrt(np.sum(v * v)))
    while norm > limit:
        v = v * (limit / norm)
        norm = float(np.sqrt(np.sum(v * v)))
    return v


def _pack_warm_start(dim: int):
    if dim == 2:
        pts = [np.zeros(2)]
        for k in range(6):
            a = math.pi * k / 3.0
            pts.append(np.array([2.0 * math.cos(a), 2.0 * math.sin(a)]))
        for k in range(12):
            a = math.pi * k / 6.0
            pts.append(_clamp_to_radius([4.0 * math.cos(a), 4.0 * math.sin(a)]))
        return pts
    # slice of the spacing-2 cubic lattice inside the radius-4 ball
    pts = []
    rng_axis = range(-2, 3)
    for combo in itertools.product(rng_axis, repeat=dim):
        v = np.array(combo, dtype=float) * 2.0
        if float(np.sum(v * v)) <= 16.0 + 1e-12:
            pts.append(_clamp_to_radius(v))
    pts.sort(key=lambda v: (float(np.sum(v * v)), tuple(v)))
    if not np.all(pts[0] == 0.0):
        raise InternalError("packing warm start does not begin at the origin")
    return pts


def _pack_valid_add(pts, cand):
    return all(float(np.sqrt(np.sum((cand - p) ** 2))) >= 2.0 - _PACK_TOL for p in pts)


def pack_unit_balls_radius5(dim: int, config: Optional[SearchConfig] = None) -> SearchResult:
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

    per_restart = max(1, config.budget // config.restarts)
    cutoff = _plateau_cutoff(per_restart)
    best: Optional[list] = None
    trace = []
    for restart in range(config.restarts):
        rng = _restart_rng(config, restart)
        pts = [p.copy() for p in _pack_warm_start(dim)]
        stalled = 0
        for step in range(per_restart):
            if stalled >= cutoff:
                break
            temp = config.initial_temperature * config.decay ** (
                50.0 * step / per_restart
            )
            u_kind = rng.uniform()
            direction = rng.normal(0.0, 1.0, dim)
            u_r = rng.uniform()
            j = int(rng.integers(0, max(1, len(pts))))
            if u_kind < 0.5:
                norm = float(np.sqrt(np.sum(direction * direction)))
                if norm == 0.0:
                    stalled += 1
                    continue
                cand = direction / norm * 4.0 * u_r ** (1.0 / dim)
                cand = _clamp_to_radius(cand)
                if _pack_valid_add(pts, cand):
                    pts.append(cand)
                    stalled = 0
                else:
                    stalled += 1
            else:
                if j == 0:
                    stalled += 1
                    continue  # the pinned center never moves
                sigma = config.perturbation_scale * max(temp, 0.02)
                cand = _clamp_to_radius(pts[j] + sigma * direction)
                others = pts[:j] + pts[j + 1 :]
                if _pack_valid_add(others, cand):
                    pts[j] = cand
                stalled += 1
        if best is None or len(pts) > len(best):
            best = pts
        trace.append(len(pts))

    if best is None:
        raise InternalError("packing search ran no restart")
    if len(best) > 5 ** dim:
        raise InternalError(f"packing of {len(best)} balls exceeds the volume cap {5 ** dim}")
    fam = BallFamily(
        space, tuple(Ball(Point(tuple(float(x) for x in p)), 1.0) for p in best)
    )
    feasible = all(
        float(np.sqrt(np.sum(p * p))) <= 4.0 for p in best
    ) and all(
        float(np.sqrt(np.sum((best[i] - best[j]) ** 2))) >= 2.0 - _PACK_TOL
        for i in range(len(best))
        for j in range(i + 1, len(best))
    ) and bool(np.all(best[0] == 0.0))
    return SearchResult(best=fam, score=len(best), feasible=feasible, trace=tuple(trace))


# ---------------------------------------------------------------------------
# shrunk-common-point check
# ---------------------------------------------------------------------------


def _cip_verify(space, family, s, indices, z) -> bool:
    return all(
        distance(space, z, family[i].center) <= s * family[i].radius + 1e-9
        for i in indices
    )


def cip_check(family: BallFamily, m: int, s: float) -> CipResult:
    """Search m+1 balls whose s-shrunk copies still share a point.

    The family must share a common point (verified first) and have at
    least 2m+1 members with positive radii.  Three deterministic stages:
    the common point itself may already lie in enough shrunk balls; in
    the Euclidean plane, the directions from the common point to the
    centers are swept for the tightest angular bundle of m+1 balls and a
    step toward its bisector is line-searched; finally small subsets,
    ordered by how close the common point is to their shrunk balls, are
    checked by the convex feasibility iteration.  Any witness is
    re-verified inside all returned shrunk balls before being reported.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InputError(f"m must be a positive integer, got {m!r}")
    if not 0.0 < s < 1.0:
        raise InputError(f"s must lie in (0, 1), got {s!r}")
    n = len(family)
    if n < 2 * m + 1:
        raise InputError(f"need at least {2 * m + 1} balls, got {n}")
    if any(b.radius <= 0.0 for b in family):
        raise InputError("all radii must be positive")
    space = family.space
    feas = find_common_point(family, max_iter=20_000)
    if feas.point is None:
        raise InputError("the balls share no common point")
    y = feas.point
    target = m + 1
    scale = 1.0 + max(b.radius for b in family)

    slack = [distance(space, y, b.center) - s * b.radius for b in family]
    inside = [i for i in range(n) if slack[i] <= 1e-9 * scale]
    if len(inside) >= target:
        idx = tuple(inside[:target])
        if _cip_verify(space, family, s, idx, y):
            return CipResult(True, idx, y)

    if space.kind == "euclidean" and space.dim == 2 and space.pnorm == 2.0:
        got = _cip_sector_route(space, family, s, y, target, scale)
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
            shrunk = BallFamily(
                space, tuple(Ball(family[i].center, s * family[i].radius) for i in subset)
            )
            sub = find_common_point(shrunk, max_iter=4000)
            if sub.point is not None and _cip_verify(space, family, s, subset, sub.point):
                return CipResult(True, tuple(subset), sub.point)
        if tried > 5000:
            break
    return CipResult(False)


def _cip_sector_route(space, family, s, y, target, scale):
    """Planar analytic stage: tightest angular bundle plus a line search."""
    dirs = []
    for i, b in enumerate(family):
        dx = b.center.coords[0] - y.coords[0]
        dy = b.center.coords[1] - y.coords[1]
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
        math.hypot(
            family[i].center.coords[0] - y.coords[0],
            family[i].center.coords[1] - y.coords[1],
        )
        for i in bundle
    )
    for t in range(1, 65):
        delta = dmax * t / 64.0
        z = Point((y.coords[0] + delta * ux, y.coords[1] + delta * uy))
        hits = [
            i
            for i, b in enumerate(family)
            if distance(space, z, b.center) <= s * b.radius + 1e-12 * scale
        ]
        if len(hits) >= target:
            idx = tuple(hits[:target])
            if _cip_verify(space, family, s, idx, z):
                return CipResult(True, idx, z)
    return None


# ---------------------------------------------------------------------------
# satellite configuration search
# ---------------------------------------------------------------------------


def satellite_max_search(
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
            j = int(rng.integers(0, len(sets)))
            anchor_j = sets[j].anchor
            rj = sets[j].inner_radius
            reach = rj * (0.6 + 1.6 * u_dist)
            if space.kind == "euclidean":
                norm = math.sqrt(sum(o * o for o in offsets)) or 1.0
                anchor = Point(
                    tuple(
                        a + reach * o / norm
                        for a, o in zip(anchor_j.coords, offsets)
                    )
                )
            else:
                norm = math.sqrt(sum(o * o for o in offsets)) or 1.0
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


# ---------------------------------------------------------------------------
# the constants report
# ---------------------------------------------------------------------------

_PAPER_W = {1: 2, 2: 5, 3: 12, 4: 24}
_PAPER_K = {1: 2, 2: (8, 11)}
_PAPER_ALPHA = {1: 2, 2: (8, 19), 3: (12, 87), 4: (24, 331)}
_PAPER_BETA = {1: 5, 2: 19, 3: (67, 87), 4: (226, 331)}


def _bounds(value) -> tuple:
    return value if isinstance(value, tuple) else (value, value)


def constants_report(dims: Sequence[int], config: Optional[SearchConfig] = None):
    """Classical table values next to certified achieved lower bounds.

    For each requested dimension: the maximal-family search gives the
    achieved bound for ``w``; the tangent construction gives ``Hstar``
    (dimensions 1-3); ``K`` and ``alpha`` inherit the ``w`` bound (a
    valid family is also a pairwise-intersecting center-excluded
    configuration, and the covering constant dominates it in the known
    chain); the radius-5 packing gives ``beta``.  The chain
    w <= K <= alpha <= beta <= 5**dim is checked on the classical
    values and on the achieved values of every emitted dimension; a
    failed check raises :class:`~ballcover.errors.InternalError`.
    """
    dims = list(dims)
    if any(d not in (1, 2, 3, 4) for d in dims):
        raise InputError(f"dims must be within {{1,2,3,4}}, got {dims}")
    config = config or SearchConfig(budget=4000, restarts=2)
    rows = []
    for dim in dims:
        space = Space.euclidean(dim)
        w_res = search_max_besicovitch_family(space, (0.5, 1.5), config)
        if not w_res.feasible:
            raise InternalError(f"the w family for dim {dim} failed re-certification")
        w_ach = w_res.score
        if is_k_configuration(w_res.best).is_valid:
            k_ach = w_ach
        else:  # pragma: no cover - a valid family always qualifies
            k_ach = 0
        beta_res = pack_unit_balls_radius5(dim, config)
        if not beta_res.feasible:
            raise InternalError(f"the radius-5 packing for dim {dim} failed re-certification")
        beta_ach = beta_res.score

        rows.append(
            ConstantsRow(
                "w", dim, _PAPER_W[dim], w_ach, "annealed search with warm start"
            )
        )
        if dim <= 3:
            h_fam = construct_strict_hadwiger(dim)
            rows.append(
                ConstantsRow(
                    "Hstar", dim, _PAPER_W[dim], len(h_fam), "explicit tangent layout"
                )
            )
        if dim in _PAPER_K:
            rows.append(
                ConstantsRow(
                    "K", dim, _PAPER_K[dim], k_ach, "inherited from the w family"
                )
            )
        rows.append(
            ConstantsRow(
                "alpha",
                dim,
                _PAPER_ALPHA[dim],
                k_ach,
                "inherited through w <= K <= alpha",
            )
        )
        rows.append(
            ConstantsRow(
                "beta", dim, _PAPER_BETA[dim], beta_ach, "radius-5 packing search"
            )
        )

        # chain checks, classical and achieved
        chain = [
            _bounds(_PAPER_W[dim]),
            _bounds(_PAPER_K[dim]) if dim in _PAPER_K else None,
            _bounds(_PAPER_ALPHA[dim]),
            _bounds(_PAPER_BETA[dim]),
            (5 ** dim, 5 ** dim),
        ]
        filtered = [c for c in chain if c is not None]
        for (lo1, hi1), (lo2, hi2) in zip(filtered, filtered[1:]):
            if not (lo1 <= lo2 and hi1 <= hi2):
                raise InternalError(f"classical chain broken at dim {dim}")
        achieved = [w_ach, k_ach, k_ach, beta_ach, 5 ** dim]
        for a, b in zip(achieved, achieved[1:]):
            if not a <= b:
                raise InternalError(f"achieved chain broken at dim {dim}")
    return rows


def constants_markdown(rows) -> str:
    """Render report rows as a markdown table."""
    out = ["| constant | dim | known value | achieved | method |",
           "| --- | --- | --- | --- | --- |"]
    for r in rows:
        lo, hi = _bounds(r.paper_value)
        known = str(lo) if lo == hi else f"[{lo}, {hi}]"
        out.append(
            f"| {r.name} | {r.dim} | {known} | {r.achieved_lower_bound} | {r.method} |"
        )
    return "\n".join(out)
