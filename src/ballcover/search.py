"""Randomized configuration search and verification for extremal constants.

Everything here estimates extremal configuration sizes from below: a
result is reported only after the corresponding validator re-certifies
it, so scores are certified lower bounds (never upper bounds).  All
searches are deterministic functions of their :class:`SearchConfig`:
each restart derives an independent random stream from (seed, restart),
and a fixed number of random draws happens per proposal regardless of
acceptance.  The three annealed searches share one driver,
:func:`_anneal`, which alone owns the budget split, the restarts and their
streams, the temperature schedule and the stall cutoff; each search only
says how a restart starts and what one proposal does.

Known-good layouts (a pentagon for the plane, icosahedral directions in
three dimensions, hexagonal rings and cubic-lattice slices for the
radius-5 packing) are built in as warm starts so the classical values
reproduce within small budgets.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence

from ._record import Record
from .covering import (
    BallFamily,
    QuasiRoundSet,
    _beyond_sweep,
    _satellite_extended,
    find_common_point,
    is_besicovitch_family,
    is_k_configuration,
    is_tau_satellite_configuration,
)
from .errors import DomainError, InputError, InternalError, UnsupportedFeatureError
from .geometry import DEFAULT_TOL, Point, Space

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
_ADD_SWEEPS = 60  # convex-feasibility sweeps per ball when an add move is checked
_DECAY = 0.95  # the annealing temperature's factor per 2 % of a restart
_STEP_SCALE = 0.3  # a perturbation's step at temperature 1 (times rmax for wbcp)


class SearchConfig(Record):
    """Reproducibility and effort envelope for the randomized searches."""

    __slots__ = _fields = ("seed", "budget", "restarts")

    def __init__(self, seed: int = 0, budget: int = 100_000, restarts: int = 8):
        if budget < 1:
            raise InputError(f"budget must be >= 1, got {budget}")
        if restarts < 1:
            raise InputError(f"restarts must be >= 1, got {restarts}")
        self._set(seed, budget, restarts)


class SearchResult(NamedTuple):
    """Best configuration found, with its certification status."""

    best: BallFamily
    score: int
    feasible: bool
    trace: tuple


class CipResult(NamedTuple):
    """Outcome of a shrunk-common-point search."""

    found: bool
    indices: Optional[tuple] = None
    witness: Optional[Point] = None


class ConstantsRow(Record):
    """One line of the extremal-constants report.

    ``paper_value`` is an exact integer or an (inclusive) integer
    interval when only a range is known; ``achieved_lower_bound`` is what
    the constructions in this module certify.
    """

    __slots__ = _fields = ("name", "dim", "paper_value", "achieved_lower_bound", "method")

    def __init__(self, name: str, dim: int, paper_value, achieved_lower_bound: int, method: str):
        if name not in ("w", "Hstar", "K", "alpha", "beta"):
            raise InputError(f"unknown constant name {name!r}")
        hi = paper_value[1] if isinstance(paper_value, tuple) else paper_value
        if achieved_lower_bound > hi:
            raise InputError(
                f"achieved bound {achieved_lower_bound} exceeds the "
                f"known upper value {hi} for {name}({dim})"
            )
        self._set(name, dim, paper_value, achieved_lower_bound, method)


def _restart_rng(config: SearchConfig, restart: int):
    """The stream of ``numpy.random.default_rng([seed & 0xFFFFFFFF, restart])``."""
    from ._rng import Generator

    return Generator([config.seed & 0xFFFFFFFF, restart])


def _length(v) -> float:
    """The Euclidean length of ``v``, its squares summed left to right from
    0.0, as ``np.sum`` does below its pairwise block of 8 terms."""
    s = 0.0
    for x in v:
        s += x * x
    return math.sqrt(s)


def _anneal(config: SearchConfig, start, propose) -> list:
    """Run ``config.restarts`` restarts of an annealed search; return each
    restart's final state, in restart order.

    A restart builds its state with ``start(restart, rng)`` and then makes
    up to ``budget // restarts`` proposals ``propose(state, temp, rng)``,
    which update ``state`` in place and return True only when they grew
    it.  The temperature falls geometrically over the restart's budget,
    from 1 to ``_DECAY ** 50``, and a restart stops once
    ``max(200, budget // restarts // 5)`` proposals in a row have not
    grown its state.
    """
    per_restart = max(1, config.budget // config.restarts)
    cutoff = max(200, per_restart // 5)
    finals = []
    for restart in range(config.restarts):
        rng = _restart_rng(config, restart)
        state = start(restart, rng)
        stalled = 0
        for step in range(per_restart):
            if stalled >= cutoff:
                break
            temp = _DECAY ** (50.0 * step / per_restart)
            stalled = 0 if propose(state, temp, rng) else stalled + 1
        finals.append(state)
    if not finals:
        raise InternalError("annealed search ran no restart")
    return finals


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


def _kissing_directions(dim: int):
    """Unit directions pairwise more than 60 degrees apart, for d = 1-3:
    the two signs, the regular pentagon's vertices and the icosahedron's."""
    if dim == 1:
        return [(-1.0,), (1.0,)]
    if dim == 2:
        return [
            (math.cos(2.0 * math.pi * k / 5.0), math.sin(2.0 * math.pi * k / 5.0))
            for k in range(5)
        ]
    return _icosahedron_directions()


def _besicovitch_warm_start(space: Space, rmin: float, rmax: float):
    """A known valid family, scaled so all radii equal min(rmax, fit): its
    center coordinates, its radii and a common point."""
    model = space._model
    if space.is_flat:
        r = rmax
        if space.dim <= 3:
            scale = (0.9 * r, 0.99 * r, 2.0 / 2.05 * r)[space.dim - 1]
            centers = [tuple(scale * x for x in u) for u in _kissing_directions(space.dim)]
        else:  # the cross-polytope's vertices
            rho = 2.0 / 2.05 * r
            centers = [
                tuple(sign * rho if k == axis else 0.0 for k in range(space.dim))
                for axis in range(space.dim)
                for sign in (1.0, -1.0)
            ]
        return centers, [r] * len(centers), model.origin
    # curved spaces: two balls along a geodesic through the base point
    r = min(rmax, 0.45 * model.inj) if math.isfinite(model.inj) else rmax
    if r < rmin:
        r = rmin
    base = model.origin
    centers = []
    for sign in (1.0, -1.0):
        v = [0.0] * model.width
        v[0] = sign * 0.75 * r
        centers.append(model.exp(base, model.project(base, tuple(v))))
    return centers, [r, r], base


def _added_common_point(space, coords, radii, center, radius):
    """Cheap feasibility gate for adding the ball ``B(center, radius)`` to
    a valid family: the new common point's coordinates, or None.  The
    distances of the center check also find a pair that no swept point
    could reach (``covering._beyond_sweep``), which needs no sweep."""
    model = space._model
    kernel = model.kernel
    trial_radii = (*radii, radius)
    scale = 1.0 + max(trial_radii)  # find_common_point's
    for c, r in zip(coords, radii):
        d = kernel(center, c)
        if not (d > r and d > radius) or _beyond_sweep(model, d, r, radius, DEFAULT_TOL, scale):
            return None
    trial = BallFamily._columns(space, (*coords, center), trial_radii)
    point = find_common_point(trial, max_iter=_ADD_SWEEPS * len(trial)).point
    return None if point is None else point.coords


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
    proposals stall.  The radii range must satisfy
    ``0 < rmin <= rmax < inf``.
    """
    config = config or SearchConfig()
    rmin, rmax = float(radii_range[0]), float(radii_range[1])
    if not 0.0 < rmin <= rmax < math.inf:
        raise InputError(f"infeasible radii range [{rmin}, {rmax}]: need 0 < rmin <= rmax < inf")
    model = space._model
    dim = model.width

    def moved(base, scale, offsets):
        """The end of the geodesic from ``base`` along ``scale * offsets``,
        projected onto the tangent space there."""
        return model.exp(base, model.project(base, tuple(scale * o for o in offsets)))

    def start(restart, rng):
        if restart > 0:
            r0 = math.exp(rng.uniform(math.log(rmin), math.log(rmax)))
            return SimpleNamespace(coords=[model.origin], radii=[r0], witness=model.origin)
        coords, radii, witness = _besicovitch_warm_start(space, rmin, rmax)
        if any(not rmin <= r <= rmax for r in radii):
            coords, radii, witness = coords[:1], radii[:1], coords[0]
        family = BallFamily._columns(space, tuple(coords), tuple(radii))
        if not is_besicovitch_family(family).is_valid:
            coords, radii, witness = coords[:1], radii[:1], coords[0]
        return SimpleNamespace(coords=coords, radii=radii, witness=witness)

    def propose(state, temp, rng):
        coords, radii = state.coords, state.radii
        sigma = _STEP_SCALE * rmax * max(temp, 0.05)
        offsets = rng.normal(0.0, 1.0, dim)
        u_radius = rng.uniform()
        u_kind = rng.uniform()
        j = rng.integers(0, max(1, len(radii)))
        radius = math.exp(
            math.log(rmin) + u_radius * (math.log(rmax) - math.log(rmin))
        )
        if u_kind < 0.7:
            try:
                center = moved(state.witness, sigma, offsets)
            except DomainError:
                return False
            witness = _added_common_point(space, coords, radii, center, radius)
            if witness is None:
                return False
            coords.append(center)
            radii.append(radius)
            state.witness = witness
            return True
        if len(radii) <= 1:
            return False
        try:
            center = moved(coords[j], 0.3 * sigma, offsets)
        except DomainError:
            return False
        trial_coords, trial_radii = list(coords), list(radii)
        trial_coords[j] = center
        trial_radii[j] = min(rmax, max(rmin, radii[j] * math.exp(0.2 * (u_radius - 0.5))))
        trial = BallFamily._columns(space, tuple(trial_coords), tuple(trial_radii))
        verdict = is_besicovitch_family(trial, max_iter=3000)
        if verdict.is_valid:
            state.coords, state.radii = trial_coords, trial_radii
            state.witness = verdict.witness.coords
        return False

    finals = _anneal(config, start, propose)
    best = max(finals, key=lambda f: len(f.radii))
    family = BallFamily._columns(space, tuple(best.coords), tuple(best.radii))
    verdict = is_besicovitch_family(family)
    return SearchResult(
        best=family,
        score=len(family),
        feasible=verdict.is_valid,
        trace=tuple(len(f.radii) for f in finals),
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
    coords = tuple(tuple(2.0 * x for x in u) for u in _kissing_directions(dim))
    for i, c in enumerate(coords):
        d = _length(c)
        if abs(d - 2.0) >= 1e-12:
            raise InternalError(f"tangent ball {i} lost tangency ({d})")
    dist = space._model.kernel
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            if not dist(coords[i], coords[j]) > 2.0:
                raise InternalError(f"tangent balls {i} and {j} are not strictly disjoint")
    return BallFamily._columns(space, coords, (1.0,) * len(coords))


# ---------------------------------------------------------------------------
# radius-5 packing
# ---------------------------------------------------------------------------

_PACK_TOL = 1e-9


def _clamp_to_radius(v, limit=4.0):
    norm = _length(v)
    while norm > limit:
        v = tuple([x * (limit / norm) for x in v])
        norm = _length(v)
    return v


def _pack_warm_start(dim: int):
    if dim == 2:
        pts = [(0.0, 0.0)]
        for k in range(6):
            a = math.pi * k / 3.0
            pts.append((2.0 * math.cos(a), 2.0 * math.sin(a)))
        for k in range(12):
            a = math.pi * k / 6.0
            pts.append(_clamp_to_radius((4.0 * math.cos(a), 4.0 * math.sin(a))))
        return pts
    # slice of the spacing-2 cubic lattice inside the radius-4 ball: the
    # points 2c with c in {-2, ..., 2}^dim and |c|^2 <= 4, that is one entry
    # +-2 or up to four entries +-1; its coordinates and their squares are
    # small integers, so sums are exact and lengths order them as squares do
    combos = [{axis: sign} for axis in range(dim) for sign in (-2, 2)]
    for k in range(5):
        for axes in itertools.combinations(range(dim), k):
            combos += [dict(zip(axes, signs)) for signs in itertools.product((-1, 1), repeat=k)]
    pts = [
        _clamp_to_radius(tuple([2.0 * combo.get(axis, 0) for axis in range(dim)]))
        for combo in combos
    ]
    pts.sort(key=lambda v: (_length(v), tuple(v)))
    if any(pts[0]):
        raise InternalError("packing warm start does not begin at the origin")
    return pts


def _pack_valid_add(dist, pts, cand):
    return all(dist(cand, p) >= 2.0 - _PACK_TOL for p in pts)


def _pack_feasible(space: Space, pts) -> bool:
    """Whether ``pts`` center disjoint open unit balls in the radius-5
    ball, the first at the origin: each within 4 of the origin, and every
    pair at least ``2 - _PACK_TOL`` apart, measured as ``dist(p_i, p_j)``
    with ``i < j``.

    Only pairs that no axis separates are measured: sorted on one axis
    after another, the points split wherever two neighbours differ by
    ``apart`` or more, and a pair so split is at least that far apart on
    the axis, so at least ``least`` in the l2 kernel's floats too.  A
    lattice slice, whose coordinates differ by 0 or by 2 or more, splits
    into single points."""
    dist, least = space._model.kernel, 2.0 - _PACK_TOL
    if any(pts[0]) or not all(_length(p) <= 4.0 for p in pts):
        return False
    apart = least * (1.0 + 2.0 ** -50)  # above the two roundings of sqrt(x * x)
    clusters = [list(range(len(pts)))]
    for k in range(len(pts[0])):
        split = []
        for cluster in clusters:
            cluster.sort(key=lambda i: pts[i][k])
            start = 0
            for a in range(1, len(cluster)):
                if pts[cluster[a]][k] - pts[cluster[a - 1]][k] >= apart:
                    split.append(cluster[start:a])
                    start = a
            split.append(cluster[start:])
        clusters = [c for c in split if len(c) > 1]
    return all(dist(pts[i], pts[j]) >= least
               for c in clusters for i, j in itertools.combinations(sorted(c), 2))


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
        fam = BallFamily._columns(space, ((0.0,), (-2.0,), (2.0,), (-4.0,), (4.0,)), (1.0,) * 5)
        return SearchResult(best=fam, score=5, feasible=True, trace=(5,))

    # the l2 kernel sums its squares left to right, as _length does
    dist = space._model.kernel

    def propose(pts, temp, rng):
        u_kind = rng.uniform()
        direction = rng.normal(0.0, 1.0, dim)
        u_r = rng.uniform()
        j = rng.integers(0, max(1, len(pts)))
        if u_kind < 0.5:
            norm = _length(direction)
            if norm == 0.0:
                return False
            reach = u_r ** (1.0 / dim)
            cand = _clamp_to_radius(tuple([x / norm * 4.0 * reach for x in direction]))
            if not _pack_valid_add(dist, pts, cand):
                return False
            pts.append(cand)
            return True
        if j == 0:
            return False  # the pinned center never moves
        sigma = _STEP_SCALE * max(temp, 0.02)
        cand = _clamp_to_radius(tuple([p + sigma * x for p, x in zip(pts[j], direction)]))
        if _pack_valid_add(dist, pts[:j] + pts[j + 1 :], cand):
            pts[j] = cand
        return False

    warm = _pack_warm_start(dim)
    finals = _anneal(config, lambda restart, rng: list(warm), propose)
    best = max(finals, key=len)
    if len(best) > 5 ** dim:
        raise InternalError(f"packing of {len(best)} balls exceeds the volume cap {5 ** dim}")
    fam = BallFamily._columns(space, tuple(best), (1.0,) * len(best))
    return SearchResult(
        best=fam, score=len(best), feasible=_pack_feasible(space, best),
        trace=tuple(map(len, finals)),
    )


# ---------------------------------------------------------------------------
# shrunk-common-point check
# ---------------------------------------------------------------------------


def _cip_verify(kernel, coords, radii, s, indices, z) -> bool:
    return all(kernel(z, coords[i]) <= s * radii[i] + 1e-9 for i in indices)


def cip_check(family: BallFamily, m: int, s: float) -> CipResult:
    """Search m+1 balls whose s-shrunk copies still share a point.

    The family must have at least 2m+1 members with positive radii, and
    :func:`find_common_point` must find a common point (InputError with
    the least violation reached otherwise).  Three deterministic stages:
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
    space, coords, radii = family.space, family.coords, family.radii
    if any(r <= 0.0 for r in radii):
        raise InputError("all radii must be positive")
    feas = find_common_point(family, max_iter=20_000)
    if feas.point is None:
        raise InputError("no common point was found (max violation %.3g)" % feas.max_violation)
    y = feas.point.coords
    target = m + 1
    scale = 1.0 + max(radii)
    kernel = space._model.kernel

    slack = [kernel(y, c) - s * r for c, r in zip(coords, radii)]
    inside = [i for i in range(n) if slack[i] <= 1e-9 * scale]
    if len(inside) >= target:
        idx = tuple(inside[:target])
        if _cip_verify(kernel, coords, radii, s, idx, y):
            return CipResult(True, idx, feas.point)

    if space.is_flat and space.dim == 2 and space.pnorm == 2.0:
        got = _cip_sector_route(kernel, coords, radii, s, y, target, scale)
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
            sub = find_common_point(shrunk, max_iter=4000).point
            if sub is not None and _cip_verify(kernel, coords, radii, s, subset, sub.coords):
                return CipResult(True, tuple(subset), sub)
        if tried > 5000:
            break
    return CipResult(False)


def _cip_sector_route(kernel, coords, radii, s, y, target, scale):
    """Planar analytic stage: tightest angular bundle plus a line search."""
    dirs = []
    for i, c in enumerate(coords):
        dx = c[0] - y[0]
        dy = c[1] - y[1]
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
    dmax = max(math.hypot(coords[i][0] - y[0], coords[i][1] - y[1]) for i in bundle)
    for t in range(1, 65):
        delta = dmax * t / 64.0
        z = (y[0] + delta * ux, y[1] + delta * uy)
        hits = [
            i
            for i, (c, r) in enumerate(zip(coords, radii))
            if kernel(z, c) <= s * r + 1e-12 * scale
        ]
        if len(hits) >= target:
            idx = tuple(hits[:target])
            if _cip_verify(kernel, coords, radii, s, idx, z):
                return CipResult(True, idx, Point(z))
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
    and keeps it only when the ordered-configuration validator,
    :func:`~ballcover.covering.is_tau_satellite_configuration` with each
    set's anchor as its point, would accept.  The score is an empirical
    lower bound for the largest configuration size; ``best`` packs each
    set's outer ball so the result can be serialized like any family.
    ``tau`` must lie in (1, 2] and ``lam`` in [1, inf).

    A restart's state is always a valid configuration (one set is, and
    only valid ones are kept), with a flag per set saying whether it can
    still be the central set, and the running minimum diameter.  A
    proposal checks only what appending its set adds, with the
    validator's tests (``covering._satellite_extended``, O(n) kernel
    calls), and the best configuration is certified by the validator.
    """
    if not 1.0 < tau <= 2.0:
        raise InputError(f"tau must lie in (1, 2], got {tau!r}")
    if not 1.0 <= lam < math.inf:
        raise InputError(f"lam must be finite and >= 1, got {lam!r}")
    config = config or SearchConfig()
    model = space._model
    dim, dist = model.width, model.kernel

    def propose(state, temp, rng):
        sets = state.sets
        offsets = rng.normal(0.0, 1.0, dim)
        u_dist = rng.uniform()
        u_diam = rng.uniform()
        u_round = rng.uniform()
        j = rng.integers(0, len(sets))
        anchor_j = sets[j].anchor.coords
        rj = sets[j].inner_radius
        reach = rj * (0.6 + 1.6 * u_dist)
        norm = _length(offsets) or 1.0
        v = tuple(reach * o / norm for o in offsets)
        try:
            anchor = Point(model.exp(anchor_j, model.project(anchor_j, v)))
        except DomainError:
            return False
        min_diam = state.min_diam
        diam = min_diam * (0.4 + 0.58 * (tau - 1.0 + 1.0) * u_diam)
        diam = min(diam, min_diam * tau * 0.98)
        r_new = diam / (1.0 + (2.0 * lam - 1.0) * u_round)
        try:
            cand = QuasiRoundSet(anchor, r_new, lam, diam)
        except InputError:
            return False
        central = _satellite_extended(dist, sets, state.central, cand, tau, DEFAULT_TOL)
        if central is None:
            return False
        sets.append(cand)
        state.central, state.min_diam = central, min(min_diam, diam)
        return True

    def start(restart, rng):
        first = QuasiRoundSet(space.origin(), 1.0, lam, min(2.0, 2.0 * lam))
        return SimpleNamespace(sets=[first], central=[True], min_diam=first.diameter)

    finals = [state.sets for state in _anneal(config, start, propose)]
    best_sets = max(finals, key=len)
    verdict = is_tau_satellite_configuration(
        space, best_sets, [qs.anchor for qs in best_sets], tau
    )
    fam = BallFamily._columns(
        space,
        tuple(qs.anchor.coords for qs in best_sets),
        tuple(qs.lam * qs.inner_radius for qs in best_sets),
    )
    return SearchResult(
        best=fam,
        score=len(best_sets),
        feasible=verdict.is_valid,
        trace=tuple(map(len, finals)),
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
        if not is_k_configuration(w_res.best).is_valid:
            raise InternalError(f"the w family for dim {dim} failed is_k_configuration")
        w_ach = k_ach = w_res.score
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
