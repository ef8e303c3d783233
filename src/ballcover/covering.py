"""Covering-theoretic predicates over finite ball families.

The validators here are numeric: closed-ball membership and intersection
tests carry an absolute-plus-relative tolerance, while the strict
inequalities that definitions require (center exclusion, strict radius
comparisons) are evaluated exactly on the given floats.  Where a common
point must be certified, a cyclic-projection feasibility search is used;
a point it finds is the witness of a valid verdict, but a miss proves
nothing (cyclic projections stall near tangency), so an invalid verdict
names a pair of balls, and anything else is ``indeterminate``.

Overlap profiles and greedy nets measure a point with the scalar
:func:`~ballcover.geometry.distance` against the centers (or kept points)
that a radius-band grid (``geometry._Grid``) cannot rule out, so their
counts and choices are those of a loop over every pair, without numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain
from typing import NamedTuple, Optional, Sequence

from ._record import Record
from .errors import InputError, UnsupportedFeatureError
from .geometry import (
    DEFAULT_TOL,
    Ball,
    Point,
    Space,
    _check_point,
    _Grid,
    distance,
    uniform_in_ball,
)

VALID = "valid"
INVALID = "invalid"
INDETERMINATE = "indeterminate"


class Verdict(NamedTuple):
    """Outcome of a validator.

    ``witness`` carries the certificate: a common point for a valid
    family, the offending indices for an invalid one, or the central
    index for a valid satellite configuration.
    """

    status: str
    reason: Optional[str] = None
    witness: object = None

    @property
    def is_valid(self) -> bool:
        return self.status == VALID


class BallFamily(Record):
    """A finite ordered family of closed balls in one space.

    A family is stored as columns: ``coords``, the center coordinate
    tuples, and ``radii``, in family order.  The constructor fills them
    from the balls it is given, and keeps those balls; a family made by
    :meth:`from_columns` (as a parsed scene is) or as a subset of a
    family builds its ``balls`` on first use.  Equality, hash, pickle
    and repr read ``balls``, so a family equals the one the constructor
    makes from the same balls.
    """

    _fields = ("space", "balls")
    __slots__ = ("space", "balls", "coords", "radii")

    def __init__(self, space: Space, balls):
        balls = tuple(balls)
        width = space.ambient_dim
        for i, b in enumerate(balls):
            if not isinstance(b, Ball):
                raise InputError(f"family entry {i} is not a Ball")
            if len(b.center.coords) != width:
                raise InputError(
                    f"ball {i} center has {len(b.center.coords)} coordinates, "
                    f"expected {width}"
                )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "balls", balls)
        object.__setattr__(self, "coords", tuple([b.center.coords for b in balls]))
        object.__setattr__(self, "radii", tuple([b.radius for b in balls]))

    @classmethod
    def from_columns(cls, space: Space, coords, radii) -> "BallFamily":
        """The family of balls ``B(coords[i], radii[i])``, with the checks
        of the constructor and of :class:`~ballcover.geometry.Ball`, built
        without a ``Ball`` or ``Point`` per entry."""
        coords, radii = tuple(map(tuple, coords)), tuple(radii)
        if len(coords) != len(radii):
            raise InputError(f"{len(coords)} centers for {len(radii)} radii")
        width = space.ambient_dim
        if not {*map(len, coords)} <= {width}:
            i = next(i for i, c in enumerate(coords) if len(c) != width)
            raise InputError(
                f"ball {i} center has {len(coords[i])} coordinates, expected {width}"
            )
        if not (all(map(math.isfinite, radii)) and min(radii, default=0.0) >= 0.0):
            i = next(i for i, r in enumerate(radii) if not (math.isfinite(r) and r >= 0.0))
            raise InputError(f"ball {i} radius must be finite and >= 0, got {radii[i]!r}")
        return cls._columns(space, coords, radii)

    @classmethod
    def _columns(cls, space, coords: tuple, radii: tuple) -> "BallFamily":
        family = object.__new__(cls)
        object.__setattr__(family, "space", space)
        object.__setattr__(family, "coords", coords)
        object.__setattr__(family, "radii", radii)
        return family

    def __getattr__(self, name):
        # reached only for an unset slot: the balls of a column family
        if name != "balls":
            raise AttributeError(name)
        balls = tuple(map(Ball, map(Point, self.coords), self.radii))
        object.__setattr__(self, "balls", balls)
        return balls

    def _subset(self, indices) -> "BallFamily":
        """The balls at ``indices``, in that order, as a column family."""
        return BallFamily._columns(
            self.space,
            tuple(map(self.coords.__getitem__, indices)),
            tuple(map(self.radii.__getitem__, indices)),
        )

    def __len__(self):
        return len(self.radii)

    def __iter__(self):
        return iter(self.balls)

    def __getitem__(self, i):
        return self.balls[i]

    @property
    def centers(self) -> list:
        """The centers as points, in family order, built from ``coords``."""
        return list(map(Point, self.coords))


class QuasiRoundSet(Record):
    """A set pinched between two concentric balls.

    The set itself is abstract; it is described by an anchor point ``a``,
    an inner radius ``r`` and roundness factor ``lam`` with
    ``B(a, r) <= S <= B(a, lam * r)``, and its exact diameter.
    """

    __slots__ = _fields = ("anchor", "inner_radius", "lam", "diameter")

    def __init__(self, anchor: Point, inner_radius: float, lam: float, diameter: float):
        if not inner_radius > 0.0:
            raise InputError(f"inner radius must be > 0, got {inner_radius!r}")
        if not lam >= 1.0:
            raise InputError(f"roundness factor must be >= 1, got {lam!r}")
        lo, hi = inner_radius, 2.0 * lam * inner_radius
        if not (lo <= diameter <= hi * (1.0 + 1e-12)):
            raise InputError(
                f"diameter {diameter} outside the sandwich range [{lo}, {hi}]"
            )
        self._set(anchor, inner_radius, lam, diameter)

    @property
    def outer_radius(self) -> float:
        return self.lam * self.inner_radius


class OverlapProfile(NamedTuple):
    """Pointwise depth statistics of a ball family."""

    max_overlap: int
    witness: Optional[Point]
    histogram: dict


class FeasibilityResult(NamedTuple):
    point: Optional[Point]
    max_violation: float


class EpsilonNet(NamedTuple):
    points: list
    indices: list


# ---------------------------------------------------------------------------
# Common-point feasibility
# ---------------------------------------------------------------------------


def _check_tol(tol: float) -> None:
    # a NaN or infinite slack would pass every test it enters, and a
    # negative one would fail true ones
    if not 0.0 <= tol < math.inf:
        raise InputError(f"tolerance must be finite and >= 0, got {tol!r}")


def find_common_point(
    family: BallFamily,
    tol: float = DEFAULT_TOL,
    max_iter: int = 10_000,
    threshold: float = 1e-10,
) -> FeasibilityResult:
    """Search for a point lying in every ball of the family.

    Runs cyclic projection onto the ball constraints from several starts:
    the center of the smallest ball, the centroid of the centers (l^p
    spaces only) and the first six centers but the smallest ball's, in
    that order (a sweep is a function of its start, so sweeping that
    center again could change nothing).  Each start gets
    ``max_iter // len(family)`` sweeps (at least two) of the space
    model's ``sweep``, which stops once a sweep moves the point by less
    than ``threshold * (1 + max radius)``.  The first point whose largest
    violation ``max(d(x, c) - r)`` is at most ``tol * (1 + max radius)``
    is returned; otherwise ``point`` is None and ``max_violation`` is the
    least violation reached.  A miss is no evidence that the intersection
    is empty: near tangency the sweep can stall outside it.  ``tol`` must
    be finite and >= 0.

    A point returned lies within ``r + tol * scale`` of every center,
    ``scale = 1 + max radius``, so by the triangle inequality no two
    centers are more than ``r_i + r_j + 2 * tol * scale`` apart.  In l^p
    spaces a pair past that bound, times ``1 + 1e-12`` (and ``2**-50``
    per coordinate) for rounding, plus the model's underflow gap, rules
    out every point the sweep could return (:func:`_beyond_sweep`), so
    :func:`is_besicovitch_family` and the wbcp search's add moves give
    the answer of its miss without calling it.  The sphere's ``acos``
    near pi and the hyperboloid's cancellation are not accurate to a
    relative margin, so curved spaces always sweep.

    A sweep steps the point onto every ball it lies outside of, in family
    order: along the straight line toward the center in l^p spaces (the
    metric projection for p = 2), along the geodesic in curved ones.
    Sweeps run on plain coordinate tuples with the space's scalar kernel,
    the one that :func:`~ballcover.geometry.distance` calls, and for l2
    in dimensions 2 and 3 and on the sphere S^2 as an unrolled loop on
    floats; the other spheres and the hyperboloid still step through
    ``log_map``/``exp_map``, which the benchmark's layer trace expects
    ``validate`` to call until its tracer changes (ROADMAP item 5).
    Every float equals that of a loop over ``distance`` and ``Point``
    steps.
    """
    _check_tol(tol)
    space = family.space
    if len(family) == 0:
        return FeasibilityResult(space.origin(), 0.0)
    model = space._model
    kernel = model.kernel
    coords, radii = family.coords, family.radii
    balls = list(zip(coords, radii))
    scale = 1.0 + max(radii)
    smallest = min(range(len(radii)), key=radii.__getitem__)
    starts = [coords[smallest]]
    centroid = model.centroid(coords)
    if centroid is not None:
        starts.append(centroid)
    starts.extend(c for i, c in enumerate(coords[:6]) if i != smallest)
    stop = threshold * scale
    best: Optional[tuple] = None
    best_v = math.inf
    sweeps = max(2, max_iter // max(1, len(family)))
    for x in starts:
        x = model.sweep(x, balls, sweeps, stop)
        v = max(kernel(x, c) - r for c, r in balls)
        if v < best_v:
            best_v, best = v, x
        if v <= tol * scale:
            return FeasibilityResult(Point(x), v)
    return FeasibilityResult(None if best_v > tol * scale else Point(best), best_v)


_APART_MARGIN = 1e-12  # relative; an l^p distance is off by a few ulps per coordinate


def _beyond_sweep(model, d: float, ri: float, rj: float, tol: float, scale: float) -> bool:
    """Whether centers ``d`` apart, of balls of radii ``ri`` and ``rj`` in
    a family of ``scale = 1 + max radius``, rule out every point that
    :func:`find_common_point` can return (see there); False off l^p."""
    if not model.flat:
        return False
    margin = 1.0 + _APART_MARGIN + model.width * 2.0 ** -50
    return d > (ri + rj + 2.0 * tol * scale) * margin + model.gap


# ---------------------------------------------------------------------------
# Family validators
# ---------------------------------------------------------------------------


def _scaled(family: BallFamily):
    """The l^p family scaled by the least ``2**-k`` that brings every
    |coordinate| and radius under the model's ``huge``, where no distance
    overflows (exact but for numbers it takes below the float range), and k."""
    huge, coords, radii = family.space._model.huge, family.coords, family.radii
    top = max(max(map(abs, chain.from_iterable(coords))), max(radii))
    (m, e), (hm, he) = math.frexp(top), math.frexp(huge)
    k = e - he + (m >= hm)
    scaled = tuple([tuple([math.ldexp(v, -k) for v in c]) for c in coords])
    return BallFamily._columns(family.space, scaled, tuple([math.ldexp(r, -k) for r in radii])), k


def _pair_violations(family: BallFamily, tol: float, k: int = 0):
    """Scan the ordered pairs (i, j), i major, once, yielding ``(True,
    verdict, d)`` where center i lies in ball j and ``(False, verdict,
    d)`` where j > i and the balls are apart by more than ``tol * (1 +
    r_i + r_j)``, each verdict INVALID with witness ``(i, j)`` and ``d``
    the distance of the centers.  The family is one scaled by ``2**-k``,
    so the slack's 1 is ``2**-k``; an l^p distance of inf has
    overflowed, and raises OverflowError."""
    space, centers, radii = family.space, family.centers, family.radii
    unit, flat = math.ldexp(1.0, -k), space._model.flat
    for i, (ci, ri) in enumerate(zip(centers, radii)):
        for j, (cj, rj) in enumerate(zip(centers, radii)):
            if i == j:
                continue
            d = distance(space, ci, cj)
            if not d > rj:
                reason = "center containment: center %d lies in ball %d" % (i, j)
                yield True, Verdict(INVALID, reason, (i, j)), d
            elif flat and d == math.inf:
                raise OverflowError("distance %d-%d beyond the float range" % (i, j))
            elif j > i and d > ri + rj + tol * (unit + ri + rj):
                reason = "balls %d and %d do not intersect" % (i, j)
                yield False, Verdict(INVALID, reason, (i, j)), d


def is_besicovitch_family(
    family: BallFamily,
    tol: float = DEFAULT_TOL,
    max_iter: int = 10_000,
) -> Verdict:
    """Check the two defining properties of a Besicovitch family.

    A valid family of closed balls has (a) a common point and (b) no
    ball's center inside any other ball of the family.  Families of size
    zero or one are trivially valid; a larger valid family has the point
    :func:`find_common_point` found as witness.  An invalid verdict names
    a pair ``(i, j)``: a center inside another ball or, when no point is
    found, two balls apart by more than ``tol * (1 + r_i + r_j)``.  With
    neither, the verdict is ``indeterminate``, with the least violation
    reached and its tolerance.  ``tol`` must be finite and >= 0.  An l^p
    family whose distances overflow is checked scaled by a power of two
    (:func:`_scaled`), with the same slacks.

    In l^p spaces a pair of centers more than ``r_i + r_j + 2 * tol *
    (1 + max radius)`` apart, with a relative rounding margin of
    ``1e-12``, rules out by the triangle inequality every point the
    sweep could return (:func:`find_common_point`), so the first apart
    pair is returned without a sweep, as after its miss: since ``2 * (1
    + max radius) >= 1 + r_i + r_j``, that pair is apart too.  Curved
    spaces always sweep.
    """
    _check_tol(tol)
    try:
        return _besicovitch(family, 0, tol, max_iter)
    except OverflowError:
        if not family.space._model.flat:
            raise
        return _besicovitch(*_scaled(family), tol, max_iter)


def _besicovitch(family: BallFamily, k: int, tol: float, max_iter: int) -> Verdict:
    """:func:`is_besicovitch_family` of a family scaled by ``2**-k``: the
    slacks' 1 is ``2**-k``, and the witness and reason scale back."""
    apart, beyond = None, False
    model, radii = family.space._model, family.radii
    scale = 1.0 + max(radii, default=0.0)  # find_common_point's
    for contained, violation, d in _pair_violations(family, tol, k):
        if contained:
            return violation
        apart = apart or violation
        i, j = violation.witness
        beyond = beyond or _beyond_sweep(model, d, radii[i], radii[j], tol, scale)
    n = len(family)
    if n <= 1:
        witness = Point(family.coords[0]) if n == 1 else None
        return Verdict(VALID, witness=witness)
    if beyond:
        return apart  # what the sweep's sure miss would give
    feas = find_common_point(family, tol=tol, max_iter=max_iter)
    if feas.point is not None and not k:
        return Verdict(VALID, witness=feas.point)
    # scaled, the sweep's slack, tol * (1 + max radius), is looser than the family's
    slack = tol * (math.ldexp(1.0, -k) + max(family.radii))
    if feas.point is not None and feas.max_violation <= slack:
        # a flat sweep steps between centers, so the point scales back finite
        return Verdict(VALID, witness=Point(tuple([math.ldexp(v, k) for v in feas.point])))
    reason = "no common point was found (max violation %.3g, tolerance %.3g)"
    return apart or Verdict(INDETERMINATE, reason % (math.ldexp(feas.max_violation, k),
                                                     math.ldexp(slack, k)))


def is_k_configuration(family: BallFamily, tol: float = DEFAULT_TOL) -> Verdict:
    """Mutually intersecting balls with no center inside another ball.

    Like a Besicovitch family but without the common-point requirement:
    every pair of balls must intersect, and every Besicovitch family
    passes this check as well.  ``tol`` must be finite and >= 0.  An l^p
    family whose distances overflow is checked scaled, as there.
    """
    _check_tol(tol)
    try:
        return next((v for _, v, _ in _pair_violations(family, tol)), Verdict(VALID))
    except OverflowError:
        if not family.space._model.flat:
            raise
        scaled, k = _scaled(family)
        return next((v for _, v, _ in _pair_violations(scaled, tol, k)), Verdict(VALID))


def is_alpha_configuration(
    family: BallFamily,
    target: Ball,
    alpha: float,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Every family ball must meet the target, whose radius must be
    strictly below ``alpha`` times each family radius.

    ``alpha`` is restricted to (1/2, 1) and ``tol`` must be finite and
    >= 0.  An empty family is valid.
    """
    _check_tol(tol)
    if not (0.5 < alpha < 1.0):
        raise InputError(f"alpha must lie in (1/2, 1), got {alpha}")
    space = family.space
    r = target.radius
    for i, (c, ri) in enumerate(zip(family.centers, family.radii)):
        d = distance(space, c, target.center)
        if d > ri + r + tol * (1.0 + ri + r):
            return Verdict(
                INVALID,
                reason="ball %d does not meet the target" % i,
                witness=i,
            )
        if not r < alpha * ri:
            return Verdict(
                INVALID,
                reason="target radius %g is not below alpha * r_%d = %g"
                % (r, i, alpha * ri),
                witness=i,
            )
    return Verdict(VALID)


def is_tau_satellite_configuration(
    space: Space,
    sets: Sequence[QuasiRoundSet],
    points: Sequence[Point],
    tau: float,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Validate the four satellite conditions over ordered quasi-round sets.

    Because each abstract set is known only through its ball sandwich,
    positive membership and intersection tests use the conservative outer
    radius ``lam * r``, while the exclusion in the order condition counts
    as violated only when the point lies inside the certain inner ball.
    On success the witness is the (0-based) central index.  ``tol`` must
    be finite and >= 0.

    Distances are the space's scalar kernel on the coordinate tuples, the
    one that :func:`~ballcover.geometry.distance` calls, with the
    arguments in the same order.
    """
    _check_tol(tol)
    if not tau > 1.0:
        raise InputError(f"tau must be > 1, got {tau}")
    if len(sets) != len(points):
        raise InputError(
            f"got {len(sets)} sets but {len(points)} points; lengths must match"
        )
    n = len(sets)
    if n == 0:
        return Verdict(INVALID, reason="empty configuration")
    # the width checks of ``distance``, in the order of its first calls
    width = space.ambient_dim
    for a, s in zip(points, sets):
        if len(a.coords) != width:
            _check_point(space, a, "p")  # raises
        if len(s.anchor.coords) != width:
            _check_point(space, s.anchor, "q")  # raises
    dist = space._model.kernel
    # membership of each point in its own set (outer test)
    for i, (a, s) in enumerate(zip(points, sets)):
        if not _satellite_member(dist(a.coords, s.anchor.coords), s, tol):
            return Verdict(
                INVALID,
                reason="point %d lies outside its set" % i,
                witness=("membership", i),
            )
    # order condition: later points avoid earlier inner balls, and
    # diameters do not grow by a factor of tau or more
    for i in range(n):
        for j in range(i + 1, n):
            d = dist(points[j].coords, sets[i].anchor.coords)
            fault = _satellite_order_fault(d, sets[i], sets[j], tau)
            if fault is not None:
                return Verdict(INVALID, reason=_ORDER_REASONS[fault] % (j, i),
                               witness=(fault, i, j))
    # central set: meets every set, diameter tau-below all of them
    for i0, s0 in enumerate(sets):
        a0 = s0.anchor.coords
        if all(_satellite_central_to(dist(a0, s.anchor.coords), s0, s, tau, tol)
               for i, s in enumerate(sets) if i != i0):
            return Verdict(VALID, witness=i0)
    return Verdict(INVALID, reason="no admissible central set", witness=("central", None))


# The three tests of a satellite configuration, which the validator runs
# on every set and pair and satellite_max_search on those a new set adds
# (_satellite_extended), on the kernel's distance ``d`` from a point to
# an anchor or between anchors, its arguments in the validator's order.

_ORDER_REASONS = {
    "exclusion": "point %d lies inside earlier set %d",
    "diameter-order": "set %d is not tau-smaller than earlier set %d",
}


def _satellite_member(d: float, s: QuasiRoundSet, tol: float) -> bool:
    """Whether a point ``d`` from the anchor of ``s`` lies in its outer ball."""
    outer = s.outer_radius
    return not d > outer + tol * (1.0 + outer)


def _satellite_order_fault(d: float, earlier: QuasiRoundSet, later: QuasiRoundSet, tau: float):
    """What breaks the order condition between ``earlier`` and ``later``,
    whose point is ``d`` from the anchor of ``earlier``: ``"exclusion"``,
    ``"diameter-order"`` or None."""
    if d <= earlier.inner_radius:
        return "exclusion"
    if not later.diameter < tau * earlier.diameter:
        return "diameter-order"
    return None


def _satellite_central_to(d: float, s0: QuasiRoundSet, s: QuasiRoundSet, tau: float,
                          tol: float) -> bool:
    """Whether ``s0``, its anchor ``d`` from that of ``s``, may be central
    with respect to ``s``: their outer balls meet, and the diameter of
    ``s0`` is tau-below that of ``s``."""
    reach = s0.outer_radius + s.outer_radius
    return not d > reach + tol * (1.0 + reach) and s0.diameter < tau * s.diameter


def _satellite_extended(dist, sets, central, new: QuasiRoundSet, tau: float, tol: float):
    """The central flags of ``sets + [new]``, each set's point its anchor,
    or None where :func:`is_tau_satellite_configuration` would find that
    configuration invalid, given that ``sets`` is valid with the flags
    ``central``.  Appending a set adds only its membership, the order
    pairs ``(i, new)`` and a row and a column of the central test, so
    those are all it checks, with at most ``2 * len(sets) + 1`` kernel
    calls: the new row of the central test reads the order pairs'."""
    a = new.anchor.coords
    if not _satellite_member(dist(a, a), new, tol):
        return None
    row = []
    for s in sets:
        d = dist(a, s.anchor.coords)
        if _satellite_order_fault(d, s, new, tau) is not None:
            return None
        row.append(d)
    flags = [ok and _satellite_central_to(dist(s.anchor.coords, a), s, new, tau, tol)
             for ok, s in zip(central, sets)]
    flags.append(all(_satellite_central_to(d, new, s, tau, tol) for d, s in zip(row, sets)))
    return flags if any(flags) else None


# ---------------------------------------------------------------------------
# Overlap profiles
# ---------------------------------------------------------------------------


def overlap_profile(
    family: BallFamily,
    probes: Optional[Sequence[Point]] = None,
    tol: float = DEFAULT_TOL,
) -> OverlapProfile:
    """Depth statistics: how many balls cover a point.

    Depths are measured at the given probe points.  Without probes, on
    the euclidean line only (elsewhere it raises
    :class:`~ballcover.errors.UnsupportedFeatureError`), an endpoint
    sweep computes the exact maximum depth anywhere on the line, and the
    histogram tabulates depths at interval endpoints.
    """
    if probes is None and not family.space.is_line:
        raise UnsupportedFeatureError(
            "exact overlap profiles are only available on the euclidean line"
        )
    if len(family) == 0 or probes is not None and len(probes) == 0:
        return OverlapProfile(0, None, {})
    if probes is None:
        lefts = [c[0] - r for c, r in zip(family.coords, family.radii)]
        rights = [c[0] + r for c, r in zip(family.coords, family.radii)]
        # the depth of the closed intervals at each end; the deepest point is a left end
        ls, rs = sorted(lefts), sorted(rights)
        depths = [bisect_right(ls, x) - bisect_left(rs, x) for x in lefts + rights]
        top = max(depths)
        # the witness is the least left end that deep, the last of equal ones (of -0.0 and 0.0)
        _x, i = min((x, -i) for i, x in enumerate(lefts) if depths[i] == top)
        return OverlapProfile(top, Point((lefts[-i],)), dict(sorted(Counter(depths).items())))
    space, centers = family.space, family.centers
    reach = [r + tol * (1.0 + r) for r in family.radii]
    grid = _Grid(space, centers + list(probes), max(reach))
    for j, c in enumerate(family.coords):
        grid.add(c, reach[j], j)
    best_depth = -1
    best_probe = None
    histogram: dict = {}
    for p in probes:
        depth = sum(distance(space, p, centers[j]) <= reach[j]
                    for j in grid.near(p.coords, 0.0))
        histogram[depth] = histogram.get(depth, 0) + 1
        if depth > best_depth:
            best_depth, best_probe = depth, p
    return OverlapProfile(best_depth, best_probe, histogram)


# ---------------------------------------------------------------------------
# Nets and covering estimates
# ---------------------------------------------------------------------------


def epsilon_net_greedy(
    space: Space,
    points: Sequence[Point],
    eps: float,
    strict: bool = False,
) -> EpsilonNet:
    """First-fit greedy separated subset of ``points`` (order-preserving).

    Kept points are pairwise at distance >= eps (> eps when ``strict``),
    and every input point lies within eps of some kept point, so the
    result is maximal.  Deterministic for a given input order.
    """
    if not eps > 0.0:
        raise InputError(f"eps must be > 0, got {eps}")
    kept: list = []
    indices: list = []
    grid = _Grid(space, points, eps)
    for i, p in enumerate(points):
        near = (distance(space, p, kept[k]) for k in grid.near(p.coords, 0.0))
        if not any(d <= eps if strict else d < eps for d in near):
            grid.add(p.coords, eps, len(kept))
            kept.append(p)
            indices.append(i)
    return EpsilonNet(kept, indices)


def covering_number(
    space: Space,
    target: Ball,
    eps: float,
    budget: int,
    seed: int = 0,
    restarts: int = 8,
) -> int:
    """Estimated number of eps-balls needed to cover the target ball.

    The estimate is the smallest greedy eps-net, over ``restarts``
    insertion orders, of a ``budget``-point uniform sample of the target
    (the target center is always sampled).  Every such net is an eps-cover
    of the sample, so the minimum tightens the estimate toward the sample's
    covering number; the sample's covering number in turn approaches the
    target's from below as the budget grows.  The sample and the orders
    are drawn from ``_rng.Generator([seed & 0xFFFFFFFF, 0x5EED])``: the
    first order is the sample's, and each later one a Fisher-Yates
    shuffle of the one before.  Deterministic given ``seed``, ``budget``
    and ``restarts``.
    """
    from ._rng import Generator

    if not eps > 0.0:
        raise InputError(f"eps must be > 0, got {eps}")
    if budget < space.dim + 1:
        raise InputError(f"budget {budget} is too small for dimension {space.dim}")
    if restarts < 1:
        raise InputError(f"restarts must be >= 1, got {restarts}")
    rng = Generator([seed & 0xFFFFFFFF, 0x5EED])
    sample = [target.center]
    for _ in range(budget - 1):
        sample.append(uniform_in_ball(space, target, rng))
    best = len(epsilon_net_greedy(space, sample, eps).points)
    for _ in range(restarts - 1):
        for i in range(len(sample) - 1, 0, -1):
            j = rng.integers(0, i + 1)
            sample[i], sample[j] = sample[j], sample[i]
        best = min(best, len(epsilon_net_greedy(space, sample, eps).points))
    return best


def strict_net_bound(alpha: float, dim: int) -> int:
    """Cardinality cap for a strictly (r/alpha)-separated set inside a
    ball of radius r + r/alpha: floor((2 * alpha + 3) ** dim)."""
    return math.floor((2.0 * alpha + 3.0) ** dim)
