"""Covering-theoretic predicates over finite ball families.

The validators here are numeric: closed-ball membership and intersection
tests carry an absolute-plus-relative tolerance, while the strict
inequalities that definitions require (center exclusion, strict radius
comparisons) are evaluated exactly on the given floats.  Where a common
point must be certified, a cyclic-projection feasibility search is used;
if it can neither certify a point nor converge to a stationary refutation
within its iteration cap, the verdict is ``indeterminate`` rather than a
guess.

Overlap profiles and greedy nets measure one point against every ball
center (or every kept point) per call of the row form of
:func:`~ballcover.geometry.distance`, whose entries equal the scalar
distances, so their counts and choices are those of a pairwise loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError, UnsupportedFeatureError
from .geometry import (
    DEFAULT_TOL,
    Ball,
    Point,
    Space,
    Tangent,
    _coord_rows,
    distance,
    exp_map,
    log_map,
    uniform_in_ball,
)

VALID = "valid"
INVALID = "invalid"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Verdict:
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


@dataclass(frozen=True)
class BallFamily:
    """A finite ordered family of closed balls in one space."""

    space: Space
    balls: tuple

    def __post_init__(self):
        balls = tuple(self.balls)
        object.__setattr__(self, "balls", balls)
        for i, b in enumerate(balls):
            if not isinstance(b, Ball):
                raise InputError(f"family entry {i} is not a Ball")
            if len(b.center.coords) != self.space.ambient_dim:
                raise InputError(
                    f"ball {i} center has {len(b.center.coords)} coordinates, "
                    f"expected {self.space.ambient_dim}"
                )

    def __len__(self):
        return len(self.balls)

    def __iter__(self):
        return iter(self.balls)

    def __getitem__(self, i):
        return self.balls[i]

    @property
    def centers(self):
        return [b.center for b in self.balls]

    @property
    def radii(self):
        return [b.radius for b in self.balls]


@dataclass(frozen=True)
class QuasiRoundSet:
    """A set pinched between two concentric balls.

    The set itself is abstract; it is described by an anchor point ``a``,
    an inner radius ``r`` and roundness factor ``lam`` with
    ``B(a, r) <= S <= B(a, lam * r)``, and its exact diameter.
    """

    anchor: Point
    inner_radius: float
    lam: float
    diameter: float

    def __post_init__(self):
        if not self.inner_radius > 0.0:
            raise InputError(f"inner radius must be > 0, got {self.inner_radius!r}")
        if not self.lam >= 1.0:
            raise InputError(f"roundness factor must be >= 1, got {self.lam!r}")
        lo, hi = self.inner_radius, 2.0 * self.lam * self.inner_radius
        if not (lo <= self.diameter <= hi * (1.0 + 1e-12)):
            raise InputError(
                f"diameter {self.diameter} outside the sandwich range [{lo}, {hi}]"
            )

    @property
    def outer_radius(self) -> float:
        return self.lam * self.inner_radius


@dataclass(frozen=True)
class OverlapProfile:
    """Pointwise depth statistics of a ball family."""

    max_overlap: int
    witness: Optional[Point]
    histogram: dict


class FeasibilityResult(NamedTuple):
    point: Optional[Point]
    max_violation: float
    converged: bool


class EpsilonNet(NamedTuple):
    points: list
    indices: list


# ---------------------------------------------------------------------------
# Common-point feasibility
# ---------------------------------------------------------------------------


def _project_once(space: Space, p: Point, ball: Ball) -> Point:
    """Move p along the geodesic onto a curved-space ball if outside."""
    d = distance(space, p, ball.center)
    if d <= ball.radius:
        return p
    v = log_map(space, p, ball.center)
    scale = (d - ball.radius) / d
    return exp_map(space, Tangent(p, tuple(scale * x for x in v.vector)))


# One cyclic-projection descent per start: ``sweep(x)`` runs at most
# ``sweeps`` sweeps from the coordinate tuple ``x`` and returns the final
# coordinates and whether a sweep moved the point less than ``stop``.  A
# Euclidean step retracts the point along the straight line toward the
# center (the metric projection for p = 2), evaluated on plain floats; a
# curved step follows the geodesic through ``log_map``/``exp_map``.


def _sweep_plane(balls, start, sweeps, stop):
    """l2, dimension 2: the step and ``_l2_2`` fused and unrolled."""
    x, y = start
    sqrt = math.sqrt
    for _ in range(sweeps):
        sx, sy = x, y
        for cx, cy, r in balls:
            dx = x - cx
            dy = y - cy
            d = sqrt(dx * dx + dy * dy)
            if d <= r:
                continue
            t = r / d
            x = cx + t * dx
            y = cy + t * dy
        dx = sx - x
        dy = sy - y
        if sqrt(dx * dx + dy * dy) < stop:
            return (x, y), True
    return (x, y), False


def _sweep_space(balls, start, sweeps, stop):
    """l2, dimension 3: the step and ``_l2_3`` fused and unrolled."""
    x, y, z = start
    sqrt = math.sqrt
    for _ in range(sweeps):
        sx, sy, sz = x, y, z
        for cx, cy, cz, r in balls:
            dx = x - cx
            dy = y - cy
            dz = z - cz
            d = sqrt(dx * dx + dy * dy + dz * dz)
            if d <= r:
                continue
            t = r / d
            x = cx + t * dx
            y = cy + t * dy
            z = cz + t * dz
        dx = sx - x
        dy = sy - y
        dz = sz - z
        if sqrt(dx * dx + dy * dy + dz * dz) < stop:
            return (x, y, z), True
    return (x, y, z), False


def _sweep_tuples(kernel, balls, x, sweeps, stop):
    """Any Euclidean space: the step on tuples, distances from ``kernel``."""
    for _ in range(sweeps):
        before = x
        for c, r in balls:
            d = kernel(x, c)
            if d <= r:
                continue
            t = r / d
            x = tuple([cc + t * (pc - cc) for pc, cc in zip(x, c)])
        if kernel(before, x) < stop:
            return x, True
    return x, False


def _sweep_curved(space, family, start, sweeps, stop):
    p = Point(start)
    for _ in range(sweeps):
        before = p
        for b in family:
            p = _project_once(space, p, b)
        if space._kernel(before.coords, p.coords) < stop:
            return p.coords, True
    return p.coords, False


def _sweeper(family: BallFamily, balls: list):
    """``sweep(x, sweeps, stop)`` for the family, whose ``(center coords,
    radius)`` pairs are ``balls`` (see above)."""
    space = family.space
    if space.kind != "euclidean":
        return partial(_sweep_curved, space, family)
    if space.pnorm == 2.0 and space.dim in (2, 3):
        flat = [c + (r,) for c, r in balls]
        return partial(_sweep_plane if space.dim == 2 else _sweep_space, flat)
    return partial(_sweep_tuples, space._kernel, balls)


def find_common_point(
    family: BallFamily,
    tol: float = DEFAULT_TOL,
    max_iter: int = 10_000,
    threshold: float = 1e-10,
) -> FeasibilityResult:
    """Search for a point lying in every ball of the family.

    Runs cyclic projection onto the ball constraints from several starts.
    ``converged`` reports whether some start reached a stationary sweep;
    a stationary point that still violates a constraint is evidence (at
    tolerance) that the intersection is empty.

    Distances come from the space's cached scalar kernel, the one that
    :func:`~ballcover.geometry.distance` calls, and Euclidean sweeps run
    on plain coordinate tuples (fused and unrolled for l2 in dimensions 2
    and 3) with the same arithmetic in the same order, so every float
    equals that of a loop over ``distance`` and ``Point`` steps.
    """
    space = family.space
    if len(family) == 0:
        return FeasibilityResult(space.origin(), 0.0, True)
    scale = 1.0 + max(b.radius for b in family)
    starts = [min(family, key=lambda b: b.radius).center]
    if space.kind == "euclidean":
        n = space.dim
        centroid = Point(
            tuple(sum(b.center.coords[k] for b in family) / len(family) for k in range(n))
        )
        starts.append(centroid)
    starts.extend(b.center for b in family[:6])
    kernel = space._kernel
    balls = [(b.center.coords, b.radius) for b in family]
    sweep = _sweeper(family, balls)
    best: Optional[tuple] = None
    best_v = math.inf
    any_converged = False
    sweeps = max(2, max_iter // max(1, len(family)))
    for start in starts:
        # the composed sweep map converges to a fixed point even when
        # the intersection is empty, so stationarity of the *sweep*
        # (not of each projection) is the right stopping test
        x, converged = sweep(start.coords, sweeps, threshold * scale)
        v = max(kernel(x, c) - r for c, r in balls)
        any_converged = any_converged or converged
        if v < best_v:
            best_v, best = v, x
        if v <= tol * scale:
            return FeasibilityResult(Point(x), v, True)
    return FeasibilityResult(
        None if best_v > tol * scale else Point(best), best_v, any_converged
    )


# ---------------------------------------------------------------------------
# Family validators
# ---------------------------------------------------------------------------


def is_besicovitch_family(
    family: BallFamily,
    tol: float = DEFAULT_TOL,
    max_iter: int = 10_000,
) -> Verdict:
    """Check the two defining properties of a Besicovitch family.

    A valid family of closed balls has (a) a common point and (b) no
    ball's center inside any other ball of the family.  Families of size
    zero or one are trivially valid.  If the common-point search neither
    finds a point nor converges, the verdict is ``indeterminate``.
    """
    space = family.space
    n = len(family)
    for i in range(n):
        xi, ri = family[i].center, family[i].radius
        for j in range(n):
            if i == j:
                continue
            d = distance(space, xi, family[j].center)
            if not d > family[j].radius:
                return Verdict(
                    INVALID,
                    reason="center containment: center %d lies in ball %d" % (i, j),
                    witness=(i, j),
                )
    if n <= 1:
        witness = family[0].center if n == 1 else None
        return Verdict(VALID, witness=witness)
    feas = find_common_point(family, tol=tol, max_iter=max_iter)
    if feas.point is not None:
        return Verdict(VALID, witness=feas.point)
    if feas.converged:
        return Verdict(
            INVALID,
            reason="empty common intersection (max violation %.3g)" % feas.max_violation,
            witness=None,
        )
    return Verdict(
        INDETERMINATE,
        reason="common-point search did not converge within the iteration cap",
    )


def is_k_configuration(family: BallFamily, tol: float = DEFAULT_TOL) -> Verdict:
    """Mutually intersecting balls with no center inside another ball.

    Like a Besicovitch family but without the common-point requirement:
    every pair of balls must intersect, and every Besicovitch family
    passes this check as well.
    """
    space = family.space
    n = len(family)
    for i in range(n):
        xi, ri = family[i].center, family[i].radius
        for j in range(n):
            if i == j:
                continue
            xj, rj = family[j].center, family[j].radius
            d = distance(space, xi, xj)
            if not d > rj:
                return Verdict(
                    INVALID,
                    reason="center containment: center %d lies in ball %d" % (i, j),
                    witness=(i, j),
                )
            if j > i and d > ri + rj + tol * (1.0 + ri + rj):
                return Verdict(
                    INVALID,
                    reason="balls %d and %d do not intersect" % (i, j),
                    witness=(i, j),
                )
    return Verdict(VALID)


def is_alpha_configuration(
    family: BallFamily,
    target: Ball,
    alpha: float,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Every family ball must meet the target, whose radius must be
    strictly below ``alpha`` times each family radius.

    ``alpha`` is restricted to (1/2, 1).  An empty family is valid.
    """
    if not (0.5 < alpha < 1.0):
        raise InputError(f"alpha must lie in (1/2, 1), got {alpha}")
    space = family.space
    r = target.radius
    for i, b in enumerate(family):
        d = distance(space, b.center, target.center)
        if d > b.radius + r + tol * (1.0 + b.radius + r):
            return Verdict(
                INVALID,
                reason="ball %d does not meet the target" % i,
                witness=i,
            )
        if not r < alpha * b.radius:
            return Verdict(
                INVALID,
                reason="target radius %g is not below alpha * r_%d = %g"
                % (r, i, alpha * b.radius),
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
    On success the witness is the (0-based) central index.
    """
    if not tau > 1.0:
        raise InputError(f"tau must be > 1, got {tau}")
    if len(sets) != len(points):
        raise InputError(
            f"got {len(sets)} sets but {len(points)} points; lengths must match"
        )
    n = len(sets)
    if n == 0:
        return Verdict(INVALID, reason="empty configuration")
    # membership of each point in its own set (outer test)
    for i, (s, a) in enumerate(zip(sets, points)):
        d = distance(space, a, s.anchor)
        if d > s.outer_radius + tol * (1.0 + s.outer_radius):
            return Verdict(
                INVALID,
                reason="point %d lies outside its set" % i,
                witness=("membership", i),
            )
    # order condition: later points avoid earlier inner balls, and
    # diameters do not grow by a factor of tau or more
    for i in range(n):
        si = sets[i]
        for j in range(i + 1, n):
            if distance(space, points[j], si.anchor) <= si.inner_radius:
                return Verdict(
                    INVALID,
                    reason="point %d lies inside earlier set %d" % (j, i),
                    witness=("exclusion", i, j),
                )
            if not sets[j].diameter < tau * si.diameter:
                return Verdict(
                    INVALID,
                    reason="set %d is not tau-smaller than earlier set %d" % (j, i),
                    witness=("diameter-order", i, j),
                )
    # central set: meets every set, diameter tau-below all of them
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


# ---------------------------------------------------------------------------
# Overlap profiles
# ---------------------------------------------------------------------------


def overlap_profile(
    family: BallFamily,
    probes: Optional[Sequence[Point]] = None,
    exact_1d: bool = False,
    tol: float = DEFAULT_TOL,
) -> OverlapProfile:
    """Depth statistics: how many balls cover a point.

    In ``exact_1d`` mode (euclidean dimension 1 only) an endpoint sweep
    computes the exact maximum depth anywhere on the line, and the
    histogram tabulates depths at interval endpoints.  Otherwise depths
    are measured at the given probe points.
    """
    if exact_1d:
        if not (family.space.kind == "euclidean" and family.space.dim == 1):
            raise UnsupportedFeatureError(
                "exact overlap profiles are only available on the euclidean line"
            )
        if len(family) == 0:
            return OverlapProfile(0, None, {})
        lefts = np.array([b.center.coords[0] - b.radius for b in family])
        rights = np.array([b.center.coords[0] + b.radius for b in family])
        # closed intervals: at a shared coordinate, openings count before closings
        coords = np.concatenate([lefts, rights])
        kinds = np.concatenate([np.zeros(len(family)), np.ones(len(family))])
        order = np.lexsort((kinds, coords))
        depth = np.cumsum(np.where(kinds[order] == 0, 1, -1))
        peak = int(np.argmax(depth))
        max_overlap = int(depth[peak])
        witness = Point((float(coords[order][peak]),))
        ls = np.sort(lefts)
        rs = np.sort(rights)
        depths_at = (
            np.searchsorted(ls, coords, side="right")
            - np.searchsorted(rs, coords, side="left")
        )
        values, counts = np.unique(depths_at, return_counts=True)
        histogram = {int(v): int(c) for v, c in zip(values, counts)}
        return OverlapProfile(max_overlap, witness, histogram)
    if probes is None:
        raise InputError("either probes or exact_1d must be given")
    if len(family) == 0 or len(probes) == 0:
        return OverlapProfile(0, None, {})
    space = family.space
    centers = _coord_rows(family.centers, space.ambient_dim)
    reach = np.array([b.radius + tol * (1.0 + b.radius) for b in family])
    best_depth = -1
    best_probe = None
    histogram: dict = {}
    for p in probes:
        depth = int(np.count_nonzero(distance(space, p, centers) <= reach))
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
    rows = np.empty((len(points), space.ambient_dim))
    for i, p in enumerate(points):
        d = distance(space, p, rows[: len(kept)])
        if not np.any(d <= eps if strict else d < eps):
            rows[len(kept)] = p.coords
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
    target's from below as the budget grows.  Deterministic given
    ``seed``, ``budget`` and ``restarts``.
    """
    if not eps > 0.0:
        raise InputError(f"eps must be > 0, got {eps}")
    if budget < space.dim + 1:
        raise InputError(f"budget {budget} is too small for dimension {space.dim}")
    if restarts < 1:
        raise InputError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x5EED])
    sample = [target.center]
    for _ in range(budget - 1):
        sample.append(uniform_in_ball(space, target, rng))
    best = len(epsilon_net_greedy(space, sample, eps).points)
    for _ in range(restarts - 1):
        order = rng.permutation(len(sample))
        shuffled = [sample[i] for i in order]
        best = min(best, len(epsilon_net_greedy(space, shuffled, eps).points))
    return best


def strict_net_bound(alpha: float, dim: int) -> int:
    """Cardinality cap for a strictly (r/alpha)-separated set inside a
    ball of radius r + r/alpha: floor((2 * alpha + 3) ** dim)."""
    return math.floor((2.0 * alpha + 3.0) ** dim)
