"""Model-space geometry: points, geodesics, and ball volumes.

Three complete model geometries are supported:

* ``euclidean`` -- R^dim with an l^p norm (p >= 1, default p = 2),
* ``sphere``    -- the round sphere of a given radius, embedded in
  R^(dim+1); distances are arc lengths,
* ``hyperbolic`` -- constant curvature -1, realized on the upper sheet of
  the hyperboloid <x, x>_M = -1 in Minkowski space R^(dim, 1).

All maps work on explicit coordinates.  Points are immutable and are
validated (and re-projected onto the constraint surface) on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import DomainError, InputError

# Absolute/relative slack used by geometric predicates unless overridden.
DEFAULT_TOL = 1e-9

_KINDS = ("euclidean", "sphere", "hyperbolic")


def leq(a: float, b: float, tol: float = DEFAULT_TOL) -> bool:
    """a <= b up to absolute-plus-relative slack."""
    return a <= b + tol * (1.0 + abs(b))


def geq(a: float, b: float, tol: float = DEFAULT_TOL) -> bool:
    """a >= b up to absolute-plus-relative slack."""
    return a >= b - tol * (1.0 + abs(b))


@dataclass(frozen=True)
class Space:
    """A model metric space.

    Parameters
    ----------
    kind : {"euclidean", "sphere", "hyperbolic"}
    dim : int
        Intrinsic dimension, at least 1.
    pnorm : float
        Norm exponent for euclidean spaces (p >= 1).  Ignored otherwise.
    radius : float
        Sphere radius (> 0).  Ignored otherwise.
    """

    kind: str
    dim: int
    pnorm: float = 2.0
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown space kind {self.kind!r}")
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InputError(f"dimension must be a positive integer, got {self.dim!r}")
        if self.kind == "euclidean" and not self.pnorm >= 1.0:
            raise InputError(f"pnorm must be >= 1, got {self.pnorm!r}")
        if self.kind == "sphere" and not self.radius > 0.0:
            raise InputError(f"sphere radius must be > 0, got {self.radius!r}")

    @classmethod
    def euclidean(cls, dim: int, pnorm: float = 2.0) -> "Space":
        return cls("euclidean", dim, pnorm=pnorm)

    @classmethod
    def sphere(cls, dim: int, radius: float = 1.0) -> "Space":
        return cls("sphere", dim, radius=radius)

    @classmethod
    def hyperbolic(cls, dim: int) -> "Space":
        return cls("hyperbolic", dim)

    @property
    def ambient_dim(self) -> int:
        return self.dim if self.kind == "euclidean" else self.dim + 1

    # Built on first use and kept on the instance (a cached_property writes
    # the instance dict directly, so it works on the frozen dataclass).
    @cached_property
    def _width(self) -> int:
        return self.ambient_dim

    @cached_property
    def _kernel(self):
        """The scalar distance of this space on raw coordinate tuples."""
        return _scalar_kernel(self)

    def point(self, coords, tol: float = 1e-6) -> "Point":
        """Validate raw coordinates and return a :class:`Point`.

        Curved-space coordinates may be off the constraint surface by at
        most ``tol``; they are re-projected exactly onto it.
        """
        c = tuple(float(v) for v in coords)
        if len(c) != self.ambient_dim:
            raise InputError(
                f"expected {self.ambient_dim} coordinates, got {len(c)}"
            )
        if not all(math.isfinite(v) for v in c):
            raise InputError(f"non-finite coordinate in {c}")
        if self.kind == "sphere":
            norm = math.sqrt(sum(v * v for v in c))
            if abs(norm - self.radius) > tol * (1.0 + self.radius):
                raise InputError(
                    f"point with |x| = {norm} is not on the sphere of radius {self.radius}"
                )
            c = tuple(v * self.radius / norm for v in c)
        elif self.kind == "hyperbolic":
            if c[-1] <= 0.0:
                raise InputError("hyperboloid points need a positive last coordinate")
            q = _mdot(c, c)
            if abs(q + 1.0) > tol:
                raise InputError(f"point with <x,x>_M = {q} is not on the hyperboloid")
            spatial = c[:-1]
            lift = math.sqrt(1.0 + sum(v * v for v in spatial))
            c = spatial + (lift,)
        return Point(c)

    def origin(self) -> "Point":
        """A canonical base point of the space."""
        if self.kind == "euclidean":
            return Point((0.0,) * self.dim)
        if self.kind == "sphere":
            return Point((0.0,) * self.dim + (self.radius,))
        return Point((0.0,) * self.dim + (1.0,))


@dataclass(frozen=True)
class Point:
    """An immutable point, stored in ambient coordinates."""

    coords: tuple

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)


@dataclass(frozen=True)
class Tangent:
    """A tangent vector at ``base``, in ambient coordinates.

    On the sphere the vector is euclidean-orthogonal to the base point;
    on the hyperboloid it is Minkowski-orthogonal to it.
    """

    base: Point
    vector: tuple


@dataclass(frozen=True)
class Ball:
    """A closed metric ball."""

    center: Point
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise InputError(f"ball radius must be finite and >= 0, got {self.radius!r}")


def _mdot(a, b) -> float:
    """Minkowski inner product: spatial dot minus product of last coordinates."""
    s = 0.0
    for i in range(len(a) - 1):
        s += a[i] * b[i]
    return s - a[-1] * b[-1]


def _dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def _lp_norm(v, p: float) -> float:
    if p == 2.0:
        return math.sqrt(sum(x * x for x in v))
    if p == 1.0:
        return sum(abs(x) for x in v)
    if math.isinf(p):
        return max(abs(x) for x in v)
    return sum(abs(x) ** p for x in v) ** (1.0 / p)


def _check_point(space: Space, p: Point, name: str = "point") -> None:
    if len(p.coords) != space.ambient_dim:
        raise InputError(
            f"{name} has {len(p.coords)} coordinates, expected {space.ambient_dim}"
        )


def injectivity_radius(space: Space) -> float:
    """Largest radius on which geodesics from any point are minimizing."""
    if space.kind == "sphere":
        return math.pi * space.radius
    return math.inf


def distance(space: Space, p: Point, q):
    """Geodesic distance between two points.

    ``q`` is a :class:`Point`, giving a float, or an ``(n, ambient_dim)``
    array of point coordinates, giving the ``(n,)`` array of distances
    from ``p`` to each row.  The scalar form calls the space's one cached
    kernel on the coordinate tuples (see :func:`_scalar_kernel`).  Both
    forms evaluate the same formulas in the same order, with every sum
    written out left to right, so every array entry equals the float that
    the scalar form returns for that row, bit for bit.
    """
    a = p.coords
    width = space._width
    if len(a) != width:
        _check_point(space, p, "p")  # raises
    if isinstance(q, np.ndarray):
        return _distance_rows(space, p, q)
    b = q.coords
    if len(b) != width:
        _check_point(space, q, "q")  # raises
    return space._kernel(a, b)


# Scalar kernels on coordinate tuples.  Sums are written out as ``+``, left
# to right from the int 0 as ``sum()`` starts (the Minkowski form from 0.0,
# as ``_mdot`` does), instead of calling ``sum()``: the floats are those of
# ``sum()`` up to Python 3.11, whose float sum is a plain left-to-right
# loop, and they stay equal to the row form below on 3.12+, where ``sum()``
# of floats is compensated.  The unrolled l2 kernels drop the leading
# ``0 +``, which cannot change a square.


def _l2_2(a, b):
    x = a[0] - b[0]
    y = a[1] - b[1]
    return math.sqrt(x * x + y * y)


def _l2_3(a, b):
    x = a[0] - b[0]
    y = a[1] - b[1]
    z = a[2] - b[2]
    return math.sqrt(x * x + y * y + z * z)


def _l2(a, b):
    s = 0
    for x, y in zip(a, b):
        d = x - y
        s += d * d
    return math.sqrt(s)


def _l1(a, b):
    s = 0
    for x, y in zip(a, b):
        s += abs(x - y)
    return s


def _linf(a, b):
    return max([abs(x - y) for x, y in zip(a, b)])


def _lp(p, inv_p, a, b):
    s = 0
    for x, y in zip(a, b):
        s += abs(x - y) ** p
    return s ** inv_p


def _sphere(R, a, b):
    s = 0
    for x, y in zip(a, b):
        s += x * y
    cos_t = s / (R * R)
    if cos_t > 0.5:
        # Near-zero separation: the chord formula is numerically stable.
        s = 0
        for x, y in zip(a, b):
            s += (x - y) ** 2
        return 2.0 * R * math.asin(min(1.0, math.sqrt(s) / (2.0 * R)))
    return R * math.acos(max(-1.0, min(1.0, cos_t)))


def _hyperboloid(a, b):
    # arccosh(1 + m/2) with m the Minkowski squared chord, computed from
    # coordinate differences to avoid cancellation.
    s = 0.0
    for i in range(len(a) - 1):
        d = a[i] - b[i]
        s += d * d
    d = a[-1] - b[-1]
    m = max(0.0, s - d * d)
    half = 0.5 * m
    return math.log1p(half + math.sqrt(m + half * half))


def _scalar_kernel(space: Space):
    """``kernel(a, b)``: the distance of ``space`` between coordinate tuples.

    Kernels are module-level functions, with parameters bound by
    ``partial``, so a space that carries one still pickles.
    """
    if space.kind == "euclidean":
        p = space.pnorm
        if p == 2.0:
            return {2: _l2_2, 3: _l2_3}.get(space.dim, _l2)
        if p == 1.0:
            return _l1
        if math.isinf(p):
            return _linf
        return partial(_lp, p, 1.0 / p)
    if space.kind == "sphere":
        return partial(_sphere, space.radius)
    return _hyperboloid


# The row form of ``distance`` keeps the scalar form's floats: column sums
# run left to right from 0.0 as the scalar kernels do, ``min``/``max``
# clamps keep their tie rules, and ``**``, ``asin``, ``acos`` and ``log1p``
# are applied per element through Python, because numpy's versions differ
# in the last bit on some inputs.  IEEE +, -, *, / and sqrt are exact
# either way.


def _sum_columns(m: np.ndarray) -> np.ndarray:
    s = np.zeros(m.shape[0])
    for k in range(m.shape[1]):
        s += m[:, k]
    return s


def _pow_each(a: np.ndarray, e) -> np.ndarray:
    return np.array([x ** e for x in a.ravel().tolist()]).reshape(a.shape)


def _map_each(f, a: np.ndarray) -> np.ndarray:
    return np.fromiter(map(f, a.tolist()), float, len(a))


def _distance_rows(space: Space, p: Point, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != space.ambient_dim:
        raise InputError(
            f"q has shape {rows.shape}, expected (n, {space.ambient_dim})"
        )
    a = np.array(p.coords, dtype=float)
    if space.kind == "euclidean":
        d = np.abs(a - rows)
        pn = space.pnorm
        if pn == 2.0:
            return np.sqrt(_sum_columns(d * d))
        if pn == 1.0:
            return _sum_columns(d)
        if math.isinf(pn):
            return d.max(axis=1)
        return _pow_each(_sum_columns(_pow_each(d, pn)), 1.0 / pn)
    if space.kind == "sphere":
        R = space.radius
        cos_t = _sum_columns(a * rows) / (R * R)
        out = np.empty(len(rows))
        near = cos_t > 0.5
        chord = np.sqrt(_sum_columns(_pow_each(a - rows[near], 2)))
        x = chord / (2.0 * R)
        out[near] = 2.0 * R * _map_each(math.asin, np.where(x < 1.0, x, 1.0))
        c = np.where(cos_t[~near] < 1.0, cos_t[~near], 1.0)
        out[~near] = R * _map_each(math.acos, np.where(c > -1.0, c, -1.0))
        return out
    d = a - rows
    m = _sum_columns(d[:, :-1] * d[:, :-1]) - d[:, -1] * d[:, -1]
    m = np.where(m > 0.0, m, 0.0)
    half = 0.5 * m
    return _map_each(math.log1p, half + np.sqrt(m + half * half))


def _coord_rows(points, width: int) -> np.ndarray:
    """The ``(len(points), width)`` array of the points' coordinates."""
    return np.array([p.coords for p in points], dtype=float).reshape(len(points), width)


def tangent_norm(space: Space, t: Tangent) -> float:
    """Length of a tangent vector in the space's metric."""
    v = t.vector
    if space.kind == "euclidean":
        return _lp_norm(v, space.pnorm)
    if space.kind == "sphere":
        return math.sqrt(sum(x * x for x in v))
    return math.sqrt(max(0.0, _mdot(v, v)))


def project_tangent(space: Space, base: Point, vector) -> Tangent:
    """Project an ambient vector onto the tangent space at ``base``."""
    _check_point(space, base, "base")
    v = tuple(float(x) for x in vector)
    if len(v) != space.ambient_dim:
        raise InputError(f"vector has {len(v)} coordinates, expected {space.ambient_dim}")
    b = base.coords
    if space.kind == "euclidean":
        return Tangent(base, v)
    if space.kind == "sphere":
        c = _dot(v, b) / (space.radius ** 2)
        return Tangent(base, tuple(x - c * y for x, y in zip(v, b)))
    c = _mdot(v, b)
    return Tangent(base, tuple(x + c * y for x, y in zip(v, b)))


def exp_map(space: Space, t: Tangent) -> Point:
    """Follow the geodesic from ``t.base`` with initial velocity ``t.vector``.

    The result lies at distance ``tangent_norm(space, t)`` from the base.
    On the sphere the vector must not be longer than the injectivity
    radius.
    """
    _check_point(space, t.base, "base")
    b = t.base.coords
    v = t.vector
    if len(v) != space.ambient_dim:
        raise InputError(f"vector has {len(v)} coordinates, expected {space.ambient_dim}")
    n = tangent_norm(space, t)
    if space.kind == "euclidean":
        return Point(tuple(x + y for x, y in zip(b, v)))
    if n == 0.0:
        return Point(b)
    if space.kind == "sphere":
        R = space.radius
        if n > math.pi * R * (1.0 + 1e-12):
            raise DomainError(
                f"tangent length {n} exceeds the injectivity radius {math.pi * R}"
            )
        theta = n / R
        ct, st = math.cos(theta), math.sin(theta)
        return Point(tuple(ct * x + st * R * y / n for x, y in zip(b, v)))
    ch, sh = math.cosh(n), math.sinh(n)
    raw = tuple(ch * x + sh * y / n for x, y in zip(b, v))
    # Re-lift to kill accumulated drift off the hyperboloid.
    spatial = raw[:-1]
    lift = math.sqrt(1.0 + sum(x * x for x in spatial))
    return Point(spatial + (lift,))


def log_map(space: Space, base: Point, target: Point) -> Tangent:
    """Inverse of the exponential map at ``base``.

    Undefined (raises :class:`DomainError`) at antipodal sphere pairs.
    """
    _check_point(space, base, "base")
    _check_point(space, target, "target")
    b, q = base.coords, target.coords
    if space.kind == "euclidean":
        return Tangent(base, tuple(y - x for x, y in zip(b, q)))
    d = distance(space, base, target)
    if space.kind == "sphere":
        R = space.radius
        if d >= math.pi * R * (1.0 - 1e-9):
            raise DomainError("log map is undefined at antipodal points")
        if d == 0.0:
            return Tangent(base, (0.0,) * space.ambient_dim)
        c = _dot(b, q) / (R * R)
        u = tuple(y - c * x for x, y in zip(b, q))
        un = math.sqrt(sum(x * x for x in u))
        return Tangent(base, tuple(d * x / un for x in u))
    if d == 0.0:
        return Tangent(base, (0.0,) * space.ambient_dim)
    ch = math.cosh(d)
    sh = math.sinh(d)
    w = tuple((y - ch * x) * (d / sh) for x, y in zip(b, q))
    # Exact tangency: remove any numerical component along the base.
    c = _mdot(w, b)
    return Tangent(base, tuple(x + c * y for x, y in zip(w, b)))


def geodesic_interpolate(space: Space, x: Point, y: Point, t: float) -> Point:
    """Point at parameter ``t`` on the minimal geodesic from ``x`` to ``y``.

    ``t = 0`` gives ``x`` and ``t = 1`` gives ``y``.
    """
    if not (0.0 <= t <= 1.0):
        raise InputError(f"interpolation parameter must lie in [0, 1], got {t}")
    v = log_map(space, x, y)
    return exp_map(space, Tangent(x, tuple(t * c for c in v.vector)))


def shrink_ball_toward(space: Space, outer: Ball, y: Point, s: float) -> Ball:
    """A ball of radius ``s`` containing ``y`` and contained in ``outer``.

    The center is taken on the minimal geodesic from ``y`` toward the
    outer center, at distance ``s`` from ``y`` -- or at the outer center
    itself when ``y`` is closer to it than ``s``.
    """
    if not (0.0 < s < outer.radius):
        raise InputError(f"shrink radius must lie in (0, {outer.radius}), got {s}")
    if not outer.radius < injectivity_radius(space):
        raise InputError("outer radius must be below the injectivity radius")
    d = distance(space, outer.center, y)
    if not leq(d, outer.radius):
        raise InputError("y must lie inside the outer ball")
    if d <= s:
        return Ball(outer.center, s)
    v = log_map(space, y, outer.center)
    z = exp_map(space, Tangent(y, tuple(s / d * c for c in v.vector)))
    return Ball(z, s)


def _sin_power_integral(k: int, x: float) -> float:
    """Closed-form integral of sin^k over [0, x], by reduction."""
    if k == 0:
        return x
    if k == 1:
        return 1.0 - math.cos(x)
    return (-math.cos(x) * math.sin(x) ** (k - 1)) / k + (k - 1) / k * _sin_power_integral(k - 2, x)


def _sinh_power_integral(k: int, x: float) -> float:
    """Closed-form integral of sinh^k over [0, x], by reduction."""
    if k == 0:
        return x
    if k == 1:
        return math.cosh(x) - 1.0
    return (math.cosh(x) * math.sinh(x) ** (k - 1)) / k - (k - 1) / k * _sinh_power_integral(k - 2, x)


def _unit_sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def unit_ball_volume(dim: int, pnorm: float = 2.0) -> float:
    """Volume of the unit l^p ball in R^dim."""
    if math.isinf(pnorm):
        return 2.0 ** dim
    return (2.0 * math.gamma(1.0 + 1.0 / pnorm)) ** dim / math.gamma(1.0 + dim / pnorm)


def ball_volume(space: Space, r: float) -> float:
    """Riemannian volume of a metric ball of radius ``r``.

    Euclidean volumes use the closed-form l^p unit-ball volume; curved
    volumes integrate the area element in closed form.  A volume, or a
    term of its formula, beyond the float range raises
    :class:`DomainError` (large hyperbolic radii reach it quickly).
    """
    if not (math.isfinite(r) and r >= 0.0):
        raise InputError(f"radius must be finite and >= 0, got {r!r}")
    n = space.dim
    R = space.radius
    if space.kind == "sphere" and r > math.pi * R * (1.0 + 1e-12):
        raise DomainError(f"radius {r} exceeds the sphere diameter {math.pi * R}")
    try:
        if space.kind == "euclidean":
            v = unit_ball_volume(n, space.pnorm) * r ** n
        elif space.kind == "sphere":
            v = _unit_sphere_area(n) * R ** n * _sin_power_integral(n - 1, min(r / R, math.pi))
        else:
            v = _unit_sphere_area(n) * _sinh_power_integral(n - 1, r)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise DomainError(
            f"the volume of a radius-{r} ball in dimension {n} is beyond the float range"
        )
    return v


# ---------------------------------------------------------------------------
# Seeded sampling helpers (used by estimators, searches, and tests).
# ---------------------------------------------------------------------------


def random_point(space: Space, rng, spread: float = 1.0) -> Point:
    """A random point; ``spread`` scales the non-compact directions."""
    if space.kind == "euclidean":
        return Point(tuple(float(v) for v in rng.normal(0.0, spread, space.dim)))
    if space.kind == "sphere":
        g = rng.normal(0.0, 1.0, space.ambient_dim)
        norm = math.sqrt(float(sum(v * v for v in g)))
        return Point(tuple(float(v) * space.radius / norm for v in g))
    spatial = tuple(float(v) for v in rng.normal(0.0, spread, space.dim))
    lift = math.sqrt(1.0 + sum(v * v for v in spatial))
    return Point(spatial + (lift,))


def random_unit_tangent(space: Space, base: Point, rng) -> Tangent:
    """A uniformly random unit tangent vector at ``base``."""
    while True:
        g = rng.normal(0.0, 1.0, space.ambient_dim)
        t = project_tangent(space, base, tuple(float(v) for v in g))
        n = tangent_norm(space, t)
        if n > 1e-12:
            return Tangent(base, tuple(v / n for v in t.vector))


def uniform_in_ball(space: Space, ball: Ball, rng) -> Point:
    """A point drawn uniformly (w.r.t. volume) from a metric ball."""
    c, r = ball.center, ball.radius
    if r == 0.0:
        return c
    n = space.dim
    if space.kind == "euclidean":
        p = space.pnorm
        if p == 2.0:
            g = rng.normal(0.0, 1.0, n)
            norm = math.sqrt(float(sum(v * v for v in g)))
            rad = r * rng.uniform() ** (1.0 / n)
            return Point(tuple(cc + rad * float(v) / norm for cc, v in zip(c.coords, g)))
        # Exact l^p ball sampling via the generalized-normal construction.
        g = rng.gamma(1.0 / p, 1.0, n) ** (1.0 / p)
        signs = rng.choice((-1.0, 1.0), n)
        w = rng.exponential(1.0)
        denom = (float(sum(gv ** p for gv in g)) + w) ** (1.0 / p)
        return Point(tuple(cc + r * float(sv * gv) / denom for cc, sv, gv in zip(c.coords, signs, g)))
    # Curved spaces: draw the radius from the area-element density by
    # rejection under a constant envelope, then shoot a geodesic.
    if space.kind == "sphere":
        cap = min(r / space.radius, math.pi)
        density = lambda t: math.sin(t) ** (n - 1)
        peak = density(min(cap, math.pi / 2.0))
    else:
        cap = r
        density = lambda t: math.sinh(t) ** (n - 1)
        peak = density(cap)
    if peak == 0.0:
        return c
    while True:
        t = cap * rng.uniform()
        if rng.uniform() * peak <= density(t):
            rad = t * space.radius if space.kind == "sphere" else t
            u = random_unit_tangent(space, c, rng)
            return exp_map(space, Tangent(c, tuple(rad * v for v in u.vector)))
