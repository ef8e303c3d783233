"""Model-space geometry: points, geodesics, and ball volumes.

Three complete model geometries are supported:

* ``euclidean`` -- R^dim with an l^p norm (p >= 1, default p = 2),
* ``sphere``    -- the round sphere of a given radius, embedded in
  R^(dim+1); distances are arc lengths,
* ``hyperbolic`` -- constant curvature -1, realized on the upper sheet of
  the hyperboloid <x, x>_M = -1 in Minkowski space R^(dim, 1).

All maps work on explicit coordinates.  Points are immutable and are
validated (and re-projected onto the constraint surface) on construction.

Each :class:`Space` builds one model and keeps it (:class:`_Flat`,
:class:`_Sphere` or :class:`_Hyperboloid`), that owns every formula that
depends on the kind of space; the public functions delegate to it.

This module never imports numpy: the samplers draw only with ``normal``
and ``uniform``, so they take any generator with numpy's methods of
those names from the caller, such as :class:`ballcover._rng.Generator`.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import product
from typing import Optional

from ._record import Record
from .errors import DomainError, InputError

# Absolute/relative slack used by geometric predicates unless overridden.
DEFAULT_TOL = 1e-9

# How far curved-space coordinates may be off the constraint surface before
# they are re-projected onto it.
SURFACE_TOL = 1e-6


class Space(Record):
    """A model metric space.

    Parameters
    ----------
    kind : {"euclidean", "sphere", "hyperbolic"}
    dim : int
        Intrinsic dimension, at least 1.
    pnorm : float
        Norm exponent for euclidean spaces (p >= 1); 2.0 for other kinds.
    radius : float
        Sphere radius, in [2**-500, 2**500] (see :meth:`sphere`); 1.0 for
        other kinds.  A kind refuses (InputError) any other value of a
        parameter that it does not read.

    The space's model is built on construction (it checks ``pnorm`` or
    ``radius``) and kept in a slot that equality, hashing and pickling
    ignore.
    """

    _fields = ("kind", "dim", "pnorm", "radius")
    __slots__ = _fields + ("_model",)

    def __init__(self, kind: str, dim: int, pnorm: float = 2.0, radius: float = 1.0):
        if not isinstance(kind, str) or kind not in SPACE_KINDS:
            raise InputError(f"unknown space kind {kind!r}")
        if not isinstance(dim, int) or dim < 1:
            raise InputError(f"dimension must be a positive integer, got {dim!r}")
        for name, value, default in (("pnorm", pnorm, 2.0), ("radius", radius, 1.0)):
            if value != default and name != SPACE_KINDS[kind].parameter:
                raise InputError(f"a {kind} space takes no {name}, got {name}={value!r}")
        self._set(kind, dim, pnorm, radius)
        object.__setattr__(self, "_model", SPACE_KINDS[kind](self))

    @classmethod
    def euclidean(cls, dim: int, pnorm: float = 2.0) -> "Space":
        return cls("euclidean", dim, pnorm=pnorm)

    @classmethod
    def sphere(cls, dim: int, radius: float = 1.0) -> "Space":
        """The round sphere S^dim of the given radius in R^(dim+1).

        The radius must lie in [2**-500, 2**500] (InputError otherwise):
        beyond that its square overflows, or the norm of a point on it
        underflows, and the formulas cannot hold the sphere.
        """
        return cls("sphere", dim, radius=radius)

    @classmethod
    def hyperbolic(cls, dim: int) -> "Space":
        return cls("hyperbolic", dim)

    @property
    def ambient_dim(self) -> int:
        return self._model.width

    @property
    def is_line(self) -> bool:
        """The Euclidean line (of any p): the one space with one coordinate."""
        return self._model.width == 1

    @property
    def is_flat(self) -> bool:
        """R^dim with an l^p norm, as opposed to the sphere or the hyperboloid."""
        return self._model.flat

    def point(self, coords) -> "Point":
        """Validate raw coordinates and return a :class:`Point`.

        Curved-space coordinates may be off the constraint surface by at
        most ``SURFACE_TOL``; they are re-projected exactly onto it.
        """
        c = tuple(float(v) for v in coords)
        if len(c) != self.ambient_dim:
            raise InputError(
                f"expected {self.ambient_dim} coordinates, got {len(c)}"
            )
        if not all(math.isfinite(v) for v in c):
            raise InputError(f"non-finite coordinate in {c}")
        return Point(self._model.surface(c))

    def origin(self) -> "Point":
        """A canonical base point of the space."""
        return Point(self._model.origin)


class Point(Record):
    """An immutable point, stored in ambient coordinates."""

    __slots__ = _fields = ("coords",)

    def __init__(self, coords: tuple):
        object.__setattr__(self, "coords", coords)

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)


class Tangent(Record):
    """A tangent vector at ``base``, in ambient coordinates.

    On the sphere the vector is euclidean-orthogonal to the base point;
    on the hyperboloid it is Minkowski-orthogonal to it.
    """

    __slots__ = _fields = ("base", "vector")

    def __init__(self, base: Point, vector: tuple):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vector", vector)


class Ball(Record):
    """A closed metric ball."""

    __slots__ = _fields = ("center", "radius")

    def __init__(self, center: Point, radius: float):
        if not (math.isfinite(radius) and radius >= 0.0):
            raise InputError(f"ball radius must be finite and >= 0, got {radius!r}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)


def _mdot(a, b) -> float:
    """Minkowski inner product: spatial dot minus product of last coordinates."""
    s = 0.0
    for i in range(len(a) - 1):
        s += a[i] * b[i]
    return s - a[-1] * b[-1]


def _check_point(space: Space, p: Point, name: str = "point") -> None:
    if len(p.coords) != space.ambient_dim:
        raise InputError(
            f"{name} has {len(p.coords)} coordinates, expected {space.ambient_dim}"
        )


# Scalar kernels and sums on coordinate tuples.  Sums are written out as
# ``+``, left to right from the int 0 as ``sum()`` starts (the Minkowski
# form from 0.0, as ``_mdot`` does), instead of calling ``sum()``: the
# floats are those of ``sum()`` up to Python 3.11, whose float sum is a
# plain left-to-right loop, and they do not change on 3.12+, where
# ``sum()`` of floats is compensated.  The unrolled l2 kernels drop the
# leading ``0 +``, which cannot change a square.  Kernels are module-level
# functions, with parameters bound by ``partial``, so a space that carries
# one pickles.


def _dot(a, b) -> float:
    s = 0
    for x, y in zip(a, b):
        s += x * y
    return s


def _sumsq(v) -> float:
    s = 0
    for x in v:
        s += x * x
    return s


def _l2_1(a, b):
    x = a[0] - b[0]
    return math.sqrt(x * x)


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


# The common-point sweep of R^2 and R^3 unrolled (see ``_Model.sweep``).
# Each step reuses the differences that the distance took, ``x - c``,
# which are the ones ``_Flat.step`` recomputes, and the stationarity test
# is ``before - x`` as the kernel takes it, so every float is the generic
# sweep's.


def _sweep_l2_2(x, balls, sweeps, stop):
    x0, x1 = x
    flat = [(c[0], c[1], r) for c, r in balls]
    sqrt = math.sqrt
    for _ in range(sweeps):
        b0, b1 = x0, x1
        for c0, c1, r in flat:
            dx = x0 - c0
            dy = x1 - c1
            d = sqrt(dx * dx + dy * dy)
            if not d <= r:
                t = r / d
                x0 = c0 + t * dx
                x1 = c1 + t * dy
        ex = b0 - x0
        ey = b1 - x1
        if sqrt(ex * ex + ey * ey) < stop:
            break
    return (x0, x1)


def _sweep_l2_3(x, balls, sweeps, stop):
    x0, x1, x2 = x
    flat = [(c[0], c[1], c[2], r) for c, r in balls]
    sqrt = math.sqrt
    for _ in range(sweeps):
        b0, b1, b2 = x0, x1, x2
        for c0, c1, c2, r in flat:
            dx = x0 - c0
            dy = x1 - c1
            dz = x2 - c2
            d = sqrt(dx * dx + dy * dy + dz * dz)
            if not d <= r:
                t = r / d
                x0 = c0 + t * dx
                x1 = c1 + t * dy
                x2 = c2 + t * dz
        ex = b0 - x0
        ey = b1 - x1
        ez = b2 - x2
        if sqrt(ex * ex + ey * ey + ez * ez) < stop:
            break
    return (x0, x1, x2)


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


def _away(R, x):
    """The unit tangent at ``x`` on the sphere of radius ``R`` along which
    a sweep leaves the antipode of a center: the axis with the least
    ``|x_k|`` (the first on ties), projected and normalised."""
    k = min(range(len(x)), key=lambda i: abs(x[i]))
    u = [(j == k) - x[k] / (R * R) * v for j, v in enumerate(x)]
    n = math.sqrt(_sumsq(u))  # at least sqrt(1 - 1 / len(x))
    return tuple([v / n for v in u])


# The common-point sweep of the sphere S^2 of radius R unrolled: one loop
# that runs ``_sphere``, ``_Sphere.log`` (``_away`` at an antipode), the
# step scale ``(d - r) / d`` of ``_Sphere.step`` and ``_Sphere.exp`` on
# floats, with their operations in their order and their DomainError
# messages.  The log map's cosine ``_dot(x, c) / (R * R)`` is the kernel's
# ``cos_t``, a sum ``0.0 + ...`` is the one from the int 0 (the int converts
# exactly), ``min``/``max`` are written as the comparisons they make, and
# radii are >= 0, as a Ball keeps them, so a point outside a ball is off
# its center.


def _sweep_s2(R, x, balls, sweeps, stop):
    x0, x1, x2 = x
    flat = [(c[0], c[1], c[2], r) for c, r in balls]
    sqrt, asin, acos, cos, sin = math.sqrt, math.asin, math.acos, math.cos, math.sin
    RR, R2 = R * R, 2.0 * R
    inj = math.pi * R
    antipodal, longest = inj * (1.0 - 1e-9), inj * (1.0 + 1e-12)
    for _ in range(sweeps):
        b0, b1, b2 = x0, x1, x2
        for c0, c1, c2, r in flat:
            cos_t = (0.0 + x0 * c0 + x1 * c1 + x2 * c2) / RR
            if cos_t > 0.5:
                e0 = x0 - c0
                e1 = x1 - c1
                e2 = x2 - c2
                h = sqrt(e0 ** 2 + e1 ** 2 + e2 ** 2) / R2
                d = R2 * asin(h if h < 1.0 else 1.0)
            else:
                h = cos_t if cos_t < 1.0 else 1.0
                d = R * acos(h if h > -1.0 else -1.0)
            if not d <= r:
                u0 = c0 - cos_t * x0
                u1 = c1 - cos_t * x1
                u2 = c2 - cos_t * x2
                un = sqrt(u0 * u0 + u1 * u1 + u2 * u2)
                if d >= antipodal:
                    (u0, u1, u2), un = _away(R, (x0, x1, x2)), 1.0
                s = (d - r) / d
                w0 = s * (d * u0 / un)
                w1 = s * (d * u1 / un)
                w2 = s * (d * u2 / un)
                n = sqrt(w0 * w0 + w1 * w1 + w2 * w2)
                if n != 0.0:
                    if n > longest:
                        raise DomainError(
                            f"tangent length {n} exceeds the injectivity radius {inj}"
                        )
                    theta = n / R
                    ct = cos(theta)
                    st = sin(theta) * R
                    x0 = ct * x0 + st * w0 / n
                    x1 = ct * x1 + st * w1 / n
                    x2 = ct * x2 + st * w2 / n
        if _sphere(R, (b0, b1, b2), (x0, x1, x2)) < stop:
            break
    return (x0, x1, x2)


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


class _Model:
    """The formulas of one space.

    A model sets ``width`` (the number of ambient coordinates), ``flat``
    (true for l^p only), ``origin`` (built on use, so a model costs O(1)
    in the dimension), ``inj`` (the injectivity radius), ``kernel``,
    ``parameter``, the Space field it reads, and ``grid``: the
    :class:`_Grid` axes and least cell side.  Its methods work on
    coordinate tuples: ``surface`` re-projects checked coordinates within
    ``SURFACE_TOL`` of the space onto it, ``norm``/``project``/``exp``/
    ``log`` handle tangent vectors (``log(b, q, d)`` takes the distance
    ``d`` from ``b`` to ``q``, or None to compute it), ``step(x, c, r,
    d)`` moves ``x``, at distance ``d > r`` from the center ``c``, onto
    the ball of radius ``r``, ``sweep`` runs the common-point sweep on
    those steps, and ``volume``, ``random`` and ``uniform`` serve the
    functions of those purposes.  l2 in R^2 and R^3 and the sphere S^2
    bind an unrolled sweep on floats with the floats of this one
    (``_sweep_l2_2``, ``_sweep_l2_3``, ``_sweep_s2``).
    """

    flat = False

    def centroid(self, points):
        """The extra, centroid start of the common-point sweep, if any."""
        return None

    def sweep(self, x, balls, sweeps, stop):
        """Cyclic projection from ``x`` onto the balls ``(c, r)``.

        Runs at most ``sweeps`` sweeps, each stepping the point onto every
        ball it lies outside of, in order, and stops early once a sweep
        moved the point by less than ``stop``.  Returns the last point.
        The composed sweep map converges to a fixed point even when the
        intersection is empty, so stationarity of the *sweep* (not of each
        projection) is the stopping test.
        """
        kernel, step = self.kernel, self.step
        for _ in range(sweeps):
            before = x
            for c, r in balls:
                d = kernel(x, c)
                if not d <= r:
                    x = step(x, c, r, d)
            if kernel(before, x) < stop:
                break
        return x


class _Flat(_Model):
    """R^dim with the l^p norm."""

    parameter = "pnorm"
    flat, inj = True, math.inf
    origin = property(lambda self: (0.0,) * self.width)

    def __init__(self, space: Space):
        p = space.pnorm
        if not p >= 1.0:
            raise InputError(f"pnorm must be >= 1, got {p!r}")
        self.p, self.width = p, space.dim
        # an l^p norm is at least an axis gap, and |x| ** p underflows below
        # 2 ** (-1022 / p), so a computed distance may be off by up to ``gap``
        # (beside a few ulps per coordinate)
        self.gap = 2.0 ** -(1000.0 / p if p < math.inf else 1000.0)
        self.grid = (min(3, space.dim), self.gap)
        # and for |x|, |y| < huge, |x - y| ** p stays below 2 ** 1002 (covering._scaled)
        self.huge = 2.0 ** (500.0 if p in (1.0, 2.0, math.inf) else 1000.0 / p - 1.0)
        if p == 2.0:
            self.kernel = {1: _l2_1, 2: _l2_2, 3: _l2_3}.get(space.dim, _l2)
            if space.dim in (2, 3):
                self.sweep = _sweep_l2_2 if space.dim == 2 else _sweep_l2_3
        elif p == 1.0:
            self.kernel = _l1
        elif math.isinf(p):
            self.kernel = _linf
        else:
            self.kernel = partial(_lp, p, 1.0 / p)

    def surface(self, c):
        return c

    def norm(self, v):
        return self.kernel(v, self.origin)

    def project(self, b, v):
        return v

    def exp(self, b, v):
        return tuple(x + y for x, y in zip(b, v))

    def log(self, b, q, d):
        return tuple(y - x for x, y in zip(b, q))

    def step(self, x, c, r, d):
        # retract along the straight line toward the center (the metric
        # projection for p = 2)
        t = r / d
        return tuple([cc + t * (pc - cc) for pc, cc in zip(x, c)])

    def centroid(self, points):
        out = []
        for k in range(self.width):
            s = 0
            for p in points:
                s += p[k]
            out.append(s / len(points))
        return tuple(out)

    def volume(self, r):
        return unit_ball_volume(self.width, self.p) * r ** self.width

    def random(self, rng, spread):
        return tuple(float(v) for v in rng.normal(0.0, spread, self.width))

    def uniform(self, c, r, rng):
        n, p = self.width, self.p
        if p == 2.0:
            g = rng.normal(0.0, 1.0, n)
            norm = math.sqrt(float(_sumsq(g)))
            rad = r * rng.uniform() ** (1.0 / n)
            return Point(tuple(cc + rad * float(v) / norm for cc, v in zip(c.coords, g)))
        # Barthe-Guedon-Mendelson-Naor: y_k with density ~ exp(-|t|^p),
        # drawn as G^(1/p) U for G ~ Gamma(1 + 1/p) and U uniform on
        # [-1, 1), and W ~ Exp(1) give y / (sum |y_k|^p + W)^(1/p), uniform
        # in the unit ball; 1/p = 0 makes it the uniform box for p = inf
        q = 1.0 / p
        y = [_gamma(rng, 1.0 + q) ** q * rng.uniform(-1.0, 1.0) for _ in range(n)]
        s = -math.log1p(-rng.uniform())
        for v in y:
            s += abs(v) ** p
        d = s ** q
        return Point(tuple(cc + r * float(v) / d for cc, v in zip(c.coords, y)))


def _gamma(rng, a):
    """A Gamma(a) draw, a >= 1, by Marsaglia and Tsang's squeeze (ACM TOMS
    26, 2000) on ``rng.normal`` and ``rng.uniform``."""
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.normal()
        v = 1.0 + c * x
        if v > 0.0:
            v = v * v * v
            u = 1.0 - rng.uniform()  # in (0, 1], so its log is finite
            if u < 1.0 - 0.0331 * x ** 4 or math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                return d * v


class _Curved(_Model):
    """A sphere or hyperboloid of radius ``R`` in R^(dim+1).

    A ball of radius ``R * T`` has volume ``R^dim`` times the unit
    sphere's area times the integral of ``sn^(dim-1)`` over [0, T], with
    ``sn`` = sin on the sphere (``T`` at most ``t_max`` = pi, and
    ``sn^(dim-1)`` peaking at ``t_peak``) and sinh on the hyperboloid.
    """

    origin = property(lambda self: (0.0,) * self.dim + (self.R,))

    def __init__(self, space: Space, R: float = 1.0):
        self.space, self.R, self.dim, self.width = space, R, space.dim, space.dim + 1

    def step(self, x, c, r, d):
        # follow the geodesic toward the center; d is the distance that
        # log_map would otherwise compute again.  S^2 sweeps with
        # _sweep_s2 instead; the other spheres and the hyperboloid step
        # through the public maps, which the benchmark's layer trace
        # expects validate to reach until its tracer changes (ROADMAP
        # item 5)
        p = Point(x)
        v = log_map(self.space, p, Point(c), d).vector
        s = (d - r) / d
        return exp_map(self.space, Tangent(p, tuple(s * y for y in v))).coords

    def uniform(self, c, r, rng):
        # draw the radius from the area-element density by rejection under
        # a constant envelope, then shoot a geodesic; on the hyperboloid a
        # large ball's density or coordinates can leave the float range
        cap = min(r / self.R, self.t_max)
        try:
            peak = self.density(min(cap, self.t_peak))
            while peak:
                t = cap * rng.uniform()
                if rng.uniform() * peak <= self.density(t):
                    u = random_unit_tangent(self.space, c, rng)
                    c = exp_map(self.space, Tangent(c, tuple(t * self.R * v for v in u.vector)))
                    break
            if math.isfinite(c.coords[-1]):
                return c
        except OverflowError:
            pass
        raise DomainError(
            f"a radius-{r} ball in dimension {self.dim} reaches beyond the float range"
        )

    def density(self, t):
        return self.sn(t) ** (self.dim - 1)

    def volume(self, r):
        R, n = self.R, self.dim
        if r > self.t_max * R * (1.0 + 1e-12):
            raise DomainError(f"radius {r} exceeds the sphere diameter {math.pi * R}")
        return _unit_sphere_area(n) * R ** n * self.sn_integral(n - 1, min(r / R, self.t_max))


class _Sphere(_Curved):
    parameter = "radius"
    sn, t_max, t_peak = math.sin, math.pi, math.pi / 2.0
    sn_integral = staticmethod(_sin_power_integral)

    def __init__(self, space: Space):
        R = space.radius
        # R * R must neither overflow nor lose the norms of Space.point
        if not 2.0 ** -500 <= R <= 2.0 ** 500:
            raise InputError(f"sphere radius must lie in [2**-500, 2**500], got {R!r}")
        super().__init__(space, R)
        self.inj = math.pi * R
        self.antipodal = self.inj * (1.0 - 1e-9)  # the log map is undefined from here on
        self.kernel = partial(_sphere, R)
        if self.width == 3:
            self.sweep = partial(_sweep_s2, R)
        # the arc is at least the chord, whose squares underflow as l2's do
        self.grid = (min(3, self.width), 2.0 ** -500)

    def step(self, x, c, r, d):
        if d < self.antipodal:
            return super().step(x, c, r, d)
        # no log map from the antipode of c: leave along _away, with _sweep_s2's floats
        v = tuple([d * y for y in _away(self.R, x)])
        return exp_map(self.space, Tangent(Point(x), tuple((d - r) / d * y for y in v))).coords

    def surface(self, c):
        R = self.R
        norm = math.sqrt(_sumsq(c))
        if abs(norm - R) > SURFACE_TOL * (1.0 + R):
            raise InputError(f"point with |x| = {norm} is not on the sphere of radius {R}")
        return tuple(v * R / norm for v in c)

    def norm(self, v):
        return math.sqrt(_sumsq(v))

    def project(self, b, v):
        c = _dot(v, b) / (self.R ** 2)
        return tuple(x - c * y for x, y in zip(v, b))

    def exp(self, b, v):
        n = self.norm(v)
        if n == 0.0:
            return b
        R = self.R
        if n > math.pi * R * (1.0 + 1e-12):
            raise DomainError(f"tangent length {n} exceeds the injectivity radius {math.pi * R}")
        theta = n / R
        ct, st = math.cos(theta), math.sin(theta)
        return tuple(ct * x + st * R * y / n for x, y in zip(b, v))

    def log(self, b, q, d):
        if d is None:
            d = self.kernel(b, q)
        R = self.R
        if d >= self.antipodal:
            raise DomainError("log map is undefined at antipodal points")
        if d == 0.0:
            return (0.0,) * self.width
        c = _dot(b, q) / (R * R)
        u = tuple(y - c * x for x, y in zip(b, q))
        un = math.sqrt(_sumsq(u))
        return tuple(d * x / un for x in u)

    def random(self, rng, spread):
        g = rng.normal(0.0, 1.0, self.width)
        norm = math.sqrt(float(_sumsq(g)))
        return tuple(float(v) * self.R / norm for v in g)


class _Hyperboloid(_Curved):
    parameter = None
    sn, t_max, t_peak = math.sinh, math.inf, math.inf
    sn_integral = staticmethod(_sinh_power_integral)
    inj = math.inf
    kernel = staticmethod(_hyperboloid)
    grid = (0, 0.0)  # no coordinate gap bounds the distance: every pair is tested

    def surface(self, c):
        if c[-1] <= 0.0:
            raise InputError("hyperboloid points need a positive last coordinate")
        q = _mdot(c, c)
        if abs(q + 1.0) > SURFACE_TOL:
            raise InputError(f"point with <x,x>_M = {q} is not on the hyperboloid")
        return self._lift(c[:-1])

    @staticmethod
    def _lift(spatial):
        return spatial + (math.sqrt(1.0 + _sumsq(spatial)),)

    def norm(self, v):
        return math.sqrt(max(0.0, _mdot(v, v)))

    def project(self, b, v):
        c = _mdot(v, b)
        return tuple(x + c * y for x, y in zip(v, b))

    def exp(self, b, v):
        n = self.norm(v)
        if n == 0.0:
            return b
        ch, sh = math.cosh(n), math.sinh(n)
        # re-lift to kill accumulated drift off the hyperboloid
        return self._lift(tuple(ch * x + sh * y / n for x, y in zip(b[:-1], v[:-1])))

    def log(self, b, q, d):
        if d is None:
            d = self.kernel(b, q)
        if d == 0.0:
            return (0.0,) * self.width
        ch = math.cosh(d)
        sh = math.sinh(d)
        w = tuple((y - ch * x) * (d / sh) for x, y in zip(b, q))
        # exact tangency: remove any numerical component along the base
        return self.project(b, w)

    def random(self, rng, spread):
        return self._lift(tuple(float(v) for v in rng.normal(0.0, spread, self.dim)))


# The model of each kind of space; scene documents and the CLI name the
# kinds, and each kind's parameter field, from this table.
SPACE_KINDS = {"euclidean": _Flat, "sphere": _Sphere, "hyperbolic": _Hyperboloid}


def injectivity_radius(space: Space) -> float:
    """Largest radius on which geodesics from any point are minimizing."""
    return space._model.inj


def distance(space: Space, p: Point, q: Point) -> float:
    """Geodesic distance between two points, by the space's one cached kernel."""
    model = space._model
    a = p.coords
    if len(a) != model.width:
        _check_point(space, p, "p")  # raises
    b = q.coords
    if len(b) != model.width:
        _check_point(space, q, "q")  # raises
    return model.kernel(a, b)


class _Grid:
    """Balls ``(c, r)`` by power-of-two radius band and cell: ``near(x,
    rho)`` lists a superset of those with ``distance(x, c) <= rho + r``,
    for ``rho <= reach`` and ``x`` among ``points``.  Radii below ``2**b``
    get cells of side ``2**b * (1 + 1e-6)``, and a query scans the cells
    within ``rho + 2**b`` times that on each ``grid`` axis; the margin
    outweighs rounding, as cells are never below the model's underflow
    gap, the largest coordinate over ``2**31`` or ``reach * 2**-40``.
    Without a finite scale all balls share one cell.
    """

    def __init__(self, space: Space, points, reach: float):
        axes, floor = space._model.grid
        flat = [abs(v) for p in points for v in p.coords[:axes]]
        floor = max(floor, max(flat, default=0.0) * 2.0 ** -31, reach * 2.0 ** -40)
        finite = math.isfinite(sum(flat) + 4.0 * reach + floor)
        self.axes = range(axes if finite else 0)
        self.floor = floor if finite else math.inf
        self.bands = {}

    def add(self, c, r: float, item) -> None:
        band = math.frexp(max(r, self.floor))[1]
        side, cells, items = self.bands.setdefault(band, (math.ldexp(1.000001, band), {}, []))
        cells.setdefault(tuple([math.floor(c[k] / side) for k in self.axes]), []).append(item)
        items.append(item)

    def near(self, x, rho: float) -> list:
        out = []
        for band, (side, cells, items) in self.bands.items():
            reach = (rho + math.ldexp(1.0, band)) * 1.000001
            keys = [range(math.floor((x[k] - reach) / side), math.floor((x[k] + reach) / side) + 1)
                    for k in self.axes]
            # a cell costs a lookup and an item a distance call: take the cheaper
            if math.prod(map(len, keys)) >= 4 * len(items):
                out += items
                continue
            for key in product(*keys):
                out += cells.get(key, ())
        return out


def tangent_norm(space: Space, t: Tangent) -> float:
    """Length of a tangent vector in the space's metric."""
    return space._model.norm(t.vector)


def project_tangent(space: Space, base: Point, vector) -> Tangent:
    """Project an ambient vector onto the tangent space at ``base``."""
    _check_point(space, base, "base")
    v = tuple(float(x) for x in vector)
    if len(v) != space.ambient_dim:
        raise InputError(f"vector has {len(v)} coordinates, expected {space.ambient_dim}")
    return Tangent(base, space._model.project(base.coords, v))


def exp_map(space: Space, t: Tangent) -> Point:
    """Follow the geodesic from ``t.base`` with initial velocity ``t.vector``.

    The result lies at distance ``tangent_norm(space, t)`` from the base.
    On the sphere the vector must not be longer than the injectivity
    radius.
    """
    _check_point(space, t.base, "base")
    v = t.vector
    if len(v) != space.ambient_dim:
        raise InputError(f"vector has {len(v)} coordinates, expected {space.ambient_dim}")
    return Point(space._model.exp(t.base.coords, v))


def log_map(space: Space, base: Point, target: Point, dist: Optional[float] = None) -> Tangent:
    """Inverse of the exponential map at ``base``.

    ``dist``, when given, is ``distance(space, base, target)``, which the
    caller already holds; the curved spaces use it instead of computing
    it again.  Undefined (raises :class:`DomainError`) at antipodal
    sphere pairs.
    """
    _check_point(space, base, "base")
    _check_point(space, target, "target")
    return Tangent(base, space._model.log(base.coords, target.coords, dist))


def ball_volume(space: Space, r: float) -> float:
    """Riemannian volume of a metric ball of radius ``r``.

    Euclidean volumes use the closed-form l^p unit-ball volume; curved
    volumes integrate the area element in closed form.  A volume, or a
    term of its formula, beyond the float range raises
    :class:`DomainError` (large hyperbolic radii reach it quickly).
    """
    if not (math.isfinite(r) and r >= 0.0):
        raise InputError(f"radius must be finite and >= 0, got {r!r}")
    try:
        v = space._model.volume(r)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise DomainError(
            f"the volume of a radius-{r} ball in dimension {space.dim} is beyond the float range"
        )
    return v


# ---------------------------------------------------------------------------
# Seeded sampling helpers (used by estimators, searches, and tests).
# ---------------------------------------------------------------------------


def random_point(space: Space, rng, spread: float = 1.0) -> Point:
    """A random point; ``spread`` scales the non-compact directions."""
    return Point(space._model.random(rng, spread))


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
    if ball.radius == 0.0:
        return ball.center
    return space._model.uniform(ball.center, ball.radius, rng)
