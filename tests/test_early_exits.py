"""Proposals the searches reject without paying for them.

* ``covering._besicovitch`` and ``search._added_common_point`` return
  without a sweep when an l^p pair of balls is beyond the sweep's reach
  (``covering._beyond_sweep``).  Every result must equal that of a local
  reference that always sweeps and then decides in the validator's
  order: on every call that seeded ``wbcp`` searches (d = 2, 3) and the
  ``constants --dims 1,2`` report make, and on hand-built families.
* ``satellite_max_search`` checks a proposal against what the new set
  adds (``covering._satellite_extended``).  Its verdict must equal the
  full validator's on every proposal, and the search must end where a
  search that runs the full validator per proposal ends.
* ``search._pack_feasible`` measures only the pairs that no axis
  separates; its verdict must be the all-pairs one.
"""

import contextlib
import io
import itertools
import math
import random

import pytest

from ballcover import covering, search
from ballcover.cli import run_command
from ballcover.covering import (
    INDETERMINATE,
    INVALID,
    VALID,
    BallFamily,
    Verdict,
    find_common_point,
    is_besicovitch_family,
    is_tau_satellite_configuration,
)
from ballcover.geometry import DEFAULT_TOL, Point, Space, distance
from ballcover.search import SearchConfig, satellite_max_search


# ---------------------------------------------------------------------------
# local references: sweep first, then decide in the validator's order
# ---------------------------------------------------------------------------


def reference_besicovitch(family, k, tol, max_iter):
    """``covering._besicovitch`` as it decides with a sweep on every family."""
    space, coords, radii = family.space, family.coords, family.radii
    unit, flat = math.ldexp(1.0, -k), space._model.flat
    apart = None
    for i, (ci, ri) in enumerate(zip(coords, radii)):
        for j, (cj, rj) in enumerate(zip(coords, radii)):
            if i == j:
                continue
            d = distance(space, Point(ci), Point(cj))
            if not d > rj:
                reason = "center containment: center %d lies in ball %d" % (i, j)
                return Verdict(INVALID, reason, (i, j))
            if flat and d == math.inf:
                raise OverflowError("distance beyond the float range")
            if j > i and d > ri + rj + tol * (unit + ri + rj) and apart is None:
                apart = Verdict(INVALID, "balls %d and %d do not intersect" % (i, j), (i, j))
    n = len(family)
    if n <= 1:
        return Verdict(VALID, witness=Point(coords[0]) if n == 1 else None)
    feas = find_common_point(family, tol=tol, max_iter=max_iter)
    if feas.point is not None and not k:
        return Verdict(VALID, witness=feas.point)
    slack = tol * (math.ldexp(1.0, -k) + max(radii))
    if feas.point is not None and feas.max_violation <= slack:
        return Verdict(VALID, witness=Point(tuple([math.ldexp(v, k) for v in feas.point])))
    reason = "no common point was found (max violation %.3g, tolerance %.3g)"
    return apart or Verdict(INDETERMINATE, reason % (math.ldexp(feas.max_violation, k),
                                                     math.ldexp(slack, k)))


def reference_is_besicovitch(family, tol=DEFAULT_TOL, max_iter=10_000):
    try:
        return reference_besicovitch(family, 0, tol, max_iter)
    except OverflowError:
        return reference_besicovitch(*covering._scaled(family), tol, max_iter)


def reference_added(space, coords, radii, center, radius):
    """``search._added_common_point`` as it decides with a sweep on every
    family whose centers exclude each other."""
    kernel = space._model.kernel
    for c, r in zip(coords, radii):
        d = kernel(center, c)
        if not (d > r and d > radius):
            return None
    trial = BallFamily._columns(space, (*coords, center), (*radii, radius))
    point = find_common_point(trial, max_iter=search._ADD_SWEEPS * len(trial)).point
    return None if point is None else point.coords


def spy(monkeypatch, module, name):
    """Record every completed call of ``module.name`` with its result, and
    a copy of each list argument (the searches grow their state in place)."""
    real, calls = getattr(module, name), []

    def recorded(*args):
        got = real(*args)
        calls.append((tuple(list(a) if isinstance(a, list) else a for a in args), got))
        return got

    monkeypatch.setattr(module, name, recorded)
    return calls


def count_sweeps(monkeypatch):
    """Count the calls of ``find_common_point`` from covering and search."""
    real, count = covering.find_common_point, [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(covering, "find_common_point", counted)
    monkeypatch.setattr(search, "find_common_point", counted)
    return count


def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_command(argv)


def beyond(family, tol=DEFAULT_TOL):
    """Whether some pair of the family is beyond the sweep's reach."""
    model, coords, radii = family.space._model, family.coords, family.radii
    scale = 1.0 + max(radii)
    return any(
        covering._beyond_sweep(model, model.kernel(coords[i], coords[j]), radii[i], radii[j],
                               tol, scale)
        for i, j in itertools.combinations(range(len(radii)), 2)
    )


# ---------------------------------------------------------------------------
# the early exit on seeded runs
# ---------------------------------------------------------------------------

SEEDED = {
    "wbcp-d2": ["search", "--what", "wbcp", "--dim", "2", "--seed", "1",
                "--budget", "6000", "--restarts", "6"],
    "wbcp-d3": ["search", "--what", "wbcp", "--dim", "3", "--seed", "2",
                "--budget", "3000", "--restarts", "3"],
    "constants": ["constants", "--dims", "1,2", "--seed", "1", "--budget", "1000"],
}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_runs_decide_as_the_sweeping_reference(name, monkeypatch):
    validated = spy(monkeypatch, covering, "_besicovitch")
    added = spy(monkeypatch, search, "_added_common_point")
    assert quiet(SEEDED[name]) == 0
    assert validated and added
    for args, got in validated:
        want = reference_besicovitch(*args)
        assert got == want and repr(got) == repr(want)
    for args, got in added:
        assert got == reference_added(*args)
    # the runs reach the early exit, on both paths
    assert any(beyond(args[0]) for args, _ in validated)
    assert any(got is None and beyond(BallFamily._columns(
        args[0], (*args[1], args[3]), (*args[2], args[4]))) for args, got in added)


# ---------------------------------------------------------------------------
# the early exit on hand-built families
# ---------------------------------------------------------------------------


def gap_family(gap):
    """Unit disks A and B ``gap`` apart on the x axis, and a disk of radius
    10 that covers the gap without containing their centers: A and B are
    apart by more than ``tol * (1 + r_A + r_B) = 3 * tol`` once the gap
    is, and the sweep's slack is ``tol * (1 + 10)``."""
    half = 1.0 + gap / 2.0
    return BallFamily._columns(Space.euclidean(2), ((-half, 0.0), (half, 0.0), (0.0, 9.99)),
                               (1.0, 1.0, 10.0))


def pinched_family(gap):
    """Unit disks A and B ``gap`` apart, and a disk of radius 0 midway:
    the sweep, which starts there, steps onto A, onto B and back, so it
    returns the midpoint, ``gap / 2`` outside A and B; the slack is
    ``tol * (1 + 1)``."""
    half = 1.0 + gap / 2.0
    return BallFamily._columns(Space.euclidean(2), ((-half, 0.0), (half, 0.0), (0.0, 0.0)),
                               (1.0, 1.0, 0.0))


@pytest.mark.parametrize("family", [
    gap_family(5e-3),  # apart past 3 tol, within 2 * 11 tol
    pinched_family(3.5e-3),  # apart past 3 tol and past tol * scale, within 2 tol * scale
], ids=["gap", "pinched"])
def test_an_apart_pair_within_the_sweeps_reach_stays_valid(family, monkeypatch):
    tol = 1e-3
    assert reference_besicovitch(family, 0, tol, 10_000).status == VALID
    sweeps = count_sweeps(monkeypatch)
    got = is_besicovitch_family(family, tol=tol)
    assert got.status == VALID and sweeps[0] == 1
    assert got == reference_is_besicovitch(family, tol=tol)
    assert any(v.witness == (0, 1) for _, v, _ in covering._pair_violations(family, tol))


def test_a_pair_beyond_the_sweeps_reach_skips_it(monkeypatch):
    tol = 1e-3
    family = gap_family(30.0 * tol)  # past 2 * 11 tol
    want = reference_besicovitch(family, 0, tol, 10_000)
    assert want == Verdict(INVALID, "balls 0 and 1 do not intersect", (0, 1))
    sweeps = count_sweeps(monkeypatch)
    assert is_besicovitch_family(family, tol=tol) == want and sweeps[0] == 0


def test_the_first_apart_pair_is_named_not_the_far_one(monkeypatch):
    # 0-1 are barely apart (the sweep's slack would still reach), 0-2 far
    space = Space.euclidean(2)
    family = BallFamily._columns(space, ((0.0, 0.0), (2.0 + 4e-9, 0.0), (0.0, 5.0)),
                                 (1.0, 1.0, 1.0))
    want = reference_is_besicovitch(family)
    assert want.witness == (0, 1)
    sweeps = count_sweeps(monkeypatch)
    assert is_besicovitch_family(family) == want and sweeps[0] == 0


def random_families(space, count, seed):
    rng = random.Random(seed)
    width = space._model.width
    for _ in range(count):
        n = rng.randint(2, 6)
        spread = rng.choice([0.5, 1.0, 2.0, 4.0])
        coords = tuple(tuple(rng.uniform(-spread, spread) for _ in range(width))
                       for _ in range(n))
        radii = tuple(rng.uniform(0.3, 2.0) for _ in range(n))
        yield BallFamily._columns(space, coords, radii)


@pytest.mark.parametrize("pnorm", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("dim", [2, 3])
def test_lp_families_decide_as_the_reference(pnorm, dim):
    space = Space.euclidean(dim, pnorm=pnorm)
    families = list(random_families(space, 80, seed=dim * 10 + int(min(pnorm, 9))))
    assert any(beyond(f) for f in families)
    for family in families:
        for tol in (DEFAULT_TOL, 0.0, 0.05):
            want = reference_is_besicovitch(family, tol=tol, max_iter=600)
            got = is_besicovitch_family(family, tol=tol, max_iter=600)
            assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("pnorm", [1.0, 3.0, math.inf])
def test_lp_add_gate_decides_as_the_reference(pnorm):
    space = Space.euclidean(2, pnorm=pnorm)
    skipped = 0
    for family in random_families(space, 200, seed=7):
        coords, radii = family.coords[:-1], family.radii[:-1]
        args = (space, coords, radii, family.coords[-1], family.radii[-1])
        got = search._added_common_point(*args)
        assert got == reference_added(*args)
        skipped += got is None and beyond(family)
    assert skipped


def test_a_rescaled_family_decides_as_the_reference(monkeypatch):
    space = Space.euclidean(2, pnorm=3.0)
    apart = BallFamily._columns(space, ((-1.5e300, 0.0), (1.5e300, 0.0)), (1e300, 1e300))
    meeting = BallFamily._columns(space, ((-0.9e300, 0.0), (0.9e300, 0.0), (0.0, 1.2e300)),
                                  (1e300, 1e300, 1e300))
    for family in (apart, meeting):
        validated = spy(monkeypatch, covering, "_besicovitch")
        got = is_besicovitch_family(family)
        (args, _), = validated  # the unscaled scan overflowed
        assert args[1] != 0
        want = reference_is_besicovitch(family)
        assert got == want and repr(got) == repr(want)
        monkeypatch.undo()
    assert is_besicovitch_family(apart).status == INVALID
    assert is_besicovitch_family(meeting).status == VALID


@pytest.mark.parametrize("space", [Space.sphere(2), Space.hyperbolic(2)],
                         ids=["sphere", "hyperbolic"])
def test_curved_families_always_sweep(space, monkeypatch):
    model = space._model
    base = model.origin
    far = []
    for angle in (0.0, math.pi):
        v = [0.0] * model.width
        v[0] = 1.2 * math.cos(angle)
        v[1] = 1.2 * math.sin(angle)
        far.append(model.exp(base, model.project(base, tuple(v))))
    family = BallFamily._columns(space, tuple(far), (0.3, 0.3))
    assert model.kernel(*far) > 2.0  # far past 0.6 + 2 tol (1 + 0.3): beyond, were it flat
    sweeps = count_sweeps(monkeypatch)
    got = is_besicovitch_family(family)
    assert sweeps[0] == 1
    assert got == reference_is_besicovitch(family)
    assert got == Verdict(INVALID, "balls 0 and 1 do not intersect", (0, 1))
    assert search._added_common_point(space, family.coords[:1], (0.3,), far[1], 0.3) is None
    assert sweeps[0] == 2


# ---------------------------------------------------------------------------
# the incremental satellite check
# ---------------------------------------------------------------------------


def full_extended(dist, sets, central, new, tau, tol):
    """``covering._satellite_extended`` by the full validator, with the
    central flags computed over every pair."""
    trial = sets + [new]
    points = [s.anchor for s in trial]
    if not is_tau_satellite_configuration(Space.euclidean(len(new.anchor.coords)), trial,
                                          points, tau, tol).is_valid:
        return None
    flags = []
    for s0 in trial:
        ok = True
        for s in trial:
            if s is s0:
                continue
            reach = s0.outer_radius + s.outer_radius
            if dist(s0.anchor.coords, s.anchor.coords) > reach + tol * (1.0 + reach):
                ok = False
            elif not s0.diameter < tau * s.diameter:
                ok = False
        flags.append(ok)
    return flags


SATELLITE_RUNS = [(dim, tau, lam, seed) for dim in (2, 3)
                  for tau, lam in ((1.5, 1.0), (1.2, 1.0), (2.0, 1.5), (1.7, 3.0))
                  for seed in (1, 5)]


@pytest.mark.parametrize("dim,tau,lam,seed", SATELLITE_RUNS)
def test_incremental_satellite_verdicts_equal_the_validators(dim, tau, lam, seed, monkeypatch):
    config = SearchConfig(seed=seed, budget=800, restarts=2)
    space = Space.euclidean(dim)
    checked = spy(monkeypatch, search, "_satellite_extended")
    got = satellite_max_search(space, tau, lam, config)
    accepted = 0
    for (dist, sets, central, new, tau_, tol), flags in checked:
        assert flags == full_extended(dist, sets, central, new, tau_, tol)
        accepted += flags is not None
        # O(n) kernel calls: its membership, the order pairs (which the new
        # row of the central test reuses) and the new column
        calls = []
        covering._satellite_extended(lambda a, b: calls.append(1) or dist(a, b),
                                     sets, central, new, tau_, tol)
        assert len(calls) <= 2 * len(sets) + 1
    assert accepted and accepted < len(checked)
    monkeypatch.setattr(search, "_satellite_extended", full_extended)
    assert got == satellite_max_search(space, tau, lam, config)


# ---------------------------------------------------------------------------
# the packing's final check
# ---------------------------------------------------------------------------


def all_pairs_feasible(pts):
    dist = Space.euclidean(len(pts[0]))._model.kernel
    return all(
        search._length(p) <= 4.0 for p in pts
    ) and all(
        dist(pts[i], pts[j]) >= 2.0 - search._PACK_TOL
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    ) and not any(pts[0])


def layouts(dim):
    warm = search._pack_warm_start(dim)
    yield warm
    yield warm[:1] + warm[1:][::-1]
    # one point nudged onto another, at exactly 2 - tol and a hair inside it
    for shift in (search._PACK_TOL, 2.0 * search._PACK_TOL):
        moved = list(warm)
        a, b = moved[1], moved[-1]
        d = Space.euclidean(dim)._model.kernel(a, b)
        if d > 0.0:
            t = (d - 2.0 + shift) / d
            moved[-1] = tuple(y + t * (x - y) for x, y in zip(a, b))
        yield moved
    yield [tuple(x + 0.5 for x in p) if i == 2 else p for i, p in enumerate(warm)]
    yield [(0.1,) + (0.0,) * (dim - 1)] + warm[1:]  # the first off the origin
    yield warm + [tuple(4.5 if k == 0 else 0.0 for k in range(dim))]  # beyond radius 4
    yield warm + [warm[len(warm) // 2]]  # a repeated center
    # turned off the axes, so no axis separates the rows: feasible still
    c, s = math.cos(0.3), math.sin(0.3)
    yield [(x * c - y * s, x * s + y * c) + p[2:] for p in warm for x, y in [p[:2]]]
    # a few points jiggled, as the annealer's moves leave them
    rng = random.Random(dim)
    for _ in range(4):
        moved = list(warm)
        for i in rng.sample(range(1, len(warm)), min(6, len(warm) - 1)):
            moved[i] = search._clamp_to_radius(tuple(x + rng.uniform(-0.7, 0.7) for x in moved[i]))
        yield moved


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_pack_feasible_is_the_all_pairs_verdict(dim):
    space = Space.euclidean(dim)
    verdicts = []
    for pts in layouts(dim):
        verdicts.append(search._pack_feasible(space, pts))
        assert verdicts[-1] == all_pairs_feasible(pts)
    assert True in verdicts and False in verdicts
