"""Tests for randomized searches, explicit constructions, and the report."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ballcover import search
from ballcover.covering import (
    BallFamily,
    QuasiRoundSet,
    is_besicovitch_family,
    is_tau_satellite_configuration,
)
from ballcover.errors import InputError, InternalError, UnsupportedFeatureError
from ballcover.geometry import Ball, Point, Space, distance
from ballcover.search import (
    CipResult,
    ConstantsRow,
    SearchConfig,
    SearchResult,
    cip_check,
    constants_markdown,
    constants_report,
    construct_strict_hadwiger,
    pack_unit_balls_radius5,
    satellite_max_search,
    search_max_besicovitch_family,
)

FAST = SearchConfig(seed=0, budget=1500, restarts=2)


def family_oracle_1d(family):
    """Interval arithmetic: common point iff max(c-r) <= min(c+r)."""
    lo = max(b.center.coords[0] - b.radius for b in family)
    hi = min(b.center.coords[0] + b.radius for b in family)
    if lo > hi:
        return False
    for i, a in enumerate(family):
        for j, b in enumerate(family):
            if i != j:
                d = abs(a.center.coords[0] - b.center.coords[0])
                if not d > b.radius:
                    return False
    return True


class TestSearchConfig:
    def test_defaults_valid(self):
        cfg = SearchConfig()
        assert cfg.budget == 100_000 and cfg.restarts == 8

    @pytest.mark.parametrize(
        "kw",
        [
            dict(budget=0),
            dict(restarts=0),
            dict(decay=0.0),
            dict(decay=1.0),
            dict(initial_temperature=0.0),
            dict(perturbation_scale=0.0),
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(InputError):
            SearchConfig(**kw)


class TestConstantsRow:
    def test_accepts_interval(self):
        row = ConstantsRow("K", 2, (8, 11), 5, "x")
        assert row.paper_value == (8, 11)

    def test_rejects_unknown_name(self):
        with pytest.raises(InputError):
            ConstantsRow("zeta", 1, 2, 2, "x")

    def test_rejects_bound_above_upper_end(self):
        with pytest.raises(InputError):
            ConstantsRow("w", 1, 2, 3, "x")
        with pytest.raises(InputError):
            ConstantsRow("K", 2, (8, 11), 12, "x")


class TestMaxFamilySearch:
    def test_line_is_always_two(self):
        for seed in range(10):
            cfg = SearchConfig(seed=seed, budget=600, restarts=2)
            res = search_max_besicovitch_family(Space.euclidean(1), (0.5, 1.5), cfg)
            assert res.score == 2
            assert res.feasible
            assert family_oracle_1d(res.best)

    def test_plane_reaches_five(self):
        res = search_max_besicovitch_family(Space.euclidean(2), (0.5, 1.5), FAST)
        assert res.score == 5
        assert res.feasible
        assert is_besicovitch_family(res.best).is_valid

    def test_three_dims_reaches_twelve(self):
        res = search_max_besicovitch_family(Space.euclidean(3), (1.0, 1.0), FAST)
        assert res.score == 12
        assert res.feasible

    def test_sphere_reaches_two(self):
        res = search_max_besicovitch_family(
            Space.sphere(2), (0.3, math.pi / 4), FAST
        )
        assert res.score >= 2
        assert res.feasible
        assert is_besicovitch_family(res.best).is_valid

    def test_score_matches_family_and_trace(self):
        res = search_max_besicovitch_family(Space.euclidean(2), (1.0, 1.0), FAST)
        assert res.score == len(res.best)
        assert len(res.trace) == FAST.restarts
        assert max(res.trace) == res.score

    def test_deterministic(self):
        cfg = SearchConfig(seed=11, budget=900, restarts=2)
        a = search_max_besicovitch_family(Space.euclidean(2), (0.5, 1.5), cfg)
        b = search_max_besicovitch_family(Space.euclidean(2), (0.5, 1.5), cfg)
        assert a.score == b.score and a.trace == b.trace
        for x, y in zip(a.best, b.best):
            assert x.center.coords == y.center.coords and x.radius == y.radius

    @pytest.mark.parametrize("rng", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)])
    def test_rejects_bad_radii_range(self, rng):
        with pytest.raises(InputError):
            search_max_besicovitch_family(Space.euclidean(2), rng, FAST)


class TestStrictHadwiger:
    @pytest.mark.parametrize("dim,count", [(1, 2), (2, 5), (3, 12)])
    def test_counts(self, dim, count):
        fam = construct_strict_hadwiger(dim)
        assert len(fam) == count
        assert all(b.radius == 1.0 for b in fam)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_tangent_to_central_ball(self, dim):
        fam = construct_strict_hadwiger(dim)
        for b in fam:
            d = math.sqrt(sum(x * x for x in b.center.coords))
            assert abs(d - 2.0) < 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pairwise_strictly_disjoint(self, dim):
        fam = construct_strict_hadwiger(dim)
        sp = fam.space
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                assert distance(sp, fam[i].center, fam[j].center) > 2.0

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedFeatureError):
            construct_strict_hadwiger(4)

    def test_bad_dimension(self):
        with pytest.raises(InputError):
            construct_strict_hadwiger(0)


class TestRadius5Packing:
    def test_line_exact(self):
        res = pack_unit_balls_radius5(1, FAST)
        assert res.score == 5 and res.feasible
        centers = sorted(b.center.coords[0] for b in res.best)
        assert centers == [-4.0, -2.0, 0.0, 2.0, 4.0]

    def test_plane_reaches_nineteen(self):
        res = pack_unit_balls_radius5(2, FAST)
        assert res.score == 19
        assert res.feasible

    def test_packing_constraints_hold(self):
        res = pack_unit_balls_radius5(2, FAST)
        pts = [np.array(b.center.coords) for b in res.best]
        assert np.all(pts[0] == 0.0)  # pinned at the origin
        for p in pts:
            assert float(np.sqrt(p @ p)) <= 4.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert float(np.sqrt((pts[i] - pts[j]) @ (pts[i] - pts[j]))) >= 2.0 - 1e-9

    def test_three_dims_beats_lattice_floor(self):
        res = pack_unit_balls_radius5(3, SearchConfig(seed=0, budget=400, restarts=1))
        assert 27 <= res.score <= 125
        assert res.feasible

    def test_deterministic(self):
        cfg = SearchConfig(seed=5, budget=700, restarts=2)
        a = pack_unit_balls_radius5(2, cfg)
        b = pack_unit_balls_radius5(2, cfg)
        assert a.score == b.score
        for x, y in zip(a.best, b.best):
            assert x.center.coords == y.center.coords

    def test_bad_dimension(self):
        with pytest.raises(InputError):
            pack_unit_balls_radius5(0, FAST)


def random_common_point_family(rng, m, frac_lo=0.5, frac_hi=1.0):
    sp = Space.euclidean(2)
    y = rng.uniform(-1, 1, 2)
    balls = []
    for _ in range(2 * m + 1):
        r = rng.uniform(0.5, 2.0)
        ang = rng.uniform(0, 2 * math.pi)
        d = r * rng.uniform(frac_lo, frac_hi)
        balls.append(Ball(Point((y[0] + d * math.cos(ang), y[1] + d * math.sin(ang))), r))
    return BallFamily(sp, tuple(balls))


class TestCipCheck:
    def test_concentric_trivial(self):
        sp = Space.euclidean(2)
        fam = BallFamily(sp, tuple(Ball(Point((0.0, 0.0)), r) for r in (1.0, 1.2, 1.4)))
        res = cip_check(fam, 1, 0.9)
        assert res.found
        assert len(res.indices) == 2

    def test_symmetric_triple(self):
        sp = Space.euclidean(2)
        cent = [
            (0.9 * math.cos(2 * math.pi * k / 3), 0.9 * math.sin(2 * math.pi * k / 3))
            for k in range(3)
        ]
        fam = BallFamily(sp, tuple(Ball(Point(c), 1.0) for c in cent))
        res = cip_check(fam, 1, 0.9)
        assert res.found
        for i in res.indices:
            assert distance(sp, res.witness, fam[i].center) <= 0.9 * fam[i].radius + 1e-9

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_found_on_random_configs(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(150):
            fam = random_common_point_family(rng, m)
            res = cip_check(fam, m, 0.95)
            assert res.found
            assert len(res.indices) == m + 1
            assert res.indices == tuple(sorted(res.indices))
            for i in res.indices:
                assert (
                    distance(fam.space, res.witness, fam[i].center)
                    <= 0.95 * fam[i].radius + 1e-9
                )

    def test_tight_configs_still_found(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            fam = random_common_point_family(rng, 2, frac_lo=0.97, frac_hi=0.995)
            assert cip_check(fam, 2, 0.95).found

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        fam = random_common_point_family(rng, 2)
        a = cip_check(fam, 2, 0.9)
        b = cip_check(fam, 2, 0.9)
        assert a.indices == b.indices
        assert a.witness.coords == b.witness.coords

    def test_rejects_bad_arguments(self):
        sp = Space.euclidean(2)
        fam = BallFamily(sp, tuple(Ball(Point((0.0, 0.0)), r) for r in (1.0, 1.2, 1.4)))
        with pytest.raises(InputError):
            cip_check(fam, 0, 0.9)
        with pytest.raises(InputError):
            cip_check(fam, True, 0.9)
        with pytest.raises(InputError):
            cip_check(fam, 1, 1.0)
        with pytest.raises(InputError):
            cip_check(fam, 2, 0.9)  # needs 5 balls

    def test_rejects_family_without_common_point(self):
        sp = Space.euclidean(2)
        fam = BallFamily(
            sp,
            (
                Ball(Point((0.0, 0.0)), 1.0),
                Ball(Point((10.0, 0.0)), 1.0),
                Ball(Point((20.0, 0.0)), 1.0),
            ),
        )
        with pytest.raises(InputError):
            cip_check(fam, 1, 0.9)


class TestSatelliteSearch:
    def test_validation(self):
        cfg = SearchConfig(seed=0, budget=200, restarts=1)
        with pytest.raises(InputError):
            satellite_max_search(Space.euclidean(1), 1.0, 1.0, cfg)
        with pytest.raises(InputError):
            satellite_max_search(Space.euclidean(1), 2.5, 1.0, cfg)
        with pytest.raises(InputError):
            satellite_max_search(Space.euclidean(1), 1.5, 0.5, cfg)

    def test_finds_nontrivial_configuration(self):
        cfg = SearchConfig(seed=0, budget=1200, restarts=2)
        res = satellite_max_search(Space.euclidean(1), 2.0, 1.0, cfg)
        assert res.score >= 2
        assert res.feasible
        assert res.score == len(res.best)
        assert max(res.trace) == res.score

    def test_deterministic(self):
        cfg = SearchConfig(seed=4, budget=800, restarts=2)
        a = satellite_max_search(Space.euclidean(2), 1.5, 2.0, cfg)
        b = satellite_max_search(Space.euclidean(2), 1.5, 2.0, cfg)
        assert a.score == b.score and a.trace == b.trace

    def test_wider_roundness_never_loses_on_this_seed(self):
        cfg = SearchConfig(seed=3, budget=600, restarts=1)
        tight = satellite_max_search(Space.euclidean(1), 2.0, 1.0, cfg)
        loose = satellite_max_search(Space.euclidean(1), 2.0, 2.0, cfg)
        assert loose.score >= tight.score

    def test_validity_survives_roundness_relaxation(self):
        # any configuration valid with per-set roundness 1 stays valid
        # when the same sets are re-declared with roundness 2
        sp = Space.euclidean(2)
        sets1 = [
            QuasiRoundSet(Point((0.0, 0.0)), 1.0, 1.0, 2.0),
            QuasiRoundSet(Point((1.8, 0.0)), 0.9, 1.0, 1.8),
            QuasiRoundSet(Point((0.9, 0.8)), 0.85, 1.0, 1.7),
        ]
        pts = [s.anchor for s in sets1]
        assert is_tau_satellite_configuration(sp, sets1, pts, 1.5).is_valid
        sets2 = [
            QuasiRoundSet(s.anchor, s.inner_radius, 2.0, s.diameter) for s in sets1
        ]
        assert is_tau_satellite_configuration(sp, sets2, pts, 1.5).is_valid


class TestConstantsReport:
    def test_low_dims_match_classical_values(self):
        rows = constants_report([1, 2], SearchConfig(seed=0, budget=1500, restarts=2))
        got = {(r.name, r.dim): r.achieved_lower_bound for r in rows}
        assert got[("w", 1)] == 2
        assert got[("Hstar", 1)] == 2
        assert got[("K", 1)] == 2
        assert got[("beta", 1)] == 5
        assert got[("w", 2)] == 5
        assert got[("Hstar", 2)] == 5
        assert got[("beta", 2)] == 19

    def test_row_structure(self):
        rows = constants_report([1], SearchConfig(seed=0, budget=400, restarts=1))
        names = [r.name for r in rows]
        assert names == ["w", "Hstar", "K", "alpha", "beta"]

    def test_dim_three_has_no_k_row(self):
        rows = constants_report([3], SearchConfig(seed=0, budget=400, restarts=1))
        names = [r.name for r in rows]
        assert "K" not in names
        assert {"w", "Hstar", "alpha", "beta"} <= set(names)

    def test_markdown_rendering(self):
        rows = constants_report([1], SearchConfig(seed=0, budget=400, restarts=1))
        text = constants_markdown(rows)
        assert text.splitlines()[0].startswith("| constant |")
        assert "| w | 1 | 2 | 2 |" in text
        assert "| beta | 1 | 5 | 5 |" in text

    def test_interval_rendering(self):
        rows = constants_report([2], SearchConfig(seed=0, budget=800, restarts=1))
        text = constants_markdown(rows)
        assert "[8, 11]" in text  # the pairwise-intersecting constant row

    def test_rejects_bad_dims(self):
        with pytest.raises(InputError):
            constants_report([5], FAST)

    def test_deterministic(self):
        cfg = SearchConfig(seed=1, budget=600, restarts=1)
        assert constants_report([1, 2], cfg) == constants_report([1, 2], cfg)


# ---------------------------------------------------------------------------
# internal guards: explicit raises that survive python -O
# ---------------------------------------------------------------------------

TINY = SearchConfig(seed=0, budget=20, restarts=1)


def _no_loops(*args):
    return iter(())


class TestInternalGuards:
    def test_pack_warm_start_off_origin(self, monkeypatch):
        monkeypatch.setattr(search, "_clamp_to_radius", lambda v: np.asarray(v, float) + 0.5)
        with pytest.raises(InternalError, match="origin"):
            pack_unit_balls_radius5(3, TINY)

    def test_pack_volume_cap(self, monkeypatch):
        crowd = [np.zeros(2) for _ in range(26)]
        monkeypatch.setattr(search, "_pack_warm_start", lambda dim: crowd)
        with pytest.raises(InternalError, match="volume cap 25"):
            pack_unit_balls_radius5(2, TINY)

    def test_pack_without_restarts(self, monkeypatch):
        monkeypatch.setattr(search, "range", _no_loops, raising=False)
        with pytest.raises(InternalError, match="no restart"):
            pack_unit_balls_radius5(2, TINY)

    def test_satellite_without_restarts(self, monkeypatch):
        monkeypatch.setattr(search, "range", _no_loops, raising=False)
        with pytest.raises(InternalError, match="no restart"):
            satellite_max_search(Space.euclidean(2), 1.5, 1.0, TINY)

    def test_hadwiger_lost_tangency(self, monkeypatch):
        monkeypatch.setattr(search, "_icosahedron_directions", lambda: [(0.5, 0.0, 0.0)] * 12)
        with pytest.raises(InternalError, match="lost tangency"):
            construct_strict_hadwiger(3)

    def test_hadwiger_overlap(self, monkeypatch):
        monkeypatch.setattr(search, "_icosahedron_directions", lambda: [(1.0, 0.0, 0.0)] * 12)
        with pytest.raises(InternalError, match="not strictly disjoint"):
            construct_strict_hadwiger(3)

    def test_constants_w_family_infeasible(self, monkeypatch):
        real = search.search_max_besicovitch_family

        def infeasible(*args):
            res = real(*args)
            return SearchResult(res.best, res.score, False, res.trace)

        monkeypatch.setattr(search, "search_max_besicovitch_family", infeasible)
        with pytest.raises(InternalError, match="w family for dim 1"):
            constants_report([1], TINY)

    def test_constants_packing_infeasible(self, monkeypatch):
        real = search.pack_unit_balls_radius5

        def infeasible(*args):
            res = real(*args)
            return SearchResult(res.best, res.score, False, res.trace)

        monkeypatch.setattr(search, "pack_unit_balls_radius5", infeasible)
        with pytest.raises(InternalError, match="radius-5 packing for dim 1"):
            constants_report([1], TINY)

    def test_constants_classical_chain(self, monkeypatch):
        # alpha(1) = 10 > beta(1) = 5 breaks w <= K <= alpha <= beta
        monkeypatch.setitem(search._PAPER_ALPHA, 1, 10)
        with pytest.raises(InternalError, match="classical chain broken at dim 1"):
            constants_report([1], TINY)

    def test_constants_achieved_chain(self, monkeypatch):
        # a one-ball packing certifies beta(1) >= 1, below the w bound of 2
        one = BallFamily(Space.euclidean(1), (Ball(Point((0.0,)), 1.0),))
        monkeypatch.setattr(search, "pack_unit_balls_radius5",
                            lambda dim, config: SearchResult(one, 1, True, (1,)))
        with pytest.raises(InternalError, match="achieved chain broken at dim 1"):
            constants_report([1], TINY)

    def test_guards_survive_optimized_mode(self):
        code = (
            "from ballcover import InternalError, SearchConfig, search\n"
            "search._PAPER_ALPHA[1] = 10\n"
            "try:\n"
            "    search.constants_report([1], SearchConfig(budget=20, restarts=1))\n"
            "except InternalError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(search.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout == "raised: classical chain broken at dim 1\n", out.stderr
