"""The readers of a ball family read its columns and build no ``Ball``.

A parsed scene stores its family as columns: the center coordinate
tuples ``coords`` and the ``radii``.  Selection, colouring, overlap
profiles, the validators, the shrunk-common-point check and
``validate --what alpha-config`` read those columns, and points made
from them, so on such a family none of them builds a ``Ball`` (the
alpha-config command builds one, its target, which
``is_alpha_configuration`` takes as a ``Ball``).  Each result equals the
one from the same family made from balls.  Every constructor stores
the columns, so reading them never reaches ``__getattr__``, which builds
only the ``balls`` of a family made from columns.
"""

import contextlib
import io
import json
import math
import random

import pytest
from test_records import ball_count  # noqa: F401  (a fixture)

from ballcover.cli import run_command
from ballcover.covering import (
    BallFamily,
    is_alpha_configuration,
    is_besicovitch_family,
    is_k_configuration,
    overlap_profile,
)
from ballcover.geometry import Ball, Point, Space
from ballcover.sceneio import parse_scene
from ballcover.search import cip_check
from ballcover.selection import (
    cip_subcover,
    partition_into_disjoint_families,
    select_bounded_overlap_subcover,
)

PLANE = {"kind": "euclidean", "dim": 2, "pnorm": 2.0}
LINE = {"kind": "euclidean", "dim": 1, "pnorm": 2.0}


def five_around_the_origin():
    # a Besicovitch family: the origin is common, no center lies in another ball
    return PLANE, [
        ((math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5)), 1.05 + 0.01 * k)
        for k in range(5)
    ]


def a_target_and_five():
    # ball 0 meets the other five and is below 0.75 times each of their radii
    return PLANE, [((0.0, 0.0), 0.7)] + five_around_the_origin()[1]


def crowded_plane():
    rng = random.Random(17)
    return PLANE, [((rng.uniform(0, 12), rng.uniform(0, 12)), rng.uniform(0.3, 2.5))
                   for _ in range(60)]


def crowded_line():
    rng = random.Random(23)
    return LINE, [((rng.uniform(0, 40),), rng.uniform(0.2, 3.0)) for _ in range(50)]


SCENES = {
    "five-around-the-origin": five_around_the_origin,
    "a-target-and-five": a_target_and_five,
    "crowded-plane": crowded_plane,
    "crowded-line": crowded_line,
}


def scene_text(space, balls):
    return json.dumps({
        "version": 1,
        "space": space,
        "balls": [{"center": list(c), "radius": r} for c, r in balls],
    })


# the alpha-config targets, by dimension, built before any count starts
TARGET = {1: Ball(Point((20.0,)), 0.1), 2: Ball(Point((0.0, 0.0)), 0.7)}


def readers(family):
    """Every reader's result on ``family``, by name."""
    centers = family.centers
    out = {
        "select": select_bounded_overlap_subcover(family, centers),
        "partition": partition_into_disjoint_families(family),
        "cip_subcover": cip_subcover(family, 2, 0.5),
        "overlap_probes": overlap_profile(family, probes=centers),
        "besicovitch": is_besicovitch_family(family),
        "k_config": is_k_configuration(family),
        # the family less its first ball, against a target built here
        "alpha_config": is_alpha_configuration(
            family._subset(range(1, len(family))), TARGET[family.space.dim], 0.75
        ),
    }
    if family.space.is_line:
        out["overlap_exact"] = overlap_profile(family)
    if out["besicovitch"].is_valid:  # the check needs a common point
        out["cip_check"] = cip_check(family, 2, 0.95)
    return out


@pytest.mark.parametrize("name", SCENES)
def test_the_readers_build_no_ball_on_a_parsed_family(name, ball_count):  # noqa: F811
    space, balls = SCENES[name]()
    scene = parse_scene(scene_text(space, balls))
    got = readers(scene.family)
    assert ball_count == []
    # compared only now: the equality of two families reads their balls
    assert got == readers(BallFamily(scene.space, [Ball(Point(c), r) for c, r in balls]))


@pytest.mark.parametrize("name", SCENES)
def test_alpha_config_builds_only_its_target(name, tmp_path, ball_count):  # noqa: F811
    space, balls = SCENES[name]()
    path = tmp_path / "scene.json"
    path.write_text(scene_text(space, balls))
    argv = ["validate", str(path), "--what", "alpha-config", "--target-index", "0"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv)
    assert ball_count == [balls[0][1]]
    target = Ball(Point(balls[0][0]), balls[0][1])
    rest = BallFamily(parse_scene(path.read_text()).space, [Ball(Point(c), r) for c, r in balls[1:]])
    verdict = is_alpha_configuration(rest, target, 0.75)
    payload = json.loads(out.getvalue())["payload"]
    assert code == (0 if verdict.is_valid else 1)
    assert (payload["status"], payload["reason"], payload["witness"]) == (
        verdict.status, verdict.reason, verdict.witness)


def test_every_constructor_stores_the_columns(monkeypatch):
    # an unset slot is the only way into ``__getattr__``: record what reaches it
    asked = []
    build = BallFamily.__getattr__
    monkeypatch.setattr(BallFamily, "__getattr__",
                        lambda self, name: asked.append(name) or build(self, name))
    _, balls = five_around_the_origin()
    coords, radii = [c for c, _ in balls], [r for _, r in balls]
    made = BallFamily(Space.euclidean(2), [Ball(Point(c), r) for c, r in balls])
    parsed = BallFamily.from_columns(Space.euclidean(2), coords, radii)
    for family in (made, parsed, parsed._subset([3, 1]), made._subset([])):
        assert len(family) == len(family.coords) == len(family.radii)
        assert [p.coords for p in family.centers] == list(family.coords)
    assert asked == []
    assert parsed.balls == made.balls and asked == ["balls"]
    assert (made.coords, made.radii) == (tuple(coords), tuple(radii))
