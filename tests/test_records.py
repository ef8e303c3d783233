"""Value semantics of the package's fifteen records.

Eight records validate their fields or are built in hot loops; they are
slotted classes on a shared base and behave as frozen value objects:
equal to a record of the same class with equal fields (never to one of
another class, a subclass included), hashed on their fields, closed to
assignment and deletion, and pickled through their constructor.  The
other seven are ``typing.NamedTuple`` results, like ``FeasibilityResult``:
also immutable, and equal as tuples.  Constructor checks keep their
messages, and a scene without a ``pnorm`` or ``radius`` gets the
defaults.  A ``BallFamily`` made from columns equals the family of its
balls, builds them only on first use, and checks its columns as the
constructor checks balls.
"""

import json
import math
import pickle

import pytest

from ballcover.covering import BallFamily, OverlapProfile, QuasiRoundSet, Verdict
from ballcover.errors import InputError
from ballcover.geometry import Ball, Point, Space, Tangent, distance
from ballcover.sceneio import SceneFile, parse_scene
from ballcover.search import CipResult, ConstantsRow, SearchConfig, SearchResult
from ballcover.selection import DisjointPartition, SubcoverResult


def family():
    space = Space.euclidean(2)
    return BallFamily(space, [Ball(Point((0.0, 0.0)), 1.0), Ball(Point((1.5, 0.0)), 1.0)])


# name -> a function building a fresh record; two calls give equal records
# that share no objects
SLOTTED = {
    "Space": lambda: Space.sphere(2, radius=3.0),
    "Point": lambda: Point((1.0, -2.0)),
    "Tangent": lambda: Tangent(Point((0.0, 0.0, 1.0)), (0.5, 0.0, 0.0)),
    "Ball": lambda: Ball(Point((1.0, 2.0)), 0.5),
    "BallFamily": family,
    "QuasiRoundSet": lambda: QuasiRoundSet(Point((0.0, 0.0)), 1.0, 1.5, 2.5),
    "SearchConfig": lambda: SearchConfig(seed=7, budget=50, restarts=2),
    "ConstantsRow": lambda: ConstantsRow("K", 2, (8, 11), 5, "search"),
}
TUPLES = {
    "Verdict": lambda: Verdict("invalid", reason="balls 0 and 1 do not intersect",
                               witness=(0, 1)),
    "OverlapProfile": lambda: OverlapProfile(2, Point((0.5, 0.0)), {1: 3, 2: 1}),
    "SceneFile": lambda: SceneFile(Space.euclidean(2), family(), points=(Point((0.0, 1.0)),)),
    "SearchResult": lambda: SearchResult(family(), 2, True, (1, 2)),
    "CipResult": lambda: CipResult(True, (0, 1), Point((0.25, 0.0))),
    "SubcoverResult": lambda: SubcoverResult(
        family(), (True, True), OverlapProfile(1, None, {1: 2}), (0, 0)),
    "DisjointPartition": lambda: DisjointPartition(
        ((0,), (1,)), (0, 1), family_count_bound=2, tags=(0, 1)),
}
RECORDS = {**SLOTTED, **TUPLES}
NAMES = sorted(RECORDS)

# records with a dict field are unhashable, as frozen dataclasses with one were
UNHASHABLE = {"OverlapProfile", "SubcoverResult"}


def other_record(name):
    """A record of a different class than ``name``'s."""
    return RECORDS[NAMES[(NAMES.index(name) + 1) % len(NAMES)]]()


def first_field(record):
    return record._fields[0]


def test_there_are_fifteen_records():
    assert len(RECORDS) == 15
    assert {RECORDS[name]().__class__.__name__ for name in NAMES} == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_records_and_hashes(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != other_record(name)


@pytest.mark.parametrize("name", NAMES)
def test_a_different_field_gives_a_different_record(name):
    a = RECORDS[name]()
    fields = [getattr(a, f) for f in a._fields]
    fields[-1] = ("changed",)
    if name in SLOTTED:
        changed = object.__new__(type(a))
        for f, v in zip(a._fields, fields):
            object.__setattr__(changed, f, v)
    else:
        changed = type(a)(*fields)
    assert a != changed


@pytest.mark.parametrize("name", sorted(SLOTTED))
def test_a_slotted_record_equals_only_its_own_class(name):
    a = SLOTTED[name]()
    sub = type(a.__class__.__name__ + "Copy", (a.__class__,), {"__slots__": ()})
    twin = object.__new__(sub)
    for f in a.__slots__:
        object.__setattr__(twin, f, getattr(a, f))
    assert a != twin and twin != a
    assert a != tuple(getattr(a, f) for f in a._fields)


@pytest.mark.parametrize("name", sorted(TUPLES))
def test_a_named_tuple_record_compares_as_a_tuple(name):
    a = TUPLES[name]()
    assert a == tuple(a)
    assert a._replace(**{first_field(a): getattr(a, first_field(a))}) == a


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    a = RECORDS[name]()
    field = first_field(a)
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert getattr(a, field) is before


def test_the_repr_names_every_field():
    # parametrized test ids are built from this text
    assert repr(Space.euclidean(2)) == "Space(kind='euclidean', dim=2, pnorm=2.0, radius=1.0)"
    assert repr(Ball(Point((1.0, 2.0)), 0.5)) == "Ball(center=Point(coords=(1.0, 2.0)), radius=0.5)"
    assert repr(Verdict("valid")) == "Verdict(status='valid', reason=None, witness=None)"


@pytest.mark.parametrize("name", ["Space", "Point", "Ball", "BallFamily"])
def test_pickle_round_trip(name):
    a = RECORDS[name]()
    clone = pickle.loads(pickle.dumps(a))
    assert clone == a and hash(clone) == hash(a) and type(clone) is type(a)


def test_a_pickled_space_rebuilds_its_model():
    space = Space.hyperbolic(3)
    clone = pickle.loads(pickle.dumps(space))
    p, q = space.point([0.0, 0.0, 0.0, 1.0]), space.point([0.0, 0.0, 0.75, 1.25])
    assert clone._model is not space._model
    assert distance(clone, p, q) == distance(space, p, q)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Ball(Point((0.0,)), -1.0), "ball radius must be finite and >= 0, got -1.0"),
        (lambda: Ball(Point((0.0,)), math.inf), "ball radius must be finite and >= 0, got inf"),
        (lambda: Ball(Point((0.0,)), math.nan), "ball radius must be finite and >= 0, got nan"),
        (lambda: Space("torus", 2), "unknown space kind 'torus'"),
        (lambda: Space("euclidean", 0), "dimension must be a positive integer, got 0"),
        (lambda: Space("euclidean", 2.0), "dimension must be a positive integer, got 2.0"),
        (lambda: Space.euclidean(2, pnorm=0.5), "pnorm must be >= 1, got 0.5"),
        (lambda: Space.euclidean(2, pnorm=math.nan), "pnorm must be >= 1, got nan"),
        (lambda: QuasiRoundSet(Point((0.0,)), 0.0, 1.0, 1.0),
         "inner radius must be > 0, got 0.0"),
        (lambda: QuasiRoundSet(Point((0.0,)), 1.0, 0.5, 1.0),
         "roundness factor must be >= 1, got 0.5"),
        (lambda: QuasiRoundSet(Point((0.0,)), 1.0, 1.0, 2.5),
         "diameter 2.5 outside the sandwich range [1.0, 2.0]"),
        (lambda: SearchConfig(budget=0), "budget must be >= 1, got 0"),
        (lambda: SearchConfig(restarts=0), "restarts must be >= 1, got 0"),
        (lambda: ConstantsRow("zeta", 1, 2, 2, "x"), "unknown constant name 'zeta'"),
    ],
)
def test_constructor_errors_keep_their_messages(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "space,expected",
    [
        ({"kind": "euclidean", "dim": 2}, Space.euclidean(2)),
        ({"kind": "euclidean", "dim": 2, "pnorm": 3}, Space.euclidean(2, pnorm=3.0)),
        ({"kind": "sphere", "dim": 2}, Space.sphere(2)),
        ({"kind": "sphere", "dim": 2, "radius": 2}, Space.sphere(2, radius=2.0)),
        ({"kind": "hyperbolic", "dim": 2}, Space.hyperbolic(2)),
    ],
)
def test_a_scene_without_the_space_parameter_gets_the_default(space, expected):
    scene = parse_scene(json.dumps({"version": 1, "space": space, "balls": []}))
    assert scene.space == expected
    assert (scene.space.pnorm, scene.space.radius) == (expected.pnorm, expected.radius)
    assert type(scene.space.pnorm) is float and type(scene.space.radius) is float


# ---------------------------------------------------------------------------
# a family stored as columns
# ---------------------------------------------------------------------------

COORDS = [(0.0, 0.0), (1.5, 0.0), (-2.0, 3.25)]
RADII = [1.0, 0.5, 0.0]


def column_family():
    return BallFamily.from_columns(Space.euclidean(2), COORDS, RADII)


def ball_family():
    return BallFamily(Space.euclidean(2), [Ball(Point(c), r) for c, r in zip(COORDS, RADII)])


@pytest.fixture
def ball_count(monkeypatch):
    """How many ``Ball``s are built while the test runs."""
    made = []
    init = Ball.__init__

    def counted(self, center, radius):
        made.append(radius)
        init(self, center, radius)

    monkeypatch.setattr(Ball, "__init__", counted)
    return made


def test_a_column_family_equals_the_family_of_its_balls():
    a, b = column_family(), ball_family()
    assert a == b and b == a and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.balls == b.balls and list(a) == list(b) and a[2] == b[2]
    assert a.centers == b.centers
    clone = pickle.loads(pickle.dumps(column_family()))
    assert clone == b and type(clone) is BallFamily


def test_columns_and_length_build_no_ball(ball_count):
    a = column_family()
    assert len(a) == 3
    assert a.coords == tuple(COORDS) and a.radii == tuple(RADII)
    sub = a._subset([2, 0])
    assert len(sub) == 2 and sub.coords == (COORDS[2], COORDS[0])
    assert ball_count == []
    balls = sub.balls
    assert ball_count == [0.0, 1.0] and sub.balls is balls  # built once, on first use
    assert balls == (Ball(Point(COORDS[2]), 0.0), Ball(Point(COORDS[0]), 1.0))


def test_a_ball_family_gives_its_columns():
    b = ball_family()
    assert b.coords == tuple(COORDS) and b.radii == tuple(RADII)
    assert b._subset([1]) == BallFamily(b.space, [b[1]])
    assert len(BallFamily.from_columns(Space.euclidean(1), [], [])) == 0


@pytest.mark.parametrize(
    "coords,radii,message",
    [
        ([(0.0, 0.0)], [1.0, 2.0], "1 centers for 2 radii"),
        ([(0.0, 0.0), (1.0,)], [1.0, 2.0], "ball 1 center has 1 coordinates, expected 2"),
        ([(0.0, 0.0), (1.0, 1.0)], [1.0, -2.0], "ball 1 radius must be finite and >= 0, got -2.0"),
        ([(0.0, 0.0)], [math.nan], "ball 0 radius must be finite and >= 0, got nan"),
        ([(0.0, 0.0)], [math.inf], "ball 0 radius must be finite and >= 0, got inf"),
    ],
)
def test_from_columns_checks_as_the_constructor_does(coords, radii, message):
    with pytest.raises(InputError) as info:
        BallFamily.from_columns(Space.euclidean(2), coords, radii)
    assert str(info.value) == message
