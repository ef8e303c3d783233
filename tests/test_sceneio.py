"""Tests for scene parsing, serialization, digests, and report envelopes."""

import hashlib
import json
import math
import sys

import numpy as np
import pytest

from ballcover import Ball, BallFamily, QuasiRoundSet, Space
from ballcover.errors import InputError
from ballcover.geometry import Point
from ballcover.sceneio import (
    MAX_BARE_DIM,
    SceneFile,
    ball_doc,
    ball_docs,
    build_report,
    parse_scene,
    render_report,
    scene_digest,
    serialize_scene,
)


def minimal_text():
    return json.dumps(
        {
            "version": 1,
            "space": {"kind": "euclidean", "dim": 1},
            "balls": [{"center": [0], "radius": 1}],
        }
    )


class TestParseScene:
    def test_minimal_document(self):
        scene = parse_scene(minimal_text())
        assert scene.version == 1
        assert scene.space.kind == "euclidean" and scene.space.dim == 1
        assert len(scene.family) == 1
        assert scene.family[0].center.coords == (0.0,)
        assert scene.family[0].radius == 1.0
        assert scene.points == () and scene.sets == ()

    def test_missing_version(self):
        doc = json.loads(minimal_text())
        del doc["version"]
        with pytest.raises(InputError, match="version"):
            parse_scene(json.dumps(doc))

    def test_unsupported_version(self):
        doc = json.loads(minimal_text())
        doc["version"] = 2
        with pytest.raises(InputError, match="version"):
            parse_scene(json.dumps(doc))

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_number(self, token):
        text = minimal_text().replace('"radius": 1', f'"radius": {token}')
        with pytest.raises(InputError):
            parse_scene(text)

    def test_dimension_mismatch_names_ball_index(self):
        doc = {
            "version": 1,
            "space": {"kind": "euclidean", "dim": 2},
            "balls": [
                {"center": [0.0, 0.0], "radius": 1.0},
                {"center": [1.0], "radius": 1.0},
            ],
        }
        with pytest.raises(InputError, match="ball 1"):
            parse_scene(json.dumps(doc))

    def test_off_sphere_center_names_ball_index(self):
        doc = {
            "version": 1,
            "space": {"kind": "sphere", "dim": 2},
            "balls": [
                {"center": [0.0, 0.0, 1.0], "radius": 0.5},
                {"center": [0.5, 0.5, 0.5], "radius": 0.5},
            ],
        }
        with pytest.raises(InputError, match="ball 1"):
            parse_scene(json.dumps(doc))

    def test_bad_point_names_index(self):
        doc = json.loads(minimal_text())
        doc["points"] = [[0.0], [1.0, 2.0]]
        with pytest.raises(InputError, match="point 1"):
            parse_scene(json.dumps(doc))

    def test_bad_set_names_index(self):
        doc = json.loads(minimal_text())
        doc["sets"] = [
            {"anchor": [0.0], "inner_radius": 1.0, "lambda": 1.0, "diameter": 2.0},
            {"anchor": [0.0], "inner_radius": -1.0, "lambda": 1.0, "diameter": 2.0},
        ]
        with pytest.raises(InputError, match="set 1"):
            parse_scene(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(InputError, match="JSON"):
            parse_scene("{nope")

    def test_not_an_object(self):
        with pytest.raises(InputError):
            parse_scene("[1, 2]")

    def test_balls_must_be_array(self):
        doc = json.loads(minimal_text())
        doc["balls"] = {"center": [0], "radius": 1}
        with pytest.raises(InputError):
            parse_scene(json.dumps(doc))

    def test_unknown_space_kind(self):
        doc = json.loads(minimal_text())
        doc["space"] = {"kind": "minkowski", "dim": 4}
        with pytest.raises(InputError, match="kind"):
            parse_scene(json.dumps(doc))

    def test_boolean_is_not_a_number(self):
        doc = json.loads(minimal_text())
        doc["balls"][0]["radius"] = True
        with pytest.raises(InputError):
            parse_scene(json.dumps(doc))


class TestRoundTrip:
    def scenes_equal(self, a, b):
        assert a.version == b.version
        assert a.space == b.space
        assert len(a.family) == len(b.family)
        for x, y in zip(a.family, b.family):
            assert x.center.coords == y.center.coords and x.radius == y.radius
        assert tuple(p.coords for p in a.points) == tuple(p.coords for p in b.points)
        assert len(a.sets) == len(b.sets)
        for s, t in zip(a.sets, b.sets):
            assert s.anchor.coords == t.anchor.coords
            assert (s.inner_radius, s.lam, s.diameter) == (
                t.inner_radius,
                t.lam,
                t.diameter,
            )

    def test_minimal_round_trip(self):
        scene = parse_scene(minimal_text())
        again = parse_scene(serialize_scene(scene))
        self.scenes_equal(scene, again)

    def test_large_random_round_trip(self):
        rng = np.random.default_rng(31)
        balls = [
            {"center": [float(x) for x in rng.uniform(-1e6, 1e6, 3)],
             "radius": float(math.exp(rng.uniform(-5, 5)))}
            for _ in range(1000)
        ]
        doc = {
            "version": 1,
            "space": {"kind": "euclidean", "dim": 3},
            "balls": balls,
            "points": [[float(x) for x in rng.uniform(-10, 10, 3)] for _ in range(50)],
        }
        scene = parse_scene(json.dumps(doc))
        again = parse_scene(serialize_scene(scene))
        self.scenes_equal(scene, again)

    def test_sets_round_trip(self):
        doc = json.loads(minimal_text())
        doc["sets"] = [
            {"anchor": [0.25], "inner_radius": 0.5, "lambda": 2.0, "diameter": 1.5}
        ]
        scene = parse_scene(json.dumps(doc))
        again = parse_scene(serialize_scene(scene))
        self.scenes_equal(scene, again)
        assert again.sets[0].lam == 2.0

    def test_curved_space_round_trip(self):
        doc = {
            "version": 1,
            "space": {"kind": "sphere", "dim": 2, "radius": 2.0},
            "balls": [{"center": [0.0, 0.0, 2.0], "radius": 0.7}],
        }
        scene = parse_scene(json.dumps(doc))
        again = parse_scene(serialize_scene(scene))
        self.scenes_equal(scene, again)

    def test_serialization_is_deterministic(self):
        scene = parse_scene(minimal_text())
        assert serialize_scene(scene) == serialize_scene(scene)


class TestDigestAndReport:
    def test_digest_matches_sha256(self):
        text = minimal_text()
        assert scene_digest(text) == hashlib.sha256(text.encode()).hexdigest()

    TEXTS = {"empty": "", "ascii": "{\"version\": 1}\n", "multi-byte": "ε ≤ ∞, 𝔹 ⊂ ℝ²",
             "over 1 MB": "[0.125, -3.5e-07]\n" * 60_000}

    # the built-in hash of 3.12+ (_sha2), then of 3.11 and older (_sha256), then hashlib
    @pytest.mark.parametrize("blocked", [(), ("_sha2",), ("_sha2", "_sha256")],
                             ids=["built-in", "no _sha2", "hashlib"])
    @pytest.mark.parametrize("key", sorted(TEXTS))
    def test_digest_matches_sha256_on_every_import_path(self, key, blocked, monkeypatch):
        text = self.TEXTS[key]
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)  # importing it raises ImportError
        assert scene_digest(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()
        if blocked == ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, "hashlib", None)
            with pytest.raises(ImportError):  # hashlib is the last fallback
                scene_digest(text)

    def test_digest_changes_with_content(self):
        assert scene_digest("a") != scene_digest("b")

    def test_report_envelope(self):
        rep = build_report(["select", "x.json"], {"count": 2}, input_digest="ab", seed=7)
        assert rep["version"] == 1
        assert rep["command"] == ["select", "x.json"]
        assert rep["input_digest"] == "ab"
        assert rep["seed"] == 7
        assert rep["payload"] == {"count": 2}
        assert rep["wall_time_s"] is None

    def test_render_is_deterministic_and_sorted(self):
        rep = build_report(["volume"], {"b": 1, "a": 2})
        text = render_report(rep)
        assert text == render_report(rep)
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert json.loads(text)["payload"] == {"a": 2, "b": 1}


# ---------------------------------------------------------------------------
# one bad entry among a thousand: the error names it with the message the
# per-entry parser has always given
# ---------------------------------------------------------------------------

BIG = "1" + "0" * 400  # an integer literal beyond the float range
L2 = {"kind": "euclidean", "dim": 2}
S2 = {"kind": "sphere", "dim": 2}
H2 = {"kind": "hyperbolic", "dim": 2}


def coords(space, k):
    t = 0.001 * k
    if space["kind"] == "sphere":
        return [math.cos(t), math.sin(t), 0.0]
    if space["kind"] == "hyperbolic":
        return [t, 0.0, math.sqrt(1.0 + t * t)]
    return [0.5 * k, -0.25 * k]


def entry(space, key, k):
    if key == "points":
        return coords(space, k)
    if key == "sets":
        return {"anchor": coords(space, k), "inner_radius": 1.0, "lambda": 1.5,
                "diameter": 2.5}
    return {"center": coords(space, k), "radius": 0.25}


def scene_with(space, key, bad, n=1000, at=737):
    """A scene of n balls (and n entries of ``key``) whose entry ``at`` of
    ``key`` is the JSON text ``bad``."""
    doc = {"version": 1, "space": space,
           "balls": [entry(space, "balls", k) for k in range(n)]}
    doc[key] = [entry(space, key, k) for k in range(n)]
    doc[key][at] = "BAD"
    return json.dumps(doc).replace('"BAD"', bad)


DEFECTS = [
    ("missing center", L2, "balls", '{"radius": 0.25}',
     "ball 737: ball 737 is missing the 'center' field"),
    ("missing radius", L2, "balls", '{"center": [1.0, 2.0]}',
     "ball 737: ball 737 is missing the 'radius' field"),
    ("center not a list", L2, "balls", '{"center": 3.0, "radius": 0.25}',
     'ball 737: ball 737 center must be an array of numbers'),
    ("center an object", L2, "balls", '{"center": {"x": 1.0}, "radius": 0.25}',
     'ball 737: ball 737 center must be an array of numbers'),
    ("wrong width", L2, "balls", '{"center": [1.0, 2.0, 3.0], "radius": 0.25}',
     'ball 737: expected 2 coordinates, got 3'),
    ("bool coordinate", L2, "balls", '{"center": [1.0, true], "radius": 0.25}',
     'ball 737: ball 737 center[1] must be a number, got True'),
    ("string coordinate", L2, "balls", '{"center": ["1.5", 2.0], "radius": 0.25}',
     "ball 737: ball 737 center[0] must be a number, got '1.5'"),
    ("null coordinate", L2, "balls", '{"center": [null, 2.0], "radius": 0.25}',
     'ball 737: ball 737 center[0] must be a number, got None'),
    ("1e400 coordinate", L2, "balls", '{"center": [1.0, 1e400], "radius": 0.25}',
     'ball 737: ball 737 center[1] must be finite, got inf'),
    ("-1e400 coordinate", L2, "balls", '{"center": [-1e400, 2.0], "radius": 0.25}',
     'ball 737: ball 737 center[0] must be finite, got -inf'),
    # an integer literal beyond the float range is infinite, like 1e400
    ("integer beyond floats", L2, "balls", f'{{"center": [1.0, {BIG}], "radius": 0.25}}',
     'ball 737: ball 737 center[1] must be finite, got inf'),
    ("negative radius", L2, "balls", '{"center": [1.0, 2.0], "radius": -0.5}',
     'ball 737: ball radius must be finite and >= 0, got -0.5'),
    ("bool radius", L2, "balls", '{"center": [1.0, 2.0], "radius": false}',
     'ball 737: ball 737 radius must be a number, got False'),
    ("1e400 radius", L2, "balls", '{"center": [1.0, 2.0], "radius": 1e400}',
     'ball 737: ball 737 radius must be finite, got inf'),
    ("integer radius beyond floats", L2, "balls", f'{{"center": [1.0, 2.0], "radius": -{BIG}}}',
     'ball 737: ball 737 radius must be finite, got -inf'),
    ("ball not an object", L2, "balls", "[1.0, 2.0]",
     'ball 737 must be an object'),
    ("off-sphere center", S2, "balls", '{"center": [0.5, 0.5, 0.5], "radius": 0.25}',
     'ball 737: point with |x| = 0.8660254037844386 is not on the sphere of radius 1.0'),
    ("hyperboloid center below", H2, "balls", '{"center": [0.0, 0.0, -1.0], "radius": 0.25}',
     'ball 737: hyperboloid points need a positive last coordinate'),
    ("hyperboloid point below", H2, "points", "[0.0, 0.0, -1.0]",
     'point 737: hyperboloid points need a positive last coordinate'),
    ("hyperboloid point at zero", H2, "points", "[1.0, 0.0, 0]",
     'point 737: hyperboloid points need a positive last coordinate'),
    ("point not a list", L2, "points", '{"x": 1.0}',
     'point 737: point 737 must be an array of numbers'),
    ("point with a string", L2, "points", '[1.0, "2"]',
     "point 737: point 737[1] must be a number, got '2'"),
    ("point too short", L2, "points", "[1.0]",
     'point 737: expected 2 coordinates, got 1'),
    ("set anchor too short", L2, "sets",
     '{"anchor": [1.0], "inner_radius": 1.0, "lambda": 1.5, "diameter": 2.5}',
     'set 737: expected 2 coordinates, got 1'),
    ("set lambda beyond floats", L2, "sets",
     f'{{"anchor": [1.0, 2.0], "inner_radius": 1.0, "lambda": {BIG}, "diameter": 2.5}}',
     'set 737: set 737 lambda must be finite, got inf'),
    ("set lambda below one", L2, "sets",
     '{"anchor": [1.0, 2.0], "inner_radius": 1.0, "lambda": 0.5, "diameter": 2.5}',
     'set 737: roundness factor must be >= 1, got 0.5'),
    ("set missing diameter", L2, "sets",
     '{"anchor": [1.0, 2.0], "inner_radius": 1.0, "lambda": 1.5}',
     "set 737: set 737 is missing the 'diameter' field"),
]


@pytest.mark.parametrize("name,space,key,bad,message", DEFECTS, ids=[d[0] for d in DEFECTS])
def test_first_bad_entry_keeps_its_message(name, space, key, bad, message):
    with pytest.raises(InputError) as exc:
        parse_scene(scene_with(space, key, bad))
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# bulk-built objects equal the per-entry ones
# ---------------------------------------------------------------------------


def integral_scene(space, n=300):
    """A scene with points and sets whose every number is integral, so it
    can be written with JSON floats or with JSON integers."""
    dim = space["dim"]
    if space["kind"] == "euclidean":
        rows = [[float(k % 17 - 8 + j) for j in range(dim)] for k in range(n)]
    else:
        # (0, ..., 0, 1) and the axis points lie on both the sphere and,
        # for the last one, the hyperboloid
        rows = [[0.0] * dim + [1.0] for _ in range(n)]
        if space["kind"] == "sphere":
            rows[1::2] = [[1.0] + [0.0] * dim for _ in rows[1::2]]
    return {
        "version": 1, "space": space,
        "balls": [{"center": r, "radius": float(k % 5)} for k, r in enumerate(rows)],
        "points": rows[::7],
        "sets": [{"anchor": r, "inner_radius": 1.0, "lambda": 2.0, "diameter": 3.0}
                 for r in rows[::11]],
    }


def as_integers(value):
    if isinstance(value, float):
        return int(value)
    if isinstance(value, list):
        return [as_integers(v) for v in value]
    if isinstance(value, dict):
        return {k: v if k in ("space", "version") else as_integers(v) for k, v in value.items()}
    return value


def per_entry(doc):
    """The scene built entry by entry through the public constructors."""
    space = Space(**doc["space"])
    balls = [Ball(space.point(b["center"]), float(b["radius"])) for b in doc["balls"]]
    points = tuple(space.point(p) for p in doc["points"])
    sets = tuple(QuasiRoundSet(space.point(s["anchor"]), float(s["inner_radius"]),
                               float(s["lambda"]), float(s["diameter"])) for s in doc["sets"])
    return SceneFile(space, BallFamily(space, balls), points, sets)


SCENE_SPACES = [L2, {"kind": "euclidean", "dim": 1}, S2, H2,
                {"kind": "euclidean", "dim": 3, "pnorm": 1.0}]


@pytest.mark.parametrize("space", SCENE_SPACES, ids=lambda s: f"{s['kind']}{s['dim']}")
def test_integer_scene_parses_equal_to_its_float_twin(space):
    doc = integral_scene(space)
    floats, ints = json.dumps(doc), json.dumps(as_integers(doc))
    assert ints != floats and "." not in ints.split('"balls"')[1]
    parsed = parse_scene(ints)
    assert parsed == parse_scene(floats) == per_entry(doc)
    assert all(type(v) is float for b in parsed.family for v in (*b.center.coords, b.radius))


@pytest.mark.parametrize("space", SCENE_SPACES, ids=lambda s: f"{s['kind']}{s['dim']}")
def test_bulk_parse_equals_per_entry_construction(space):
    rng = np.random.default_rng(83)
    doc = integral_scene(space, 200)
    for b in doc["balls"]:
        if space["kind"] == "euclidean":
            b["center"] = [float(v) for v in rng.normal(0.0, 1e3, space["dim"])]
        else:
            # off the surface by up to 1e-8, so the re-projection runs
            b["center"] = [v + float(rng.uniform(-1e-8, 1e-8)) for v in b["center"]]
    assert parse_scene(json.dumps(doc)) == per_entry(doc)


@pytest.mark.parametrize("space", SCENE_SPACES, ids=lambda s: f"{s['kind']}{s['dim']}")
def test_float_scene_skips_the_per_entry_parser(space, monkeypatch):
    from ballcover import sceneio

    text = json.dumps(integral_scene(space))
    expected = parse_scene(text)

    def per_entry_parser_ran(*args, **kwargs):
        raise AssertionError("the per-entry parser ran on a well-formed scene")

    monkeypatch.setattr(sceneio, "_coords", per_entry_parser_ran)
    monkeypatch.setattr(Space, "point", per_entry_parser_ran)
    assert parse_scene(text) == expected


# ---------------------------------------------------------------------------
# the report writer equals json.dumps(report, sort_keys=True, indent=2)
# ---------------------------------------------------------------------------


def reference_render(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


class FloatLike(float):
    def __repr__(self):
        return "not used"


class IntLike(int):
    def __repr__(self):
        return "not used"


class StrLike(str):
    pass


EDGE_PAYLOADS = {
    "empty dict": {},
    "empty list": [],
    "nested empties": {"a": {}, "b": [], "c": [[], {}], "d": {"e": {"f": []}}},
    "tuples": {"t": (1, 2.5, (3, ())), "u": ()},
    "non-ascii": {"s": "café — \U0001f600", "ü": "key"},
    "control characters": {"s": "tab\there\nnew\x00nul\x1f\x7f\"quote\\\\"},
    "negative zero": [-0.0, 0.0, [-0.0]],
    "subnormal": [5e-324, -2.2250738585072014e-308, 1e-310],
    "huge floats": [1e308, -1.7976931348623157e308, [1e308, 1e308]],
    "non-finite": [math.inf, -math.inf, math.nan, [1.0, math.inf], [math.nan], [math.inf, -math.inf]],
    "bools next to ints": [True, 1, False, 0, {"a": True, "b": 1}, [True, False], [1, True]],
    "30-digit int": [123456789012345678901234567890, -10 ** 29, [10 ** 30, 1]],
    "null": [None, {"n": None}, [None]],
    "mixed list": [1, 2.5, "s", None, True, [1], {"k": 1.5}],
    "float keys and others": {1.5: "a", 2: "b", -0.0: "c"},
    "bool and null keys": {"x": {True: 1}, "y": {None: 2}, "z": {False: 0}},
    "subclasses": {"f": FloatLike(0.1), "i": IntLike(7), "s": StrLike("x"),
                   "l": [FloatLike(2.5), IntLike(3)]},
    "numpy scalars": {"f": np.float64(0.1), "l": [np.float64(-1e-5), np.float64(3.0)]},
    "deep": {"a": [[[[{"b": [[1.0]]}]]]]},
    "one float list": [0.1] * 5,
    "one int list": list(range(-3, 40)),
    "top-level scalar": 3.25,
    "top-level string": "é",
}


@pytest.mark.parametrize("payload", list(EDGE_PAYLOADS.values()), ids=list(EDGE_PAYLOADS))
def test_writer_matches_json_dumps_on_edge_payloads(payload):
    assert render_report(payload) == reference_render(payload)
    report = build_report(["x", "é"], payload, input_digest="ab", seed=3)
    assert render_report(report) == reference_render(report)


def line_family(pairs):
    return BallFamily(Space.euclidean(1), [Ball(Point((c,)), r) for c, r in pairs])


BALL_DOC_FAMILIES = {
    "empty": line_family([]),
    "line": line_family([(0.5, 1.0), (-0.0, 0.0), (5e-324, 1e308), (-1e308, 2.5)]),
    "plane columns": BallFamily.from_columns(
        Space.euclidean(2), [(0.1, -0.0), (1e-310, 3.0)], [0.25, 0.0]),
    "integer coordinates": BallFamily(Space.euclidean(2), [Ball(Point((1, -2)), 3)]),
    "infinite coordinate": line_family([(math.inf, 1.0), (0.0, 1.0)]),
    "float subclass": line_family([(FloatLike(0.1), 1.0)]),
}


@pytest.mark.parametrize("family", list(BALL_DOC_FAMILIES.values()), ids=list(BALL_DOC_FAMILIES))
def test_ball_docs_render_as_json_dumps(family):
    docs = ball_docs(family)
    assert docs == [ball_doc(b) for b in family]
    for payload in (docs, {"families": [docs, docs], "n": 1}, [[docs], docs]):
        assert render_report(payload) == reference_render(payload)


@pytest.mark.parametrize("space", SCENE_SPACES, ids=lambda s: f"{s['kind']}{s['dim']}")
def test_serialized_scene_matches_json_dumps(space):
    # a small scene: on a mismatch pytest diffs the texts line by line
    text = serialize_scene(parse_scene(json.dumps(integral_scene(space, 40))))
    assert text == reference_render(json.loads(text))


@pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes", {"k": [1, {2}]}],
                         ids=["set", "object", "bytes", "nested set"])
def test_writer_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as ours:
        render_report(value)
    with pytest.raises(TypeError) as theirs:
        reference_render(value)
    assert str(ours.value) == str(theirs.value)


def test_writer_rejects_keys_json_rejects():
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
        render_report({(1, 2): 3})


# a dim that no Space can allocate an origin for
HUGE_DIM = 10 ** 20
LIMIT = f"space dim {HUGE_DIM} exceeds {MAX_BARE_DIM} without coordinates"


@pytest.mark.parametrize("kind,entries,message", [
    ("euclidean", {"balls": [{"center": [0.0, 1.0], "radius": 1.0}]},
     f"ball 0: expected {HUGE_DIM} coordinates, got 2"),
    ("sphere", {"balls": [], "points": [[0.0, 1.0]]},
     f"point 0: expected {HUGE_DIM + 1} coordinates, got 2"),
    ("hyperbolic", {"sets": [{"anchor": [0.0, 1.0], "inner_radius": 1.0, "lambda": 1.0,
                              "diameter": 2.0}]},
     f"set 0: expected {HUGE_DIM + 1} coordinates, got 2"),
    ("euclidean", {"balls": []}, LIMIT),
    ("sphere", {}, LIMIT),
    ("euclidean", {"balls": [3.0]}, "ball 0 must be an object"),
], ids=["ball", "point", "set", "no-balls", "no-lists", "malformed-ball"])
def test_a_dim_beyond_the_coordinates_is_an_input_error(kind, entries, message):
    text = json.dumps({"version": 1, "space": {"kind": kind, "dim": HUGE_DIM}, **entries})
    with pytest.raises(InputError) as err:
        parse_scene(text)
    assert str(err.value) == message


def test_a_bare_scene_parses_up_to_the_dim_limit():
    for dim in (1, MAX_BARE_DIM):
        text = json.dumps({"version": 1, "space": {"kind": "euclidean", "dim": dim}, "balls": []})
        assert parse_scene(text).space.dim == dim
    text = text.replace(str(MAX_BARE_DIM), str(MAX_BARE_DIM + 1))
    with pytest.raises(InputError, match="exceeds 1000000 without coordinates"):
        parse_scene(text)
