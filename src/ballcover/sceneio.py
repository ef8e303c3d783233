"""Scene and report files: a small JSON dialect for ball families.

A scene document is a single JSON object with a mandatory integer
``version`` (currently 1), a ``space`` descriptor, a list of ``balls``,
and optional ``points`` and quasi-round ``sets``.  All numbers are
64-bit floats serialized with Python's shortest round-trip
representation, so ``serialize_scene(parse_scene(text))`` parses back to
an equal value.  Non-finite numbers, and integers beyond the float
range, are rejected at parse time.

Each list of the scene is checked in one pass: the JSON types, the
width of every coordinate array, and that every coordinate and number is
a finite float; then its points and records are built in one sweep,
except the balls: their family keeps the coordinate tuples and radii as
columns (:meth:`BallFamily.from_columns`) and builds its ``Ball`` objects
only when something asks for them.  A list that fails the pass (or holds
JSON integers, which parse as floats) goes through the per-entry parser,
which builds an equal family and names the first bad entry ("ball 3:
...") with its exact message.

Reports are JSON objects with deterministic key order: the echoed
command, a SHA-256 digest of the input document (when there is one), the
seed (when the command is randomized), the payload, and a wall-time slot
that stays null unless timing was explicitly requested — keeping reports
byte-identical across re-runs.  :func:`render_report` writes a report
directly; its text equals ``json.dumps(report, sort_keys=True,
indent=2) + "\n"`` byte for byte.
"""

from __future__ import annotations

import json
import math
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from typing import NamedTuple, Optional

from .covering import BallFamily, QuasiRoundSet
from .errors import InputError
from .geometry import SPACE_KINDS, Ball, Point, Space

__all__ = [
    "SceneFile",
    "parse_scene",
    "serialize_scene",
    "scene_digest",
    "build_report",
    "render_report",
]

SCENE_VERSION = 1
MAX_BARE_DIM = 1_000_000  # the largest dim of a scene without coordinates
_SET_NUMBERS = ("inner_radius", "lambda", "diameter")


class SceneFile(NamedTuple):
    """Parsed scene: a space, its balls, and optional points and sets."""

    space: Space
    family: BallFamily
    points: tuple = ()
    sets: tuple = ()
    version: int = SCENE_VERSION


def _reject_constant(token):
    raise InputError(f"non-finite number {token!r} in scene document")


def _require(obj, key, where):
    if key not in obj:
        raise InputError(f"{where} is missing the {key!r} field")
    return obj[key]


def _finite(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf if value > 0 else -math.inf
    if not math.isfinite(v):
        raise InputError(f"{where} must be finite, got {v!r}")
    return v


def _coords(value, where):
    if not isinstance(value, list):
        raise InputError(f"{where} must be an array of numbers")
    return [_finite(v, f"{where}[{k}]") for k, v in enumerate(value)]


def _parse_space(obj) -> Space:
    if not isinstance(obj, dict):
        raise InputError("space must be an object")
    kind = _require(obj, "kind", "space")
    dim = _require(obj, "dim", "space")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InputError(f"space dim must be a positive integer, got {dim!r}")
    if not isinstance(kind, str) or kind not in SPACE_KINDS:
        raise InputError(f"unknown space kind {kind!r}")
    param = SPACE_KINDS[kind].parameter
    if param is None or param not in obj:
        return Space(kind, dim)
    return Space(kind, dim, **{param: _finite(obj[param], f"space {param}")})


def _floats(values) -> bool:
    """Whether every value is a finite float (a float sum is finite only
    if every term is; one that overflows sends the list to the per-entry
    parser, which accepts it)."""
    return {*map(type, values)} <= {float} and math.isfinite(sum(values))


def _bulk(space, raw, fields, build):
    """``build(coords, *numbers)`` of the columns of ``raw``, checked in
    one pass, or None when ``raw`` fails a check of the per-entry parser
    (or holds an integer, which that parser converts) or ``build`` raises
    :class:`InputError`.

    ``fields`` is None when the entries are coordinate arrays; otherwise
    the entries are objects, ``fields[0]`` names their coordinates and the
    rest their numbers.  ``coords`` holds the coordinate tuples, put on
    the space's surface.
    """
    if type(raw) is not list:
        return None
    if fields is None:
        rows, numbers = raw, []
    elif {*map(type, raw)} <= {dict}:
        try:
            rows, *numbers = [[entry[key] for entry in raw] for key in fields]
        except KeyError:
            return None
    else:
        return None
    if not (
        {*map(type, rows)} <= {list}
        and {*map(len, rows)} <= {space.ambient_dim}
        and all(map(_floats, [list(chain.from_iterable(rows)), *numbers]))
    ):
        return None
    surface = space._model.surface
    try:
        return build([surface(tuple(c)) for c in rows], *numbers)
    except InputError:
        return None


def _entries(space, doc, key, what, fields, build, parse, collect=tuple):
    """The entries of the optional array ``doc[key]``: built by
    :func:`_bulk` when the array passes its checks, else ``collect`` of
    ``parse(entry, name)`` of each entry, where ``name`` is ``what`` and
    the index; an error names its entry ("ball 3: ...")."""
    raw = doc.get(key, [])
    built = _bulk(space, raw, fields, build)
    if built is not None:
        return built
    if not isinstance(raw, list):
        raise InputError(f"{key} must be an array")
    out = []
    for i, entry in enumerate(raw):
        name = f"{what} {i}"
        if fields is not None and not isinstance(entry, dict):
            raise InputError(f"{name} must be an object")
        try:
            out.append(parse(entry, name))
        except InputError as exc:
            raise InputError(f"{name}: {exc}") from exc
    return collect(out)


def parse_scene(text: str) -> SceneFile:
    """Parse a UTF-8 scene document into validated library objects.

    Every coordinate is checked against the space (dimension count,
    finiteness, on-surface constraints for curved spaces); errors name
    the offending ball, point, or set index.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InputError(f"scene is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal of more digits than int() reads
        raise InputError(f"scene has a number that cannot be read: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("scene document must be a JSON object")
    version = _require(doc, "version", "scene")
    if version != SCENE_VERSION:
        raise InputError(f"unsupported scene version {version!r} (expected {SCENE_VERSION})")
    space = _parse_space(_require(doc, "space", "scene"))
    if space.dim > MAX_BARE_DIM and not any(doc.get(key) for key in ("balls", "points", "sets")):
        raise InputError(f"space dim {space.dim} exceeds {MAX_BARE_DIM} without coordinates")

    def ball(rb, name):
        center = space.point(_coords(_require(rb, "center", name), f"{name} center"))
        return Ball(center, _finite(_require(rb, "radius", name), f"{name} radius"))

    def quasi_round_set(rs, name):
        anchor = space.point(_coords(_require(rs, "anchor", name), f"{name} anchor"))
        return QuasiRoundSet(anchor, *(
            _finite(_require(rs, key, name), f"{name} {key}")
            for key in _SET_NUMBERS
        ))

    family = _entries(space, doc, "balls", "ball", ("center", "radius"),
                      partial(BallFamily.from_columns, space), ball, partial(BallFamily, space))
    points = _entries(space, doc, "points", "point", None, lambda cs: tuple(map(Point, cs)),
                      lambda rp, name: space.point(_coords(rp, name)))
    sets = _entries(space, doc, "sets", "set", ("anchor",) + _SET_NUMBERS,
                    lambda cs, *numbers: tuple(map(QuasiRoundSet, map(Point, cs), *numbers)),
                    quasi_round_set)
    return SceneFile(
        space=space,
        family=family,
        points=points,
        sets=sets,
        version=version,
    )


def _space_doc(space: Space) -> dict:
    doc = {"kind": space.kind, "dim": space.dim}
    param = SPACE_KINDS[space.kind].parameter
    if param is not None:
        doc[param] = getattr(space, param)
    return doc


def ball_doc(ball: Ball) -> dict:
    return {"center": list(ball.center.coords), "radius": ball.radius}


class _BallDocs(list):
    """Ball documents, made only by :func:`ball_docs`, whose coordinates
    and radii are all finite floats: :func:`render_report` writes them
    from a fixed format, in about half the time that writing each
    document as a dict takes."""


def ball_docs(family: BallFamily) -> list:
    """The :func:`ball_doc` of every ball of ``family``, built from its
    columns."""
    coords, radii = family.coords, family.radii
    docs = [{"center": list(c), "radius": r} for c, r in zip(coords, radii)]
    if docs and _floats(radii) and _floats(list(chain.from_iterable(coords))):
        return _BallDocs(docs)
    return docs


def serialize_scene(scene: SceneFile) -> str:
    """Render a scene back to its canonical JSON text."""
    doc = {
        "version": scene.version,
        "space": _space_doc(scene.space),
        "balls": ball_docs(scene.family),
    }
    if scene.points:
        doc["points"] = [list(p.coords) for p in scene.points]
    if scene.sets:
        doc["sets"] = [
            {
                "anchor": list(s.anchor.coords),
                "inner_radius": s.inner_radius,
                "lambda": s.lam,
                "diameter": s.diameter,
            }
            for s in scene.sets
        ]
    return render_report(doc)


def scene_digest(text: str) -> str:
    """SHA-256 hex digest of a scene document's UTF-8 bytes.

    The hash is CPython's built-in SHA-256 (``_sha2`` from 3.12,
    ``_sha256`` before), and ``hashlib`` only on an interpreter built
    without it: ``hashlib`` loads OpenSSL's ``_hashlib``, which costs every
    scene-reading call 2-3 ms of start-up.  The built-in hash is slower
    per byte (about 8 ms against 1.4 ms on a 1.9 MB scene), which only
    scenes of megabytes notice.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode("utf-8")).hexdigest()


def build_report(
    command,
    payload,
    input_digest: Optional[str] = None,
    seed: Optional[int] = None,
    wall_time_s: Optional[float] = None,
) -> dict:
    """Assemble the standard report envelope around a payload."""
    return {
        "version": 1,
        "command": list(command),
        "input_digest": input_digest,
        "seed": seed,
        "payload": payload,
        "wall_time_s": wall_time_s,
    }


def render_report(report: dict) -> str:
    """Serialize a report (or a scene document) with deterministic key
    order.

    The text equals ``json.dumps(report, sort_keys=True, indent=2)``
    plus a newline, written without the encoder's generators.
    """
    parts: list = []
    _write(report, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _number(value) -> str:
    """A float as the JSON encoder writes it."""
    if value != value:
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


# the text of each scalar JSON type, by exact type
_TEXT = {
    str: _string,
    int: int.__repr__,
    float: _number,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _scalar(value) -> Optional[str]:
    """The JSON text of a string, number, bool or None; None otherwise."""
    text = _TEXT.get(type(value))
    if text is not None:
        return text(value)
    # a subclass of a JSON type is written as its base type
    for base in (str, int, float):
        if isinstance(value, base):
            return _TEXT[base](value)
    return None


def _write_ball_docs(docs, newline: str, out) -> None:
    """Append the text :func:`_write` gives a :class:`_BallDocs` list,
    from a fixed format."""
    indent = newline + "  "
    head = f'{{{indent}  "center": [{indent}    '
    sep = f",{indent}    "
    tail = f'{indent}  ],{indent}  "radius": '
    close = indent + "}"
    text = float.__repr__
    out("[" + indent)
    out(("," + indent).join([
        head + sep.join(map(text, d["center"])) + tail + text(d["radius"]) + close for d in docs
    ]))
    out(newline + "]")


def _write(value, newline: str, out) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` is a
    newline and the indent of the line ``value`` starts on."""
    if type(value) is _BallDocs:
        _write_ball_docs(value, newline, out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        out("[" + inner)
        if {*map(type, value)} == {int}:
            out(("," + inner).join(map(int.__repr__, value)))
        else:
            sep = ""
            for item in value:
                text = _TEXT.get(type(item))
                if text is not None:
                    out(sep + text(item))
                else:
                    out(sep)
                    _write(item, inner, out)
                sep = "," + inner
        out(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            name = key if isinstance(key, str) else _scalar(key)
            if name is None:
                raise TypeError("keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            text = _TEXT.get(type(item))
            if text is not None:
                out(f"{sep}{_string(name)}: {text(item)}")
            else:
                out(f"{sep}{_string(name)}: ")
                _write(item, inner, out)
            sep = "," + inner
        out(newline + "}")
    else:
        text = _scalar(value)
        if text is None:
            raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
        out(text)
