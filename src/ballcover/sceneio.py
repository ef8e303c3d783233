"""Scene and report files: a small JSON dialect for ball families.

A scene document is a single JSON object with a mandatory integer
``version`` (currently 1), a ``space`` descriptor, a list of ``balls``,
and optional ``points`` and quasi-round ``sets``.  All numbers are
64-bit floats serialized with Python's shortest round-trip
representation, so ``serialize_scene(parse_scene(text))`` parses back to
an equal value.  Non-finite numbers are rejected at parse time.

Reports are JSON objects with deterministic key order: the echoed
command, a SHA-256 digest of the input document (when there is one), the
seed (when the command is randomized), the payload, and a wall-time slot
that stays null unless timing was explicitly requested — keeping reports
byte-identical across re-runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import NamedTuple, Optional

from .covering import BallFamily, QuasiRoundSet
from .errors import InputError
from .geometry import SPACE_KINDS, Ball, Space

__all__ = [
    "SceneFile",
    "parse_scene",
    "serialize_scene",
    "scene_digest",
    "build_report",
    "render_report",
]

SCENE_VERSION = 1


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
    v = float(value)
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


def _entries(doc, key, what, parse, objects=True) -> tuple:
    """``parse(entry, name)`` of each entry of the optional array
    ``doc[key]``, where ``name`` is ``what`` and the index; an error names
    its entry ("ball 3: ...")."""
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise InputError(f"{key} must be an array")
    out = []
    for i, entry in enumerate(raw):
        name = f"{what} {i}"
        if objects and not isinstance(entry, dict):
            raise InputError(f"{name} must be an object")
        try:
            out.append(parse(entry, name))
        except InputError as exc:
            raise InputError(f"{name}: {exc}") from exc
    return tuple(out)


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
    if not isinstance(doc, dict):
        raise InputError("scene document must be a JSON object")
    version = _require(doc, "version", "scene")
    if version != SCENE_VERSION:
        raise InputError(f"unsupported scene version {version!r} (expected {SCENE_VERSION})")
    space = _parse_space(_require(doc, "space", "scene"))

    def ball(rb, name):
        center = space.point(_coords(_require(rb, "center", name), f"{name} center"))
        return Ball(center, _finite(_require(rb, "radius", name), f"{name} radius"))

    def quasi_round_set(rs, name):
        anchor = space.point(_coords(_require(rs, "anchor", name), f"{name} anchor"))
        return QuasiRoundSet(anchor, *(
            _finite(_require(rs, key, name), f"{name} {key}")
            for key in ("inner_radius", "lambda", "diameter")
        ))

    balls = _entries(doc, "balls", "ball", ball)
    points = _entries(doc, "points", "point", lambda rp, name: space.point(_coords(rp, name)),
                      objects=False)
    sets = _entries(doc, "sets", "set", quasi_round_set)
    return SceneFile(
        space=space,
        family=BallFamily(space, balls),
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


def serialize_scene(scene: SceneFile) -> str:
    """Render a scene back to its canonical JSON text."""
    doc = {
        "version": scene.version,
        "space": _space_doc(scene.space),
        "balls": [ball_doc(b) for b in scene.family],
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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def scene_digest(text: str) -> str:
    """SHA-256 hex digest of a scene document's UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    """Serialize a report with deterministic key order."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
