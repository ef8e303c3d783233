"""Start-up cost: no CLI command imports numpy.

The validators, ``volume``, ``oned``, ``partition``, ``select`` and
``net`` work on coordinate tuples and ``math``, and the seeded
``search``, ``cip`` and ``constants`` draw from the package's own PCG64
stream, so a fresh interpreter that imports the CLI, or runs any of
them, must end with ``numpy`` absent from ``sys.modules``.  Each case
runs in its own ``sys.executable`` process; one whose prelude imports
numpy shows that the check sees numpy when it is loaded.  The library
needs numpy nowhere: with its import blocked, the package, the CLI, the
covering-number estimate and the samplers run in every kind of space.
Neither importing the CLI nor any call that reads a scene loads
``hashlib`` or OpenSSL's ``_hashlib``: a scene digest hashes with
CPython's built-in SHA-256.

The package's records are plain classes, so neither ``dataclasses`` nor
the ``inspect`` module it imports is loaded either.  numpy imports
``inspect`` itself, so that check applies to the runs that leave numpy
out.

The package imports each public name from its submodule on first use,
and the CLI imports the search and selection names it calls when it calls
them, so importing the CLI, ``validate``, ``volume`` and ``-h`` load none
of ``ballcover.search``, ``ballcover.selection`` and ``ballcover._rng``.

A well-formed argv is read without argparse, so a well-formed call of
each of the nine subcommands loads none of ``argparse``, ``gettext`` and
``locale`` (unless a bare interpreter loads them); ``-h`` and a usage
error, which go to argparse, show that the check sees it.
"""

import json
import math
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CHILD = """
import contextlib, io, json, sys
from ballcover.cli import run_command
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(run_command(argv))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules,
                  "records": [m for m in ("dataclasses", "inspect") if m in sys.modules],
                  "deferred": [m for m in ("ballcover.search", "ballcover.selection",
                                           "ballcover._rng") if m in sys.modules]}))
"""


def child_result(commands, prelude=""):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", prelude + CHILD, json.dumps(commands)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def run_fresh(commands, prelude=""):
    """Exit codes of the commands, and whether numpy got imported, in a
    fresh interpreter that first runs ``prelude``; one that leaves numpy
    out must leave ``dataclasses`` and ``inspect`` out too."""
    result = child_result(commands, prelude)
    if not result["numpy"]:
        assert result["records"] == [], f"{commands} loaded {result['records']}"
    return result["codes"], result["numpy"]


def point_at(space, t, theta):
    """The point at distance ``t`` from the space's origin, in the
    direction ``theta`` (textbook formulas, so the scenes do not depend on
    the package)."""
    c, s = math.cos(theta), math.sin(theta)
    if space["kind"] == "sphere":
        return [math.sin(t) * c, math.sin(t) * s, math.cos(t)]
    if space["kind"] == "hyperbolic":
        return [math.sinh(t) * c, math.sinh(t) * s, math.cosh(t)]
    p = space.get("pnorm", 2.0)
    return [t * c / (abs(c) ** p + abs(s) ** p) ** (1.0 / p),
            t * s / (abs(c) ** p + abs(s) ** p) ** (1.0 / p)]


def planted(space, n, slack):
    """n balls around the origin, each of radius (1 + slack) times its
    center's distance to the origin: the origin is a common point for
    slack >= 0, and for negative slack the centers surround it, so the
    balls share no point."""
    balls = []
    for k in range(n):
        t = 0.6 + 0.1 * k
        balls.append({"center": point_at(space, t, 2.0 * math.pi * k / n + 0.3),
                      "radius": (1.0 + slack) * t})
    return {"version": 1, "space": space, "balls": balls}


SPACES = {
    "l2": {"kind": "euclidean", "dim": 2},
    "l3": {"kind": "euclidean", "dim": 2, "pnorm": 3.0},
    "sphere": {"kind": "sphere", "dim": 2},
    "hyperbolic": {"kind": "hyperbolic", "dim": 2},
}


def test_importing_the_cli_leaves_numpy_out():
    assert run_fresh([]) == ([], False)


@pytest.mark.parametrize("what", ["besicovitch", "k-config"])
@pytest.mark.parametrize("key", sorted(SPACES))
def test_validate_leaves_numpy_out(key, what, tmp_path):
    commands = []
    for n in (3, 4, 5):
        for slack in (1e-6, 0.2, -0.05):
            path = tmp_path / f"n{n}-{slack}.json"
            path.write_text(json.dumps(planted(SPACES[key], n, slack)))
            commands.append(["validate", str(path), "--what", what])
    codes, numpy_loaded = run_fresh(commands)
    assert not numpy_loaded
    assert set(codes) <= {0, 1}
    # the planted common point is found, and the shrunk families are refuted
    assert codes[0] == 0
    if what == "besicovitch":
        assert codes[2] == 1


def test_alpha_and_satellite_validation_leave_numpy_out(tmp_path):
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({
        "version": 1, "space": {"kind": "euclidean", "dim": 1},
        "balls": [{"center": [0.0], "radius": 0.7}, {"center": [0.5], "radius": 1.0},
                  {"center": [-0.5], "radius": 1.0}],
    }))
    satellite = tmp_path / "satellite.json"
    satellite.write_text(json.dumps({
        "version": 1, "space": {"kind": "euclidean", "dim": 2}, "balls": [],
        "sets": [
            {"anchor": [0.0, 0.0], "inner_radius": 1.0, "lambda": 1.0, "diameter": 2.0},
            {"anchor": [1.8, 0.0], "inner_radius": 0.9, "lambda": 1.0, "diameter": 1.8},
            {"anchor": [0.9, 0.8], "inner_radius": 0.85, "lambda": 1.0, "diameter": 1.7},
        ],
    }))
    commands = [
        ["validate", str(alpha), "--what", "alpha-config", "--alpha", "0.75"],
        ["validate", str(alpha), "--what", "alpha-config", "--alpha", "0.6"],
        ["validate", str(satellite), "--what", "satellite", "--tau", "1.5"],
    ]
    assert run_fresh(commands) == ([0, 1, 0], False)


def test_volume_leaves_numpy_out():
    commands = [
        ["volume", "--space", "euclidean", "--dim", "3", "--r", "1.5"],
        ["volume", "--space", "euclidean", "--dim", "2", "--r", "1.0", "--pnorm", "3"],
        ["volume", "--space", "sphere", "--dim", "2", "--r", "1.0"],
        ["volume", "--space", "hyperbolic", "--dim", "3", "--r", "2.0"],
        ["volume", "--space", "hyperbolic", "--dim", "3", "--r", "800"],  # exit 2
    ]
    assert run_fresh(commands) == ([0, 0, 0, 0, 2], False)


def test_oned_leaves_numpy_out(tmp_path):
    path = tmp_path / "line.json"
    balls = [{"center": [1.5 * k + 0.25 * (k % 3)], "radius": 1.0 + 0.1 * (k % 4)}
             for k in range(40)]
    path.write_text(json.dumps({"version": 1, "space": {"kind": "euclidean", "dim": 1},
                                "balls": balls}))
    commands = [["oned", str(path)], ["oned", str(path), "--timing"]]
    assert run_fresh(commands) == ([0, 0], False)


def test_the_record_check_sees_dataclasses(tmp_path):
    script = tmp_path / "child.py"
    script.write_text("import dataclasses\n" + CHILD)
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, str(script), "[]"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert json.loads(out.stdout)["records"] == ["dataclasses", "inspect"]


def test_the_numpy_check_sees_numpy():
    assert run_fresh([["cip", "--m", "2", "--trials", "5"]], "import numpy\n") == ([0], True)


def test_a_covering_number_call_leaves_numpy_out():
    prelude = ("from ballcover import Ball, Point, Space, covering_number\n"
               "covering_number(Space.euclidean(2), Ball(Point((0.0, 0.0)), 1.0), 0.5, 20)\n")
    assert run_fresh([["cip", "--m", "2", "--trials", "5"]], prelude) == ([0], False)


NUMPY_BLOCKED = """
import math, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import ballcover, ballcover.cli
from ballcover import Ball, Space, covering_number
from ballcover._rng import Generator
from ballcover.geometry import random_point, random_unit_tangent, uniform_in_ball
rng = Generator(5)
for space in (Space.euclidean(2, 1.0), Space.euclidean(2), Space.euclidean(3, 3.0),
              Space.euclidean(2, math.inf), Space.sphere(2), Space.hyperbolic(2)):
    center = random_point(space, rng)
    random_unit_tangent(space, center, rng)
    uniform_in_ball(space, Ball(center, 1.0), rng)
    print(covering_number(space, Ball(center, 1.0), 0.5, 30, seed=3))
"""


def test_the_library_runs_with_numpy_blocked():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", NUMPY_BLOCKED], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    counts = [int(n) for n in out.stdout.split()]
    assert len(counts) == 6 and min(counts) >= 1


def test_seeded_searches_leave_numpy_out(tmp_path):
    path = tmp_path / "cip.json"
    path.write_text(json.dumps(planted(SPACES["l2"], 5, 0.2)))
    commands = [
        ["search", "--what", what, "--dim", "2", "--budget", "300", "--restarts", "2"]
        for what in ("wbcp", "pack5", "satellite")
    ] + [
        ["search", "--what", "pack5", "--dim", "3", "--budget", "300", "--restarts", "2"],
        ["cip", "--m", "2", "--trials", "20", "--seed", "7"],
        ["cip", str(path), "--m", "2", "--shrink", "0.95"],
        ["constants", "--dims", "1,2", "--budget", "200"],
    ]
    assert run_fresh(commands) == ([0] * 7, False)


def line_scene():
    return {"version": 1, "space": {"kind": "euclidean", "dim": 1},
            "balls": [{"center": [1.5 * k + 0.25 * (k % 3)], "radius": 1.0 + 0.1 * (k % 4)}
                      for k in range(40)]}


@pytest.mark.parametrize("key", ["line", "l2", "sphere"])
def test_partition_select_and_net_leave_numpy_out(key, tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(line_scene() if key == "line" else planted(SPACES[key], 12, 0.2)))
    path = str(path)
    commands = [["partition", path], ["select", path], ["net", path, "--eps", "0.5"],
                ["net", path, "--eps", "0.5", "--strict"]]
    assert run_fresh(commands) == ([0, 0, 0, 0], False)


def modules_after(code):
    """The names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code + "\nimport sys; print(*sys.modules)"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_importing_the_cli_leaves_openssl_out():
    pytest.importorskip("_hashlib", reason="this interpreter's hashlib has no OpenSSL")
    if "_hashlib" in modules_after(""):
        pytest.skip("this interpreter loads _hashlib at start-up")
    assert "_hashlib" not in modules_after("import ballcover.cli")
    assert "_hashlib" not in modules_after(
        "from ballcover.sceneio import scene_digest; scene_digest('')")


def deferred_loaded(commands):
    """Exit codes of the commands, and which of ``ballcover.search``,
    ``ballcover.selection`` and ``ballcover._rng`` they loaded, in a fresh
    interpreter that imported the CLI."""
    result = child_result(commands)
    return result["codes"], result["deferred"]


def test_importing_the_cli_leaves_search_and_selection_out():
    assert deferred_loaded([]) == ([], [])


def test_validate_volume_and_help_leave_search_and_selection_out(tmp_path):
    scene = tmp_path / "l2.json"
    scene.write_text(json.dumps(planted(SPACES["l2"], 4, 0.2)))
    satellite = tmp_path / "satellite.json"
    satellite.write_text(json.dumps({
        "version": 1, "space": {"kind": "euclidean", "dim": 2}, "balls": [],
        "sets": [{"anchor": [0.0, 0.0], "inner_radius": 1.0, "lambda": 1.0, "diameter": 2.0}],
    }))
    commands = [["validate", str(scene), "--what", what]
                for what in ("besicovitch", "k-config", "alpha-config")]
    commands += [
        ["validate", str(satellite), "--what", "satellite"],
        ["volume", "--space", "sphere", "--dim", "2", "--r", "1.0"],
        ["-h"], ["validate", "-h"], ["search", "-h"], ["select", "-h"], ["nope"],
    ]
    codes, loaded = deferred_loaded(commands)
    assert codes[3:] == [0, 0, 0, 0, 0, 0, 2]
    assert loaded == []


@pytest.mark.parametrize("argv, loaded", [
    (["search", "--what", "hadwiger", "--dim", "2"], ["ballcover.search"]),
    (["cip", "--m", "2", "--trials", "2"], ["ballcover.search", "ballcover._rng"]),
    (["partition", "{scene}"], ["ballcover.selection"]),
], ids=["search", "cip", "partition"])
def test_the_deferred_check_sees_what_a_command_loads(argv, loaded, tmp_path):
    scene = tmp_path / "l2.json"
    scene.write_text(json.dumps(planted(SPACES["l2"], 4, 0.2)))
    codes, got = deferred_loaded([[a.format(scene=scene) for a in argv]])
    assert codes == [0]
    assert set(loaded) <= set(got)


LOADED_CHILD = """
import contextlib, io, json, sys
from ballcover.cli import run_command
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [run_command(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "loaded": [m for m in json.loads(sys.argv[2])
                                             if m in sys.modules]}))
"""


def loaded_beyond_bare(commands, names, prelude=""):
    """Exit codes of the commands, and which of ``names`` they loaded
    beyond what a bare interpreter loads, in a fresh interpreter that
    ran ``prelude`` and imported the CLI."""
    bare = set(modules_after(""))
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", prelude + LOADED_CHILD, json.dumps(commands),
                          json.dumps(names)], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    return result["codes"], [m for m in result["loaded"] if m not in bare]


DIGEST_MODULES = ["hashlib", "_hashlib"]


def scene_reading_calls(tmp_path):
    """One call of each subcommand that reads a scene."""
    scene = tmp_path / "l2.json"
    scene.write_text(json.dumps(planted(SPACES["l2"], 5, 0.2)))
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(planted(SPACES["l2"], 3, 1e-6)))
    line = tmp_path / "line.json"
    line.write_text(json.dumps(line_scene()))
    return [
        ["validate", str(tight), "--what", "besicovitch"],
        ["oned", str(line)],
        ["partition", str(scene)],
        ["select", str(scene)],
        ["net", str(scene), "--eps", "0.5"],
        ["cip", str(scene), "--m", "2"],
    ]


def test_scene_reading_calls_leave_hashlib_out(tmp_path):
    codes, loaded = loaded_beyond_bare(scene_reading_calls(tmp_path), DIGEST_MODULES)
    assert codes == [0] * 6
    assert loaded == []


def test_the_digest_check_sees_hashlib(tmp_path):
    # with both built-in hashes blocked, a scene digest falls back to hashlib
    prelude = "import sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
    codes, loaded = loaded_beyond_bare(scene_reading_calls(tmp_path)[:1], DIGEST_MODULES,
                                       prelude)
    assert codes == [0]
    assert "hashlib" in loaded


PARSER_MODULES = ["argparse", "gettext", "locale"]


def test_well_formed_calls_leave_argparse_out(tmp_path):
    scene = tmp_path / "l2.json"
    scene.write_text(json.dumps(planted(SPACES["l2"], 5, 0.2)))
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(planted(SPACES["l2"], 4, 1e-6)))
    line = tmp_path / "line.json"
    line.write_text(json.dumps(line_scene()))
    commands = [
        ["validate", str(tight), "--what", "besicovitch", "--tol", "1e-9"],
        ["select", str(scene), "--beta", "0.5"],
        ["partition", str(scene), "--alpha", "0.75", "--timing"],
        ["oned", str(line), "--timing"],
        ["net", str(scene), "--eps", "0.5", "--strict"],
        ["search", "--what", "wbcp", "--dim", "2", "--budget", "50", "--restarts", "1"],
        ["cip", str(scene), "--m", "2"],
        ["constants", "--dims", "1", "--budget", "50"],
        ["volume", "--space", "sphere", "--dim", "2", "--r", "1.0", "--out", os.devnull],
    ]
    assert sorted({argv[0] for argv in commands}) == sorted(
        ["validate", "select", "partition", "oned", "net", "search", "cip", "constants",
         "volume"])
    codes, loaded = loaded_beyond_bare(commands, PARSER_MODULES)
    assert codes == [0] * 9
    assert loaded == []


@pytest.mark.parametrize("argv", [["-h"], ["volume", "--space", "sphere"]], ids=" ".join)
def test_help_and_usage_errors_load_argparse(argv):
    codes, loaded = loaded_beyond_bare([argv], PARSER_MODULES)
    assert codes == [0 if argv == ["-h"] else 2]
    assert "argparse" in loaded
