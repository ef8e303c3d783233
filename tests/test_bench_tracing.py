"""The benchmark's tracer can still measure the package.

``bench/run.py --trace 1`` wraps every function that ``bench/tracing.py``
lists in ``MEASURED`` under each name that binds it, and fails the run
(exit 3) when one is missing or when a function its workload's
``EXPECTED`` entry names is never called through a patched name.  A
refactor that leaves every report byte-identical can still break that,
by removing a measured function or by routing calls around the module
attribute the tracer patches.  This test installs the tracer over the
package, runs small versions of the ``validate-batch`` and
``search-anneal`` commands in process, and asks the tracer whether every
expected layer was reached, and once more in a fresh interpreter that,
like ``bench/run.py``, has imported only ``ballcover`` and
``ballcover.cli`` when the tracer is built.  ``bench/tracing.py`` is read,
not imported, so nothing is written under ``bench/``.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import types

import pytest

import ballcover
import ballcover.cli as cli

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def scene(tmp_path, name, space, centers, radius):
    path = tmp_path / f"{name}.json"
    balls = [{"center": list(c), "radius": radius} for c in centers]
    path.write_text(json.dumps({"version": 1, "space": space, "balls": balls}))
    return str(path)


def around(lift, t, n=3):
    """n centers at distance t from the base point, evenly spread."""
    return [lift(t, 2.0 * math.pi * k / n) for k in range(n)]


def flat(t, a):
    return (t * math.cos(a), t * math.sin(a))


def sphere(t, a):
    return (math.sin(t) * math.cos(a), math.sin(t) * math.sin(a), math.cos(t))


def hyperboloid(t, a):
    return (math.sinh(t) * math.cos(a), math.sinh(t) * math.sin(a), math.cosh(t))


def validate_commands(tmp_path):
    l2 = scene(tmp_path, "l2", {"kind": "euclidean", "dim": 2}, around(flat, 1.0), 1.1)
    l2_apart = scene(tmp_path, "l2-apart", {"kind": "euclidean", "dim": 2},
                     around(flat, 3.0), 1.0)
    s2 = scene(tmp_path, "sphere", {"kind": "sphere", "dim": 2}, around(sphere, 0.5), 0.55)
    h2 = scene(tmp_path, "hyper", {"kind": "hyperbolic", "dim": 2},
               around(hyperboloid, 0.5), 0.55)
    return [
        (["validate", l2, "--what", "besicovitch"], 0),
        (["validate", l2_apart, "--what", "besicovitch"], 1),
        (["validate", l2, "--what", "k-config"], 0),
        (["validate", s2, "--what", "besicovitch"], 0),
        (["validate", h2, "--what", "besicovitch"], 0),
        (["validate", h2, "--what", "k-config"], 0),
    ]


SEARCH_COMMANDS = [
    (["search", "--what", "wbcp", "--dim", "2", "--seed", "1", "--budget", "60",
      "--restarts", "1"], 0),
    (["search", "--what", "pack5", "--dim", "2", "--seed", "1", "--budget", "60",
      "--restarts", "1"], 0),
    (["search", "--what", "satellite", "--dim", "2", "--seed", "1", "--budget", "60",
      "--restarts", "1"], 0),
    (["cip", "--m", "2", "--trials", "5", "--seed", "1"], 0),
    (["constants", "--dims", "1", "--seed", "1", "--budget", "60"], 0),
]


def traced(tracing, commands):
    """The tracer after running ``commands`` under it, uninstalled."""
    tracer = tracing.Tracer(ballcover)
    tracer.install(tracing.MEASURED)
    try:
        for argv, code in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run_command(argv) == code, argv
    finally:
        tracer.uninstall()
    # every patch is undone
    assert ballcover.covering.distance is ballcover.geometry.distance
    assert not hasattr(ballcover.covering.find_common_point, "__wrapped__")
    return tracer


def test_validate_commands_reach_every_expected_layer(tracing, tmp_path):
    tracer = traced(tracing, validate_commands(tmp_path))
    tracer.check_hit(tracing.EXPECTED["validate-batch"])


def test_search_commands_reach_every_expected_layer(tracing):
    tracer = traced(tracing, SEARCH_COMMANDS)
    tracer.check_hit(tracing.EXPECTED["search-anneal"])


def test_a_missing_layer_is_reported(tracing):
    tracer = tracing.Tracer(ballcover)
    with pytest.raises(tracing.MissingLayer, match="never called"):
        tracer.check_hit(tracing.EXPECTED["search-anneal"])
    with pytest.raises(tracing.MissingLayer, match="not found: covering.no_such_function"):
        tracer.install(tracing.MEASURED + ("covering.no_such_function",))


FRESH = """
import contextlib, io, json, sys, types
import ballcover, ballcover.cli
tracing = types.ModuleType("bench_tracing")
exec(compile(open(sys.argv[1]).read(), sys.argv[1], "exec"), tracing.__dict__)
tracer = tracing.Tracer(ballcover)
holders = [ballcover, *tracer.mods.values()]
before = [dict(vars(m)) for m in holders]
tracer.install(tracing.MEASURED)
codes = []
try:
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in json.loads(sys.argv[2]):
            codes.append(ballcover.cli.run_command(argv))
finally:
    tracer.uninstall()
for name in json.loads(sys.argv[3]):
    tracer.check_hit(tracing.EXPECTED[name])
changed = sorted(f"{m.__name__}.{a}" for m, old in zip(holders, before)
                 for a, o in vars(m).items() if a in old and old[a] is not o)
print(json.dumps({"codes": codes, "changed": changed,
                  "cli_binds": sorted(n for n in vars(ballcover.cli)
                                      if ballcover._SUBMODULE.get(n) in ("search", "selection")),
                  "distance_calls": tracer.calls["geometry.distance"]}))
"""


def test_the_tracer_installs_over_a_fresh_import(tmp_path):
    """``bench/run.py --trace 1`` imports ``ballcover`` and ``ballcover.cli``
    alone before it builds the tracer, which reads every module it measures
    from the package; the in-process tests above run after pytest has
    imported them all, so this one starts a fresh interpreter."""
    commands = validate_commands(tmp_path) + SEARCH_COMMANDS
    src = str(TRACING.parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", FRESH, str(TRACING), json.dumps([argv for argv, _ in commands]),
         json.dumps(["validate-batch", "search-anneal"])],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["codes"] == [code for _argv, code in commands]
    # every patch is undone, and no deferred name was bound to a wrapper
    assert result["changed"] == [] and result["cli_binds"] == []
    assert result["distance_calls"] > 0
