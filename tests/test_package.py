"""The package's public names.

``ballcover`` imports each public name from its submodule on first use,
so ``import ballcover.cli`` loads only the submodules the CLI reads.
These tests pin the public names and where each is defined, and check
that the lookup serves every way of reading them: attribute access,
``from ballcover import *``, ``dir`` and submodules by name.  The checks
that depend on what is already imported run in a fresh interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import ballcover
import ballcover.geometry

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

PUBLIC = {
    "covering": [
        "BallFamily", "EpsilonNet", "OverlapProfile", "QuasiRoundSet", "Verdict",
        "covering_number", "epsilon_net_greedy", "find_common_point",
        "is_alpha_configuration", "is_besicovitch_family", "is_k_configuration",
        "is_tau_satellite_configuration", "overlap_profile", "strict_net_bound",
    ],
    "errors": [
        "BallcoverError", "DomainError", "InputError", "InternalError",
        "UnsupportedFeatureError",
    ],
    "geometry": [
        "Ball", "DEFAULT_TOL", "Point", "Space", "Tangent", "ball_volume", "distance",
        "exp_map", "injectivity_radius", "log_map", "unit_ball_volume",
    ],
    "search": [
        "CipResult", "ConstantsRow", "SearchConfig", "SearchResult", "cip_check",
        "constants_markdown", "constants_report", "construct_strict_hadwiger",
        "pack_unit_balls_radius5", "satellite_max_search", "search_max_besicovitch_family",
    ],
    "selection": [
        "DisjointPartition", "SubcoverResult", "besicovitch_cover_1d",
        "cip_subcover", "morse_partition", "partition_into_disjoint_families",
        "select_bounded_overlap_subcover",
    ],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def tracing_modules():
    """``MODULES`` of ``bench/tracing.py``, read without importing it."""
    namespace = {}
    source = (ROOT / "bench" / "tracing.py").read_text()
    line = next(ln for ln in source.splitlines() if ln.startswith("MODULES = "))
    exec(line, namespace)
    return namespace["MODULES"]


def fresh(code):
    """What ``code`` prints as JSON, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_all_lists_the_public_names():
    assert len(NAMES) == 48
    assert sorted(ballcover.__all__) == NAMES


def test_each_name_is_the_object_its_submodule_defines():
    wrong = []
    for module, names in PUBLIC.items():
        sub = getattr(ballcover, module)
        assert sub.__name__ == f"ballcover.{module}"
        for name in names:
            obj = getattr(ballcover, name)
            defined_in = getattr(obj, "__module__", sub.__name__)  # DEFAULT_TOL is a float
            if obj is not getattr(sub, name) or defined_in != sub.__name__:
                wrong.append(f"{module}.{name}")
    assert not wrong


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ballcover import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert all(namespace[name] is getattr(ballcover, name) for name in NAMES)


def test_dir_lists_every_name():
    listed = dir(ballcover)
    assert set(NAMES) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)


def test_unknown_names_are_attribute_errors():
    assert not hasattr(ballcover, "no_such_name")
    assert not hasattr(ballcover, "__no_such_dunder__")
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ballcover.no_such_name  # noqa: B018


def test_a_name_is_the_submodules_current_binding(monkeypatch):
    real = ballcover.geometry.distance

    def patched(*args):
        return real(*args)

    monkeypatch.setattr(ballcover.geometry, "distance", patched)
    assert ballcover.distance is patched
    monkeypatch.undo()
    assert ballcover.distance is real
    assert "distance" not in vars(ballcover)


def test_a_fresh_import_loads_no_submodule_until_read():
    modules = tracing_modules()
    code = (
        "import json, sys\nimport ballcover\n"
        "before = sorted(m for m in sys.modules if m.startswith('ballcover.'))\n"
        f"loaded = [getattr(ballcover, m).__name__ for m in {modules!r}]\n"
        "star = {}\nexec('from ballcover import *', star)\n"
        "print(json.dumps({'before': before, 'loaded': loaded,\n"
        "                  'star': len(star) - 1, 'dir': len(dir(ballcover))}))\n"
    )
    got = fresh(code)
    assert got["before"] == []
    assert got["loaded"] == [f"ballcover.{m}" for m in modules]
    assert got["star"] == len(NAMES)
    assert got["dir"] >= len(NAMES)
