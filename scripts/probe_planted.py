"""Validate planted Besicovitch families and count the verdicts.

For each planted space of ``bench/workloads.py`` (``l2d2``, ``l2d3``,
``l3d2``, ``sphere`` and ``hyper``, its ``_PLANTED`` table), family k is
planted from the generator stream ``(27, 5, k)`` the way
``_validate_batch`` plants its feasible families, and validated as
``ballcover validate --what besicovitch`` validates a scene: the scene
document goes through ``sceneio.parse_scene`` and then
``is_besicovitch_family``.  Every planted family shares a point, so an
INVALID is a false one.  One JSON object goes to standard output: per
space, the count of each verdict and the indices k of the INVALID ones.

    PYTHONPATH=src python scripts/probe_planted.py --count 600

``--only l2d2:17,sphere:5`` validates just the families named.  The
planting needs numpy.  ``bench/workloads.py`` is read by executing its
source, so nothing is written under ``bench/``.
"""

import argparse
import json
import os
import sys
import types

from ballcover.covering import INDETERMINATE, INVALID, VALID, is_besicovitch_family
from ballcover.sceneio import parse_scene

WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "workloads.py")
SPACES = ("l2d2", "l2d3", "l3d2", "sphere", "hyper")


def load_workloads():
    """``bench/workloads.py`` as a module, from its source."""
    module = types.ModuleType("bench_workloads")
    sys.modules[module.__name__] = module  # its dataclasses look it up
    with open(WORKLOADS, encoding="utf-8") as fh:
        exec(compile(fh.read(), WORKLOADS, "exec"), module.__dict__)
    return module


def planted_scene(workloads, key: str, k: int) -> str:
    """The scene document of planted family k of space ``key``."""
    space, (nlo, nhi), (tlo, thi) = workloads._PLANTED[key]
    rng = workloads._rng(27, 5, k)
    n = int(rng.integers(nlo, nhi + 1))
    _, centers, radii = workloads._planted_family(space, rng, n, tlo, thi)
    balls = [{"center": [float(x) for x in c], "radius": float(r)}
             for c, r in zip(centers, radii)]
    return json.dumps({"version": 1, "space": space, "balls": balls}, sort_keys=True)


def probe(workloads, cases) -> dict:
    """Validate each ``(key, k)`` family; the verdict counts per key."""
    out = {}
    for key, k in cases:
        row = out.setdefault(key, {VALID: 0, INVALID: 0, INDETERMINATE: 0, "invalid_at": []})
        status = is_besicovitch_family(parse_scene(planted_scene(workloads, key, k)).family).status
        row[status] += 1
        if status == INVALID:
            row["invalid_at"].append(k)
    return out


def _only(text: str) -> list:
    cases = []
    for item in text.split(","):
        key, _, k = item.partition(":")
        if key not in SPACES or not k.isdigit():
            raise argparse.ArgumentTypeError(f"expected SPACE:K with SPACE in {SPACES}, got {item!r}")
        cases.append((key, int(k)))
    return cases


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=600, help="families per space")
    parser.add_argument("--only", type=_only, help="just these SPACE:K families")
    args = parser.parse_args(argv)
    cases = args.only or [(key, k) for key in SPACES for k in range(args.count)]
    print(json.dumps(probe(load_workloads(), cases), sort_keys=True))


if __name__ == "__main__":
    main()
