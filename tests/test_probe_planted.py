"""``scripts/probe_planted.py`` on the planted families that a stalled
sweep used to refute.

Each family shares a planted point, so INVALID is false for every one of
them.  These eleven, out of 600 per space, were refuted while a sweep that
stopped moving outside the balls gave INVALID; the script must now call
each one VALID or INDETERMINATE, and write nothing under ``bench/``.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "probe_planted.py"

ONCE_REFUTED = {
    "hyper": (151, 184, 245, 456),
    "l2d2": (181, 432),
    "l3d2": (181, 293),
    "sphere": (242, 261, 573),
}


def bench_files():
    return sorted(str(p.relative_to(ROOT)) for p in (ROOT / "bench").rglob("*"))


def test_no_planted_family_is_refuted():
    before = bench_files()
    only = ",".join(f"{key}:{k}" for key, ks in ONCE_REFUTED.items() for k in ks)
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--only", only], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=300, check=True,
    )
    assert out.stderr == ""
    counts = json.loads(out.stdout)
    assert sorted(counts) == sorted(ONCE_REFUTED)
    for key, ks in ONCE_REFUTED.items():
        row = counts[key]
        assert (row["invalid"], row["invalid_at"]) == (0, []), key
        assert row["valid"] + row["indeterminate"] == len(ks), key
    assert bench_files() == before
