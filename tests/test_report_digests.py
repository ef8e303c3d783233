"""``scripts/report_digests.py`` lists every command of a workload, the
same way on every run and with ``--python``, and writes nothing under
``bench/``.

Two runs on ``plane-partition`` at one seed, with one work directory,
must print the same lines, one per command of the workload in its order.
The command names are read from ``bench/workloads.py`` by executing its
source, so no bytecode is written under ``bench/`` here either.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "report_digests.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


def bench_files():
    return sorted(str(p.relative_to(ROOT)) for p in (ROOT / "bench").rglob("*"))


def digests(workdir, *extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--workloads", "plane-partition", "--seeds", "601",
         "--workdir", str(workdir), *extra],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    assert out.stderr == ""
    return out.stdout


def test_two_runs_print_the_same_line_for_every_command(tmp_path, monkeypatch):
    before = bench_files()
    first, second = digests(tmp_path / "work"), digests(tmp_path / "work")
    assert first == second
    assert bench_files() == before

    module = types.ModuleType("bench_workloads")
    monkeypatch.setitem(sys.modules, module.__name__, module)  # its dataclasses look it up
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    names = [op.name for op in module.build("plane-partition", 601, str(tmp_path / "w")).ops]
    lines = first.splitlines()
    assert [line.split()[:3] for line in lines] == [["plane-partition", "601", n] for n in names]
    for line in lines:
        code, out, err = line.split()[3:]
        assert code == "exit=0"
        assert out.startswith("out=") and len(out) == len("out=") + 64
        assert err == "err=" + hashlib.sha256(b"").hexdigest()  # nothing on stderr


def test_a_child_interpreter_prints_the_same_lines(tmp_path):
    before = bench_files()
    assert digests(tmp_path / "work", "--python", sys.executable) == digests(tmp_path / "work")
    assert bench_files() == before
