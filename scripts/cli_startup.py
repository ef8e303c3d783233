"""Time fresh CLI processes: interpreter start, the CLI import and six calls.

Eight children are timed, each run ``--rounds`` times, in an order that
reverses from round to round, so host drift falls on all of them alike:

* ``pass``: ``python -c pass``, the interpreter alone;
* ``import``: ``python -c "import ballcover.cli"``;
* ``volume``: ``python -m ballcover.cli volume`` on a Euclidean 3-ball;
* ``validate``: the first ``validate`` command of the benchmark's
  ``validate-batch`` workload at ``--seed``;
* ``oned``: the ``oned-bounded`` command of its ``line-1d`` workload
  (30,000 intervals);
* ``partition``: the ``partition-plane`` command of its
  ``plane-partition`` workload;
* ``help``: ``python -m ballcover.cli -h``, which goes through argparse;
* ``search``: ``search --what hadwiger --dim 3``, a well-formed argv of a
  subcommand without a scene, read without argparse.

The scenes are built with ``bench/workloads.build`` into a temporary
directory, and nothing is written under ``bench/``.  Each child gets the
benchmark's environment (``PYTHONPATH``, ``PYTHONHASHSEED=0``, buffered
output), with its report sent to ``/dev/null``.  With ``--src`` given more
than once, the trees' children alternate within each round, so two source
trees can be compared.  One JSON object goes to standard output, with the
min and median wall time of each child per tree and the min and median of
its own user+sys CPU time (from ``os.wait4``), in seconds:

    python scripts/cli_startup.py [--rounds 15] [--seed 601] [--src DIR ...]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # read bench/, write nothing there
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import build  # noqa: E402


def children(seed: int, workdir: str) -> dict:
    """The argv after ``python`` of each child."""
    validate = next(op for op in build("validate-batch", seed, workdir).ops
                    if op.argv[0] == "validate")
    oned = next(op for op in build("line-1d", seed, workdir).ops if op.name == "oned-bounded")
    partition = next(op for op in build("plane-partition", seed, workdir).ops
                     if op.name == "partition-plane")
    cli = ["-m", "ballcover.cli"]
    return {
        "pass": ["-c", "pass"],
        "import": ["-c", "import ballcover.cli"],
        "volume": [*cli, "volume", "--space", "euclidean", "--dim", "3", "--r", "1.5"],
        "validate": [*cli, *validate.argv],
        "oned": [*cli, *oned.argv],
        "partition": [*cli, *partition.argv],
        "help": [*cli, "-h"],
        "search": [*cli, "search", "--what", "hadwiger", "--dim", "3"],
    }


def timed(argv, src: str) -> tuple:
    """(wall s, user+sys CPU s) of one child."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": src,
           "PYTHONHASHSEED": "0"}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code not in (0, 1):
        raise RuntimeError(f"{argv} exited {code} with PYTHONPATH={src}")
    return elapsed, usage.ru_utime + usage.ru_stime


def summary(runs) -> dict:
    walls, cpus = zip(*runs)
    return {"min_s": round(min(walls), 4), "median_s": round(statistics.median(walls), 4),
            "cpu_min_s": round(min(cpus), 4), "cpu_median_s": round(statistics.median(cpus), 4)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--seed", type=int, default=601)
    ap.add_argument("--src", action="append",
                    help="a source tree's src directory (default: this tree's)")
    args = ap.parse_args()
    trees = [os.path.abspath(s) for s in args.src or [os.path.join(ROOT, "src")]]
    with tempfile.TemporaryDirectory(prefix="cli-startup-") as workdir:
        argvs = children(args.seed, workdir)
        runs = [(src, name) for name in argvs for src in trees]
        samples = {run: [] for run in runs}
        for k in range(args.rounds):
            for src, name in runs if k % 2 == 0 else reversed(runs):
                samples[src, name].append(timed(argvs[name], src))
    print(json.dumps({
        "seed": args.seed,
        "rounds": args.rounds,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "trees": [{"src": src, "children": {
            name: summary(samples[src, name]) for name in argvs}} for src in trees],
    }, indent=2))


if __name__ == "__main__":
    main()
