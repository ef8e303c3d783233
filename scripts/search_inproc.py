"""Time the commands of a benchmark workload in process.

Each command of the benchmark's ``search-anneal`` workload (the
``SEARCH_COMMANDS`` table of ``bench/workloads.py``: ``search`` for
wbcp, pack5 and satellite, ``cip --trials`` and ``constants``), or of
its ``validate-batch`` workload (31 ``validate`` calls, whose scenes
``bench/workloads.build`` writes at ``--seed`` into ``--workdir``, a
fixed temporary directory, so that two source trees give the same
report digests), runs through ``ballcover.cli.run_command`` ``--runs``
times, the commands taking turns, so a drift of the host's speed
reaches them all alike.  One JSON object goes to standard output, with
each command's minimum and median time, its exit code and the SHA-256
of its report (or error message), which must be the same on every run,
and the number of calls it makes of ``covering.find_common_point`` and
of ``covering.is_tau_satellite_configuration``, counted on one more run
(deterministic, so they show where a change saved work):

    PYTHONPATH=src python scripts/search_inproc.py [--runs 7] [--only wbcp-d2,constants]
    PYTHONPATH=src python scripts/search_inproc.py --workload validate-batch [--seed 601]

Interpreter start-up is not timed, so these numbers show the work that
the benchmark's ``wall_s`` carries, without a 28-s benchmark run.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # read bench/, write nothing there
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))

from workloads import SEARCH_COMMANDS, build  # noqa: E402

from ballcover import cli, covering, search  # noqa: E402
from ballcover.cli import run_command  # noqa: E402

COUNTED = ("find_common_point", "is_tau_satellite_configuration")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = time.perf_counter()
        code = run_command(list(argv))
        elapsed = time.perf_counter() - start
    return elapsed, code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@contextlib.contextmanager
def counting():
    """Count the calls of each ``COUNTED`` function of ``covering``, under
    every module name that binds it; yield the counts."""
    counts, patches = dict.fromkeys(COUNTED, 0), []
    for name in COUNTED:
        real = getattr(covering, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for mod in (covering, search, cli):
            if getattr(mod, name, None) is real:
                patches.append((mod, name, real))
                setattr(mod, name, counted)
    try:
        yield counts
    finally:
        for mod, name, real in patches:
            setattr(mod, name, real)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=7)
    ap.add_argument("--only", default="", help="comma-separated command names (default: all)")
    ap.add_argument("--workload", choices=("search-anneal", "validate-batch"),
                    default="search-anneal")
    ap.add_argument("--seed", type=int, default=601, help="scene seed of validate-batch")
    ap.add_argument("--workdir", default=os.path.join(tempfile.gettempdir(), "ballcover-inproc"),
                    help="where validate-batch's scenes are written (default: %(default)s)")
    args = ap.parse_args()
    only = set(filter(None, args.only.split(",")))
    if args.workload == "search-anneal":
        commands = [(name, argv) for name, argv, _check, _items in SEARCH_COMMANDS]
    else:
        workdir = os.path.abspath(args.workdir)
        commands = [(op.name, op.argv) for op in build(args.workload, args.seed, workdir).ops]
    commands = [(name, argv) for name, argv in commands if not only or name in only]
    times = {name: [] for name, _ in commands}
    reports = {}
    for _ in range(args.runs):
        for name, argv in commands:
            elapsed, code, digest = run(argv)
            times[name].append(elapsed)
            if reports.setdefault(name, (code, digest)) != (code, digest):
                raise SystemExit(f"{name}: the report changed between runs")
    calls = {}
    for name, argv in commands:
        with counting() as counts:
            _elapsed, code, digest = run(argv)
        if reports[name] != (code, digest):
            raise SystemExit(f"{name}: the report changed under the call counters")
        calls[name] = {f"{fn}_calls": n for fn, n in counts.items()}
    rows = [{
        "command": name,
        "argv": argv,
        "min_s": round(min(times[name]), 4),
        "median_s": round(statistics.median(times[name]), 4),
        **calls[name],
        "exit": reports[name][0],
        "report_sha256": reports[name][1],
    } for name, argv in commands]
    print(json.dumps({
        "runs": args.runs,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "total_min_s": round(sum(r["min_s"] for r in rows), 4),
        "rows": rows,
    }, indent=2))


if __name__ == "__main__":
    main()
