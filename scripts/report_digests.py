"""Print the exit code and report digests of every benchmark command.

Each command of the named workloads of ``bench/workloads.py`` runs
through ``ballcover.cli.run_command`` in process, at every seed given.
The scenes of a workload are built with ``bench/workloads.build`` into
one fixed work directory, so the scene paths that a report echoes in its
``command`` are the same from one source tree to another.  One line per
command goes to standard output:

    <workload> <seed> <command> exit=<code> out=<sha256> err=<sha256>

where the digests are of the command's standard output and standard
error.  Two trees give the same reports exactly when their outputs are
equal:

    PYTHONPATH=src python scripts/report_digests.py --seeds 601,2718 > a.txt

With ``--python EXE`` the scenes are still built here (``bench/`` needs
numpy), but the commands run in one child ``EXE`` on this tree's
``src/``, which needs the standard library only; so the lines of two
interpreters can be compared the same way:

    PYTHONPATH=src python scripts/report_digests.py --python python3.12 > b.txt

Nothing is written under ``bench/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # read bench/, write nothing there
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "bench"))

from ballcover.cli import run_command  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(list(argv))
    return f"exit={code} out={_sha256(out.getvalue())} err={_sha256(err.getvalue())}"


def serve() -> None:
    """Run each JSON argv line of standard input; answer with its line."""
    for line in sys.stdin:
        print(run(json.loads(line)), flush=True)


def child(python: str):
    """``run`` in a ``python`` child on this tree's ``src/``."""
    proc = subprocess.Popen(
        [python, os.path.abspath(__file__), "--serve"], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )

    def run_there(argv) -> str:
        proc.stdin.write(json.dumps(argv) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(f"{python} exited with code {proc.wait()} on {argv}")
        return line.rstrip("\n")

    return proc, run_there


def main() -> None:
    if sys.argv[1:] == ["--serve"]:
        return serve()
    from workloads import WORKLOADS, build

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma-separated workload names (default: all four)")
    ap.add_argument("--seeds", default="601", help="comma-separated benchmark seeds")
    ap.add_argument("--workdir", default=os.path.join(tempfile.gettempdir(), "ballcover-digests"),
                    help="where the scenes are written (default: %(default)s)")
    ap.add_argument("--python", help="run the commands in this interpreter (default: in process)")
    args = ap.parse_args()
    names = [name for name in args.workloads.split(",") if name]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workloads: {', '.join(unknown)}")
    workdir = os.path.abspath(args.workdir)
    proc, runner = child(args.python) if args.python else (None, run)
    for seed in map(int, args.seeds.split(",")):
        for name in names:
            for op in build(name, seed, workdir).ops:
                print(name, seed, op.name, runner(op.argv), flush=True)
    if proc is not None:
        proc.stdin.close()
        if proc.wait():
            raise SystemExit(f"{args.python} exited with code {proc.returncode}")


if __name__ == "__main__":
    main()
