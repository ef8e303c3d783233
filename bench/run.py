#!/usr/bin/env python3
"""The ballcover benchmark.

Run from the repository root:

    python3 bench/run.py --workload line-1d --seed 1 --seconds 28 --trace 0

``--trace 0`` drives ``python -m ballcover.cli`` as child processes, one
at a time (a closed loop with one client: each call starts after the
previous one exits), over passes of the workload's command list, and
reports the end-to-end metrics.  ``--trace 1`` runs the same commands
in-process through ``ballcover.cli.run_command``, once plain and once
with every module wrapped (see ``tracing.py``), and reports the
per-layer metrics.  Every report is judged by an oracle in
``oracles.py``; a wrong answer is a failed operation with a reason.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (per-op
outcomes, failure reasons, scene hashes, the environment) go to the lines
before it and to ``bench/out/``.
"""

from __future__ import annotations

import os
import sys

# Children and this process both use single-threaded BLAS, so the numbers
# do not depend on how many cores a numpy call could grab.
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Seconds of timed calls between two samples of set-up and host speed.
SAMPLE_EVERY_S = 2.5
# The host's speed drifts by up to 1.6x over minutes (see NOTES.md), so
# every timing is scaled by REFERENCE_S over the mean time of this child,
# which runs between the calls and shares no code with ballcover: start-up,
# the numpy import, JSON and a plain Python loop, as in a CLI call.
REFERENCE_CODE = (
    "import json, numpy\n"
    "balls = [{'center': [0.5 * i, 1.0], 'radius': 0.25} for i in range(10000)]\n"
    "s = 0.0\n"
    "for b in json.loads(json.dumps(balls)):\n"
    "    s += b['center'][0] * b['radius']\n"
)
# Scaled seconds are seconds at the host speed where the reference child
# takes this long (about the 2-CPU host of the numbers in NOTES.md).
REFERENCE_S = 0.32
CHILD_TIMEOUT_S = 60.0


def child_env() -> dict:
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
    }
    env.update(BLAS_ENV)
    return env


def run_child(cmd, out_path, err_path):
    """Run one child to completion; returns (exit, wall s, cpu s, max RSS KiB)."""
    start = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with >= 10 samples above it.

    With fewer than 21 samples no such percentile lies above the median, so
    the median is returned.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return 50.0, statistics.median(xs)
    k = n - 11
    return round(100.0 * (k + 1) / n, 1), xs[k]


def read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


class Ledger:
    """Per-operation outcomes, failure reasons and report hashes."""

    def __init__(self, ops):
        self.attempted = 0
        self.failed = 0
        self.undecided = 0
        self.reasons = Counter()
        self.undecided_reasons = Counter()
        self.per_op = {op.name: {"runs": 0, "failed": 0, "undecided": 0,
                                 "reports": set(), "outcome": None} for op in ops}
        self.score = 0
        self.families = 0
        self._first = {}
        self._judged = {}
        self.harness_errors = []

    def record(self, op, exit_code, stdout, stderr, scene_text, counted_pass):
        """Judge one call; identical (exit, report, stderr) triples are judged once."""
        sha = hashlib.sha256(stdout).hexdigest()
        key = (op.name, exit_code, sha, hashlib.sha256(stderr).hexdigest())
        rec = self.per_op[op.name]
        rec["runs"] += 1
        rec["reports"].add(sha)
        self.attempted += 1
        first = self._first.setdefault(op.name, (exit_code, sha))
        if key not in self._judged:
            try:
                self._judged[key] = oracles.judge(op, exit_code, stdout, stderr, scene_text)
            except Exception:  # an oracle bug must not pass as a verdict
                self.harness_errors.append(f"{op.name}: {traceback.format_exc(limit=3)}")
                self._judged[key] = oracles.Outcome(oracles.UNDECIDED, "oracle error")
        outcome = self._judged[key]
        if first != (exit_code, sha):
            outcome = oracles.Outcome(oracles.FAIL, "non-identical repeat")
        rec["outcome"] = outcome
        if outcome.status == oracles.FAIL:
            self.failed += 1
            rec["failed"] += 1
            self.reasons[_reason_class(outcome.reason)] += 1
        elif outcome.status == oracles.UNDECIDED:
            self.undecided += 1
            rec["undecided"] += 1
            self.undecided_reasons[outcome.reason] += 1
        if counted_pass and outcome.status == oracles.OK:
            self.score += outcome.score or 0
            self.families += outcome.families or 0

    def quality(self) -> dict:
        n = max(1, self.attempted)
        return {
            "fail_rate": self.failed / n,
            "undecided_rate": self.undecided / n,
            "certified_score": self.score,
            "families_used": self.families,
        }

    def detail(self) -> dict:
        return {
            "failures_by_reason": dict(self.reasons),
            "undecided_by_reason": dict(self.undecided_reasons),
            "ops": {
                name: {
                    "runs": r["runs"],
                    "failed": r["failed"],
                    "undecided": r["undecided"],
                    "status": r["outcome"].status if r["outcome"] else None,
                    "reason": r["outcome"].reason if r["outcome"] else None,
                    "report_sha256": sorted(r["reports"]),
                }
                for name, r in self.per_op.items()
            },
            "harness_errors": self.harness_errors,
        }


def _reason_class(reason: str) -> str:
    if reason.startswith("crash"):
        return "crash"
    if reason.startswith("unexpected exit"):
        return "unexpected_exit"
    if reason == "non-identical repeat":
        return "nonidentical_repeat"
    return "oracle_reject"


def scene_text_of(op, cache):
    if op.scene is None:
        return None
    if op.scene not in cache:
        cache[op.scene] = read(op.scene)
    return cache[op.scene]


def time_child(workdir, source, what):
    """Wall time of one `python -c source` child."""
    out, err = os.path.join(workdir, "sample.out"), os.path.join(workdir, "sample.err")
    code, wall, *_ = run_child([sys.executable, "-c", source], out, err)
    if code != 0:
        raise RuntimeError(f"{what} child failed: " + read(err)[-500:])
    return wall


def time_setup(workdir):
    """Wall time of a child that only imports ballcover.cli."""
    return time_child(workdir, "import ballcover.cli", "set-up")


def time_reference(workdir):
    return time_child(workdir, REFERENCE_CODE, "reference")


def summarize(wl, calls, setup_samples, reference_samples):
    """End-to-end metrics from per-call samples [(op name, wall s, cpu s, max RSS KiB)].

    Every timing is a mean over the whole run, scaled to the reference
    host speed, and the latency distribution is that of one pass: one
    value per command, its mean wall time per call.  See NOTES.md for why.
    """
    scale = REFERENCE_S / statistics.fmean(reference_samples)
    wall = {op.name: [] for op in wl.ops}
    cpu = {op.name: [] for op in wl.ops}
    for name, w, c, _rss in calls:
        wall[name].append(w)
        cpu[name].append(c)
    raw = {
        "setup_s": statistics.fmean(setup_samples),
        "wall_s": sum(statistics.fmean(v) for v in wall.values()),
        "cpu_s": sum(statistics.fmean(v) for v in cpu.values()),
    }
    latencies = sorted(scale * statistics.fmean(v) for v in wall.values())
    tail_pct, tail = tail_percentile(latencies)
    wall_s = scale * raw["wall_s"]
    metrics = {
        "setup_s": (scale * raw["setup_s"], "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (scale * raw["cpu_s"], "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "items_per_s": (sum(op.items for op in wl.ops) / wall_s, "1/s"),
        "peak_rss_mb": (max(c[3] for c in calls) / 1024.0, "MB"),
    }
    info = {"latency_tail_percentile": tail_pct, "host_scale": scale, "unscaled": raw}
    return metrics, info


def run_untraced(wl, seconds, workdir):
    """Passes over the command list until `seconds` of calls have been timed."""
    ledger = Ledger(wl.ops)
    time_setup(workdir)  # warm-up: writes the bytecode cache
    time_reference(workdir)
    setup_samples, reference_samples, calls, trace = [], [], [], []
    outputs = []
    out_path = os.path.join(workdir, "call.out")
    err_path = os.path.join(workdir, "call.err")
    measured = last_sample = pass_s = 0.0
    passes = 0
    # Whole passes, so every command fails or passes the same share of its
    # calls on every run, and at least two, so every command is repeated.
    # The last pass is the one that ends nearest to `seconds`.
    while passes < 2 or measured + pass_s / 2 < seconds:
        pass_start = measured
        for op in wl.ops:
            # set-up and reference samples are spread over the run, between calls
            if not setup_samples or measured - last_sample >= SAMPLE_EVERY_S:
                last_sample = measured
                for name, timer, samples in (("(setup)", time_setup, setup_samples),
                                             ("(reference)", time_reference,
                                              reference_samples)):
                    wall = timer(workdir)
                    trace.append((round(measured, 3), name, wall, None))
                    samples.append(wall)
                    measured += wall
            cmd = [sys.executable, "-m", "ballcover.cli", *op.argv]
            code, wall, c, maxrss = run_child(cmd, out_path, err_path)
            trace.append((round(measured, 3), op.name, wall, c))
            calls.append((op.name, wall, c, maxrss))
            measured += wall
            outputs.append((passes, op, code, read(out_path, "rb"), read(err_path, "rb")))
        pass_s = measured - pass_start
        passes += 1
        # judge outside the timed calls, keeping memory to one pass of reports
        cache = {}
        for p_, op, code, out, err in outputs:
            ledger.record(op, code, out, err, scene_text_of(op, cache), p_ == 0)
        outputs.clear()
    metrics, info = summarize(wl, calls, setup_samples, reference_samples)
    q = ledger.quality()
    extra = dict(q)
    extra["score_per_cpu_s"] = q["certified_score"] / metrics["cpu_s"][0]
    info.update({
        "passes": passes,
        "calls": len(calls),
        "measured_s": measured,
        "setup_samples_s": setup_samples,
        "reference_samples_s": reference_samples,
        "items_per_pass": sum(op.items for op in wl.ops),
        "call_trace": trace,
    })
    return ledger, metrics, extra, info


def _in_process(cli, ops, request_hook=None):
    """Run every op through run_command; returns (wall, cpu, [(op, code, out, err)])."""
    results = []
    t0, c0 = time.perf_counter(), time.process_time()
    for k, op in enumerate(ops):
        if request_hook:
            request_hook(k)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run_command(list(op.argv))
            except Exception:  # the CLI process would die with a traceback
                traceback.print_exc(file=err)
                code = 1
        results.append((op, code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")))
    return time.perf_counter() - t0, time.process_time() - c0, results


def run_traced(wl):
    sys.path.insert(0, SRC)
    import ballcover  # noqa: PLC0415
    import ballcover.cli as cli  # noqa: PLC0415

    if not os.path.abspath(ballcover.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported ballcover from {ballcover.__file__}, not {SRC}")
    ledger = Ledger(wl.ops)
    cache = {}

    def judge(results, counted):
        for op, code, out, err in results:
            ledger.record(op, code, out, err, scene_text_of(op, cache), counted)

    # The first plain pass warms caches; the traced pass is compared with
    # the second plain pass, which runs after it.
    judge(_in_process(cli, wl.ops)[2], True)
    tracer = tracing.Tracer(ballcover)
    tracer.install(tracing.MEASURED)
    try:
        def hook(k):
            tracer.request = k
        wall1, _cpu1, traced = _in_process(cli, wl.ops, hook)
    finally:
        tracer.uninstall()
    judge(traced, False)
    wall0, cpu0, plain = _in_process(cli, wl.ops)
    judge(plain, False)
    tracer.check_hit(tracing.EXPECTED[wl.name])
    layers = tracer.layer_metrics()
    q = ledger.quality()
    layers.update(q)
    layers["score_per_cpu_s"] = q["certified_score"] / cpu0
    layers["trace_overhead_ratio"] = wall1 / wall0
    info = {"untraced_wall_s": wall0, "traced_wall_s": wall1, "spans": len(tracer.spans)}
    return ledger, layers, info, tracer


def env_block() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "child_env": {k: v for k, v in child_env().items() if k != "PATH"},
        "load": "closed loop, one client, one call at a time",
    }


LAYER_UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "mb_per_s": "MB/s", "mb": "MB",
    "ns_per_call": "ns", "found_ratio": "ratio", "intervals_per_s": "1/s",
    "validator_calls": "count", "valid": "count", "invalid": "count",
    "indeterminate": "count", "fail_rate": "ratio", "undecided_rate": "ratio",
    "certified_score": "count", "families_used": "count", "score_per_cpu_s": "1/s",
    "trace_overhead_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[-1]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ballcover", "cli.py")):
        print(f"error: no ballcover sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2

    workdir = os.path.join(BENCH_DIR, ".work", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        wl = workloads.build(args.workload, args.seed, os.path.relpath(workdir, ROOT))
        if args.trace:
            ledger, layers, info, tracer = run_traced(wl)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
            os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
            with open(os.path.join(BENCH_DIR, "out", f"{args.workload}-s{args.seed}-spans.json"),
                      "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "request"],
                           "spans": tracer.spans}, fh)
        else:
            ledger, e2e, extra, info = run_untraced(wl, args.seconds, workdir)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
            info["quality"] = extra
    except tracing.MissingLayer as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env_block(),
        "scenes": wl.scenes,
        "run": info,
        "outcomes": ledger.detail(),
    }
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    out_file = os.path.join(BENCH_DIR, "out",
                            f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({**detail, "metrics": metrics}, fh, indent=1, sort_keys=True, default=str)

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        for name, v in info["quality"].items():
            print(f"{name:48s} {v:>16.6g} {layer_unit(name)}")
    print(f"failures by reason: {dict(ledger.reasons)}")
    print(f"undecided by reason: {dict(ledger.undecided_reasons)}")
    summary = {"env": detail["env"],
               "run": {k: v for k, v in info.items() if k != "call_trace"}}
    print(json.dumps(summary, sort_keys=True, default=str))
    result = {
        "correct": not ledger.harness_errors,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
