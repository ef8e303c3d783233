"""The CLI's argv reader without argparse, against a frozen argparse parser.

``frozen_parser`` below is the CLI's full argparse tree as it stood
before the arguments moved into the table ``cli._COMMANDS``: one
``add_argument`` call per argument, in registration order (less
``oned --mode``, since removed: the cover picks its own construction).  ``_parse_fast``
must give, for every argv it accepts, the namespace this parser gives,
dest for dest, with equal types and values (``1 == 1.0``, so the types are
compared too), and must decline (return None) every argv of another form,
which ``run_command`` then hands to argparse with unchanged output.

The sweep-count tests at the end check that ``find_common_point`` sweeps
each start once: the smallest ball's center is not swept again as one of
the first six centers.
"""

import argparse
import contextlib
import errno
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import types

import pytest

from ballcover import cli, search
from ballcover.cli import _parse_fast, run_command
from ballcover.covering import BallFamily, find_common_point
from ballcover.geometry import SPACE_KINDS, Space

from test_kernels import ref_find_common_point

SRC = os.path.dirname(os.path.dirname(cli.__file__))
WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


# ---------------------------------------------------------------------------
# the reference: the CLI's argparse tree as it was, one call per argument
# ---------------------------------------------------------------------------


def frozen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballcover",
        description="Covering, selection, and packing algorithms for ball families.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_subcommand(name, help_text, scene=True):
        p = sub.add_parser(name, help=help_text)
        if scene:
            p.add_argument("scene", help="path to a scene JSON document")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--timing", action="store_true", help="record wall time in the report")
        return p

    p = add_subcommand("validate", "run a configuration validator on a scene")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.add_argument(
        "--what",
        required=True,
        choices=["besicovitch", "alpha-config", "satellite", "k-config"],
    )
    p.add_argument("--alpha", type=float, help="alpha-config: ratio (default 0.75)")
    p.add_argument("--tau", type=float, help="satellite: ratio (default 1.5)")
    p.add_argument(
        "--target-index", type=int, help="alpha-config: index of the target ball (default 0)"
    )

    p = add_subcommand("select", "bounded-overlap subcover selection")
    p.add_argument("--beta", type=float, default=0.5, help="radius band ratio")

    p = add_subcommand("partition", "partition into pairwise-disjoint families")
    p.add_argument("--alpha", type=float, default=0.75, help="radius band ratio")

    add_subcommand("oned", "two-family disjoint cover on the line")

    p = add_subcommand("net", "greedy separated subset of the scene points")
    p.add_argument("--eps", type=float, required=True, help="separation distance")
    p.add_argument("--strict", action="store_true", help="require strictly greater separation")

    p = add_subcommand("search", "randomized configuration search", scene=False)
    p.add_argument(
        "--what", required=True, choices=["wbcp", "hadwiger", "pack5", "satellite"]
    )
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, help="not hadwiger: proposals (default 10000)")
    p.add_argument("--restarts", type=int, help="not hadwiger: restarts (default 4)")
    p.add_argument("--rmin", type=float, help="wbcp: smallest radius (default 0.5)")
    p.add_argument("--rmax", type=float, help="wbcp: largest radius (default 1.5)")
    p.add_argument("--tau", type=float, help="satellite: diameter ratio (default 1.5)")
    p.add_argument("--lam", type=float, help="satellite: roundness (default 1.0)")

    p = add_subcommand("cip", "shrunk-common-point search", scene=False)
    p.add_argument("scene", nargs="?", default=None, help="scene to check (omit with --trials)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--shrink", type=float, default=0.95)
    p.add_argument(
        "--trials", type=int, default=None, help="run on random configurations instead"
    )
    p.add_argument("--seed", type=int, default=0)

    p = add_subcommand("constants", "extremal-constants report", scene=False)
    p.add_argument("--dims", default="1,2", help="comma-separated dimensions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=4000)

    p = add_subcommand("volume", "geodesic ball volume", scene=False)
    p.add_argument("--space", choices=list(SPACE_KINDS), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--pnorm", type=float, help="euclidean: the p of the norm (default 2)")
    p.add_argument("--sphere-radius", type=float, help="sphere: its radius (default 1)")

    return parser


FROZEN = frozen_parser()


def typed(namespace):
    """Each dest's type and value; ``repr`` keeps a NaN equal to itself."""
    return {dest: (type(v).__name__, repr(v)) for dest, v in vars(namespace).items()}


def frozen_parse(argv):
    """The frozen parser's typed namespace for ``argv``, or None on an error
    (or help)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return typed(FROZEN.parse_args(argv))
        except SystemExit:
            return None


def assert_same_parse(argv):
    fast = _parse_fast(argv)
    assert fast is not None, argv
    assert typed(fast) == frozen_parse(argv), argv


# ---------------------------------------------------------------------------
# (a) every well-formed argv is read as argparse reads it
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workload_argvs(tmp_path_factory):
    """Every command of the four benchmark workloads at four seeds; the
    workloads are read by executing ``bench/workloads.py``'s source, so no
    bytecode is written under ``bench/``."""
    root = tmp_path_factory.mktemp("workloads")
    module = types.ModuleType("bench_workloads")
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, module.__name__, module)  # its dataclasses look it up
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
        return [op.argv for seed in (601, 777, 909, 2718) for name in module.WORKLOADS
                for op in module.build(name, seed, str(root / f"{name}-{seed}")).ops]


def test_every_benchmark_command_is_read_without_argparse(workload_argvs):
    assert len(workload_argvs) > 100
    assert {argv[0] for argv in workload_argvs} >= {"validate", "search", "cip", "oned"}
    for argv in workload_argvs:
        assert_same_parse(argv)


# per subcommand: a well-formed argv giving every option a valid value
EVERY_OPTION = {
    "validate": ["validate", "s.json", "--tol", "1e-7", "--what", "alpha-config",
                 "--alpha", "0.6", "--tau", "2", "--target-index", "3"],
    "select": ["select", "s.json", "--beta", "0.25"],
    "partition": ["partition", "s.json", "--alpha", "0.5"],
    "oned": ["oned", "s.json"],
    "net": ["net", "s.json", "--eps", "0.5", "--strict"],
    "search": ["search", "--what", "satellite", "--dim", "3", "--seed", "12", "--budget", "40",
               "--restarts", "2", "--rmin", "0.1", "--rmax", "2", "--tau", "1.25",
               "--lam", "1.5"],
    "cip": ["cip", "s.json", "--m", "2", "--shrink", "0.9", "--seed", "4"],
    "constants": ["constants", "--dims", "1,2,3", "--seed", "3", "--budget", "100"],
    "volume": ["volume", "--space", "sphere", "--dim", "2", "--r", "0.5", "--pnorm", "3",
               "--sphere-radius", "2"],
}


def test_every_subcommand_has_a_case():
    assert list(EVERY_OPTION) == list(cli._COMMANDS)


@pytest.mark.parametrize("name", list(EVERY_OPTION))
def test_every_option_every_order_and_the_common_flags(name):
    argv = EVERY_OPTION[name]
    assert_same_parse(argv)
    assert_same_parse(argv + ["--timing", "--out", "r.json"])
    assert_same_parse([name, "--out", "r.json", "--timing"] + argv[1:])
    # the positional first, last and between options
    if argv[1] == "s.json":
        rest = argv[2:]
        assert_same_parse([name] + rest + ["s.json"])
        assert_same_parse([name] + rest[:2] + ["s.json"] + rest[2:])


@pytest.mark.parametrize("argv", [
    ["cip", "--m", "2", "--trials", "3"],
    ["cip", "--m", "2", "--trials", "3", "--seed", "9", "--shrink", "0.5"],
    ["cip", "s.json", "--m", "3"],
    ["cip", "--m", "3", "s.json"],
    ["cip", "--m", "3", "s.json", "--trials", "2"],
    ["constants"],
    ["validate", "s.json", "--what", "besicovitch"],
    ["volume", "--space", "euclidean", "--dim", "2", "--r", "nan"],
    ["volume", "--space", "euclidean", "--dim", " 2 ", "--r", "1_000"],
    ["select", ""],
    ["net", "s.json", "--eps", "inf"],
], ids=" ".join)
def test_more_well_formed_argvs(argv):
    assert_same_parse(argv)


def test_absent_flags_get_argparses_defaults():
    args = _parse_fast(["cip", "--m", "2", "--trials", "3"])
    assert args.scene is None and args.timing is False and args.out is None
    args = _parse_fast(["search", "--what", "wbcp", "--dim", "2"])
    assert (args.budget, args.restarts, args.tau, args.seed) == (None, None, None, 0)
    assert not hasattr(args, "scene")


# ---------------------------------------------------------------------------
# (b) every other form is declined and goes to argparse unchanged
# ---------------------------------------------------------------------------

VOLUME = ["volume", "--space", "euclidean", "--dim", "2", "--r", "1"]

DECLINED = [
    # forms argparse accepts
    ["volume", "--space", "euclidean", "--di", "2", "--r", "1"],  # an abbreviation
    ["volume", "--space=euclidean", "--dim", "2", "--r", "1"],
    ["validate", "{scene}", "--what=besicovitch"],
    ["validate", "{scene}", "--what", "besicovitch", "--tol", "-1e-9"],
    ["volume", "--space", "euclidean", "--dim", "2", "--r", "1", "--r", "2"],  # repeated
    ["validate", "--what", "besicovitch", "--", "{scene}"],
    ["cip", "--m", "2", "--trials", "2", "--", "{scene}"],
    # help and errors
    ["-h"], ["--help"], ["validate", "-h"], [*VOLUME, "-h"], ["cip", "--m", "2", "--help"],
    [], ["nope"], ["--"], [*VOLUME, "--bogus", "1"], [*VOLUME, "-x"],
    ["validate", "{scene}"], ["net", "{scene}"], ["volume", "--space", "sphere", "--dim", "2"],
    ["validate", "{scene}", "--what", "nope"], ["oned", "{scene}", "--mode", "bounded"],
    ["volume", "--space", "nope", "--dim", "2", "--r", "1"],
    ["volume", "--space", "euclidean", "--dim", "2.5", "--r", "1"],
    ["net", "{scene}", "--eps", "x"], ["cip", "--m", "2", "--trials", "x"],
    ["select", "{scene}", "{scene}"], ["cip", "{scene}", "{scene}", "--m", "2"],
    ["search", "{scene}", "--what", "hadwiger", "--dim", "2"],
    ["select"], ["net", "{scene}", "--eps"], ["volume", "--space", "--dim", "2", "--r", "1"],
    [*VOLUME, "-1"],
]


@pytest.fixture
def scene(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"version": 1, "space": {"kind": "euclidean", "dim": 2},
                                "balls": [{"center": [0.0, 0.0], "radius": 1.0},
                                          {"center": [1.5, 0.0], "radius": 1.0}]}))
    return str(path)


def outcome(argv, capsys):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
def test_other_forms_go_to_argparse_unchanged(argv, scene, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [a.format(scene=scene) for a in argv]
    assert _parse_fast(argv) is None
    got = outcome(argv, capsys)
    monkeypatch.setattr(cli, "_build_parser", frozen_parser)
    assert got == outcome(argv, capsys)


# ---------------------------------------------------------------------------
# (c) seeded fuzz: None, or exactly argparse's namespace
# ---------------------------------------------------------------------------

VALUES = ["s.json", "", "0", "2", "3", "-1", "0.5", "1e-9", "-1e-9", "nan", "x", "1,2",
          "besicovitch", "alpha-config", "wbcp", "hadwiger", "satellite", "euclidean",
          "sphere", "bounded", "--", "-h", "--help", "--wh", "--dim=2", "-x"]


def fuzz_argv(rng):
    """A mostly well-formed argv of a random subcommand, with a few
    random words inserted, dropped or repeated."""
    names = list(cli._COMMANDS)
    name = rng.choice(names) if rng.random() < 0.95 else rng.choice(["nope", "-h", "--"])
    arguments = cli._COMMANDS.get(name, (None, None, ()))[2]
    words = []
    for flag, kw, *_reads in arguments:
        if rng.random() < (0.9 if kw.get("required") or not flag.startswith("-") else 0.35):
            if not flag.startswith("-"):
                words.append(["s.json"])
            elif kw.get("action") == "store_true":
                words.append([flag])
            elif "choices" in kw:
                words.append([flag, rng.choice(list(kw["choices"]))])
            else:
                kind = kw.get("type", str)
                words.append([flag, rng.choice({int: ["0", "2", "7"], float: ["0.5", "2", "1e-3"],
                                                 str: ["r.json", "1,2"]}[kind])])
    rng.shuffle(words)
    argv = [name] + [w for group in words for w in group]
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        pos = rng.randrange(1, len(argv) + 1)
        edit = rng.random()
        if edit < 0.4:
            argv.insert(pos, rng.choice(VALUES))
        elif edit < 0.6 and len(argv) > 1:
            del argv[rng.randrange(1, len(argv))]
        elif edit < 0.8 and len(argv) > 1:
            argv.insert(pos, argv[rng.randrange(1, len(argv))])
        else:
            flags = [f for n in names for f, *_ in cli._COMMANDS[n][2] if f.startswith("-")]
            argv.insert(pos, rng.choice(flags))
    return argv


def test_seeded_fuzz():
    rng = random.Random(1966)
    accepted = declined_valid = 0
    for _ in range(3000):
        argv = fuzz_argv(rng)
        fast, ref = _parse_fast(argv), frozen_parse(argv)
        if fast is None:
            declined_valid += ref is not None
            continue
        accepted += 1
        assert typed(fast) == ref, argv
    # both readers are exercised: many argvs taken, many left to argparse
    assert accepted > 1000 and 3000 - accepted > 500, (accepted, declined_valid)


# ---------------------------------------------------------------------------
# the cip trials call the common-point check bound on ``search``
# ---------------------------------------------------------------------------


def test_a_cip_patch_set_before_the_call_is_called_on_every_trial(monkeypatch, capsys):
    real = search.cip_check
    calls = []

    def counted(family, m, s):
        calls.append(family.space)
        return real(family, m, s)

    monkeypatch.setattr(search, "cip_check", counted)
    assert run_command(["cip", "--m", "2", "--trials", "4", "--seed", "3"]) in (0, 1)
    assert len(calls) == 4 and all(space is calls[0] for space in calls)
    assert json.loads(capsys.readouterr().out)["payload"]["trials"] == 4


# ---------------------------------------------------------------------------
# (e) find_common_point sweeps each start once
# ---------------------------------------------------------------------------


def swept_starts(family, monkeypatch):
    model = family.space._model
    real, starts = model.sweep, []

    def counted(x, *args):
        starts.append(x)
        return real(x, *args)

    monkeypatch.setattr(model, "sweep", counted)
    return find_common_point(family), starts


def disjoint_family(space, radii):
    """Balls far apart on the first axis: no common point, so every start
    is swept."""
    dim = space.dim + (0 if space.is_flat else 1)
    coords = []
    for k in range(len(radii)):
        x = [0.0] * dim
        if space.is_flat:
            x[0] = 10.0 * k
        else:  # on a great circle, 0.3 apart: the first and last balls are disjoint
            x[0], x[1] = math.cos(0.3 * k), math.sin(0.3 * k)
        coords.append(tuple(x))
    return BallFamily.from_columns(space, coords, radii)


@pytest.mark.parametrize("smallest", [0, 2, 5, 7])
@pytest.mark.parametrize("space", [Space.euclidean(2), Space.euclidean(3, 3.0), Space.sphere(2)],
                         ids=["l2", "l3", "sphere"])
def test_each_start_is_swept_once(space, smallest, monkeypatch):
    radii = [1.0 + 0.1 * k for k in range(8)]
    radii[smallest] = 0.1 if space.is_flat else 0.05
    if not space.is_flat:
        radii = [r * 0.2 for r in radii]
    family = disjoint_family(space, radii)
    got, starts = swept_starts(family, monkeypatch)
    coords = family.coords
    expected = [coords[smallest]]
    if space.is_flat:
        expected.append(space._model.centroid(coords))
    expected += [c for i, c in enumerate(coords[:6]) if i != smallest]
    assert starts == expected
    assert len(set(starts)) == len(starts)
    ref_point, ref_v, _ = ref_find_common_point(family)
    assert got.point is None and ref_point is None
    assert repr(got.max_violation) == repr(ref_v)


def test_equal_centers_of_different_balls_are_both_swept(monkeypatch):
    space = Space.euclidean(2)
    coords = [(0.0, 0.0), (0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]
    family = BallFamily.from_columns(space, coords, [1.0, 0.5, 1.0, 1.0])
    _, starts = swept_starts(family, monkeypatch)
    # ball 1 is the smallest; ball 0 has the same center and is swept again
    assert starts == [coords[1], space._model.centroid(coords), coords[0], coords[2], coords[3]]


# ---------------------------------------------------------------------------
# help that cannot be written
# ---------------------------------------------------------------------------


def help_to(stdout, argv, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "ballcover.cli", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["-h"], ["validate", "-h"]], ids=" ".join)
def test_help_to_a_full_device_exits_2(argv, unbuffered):
    with open("/dev/full", "w") as full:
        out = help_to(full, argv, unbuffered)
    assert (out.returncode, out.stderr) == (
        2, f"error: cannot write to standard output: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_help_to_a_closed_pipe_exits_2(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = help_to(write_end, ["-h"], unbuffered)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (
        2, f"error: cannot write to standard output: {os.strerror(errno.EPIPE)}\n")


def test_help_without_stdout_in_process(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", None)
    assert run_command(["-h"]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write to standard output: {os.strerror(errno.EBADF)}\n")
