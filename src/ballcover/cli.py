"""Command-line surface: every major operation behind one subcommand.

Exit codes: 0 means the command succeeded and every asserted property
held; 1 means a verified property violation (a validator rejected, a
witness was not found, or a result failed re-certification); 2 means an
input or usage error, including a report that cannot be written (a
closed or failing standard output too); 3
means a defect, not a property of the input: an internal guarantee of
the algorithms failed, or any other exception was raised.  Reports are
JSON documents written to standard output or, with ``--out``,
atomically to a file; a device or pipe is written in place.  Randomized
subcommands take a ``--seed`` (default 0) and echo it; wall time stays
null unless ``--timing`` is passed, so re-runs with identical inputs
produce byte-identical reports.  No subcommand imports numpy: ``search``,
``cip --trials`` and ``constants`` draw from ``ballcover._rng``, a pure-Python
copy of numpy's ``default_rng`` stream, so their seeded reports are pinned in
this package and do not depend on the installed numpy.  Importing this
module loads neither ``search`` nor ``selection``: a handler imports them
when it calls them.  A well-formed argv is read from the argument table
``_COMMANDS`` without argparse; help, and any argv of another form, goes
to argparse, which is imported for it.
"""

from __future__ import annotations

import errno
import gc
import math
import os
import stat
import sys
import time
from types import SimpleNamespace
from typing import Optional

from .covering import (
    BallFamily,
    epsilon_net_greedy,
    is_alpha_configuration,
    is_besicovitch_family,
    is_k_configuration,
    is_tau_satellite_configuration,
)
from .errors import BallcoverError, InputError, InternalError
from .geometry import SPACE_KINDS, Ball, Point, Space, ball_volume
from .sceneio import (
    ball_docs,
    build_report,
    parse_scene,
    render_report,
    scene_digest,
)

__all__ = ["run_command", "main"]

def _jsonable(value):
    if isinstance(value, Point):
        return list(value.coords)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, with every subcommand and its arguments.

    Help that cannot be written exits 2 with one line on stderr.
    """
    import argparse  # here only: a well-formed argv is read by _parse_fast

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            file = sys.stdout if file is None else file
            try:
                if file is None:  # the process started with standard output closed
                    raise OSError(errno.EBADF, os.strerror(errno.EBADF))
                file.write(self.format_help())
                file.flush()
            except OSError as exc:
                self.exit(2, f"error: cannot write to standard output: {exc.strerror or exc}\n")

    parser = Parser(
        prog="ballcover",
        description="Covering, selection, and packing algorithms for ball families.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_handler, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kw, *_reads in arguments:
            p.add_argument(flag, **kw)
    return parser


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _parse_fast(argv) -> Optional[SimpleNamespace]:
    """The namespace argparse gives a well-formed ``argv``, without argparse;
    None for any other argv.

    Well formed: ``argv[0]`` names a subcommand, and every other word is
    the positional, a ``store_true`` flag, or an option spelled out in full
    followed by one value that does not start with ``-``; no option comes
    twice, each value converts with its option's type into its choices,
    and every required argument is there.  Help, abbreviations,
    ``--opt=value``, ``--`` and every error are left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    arguments = {flag: kw for flag, kw, *_reads in _COMMANDS[argv[0]][2]}
    values = {_dest(flag): False if kw.get("action") == "store_true" else kw.get("default")
              for flag, kw in arguments.items()}
    values["subcommand"] = argv[0]
    words, seen, positionals = iter(argv[1:]), set(), []
    for word in words:
        if not word.startswith("-"):
            positionals.append(word)
            continue
        kw = arguments.get(word)
        if kw is None or word in seen:
            return None
        seen.add(word)
        if kw.get("action") == "store_true":
            values[_dest(word)] = True
            continue
        value = next(words, "-")
        if value.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        values[_dest(word)] = value
    if any(kw.get("required") and flag not in seen for flag, kw in arguments.items()):
        return None
    scene = arguments.get("scene")
    fewest = 0 if scene is None or scene.get("nargs") == "?" else 1
    if not fewest <= len(positionals) <= (scene is not None):
        return None
    if positionals:
        values["scene"] = positionals[0]
    return SimpleNamespace(**values)


def _load_scene(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read scene {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"scene is not valid UTF-8: {exc}") from exc
    return parse_scene(text), scene_digest(text)


def _emit(report: dict, out: Optional[str]) -> None:
    text = render_report(report)
    if out is None:
        if sys.stdout is None:  # the process started with standard output closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        # flushed here, so a failed write is reported and exits 2
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    try:
        special = not stat.S_ISREG(os.stat(out).st_mode)
    except FileNotFoundError:
        special = False
    if special:
        # a device or pipe is written in place: replacing it would turn it
        # into a regular file
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    import tempfile  # here, not at module level: start-up imports stay unchanged

    # a fresh temp file next to the target, so concurrent runs never share one
    target = os.path.abspath(out)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(target) + ".", suffix=".tmp", dir=os.path.dirname(target)
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates mode 0600; give the report the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def _apply_flags(args, option) -> None:
    """Refuse a flag that the value of ``option`` (``--what`` or
    ``--space``) does not read; give every such flag left unset its
    default."""
    choice = getattr(args, _dest(option))
    for flag, _kw, *reads in _COMMANDS[args.subcommand][2]:
        if reads:
            (default, readers), dest = reads[0], _dest(flag)
            if getattr(args, dest) is None:
                setattr(args, dest, default)
            elif choice not in readers:
                raise InputError(f"{flag} does not apply to {option} {choice}")


def _tolkw(args) -> dict:
    return {} if args.tol is None else {"tol": args.tol}


def _cmd_validate(args):
    _apply_flags(args, "--what")
    scene, digest = _load_scene(args.scene)
    if args.what == "besicovitch":
        verdict = is_besicovitch_family(scene.family, **_tolkw(args))
    elif args.what == "k-config":
        verdict = is_k_configuration(scene.family, **_tolkw(args))
    elif args.what == "alpha-config":
        t, n = args.target_index, len(scene.family)
        if not 0 <= t < n:
            raise InputError(f"target index {t} out of range for {n} balls")
        target = Ball(Point(scene.family.coords[t]), scene.family.radii[t])
        rest = scene.family._subset([i for i in range(n) if i != t])
        verdict = is_alpha_configuration(rest, target, args.alpha, **_tolkw(args))
    else:
        if not scene.sets:
            raise InputError("satellite validation needs a scene with quasi-round sets")
        points = list(scene.points) if scene.points else [s.anchor for s in scene.sets]
        verdict = is_tau_satellite_configuration(
            scene.space, list(scene.sets), points, args.tau, **_tolkw(args)
        )
    payload = {
        "what": args.what,
        "status": verdict.status,
        "reason": verdict.reason,
        "witness": _jsonable(verdict.witness),
    }
    return payload, digest, None, (0 if verdict.is_valid else 1)


def _scene_center_coords(scene):
    """The coordinate tuples of the centers a command covers: the scene's
    points when it has any, else the centers of its balls."""
    if scene.points:
        return [p.coords for p in scene.points]
    return scene.family.coords


def _cmd_select(args):
    from .selection import select_bounded_overlap_subcover

    scene, digest = _load_scene(args.scene)
    result = select_bounded_overlap_subcover(
        scene.family, list(map(Point, _scene_center_coords(scene))), args.beta
    )
    payload = {
        "count": len(result.selected),
        "selected": ball_docs(result.selected),
        "bands": list(result.bands),
        "max_overlap": result.overlap.max_overlap,
        "covered_centers": sum(result.covered_centers),
    }
    return payload, digest, None, 0


def _cmd_partition(args):
    from .selection import partition_into_disjoint_families

    scene, digest = _load_scene(args.scene)
    result = partition_into_disjoint_families(scene.family, args.alpha)
    payload = {
        "family_count": len(result.families),
        "families": [ball_docs(fam) for fam in result.families],
        "assignment": list(result.assignment),
        "family_count_bound": result.family_count_bound,
        "bound_is_empirical": result.bound_is_empirical,
    }
    return payload, digest, None, 0


def _cmd_oned(args):
    from .selection import besicovitch_cover_1d

    scene, digest = _load_scene(args.scene)
    centers = [c[0] for c in _scene_center_coords(scene)]
    result = besicovitch_cover_1d(scene.family, centers)
    payload = {
        "family_count": len(result.families),
        "families": [ball_docs(fam) for fam in result.families],
        "assignment": list(result.assignment),
        "tags": list(result.tags),
    }
    return payload, digest, None, 0


def _cmd_net(args):
    scene, digest = _load_scene(args.scene)
    pts = list(map(Point, _scene_center_coords(scene)))
    net = epsilon_net_greedy(scene.space, pts, args.eps, strict=args.strict)
    payload = {
        "count": len(net.indices),
        "indices": list(net.indices),
        "strict": bool(args.strict),
        "eps": args.eps,
    }
    return payload, digest, None, 0


def _cmd_search(args):
    from .search import (SearchConfig, construct_strict_hadwiger, pack_unit_balls_radius5,
                         satellite_max_search, search_max_besicovitch_family)

    _apply_flags(args, "--what")
    config = SearchConfig(seed=args.seed, budget=args.budget, restarts=args.restarts)
    if args.what == "hadwiger":
        fam = construct_strict_hadwiger(args.dim)
        payload = {
            "what": args.what,
            "score": len(fam),
            "feasible": True,
            "balls": ball_docs(fam),
        }
        return payload, None, args.seed, 0
    if args.what == "wbcp":
        res = search_max_besicovitch_family(
            Space.euclidean(args.dim), (args.rmin, args.rmax), config
        )
    elif args.what == "pack5":
        res = pack_unit_balls_radius5(args.dim, config)
    else:
        res = satellite_max_search(Space.euclidean(args.dim), args.tau, args.lam, config)
    payload = {
        "what": args.what,
        "score": res.score,
        "feasible": res.feasible,
        "trace": list(res.trace),
        "balls": ball_docs(res.best),
    }
    return payload, None, args.seed, (0 if res.feasible else 1)


def _random_cip_family(rng, m, plane):
    y = rng.uniform(-1.0, 1.0, 2)
    coords, radii = [], []
    for _ in range(2 * m + 1):
        r = rng.uniform(0.5, 2.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        d = r * rng.uniform(0.0, 1.0)
        coords.append((y[0] + d * math.cos(ang), y[1] + d * math.sin(ang)))
        radii.append(r)
    return BallFamily.from_columns(plane, coords, radii)


def _cmd_cip(args):
    from .search import cip_check

    if args.trials is not None:
        if args.scene is not None:
            raise InputError(f"cip takes a scene path or --trials, not both: {args.scene!r}")
        if args.trials < 1:
            raise InputError(f"trials must be >= 1, got {args.trials}")
        from ._rng import Generator

        rng = Generator([args.seed & 0xFFFFFFFF, 0xC19])
        plane, found = Space.euclidean(2), 0
        for _ in range(args.trials):
            if cip_check(_random_cip_family(rng, args.m, plane), args.m, args.shrink).found:
                found += 1
        payload = {
            "m": args.m,
            "shrink": args.shrink,
            "trials": args.trials,
            "found": found,
            "rate": found / args.trials,
        }
        return payload, None, args.seed, (0 if found == args.trials else 1)
    if args.scene is None:
        raise InputError("cip needs a scene path or --trials")
    scene, digest = _load_scene(args.scene)
    res = cip_check(scene.family, args.m, args.shrink)
    payload = {
        "m": args.m,
        "shrink": args.shrink,
        "found": res.found,
        "indices": _jsonable(res.indices),
        "witness": _jsonable(res.witness),
    }
    return payload, digest, args.seed, (0 if res.found else 1)


def _cmd_constants(args):
    from .search import SearchConfig, constants_markdown, constants_report

    try:
        dims = [int(tok) for tok in args.dims.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"cannot parse --dims {args.dims!r}") from exc
    config = SearchConfig(seed=args.seed, budget=args.budget, restarts=2)
    rows = constants_report(dims, config)
    payload = {
        "rows": [
            {
                "name": r.name,
                "dim": r.dim,
                "paper_value": _jsonable(r.paper_value),
                "achieved_lower_bound": r.achieved_lower_bound,
                "method": r.method,
            }
            for r in rows
        ],
        "markdown": constants_markdown(rows),
    }
    return payload, None, args.seed, 0


def _cmd_volume(args):
    _apply_flags(args, "--space")
    space = Space(args.space, args.dim, pnorm=args.pnorm, radius=args.sphere_radius)
    payload = {"space": args.space, "dim": args.dim, "r": args.r,
               "volume": ball_volume(space, args.r)}
    return payload, None, None, 0


_SCENE = ("scene", {"help": "path to a scene JSON document"})
_OUT = ("--out", {"help": "write the report to this path instead of stdout"})
_TIMING = ("--timing", {"action": "store_true", "help": "record wall time in the report"})
_SEED = ("--seed", {"type": int, "default": 0})
_SEARCHES = ("wbcp", "pack5", "satellite")

# Every subcommand, in registration order: its handler, its help and its
# arguments, each a name and its argparse keywords.  A flag that only some
# values of --what or --space read has a third entry: the default it gets
# when left unset, and those values (_apply_flags refuses it for the rest).
_COMMANDS = {
    "validate": (_cmd_validate, "run a configuration validator on a scene", (
        _SCENE, _OUT, _TIMING,
        ("--tol", {"type": float, "default": None, "help": "tolerance override"}),
        ("--what", {"required": True,
                    "choices": ["besicovitch", "alpha-config", "satellite", "k-config"]}),
        ("--alpha", {"type": float, "help": "alpha-config: ratio (default 0.75)"},
         (0.75, ("alpha-config",))),
        ("--tau", {"type": float, "help": "satellite: ratio (default 1.5)"}, (1.5, ("satellite",))),
        ("--target-index",
         {"type": int, "help": "alpha-config: index of the target ball (default 0)"},
         (0, ("alpha-config",))))),
    "select": (_cmd_select, "bounded-overlap subcover selection", (
        _SCENE, _OUT, _TIMING,
        ("--beta", {"type": float, "default": 0.5, "help": "radius band ratio"}))),
    "partition": (_cmd_partition, "partition into pairwise-disjoint families", (
        _SCENE, _OUT, _TIMING,
        ("--alpha", {"type": float, "default": 0.75, "help": "radius band ratio"}))),
    "oned": (_cmd_oned, "two-family disjoint cover on the line", (_SCENE, _OUT, _TIMING)),
    "net": (_cmd_net, "greedy separated subset of the scene points", (
        _SCENE, _OUT, _TIMING,
        ("--eps", {"type": float, "required": True, "help": "separation distance"}),
        ("--strict", {"action": "store_true", "help": "require strictly greater separation"}))),
    "search": (_cmd_search, "randomized configuration search", (
        _OUT, _TIMING,
        ("--what", {"required": True, "choices": ["wbcp", "hadwiger", "pack5", "satellite"]}),
        ("--dim", {"type": int, "required": True}),
        _SEED,
        ("--budget", {"type": int, "help": "not hadwiger: proposals (default 10000)"},
         (10_000, _SEARCHES)),
        ("--restarts", {"type": int, "help": "not hadwiger: restarts (default 4)"}, (4, _SEARCHES)),
        ("--rmin", {"type": float, "help": "wbcp: smallest radius (default 0.5)"},
         (0.5, ("wbcp",))),
        ("--rmax", {"type": float, "help": "wbcp: largest radius (default 1.5)"},
         (1.5, ("wbcp",))),
        ("--tau", {"type": float, "help": "satellite: diameter ratio (default 1.5)"},
         (1.5, ("satellite",))),
        ("--lam", {"type": float, "help": "satellite: roundness (default 1.0)"},
         (1.0, ("satellite",))))),
    "cip": (_cmd_cip, "shrunk-common-point search", (
        _OUT, _TIMING,
        ("scene", {"nargs": "?", "default": None, "help": "scene to check (omit with --trials)"}),
        ("--m", {"type": int, "required": True}),
        ("--shrink", {"type": float, "default": 0.95}),
        ("--trials",
         {"type": int, "default": None, "help": "run on random configurations instead"}),
        _SEED)),
    "constants": (_cmd_constants, "extremal-constants report", (
        _OUT, _TIMING,
        ("--dims", {"default": "1,2", "help": "comma-separated dimensions"}),
        _SEED,
        ("--budget", {"type": int, "default": 4000}))),
    "volume": (_cmd_volume, "geodesic ball volume", (
        _OUT, _TIMING,
        ("--space", {"choices": list(SPACE_KINDS), "required": True}),
        ("--dim", {"type": int, "required": True}),
        ("--r", {"type": float, "required": True}),
        ("--pnorm", {"type": float, "help": "euclidean: the p of the norm (default 2)"},
         (2.0, ("euclidean",))),
        ("--sphere-radius", {"type": float, "help": "sphere: its radius (default 1)"},
         (1.0, ("sphere",))))),
}
_HANDLERS = {name: command[0] for name, command in _COMMANDS.items()}


def run_command(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    argv = list(argv)
    args = _parse_fast(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
    started = time.perf_counter()
    try:
        payload, digest, seed, code = _HANDLERS[args.subcommand](args)
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    except BallcoverError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        # a crash is a defect, never a verified violation (exit 1)
        sys.stderr.write(f"internal error: unexpected {type(exc).__name__}: {exc}\n")
        return 3
    wall = time.perf_counter() - started if args.timing else None
    report = build_report(
        command=argv,
        payload=payload,
        input_digest=digest,
        seed=seed,
        wall_time_s=wall,
    )
    try:
        _emit(report, args.out)
    except OSError as exc:
        where = "standard output" if args.out is None else repr(args.out)
        sys.stderr.write(f"error: cannot write the report to {where}: {exc.strerror or exc}\n")
        return 2
    return code


def main() -> None:
    """The console entry point: runs one command and ends the process.

    It ends with ``os._exit``, which skips the interpreter's teardown
    (freeing every module and object, a large share of a short command's
    time) and anything else that would run after it, so in-process callers
    use ``run_command``.  The teardown's flush of the standard streams is
    done here.  The cyclic garbage collector is switched off for the call:
    a call makes no cyclic garbage worth collecting and the process never
    tears down, while the collector's passes over a parsed scene took
    about 6 % of the CPU of the benchmark's line workload.
    """
    gc.disable()
    code = run_command(sys.argv[1:])
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:  # help text, or a report whose write has already failed
        code = 2
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    main()
