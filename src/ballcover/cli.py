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
when it calls them.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import stat
import sys
import time
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

# The names of ``search`` and ``selection`` that the handlers call, imported
# on first use: ``validate`` and ``volume`` read neither module.
_DEFERRED = frozenset("""SearchConfig cip_check constants_markdown constants_report
    construct_strict_hadwiger pack_unit_balls_radius5 satellite_max_search
    search_max_besicovitch_family besicovitch_cover_1d partition_into_disjoint_families
    select_bounded_overlap_subcover""".split())


def __getattr__(name):
    """A deferred name, read from the package, which imports its module:
    ``cli.<name>`` is that module's current binding until one is set on
    this module."""
    if name in _DEFERRED:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The handlers call the deferred names through this module, so a binding set
# on it (a test's patch) wins, and any other is read when the call is made.
_cli = sys.modules[__name__]


def _jsonable(value):
    if isinstance(value, Point):
        return list(value.coords)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _build_parser(first: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser for an argv whose first word is ``first``.

    Every subcommand is registered, so usage lines and top-level errors
    list all nine.  When ``first`` names a subcommand, argparse parses the
    rest with that subcommand's parser alone, so only it gets its arguments.
    """
    parser = argparse.ArgumentParser(
        prog="ballcover",
        description="Covering, selection, and packing algorithms for ball families.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_subcommand(name, help_text, scene=True):
        """The parser of ``name`` with its common arguments, or None when
        ``first`` names another subcommand."""
        p = sub.add_parser(name, help=help_text)
        if first in _HANDLERS and first != name:
            return None
        if scene:
            p.add_argument("scene", help="path to a scene JSON document")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--timing", action="store_true", help="record wall time in the report")
        return p

    if p := add_subcommand("validate", "run a configuration validator on a scene"):
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

    if p := add_subcommand("select", "bounded-overlap subcover selection"):
        p.add_argument("--beta", type=float, default=0.5, help="radius band ratio")

    if p := add_subcommand("partition", "partition into pairwise-disjoint families"):
        p.add_argument("--alpha", type=float, default=0.75, help="radius band ratio")

    if p := add_subcommand("oned", "two-family disjoint cover on the line"):
        p.add_argument("--mode", choices=["auto", "bounded", "scattered"], default="auto")

    if p := add_subcommand("net", "greedy separated subset of the scene points"):
        p.add_argument("--eps", type=float, required=True, help="separation distance")
        p.add_argument("--strict", action="store_true", help="require strictly greater separation")

    if p := add_subcommand("search", "randomized configuration search", scene=False):
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

    if p := add_subcommand("cip", "shrunk-common-point search", scene=False):
        p.add_argument("scene", nargs="?", default=None, help="scene to check (omit with --trials)")
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--shrink", type=float, default=0.95)
        p.add_argument(
            "--trials", type=int, default=None, help="run on random configurations instead"
        )
        p.add_argument("--seed", type=int, default=0)

    if p := add_subcommand("constants", "extremal-constants report", scene=False):
        p.add_argument("--dims", default="1,2", help="comma-separated dimensions")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=4000)

    if p := add_subcommand("volume", "geodesic ball volume", scene=False):
        p.add_argument("--space", choices=list(SPACE_KINDS), required=True)
        p.add_argument("--dim", type=int, required=True)
        p.add_argument("--r", type=float, required=True)
        p.add_argument("--pnorm", type=float, help="euclidean: the p of the norm (default 2)")
        p.add_argument("--sphere-radius", type=float, help="sphere: its radius (default 1)")

    return parser


def _load_scene(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read scene {path!r}: {exc}") from exc
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


# per subcommand: each optional flag's default and the --what or --space
# values that read it; any other value refuses the flag
_SEARCH_FLAGS = {
    "budget": (10_000, ("wbcp", "pack5", "satellite")),
    "restarts": (4, ("wbcp", "pack5", "satellite")),
    "rmin": (0.5, ("wbcp",)),
    "rmax": (1.5, ("wbcp",)),
    "tau": (1.5, ("satellite",)),
    "lam": (1.0, ("satellite",)),
}
_VOLUME_FLAGS = {"pnorm": (2.0, ("euclidean",)), "sphere_radius": (1.0, ("sphere",))}
_VALIDATE_FLAGS = {
    "alpha": (0.75, ("alpha-config",)),
    "target_index": (0, ("alpha-config",)),
    "tau": (1.5, ("satellite",)),
}


def _apply_flags(args, flags, option, choice) -> None:
    """Refuse a flag that ``option choice`` does not read; give every flag
    left unset its default."""
    for dest, (default, readers) in flags.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif choice not in readers:
            flag = "--" + dest.replace("_", "-")
            raise InputError(f"{flag} does not apply to {option} {choice}")


def _tolkw(args) -> dict:
    return {} if args.tol is None else {"tol": args.tol}


def _cmd_validate(args):
    _apply_flags(args, _VALIDATE_FLAGS, "--what", args.what)
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
    scene, digest = _load_scene(args.scene)
    result = _cli.select_bounded_overlap_subcover(
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
    scene, digest = _load_scene(args.scene)
    result = _cli.partition_into_disjoint_families(scene.family, args.alpha)
    payload = {
        "family_count": len(result.families),
        "families": [ball_docs(fam) for fam in result.families],
        "assignment": list(result.assignment),
        "family_count_bound": result.family_count_bound,
        "bound_is_empirical": result.bound_is_empirical,
    }
    return payload, digest, None, 0


def _cmd_oned(args):
    scene, digest = _load_scene(args.scene)
    centers = [c[0] for c in _scene_center_coords(scene)]
    result = _cli.besicovitch_cover_1d(scene.family, centers, mode=args.mode)
    payload = {
        "family_count": len(result.families),
        "families": [ball_docs(fam) for fam in result.families],
        "assignment": list(result.assignment),
        "tags": list(result.chain_state.tags) if result.chain_state else None,
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
    _apply_flags(args, _SEARCH_FLAGS, "--what", args.what)
    config = _cli.SearchConfig(seed=args.seed, budget=args.budget, restarts=args.restarts)
    if args.what == "hadwiger":
        fam = _cli.construct_strict_hadwiger(args.dim)
        payload = {
            "what": args.what,
            "score": len(fam),
            "feasible": True,
            "balls": ball_docs(fam),
        }
        return payload, None, args.seed, 0
    if args.what == "wbcp":
        res = _cli.search_max_besicovitch_family(
            Space.euclidean(args.dim), (args.rmin, args.rmax), config
        )
    elif args.what == "pack5":
        res = _cli.pack_unit_balls_radius5(args.dim, config)
    else:
        res = _cli.satellite_max_search(Space.euclidean(args.dim), args.tau, args.lam, config)
    payload = {
        "what": args.what,
        "score": res.score,
        "feasible": res.feasible,
        "trace": list(res.trace),
        "balls": ball_docs(res.best),
    }
    return payload, None, args.seed, (0 if res.feasible else 1)


def _random_cip_family(rng, m):
    y = rng.uniform(-1.0, 1.0, 2)
    coords, radii = [], []
    for _ in range(2 * m + 1):
        r = rng.uniform(0.5, 2.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        d = r * rng.uniform(0.0, 1.0)
        coords.append((y[0] + d * math.cos(ang), y[1] + d * math.sin(ang)))
        radii.append(r)
    return BallFamily.from_columns(Space.euclidean(2), coords, radii)


def _cmd_cip(args):
    if args.trials is not None:
        if args.scene is not None:
            raise InputError(f"cip takes a scene path or --trials, not both: {args.scene!r}")
        if args.trials < 1:
            raise InputError(f"trials must be >= 1, got {args.trials}")
        from ._rng import Generator

        rng = Generator([args.seed & 0xFFFFFFFF, 0xC19])
        found = 0
        for _ in range(args.trials):
            fam = _random_cip_family(rng, args.m)
            if _cli.cip_check(fam, args.m, args.shrink).found:
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
    res = _cli.cip_check(scene.family, args.m, args.shrink)
    payload = {
        "m": args.m,
        "shrink": args.shrink,
        "found": res.found,
        "indices": _jsonable(res.indices),
        "witness": _jsonable(res.witness),
    }
    return payload, digest, args.seed, (0 if res.found else 1)


def _cmd_constants(args):
    try:
        dims = [int(tok) for tok in args.dims.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"cannot parse --dims {args.dims!r}") from exc
    config = _cli.SearchConfig(seed=args.seed, budget=args.budget, restarts=2)
    rows = _cli.constants_report(dims, config)
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
        "markdown": _cli.constants_markdown(rows),
    }
    return payload, None, args.seed, 0


def _cmd_volume(args):
    _apply_flags(args, _VOLUME_FLAGS, "--space", args.space)
    space = Space(args.space, args.dim, pnorm=args.pnorm, radius=args.sphere_radius)
    payload = {"space": args.space, "dim": args.dim, "r": args.r,
               "volume": ball_volume(space, args.r)}
    return payload, None, None, 0


_HANDLERS = {
    "validate": _cmd_validate,
    "select": _cmd_select,
    "partition": _cmd_partition,
    "oned": _cmd_oned,
    "net": _cmd_net,
    "search": _cmd_search,
    "cip": _cmd_cip,
    "constants": _cmd_constants,
    "volume": _cmd_volume,
}


def run_command(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    argv = list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
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
    done here: argparse leaves its -h text in stdout's buffer.
    """
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
