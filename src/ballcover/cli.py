"""Command-line surface: every major operation behind one subcommand.

Exit codes: 0 means the command succeeded and every asserted property
held; 1 means a verified property violation (a validator rejected, a
witness was not found, or a result failed re-certification); 2 means an
input or usage error, including a report that cannot be written; 3
means an internal guarantee of the algorithms failed to hold, which is
a defect, not a property of the input.  Reports are JSON documents
written to standard output or, with ``--out``, atomically to a file.
Randomized subcommands take a ``--seed`` (default 0) and echo it; wall
time stays null unless ``--timing`` is passed, so re-runs with
identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Optional

import numpy as np

from .covering import (
    BallFamily,
    epsilon_net_greedy,
    is_alpha_configuration,
    is_besicovitch_family,
    is_k_configuration,
    is_tau_satellite_configuration,
)
from .errors import BallcoverError, InputError, InternalError
from .geometry import Ball, Point, Space, ball_volume, distance
from .sceneio import (
    ball_doc,
    build_report,
    parse_scene,
    render_report,
    scene_digest,
)
from .search import (
    SearchConfig,
    cip_check,
    constants_markdown,
    constants_report,
    construct_strict_hadwiger,
    pack_unit_balls_radius5,
    satellite_max_search,
    search_max_besicovitch_family,
)
from .selection import (
    besicovitch_cover_1d,
    partition_into_disjoint_families,
    select_bounded_overlap_subcover,
)

__all__ = ["run_command", "main"]


def _jsonable(value):
    if isinstance(value, Point):
        return list(value.coords)
    if isinstance(value, Ball):
        return ball_doc(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballcover",
        description="Covering, selection, and packing algorithms for ball families.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, scene=True):
        if scene:
            p.add_argument("scene", help="path to a scene JSON document")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--timing", action="store_true", help="record wall time in the report")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")

    p = sub.add_parser("validate", help="run a configuration validator on a scene")
    add_common(p)
    p.add_argument(
        "--what",
        required=True,
        choices=["besicovitch", "alpha-config", "satellite", "k-config"],
    )
    p.add_argument("--alpha", type=float, default=0.75, help="ratio for alpha-config")
    p.add_argument("--tau", type=float, default=1.5, help="ratio for satellite")
    p.add_argument(
        "--target-index",
        type=int,
        default=0,
        help="index of the target ball for alpha-config",
    )

    p = sub.add_parser("select", help="bounded-overlap subcover selection")
    add_common(p)
    p.add_argument("--beta", type=float, default=0.5, help="radius band ratio")

    p = sub.add_parser("partition", help="partition into pairwise-disjoint families")
    add_common(p)
    p.add_argument("--alpha", type=float, default=0.75, help="radius band ratio")

    p = sub.add_parser("oned", help="two-family disjoint cover on the line")
    add_common(p)
    p.add_argument("--mode", choices=["auto", "bounded", "scattered"], default="auto")

    p = sub.add_parser("net", help="greedy separated subset of the scene points")
    add_common(p)
    p.add_argument("--eps", type=float, required=True, help="separation distance")
    p.add_argument("--strict", action="store_true", help="require strictly greater separation")

    p = sub.add_parser("search", help="randomized configuration search")
    add_common(p, scene=False)
    p.add_argument(
        "--what", required=True, choices=["wbcp", "hadwiger", "pack5", "satellite"]
    )
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--rmin", type=float, default=0.5, help="wbcp: smallest radius")
    p.add_argument("--rmax", type=float, default=1.5, help="wbcp: largest radius")
    p.add_argument("--tau", type=float, default=1.5, help="satellite: diameter ratio")
    p.add_argument("--lam", type=float, default=1.0, help="satellite: roundness")

    p = sub.add_parser("cip", help="shrunk-common-point search")
    add_common(p, scene=False)
    p.add_argument("scene", nargs="?", default=None, help="scene to check (omit with --trials)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--shrink", type=float, default=0.95)
    p.add_argument("--trials", type=int, default=None, help="run on random configurations instead")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("constants", help="extremal-constants report")
    add_common(p, scene=False)
    p.add_argument("--dims", default="1,2", help="comma-separated dimensions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=4000)

    p = sub.add_parser("volume", help="geodesic ball volume")
    add_common(p, scene=False)
    p.add_argument("--space", choices=["euclidean", "sphere", "hyperbolic"], required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--pnorm", type=float, default=2.0)
    p.add_argument("--sphere-radius", type=float, default=1.0)

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
        sys.stdout.write(text)
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


def _tolkw(args) -> dict:
    return {} if args.tol is None else {"tol": args.tol}


def _cmd_validate(args):
    scene, digest = _load_scene(args.scene)
    if args.what == "besicovitch":
        verdict = is_besicovitch_family(scene.family, **_tolkw(args))
    elif args.what == "k-config":
        verdict = is_k_configuration(scene.family, **_tolkw(args))
    elif args.what == "alpha-config":
        n = len(scene.family)
        if not 0 <= args.target_index < n:
            raise InputError(f"target index {args.target_index} out of range for {n} balls")
        target = scene.family[args.target_index]
        rest = BallFamily(
            scene.space,
            tuple(b for i, b in enumerate(scene.family) if i != args.target_index),
        )
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


def _scene_centers(scene):
    if scene.points:
        return list(scene.points)
    return [b.center for b in scene.family]


def _cmd_select(args):
    scene, digest = _load_scene(args.scene)
    result = select_bounded_overlap_subcover(scene.family, _scene_centers(scene), args.beta)
    payload = {
        "count": len(result.selected),
        "selected": [ball_doc(b) for b in result.selected],
        "bands": list(result.bands),
        "max_overlap": result.overlap.max_overlap,
        "covered_centers": sum(result.covered_centers),
    }
    return payload, digest, None, 0


def _cmd_partition(args):
    scene, digest = _load_scene(args.scene)
    result = partition_into_disjoint_families(scene.family, args.alpha)
    payload = {
        "family_count": len(result.families),
        "families": [[ball_doc(b) for b in fam] for fam in result.families],
        "assignment": list(result.assignment),
        "family_count_bound": result.family_count_bound,
        "bound_is_empirical": result.bound_is_empirical,
    }
    return payload, digest, None, 0


def _cmd_oned(args):
    scene, digest = _load_scene(args.scene)
    if scene.points:
        centers = [p.coords[0] for p in scene.points]
    else:
        centers = [b.center.coords[0] for b in scene.family]
    result = besicovitch_cover_1d(scene.family, centers, mode=args.mode)
    payload = {
        "family_count": len(result.families),
        "families": [[ball_doc(b) for b in fam] for fam in result.families],
        "assignment": list(result.assignment),
        "tags": list(result.chain_state.tags) if result.chain_state else None,
    }
    return payload, digest, None, 0


def _cmd_net(args):
    scene, digest = _load_scene(args.scene)
    pts = _scene_centers(scene)
    net = epsilon_net_greedy(scene.space, pts, args.eps, strict=args.strict)
    payload = {
        "count": len(net.indices),
        "indices": list(net.indices),
        "strict": bool(args.strict),
        "eps": args.eps,
    }
    return payload, digest, None, 0


def _cmd_search(args):
    config = SearchConfig(seed=args.seed, budget=args.budget, restarts=args.restarts)
    if args.what == "hadwiger":
        fam = construct_strict_hadwiger(args.dim)
        payload = {
            "what": args.what,
            "score": len(fam),
            "feasible": True,
            "balls": [ball_doc(b) for b in fam],
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
        "balls": [ball_doc(b) for b in res.best],
    }
    return payload, None, args.seed, (0 if res.feasible else 1)


def _random_cip_family(rng, m):
    space = Space.euclidean(2)
    y = rng.uniform(-1.0, 1.0, 2)
    balls = []
    for _ in range(2 * m + 1):
        r = rng.uniform(0.5, 2.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        d = r * rng.uniform(0.0, 1.0)
        balls.append(
            Ball(Point((y[0] + d * math.cos(ang), y[1] + d * math.sin(ang))), r)
        )
    return BallFamily(space, tuple(balls))


def _cmd_cip(args):
    if args.trials is not None:
        if args.trials < 1:
            raise InputError(f"trials must be >= 1, got {args.trials}")
        rng = np.random.default_rng([args.seed & 0xFFFFFFFF, 0xC19])
        found = 0
        for _ in range(args.trials):
            fam = _random_cip_family(rng, args.m)
            if cip_check(fam, args.m, args.shrink).found:
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
    if args.space == "euclidean":
        space = Space.euclidean(args.dim, pnorm=args.pnorm)
    elif args.space == "sphere":
        space = Space.sphere(args.dim, radius=args.sphere_radius)
    else:
        space = Space.hyperbolic(args.dim)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
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
    wall = time.perf_counter() - started if args.timing else None
    report = build_report(
        command=list(argv),
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
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
