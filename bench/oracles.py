"""Independent output oracles: stdlib and numpy only, no ``ballcover`` calls.

Each check returns an :class:`Outcome` with status ``ok``, ``fail`` (the
report is wrong, with a reason) or ``undecided`` (the oracle cannot tell
within its tolerance, or the report carries too little to check).

Tolerances are never tighter than the library's: ``LIB_TOL`` mirrors
``ballcover.geometry.DEFAULT_TOL``, and a comparison is undecided only
inside a band of ``ORACLE_TOL`` (ten times wider) around its threshold.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

LIB_TOL = 1e-9
ORACLE_TOL = 1e-8

OK, FAIL, UNDECIDED = "ok", "fail", "undecided"


@dataclass(frozen=True)
class Outcome:
    status: str
    reason: str = ""
    score: Optional[int] = None  # oracle-confirmed search score
    families: Optional[int] = None  # colour classes of a partition / cover


def _ok(**kw):
    return Outcome(OK, **kw)


def _fail(reason):
    return Outcome(FAIL, reason)


def _undecided(reason):
    return Outcome(UNDECIDED, reason)


# ---------------------------------------------------------------------------
# geometry, written out independently of the library
# ---------------------------------------------------------------------------


class Space:
    def __init__(self, doc: dict):
        self.kind = doc["kind"]
        self.dim = int(doc["dim"])
        self.p = float(doc.get("pnorm", 2.0))
        self.R = float(doc.get("radius", 1.0))

    def dist(self, A, B) -> np.ndarray:
        """Distances between matching rows of A and B (broadcasting)."""
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if self.kind == "euclidean":
            D = np.abs(A - B)
            m = np.max(D, axis=-1)
            safe = np.where(m > 0.0, m, 1.0)
            if self.p == 2.0:
                s = np.sqrt(np.sum((D / safe[..., None]) ** 2, axis=-1))
            elif math.isinf(self.p):
                s = np.ones_like(m)
            else:
                s = np.sum((D / safe[..., None]) ** self.p, axis=-1) ** (1.0 / self.p)
            return np.where(m > 0.0, m * s, 0.0)
        if self.kind == "sphere":
            a = A / np.linalg.norm(A, axis=-1, keepdims=True)
            b = B / np.linalg.norm(B, axis=-1, keepdims=True)
            return self.R * 2.0 * np.arctan2(
                np.linalg.norm(a - b, axis=-1), np.linalg.norm(a + b, axis=-1)
            )
        d = A - B
        m = np.sum(d[..., :-1] ** 2, axis=-1) - d[..., -1] ** 2
        return 2.0 * np.arcsinh(np.sqrt(np.maximum(m, 0.0)) / 2.0)

    def pairwise(self, A, B) -> np.ndarray:
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        return self.dist(A[:, None, :], B[None, :, :])


def _three_way(margin, band):
    """Sign of ``margin`` (>0 means the property holds) outside +-band."""
    if np.any(margin < -band):
        return FAIL
    if np.any(margin <= band):
        return UNDECIDED
    return OK


def _balls(doc):
    C = np.array([b["center"] for b in doc["balls"]], dtype=float)
    R = np.array([b["radius"] for b in doc["balls"]], dtype=float)
    return C, R


def _centers_of(doc):
    if doc.get("points"):
        return np.array(doc["points"], dtype=float)
    return _balls(doc)[0]


def _same_balls(a, b):
    """Two ball lists hold the same balls, in any order.

    Radii must agree exactly; centers up to a few ulps, because the library
    re-projects sphere and hyperboloid coordinates onto the surface.
    """
    if len(a) != len(b):
        return False
    if not a:
        return True
    ka = sorted(a, key=lambda x: (x["radius"], x["center"]))
    kb = sorted(b, key=lambda x: (x["radius"], x["center"]))
    if any(x["radius"] != y["radius"] for x, y in zip(ka, kb)):
        return False
    ca = np.array([x["center"] for x in ka], dtype=float)
    cb = np.array([x["center"] for x in kb], dtype=float)
    return bool(np.all(np.abs(ca - cb) <= 1e-12 * (1.0 + np.abs(ca))))


def _subset_of_scene(scene_balls, chosen):
    """Every chosen ball is a scene ball (same radius, center up to ulps)."""
    by_r = {}
    for b in scene_balls:
        by_r.setdefault(b["radius"], []).append(b)
    return all(any(_same_balls([x], [y]) for y in by_r.get(x["radius"], ())) for x in chosen)


def _classes_match(scene_balls, families, assignment, allow_unassigned):
    """Family lists agree with the assignment vector and with the scene."""
    n = len(scene_balls)
    if len(assignment) != n:
        return f"assignment has {len(assignment)} entries for {n} balls"
    k = len(families)
    members = [[] for _ in range(k)]
    for i, a in enumerate(assignment):
        if not isinstance(a, int) or a >= k or a < (-1 if allow_unassigned else 0):
            return f"ball {i} has assignment {a!r} with {k} families"
        if a >= 0:
            members[a].append(scene_balls[i])
    for f in range(k):
        if not _same_balls(members[f], families[f]):
            return f"family {f} does not match the balls assigned to it"
    return None


# ---------------------------------------------------------------------------
# line sweeps
# ---------------------------------------------------------------------------


def _line_disjoint(c, r):
    """Closed intervals pairwise disjoint, by consecutive centers."""
    if len(c) < 2:
        return OK
    o = np.argsort(c, kind="stable")
    c, r = c[o], r[o]
    gap = (c[1:] - c[:-1]) - (r[1:] + r[:-1])
    band = ORACLE_TOL * (1.0 + r[1:] + r[:-1])
    return _three_way(gap, band)


def _line_covered(c, r, x):
    """Per point: 1 surely covered, 0 surely not, -1 within the band."""
    lo, hi = c - r, c + r
    o = np.argsort(lo, kind="stable")
    lo, hi = lo[o], hi[o]
    reach = np.maximum.accumulate(hi)
    band = ORACLE_TOL * (1.0 + float(np.max(r)))
    out = np.full(len(x), -1)
    k = np.searchsorted(lo, x - band, side="right") - 1
    sure = (k >= 0) & (reach[np.maximum(k, 0)] >= x + band)
    k = np.searchsorted(lo, x + band, side="right") - 1
    maybe = (k >= 0) & (reach[np.maximum(k, 0)] >= x - band)
    out[sure] = 1
    out[~maybe] = 0
    return out


def _line_max_depth(lo, hi):
    """Exact maximum depth of closed intervals (openings before closings)."""
    coords = np.concatenate([lo, hi])
    kinds = np.concatenate([np.zeros(len(lo)), np.ones(len(hi))])
    order = np.lexsort((kinds, coords))
    return int(np.max(np.cumsum(np.where(kinds[order] == 0, 1, -1))))


# ---------------------------------------------------------------------------
# exact common point of l2 balls (power minimisation)
# ---------------------------------------------------------------------------


def min_power(C, R):
    """Minimise h(x) = max_i |x - c_i|^2 - r_i^2 over x, for a batch.

    ``C`` is (B, k, d) and ``R`` is (B, k).  The balls share a point iff
    min h <= 0, and the minimiser then lies in every ball.  The minimiser
    is sum(l_i c_i) over at most d+1 active balls with equal power, so it
    is found exactly by solving that linear system for every small subset
    and keeping the candidate of least h.  Returns (h*, x*) in the
    original units.
    """
    C = np.asarray(C, dtype=float)
    R = np.asarray(R, dtype=float)
    Bn, k, d = C.shape
    shift = C.mean(axis=1, keepdims=True)
    scale = np.maximum(np.max(np.abs(C - shift), axis=(1, 2)), np.max(R, axis=1))
    scale = np.where(scale > 0.0, scale, 1.0)
    Cn = (C - shift) / scale[:, None, None]
    Rn = R / scale[:, None]
    W = np.sum(Cn * Cn, axis=2) - Rn * Rn
    best_h = np.full(Bn, np.inf)
    best_x = np.zeros((Bn, d))
    for q in range(1, min(k, d + 1) + 1):
        for S in itertools.combinations(range(k), q):
            Cs = Cn[:, S, :]
            j = S[0]
            M = np.ones((Bn, q, q))
            rhs = np.zeros((Bn, q))
            rhs[:, -1] = 1.0
            for row, i in enumerate(S[1:]):
                diff = Cn[:, i, :] - Cn[:, j, :]
                M[:, row, :] = -2.0 * np.einsum("bd,bqd->bq", diff, Cs)
                rhs[:, row] = -(W[:, i] - W[:, j])
            det = np.linalg.det(M)
            good = np.abs(det) > 1e-12
            M[~good] = np.eye(q)
            lam = np.linalg.solve(M, rhs[..., None])[..., 0]
            x = np.einsum("bq,bqd->bd", lam, Cs)
            h = np.max(np.sum((x[:, None, :] - Cn) ** 2, axis=2) - Rn * Rn, axis=1)
            h = np.where(good, h, np.inf)
            better = h < best_h
            best_h = np.where(better, h, best_h)
            best_x[better] = x[better]
    return best_h * scale * scale, best_x * scale[:, None] + shift[:, 0, :]


def l2_common_point(C, R):
    """Three-way decision for 'the l2 balls share a point'.

    OK when the exact minimiser lies in every ball up to the library's own
    slack, FAIL when even balls widened by the oracle band share no point.
    """
    C = np.asarray(C, dtype=float)[None]
    R = np.asarray(R, dtype=float)[None]
    band = ORACLE_TOL * (1.0 + float(np.max(R)))
    h, x = min_power(C, R)
    viol = float(np.max(np.sqrt(np.sum((x[0] - C[0]) ** 2, axis=1)) - R[0]))
    if h[0] <= 0.0 or viol <= LIB_TOL * (1.0 + float(np.max(R))):
        return OK
    h_loose, _ = min_power(C, R + band)
    return FAIL if h_loose[0] > 0.0 else UNDECIDED


# ---------------------------------------------------------------------------
# per-subcommand checks
# ---------------------------------------------------------------------------


def check_oned(op, payload, doc):
    space = Space(doc["space"])
    if space.kind != "euclidean" or space.dim != 1:
        return _undecided("oned scene is not a line")
    fams = payload["families"]
    if payload["family_count"] != len(fams) or len(fams) > 2:
        return _fail(f"{len(fams)} families reported (at most 2 allowed)")
    err = _classes_match(doc["balls"], fams, payload["assignment"], True)
    if err:
        return _fail(err)
    status = OK
    for f, fam in enumerate(fams):
        if not fam:
            return _fail(f"family {f} is empty")
        c = np.array([b["center"][0] for b in fam], dtype=float)
        r = np.array([b["radius"] for b in fam], dtype=float)
        s = _line_disjoint(c, r)
        if s == FAIL:
            return _fail(f"family {f} holds intersecting intervals")
        status = UNDECIDED if s == UNDECIDED else status
    chosen = [b for fam in fams for b in fam]
    c = np.array([b["center"][0] for b in chosen], dtype=float)
    r = np.array([b["radius"] for b in chosen], dtype=float)
    x = _centers_of(doc)[:, 0]
    cov = _line_covered(c, r, x) if len(chosen) else np.zeros(len(x), dtype=int)
    if np.any(cov == 0):
        return _fail(f"{int(np.sum(cov == 0))} centers left uncovered")
    if status == UNDECIDED or np.any(cov < 0):
        return _undecided("disjointness or coverage within tolerance")
    return _ok(families=len(fams))


def _classes_disjoint(space, C, R):
    if space.kind == "euclidean" and space.dim == 1:
        return _line_disjoint(C[:, 0], R)
    status = OK
    for a in range(0, len(R), 256):
        D = space.pairwise(C[a:a + 256], C)
        S = R[a:a + 256, None] + R[None, :]
        rows = np.arange(a, min(a + 256, len(R)))[:, None]
        upper = np.arange(len(R))[None, :] > rows
        gap = np.where(upper, D - S, np.inf)
        s = _three_way(gap, ORACLE_TOL * (1.0 + S))
        if s == FAIL:
            return FAIL
        status = UNDECIDED if s == UNDECIDED else status
    return status


def check_partition(op, payload, doc):
    space = Space(doc["space"])
    fams = payload["families"]
    if payload["family_count"] != len(fams):
        return _fail("family_count disagrees with the family list")
    err = _classes_match(doc["balls"], fams, payload["assignment"], False)
    if err:
        return _fail(err)
    undecided = False
    for f, fam in enumerate(fams):
        C, R = _balls({"balls": fam})
        s = _classes_disjoint(space, C, R)
        if s == FAIL:
            return _fail(f"class {f} holds intersecting balls")
        undecided = undecided or s == UNDECIDED
    if undecided:
        return _undecided("class disjointness within tolerance")
    return _ok(families=len(fams))


def _slack_to_nearest(space, X, C, R):
    """min_j d(x, c_j) - r_j for every point x (negative means covered)."""
    out = np.empty(len(X))
    for a in range(0, len(X), 256):
        out[a:a + 256] = np.min(space.pairwise(X[a:a + 256], C) - R[None, :], axis=1)
    return out


def _depths(space, X, C, R, extra):
    """Per probe, balls holding it: counts with radii R+extra-band and +band."""
    lo = np.zeros(len(X), dtype=int)
    hi = np.zeros(len(X), dtype=int)
    band = ORACLE_TOL * (1.0 + R)
    for a in range(0, len(X), 256):
        D = space.pairwise(X[a:a + 256], C)
        lo[a:a + 256] = np.sum(D <= R + extra - band, axis=1)
        hi[a:a + 256] = np.sum(D <= R + extra + band, axis=1)
    return lo, hi


def check_select(op, payload, doc):
    space = Space(doc["space"])
    sel = payload["selected"]
    if payload["count"] != len(sel) or len(payload["bands"]) != len(sel):
        return _fail("count or bands disagree with the selection")
    if not _subset_of_scene(doc["balls"], sel):
        return _fail("a selected ball is not in the scene")
    X = _centers_of(doc)
    if not sel:
        return _fail("empty selection") if len(X) else _ok()
    C, R = _balls({"balls": sel})
    slack = _slack_to_nearest(space, X, C, R)
    band = ORACLE_TOL * (1.0 + float(np.max(R)))
    sure, maybe = int(np.sum(slack < -band)), int(np.sum(slack <= band))
    if maybe < len(X):
        return _fail(f"{len(X) - maybe} centers left uncovered")
    reported = payload["covered_centers"]
    if not sure <= reported <= maybe:
        return _fail(f"covered_centers {reported} but recount gives {sure}..{maybe}")
    if space.kind == "euclidean" and space.dim == 1:
        b = ORACLE_TOL * (1.0 + R)
        lo_d = _line_max_depth(C[:, 0] - R + b, C[:, 0] + R - b)
        hi_d = _line_max_depth(C[:, 0] - R - b, C[:, 0] + R + b)
    else:
        lo, hi = _depths(space, X, C, R, LIB_TOL * (1.0 + R))
        lo_d, hi_d = int(np.max(lo)), int(np.max(hi))
    mo = payload["max_overlap"]
    if not lo_d <= mo <= hi_d:
        return _fail(f"max_overlap {mo} but recount gives {lo_d}..{hi_d}")
    if sure != maybe or lo_d != hi_d:
        return _undecided("coverage or depth within tolerance")
    return _ok()


def check_net(op, payload, doc):
    space = Space(doc["space"])
    eps, strict = op.params["eps"], op.params["strict"]
    idx = payload["indices"]
    X = _centers_of(doc)
    if payload["count"] != len(idx) or payload["eps"] != eps or payload["strict"] != strict:
        return _fail("count, eps or strict disagree with the request")
    if any(not 0 <= i < len(X) for i in idx) or any(a >= b for a, b in zip(idx, idx[1:])):
        return _fail("indices out of range or not increasing")
    if not idx:
        return _fail("empty net") if len(X) else _ok()
    K = X[idx]
    band = ORACLE_TOL * (1.0 + eps)
    D = space.pairwise(K, K)
    iu = np.triu_indices(len(idx), 1)
    sep = _three_way(D[iu] - eps, band)
    if sep == FAIL:
        return _fail("two kept points are closer than eps")
    rest = np.setdiff1d(np.arange(len(X)), idx)
    near = _slack_to_nearest(space, X[rest], K, np.full(len(idx), eps)) if len(rest) else np.zeros(0)
    if np.any(near > band):
        return _fail("a dropped point is farther than eps from every kept point")
    if sep == UNDECIDED or np.any(near >= -band):
        return _undecided("separation or maximality within tolerance")
    return _ok()


def _truth_point_ok(space, C, R, point):
    d = space.dist(C, np.asarray(point, dtype=float)[None, :])
    return bool(np.all(d <= R + LIB_TOL * (1.0 + R)))


def _check_pair_claim(space, C, R, reason, pair):
    """Verify an INVALID (i, j) witness: containment or non-intersection."""
    i, j = pair
    if not (0 <= i < len(R) and 0 <= j < len(R)) or i == j:
        return FAIL
    d = float(space.dist(C[i], C[j]))
    if reason.startswith("center containment"):
        return _three_way(np.array([R[j] - d]), ORACLE_TOL * (1.0 + R[j]))
    s = R[i] + R[j]
    return _three_way(np.array([d - s - LIB_TOL * (1.0 + s)]), ORACLE_TOL * (1.0 + s))


def check_validate(op, payload, doc, exit_code):
    space = Space(doc["space"])
    C, R = _balls(doc)
    what = op.check.split("-", 1)[1]
    status, truth = payload["status"], op.truth
    if payload["what"] != what:
        return _fail("report names another validator")
    if (exit_code == 0) != (status == "valid"):
        return _fail(f"exit code {exit_code} with status {status}")
    feasible = truth["kind"] == "feasible"
    if feasible and not _truth_point_ok(space, C, R, truth["point"]):
        return _undecided("planted point failed its own check")
    if status == "indeterminate":
        return _undecided("INDETERMINATE verdict")
    if status == "valid":
        if not feasible:
            return _fail(f"VALID on a planted {truth['kind']} family")
        if what == "besicovitch":
            w = payload["witness"]
            if not isinstance(w, list) or len(w) != C.shape[1]:
                return _fail("VALID without a usable witness point")
            viol = space.dist(C, np.asarray(w, dtype=float)[None, :]) - R
            if np.any(viol > ORACLE_TOL * (1.0 + float(np.max(R)))):
                return _fail("VALID witness lies outside a ball")
        return _ok()
    if status != "invalid":
        return _fail(f"unknown status {status!r}")
    if feasible:
        return _fail("false INVALID on a family with a planted common point: "
                     + str(payload["reason"]).split(" (")[0])
    w = payload["witness"]
    if w is None:
        i, j = truth["pair"]
        if truth["kind"] == "disjoint":
            d = float(space.dist(C[i], C[j]))
            return _ok() if d > R[i] + R[j] else _undecided("planted pair not disjoint")
        return _ok()
    s = _check_pair_claim(space, C, R, str(payload["reason"]), w)
    if s == FAIL:
        return _fail(f"INVALID witness {w} does not hold")
    return _ok() if s == OK else _undecided("INVALID witness within tolerance")


def _exclusion(space, C, R):
    """Center i lies strictly outside ball j for every i != j."""
    D = space.pairwise(C, C)
    off = ~np.eye(len(R), dtype=bool)
    band = np.broadcast_to(ORACLE_TOL * (1.0 + R[None, :]), D.shape)
    return _three_way((D - R[None, :])[off], band[off])


def check_wbcp(op, payload, exit_code):
    balls = payload["balls"]
    if payload["score"] != len(balls) or (exit_code == 0) != bool(payload["feasible"]):
        return _fail("score or exit code disagree with the report")
    if not payload["feasible"]:
        return _undecided("search reported an uncertified family")
    C, R = _balls({"balls": balls})
    if np.any(R < 0.5 * (1 - ORACLE_TOL)) or np.any(R > 1.5 * (1 + ORACLE_TOL)):
        return _fail("radius outside [0.5, 1.5]")
    s = _exclusion(Space({"kind": "euclidean", "dim": C.shape[1]}), C, R)
    if s == FAIL:
        return _fail("a center lies in another ball")
    cp = l2_common_point(C, R)
    if cp == FAIL:
        return _fail("the balls share no common point")
    if OK == s == cp:
        return _ok(score=len(balls))
    return _undecided("exclusion or common point within tolerance")


def check_pack5(op, payload, exit_code):
    balls = payload["balls"]
    if payload["score"] != len(balls) or (exit_code == 0) != bool(payload["feasible"]):
        return _fail("score or exit code disagree with the report")
    if not payload["feasible"]:
        return _undecided("search reported an infeasible packing")
    dim = len(balls[0]["center"])
    if len(balls) > 5 ** dim:
        return _fail("more balls than the volume cap allows")
    if any(b["radius"] != 1.0 for b in balls) or any(x != 0.0 for x in balls[0]["center"]):
        return _fail("radii must be 1 and the first center the origin")
    P = [[Fraction(x) for x in b["center"]] for b in balls]
    lim_in = (4 * (1 + Fraction(LIB_TOL))) ** 2
    lim_sep = (Fraction(2) - Fraction(2 * LIB_TOL)) ** 2
    for k, p in enumerate(P):
        if sum(x * x for x in p) > lim_in:
            return _fail(f"center {k} lies farther than 4 from the origin")
    for a, b in itertools.combinations(range(len(P)), 2):
        if sum((x - y) ** 2 for x, y in zip(P[a], P[b])) < lim_sep:
            return _fail(f"balls {a} and {b} overlap")
    return _ok(score=len(balls))


def check_satellite(op, payload, exit_code):
    balls = payload["balls"]
    if payload["score"] != len(balls) or (exit_code == 0) != bool(payload["feasible"]):
        return _fail("score or exit code disagree with the report")
    if not payload["feasible"]:
        return _undecided("search reported an uncertified configuration")
    C, Rout = _balls({"balls": balls})
    space = Space({"kind": "euclidean", "dim": C.shape[1]})
    inner = Rout / op.params["lam"]
    D = space.pairwise(C, C)
    later = np.triu(np.ones_like(D, dtype=bool), 1)
    # later anchors stay outside earlier inner balls
    band = np.broadcast_to(ORACLE_TOL * (1.0 + inner[:, None]), D.shape)
    if _three_way((D - inner[:, None])[later], band[later]) == FAIL:
        return _fail("a later anchor lies in an earlier inner ball")
    reach = Rout[:, None] + Rout[None, :]
    meets = np.all(D <= reach + (LIB_TOL + ORACLE_TOL) * (1.0 + reach), axis=1)
    if not np.any(meets):
        return _fail("no set meets every other set")
    # the diameter conditions need the set diameters, which the report omits
    return _undecided("satellite report omits set diameters")


def _cip_families(seed, m, trials):
    """The CLI's documented random families for ``cip --trials``."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0xC19])
    C = np.empty((trials, 2 * m + 1, 2))
    R = np.empty((trials, 2 * m + 1))
    for t in range(trials):
        y = rng.uniform(-1.0, 1.0, 2)
        for k in range(2 * m + 1):
            r = rng.uniform(0.5, 2.0)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            d = r * rng.uniform(0.0, 1.0)
            C[t, k] = (y[0] + d * math.cos(ang), y[1] + d * math.sin(ang))
            R[t, k] = r
    return C, R


def check_cip_trials(op, payload, exit_code):
    argv = op.argv
    m = int(argv[argv.index("--m") + 1])
    trials = int(argv[argv.index("--trials") + 1])
    seed = int(argv[argv.index("--seed") + 1])
    found, s = payload["found"], payload["shrink"]
    if payload["m"] != m or payload["trials"] != trials or s != 0.95:
        return _fail("m, trials or shrink disagree with the request")
    if not 0 <= found <= trials or payload["rate"] != found / trials:
        return _fail("found or rate out of range")
    if (exit_code == 0) != (found == trials):
        return _fail(f"exit code {exit_code} with {found}/{trials} found")
    C, R = _cip_families(seed, m, trials)
    sure = np.zeros(trials, dtype=bool)
    maybe = np.zeros(trials, dtype=bool)
    for S in itertools.combinations(range(2 * m + 1), m + 1):
        Cs, Rs = C[:, S, :], s * R[:, S]
        h, _ = min_power(Cs, Rs)
        sure |= h <= 0.0
        h_loose, _ = min_power(Cs, Rs + ORACLE_TOL * (1.0 + Rs.max(axis=1, keepdims=True)))
        maybe |= h_loose <= 0.0
    if found > int(np.sum(maybe)):
        return _fail(f"found {found} but only {int(np.sum(maybe))} trials admit a witness")
    if found > int(np.sum(sure)):
        return _undecided("some witnesses only exist within tolerance")
    return _ok()


_KNOWN = {
    "w": {1: (2, 2), 2: (5, 5), 3: (12, 12), 4: (24, 24)},
    "Hstar": {1: (2, 2), 2: (5, 5), 3: (12, 12)},
    "K": {1: (2, 2), 2: (8, 11)},
    "alpha": {1: (2, 2), 2: (8, 19), 3: (12, 87), 4: (24, 331)},
    "beta": {1: (5, 5), 2: (19, 19), 3: (67, 87), 4: (226, 331)},
}


def check_constants(op, payload, exit_code):
    argv = op.argv
    dims = [int(t) for t in argv[argv.index("--dims") + 1].split(",")]
    rows = payload["rows"]
    got = {(r["name"], r["dim"]): r for r in rows}
    for dim in dims:
        ach = {}
        for name, table in _KNOWN.items():
            if dim not in table:
                continue
            row = got.get((name, dim))
            if row is None:
                return _fail(f"row {name}({dim}) missing")
            pv = row["paper_value"]
            lo, hi = (pv, pv) if isinstance(pv, int) else tuple(pv)
            if (lo, hi) != table[dim]:
                return _fail(f"known value of {name}({dim}) misreported")
            if not 0 < row["achieved_lower_bound"] <= hi:
                return _fail(f"achieved {name}({dim}) exceeds the known value")
            ach[name] = row["achieved_lower_bound"]
        if "Hstar" in ach and ach["Hstar"] != _KNOWN["Hstar"][dim][0]:
            return _fail(f"Hstar({dim}) construction lost a ball")
        chain = [ach["w"], ach.get("K", ach["w"]), ach["alpha"], ach["beta"], 5 ** dim]
        if any(a > b for a, b in zip(chain, chain[1:])):
            return _fail(f"achieved chain broken at dim {dim}")
    if len(rows) != len(got) or len(payload["markdown"].splitlines()) != len(rows) + 2:
        return _fail("markdown table disagrees with the rows")
    return _ok()


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_ALLOWED_EXIT = {"validate": (0, 1), "search": (0, 1), "cip": (0, 1)}


def judge(op, exit_code: int, stdout: bytes, stderr: bytes, scene_text: Optional[str]) -> Outcome:
    """Judge one CLI call from its exit code, output and input scene."""
    if b"Traceback (most recent call last)" in stderr or exit_code < 0:
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:] or ["killed"]
        return _fail("crash: " + tail[0][:160])
    if exit_code not in _ALLOWED_EXIT.get(op.argv[0], (0,)):
        msg = stderr.decode("utf-8", "replace").strip().splitlines()[:1] or [""]
        return _fail(f"unexpected exit {exit_code}: {msg[0][:160]}")
    try:
        report = json.loads(stdout)
        payload = report["payload"]
    except (ValueError, KeyError, TypeError):
        return _fail("crash: report is not a JSON report document")
    if report.get("command") != op.argv or report.get("wall_time_s") is not None:
        return _fail("report does not echo the command")
    if scene_text is not None:
        digest = hashlib.sha256(scene_text.encode("utf-8")).hexdigest()
        if report.get("input_digest") != digest:
            return _fail("report input_digest differs from the scene SHA-256")
    doc = json.loads(scene_text) if scene_text is not None else None
    try:
        if op.check == "oned":
            return check_oned(op, payload, doc)
        if op.check == "partition":
            return check_partition(op, payload, doc)
        if op.check == "select":
            return check_select(op, payload, doc)
        if op.check == "net":
            return check_net(op, payload, doc)
        if op.check.startswith("validate-"):
            return check_validate(op, payload, doc, exit_code)
        if op.check == "search-wbcp":
            return check_wbcp(op, payload, exit_code)
        if op.check == "search-pack5":
            return check_pack5(op, payload, exit_code)
        if op.check == "search-satellite":
            return check_satellite(op, payload, exit_code)
        if op.check == "cip-trials":
            return check_cip_trials(op, payload, exit_code)
        if op.check == "constants":
            return check_constants(op, payload, exit_code)
    except (KeyError, TypeError, IndexError) as exc:
        return _fail(f"report is missing or mistypes a field: {exc!r}")
    raise ValueError(f"no oracle for {op.check!r}")
