"""In-process tracing of the six ``ballcover`` modules.

The tracer wraps every public function of ``cli``, ``sceneio``,
``geometry``, ``covering``, ``selection`` and ``search`` under each name
that binds it (``from .geometry import distance`` leaves a copy of the
name in ``covering``, ``selection``, ``search`` and ``cli``).  Entry
points get a span per call: name, start, end, parent span and the index
of the CLI call it belongs to.  Geometry kernels and ``sceneio.ball_doc``
run millions of times, so they get an aggregate count and total time
instead.  A span's self time is its duration minus its child spans and
the outermost kernel calls made under it.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

MODULES = ("cli", "sceneio", "geometry", "covering", "selection", "search")
AGGREGATED = {"sceneio.ball_doc"}
VALIDATORS = {
    "covering.find_common_point",
    "covering.is_besicovitch_family",
    "covering.is_k_configuration",
    "covering.is_alpha_configuration",
    "covering.is_tau_satellite_configuration",
}


class MissingLayer(RuntimeError):
    """A function the benchmark measures is absent or was never called."""


class Tracer:
    def __init__(self, package):
        self.package = package
        self.mods = {m: getattr(package, m) for m in MODULES}
        self.patches = []  # (module, attribute, original)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)  # inclusive seconds per function
        self.self_s = defaultdict(float)  # self seconds per module
        self.extra = defaultdict(float)  # per-function sizes and outcomes
        self.spans = []  # (name, start, end, parent index, request)
        self.stack = []  # open spans: [name, start, child seconds, index]
        self.kernel_depth = 0
        self.request = -1

    # -- installation -------------------------------------------------------

    def public_functions(self):
        for short, mod in self.mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    yield f"{short}.{attr}", obj

    def install(self, required):
        found = dict(self.public_functions())
        missing = sorted(set(required) - set(found))
        if missing:
            raise MissingLayer("functions not found: " + ", ".join(missing))
        wrappers = {}
        for name, fn in found.items():
            if name.startswith("geometry.") or name in AGGREGATED:
                wrappers[fn] = self._kernel(name, fn)
            else:
                wrappers[fn] = self._span(name, fn)
        holders = [self.package] + list(self.mods.values())
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self.patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self.patches):
            setattr(mod, attr, obj)
        self.patches.clear()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        module = name.split(".", 1)[0]
        clock = time.perf_counter
        record = self._record

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            frame = [name, clock(), 0.0, len(self.spans)]
            self.spans.append(None)
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                dur = end - frame[1]
                self.calls[name] += 1
                self.incl[name] += dur
                self.self_s[module] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                self.spans[frame[3]] = (name, frame[1], end,
                                        parent[3] if parent else -1, self.request)
            record(name, parent, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, name, fn):
        module = name.split(".", 1)[0]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outer = self.kernel_depth == 0
            self.kernel_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                self.kernel_depth -= 1
                self.calls[name] += 1
                self.incl[name] += dur
                if outer:
                    self.self_s[module] += dur
                    if self.stack:
                        self.stack[-1][2] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, name, parent, args, result):
        """Sizes and outcomes that per-layer rates need."""
        ex = self.extra
        if name == "sceneio.parse_scene":
            ex["sceneio.parse_scene.bytes"] += len(args[0].encode("utf-8"))
        elif name == "sceneio.render_report":
            ex["sceneio.render_report.bytes"] += len(result.encode("utf-8"))
        elif name == "selection.besicovitch_cover_1d":
            ex["selection.besicovitch_cover_1d.intervals"] += len(args[0])
        elif name == "covering.find_common_point":
            ex["covering.find_common_point.found"] += result.point is not None
        if name in VALIDATORS:
            status = getattr(result, "status", None)
            if status is not None:
                ex["covering.verdict." + status] += 1
            if parent is not None and parent[0].startswith("search."):
                ex["search.validator_calls"] += 1

    # -- results --------------------------------------------------------------

    def check_hit(self, expected):
        never = sorted(n for n in expected if self.calls[n] == 0)
        if never:
            raise MissingLayer("expected layer never called: " + ", ".join(never))

    def layer_metrics(self) -> dict:
        c, t, ex = self.calls, self.incl, self.extra

        def rate(num, den):
            return num / den if den > 0 else 0.0

        return {
            "cli.calls": c["cli.run_command"],
            "cli.self_s": self.self_s["cli"],
            "sceneio.parse_scene.s": t["sceneio.parse_scene"],
            "sceneio.parse_scene.mb_per_s": rate(ex["sceneio.parse_scene.bytes"] / 1e6,
                                                 t["sceneio.parse_scene"]),
            "sceneio.render_report.s": t["sceneio.render_report"],
            "sceneio.render_report.mb": ex["sceneio.render_report.bytes"] / 1e6,
            "sceneio.self_s": self.self_s["sceneio"],
            "geometry.distance.calls": c["geometry.distance"],
            "geometry.distance.s": t["geometry.distance"],
            "geometry.distance.ns_per_call": rate(t["geometry.distance"] * 1e9,
                                                  c["geometry.distance"]),
            "geometry.exp_map.calls": c["geometry.exp_map"],
            "geometry.log_map.calls": c["geometry.log_map"],
            "geometry.self_s": self.self_s["geometry"],
            "covering.find_common_point.calls": c["covering.find_common_point"],
            "covering.find_common_point.s": t["covering.find_common_point"],
            "covering.find_common_point.found_ratio": rate(
                ex["covering.find_common_point.found"], c["covering.find_common_point"]),
            "covering.verdict.valid": int(ex["covering.verdict.valid"]),
            "covering.verdict.invalid": int(ex["covering.verdict.invalid"]),
            "covering.verdict.indeterminate": int(ex["covering.verdict.indeterminate"]),
            "covering.overlap_profile.s": t["covering.overlap_profile"],
            "covering.epsilon_net_greedy.s": t["covering.epsilon_net_greedy"],
            "covering.self_s": self.self_s["covering"],
            "selection.besicovitch_cover_1d.s": t["selection.besicovitch_cover_1d"],
            "selection.besicovitch_cover_1d.intervals_per_s": rate(
                ex["selection.besicovitch_cover_1d.intervals"],
                t["selection.besicovitch_cover_1d"]),
            "selection.partition_into_disjoint_families.s":
                t["selection.partition_into_disjoint_families"],
            "selection.select_bounded_overlap_subcover.s":
                t["selection.select_bounded_overlap_subcover"],
            "selection.self_s": self.self_s["selection"],
            "search.search_max_besicovitch_family.s": t["search.search_max_besicovitch_family"],
            "search.pack_unit_balls_radius5.s": t["search.pack_unit_balls_radius5"],
            "search.satellite_max_search.s": t["search.satellite_max_search"],
            "search.cip_check.calls": c["search.cip_check"],
            "search.cip_check.s": t["search.cip_check"],
            "search.validator_calls": int(ex["search.validator_calls"]),
            "search.self_s": self.self_s["search"],
        }


# Every function a per-layer metric reads; absent ones fail the traced run.
MEASURED = (
    "cli.run_command",
    "sceneio.parse_scene",
    "sceneio.render_report",
    "sceneio.ball_doc",
    "geometry.distance",
    "geometry.exp_map",
    "geometry.log_map",
    "covering.find_common_point",
    "covering.is_besicovitch_family",
    "covering.is_k_configuration",
    "covering.is_tau_satellite_configuration",
    "covering.overlap_profile",
    "covering.epsilon_net_greedy",
    "selection.besicovitch_cover_1d",
    "selection.partition_into_disjoint_families",
    "selection.select_bounded_overlap_subcover",
    "search.search_max_besicovitch_family",
    "search.pack_unit_balls_radius5",
    "search.satellite_max_search",
    "search.cip_check",
    "search.constants_report",
)

# Functions each workload must reach; one that is never called is a
# missing layer, not a zero.
EXPECTED = {
    "line-1d": (
        "cli.run_command", "sceneio.parse_scene", "sceneio.render_report",
        "selection.besicovitch_cover_1d", "selection.partition_into_disjoint_families",
        "selection.select_bounded_overlap_subcover", "covering.overlap_profile",
        "geometry.distance",
    ),
    "plane-partition": (
        "cli.run_command", "sceneio.parse_scene", "sceneio.render_report",
        "selection.partition_into_disjoint_families",
        "selection.select_bounded_overlap_subcover", "covering.overlap_profile",
        "covering.epsilon_net_greedy", "geometry.distance",
    ),
    "search-anneal": (
        "cli.run_command", "sceneio.render_report",
        "search.search_max_besicovitch_family", "search.pack_unit_balls_radius5",
        "search.satellite_max_search", "search.cip_check", "search.constants_report",
        "covering.find_common_point", "covering.is_besicovitch_family",
        "covering.is_tau_satellite_configuration", "geometry.distance",
    ),
    "validate-batch": (
        "cli.run_command", "sceneio.parse_scene", "sceneio.render_report",
        "covering.is_besicovitch_family", "covering.is_k_configuration",
        "covering.find_common_point", "geometry.distance", "geometry.exp_map",
        "geometry.log_map",
    ),
}
