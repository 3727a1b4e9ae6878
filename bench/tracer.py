"""Spans around the public functions of the owc layers, patched in from outside.

``Tracer.install`` replaces every public function of each layer module (and
``IntervalCache.__init__`` and its two lazy mask properties) with a wrapper
that records a span: function, parent span, start and end.  The module
attribute is patched together with every other binding of the same function
object in ``owc``, ``owc.cli``, ``owc.harness``, ``owc.constructions`` and the
other submodules, so calls through ``from .x import f`` are seen too.
``Tracer.uninstall`` restores the originals.  Nothing inside ``src/owc``
changes.

Spans live in flat arrays in memory and are written out once at the end.
The one hot leaf, ``weakly_convex_bits`` (called once per candidate that
survives the domination test), is folded into its parent span as a call
count and a total time instead of a span per call.  Generator functions such
as ``iter_bits`` are not wrapped: their work happens in the consumer's frame.

The CLI module is an entry point, not a layer: its own functions are not
wrapped, only the layer functions it imports.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

LAYERS = ("graphs", "graph6", "products", "convexity", "domination", "constructions", "harness")

FOLDED = "convexity.weakly_convex_bits"

# Leaf solvers: each runs one level scan and never calls another leaf solver.
# Value: predicate mode, or None when the mode is an argument.
SOLVERS = {
    "domination.domination_number": "dominating",
    "domination.owc_domination_number": "owc",
    "domination.outer_convex_domination_number": "ocon",
    "domination.enumerate_min_owc_sets": "owc",
    "domination.sets_of_size": None,
}
_MODE_NAMES = {"dominating": "dominating", "outer_weakly_convex": "owc", "outer_convex": "ocon"}

HARNESS_CHECKS = (
    "check_cartesian",
    "check_strong",
    "check_strong_kn",
    "check_strong_kmn",
    "check_lexicographic",
    "check_cartesian_projection",
    "check_lexico_projection",
    "check_cartesian_rectangle",
)

CACHE_INIT = "convexity.IntervalCache.__init__"
CACHE_PROPERTIES = ("level_masks", "ball_masks")


def _group(name: str) -> str:
    """The metric group a traced function belongs to."""
    module, _, func = name.partition(".")
    if name in SOLVERS:
        return "domination.solve"
    if func in ("is_dominating", "is_owc_dominating", "is_outer_convex_dominating"):
        return "domination.predicate"
    if func.startswith("IntervalCache."):
        return "convexity.cache"
    if module == "products" and func in ("cartesian", "strong", "lexicographic", "product"):
        return "products.build"
    if module == "constructions":
        return "constructions.verify" if func == "verify_on_product" else "constructions.build"
    return name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        # parent span id (-1 for none) -> [calls, seconds] of the folded leaf
        self.folded: dict[int, list] = {}
        # solver span id -> (graph, entry point, mode, candidates)
        self.solves: dict[int, tuple] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, on_return=None):
        nid = self._intern(name)
        stack, names, parents = self.stack, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_return is not None:
                on_return(sid, fn, args, kwargs, result)
            return result

        return traced

    def _wrap_folded(self, fn):
        stack, folded = self.stack, self.folded
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args):
            parent = stack[-1] if stack else -1
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                acc = folded.get(parent)
                if acc is None:
                    folded[parent] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return traced

    def _solver_hook(self, entry: str):
        fixed_mode = SOLVERS[entry]

        def on_return(sid, fn, args, kwargs, result):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            g = bound.arguments["g"]
            if fixed_mode is None:
                mode = _MODE_NAMES[bound.arguments["mode"]]
                candidates = math.comb(g.order, bound.arguments["k"])
            else:
                mode = fixed_mode
                if isinstance(result, list):
                    value = len(result[0])
                    candidates = sum(math.comb(g.order, k) for k in range(1, value + 1))
                else:
                    candidates = result.examined
            self.solves[sid] = (g, entry, mode, candidates)

        return on_return

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "owc" and not modname.startswith("owc."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import owc.cli  # noqa: F401  (loads every module, so every binding exists)
        from owc.convexity import IntervalCache

        for layer in LAYERS:
            module = sys.modules[f"owc.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__ or inspect.isgeneratorfunction(fn):
                    continue
                name = f"{layer}.{attr}"
                if name == FOLDED:
                    wrapper = self._wrap_folded(fn)
                elif name in SOLVERS:
                    wrapper = self._wrap(fn, name, self._solver_hook(name))
                else:
                    wrapper = self._wrap(fn, name)
                self._replace_everywhere(fn, wrapper)
        self._patches.append((IntervalCache, "__init__", IntervalCache.__init__))
        IntervalCache.__init__ = self._wrap(IntervalCache.__init__, CACHE_INIT)
        for prop in CACHE_PROPERTIES:
            original = vars(IntervalCache)[prop]
            self._patches.append((IntervalCache, prop, original))
            setattr(IntervalCache, prop, property(self._wrap(original.fget, f"convexity.IntervalCache.{prop}")))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One line per span: id, parent, name, start, end (seconds), then folded leaf calls."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\tfolded_calls\tfolded_s\n")
            for sid, (nid, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                calls, secs = self.folded.get(sid, (0, 0.0))
                fh.write(f"{sid}\t{parent}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{calls}\t{secs:.9f}\n")

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer counts and times of one traced repetition."""
        import owc.graph6

        n = len(self.span_name)
        groups = [_group(name) for name in self.names]
        group_bit = {g: 1 << i for i, g in enumerate(sorted(set(groups)))}
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        for sid, (calls, secs) in self.folded.items():
            if sid >= 0:
                child[sid] += secs
        top = self.folded.get(-1, (0, 0.0))[1]
        for sid in range(n):
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += dur[sid]
            else:
                top += dur[sid]
        calls: dict[str, int] = {}
        outer: dict[str, float] = {}
        self_s: dict[str, float] = {}
        mask = [0] * n
        for sid in range(n):
            g = groups[self.span_name[sid]]
            bit = group_bit[g]
            parent = self.span_parent[sid]
            above = mask[parent] if parent >= 0 else 0
            mask[sid] = above | bit
            calls[g] = calls.get(g, 0) + 1
            self_s[g] = self_s.get(g, 0.0) + dur[sid] - child[sid]
            if not above & bit:
                outer[g] = outer.get(g, 0.0) + dur[sid]

        m: dict[str, float] = {}

        def group_metrics(group: str, key: str) -> None:
            m[f"{key}.calls"] = calls.get(group, 0)
            m[f"{key}.s"] = outer.get(group, 0.0)

        group_metrics("graphs.distance_matrix", "graphs.distance_matrix")
        group_metrics("graph6.graph_from_graph6", "graph6.parse")
        group_metrics("products.build", "products.build")
        init_id = self._ids.get(CACHE_INIT)
        m["convexity.cache.builds"] = sum(1 for x in self.span_name if x == init_id)
        m["convexity.cache.s"] = outer.get("convexity.cache", 0.0)
        wc_calls = sum(c for c, _ in self.folded.values())
        wc_secs = sum(s for _, s in self.folded.values())
        m["convexity.weakly_convex.calls"] = wc_calls
        m["convexity.weakly_convex.ns_per_call"] = wc_secs / wc_calls * 1e9 if wc_calls else 0.0

        m["domination.solve.calls"] = len(self.solves)
        g6_of: dict[int, str] = {}
        keys = set()
        by_mode = {mode: [0, 0.0] for mode in ("dominating", "owc", "ocon")}
        owc_survivors = 0
        for sid, (graph, entry, mode, candidates) in self.solves.items():
            if id(graph) not in g6_of:
                g6_of[id(graph)] = owc.graph6.to_graph6(graph)
            keys.add((g6_of[id(graph)], entry))
            by_mode[mode][0] += candidates
            by_mode[mode][1] += dur[sid]
            if mode == "owc":
                owc_survivors += self.folded.get(sid, (0, 0.0))[0]
        m["domination.solve.distinct"] = len(keys)
        m["domination.solve.repeat_share"] = 1 - len(keys) / len(self.solves) if self.solves else 0.0
        m["domination.solve.self_s"] = self_s.get("domination.solve", 0.0)
        m["domination.candidates"] = sum(c for c, _ in by_mode.values())
        for mode, (candidates, secs) in by_mode.items():
            m[f"domination.ns_per_candidate.{mode}"] = secs / candidates * 1e9 if candidates else 0.0
        owc_candidates = by_mode["owc"][0]
        m["domination.dominating_share"] = owc_survivors / owc_candidates if owc_candidates else 0.0
        group_metrics("domination.predicate", "domination.predicate")

        group_metrics("constructions.build", "constructions.build")
        group_metrics("constructions.verify", "constructions.verify")

        rows_ms = []
        for check in HARNESS_CHECKS:
            key = f"harness.{check}"
            m[f"{key}.calls"] = calls.get(key, 0)
            m[f"{key}.self_s"] = self_s.get(key, 0.0)
            check_id = self._ids.get(key)
            rows_ms += [dur[sid] * 1e3 for sid in range(n) if self.span_name[sid] == check_id]
        m["harness.row_ms_p50"] = percentile(rows_ms, 50)
        m["harness.row_ms_p95"] = percentile(rows_ms, 95)
        m["harness.write_reports.s"] = outer.get("harness.write_reports", 0.0)
        m["trace.coverage"] = top / wall_s if wall_s > 0 else 0.0
        return m


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]

