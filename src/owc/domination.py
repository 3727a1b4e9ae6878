"""Domination predicates, exact minimum-set solvers, and isolated-vertex counts.

The solver enumerates k-subsets in colexicographic order (Gosper's hack) for
k = 1, 2, ... until a passing set exists, so minimality is by construction.
Every level is scanned completely: the reported witness is the passing set
whose sorted vertex list is lexicographically smallest, and a parallel run
partitions the level into contiguous colex rank ranges and reduces to the
same witness.
"""

from __future__ import annotations

import atexit
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from .convexity import IntervalCache, is_convex, weakly_convex_bits
from .graphs import Graph, VertexSet, is_connected, iter_bits

DEFAULT_CAP = 24

# Predicate modes for the subset search.
MODE_DOMINATING = "dominating"
MODE_OWC = "outer_weakly_convex"
MODE_OCON = "outer_convex"

# Below this many candidates a level is scanned inline even when workers > 1.
_PARALLEL_THRESHOLD = 50_000


@dataclass(frozen=True)
class OwcResult:
    """Outcome of an exact minimum-set search."""

    value: int
    witness: VertexSet
    examined: int
    elapsed: float


# ---------------------------------------------------------------------------
# Predicates


def is_dominating(g: Graph, d: VertexSet) -> bool:
    """True iff every vertex outside d has a neighbor in d."""
    adj = g.adjacency_bits()
    cover = d.bits
    for v in iter_bits(d.bits):
        cover |= adj[v]
    return cover == (1 << g.order) - 1


def is_owc_dominating(g: Graph, d: VertexSet, cache: IntervalCache | None = None) -> bool:
    """Dominating with a weakly convex complement."""
    if not is_dominating(g, d):
        return False
    if cache is None:
        cache = IntervalCache(g)
    comp = d.bits ^ ((1 << g.order) - 1)
    return weakly_convex_bits(cache.adj_bits, cache.ball_masks, comp)


def is_outer_convex_dominating(g: Graph, d: VertexSet, cache: IntervalCache | None = None) -> bool:
    """Dominating with a convex complement."""
    if not is_dominating(g, d):
        return False
    if cache is None:
        cache = IntervalCache(g)
    return is_convex(cache, d.complement())


def isolated_in_induced(g: Graph, s: VertexSet) -> VertexSet:
    """P_S: members of s with no neighbor inside s."""
    adj = g.adjacency_bits()
    bits = 0
    for v in iter_bits(s.bits):
        if adj[v] & s.bits == 0:
            bits |= 1 << v
    return VertexSet(g.order, bits)


# ---------------------------------------------------------------------------
# Search engine


def _next_colex(s: int) -> int:
    # Gosper's hack: next integer with the same popcount.
    u = s & -s
    v = s + u
    return v | (((s ^ v) // u) >> 2)


def _colex_unrank(rank: int, k: int) -> int:
    """The k-subset mask at position ``rank`` of the colex (numeric) order."""
    bits = 0
    for i in range(k, 0, -1):
        c = i - 1
        while math.comb(c + 1, i) <= rank:
            c += 1
        bits |= 1 << c
        rank -= math.comb(c, i)
    return bits


def _scan_range(
    cache: IntervalCache, k: int, start: int, count: int, mode: str
) -> tuple[tuple[int, ...] | None, list[int]]:
    """Scan ``count`` colex-consecutive k-subsets; return (best tuple, passing masks)."""
    adj = cache.adj_bits
    full = (1 << len(adj)) - 1
    if mode == MODE_OWC:
        outer_ok = partial(weakly_convex_bits, adj, cache.ball_masks)
    else:
        outer_ok = cache.convex_bits
    s = _colex_unrank(start, k)
    best: tuple[int, ...] | None = None
    found: list[int] = []
    for _ in range(count):
        cover = s
        rest = s
        while rest:
            low = rest & -rest
            cover |= adj[low.bit_length() - 1]
            rest ^= low
        if cover == full and (mode == MODE_DOMINATING or outer_ok(full ^ s)):
            found.append(s)
            t = tuple(iter_bits(s))
            if best is None or t < best:
                best = t
        s = _next_colex(s)
    return best, found


def _scan_worker(args: tuple[tuple[int, ...], str, int, int, int]) -> tuple[tuple[int, ...] | None, list[int]]:
    adj, mode, k, start, count = args
    order = len(adj)
    g = Graph(order, (VertexSet(order, b) for b in adj))
    return _scan_range(IntervalCache(g), k, start, count, mode)


_POOLS: dict[int, ProcessPoolExecutor] = {}


def _get_pool(workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _POOLS[workers] = pool
        atexit.register(pool.shutdown)
    return pool


def _scan_level(
    cache: IntervalCache, k: int, mode: str, workers: int
) -> tuple[tuple[int, ...] | None, list[int]]:
    total = math.comb(cache.graph.order, k)
    if workers <= 1 or total < _PARALLEL_THRESHOLD:
        return _scan_range(cache, k, 0, total, mode)
    chunk = (total + workers - 1) // workers
    tasks = []
    start = 0
    adj = cache.adj_bits
    while start < total:
        count = min(chunk, total - start)
        tasks.append((adj, mode, k, start, count))
        start += count
    best: tuple[int, ...] | None = None
    found: list[int] = []
    for part_best, part_found in _get_pool(workers).map(_scan_worker, tasks):
        if part_best is not None and (best is None or part_best < best):
            best = part_best
        found.extend(part_found)
    return best, found


def _require_solvable(g: Graph, cap: int) -> None:
    if g.order > cap:
        raise ValueError(
            f"order {g.order} exceeds the search cap {cap}; pass a larger cap (--cap) if intended"
        )
    if not is_connected(g):
        raise ValueError("graph is disconnected; minimum-set search requires a connected graph")


def _solve_min(g: Graph, mode: str, cap: int, workers: int) -> tuple[OwcResult, list[int]]:
    _require_solvable(g, cap)
    cache = IntervalCache(g)
    t0 = time.perf_counter()
    examined = 0
    for k in range(1, g.order + 1):
        best, found = _scan_level(cache, k, mode, workers)
        examined += math.comb(g.order, k)
        if best is not None:
            bits = 0
            for v in best:
                bits |= 1 << v
            witness = VertexSet(g.order, bits)
            result = OwcResult(k, witness, examined, time.perf_counter() - t0)
            return result, found
    raise AssertionError("V(G) always passes; unreachable for connected graphs")


# ---------------------------------------------------------------------------
# Public solvers


def domination_number(g: Graph, *, cap: int = DEFAULT_CAP, workers: int = 1) -> OwcResult:
    """Exact domination number with canonical witness."""
    return _solve_min(g, MODE_DOMINATING, cap, workers)[0]


def owc_domination_number(g: Graph, *, cap: int = DEFAULT_CAP, workers: int = 1) -> OwcResult:
    """Exact outer-weakly convex domination number with canonical witness."""
    return _solve_min(g, MODE_OWC, cap, workers)[0]


def outer_convex_domination_number(g: Graph, *, cap: int = DEFAULT_CAP, workers: int = 1) -> OwcResult:
    """Exact outer-convex domination number with canonical witness."""
    return _solve_min(g, MODE_OCON, cap, workers)[0]


def enumerate_min_owc_sets(g: Graph, *, cap: int = DEFAULT_CAP, workers: int = 1) -> list[VertexSet]:
    """All minimum outer-weakly convex dominating sets, sorted by vertex list."""
    _, found = _solve_min(g, MODE_OWC, cap, workers)
    sets = [VertexSet(g.order, bits) for bits in found]
    sets.sort(key=lambda s: s.vertices())
    return sets


def sets_of_size(
    g: Graph, k: int, mode: str = MODE_OWC, *, cap: int = DEFAULT_CAP, workers: int = 1
) -> list[VertexSet]:
    """All k-subsets passing the given predicate mode, sorted by vertex list."""
    _require_solvable(g, cap)
    if not 0 < k <= g.order:
        raise ValueError(f"size {k} out of range for order {g.order}")
    _, found = _scan_level(IntervalCache(g), k, mode, workers)
    sets = [VertexSet(g.order, bits) for bits in found]
    sets.sort(key=lambda s: s.vertices())
    return sets


SCRIPT_P_WEAKLY_CONVEX = "weakly_convex"
SCRIPT_P_CONVEX = "convex"


def script_p(
    g: Graph,
    *,
    mode: str = SCRIPT_P_WEAKLY_CONVEX,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> int | None:
    """Minimum number of induced-isolated vertices over minimum dominating sets.

    The minimization runs over sets of cardinality equal to the outer-weakly
    convex domination number.  In the default mode those sets are the minimum
    outer-weakly convex dominating sets; in ``convex`` mode they are the
    outer-convex dominating sets of that same cardinality, which may not exist
    (returns None then).
    """
    if mode == SCRIPT_P_WEAKLY_CONVEX:
        return script_p_realizer(g, cap=cap, workers=workers)[1]
    if mode != SCRIPT_P_CONVEX:
        raise ValueError(f"unknown script_p mode {mode!r}")
    value = owc_domination_number(g, cap=cap, workers=workers).value
    candidates = sets_of_size(g, value, MODE_OCON, cap=cap, workers=workers)
    if not candidates:
        return None
    return min(len(isolated_in_induced(g, s)) for s in candidates)


def script_p_realizer(g: Graph, *, cap: int = DEFAULT_CAP, workers: int = 1) -> tuple[VertexSet, int]:
    """A canonical minimum OWC dominating set with the fewest induced-isolated vertices."""
    best_set: VertexSet | None = None
    best_p = -1
    for s in enumerate_min_owc_sets(g, cap=cap, workers=workers):
        p = len(isolated_in_induced(g, s))
        if best_set is None or p < best_p:
            best_set, best_p = s, p
    assert best_set is not None
    return best_set, best_p
