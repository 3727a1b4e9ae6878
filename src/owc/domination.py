"""Domination predicates, exact minimum-set solvers, and isolated-vertex counts.

The solver searches k-subsets for k = 1, 2, ... until a passing set exists,
so minimality is by construction.  Each level is a depth-first search over
sorted vertex prefixes in lex order with monotone bounds.  It drops a prefix
once no extension can dominate the graph: when the vertices after its last
one cannot cover what it leaves undominated, or when the picks still to come
cannot cover that many vertices even at the largest closed neighbourhood
among them (the counting bound behind gamma(G) >= n / (Delta + 1)).  So the
complement test runs on dominating sets only.  In the two complement modes it
also drops a prefix once F, the vertices below its last vertex that it
skipped, can no longer lie in a passing complement.  F stays outside every
extension.  Its tests (the interval closure of F misses the prefix; every
pair of F has a geodesic that avoids the prefix) only get harder as F and the
prefix grow, so a dropped prefix has no passing extension.  The geodesic test
retests only the pairs that the last pick can have cut: a pair of F already
cleared without that pick loses every geodesic only if the pick lies in its
interval.  The first passing set found is the one whose sorted vertex list is
lexicographically smallest: the canonical witness.  The search runs in one
process; the solvers' ``workers`` argument is accepted and ignored.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Iterator

from .convexity import IntervalCache, convex_bits, is_convex, weakly_convex_bits
from .graphs import UNREACHABLE, Graph, VertexSet, iter_bits

DEFAULT_CAP = 24

# Predicate modes for the subset search.
MODE_DOMINATING = "dominating"
MODE_OWC = "outer_weakly_convex"
MODE_OCON = "outer_convex"


@dataclass(frozen=True)
class OwcResult:
    """Outcome of an exact minimum-set search.

    ``examined`` counts whole levels, C(n,1) + ... + C(n,value), pruned or not.
    """

    value: int
    witness: VertexSet
    examined: int
    elapsed: float


# ---------------------------------------------------------------------------
# Predicates


def _dominates(adj: tuple[int, ...], bits: int) -> bool:
    """True iff every vertex is in ``bits`` or a neighbour, under ``adj``, of a vertex in it."""
    cover = bits
    while bits:
        low = bits & -bits
        cover |= adj[low.bit_length() - 1]
        bits ^= low
    return cover == (1 << len(adj)) - 1


def is_dominating(g: Graph, d: VertexSet) -> bool:
    """True iff every vertex outside d has a neighbor in d."""
    return _dominates(g.adjacency_bits(), d.bits)


def is_owc_dominating(g: Graph, d: VertexSet) -> bool:
    """Dominating with a weakly convex complement."""
    cache = IntervalCache.of(g)
    if not _dominates(cache.adj_bits, d.bits):
        return False
    comp = d.bits ^ ((1 << g.order) - 1)
    return weakly_convex_bits(cache.adj_bits, cache.ball_masks, comp, comp)


def is_outer_convex_dominating(g: Graph, d: VertexSet) -> bool:
    """Dominating with a convex complement."""
    cache = IntervalCache.of(g)
    if not _dominates(cache.adj_bits, d.bits):
        return False
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


def _level_hits(cache: IntervalCache, k: int, mode: str) -> Iterator[int]:
    """Passing k-subset masks, in lex order of vertex lists.

    A depth-first search over sorted prefixes with monotone bounds.

    Domination: once a prefix and every vertex after its last one cannot
    dominate the graph, it and its later siblings are dropped.  A prefix is
    also dropped when the ``left - 1`` picks still to come, all above its last
    vertex, cannot cover what it leaves undominated even if each covers the
    largest closed neighbourhood among those vertices.  The last vertex is
    read off as the AND of the closed neighbourhoods of the still undominated
    vertices, so the complement test runs on dominating sets only.

    Complement: let v be a prefix's largest vertex and F the vertices up to v
    outside the prefix.  Later picks are above v, so F stays in the complement
    of every extension, and the prefix is dropped once F fails a necessary
    condition:

    - ``ocon``: a convex complement holds the interval closure I[F], so the
      prefix goes once I[F] meets it.  I[F] is grown one vertex at a time as
      F grows along the siblings and down the tree.
    - ``owc``: every pair of F needs a geodesic that misses the prefix, so
      the prefix goes once some pair has none in G minus the prefix.  Along
      the siblings of one parent P, ``known`` is the largest F proven to have
      a geodesic for each of its pairs in G - P.  At the first sibling it is
      the parent's own F, which the parent's passing test proved (at the
      root, G is connected).  Sibling v can cut a pair a, b of ``known`` only
      if v lies in I[a,b], so of the pairs inside ``known`` only those, read
      off the shadow row of v, are tested again.  When sibling v fails, F is
      tested in G - P itself: a pair with no geodesic there stays in the F of
      every later sibling, so those siblings are dropped too.  Once F passes
      either test, ``known`` becomes F.

    Extensions only grow F and the prefix, so a dropped prefix has no passing
    extension.  Leaves still run the full complement test.
    """
    adj = cache.adj_bits
    n = len(adj)
    full = (1 << n) - 1
    closed, reach, most = cache.closed, cache.reach, cache.most
    owc = mode == MODE_OWC
    ocon = mode == MODE_OCON
    if owc:
        balls = cache.ball_masks
        shadows = cache.shadow_masks
        cleared = [0] * n
        outer_ok = lambda comp: weakly_convex_bits(adj, balls, comp, comp)
    elif ocon:
        rows = cache.interval_rows
        outer_ok = partial(convex_bits, rows)
    else:
        outer_ok = None

    def close(hull: int, fixed: int, w: int) -> int:
        """I[fixed + w], given hull = I[fixed]."""
        row = rows[w]
        hull |= 1 << w
        # a in I[w,b] has I[w,a] inside I[w,b], so b covers a
        while fixed:
            low = fixed & -fixed
            span = row[low.bit_length() - 1]
            hull |= span
            fixed &= ~(span | low)
        return hull

    def extend(chosen: int, cover: int, start: int, left: int, hull: int) -> Iterator[int]:
        if left == 1:
            last = full >> start << start
            rest = full ^ cover
            while rest and last:
                low = rest & -rest
                last &= closed[low.bit_length() - 1]
                rest ^= low
            while last:
                low = last & -last
                s = chosen | low
                if outer_ok is None or outer_ok(full ^ s):
                    yield s
                last ^= low
            return
        # F of the prefix chosen + v: every vertex below v outside chosen.
        # In ocon mode hull is I[fixed] throughout; in owc mode every pair of
        # known has a geodesic in G - chosen.
        fixed = known = ((1 << start) - 1) & ~chosen
        for v in range(start, n - left + 1):
            if cover | reach[v] != full:
                return
            if ocon and hull & chosen:
                return
            grown = cover | closed[v]
            if (full ^ grown).bit_count() > (left - 1) * most[v + 1]:
                keep = False
            elif ocon:
                keep = not hull >> v & 1
            elif owc:
                keep = weakly_convex_bits(adj, balls, full ^ chosen ^ 1 << v, fixed, known, shadows[v])
                # a pair of F with no geodesic in G - chosen fails every later sibling too
                if not (keep or weakly_convex_bits(adj, balls, full ^ chosen, fixed, known, cleared)):
                    return
                known = fixed
            else:
                keep = True
            if keep:
                yield from extend(chosen | 1 << v, grown, v + 1, left - 1, hull)
            if ocon:
                hull = close(hull, fixed, v)
            fixed |= 1 << v

    return extend(0, 0, 0, k, 0)


def _context(g: Graph, cap: int) -> IntervalCache:
    """The search context of g, once g is within the cap and connected."""
    if g.order > cap:
        raise ValueError(
            f"order {g.order} exceeds the search cap {cap}; pass a larger cap (--cap) if intended"
        )
    cache = IntervalCache.of(g)
    if UNREACHABLE in cache.dm.rows[0]:
        raise ValueError("graph is disconnected; minimum-set search requires a connected graph")
    return cache


def _solve_min(g: Graph, mode: str, cap: int, limit: int | None = 1) -> tuple[OwcResult, list[int]]:
    """The least level with a passing set, and the first ``limit`` passing masks on it."""
    cache = _context(g, cap)
    t0 = time.perf_counter()
    examined = 0
    for k in range(1, g.order + 1):
        found = list(islice(_level_hits(cache, k, mode), limit))
        examined += math.comb(g.order, k)
        if found:
            return OwcResult(k, VertexSet(g.order, found[0]), examined, time.perf_counter() - t0), found
    raise AssertionError("V(G) always passes; unreachable for connected graphs")


# ---------------------------------------------------------------------------
# Public solvers


def domination_number(g: Graph, *, cap: int = DEFAULT_CAP, workers: int = 1) -> OwcResult:
    """Exact domination number with canonical witness."""
    return _solve_min(g, MODE_DOMINATING, cap)[0]


def owc_domination_number(g: Graph, *, cap: int = DEFAULT_CAP, workers: int = 1) -> OwcResult:
    """Exact outer-weakly convex domination number with canonical witness."""
    return _solve_min(g, MODE_OWC, cap)[0]


def outer_convex_domination_number(g: Graph, *, cap: int = DEFAULT_CAP, workers: int = 1) -> OwcResult:
    """Exact outer-convex domination number with canonical witness."""
    return _solve_min(g, MODE_OCON, cap)[0]


def enumerate_min_owc_sets(g: Graph, *, cap: int = DEFAULT_CAP, workers: int = 1) -> list[VertexSet]:
    """All minimum outer-weakly convex dominating sets, sorted by vertex list."""
    _, found = _solve_min(g, MODE_OWC, cap, limit=None)
    return [VertexSet(g.order, bits) for bits in found]


def sets_of_size(
    g: Graph, k: int, mode: str = MODE_OWC, *, cap: int = DEFAULT_CAP, workers: int = 1
) -> list[VertexSet]:
    """All k-subsets passing the given predicate mode, sorted by vertex list."""
    cache = _context(g, cap)
    if not 0 < k <= g.order:
        raise ValueError(f"size {k} out of range for order {g.order}")
    return [VertexSet(g.order, bits) for bits in _level_hits(cache, k, mode)]


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
        return script_p_realizer(g, cap=cap)[1]
    if mode != SCRIPT_P_CONVEX:
        raise ValueError(f"unknown script_p mode {mode!r}")
    return _convex_p(g, owc_domination_number(g, cap=cap).value, cap)


def _convex_p(g: Graph, size: int, cap: int) -> int | None:
    """The least |P_S| over the outer-convex dominating sets S of ``size`` vertices; None if none exist."""
    candidates = sets_of_size(g, size, MODE_OCON, cap=cap)
    return min((len(isolated_in_induced(g, s)) for s in candidates), default=None)


def script_p_realizer(g: Graph, *, cap: int = DEFAULT_CAP, workers: int = 1) -> tuple[VertexSet, int]:
    """A canonical minimum OWC dominating set with the fewest induced-isolated vertices."""
    scored = ((s, len(isolated_in_induced(g, s))) for s in enumerate_min_owc_sets(g, cap=cap))
    return min(scored, key=lambda sp: sp[1])
