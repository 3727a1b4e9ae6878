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
lexicographically smallest: the canonical witness.

The value searches in ``owc`` mode also break symmetry, from level 3 up.  They
drop a prefix that some automorphism of the graph maps to a lex-smaller set
below its last vertex, since every extension then has a lex-smaller image that
passes too; the canonical witness, and so every value, is never dropped.  The
automorphisms are a few maps along a stabilizer chain, found on first use and
kept on the graph's context.  Listings run unpruned: ``sets_of_size``, which
``enumerate_min_owc_sets`` calls at the value, and the P_G scans.  The search
runs in one process; the solvers' ``workers`` argument is accepted and ignored.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
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


def _level_hits(cache: IntervalCache, k: int, mode: str, prune: bool = False) -> Iterator[int]:
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

    Symmetry, with ``prune`` in ``owc`` mode from k = 3 up: a prefix P that
    passes the tests above is dropped when some automorphism σ of
    ``cache._automorphisms`` and some y in σ(P) ∩ F satisfy P ∩ [0,y) ⊆ σ(P);
    that is, when the least vertex of P Δ σ(P) lies in σ(P).  Take an
    extension S of P.  S agrees with P up to the last vertex of P, so y is
    not in S, while y is in σ(S), and every member of S below y is in σ(S).
    So the least vertex of S Δ σ(S) lies in σ(S): σ(S) is lex-smaller than S,
    and it passes exactly when S does.  The lex-smallest passing k-set is
    thus never dropped: the first hit and the emptiness of a level are those
    of the unpruned search, while the later hits are a subset of its hits.
    So listings keep ``prune`` off.  The masks σᵢ(P) ride down the path,
    packed in one int and grown by the image bits of each pick; the rule is
    tested only after a pick that some σᵢ moves, and at a leaf before its
    complement test.
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
    images = cache._automorphisms if prune and owc and k >= 3 else []
    ones = guard = moved = 0
    packed = [0] * n
    if images:
        # σᵢ(P) for all i packed in one int, one field of n + 1 bits per
        # automorphism; bit n of each field is a guard that stops the borrow
        # of the per-field subtraction in lower()
        width = n + 1
        ones = sum(1 << i * width for i in range(len(images[0])))
        guard = ones << n
        packed = [sum(b << i * width for i, b in enumerate(row)) for row in images]
        # a pick that every σᵢ fixes cannot drop a prefix its parent kept: P Δ σ(P) stays the same
        moved = sum(1 << v for v, image in enumerate(packed) if image != ones << v)

    def lower(mapped: int, p: int) -> bool:
        """True iff the least vertex of p Δ σᵢ(p) lies in σᵢ(p) for some i; ``mapped`` packs the σᵢ(p)."""
        diff = (mapped ^ p * ones) | guard
        return diff & ~(diff - ones) & mapped != 0

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

    def extend(chosen: int, cover: int, start: int, left: int, hull: int, mapped: int) -> Iterator[int]:
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
                if not (moved & low and lower(mapped | packed[low.bit_length() - 1], s)) and (
                    outer_ok is None or outer_ok(full ^ s)
                ):
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
                inner = mapped | packed[v]
                if not (moved >> v & 1 and lower(inner, chosen | 1 << v)):
                    yield from extend(chosen | 1 << v, grown, v + 1, left - 1, hull, inner)
            if ocon:
                hull = close(hull, fixed, v)
            fixed |= 1 << v

    return extend(0, 0, 0, k, 0, 0)


def _context(g: Graph, cap: int) -> IntervalCache:
    """The search context of g, once g is within the cap and connected."""
    if g.order > cap:
        raise ValueError(
            f"order {g.order} exceeds the search cap {cap}; pass a larger cap (--cap) if intended"
        )
    cache = IntervalCache.of(g)
    if UNREACHABLE in cache.dist[0]:
        raise ValueError("graph is disconnected; minimum-set search requires a connected graph")
    return cache


def _solve_min(g: Graph, mode: str, cap: int) -> OwcResult:
    """The least level with a passing set, and its first passing set, by the symmetry-pruned search."""
    cache = _context(g, cap)
    t0 = time.perf_counter()
    examined = 0
    for k in range(1, g.order + 1):
        found = next(_level_hits(cache, k, mode, prune=True), None)
        examined += math.comb(g.order, k)
        if found is not None:
            return OwcResult(k, VertexSet(g.order, found), examined, time.perf_counter() - t0)
    raise AssertionError("V(G) always passes; unreachable for connected graphs")


# ---------------------------------------------------------------------------
# Public solvers


def domination_number(g: Graph, *, cap: int = DEFAULT_CAP, workers: int = 1) -> OwcResult:
    """Exact domination number with canonical witness."""
    return _solve_min(g, MODE_DOMINATING, cap)


def owc_domination_number(g: Graph, *, cap: int = DEFAULT_CAP, workers: int = 1) -> OwcResult:
    """Exact outer-weakly convex domination number with canonical witness."""
    return _solve_min(g, MODE_OWC, cap)


def outer_convex_domination_number(g: Graph, *, cap: int = DEFAULT_CAP, workers: int = 1) -> OwcResult:
    """Exact outer-convex domination number with canonical witness."""
    return _solve_min(g, MODE_OCON, cap)


def enumerate_min_owc_sets(g: Graph, *, cap: int = DEFAULT_CAP, workers: int = 1) -> list[VertexSet]:
    """All minimum outer-weakly convex dominating sets, sorted by vertex list."""
    return sets_of_size(g, _solve_min(g, MODE_OWC, cap).value, cap=cap)


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
    """A canonical minimum OWC dominating set with the fewest induced-isolated vertices.

    The first such set in the sorted list of minimum sets: the answer level is
    walked lazily, from the canonical witness on, up to the first set S with
    P_S empty.
    """
    first = owc_domination_number(g, cap=cap).witness
    best = (first, len(isolated_in_induced(g, first)))
    if best[1]:
        for bits in _level_hits(IntervalCache.of(g), len(first), MODE_OWC):
            s = VertexSet(g.order, bits)
            p = len(isolated_in_induced(g, s))
            if p < best[1]:
                best = (s, p)
                if not p:
                    break
    return best
