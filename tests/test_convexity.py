import itertools
import random

import networkx as nx
import pytest

from owc.convexity import (
    IntervalCache,
    geodesics,
    interval,
    interval_closure,
    is_convex,
    is_weakly_convex,
    is_weakly_convex_oracle,
    weakly_convex_bits,
)
from owc.graphs import (
    VertexSet,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    graph_from_edge_list,
    path_graph,
    star_graph,
)

from naive import (
    all_connected_graphs,
    naive_convex,
    naive_interval,
    naive_weakly_convex,
    random_connected_graph,
    subsets_as_vertexsets,
    to_nx,
)

SMALL = [
    path_graph(2), path_graph(4), path_graph(5),
    cycle_graph(4), cycle_graph(5), cycle_graph(6),
    complete_graph(4), star_graph(3), complete_bipartite_graph(2, 3),
]


def test_interval_matches_naive():
    for g in SMALL:
        cache = IntervalCache(g)
        for u in range(g.order):
            for v in range(g.order):
                assert set(interval(cache, u, v)) == naive_interval(g, u, v), (g.name, u, v)


def test_interval_basics():
    g = cycle_graph(6)
    cache = IntervalCache(g)
    # antipodal pair: both arcs are geodesics, so the interval is everything
    assert interval(cache, 0, 3) == VertexSet.full(6)
    assert interval(cache, 2, 2).vertices() == (2,)
    for u, v in ((0, 1), (1, 4), (5, 2)):
        assert interval(cache, u, v) == interval(cache, v, u)


def test_interval_closure_contains_and_grows():
    g = cycle_graph(5)
    cache = IntervalCache(g)
    s = VertexSet.of(5, [0, 2])
    closed = interval_closure(cache, s)
    assert s.issubset(closed)
    assert closed.vertices() == (0, 1, 2)


def test_is_convex_matches_naive():
    for g in SMALL:
        cache = IntervalCache(g)
        for s in subsets_as_vertexsets(g.order):
            assert is_convex(cache, s) == naive_convex(g, s), (g.name, s)


def test_interval_table_matches_naive_on_larger_graphs():
    rng = random.Random(53)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(9, 14))
        cache = IntervalCache(g)
        rows, shadows = cache.interval_rows, cache.shadow_masks
        for u in range(g.order):
            for w in range(g.order):
                assert set(VertexSet(g.order, rows[u][w])) == naive_interval(g, u, w), (g.edges(), u, w)
                # transpose: w in the shadow of v from u iff v in I[u,w]
                for v in range(g.order):
                    assert shadows[v][u] >> w & 1 == rows[u][w] >> v & 1, (g.edges(), u, v, w)
        for _ in range(25):
            s = VertexSet(g.order, rng.getrandbits(g.order))
            assert is_convex(cache, s) == naive_convex(g, s), (g.edges(), s.vertices())


def test_disconnected_pairs_raise():
    g = graph_from_edge_list(4, [(0, 1), (2, 3)])
    cache = IntervalCache(g)
    apart = VertexSet.of(4, [0, 2])
    for call in (
        lambda: interval(cache, 0, 2),
        lambda: interval_closure(cache, apart),
        lambda: is_convex(cache, apart),
        lambda: is_convex(cache, VertexSet.full(4)),
    ):
        with pytest.raises(ValueError, match="disconnected; no geodesic exists"):
            call()
    # pairs inside one component still have their intervals
    assert interval(cache, 2, 3).vertices() == (2, 3)
    assert is_convex(cache, VertexSet.of(4, [0, 1]))


def test_weakly_convex_matches_networkx_exhaustive():
    # every subset of every connected graph on up to 5 vertices
    for n in range(2, 6):
        for g in all_connected_graphs(n):
            cache = IntervalCache(g)
            for s in subsets_as_vertexsets(n):
                assert is_weakly_convex(cache, s) == naive_weakly_convex(g, s), (
                    g.edges(), s.vertices())


def test_weakly_convex_matches_definitional_oracle_random():
    rng = random.Random(17)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(6, 8))
        cache = IntervalCache(g)
        for _ in range(60):
            s = VertexSet(g.order, rng.getrandbits(g.order))
            assert is_weakly_convex(cache, s) == is_weakly_convex_oracle(cache, s)


def test_geodesic_kernel_matches_brute_force():
    # weakly_convex_bits(adj, balls, avail, fixed): every pair of fixed has a geodesic inside avail
    rng = random.Random(29)
    for _ in range(150):
        g = random_connected_graph(rng, rng.randint(2, 10))
        cache = IntervalCache(g)
        for _ in range(20):
            fixed = rng.getrandbits(g.order)
            avail = fixed | rng.getrandbits(g.order)
            members = VertexSet(g.order, fixed).vertices()
            expect = all(
                any(all(avail >> w & 1 for w in path) for path in geodesics(cache, u, v))
                for u, v in itertools.combinations(members, 2)
            )
            got = weakly_convex_bits(cache.adj_bits, cache.ball_masks, avail, fixed)
            assert got == expect, (g.edges(), avail, fixed)
            s = VertexSet(g.order, fixed)
            assert weakly_convex_bits(cache.adj_bits, cache.ball_masks, fixed, fixed) == (
                is_weakly_convex_oracle(cache, s)
            )


def test_geodesic_kernel_skips_only_cleared_pairs():
    # known: members whose pairs have a geodesic inside avail + v; shadow row of v cuts their targets
    rng = random.Random(41)

    def joined(cache, inside, u, w):
        return any(all(inside >> x & 1 for x in path) for path in geodesics(cache, u, w))

    def cleared_subset(cache, inside, fixed):
        known = 0
        for u in VertexSet(cache.order, fixed & rng.getrandbits(cache.order)).vertices():
            if all(joined(cache, inside, u, w) for w in VertexSet(cache.order, known).vertices()):
                known |= 1 << u
        return known

    checked = 0
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 10))
        cache = IntervalCache(g)
        n, full = g.order, (1 << g.order) - 1
        shadows = cache.shadow_masks
        for v in range(n):
            for u in range(n):
                expect = sum(1 << w for w in range(n) if cache.interval_bits(u, w) >> v & 1)
                assert shadows[v][u] == expect, (g.edges(), v, u)
        for _ in range(20):
            v = rng.randrange(n)
            blocked = rng.getrandbits(n) & rng.getrandbits(n) & ~(1 << v)
            avail = full & ~blocked & ~(1 << v)
            fixed = avail & rng.getrandbits(n)
            members = VertexSet(n, fixed).vertices()
            expect = all(joined(cache, avail, a, b) for a, b in itertools.combinations(members, 2))
            # pairs cleared inside avail + v, then pairs cleared inside avail itself (a row of zeros)
            for inside, shadow in ((avail | 1 << v, shadows[v]), (avail, [0] * n)):
                known = cleared_subset(cache, inside, fixed)
                got = weakly_convex_bits(cache.adj_bits, cache.ball_masks, avail, fixed, known, shadow)
                assert got == expect, (g.edges(), v, blocked, fixed, known, inside)
                checked += known.bit_count() > 1
    assert checked > 1000


def test_weakly_convex_trivial_sets():
    for g in SMALL:
        cache = IntervalCache(g)
        assert is_weakly_convex(cache, VertexSet.empty(g.order))
        for v in range(g.order):
            assert is_weakly_convex(cache, VertexSet.of(g.order, [v]))
        assert is_weakly_convex(cache, VertexSet.full(g.order))


def test_weakly_convex_on_disconnected_host():
    g = graph_from_edge_list(4, [(0, 1), (2, 3)])
    cache = IntervalCache(g)
    assert not is_weakly_convex(cache, VertexSet.of(4, [0, 2]))
    assert not is_weakly_convex(cache, VertexSet.full(4))
    assert is_weakly_convex(cache, VertexSet.of(4, [0, 1]))


def test_weakly_convex_vs_convex_divergence():
    # {0,1,2,3} in C6 is weakly convex but not convex (I[1,2] via the far arc
    # never matters, but I[0,3] leaves the set)
    g = cycle_graph(6)
    cache = IntervalCache(g)
    s = VertexSet.of(6, [0, 1, 2, 3])
    assert is_weakly_convex(cache, s)
    assert not is_convex(cache, s)


def test_geodesics_match_networkx():
    rng = random.Random(23)
    graphs = SMALL + [random_connected_graph(rng, 7) for _ in range(5)]
    for g in graphs:
        cache = IntervalCache(g)
        ref = to_nx(g)
        for u, v in itertools.combinations(range(g.order), 2):
            mine = sorted(geodesics(cache, u, v))
            theirs = sorted(tuple(p) for p in nx.all_shortest_paths(ref, u, v))
            assert mine == theirs, (g.name, u, v)


def test_geodesics_trivial_pair():
    cache = IntervalCache(path_graph(3))
    assert list(geodesics(cache, 1, 1)) == [(1,)]
    assert list(geodesics(cache, 0, 2)) == [(0, 1, 2)]
