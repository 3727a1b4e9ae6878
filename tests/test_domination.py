import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import owc.domination as dom
from owc.convexity import IntervalCache
from owc.domination import (
    MODE_DOMINATING,
    MODE_OCON,
    MODE_OWC,
    SCRIPT_P_CONVEX,
    _level_hits,
    domination_number,
    enumerate_min_owc_sets,
    is_dominating,
    is_outer_convex_dominating,
    is_owc_dominating,
    isolated_in_induced,
    outer_convex_domination_number,
    owc_domination_number,
    script_p,
    script_p_realizer,
    sets_of_size,
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
from owc.products import cartesian, lexicographic, strong

from naive import (
    naive_convex,
    naive_domination_number,
    naive_dominating,
    naive_min_sets,
    naive_owc_dominating,
    naive_owc_domination_number,
    naive_script_p,
    random_connected_graph,
    subsets_as_vertexsets,
)

FAMILIES = [
    path_graph(2), path_graph(3), path_graph(4), path_graph(5), path_graph(6),
    cycle_graph(3), cycle_graph(4), cycle_graph(5), cycle_graph(6),
    complete_graph(4), complete_graph(5),
    star_graph(3), star_graph(4),
    complete_bipartite_graph(2, 2), complete_bipartite_graph(2, 3),
]


def random_pool(seed, count, lo=5, hi=8):
    rng = random.Random(seed)
    return [random_connected_graph(rng, rng.randint(lo, hi)) for _ in range(count)]


def naive_ocon_dominating(g, members):
    comp = [v for v in range(g.order) if v not in set(members)]
    return naive_dominating(g, members) and naive_convex(g, comp)


def test_predicates_match_naive_exhaustive():
    for g in FAMILIES[:8]:
        for s in subsets_as_vertexsets(g.order):
            members = s.vertices()
            assert is_dominating(g, s) == naive_dominating(g, members)
            assert is_owc_dominating(g, s) == naive_owc_dominating(g, members)
            assert is_outer_convex_dominating(g, s) == naive_ocon_dominating(g, members)


def test_isolated_in_induced():
    g = star_graph(3)
    assert isolated_in_induced(g, VertexSet.of(4, [1, 2])).vertices() == (1, 2)
    assert isolated_in_induced(g, VertexSet.of(4, [0, 1])).vertices() == ()
    assert isolated_in_induced(g, VertexSet.of(4, [0, 1, 2])).vertices() == ()
    assert not isolated_in_induced(g, VertexSet.empty(4))


def test_numbers_match_naive_on_families():
    for g in FAMILIES:
        assert domination_number(g).value == naive_domination_number(g), g.name
        assert owc_domination_number(g).value == naive_owc_domination_number(g), g.name
        k, _ = naive_min_sets(g, naive_ocon_dominating)
        assert outer_convex_domination_number(g).value == k, g.name


def test_numbers_match_naive_on_random_graphs():
    for g in random_pool(101, 25):
        assert domination_number(g).value == naive_domination_number(g)
        assert owc_domination_number(g).value == naive_owc_domination_number(g)


def test_outer_convex_scan_matches_naive():
    for g in FAMILIES + random_pool(61, 8, lo=5, hi=8):
        hits = {
            k: [c for c in itertools.combinations(range(g.order), k) if naive_ocon_dominating(g, c)]
            for k in range(1, g.order + 1)
        }
        value = min(k for k, level in hits.items() if level)
        for workers in (1, 2):
            for k, level in hits.items():
                got = sets_of_size(g, k, MODE_OCON, workers=workers)
                assert [s.vertices() for s in got] == level, (g.name, k, workers)
            res = outer_convex_domination_number(g, workers=workers)
            assert (res.value, res.witness.vertices()) == (value, hits[value][0]), (g.name, workers)


def test_known_values():
    assert owc_domination_number(path_graph(2)).value == 1
    assert owc_domination_number(path_graph(3)).value == 2
    assert owc_domination_number(cycle_graph(4)).value == 2
    assert owc_domination_number(cycle_graph(5)).value == 3
    assert owc_domination_number(cycle_graph(6)).value == 4
    assert owc_domination_number(star_graph(3)).value == 3
    assert owc_domination_number(complete_graph(5)).value == 1
    assert domination_number(star_graph(3)).value == 1


def test_witness_is_canonical_minimum():
    for g in FAMILIES + random_pool(55, 10):
        res = owc_domination_number(g)
        k, hits = naive_min_sets(g, naive_owc_dominating)
        assert res.value == k
        assert res.witness.vertices() == min(hits)
        assert is_owc_dominating(g, res.witness)


def test_examined_counts_whole_levels():
    g = path_graph(5)
    res = owc_domination_number(g)
    assert res.value == 3
    assert res.examined == sum(math.comb(5, k) for k in (1, 2, 3))
    assert res.elapsed >= 0.0


def test_enumerate_min_owc_sets():
    assert [s.vertices() for s in enumerate_min_owc_sets(path_graph(3))] == [
        (0, 1), (0, 2), (1, 2)]
    assert [s.vertices() for s in enumerate_min_owc_sets(cycle_graph(4))] == [
        (0, 1), (0, 3), (1, 2), (2, 3)]
    for g in random_pool(77, 10):
        _, hits = naive_min_sets(g, naive_owc_dominating)
        assert [s.vertices() for s in enumerate_min_owc_sets(g)] == sorted(hits)


def test_sets_of_size():
    got = sets_of_size(path_graph(4), 2, MODE_DOMINATING)
    expect = [c for c in naive_min_sets(path_graph(4), naive_dominating)[1]]
    assert [s.vertices() for s in got] == sorted(expect)
    assert sets_of_size(path_graph(3), 1, MODE_OWC) == []
    with pytest.raises(ValueError):
        sets_of_size(path_graph(3), 0)
    with pytest.raises(ValueError):
        sets_of_size(path_graph(3), 4)


def test_script_p_values():
    assert script_p(path_graph(3)) == 0
    assert script_p(star_graph(3)) == 0
    assert script_p(path_graph(2)) == 1
    assert script_p(cycle_graph(4)) == 0
    assert script_p(path_graph(5)) == 1
    for g in FAMILIES + random_pool(31, 10):
        assert script_p(g) == naive_script_p(g), g.name


def test_script_p_convex_mode():
    # C4: adjacent pairs are outer-convex dominating, so the convex-mode
    # minimum exists and is 0
    assert script_p(cycle_graph(4), mode=SCRIPT_P_CONVEX) == 0
    # diamond: gamma_wcon is 1 via either hub, but I[2,3] crosses both hubs,
    # so no singleton has a convex complement
    g = graph_from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert owc_domination_number(g).value == 1
    assert all(not naive_ocon_dominating(g, c.vertices())
               for c in subsets_as_vertexsets(4) if len(c) == 1)
    assert script_p(g, mode=SCRIPT_P_CONVEX) is None
    with pytest.raises(ValueError):
        script_p(g, mode="nope")


def test_script_p_realizer():
    s, p = script_p_realizer(path_graph(3))
    assert s.vertices() == (0, 1)
    assert p == 0
    s, p = script_p_realizer(path_graph(2))
    assert s.vertices() == (0,)
    assert p == 1
    for g in random_pool(43, 8):
        s, p = script_p_realizer(g)
        assert p == script_p(g)
        assert len(s) == owc_domination_number(g).value
        assert len(isolated_in_induced(g, s)) == p


def test_rejects_disconnected_and_oversize():
    g = graph_from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        owc_domination_number(g)
    with pytest.raises(ValueError, match="cap"):
        owc_domination_number(path_graph(6), cap=5)


def test_outer_convex_predicate_rejects_a_disconnected_pair():
    # {0, 3} dominates 0-1, 2-3, but its complement {1, 2} has no geodesic
    g = graph_from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="disconnected; no geodesic exists"):
        is_outer_convex_dominating(g, VertexSet.of(4, [0, 3]))


NAIVE_PREDICATES = {
    MODE_DOMINATING: naive_dominating,
    MODE_OWC: naive_owc_dominating,
    MODE_OCON: naive_ocon_dominating,
}


def test_level_hits_are_the_passing_sets_in_lex_order():
    for g in FAMILIES + random_pool(23, 12, lo=2, hi=9):
        cache = IntervalCache(g)
        for mode, predicate in NAIVE_PREDICATES.items():
            for k in range(1, g.order + 1):
                got = [VertexSet(g.order, bits).vertices() for bits in _level_hits(cache, k, mode)]
                expect = [c for c in itertools.combinations(range(g.order), k) if predicate(g, c)]
                assert got == expect, (g.name, mode, k)


@st.composite
def connected_graphs(draw):
    """A spanning tree (each vertex hangs off an earlier one) plus any extra edges."""
    n = draw(st.integers(1, 10))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n))) if pairs else set()
    return graph_from_edge_list(n, sorted(edges))


@settings(deadline=None, max_examples=60, database=None)
@given(connected_graphs())
def test_solvers_match_naive_first_hit(g):
    solvers = {
        MODE_DOMINATING: domination_number,
        MODE_OWC: owc_domination_number,
        MODE_OCON: outer_convex_domination_number,
    }
    for mode, predicate in NAIVE_PREDICATES.items():
        # the first passing subset in combinations order is the canonical witness
        first = next(
            c
            for k in range(1, g.order + 1)
            for c in itertools.combinations(range(g.order), k)
            if predicate(g, c)
        )
        res = solvers[mode](g)
        assert (res.value, res.witness.vertices()) == (len(first), first), mode


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_p6_p4_value_witness_and_examined(workers):
    g = cartesian(path_graph(6), path_graph(4)).graph
    res = owc_domination_number(g, workers=workers)
    assert res.value == 11
    assert res.witness.vertices() == (0, 1, 2, 8, 11, 12, 15, 16, 19, 20, 23)
    assert res.examined == 7_036_529 == sum(math.comb(24, k) for k in range(1, 12))


@pytest.mark.parametrize(
    "solver, witness",
    [
        (owc_domination_number, (0, 1, 3, 4, 5, 8, 9, 12, 15, 16, 19, 20, 23, 27)),
        (outer_convex_domination_number, (0, 3, 4, 7, 8, 11, 12, 15, 16, 19, 20, 23, 24, 27)),
    ],
    ids=["owc", "ocon"],
)
def test_grid_c7_p4_matches_the_unpruned_search(solver, witness):
    # value and canonical witness recorded from the search without complement pruning
    g = cartesian(cycle_graph(7), path_graph(4)).graph
    res = solver(g, cap=28, workers=1)
    assert (res.value, res.witness.vertices()) == (14, witness)


@pytest.mark.parametrize(
    "factors, solver, witness",
    [
        ((path_graph(8), path_graph(4)), owc_domination_number,
         (0, 1, 2, 8, 11, 12, 15, 16, 19, 20, 23, 24, 27, 28, 31)),
        ((path_graph(8), path_graph(4)), outer_convex_domination_number,
         (0, 3, 4, 7, 8, 11, 12, 15, 16, 19, 20, 23, 24, 27, 28, 31)),
        ((cycle_graph(6), cycle_graph(5)), owc_domination_number,
         (0, 1, 2, 3, 5, 6, 7, 8, 10, 11, 15, 16, 19, 20, 21, 24)),
        ((cycle_graph(6), cycle_graph(5)), outer_convex_domination_number,
         (0, 1, 2, 5, 6, 7, 10, 11, 12, 15, 16, 17, 20, 21, 22, 25, 26, 27)),
    ],
    ids=["p8_p4-owc", "p8_p4-ocon", "c6_c5-owc", "c6_c5-ocon"],
)
def test_grids_of_order_30_and_32(factors, solver, witness):
    # value and canonical witness recorded with a search that tests every pair of F at every prefix
    g = cartesian(*factors).graph
    res = solver(g, cap=32, workers=1)
    assert (res.value, res.witness.vertices()) == (len(witness), witness)


@pytest.mark.parametrize(
    "product, witness",
    [
        (cartesian, (0, 1, 2, 3, 6, 7, 8, 9, 13, 14, 22, 23, 28, 29, 31, 32)),
        (strong, (0, 2, 7, 9, 14, 16, 21, 23, 28, 31)),
    ],
    ids=["c6_c6", "c6_strong_c6"],
)
def test_owc_at_order_36(product, witness):
    # value and canonical witness recorded with the search that had no symmetry rule
    g = product(cycle_graph(6), cycle_graph(6)).graph
    res = owc_domination_number(g, cap=36, workers=1)
    assert (res.value, res.witness.vertices()) == (len(witness), witness)


@pytest.mark.parametrize(
    "product, witness",
    [
        (strong, tuple(range(22)) + (24, 25, 26, 30, 31, 32, 35)),
        (lexicographic, tuple(range(28)) + (30, 31, 32, 33)),
    ],
    ids=["c6_strong_c6", "c6_lex_c6"],
)
def test_outer_convex_at_order_36(product, witness):
    # value and canonical witness recorded with the per-pair interval memo the table replaced
    g = product(cycle_graph(6), cycle_graph(6)).graph
    res = outer_convex_domination_number(g, cap=36, workers=1)
    assert (res.value, res.witness.vertices()) == (len(witness), witness)


def test_inner_prefix_tests_match_the_full_pair_test(monkeypatch):
    # each geodesic test of _level_hits, with its cleared pairs skipped, gives the verdict of testing every pair
    real = dom.weakly_convex_bits
    calls = []

    def checked(adj, balls, avail, fixed, *skip):
        got = real(adj, balls, avail, fixed, *skip)
        calls.append(bool(skip))
        assert got == real(adj, balls, avail, fixed), (avail, fixed)
        return got

    monkeypatch.setattr(dom, "weakly_convex_bits", checked)
    for g in FAMILIES + random_pool(37, 12, lo=6, hi=10):
        cache = IntervalCache(g)
        for k in range(2, g.order):
            list(_level_hits(cache, k, MODE_OWC))
    assert sum(calls) > 1000


def test_parallel_scan_matches_serial():
    for g in [path_graph(5), cycle_graph(6)] + random_pool(9, 4, lo=6, hi=8):
        serial = owc_domination_number(g, workers=1)
        parallel = owc_domination_number(g, workers=2)
        assert (serial.value, serial.witness) == (parallel.value, parallel.witness)
        assert serial.examined == parallel.examined
        assert enumerate_min_owc_sets(g, workers=2) == enumerate_min_owc_sets(g)
