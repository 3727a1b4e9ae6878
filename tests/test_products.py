import itertools
import random

import networkx as nx
import pytest

from owc.constructions import HypothesisError, full_cover
from owc.domination import owc_domination_number
from owc.graphs import (
    VertexSet,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    graph_from_edge_list,
    induced_subgraph,
    path_graph,
    star_graph,
)
from owc.products import (
    PRODUCT_KINDS,
    ProductGraph,
    cartesian,
    edge_count_formula,
    lexicographic,
    product,
    strong,
)

from naive import nx_product, random_connected_graph, to_nx

FACTORS = [
    path_graph(2), path_graph(3), path_graph(4),
    cycle_graph(3), cycle_graph(5),
    complete_graph(2), complete_graph(4),
    star_graph(3), complete_bipartite_graph(2, 2),
]


def test_matches_networkx_products():
    rng = random.Random(12)
    pairs = list(itertools.product(FACTORS, repeat=2))
    pairs += [(random_connected_graph(rng, 4), random_connected_graph(rng, 5))
              for _ in range(5)]
    for g, h in pairs:
        for kind in PRODUCT_KINDS:
            p = product(kind, g, h)
            assert p.graph == nx_product(kind, g, h), (kind, g.name, h.name)
            assert p.graph.edge_count() == edge_count_formula(kind, g, h)


def test_edge_count_formulas_explicit():
    g, h = path_graph(3), cycle_graph(4)  # 2 and 4 edges
    assert edge_count_formula("cartesian", g, h) == 3 * 4 + 4 * 2
    assert edge_count_formula("strong", g, h) == 3 * 4 + 4 * 2 + 2 * 2 * 4
    assert edge_count_formula("lexicographic", g, h) == 3 * 4 + 16 * 2
    with pytest.raises(ValueError):
        edge_count_formula("tensor", g, h)


def test_small_identities():
    # K2 x K2: square under cartesian, K4 under strong and lexicographic
    k2 = complete_graph(2)
    sq = cartesian(k2, k2).graph
    assert sq.edge_count() == 4
    assert nx.is_isomorphic(to_nx(sq), nx.cycle_graph(4))
    assert strong(k2, k2).graph == complete_graph(4)
    assert lexicographic(k2, k2).graph == complete_graph(4)
    assert strong(complete_graph(3), complete_graph(2)).graph == complete_graph(6)


def test_cartesian_and_strong_commute_up_to_pair_swap():
    g, h = path_graph(3), cycle_graph(4)
    for make in (cartesian, strong):
        p = make(g, h)
        q = make(h, g)
        swap = {p.pair(a, b): q.pair(b, a) for a in range(3) for b in range(4)}
        mapped = sorted(tuple(sorted((swap[u], swap[v]))) for u, v in p.graph.edges())
        assert mapped == q.graph.edges()


def test_lexicographic_is_noncommutative():
    a = lexicographic(path_graph(3), complete_graph(2)).graph
    b = lexicographic(complete_graph(2), path_graph(3)).graph
    assert sorted(a.degree(v) for v in range(6)) != sorted(b.degree(v) for v in range(6))


def test_edge_containment():
    g, h = path_graph(4), cycle_graph(3)
    cart = set(cartesian(g, h).graph.edges())
    assert cart < set(strong(g, h).graph.edges())
    assert cart < set(lexicographic(g, h).graph.edges())


def test_full_cover_is_a_factor_set_times_the_other_factor():
    for g, h in itertools.product(FACTORS, repeat=2):
        s, t = owc_domination_number(g).witness, owc_domination_number(h).witness
        for make in (cartesian, strong):
            p = make(g, h)
            s_by_h = VertexSet.of(p.order, [p.pair(a, u) for a in s for u in range(h.order)])
            g_by_t = VertexSet.of(p.order, [p.pair(a, u) for a in range(g.order) for u in t])
            left, right = full_cover(p, s, "left"), full_cover(p, t, "right")
            assert (left.vertices, left.recipe, left.expected_size) == (s_by_h, "left_cover", len(s_by_h))
            assert (right.vertices, right.recipe, right.expected_size) == (g_by_t, "right_cover", len(g_by_t))
        with pytest.raises(HypothesisError):
            full_cover(lexicographic(g, h), s, "left")
        with pytest.raises(HypothesisError):
            full_cover(lexicographic(g, h), t, "right")


def test_pair_unpair():
    p = cartesian(path_graph(3), cycle_graph(4))
    assert p.order == 12 and p.left.order == 3 and p.right.order == 4
    for g in range(3):
        for h in range(4):
            assert p.unpair(p.pair(g, h)) == (g, h)
    assert p.pair(1, 2) == 6  # row-major
    with pytest.raises(ValueError):
        p.pair(3, 0)
    with pytest.raises(ValueError):
        p.pair(0, -1)
    with pytest.raises(ValueError):
        p.unpair(12)


def test_subset_projections_layers():
    p = strong(path_graph(3), complete_graph(2))
    s = p.subset([(0, 1), (2, 0), (2, 1)])
    assert s.vertices() == (1, 4, 5)
    assert p.project_left(s).vertices() == (0, 2)
    assert p.project_right(s).vertices() == (0, 1)
    assert p.layer_right(1).vertices() == (2, 3)
    assert p.layer_left(0).vertices() == (0, 2, 4)
    layers = [p.layer_left(h) for h in range(2)]
    assert (layers[0] | layers[1]) == VertexSet.full(6)
    assert not (layers[0] & layers[1])
    assert p.project_left(VertexSet.full(6)) == VertexSet.full(3)
    assert p.project_left(p.layer_right(1)).vertices() == (1,)


def test_layers_induce_factor_copies():
    g, h = path_graph(4), cycle_graph(3)
    for kind in PRODUCT_KINDS:
        p = product(kind, g, h)
        for gv in range(g.order):
            sub, _ = induced_subgraph(p.graph, p.layer_right(gv))
            assert sub == h, (kind, gv)
        # G-layers induce copies of G under cartesian and strong
        if kind != "lexicographic":
            for hv in range(h.order):
                sub, _ = induced_subgraph(p.graph, p.layer_left(hv))
                assert sub == g, (kind, hv)


def test_lexicographic_g_layers():
    # in G o H a G-layer still induces a copy of G
    p = lexicographic(path_graph(4), cycle_graph(3))
    sub, _ = induced_subgraph(p.graph, p.layer_left(1))
    assert sub == path_graph(4)


def test_product_names():
    p = strong(path_graph(3), complete_graph(2))
    assert p.graph.name == "strong(P3,K2)"
    assert p.kind == "strong"
    assert p.left == path_graph(3) and p.right == complete_graph(2)


def test_factor_validation():
    with pytest.raises(ValueError, match="unknown product kind"):
        ProductGraph("tensor", path_graph(2), path_graph(2))
    with pytest.raises(ValueError, match="order"):
        cartesian(path_graph(1), path_graph(3))
    with pytest.raises(ValueError, match="connected"):
        cartesian(path_graph(3), graph_from_edge_list(4, [(0, 1), (2, 3)]))
