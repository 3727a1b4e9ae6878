import pytest

from owc.constructions import (
    ConstructionSet,
    HypothesisError,
    full_cover,
    lexico_anchor,
    strong_kmn_pair,
    strong_kn_slice,
    verify_on_product,
)
from owc.domination import owc_domination_number
from owc.graphs import (
    VertexSet,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from owc.products import cartesian, lexicographic, strong

from naive import naive_owc_dominating


def min_owc_witness(g):
    return owc_domination_number(g).witness


def test_cartesian_covers():
    g, h = path_graph(3), cycle_graph(4)
    p = cartesian(g, h)
    t = min_owc_witness(h)
    cs = full_cover(p, t, "right")
    assert cs.recipe == "right_cover"
    assert cs.size == cs.expected_size == g.order * len(t)
    assert verify_on_product(p, cs)
    assert naive_owc_dominating(p.graph, cs.vertices.vertices())

    s = min_owc_witness(g)
    cs = full_cover(p, s, "left")
    assert cs.recipe == "left_cover"
    assert cs.size == cs.expected_size == h.order * len(s)
    assert verify_on_product(p, cs)


def test_strong_covers():
    g, h = cycle_graph(5), path_graph(3)
    p = strong(g, h)
    cs = full_cover(p, min_owc_witness(h), "right")
    assert cs.size == 5 * 2
    assert verify_on_product(p, cs)
    cs = full_cover(p, min_owc_witness(g), "left")
    assert cs.size == 3 * 3
    assert verify_on_product(p, cs)


def test_cover_rejects_bad_inputs():
    p = cartesian(path_graph(3), cycle_graph(4))
    lex = lexicographic(path_graph(3), cycle_graph(4))
    with pytest.raises(HypothesisError, match="cartesian or strong"):
        full_cover(lex, min_owc_witness(path_graph(3)), "left")
    with pytest.raises(HypothesisError, match="cartesian or strong"):
        full_cover(lex, min_owc_witness(cycle_graph(4)), "right")
    with pytest.raises(HypothesisError, match="not outer-weakly convex dominating"):
        full_cover(p, VertexSet.of(3, [1]), "left")
    with pytest.raises(HypothesisError, match="factor has"):
        full_cover(p, VertexSet.of(4, [0, 1]), "left")
    with pytest.raises(HypothesisError, match="factor has"):
        full_cover(strong(path_graph(3), cycle_graph(4)), VertexSet.of(3, [1]), "right")
    with pytest.raises(ValueError, match="side"):
        full_cover(p, min_owc_witness(path_graph(3)), "top")


def test_kn_slice():
    g = cycle_graph(4)
    p = strong(g, complete_graph(2))
    s = min_owc_witness(g)
    cs = strong_kn_slice(p, s, h=1)
    assert cs.recipe == "kn_slice"
    assert cs.size == len(s) == 2
    assert cs.ingredients["h"] == 1
    assert cs.vertices == p.subset([(0, 1), (1, 1)])
    assert verify_on_product(p, cs)
    # default slice coordinate is 0
    assert strong_kn_slice(p, s).ingredients["h"] == 0


def test_kn_slice_builds_even_when_bound_fails():
    # the slice for P3 x K2 satisfies the product predicate; it witnesses
    # an upper bound of 2 even though the product optimum is 1
    g = path_graph(3)
    p = strong(g, complete_graph(2))
    cs = strong_kn_slice(p, VertexSet.of(3, [0, 1]), h=0)
    assert verify_on_product(p, cs)
    assert owc_domination_number(p.graph).value == 1 < cs.size


def test_kn_slice_rejects():
    g = cycle_graph(4)
    p = strong(g, complete_graph(2))
    with pytest.raises(HypothesisError, match="not a complete graph"):
        strong_kn_slice(strong(g, path_graph(3)), min_owc_witness(g))
    with pytest.raises(HypothesisError, match="minimum"):
        strong_kn_slice(p, VertexSet.of(4, [0, 1, 2]))
    with pytest.raises(HypothesisError, match="not OWC dominating"):
        strong_kn_slice(p, VertexSet.of(4, [0, 2]))
    with pytest.raises(HypothesisError, match="out of range"):
        strong_kn_slice(p, min_owc_witness(g), h=2)


def test_kmn_pair():
    g = complete_graph(2)
    p = strong(g, complete_bipartite_graph(2, 2))
    s = VertexSet.of(2, [0])
    cs = strong_kmn_pair(p, s)
    assert cs.recipe == "kmn_pair"
    # default h is the first left-part vertex, h' its smallest neighbor
    assert cs.ingredients["h"] == 0 and cs.ingredients["h_prime"] == 2
    assert cs.size == cs.expected_size == 2
    assert verify_on_product(p, cs)
    # sharp here: the product optimum equals 2 gamma(G)
    assert owc_domination_number(p.graph).value == 2

    cs = strong_kmn_pair(p, s, h=3, h_prime=1)
    assert cs.vertices == p.subset([(0, 3), (0, 1)])


def test_kmn_pair_rejects():
    g = path_graph(3)
    with pytest.raises(HypothesisError, match="not bipartite"):
        strong_kmn_pair(strong(g, cycle_graph(3)), VertexSet.of(3, [1]))
    with pytest.raises(HypothesisError, match="parts must have size"):
        strong_kmn_pair(strong(g, star_graph(3)), VertexSet.of(3, [1]))
    with pytest.raises(HypothesisError, match="not complete bipartite"):
        strong_kmn_pair(strong(g, cycle_graph(6)), VertexSet.of(3, [1]))
    p = strong(g, complete_bipartite_graph(2, 2))
    with pytest.raises(HypothesisError, match="not dominating"):
        strong_kmn_pair(p, VertexSet.of(3, [0]))
    with pytest.raises(HypothesisError, match="domination number"):
        strong_kmn_pair(p, VertexSet.of(3, [0, 1]))
    with pytest.raises(HypothesisError, match="not an edge"):
        strong_kmn_pair(p, VertexSet.of(3, [1]), h=0, h_prime=1)


def test_lexico_anchor():
    g = complete_graph(2)
    p = lexicographic(g, path_graph(3))
    s = VertexSet.of(2, [0])
    cs = lexico_anchor(p, s)
    assert cs.recipe == "anchor"
    # {0} is isolated in its own induced subgraph; anchor adds its neighbor 1
    assert cs.ingredients["anchors"] == {0: 1}
    assert cs.size == cs.expected_size == 2
    assert cs.vertices == p.subset([(0, 0), (1, 0)])
    assert verify_on_product(p, cs)

    # C4 has script_p 0, so no anchors are added
    g = cycle_graph(4)
    p = lexicographic(g, complete_graph(2))
    cs = lexico_anchor(p, VertexSet.of(4, [0, 1]), h=1)
    assert cs.ingredients["anchors"] == {}
    assert cs.size == 2
    assert verify_on_product(p, cs)


def test_lexico_anchor_rejects():
    # P5's minimum OWC sets are {0,1,4} and {0,3,4}, each with one isolated vertex
    g = path_graph(5)
    p = lexicographic(g, complete_graph(2))
    with pytest.raises(HypothesisError, match="lexicographic"):
        lexico_anchor(strong(g, complete_graph(2)), min_owc_witness(g))
    # {0,1,4} is a minimum OWC set with one isolated vertex, fine
    cs = lexico_anchor(p, VertexSet.of(5, [0, 1, 4]))
    assert cs.expected_size == 4
    with pytest.raises(HypothesisError, match="minimum OWC domination size"):
        lexico_anchor(p, VertexSet.of(5, [0, 1, 3, 4]))
    with pytest.raises(HypothesisError, match="out of range"):
        lexico_anchor(p, VertexSet.of(5, [0, 1, 4]), h=5)
    # P6's minimum OWC sets have isolated counts 1, 0 and 1: P_G is 0, so a
    # minimum set with one isolated vertex does not attain it
    p = lexicographic(path_graph(6), complete_graph(2))
    with pytest.raises(HypothesisError, match="has 1 induced-isolated vertices; the minimum is 0"):
        lexico_anchor(p, VertexSet.of(6, [0, 1, 2, 5]))


def test_construction_set_equality_ignores_ingredients():
    a = ConstructionSet(VertexSet.of(2, [0]), "x", {"k": 1}, 1)
    b = ConstructionSet(VertexSet.of(2, [0]), "x", {"k": 2}, 1)
    assert a == b
    assert a.size == 1
