import random

import networkx as nx
import pytest

from owc.graphs import (
    UNREACHABLE,
    Graph,
    VertexSet,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    distance_matrix,
    family,
    format_edge_list,
    graph_from_edge_list,
    graph_from_spec,
    induced_subgraph,
    is_complete_graph,
    is_connected,
    parse_edge_list,
    path_graph,
    star_graph,
)

from naive import from_nx, random_connected_graph, to_nx


def test_vertexset_constructors():
    s = VertexSet.of(5, [0, 3])
    assert s.bits == 0b01001
    assert list(s) == [0, 3]
    assert len(s) == 2
    assert 3 in s and 1 not in s and 7 not in s
    assert not VertexSet.empty(4)
    assert VertexSet.full(4).bits == 0b1111
    assert str(s) == "{0,3}"
    assert s.vertices() == (0, 3)


def test_vertexset_ops():
    a = VertexSet.of(4, [0, 1])
    b = VertexSet.of(4, [1, 2])
    assert (a | b).vertices() == (0, 1, 2)
    assert (a & b).vertices() == (1,)
    assert (a - b).vertices() == (0,)
    assert a.complement().vertices() == (2, 3)
    assert (a & b).issubset(a)
    assert not a.issubset(b)
    assert a == VertexSet(4, 0b0011)
    assert hash(a) == hash(VertexSet(4, 0b0011))


def test_vertexset_errors():
    with pytest.raises(ValueError):
        VertexSet(3, 0b1000)
    with pytest.raises(ValueError):
        VertexSet.of(3, [3])
    with pytest.raises(ValueError):
        VertexSet.of(3, [-1])
    with pytest.raises(ValueError):
        VertexSet.of(3, [0]) | VertexSet.of(4, [0])
    with pytest.raises(AttributeError):
        VertexSet(3, 1).bits = 2


def test_graph_validation():
    # asymmetric adjacency
    with pytest.raises(ValueError):
        Graph(2, [VertexSet.of(2, [1]), VertexSet.empty(2)])
    # self loop
    with pytest.raises(ValueError):
        Graph(1, [VertexSet.of(1, [0])])
    # wrong universe
    with pytest.raises(ValueError):
        Graph(2, [VertexSet.empty(3), VertexSet.empty(3)])
    with pytest.raises(AttributeError):
        path_graph(2).order = 5


def test_graph_from_edge_list():
    g = graph_from_edge_list(3, [(0, 1), (1, 0), (1, 2)])
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.edge_count() == 2
    assert g.degree(1) == 2
    assert g.has_edge(2, 1) and not g.has_edge(0, 2)
    with pytest.raises(ValueError):
        graph_from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        graph_from_edge_list(3, [(1, 1)])


def test_families_against_networkx():
    cases = [
        (path_graph(5), nx.path_graph(5)),
        (cycle_graph(6), nx.cycle_graph(6)),
        (complete_graph(4), nx.complete_graph(4)),
        (complete_bipartite_graph(2, 3), nx.complete_bipartite_graph(2, 3)),
        (star_graph(4), nx.star_graph(4)),
    ]
    for mine, ref in cases:
        assert mine.order == ref.number_of_nodes()
        assert sorted(mine.edges()) == sorted(tuple(sorted(e)) for e in ref.edges())


def test_family_names_and_dispatch():
    assert path_graph(3).name == "P3"
    assert cycle_graph(4).name == "C4"
    assert complete_graph(3).name == "K3"
    assert complete_bipartite_graph(2, 3).name == "K2,3"
    assert star_graph(3).name == "K1,3"
    assert family("cycle", 5) == cycle_graph(5)
    with pytest.raises(ValueError):
        family("moebius", 5)
    with pytest.raises(ValueError):
        family("cycle", 5, 6)


def test_complete_bipartite_part_layout():
    g = complete_bipartite_graph(2, 3)
    # left part [0,2), right part [2,5); no edges inside a part
    for u in range(2):
        assert g.neighbors(u).vertices() == (2, 3, 4)
    for v in range(2, 5):
        assert g.neighbors(v).vertices() == (0, 1)


def test_is_complete_graph():
    assert is_complete_graph(complete_graph(1))
    assert is_complete_graph(complete_graph(5))
    assert not is_complete_graph(path_graph(3))
    assert not is_complete_graph(complete_bipartite_graph(2, 2))


def test_distance_matrix_against_networkx():
    rng = random.Random(42)
    graphs = [path_graph(6), cycle_graph(7), complete_bipartite_graph(3, 2)]
    graphs += [random_connected_graph(rng, n) for n in (5, 6, 7, 8)]
    for g in graphs:
        dm = distance_matrix(g)
        ref = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
        for u in range(g.order):
            for v in range(g.order):
                assert dm.dist(u, v) == ref[u][v]
        assert dm.eccentricity(0) == max(ref[0].values())


def test_distance_matrix_disconnected():
    g = graph_from_edge_list(4, [(0, 1), (2, 3)])
    dm = distance_matrix(g)
    assert dm.dist(0, 1) == 1
    assert dm.dist(0, 2) == UNREACHABLE
    assert not is_connected(g)
    assert is_connected(path_graph(4))
    assert is_connected(complete_graph(1))


def test_induced_subgraph_matches_networkx():
    rng = random.Random(7)
    for _ in range(20):
        g = random_connected_graph(rng, 7)
        members = [v for v in range(7) if rng.random() < 0.6]
        if not members:
            continue
        sub, remap = induced_subgraph(g, VertexSet.of(7, members))
        ref = from_nx(to_nx(g).subgraph(members))
        assert sub == ref
        assert sorted(remap) == sorted(members)
        assert [remap[v] for v in sorted(members)] == list(range(len(members)))
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), VertexSet.empty(3))


def test_graph_from_spec():
    assert graph_from_spec("cycle:5") == cycle_graph(5)
    assert graph_from_spec("complete_bipartite:2,3") == complete_bipartite_graph(2, 3)
    assert graph_from_spec(" path:4 ") == path_graph(4)
    for bad, why in [("path", "expected name:params"), ("path:x", "invalid literal"),
                     ("path:2..4", "names 3 graphs")]:
        with pytest.raises(ValueError, match=why):
            graph_from_spec(bad)


def test_graph_from_spec_files(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("3 2\n0 1\n1 2\n")
    assert graph_from_spec(f"@{p}") == path_graph(3)
    q = tmp_path / "g.g6"
    q.write_text("A_\n")
    assert graph_from_spec(f"@{q}") == complete_graph(2)


def test_edge_list_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        g = random_connected_graph(rng, 6)
        assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_parse_errors():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")  # promised 2 edges, got 1
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 1 2\n")
    # comments and blank lines are fine
    g = parse_edge_list("# a path\n3 2\n\n0 1  # first\n1 2\n")
    assert g == path_graph(3)
