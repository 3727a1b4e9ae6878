import random

import networkx as nx
import pytest

from owc.graph6 import Graph6Error, graph_from_graph6, to_graph6
from owc.graphs import (
    complete_graph,
    cycle_graph,
    graph_from_edge_list,
    path_graph,
    star_graph,
)

from naive import random_connected_graph, to_nx


def nx_encode(g):
    return nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()


def test_round_trip_families():
    for g in (path_graph(1), path_graph(2), path_graph(5), cycle_graph(6),
              complete_graph(4), star_graph(5)):
        assert graph_from_graph6(to_graph6(g)) == g


def test_round_trip_random_including_disconnected():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 11)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = graph_from_edge_list(n, edges)
        s = to_graph6(g)
        assert graph_from_graph6(s) == g
        assert to_graph6(graph_from_graph6(s)) == s


def test_matches_networkx_encoding():
    rng = random.Random(5)
    for n in range(2, 10):
        g = random_connected_graph(rng, n)
        assert to_graph6(g) == nx_encode(g)


def test_decodes_networkx_output():
    rng = random.Random(6)
    for n in range(2, 10):
        g = random_connected_graph(rng, n)
        assert graph_from_graph6(nx_encode(g)) == g


def test_known_strings():
    assert graph_from_graph6("A_") == complete_graph(2)
    assert graph_from_graph6("A?") == graph_from_edge_list(2, [])
    # "D?{": 5 vertices, last vertex joined to all others
    g = graph_from_graph6("D?{")
    assert sorted(g.degree(v) for v in range(5)) == [1, 1, 1, 1, 4]
    assert nx.is_isomorphic(to_nx(g), nx.star_graph(4))


def test_optional_header_prefix():
    assert graph_from_graph6(">>graph6<<A_") == complete_graph(2)


def test_long_order_prefix():
    g = path_graph(63)
    s = to_graph6(g)
    assert s.startswith(chr(126))
    assert graph_from_graph6(s) == g
    assert s == nx_encode(g)


def test_decode_errors_carry_offsets():
    with pytest.raises(Graph6Error) as exc:
        graph_from_graph6("")
    assert exc.value.offset == 0

    with pytest.raises(Graph6Error) as exc:
        graph_from_graph6("A")  # missing adjacency byte
    assert "adjacency" in str(exc.value)

    with pytest.raises(Graph6Error):
        graph_from_graph6("A_X")  # trailing junk

    with pytest.raises(Graph6Error) as exc:
        graph_from_graph6("A" + chr(20))  # byte below 63
    assert exc.value.offset == 1

    with pytest.raises(Graph6Error):
        graph_from_graph6(chr(20))

    # order 2 has one adjacency bit and five padding bits; set one of them
    with pytest.raises(Graph6Error) as exc:
        graph_from_graph6("A" + chr(63 + 1))
    assert "padding" in str(exc.value)

    # long prefix used for a small order is non-canonical
    with pytest.raises(Graph6Error) as exc:
        graph_from_graph6(chr(126) + chr(63) + chr(63) + chr(65) + "_")
    assert "non-canonical" in str(exc.value)

    with pytest.raises(Graph6Error):
        graph_from_graph6(chr(126) + chr(63))  # truncated long prefix


def test_zero_order_rejected():
    with pytest.raises(Graph6Error):
        graph_from_graph6("?")
