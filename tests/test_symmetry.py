"""The automorphisms on the per-graph context, and the symmetry rule of the owc value search."""

import itertools
import random

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from owc.convexity import IntervalCache
from owc.domination import MODE_OWC, _level_hits
from owc.graphs import Graph, complete_graph, cycle_graph, graph_from_edge_list, path_graph, star_graph
from owc.products import cartesian, lexicographic, strong

from naive import random_connected_graph, to_nx

FACTORS = [cycle_graph(3), cycle_graph(4), cycle_graph(5), path_graph(2), path_graph(3), path_graph(4),
           complete_graph(3), star_graph(3)]


def products(max_order=16):
    return [
        product(a, b).graph
        for a, b in itertools.product(FACTORS, repeat=2)
        for product in (cartesian, strong, lexicographic)
        if a.order * b.order <= max_order
    ]


def relabel(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.order))
    rng.shuffle(perm)
    return graph_from_edge_list(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


def random_graphs(seed, count, lo, hi):
    rng = random.Random(seed)
    return [relabel(rng, random_connected_graph(rng, rng.randint(lo, hi))) for _ in range(count)]


def maps_of(g: Graph) -> list[list[int]]:
    images = IntervalCache(g)._automorphisms
    count = len(images[0]) if images else 0
    return [[images[v][i].bit_length() - 1 for v in range(g.order)] for i in range(count)]


def nx_orbit_of_zero(g: Graph) -> set[int]:
    G = to_nx(g)
    H = G.copy()
    nx.set_node_attributes(G, {v: v == 0 for v in G}, "mark")
    orbit = set()
    for y in range(g.order):
        nx.set_node_attributes(H, {v: v == y for v in H}, "mark")
        if GraphMatcher(G, H, node_match=lambda a, b: a["mark"] == b["mark"]).is_isomorphic():
            orbit.add(y)
    return orbit


def has_trivial_group(g: Graph) -> bool:
    G = to_nx(g)
    return sum(1 for _ in itertools.islice(GraphMatcher(G, G).isomorphisms_iter(), 2)) == 1


def test_every_map_is_a_non_identity_automorphism():
    for g in products(max_order=25) + random_graphs(3, 60, 2, 12):
        edges = set(g.edges())
        for sigma in maps_of(g):
            assert sorted(sigma) == list(range(g.order)) and sigma != list(range(g.order))
            assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in edges} == edges, g.name


def test_the_maps_reach_the_orbit_of_vertex_zero():
    for g in random_graphs(5, 150, 2, 8) + products(max_order=9):
        orbit = {0}
        frontier = [0]
        maps = maps_of(g)
        while frontier:
            frontier = [y for x in frontier for sigma in maps if (y := sigma[x]) not in orbit]
            orbit.update(frontier)
        assert orbit == nx_orbit_of_zero(g), g.edges()


def test_graphs_with_a_trivial_group_get_no_maps():
    rigid = [g for g in random_graphs(11, 200, 6, 10) if has_trivial_group(g)]
    assert len(rigid) >= 20
    for g in rigid:
        assert IntervalCache(g)._automorphisms == []


def first_hit(g: Graph, prune: bool):
    cache = IntervalCache(g)
    for k in range(1, g.order + 1):
        found = next(_level_hits(cache, k, MODE_OWC, prune), None)
        if found is not None:
            return k, found


def test_pruned_first_hits_match_the_unpruned_search():
    rigid = [g for g in random_graphs(13, 40, 6, 10) if has_trivial_group(g)]
    graphs = random_graphs(7, 250, 2, 12) + products() + rigid
    for g in graphs:
        assert first_hit(g, True) == first_hit(g, False), g.edges()


def test_the_symmetry_rule_drops_sets():
    # on the answer level of C4 box C4 the pruned search keeps fewer passing sets than it lists
    g = cartesian(cycle_graph(4), cycle_graph(4)).graph
    k, _ = first_hit(g, False)
    cache = IntervalCache(g)
    pruned, full = (list(_level_hits(cache, k, MODE_OWC, prune)) for prune in (True, False))
    assert pruned[0] == full[0] and set(pruned) < set(full)
