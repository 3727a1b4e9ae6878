"""Cartesian, strong, and lexicographic products of connected graphs.

Vertices of a product are pairs (g, h) flattened row-major: pair(g, h) = g*n + h
where n is the right factor's order.  All layer and projection helpers speak
this indexing.  Each neighbourhood mask of a product is read off the factors'
masks, one formula per kind, and the built graph is checked against the
closed-form edge count.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import Graph, VertexSet, is_connected, iter_bits

CARTESIAN = "cartesian"
STRONG = "strong"
LEXICOGRAPHIC = "lexicographic"
PRODUCT_KINDS = (CARTESIAN, STRONG, LEXICOGRAPHIC)


def edge_count_formula(kind: str, g: Graph, h: Graph) -> int:
    """Closed-form edge count of the product of g and h."""
    m, n = g.order, h.order
    eg, eh = g.edge_count(), h.edge_count()
    if kind == CARTESIAN:
        return m * eh + n * eg
    if kind == STRONG:
        return m * eh + n * eg + 2 * eg * eh
    if kind == LEXICOGRAPHIC:
        return m * eh + n * n * eg
    raise ValueError(f"unknown product kind {kind!r}")


def _neighbourhoods(kind: str, g: Graph, h: Graph) -> list[int]:
    """The product's masks N(a,u) = {a} x N_H(u) | N_G(a) x X, in index order.

    X is {u} for cartesian, {u} | N_H(u) for strong and V(H) for
    lexicographic products.
    """
    n = h.order
    hadj = h.adjacency_bits()
    if kind == CARTESIAN:
        xs = [1 << u for u in range(n)]
    elif kind == STRONG:
        xs = [hadj[u] | 1 << u for u in range(n)]
    else:
        xs = [(1 << n) - 1] * n
    masks = []
    for a, gnbrs in enumerate(g.adjacency_bits()):
        # lift has bit b*n for each neighbour b of a, so lift * x is N_G(a) x X
        lift = sum(1 << b * n for b in iter_bits(gnbrs))
        masks += [hadj[u] << a * n | lift * x for u, x in enumerate(xs)]
    return masks


class ProductGraph:
    """A product graph together with its factors and the pairing bijection."""

    __slots__ = ("kind", "left", "right", "graph")

    def __init__(self, kind: str, left: Graph, right: Graph):
        if kind not in PRODUCT_KINDS:
            raise ValueError(f"unknown product kind {kind!r}")
        for side, factor in (("left", left), ("right", right)):
            if factor.order < 2:
                raise ValueError(
                    f"{side} factor {factor.name!r} has order {factor.order}; "
                    "products require nontrivial factors (order >= 2)"
                )
            if not is_connected(factor):
                raise ValueError(f"{side} factor {factor.name!r} must be connected")
        self.kind = kind
        self.left = left
        self.right = right
        order = left.order * right.order
        self.graph = Graph(
            order,
            (VertexSet(order, bits) for bits in _neighbourhoods(kind, left, right)),
            name=f"{kind}({left.name},{right.name})",
        )
        expected = edge_count_formula(kind, left, right)
        if self.graph.edge_count() != expected:
            raise AssertionError(
                f"{self.graph.name}: built {self.graph.edge_count()} edges, formula says {expected}"
            )

    @property
    def order(self) -> int:
        return self.graph.order

    def pair(self, g: int, h: int) -> int:
        if not (0 <= g < self.left.order and 0 <= h < self.right.order):
            raise ValueError(f"pair ({g},{h}) out of range {self.left.order}x{self.right.order}")
        return g * self.right.order + h

    def unpair(self, p: int) -> tuple[int, int]:
        if not 0 <= p < self.order:
            raise ValueError(f"product index {p} out of range")
        return divmod(p, self.right.order)

    def subset(self, pairs: Iterable[tuple[int, int]]) -> VertexSet:
        """VertexSet of product indices for the given (g, h) pairs."""
        bits = 0
        for g, h in pairs:
            bits |= 1 << self.pair(g, h)
        return VertexSet(self.order, bits)

    def project_left(self, s: VertexSet) -> VertexSet:
        bits = 0
        for p in s:
            bits |= 1 << (p // self.right.order)
        return VertexSet(self.left.order, bits)

    def project_right(self, s: VertexSet) -> VertexSet:
        bits = 0
        for p in s:
            bits |= 1 << (p % self.right.order)
        return VertexSet(self.right.order, bits)

    def layer_left(self, h: int) -> VertexSet:
        """The G-layer V(G) x {h} as product indices."""
        return self.subset((g, h) for g in range(self.left.order))

    def layer_right(self, g: int) -> VertexSet:
        """The H-layer {g} x V(H) as product indices."""
        return self.subset((g, h) for h in range(self.right.order))


def cartesian(g: Graph, h: Graph) -> ProductGraph:
    """G box H: adjacent in one coordinate, equal in the other."""
    return ProductGraph(CARTESIAN, g, h)


def strong(g: Graph, h: Graph) -> ProductGraph:
    """Cartesian edges plus diagonals where both coordinates are adjacent."""
    return ProductGraph(STRONG, g, h)


def lexicographic(g: Graph, h: Graph) -> ProductGraph:
    """Left coordinates adjacent, or equal left and adjacent right. Not commutative."""
    return ProductGraph(LEXICOGRAPHIC, g, h)


def product(kind: str, g: Graph, h: Graph) -> ProductGraph:
    return ProductGraph(kind, g, h)
