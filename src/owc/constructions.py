"""Candidate dominating sets built from explicit recipes on product graphs.

Each builder validates its own hypotheses at the factor level and raises
HypothesisError when they fail.  Whether the built set actually dominates the
product with a weakly convex complement is for the caller to test; a recipe
that fails that test is a reportable event, not a bug here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .convexity import IntervalCache
from .domination import (
    domination_number,
    is_dominating,
    is_owc_dominating,
    isolated_in_induced,
    owc_domination_number,
    script_p_realizer,
)
from .graphs import Graph, VertexSet, is_complete_graph, iter_bits
from .products import CARTESIAN, LEXICOGRAPHIC, STRONG, ProductGraph


class HypothesisError(ValueError):
    """A recipe's stated preconditions do not hold for the given inputs."""


@dataclass(frozen=True)
class ConstructionSet:
    vertices: VertexSet
    recipe: str
    ingredients: dict = field(compare=False)
    expected_size: int

    @property
    def size(self) -> int:
        return len(self.vertices)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise HypothesisError(message)


# ---------------------------------------------------------------------------
# Full-cover recipe: one factor crossed with a verified set of the other.


def full_cover(p: ProductGraph, s: VertexSet, side: str) -> ConstructionSet:
    """A set s of one factor crossed with the whole other factor, on a cartesian or strong product.

    s must be outer-weakly convex dominating in the ``side`` factor.  The set
    is S x V(H) for ``side="left"`` and V(G) x S for ``"right"``, and the
    recipe is named ``left_cover`` or ``right_cover``.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    _require(p.kind in (CARTESIAN, STRONG), f"expected a cartesian or strong product, got {p.kind}")
    factor = p.right if side == "right" else p.left
    other = p.left if side == "right" else p.right
    _require(
        s.universe == factor.order,
        f"set is over {s.universe} vertices, {side} factor has {factor.order}",
    )
    _require(
        is_owc_dominating(factor, s),
        f"set {s} is not outer-weakly convex dominating in the {side} factor",
    )
    if side == "right":
        pairs = ((g, h) for g in range(other.order) for h in s)
    else:
        pairs = ((g, h) for g in s for h in range(other.order))
    return ConstructionSet(
        vertices=p.subset(pairs),
        recipe=f"{side}_cover",
        ingredients={"set": s, "side": side},
        expected_size=other.order * len(s),
    )


# ---------------------------------------------------------------------------
# Strong-product recipes with a complete or complete bipartite right factor.


def _bipartition(g: Graph) -> tuple[list[int], list[int]] | None:
    """The two parity classes of distance to vertex 0, or None if an edge joins one class."""
    row = IntervalCache.of(g).dist[0]
    if any((row[u] + row[v]) % 2 == 0 for u, v in g.edges()):
        return None
    return [v for v in range(g.order) if row[v] % 2 == 0], [v for v in range(g.order) if row[v] % 2 == 1]


def strong_kn_slice(p: ProductGraph, s: VertexSet, h: int = 0) -> ConstructionSet:
    """S x {h} where s is a minimum OWC dominating set of G and the right factor is complete."""
    _require(p.kind == STRONG, f"expected a strong product, got {p.kind}")
    _require(
        is_complete_graph(p.right) and p.right.order >= 2,
        f"right factor {p.right.name!r} is not a complete graph of order >= 2",
    )
    _require(s.universe == p.left.order, "set must live in the left factor")
    _require(is_owc_dominating(p.left, s), f"{s} is not OWC dominating in the left factor")
    minimum = owc_domination_number(p.left, cap=p.left.order).value
    _require(len(s) == minimum, f"|{s}| != minimum OWC domination size {minimum}")
    _require(0 <= h < p.right.order, f"slice vertex {h} out of range")
    return ConstructionSet(
        vertices=p.subset((g, h) for g in s),
        recipe="kn_slice",
        ingredients={"set": s, "h": h},
        expected_size=len(s),
    )


def strong_kmn_pair(
    p: ProductGraph, s_dom: VertexSet, h: int | None = None, h_prime: int | None = None
) -> ConstructionSet:
    """S x {h, h'} for a minimum dominating S of G and a cross edge hh' of K_{m,n}.

    By default h is the first vertex of the first part and h' its least neighbor.
    """
    _require(p.kind == STRONG, f"expected a strong product, got {p.kind}")
    parts = _bipartition(p.right)
    _require(parts is not None, f"right factor {p.right.name!r} is not bipartite")
    a, b = parts
    _require(min(len(a), len(b)) >= 2, "both parts must have size >= 2")
    adj = p.right.adjacency_bits()
    complete_cross = all(all(adj[u] >> v & 1 for v in b) for u in a)
    _require(complete_cross, f"right factor {p.right.name!r} is not complete bipartite")
    _require(s_dom.universe == p.left.order, "set must live in the left factor")
    _require(is_dominating(p.left, s_dom), f"{s_dom} is not dominating in the left factor")
    minimum = domination_number(p.left, cap=p.left.order).value
    _require(len(s_dom) == minimum, f"|{s_dom}| != domination number {minimum}")
    if h is None:
        h = a[0]
    _require(0 <= h < p.right.order, f"vertex {h} out of range")
    if h_prime is None:
        h_prime = next(iter_bits(adj[h]))
    _require(
        0 <= h_prime < p.right.order and adj[h] >> h_prime & 1,
        f"{h}{h_prime} is not an edge of the right factor",
    )
    pairs = [(g, h) for g in s_dom] + [(g, h_prime) for g in s_dom]
    return ConstructionSet(
        vertices=p.subset(pairs),
        recipe="kmn_pair",
        ingredients={"set": s_dom, "h": h, "h_prime": h_prime},
        expected_size=2 * len(s_dom),
    )


# ---------------------------------------------------------------------------
# Lexicographic recipe: anchor a minimum set plus neighbors of its isolated
# vertices into a single right-coordinate.


def lexico_anchor(p: ProductGraph, s: VertexSet, h: int = 0) -> ConstructionSet:
    """(S x {h}) with the least neighbor added for each vertex isolated in <S>.

    Requires s to be a minimum OWC dominating set of the left factor whose
    induced-isolated count attains the factor's minimum over all such sets.
    Expected size is that minimum plus |S|; coinciding neighbor choices can
    make the built set smaller, which the caller sees via `size`.
    """
    _require(p.kind == LEXICOGRAPHIC, f"expected a lexicographic product, got {p.kind}")
    _require(s.universe == p.left.order, "set must live in the left factor")
    _require(is_owc_dominating(p.left, s), f"{s} is not OWC dominating in the left factor")
    realizer, best_p = script_p_realizer(p.left, cap=p.left.order)
    _require(len(s) == len(realizer), f"|{s}| != minimum OWC domination size {len(realizer)}")
    isolated = isolated_in_induced(p.left, s)
    _require(
        len(isolated) == best_p,
        f"{s} has {len(isolated)} induced-isolated vertices; the minimum is {best_p}",
    )
    _require(0 <= h < p.right.order, f"anchor vertex {h} out of range")
    adj = p.left.adjacency_bits()
    anchors = {v: next(iter_bits(adj[v])) for v in isolated}
    pairs = [(g, h) for g in s] + [(w, h) for w in anchors.values()]
    return ConstructionSet(
        vertices=p.subset(pairs),
        recipe="anchor",
        ingredients={"set": s, "h": h, "anchors": anchors},
        expected_size=len(s) + best_p,
    )


def verify_on_product(p: ProductGraph, cs: ConstructionSet) -> bool:
    """Test the built set against the product's OWC domination predicate."""
    return is_owc_dominating(p.graph, cs.vertices)
