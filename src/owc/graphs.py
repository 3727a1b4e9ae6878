"""Bitset-backed simple undirected graphs: sets, distances, families, file I/O.

Vertices are dense integers ``0..n-1`` and every vertex set is an integer bit
mask wrapped in :class:`VertexSet`, so subset-heavy searches stay bit-parallel.
Graphs are immutable after construction.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

MAX_ORDER = 1024

UNREACHABLE = -1


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bit positions of ``bits`` in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class VertexSet:
    """Immutable set of vertex ids from a fixed universe ``0..universe-1``."""

    __slots__ = ("bits", "universe")

    def __init__(self, universe: int, bits: int = 0):
        if universe < 0:
            raise ValueError(f"universe must be nonnegative, got {universe}")
        if bits < 0 or bits >> universe:
            raise ValueError(f"bit mask {bits:#x} has bits outside universe {universe}")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    @classmethod
    def of(cls, universe: int, vertices: Iterable[int]) -> "VertexSet":
        bits = 0
        for v in vertices:
            if not 0 <= v < universe:
                raise ValueError(f"vertex {v} outside universe {universe}")
            bits |= 1 << v
        return cls(universe, bits)

    @classmethod
    def empty(cls, universe: int) -> "VertexSet":
        return cls(universe, 0)

    @classmethod
    def full(cls, universe: int) -> "VertexSet":
        return cls(universe, (1 << universe) - 1)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and (self.bits >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.universe == other.universe and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.universe, self.bits))

    def _check_same_universe(self, other: "VertexSet") -> None:
        if self.universe != other.universe:
            raise ValueError(f"universe mismatch: {self.universe} vs {other.universe}")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.universe, self.bits | other.bits)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.universe, self.bits & other.bits)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.universe, self.bits & ~other.bits)

    def complement(self) -> "VertexSet":
        return VertexSet(self.universe, self.bits ^ ((1 << self.universe) - 1))

    def issubset(self, other: "VertexSet") -> bool:
        self._check_same_universe(other)
        return self.bits & ~other.bits == 0

    def vertices(self) -> tuple[int, ...]:
        """The members as a sorted tuple."""
        return tuple(iter_bits(self.bits))

    def __repr__(self) -> str:
        return f"VertexSet({self.universe}, {{{','.join(map(str, self))}}})"

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self)) + "}"


class Graph:
    """Simple undirected graph with per-vertex neighborhood bit masks.

    ``adjacency[v]`` is the open neighborhood N(v).  Construction validates
    symmetry and irreflexivity; instances are immutable afterwards.
    ``_context`` holds the graph's ``IntervalCache`` once it is first used.
    """

    __slots__ = ("order", "adjacency", "name", "_context")

    def __init__(self, order: int, adjacency: Iterable[VertexSet], name: str | None = None):
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
        adj = tuple(adjacency)
        if len(adj) != order:
            raise ValueError(f"expected {order} neighborhoods, got {len(adj)}")
        for v, ns in enumerate(adj):
            if ns.universe != order:
                raise ValueError(f"neighborhood of {v} has universe {ns.universe}, not {order}")
            if v in ns:
                raise ValueError(f"self-loop at vertex {v}")
        for v, ns in enumerate(adj):
            for u in ns:
                if v not in adj[u]:
                    raise ValueError(f"adjacency not symmetric: {v}->{u} but not {u}->{v}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def neighbors(self, v: int) -> VertexSet:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def adjacency_bits(self) -> tuple[int, ...]:
        """Raw neighborhood masks, for hot loops."""
        return tuple(ns.bits for ns in self.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self.order):
            higher = self.adjacency[u].bits >> (u + 1)
            for off in iter_bits(higher):
                out.append((u, u + 1 + off))
        return out

    def edge_count(self) -> int:
        return sum(len(ns) for ns in self.adjacency) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.order == other.order and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((self.order, self.adjacency))

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"Graph({label}, n={self.order}, m={self.edge_count()})"


def graph_from_edge_list(order: int, edges: Iterable[tuple[int, int]], name: str | None = None) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse, self-loops are errors."""
    masks = [0] * order
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not allowed in a simple graph")
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u},{v}) out of range for order {order}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(order, (VertexSet(order, m) for m in masks), name=name)


def _bfs_distances(adj: tuple[int, ...], order: int, source: int) -> tuple[int, ...]:
    row = [UNREACHABLE] * order
    row[source] = 0
    seen = 1 << source
    frontier = seen
    d = 0
    while frontier:
        grow = 0
        for v in iter_bits(frontier):
            grow |= adj[v]
        frontier = grow & ~seen
        seen |= frontier
        d += 1
        for v in iter_bits(frontier):
            row[v] = d
    return tuple(row)


def distance_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Breadth-first all-pairs hop distances: row u holds d(u,v), ``UNREACHABLE`` for a disconnected pair."""
    adj = g.adjacency_bits()
    return tuple(_bfs_distances(adj, g.order, s) for s in range(g.order))


def is_connected(g: Graph) -> bool:
    """True iff a single sweep from vertex 0 reaches every vertex."""
    return UNREACHABLE not in _bfs_distances(g.adjacency_bits(), g.order, 0)


def induced_subgraph(g: Graph, s: VertexSet) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by ``s`` plus the order-preserving old->new index map."""
    if s.universe != g.order:
        raise ValueError(f"set universe {s.universe} does not match order {g.order}")
    if not s:
        raise ValueError("cannot induce a subgraph on the empty set")
    old = s.vertices()
    remap = {v: i for i, v in enumerate(old)}
    k = len(old)
    masks = []
    for v in old:
        m = 0
        for u in iter_bits(g.adjacency[v].bits & s.bits):
            m |= 1 << remap[u]
        masks.append(VertexSet(k, m))
    sub = Graph(k, masks, name=None)
    return sub, remap


# ---------------------------------------------------------------------------
# Named families


def is_complete_graph(g: Graph) -> bool:
    full = (1 << g.order) - 1
    return all(bits == full ^ (1 << v) for v, bits in enumerate(g.adjacency_bits()))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return graph_from_edge_list(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return graph_from_edge_list(n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}")


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return graph_from_edge_list(n, edges, name=f"K{n}")


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """K_{m,n} with parts ``[0,m)`` and ``[m,m+n)``."""
    if m < 1 or n < 1:
        raise ValueError("complete bipartite parts must be nonempty")
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    return graph_from_edge_list(m + n, edges, name=f"K{m},{n}")


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center at vertex 0."""
    if leaves < 1:
        raise ValueError("star needs at least 1 leaf")
    return graph_from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)], name=f"K1,{leaves}")


_FAMILIES = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "complete": (complete_graph, 1),
    "complete_bipartite": (complete_bipartite_graph, 2),
    "star": (star_graph, 1),
}


def family(kind: str, *params: int) -> Graph:
    """Build a named family member, e.g. ``family("cycle", 5)``."""
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family {kind!r}; known: {', '.join(sorted(_FAMILIES))}")
    builder, arity = _FAMILIES[kind]
    if len(params) != arity:
        raise ValueError(f"family {kind!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


def expand_family_spec(spec: str) -> list[Graph]:
    """The graphs a spec names: ``name:params``, each parameter an integer or a range ``lo..hi``.

    ``path:2..4`` names P2, P3 and P4, ``complete_bipartite:2,2..3`` names
    K2,2 and K2,3, and ``cycle:5`` names C5 alone.  ``@path.g6`` and
    ``@path.edges`` load one graph from a file instead.
    """
    spec = spec.strip()
    kind, colon, params = spec.partition(":")
    try:
        if spec.startswith("@"):
            return [load_graph_file(spec[1:])]
        if not colon:
            raise ValueError("expected name:params")
        ranges = []
        for tok in params.split(","):
            lo, dots, hi = tok.partition("..")
            values = range(int(lo), int(hi if dots else lo) + 1)
            if not values:
                raise ValueError(f"empty range {tok.strip()!r}")
            ranges.append(values)
        return [family(kind.strip(), *combo) for combo in itertools.product(*ranges)]
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad family spec {spec!r}: {exc}") from None


def graph_from_spec(spec: str) -> Graph:
    """The one graph of a spec such as ``cycle:5``, ``complete_bipartite:2,3`` or ``@path.g6``.

    The grammar is ``expand_family_spec``'s; a spec naming several graphs, such
    as the range ``path:2..4``, raises ValueError.
    """
    graphs = expand_family_spec(spec)
    if len(graphs) != 1:
        raise ValueError(f"bad family spec {spec!r}: names {len(graphs)} graphs; expected one")
    return graphs[0]


# ---------------------------------------------------------------------------
# Edge-list file format: "n m" header, then one "u v" line per edge.


def parse_edge_list(text: str, name: str | None = None) -> Graph:
    """Parse the edge-list file format ('#' starts a comment)."""
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines:
        raise ValueError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header {lines[0]!r}: expected 'n m'")
    n, m = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges but {len(lines) - 1} follow")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return graph_from_edge_list(n, edges, name=name)


def format_edge_list(g: Graph) -> str:
    edges = g.edges()
    out = [f"{g.order} {len(edges)}"]
    out.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(out) + "\n"


def load_graph_file(path: str) -> Graph:
    """Load ``.g6`` (graph6) or ``.edges`` (edge-list) files by extension."""
    from . import graph6

    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if path.endswith(".g6"):
        lines = text.split()
        if len(lines) > 1:
            raise ValueError(f"{path} holds {len(lines)} graphs; expected one")
        return graph6.graph_from_graph6("".join(lines), name=path)
    return parse_edge_list(text, name=path)
