"""Geodesic intervals, convex sets, and weakly convex sets.

Two routes decide weak convexity.  The fast path compares induced-subgraph
distances against global distances level by level.  The reference oracle
enumerates geodesics explicitly by walking the shortest-path DAG between each
pair; it is exponential and meant for small orders.  The fast path's
characterization is validated against the oracle in the test suite, not
assumed.

Pairs are quantified over the *members* of the candidate set: a set is weakly
convex when every two of its members are joined by some geodesic lying wholly
inside it.  The empty set and singletons are vacuously weakly convex.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import UNREACHABLE, Graph, VertexSet, distance_matrix, iter_bits


class IntervalCache:
    """The one per-graph context: distances, closed neighbourhoods, level, ball and shadow masks, intervals.

    Each Graph owns one context, built on first use by ``IntervalCache.of``;
    the solvers, the predicates, the recipes and the checks all read a graph
    through it.  A Graph never changes, so its context never goes stale.
    The closed neighbourhoods and the two domination bounds read off them
    are built with the context.  Level, ball and shadow masks and the
    interval table are built whole on first use; the outer-convex scan and
    ``is_convex`` index the table's rows.  Results of whole solves are not
    cached.
    """

    def __init__(self, g: Graph):
        self.order = n = g.order
        self.dist = distance_matrix(g)
        self.adj_bits = g.adjacency_bits()
        # closed[v] is N[v]; reach[v] every vertex dominated by some w >= v;
        # most[v] the largest |N[w]| over w >= v
        closed = self.closed = [a | 1 << v for v, a in enumerate(self.adj_bits)]
        reach = self.reach = [0] * (n + 1)
        most = self.most = [0] * (n + 1)
        for v in range(n - 1, -1, -1):
            reach[v] = reach[v + 1] | closed[v]
            most[v] = max(most[v + 1], closed[v].bit_count())
        self._levels: list[list[int]] | None = None
        self._balls: list[list[int]] | None = None
        self._shadows: list[list[int]] | None = None
        self._interval_rows: list[list[int]] | None = None
        self._images: list[tuple[int, ...]] | None = None

    @classmethod
    def of(cls, g: Graph) -> "IntervalCache":
        """The context of g, built on its first use and kept on g."""
        try:
            return g._context
        except AttributeError:
            context = cls(g)
            object.__setattr__(g, "_context", context)
            return context

    @property
    def level_masks(self) -> list[list[int]]:
        """``level_masks[u][d]`` is the mask of vertices at distance exactly d from u."""
        if self._levels is None:
            levels = []
            for u in range(self.order):
                row = self.dist[u]
                lvl = [0] * (max(row) + 1)
                for v, d in enumerate(row):
                    if d != UNREACHABLE:
                        lvl[d] |= 1 << v
                levels.append(lvl)
            self._levels = levels
        return self._levels

    @property
    def ball_masks(self) -> list[list[int]]:
        """``ball_masks[u][d]`` is the mask of vertices within distance d of u."""
        if self._balls is None:
            balls = []
            for lvl in self.level_masks:
                acc = 0
                cum = []
                for mask in lvl:
                    acc |= mask
                    cum.append(acc)
                balls.append(cum)
            self._balls = balls
        return self._balls

    @property
    def shadow_masks(self) -> list[list[int]]:
        """``shadow_masks[v][u]`` is the mask of vertices w with v in I[u,w]: d(u,v) + d(v,w) = d(u,w)."""
        if self._shadows is None:
            levels = self.level_masks
            rows = self.dist
            shadows = []
            for v, lvl_v in enumerate(levels):
                row = []
                for u, lvl_u in enumerate(levels):
                    duv = rows[u][v]
                    bits = 0
                    if duv != UNREACHABLE:
                        for d in range(min(len(lvl_v), len(lvl_u) - duv)):
                            bits |= lvl_v[d] & lvl_u[duv + d]
                    row.append(bits)
                shadows.append(row)
            self._shadows = shadows
        return self._shadows

    @property
    def interval_rows(self) -> list[list[int]]:
        """``interval_rows[u][v]`` is the mask of I[u,v]: the w with d(u,w) + d(w,v) = d(u,v).

        Built once as the OR over d of ``level_masks[u][d] & level_masks[v][d(u,v) - d]``;
        the entry of a disconnected pair is 0.
        """
        if self._interval_rows is None:
            levels = self.level_masks
            dist = self.dist
            table = [[0] * self.order for _ in range(self.order)]
            for u, lvl_u in enumerate(levels):
                row = table[u]
                row[u] = 1 << u
                for v in range(u):
                    duv = dist[u][v]
                    if duv != UNREACHABLE:
                        lvl_v = levels[v]
                        bits = 0
                        for d in range(duv + 1):
                            bits |= lvl_u[d] & lvl_v[duv - d]
                        row[v] = table[v][u] = bits
            self._interval_rows = table
        return self._interval_rows

    @property
    def _automorphisms(self) -> list[tuple[int, ...]]:
        """A few automorphisms σ₁, σ₂, ... of a connected graph: ``[v][i]`` is the bit of σᵢ(v).

        Empty when none was found.  Built on first use by ``_find_automorphisms``.
        """
        if self._images is None:
            self._images = _find_automorphisms(self)
        return self._images

    def _distance(self, u: int, v: int) -> int:
        """d(u,v); a disconnected pair raises ValueError."""
        if (d := self.dist[u][v]) == UNREACHABLE:
            raise ValueError(f"vertices {u} and {v} are disconnected; no geodesic exists")
        return d

    def interval_bits(self, u: int, v: int) -> int:
        """Mask of I[u,v]; a disconnected pair raises ValueError."""
        self._distance(u, v)
        return self.interval_rows[u][v]


def _find_automorphisms(cache: IntervalCache) -> list[tuple[int, ...]]:
    """Non-identity automorphisms of a connected graph along a stabilizer chain, as per-vertex image bits.

    A bijection that preserves distances preserves adjacency, so it is an
    automorphism.  A map may send x only to a vertex with the same distance
    profile (the count of vertices at each distance), and, once z is mapped,
    only to a vertex at distance d(x,z) from σ(z): the candidates of x are an
    AND of ``level_masks`` rows.  For each j in turn, with 0..j-1 fixed, the
    walk lists one map sending j to each other point of its orbit, then fixes
    j too.  The maps found so far, composed, reach part of the orbit; for each
    candidate y they do not reach, a backtracking search maps the other
    vertices nearest to j first.  The walk stops once every candidate set is a
    single vertex, and returns nothing at once when every profile class is.
    It gives up after 4n² tentative assignments in all, which bounds its cost
    at O(n³) bit operations; any subset of Aut(G) serves the symmetry rule.
    """
    n = cache.order
    rows = cache.dist
    if UNREACHABLE in rows[0]:
        return []
    levels = cache.level_masks
    profiles = [tuple(mask.bit_count() for mask in lvl) for lvl in levels]
    classes: dict[tuple[int, ...], int] = {}
    for v, p in enumerate(profiles):
        classes[p] = classes.get(p, 0) | 1 << v
    cand = [classes[p] for p in profiles]

    def assign(cand: list[int], x: int, w: int) -> list[int]:
        # d(x,u) <= ecc(x) = ecc(w), since x and w share a profile
        lvl_w = levels[w]
        keep = ~(1 << w)
        out = [c & lvl_w[d] & keep for c, d in zip(cand, rows[x])]
        out[x] = 1 << w
        return out

    # the whole walk makes at most 4n² assignments
    tries = 4 * n * n

    def complete(cand: list[int], order: list[int]) -> list[int] | None:
        """A map extending ``cand`` to the vertices of ``order``, taken in turn, or None once ``tries`` runs out."""
        nonlocal tries
        stack = []
        depth = 0
        while True:
            if depth == len(order):
                return [c.bit_length() - 1 for c in cand]
            stack.append((cand, depth, cand[order[depth]]))
            # the next untried image of the deepest vertex that has one left
            while True:
                if not stack or tries <= 0:
                    return None
                cand, depth, choices = stack.pop()
                if choices:
                    low = choices & -choices
                    stack.append((cand, depth, choices ^ low))
                    tries -= 1
                    cand = assign(cand, order[depth], low.bit_length() - 1)
                    depth += 1
                    if 0 not in cand:
                        break

    maps = []
    for j in range(n):
        if tries <= 0 or all(c & (c - 1) == 0 for c in cand):
            break
        # nearest first: a vertex close to the mapped ones has few candidates
        order = sorted(range(j + 1, n), key=rows[j].__getitem__)
        # the orbit of j under the maps found that fix 0..j-1, each point with a
        # map sending j there; a point the found maps already reach is not searched
        orbit = {j: list(range(n))}
        gens = []
        for y in iter_bits(cand[j] & ~(1 << j)):
            if y in orbit or not (sigma := complete(assign(cand, j, y), order)):
                continue
            gens.append(sigma)
            frontier = list(orbit.values())
            while frontier:
                grown = []
                for t in frontier:
                    for g in gens:
                        if g[t[j]] not in orbit:
                            orbit[g[t[j]]] = composed = [g[v] for v in t]
                            grown.append(composed)
                frontier = grown
        maps += [t for x, t in orbit.items() if x != j]
        cand = assign(cand, j, j)
    return [tuple(1 << sigma[v] for sigma in maps) for v in range(n)] if maps else []


def convex_bits(rows: list[list[int]], cbits: int) -> bool:
    """True iff every interval between two members of ``cbits`` stays inside it.

    Raw masks over the rows of ``IntervalCache.interval_rows``.  The members
    are taken as sources from the highest down, and the targets of a source
    u are the members below it.  Once I[u,v] lies inside the set, so does
    I[u,w] for every w in I[u,v], so those targets are dropped untested.  A
    disconnected pair has an empty interval and passes: callers that may see
    one (``is_convex``) check connectivity first.
    """
    out = ~cbits
    rest = cbits
    while rest & (rest - 1):
        u = rest.bit_length() - 1
        rest ^= 1 << u
        row = rows[u]
        targets = rest
        while targets:
            low = targets & -targets
            span = row[low.bit_length() - 1]
            if span & out:
                return False
            targets &= ~(span | low)
    return True


def interval(cache: IntervalCache, u: int, v: int) -> VertexSet:
    """I[u,v]: all vertices on some u-v geodesic."""
    return VertexSet(cache.order, cache.interval_bits(u, v))


def interval_closure(cache: IntervalCache, d: VertexSet) -> VertexSet:
    """I[D]: union of I[x,y] over all pairs x, y in d."""
    members = d.vertices()
    bits = d.bits
    for i, u in enumerate(members):
        for v in members[i:]:
            bits |= cache.interval_bits(u, v)
    return VertexSet(cache.order, bits)


def is_convex(cache: IntervalCache, d: VertexSet) -> bool:
    """True iff d is closed under geodesics: I[D] = D."""
    members = d.vertices()
    for v in members:
        cache._distance(members[0], v)
    return convex_bits(cache.interval_rows, d.bits)


def weakly_convex_bits(
    adj: tuple[int, ...], balls: list[list[int]], avail: int, fixed: int, known: int = 0, shadow: list[int] | None = None
) -> bool:
    """True iff every two members of ``fixed`` are joined by a geodesic lying inside ``avail``.

    Raw masks; ``fixed`` must lie inside ``avail``.  Each pair is tested once:
    the members are taken as sources from the highest down, and the targets
    of a source u are the members below it.  A BFS from u inside ``avail``
    keeps, at level d, only the vertices at graph distance d from u, which
    are those it reaches along a geodesic; each target must be among them at
    its own distance, and the BFS stops once it has reached every target.
    With ``avail == fixed`` this is the weak-convexity test of the set.

    ``known`` and ``shadow`` let a caller skip pairs it has already cleared.
    ``known`` is a set of members each pair of which has a geodesic inside
    ``avail`` plus at most one vertex x outside it.  For a source u in
    ``known``, ``shadow[u]`` holds every w whose pair with u may have lost
    that geodesic: ``shadow_masks[x][u]``, the vertices w with x in I[u,w],
    since a pair keeps every geodesic that misses x; or 0 when the pairs of
    ``known`` have a geodesic inside ``avail`` itself.  Targets in ``known``
    outside ``shadow[u]`` are dropped.
    """
    rest = fixed
    while rest & (rest - 1):
        u = rest.bit_length() - 1
        rest ^= 1 << u
        targets = rest & (shadow[u] | ~known) if known >> u & 1 else rest
        if not targets:
            continue
        ball_u = balls[u]
        frontier = 1 << u
        level = 0
        while targets:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & avail & ~ball_u[level]
            level += 1
            if not frontier or ball_u[level] & targets & ~frontier:
                return False
            targets &= ~frontier
    return True


def is_weakly_convex(cache: IntervalCache, d: VertexSet) -> bool:
    """Fast path: every pair of members keeps its graph distance inside the set."""
    return weakly_convex_bits(cache.adj_bits, cache.ball_masks, d.bits, d.bits)


def geodesics(cache: IntervalCache, u: int, v: int) -> Iterator[tuple[int, ...]]:
    """Enumerate every u-v geodesic by walking the shortest-path DAG of I[u,v]."""
    duv = cache._distance(u, v)
    adj = cache.adj_bits
    lvl_u = cache.level_masks[u]
    lvl_v = cache.level_masks[v]
    path = [u]

    def walk(w: int, dw: int) -> Iterator[tuple[int, ...]]:
        if w == v:
            yield tuple(path)
            return
        succ = adj[w] & lvl_u[dw + 1] & lvl_v[duv - dw - 1]
        for x in iter_bits(succ):
            path.append(x)
            yield from walk(x, dw + 1)
            path.pop()

    yield from walk(u, 0)


def is_weakly_convex_oracle(cache: IntervalCache, d: VertexSet) -> bool:
    """Reference route: some explicitly enumerated geodesic lies inside d, per pair."""
    members = d.vertices()
    if len(members) <= 1:
        return True
    rows = cache.dist
    dbits = d.bits
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if rows[u][v] == UNREACHABLE:
                return False
            if not any(
                all((dbits >> w) & 1 for w in path) for path in geodesics(cache, u, v)
            ):
                return False
    return True
