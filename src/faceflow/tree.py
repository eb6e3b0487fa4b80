"""Metric trees, path-gluing, and tree maps.

Trees are mutable while being built (the embedding grows one ear at a
time) and treated as immutable once handed to consumers.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import LengthMismatch
from .graph import MetricGraph, frac


class MetricTree:
    """Tree with rational edge lengths and integer vertex ids."""

    def __init__(self):
        self.adj: dict[int, dict[int, Fraction]] = {}

    # -- construction ---------------------------------------------------

    def add_vertex(self, v: int):
        if v not in self.adj:
            self.adj[v] = {}

    def add_edge(self, u: int, v: int, w) -> None:
        w = frac(w)
        if w < 0:
            raise ValueError("negative tree edge length")
        if u == v:
            raise ValueError("loop in tree")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self.adj[u]:
            raise ValueError(f"edge ({u},{v}) already present")
        self.adj[u][v] = w
        self.adj[v][u] = w

    def remove_edge(self, u: int, v: int) -> None:
        del self.adj[u][v]
        del self.adj[v][u]

    def subdivide(self, u: int, v: int, w_id: int, dist_from_u: Fraction):
        """Insert a new vertex on edge (u,v) at the given offset from u."""
        w = self.adj[u][v]
        d = frac(dist_from_u)
        if not (0 <= d <= w):
            raise ValueError("subdivision point off the edge")
        self.remove_edge(u, v)
        self.add_edge(u, w_id, d)
        self.add_edge(w_id, v, w - d)

    def graft(self, other: "MetricTree", ids: dict[int, int]) -> None:
        """Add a copy of ``other`` with vertex v renamed ``ids[v]``, in the
        order ``add_vertex``/``add_edge`` over ``other.edges()`` would give.
        Its edges must be new here; their lengths were checked when
        ``other`` was built."""
        adj = self.adj
        for v in other.adj:
            adj.setdefault(ids[v], {})
        for v, nbrs in other.adj.items():
            for y, w in nbrs.items():
                if v < y:
                    adj[ids[v]][ids[y]] = w
                    adj[ids[y]][ids[v]] = w

    def copy(self) -> "MetricTree":
        t = MetricTree()
        t.adj = {v: dict(nbrs) for v, nbrs in self.adj.items()}
        return t

    def fresh_id(self) -> int:
        return max(self.adj, default=-1) + 1

    # -- queries --------------------------------------------------------

    def vertices(self) -> list[int]:
        return list(self.adj)

    def edges(self) -> list[tuple[int, int, Fraction]]:
        out = []
        for u, nbrs in self.adj.items():
            for v, w in nbrs.items():
                if u < v:
                    out.append((u, v, w))
        return out

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def is_tree(self) -> bool:
        n = len(self.adj)
        if n == 0:
            return True
        m = sum(len(nbrs) for nbrs in self.adj.values()) // 2
        if m != n - 1:
            return False
        seen = {next(iter(self.adj))}
        stack = list(seen)
        while stack:
            v = stack.pop()
            for u in self.adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == n

    def path(self, u: int, v: int) -> list[int]:
        """The unique u-v path as a vertex list."""
        if u == v:
            return [u]
        prev = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                break
            for y in self.adj[x]:
                if y not in prev:
                    prev[y] = x
                    stack.append(y)
        if v not in prev:
            raise ValueError(f"{u} and {v} are in different components")
        out = [v]
        while out[-1] != u:
            out.append(prev[out[-1]])
        out.reverse()
        return out

    def path_positions(self, u: int, v: int) -> list[tuple[int, Fraction]]:
        """Vertices of the u-v path with cumulative distance from u."""
        p = self.path(u, v)
        pos = Fraction(0)
        out = [(p[0], pos)]
        for i in range(1, len(p)):
            pos += self.adj[p[i - 1]][p[i]]
            out.append((p[i], pos))
        return out

    def dist(self, u: int, v: int) -> Fraction:
        return self.path_positions(u, v)[-1][1]

    def path_union(
        self, center: int, targets
    ) -> tuple[dict[int, int], set[tuple[int, int]]]:
        """Vertex degrees and edge set of the union of the paths from
        ``center`` to each target; a vertex off the union has no entry."""
        deg: dict[int, int] = {}
        edges: set[tuple[int, int]] = set()
        for a in targets:
            p = self.path(center, a)
            for i in range(len(p) - 1):
                e = (min(p[i], p[i + 1]), max(p[i], p[i + 1]))
                if e not in edges:
                    edges.add(e)
                    deg[p[i]] = deg.get(p[i], 0) + 1
                    deg[p[i + 1]] = deg.get(p[i + 1], 0) + 1
        return deg, edges

    def dist_from(self, u: int) -> dict[int, Fraction]:
        """Distances from u to every vertex in its component."""
        D, dist = self.tick_dists([u])
        return {v: Fraction(t, D) for v, t in dist[u].items()}

    def tick_dists(self, sources) -> tuple[int, dict[int, dict[int, int]]]:
        """Exact distances from each source in integer ticks: ``(D, dist)``
        with d(s, v) = dist[s][v] / D, D the lcm of the edge-length
        denominators."""
        edges = [
            (x, y, w.as_integer_ratio())
            for x, nbrs in self.adj.items() for y, w in nbrs.items() if x < y
        ]
        # A list, not a generator, to unpack: see ``treeembed._lcd``.
        D = math.lcm(*[m for _, _, (_, m) in edges])
        adj: dict[int, list[tuple[int, int]]] = {x: [] for x in self.adj}
        for x, y, (n, m) in edges:
            t = n * (D // m)
            adj[x].append((y, t))
            adj[y].append((x, t))
        out: dict[int, dict[int, int]] = {}
        for s in sources:
            dist = {s: 0}
            stack = [s]
            while stack:
                x = stack.pop()
                dx = dist[x]
                for y, w in adj[x]:
                    if y not in dist:
                        dist[y] = dx + w
                        stack.append(y)
            out[s] = dist
        return D, out

    @staticmethod
    def from_path(vertex_ids, lengths) -> "MetricTree":
        t = MetricTree()
        vs = list(vertex_ids)
        for v in vs:
            t.add_vertex(v)
        for i, w in enumerate(lengths):
            t.add_edge(vs[i], vs[i + 1], w)
        return t


def glue(
    t1: MetricTree,
    t2: MetricTree,
    u1: int,
    v1: int,
    u2: int,
    v2: int,
) -> tuple[MetricTree, dict[int, int]]:
    """Identify the u1-v1 path of t1 with the u2-v2 path of t2 point by
    point and return the merged tree plus the map t2-vertex -> new id.

    t1's vertex ids are preserved.  Positions that exist in only one of
    the two paths become subdivision vertices.  Zero-length segments are
    merged onto the first vertex at that position.
    """
    path_a = t1.path_positions(u1, v1)
    path_b = t2.path_positions(u2, v2)
    if path_a[-1][1] != path_b[-1][1]:
        raise LengthMismatch(
            f"glue paths differ in length: {path_a[-1][1]} vs {path_b[-1][1]}"
        )
    out = t1.copy()
    next_id = max(out.fresh_id(), t2.fresh_id())

    # Working copy of the glue path inside `out`, kept sorted by position.
    work = list(path_a)
    positions = [p for (_, p) in work]
    on_path_b = {v for (v, _) in path_b}

    mapping: dict[int, int] = {}
    for (bv, p) in path_b:
        i = bisect_left(positions, p)
        if i < len(positions) and positions[i] == p:
            mapping[bv] = work[i][0]
            continue
        # Subdivide the segment containing position p.
        a_prev, a_next = work[i - 1][0], work[i][0]
        w_id = next_id
        next_id += 1
        out.subdivide(a_prev, a_next, w_id, p - work[i - 1][1])
        work.insert(i, (w_id, p))
        positions.insert(i, p)
        mapping[bv] = w_id

    for bv in t2.adj:
        if bv not in mapping:
            mapping[bv] = next_id
            out.add_vertex(next_id)
            next_id += 1

    for (x, y, w) in t2.edges():
        if x in on_path_b and y in on_path_b:
            continue  # identified with a segment of the glue path
        out.add_edge(mapping[x], mapping[y], w)

    return out, mapping


@dataclass
class TreeMap:
    """A map from graph vertices into a metric tree, with a root used by
    downstream thinning.

    ``source`` is the graph whose edges the Lipschitz, star-shape and
    thinness checks read; for ``embed_sampler`` maps, the slack graph."""

    tree: MetricTree
    mapping: dict[int, int]
    source: MetricGraph
    root: int = 0

    def image(self, v: int) -> int:
        return self.mapping[v]

    def with_source(self, g: MetricGraph) -> "TreeMap":
        """The same map with its checks read over the edges of ``g``, e.g.
        a map built on a slack graph, checked on the full input graph."""
        return replace(self, source=g)

    def is_lipschitz(self) -> bool:
        """d_T(F(u),F(v)) <= len(u,v) for every graph edge."""
        for (u, v, w) in self.source.edges:
            if self.tree.dist(self.mapping[u], self.mapping[v]) > w:
                return False
        return True

    def fibers(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for g_v, t_v in self.mapping.items():
            out.setdefault(t_v, []).append(g_v)
        return out
