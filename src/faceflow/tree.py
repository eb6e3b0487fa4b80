"""Metric trees, path-gluing, and tree maps.

A ``MetricTree`` keeps every edge length as an int number of ticks 1/D
over one denominator D for the whole tree; rational lengths go in and
come out as exact ``Fraction``s.  The embedding grows each block's tree
one ear at a time, glues each flattened ear onto it in place and hands
the tree on as it is; distortion and thinning read the same ticks.  A
tree is treated as immutable once handed to consumers.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import LengthMismatch
from .graph import MetricGraph, frac


def _path(adj, u: int, v: int) -> list[int]:
    """The unique u-v path, as a vertex list, of the tree with adjacency
    ``adj``."""
    if u == v:
        return [u]
    prev = {u: None}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            break
        for y in adj[x]:
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


class MetricTree:
    """Tree with integer vertex ids and rational edge lengths.

    Every length is stored as a whole number of ticks 1/D, with one
    denominator D for the whole tree: ``adj[u][v]`` is an int, and the
    length it stands for is ``Fraction(adj[u][v], D)``.  Sums and
    comparisons along the tree are then int operations; ``edges`` and
    ``dist`` return the exact ``Fraction`` values."""

    def __init__(self, D: int = 1):
        self.adj: dict[int, dict[int, int]] = {}
        self.D = D

    # -- construction ---------------------------------------------------

    def add_vertex(self, v: int):
        if v not in self.adj:
            self.adj[v] = {}

    def add_edge(self, u: int, v: int, w) -> None:
        """Add an edge of rational length w, refining the grid if w's
        denominator does not divide D."""
        w = frac(w)
        if w < 0:
            raise ValueError("negative tree edge length")
        self.refine(w.denominator)
        self.add_ticks(u, v, w.numerator * (self.D // w.denominator))

    def add_ticks(self, u: int, v: int, t: int) -> None:
        """Add an edge of t ticks."""
        if u == v:
            raise ValueError("loop in tree")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self.adj[u]:
            raise ValueError(f"edge ({u},{v}) already present")
        self.adj[u][v] = t
        self.adj[v][u] = t

    def refine(self, m: int) -> int:
        """Move to the grid 1/lcm(D, m), scaling every length in place;
        return the factor by which tick counts grew."""
        k = math.lcm(self.D, m) // self.D
        if k != 1:
            for nbrs in self.adj.values():
                for y in nbrs:
                    nbrs[y] *= k
            self.D *= k
        return k

    def graft(self, other: "MetricTree", ids: dict[int, int]) -> None:
        """Add a copy of ``other`` with vertex v renamed ``ids[v]``, in the
        order ``add_vertex``/``add_edge`` over ``other.edges()`` would give,
        on the grid 1/lcm(D, other.D).  Its edges must be new here; their
        lengths were checked when ``other`` was built."""
        self.refine(other.D)
        k = self.D // other.D
        adj = self.adj
        for v in other.adj:
            adj.setdefault(ids[v], {})
        for v, nbrs in other.adj.items():
            for y, w in nbrs.items():
                if v < y:
                    w *= k
                    adj[ids[v]][ids[y]] = w
                    adj[ids[y]][ids[v]] = w

    # -- queries --------------------------------------------------------

    def vertices(self) -> list[int]:
        return list(self.adj)

    def edges(self) -> list[tuple[int, int, Fraction]]:
        D = self.D
        out = []
        for u, nbrs in self.adj.items():
            for v, w in nbrs.items():
                if u < v:
                    out.append((u, v, Fraction(w, D)))
        return out

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
        return _path(self.adj, u, v)

    def path_ticks(self, u: int, v: int) -> tuple[list[int], list[int]]:
        """The u-v path and, for each of its vertices, the tick distance
        from u."""
        p = _path(self.adj, u, v)
        adj = self.adj
        pos = [0]
        for i in range(1, len(p)):
            pos.append(pos[-1] + adj[p[i - 1]][p[i]])
        return p, pos

    def dist(self, u: int, v: int) -> Fraction:
        return Fraction(self.path_ticks(u, v)[1][-1], self.D)

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

    def tick_dists(self, sources) -> dict[int, dict[int, int]]:
        """Exact distances from each source in ticks: d(s, v) is
        ``dist[s][v] / D``."""
        adj = self.adj
        out: dict[int, dict[int, int]] = {}
        for s in sources:
            dist = {s: 0}
            stack = [s]
            while stack:
                x = stack.pop()
                dx = dist[x]
                for y, w in adj[x].items():
                    if y not in dist:
                        dist[y] = dx + w
                        stack.append(y)
            out[s] = dist
        return out

    @staticmethod
    def from_path(vertex_ids, lengths) -> "MetricTree":
        """The path through ``vertex_ids`` with the given lengths, on the
        least common denominator of the lengths."""
        t = MetricTree()
        vs = list(vertex_ids)
        for v in vs:
            t.add_vertex(v)
        for i, w in enumerate(lengths):
            t.add_edge(vs[i], vs[i + 1], w)
        return t


def glue(
    tree: MetricTree, u: int, v: int, flat: list[int], iu: int, iv: int
) -> list[int]:
    """Glue a metric path onto ``tree`` in place; return the tree id of
    each path vertex.

    Path vertex j sits at ``flat[j]`` ticks of the tree's grid, with
    ``flat`` sorted.  The stretch from vertex iu to vertex iv is
    identified point by point with the u-v path of the tree, so the two
    must have the same length.  A vertex of the stretch at a position the
    tree path already has maps to the first tree vertex there (zero-length
    segments merge); one at a new position subdivides the tree edge around
    it.  The path vertices off the stretch become new vertices, joined by
    the path's own edges.  New ids count up from max(largest tree id + 1,
    len(flat)): first the subdivisions, in the order the stretch meets
    them from iu, then the vertices off the stretch in path order.
    """
    adj = tree.adj
    work, positions = tree.path_ticks(u, v)
    base = flat[iu]
    if abs(flat[iv] - base) != positions[-1]:
        raise LengthMismatch(
            f"glue paths differ in length: {Fraction(positions[-1], tree.D)}"
            f" vs {Fraction(abs(flat[iv] - base), tree.D)}"
        )
    next_id = max(max(adj) + 1, len(flat))
    ids: list = [None] * len(flat)
    step = 1 if iu <= iv else -1
    for j in range(iu, iv + step, step):
        p = abs(flat[j] - base)
        i = bisect_left(positions, p)
        if positions[i] == p:
            ids[j] = work[i]
            continue
        # Subdivide the tree edge (a, b) around position p.
        a, b = work[i - 1], work[i]
        w = adj[a].pop(b)
        del adj[b][a]
        off = p - positions[i - 1]
        adj[a][next_id] = off
        adj[next_id] = {a: off, b: w - off}
        adj[b][next_id] = w - off
        work.insert(i, next_id)
        positions.insert(i, p)
        ids[j] = next_id
        next_id += 1

    for j in range(len(flat)):
        if ids[j] is None:
            ids[j] = next_id
            adj[next_id] = {}
            next_id += 1

    lo, hi = sorted((iu, iv))
    for j in range(len(flat) - 1):
        if lo <= j and j + 1 <= hi:
            continue  # identified with a segment of the tree path
        tree.add_ticks(ids[j], ids[j + 1], flat[j + 1] - flat[j])
    return ids


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
