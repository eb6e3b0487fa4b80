"""Metric trees, path-gluing, and tree maps.

A ``MetricTree`` keeps every edge length as an int number of ticks 1/D
over one denominator D for the whole tree; rational lengths go in and
come out as exact ``Fraction``s.  The embedding grows each block's tree
one ear at a time, glues each flattened ear onto it in place and hands
the tree on as it is; distortion reads the same ticks, and thinning,
whose folds keep every tick depth, builds its tree once from depths.  A
tree's path and distance queries read a rooted index (parents, depths,
preorder intervals), built on the first query after the tree last
changed; ``tick_matrix`` reads the distances among a whole vertex list
off the same index at once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import LengthMismatch
from .graph import MetricGraph, frac


def _rooted_index(adj) -> tuple:
    """(at, order, par, dep, tdep, last) of a depth-first preorder of the
    forest ``adj``, each tree rooted at its first vertex in ``adj``:
    vertex v has preorder number ``at[v]``, and for i = at[v],
    ``order[i]`` is v, ``par[i]`` its parent's number (-1 at a root),
    ``dep[i]`` and ``tdep[i]`` its depth in edges and in ticks, and
    ``last[i]`` the largest number in its subtree, whose numbers are
    i..last[i]."""
    at: dict[int, int] = {}
    order: list[int] = []
    par: list[int] = []
    dep: list[int] = []
    tdep: list[int] = []
    for r in adj:
        if r in at:
            continue
        stack = [(r, -1, 0, 0)]
        while stack:
            v, p, d, t = stack.pop()
            i = len(order)
            at[v] = i
            order.append(v)
            par.append(p)
            dep.append(d)
            tdep.append(t)
            for y, w in adj[v].items():
                if y not in at:
                    stack.append((y, i, d + 1, t + w))
    last = list(range(len(order)))
    for i in range(len(order) - 1, 0, -1):
        p = par[i]
        if p >= 0 and last[i] > last[p]:
            last[p] = last[i]
    return at, order, par, dep, tdep, last


def _number(at: dict[int, int], x: int) -> int:
    """The preorder number of x; ValueError if x is not in the tree."""
    try:
        return at[x]
    except KeyError:
        raise ValueError(f"{x} is not a vertex of the tree") from None


def union_below(up, root: int, targets) -> dict[int, int]:
    """Each vertex of the union of the paths from ``root`` to the targets,
    in the order met (``root`` first), to its number of children on the
    union: each target climbs through ``up`` until it meets the union."""
    below = {root: 0}
    for t in targets:
        path = []
        while t not in below:
            path.append(t)
            t = up(t)
        for v in reversed(path):
            below[t] += 1  # v hangs from t
            below[v], t = 0, v
    return below


class MetricTree:
    """Tree with integer vertex ids and rational edge lengths.

    Every length is stored as a whole number of ticks 1/D, with one
    denominator D for the whole tree: ``adj[u][v]`` is an int, and the
    length it stands for is ``Fraction(adj[u][v], D)``.  Sums and
    comparisons along the tree are then int operations; ``edges`` and
    ``dist`` return the exact ``Fraction`` values.

    The path queries (``path``, ``path_ticks``, ``tick_dist``, ``dist``,
    ``arm_union``, ``edge_cuts``) read a rooted index, built on the first
    of them (``_rooted_index``): a u-v path climbs from u and v to their
    lowest common ancestor, d(u, v) is tdep(u) + tdep(v) - 2 tdep(lca)
    ticks, a centre's arms climb until they meet, and ``tick_matrix``
    reads every distance among k vertices off k - 1 climbs.  ``refine``
    keeps the index with its tick depths scaled, as a new tuple; every
    other mutator (``add_vertex``, ``add_ticks``, ``graft``, ``glue``)
    drops it.  Code that edits ``adj`` directly must set ``_index`` to
    None."""

    def __init__(self, D: int = 1):
        self.adj: dict[int, dict[int, int]] = {}
        self.D = D
        self._index = None

    # -- construction ---------------------------------------------------

    def add_vertex(self, v: int):
        if v not in self.adj:
            self.adj[v] = {}
            self._index = None

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
        self._index = None

    def refine(self, m: int) -> int:
        """Move to the grid 1/lcm(D, m), scaling every length in place;
        return the factor by which tick counts grew.  Only the tick depths
        of the index change; they are scaled into a new list, since copies
        share the index."""
        k = math.lcm(self.D, m) // self.D
        if k != 1:
            for nbrs in self.adj.values():
                for y in nbrs:
                    nbrs[y] *= k
            self.D *= k
            if self._index is not None:
                at, order, par, dep, tdep, last = self._index
                self._index = (at, order, par, dep, [t * k for t in tdep], last)
        return k

    def graft(self, other: "MetricTree", ids: dict[int, int]) -> None:
        """Add a copy of ``other`` with vertex v renamed ``ids[v]``, in the
        order ``add_vertex``/``add_edge`` over ``other.edges()`` would give,
        on the grid 1/lcm(D, other.D).  Its edges must be new here; their
        lengths were checked when ``other`` was built."""
        self.refine(other.D)
        k = self.D // other.D
        adj = self.adj
        self._index = None
        for v in other.adj:
            adj.setdefault(ids[v], {})
        for v, nbrs in other.adj.items():
            for y, w in nbrs.items():
                if v < y:
                    w *= k
                    adj[ids[v]][ids[y]] = w
                    adj[ids[y]][ids[v]] = w

    def copy(self) -> "MetricTree":
        """An independent copy, adjacency order included.  The rooted
        index is never edited in place, so the copy shares it until
        either tree changes."""
        t = MetricTree(self.D)
        t.adj = {v: dict(nbrs) for v, nbrs in self.adj.items()}
        t._index = self._index
        return t

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

    def _rooted(self) -> tuple:
        if self._index is None:
            self._index = _rooted_index(self.adj)
        return self._index

    def _meet(self, u: int, v: int) -> tuple[int, int, int]:
        """Preorder numbers of u, v and their lowest common ancestor."""
        at, _, par, dep, _, _ = self._rooted()
        i = a = _number(at, u)
        j = b = _number(at, v)
        while dep[a] > dep[b]:
            a = par[a]
        while dep[b] > dep[a]:
            b = par[b]
        while a != b:
            a, b = par[a], par[b]
        if a < 0:
            raise ValueError(f"{u} and {v} are in different components")
        return i, j, a

    def _climb(self, u: int, v: int) -> tuple[list[int], int]:
        """Preorder numbers of the u-v path, and the place of the lowest
        common ancestor in that list."""
        i, j, a = self._meet(u, v)
        par = self._index[2]
        up: list[int] = []
        while i != a:
            up.append(i)
            i = par[i]
        up.append(a)
        down: list[int] = []
        while j != a:
            down.append(j)
            j = par[j]
        down.reverse()
        return up + down, len(up) - 1

    def path(self, u: int, v: int) -> list[int]:
        """The unique u-v path as a vertex list."""
        order = self._rooted()[1]
        return [order[i] for i in self._climb(u, v)[0]]

    def path_ticks(self, u: int, v: int) -> tuple[list[int], list[int]]:
        """The u-v path and, for each of its vertices, the tick distance
        from u."""
        ks, m = self._climb(u, v)
        _, order, _, _, tdep, _ = self._rooted()
        tu = tdep[ks[0]]
        tv = tu - 2 * tdep[ks[m]]
        pos = [tu - tdep[i] for i in ks[: m + 1]]
        pos.extend([tv + tdep[i] for i in ks[m + 1:]])
        return [order[i] for i in ks], pos

    def tick_dist(self, u: int, v: int) -> int:
        """d(u, v) in ticks: ``dist(u, v)`` is ``Fraction(tick_dist(u, v), D)``."""
        i, j, a = self._meet(u, v)
        tdep = self._index[4]
        return tdep[i] + tdep[j] - 2 * tdep[a]

    def dist(self, u: int, v: int) -> Fraction:
        return Fraction(self.tick_dist(u, v), self.D)

    def tick_matrix(self, xs) -> list[list]:
        """``tick_dist(x, y)`` for all x, y of ``xs``, as rows and columns in
        ``xs`` order; None where x and y lie in different components.

        Sorted by preorder number, each consecutive pair a <= b climbs
        once, from a until the subtree reaches b, to its lca.  The lca of
        any two is the shallowest of the consecutive lcas between them,
        and tick depths never fall going down, so tdep(lca) is a running
        minimum.  In a forest, a climb past a root reaches -1, where
        ``last[-1]``, the largest number, stops it; the pairs across it
        stay None."""
        at, _, par, _, tdep, last = self._rooted()
        nums = [_number(at, x) for x in xs]
        order = sorted(range(len(nums)), key=nums.__getitem__)
        s = [nums[i] for i in order]
        meet = []
        for a, b in zip(s, s[1:]):
            while last[a] < b:
                a = par[a]
            meet.append(tdep[a] if a >= 0 else None)
        ds = [tdep[i] for i in s]
        k = len(s)
        out = [[None] * k for _ in s]
        for p, i in enumerate(order):
            row = out[i]
            tp = low = ds[p]
            row[i] = 0
            for q in range(p + 1, k):
                m = meet[q - 1]
                if m is None:
                    break
                if m < low:
                    low = m
                j = order[q]
                row[j] = out[j][i] = tp + ds[q] - 2 * low
        return out

    def edge_cuts(self, ends) -> list[tuple[int, int, Fraction, list]]:
        """Each edge (a, b, w) of ``edges()``, in that order, with the keys
        k of the (x, y, k) in ``ends`` whose x-y path crosses it, in
        ``ends`` order.  A path crosses the edge above c iff exactly one
        of x, y lies in c's subtree, a preorder interval of the index."""
        at, _, par, _, _, last = self._rooted()
        nums = [(_number(at, x), _number(at, y), k) for (x, y, k) in ends]
        out = []
        for (a, b, w) in self.edges():
            c = at[a] if par[at[a]] == at[b] else at[b]
            hi = last[c]
            cut = [k for (i, j, k) in nums if (c <= i <= hi) != (c <= j <= hi)]
            out.append((a, b, w, cut))
        return out

    def arm_union(self, center: int, targets) -> dict[int, int]:
        """``union_below`` of the paths from ``center`` to each target, on
        vertex ids.  A target climbs the index's parents, except that an
        ancestor of ``center`` steps down ``center``'s own chain."""
        at, order, par, _, _, last = self._rooted()
        c = top = _number(at, center)
        down: dict[int, int] = {}
        while par[top] >= 0:
            down[par[top]] = top
            top = par[top]
        nums = []
        for t in targets:
            j = _number(at, t)
            if not top <= j <= last[top]:
                raise ValueError(f"{center} and {t} are in different components")
            nums.append(j)
        below = union_below(lambda j: down.get(j, par[j]), c, nums)
        return {order[j]: k for j, k in below.items()}

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
    tree._index = None  # adj is edited in place below
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

    def with_source(self, g: MetricGraph) -> "TreeMap":
        """The same map with its checks read over the edges of ``g``, e.g.
        a map built on a slack graph, checked on the full input graph."""
        return replace(self, source=g)

    def is_lipschitz(self) -> bool:
        """d_T(F(u),F(v)) <= len(u,v) for every graph edge."""
        tree, f = self.tree, self.mapping
        D = tree.D
        for (u, v, w) in self.source.edges:
            if tree.tick_dist(f[u], f[v]) * w.denominator > w.numerator * D:
                return False
        return True

    def fibers(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for g_v, t_v in self.mapping.items():
            out.setdefault(t_v, []).append(g_v)
        return out
