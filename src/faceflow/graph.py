"""Metric graph substrate.

Undirected graphs with exact rational edge lengths, shortest paths,
biconnectivity, outerplanar structure (ear builds), the slack transform,
and the integer-tick cycle that the tree embedding closes each ear into.

All graph lengths are ``fractions.Fraction``; infinity is represented by
``math.inf`` in distance matrices.  Shortest paths run on ints over one
denominator, the lcm of the edge lengths' denominators, and a graph's
Fraction and tick matrices are both read off its one int matrix.

Outerplanarity and outer cycles do not use networkx: one lowpoint search
finds the blocks, and degree-2 elimination finds each block's outer cycle
or proves it is not outerplanar.  General planarity (``is_planar`` and
``PlanarInstance.validate``) and ``biconnected_components``, whose block
order the ear builds follow, still use networkx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional, Sequence

import networkx as nx

from .errors import (
    FaceInvalid,
    NotBiconnected,
    NotOuterplanar,
)

INF = math.inf


def frac(x) -> Fraction:
    """Coerce ints, strings, pairs, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, tuple):
        return Fraction(x[0], x[1])
    return Fraction(x)


def norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class MetricGraph:
    """Undirected graph with nonnegative rational edge lengths.

    No loops, no parallel edges.  Zero-length edges are permitted.
    Every edge is stored as (u, v, length) with u < v.  The adjacency
    lists are built once, with the graph; the int distance matrix, the
    Fraction and tick matrices read off it, and the connected components
    are built on first use and then shared.  None of these views takes
    part in equality or hashing.
    """

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        seen = set()
        norm = []
        adj: dict[int, list[tuple[int, Fraction]]] = {v: [] for v in range(self.n)}
        for (u, v, w) in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            e = norm_edge(u, v)
            if e in seen:
                raise ValueError(f"parallel edge {e}")
            seen.add(e)
            w = frac(w)
            if w < 0:
                raise ValueError(f"negative length on edge {e}")
            norm.append((e[0], e[1], w))
            adj[e[0]].append((e[1], w))
            adj[e[1]].append((e[0], w))
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_views", {})

    # -- basic views ----------------------------------------------------

    def adjacency(self) -> dict[int, list[tuple[int, Fraction]]]:
        """Shared adjacency lists (vertex -> [(neighbor, length)]); do not
        mutate."""
        return self._adj

    def _view(self, name: str | tuple, build):
        views = self._views
        if name not in views:
            views[name] = build(self)
        return views[name]

    def distances(self) -> list[list]:
        """Shared distance matrix, ``all_pairs_distances``; do not mutate."""
        return self._view("distances", all_pairs_distances)

    def int_distances(self) -> tuple[list[list], int]:
        """Shared int distance matrix (T, M), ``int_distances``; do not
        mutate."""
        return self._view("int_distances", int_distances)

    def ticks(self) -> tuple[list[list], int]:
        """Shared tick matrix (ticks, L), ``distance_ticks``; do not mutate."""
        return self._view("ticks", distance_ticks)

    def components(self) -> list[set[int]]:
        """Shared connected components, ``connected_components``; do not
        mutate."""
        return self._view("components", connected_components)

    def edge_lengths(self) -> dict[tuple[int, int], Fraction]:
        return {(u, v): w for (u, v, w) in self.edges}

    def neighbors(self, v: int) -> list[int]:
        return [x for (x, _) in self._adj[v]]

    def incident(self, v: int) -> list[tuple[int, int]]:
        """The edges at v, normalised, in ``edges`` order."""
        return [(v, x) if v < x else (x, v) for (x, _) in self._adj[v]]

    def to_nx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for (u, v, w) in self.edges:
            g.add_edge(u, v, weight=w)
        return g

    def with_edges(self, edges) -> "MetricGraph":
        return MetricGraph(self.n, tuple(edges))

    def scaled(self, factor: Fraction) -> "MetricGraph":
        factor = frac(factor)
        return MetricGraph(
            self.n, tuple((u, v, w * factor) for (u, v, w) in self.edges)
        )


# -- shortest paths -----------------------------------------------------


def int_adjacency(n: int, edges) -> tuple[list[list[tuple[int, int]]], int]:
    """Edges (u, v, length) over vertices 0..n-1 as int adjacency lists:
    (adj, M), where M is the lcm of the lengths' denominators and adj[v]
    lists (neighbour, length * M)."""
    M = math.lcm(*(w.denominator for (_, _, w) in edges))
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v, w) in edges:
        t = w.numerator * (M // w.denominator)
        adj[u].append((v, t))
        adj[v].append((u, t))
    return adj, M


def int_dijkstra(adj: list[list[tuple[int, int]]], source: int) -> list:
    """Dijkstra on ``int_adjacency`` lists: every vertex's distance from
    ``source``, math.inf if it is unreachable."""
    dist = [INF] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, v = heappop(heap)
        if d > dist[v]:
            continue
        for (u, w) in adj[v]:
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heappush(heap, (nd, u))
    return dist


def int_distances(g: MetricGraph) -> tuple[list[list], int]:
    """Shortest-path distances on ints: (T, M), where M is the lcm of the
    edge lengths' denominators and T[s][t] is the s-t distance times M,
    math.inf across components.  Builds a fresh pair: read a graph's
    shared one through ``g.int_distances()``."""
    adj, M = int_adjacency(g.n, g.edges)
    return [int_dijkstra(adj, s) for s in range(g.n)], M


def all_pairs_distances(g: MetricGraph) -> list[list]:
    """Shortest-path distance matrix; math.inf across components.  Builds
    a fresh matrix, from the shared ``g.int_distances()``: read a graph's
    shared one through ``g.distances()``."""
    T, M = g.int_distances()
    return [[t if t is INF else Fraction(t, M) for t in row] for row in T]


def distance_ticks(g: MetricGraph) -> tuple[list[list], int]:
    """``g.distances()`` as ints over one denominator L, the lcm of the
    finite distances' denominators: entry t stands for t / L, and
    ``math.inf`` entries stay ``math.inf``.  Returns (ticks, L); read a
    graph's shared pair through ``g.ticks()``.

    Read off (T, M) = ``g.int_distances()``: the lcm of the reduced
    denominators M / gcd(t, M) is M / c, for c the gcd of M and every
    finite t, so (ticks, L) = (T // c, M // c)."""
    T, M = g.int_distances()
    c = math.gcd(M, *(t for row in T for t in row if t is not INF))
    return [[t if t is INF else t // c for t in row] for row in T], M // c


def reduce_lengths(g: MetricGraph) -> MetricGraph:
    """Replace every edge length by the shortest-path distance between its
    endpoints.  Idempotent; does not change the metric."""
    d = g.distances()
    return g.with_edges((u, v, d[u][v]) for (u, v, _) in g.edges)


def is_reduced(g: MetricGraph) -> bool:
    d = g.distances()
    return all(w == d[u][v] for (u, v, w) in g.edges)


def diameter(g: MetricGraph) -> Fraction:
    """Largest finite pairwise distance."""
    ticks, L = g.ticks()
    return Fraction(max((t for row in ticks for t in row if t is not INF), default=0), L)


def connected_components(g: MetricGraph, verts=None) -> list[set[int]]:
    """Connected components of the subgraph induced by ``verts`` (all of
    g by default), ordered by smallest vertex."""
    if verts is None:
        verts = range(g.n)
    adj = g._adj  # read directly: retractions call this once per block
    seen: set[int] = set()
    comps = []
    for s in sorted(verts):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            for (u, _) in adj[v]:
                if u in verts and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(comp)
    return comps


# -- biconnectivity -----------------------------------------------------


def biconnected_components(g: MetricGraph) -> list[set[int]]:
    """Blocks of g, as vertex sets.

    Isolated vertices form singleton blocks.
    """
    blocks = [set(b) for b in nx.biconnected_components(g.to_nx())]
    covered = set().union(*blocks) if blocks else set()
    for v in range(g.n):
        if v not in covered:
            blocks.append({v})
    return blocks


def _blocks(adj, n: int) -> list[list[int]]:
    """Blocks with an edge of the graph on vertices 0..n-1 with adjacency
    ``adj`` (vertex -> [(neighbour, length)]), as vertex lists, by one
    iterative lowpoint depth-first search (Hopcroft-Tarjan) from each
    component's least vertex.  Each block lists first the vertex at which
    the search entered it, and comes after every block below it."""
    disc = [-1] * n
    low = [0] * n
    blocks = []
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        visited = [root]  # vertices not yet assigned to a block
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            for (u, _) in it:
                if disc[u] < 0:
                    disc[u] = low[u] = clock
                    clock += 1
                    visited.append(u)
                    stack.append((u, iter(adj[u])))
                    break
                # The edge back to v's parent lowers low[v] to the
                # parent's number at most, which the test below allows.
                if disc[u] < low[v]:
                    low[v] = disc[u]
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                elif low[v] >= disc[p]:
                    # p separates v's subtree from the rest: one block.
                    block = [p]
                    while block[-1] != v:
                        block.append(visited.pop())
                    blocks.append(block)
    return blocks


def is_biconnected(g: MetricGraph) -> bool:
    if g.n < 3:
        return g.n == 2 and len(g.edges) == 1
    blocks = _blocks(g.adjacency(), g.n)
    return len(blocks) == 1 and len(blocks[0]) == g.n


def induced_subgraph(g: MetricGraph, verts: set[int]) -> tuple[MetricGraph, dict[int, int]]:
    """Induced subgraph with vertices relabelled 0..k-1.

    Returns (subgraph, old_id -> new_id)."""
    order = sorted(verts)
    idx = {v: i for i, v in enumerate(order)}
    edges = [
        (idx[u], idx[v], w) for (u, v, w) in g.edges if u in verts and v in verts
    ]
    return MetricGraph(len(order), tuple(edges)), idx


# -- planarity / outerplanarity ----------------------------------------


def is_planar(g: MetricGraph) -> bool:
    ok, _ = nx.check_planarity(g.to_nx())
    return ok


def _outer_cycle(adj, block: list[int]) -> Optional[list[int]]:
    """Outer cycle of a block with at least 3 vertices (adjacency ``adj``
    of a graph containing it), starting at ``block[0]``, or None if the
    block is not outerplanar.

    Degree-2 elimination (Mitchell 1979; Wiegers 1986): in a biconnected
    outerplanar graph a vertex of degree 2 lies on the outer cycle between
    its two neighbours, and removing it and joining them leaves one whose
    outer cycle skips it.  Vertices are removed down to a triangle, which
    a biconnected graph stays, and put back in reverse order, each
    between its two neighbours, which must then be adjacent on the cycle.
    That check is the proof: each vertex put back meets only its two
    cycle neighbours, so every edge stays a cycle edge or a chord that
    crosses none, and the block is outerplanar with this outer cycle, the
    only Hamiltonian cycle an outerplanar block has.  A block that runs
    out of vertices of degree 2 is not outerplanar either."""
    inside = set(block)
    nbr = {v: {u for (u, _) in adj[v] if u in inside} for v in block}
    queue = [v for v in block if len(nbr[v]) == 2]
    removed = []
    while len(nbr) > 3:
        if not queue:
            return None
        v = queue.pop()
        if v not in nbr or len(nbr[v]) != 2:
            continue
        a, b = nbr.pop(v)
        nbr[a].remove(v)
        nbr[b].remove(v)
        if b in nbr[a]:
            queue += [x for x in (a, b) if len(nbr[x]) == 2]
        else:
            nbr[a].add(b)
            nbr[b].add(a)
        removed.append((v, a, b))
    x, y, z = nbr
    succ = {x: y, y: z, z: x}
    for (v, a, b) in reversed(removed):
        if succ[a] != b:
            a, b = b, a
            if succ[a] != b:
                return None
        succ[a] = v
        succ[v] = b
    cyc = [block[0]]
    while len(cyc) < len(block):
        cyc.append(succ[cyc[-1]])
    return cyc


def _outer_ring(g: MetricGraph) -> Optional[list[int]]:
    """Cyclic vertex order whose restriction to each block of g is the
    block's outer cycle, or None if g is not outerplanar.  A biconnected
    subgraph of g lies in one block and keeps its cycle order, so the
    ring restricted to it is its outer cycle too.

    Each block's cycle (its two ends, for a bridge) is spliced in after
    the vertex at which the block search entered it.  Blocks go in from
    the top of the search down, so the rest of a block is new to the
    ring when it goes in."""
    adj = g.adjacency()
    succ = list(range(g.n))
    for b in reversed(_blocks(adj, g.n)):
        if len(b) >= 3:
            b = _outer_cycle(adj, b)
            if b is None:
                return None
        succ[b[-1]] = succ[b[0]]
        for (u, v) in zip(b, b[1:]):
            succ[u] = v
    ring: list[int] = []
    placed = [False] * g.n
    for s in range(g.n):
        v = s
        while not placed[v]:
            placed[v] = True
            ring.append(v)
            v = succ[v]
    return ring


def _block_cycle(ring: list[int], idx: dict[int, int]) -> list[int]:
    """Outer cycle of a biconnected block (vertex -> local id ``idx``)
    read off the outer ring of a graph containing it: local ids, starting
    at 0 and continuing to the smaller of its two cycle neighbours."""
    cyc = [idx[v] for v in ring if v in idx]
    i = cyc.index(0)
    cyc = cyc[i:] + cyc[:i]
    if cyc[-1] < cyc[1]:
        cyc = [0] + cyc[:0:-1]
    return cyc


def is_outerplanar(g: MetricGraph) -> bool:
    """A graph is outerplanar iff each of its blocks is: see
    ``_outer_ring``."""
    return _outer_ring(g) is not None


def find_outer_cycle(g: MetricGraph) -> list[int]:
    """Hamiltonian cycle of a biconnected outerplanar graph (its unique
    outer face), starting at vertex 0 and continuing to the smaller of
    its two cycle neighbours.  Found by degree-2 elimination, see
    ``_outer_cycle``."""
    if not is_biconnected(g):
        raise NotBiconnected("outer cycle defined for biconnected graphs")
    if g.n == 2:
        raise NotOuterplanar("no outer cycle on a single edge")
    cyc = _outer_cycle(g.adjacency(), list(range(g.n)))
    if cyc is None:
        raise NotOuterplanar("no Hamiltonian cycle: graph is not biconnected outerplanar")
    return _block_cycle(cyc, {v: v for v in range(g.n)})


# -- instances ----------------------------------------------------------


@dataclass(frozen=True)
class PlanarInstance:
    """A planar metric graph with a distinguished face.

    ``face`` is the cyclic vertex order of the face; ``rotation``
    optionally gives a cyclic neighbor order per vertex.
    """

    graph: MetricGraph
    face: tuple[int, ...]
    rotation: Optional[dict[int, tuple[int, ...]]] = None

    def validate(self) -> list[str]:
        """Return a list of human-readable invariant violations (empty if
        the instance is well-formed)."""
        problems = []
        g = self.graph
        if len(set(self.face)) != len(self.face):
            problems.append("face repeats a vertex")
        if any(not (0 <= v < g.n) for v in self.face):
            problems.append("face vertex out of range")
            return problems
        lengths = g.edge_lengths()
        k = len(self.face)
        if k >= 2:
            for i in range(k):
                u, v = self.face[i], self.face[(i + 1) % k]
                if k == 2 and i == 1:
                    break
                if norm_edge(u, v) not in lengths:
                    problems.append(f"face edge ({u},{v}) missing from graph")
        # The face cycle bounds a face of some embedding iff an apex
        # joined to all face vertices keeps the graph planar.  The apex
        # graph contains g, so g itself is tested only to name a failure.
        apex = g.to_nx()
        apex.add_edges_from((g.n, v) for v in self.face)
        if not nx.check_planarity(apex)[0]:
            if not is_planar(g):
                problems.append("graph is not planar")
            else:
                problems.append("face cycle does not bound a face of any embedding")
        if not is_reduced(g):
            problems.append("edge lengths are not reduced")
        if self.rotation is not None:
            adj = g.adjacency()
            for v, order in self.rotation.items():
                if sorted(order) != sorted(u for (u, _) in adj[v]):
                    problems.append(f"rotation at {v} is not a permutation of its neighbors")
        return problems


# -- cycles ------------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    """A continuous cycle with labelled points, measured in integer ticks.

    ``points`` maps vertex id to a position in [0, circumference)."""

    circumference: int
    points: dict[int, int]

    def dist_pos(self, a: int, b: int) -> int:
        d = abs(a - b)
        return min(d, self.circumference - d)

    def dist(self, x: int, y: int) -> int:
        return self.dist_pos(self.points[x], self.points[y])


# -- outerplanar builds -------------------------------------------------


@dataclass(frozen=True)
class BuildStep:
    """One ear: a path whose endpoints are the endpoints of the existing
    edge ``attach_edge``."""

    path_vertices: tuple[int, ...]
    path_lengths: tuple[Fraction, ...]
    attach_edge: tuple[int, int]

    @property
    def length(self) -> Fraction:
        return sum(self.path_lengths, Fraction(0))


@dataclass(frozen=True)
class OuterplanarBuild:
    initial_vertices: tuple[int, ...]
    initial_lengths: tuple[Fraction, ...]
    steps: tuple[BuildStep, ...]


def _chord_children(chords: list[tuple[int, int]], lo: int, hi: int):
    """Top-level chords strictly inside the interval (lo, hi), given
    non-crossing chords as index pairs (i, j), i < j."""
    inside = [c for c in chords if lo <= c[0] and c[1] <= hi and c != (lo, hi)]
    top = []
    for c in inside:
        if not any(d[0] <= c[0] and c[1] <= d[1] and d != c for d in inside):
            top.append(c)
    return sorted(top)


def _block_ears(
    order: list[int],
    lengths: dict[tuple[int, int], Fraction],
    chords: list[tuple[int, int]],
    lo: int,
    hi: int,
    out: list[BuildStep],
    attach: tuple[int, int],
):
    """Emit the ear for interval (lo, hi) of the outer cycle (with child
    chords as shortcuts), then recurse into each child chord."""
    children = _chord_children(chords, lo, hi)
    starts = {c[0]: c for c in children}
    vs = [order[lo]]
    ws = []
    pos = lo
    while pos < hi:
        if pos in starts and starts[pos][1] <= hi:
            (_, q) = starts[pos]
            ws.append(lengths[norm_edge(order[pos], order[q])])
            pos = q
        else:
            ws.append(lengths[norm_edge(order[pos], order[pos + 1])])
            pos += 1
        vs.append(order[pos])
    out.append(BuildStep(tuple(vs), tuple(ws), attach))
    for (i, j) in children:
        _block_ears(order, lengths, chords, i, j, out,
                    (order[i], order[j]))


def _closing_edge_index(order: list[int], lengths) -> int:
    """Index i of the cycle edge (order[i], order[i+1 mod n]) chosen to
    close the cycle; shortest edge, lowest index on ties."""
    n = len(order)
    best, best_w = 0, None
    for i in range(n):
        w = lengths[norm_edge(order[i], order[(i + 1) % n])]
        if best_w is None or w < best_w:
            best, best_w = i, w
    return best


def ear_decomposition(
    g: MetricGraph, outer_face: Optional[Sequence[int]] = None
) -> OuterplanarBuild:
    """Ear build of a biconnected outerplanar graph (or a bare path).

    The initial path is the shortest outer-cycle edge; the first ear is
    the rest of the outer cycle with top-level chords as shortcuts, and
    deeper ears follow the chord nesting.
    """
    lengths = g.edge_lengths()
    m = len(g.edges)
    # Bare path: initial path only, zero steps.
    adj = g.adjacency()
    deg = {v: len(adj[v]) for v in range(g.n)}
    present = [v for v in range(g.n) if deg[v] > 0]
    if m == len(present) - 1 and all(deg[v] <= 2 for v in present):
        ends = [v for v in present if deg[v] == 1]
        if len(ends) == 2 and len(g.components()) == g.n - len(present) + 1:
            vs = [min(ends)]
            ws = []
            prev = None
            while len(vs) <= m:
                for (u, w) in adj[vs[-1]]:
                    if u != prev:
                        prev = vs[-1]
                        vs.append(u)
                        ws.append(w)
                        break
            return OuterplanarBuild(tuple(vs), tuple(ws), ())
    if not is_biconnected(g):
        raise NotBiconnected("ear decomposition needs a biconnected graph or a path")
    # A given face is checked below: a Hamiltonian cycle with
    # non-crossing chords proves the graph outerplanar.
    if outer_face is None:
        outer_face = find_outer_cycle(g)
    order = list(outer_face)
    n = len(order)
    if n != g.n or set(order) != set(range(g.n)):
        raise FaceInvalid("outer face must visit every vertex exactly once")
    idx = {v: i for i, v in enumerate(order)}
    cycle_edges = {norm_edge(order[i], order[(i + 1) % n]) for i in range(n)}
    for e in cycle_edges:
        if e not in lengths:
            raise FaceInvalid(f"outer face edge {e} missing from graph")
    chord_pairs = []
    for (u, v, _) in g.edges:
        if (u, v) in cycle_edges:
            continue
        i, j = sorted((idx[u], idx[v]))
        chord_pairs.append((i, j))
    for a in chord_pairs:
        for b in chord_pairs:
            if a < b and a[0] < b[0] < a[1] < b[1]:
                raise NotOuterplanar(
                    f"chords {a} and {b} cross on the given outer face"
                )
    k = _closing_edge_index(order, lengths)
    rotated = [order[(k + 1 + i) % n] for i in range(n)]
    idx2 = {v: i for i, v in enumerate(rotated)}
    chords2 = []
    for (i, j) in chord_pairs:
        a, b = sorted((idx2[order[i]], idx2[order[j]]))
        chords2.append((a, b))
    e_star = norm_edge(rotated[0], rotated[-1])
    steps: list[BuildStep] = []
    _block_ears(rotated, lengths, chords2, 0, n - 1, steps,
                (rotated[0], rotated[-1]))
    return OuterplanarBuild(
        (rotated[-1], rotated[0]), (lengths[e_star],), tuple(steps)
    )


def _block_builds(g: MetricGraph, ring: list[int]) -> list[OuterplanarBuild]:
    """Ear builds of the blocks of g, a subgraph of the graph whose outer
    ring is ``ring``, in original vertex ids.  Each block after the first
    meets the earlier ones in exactly one cut vertex."""
    blocks = [b for b in biconnected_components(g) if len(b) >= 2]
    if not blocks:
        return [OuterplanarBuild((0,), (), ())] if g.n else []
    # Order blocks by a BFS over the block-cut structure, rooted at the
    # block containing the lowest vertex.
    blocks.sort(key=min)
    ordered = [blocks[0]]
    rest = blocks[1:]
    covered = set(blocks[0])
    while rest:
        for i, b in enumerate(rest):
            if b & covered:
                ordered.append(b)
                covered |= b
                del rest[i]
                break
        else:
            raise ValueError("graph is disconnected")
    out = []
    for b in ordered:
        sub, idx = induced_subgraph(g, b)
        bd = ear_decomposition(sub, _block_cycle(ring, idx) if len(b) >= 3 else None)
        back = {i: v for v, i in idx.items()}
        steps = tuple(
            BuildStep(
                tuple(back[i] for i in st.path_vertices),
                st.path_lengths,
                (back[st.attach_edge[0]], back[st.attach_edge[1]]),
            )
            for st in bd.steps
        )
        out.append(OuterplanarBuild(
            tuple(back[i] for i in bd.initial_vertices), bd.initial_lengths, steps
        ))
    return out


# -- slack transform ----------------------------------------------------


def slack_transform(
    g: MetricGraph, alpha: Fraction
) -> tuple[MetricGraph, list[OuterplanarBuild]]:
    """Delete edges whose ears are too short until every block has an
    alpha-slack ear build, then scale all lengths down by alpha.

    Returns h and one ear build per block of h, in block order.  The
    output satisfies E(h) subset of E(g), d_g >= d_h >= d_g/alpha, h
    reduced, and every ear is at least alpha times its attach edge.
    """
    alpha = frac(alpha)
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    # Outerplanarity is tested once: every graph below is a subgraph of
    # g, so the outer ring of g gives every block's outer cycle.
    ring = _outer_ring(g)
    if ring is None:
        raise NotOuterplanar("slack transform needs an outerplanar graph")
    # The rounds run on the scaled graph: the slack test compares two
    # lengths, and reduction commutes with scaling, so each round deletes
    # the same edges as at scale 1, and the last round's builds are h's.
    h = reduce_lengths(g).scaled(Fraction(1) / alpha)
    while True:
        builds = _block_builds(h, ring)
        lengths = h.edge_lengths()
        doomed = set()
        for bd in builds:
            for st in bd.steps:
                e = norm_edge(*st.attach_edge)
                if st.length < alpha * lengths[e]:
                    doomed.add(e)
        if not doomed:
            return h, builds
        # h stays reduced without a new distance matrix: deleting edges
        # only lengthens shortest paths, and each kept edge still bounds
        # the distance of its own ends, so it keeps its length.
        h = h.with_edges((u, v, w) for (u, v, w) in h.edges if (u, v) not in doomed)


# -- glue lives in tree.py (re-exported in the package __init__) --------
