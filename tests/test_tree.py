import math
import random
import re
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import slack_cycle
from faceflow.errors import LengthMismatch
from faceflow.graph import MetricGraph, frac
from faceflow import tree as tree_module
from faceflow.tree import MetricTree, TreeMap, _rooted_index, glue
from faceflow.treeembed import embed_sampler


def build_random_tree(n, seed, den=2):
    rng = random.Random(f"t:{seed}")
    t = MetricTree()
    t.add_vertex(0)
    for v in range(1, n):
        t.add_vertex(v)
        t.add_edge(rng.randrange(v), v, Fraction(rng.randrange(1, 9), den))
    return t


# -- the path queries that the rooted index replaced, the references ----


def walk_path(adj, u: int, v: int) -> list[int]:
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


class WalkTree(MetricTree):
    """``MetricTree`` with the path queries it had before its rooted index,
    one depth-first walk per call; ``walk_path`` is its ``_path``.  Kept
    verbatim apart from that name."""

    def path(self, u: int, v: int) -> list[int]:
        """The unique u-v path as a vertex list."""
        return walk_path(self.adj, u, v)

    def path_ticks(self, u: int, v: int) -> tuple[list[int], list[int]]:
        """The u-v path and, for each of its vertices, the tick distance
        from u."""
        p = walk_path(self.adj, u, v)
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


def walk_tree(t: MetricTree) -> WalkTree:
    """A copy of ``t`` that answers path queries by walking."""
    out = WalkTree(t.D)
    out.adj = {v: dict(nbrs) for v, nbrs in t.adj.items()}
    return out


def walk_arm_union(ref: WalkTree, center: int, targets) -> dict[int, int]:
    """``ref.path_union``'s degrees as ``arm_union``'s child counts: each
    vertex of the union but the centre has one edge to its parent, and
    the centre comes first even when no path leaves it."""
    deg, _ = ref.path_union(center, targets)
    return {center: 0, **{v: d - (v != center) for v, d in deg.items()}}


def walk_tree_edge_cuts(g: MetricGraph, tm: TreeMap):
    """For every tree edge a, the edges of g whose image path crosses a."""
    tree = tm.tree
    out = []
    path_cache: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for (u, v, w) in g.edges:
        p = tree.path(tm.mapping[u], tm.mapping[v])
        es = set()
        for i in range(len(p) - 1):
            es.add((min(p[i], p[i + 1]), max(p[i], p[i + 1])))
        path_cache[(u, v)] = es
    for (a, b, w) in tree.edges():
        te = (min(a, b), max(a, b))
        cut = [e for e, es in path_cache.items() if te in es]
        out.append((te, w, cut))
    return out


# -- the Fraction tree and glue that the tick tree replaced, the references --


class ReferenceTree:
    """The Fraction-length tree that ``MetricTree`` replaced, kept verbatim
    apart from its name and the unused methods: ``adj[u][v]`` is a
    ``Fraction``, so its unit D is 1."""

    D = 1

    def __init__(self):
        self.adj: dict[int, dict[int, Fraction]] = {}

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

    def vertices(self) -> list[int]:
        return list(self.adj)

    def edges(self) -> list[tuple[int, int, Fraction]]:
        out = []
        for u, nbrs in self.adj.items():
            for v, w in nbrs.items():
                if u < v:
                    out.append((u, v, w))
        return out

    def path(self, u: int, v: int) -> list[int]:
        return walk_path(self.adj, u, v)

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

    path_union = WalkTree.path_union

    @staticmethod
    def from_path(vertex_ids, lengths) -> "ReferenceTree":
        t = ReferenceTree()
        vs = list(vertex_ids)
        for v in vs:
            t.add_vertex(v)
        for i, w in enumerate(lengths):
            t.add_edge(vs[i], vs[i + 1], w)
        return t


def reference_tree(t: MetricTree) -> ReferenceTree:
    """``t`` with the Fraction lengths of ``t.edges()``, in the same vertex
    and adjacency order."""
    lengths = {(x, y): w for x, y, w in t.edges()}
    out = ReferenceTree()
    out.adj = {
        x: {y: lengths[min(x, y), max(x, y)] for y in nbrs}
        for x, nbrs in t.adj.items()
    }
    return out


def tick_tree(t: ReferenceTree) -> MetricTree:
    """``t`` on the least common denominator of its lengths, in the same
    vertex and adjacency order."""
    out = MetricTree(math.lcm(*[w.denominator for _, _, w in t.edges()]))
    out.adj = {
        x: {y: w.numerator * (out.D // w.denominator) for y, w in nbrs.items()}
        for x, nbrs in t.adj.items()
    }
    return out


def reference_copy(t):
    out = type(t)()
    out.D = t.D
    out.adj = {v: dict(nbrs) for v, nbrs in t.adj.items()}
    return out


def reference_fresh_id(t) -> int:
    return max(t.adj, default=-1) + 1


def reference_subdivide(t: ReferenceTree, u: int, v: int, w_id: int, dist_from_u):
    """Insert a new vertex on edge (u,v) at the given offset from u."""
    w = t.adj[u][v]
    d = Fraction(dist_from_u)
    if not (0 <= d <= w):
        raise ValueError("subdivision point off the edge")
    del t.adj[u][v]
    del t.adj[v][u]
    t.add_edge(u, w_id, d)
    t.add_edge(w_id, v, w - d)


def reference_glue(
    t1: ReferenceTree,
    t2: ReferenceTree,
    u1: int,
    v1: int,
    u2: int,
    v2: int,
) -> tuple[ReferenceTree, dict[int, int]]:
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
    out = reference_copy(t1)
    next_id = max(reference_fresh_id(out), reference_fresh_id(t2))

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
        reference_subdivide(out, a_prev, a_next, w_id, p - work[i - 1][1])
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


def adj_lists(t):
    """The adjacency with both orders, vertices and neighbours, and the
    lengths as Fractions."""
    return [
        (v, [(y, Fraction(w, t.D)) for y, w in nbrs.items()])
        for v, nbrs in t.adj.items()
    ]


def glue_both(t1: MetricTree, u: int, v: int, flat, iu: int, iv: int):
    """Glue the path with sorted Fraction positions ``flat`` onto a copy
    of t1 with the tick glue and with the reference, which gets the path
    as a tree on ids 0..len(flat)-1: both give the same tree, down to its
    adjacency order, and the same ids.  Returns the glued tree and ids."""
    t2 = ReferenceTree.from_path(
        range(len(flat)), [b - a for a, b in zip(flat, flat[1:])]
    )
    want, mapping = reference_glue(reference_tree(t1), t2, u, v, iu, iv)
    got = reference_copy(t1)
    got.refine(math.lcm(*[Fraction(p).denominator for p in flat]))
    ids = glue(got, u, v, [int(p * got.D) for p in flat], iu, iv)
    assert adj_lists(got) == adj_lists(want)
    assert ids == [mapping[j] for j in range(len(flat))]
    return got, ids


class TestMetricTree:
    def test_path_and_dist(self):
        t = MetricTree.from_path([0, 1, 2], [Fraction(1), Fraction(2)])
        assert t.path(0, 2) == [0, 1, 2]
        assert t.dist(0, 2) == 3

    def test_subdivide(self):
        t = ReferenceTree.from_path([0, 1], [Fraction(2)])
        reference_subdivide(t, 0, 1, 5, Fraction(1, 2))
        assert t.dist(0, 5) == Fraction(1, 2)
        assert t.dist(5, 1) == Fraction(3, 2)
        assert MetricTree.is_tree(t)

    def test_is_tree_detects_cycle(self):
        t = MetricTree()
        for v in range(3):
            t.add_vertex(v)
        t.add_edge(0, 1, Fraction(1))
        t.add_edge(1, 2, Fraction(1))
        t.add_edge(0, 2, Fraction(1))
        assert not t.is_tree()

    @pytest.mark.parametrize("seed", range(5))
    def test_graft_matches_edge_by_edge_copy(self, seed):
        # Onto a tree sharing one vertex: same vertices, lengths and dict
        # order as add_vertex/add_edge over other.edges(), on a grid both
        # trees' ticks may have to be rescaled to.
        base = build_random_tree(4, seed + 10)
        other = build_random_tree(6, seed, den=3)
        ids = {v: (0 if v == 3 else 10 + (v * 7) % 13) for v in other.vertices()}
        want = reference_copy(base)
        for v in other.vertices():
            want.add_vertex(ids[v])
        for (a, b, w) in other.edges():
            want.add_edge(ids[a], ids[b], w)
        got = reference_copy(base)
        got.graft(other, ids)
        assert got.D == want.D == math.lcm(base.D, other.D)
        assert adj_lists(got) == adj_lists(want)
        assert got.is_tree()

    @pytest.mark.parametrize("seed", range(5))
    def test_tick_dists_match_fraction_sums(self, seed):
        t = build_random_tree(9, seed)
        ref = reference_tree(t)
        for u in t.vertices():
            for v in t.vertices():
                assert Fraction(t.tick_dist(u, v), t.D) == ref.dist(u, v)


class TestTickTree:
    def test_from_path_matches_metric_tree(self):
        lengths = [Fraction(1, 3), Fraction(0), Fraction(5, 4)]
        t = MetricTree.from_path([3, 1, 2, 0], lengths)
        assert t.D == 12
        assert adj_lists(t) == adj_lists(
            ReferenceTree.from_path([3, 1, 2, 0], lengths)
        )
        assert t.edges() == ReferenceTree.from_path([3, 1, 2, 0], lengths).edges()

    def test_refine_scales_every_length(self):
        t = MetricTree.from_path([0, 1, 2], [Fraction(1, 2), Fraction(3, 4)])
        before = adj_lists(t)
        assert t.refine(6) == 3 and t.D == 12
        assert t.adj[0][1] == 6 and t.adj[2][1] == 9
        assert t.refine(4) == 1 and t.D == 12
        assert adj_lists(t) == before
        # An edge whose denominator D does not hold refines the grid.
        t.add_edge(2, 3, Fraction(1, 5))
        assert t.D == 60 and t.adj[0][1] == 30 and t.adj[3][2] == 12

    @pytest.mark.parametrize("seed", range(5))
    def test_path_ticks_match_path_positions(self, seed):
        t = build_random_tree(9, seed)
        ref = reference_tree(t)
        for u, v in [(0, 8), (8, 0), (3, 5), (4, 4)]:
            p, pos = t.path_ticks(u, v)
            assert list(zip(p, [Fraction(x, t.D) for x in pos])) == ref.path_positions(u, v)


class TestGlue:
    """The tick glue against the Fraction reference: the same tree, down
    to its adjacency order, and the same ids."""

    def test_glue_tree_with_copy_is_isometric(self):
        # Glue a copy of one of the tree's own paths: nothing is added.
        t = build_random_tree(6, 1)
        path = reference_tree(t).path_positions(0, 3)
        out, ids = glue_both(t, 0, 3, [p for _, p in path], 0, len(path) - 1)
        assert ids == [x for x, _ in path]
        assert adj_lists(out) == adj_lists(t)

    def test_glue_two_unit_edges(self):
        t1 = MetricTree.from_path([0, 1], [Fraction(1)])
        out, ids = glue_both(t1, 0, 1, [Fraction(0), Fraction(1)], 0, 1)
        assert len(out.vertices()) == 2
        assert out.dist(0, 1) == 1
        assert ids == [0, 1]

    def test_glue_length_mismatch(self):
        t1 = ReferenceTree.from_path([0, 1], [Fraction(1)])
        t2 = ReferenceTree.from_path([0, 1], [Fraction(2)])
        with pytest.raises(LengthMismatch):
            reference_glue(t1, t2, 0, 1, 0, 1)
        with pytest.raises(LengthMismatch, match="1 vs 2"):
            glue(MetricTree.from_path([0, 1], [1]), 0, 1, [0, 2], 0, 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_glue_preserves_both_inputs(self, seed):
        # A random path, its stretch between iu and iv as long as the
        # tree's u1-v1 path and partly on its vertex positions; the path
        # may run either way and have vertices off the stretch.
        rng = random.Random(seed)
        t1 = build_random_tree(7, seed)
        u1, v1 = rng.sample(t1.vertices(), 2)
        d = t1.dist(u1, v1)
        on_tree = [p for _, p in reference_tree(t1).path_positions(u1, v1)]
        inner = sorted(
            rng.choice(on_tree[1:-1] or [d / 2]) if rng.random() < 0.3
            else d * Fraction(rng.randrange(1, 16), 16)
            for _ in range(rng.randrange(0, 5))
        )
        stretch = [Fraction(0), *inner, d]
        before = sorted(-Fraction(rng.randrange(5), 3) for _ in range(rng.randrange(3)))
        after = sorted(d + Fraction(rng.randrange(5), 3) for _ in range(rng.randrange(3)))
        flat = before + stretch + after
        iu, iv = len(before), len(before) + len(stretch) - 1
        if rng.random() < 0.5:  # the stretch runs from its far end
            flat = [flat[-1] - p for p in reversed(flat)]
            iu, iv = len(flat) - 1 - iu, len(flat) - 1 - iv
        out, ids = glue_both(t1, u1, v1, flat, iu, iv)
        assert out.is_tree()
        for a in t1.vertices():
            for b in t1.vertices():
                assert out.dist(a, b) == t1.dist(a, b)
        for a in range(len(flat)):
            for b in range(len(flat)):
                assert out.dist(ids[a], ids[b]) == abs(flat[a] - flat[b])

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_on_ear_like_paths(self, seed):
        # Many vertices at equal positions: zero-length segments on both
        # sides of the glue.
        rng = random.Random(f"ear:{seed}")
        t1 = MetricTree.from_path(
            range(4), [Fraction(rng.randrange(0, 3), 2) for _ in range(3)]
        )
        d = t1.dist(0, 3)
        stretch = sorted(
            rng.choice([Fraction(0), d / 2, d]) for _ in range(rng.randrange(0, 4))
        )
        after = sorted(d + rng.randrange(0, 2) for _ in range(2))
        glue_both(t1, 0, 3, [Fraction(0), *stretch, d, *after], 0, 1 + len(stretch))


class TestTreeMap:
    def test_lipschitz_and_fibers(self):
        g = MetricGraph(3, ((0, 1, Fraction(1)), (1, 2, Fraction(1))))
        t = MetricTree.from_path([10, 11], [Fraction(1)])
        tm = TreeMap(t, {0: 10, 1: 11, 2: 11}, g, root=10)
        assert tm.is_lipschitz()
        assert sorted(tm.fibers()[11]) == [1, 2]

    def test_not_lipschitz(self):
        g = MetricGraph(2, ((0, 1, Fraction(1)),))
        t = MetricTree.from_path([0, 1], [Fraction(2)])
        tm = TreeMap(t, {0: 0, 1: 1}, g, root=0)
        assert not tm.is_lipschitz()


def random_forest(rng: random.Random, n: int, parts: int = 1) -> MetricTree:
    """A forest of ``parts`` trees on n vertices with scattered ids and
    lengths in ticks, a quarter of them zero."""
    t = MetricTree(rng.choice([1, 2, 6]))
    ids = rng.sample(range(4 * n + 8), n)
    for i, v in enumerate(ids):
        t.add_vertex(v)
        if i >= parts:
            w = 0 if rng.random() < 0.25 else rng.randrange(1, 7)
            t.add_ticks(rng.choice(ids[:i]), v, w)
    return t


def components(t: MetricTree) -> list[list[int]]:
    """The vertex lists of the forest's trees."""
    out: list[list[int]] = []
    seen: set[int] = set()
    for r in t.adj:
        if r not in seen:
            comp = [r]
            seen.add(r)
            for x in comp:
                for y in t.adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
            out.append(comp)
    return out


def assert_queries_match_walk(t: MetricTree, rng: random.Random) -> None:
    """Every path query of ``t`` against the walk it replaced, on every
    pair of vertices; the union of paths from each vertex to a random set
    of targets; and, on a tree, the tree-edge cuts of a random graph
    mapped into it."""
    ref = walk_tree(t)
    vs = t.vertices()
    for u in vs:
        for v in vs:
            try:
                want = ref.path_ticks(u, v)
            except ValueError:
                for query in (t.path, t.path_ticks, t.tick_dist, t.dist):
                    with pytest.raises(ValueError, match="different components"):
                        query(u, v)
                continue
            assert t.path(u, v) == want[0]
            assert t.path_ticks(u, v) == want
            assert t.tick_dist(u, v) == want[1][-1]
            assert t.dist(u, v) == ref.dist(u, v)
    for comp in components(t):
        for center in comp:
            targets = rng.sample(comp, rng.randrange(len(comp) + 1))
            got = t.arm_union(center, targets)
            assert list(got.items()) == list(walk_arm_union(ref, center, targets).items())
    if not t.is_tree():
        return
    k = rng.randrange(2, 9)
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < 0.4]
    g = MetricGraph(k, tuple((a, b, Fraction(1)) for a, b in pairs))
    mapping = {x: rng.choice(vs) for x in range(k)}
    got = t.edge_cuts([(mapping[u], mapping[v], (u, v)) for (u, v, _) in g.edges])
    want = walk_tree_edge_cuts(g, TreeMap(ref, mapping, g))
    assert [((a, b), w, cut) for (a, b, w, cut) in got] == want


def mutate(t: MetricTree, rng: random.Random) -> None:
    """One random change by a mutator: a new leaf or isolated vertex, a
    joining edge, a finer grid, a grafted tree or a glued path."""
    fresh = max(t.adj) + 1
    comps = components(t)
    kind = rng.choice(["leaf", "vertex", "join", "refine", "graft", "glue"])
    if kind == "leaf":
        t.add_ticks(rng.choice(t.vertices()), fresh, rng.randrange(0, 5))
    elif kind == "vertex":
        t.add_vertex(fresh)
    elif kind == "join" and len(comps) > 1:
        a, b = rng.sample(comps, 2)
        t.add_ticks(rng.choice(a), rng.choice(b), rng.randrange(0, 5))
    elif kind == "refine":
        t.refine(rng.randrange(1, 7))
    elif kind == "graft":
        other = random_forest(rng, rng.randrange(1, 6))
        shared = rng.choice(other.vertices())
        ids = {v: fresh + i for i, v in enumerate(other.vertices())}
        ids[shared] = rng.choice(t.vertices())
        t.graft(other, ids)
    else:
        comp = max(comps, key=len)
        u, v = rng.choice(comp), rng.choice(comp)
        d = walk_tree(t).path_ticks(u, v)[1][-1]
        stretch = sorted([0, d, *(rng.randrange(d + 1) for _ in range(rng.randrange(3)))])
        after = sorted(d + rng.randrange(0, 4) for _ in range(rng.randrange(3)))
        glue(t, u, v, stretch + after, 0, len(stretch) - 1)


@pytest.mark.gate
class TestIndexMatchesWalk:
    """The rooted index answers every path query as the depth-first walk
    it replaced did, also after a mutator has changed the tree since the
    last query."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_random_forests(self, rng):
        t = random_forest(rng, rng.randrange(1, 13), parts=rng.choice([1, 1, 2]))
        assert_queries_match_walk(t, rng)
        for _ in range(rng.randrange(1, 4)):
            mutate(t, rng)
            assert_queries_match_walk(t, rng)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_copies_are_independent(self, rng):
        # A copy has the same grid and adjacency order and shares the
        # index; a change to either tree leaves the other as it was.
        t = random_forest(rng, rng.randrange(1, 13), parts=rng.choice([1, 2]))
        v = t.vertices()[0]
        t.dist(v, v)
        c = t.copy()
        assert (c.D, adj_lists(c)) == (t.D, adj_lists(t))
        for changed, other in ((c, t), (t, c)):
            kept = (other.D, adj_lists(other))
            mutate(changed, rng)
            assert (other.D, adj_lists(other)) == kept
            assert_queries_match_walk(changed, rng)
            assert_queries_match_walk(other, rng)

    def test_every_mutator_drops_the_index(self):
        # refine keeps the index with its tick depths scaled; the queries
        # after it must match the walk all the same.
        t = MetricTree.from_path([0, 1, 2], [Fraction(1), Fraction(2)])
        steps = [
            lambda: t.add_vertex(7),
            lambda: t.add_ticks(7, 2, 3),
            lambda: t.add_edge(0, 8, Fraction(1, 5)),
            lambda: t.refine(3),
            lambda: t.graft(MetricTree.from_path([0, 1], [1]), {0: 8, 1: 9}),
            lambda: glue(t, 0, 2, [0, 15, 45, 50], 0, 2),
        ]
        for step in steps:
            assert t.dist(0, 2) == 3
            step()
            assert_queries_match_walk(t, random.Random(0))


@pytest.mark.gate
class TestRefineKeepsIndex:
    """``refine`` scales the tick depths of the rooted index into a new
    tuple instead of dropping it, and leaves every copy's index alone."""

    @pytest.mark.parametrize("seed", range(20))
    def test_scaled_index_is_the_rebuilt_one(self, seed):
        t = build_random_tree(9, seed)
        t.dist(0, 8)
        before = t._index
        kept = [list(part) for part in before[1:]]
        c = t.copy()
        assert c.refine(6) == 3
        assert c._index == _rooted_index(c.adj)
        assert t._index is before and [list(part) for part in before[1:]] == kept
        assert t._index == _rooted_index(t.adj)

    def test_sample_builds_one_index_fewer(self, monkeypatch):
        # One slack_cycle(12) sample with refine as it is and with a refine
        # that drops the index: the same draw, one build fewer.
        sample = embed_sampler(slack_cycle(12))
        real_index, real_refine = tree_module._rooted_index, MetricTree.refine

        def builds(seed):
            calls = []

            def counting(adj):
                calls.append(1)
                return real_index(adj)

            monkeypatch.setattr(tree_module, "_rooted_index", counting)
            tm = sample(seed)
            monkeypatch.setattr(tree_module, "_rooted_index", real_index)
            return len(calls), adj_lists(tm.tree), tm.mapping

        def dropping(self, m):
            k = real_refine(self, m)
            self._index = None
            return k

        kept = builds(0)
        monkeypatch.setattr(MetricTree, "refine", dropping)
        dropped = builds(0)
        assert kept[1:] == dropped[1:]
        assert kept[0] == dropped[0] - 1


class TestPathErrors:
    """A vertex not in the tree and a pair in two components are both
    ValueErrors, whichever end is at fault."""

    @pytest.mark.parametrize("query", ["path", "path_ticks", "tick_dist", "dist"])
    @pytest.mark.parametrize("u,v", [(0, 9), (9, 0), (9, 9)])
    def test_missing_vertex(self, query, u, v):
        t = MetricTree.from_path([0, 1], [1])
        with pytest.raises(ValueError, match="^9 is not a vertex of the tree$"):
            getattr(t, query)(u, v)

    @pytest.mark.parametrize("query", ["path", "path_ticks", "tick_dist", "dist"])
    @pytest.mark.parametrize("u,v", [(0, 3), (3, 1), (2, 3)])
    def test_other_component(self, query, u, v):
        t = MetricTree.from_path([0, 1, 2], [1, 2])
        t.add_edge(3, 4, 1)
        with pytest.raises(ValueError, match=f"^{u} and {v} are in different components$"):
            getattr(t, query)(u, v)

    def test_arm_union_missing_target(self):
        t = MetricTree.from_path([0, 1], [1])
        with pytest.raises(ValueError, match="^5 is not a vertex of the tree$"):
            t.arm_union(0, [1, 5])
        with pytest.raises(ValueError, match="^5 is not a vertex of the tree$"):
            t.arm_union(5, [])


@pytest.mark.gate
class TestArmUnion:
    """``arm_union`` counts each vertex's children on the union of the
    paths from a centre, in the order the paths meet them, as the union
    of walked paths does: on forests with zero-length edges, with
    repeated targets, targets above the centre or equal to it, and
    targets in another component, which raise as the walk does."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_walk(self, rng):
        t = random_forest(rng, rng.randrange(1, 14), parts=rng.choice([1, 1, 2, 3]))
        ref = walk_tree(t)
        vs = t.vertices()
        center = rng.choice(vs)
        # Some of the centre's chain up to the index's root (its tree's
        # first vertex), then vertices of its tree or of any.
        comp = next(c for c in components(t) if center in c)
        above = walk_path(t.adj, center, comp[0]) if rng.random() < 0.5 else []
        pool = comp if rng.random() < 0.7 else vs
        targets = rng.sample(above, rng.randrange(len(above) + 1))
        targets += rng.choices(pool, k=rng.randrange(8))
        rng.shuffle(targets)
        try:
            want = walk_arm_union(ref, center, targets)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                t.arm_union(center, targets)
            return
        assert list(t.arm_union(center, targets).items()) == list(want.items())
        assert list(t.arm_union(center, iter(targets)).items()) == list(want.items())

    def test_branch_above_the_centre(self):
        # Path 0-1-2-3 rooted at 0 with 4 hanging off 1: from centre 2,
        # the targets 0 and 4 are both reached through 1, which branches.
        t = MetricTree.from_path([0, 1, 2, 3], [1, 1, 1])
        t.add_edge(1, 4, 1)
        assert t.arm_union(2, [0, 3, 4, 2]) == {2: 2, 1: 2, 0: 0, 3: 0, 4: 0}
        assert list(t.arm_union(2, [0, 3, 4, 2])) == [2, 1, 0, 3, 4]
