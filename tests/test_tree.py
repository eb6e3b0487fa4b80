import random
from fractions import Fraction

import pytest

from faceflow.errors import LengthMismatch
from faceflow.graph import MetricGraph
from faceflow.tree import MetricTree, TreeMap, glue


def build_random_tree(n, seed):
    rng = random.Random(f"t:{seed}")
    t = MetricTree()
    t.add_vertex(0)
    for v in range(1, n):
        t.add_vertex(v)
        t.add_edge(rng.randrange(v), v, Fraction(rng.randrange(1, 9), 2))
    return t


class TestMetricTree:
    def test_path_and_dist(self):
        t = MetricTree.from_path([0, 1, 2], [Fraction(1), Fraction(2)])
        assert t.path(0, 2) == [0, 1, 2]
        assert t.dist(0, 2) == 3

    def test_subdivide(self):
        t = MetricTree.from_path([0, 1], [Fraction(2)])
        t.subdivide(0, 1, 5, Fraction(1, 2))
        assert t.dist(0, 5) == Fraction(1, 2)
        assert t.dist(5, 1) == Fraction(3, 2)
        assert t.is_tree()

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
        # order as add_vertex/add_edge over other.edges().
        base = build_random_tree(4, seed + 10)
        other = build_random_tree(6, seed)
        ids = {v: (0 if v == 3 else 10 + (v * 7) % 13) for v in other.vertices()}
        want = base.copy()
        for v in other.vertices():
            want.add_vertex(ids[v])
        for (a, b, w) in other.edges():
            want.add_edge(ids[a], ids[b], w)
        got = base.copy()
        got.graft(other, ids)
        assert [(v, list(n.items())) for v, n in got.adj.items()] == [
            (v, list(n.items())) for v, n in want.adj.items()
        ]
        assert got.is_tree()

    @pytest.mark.parametrize("seed", range(5))
    def test_tick_dists_match_fraction_sums(self, seed):
        t = build_random_tree(9, seed)
        D, dist = t.tick_dists(t.vertices())
        for u in t.vertices():
            for v in t.vertices():
                assert Fraction(dist[u][v], D) == t.dist(u, v)

    @pytest.mark.parametrize("seed", range(5))
    def test_dist_from_matches_pairwise(self, seed):
        t = build_random_tree(8, seed)
        d0 = t.dist_from(0)
        for v in t.vertices():
            assert d0[v] == t.dist(0, v)


class TestGlue:
    def test_glue_tree_with_copy_is_isometric(self):
        t = build_random_tree(6, 1)
        out, mapping = glue(t, t.copy(), 0, 3, 0, 3)
        for u in t.vertices():
            for v in t.vertices():
                assert out.dist(u, v) == t.dist(u, v)
                assert out.dist(mapping[u], mapping[v]) == t.dist(u, v)

    def test_glue_two_unit_edges(self):
        t1 = MetricTree.from_path([0, 1], [Fraction(1)])
        t2 = MetricTree.from_path([0, 1], [Fraction(1)])
        out, mapping = glue(t1, t2, 0, 1, 0, 1)
        assert len(out.vertices()) == 2
        assert out.dist(0, 1) == 1
        assert mapping[0] == 0 and mapping[1] == 1

    def test_glue_length_mismatch(self):
        t1 = MetricTree.from_path([0, 1], [Fraction(1)])
        t2 = MetricTree.from_path([0, 1], [Fraction(2)])
        with pytest.raises(LengthMismatch):
            glue(t1, t2, 0, 1, 0, 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_glue_preserves_both_inputs(self, seed):
        rng = random.Random(seed)
        t1 = build_random_tree(7, seed)
        t2 = build_random_tree(7, seed + 100)
        u1, v1 = rng.sample(t1.vertices(), 2)
        u2, v2 = rng.sample(t2.vertices(), 2)
        d = t1.dist(u1, v1)
        if t2.dist(u2, v2) != d:
            # Stretch one t2 edge on the glue path to match lengths.
            p = t2.path(u2, v2)
            w0 = t2.adj[p[0]][p[1]]
            need = d - (t2.dist(u2, v2) - w0)
            if need <= 0:
                return
            t2.remove_edge(p[0], p[1])
            t2.add_edge(p[0], p[1], need)
        out, mapping = glue(t1, t2, u1, v1, u2, v2)
        assert out.is_tree()
        for a in t1.vertices():
            for b in t1.vertices():
                assert out.dist(a, b) == t1.dist(a, b)
        for a in t2.vertices():
            for b in t2.vertices():
                assert out.dist(mapping[a], mapping[b]) == t2.dist(a, b)


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
