import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flatten, make_cycle, random_reduced_graph, slack_cycle
from faceflow.errors import ChordTooLong, NotBiconnected, NotOuterplanar
from faceflow.graph import (
    Cycle,
    MetricGraph,
    PlanarInstance,
    all_pairs_distances,
    biconnected_components,
    connected_components,
    diameter,
    distance_ticks,
    ear_decomposition,
    find_outer_cycle,
    is_outerplanar,
    is_planar,
    is_reduced,
    norm_edge,
    reduce_lengths,
    slack_transform,
)
from faceflow.instances import cycle_instance, random_outerplanar


def replay(build, n: int) -> MetricGraph:
    """Reconstruct the graph an outerplanar build describes."""
    edges: dict[tuple[int, int], Fraction] = {}

    def add_path(vs, ws):
        for i in range(len(ws)):
            edges[norm_edge(vs[i], vs[i + 1])] = Fraction(ws[i])

    add_path(build.initial_vertices, build.initial_lengths)
    for step in build.steps:
        e = norm_edge(*step.attach_edge)
        if e not in edges:
            raise ValueError(f"ear attached to missing edge {e}")
        if {step.path_vertices[0], step.path_vertices[-1]} != set(e):
            raise ValueError("ear endpoints do not match its attach edge")
        add_path(step.path_vertices, step.path_lengths)
    return MetricGraph(n, tuple((u, v, w) for (u, v), w in edges.items()))


def backtrack_outer_cycle(g):
    """Reference: the Hamiltonian cycle from vertex 0 found by depth-first
    backtracking over sorted neighbours.  Exponential in the worst case."""
    adj = {v: sorted(u for (u, _) in nbrs) for v, nbrs in g.adjacency().items()}
    path = [0]
    used = {0}

    def bt() -> bool:
        if len(path) == g.n:
            return 0 in adj[path[-1]]
        for u in adj[path[-1]]:
            if u not in used:
                used.add(u)
                path.append(u)
                if bt():
                    return True
                path.pop()
                used.remove(u)
        return False

    return path if bt() else None


class TestMetricGraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            MetricGraph(2, ((0, 0, Fraction(1)),))

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            MetricGraph(2, ((0, 1, Fraction(1)), (1, 0, Fraction(2))))

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            MetricGraph(2, ((0, 1, Fraction(-1)),))

    def test_zero_length_allowed(self):
        g = MetricGraph(2, ((0, 1, Fraction(0)),))
        assert all_pairs_distances(g)[0][1] == 0


class TestDistances:
    def test_path(self, path3):
        assert all_pairs_distances(path3)[0][2] == 2

    def test_disconnected_is_infinite(self):
        g = MetricGraph(2, ())
        assert all_pairs_distances(g)[0][1] == math.inf

    def test_c4_opposite_brute(self, c4):
        d = all_pairs_distances(c4)
        # Brute force over the two simple routes of the 4-cycle.
        assert d[0][2] == min(1 + 1, 1 + 1) == 2
        assert d[1][3] == 2

    def test_diameter(self, c6):
        assert diameter(c6) == 3

    def test_distance_ticks(self):
        # Two components: 0-1-2 with lengths 1/3, 3/4 and 3-4 with 5/6.
        g = MetricGraph(5, (
            (0, 1, Fraction(1, 3)), (1, 2, Fraction(3, 4)),
            (3, 4, Fraction(5, 6)),
        ))
        d = all_pairs_distances(g)
        ticks, L = distance_ticks(g)
        assert L == 12
        for i in range(5):
            for j in range(5):
                if d[i][j] == math.inf:
                    assert ticks[i][j] == math.inf
                else:
                    assert type(ticks[i][j]) is int
                    assert Fraction(ticks[i][j], L) == d[i][j]


class TestViews:
    """Distances, ticks and components are built once per graph and
    shared; they play no part in equality or hashing."""

    GRAPHS = {
        "two-components": MetricGraph(6, (
            (0, 1, Fraction(1, 3)), (1, 2, Fraction(3, 4)),
            (3, 4, Fraction(5, 6)),
        )),
        "c6": cycle_instance(6),
        "outer8": random_outerplanar(8, 1)[0],
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_views_are_shared_and_exact(self, name):
        g = self.GRAPHS[name]
        fresh = MetricGraph(g.n, g.edges)
        for view, build in (
            ("distances", all_pairs_distances),
            ("ticks", distance_ticks),
            ("components", connected_components),
        ):
            first = getattr(g, view)()
            assert getattr(g, view)() is first
            assert first == build(fresh)

    def test_components_ordered_by_smallest_vertex(self):
        g = self.GRAPHS["two-components"]
        assert g.components() == [{0, 1, 2}, {3, 4}, {5}]
        assert connected_components(g, {2, 0, 4, 3}) == [{0}, {2}, {3, 4}]

    def test_views_leave_equality_and_hash_alone(self):
        g = cycle_instance(6)
        other = MetricGraph(g.n, g.edges)
        g.distances(), g.ticks(), g.components()
        assert g == other and hash(g) == hash(other)
        assert {g: 1}[other] == 1
        assert other != g.scaled(2)


class TestReduce:
    def test_triangle_long_edge(self):
        g = MetricGraph(
            3, ((0, 1, Fraction(1)), (1, 2, Fraction(1)), (0, 2, Fraction(5)))
        )
        r = reduce_lengths(g)
        assert r.edge_lengths()[(0, 2)] == 2

    def test_reduced_fixed_point(self, c4):
        assert reduce_lengths(c4).edges == c4.edges

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        g = random_reduced_graph(6, seed)
        assert reduce_lengths(g).edges == g.edges
        assert is_reduced(g)


class TestBiconnected:
    def test_tree_blocks_are_edges(self, path3):
        blocks, cuts = biconnected_components(path3)
        assert sorted(sorted(b) for b in blocks) == [[0, 1], [1, 2]]
        assert cuts == {1}

    def test_cycle_single_block(self, c6):
        blocks, cuts = biconnected_components(c6)
        assert len(blocks) == 1 and not cuts

    def test_two_triangles_share_vertex(self):
        g = MetricGraph(
            5,
            tuple(
                (u, v, Fraction(1))
                for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
            ),
        )
        blocks, cuts = biconnected_components(g)
        assert len(blocks) == 2
        assert cuts == {2}
        # Brute-force articulation check: removing 2 disconnects.
        sub = MetricGraph(
            5, tuple((u, v, w) for (u, v, w) in g.edges if 2 not in (u, v))
        )
        d = all_pairs_distances(sub)
        assert d[0][3] == math.inf


class TestPlanarity:
    def test_k4_planar_not_outerplanar(self):
        k4 = MetricGraph(
            4,
            tuple(
                (u, v, Fraction(1))
                for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
            ),
        )
        assert is_planar(k4)
        assert not is_outerplanar(k4)

    def test_k5_not_planar(self):
        k5 = MetricGraph(
            5,
            tuple(
                (u, v, Fraction(1))
                for u in range(5)
                for v in range(u + 1, 5)
            ),
        )
        assert not is_planar(k5)

    def test_cycle_outerplanar(self, c6):
        assert is_outerplanar(c6)

    def test_find_outer_cycle(self, c6):
        cyc = find_outer_cycle(c6)
        assert sorted(cyc) == list(range(6))

    def test_outer_cycle_needs_biconnected(self, path3):
        with pytest.raises(NotBiconnected):
            find_outer_cycle(path3)

    def test_outer_cycle_rejects_k4(self):
        # K4 has Hamiltonian cycles but is not outerplanar.
        k4 = MetricGraph(
            4, tuple((u, v, Fraction(1)) for u in range(4) for v in range(u + 1, 4))
        )
        with pytest.raises(NotOuterplanar):
            find_outer_cycle(k4)

    @given(st.integers(3, 10), st.integers(0, 10**6), st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_outer_cycle_matches_backtracking(self, n, seed, rnd):
        g, _ = random_outerplanar(n, seed)
        perm = list(range(n))
        rnd.shuffle(perm)
        g = g.with_edges((perm[u], perm[v], w) for (u, v, w) in g.edges)
        cyc = find_outer_cycle(g)
        assert cyc == backtrack_outer_cycle(g)
        assert sorted(cyc) == list(range(n))
        edges = {(u, v) for (u, v, _) in g.edges}
        assert all(
            tuple(sorted((cyc[i], cyc[i - 1]))) in edges for i in range(n)
        )


class TestEarDecomposition:
    def test_path_no_steps(self, path3):
        build = ear_decomposition(path3)
        assert build.steps == ()
        assert replay(build, 3).edges == path3.edges

    def test_c4_replay(self, c4):
        build = ear_decomposition(c4)
        assert len(build.steps) == 1
        assert set(replay(build, 4).edges) == set(c4.edges)

    def test_c4_chord_replay(self):
        g = MetricGraph(
            4,
            tuple(
                (u, v, Fraction(1))
                for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)]
            )
            + ((0, 2, Fraction(1)),),
        )
        g = reduce_lengths(g)
        build = ear_decomposition(g)
        assert len(build.steps) == 2
        assert set(replay(build, 4).edges) == set(g.edges)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_outerplanar_replay(self, seed):
        g, _ = random_outerplanar(7, seed)
        g = reduce_lengths(g)
        build = ear_decomposition(g)
        assert set(replay(build, 7).edges) == set(g.edges)


class TestSlackTransform:
    def test_path_only_rescaled(self, path3):
        h, _ = slack_transform(path3, 160)
        assert {e[:2] for e in h.edges} == {e[:2] for e in path3.edges}
        assert h.edge_lengths()[(0, 1)] == Fraction(1, 160)

    def test_unit_triangle_loses_an_edge(self):
        g = cycle_instance(3)
        h, _ = slack_transform(g, 160)
        assert len(h.edges) == 2
        dg = all_pairs_distances(g)
        dh = all_pairs_distances(h)
        for u in range(3):
            for v in range(3):
                assert dg[u][v] >= dh[u][v] >= dg[u][v] / 160

    @pytest.mark.parametrize("seed", range(8))
    def test_postconditions_random(self, seed):
        g, _ = random_outerplanar(7, seed)
        g = reduce_lengths(g)
        h, builds = slack_transform(g, 2)
        assert is_reduced(h)
        orig = {e[:2] for e in g.edges}
        assert {e[:2] for e in h.edges} <= orig
        dg = all_pairs_distances(g)
        dh = all_pairs_distances(h)
        for u in range(7):
            for v in range(7):
                assert dg[u][v] >= dh[u][v] >= dg[u][v] / 2
        lengths = h.edge_lengths()
        for build in builds:
            for step in build.steps:
                e = tuple(sorted(step.attach_edge))
                assert step.length >= 2 * lengths[e]

    def test_slack_cycle_survives(self):
        g = slack_cycle(6)
        h, builds = slack_transform(g, 160)
        assert len(h.edges) == 6
        lengths = h.edge_lengths()
        for build in builds:
            for step in build.steps:
                e = tuple(sorted(step.attach_edge))
                assert step.length >= 160 * lengths[e]


class TestCycleGeometry:
    def test_make_cycle_circumference(self):
        c = make_cycle([0, 1], [Fraction(10)], Fraction(2))
        assert c.circumference == 12

    def test_zero_chord_degenerate(self):
        c = make_cycle([0, 1], [Fraction(3)], Fraction(0))
        assert c.dist(0, 1) == 0

    def test_unit_path_unit_chord(self):
        c = make_cycle([0, 1], [Fraction(1)], Fraction(1))
        assert c.dist(0, 1) == 1
        assert c.circumference == 2

    def test_chord_too_long(self):
        with pytest.raises(ChordTooLong):
            make_cycle([0, 1], [Fraction(1)], Fraction(2))

    def test_flatten_formula(self):
        c = Cycle(Fraction(10), {0: Fraction(0), 1: Fraction(3), 2: Fraction(9)})
        f = flatten(c, Fraction(0))
        assert f.positions[1] == 3
        assert f.positions[2] == 1
        assert f.dist(1, 2) == 2
        assert c.dist(1, 2) == 4

    def test_flatten_identity(self):
        c = Cycle(Fraction(10), {0: Fraction(4)})
        f = flatten(c, Fraction(1))
        assert f.dist(0, 0) == 0

    def test_flat_preserves_far_band(self):
        """If x, y stay within beta len(C) of a and the basepoint b is in
        the middle band, flattening at b preserves d_C(x, y)."""
        import random

        rng = random.Random(7)
        beta = Fraction(1, 8)
        checked = 0
        while checked < 400:
            circ = Fraction(rng.randrange(1, 200), rng.randrange(1, 20))
            pts = {
                i: circ * Fraction(rng.randrange(10_000), 10_000)
                for i in range(4)
            }
            c = Cycle(circ, pts)
            a, b, x, y = pts[0], pts[1], 2, 3
            if max(c.dist_pos(pts[2], a), c.dist_pos(pts[3], a)) > beta * circ:
                continue
            dab = c.dist_pos(a, b)
            if not (beta * circ <= dab <= (Fraction(1, 2) - beta) * circ):
                continue
            f = flatten(c, b)
            assert f.dist(x, y) == c.dist(x, y)
            checked += 1


class TestPlanarInstance:
    def test_valid_cycle_face(self, c6):
        inst = PlanarInstance(c6, tuple(range(6)))
        assert inst.validate() == []

    def test_face_with_repeats_rejected(self, c6):
        inst = PlanarInstance(c6, (0, 1, 2, 3, 4, 4))
        assert inst.validate()

    def test_face_missing_edge_rejected(self, c6):
        inst = PlanarInstance(c6, (0, 2, 1, 3, 4, 5))
        assert inst.validate()

    def test_non_reduced_rejected(self):
        g = MetricGraph(
            3, ((0, 1, Fraction(1)), (1, 2, Fraction(1)), (0, 2, Fraction(5)))
        )
        inst = PlanarInstance(g, (0, 1, 2))
        assert inst.validate()
