import dataclasses
import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import slack_cycle
from faceflow.config import DEFAULT_CONFIG
from faceflow.errors import ChordTooLong, InvariantViolation, NotOuterplanar
from faceflow.graph import (
    MetricGraph,
    all_pairs_distances,
    frac,
    make_cycle,
    norm_edge,
    reduce_lengths,
    slack_transform,
)
from faceflow.instances import cycle_instance, random_outerplanar
from faceflow import treeembed
from faceflow.tree import MetricTree, TreeMap
from faceflow.treeembed import (
    EmbedState,
    anchor_points,
    embed_outerplanar,
    embed_sampler,
    is_star_shaped,
    is_thin,
    random_extension,
    thin_number,
)

F = Fraction


def check_good_vertex_exists(
    g: MetricGraph, outer_cycle, p, edge: tuple[int, int]
):
    """One endpoint of an outer-face edge always satisfies the one-sided
    neighbor condition in the outer-cycle pseudometric; return it."""
    order = list(outer_cycle)
    lengths = g.edge_lengths()
    pos: dict[int, Fraction] = {}
    cur = Fraction(0)
    for i, x in enumerate(order):
        pos[x] = cur
        nxt = order[(i + 1) % len(order)]
        cur += lengths[norm_edge(x, nxt)]
    circ = cur

    def d_c(a: Fraction, b: Fraction) -> Fraction:
        d = abs(a - b)
        return min(d, circ - d)

    p = frac(p)
    u, v = edge
    if d_c(p, pos[u]) > d_c(p, pos[v]):
        u, v = v, u
    if all(d_c(p, pos[w]) >= d_c(p, pos[u]) for w in g.neighbors(v)):
        return v
    if all(d_c(p, pos[w]) <= d_c(p, pos[v]) for w in g.neighbors(u)):
        return u
    raise InvariantViolation(f"no good endpoint for edge {edge} at position {p}")


class FakeRng:
    """random.Random stand-in with scripted randrange values."""

    def __init__(self, values, coin=0.0):
        self.values = list(values)
        self.coin = coin

    def randrange(self, n):
        return self.values.pop(0) if self.values else 0

    def random(self):
        return self.coin


class TestAnchorPoints:
    def test_worked_example_unit_cycle(self, monkeypatch):
        # Circumference 1 with chord ratio delta = 1/160; the grid is
        # sized so the scripted draw lands exactly on eta = 1/100.
        path_len = F(160, 161)
        chord = F(1, 161)
        c = make_cycle([0, 1], [path_len], chord)
        monkeypatch.setattr(
            treeembed, "DEFAULT_CONFIG",
            dataclasses.replace(DEFAULT_CONFIG, anchor_grid=54),
        )
        rng = FakeRng([26])
        p, q = anchor_points(c, 0, 1, {F(0), path_len}, 1, rng)
        # Offsets from the formulas with alpha = 1/72, beta = 1/16.
        assert c.dist_pos(p, c.points[0]) == F(1, 4) + F(1, 48) - F(1, 100)
        assert c.dist_pos(p, c.points[0]) == F(313, 1200)
        assert c.dist_pos(q, c.points[0]) == F(1, 2) - F(1, 100) - F(1, 16)
        assert c.dist_pos(q, c.points[0]) == F(171, 400)
        assert c.dist_pos(p, q) == F(1, 6)

    def test_chord_ratio_too_large(self):
        c = make_cycle([0, 1], [F(10)], F(1))
        with pytest.raises(ChordTooLong):
            anchor_points(c, 0, 1, set(), 1, random.Random(1))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_draws_sixth_apart(self, seed):
        c = make_cycle([0, 1, 2], [F(80), F(80)], F(1))
        rng = random.Random(seed)
        p, q = anchor_points(c, 0, 2, {F(0), F(80), F(160)}, 2, rng)
        assert c.dist_pos(p, q) == c.circumference / 6

    def test_forbidden_collision_forces_resample(self):
        c = make_cycle([0, 1, 2], [F(80), F(80)], F(1))
        seen = []
        for seed in range(40):
            p, q = anchor_points(
                c, 0, 2, {F(0), F(80), F(160)}, 2, random.Random(seed)
            )
            seen.append((p, q))
        assert len(set(seen)) > 1  # eta really is random


def two_vertex_state():
    """Fresh state embedding the single attach edge (0, 1) of length 1."""
    g = MetricGraph(
        3, ((0, 1, F(1)), (0, 2, F(80)), (1, 2, F(80)))
    )
    tree = MetricTree.from_path([0, 1], [F(1)])
    return EmbedState(
        tree=tree,
        mapping={0: 0, 1: 1},
        embedded={0, 1},
        graph=g,
        block=frozenset({0, 1, 2}),
    )


class TestRandomExtension:
    @pytest.mark.parametrize("seed", range(20))
    def test_long_ear_both_outcomes_lipschitz(self, seed):
        state = two_vertex_state()
        random_extension(
            state, [0, 2, 1], [F(80), F(80)], (0, 1), random.Random(seed)
        )
        tm = TreeMap(state.tree, state.mapping, state.graph, root=0)
        assert tm.is_lipschitz()
        assert 2 in state.embedded

    @pytest.mark.parametrize("seed", range(20))
    def test_existing_distances_unchanged(self, seed):
        state = two_vertex_state()
        before = state.tree.dist(0, 1)
        random_extension(
            state, [0, 2, 1], [F(80), F(80)], (0, 1), random.Random(seed)
        )
        assert state.tree.dist(state.mapping[0], state.mapping[1]) == before

    def test_zero_chord_degenerate(self):
        g = MetricGraph(3, ((0, 1, F(0)), (0, 2, F(1)), (1, 2, F(1))))
        tree = MetricTree()
        tree.add_vertex(0)
        state = EmbedState(
            tree=tree,
            mapping={0: 0, 1: 0},
            embedded={0, 1},
            graph=g,
            block=frozenset({0, 1, 2}),
            )
        random_extension(
            state, [0, 2, 1], [F(1), F(1)], (0, 1), random.Random(4)
        )
        tm = TreeMap(state.tree, state.mapping, g, root=0)
        assert tm.is_lipschitz()
        assert state.tree.dist(state.mapping[0], state.mapping[1]) == 0


class TestEmbedOuterplanar:
    def test_path_identity_up_to_scale(self):
        g = MetricGraph(4, tuple((i, i + 1, F(2)) for i in range(3)))
        tm = embed_outerplanar(g, 5)
        d = all_pairs_distances(g)
        for u in range(4):
            for v in range(4):
                assert tm.tree.dist(tm.mapping[u], tm.mapping[v]) == d[u][v] / 160

    def test_single_edge(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        tm = embed_outerplanar(g, 1)
        assert tm.tree.dist(tm.mapping[0], tm.mapping[1]) == F(1, 160)

    def test_rejects_non_outerplanar(self):
        k4 = MetricGraph(
            4,
            tuple(
                (u, v, F(1))
                for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
            ),
        )
        with pytest.raises(NotOuterplanar):
            embed_outerplanar(k4, 0)

    def test_rejects_disconnected(self):
        g = MetricGraph(3, ((0, 1, F(1)),))
        with pytest.raises(ValueError):
            embed_outerplanar(g, 0)

    @pytest.mark.parametrize("seed", range(30))
    def test_invariants_slack_cycle(self, seed):
        tm = embed_outerplanar(slack_cycle(6), seed)
        assert tm.is_lipschitz()
        assert is_star_shaped(tm)
        assert tm.tree.is_tree()

    @pytest.mark.parametrize("seed", range(15))
    def test_invariants_random_outerplanar(self, seed):
        g, _ = random_outerplanar(7, seed)
        tm = embed_outerplanar(g, seed)
        assert tm.is_lipschitz()
        assert is_star_shaped(tm)
        # These draws are also star-shaped on every edge of the input.
        assert is_star_shaped(tm.with_source(reduce_lengths(g)))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(7, 9), st.integers(0, 10**6), st.integers(1, 4),
        st.integers(0, 10**6),
    )
    def test_source_is_the_slack_graph(self, n, graph_seed, chords, seed):
        # The map's guarantees cover exactly the slack graph's edges.
        g, _ = random_outerplanar(n, graph_seed, extra_chords=chords)
        assert len(g.edges) > n
        h, _ = slack_transform(reduce_lengths(g), DEFAULT_CONFIG.slack_alpha)
        tm = embed_sampler(g)(seed)
        assert sorted(tm.source.edges) == sorted(h.edges)
        assert tm.is_lipschitz()
        assert is_star_shaped(tm)

    def test_sampler_draws_match_one_shot_calls(self):
        # Two blocks joined at a cut vertex: a slack cycle on 0..5 and a
        # triangle on 5, 6, 7.
        edges = list(slack_cycle(6).edges) + [
            (5, 6, F(1)), (6, 7, F(1)), (5, 7, F(1, 128)),
        ]
        g = MetricGraph(8, tuple(edges))
        samp = embed_sampler(g)
        drawn = {seed: samp(seed) for seed in (4, 0, 2, 0)}
        for seed in sorted(drawn):
            one = embed_outerplanar(g, seed)
            tm = drawn[seed]
            assert (tm.root, tm.mapping) == (one.root, one.mapping)
            assert list(tm.tree.adj.items()) == list(one.tree.adj.items())

    def test_c6_contraction_quick(self):
        g = cycle_instance(6)
        samp = embed_sampler(g)
        d = all_pairs_distances(g)
        n_samples = 300
        worst = None
        pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        sums = {p: F(0) for p in pairs}
        for i in range(n_samples):
            tm = samp(i)
            for (u, v) in pairs:
                sums[(u, v)] += tm.tree.dist(tm.mapping[u], tm.mapping[v])
        for (u, v) in pairs:
            ratio = sums[(u, v)] / n_samples / d[u][v]
            worst = ratio if worst is None or ratio < worst else worst
        assert worst >= F(1, 960)


class TestStarShaped:
    def test_identity_path(self):
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        t = MetricTree.from_path([0, 1, 2], [F(1), F(1)])
        tm = TreeMap(t, {0: 0, 1: 1, 2: 2}, g, root=0)
        assert is_star_shaped(tm)

    def spider_tree(self, legs):
        t = MetricTree()
        t.add_vertex(100)
        for i in range(legs):
            t.add_vertex(i)
            t.add_edge(100, i, F(1))
        return t

    def test_branch_midway_is_fine(self):
        # One graph edge realized through a third tree vertex: still a
        # (single-arm) star.
        g = MetricGraph(2, ((0, 1, F(2)),))
        t = self.spider_tree(2)
        tm = TreeMap(t, {0: 0, 1: 1}, g, root=0)
        assert is_star_shaped(tm)

    def test_degree_three_off_center_fails(self):
        # Three leaves; edges (0,1) and (0,2) force a degree-3 vertex at
        # the spider center, which is not an image vertex.
        g = MetricGraph(3, ((0, 1, F(2)), (0, 2, F(2)), (1, 2, F(2))))
        t = self.spider_tree(3)
        tm = TreeMap(t, {0: 0, 1: 1, 2: 2}, g, root=0)
        assert not is_star_shaped(tm)

    @pytest.mark.parametrize("seed", range(10))
    def test_embed_outputs_always_star_shaped(self, seed):
        g, _ = random_outerplanar(6, seed + 50)
        assert is_star_shaped(embed_outerplanar(g, seed))


class TestThinness:
    def test_identity_path_two_thin(self):
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        t = MetricTree.from_path([0, 1, 2], [F(1), F(1)])
        tm = TreeMap(t, {0: 0, 1: 1, 2: 2}, g, root=0)
        assert thin_number(tm, 1) == 2
        assert is_thin(tm, 2)

    def test_four_leaf_spider(self):
        g = MetricGraph(5, tuple((0, i, F(1)) for i in range(1, 5)))
        t = MetricTree()
        t.add_vertex(10)
        for i in range(1, 5):
            t.add_vertex(i)
            t.add_edge(10, i, F(1))
        tm = TreeMap(t, {0: 10, 1: 1, 2: 2, 3: 3, 4: 4}, g, root=10)
        assert thin_number(tm, 0) == 4
        assert is_thin(tm, 4)
        assert not is_thin(tm, 3)


class TestGoodVertex:
    def test_chordless_cycle_any_endpoint(self):
        g = cycle_instance(5)
        cyc = list(range(5))
        out = check_good_vertex_exists(g, cyc, F(1, 2), (1, 2))
        assert out in (1, 2)

    def test_c4_with_chord_exhaustive(self):
        g = reduce_lengths(
            MetricGraph(
                4,
                tuple(
                    (u, v, F(1))
                    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
                ),
            )
        )
        cyc = [0, 1, 2, 3]
        for e in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            for k in range(16):
                check_good_vertex_exists(g, cyc, F(k, 4), e)

    def test_all_small_outerplanar(self):
        # Every cycle length up to 6 with every non-crossing chord set,
        # unit lengths: a good endpoint always exists.
        for n in range(4, 7):
            chords = [
                (i, j)
                for i in range(n)
                for j in range(i + 2, n)
                if not (i == 0 and j == n - 1)
            ]
            for r in range(3):
                for sub in itertools.combinations(chords, r):
                    if any(
                        (a < c < b < d) or (c < a < d < b)
                        for (a, b) in sub
                        for (c, d) in sub
                    ):
                        continue
                    edges = [(i, (i + 1) % n, F(1)) for i in range(n)]
                    edges += [(a, b, F(1)) for (a, b) in sub]
                    g = MetricGraph(n, tuple(edges))
                    cyc = list(range(n))
                    for e in [(i, (i + 1) % n) for i in range(n)]:
                        for k in range(2 * n):
                            check_good_vertex_exists(g, cyc, F(k, 2), e)


class TestSamplerBuild:
    @pytest.mark.parametrize(
        "g", [slack_cycle(8), random_outerplanar(8, 0)[0]], ids=["slack8", "outer8-0"]
    )
    def test_one_planarity_test_per_build(self, g, monkeypatch):
        # The slack transform and every block's ear build reuse the one
        # apex embedding of g.
        calls = []
        check = nx.check_planarity

        def counting(*args, **kwargs):
            calls.append(args[0].number_of_nodes())
            return check(*args, **kwargs)

        monkeypatch.setattr(nx, "check_planarity", counting)
        embed_sampler(g)
        assert calls == [g.n + 1]
