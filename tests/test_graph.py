import math
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flatten, make_cycle, random_reduced_graph, reference_dijkstra, slack_cycle
from faceflow import graph
from faceflow.errors import ChordTooLong, FaceflowError, NotBiconnected, NotOuterplanar
from faceflow.graph import (
    BuildStep,
    Cycle,
    MetricGraph,
    OuterplanarBuild,
    PlanarInstance,
    _block_cycle,
    _outer_ring,
    all_pairs_distances,
    biconnected_components,
    connected_components,
    diameter,
    distance_ticks,
    ear_decomposition,
    find_outer_cycle,
    frac,
    induced_subgraph,
    int_distances,
    is_biconnected,
    is_outerplanar,
    is_planar,
    is_reduced,
    norm_edge,
    reduce_lengths,
    slack_transform,
)
from faceflow.instances import cycle_instance, random_outerplanar, random_tree


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

    @pytest.mark.gate
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            unique_by=lambda e: frozenset(e), max_size=20,
        ),
    )))
    def test_incident_is_the_edge_scan(self, graph):
        # Edges given in any order and orientation, isolated vertices
        # included: incident(v) is the scan of the normalised edges.
        n, pairs = graph
        g = MetricGraph(n, tuple((u, v, Fraction(1)) for (u, v) in pairs))
        for v in range(n):
            assert g.incident(v) == [(a, b) for (a, b, _) in g.edges if v in (a, b)]


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


@st.composite
def rational_graphs(draw):
    """Graphs of 0 to 9 vertices, isolated vertices and several components
    included, with lengths of several denominators, zero among them."""
    n = draw(st.integers(0, 9))
    pairs = [] if n < 2 else draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]
        ),
        unique_by=lambda e: frozenset(e), max_size=14,
    ))
    lengths = st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12]))
    return MetricGraph(n, tuple((u, v, draw(lengths)) for (u, v) in pairs))


@pytest.mark.gate
class TestIntDistancesMatchReference:
    """Distances, ticks and the diameter, read off one int Dijkstra per
    source, equal what the Fraction Dijkstra gives."""

    @staticmethod
    def check(g: MetricGraph):
        adj = g.adjacency()
        rows = [reference_dijkstra(adj, s) for s in range(g.n)]
        ref = [[row.get(t, math.inf) for t in range(g.n)] for row in rows]
        assert g.distances() == ref
        finite = [d for row in ref for d in row if d != math.inf]
        ticks, L = g.ticks()
        assert L == math.lcm(*(d.denominator for d in finite))
        assert all(t == math.inf or type(t) is int for row in ticks for t in row)
        assert [[t if t == math.inf else Fraction(t, L) for t in row] for row in ticks] == ref
        assert diameter(g) == max(finite, default=Fraction(0))

    @settings(max_examples=200, deadline=None)
    @given(rational_graphs())
    def test_random_graphs(self, g):
        self.check(g)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_no_edges(self, n):
        g = MetricGraph(n, ())
        self.check(g)
        assert g.ticks() == ([[0 if i == j else math.inf for j in range(n)] for i in range(n)], 1)


class TestViews:
    """Int distances, distances, ticks and components are built once per
    graph and shared; they play no part in equality or hashing."""

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
            ("int_distances", int_distances),
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
        blocks = biconnected_components(path3)
        assert sorted(sorted(b) for b in blocks) == [[0, 1], [1, 2]]

    def test_cycle_single_block(self, c6):
        blocks = biconnected_components(c6)
        assert len(blocks) == 1

    def test_two_triangles_share_vertex(self):
        g = MetricGraph(
            5,
            tuple(
                (u, v, Fraction(1))
                for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
            ),
        )
        blocks = biconnected_components(g)
        assert len(blocks) == 2


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


def _permuted(g: MetricGraph, rnd: random.Random) -> MetricGraph:
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return g.with_edges((perm[u], perm[v], w) for (u, v, w) in g.edges)


def _glued(pieces, seed: int) -> MetricGraph:
    """The pieces joined into one graph: each later piece shares one vertex
    with the graph so far, or hangs from it by a bridge."""
    rng = random.Random(f"glued:{seed}")
    n, edges = pieces[0].n, list(pieces[0].edges)
    for p in pieces[1:]:
        at, share = rng.randrange(n), rng.randrange(p.n)
        if rng.random() < 0.3:
            edges.append((at, n + share, Fraction(1)))
            share = None
        ids, k = {}, n
        for v in range(p.n):
            if v == share:
                ids[v] = at
            else:
                ids[v], k = k, k + 1
        edges += [(ids[u], ids[v], w) for (u, v, w) in p.edges]
        n = k
    return _permuted(MetricGraph(n, tuple(edges)), rng)


def _subdivided(g: MetricGraph, times: int, seed: int) -> MetricGraph:
    """g with ``times`` random edges replaced by paths of two edges."""
    rng = random.Random(f"subdivide:{seed}")
    n, edges = g.n, list(g.edges)
    for _ in range(times):
        u, v, w = edges.pop(rng.randrange(len(edges)))
        edges += [(u, n, w), (n, v, w)]
        n += 1
    return MetricGraph(n, tuple(edges))


def _complete(n: int) -> MetricGraph:
    return MetricGraph(n, tuple((u, v, 1) for u in range(n) for v in range(u + 1, n)))


K23 = MetricGraph(5, tuple((u, v, 1) for u in (0, 1) for v in (2, 3, 4)))


def _outerplanar_pieces(seed: int) -> list[MetricGraph]:
    rng = random.Random(f"pieces:{seed}")
    pieces = []
    for _ in range(rng.randrange(1, 5)):
        n = rng.randrange(1, 8)
        if n <= 2:
            pieces.append(MetricGraph(n, ((0, 1, Fraction(1, 2)),) if n == 2 else ()))
        else:
            pieces.append(random_outerplanar(n, rng.randrange(10**6))[0])
    return pieces


def check_ring_against_reference(g: MetricGraph, sub=None):
    """The ring, the verdicts and every block's outer cycle equal the
    networkx reference's; so do the cycles of the blocks of ``sub``, a
    subgraph of g, read off g's ring."""
    ring, ref = _outer_ring(g), reference_outer_ring(g)
    assert is_outerplanar(g) == (ref is not None)
    assert (ring is None) == (ref is None)
    biconnected = is_biconnected(g)
    assert biconnected == reference_is_biconnected(g)
    if ref is None:
        if biconnected:
            with pytest.raises(NotOuterplanar):
                find_outer_cycle(g)
        return
    assert sorted(ring) == list(range(g.n))
    for h in (g, sub or g):
        for b in biconnected_components(h):
            if len(b) >= 3:
                idx = {v: i for i, v in enumerate(sorted(b))}
                assert _block_cycle(ring, idx) == _block_cycle(ref, idx)
    if biconnected and g.n >= 3:
        assert find_outer_cycle(g) == _block_cycle(ref, {v: v for v in range(g.n)})


@pytest.mark.gate
class TestOuterRingMatchesReference:
    """Degree-2 elimination per block gives the verdicts and the outer
    cycles that networkx's planar embedding of g plus an apex gives."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_random_outerplanar(self, n):
        for seed in range(12):
            rnd = random.Random(f"ring:{n}:{seed}")
            g = _permuted(random_outerplanar(n, seed)[0], rnd)
            kept = [e for e in g.edges if rnd.random() < 0.7]
            check_ring_against_reference(g, g.with_edges(kept))

    @pytest.mark.parametrize("seed", range(40))
    def test_blocks_sharing_cut_vertices(self, seed):
        check_ring_against_reference(_glued(_outerplanar_pieces(seed), seed))

    @pytest.mark.parametrize("base", [_complete(4), K23], ids=["K4", "K23"])
    @pytest.mark.parametrize("times", [0, 1, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_not_outerplanar(self, base, times, seed):
        bad = _subdivided(base, times, seed)
        for g in (bad, _glued([bad] + _outerplanar_pieces(seed), seed)):
            assert not is_outerplanar(g)
            check_ring_against_reference(g)

    @settings(max_examples=200, deadline=None)
    @given(rational_graphs())
    def test_random_graphs(self, g):
        check_ring_against_reference(g)

    def test_empty_graph_ring(self):
        assert _outer_ring(MetricGraph(0, ())) == []


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


# -- reference: the outer ring read off networkx's planar embedding --------


def reference_outer_ring(g: MetricGraph):
    """Rotation of an apex joined to every vertex of g, or None if g is
    not outerplanar.  Every subgraph of g keeps that embedding, so the
    ring restricted to one of its blocks is the block's outer cycle."""
    if not g.n:
        return []  # the apex alone has no rotation to read
    gx = g.to_nx()
    gx.add_edges_from((g.n, v) for v in range(g.n))
    ok, emb = nx.check_planarity(gx)
    return list(emb.neighbors_cw_order(g.n)) if ok else None


def reference_is_biconnected(g: MetricGraph) -> bool:
    if g.n < 3:
        return g.n == 2 and len(g.edges) == 1
    gx = g.to_nx()
    return nx.is_connected(gx) and not list(nx.articulation_points(gx))


# -- reference: the slack transform with a rebuild after its loop --------


def reference_block_build(g: MetricGraph, block: set[int], ring: list[int]):
    """Ear build of the block induced by ``block`` (local ids), with its
    outer cycle read off ``ring``; also returns local id -> vertex."""
    sub, idx = induced_subgraph(g, block)
    face = _block_cycle(ring, idx) if len(block) >= 3 else None
    return ear_decomposition(sub, face), sub, {i: v for v, i in idx.items()}


def reference_block_builds(g: MetricGraph, ring: list[int]) -> list[OuterplanarBuild]:
    """Ear builds of the blocks of g, a subgraph of the graph whose apex
    ring is ``ring``, in original vertex ids.  Each block after the first
    meets the earlier ones in exactly one cut vertex."""
    blocks = biconnected_components(g)
    blocks = [b for b in blocks if len(b) >= 2]
    if not blocks:
        return [OuterplanarBuild((0,) if g.n else (), (), ())]
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
        bd, _, back = reference_block_build(g, b, ring)
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


def reference_block_slack_violations(
    build: OuterplanarBuild, sub: MetricGraph, alpha: Fraction
) -> list[tuple[int, int]]:
    """Edges of a biconnected outerplanar block (local ids) whose ear is
    too short for an alpha-slack structure."""
    lengths = sub.edge_lengths()
    bad = []
    for st in build.steps:
        e = norm_edge(*st.attach_edge)
        if st.length < alpha * lengths[e]:
            bad.append(e)
    return bad


def reference_slack_transform(
    g: MetricGraph, alpha: Fraction
) -> tuple[MetricGraph, list[OuterplanarBuild]]:
    """The slack transform that ran its rounds at scale 1, in networkx's
    block order, and then rebuilt the blocks of the scaled result.  Kept
    as it was (with its block helpers above), except that
    ``biconnected_components`` no longer returns the cut vertices and
    that the ring is networkx's, ``reference_outer_ring``."""
    alpha = frac(alpha)
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    # Outerplanarity is tested once: every graph below is a subgraph of
    # g, so the apex ring of g gives every block's outer cycle.
    ring = reference_outer_ring(g)
    if ring is None:
        raise NotOuterplanar("slack transform needs an outerplanar graph")
    current = reduce_lengths(g)
    while True:
        doomed: set[tuple[int, int]] = set()
        blocks = biconnected_components(current)
        for b in blocks:
            if len(b) < 3:
                continue
            build, sub, back = reference_block_build(current, b, ring)
            for (u, v) in reference_block_slack_violations(build, sub, alpha):
                doomed.add(norm_edge(back[u], back[v]))
        if not doomed:
            break
        current = current.with_edges(
            (u, v, w) for (u, v, w) in current.edges if (u, v) not in doomed
        )
        current = reduce_lengths(current)
    h = current.scaled(Fraction(1) / alpha)
    return h, reference_block_builds(h, ring)


def _bridged_outerplanar(seed: int) -> MetricGraph:
    """Two random outerplanar graphs joined by one bridge."""
    a, _ = random_outerplanar(3 + seed % 5, seed)
    b, _ = random_outerplanar(3 + seed % 4, seed + 100)
    rng = random.Random(f"bridge:{seed}")
    bridge = (rng.randrange(a.n), a.n + rng.randrange(b.n), Fraction(rng.randrange(1, 9), 4))
    edges = a.edges + tuple((u + a.n, v + a.n, w) for (u, v, w) in b.edges) + (bridge,)
    return MetricGraph(a.n + b.n, edges)


def _slack_inputs():
    """(name, graph) pairs: random outerplanar graphs of 3 to 12 vertices,
    cycles, slack cycles, random trees and bridged outerplanar pairs."""
    for n in range(3, 13):
        for seed in range(40):
            yield f"outer{n}-{seed}", random_outerplanar(n, seed)[0]
    for n in range(3, 13):
        yield f"cycle{n}", cycle_instance(n)
        yield f"slack{n}", slack_cycle(n)
        for seed in range(5):
            yield f"tree{n}-{seed}", random_tree(n, seed)
    for seed in range(40):
        yield f"bridged{seed}", _bridged_outerplanar(seed)


def _outcome(transform, g, alpha):
    """The transform's result as plain tuples, or its error's type and
    message."""
    try:
        h, builds = transform(g, alpha)
    except (FaceflowError, ValueError) as exc:
        return ("error", type(exc), str(exc))
    return (
        "ok",
        h.n,
        h.edges,
        [
            (
                bd.initial_vertices,
                bd.initial_lengths,
                [(st.path_vertices, st.path_lengths, st.attach_edge) for st in bd.steps],
            )
            for bd in builds
        ],
    )


@pytest.mark.gate
class TestSlackOnePassMatchesReference:
    """One block pass per round, on the scaled graph, returns exactly what
    the transform that rebuilt the blocks after its loop returned."""

    @pytest.mark.parametrize(
        "alpha", [1, 2, Fraction(7, 2), 160], ids=["1", "2", "7_2", "160"]
    )
    def test_same_graphs_and_builds(self, alpha):
        lost = 0
        for name, g in _slack_inputs():
            got = _outcome(slack_transform, g, alpha)
            assert got[0] == "ok", name
            assert got == _outcome(reference_slack_transform, g, alpha), name
            lost += len(got[2]) < len(g.edges)
        # Above alpha = 1 the cross-check covers deleting rounds too; at 1
        # no ear of a reduced graph is shorter than its attach edge.
        assert (lost > 0) == (alpha > 1)

    @pytest.mark.parametrize(
        "n, seed, alpha", [(6, 189, 5), (7, 195, 3), (7, 195, 5), (12, 57, 5), (12, 151, 3)]
    )
    def test_same_over_two_deleting_rounds(self, n, seed, alpha):
        g, _ = random_outerplanar(n, seed)
        got = _outcome(slack_transform, g, alpha)
        assert got == _outcome(reference_slack_transform, g, alpha)
        assert len(got[2]) < len(g.edges)

    @pytest.mark.parametrize(
        "g, alpha, error",
        [
            (_complete(4), 2, (NotOuterplanar, "slack transform needs an outerplanar graph")),
            (
                MetricGraph(6, cycle_instance(3).edges + ((3, 4, 1), (4, 5, 1))),
                2,
                (ValueError, "graph is disconnected"),
            ),
            (
                MetricGraph(6, slack_cycle(3).edges + ((3, 4, 1), (4, 5, 1))),
                160,
                (ValueError, "graph is disconnected"),
            ),
            (MetricGraph(3, ()), 2, None),
            (cycle_instance(4), Fraction(1, 2), (ValueError, "alpha must be >= 1")),
        ],
        ids=["K4", "two-components", "two-slack-components", "edgeless", "alpha-half"],
    )
    def test_same_errors(self, g, alpha, error):
        got = _outcome(slack_transform, g, alpha)
        assert got == _outcome(reference_slack_transform, g, alpha)
        assert got[0] == ("error" if error else "ok")
        if error:
            assert got[1:] == error

    @pytest.mark.parametrize(
        "g, alpha, rounds",
        [
            (slack_cycle(8), 160, 1),
            (cycle_instance(3), 160, 2),
            (random_outerplanar(6, 189)[0], 5, 3),
        ],
        ids=["slack-cycle", "triangle-loses-one-edge", "two-deleting-rounds"],
    )
    def test_one_block_pass_per_round(self, monkeypatch, g, alpha, rounds):
        calls = []
        count = graph.biconnected_components

        def counted(h):
            calls.append(h)
            return count(h)

        monkeypatch.setattr(graph, "biconnected_components", counted)
        h, _ = slack_transform(g, alpha)
        assert len(calls) == rounds
        assert calls[-1] is h


    @pytest.mark.parametrize(
        "g, alpha, rounds",
        [
            (slack_cycle(8), 160, 1),
            (cycle_instance(3), 160, 2),
            (random_outerplanar(6, 189)[0], 5, 3),
        ],
        ids=["slack-cycle", "triangle-loses-one-edge", "two-deleting-rounds"],
    )
    def test_one_distance_matrix(self, monkeypatch, g, alpha, rounds):
        # Only the input is reduced: a deleting round keeps every length.
        g = MetricGraph(g.n, g.edges)  # no shared matrix from earlier tests
        calls = []
        apd = graph.all_pairs_distances

        def counted(h):
            calls.append(h)
            return apd(h)

        monkeypatch.setattr(graph, "all_pairs_distances", counted)
        h, _ = slack_transform(g, alpha)
        assert calls == [g]
        assert is_reduced(h)
        assert (len(h.edges) < len(g.edges)) == (rounds > 1)

    def test_empty_graph(self):
        # The 0-vertex graph is outerplanar, and its transform has no
        # blocks.
        g = MetricGraph(0, ())
        assert is_outerplanar(g)
        h, builds = slack_transform(g, 160)
        assert (h.n, h.edges, builds) == (0, (), [])


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

    def test_nonplanar_graph_reported(self):
        k5 = _complete(5)
        inst = PlanarInstance(k5, (0, 1, 2))
        assert inst.validate() == ["graph is not planar"]

    def test_face_of_no_embedding_reported(self):
        k4 = _complete(4)
        inst = PlanarInstance(k4, (0, 1, 2, 3))
        assert inst.validate() == ["face cycle does not bound a face of any embedding"]

    def test_valid_instance_tests_planarity_once(self, monkeypatch, c6):
        # The apex test proves g planar; is_planar only names the failure.
        def unexpected(g):
            raise AssertionError("is_planar called on a valid instance")

        monkeypatch.setattr(graph, "is_planar", unexpected)
        assert PlanarInstance(c6, tuple(range(6))).validate() == []
