import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import pytest

from faceflow.errors import ChordTooLong
from faceflow.graph import Cycle, MetricGraph, is_reduced, reduce_lengths
from faceflow.instances import cycle_instance, slack_cycle
from faceflow.treeembed import embed_sampler


def frac(a, b=1):
    return Fraction(a, b)


@pytest.fixture
def path3():
    """a - b - c with unit lengths."""
    return MetricGraph(3, ((0, 1, Fraction(1)), (1, 2, Fraction(1))))


@pytest.fixture
def c4():
    return cycle_instance(4)


@pytest.fixture
def c6():
    return cycle_instance(6)


def embedded(g: MetricGraph):
    """A ``multiscale_round`` sampler: g's random tree embedding, with
    every vertex of g its own vertex of the embedding's source."""
    samp = embed_sampler(g)
    return lambda s: (samp(s), range(g.n))


def two_ear_block() -> MetricGraph:
    """A chorded outerplanar graph whose 160-slack graph keeps one block
    with two ears; its lengths have coprime denominators, so the block's
    tick grid grows between the ears."""
    edges = [
        (0, 1, 1), (0, 2, 100), (2, 3, 1), (3, 1, 100), (2, 4, 100),
        (4, 5, Fraction(3, 7)), (5, 3, 100), (4, 6, 50), (6, 7, 77),
        (7, 5, 60), (6, 8, Fraction(1, 3)), (8, 7, Fraction(2, 5)),
    ]
    return MetricGraph(9, tuple((u, v, Fraction(w)) for u, v, w in edges))


def two_slack_blocks() -> MetricGraph:
    """Two slack 6-cycles joined at the cut vertex 5, one with lengths in
    thirds and one in sevenths.  Their block grids have coprime parts, so
    joining the block trees rescales the ticks of both."""
    a = slack_cycle(6).scaled(Fraction(1, 3))
    b = slack_cycle(6).scaled(Fraction(2, 7))
    return MetricGraph(
        11, a.edges + tuple((u + 5, v + 5, w) for u, v, w in b.edges)
    )


def weak_diameter(dmat, block) -> Fraction:
    """Largest distance in ``dmat`` between two vertices of ``block``."""
    best = Fraction(0)
    vs = sorted(block)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if dmat[u][v] > best:
                best = dmat[u][v]
    return best


# -- Fraction cycle geometry, the reference for the tick cycle -----------


def make_cycle(
    path_vertices: Sequence[int],
    path_lengths: Sequence[Fraction],
    chord_len: Fraction,
) -> Cycle:
    """Close a metric path into a cycle with an extra chord of the given
    length between its endpoints; positions are Fractions."""
    chord_len = frac(chord_len)
    total = sum((frac(w) for w in path_lengths), Fraction(0))
    if chord_len > total:
        raise ChordTooLong(f"chord {chord_len} exceeds path length {total}")
    circumference = total + chord_len
    if circumference == 0:
        raise ValueError("degenerate cycle of circumference zero")
    points: dict[int, Fraction] = {}
    pos = Fraction(0)
    for i, v in enumerate(path_vertices):
        points[v] = pos % circumference
        if i < len(path_lengths):
            pos += frac(path_lengths[i])
    return Cycle(circumference, points)


@dataclass(frozen=True)
class FlatPath:
    """The unrolling of a cycle from a basepoint: every cycle point x sits
    at position d_C(p, x) on a path of length circumference/2."""

    length: Fraction
    positions: dict[int, Fraction]

    def dist(self, x: int, y: int) -> Fraction:
        return abs(self.positions[x] - self.positions[y])


def flatten(c: Cycle, p) -> FlatPath:
    return FlatPath(
        length=Fraction(c.circumference, 2),
        positions={v: c.dist_pos(p, pos) for v, pos in c.points.items()},
    )


def reference_dijkstra(adj, source) -> dict[int, Fraction]:
    """Exact-rational Dijkstra over ``MetricGraph.adjacency()`` lists: the
    reference for the int Dijkstra.  Returns finite distances only."""
    dist = {source: Fraction(0)}
    heap = [(Fraction(0), source)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for (u, w) in adj[v]:
            nd = d + w
            if u not in dist or nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def random_reduced_graph(n: int, seed: int, p: float = 0.5) -> MetricGraph:
    """Connected random graph with rational lengths, then reduced."""
    rng = random.Random(f"rrg:{seed}")
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.append((u, v))
    g = MetricGraph(
        n,
        tuple(
            (u, v, Fraction(rng.randrange(1, 17), 4)) for (u, v) in edges
        ),
    )
    g = reduce_lengths(g)
    assert is_reduced(g)
    return g
