import random
from fractions import Fraction

import pytest

from faceflow.graph import MetricGraph, is_reduced, reduce_lengths
from faceflow.instances import cycle_instance


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


def slack_cycle(n: int, eps=Fraction(1, 64)) -> MetricGraph:
    """n-cycle with unit arcs and one short closing edge; survives the
    160-slack transform so the random-cycle embedding path runs."""
    edges = [(i, i + 1, Fraction(1)) for i in range(n - 1)]
    edges.append((n - 1, 0, Fraction(eps)))
    return MetricGraph(n, tuple(edges))


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
