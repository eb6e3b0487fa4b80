import dataclasses
import math
import random
from fractions import Fraction

import pytest

from faceflow import partition, retraction
from faceflow.config import DEFAULT_CONFIG
from faceflow.errors import NonPositiveScale
from faceflow.graph import (
    MetricGraph,
    all_pairs_distances,
    connected_components,
    diameter,
    frac,
)
from faceflow.instances import grid_graph, random_planar_with_face
from faceflow.partition import (
    Partition,
    PaddingReport,
    estimate_padding,
    sample_padded_partition,
    weak_diameter,
)
from faceflow.retraction import sample_retraction

F = Fraction


def unit_path(n):
    return MetricGraph(n, tuple((i, i + 1, F(1)) for i in range(n - 1)))


class TestSamplePartition:
    def test_rejects_nonpositive_tau(self):
        with pytest.raises(NonPositiveScale):
            sample_padded_partition(unit_path(3), 0, 1)

    def test_partition_covers_exactly(self):
        g = unit_path(10)
        part = sample_padded_partition(g, F(4), 3)
        seen = sorted(v for b in part.blocks for v in b)
        assert seen == list(range(10))

    @pytest.mark.parametrize("seed", range(50))
    def test_path_blocks_tau_bounded(self, seed):
        g = unit_path(10)
        dmat = all_pairs_distances(g)
        part = sample_padded_partition(g, F(4), seed)
        for b in part.blocks:
            assert weak_diameter(dmat, b) <= 4

    @pytest.mark.parametrize("seed", range(20))
    def test_grid_tau_bounded(self, seed):
        g, _ = grid_graph(4, 4)
        dmat = all_pairs_distances(g)
        part = sample_padded_partition(g, F(3), seed)
        for b in part.blocks:
            assert weak_diameter(dmat, b) <= 3

    def test_deterministic_given_seed(self):
        g, _ = grid_graph(3, 4)
        a = sample_padded_partition(g, F(3), 7)
        b = sample_padded_partition(g, F(3), 7)
        assert a == b

    def test_huge_tau_single_block_possible(self):
        g = unit_path(5)
        tau = 10 * diameter(g)
        part = sample_padded_partition(g, tau, 1)
        # tau exceeds the diameter, so any one block covering the graph is
        # valid; every block must still be tau-bounded.
        dmat = all_pairs_distances(g)
        for b in part.blocks:
            assert weak_diameter(dmat, b) <= tau


class TestEstimatePadding:
    def test_zero_radius_never_escapes(self):
        g = unit_path(6)
        rep = estimate_padding(g, F(3), [F(0)], samples=30, seed=2)
        assert all(f == 0.0 for f in rep.frequencies.values())

    def test_single_block_alpha_zero(self):
        g = unit_path(4)
        # tau so large every chop keeps the path whole almost surely is
        # not guaranteed; use a one-vertex graph instead for the trivial
        # case.
        g1 = MetricGraph(1, ())
        rep = estimate_padding(g1, F(2), [F(1)], samples=20, seed=3)
        assert rep.alpha_hat == 0.0

    def test_grid_alpha_finite_and_stable(self):
        g, _ = grid_graph(4, 4)
        r1 = estimate_padding(g, F(4), [F(1), F(2)], samples=150, seed=5)
        r2 = estimate_padding(g, F(4), [F(1), F(2)], samples=150, seed=6)
        assert r1.alpha_hat > 0.0
        assert abs(r1.alpha_hat - r2.alpha_hat) < 2.0
        assert r1.alpha_hat <= DEFAULT_CONFIG.padding_alpha_bound


# -- reference: the exact-rational partition the tick version replaced ----

_GRID = 1 << 30


def _uniform_frac(rng: random.Random, hi: Fraction) -> Fraction:
    """Uniform rational in [0, hi) from a fine grid."""
    return hi * Fraction(rng.randrange(_GRID), _GRID)


def reference_padded_partition(
    g: MetricGraph,
    tau,
    seed: int,
    _dmat=None,
) -> Partition:
    """Random tau-bounded partition (weak diameter in d_G).

    Rounds of annulus chopping at width tau/6 with uniform random
    offsets, then ball carving at radius tau/2 for any block still too
    large.  Deterministic given (g, tau, seed).
    """
    tau = frac(tau)
    if tau <= 0:
        raise NonPositiveScale(f"tau must be positive, got {tau}")
    rng = random.Random(f"padded:{seed}")
    width = tau / DEFAULT_CONFIG.chop_width_divisor
    dmat = _dmat if _dmat is not None else all_pairs_distances(g)
    clusters: list[set[int]] = [set(c) for c in connected_components(g)]
    for _ in range(DEFAULT_CONFIG.chop_rounds):
        new_clusters = []
        for cl in sorted(clusters, key=min):
            if len(cl) == 1:
                new_clusters.append(cl)
                continue
            dist = dmat[min(cl)]
            r0 = _uniform_frac(rng, width)
            bands: dict[int, set[int]] = {}
            for v in sorted(cl):
                band = int((dist[v] - r0) // width)
                bands.setdefault(band, set()).add(v)
            new_clusters.extend(bands[b] for b in sorted(bands))
        clusters = new_clusters
    # Enforce the diameter bound deterministically.
    final: list[set[int]] = []
    for cl in clusters:
        if weak_diameter(dmat, cl) <= tau:
            final.append(cl)
            continue
        remaining = sorted(cl)
        while remaining:
            c = remaining[0]
            ball = {v for v in remaining if dmat[c][v] <= tau / 2}
            final.append(ball)
            remaining = [v for v in remaining if v not in ball]
    return Partition(tuple(frozenset(b) for b in final), tau)


def reference_estimate_padding(
    g: MetricGraph,
    tau,
    radii,
    samples: int,
    seed: int,
) -> PaddingReport:
    tau = frac(tau)
    radii = [frac(r) for r in radii]
    dmat = all_pairs_distances(g)
    escapes = {(x, r): 0 for x in range(g.n) for r in radii}
    for s in range(samples):
        part = reference_padded_partition(
            g, tau, seed * 1_000_003 + s, _dmat=dmat
        )
        idx = part.index_of()
        for x in range(g.n):
            bx = idx[x]
            ball = [v for v in range(g.n) if dmat[x][v] <= max(radii)]
            for r in radii:
                if any(dmat[x][v] <= r and idx[v] != bx for v in ball):
                    escapes[(x, r)] += 1
    freqs = {k: c / samples for k, c in escapes.items()}
    alpha = 0.0
    for (x, r), f in freqs.items():
        if r > 0:
            alpha = max(alpha, f * float(tau) / float(r))
    return PaddingReport(tau, samples, freqs, alpha)


def mixed_denominators(n: int, seed: int) -> MetricGraph:
    """Connected random graph whose lengths have denominators 1..12."""
    rng = random.Random(f"mixed:{seed}")
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < 2 * n:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return MetricGraph(n, tuple(
        (u, v, F(rng.randrange(1, 40), rng.choice((1, 2, 3, 5, 7, 9, 12))))
        for (u, v) in sorted(edges)
    ))


def two_components() -> MetricGraph:
    """A path 0-1-2, a triangle 3-4-5 and the isolated vertex 6."""
    return MetricGraph(7, (
        (0, 1, F(1, 3)), (1, 2, F(2, 5)),
        (3, 4, F(7, 4)), (4, 5, F(1, 6)), (3, 5, F(5, 3)),
    ))


CROSS_GRAPHS = {
    "path10": lambda: unit_path(10),
    "grid3x4": lambda: grid_graph(3, 4)[0],
    "grid4x4": lambda: grid_graph(4, 4)[0],
    "planar10-0": lambda: random_planar_with_face(10, 0)[0],
    "planar12-2": lambda: random_planar_with_face(12, 2)[0],
    "mixed9-0": lambda: mixed_denominators(9, 0),
    "mixed11-1": lambda: mixed_denominators(11, 1),
    "two-components": two_components,
}


def cross_taus(g: MetricGraph) -> list[Fraction]:
    """tau below the shortest edge, above the diameter, dyadic and not."""
    shortest = min(w for (_, _, w) in g.edges)
    return [
        shortest / 3, F(1, 3), F(1), F(2), F(7, 3), F(5, 2), F(4),
        3 * diameter(g),
    ]


class TestMatchesReference:
    """The tick partition equals the exact-rational one it replaced."""

    @pytest.mark.parametrize("name", sorted(CROSS_GRAPHS))
    def test_same_partition(self, name):
        g = CROSS_GRAPHS[name]()
        dmat = all_pairs_distances(g)
        for tau in cross_taus(g):
            for seed in range(50):
                assert sample_padded_partition(g, tau, seed) == (
                    reference_padded_partition(g, tau, seed, _dmat=dmat)
                ), (tau, seed)

    @pytest.mark.parametrize("name", ["grid4x4", "mixed9-0", "two-components"])
    def test_same_padding_report(self, name):
        g = CROSS_GRAPHS[name]()
        tau = F(5, 2)
        radii = [F(0), tau / 7, tau / 4, F(2, 3)]
        assert estimate_padding(g, tau, radii, 40, 3) == (
            reference_estimate_padding(g, tau, radii, 40, 3)
        )


class FixedDraws:
    """Stands in for ``random.Random``: ``randrange(n)`` cycles through
    0, n/2, n/3 and n - 1, so chopping offsets land on exact band edges."""

    def __init__(self, seed: str):
        self.i = int(seed.rsplit(":", 1)[1])

    def randrange(self, n: int) -> int:
        self.i += 1
        return (0, n // 2, n // 3, n - 1)[self.i % 4]


class TestTiesMatchReference:
    """Exact ties, which random offsets almost never produce: tau equal to
    a distance, twice one (the ball radius) or six times one (a band
    width that divides the distances), and offsets on band edges."""

    @pytest.mark.parametrize("rounds", [0, 1, 3])
    @pytest.mark.parametrize(
        "name", ["path10", "grid3x4", "mixed9-0", "two-components"]
    )
    def test_same_partition(self, monkeypatch, name, rounds):
        g = CROSS_GRAPHS[name]()
        cfg = dataclasses.replace(DEFAULT_CONFIG, chop_rounds=rounds)
        monkeypatch.setattr(partition, "DEFAULT_CONFIG", cfg)
        monkeypatch.setitem(globals(), "DEFAULT_CONFIG", cfg)
        monkeypatch.setattr(random, "Random", FixedDraws)
        dmat = all_pairs_distances(g)
        dists = {d for row in dmat for d in row if d not in (0, math.inf)}
        for tau in sorted({k * d for d in dists for k in (1, 2, 6)}):
            for seed in range(4):
                assert sample_padded_partition(g, tau, seed) == (
                    reference_padded_partition(g, tau, seed, _dmat=dmat)
                ), (tau, seed)


RETRACTION_GRAPHS = {
    "grid3x4": lambda: grid_graph(3, 4),
    "grid4x4": lambda: grid_graph(4, 4),
    "planar12-2": lambda: random_planar_with_face(12, 2),
}


@pytest.mark.parametrize("name", sorted(RETRACTION_GRAPHS))
def test_retraction_matches_reference_partition(name, monkeypatch):
    """Retractions draw the same mapping and levels as with the
    exact-rational partition.  The sampler is ``sample_retraction``'s own,
    built once; it looks up ``sample_padded_partition`` at each draw."""
    g, face = RETRACTION_GRAPHS[name]()
    sample = retraction._absorption_sampler(g, set(face))
    seeds = range(300)
    got = [sample(s) for s in seeds]
    assert got[7] == sample_retraction(g, face, 7)
    dmats: dict[MetricGraph, list] = {}

    def reference(h, tau, seed):
        if h not in dmats:
            dmats[h] = all_pairs_distances(h)
        return reference_padded_partition(h, tau, seed, _dmat=dmats[h])

    monkeypatch.setattr(retraction, "sample_padded_partition", reference)
    for s, r in zip(seeds, got):
        want = sample(s)
        assert (r.mapping, r.levels) == (want.mapping, want.levels), s
