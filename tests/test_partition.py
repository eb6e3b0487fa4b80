from fractions import Fraction

import pytest

from faceflow.config import DEFAULT_CONFIG
from faceflow.errors import NonPositiveScale
from faceflow.graph import MetricGraph, all_pairs_distances, diameter
from faceflow.instances import grid_graph
from faceflow.partition import (
    estimate_padding,
    sample_padded_partition,
    weak_diameter,
)

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
