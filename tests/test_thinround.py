import itertools
import random
from fractions import Fraction

import pytest

from faceflow.errors import (
    HypothesisViolated,
    InvariantViolation,
    NoSeparatedDemand,
)
from faceflow.graph import MetricGraph, norm_edge
from faceflow.instances import cycle_instance, random_outerplanar, random_tree
from faceflow.polyflow import (
    AdaptedLengths,
    DemandMatrix,
    PolymatroidCaps,
    rho_hat,
)
from faceflow.thinround import (
    _pow2_ceil,
    dyadic_preprocess,
    multiscale_round,
    round_thin,
    rounding_bound,
    thin_map,
    tilde_lengths,
)
from faceflow.tree import MetricTree, TreeMap
from faceflow.treeembed import embed_sampler, is_thin

F = Fraction


def identity_tree_map(g, root=0):
    """Identity map of a tree-shaped metric graph onto itself."""
    t = MetricTree()
    for v in range(g.n):
        t.add_vertex(v)
    for (u, v, w) in g.edges:
        t.add_edge(u, v, w)
    return TreeMap(t, {v: v for v in range(g.n)}, g, root=root)


def spider(legs, length=F(1)):
    g = MetricGraph(
        legs + 1, tuple((0, i, length) for i in range(1, legs + 1))
    )
    return g, identity_tree_map(g)


class TestThinMap:
    def test_single_edge_identity(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        tm = identity_tree_map(g)
        out = thin_map(tm, 0)
        assert out.is_lipschitz()
        assert is_thin(out, 4)
        assert out.tree.dist(out.mapping[0], out.mapping[1]) == F(1)

    @pytest.mark.parametrize("seed", range(10))
    def test_spider_outputs_thin_lipschitz(self, seed):
        _, tm = spider(4)
        out = thin_map(tm, seed)
        assert out.is_lipschitz()
        assert is_thin(out, 4)

    def test_three_leg_spider_exact_expectation(self):
        # Enumerate all branch-bit outcomes: leaves on the same vertical
        # branch collapse together, on different branches they stay a
        # full path apart.  Mean pairwise distance is exactly half the
        # original, the worst case of the halving guarantee.
        g, tm = spider(3)
        outcomes = []
        for bits in itertools.product((0, 1), repeat=3):
            out = thin_map(tm, 0, _choice_fn=lambda x, k, b=bits: b[:k])
            assert out.is_lipschitz()
            assert is_thin(out, 4)
            outcomes.append(out)
        for (i, j) in [(1, 2), (1, 3), (2, 3)]:
            d = F(2)  # original leaf-to-leaf distance
            mean = sum(
                (o.tree.dist(o.mapping[i], o.mapping[j]) for o in outcomes),
                F(0),
            ) / len(outcomes)
            assert mean == d / 2

    def test_center_distance_preserved(self):
        g, tm = spider(3)
        for bits in itertools.product((0, 1), repeat=3):
            out = thin_map(tm, 0, _choice_fn=lambda x, k, b=bits: b[:k])
            for i in (1, 2, 3):
                assert out.tree.dist(out.mapping[0], out.mapping[i]) == F(1)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_tree_invariants(self, seed):
        g = random_tree(7, seed)
        tm = identity_tree_map(g)
        out = thin_map(tm, seed)
        assert out.is_lipschitz()
        assert is_thin(out, 4)
        # Distances never grow past the original.
        for u in range(g.n):
            for v in range(g.n):
                assert out.tree.dist(out.mapping[u], out.mapping[v]) <= \
                    tm.tree.dist(tm.mapping[u], tm.mapping[v])

    @pytest.mark.parametrize("seed", range(10))
    def test_embedded_cycle_invariants(self, seed):
        g = cycle_instance(6)
        out = thin_map(embed_sampler(g)(seed), seed)
        assert out.is_lipschitz()
        assert is_thin(out.with_source(g), 4)


class TestRoundThin:
    def single_edge_setup(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        tm = identity_tree_map(g)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps({0: F(1), 1: F(1)})
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        return g, tm, ell, caps, dem

    def test_single_edge_sparsity_one(self):
        g, tm, ell, caps, dem = self.single_edge_setup()
        cert = round_thin(g, tm, ell, caps, dem)
        assert cert.nu_value == 1
        assert cert.separated == 1
        assert cert.sparsity == 1
        assert cert.exact
        assert cert.edges == frozenset({(0, 1)})
        assert cert.sparsity <= rounding_bound(tm, ell, caps, dem, 4)

    def test_rejects_non_adapted(self):
        g, tm, _, caps, dem = self.single_edge_setup()
        bad = AdaptedLengths({0: {}, 1: {}}, {(0, 1): F(1)})
        with pytest.raises(HypothesisViolated):
            round_thin(g, tm, bad, caps, dem)

    def test_no_separated_demand(self):
        g = MetricGraph(2, ((0, 1, F(0)),))
        t = MetricTree()
        t.add_vertex(0)
        tm = TreeMap(t, {0: 0, 1: 0}, g, root=0)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps({0: F(1), 1: F(1)})
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        with pytest.raises(NoSeparatedDemand):
            round_thin(g, tm, ell, caps, dem)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_tree_bound_exact_nu(self, seed):
        rng = random.Random(seed)
        g = random_tree(rng.randrange(3, 8), seed)
        tm = identity_tree_map(g)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps(
            {v: F(rng.randrange(1, 5)) for v in range(g.n)}
        )
        pairs = [
            (u, v, F(rng.randrange(1, 4)))
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if rng.random() < 0.5
        ]
        if not pairs:
            pairs = [(0, 1, F(1))]
        dem = DemandMatrix.from_pairs(pairs)
        cert = round_thin(g, tm, ell, caps, dem)
        assert cert.exact
        assert cert.sparsity <= rounding_bound(tm, ell, caps, dem, 4)


class TestDyadic:
    def test_pow2_ceil_values(self):
        assert _pow2_ceil(F(0)) == 0
        assert _pow2_ceil(F(1)) == 1
        assert _pow2_ceil(F(3)) == 4
        assert _pow2_ceil(F(1, 3)) == F(1, 2)
        assert _pow2_ceil(F(5, 4)) == 2
        assert _pow2_ceil(F(1, 4)) == F(1, 4)

    @pytest.mark.parametrize("seed", range(10))
    def test_preprocess_postconditions(self, seed):
        rng = random.Random(seed)
        g = random_tree(6, seed)
        ell = AdaptedLengths(
            {
                v: {
                    norm_edge(a, b): w * F(rng.randrange(1, 4), 4)
                    for (a, b, w) in g.edges
                    if v in (a, b)
                }
                for v in range(g.n)
            },
            {norm_edge(a, b): w for (a, b, w) in g.edges},
        )
        out = dyadic_preprocess(g, ell)
        out.check_adapted()
        for (u, v, w) in g.edges:
            e = norm_edge(u, v)
            for end in (u, v):
                val = out.ell[end][e]
                if val:
                    # power of two: numerator * denominator is 2^k
                    assert bin(val.numerator * val.denominator).count("1") == 1
            s = out.ell[u][e] + out.ell[v][e]
            assert w <= s < 2 * w

    def test_tilde_lengths_sides(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        tm = identity_tree_map(g)
        e = (0, 1)
        ell = AdaptedLengths({0: {e: F(1, 4)}, 1: {e: F(1)}}, {e: F(1)})
        out = tilde_lengths(g, tm, ell)
        assert out.ell[0][e] == 0  # strictly smaller side
        assert out.ell[1][e] == 2 * F(1) * F(1) / F(1)

    def test_tilde_zero_edge(self):
        g = MetricGraph(2, ((0, 1, F(0)),))
        t = MetricTree()
        t.add_vertex(0)
        tm = TreeMap(t, {0: 0, 1: 0}, g, root=0)
        e = (0, 1)
        ell = AdaptedLengths({0: {e: F(1)}, 1: {e: F(1)}}, {e: F(0)})
        out = tilde_lengths(g, tm, ell)
        assert out.ell[0][e] == 0 and out.ell[1][e] == 0


class TestMultiscale:
    def test_single_edge(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps({0: F(1), 1: F(1)})
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        rep = multiscale_round(
            g, ell, caps, dem, embed_sampler(g), samples=5, seed=3
        )
        assert rep.best.sparsity == 1
        assert all(r <= 1.0 + 1e-12 for r in rep.sample_ratios)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_tree_ratios_bounded(self, seed):
        g = random_tree(6, seed)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps(
            {v: F(1) for v in range(g.n)}
        )
        dem = DemandMatrix.from_pairs([(0, g.n - 1, F(1))])
        rep = multiscale_round(
            g, ell, caps, dem, embed_sampler(g), samples=8, seed=seed
        )
        assert rep.best.sparsity > 0
        assert all(r <= 1.0 + 1e-12 for r in rep.sample_ratios)

    def test_cycle_runs_and_bounded(self):
        g = cycle_instance(6)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps(
            {v: F(1) for v in range(6)}
        )
        dem = DemandMatrix.from_pairs([(0, 3, F(1)), (1, 4, F(1))])
        rep = multiscale_round(
            g, ell, caps, dem, embed_sampler(g), samples=20, seed=0
        )
        assert rep.best.sparsity > 0
        assert all(r <= 1.0 + 1e-12 for r in rep.sample_ratios)

    @pytest.mark.parametrize("seed", range(5))
    def test_chorded_outerplanar_runs_and_bounded(self, seed):
        # The slack transform deletes 4 of the 10 edges here; each thinned
        # map must still be 4-thin on every edge of g.
        g, _ = random_outerplanar(7, 0)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps({v: F(1) for v in range(g.n)})
        dem = DemandMatrix.from_pairs([(0, 3, F(1)), (1, 5, F(1))])
        rep = multiscale_round(
            g, ell, caps, dem, embed_sampler(g), samples=8, seed=seed
        )
        assert rep.best.sparsity > 0
        assert all(r <= 1.0 + 1e-12 for r in rep.sample_ratios)

    def test_rejects_map_not_thin_on_g(self):
        # A map whose source has no edges is trivially thin there, but on
        # the 5-leg spider g its center has thin number 5 > 4.
        g, tm = spider(5)
        bare = tm.with_source(MetricGraph(g.n, ()))
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps({v: F(1) for v in range(g.n)})
        dem = DemandMatrix.from_pairs([(1, 2, F(1))])
        with pytest.raises(InvariantViolation):
            multiscale_round(
                g, ell, caps, dem, lambda s: bare, samples=1, seed=0
            )
