from fractions import Fraction

import pytest

from faceflow import retraction
from faceflow.config import DEFAULT_CONFIG
from faceflow.errors import EmptyTarget, FaceInvalid, InvariantViolation
from faceflow.graph import (
    MetricGraph,
    PlanarInstance,
    all_pairs_distances,
    frac,
    is_outerplanar,
    reduce_lengths,
)
from faceflow.instances import cycle_instance, grid_graph
from faceflow.retraction import (
    Retraction,
    retract_to_outerplanar,
    retraction_sampler,
    sample_retraction,
)

F = Fraction


def gradient_stat(
    g: MetricGraph,
    sampler,
    x: int,
    tau,
    samples: int,
    seed: int,
) -> float:
    """Mean over samples of the single-scale gradient at x: the worst
    stretch d(F(x),F(v))/len(x,v) among incident edges with length in
    [tau, 2 tau]; zero when no such edge exists."""
    tau = frac(tau)
    dmat = all_pairs_distances(g)
    relevant = []
    for (u, v, w) in g.edges:
        if x not in (u, v):
            continue
        if tau <= w <= 2 * tau:
            relevant.append((v if u == x else u, w))
    if not relevant:
        return 0.0
    total = 0.0
    for i in range(samples):
        retr = sampler(seed * 104_729 + i)
        fx = retr.mapping[x]
        total += max(float(dmat[fx][retr.mapping[v]] / w) for (v, w) in relevant)
    return total / samples


def star(leaves):
    return MetricGraph(
        leaves + 1, tuple((0, i, F(1)) for i in range(1, leaves + 1))
    )


def wheel(k):
    """k-cycle rim plus a hub (vertex k)."""
    edges = [(i, (i + 1) % k, F(1)) for i in range(k)]
    edges += [(i, k, F(1)) for i in range(k)]
    return MetricGraph(k + 1, tuple(edges))


def wheel_with_tail(k, tail):
    """wheel(k) plus an interior pendant of length ``tail`` at the hub; the
    extra scales let the hub join different rim vertices, so its face
    retractions have several distinct quotients."""
    return MetricGraph(k + 2, wheel(k).edges + ((k, k + 1, F(tail)),))


class TestSampleRetraction:
    def test_empty_target_rejected(self):
        with pytest.raises(EmptyTarget):
            sample_retraction(star(3), set(), 1)

    def test_component_without_target_rejected(self):
        g = MetricGraph(3, ((0, 1, F(1)),))
        with pytest.raises(EmptyTarget):
            sample_retraction(g, {0}, 1)

    def test_target_fixed_with_level_zero(self):
        g = star(4)
        retr = sample_retraction(g, {1, 2, 3, 4}, 9)
        for x in (1, 2, 3, 4):
            assert retr.mapping[x] == x
            assert retr.levels[x] == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_star_center_absorbed_connected(self, seed):
        g = star(4)
        retr = sample_retraction(g, {1, 2, 3, 4}, seed)
        assert retr.mapping[0] in {1, 2, 3, 4}
        retr.check(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_grid_boundary_invariants(self, seed):
        g, face = grid_graph(3, 3)
        retr = sample_retraction(g, set(face), seed)
        retr.check(g)


class TestGradientStat:
    def test_no_relevant_edges(self):
        g = star(3)
        val = gradient_stat(
            g, lambda s: sample_retraction(g, {1, 2, 3}, s), 0, F(10), 5, 1
        )
        assert val == 0.0

    def test_edge_within_target_identity(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        val = gradient_stat(
            g, lambda s: sample_retraction(g, {0, 1}, s), 0, F(1), 5, 1
        )
        assert val == 1.0

    def test_grid_bounded(self):
        g, face = grid_graph(3, 3)
        val = gradient_stat(
            g, lambda s: sample_retraction(g, set(face), s), 4, F(1), 40, 3
        )
        assert 0.0 <= val <= DEFAULT_CONFIG.gradient_bound


class TestRetractToOuterplanar:
    def test_sampler_draws_match_one_shot_calls(self):
        # Samples share the prepared instance; drawing them in any order
        # from one sampler gives the one-shot results.
        g, face = grid_graph(3, 4)
        inst = PlanarInstance(g, face)
        draw = retraction_sampler(inst)
        drawn = {seed: draw(seed) for seed in (5, 0, 3, 0, 1)}
        for seed in sorted(drawn):
            assert retract_to_outerplanar(inst, seed) == drawn[seed]

    def test_sampler_validates_up_front(self):
        inst = PlanarInstance(cycle_instance(6), (0, 2, 1, 3, 4, 5))
        with pytest.raises(FaceInvalid):
            retraction_sampler(inst)

    def test_rejects_invalid_face(self, c6=None):
        g = cycle_instance(6)
        inst = PlanarInstance(g, (0, 2, 1, 3, 4, 5))
        with pytest.raises(FaceInvalid):
            retract_to_outerplanar(inst, 1)

    def test_outerplanar_identity(self):
        g = cycle_instance(5)
        inst = PlanarInstance(g, tuple(range(5)))
        fr = retract_to_outerplanar(inst, 4)
        assert fr.mapping == {v: v for v in range(5)}
        assert set(fr.h.edges) == set(reduce_lengths(g).edges)

    @pytest.mark.parametrize("seed", range(25))
    def test_wheel_postconditions(self, seed):
        g = wheel(5)
        inst = PlanarInstance(g, tuple(range(5)))
        fr = retract_to_outerplanar(inst, seed)
        assert is_outerplanar(fr.h)
        # Face distances never shrink.
        dg = all_pairs_distances(g)
        dh = all_pairs_distances(fr.h)
        for i in range(5):
            for j in range(i + 1, 5):
                assert dh[i][j] >= dg[i][j]

    @pytest.mark.parametrize("seed", range(25))
    def test_grid_postconditions(self, seed):
        g, face = grid_graph(3, 3)
        inst = PlanarInstance(g, face)
        fr = retract_to_outerplanar(inst, seed)
        assert is_outerplanar(fr.h)
        assert set(fr.mapping) == set(range(9))


class TestQuotientChecksOncePerGraph:
    """The quotient checks depend on h alone and run once per distinct h;
    the retraction's own check runs on every sample."""

    def test_counts(self, monkeypatch):
        calls = {"outerplanar": 0, "check": 0}
        real_outerplanar = retraction.is_outerplanar
        real_check = Retraction.check

        def outerplanar(h):
            calls["outerplanar"] += 1
            return real_outerplanar(h)

        def check(self, g, dmat=None):
            calls["check"] += 1
            return real_check(self, g, dmat)

        monkeypatch.setattr(retraction, "is_outerplanar", outerplanar)
        monkeypatch.setattr(Retraction, "check", check)
        draw = retraction_sampler(PlanarInstance(wheel_with_tail(5, 10), tuple(range(5))))
        hs = {draw(seed).h for seed in range(20)}
        assert 1 < len(hs) < 20
        assert calls == {"outerplanar": len(hs), "check": 20}

    def test_failing_graph_raises_every_time(self, monkeypatch):
        monkeypatch.setattr(retraction, "is_outerplanar", lambda h: False)
        g, face = grid_graph(3, 4)
        draw = retraction_sampler(PlanarInstance(g, face))
        for seed in (0, 1, 0, 2):
            with pytest.raises(InvariantViolation, match="not outerplanar"):
                draw(seed)
