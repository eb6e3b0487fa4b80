import dataclasses
import random
import re
from fractions import Fraction

import networkx as nx
import pytest

from faceflow import retraction
from faceflow.config import DEFAULT_CONFIG
from faceflow.errors import EmptyTarget, FaceInvalid, InvariantViolation
from faceflow.graph import (
    MetricGraph,
    PlanarInstance,
    all_pairs_distances,
    connected_components,
    diameter,
    frac,
    is_outerplanar,
    reduce_lengths,
)
from faceflow.instances import cycle_instance, grid_graph, random_planar_with_face
from faceflow.partition import sample_padded_partition
from faceflow.retraction import (
    Retraction,
    retract_to_outerplanar,
    retraction_sampler,
    sample_retraction,
)
from test_partition import RETRACTION_GRAPHS

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

    def test_check_rejects_disconnected_fiber(self):
        g = MetricGraph(4, tuple((i, i + 1, F(1)) for i in range(3)))
        retr = Retraction(
            frozenset({0, 3}), {0: 0, 1: 3, 2: 0, 3: 3},
            {0: 0, 1: 1, 2: 1, 3: 0}, F(1),
        )
        with pytest.raises(InvariantViolation, match="fiber of 0 disconnected"):
            retr.check(g)

    def test_check_rejects_fiber_without_its_image(self):
        # Fiber of 1 is {2}: connected, but it does not contain 1.
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        retr = Retraction(
            frozenset({0}), {0: 0, 1: 0, 2: 1}, {0: 0, 1: 1, 2: 1}, F(1),
        )
        with pytest.raises(InvariantViolation, match="fiber of 1 disconnected"):
            retr.check(g)


def reference_check(retr: Retraction, g: MetricGraph) -> None:
    """``Retraction.check`` before it read ticks: the level bound and
    the closest-target test on the Fraction distance matrix, d(x, S)
    recomputed on every call."""
    dmat = g.distances()
    for x in retr.target:
        if retr.mapping[x] != x:
            raise InvariantViolation(f"target vertex {x} not fixed")
    fibers: dict[int, set[int]] = {}
    for v, img in retr.mapping.items():
        fibers.setdefault(img, set()).add(v)
    for img, fib in fibers.items():
        if img not in fib or len(connected_components(g, fib)) > 1:
            raise InvariantViolation(f"fiber of {img} disconnected")
    for x, img in retr.mapping.items():
        d_scaled = dmat[x][img] * retr.scale
        if d_scaled >= Fraction(2) ** (retr.levels[x] + 1):
            raise InvariantViolation(
                f"vertex {x}: d(x,F(x)) = {d_scaled} >= 2^{retr.levels[x] + 1}"
            )
        d_to_s = min(dmat[x][s] for s in retr.target)
        if d_to_s > dmat[x][img]:
            raise InvariantViolation(f"vertex {x}: F(x) not closest-consistent")


def path_graph(lengths) -> MetricGraph:
    return MetricGraph(len(lengths) + 1, tuple((i, i + 1, F(w)) for i, w in enumerate(lengths)))


class TestCheckOnTicks:
    """The tick check raises what the Fraction check raised, message for
    message, also at levels below -1, where the bound 2^(L+1) is below 1."""

    CASES = {
        # d(2, F(2)) * scale = 7/3 * 3/2 = 7/2 >= 2^1.
        "level-bound": (
            [F(2, 3), F(5, 3)],
            Retraction(frozenset({0}), {0: 0, 1: 0, 2: 0}, {0: 0, 1: 0, 2: 0}, F(3, 2)),
        ),
        # Exactly on the bound: d * scale = 2 = 2^1 fails.
        "level-bound-tight": (
            [F(1, 3), F(1, 3)],
            Retraction(frozenset({0}), {0: 0, 1: 0, 2: 0}, {0: 0, 1: 1, 2: 0}, F(3)),
        ),
        # Vertex 1 is its own image, off the target, at distance 2 from it.
        "closest": (
            [F(2), F(1)],
            Retraction(frozenset({0}), {0: 0, 1: 1, 2: 1}, {0: 0, 1: 0, 2: 0}, F(1)),
        ),
        "passes": (
            [F(1, 5), F(2, 5)],
            Retraction(frozenset({0, 2}), {0: 0, 1: 0, 2: 2}, {0: 0, 1: 1, 2: 0}, F(5)),
        ),
        # Level -2: d(1, F(1)) * scale = 1/3 * 3 = 1 >= 2^-1.
        "level-minus-two": (
            [F(1, 3), F(1, 3)],
            Retraction(frozenset({0}), {0: 0, 1: 0, 2: 0}, {0: 0, 1: -2, 2: 1}, F(3)),
        ),
        # Level -3, exactly on the bound: 1/12 * 3 = 2^-2.
        "level-minus-three-tight": (
            [F(1, 12), F(1, 3)],
            Retraction(frozenset({0}), {0: 0, 1: 0, 2: 0}, {0: 0, 1: -3, 2: 1}, F(3)),
        ),
        # Level -2: 1/10 * 3 = 3/10 < 2^-1.
        "passes-level-minus-two": (
            [F(1, 10), F(1, 3)],
            Retraction(frozenset({0}), {0: 0, 1: 0, 2: 0}, {0: 0, 1: -2, 2: 0}, F(3)),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_outcome_as_fractions(self, name):
        lengths, retr = self.CASES[name]
        g = path_graph(lengths)
        try:
            reference_check(retr, g)
        except InvariantViolation as err:
            with pytest.raises(InvariantViolation, match=f"^{re.escape(str(err))}$"):
                retr.check(g)
        else:
            assert name.startswith("passes")
            retr.check(g)

    @pytest.mark.parametrize("name", sorted(RETRACTION_GRAPHS))
    def test_sampled_retractions(self, name):
        g, face = RETRACTION_GRAPHS[name]()
        sample = retraction._absorption_sampler(g, set(face))
        for seed in range(40):
            retr = sample(seed)
            retr.check(g)
            reference_check(retr, g)
            # A wrong level for one vertex fails both checks alike.
            x = max(retr.mapping, key=lambda v: g.distances()[v][retr.mapping[v]])
            if retr.mapping[x] != x:
                bad = dataclasses.replace(retr, levels={**retr.levels, x: -1})
                with pytest.raises(InvariantViolation) as want:
                    reference_check(bad, g)
                with pytest.raises(InvariantViolation, match=f"^{re.escape(str(want.value))}$"):
                    bad.check(g)


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

        def check(self, g):
            calls["check"] += 1
            return real_check(self, g)

        monkeypatch.setattr(retraction, "is_outerplanar", outerplanar)
        monkeypatch.setattr(Retraction, "check", check)
        draw = retraction_sampler(PlanarInstance(wheel_with_tail(5, 10), tuple(range(5))))
        hs = {draw(seed).h for seed in range(20)}
        assert 1 < len(hs) < 20
        assert calls == {"outerplanar": len(hs), "check": 20}

    def test_no_planarity_test_per_new_quotient(self, monkeypatch):
        # Validation is the one general planarity test; each new quotient
        # is checked by degree-2 elimination alone.
        draw = retraction_sampler(PlanarInstance(wheel_with_tail(5, 10), tuple(range(5))))
        planarity, outerplanar = [], []
        check, real_outerplanar = nx.check_planarity, retraction.is_outerplanar

        def counting(*args, **kwargs):
            planarity.append(args[0])
            return check(*args, **kwargs)

        def counting_outerplanar(h):
            outerplanar.append(h)
            return real_outerplanar(h)

        monkeypatch.setattr(nx, "check_planarity", counting)
        monkeypatch.setattr(retraction, "is_outerplanar", counting_outerplanar)
        hs = {draw(seed).h for seed in range(20)}
        assert len(outerplanar) == len(hs) > 1
        assert planarity == []

    def test_failing_graph_raises_every_time(self, monkeypatch):
        monkeypatch.setattr(retraction, "is_outerplanar", lambda h: False)
        g, face = grid_graph(3, 4)
        draw = retraction_sampler(PlanarInstance(g, face))
        for seed in (0, 1, 0, 2):
            with pytest.raises(InvariantViolation, match="not outerplanar"):
                draw(seed)


# -- reference: the absorption sampler that partitioned a scaled copy ------


def reference_absorption_sampler(g: MetricGraph, s, dmat):
    """The sampler before partitions ran on g at scale 2^k / scale: it
    built the prescaled copy gs and partitioned gs at scale 2^k.  Kept
    as it was, except that gs's tick matrix, once passed in to every
    partition, is now gs's own view."""
    s = frozenset(s)
    if not s:
        raise EmptyTarget("retraction target is empty")
    comps = connected_components(g)
    for comp in comps:
        if not comp & s:
            raise EmptyTarget(f"component {sorted(comp)[:5]}... contains no target vertex")

    # Prescale so d(S, V \ S) > 1 (zero-distance complements keep scale 1).
    gaps = [
        min(dmat[x][t] for t in s) for x in range(g.n) if x not in s
    ]
    gaps = [d for d in gaps if d > 0]
    scale = Fraction(2) / min(gaps) if gaps else Fraction(1)
    gs = g.scaled(scale)

    diam = diameter(gs)
    k0 = 1
    while Fraction(2) ** k0 < diam:
        k0 += 1
    adj = g.adjacency()

    def sample(seed: int) -> Retraction:
        mapping = {x: x for x in s}
        levels = {x: 0 for x in s}
        absorbed = set(s)
        for k in range(1, k0 + 1):
            if k == k0:
                blocks = comps
            else:
                part = sample_padded_partition(
                    gs, Fraction(2) ** k, seed * 7_919 + k
                )
                blocks = part.blocks
            newly: list[set[int]] = []
            for t_block in blocks:
                # Connected components of G[T]; those touching the absorbed
                # set absorb their unabsorbed vertices chunk by chunk.
                for comp in _components_within(adj, t_block):
                    if not comp & absorbed:
                        continue
                    fresh = comp - absorbed
                    for chunk in _components_within(adj, fresh):
                        nbrs = set()
                        for v in chunk:
                            for (u, _) in adj[v]:
                                if u in comp and u in absorbed:
                                    nbrs.add(u)
                        if not nbrs:
                            continue  # reached only through other fresh chunks
                        v_c = min(nbrs)
                        newly.append(chunk)
                        for v in chunk:
                            mapping[v] = mapping[v_c]
                            levels[v] = k
            for chunk in newly:
                absorbed |= chunk
            if len(absorbed) == g.n:
                break
        # Chunks reachable only through sibling chunks may need extra passes
        # at the same top scale.
        guard = 0
        while len(absorbed) < g.n:
            guard += 1
            if guard > g.n:
                raise InvariantViolation("retraction failed to absorb all vertices")
            for v in sorted(set(range(g.n)) - absorbed):
                nbrs = [u for (u, _) in adj[v] if u in absorbed]
                if nbrs:
                    v_c = min(nbrs)
                    mapping[v] = mapping[v_c]
                    levels[v] = k0
                    absorbed.add(v)
        return Retraction(s, mapping, levels, scale)

    return sample


def _components_within(adj, verts: set[int]) -> list[set[int]]:
    out = []
    seen: set[int] = set()
    for start in sorted(verts):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for (u, _) in adj[v]:
                if u in verts and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        out.append(comp)
    return out


@pytest.mark.parametrize("name", sorted(RETRACTION_GRAPHS))
def test_unscaled_partitions_match_scaled_reference(name):
    """Partitioning g at 2^k / scale draws the same retractions as
    partitioning the prescaled copy at 2^k."""
    g, face = RETRACTION_GRAPHS[name]()
    sample = retraction._absorption_sampler(g, set(face))
    reference = reference_absorption_sampler(g, set(face), all_pairs_distances(g))
    for seed in range(300):
        got, want = sample(seed), reference(seed)
        assert (got.mapping, got.levels) == (want.mapping, want.levels), seed
        assert got.scale == want.scale


def _random_targets(seed: int):
    """A planar graph with one to three targets anywhere, face or not."""
    g, _ = random_planar_with_face(11, seed)
    rng = random.Random(seed)
    return g, set(rng.sample(range(g.n), rng.randrange(1, 4)))


def _dropped_edges(seed: int):
    """A grid or planar graph with about 30% of its edges dropped, so often
    several components, and one random target in each."""
    g, _ = random_planar_with_face(12, seed) if seed % 2 else grid_graph(3, 4)
    rng = random.Random(f"drop:{seed}")
    h = MetricGraph(g.n, tuple(e for e in g.edges if rng.random() > 0.3))
    return h, {rng.choice(sorted(c)) for c in connected_components(h)}


@pytest.mark.gate
class TestOnePassMatchesReference:
    """Absorbing each component of G[T \\ A] that touches A in one pass
    draws the retractions of the loop it replaced, which split each
    touching component of G[T] into chunks and kept a guard loop for the
    rest."""

    @pytest.mark.parametrize(
        "make", [_random_targets, _dropped_edges], ids=["random-targets", "dropped-edges"]
    )
    @pytest.mark.parametrize("seed", range(12))
    def test_same_draws(self, make, seed):
        g, s = make(seed)
        sample = retraction._absorption_sampler(g, s)
        reference = reference_absorption_sampler(g, s, all_pairs_distances(g))
        for draw in range(60):
            got, want = sample(draw), reference(draw)
            assert (got.mapping, got.levels) == (want.mapping, want.levels), draw
            assert got.scale == want.scale
            got.check(g)
