import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flatten, make_cycle, slack_cycle, two_ear_block, two_slack_blocks
from faceflow.config import DEFAULT_CONFIG
from faceflow.errors import (
    ChordTooLong,
    InvariantViolation,
    NotOuterplanar,
    SlackViolation,
)
from faceflow.graph import (
    BuildStep,
    Cycle,
    MetricGraph,
    OuterplanarBuild,
    all_pairs_distances,
    frac,
    norm_edge,
    reduce_lengths,
    slack_transform,
)
from faceflow.instances import cycle_instance, random_outerplanar, random_tree
from faceflow import tree as tree_module
from faceflow import treeembed
from faceflow.tree import MetricTree, TreeMap, glue
from faceflow.treeembed import (
    EmbedState,
    _close_ear,
    anchor_points,
    embed_outerplanar,
    embed_sampler,
    is_star_shaped,
    is_thin,
    random_extension,
    thin_number,
)
from test_thinround import tree_maps
from test_tree import (
    ReferenceTree,
    adj_lists,
    mutate,
    random_forest,
    reference_glue,
    tick_tree,
    walk_tree,
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
    """random.Random stand-in with scripted randrange values; ``draws``
    counts the randrange calls."""

    def __init__(self, values, coin=0.0):
        self.values = list(values)
        self.coin = coin
        self.draws = 0

    def randrange(self, n):
        self.draws += 1
        return self.values.pop(0) if self.values else 0

    def random(self):
        return self.coin


def reference_anchor_points(
    c, u, v, forbidden, good_end, rng, path_pos=None, extra_check=None
):
    """The exact-Fraction anchor sampler that the tick version replaced,
    kept verbatim; it reads the config through ``treeembed`` so a patched
    grid applies to both."""
    DEFAULT_CONFIG = treeembed.DEFAULT_CONFIG
    circ = c.circumference
    chord = c.dist(u, v)
    path_len = circ - chord
    if path_len <= 0:
        raise ChordTooLong("degenerate cycle: chord covers the whole circumference")
    delta = chord / path_len
    delta_max = DEFAULT_CONFIG.anchor_delta_max
    if delta > delta_max:
        raise ChordTooLong(f"chord ratio {delta} exceeds {delta_max}")
    alpha, beta = DEFAULT_CONFIG.anchor_alpha, DEFAULT_CONFIG.anchor_beta
    base = u if good_end == v else v
    if path_pos is None:
        path_pos = c.points
    # Anchors sit on the path arc, measured from the non-good endpoint.
    sign = 1 if path_pos[base] == 0 else -1
    forb = sorted(set(frac(x) for x in forbidden))

    def distances_distinct(anchor: Fraction) -> bool:
        seen: dict[Fraction, Fraction] = {}
        for s in forb:
            d = c.dist_pos(anchor, s)
            if d in seen and c.dist_pos(seen[d], s) != 0:
                return False
            seen.setdefault(d, s)
        return True

    n_grid = DEFAULT_CONFIG.anchor_grid
    for _ in range(512):
        eta = delta + (alpha - delta) * Fraction(rng.randrange(n_grid) + 1, n_grid + 1)
        p_off = (Fraction(1, 4) + 3 * alpha / 2 - eta) * circ
        q_off = (Fraction(1, 2) - eta - beta) * circ
        p_pos = (c.points[base] + sign * p_off) % circ
        q_pos = (c.points[base] + sign * q_off) % circ
        if not (distances_distinct(p_pos) and distances_distinct(q_pos)):
            continue
        if extra_check is not None and not extra_check(p_pos, q_pos):
            continue
        reference_assert_anchor_conditions(
            c, u, v, base, p_pos, q_pos, path_pos, path_len
        )
        return p_pos, q_pos
    raise InvariantViolation("anchor sampling failed to avoid the forbidden set")


def reference_assert_anchor_conditions(c, u, v, base, p_pos, q_pos, path_pos, path_len):
    DEFAULT_CONFIG = treeembed.DEFAULT_CONFIG
    circ = c.circumference
    beta = DEFAULT_CONFIG.anchor_beta
    if c.dist_pos(p_pos, q_pos) != circ / 6:
        raise InvariantViolation("anchors are not len(C)/6 apart")
    for a in (c.points[u], c.points[v]):
        for b in (p_pos, q_pos):
            d = c.dist_pos(a, b)
            if not (beta * circ <= d <= (Fraction(1, 2) - beta) * circ):
                raise InvariantViolation("anchor apartness band violated")
    other = v if base == u else u
    for b in (p_pos, q_pos):
        if c.dist_pos(b, c.points[base]) > c.dist_pos(b, c.points[other]):
            raise InvariantViolation("anchor condition (a) violated")
        bound = (Fraction(1, 2) + DEFAULT_CONFIG.anchor_delta_max) * path_len
        for x, pos in path_pos.items():
            if abs(pos - path_pos[base]) <= bound:
                if c.dist_pos(b, pos % circ) > c.dist_pos(b, c.points[base]):
                    raise InvariantViolation("anchor condition (b) violated")


def reference_anchor_grid(circ, chord):
    """The Fraction anchor grid that the integer one replaced, kept
    verbatim: offsets ``(p0, q0, step)`` in the cycle's unit."""
    DEFAULT_CONFIG = treeembed.DEFAULT_CONFIG
    path_len = circ - chord
    if path_len <= 0:
        raise ChordTooLong("degenerate cycle: chord covers the whole circumference")
    delta = Fraction(chord) / path_len
    delta_max = DEFAULT_CONFIG.anchor_delta_max
    if delta > delta_max:
        raise ChordTooLong(f"chord ratio {delta} exceeds {delta_max}")
    alpha, beta = DEFAULT_CONFIG.anchor_alpha, DEFAULT_CONFIG.anchor_beta
    p0 = (Fraction(1, 4) + 3 * alpha / 2 - delta) * circ
    q0 = (Fraction(1, 2) - beta - delta) * circ
    step = (alpha - delta) * circ / (DEFAULT_CONFIG.anchor_grid + 1)
    return p0, q0, step


def fraction_anchor_points(
    c, u, v, forbidden, good_end, rng, path_pos=None, extra_check=None
):
    """``anchor_points`` on a cycle in any unit: the common tick grid of
    the positions and of the anchor grid is found here, and the anchors
    come back as Fractions in the cycle's unit.  ``extra_check`` sees
    ticks."""
    if path_pos is None:
        path_pos = c.points
    forbidden = list(forbidden)
    D = treeembed._lcd([frac(x) for x in [
        c.circumference, *c.points.values(), *path_pos.values(), *forbidden]])

    def tick(x):
        return treeembed._tick(frac(x), D)

    circ = tick(c.circumference)
    points = {x: tick(pos) for x, pos in c.points.items()}
    m, grid = treeembed._anchor_grid(circ, Cycle(circ, points).dist(u, v))
    sums = treeembed._equidistant_sums([m * tick(x) for x in forbidden], m * circ)
    p, q = anchor_points(
        Cycle(m * circ, {x: m * pos for x, pos in points.items()}),
        u, v, sums, good_end, rng, grid,
        path_pos={x: m * tick(pos) for x, pos in path_pos.items()},
        extra_check=extra_check,
    )
    return Fraction(p, m * D), Fraction(q, m * D)


def anchors_both(c, u, v, forbidden, good_end, make_rng, **kwargs):
    """``anchor_points`` and the reference, each on a fresh rng from
    ``make_rng``: they return the same Fractions or raise the same error."""
    try:
        want = reference_anchor_points(c, u, v, forbidden, good_end, make_rng(), **kwargs)
    except (ChordTooLong, InvariantViolation) as e:
        with pytest.raises(type(e), match=re.escape(str(e))):
            fraction_anchor_points(c, u, v, forbidden, good_end, make_rng(), **kwargs)
        raise
    got = fraction_anchor_points(c, u, v, forbidden, good_end, make_rng(), **kwargs)
    assert got == want
    assert all(type(x) is Fraction for x in got)
    return got


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
        p, q = anchors_both(c, 0, 1, {F(0), path_len}, 1, lambda: FakeRng([26]))
        # Offsets from the formulas with alpha = 1/72, beta = 1/16.
        assert c.dist_pos(p, c.points[0]) == F(1, 4) + F(1, 48) - F(1, 100)
        assert c.dist_pos(p, c.points[0]) == F(313, 1200)
        assert c.dist_pos(q, c.points[0]) == F(1, 2) - F(1, 100) - F(1, 16)
        assert c.dist_pos(q, c.points[0]) == F(171, 400)
        assert c.dist_pos(p, q) == F(1, 6)

    def test_chord_ratio_too_large(self):
        c = make_cycle([0, 1], [F(10)], F(1))
        with pytest.raises(ChordTooLong):
            anchors_both(c, 0, 1, set(), 1, lambda: random.Random(1))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_draws_sixth_apart(self, seed):
        c = make_cycle([0, 1, 2], [F(80), F(80)], F(1))
        p, q = anchors_both(
            c, 0, 2, {F(0), F(80), F(160)}, 2, lambda: random.Random(seed)
        )
        assert c.dist_pos(p, q) == c.circumference / 6

    def test_forbidden_collision_forces_resample(self):
        c = make_cycle([0, 1, 2], [F(80), F(80)], F(1))
        seen = []
        for seed in range(40):
            p, q = anchors_both(
                c, 0, 2, {F(0), F(80), F(160)}, 2, lambda: random.Random(seed)
            )
            seen.append((p, q))
        assert len(set(seen)) > 1  # eta really is random

    def test_either_anchor_equidistant_forces_resample(self):
        # Two forbidden positions half a unit either side of the first
        # draw's p, then of its q, reject that draw: the second is taken.
        c = make_cycle([0, 1, 2], [F(80), F(80)], F(1))
        first = anchors_both(c, 0, 2, set(), 2, lambda: FakeRng([0]))
        second = anchors_both(c, 0, 2, set(), 2, lambda: FakeRng([1]))
        assert first != second
        for a in first:
            forbidden = {(a + d) % c.circumference for d in (F(-1, 2), F(1, 2))}
            assert anchors_both(c, 0, 2, forbidden, 2, lambda: FakeRng([0, 1])) == second


class TestAnchorGrid:
    """The integer anchor grid gives the reference's Fractions, on the
    least finer tick grid, and raises the same errors."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference(self, seed):
        rng = random.Random(f"grid:{seed}")
        circ = rng.randrange(1, 10**7)
        chord = rng.choice([rng.randrange(circ // 150 + 1), rng.randrange(circ + 2)])
        try:
            want = reference_anchor_grid(circ, chord)
        except ChordTooLong as e:
            with pytest.raises(ChordTooLong, match=re.escape(str(e))):
                treeembed._anchor_grid(circ, chord)
            return
        m, got = treeembed._anchor_grid(circ, chord)
        assert [Fraction(x, m) for x in got] == list(want)
        assert m == math.lcm(*[x.denominator for x in want])

    def test_patched_config(self, monkeypatch):
        monkeypatch.setattr(
            treeembed, "DEFAULT_CONFIG",
            dataclasses.replace(
                DEFAULT_CONFIG, anchor_grid=54, anchor_alpha=F(1, 30),
                anchor_beta=F(1, 9), anchor_delta_max=F(1, 40),
            ),
        )
        for circ, chord in [(161, 1), (1000, 7), (2**20 + 3, 0)]:
            m, got = treeembed._anchor_grid(circ, chord)
            want = reference_anchor_grid(circ, chord)
            assert [Fraction(x, m) for x in got] == list(want)


def ear_cycle(rng: random.Random, k: int):
    """An ear of k vertices closed by a chord at most 1/160 of its length,
    with its path positions, as ``random_extension`` builds it."""
    lens = [F(rng.randrange(1, 50), rng.randrange(1, 9)) for _ in range(k - 1)]
    chord = sum(lens, F(0)) * F(rng.randrange(0, 17), 16 * 160)
    c = make_cycle(list(range(k)), lens, chord)
    path_pos = {0: F(0)}
    for i, w in enumerate(lens):
        path_pos[i + 1] = path_pos[i] + w
    return c, path_pos


class TestAnchorReference:
    """The tick sampler returns exactly the reference's Fractions."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_ear_cycles(self, seed):
        rng = random.Random(f"ear:{seed}")
        c, path_pos = ear_cycle(rng, rng.randrange(2, 9))
        forbidden = {p % c.circumference for p in path_pos.values()}
        last = max(path_pos)
        for good in (0, last):
            anchors_both(
                c, 0, last, forbidden, good, lambda: random.Random(seed),
                path_pos=path_pos,
            )

    @pytest.mark.parametrize("n", [6, 8, 12])
    def test_slack_cycle_ears(self, n):
        # The one ear of slack_cycle(n) after the 160-slack transform:
        # unit/160 arcs closed by the 1/64/160 edge.
        lens = [F(1, 160)] * (n - 1)
        c = make_cycle(list(range(n)), lens, F(1, 64 * 160))
        forbidden = set(c.points.values())
        for seed in range(25):
            anchors_both(c, 0, n - 1, forbidden, n - 1, lambda: random.Random(seed))
            anchors_both(c, 0, n - 1, forbidden, 0, lambda: random.Random(seed))

    def test_extra_check_resamples(self):
        # A check that rejects the first three candidates: both samplers
        # draw the same fourth pair.
        c = make_cycle([0, 1, 2], [F(80), F(80)], F(1))
        calls = []

        def reject_three(p, q):
            calls.append((p, q))
            return len(calls) % 4 == 0

        anchors_both(
            c, 0, 2, {F(0), F(80), F(160)}, 2, lambda: random.Random(3),
            extra_check=reject_three,
        )
        assert len(calls) == 8


def reference_distances_distinct(c: Cycle, forbidden, anchor: int) -> bool:
    """The loop that ``anchor_points`` ran per candidate before its
    ``_equidistant_sums`` lookup, kept verbatim apart from its arguments:
    the distances from ``anchor`` to the forbidden positions are pairwise
    distinct, zero-distance pairs exempt."""
    forb = sorted(set(forbidden))
    dist_pos = c.dist_pos
    seen: dict[int, int] = {}
    for s in forb:
        d = dist_pos(anchor, s)
        if d in seen and dist_pos(seen[d], s) != 0:
            return False
        seen.setdefault(d, s)
    return True


class TestEquidistantSums:
    """An anchor passes the sum lookup exactly when it passes the loop."""

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 200).flatmap(lambda circ: st.tuples(
        st.just(circ),
        st.lists(st.integers(0, circ - 1), max_size=9),
        st.integers(0, circ - 1),
    )))
    def test_same_verdict_as_the_loop(self, drawn):
        circ, forbidden, anchor = drawn
        sums = treeembed._equidistant_sums(forbidden, circ)
        want = reference_distances_distinct(Cycle(circ, {}), forbidden, anchor)
        assert ((2 * anchor) % circ not in sums) == want

    def test_every_anchor_on_small_cycles(self):
        # Every anchor against every set of at most 4 positions, on
        # cycles of 1 to 12 ticks.
        for circ in range(1, 13):
            c = Cycle(circ, {})
            for k in range(5):
                for forbidden in itertools.combinations(range(circ), k):
                    sums = treeembed._equidistant_sums(forbidden, circ)
                    for a in range(circ):
                        want = reference_distances_distinct(c, forbidden, a)
                        assert ((2 * a) % circ not in sums) == want


class TestAnchorViolations:
    """Each anchor check fires on an anchor that breaks it, in the tick
    sampler and in the reference alike."""

    def test_not_sixth_apart(self, monkeypatch):
        # beta = 1/8 puts the anchors 5/48 of the cycle apart.
        monkeypatch.setattr(
            treeembed, "DEFAULT_CONFIG",
            dataclasses.replace(DEFAULT_CONFIG, anchor_beta=F(1, 8)),
        )
        c = make_cycle([0, 1], [F(160, 161)], F(1, 161))
        with pytest.raises(InvariantViolation, match="not len\\(C\\)/6 apart"):
            anchors_both(c, 0, 1, set(), 1, lambda: random.Random(0))

    def test_apartness_band(self, monkeypatch):
        # A draw far off the grid gives eta > 3/8, so q lands within
        # len(C)/16 of the base endpoint.
        monkeypatch.setattr(
            treeembed, "DEFAULT_CONFIG",
            dataclasses.replace(DEFAULT_CONFIG, anchor_grid=54),
        )
        c = make_cycle([0, 1], [F(160, 161)], F(1, 161))
        with pytest.raises(InvariantViolation, match="apartness band"):
            anchors_both(c, 0, 1, set(), 1, lambda: FakeRng([2700]))

    def test_condition_a(self, monkeypatch):
        # Chord len(C)/6 (delta = 1/5, allowed by a raised delta_max) and
        # eta = 1/96: q sits at 41/96 from the base endpoint but 39/96
        # from the other one.
        monkeypatch.setattr(
            treeembed, "DEFAULT_CONFIG",
            dataclasses.replace(
                DEFAULT_CONFIG, anchor_grid=267, anchor_delta_max=F(1, 4)
            ),
        )
        c = make_cycle([0, 1], [F(5, 6)], F(1, 6))
        with pytest.raises(InvariantViolation, match="condition \\(a\\)"):
            anchors_both(c, 0, 1, set(), 1, lambda: FakeRng([272]))

    def test_condition_b(self):
        # A path vertex len(C)/10 behind the base endpoint is farther from
        # the anchors than the base endpoint itself.
        c = make_cycle([0, 1], [F(160, 161)], F(1, 161))
        path_pos = {0: F(0), 1: F(160, 161), 2: F(-1, 10)}
        with pytest.raises(InvariantViolation, match="condition \\(b\\)"):
            anchors_both(
                c, 0, 1, set(), 1, lambda: random.Random(0), path_pos=path_pos
            )

    def test_forbidden_set_not_avoided(self):
        c = make_cycle([0, 1, 2], [F(80), F(80)], F(1))
        with pytest.raises(InvariantViolation, match="failed to avoid"):
            anchors_both(
                c, 0, 2, {F(0), F(80), F(160)}, 2, lambda: random.Random(0),
                extra_check=lambda p, q: False,
            )


# -- the Fraction-tree ear step that the tick tree replaced, the reference --


def reference_random_extension(
    state: EmbedState,
    path_vertices,
    path_lengths,
    attach: tuple[int, int],
    rng: random.Random,
) -> None:
    """Attach one ear: close it into a cycle against the current tree
    distance of the attach edge, pick anchors, flatten, and glue one of
    the two flattenings (fair coin).  The version that grew a Fraction
    ``MetricTree``, kept verbatim apart from the reference helpers' names
    and the ``embedded`` set, which the mapping's keys replaced."""
    DEFAULT_CONFIG = treeembed.DEFAULT_CONFIG
    u, v = attach
    path_vertices = list(path_vertices)
    path_lengths = [frac(w) for w in path_lengths]
    if path_vertices[0] == v and path_vertices[-1] == u:
        path_vertices.reverse()
        path_lengths.reverse()
    if path_vertices[0] != u or path_vertices[-1] != v:
        raise ValueError("ear endpoints do not match the attach edge")
    fu, fv = state.mapping[u], state.mapping[v]
    tree = state.tree
    d = tree.dist(fu, fv)
    len_p = sum(path_lengths, Fraction(0))
    edge_len = state.graph.edge_lengths().get(norm_edge(u, v))
    hyp = edge_len if edge_len is not None else d
    if len_p < DEFAULT_CONFIG.slack_alpha * hyp:
        raise SlackViolation(
            f"ear of length {len_p} too short for attach edge of length {hyp}"
        )

    good_u = treeembed._is_good(state, u, v)
    good_v = treeembed._is_good(state, v, u)
    if good_u and good_v:
        good = min(u, v)
    elif good_u:
        good = u
    elif good_v:
        good = v
    else:
        raise InvariantViolation(f"no good endpoint for attach edge ({u},{v})")

    if d > len_p:
        raise ChordTooLong(f"chord {d} exceeds path length {len_p}")
    if len_p == 0:
        raise ValueError("degenerate cycle of circumference zero")
    # The ear cycle in integer ticks 1/D, D the grid of its positions and
    # of every anchor candidate: only the anchors and the new tree edge
    # lengths go back to Fractions.
    D = treeembed._lcd([d, *reference_anchor_grid(len_p + d, d), *path_lengths])
    circ = treeembed._tick(len_p + d, D)
    path_pos: dict[int, int] = {}
    pos = 0
    for i, x in enumerate(path_vertices):
        path_pos[x] = pos
        if i < len(path_lengths):
            pos += treeembed._tick(path_lengths[i], D)
    cyc = Cycle(circ, {x: p % circ for x, p in path_pos.items()})
    forbidden = set(cyc.points.values())

    # Tree positions along the F(u)-F(v) path; one off the grid never
    # equals a flattened offset.
    glue_positions = set()
    for _, g_pos in tree.path_positions(fu, fv):
        t, r = divmod(g_pos.numerator * D, g_pos.denominator)
        if not r:
            glue_positions.add(t)
    interior = path_vertices[1:-1]

    def no_existing_collision(p_pos: int, q_pos: int) -> bool:
        for b in (p_pos, q_pos):
            flat = flatten(cyc, b)
            lo, hi = sorted((flat.positions[u], flat.positions[v]))
            for x in interior:
                fp = flat.positions[x]
                if lo <= fp <= hi and abs(fp - flat.positions[u]) in glue_positions:
                    return False
        return True

    p_pos, q_pos = fraction_anchor_points(
        cyc, u, v, forbidden, good, rng,
        path_pos=path_pos, extra_check=no_existing_collision,
    )
    branch = p_pos if rng.random() < 0.5 else q_pos
    flat = flatten(cyc, branch.numerator)  # whole: cyc is on its grid

    order = sorted(path_vertices, key=lambda x: (flat.positions[x], path_pos[x]))
    t2 = ReferenceTree()
    t2_id = {x: i for i, x in enumerate(order)}
    for i in range(len(order) - 1):
        a, b = order[i], order[i + 1]
        w = Fraction(flat.positions[b] - flat.positions[a], D)
        t2.add_vertex(t2_id[a])
        t2.add_vertex(t2_id[b])
        t2.add_edge(t2_id[a], t2_id[b], w)
    if len(order) == 1:
        t2.add_vertex(t2_id[order[0]])

    new_tree, map2 = reference_glue(tree, t2, fu, fv, t2_id[u], t2_id[v])
    state.tree = new_tree
    for x in interior:
        state.mapping[x] = map2[t2_id[x]]


def reference_embed_block(
    g: MetricGraph,
    build: OuterplanarBuild,
    rng: random.Random,
) -> tuple[MetricTree, dict[int, int]]:
    """Embed one biconnected block (or bridge) of the slack graph from
    its ear build; tree ids are local and
    relabelled by the caller.  Only ears draw from ``rng``.  The
    version on a Fraction tree throughout, put on ticks at the end for
    the caller's ``graft``."""
    init_vs = build.initial_vertices
    tree = ReferenceTree()
    mapping: dict[int, int] = {}
    for i, x in enumerate(init_vs):
        tree.add_vertex(i)
        mapping[x] = i
    for i, w in enumerate(build.initial_lengths):
        tree.add_edge(mapping[init_vs[i]], mapping[init_vs[i + 1]], w)
    state = EmbedState(tree=tree, mapping=mapping, graph=g)
    for step in build.steps:
        reference_random_extension(
            state, step.path_vertices, step.path_lengths, step.attach_edge, rng
        )
    return tick_tree(state.tree), state.mapping


def reference_embed_sampler(g: MetricGraph):
    """The sampler that embedded every block per sample, through
    ``reference_embed_block`` here, and built an rng for every sample.
    Kept verbatim apart from the reference's names; it reads the slack
    transform through ``treeembed`` so a patched one applies to both."""
    if len(g.components()) != 1:
        raise ValueError("embedding expects a connected graph")
    h, builds = treeembed.slack_transform(g, treeembed.DEFAULT_CONFIG.slack_alpha)
    fixed = {i: reference_embed_block(h, b, None)
             for i, b in enumerate(builds) if not b.steps}

    def sample(seed: int) -> TreeMap:
        rng = random.Random(f"embed:{seed}")
        final = MetricTree()
        mapping: dict[int, int] = {}
        next_global = 0
        for i, block_build in enumerate(builds):
            bt, bmap = fixed.get(i) or reference_embed_block(h, block_build, rng)
            shared = [x for x in bmap if x in mapping]
            relabel: dict[int, int] = {}
            if shared:
                c = shared[0]
                relabel[bmap[c]] = mapping[c]
            for t_v in bt.vertices():
                if t_v not in relabel:
                    relabel[t_v] = next_global
                    next_global += 1
            final.graft(bt, relabel)
            for x, t_v in bmap.items():
                mapping[x] = relabel[t_v]
        root_vertex = min(mapping)
        return TreeMap(final, mapping, h, root=mapping[root_vertex])

    return sample


def draws(g, seeds, sampler=embed_sampler):
    """Root, mapping and tree adjacency, in their order, of the maps that
    ``sampler(g)`` draws at the given seeds."""
    samp = sampler(g)
    return [
        (tm.root, list(tm.mapping.items()), adj_lists(tm.tree))
        for tm in map(samp, seeds)
    ]


def extend(state, path_vertices, path_lengths, attach, rng):
    """One ear step as the sampler takes it: close the ear, then draw."""
    step = BuildStep(tuple(path_vertices), tuple(path_lengths), attach)
    random_extension(state, _close_ear(state, step), rng)


def two_vertex_state():
    """Fresh state embedding the single attach edge (0, 1) of length 1."""
    g = MetricGraph(
        3, ((0, 1, F(1)), (0, 2, F(80)), (1, 2, F(80)))
    )
    tree = MetricTree.from_path([0, 1], [F(1)])
    return EmbedState(tree=tree, mapping={0: 0, 1: 1}, graph=g)


class TestRandomExtension:
    @pytest.mark.parametrize("seed", range(20))
    def test_long_ear_both_outcomes_lipschitz(self, seed):
        state = two_vertex_state()
        extend(state, [0, 2, 1], [F(80), F(80)], (0, 1), random.Random(seed))
        tm = TreeMap(state.tree, state.mapping, state.graph, root=0)
        assert tm.is_lipschitz()
        assert 2 in state.mapping

    @pytest.mark.parametrize("seed", range(20))
    def test_existing_distances_unchanged(self, seed):
        state = two_vertex_state()
        before = state.tree.dist(0, 1)
        extend(state, [0, 2, 1], [F(80), F(80)], (0, 1), random.Random(seed))
        tree = state.tree
        assert tree.dist(state.mapping[0], state.mapping[1]) == before

    def test_zero_chord_degenerate(self):
        g = MetricGraph(3, ((0, 1, F(0)), (0, 2, F(1)), (1, 2, F(1))))
        state = EmbedState(
            tree=MetricTree.from_path([0], []), mapping={0: 0, 1: 0}, graph=g
        )
        extend(state, [0, 2, 1], [F(1), F(1)], (0, 1), random.Random(4))
        tm = TreeMap(state.tree, state.mapping, g, root=0)
        assert tm.is_lipschitz()
        assert tm.tree.dist(state.mapping[0], state.mapping[1]) == 0


class TestRandomExtensionErrors:
    """Each check of the ear step raises the reference's error, message
    included, when the ear is closed, before any draw.  A case is the
    attach edge (0, 1)'s graph length, the tree path lengths between F(0)
    and F(1) (none: one tree vertex), the ear path and its lengths, and
    the error."""

    CASES = {
        "slack": (F(1), [F(1)], [0, 2, 1], [F(1), F(1)], SlackViolation),
        "chord-over-path": (
            F(1, 1000), [F(1), F(1, 3)], [0, 2, 1], [F(1, 10), F(1, 7)], ChordTooLong,
        ),
        "chord-ratio": (F(1, 1000), [F(1, 3)], [0, 2, 1], [F(1), F(1)], ChordTooLong),
        "zero-circumference": (F(0), [], [0, 2, 1], [F(0), F(0)], ValueError),
        "endpoints": (F(1), [F(1)], [0, 1, 2], [F(80), F(80)], ValueError),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_error_as_reference(self, case):
        edge, tree_lens, path, ear_lens, error = self.CASES[case]
        g = MetricGraph(3, ((0, 1, edge), (0, 2, ear_lens[0]), (1, 2, ear_lens[1])))
        vs = list(range(len(tree_lens) + 1))  # tree ids; F(1) = vs[-1]

        def run(step, tree):
            state = EmbedState(tree=tree, mapping={0: 0, 1: vs[-1]}, graph=g)
            step(state, path, ear_lens, (0, 1), random.Random(0))

        with pytest.raises(error) as want:
            run(reference_random_extension, ReferenceTree.from_path(vs, tree_lens))
        def close(state, path, ear_lens, attach, rng):
            _close_ear(state, BuildStep(tuple(path), tuple(ear_lens), attach))

        with pytest.raises(error, match=f"^{re.escape(str(want.value))}$"):
            run(close, MetricTree.from_path(vs, tree_lens))


class TestEarStepBranches:
    """The ear step's safety branches that the draws above never reach,
    each on a hand-built input, against the reference."""

    def test_equidistant_forbidden_points_resample(self, monkeypatch):
        # The worked example's first candidate p = 313/1200 has two
        # forbidden points at distance 1/100: the sampler draws again and
        # returns the second draw's anchors.
        monkeypatch.setattr(
            treeembed, "DEFAULT_CONFIG",
            dataclasses.replace(DEFAULT_CONFIG, anchor_grid=54),
        )
        c = make_cycle([0, 1], [F(160, 161)], F(1, 161))
        rngs = []

        def make_rng():
            rngs.append(FakeRng([26, 10]))
            return rngs[-1]

        forbidden = {F(313, 1200) - F(1, 100), F(313, 1200) + F(1, 100)}
        got = anchors_both(c, 0, 1, forbidden, 1, make_rng)
        assert [r.draws for r in rngs] == [2, 2]
        assert got == anchors_both(c, 0, 1, set(), 1, lambda: FakeRng([10]))
        assert got != anchors_both(c, 0, 1, set(), 1, lambda: FakeRng([26]))

    @staticmethod
    def collision_length():
        """2P + 1/2, P the distance from the ear's start of the anchor p
        that draw 1000 picks on an ear of length 320 over an edge of 1."""
        alpha = DEFAULT_CONFIG.anchor_alpha
        delta = F(1, 320)
        eta = delta + (alpha - delta) * F(1001, DEFAULT_CONFIG.anchor_grid + 1)
        x = 2 * (F(1, 4) + 3 * alpha / 2 - eta) * 321 + F(1, 2)
        assert x == F(1354753613, 7864440)
        return x

    def test_glue_collision_resamples(self):
        # Tree path F(1) - 2 - F(0) of two halves, ear 1 -> 2 -> 0 of
        # length 320.  Draw 1000 puts anchor p at distance P from vertex 1,
        # and ear vertex 2 sits at 2P + 1/2: flattened from p it lands 1/2
        # past F(1), on tree vertex 2.  The collision check rejects it, and
        # the second draw glues vertex 2 onto a new tree vertex.
        x = self.collision_length()
        step = BuildStep((1, 2, 0), (x, 320 - x), (1, 0))
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, x), (0, 2, 320 - x)))

        def run(extend_with, tree):
            state = EmbedState(tree=tree, mapping={0: 0, 1: 1}, graph=g)
            rng = FakeRng([1000, 7])
            extend_with(state, *dataclasses.astuple(step), rng)
            return adj_lists(state.tree), state.mapping, rng.draws

        lens = [F(1, 2), F(1, 2)]
        got = run(extend, MetricTree.from_path([1, 2, 0], lens))
        want = run(reference_random_extension, ReferenceTree.from_path([1, 2, 0], lens))
        assert got == want
        assert got[1] == {0: 0, 1: 1, 2: 3} and got[2] == 2
        # The first candidate alone passes the distance check.
        state = EmbedState(MetricTree.from_path([1, 2, 0], lens), {0: 0, 1: 1}, g)
        ear = _close_ear(state, step)
        rng = FakeRng([1000])
        anchor_points(
            ear.cycle, 1, 0, ear.sums, ear.good, rng, ear.grid,
            path_pos=ear.path_pos,
        )
        assert rng.draws == 1

    def test_glue_collision_mirrored_resamples(self):
        # The mirror image: tree path F(0) - 2 - F(1) of two halves, attach
        # (0, 1) with u = 0 good, ear 0 -> 2 -> 1 with vertex 2 at
        # 320 - (2P + 1/2).  Draw 1000 flattens vertex 2 to 1/2 short of
        # F(0)'s offset, the larger one, and glue puts it at |1/2| along
        # the tree path: on tree vertex 2.  The check tests the absolute
        # offset, so it rejects the draw as it does the case above.
        x = self.collision_length()
        step = BuildStep((0, 2, 1), (320 - x, x), (0, 1))
        g = MetricGraph(3, ((0, 1, F(1)), (0, 2, 320 - x), (1, 2, x)))
        lens = [F(1, 2), F(1, 2)]

        def run(extend_with, tree):
            state = EmbedState(tree=tree, mapping={0: 0, 1: 1}, graph=g)
            rng = FakeRng([1000, 7])
            extend_with(state, *dataclasses.astuple(step), rng)
            return adj_lists(state.tree), state.mapping, rng.draws

        got = run(extend, MetricTree.from_path([0, 2, 1], lens))
        want = run(reference_random_extension, ReferenceTree.from_path([0, 2, 1], lens))
        assert got == want
        assert got[1] == {0: 0, 1: 1, 2: 3} and got[2] == 2
        # The one-sided test, fp - fu_b in place of its absolute value,
        # accepts the first draw, whose anchor flattens vertex 2 onto
        # the tree position of vertex 2.
        state = EmbedState(MetricTree.from_path([0, 2, 1], lens), {0: 0, 1: 1}, g)
        ear = _close_ear(state, step)
        assert (ear.attach, ear.good) == ((0, 1), 0)
        cyc = ear.cycle
        pu, pv, p2 = (cyc.points[w] for w in (0, 1, 2))
        offsets = []

        def one_sided(p_pos, q_pos):
            for b in (p_pos, q_pos):
                fu_b = cyc.dist_pos(b, pu)
                lo, hi = sorted((fu_b, cyc.dist_pos(b, pv)))
                fp = cyc.dist_pos(b, p2)
                offsets.append((lo <= fp <= hi, fp - fu_b))
                if lo <= fp <= hi and fp - fu_b in ear.glue_positions:
                    return False
            return True

        rng = FakeRng([1000])
        anchor_points(
            cyc, 0, 1, ear.sums, ear.good, rng, ear.grid,
            path_pos=ear.path_pos, extra_check=one_sided,
        )
        assert rng.draws == 1
        half = ear.D // 2
        assert (True, -half) in offsets and half in ear.glue_positions

    @staticmethod
    def branched_state(tree_cls, branches):
        """Attach edge (0, 1) on the tree path 0 - 1 - 2 - 3 of quarters,
        F(0) = 0 and F(1) = 3, with the ear 0 -> 4 -> 1 of length 320 not
        yet embedded.  Each (x, w, t) in ``branches`` embeds x's neighbour
        w at a new leaf 10 + w hung off tree vertex t."""
        edges = [(0, 1, F(1)), (0, 4, F(160)), (1, 4, F(160))]
        edges += [(x, w, F(1)) for x, w, _ in branches]
        tree = tree_cls.from_path([0, 1, 2, 3], [F(1, 4), F(1, 2), F(1, 4)])
        mapping = {0: 0, 1: 3}
        for _, w, t in branches:
            tree.add_edge(t, 10 + w, F(1, 4))
            mapping[w] = 10 + w
        return EmbedState(tree=tree, mapping=mapping, graph=MetricGraph(6, tuple(edges)))

    @pytest.mark.parametrize("seed", range(5))
    def test_good_endpoint_is_v_alone(self, seed):
        # Vertex 0's neighbour 2 leaves the F(0)-F(1) path at tree vertex
        # 1, so 0 is not good and 1, the larger endpoint, is.
        step = BuildStep((0, 4, 1), (F(160), F(160)), (0, 1))
        state = self.branched_state(MetricTree, [(0, 2, 1)])
        assert not treeembed._is_good(state, 0, 1) and treeembed._is_good(state, 1, 0)
        assert _close_ear(state, step).good == 1
        ref = self.branched_state(ReferenceTree, [(0, 2, 1)])
        extend(state, *dataclasses.astuple(step), random.Random(seed))
        reference_random_extension(ref, *dataclasses.astuple(step), random.Random(seed))
        assert (adj_lists(state.tree), state.mapping) == (adj_lists(ref.tree), ref.mapping)

    def test_no_good_endpoint(self):
        # Both endpoints have a neighbour that leaves the path at an
        # interior tree vertex.
        step = BuildStep((0, 4, 1), (F(160), F(160)), (0, 1))
        branches = [(0, 2, 1), (1, 3, 2)]
        message = "^no good endpoint for attach edge \\(0,1\\)$"
        with pytest.raises(InvariantViolation, match=message):
            reference_random_extension(
                self.branched_state(ReferenceTree, branches),
                *dataclasses.astuple(step), random.Random(0),
            )
        with pytest.raises(InvariantViolation, match=message):
            _close_ear(self.branched_state(MetricTree, branches), step)


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

    def test_rejects_empty(self):
        # The empty graph is outerplanar but has no component to embed.
        with pytest.raises(ValueError, match="^embedding expects a connected graph$"):
            embed_sampler(MetricGraph(0, ()))

    @pytest.mark.parametrize("seed", range(30))
    def test_invariants_slack_cycle(self, seed):
        tm = embed_outerplanar(slack_cycle(6), seed)
        assert tm.is_lipschitz()
        assert is_star_shaped(tm)
        assert tm.tree.is_tree()

    @pytest.mark.parametrize("seed", range(30))
    def test_invariants_two_ear_block(self, seed):
        # Two ears in one block, so the block's tick grid is refined
        # between them.
        g = two_ear_block()
        h, builds = slack_transform(reduce_lengths(g), DEFAULT_CONFIG.slack_alpha)
        assert max(len(b.steps) for b in builds) == 2
        tm = embed_outerplanar(g, seed)
        assert sorted(tm.source.edges) == sorted(h.edges)
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

    @pytest.mark.parametrize(
        "g", [slack_cycle(8), two_ear_block(), two_slack_blocks()],
        ids=["slack8", "two-ear", "two-slack-blocks"],
    )
    def test_sampled_tree_is_on_ticks(self, g):
        # The sample's tree is handed on as built: int ticks over its D.
        tm = embed_sampler(g)(3)
        ticks = [
            (x, y, w) for x, nbrs in tm.tree.adj.items() for y, w in nbrs.items() if x < y
        ]
        assert all(type(w) is int for _, _, w in ticks)
        assert [(x, y, Fraction(w, tm.tree.D)) for x, y, w in ticks] == tm.tree.edges()

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


# -- the predicates before ``arm_union``, the references: kept verbatim
# apart from their names and the walked ``path_union`` of ``WalkTree`` --


def reference_star_center_arms(tm: TreeMap, t: int, fiber) -> list[int]:
    targets = set()
    for x in fiber:
        for w in tm.source.neighbors(x):
            if tm.mapping[w] != t:
                targets.add(tm.mapping[w])
    return sorted(targets)


def reference_is_star_shaped(tm: TreeMap) -> bool:
    """True iff around every image vertex the union of realized-edge
    paths is a subdivided star centered there."""
    fibers = tm.fibers()
    for t, fib in fibers.items():
        deg, _ = walk_tree(tm.tree).path_union(t, reference_star_center_arms(tm, t, fib))
        for v, dv in deg.items():
            if v != t and dv > 2:
                return False
    return True


def reference_thin_number(tm: TreeMap, u: int) -> int:
    """Minimum number of simple paths from F(u) covering the union of
    paths to the images of u's neighbors (= leaves of that union other
    than F(u))."""
    fu = tm.mapping[u]
    deg, _ = walk_tree(tm.tree).path_union(
        fu, (tm.mapping[w] for w in tm.source.neighbors(u))
    )
    return sum(1 for v, dv in deg.items() if dv == 1 and v != fu)


@st.composite
def forest_maps(draw):
    """A map into a random forest (zero-length edges, scattered ids, the
    index rooted at each tree's first vertex) of up to 12 graph vertices
    with up to 14 random edges: fibres of several vertices, and arms
    that go up from a centre, branch or end in another tree.  One drawn
    seed fixes it all, so the draws are spread evenly, not small."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    t = random_forest(rng, rng.randrange(1, 11), parts=rng.choice([1, 1, 1, 2, 3]))
    k = rng.randrange(2, 13)
    mapping = {x: rng.choice(t.vertices()) for x in range(k)}
    pairs = {norm_edge(*rng.sample(range(k), 2)) for _ in range(rng.randrange(15))}
    g = MetricGraph(k, tuple((a, b, F(1)) for a, b in sorted(pairs)))
    return TreeMap(t, mapping, g, root=mapping[0])


def outcome(check, *args):
    """The value of ``check(*args)``, or the ValueError it raises."""
    try:
        return check(*args)
    except ValueError as err:
        return ("ValueError", str(err))


class TestChecksMatchWalk:
    """``is_star_shaped`` and ``thin_number`` on ``arm_union`` against the
    parent's on the walked path union: tree maps that are star-shaped or
    not, with fibres of several vertices, and maps into forests, where an
    arm into another tree raises as the walk does."""

    MAPS = st.one_of(
        tree_maps().map(lambda d: d[0]),
        tree_maps(star_shaped=False).map(lambda d: d[0]),
        forest_maps(),
    )

    @settings(max_examples=400, deadline=None)
    @given(MAPS)
    def test_same_answers(self, tm):
        got = outcome(is_star_shaped, tm)
        want = outcome(reference_is_star_shaped, tm)
        if isinstance(want, tuple):
            # Both name a target in another tree, not always the same one.
            assert isinstance(got, tuple)
        else:
            assert got == want
        for u in tm.mapping:
            assert outcome(thin_number, tm, u) == outcome(reference_thin_number, tm, u)
        assert outcome(is_thin, tm, 2) == outcome(
            lambda: all(reference_thin_number(tm, u) <= 2 for u in tm.mapping)
        )


def assert_matrix_is_tick_dist(t: MetricTree, xs) -> None:
    """Each entry of ``t.tick_matrix(xs)`` is ``tick_dist``'s, or None
    where ``tick_dist`` raises that the ends are in different
    components."""
    got = t.tick_matrix(xs)
    want = [[outcome(t.tick_dist, x, y) for y in xs] for x in xs]
    apart = [[d if d is not None else ("ValueError", f"{x} and {y} are in different components")
              for y, d in zip(xs, row)] for x, row in zip(xs, got)]
    assert apart == want


class TestTickMatrix:
    """``tick_matrix`` against ``tick_dist``, entry by entry: on tree maps
    and forest maps (0-tick edges, scattered ids, up to three trees) with
    the map's images, repeats included, and more tree vertices, in a
    random order; and on forests after each mutator, through a kept or a
    rebuilt index."""

    @settings(max_examples=300, deadline=None)
    @given(TestChecksMatchWalk.MAPS, st.randoms(use_true_random=False))
    def test_every_entry_is_tick_dist(self, tm, rng):
        t = tm.tree
        xs = [*tm.mapping.values(), *rng.choices(t.vertices(), k=rng.randrange(4))]
        rng.shuffle(xs)
        assert_matrix_is_tick_dist(t, xs)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_after_mutators(self, rng):
        t = random_forest(rng, rng.randrange(1, 13), parts=rng.choice([1, 1, 2, 3]))
        for _ in range(4):
            assert_matrix_is_tick_dist(t, rng.choices(t.vertices(), k=rng.randrange(9)))
            mutate(t, rng)

    @pytest.mark.parametrize("xs", [[9], [0, 9], [9, 0, 1], [1, 0, 9, 9]])
    def test_missing_vertex(self, xs):
        t = MetricTree.from_path([0, 1], [1])
        with pytest.raises(ValueError, match="^9 is not a vertex of the tree$"):
            t.tick_matrix(xs)

    def test_no_vertices(self):
        assert MetricTree.from_path([0, 1], [1]).tick_matrix([]) == []


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


def anchor_check_outcome(check, *args):
    """None if the anchor check passes, else its error's message."""
    try:
        check(*args)
    except InvariantViolation as e:
        return str(e)
    return None


class TestEmbedReference:
    """The sampler draws exactly the maps of the reference sampler, which
    embeds every block per sample on the Fraction-tree reference: the
    same root, mapping and tree, down to adjacency order."""

    GRAPHS = [
        *[(f"slack{n}", slack_cycle(n)) for n in (5, 6, 7, 8, 10, 12, 16)],
        *[
            (f"outer{n}-{s}-c{c}", random_outerplanar(n, s, extra_chords=c)[0])
            for n, s, c in [(7, 0, 0), (8, 1, 2), (9, 2, 3), (9, 3, 4)]
        ],
        ("two-ear", two_ear_block()),
        ("two-slack-blocks", two_slack_blocks()),
        ("slack6-triangle", MetricGraph(8, tuple(list(slack_cycle(6).edges) + [
            (5, 6, F(1)), (6, 7, F(1)), (5, 7, F(1, 128)),
        ]))),
    ]
    SEEDS = range(200)

    @pytest.mark.parametrize("g", [g for _, g in GRAPHS], ids=[n for n, _ in GRAPHS])
    def test_byte_identical_draws(self, g):
        assert draws(g, self.SEEDS) == draws(g, self.SEEDS, reference_embed_sampler)

    @pytest.mark.parametrize("g", [g for _, g in GRAPHS], ids=[n for n, _ in GRAPHS])
    def test_anchor_conditions_match_reference(self, g, monkeypatch):
        # Every anchor pair the draws produce, and pairs moved off it
        # along the cycle (both anchors, or q alone) or read from the
        # other endpoint, pass or fail both checks alike, with the same
        # message.
        calls = []
        check = treeembed._assert_anchor_conditions

        def recording(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(treeembed, "_assert_anchor_conditions", recording)
        draws(g, self.SEEDS)
        ears = sum(len(b.steps) for b in slack_transform(g, DEFAULT_CONFIG.slack_alpha)[1])
        assert len(calls) == ears * len(self.SEEDS)
        seen = set()
        for c, u, v, base, p, q, path_pos in calls:
            circ = c.circumference
            ref_c = Cycle(F(circ), c.points)
            path_len = circ - c.dist(u, v)
            for b in (base, u if base == v else v):
                for shift in (0, 1, circ // 16, circ // 8, circ // 4, circ // 2):
                    q_shifted = (q + shift) % circ
                    for a1, a2 in (((p + shift) % circ, q_shifted), (p, q_shifted)):
                        got = anchor_check_outcome(check, c, u, v, b, a1, a2, path_pos)
                        want = anchor_check_outcome(
                            reference_assert_anchor_conditions,
                            ref_c, u, v, b, a1, a2, path_pos, path_len,
                        )
                        assert got == want
                        seen.add(got)
        # Every outcome of the check is reached: a pass and each message.
        assert len(seen) == (5 if calls else 0)


class TestOneAnchorGrid:
    """The anchor grid is computed once per ear closed: a block's first
    ear once, when the sampler is built, and each later ear once per
    sample."""

    @pytest.mark.parametrize(
        "g,ears,grids", [(slack_cycle(8), 1, 1), (two_ear_block(), 2, 1 + 3)],
        ids=["slack8", "two-ear"],
    )
    def test_anchor_grid_calls(self, g, ears, grids, monkeypatch):
        _, builds = slack_transform(reduce_lengths(g), DEFAULT_CONFIG.slack_alpha)
        assert sum(len(b.steps) for b in builds) == ears
        assert [len(b.steps) for b in builds if b.steps] == [ears]
        anchor_grid = treeembed._anchor_grid
        calls = []

        def counting(*args):
            calls.append(args)
            return anchor_grid(*args)

        monkeypatch.setattr(treeembed, "_anchor_grid", counting)
        samp = embed_sampler(g)
        for seed in range(3):
            samp(seed)
        assert len(calls) == grids

    def test_earless_graph_draws_nothing(self, monkeypatch):
        # random_outerplanar(8, 0) collapses to a tree under the slack
        # transform: its samples build no rng, and draw the reference's
        # trees all the same.
        g = random_outerplanar(8, 0)[0]
        _, builds = slack_transform(g, DEFAULT_CONFIG.slack_alpha)
        assert not any(b.steps for b in builds)
        seeds = range(20)
        want = draws(g, seeds, reference_embed_sampler)
        samp = embed_sampler(g)
        made = []
        rng_class = random.Random

        def counting(*args):
            made.append(args)
            return rng_class(*args)

        monkeypatch.setattr(treeembed.random, "Random", counting)
        got = [
            (tm.root, list(tm.mapping.items()), adj_lists(tm.tree))
            for tm in map(samp, seeds)
        ]
        assert made == []
        assert got == want

    def test_first_ear_error_at_build(self, monkeypatch):
        # The unit triangle's build at alpha 1, unscaled: its one ear (2)
        # is short of 160 times its attach edge (1).  The sampler raises
        # when it is built; the reference raised on its first sample.
        monkeypatch.setattr(
            treeembed, "slack_transform", lambda g, alpha: slack_transform(g, 1)
        )
        g = cycle_instance(3)
        with pytest.raises(SlackViolation) as want:
            reference_embed_sampler(g)(0)
        with pytest.raises(SlackViolation, match=f"^{re.escape(str(want.value))}$"):
            embed_sampler(g)


def count_calls(monkeypatch, owner, attr) -> list:
    """Patch ``owner.attr`` to record each call's arguments in the list
    returned."""
    fn = getattr(owner, attr)
    calls = []

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, attr, counting)
    return calls


class TestFixedSampler:
    """A graph whose blocks draw nothing has one map, built with its index
    when the sampler is: each seed gets a copy equal to a fresh build,
    and the copies are independent of each other."""

    GRAPHS = [
        ("path4", MetricGraph(4, tuple((i, i + 1, F(1)) for i in range(3)))),
        ("tree8-3", random_tree(8, 3)),
        *[(f"outer8-{s}", random_outerplanar(8, s)[0]) for s in range(3)],
    ]
    IDS = [name for name, _ in GRAPHS]

    @staticmethod
    def as_built(tm: TreeMap):
        return tm.tree.D, tm.tree.edges(), adj_lists(tm.tree), list(tm.mapping.items()), tm.root

    @pytest.mark.parametrize("g", [g for _, g in GRAPHS], ids=IDS)
    def test_each_seed_is_a_fresh_build(self, g, monkeypatch):
        _, builds = slack_transform(g, DEFAULT_CONFIG.slack_alpha)
        assert not any(b.steps for b in builds)
        want = list(map(reference_embed_sampler(g), range(10)))
        samp = embed_sampler(g)
        built = count_calls(monkeypatch, MetricTree, "graft")
        built += count_calls(monkeypatch, tree_module, "_rooted_index")
        got = list(map(samp, range(10)))
        assert built == []
        for tm, ref in zip(got, want):
            assert self.as_built(tm) == self.as_built(ref)
            assert tm.source == ref.source

    @pytest.mark.parametrize("g", [g for _, g in GRAPHS], ids=IDS)
    def test_edits_leave_the_next_sample(self, g):
        ref = reference_embed_sampler(g)
        samp = embed_sampler(g)
        for seed in range(3):
            tm = samp(seed)
            assert self.as_built(tm) == self.as_built(ref(seed))
            # The shared index answers as a rebuilt one, then each edit
            # drops it from this copy alone.
            t = tm.tree
            vs = t.vertices()
            assert_matrix_is_tick_dist(t, vs)
            fresh = max(vs) + 1
            t.add_ticks(tm.root, fresh, 3)
            u, v = vs[0], vs[-1]
            d = t.tick_dist(u, v)
            glue(t, u, v, [0, d, d + 2], 0, 1)
            tm.mapping[0] = fresh
            assert_matrix_is_tick_dist(t, t.vertices())


class TestEarSums:
    """A closed ear carries the ``_equidistant_sums`` of its cycle's
    points, built when it is closed: a block's first ear once per
    sampler, so the samples of a one-ear block never rebuild them."""

    @pytest.mark.parametrize(
        "g", [slack_cycle(8), two_ear_block(), two_slack_blocks()],
        ids=["slack8", "two-ear", "two-slack-blocks"],
    )
    def test_sums_of_the_cycle(self, g, monkeypatch):
        closed = []
        close = treeembed._close_ear

        def recording(state, step):
            closed.append(close(state, step))
            return closed[-1]

        monkeypatch.setattr(treeembed, "_close_ear", recording)
        samp = embed_sampler(g)
        for seed in range(3):
            samp(seed)
        assert closed
        for ear in closed:
            circ = ear.cycle.circumference
            assert ear.sums == treeembed._equidistant_sums(ear.cycle.points.values(), circ)

    @pytest.mark.parametrize(
        "g,builds", [(slack_cycle(8), 1), (two_ear_block(), 1 + 3)],
        ids=["slack8", "two-ear"],
    )
    def test_one_build_per_closed_ear(self, g, builds, monkeypatch):
        calls = count_calls(monkeypatch, treeembed, "_equidistant_sums")
        samp = embed_sampler(g)
        for seed in range(3):
            samp(seed)
        assert len(calls) == builds
