"""Random star-shaped embeddings of outerplanar graphs into trees.

The construction follows the ear build of a 160-slack graph: each ear is
closed into a cycle with a chord equal to the current tree distance of
its attach edge, two anchor points are chosen on the cycle, and the
flattened cycle is glued onto the tree along one of the two anchors with
probability 1/2 each.

A block's state (``EmbedState``) is its tree and the map of its embedded
vertices into it.  Each ear step is two calls: ``_close_ear`` takes the
ear's ``BuildStep`` and does the deterministic part (the chord, the slack
and chord checks, the good endpoint, the anchor grid and the cycle
positions) and ``random_extension`` the draw (anchors, coin, flattening
and glue).  A block's first ear always closes against the same
tree, its initial path, so ``embed_sampler`` closes it once, when it is
built, and each sample starts that block from a copy of the initial tree;
a first ear's ``SlackViolation`` or ``ChordTooLong`` is raised there.
Later ears are closed per sample, on the tree the earlier draws made.  A
graph whose blocks have no ears draws nothing: its map is built once, and
each sample is a copy.

Each block's tree grows on integer ticks (``tree.MetricTree``): every
tree length, ear cycle position, anchor candidate and flattened offset is
a whole number of 1/D, with one D per block.  D starts as the least common
denominator of the block's first path; at each ear it becomes the lcm of
D, the ear's lengths and the ear's anchor grid, which is computed once per
ear, and the tree's ticks are scaled once if it grew.  Sums and comparisons
are then int operations, and the results stay exact.  A sample's tree is
on the lcm of its blocks' grids, and is handed on in ticks as it is.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations

from .config import DEFAULT_CONFIG
from .errors import (
    ChordTooLong,
    InvariantViolation,
    SlackViolation,
)
from .graph import (
    BuildStep,
    Cycle,
    MetricGraph,
    norm_edge,
    slack_transform,
)
from .tree import MetricTree, TreeMap, glue

_ETA_TRIES = 512


def _lcd(values) -> int:
    """Least common denominator of ints and Fractions: the tick grid 1/D
    on which each of them is a whole number of ticks."""
    # Unpack a list, not a generator: a generator's argument tuple is
    # resized on the way, and freed tuples then pile up on the free list
    # of another size, so memory creeps up call after call.
    return math.lcm(*[x.denominator for x in values])


def _tick(x, D: int) -> int:
    """x as a whole number of ticks 1/D; D must be a multiple of x's
    denominator."""
    return x.numerator * (D // x.denominator)


def _anchor_grid(circ: int, chord: int) -> tuple[int, tuple[int, int, int]]:
    """Anchor offsets of a cycle measured in integer ticks, as
    ``(m, (p0, q0, step))`` with the offsets in ticks m times finer, m the
    least factor that makes them whole.  Grid point k
    (1 <= k <= anchor_grid) puts p at p0 - k*step and q at q0 - k*step
    from the base endpoint, i.e. at (1/4 + 3 alpha/2 - eta) len(C) and
    (1/2 - eta - beta) len(C) with eta = delta + (alpha - delta) k / (grid + 1)
    and delta = chord / len(path)."""
    path_len = circ - chord
    if path_len <= 0:
        raise ChordTooLong("degenerate cycle: chord covers the whole circumference")
    delta_max = DEFAULT_CONFIG.anchor_delta_max
    if chord * delta_max.denominator > delta_max.numerator * path_len:
        raise ChordTooLong(
            f"chord ratio {Fraction(chord, path_len)} exceeds {delta_max}"
        )
    alpha, beta = DEFAULT_CONFIG.anchor_alpha, DEFAULT_CONFIG.anchor_beta
    # An offset (n/d - delta) circ / div is
    # (n path_len - d chord) circ / (d path_len div) ticks.
    offsets = []
    for n, d, div in (
        (alpha.denominator + 6 * alpha.numerator, 4 * alpha.denominator, 1),
        (beta.denominator - 2 * beta.numerator, 2 * beta.denominator, 1),
        (alpha.numerator, alpha.denominator, DEFAULT_CONFIG.anchor_grid + 1),
    ):
        num = (n * path_len - d * chord) * circ
        den = d * path_len * div
        g = math.gcd(num, den)
        offsets.append((num // g, den // g))
    m = math.lcm(*[den for _, den in offsets])
    p0, q0, step = (num * (m // den) for num, den in offsets)
    return m, (p0, q0, step)


def _equidistant_sums(forbidden, circ: int) -> set[int]:
    """(s + t) mod circ over the pairs of distinct positions s, t of
    ``forbidden``, all in [0, circ): a point a of the cycle is as far
    from s as from t exactly when 2a = s + t (mod circ)."""
    return {(s + t) % circ for s, t in combinations(set(forbidden), 2)}


def anchor_points(
    c: Cycle,
    u: int,
    v: int,
    sums,
    good_end: int,
    rng: random.Random,
    grid: tuple[int, int, int],
    path_pos=None,
    extra_check=None,
) -> tuple[int, int]:
    """Pick two anchor positions on the cycle, (1/6, 1/16)-apart with
    respect to {u, v}, measured from the endpoint that is not the good
    one.  Distances from each anchor to the distinct forbidden positions
    are pairwise distinct, a lookup in ``sums``, their
    ``_equidistant_sums``; ``extra_check`` can reject a candidate pair to
    force a resample.

    Everything is in integer ticks: the cycle, ``sums``, ``path_pos``
    and ``grid``, the ``(p0, q0, step)`` of ``_anchor_grid`` for this cycle,
    whose unit must make them whole.  The anchors are returned in ticks
    too, so each comparison of the search is an int comparison.
    """
    p0, q0, step = grid
    base = u if good_end == v else v
    if path_pos is None:
        path_pos = c.points
    circ = c.circumference
    # Anchors sit on the path arc, measured from the non-good endpoint.
    sign = 1 if path_pos[base] == 0 else -1
    base_pos = c.points[base]

    n_grid = DEFAULT_CONFIG.anchor_grid
    for _ in range(_ETA_TRIES):
        k = rng.randrange(n_grid) + 1
        p_pos = (base_pos + sign * (p0 - k * step)) % circ
        q_pos = (base_pos + sign * (q0 - k * step)) % circ
        if (2 * p_pos) % circ in sums or (2 * q_pos) % circ in sums:
            continue
        if extra_check is not None and not extra_check(p_pos, q_pos):
            continue
        _assert_anchor_conditions(c, u, v, base, p_pos, q_pos, path_pos)
        return p_pos, q_pos
    raise InvariantViolation("anchor sampling failed to avoid the forbidden set")


def _assert_anchor_conditions(c, u, v, base, p_pos, q_pos, path_pos):
    """The anchor guarantees, checked exactly; the bounds are
    cross-multiplied, so positions need not sit on their grid."""
    circ = c.circumference
    points = c.points
    pu, pv = points[u], points[v]
    d = abs(p_pos - q_pos)
    if 6 * min(d, circ - d) != circ:
        raise InvariantViolation("anchors are not len(C)/6 apart")
    beta, delta_max = DEFAULT_CONFIG.anchor_beta, DEFAULT_CONFIG.anchor_delta_max
    bn, bd = beta.numerator, beta.denominator
    # beta len(C) <= d <= (1/2 - beta) len(C), times beta's denominator.
    lo = bn * circ
    hi = (bd - 2 * bn) * circ
    for a in (pu, pv):
        for b in (p_pos, q_pos):
            d = abs(a - b)
            d = bd * min(d, circ - d)
            if not (lo <= d and 2 * d <= hi):
                raise InvariantViolation("anchor apartness band violated")
    d = abs(pu - pv)
    path_len = circ - min(d, circ - d)
    # Path positions within (1/2 + delta_max) len(path) of the base, the
    # reach (dd + 2 dn) / (2 dd) cross-multiplied.
    dn, dd = delta_max.numerator, delta_max.denominator
    bound = (dd + 2 * dn) * path_len
    at = path_pos[base]
    near = [pos % circ for pos in path_pos.values() if 2 * dd * abs(pos - at) <= bound]
    base_pos, other_pos = (pu, pv) if base == u else (pv, pu)
    for b in (p_pos, q_pos):
        d = abs(b - base_pos)
        to_base = min(d, circ - d)
        d = abs(b - other_pos)
        if to_base > min(d, circ - d):
            raise InvariantViolation("anchor condition (a) violated")
        for pos in near:
            d = abs(b - pos)
            if min(d, circ - d) > to_base:
                raise InvariantViolation("anchor condition (b) violated")


@dataclass
class EmbedState:
    """Partial embedding of one biconnected block: its tree, and the map
    of its embedded vertices into it."""

    tree: MetricTree
    mapping: dict[int, int]            # embedded graph vertex -> tree vertex
    graph: MetricGraph                 # full graph (neighbor structure)


def _is_good(state: EmbedState, x: int, y: int) -> bool:
    """eq-def-good: every embedded neighbor path from F(x) either stays
    inside the F(x)-F(y) path or leaves it immediately."""
    fx = state.mapping[x]
    p_xy = set(state.tree.path(fx, state.mapping[y]))
    for w in state.graph.neighbors(x):
        if w == y or w not in state.mapping:
            continue
        p_xw = set(state.tree.path(fx, state.mapping[w]))
        if not (p_xw <= p_xy or (p_xw & p_xy) == {fx}):
            return False
    return True


@dataclass(frozen=True)
class ClosedEar:
    """An ear closed into its cycle against a block's tree: everything of
    the ear step that comes before the first draw.  The positions are in
    ticks of the grid 1/D that the tree moves to when the ear is drawn."""

    attach: tuple[int, int]            # (u, v), the ear runs from u to v
    tree_ends: tuple[int, int]         # (F(u), F(v))
    path_vertices: tuple[int, ...]
    good: int
    D: int
    grid: tuple[int, int, int]         # (p0, q0, step) of _anchor_grid
    path_pos: dict[int, int]
    cycle: Cycle
    glue_positions: frozenset[int]     # ticks of the F(u)-F(v) tree path
    sums: set[int]                     # _equidistant_sums of the cycle's points


def _close_ear(state: EmbedState, step: BuildStep) -> ClosedEar:
    """Close one ear into a cycle whose chord is the current tree distance
    of the attach edge, check its slack and chord, find its good endpoint
    and anchor grid.  The ear's path runs from ``attach_edge[0]`` to
    ``attach_edge[1]``.  Leaves the state as it is."""
    u, v = step.attach_edge
    path_vertices, path_lengths = step.path_vertices, step.path_lengths
    if path_vertices[0] != u or path_vertices[-1] != v:
        raise ValueError("ear endpoints do not match the attach edge")
    fu, fv = state.mapping[u], state.mapping[v]
    tree = state.tree
    _, tree_pos = tree.path_ticks(fu, fv)
    # The ear in ticks 1/D1, the grid of the tree and of the ear's lengths;
    # the chord is the tree distance of the attach edge.
    D1 = math.lcm(tree.D, _lcd(path_lengths))
    ticks = [_tick(w, D1) for w in path_lengths]
    len_p = sum(ticks)
    chord = tree_pos[-1] * (D1 // tree.D)
    edge_len = state.graph.edge_lengths().get(norm_edge(u, v))
    hyp = edge_len if edge_len is not None else Fraction(chord, D1)
    if len_p * hyp.denominator < DEFAULT_CONFIG.slack_alpha * hyp.numerator * D1:
        raise SlackViolation(
            f"ear of length {Fraction(len_p, D1)} too short for attach edge"
            f" of length {hyp}"
        )

    good_u = _is_good(state, u, v)
    good_v = _is_good(state, v, u)
    if good_u and good_v:
        good = min(u, v)
    elif good_u:
        good = u
    elif good_v:
        good = v
    else:
        raise InvariantViolation(f"no good endpoint for attach edge ({u},{v})")

    if chord > len_p:
        raise ChordTooLong(
            f"chord {Fraction(chord, D1)} exceeds path length {Fraction(len_p, D1)}"
        )
    if len_p == 0:
        raise ValueError("degenerate cycle of circumference zero")
    # The block's grid becomes 1/D, D = D1 * m, fine enough for every
    # anchor candidate too; the tree's ticks will grow by k.
    m, grid = _anchor_grid(len_p + chord, chord)
    D = D1 * m
    k = D // tree.D
    path_pos = {x: m * p for x, p in zip(path_vertices, accumulate([0, *ticks]))}
    circ = m * (len_p + chord)
    cyc = Cycle(circ, {x: p % circ for x, p in path_pos.items()})
    # An interior ear vertex whose flattened distance from u (``glue``
    # places it at |offset|, on either side) equals a tree position on the
    # F(u)-F(v) path would be glued onto an existing tree vertex.
    glue_positions = frozenset(k * t for t in tree_pos)
    return ClosedEar(
        (u, v), (fu, fv), path_vertices, good, D, grid, path_pos, cyc, glue_positions,
        _equidistant_sums(cyc.points.values(), circ),
    )


def random_extension(state: EmbedState, ear: ClosedEar, rng: random.Random) -> None:
    """Attach one closed ear: move the tree to the ear's grid, pick
    anchors, flatten, and glue one of the two flattenings (fair coin).
    The ear must have been closed on this tree, or on a copy of it."""
    tree = state.tree
    tree.refine(ear.D)
    u, v = ear.attach
    cyc, path_pos, path_vertices = ear.cycle, ear.path_pos, ear.path_vertices
    cyc_pos = cyc.points
    dist_pos = cyc.dist_pos
    glue_positions = ear.glue_positions
    interior = path_vertices[1:-1]
    pu, pv = cyc_pos[u], cyc_pos[v]

    def no_existing_collision(p_pos: int, q_pos: int) -> bool:
        for b in (p_pos, q_pos):
            fu_b = dist_pos(b, pu)
            lo, hi = sorted((fu_b, dist_pos(b, pv)))
            for x in interior:
                fp = dist_pos(b, cyc_pos[x])
                if lo <= fp <= hi and abs(fp - fu_b) in glue_positions:
                    return False
        return True

    p_pos, q_pos = anchor_points(
        cyc, u, v, ear.sums, ear.good, rng, ear.grid,
        path_pos=path_pos, extra_check=no_existing_collision,
    )
    branch = p_pos if rng.random() < 0.5 else q_pos
    flat = {x: dist_pos(branch, cyc_pos[x]) for x in path_vertices}
    order = sorted(path_vertices, key=lambda x: (flat[x], path_pos[x]))
    rank = {x: i for i, x in enumerate(order)}
    fu, fv = ear.tree_ends
    ids = glue(tree, fu, fv, [flat[x] for x in order], rank[u], rank[v])
    for x in interior:
        state.mapping[x] = ids[rank[x]]


def embed_sampler(g: MetricGraph):
    """Precompute the deterministic part of the embedding (slack transform,
    its per-block ear builds, and each block's first ear, closed on the
    block's initial path) and return a seed -> TreeMap sampler; use this
    when drawing many embeddings of the same graph.

    Each map's ``source`` is the slack graph h (lengths scaled by 1/160),
    on whose edges it is 1-Lipschitz and star-shaped.  As d_h <= d_g it
    is 1-Lipschitz on g too, but not star-shaped on the deleted edges.

    When no block draws, the map is built once, with its rooted index,
    and each seed gets a copy: the copies share the index until changed,
    and are independent of each other."""
    if len(g.components()) != 1:
        raise ValueError("embedding expects a connected graph")
    # slack_transform reduces g and raises NotOuterplanar; it is the one
    # outerplanarity test of the build.
    h, builds = slack_transform(g, DEFAULT_CONFIG.slack_alpha)
    # Each block starts from its initial path, the same tree on every
    # sample: its first ear is closed against it once, here.  A block
    # without ears (a bridge, say) draws nothing and is embedded here.
    starts = []
    for b in builds:
        init_vs = b.initial_vertices
        state = EmbedState(
            tree=MetricTree.from_path(range(len(init_vs)), b.initial_lengths),
            mapping={x: i for i, x in enumerate(init_vs)},
            graph=h,
        )
        first = _close_ear(state, b.steps[0]) if b.steps else None
        starts.append((state, first, b.steps[1:]))
    draws = any(first is not None for _, first, _ in starts)

    def build(rng) -> TreeMap:
        final = MetricTree()
        mapping: dict[int, int] = {}
        next_global = 0
        for start, first, rest in starts:
            state = start
            if first is not None:
                state = EmbedState(start.tree.copy(), dict(start.mapping), h)
                random_extension(state, first, rng)
                for st in rest:
                    random_extension(state, _close_ear(state, st), rng)
            bt, bmap = state.tree, state.mapping
            # Blocks meet the earlier ones in exactly one cut vertex.
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

    if draws:
        return lambda seed: build(random.Random(f"embed:{seed}"))
    fixed = build(None)
    fixed.tree._rooted()  # built once; every copy shares it
    return lambda seed: TreeMap(fixed.tree.copy(), dict(fixed.mapping), h, fixed.root)


def embed_outerplanar(g: MetricGraph, seed: int) -> TreeMap:
    """Random 1-Lipschitz star-shaped embedding of a connected
    outerplanar metric graph into a random tree.

    Pipeline: reduce, slack transform at alpha=160, then per-block ear
    embedding; block trees are joined at the images of cut vertices.
    The star shape holds on the slack graph only (see ``embed_sampler``)."""
    return embed_sampler(g)(seed)


# -- predicates ---------------------------------------------------------


def is_star_shaped(tm: TreeMap) -> bool:
    """True iff around every image vertex t the union of realized-edge
    paths is a subdivided star: no vertex but t has two children on it."""
    f, nbrs = tm.mapping, tm.source.neighbors
    for t, fib in tm.fibers().items():
        below = tm.tree.arm_union(t, {f[w] for x in fib for w in nbrs(x)})
        if any(k > 1 and v != t for v, k in below.items()):
            return False
    return True


def thin_number(tm: TreeMap, u: int) -> int:
    """Minimum number of simple paths from F(u) covering the union of
    paths to the images of u's neighbors (= leaves of that union other
    than F(u))."""
    fu = tm.mapping[u]
    below = tm.tree.arm_union(fu, [tm.mapping[w] for w in tm.source.neighbors(u)])
    return sum(1 for v, k in below.items() if k == 0 and v != fu)


def is_thin(tm: TreeMap, delta: int) -> bool:
    return all(thin_number(tm, u) <= delta for u in tm.mapping)
