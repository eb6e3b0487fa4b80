"""Random star-shaped embeddings of outerplanar graphs into trees.

The construction follows the ear build of a 160-slack graph: each ear is
closed into a cycle with a chord equal to the current tree distance of
its attach edge, two anchor points are chosen on the cycle, and the
flattened cycle is glued onto the tree along one of the two anchors with
probability 1/2 each.

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
from itertools import accumulate

from .config import DEFAULT_CONFIG
from .errors import (
    ChordTooLong,
    InvariantViolation,
    SlackViolation,
)
from .graph import (
    Cycle,
    MetricGraph,
    OuterplanarBuild,
    frac,
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


def anchor_points(
    c: Cycle,
    u: int,
    v: int,
    forbidden,
    good_end: int,
    rng: random.Random,
    grid: tuple[int, int, int],
    path_pos=None,
    extra_check=None,
) -> tuple[int, int]:
    """Pick two anchor positions on the cycle, (1/6, 1/16)-apart with
    respect to {u, v}, measured from the endpoint that is not the good
    one.  Distances from each anchor to all forbidden positions are
    pairwise distinct (zero-distance pairs exempt); ``extra_check`` can
    reject a candidate pair to force a resample.

    Everything is in integer ticks: the cycle, ``forbidden``, ``path_pos``
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
    forb = sorted(set(forbidden))
    dist_pos = c.dist_pos

    def distances_distinct(anchor: int) -> bool:
        seen: dict[int, int] = {}
        for s in forb:
            d = dist_pos(anchor, s)
            if d in seen and dist_pos(seen[d], s) != 0:
                return False
            seen.setdefault(d, s)
        return True

    n_grid = DEFAULT_CONFIG.anchor_grid
    for _ in range(_ETA_TRIES):
        k = rng.randrange(n_grid) + 1
        p_pos = (base_pos + sign * (p0 - k * step)) % circ
        q_pos = (base_pos + sign * (q0 - k * step)) % circ
        if not (distances_distinct(p_pos) and distances_distinct(q_pos)):
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
    path_len = circ - c.dist(u, v)
    if 6 * c.dist_pos(p_pos, q_pos) != circ:
        raise InvariantViolation("anchors are not len(C)/6 apart")
    # beta len(C) <= d <= (1/2 - beta) len(C), times beta's denominator.
    beta = DEFAULT_CONFIG.anchor_beta
    lo = beta.numerator * circ
    hi = (beta.denominator - 2 * beta.numerator) * circ
    for a in (c.points[u], c.points[v]):
        for b in (p_pos, q_pos):
            d = beta.denominator * c.dist_pos(a, b)
            if not (lo <= d and 2 * d <= hi):
                raise InvariantViolation("anchor apartness band violated")
    other = v if base == u else u
    reach = Fraction(1, 2) + DEFAULT_CONFIG.anchor_delta_max
    for b in (p_pos, q_pos):
        to_base = c.dist_pos(b, c.points[base])
        if to_base > c.dist_pos(b, c.points[other]):
            raise InvariantViolation("anchor condition (a) violated")
        for pos in path_pos.values():
            if abs(pos - path_pos[base]) * reach.denominator <= reach.numerator * path_len:
                if c.dist_pos(b, pos % circ) > to_base:
                    raise InvariantViolation("anchor condition (b) violated")


@dataclass
class EmbedState:
    """Partial embedding of one biconnected block."""

    tree: MetricTree
    mapping: dict[int, int]            # graph vertex -> tree vertex
    embedded: set[int]
    graph: MetricGraph                 # full graph (neighbor structure)
    block: frozenset[int]


def _is_good(state: EmbedState, x: int, y: int) -> bool:
    """eq-def-good: every embedded neighbor path from F(x) either stays
    inside the F(x)-F(y) path or leaves it immediately."""
    fx = state.mapping[x]
    p_xy = set(state.tree.path(fx, state.mapping[y]))
    for w in state.graph.neighbors(x):
        if w == y or w not in state.embedded or w not in state.block:
            continue
        p_xw = set(state.tree.path(fx, state.mapping[w]))
        if not (p_xw <= p_xy or (p_xw & p_xy) == {fx}):
            return False
    return True


def random_extension(
    state: EmbedState,
    path_vertices,
    path_lengths,
    attach: tuple[int, int],
    rng: random.Random,
) -> None:
    """Attach one ear: close it into a cycle against the current tree
    distance of the attach edge, pick anchors, flatten, and glue one of
    the two flattenings (fair coin)."""
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
    # anchor candidate too; the tree's ticks grow by k.
    m, grid = _anchor_grid(len_p + chord, chord)
    k = tree.refine(D1 * m)
    path_pos = {x: m * p for x, p in zip(path_vertices, accumulate([0, *ticks]))}
    circ = m * (len_p + chord)
    cyc_pos = {x: p % circ for x, p in path_pos.items()}
    cyc = Cycle(circ, cyc_pos)
    dist_pos = cyc.dist_pos

    # A flattened offset equal to a tree position on the F(u)-F(v) path
    # would glue an interior ear vertex onto an existing tree vertex.
    glue_positions = {k * t for t in tree_pos}
    interior = path_vertices[1:-1]
    pu, pv = cyc_pos[u], cyc_pos[v]

    def no_existing_collision(p_pos: int, q_pos: int) -> bool:
        for b in (p_pos, q_pos):
            fu_b = dist_pos(b, pu)
            lo, hi = sorted((fu_b, dist_pos(b, pv)))
            for x in interior:
                fp = dist_pos(b, cyc_pos[x])
                if lo <= fp <= hi and fp - fu_b in glue_positions:
                    return False
        return True

    p_pos, q_pos = anchor_points(
        cyc, u, v, cyc_pos.values(), good, rng, grid,
        path_pos=path_pos, extra_check=no_existing_collision,
    )
    branch = p_pos if rng.random() < 0.5 else q_pos
    flat = {x: dist_pos(branch, cyc_pos[x]) for x in path_vertices}
    order = sorted(path_vertices, key=lambda x: (flat[x], path_pos[x]))
    rank = {x: i for i, x in enumerate(order)}
    ids = glue(tree, fu, fv, [flat[x] for x in order], rank[u], rank[v])
    for x in interior:
        state.mapping[x] = ids[rank[x]]
        state.embedded.add(x)


def _embed_block(
    g: MetricGraph,
    build: OuterplanarBuild,
    block: frozenset[int],
    rng: random.Random,
) -> tuple[MetricTree, dict[int, int]]:
    """Embed one biconnected block (or bridge) of the slack graph, with
    vertex set ``block``, from its ear build; tree ids are local and
    relabelled by the caller.  Only ears draw from ``rng``."""
    init_vs = build.initial_vertices
    state = EmbedState(
        tree=MetricTree.from_path(range(len(init_vs)), build.initial_lengths),
        mapping={x: i for i, x in enumerate(init_vs)},
        embedded=set(init_vs),
        graph=g,
        block=block,
    )
    for step in build.steps:
        random_extension(
            state, step.path_vertices, step.path_lengths, step.attach_edge, rng
        )
    return state.tree, state.mapping


def embed_sampler(g: MetricGraph):
    """Precompute the deterministic part of the embedding (slack transform
    and its per-block ear builds) and return a seed -> TreeMap sampler;
    use this when drawing many embeddings of the same graph.

    Each map's ``source`` is the slack graph h (lengths scaled by 1/160),
    on whose edges it is 1-Lipschitz and star-shaped.  As d_h <= d_g it
    is 1-Lipschitz on g too, but not star-shaped on the deleted edges."""
    if len(g.components()) != 1:
        raise ValueError("embedding expects a connected graph")
    # slack_transform reduces g and raises NotOuterplanar; it is the one
    # outerplanarity test of the build.
    h, builds = slack_transform(g, DEFAULT_CONFIG.slack_alpha)
    blocks = [
        (b, frozenset(b.initial_vertices).union(*[st.path_vertices for st in b.steps]))
        for b in builds
    ]
    # A block without ears (a bridge, say) draws nothing: embed it once.
    fixed = {i: _embed_block(h, b, block, None)
             for i, (b, block) in enumerate(blocks) if not b.steps}

    def sample(seed: int) -> TreeMap:
        rng = random.Random(f"embed:{seed}")
        final = MetricTree()
        mapping: dict[int, int] = {}
        next_global = 0
        for i, (block_build, block) in enumerate(blocks):
            bt, bmap = fixed.get(i) or _embed_block(h, block_build, block, rng)
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

    return sample


def embed_outerplanar(g: MetricGraph, seed: int) -> TreeMap:
    """Random 1-Lipschitz star-shaped embedding of a connected
    outerplanar metric graph into a random tree.

    Pipeline: reduce, slack transform at alpha=160, then per-block ear
    embedding; block trees are joined at the images of cut vertices.
    The star shape holds on the slack graph only (see ``embed_sampler``)."""
    return embed_sampler(g)(seed)


# -- predicates ---------------------------------------------------------


def star_center_arms(tm: TreeMap, t: int, fiber) -> list[int]:
    targets = set()
    for x in fiber:
        for w in tm.source.neighbors(x):
            if tm.mapping[w] != t:
                targets.add(tm.mapping[w])
    return sorted(targets)


def is_star_shaped(tm: TreeMap) -> bool:
    """True iff around every image vertex the union of realized-edge
    paths is a subdivided star centered there."""
    fibers = tm.fibers()
    for t, fib in fibers.items():
        deg, _ = tm.tree.path_union(t, star_center_arms(tm, t, fib))
        for v, dv in deg.items():
            if v != t and dv > 2:
                return False
    return True


def thin_number(tm: TreeMap, u: int) -> int:
    """Minimum number of simple paths from F(u) covering the union of
    paths to the images of u's neighbors (= leaves of that union other
    than F(u))."""
    fu = tm.mapping[u]
    deg, _ = tm.tree.path_union(fu, (tm.mapping[w] for w in tm.source.neighbors(u)))
    return sum(1 for v, dv in deg.items() if dv == 1 and v != fu)


def is_thin(tm: TreeMap, delta: int) -> bool:
    return all(thin_number(tm, u) <= delta for u in tm.mapping)
