"""Random star-shaped embeddings of outerplanar graphs into trees.

The construction follows the ear build of a 160-slack graph: each ear is
closed into a cycle with a chord equal to the current tree distance of
its attach edge, two anchor points are chosen on the cycle, and the
flattened cycle is glued onto the tree along one of the two anchors with
probability 1/2 each.

The cycle geometry runs on integer ticks: every ear cycle position, every
anchor candidate and every flattened offset is a whole number of 1/D, D
the least common denominator of the ear's lengths and of the anchor grid.
Comparisons are then int comparisons, and the results stay exact: the
anchors and the new tree edge lengths go back to Fractions equal to what
Fraction arithmetic would give.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

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
    connected_components,
    flatten,
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


def _anchor_grid(circ, chord) -> tuple[Fraction, Fraction, Fraction]:
    """Offsets ``(p0, q0, step)`` of the anchors from the base endpoint:
    grid point k (1 <= k <= anchor_grid) puts p at p0 - k*step and q at
    q0 - k*step, i.e. at (1/4 + 3 alpha/2 - eta) len(C) and
    (1/2 - eta - beta) len(C) with eta = delta + (alpha - delta) k / (grid + 1)
    and delta = chord / len(path)."""
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


def anchor_points(
    c: Cycle,
    u: int,
    v: int,
    forbidden,
    good_end: int,
    rng: random.Random,
    path_pos=None,
    extra_check=None,
) -> tuple[Fraction, Fraction]:
    """Pick two anchor positions on the cycle, (1/6, 1/16)-apart with
    respect to {u, v}, measured from the endpoint that is not the good
    one.  Distances from each anchor to all forbidden positions are
    pairwise distinct (zero-distance pairs exempt); ``extra_check`` can
    reject a candidate pair to force a resample.

    Positions are ints or Fractions in the cycle's unit, and the pair is
    returned as Fractions in that unit.  The search runs on integer ticks
    1/D, D the least common denominator of the cycle, forbidden and path
    positions and of every grid anchor, so each comparison is exact.
    ``extra_check`` sees candidates in these ticks; a cycle already on its
    grid (as ``random_extension`` passes) has D = 1 and ticks in its unit.
    """
    p0, q0, step = _anchor_grid(c.circumference, c.dist(u, v))
    base = u if good_end == v else v
    if path_pos is None:
        path_pos = c.points
    forbidden = list(forbidden)
    D = _lcd([c.circumference, p0, q0, step, *c.points.values(),
              *path_pos.values(), *forbidden])

    circ = _tick(c.circumference, D)
    ct = Cycle(circ, {x: _tick(pos, D) for x, pos in c.points.items()})
    path_pos = {x: _tick(pos, D) for x, pos in path_pos.items()}
    p0, q0, step = _tick(p0, D), _tick(q0, D), _tick(step, D)
    # Anchors sit on the path arc, measured from the non-good endpoint.
    sign = 1 if path_pos[base] == 0 else -1
    base_pos = ct.points[base]
    forb = sorted({_tick(x, D) for x in forbidden})
    dist_pos = ct.dist_pos

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
        _assert_anchor_conditions(ct, u, v, base, p_pos, q_pos, path_pos)
        return Fraction(p_pos, D), Fraction(q_pos, D)
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
    d = tree.dist(fu, fv)
    len_p = sum(path_lengths, Fraction(0))
    edge_len = state.graph.edge_lengths().get(norm_edge(u, v))
    hyp = edge_len if edge_len is not None else d
    if len_p < DEFAULT_CONFIG.slack_alpha * hyp:
        raise SlackViolation(
            f"ear of length {len_p} too short for attach edge of length {hyp}"
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

    if d > len_p:
        raise ChordTooLong(f"chord {d} exceeds path length {len_p}")
    if len_p == 0:
        raise ValueError("degenerate cycle of circumference zero")
    # The ear cycle in integer ticks 1/D, D the grid of its positions and
    # of every anchor candidate: only the anchors and the new tree edge
    # lengths go back to Fractions.
    D = _lcd([d, *_anchor_grid(len_p + d, d), *path_lengths])
    circ = _tick(len_p + d, D)
    path_pos: dict[int, int] = {}
    pos = 0
    for i, x in enumerate(path_vertices):
        path_pos[x] = pos
        if i < len(path_lengths):
            pos += _tick(path_lengths[i], D)
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
                if lo <= fp <= hi and (fp - flat.positions[u]) in glue_positions:
                    return False
        return True

    p_pos, q_pos = anchor_points(
        cyc, u, v, forbidden, good, rng,
        path_pos=path_pos, extra_check=no_existing_collision,
    )
    branch = p_pos if rng.random() < 0.5 else q_pos
    flat = flatten(cyc, branch.numerator)  # whole: cyc is on its grid

    order = sorted(path_vertices, key=lambda x: (flat.positions[x], path_pos[x]))
    t2 = MetricTree()
    t2_id = {x: i for i, x in enumerate(order)}
    for i in range(len(order) - 1):
        a, b = order[i], order[i + 1]
        w = Fraction(flat.positions[b] - flat.positions[a], D)
        t2.add_vertex(t2_id[a])
        t2.add_vertex(t2_id[b])
        t2.add_edge(t2_id[a], t2_id[b], w)
    if len(order) == 1:
        t2.add_vertex(t2_id[order[0]])

    new_tree, map2 = glue(tree, t2, fu, fv, t2_id[u], t2_id[v])
    state.tree = new_tree
    for x in interior:
        state.mapping[x] = map2[t2_id[x]]
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
    tree = MetricTree()
    mapping: dict[int, int] = {}
    for i, x in enumerate(init_vs):
        tree.add_vertex(i)
        mapping[x] = i
    for i, w in enumerate(build.initial_lengths):
        tree.add_edge(mapping[init_vs[i]], mapping[init_vs[i + 1]], w)
    state = EmbedState(
        tree=tree,
        mapping=mapping,
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
    if len(connected_components(g)) != 1:
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
            next_global = max(next_global, max(relabel.values()) + 1)
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
