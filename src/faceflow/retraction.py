"""Connected random retractions onto a vertex subset, and the planar
specialization that retracts a graph onto a face to produce a random
outerplanar graph on the face vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyTarget, FaceInvalid, InvariantViolation
from .graph import (
    MetricGraph,
    PlanarInstance,
    connected_components,
    diameter,
    is_outerplanar,
    norm_edge,
)
from .partition import sample_padded_partition


@dataclass(frozen=True)
class Retraction:
    """F: V -> S with S fixed pointwise and connected fibers.

    ``levels`` gives the scale at which each vertex was absorbed;
    ``scale`` is the prescaling factor applied so the target is at
    distance > 1 from its complement (level bounds are stated in the
    scaled metric).
    """

    target: frozenset[int]
    mapping: dict[int, int]
    levels: dict[int, int]
    scale: Fraction

    def check(self, g: MetricGraph) -> None:
        """Assert the three structural invariants; raises on failure."""
        ticks, unit = g.ticks()
        to_target = _target_ticks(g, self.target)
        for x in self.target:
            if self.mapping[x] != x:
                raise InvariantViolation(f"target vertex {x} not fixed")
        # Connected fibers, each containing its image.
        fibers: dict[int, set[int]] = {}
        for v, img in self.mapping.items():
            fibers.setdefault(img, set()).add(v)
        for img, fib in fibers.items():
            if img not in fib or len(connected_components(g, fib)) > 1:
                raise InvariantViolation(f"fiber of {img} disconnected")
        # Distance/level bound in the scaled metric, on ints: with
        # d(x, F(x)) = t / unit, d * scale < 2^(L+1) reads
        # t * scale.num < (scale.den * unit) << (L+1), with the shift
        # moved to the left side when L+1 < 0.  The fibers are connected,
        # so t is finite.
        s_num, s_den = self.scale.numerator, self.scale.denominator
        for x, img in self.mapping.items():
            t = ticks[x][img]
            level = self.levels[x]
            lhs, rhs = t * s_num, s_den * unit
            if level >= -1:
                rhs <<= level + 1
            else:
                lhs <<= -(level + 1)
            if lhs >= rhs:
                raise InvariantViolation(
                    f"vertex {x}: d(x,F(x)) = {Fraction(t, unit) * self.scale}"
                    f" >= 2^{level + 1}"
                )
            if to_target[x] > t:
                raise InvariantViolation(f"vertex {x}: F(x) not closest-consistent")


def sample_retraction(
    g: MetricGraph,
    s,
    seed: int,
) -> Retraction:
    """Level-by-level absorption into S.

    V_0 = S.  At scale 2^k a fresh padded partition is drawn, with A the
    set absorbed before level k.  In each block T, every component C of
    G[T \\ A] with a neighbour in A inside T joins at level k and takes
    the image of its lowest such neighbour; A grows only after the level.
    The top scale's blocks are G's components, each holding a target,
    so every vertex is absorbed by then."""
    return _absorption_sampler(g, s)(seed)


def _absorption_sampler(g: MetricGraph, s):
    """Check the target, fix the prescale and the scale count once, and
    return the seed -> Retraction sampler of ``sample_retraction``.

    Scale 2^k of the prescaled metric d_G * scale is scale 2^k / scale of
    d_G, so every level partitions g itself, on its shared tick matrix."""
    s = frozenset(s)
    if not s:
        raise EmptyTarget("retraction target is empty")
    comps = g.components()
    for comp in comps:
        if not comp & s:
            raise EmptyTarget(f"component {sorted(comp)[:5]}... contains no target vertex")
    _, unit = g.ticks()
    # d(x, S) in ticks, for the prescale's gaps.
    to_target = _target_ticks(g, s)

    # Prescale so d(S, V \ S) > 1 (zero-distance complements keep scale 1).
    gaps = [to_target[x] for x in range(g.n) if x not in s and to_target[x] > 0]
    scale = Fraction(2 * unit, min(gaps)) if gaps else Fraction(1)

    diam = diameter(g) * scale
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
                    g, Fraction(2) ** k / scale, seed * 7_919 + k
                )
                blocks = part.blocks
            newly: list[set[int]] = []
            for t_block in blocks:
                for chunk in connected_components(g, t_block - absorbed):
                    nbrs = [
                        u for v in chunk for (u, _) in adj[v]
                        if u in absorbed and u in t_block
                    ]
                    if not nbrs:
                        continue
                    v_c = min(nbrs)
                    newly.append(chunk)
                    for v in chunk:
                        mapping[v] = mapping[v_c]
                        levels[v] = k
            for chunk in newly:
                absorbed |= chunk
            if len(absorbed) == g.n:
                break
        return Retraction(s, mapping, levels, scale)

    return sample


def _target_ticks(g: MetricGraph, s: frozenset) -> list:
    """d(x, s) for every x, in the ticks of ``g.ticks()``: min over t in s
    of ticks[x][t].  Built once per graph and target and shared with g's
    other views; do not mutate."""
    return g._view(
        ("target_ticks", s), lambda g: [min(row[t] for t in s) for row in g.ticks()[0]]
    )


@dataclass(frozen=True)
class FaceRetraction:
    """Outerplanar quotient of a planar instance along a retraction onto
    its distinguished face."""

    h: MetricGraph                  # on vertices 0..k-1
    face_ids: tuple[int, ...]       # h vertex i corresponds to this g vertex
    mapping: dict[int, int]         # g vertex -> h vertex
    retraction: Retraction


def retraction_sampler(inst: PlanarInstance):
    """Validate the instance and precompute the deterministic part of the
    face retraction (target scale, scale count), and return a seed ->
    FaceRetraction sampler; use this when drawing many retractions of the
    same instance.  Every sample's retraction is checked (fixed target,
    connected fibers, level bounds); the quotient is checked to be
    outerplanar and to bring no face pair closer once per distinct
    quotient graph."""
    problems = inst.validate()
    if problems:
        raise FaceInvalid("; ".join(problems))
    g = inst.graph
    face = tuple(inst.face)
    dmat = g.distances()
    retract = _absorption_sampler(g, set(face))
    idx = {v: i for i, v in enumerate(face)}
    # Quotients that passed the checks depending on h alone; a graph is
    # added only once it passes, so a failing one raises on every draw.
    checked: set[MetricGraph] = set()

    def sample(seed: int) -> FaceRetraction:
        retr = retract(seed)
        edges: dict[tuple[int, int], Fraction] = {}
        for (u, v, _) in g.edges:
            a, b = retr.mapping[u], retr.mapping[v]
            if a == b:
                continue
            edges[norm_edge(idx[a], idx[b])] = dmat[a][b]
        # tuple() of a list, not of a generator: see sample_padded_partition.
        h = MetricGraph(len(face), tuple([(u, v, w) for (u, v), w in edges.items()]))
        mapping = {v: idx[retr.mapping[v]] for v in range(g.n)}
        retr.check(g)
        if h not in checked:
            if not is_outerplanar(h):
                raise InvariantViolation("retracted graph is not outerplanar")
            dh = h.distances()
            for i, u in enumerate(face):
                for j, v in enumerate(face):
                    if i < j and dh[i][j] < dmat[u][v]:
                        raise InvariantViolation(
                            f"face pair ({u},{v}) got closer after retraction"
                        )
            checked.add(h)
        return FaceRetraction(h, face, mapping, retr)

    return sample


def retract_to_outerplanar(inst: PlanarInstance, seed: int) -> FaceRetraction:
    """Retract onto the distinguished face and contract fibers; each
    surviving edge gets length d_g between its fiber representatives."""
    return retraction_sampler(inst)(seed)
