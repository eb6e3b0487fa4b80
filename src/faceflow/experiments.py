"""End-to-end experiments: duality gap measurements, gap-instance
search, and Monte Carlo distortion estimates.

gap_experiment runs the full constructive pipeline (optimal dual
lengths, retraction onto the face, outerplanar tree embedding, thinning,
rounding) against the LP optimum and reports the best cut found.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .config import DEFAULT_CONFIG
from .errors import BudgetExhausted, NoSeparatedDemand, TooLarge
from .graph import MetricGraph, PlanarInstance, reduce_lengths
from .instances import (
    Instance,
    random_caps,
    random_demands,
    random_outerplanar,
    random_planar_with_face,
)
from .polyflow import (
    AdaptedLengths,
    DemandMatrix,
    brute_sparsest_edge_cut,
    brute_sparsest_vertex_cut,
    mcf_dual_vertex,
    mcf_polymatroid_lp,
    mcf_vertex_lp,
)
from .retraction import retraction_sampler
from .thinround import CutCertificate, multiscale_round
from .tree import TreeMap
from .treeembed import embed_sampler


@dataclass
class ExperimentReport:
    instance_id: str
    seed: int
    samples: int
    mcf: Fraction
    phi_brute: Optional[Fraction]
    best_sparsity: Optional[Fraction]
    best_certificate: Optional[CutCertificate]
    gap_ratio: Optional[float]
    assertion_tallies: dict[str, int] = field(default_factory=dict)
    runtime_s: float = 0.0

    def lines(self) -> list[str]:
        out = [
            f"instance: {self.instance_id}",
            f"seed: {self.seed}  samples: {self.samples}",
            f"mcf: {self.mcf} = {float(self.mcf):.6g}",
        ]
        if self.phi_brute is not None:
            out.append(f"phi_brute: {self.phi_brute} = {float(self.phi_brute):.6g}")
        if self.best_sparsity is not None:
            out.append(
                f"best_sparsity: {self.best_sparsity}"
                f" = {float(self.best_sparsity):.6g}"
            )
        if self.gap_ratio is not None:
            out.append(f"gap_ratio: {self.gap_ratio:.6g}")
        for k in sorted(self.assertion_tallies):
            out.append(f"checked {k}: {self.assertion_tallies[k]}")
        out.append(f"runtime_s: {self.runtime_s:.2f}")
        return out


def _positive_dual_lengths(
    g: MetricGraph, length: dict, ell: AdaptedLengths
) -> tuple[MetricGraph, AdaptedLengths]:
    """Floor the dual lengths away from zero so downstream geometry
    (cycles, face retraction) stays nondegenerate; the floor is tiny
    relative to the smallest positive dual length and only perturbs the
    reported bound ratio, never the exact weak-duality comparison."""
    positive = [w for w in length.values() if w > 0]
    eps = (min(positive) if positive else Fraction(1)) / 1024
    new_edges = []
    new_ell: dict[int, dict] = {}
    for (u, v, _) in g.edges:
        e = (u, v)
        new_edges.append((u, v, length[e] + eps))
        new_ell.setdefault(u, {})[e] = ell.ell.get(u, {}).get(e, Fraction(0)) + eps / 2
        new_ell.setdefault(v, {})[e] = ell.ell.get(v, {}).get(e, Fraction(0)) + eps / 2
    for x in range(g.n):
        new_ell.setdefault(x, {})
    g2 = MetricGraph(g.n, tuple(new_edges))
    return g2, AdaptedLengths(new_ell, g2.edge_lengths())


def gap_experiment(
    inst: Instance,
    samples: int,
    seed: int,
) -> ExperimentReport:
    """Pipeline vs LP on one capacitated instance with face demands.  The
    dual lengths are read off the flow LP's final reduced costs and
    certified exactly (``mcf_dual_vertex``), from the same solve as mcf
    in vertex form; polymatroid tables solve their own flow LP for mcf.

    The samples run through ``multiscale_round``: each retracts onto the
    face, embeds the retracted graph (one embedding sampler per distinct
    retracted graph) and hands the map with its retraction to the shared
    loop, which checks, thins, rounds and bounds it.  A failed check
    raises, so each check's tally is ``samples``; ``rounded`` counts the
    samples that separated some demand and is left out when none did."""
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    t0 = time.monotonic()
    g = inst.graph
    caps = inst.caps()
    dem = inst.demand_matrix()

    # Polymatroid-convention flow value and its optimal dual lengths.
    if caps.is_vertex_form():
        length, ell, mcf = mcf_dual_vertex(g, caps.vertex_caps, dem, endpoint_factor=1)
    else:
        # Dual lengths come from the vertex-capacity proxy rho_v(all).
        cap_dict = {v: caps.rho(v, g.incident(v)) for v in range(g.n)}
        mcf = mcf_polymatroid_lp(g, caps, dem).epsilon
        length, ell, _ = mcf_dual_vertex(g, cap_dict, dem, endpoint_factor=1)

    phi_brute = None
    if len(g.edges) <= DEFAULT_CONFIG.edge_cut_max_edges:
        try:
            _, phi_brute = brute_sparsest_edge_cut(g, caps, dem)
        except (TooLarge, NoSeparatedDemand):
            phi_brute = None

    g2, ell2 = _positive_dual_lengths(g, length, ell)
    rep, tallies = None, {}
    # Without a face only the brute cut is available.
    if inst.face is not None:
        retract = retraction_sampler(
            PlanarInstance(reduce_lengths(g2), inst.face, inst.rotation)
        )
        # Retracted graphs repeat across samples; prepare each one once.
        embedders: dict[MetricGraph, Callable[[int], TreeMap]] = {}

        def sample(s: int):
            fr = retract(s)
            embed = embedders.get(fr.h)
            if embed is None:
                embed = embedders[fr.h] = embed_sampler(fr.h)
            return embed(s), fr.mapping

        try:
            rep = multiscale_round(g2, ell2, caps, dem, sample, samples, seed)
        except NoSeparatedDemand:
            pass
        # A failed check raises, so every drawn sample passed all four.
        checks = ("retraction", "embed_lipschitz", "composition_star_shaped", "thin")
        tallies = dict.fromkeys(checks, samples) if samples else {}
        if rep is not None:
            tallies["rounded"] = rep.rounded

    best = rep.best if rep is not None else None
    cands = [s for s in (phi_brute, best.sparsity if best else None) if s is not None]
    best_sparsity = min(cands) if cands else None
    ratio = float(best_sparsity / mcf) if best_sparsity is not None and mcf > 0 else None
    return ExperimentReport(
        instance_id=f"n{g.n}m{len(g.edges)}",
        seed=seed,
        samples=samples,
        mcf=mcf,
        phi_brute=phi_brute,
        best_sparsity=best_sparsity,
        best_certificate=best,
        gap_ratio=ratio,
        assertion_tallies=tallies,
        runtime_s=time.monotonic() - t0,
    )


# -- gap instance search ------------------------------------------------


def _witness_candidates() -> list[Instance]:
    """Hand-picked small instances known to exhibit a vertex flow/cut
    gap; tried before any random search.

    The 3x3 unit-capacity grid with the two diagonal boundary demands
    has mcf^v = 1 and Phi^v = 3/2 (cut {1, 3, 5} or {3, 4, 5})."""
    from .instances import grid_graph

    g, face = grid_graph(3, 3)
    dem = DemandMatrix.from_pairs(
        [(0, 8, Fraction(1)), (2, 6, Fraction(1))]
    )
    return [
        Instance(
            g,
            face=face,
            vcaps=tuple(Fraction(1) for _ in range(9)),
            demands=dem,
        )
    ]


def search_gap_instance(
    max_n: int,
    budget_s: float,
    seed: int = 0,
    target: Fraction = Fraction(7, 5),
) -> tuple[Instance, Fraction, Fraction]:
    """Search small planar outer-face-demand instances, of 5 to max_n
    vertices with 5 <= max_n <= 14, for a vertex flow/cut gap
    Phi^v / mcf^v >= target; returns (instance, phi, mcf).

    Both values are recomputed exactly before returning."""
    if not 5 <= max_n <= 14:
        raise ValueError(f"max_n must be in 5..14, got {max_n}")
    t0 = time.monotonic()
    best_ratio = Fraction(0)
    best_found = None
    rng = random.Random(f"search:{seed}")

    def consider(inst: Instance):
        nonlocal best_ratio, best_found
        g = inst.graph
        dem = inst.demand_matrix()
        cap = inst.cap_dict()
        try:
            mcf = mcf_vertex_lp(g, cap, dem, endpoint_factor=2).epsilon
            _, phi = brute_sparsest_vertex_cut(g, cap, dem)
        except (NoSeparatedDemand, TooLarge):
            return None
        if mcf <= 0:
            return None
        ratio = phi / mcf
        if ratio > best_ratio:
            best_ratio = ratio
            best_found = (inst, phi, mcf)
        if ratio >= target:
            return (inst, phi, mcf)
        return None

    for inst in _witness_candidates():
        if inst.graph.n > max_n:
            continue
        hit = consider(inst)
        if hit:
            return hit

    while time.monotonic() - t0 < budget_s:
        n = rng.randrange(5, max_n + 1)
        kind = rng.randrange(2)
        try:
            if kind == 0:
                g, face = random_outerplanar(n, rng.randrange(1 << 30))
            else:
                g, face = random_planar_with_face(n, rng.randrange(1 << 30))
        except ValueError:
            continue
        unit = rng.randrange(2) == 0
        caps = (
            tuple(Fraction(1) for _ in range(g.n))
            if unit
            else random_caps(g.n, rng.randrange(1 << 30))
        )
        try:
            dem = random_demands(face, rng.randrange(1 << 30))
        except ValueError:
            continue
        inst = Instance(g, face=face, vcaps=caps, demands=dem)
        hit = consider(inst)
        if hit:
            return hit
    raise BudgetExhausted(
        f"no instance with ratio >= {target} in {budget_s}s;"
        f" best ratio found {best_ratio} = {float(best_ratio):.4f}"
    )


# -- distortion ---------------------------------------------------------


@dataclass
class DistortionReport:
    samples: int
    # (u, v) -> (mean ratio, one-sided lower confidence bound)
    table: dict[tuple[int, int], tuple[float, float]]
    # None when the table is empty: no pair at a distance in (0, inf).
    min_mean: Optional[float]
    min_lcb: Optional[float]


_Z99 = 2.3263478740408408


def distortion_experiment(
    g: MetricGraph,
    samples: int,
    seed: int,
    embed_fn: Optional[Callable[[int], TreeMap]] = None,
) -> DistortionReport:
    """Per-pair empirical contraction d_T(F(u),F(v)) / d_G(u,v) of the
    random outerplanar tree embedding, with 99% one-sided lower
    confidence bounds on the means, over ``samples`` >= 1 embeddings."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    dmat = g.distances()
    if embed_fn is None:
        embed_fn = embed_sampler(g)
    pairs = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if dmat[u][v] not in (0, math.inf)
    ]
    sums = [0.0] * len(pairs)
    sqs = [0.0] * len(pairs)
    # The pairs' ends in the order the pairs meet them; a sample's tree
    # distances among their images are one tick_matrix.
    ends = list(dict.fromkeys(x for p in pairs for x in p))
    place = {x: a for a, x in enumerate(ends)}
    # d_G(u, v) = num / den; a tree distance is t / D in ticks, so the
    # ratio is the one correctly rounded int division (t * den) / (D * num),
    # bit-identical to float() of the exact Fraction ratio.
    nd = [(place[u], place[v], *dmat[u][v].as_integer_ratio()) for (u, v) in pairs]
    for i in range(samples):
        tm = embed_fn(seed * 65_537 + i)
        f = tm.mapping
        tree = tm.tree
        xs = [f[x] for x in ends]
        ticks = tree.tick_matrix(xs)
        D = tree.D
        for k, (a, b, num, den) in enumerate(nd):
            t = ticks[a][b]
            if t is None:
                tree.tick_dist(xs[a], xs[b])  # raises: two components
            r = t * den / (D * num)
            sums[k] += r
            sqs[k] += r * r
    table = {}
    for k, p in enumerate(pairs):
        mean = sums[k] / samples
        var = max(0.0, sqs[k] / samples - mean * mean)
        se = math.sqrt(var / samples)
        table[p] = (mean, mean - _Z99 * se)
    min_mean = min(m for (m, _) in table.values()) if table else None
    min_lcb = min(l for (_, l) in table.values()) if table else None
    return DistortionReport(samples, table, min_mean, min_lcb)
