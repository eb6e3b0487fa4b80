"""Padded random partitions at a fixed scale.

The planar construction is iterated chopping: a few rounds of annulus
cuts at random offsets, refined per round, with a deterministic ball
carving pass that enforces the diameter bound with probability one.
Padding quality is estimated empirically, never assumed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CONFIG
from .errors import NonPositiveScale
from .graph import MetricGraph, frac

# Chopping offsets are drawn as u / _GRID of the annulus width.
_GRID = 1 << 30


@dataclass(frozen=True)
class Partition:
    blocks: tuple[frozenset[int], ...]
    tau: Fraction

    def index_of(self) -> dict[int, int]:
        out = {}
        for i, b in enumerate(self.blocks):
            for v in b:
                out[v] = i
        return out


def sample_padded_partition(
    g: MetricGraph,
    tau,
    seed: int,
) -> Partition:
    """Random tau-bounded partition (weak diameter in d_G).

    Rounds of annulus chopping at width tau/6 with uniform random
    offsets, then ball carving at radius tau/2 for any block still too
    large.  Deterministic given (g, tau, seed).

    All tests run on ints, on g's shared tick matrix ``g.ticks()``: a
    pair (ticks, L) with d = t / L, built once per graph however often
    it is partitioned.  With tau = p / q, width tau / div and an offset
    u / 2^30 of the width, each exact rational test is multiplied out:

    - band floor((d - offset) / width) = (div 2^30 q t - p L u) // (p L 2^30);
    - a cluster is one block iff t q <= p L for all its pairs;
    - a vertex joins the carved ball iff 2 t q <= p L."""
    tau = frac(tau)
    if tau <= 0:
        raise NonPositiveScale(f"tau must be positive, got {tau}")
    rng = random.Random(f"padded:{seed}")
    ticks, L = g.ticks()
    pL = tau.numerator * L
    q = tau.denominator
    a = DEFAULT_CONFIG.chop_width_divisor * _GRID * q
    c = pL * _GRID
    # Clusters are sorted vertex lists, so cl[0] is the smallest vertex.
    clusters = [sorted(comp) for comp in g.components()]
    for _ in range(DEFAULT_CONFIG.chop_rounds):
        new_clusters = []
        for cl in sorted(clusters, key=lambda cl: cl[0]):
            if len(cl) == 1:
                new_clusters.append(cl)
                continue
            dist = ticks[cl[0]]
            offset = pL * rng.randrange(_GRID)
            bands: dict[int, list[int]] = {}
            for v in cl:
                bands.setdefault((a * dist[v] - offset) // c, []).append(v)
            new_clusters.extend(bands[b] for b in sorted(bands))
        clusters = new_clusters
    # Enforce the diameter bound deterministically.  For an int t,
    # t q <= p L iff t <= p L // q, and 2 t q <= p L iff t <= p L // 2q.
    fits, half = pL // q, pL // (2 * q)
    final: list[list[int]] = []
    for cl in clusters:
        if all(ticks[u][v] <= fits for u in cl for v in cl):
            final.append(cl)
            continue
        remaining = cl
        while remaining:
            dist = ticks[remaining[0]]
            final.append([v for v in remaining if dist[v] <= half])
            remaining = [v for v in remaining if dist[v] > half]
    # tuple() of a list: of a generator it is built by resizing, which
    # strands tuples on the interpreter's free lists on every sample.
    return Partition(tuple([frozenset(b) for b in final]), tau)


@dataclass(frozen=True)
class PaddingReport:
    tau: Fraction
    samples: int
    # (vertex, radius) -> empirical escape frequency of B(x, R) from P(x)
    frequencies: dict[tuple[int, Fraction], float]
    alpha_hat: float


def estimate_padding(
    g: MetricGraph,
    tau,
    radii,
    samples: int,
    seed: int,
) -> PaddingReport:
    """Empirical padding constant: max over tested (x, R) of
    escape-frequency * tau / R, over ``samples`` >= 1 partitions."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    tau = frac(tau)
    radii = [frac(r) for r in radii]
    ticks, L = g.ticks()
    # B(x, r) once per instance: t / L <= r iff t <= floor(r L) for an int t.
    balls = {
        (x, r): [v for v in range(g.n) if ticks[x][v] <= math.floor(r * L)]
        for x in range(g.n)
        for r in radii
    }
    escapes = {(x, r): 0 for x in range(g.n) for r in radii}
    for s in range(samples):
        part = sample_padded_partition(g, tau, seed * 1_000_003 + s)
        idx = part.index_of()
        for x in range(g.n):
            bx = idx[x]
            for r in radii:
                if any(idx[v] != bx for v in balls[(x, r)]):
                    escapes[(x, r)] += 1
    freqs = {k: c / samples for k, c in escapes.items()}
    alpha = 0.0
    for (x, r), f in freqs.items():
        if r > 0:
            alpha = max(alpha, f * float(tau) / float(r))
    return PaddingReport(tau, samples, freqs, alpha)
