"""Padded random partitions at a fixed scale.

The planar construction is iterated chopping: a few rounds of annulus
cuts at random offsets, refined per round, with a deterministic ball
carving pass that enforces the diameter bound with probability one.
Padding quality is estimated empirically, never assumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CONFIG
from .errors import NonPositiveScale
from .graph import MetricGraph, all_pairs_distances, connected_components, frac

_GRID = 1 << 30


def _uniform_frac(rng: random.Random, hi: Fraction) -> Fraction:
    """Uniform rational in [0, hi) from a fine grid."""
    return hi * Fraction(rng.randrange(_GRID), _GRID)


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


def weak_diameter(dmat, block) -> Fraction:
    best = Fraction(0)
    vs = sorted(block)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if dmat[u][v] > best:
                best = dmat[u][v]
    return best


def sample_padded_partition(
    g: MetricGraph,
    tau,
    seed: int,
    _dmat=None,
) -> Partition:
    """Random tau-bounded partition (weak diameter in d_G).

    Rounds of annulus chopping at width tau/6 with uniform random
    offsets, then ball carving at radius tau/2 for any block still too
    large.  Deterministic given (g, tau, seed).
    """
    tau = frac(tau)
    if tau <= 0:
        raise NonPositiveScale(f"tau must be positive, got {tau}")
    rng = random.Random(f"padded:{seed}")
    width = tau / DEFAULT_CONFIG.chop_width_divisor
    dmat = _dmat if _dmat is not None else all_pairs_distances(g)
    clusters: list[set[int]] = [set(c) for c in connected_components(g)]
    for _ in range(DEFAULT_CONFIG.chop_rounds):
        new_clusters = []
        for cl in sorted(clusters, key=min):
            if len(cl) == 1:
                new_clusters.append(cl)
                continue
            dist = dmat[min(cl)]
            r0 = _uniform_frac(rng, width)
            bands: dict[int, set[int]] = {}
            for v in sorted(cl):
                band = int((dist[v] - r0) // width)
                bands.setdefault(band, set()).add(v)
            new_clusters.extend(bands[b] for b in sorted(bands))
        clusters = new_clusters
    # Enforce the diameter bound deterministically.
    final: list[set[int]] = []
    for cl in clusters:
        if weak_diameter(dmat, cl) <= tau:
            final.append(cl)
            continue
        remaining = sorted(cl)
        while remaining:
            c = remaining[0]
            ball = {v for v in remaining if dmat[c][v] <= tau / 2}
            final.append(ball)
            remaining = [v for v in remaining if v not in ball]
    return Partition(tuple(frozenset(b) for b in final), tau)


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
    escape-frequency * tau / R."""
    tau = frac(tau)
    radii = [frac(r) for r in radii]
    dmat = all_pairs_distances(g)
    escapes = {(x, r): 0 for x in range(g.n) for r in radii}
    for s in range(samples):
        part = sample_padded_partition(g, tau, seed * 1_000_003 + s, _dmat=dmat)
        idx = part.index_of()
        for x in range(g.n):
            bx = idx[x]
            ball = [v for v in range(g.n) if dmat[x][v] <= max(radii)]
            for r in radii:
                if any(dmat[x][v] <= r and idx[v] != bx for v in ball):
                    escapes[(x, r)] += 1
    freqs = {k: c / samples for k, c in escapes.items()}
    alpha = 0.0
    for (x, r), f in freqs.items():
        if r > 0:
            alpha = max(alpha, f * float(tau) / float(r))
    return PaddingReport(tau, samples, freqs, alpha)
