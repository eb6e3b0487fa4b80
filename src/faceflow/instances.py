"""Instance file I/O and random instance generators.

File format (JSON):
  {"n": int,
   "edges": [[u, v, len_num, len_den], ...],
   "face": [v, ...],                      optional
   "rotation": {"v": [u, ...], ...},      optional
   "vcaps": [[num, den], ...],            optional, one per vertex
   "polymatroid": {"v": {"u,u',...": [num, den], ...}, ...},  optional
   "demands": [[u, v, num, den], ...]}    optional
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graph import (
    MetricGraph,
    PlanarInstance,
    is_planar,
    norm_edge,
    reduce_lengths,
)
from .polyflow import DemandMatrix, PolymatroidCaps


@dataclass(frozen=True)
class Instance:
    """A metric graph with optional face, capacities, and demands."""

    graph: MetricGraph
    face: Optional[tuple[int, ...]] = None
    rotation: Optional[dict[int, tuple[int, ...]]] = None
    vcaps: Optional[tuple[Fraction, ...]] = None
    polymatroid: Optional[dict[int, dict[frozenset, Fraction]]] = None
    demands: Optional[DemandMatrix] = None

    def planar_instance(self) -> PlanarInstance:
        if self.face is None:
            raise ValueError("instance has no distinguished face")
        return PlanarInstance(self.graph, self.face, self.rotation)

    def caps(self) -> PolymatroidCaps:
        """The instance's capacities; ValueError unless every table is
        monotone and submodular (the assignment searches of ``nu`` and the
        table oracle prune only under monotone rho) and has a value at
        every nonempty set of its vertex's edges."""
        if self.polymatroid is not None:
            caps = PolymatroidCaps(vertex_caps=None, tables=dict(self.polymatroid))
            caps.validate_tables()
            # Complete on its own edges, a table is complete on v's if it has each.
            for v in range(self.graph.n):
                for sub in (frozenset({e}) for e in self.graph.incident(v)):
                    if sub not in caps.tables.get(v, {}):
                        raise ValueError(f"rho_{v} has no value at {sub}")
            return caps
        if self.vcaps is None:
            raise ValueError("instance has no capacities")
        return PolymatroidCaps.from_vertex_caps(dict(enumerate(self.vcaps)))

    def cap_dict(self) -> dict[int, Fraction]:
        if self.vcaps is None:
            raise ValueError("instance has no vertex capacities")
        return dict(enumerate(self.vcaps))

    def demand_matrix(self) -> DemandMatrix:
        if self.demands is None:
            raise ValueError("instance has no demands")
        return self.demands


def _frac_pair(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def to_dict(inst: Instance) -> dict:
    d: dict = {
        "n": inst.graph.n,
        "edges": [
            [u, v, w.numerator, w.denominator] for (u, v, w) in inst.graph.edges
        ],
    }
    if inst.face is not None:
        d["face"] = list(inst.face)
    if inst.rotation is not None:
        d["rotation"] = {str(v): list(nb) for v, nb in inst.rotation.items()}
    if inst.vcaps is not None:
        d["vcaps"] = [_frac_pair(c) for c in inst.vcaps]
    if inst.polymatroid is not None:
        d["polymatroid"] = {
            str(v): {
                ",".join(f"{a}-{b}" for (a, b) in sorted(sub)): _frac_pair(val)
                for sub, val in table.items()
            }
            for v, table in inst.polymatroid.items()
        }
    if inst.demands is not None:
        d["demands"] = [
            [u, v, w.numerator, w.denominator] for (u, v, w) in inst.demands.items()
        ]
    return d


def from_dict(d: dict) -> Instance:
    n = int(d["n"])
    edges = tuple(
        (int(u), int(v), Fraction(int(num), int(den)))
        for (u, v, num, den) in d["edges"]
    )
    g = MetricGraph(n, edges)
    face = tuple(int(v) for v in d["face"]) if "face" in d else None
    rotation = None
    if "rotation" in d:
        rotation = {
            int(v): tuple(int(u) for u in nb) for v, nb in d["rotation"].items()
        }
    vcaps = None
    if "vcaps" in d:
        vcaps = tuple(Fraction(int(num), int(den)) for (num, den) in d["vcaps"])
        if len(vcaps) != n:
            raise ValueError(f"vcaps has {len(vcaps)} entries for {n} vertices")
    poly = None
    if "polymatroid" in d:
        poly = {}
        for v, table in d["polymatroid"].items():
            t = {}
            for key, (num, den) in table.items():
                sub = frozenset(
                    tuple(int(x) for x in part.split("-"))
                    for part in key.split(",")
                    if part
                )
                t[frozenset(norm_edge(a, b) for (a, b) in sub)] = Fraction(
                    int(num), int(den)
                )
            poly[int(v)] = t
    demands = None
    if "demands" in d:
        pairs = [
            (int(u), int(v), Fraction(int(num), int(den)))
            for (u, v, num, den) in d["demands"]
        ]
        for (u, v, _) in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"demand ({u},{v}) out of range 0..{n - 1}")
        demands = DemandMatrix.from_pairs(pairs)
    return Instance(g, face, rotation, vcaps, poly, demands)


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w") as f:
        json.dump(to_dict(inst), f, indent=1)
        f.write("\n")


def load_instance(path: str) -> Instance:
    with open(path) as f:
        return from_dict(json.load(f))


# -- generators ---------------------------------------------------------

_LEN_GRID = 8


def _rand_len(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(1, 2 * _LEN_GRID + 1), _LEN_GRID)


def random_tree(n: int, seed: int) -> MetricGraph:
    rng = random.Random(f"tree:{seed}")
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, _rand_len(rng)))
    return MetricGraph(n, tuple(edges))


def random_outerplanar(n: int, seed: int, extra_chords: Optional[int] = None):
    """Biconnected outerplanar graph: an n-cycle plus non-crossing chords.

    Returns (graph, face) with the face listed in cycle order."""
    rng = random.Random(f"outer:{seed}")
    if n < 3:
        raise ValueError("need n >= 3")
    edges = [(i, (i + 1) % n, _rand_len(rng)) for i in range(n)]
    present = {norm_edge(i, (i + 1) % n) for i in range(n)}
    if extra_chords is None:
        extra_chords = rng.randrange(max(1, n - 2))
    tries = 0
    added = 0
    chords: list[tuple[int, int]] = []
    while added < extra_chords and tries < 20 * n:
        tries += 1
        a = rng.randrange(n)
        b = rng.randrange(n)
        lo, hi = min(a, b), max(a, b)
        if hi - lo < 2 or (lo == 0 and hi == n - 1):
            continue
        e = (lo, hi)
        if e in present:
            continue
        # Non-crossing against existing chords.
        if any(
            (c < lo < d < hi) or (lo < c < hi < d) for (c, d) in chords
        ):
            continue
        chords.append(e)
        present.add(e)
        # Keep the chord below the arc length it shortcuts; a final
        # length reduction takes care of second-order shortcuts.
        arc = sum(w for (u, v, w) in edges[:n] if lo <= u < hi)
        edges.append((lo, hi, arc * Fraction(rng.randrange(1, _LEN_GRID), _LEN_GRID)))
        added += 1
    g = reduce_lengths(MetricGraph(n, tuple((u, v, w) for (u, v, w) in edges)))
    return g, tuple(range(n))


def random_planar_with_face(n: int, seed: int):
    """Planar graph with a distinguished outer face: an outerplanar shell
    on about half the vertices plus interior vertices wired in without
    breaking planarity (checked by retry).

    Returns (graph, face)."""
    rng = random.Random(f"planar:{seed}")
    k = max(3, n - rng.randrange(max(1, n // 2 + 1)))
    shell, face = random_outerplanar(k, rng.randrange(1 << 30))
    edges = list(shell.edges)
    for v in range(k, n):
        # Attach each interior vertex to 1-3 earlier vertices, keeping
        # planarity with an apex over the face.
        deg = rng.randrange(1, 4)
        targets = rng.sample(range(v), min(deg, v))
        for u in targets:
            cand = edges + [(u, v, _rand_len(rng))]
            gc = MetricGraph(n, tuple(cand))
            apex_edges = list(cand) + [
                (n, x, Fraction(1)) for x in face
            ]
            apex = MetricGraph(n + 1, tuple(apex_edges))
            if is_planar(apex):
                edges = cand
    g = reduce_lengths(MetricGraph(n, tuple(edges)))
    return g, face


def grid_graph(rows: int, cols: int):
    """Unit-length grid; the outer boundary is the distinguished face."""
    n = rows * cols

    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1), Fraction(1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c), Fraction(1)))
    face = []
    for c in range(cols):
        face.append(vid(0, c))
    for r in range(1, rows):
        face.append(vid(r, cols - 1))
    for c in range(cols - 2, -1, -1):
        face.append(vid(rows - 1, c))
    for r in range(rows - 2, 0, -1):
        face.append(vid(r, 0))
    return MetricGraph(n, tuple(edges)), tuple(face)


def random_caps(n: int, seed: int) -> tuple[Fraction, ...]:
    rng = random.Random(f"caps:{seed}")
    return tuple(Fraction(rng.randrange(1, 9), 2) for _ in range(n))


def random_demands(
    vertices, seed: int, pairs: Optional[int] = None
) -> DemandMatrix:
    rng = random.Random(f"dem:{seed}")
    verts = sorted(vertices)
    if len(verts) < 2:
        raise ValueError("need at least two demand endpoints")
    if pairs is None:
        pairs = rng.randrange(1, max(2, len(verts)))
    out = []
    for _ in range(pairs):
        u, v = rng.sample(verts, 2)
        out.append((u, v, Fraction(rng.randrange(1, 5), 2)))
    return DemandMatrix.from_pairs(out)


def cycle_instance(n: int, length: Fraction = Fraction(1)) -> MetricGraph:
    return MetricGraph(
        n, tuple((i, (i + 1) % n, length) for i in range(n))
    )


def slack_cycle(n: int, eps: Fraction = Fraction(1, 64)) -> MetricGraph:
    """n-cycle with unit arcs and one short closing edge of length eps; it
    survives the 160-slack transform, so embedding it runs the ear, anchor
    and glue steps."""
    edges = [(i, i + 1, Fraction(1)) for i in range(n - 1)]
    edges.append((n - 1, 0, Fraction(eps)))
    return MetricGraph(n, tuple(edges))
