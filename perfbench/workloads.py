"""Workload definitions: inputs generated from a seed, the public
``faceflow`` call each task makes, and the exact checks on its output.

Every call goes through a module attribute (``experiments.gap_experiment``
rather than a name imported into this file), so the tracer's wrappers are
the objects called when tracing is on.

Why each workload exists, and which layer it isolates, is written in
README.md next to this file.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from faceflow import experiments, instances
from faceflow.config import DEFAULT_CONFIG
from faceflow.graph import MetricGraph, norm_edge
from faceflow.instances import Instance
from faceflow.polyflow import DemandMatrix

F = Fraction

WORKLOADS = ("gap-corpus", "gap-pipeline", "embed-slack")

# Monte Carlo sample seeds are drawn from a pool of this size, so that every
# run's pipeline output can be compared with a golden value recorded from
# the reference program (see golden.json).
SEED_POOL = 16

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    # Returns the list of failed checks; empty means the output is correct.
    check: Callable[[Any], list[str]]
    # Golden key -> value recorded from the output (see record_golden.py).
    record: Callable[[Any], dict[str, str]]


@dataclass
class Workload:
    tasks: list[Task]
    # Output-quality figures derived from a pass's outputs (not timed).
    quality: Callable[[list[Any]], dict[str, float]]
    info: dict[str, Any]


def load_golden() -> dict[str, str]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


# -- instance builders ----------------------------------------------------


def _unit_instance(g: MetricGraph, face, pairs) -> Instance:
    return Instance(
        g, face=tuple(face), vcaps=(F(1),) * g.n,
        demands=DemandMatrix.from_pairs([(u, v, F(1)) for (u, v) in pairs]),
    )


def cycle6() -> Instance:
    g = instances.cycle_instance(6)
    return _unit_instance(g, range(6), [(0, 3), (1, 4)])


def grid(rows: int, cols: int) -> Instance:
    """Unit grid with the two diagonal boundary demands."""
    g, face = instances.grid_graph(rows, cols)
    n = rows * cols
    return _unit_instance(g, face, [(0, n - 1), (cols - 1, n - cols)])


def outerplanar(n: int, s: int) -> Instance:
    """The gap-corpus outerplanar instance (scripts/gap_corpus.py)."""
    g, face = instances.random_outerplanar(n, s)
    return Instance(
        g, face=face, vcaps=instances.random_caps(n, s),
        demands=instances.random_demands(face, s),
    )


def planar(n: int, s: int, pairs: int | None = None) -> Instance:
    g, face = instances.random_planar_with_face(n, s)
    return Instance(
        g, face=face, vcaps=instances.random_caps(n, s),
        demands=instances.random_demands(face, s, pairs),
    )


def table_outerplanar(n: int, s: int) -> Instance:
    """Outerplanar instance with explicit polymatroid tables
    rho_v(A) = min(cap_v, cap_v / 2 * |A|)."""
    g, face = instances.random_outerplanar(n, s)
    caps = instances.random_caps(n, s)
    tables = {}
    for v in range(n):
        inc = [norm_edge(a, b) for (a, b, _) in g.edges if v in (a, b)]
        tables[v] = {
            frozenset(c): min(caps[v], caps[v] / 2 * len(c))
            for r in range(len(inc) + 1)
            for c in itertools.combinations(inc, r)
        }
    inst = Instance(
        g, face=face, polymatroid=tables,
        demands=instances.random_demands(face, s),
    )
    inst.caps().validate_tables()
    return inst


def slack_cycle(n: int, eps: Fraction = F(1, 64)) -> MetricGraph:
    """n-cycle with unit arcs and one short closing edge; it survives the
    160-slack transform, so the random cycle/anchor embedding runs."""
    edges = [(i, i + 1, F(1)) for i in range(n - 1)]
    edges.append((n - 1, 0, eps))
    return MetricGraph(n, tuple(edges))


# -- independent exact checks ---------------------------------------------


def _separated(g: MetricGraph, cut, dem: DemandMatrix) -> Fraction:
    """Demand whose endpoints are disconnected once ``cut`` is removed."""
    cut = {norm_edge(*e) for e in cut}
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v, _) in g.edges:
        if norm_edge(u, v) not in cut:
            parent[find(u)] = find(v)
    return sum((w for (u, v, w) in dem.items() if find(u) != find(v)), F(0))


def _assignment_value(inst: Instance, assign: dict) -> Fraction:
    buckets: dict[int, set] = {}
    for e, v in assign.items():
        buckets.setdefault(v, set()).add(norm_edge(*e))
    if inst.polymatroid is not None:
        return sum((inst.polymatroid[v][frozenset(es)] for v, es in buckets.items()), F(0))
    return sum((inst.vcaps[v] for v in buckets), F(0))


def _check_certificate(inst: Instance, cert) -> list[str]:
    """Re-derive the certificate's separated demand, cut capacity and
    sparsity from its edge set and assignment."""
    bad = []
    if set(cert.assignment) != set(cert.edges):
        bad.append("certificate assignment does not cover its edges")
    if any(v not in e for e, v in cert.assignment.items()):
        bad.append("certificate assigns an edge to a non-endpoint")
        return bad
    sep = _separated(inst.graph, cert.edges, inst.demand_matrix())
    if sep != cert.separated:
        bad.append(f"certificate separated {cert.separated} != recomputed {sep}")
    val = _assignment_value(inst, cert.assignment)
    if val != cert.nu_value:
        bad.append(f"certificate nu {cert.nu_value} != assignment value {val}")
    if sep == 0 or cert.sparsity != val / sep:
        bad.append("certificate sparsity != nu / separated")
    return bad


def _golden_cmp(golden, key: str, value, bad: list[str]) -> None:
    if golden is None:
        return
    want = golden.get(key)
    if want is None:
        bad.append(f"no golden value for {key}")
    elif want != str(value):
        bad.append(f"{key}: got {value}, golden {want}")


# -- gap workloads ----------------------------------------------------------


def _gap_task(iname: str, inst: Instance, samples: int, sseed: int, golden) -> Task:
    key = f"gap|{iname}|{samples}|{sseed}"
    bound = F(DEFAULT_CONFIG.pipeline_ratio_bound)

    def run():
        return experiments.gap_experiment(inst, samples, sseed)

    def check(rep) -> list[str]:
        bad = []
        for k in ("retraction", "embed_lipschitz", "composition_star_shaped", "thin"):
            if rep.assertion_tallies.get(k) != samples:
                bad.append(f"tally {k} = {rep.assertion_tallies.get(k)} != {samples}")
        cert = rep.best_certificate
        if cert is None:
            bad.append("pipeline produced no cut certificate")
            return bad
        bad += _check_certificate(inst, cert)
        for label, s in (("phi_brute", rep.phi_brute), ("pipeline", cert.sparsity),
                         ("best", rep.best_sparsity)):
            if s is not None and s < rep.mcf:
                bad.append(f"weak duality: {label} sparsity {s} < mcf {rep.mcf}")
        if rep.mcf <= 0 or cert.sparsity / rep.mcf > bound:
            bad.append(f"pipeline ratio {cert.sparsity}/{rep.mcf} exceeds {bound}")
        want_best = min(s for s in (rep.phi_brute, cert.sparsity) if s is not None)
        if rep.best_sparsity != want_best:
            bad.append("best_sparsity != min(phi_brute, pipeline)")
        _golden_cmp(golden, f"mcf|{iname}", rep.mcf, bad)
        _golden_cmp(golden, f"phi_brute|{iname}", rep.phi_brute, bad)
        _golden_cmp(golden, key, cert.sparsity, bad)
        return bad

    def record(rep) -> dict[str, str]:
        return {
            f"mcf|{iname}": str(rep.mcf),
            f"phi_brute|{iname}": str(rep.phi_brute),
            key: str(rep.best_certificate.sparsity),
        }

    return Task(f"{iname}@{sseed}", run, check, record)


def _gap_quality(outs) -> dict[str, float]:
    ratios = [float(r.best_certificate.sparsity / r.mcf) for r in outs
              if r.best_certificate is not None and r.mcf > 0]
    return {"pipeline_ratio_max": max(ratios)} if ratios else {}


def _gap_workload(corpus, samples: int, seed: int, golden) -> Workload:
    sseed = seed % SEED_POOL
    tasks = [_gap_task(n, i, samples, sseed, golden) for (n, i) in corpus]
    return Workload(tasks, _gap_quality, {"samples": samples, "sample_seed": sseed})


def gap_corpus(seed: int, smoke: bool, golden) -> Workload:
    if smoke:
        return _gap_workload([("c6", cycle6()), ("table5-4", table_outerplanar(5, 4))],
                             3, seed, golden)
    corpus = [("c6", cycle6()), ("grid2x4", grid(2, 4))]
    corpus += [(f"outer6-{s}", outerplanar(6, s)) for s in range(3)]
    corpus.append(("outer7-4", outerplanar(7, 4)))
    corpus.append(("table7-2", table_outerplanar(7, 2)))
    return _gap_workload(corpus, 5, seed, golden)


def gap_pipeline(seed: int, smoke: bool, golden) -> Workload:
    if smoke:
        return _gap_workload([("grid2x3", grid(2, 3))], 3, seed, golden)
    corpus = [("grid3x4", grid(3, 4)), ("planar12-2p2", planar(12, 2, pairs=2))]
    return _gap_workload(corpus, 60, seed, golden)


# -- embedding workload -----------------------------------------------------


def _embed_task(gname: str, g: MetricGraph, samples: int, sseed: int, golden) -> Task:
    key = f"embed|{gname}|{samples}|{sseed}"
    floor = 1 / DEFAULT_CONFIG.embed_contraction

    def run():
        return experiments.distortion_experiment(g, samples, sseed)

    def check(rep) -> list[str]:
        bad = []
        pairs = g.n * (g.n - 1) // 2
        if len(rep.table) != pairs:
            bad.append(f"{len(rep.table)} pairs reported, expected {pairs}")
        # A 1-Lipschitz map gives every ratio <= 1, so every mean <= 1
        # up to float summation error.
        if any(m > 1 + 1e-9 for (m, _) in rep.table.values()):
            bad.append("mean contraction ratio above 1: map not 1-Lipschitz")
        if not rep.min_lcb >= floor:
            bad.append(f"min lcb {rep.min_lcb} below 1/{DEFAULT_CONFIG.embed_contraction}")
        if golden is not None:
            want = golden.get(key)
            if want is None:
                bad.append(f"no golden value for {key}")
            elif not math.isclose(rep.min_mean, float(want), rel_tol=1e-9):
                bad.append(f"{key}: min mean {rep.min_mean!r}, golden {want}")
        return bad

    def record(rep) -> dict[str, str]:
        return {key: repr(rep.min_mean)}

    return Task(f"{gname}@{sseed}", run, check, record)


def embed_slack(seed: int, smoke: bool, golden) -> Workload:
    if smoke:
        graphs = [("slack6", slack_cycle(6)), ("outer5-0", instances.random_outerplanar(5, 0)[0])]
        samples = 20
    else:
        graphs = [(f"slack{n}", slack_cycle(n)) for n in (6, 8, 10, 12)]
        graphs += [(f"outer8-{s}", instances.random_outerplanar(8, s)[0]) for s in range(3)]
        samples = 500
    sseed = seed % SEED_POOL
    tasks = [_embed_task(n, g, samples, sseed, golden) for (n, g) in graphs]

    def quality(outs):
        return {"contraction_min_lcb": min(r.min_lcb for r in outs)}

    return Workload(tasks, quality,
                    {"samples": samples, "sample_seed": sseed})


BUILDERS = {
    "gap-corpus": gap_corpus,
    "gap-pipeline": gap_pipeline,
    "embed-slack": embed_slack,
}


def build(name: str, seed: int, smoke: bool = False, golden=None) -> Workload:
    return BUILDERS[name](seed, smoke, golden)
