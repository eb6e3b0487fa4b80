"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines as
they are produced; each test prints exactly one line and then asserts.
"""

import random
import time
from fractions import Fraction

from conftest import flatten, make_cycle, slack_cycle, weak_diameter
from faceflow.config import DEFAULT_CONFIG
from faceflow.experiments import (
    distortion_experiment,
    gap_experiment,
    search_gap_instance,
)
from faceflow.graph import (
    all_pairs_distances,
    norm_edge,
    reduce_lengths,
    slack_transform,
)
from faceflow.instances import (
    Instance,
    cycle_instance,
    grid_graph,
    random_caps,
    random_demands,
    random_outerplanar,
    random_tree,
)
from faceflow.partition import sample_padded_partition
from faceflow.polyflow import (
    AdaptedLengths,
    DemandMatrix,
    PolymatroidCaps,
    brute_sparsest_vertex_cut,
    dual_objective,
    mcf_dual_vertex,
    mcf_vertex_lp,
)
from faceflow.retraction import sample_retraction
from faceflow.thinround import round_thin, rounding_bound, thin_map
from faceflow.tree import MetricTree, TreeMap
from faceflow.treeembed import embed_sampler, is_star_shaped, is_thin

F = Fraction


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status} - {detail}")


def _random_capped_instance(seed, max_n=12, pairs=2):
    """Random connected vertex-capacitated instance with demands."""
    rng = random.Random(f"acc:{seed}")
    n = rng.randrange(3, max_n + 1)
    if rng.randrange(2):
        g = random_tree(n, seed)
    else:
        g, _ = random_outerplanar(max(n, 3), seed)
    cap = dict(enumerate(random_caps(g.n, seed)))
    dem = random_demands(list(range(g.n)), seed, pairs=pairs)
    return g, cap, dem


def identity_tree_map(g, root=0):
    t = MetricTree()
    for v in range(g.n):
        t.add_vertex(v)
    for (u, v, w) in g.edges:
        t.add_edge(u, v, w)
    return TreeMap(t, {v: v for v in range(g.n)}, g, root=root)


def test_criterion_1_lp_duality():
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    exact = 0
    for seed in range(50):
        g, cap, dem = _random_capped_instance(seed)
        caps = PolymatroidCaps.from_vertex_caps(cap)
        for factor in (2, 1):
            eps = mcf_vertex_lp(g, cap, dem, endpoint_factor=factor).epsilon
            _, ell, obj = mcf_dual_vertex(g, cap, dem, endpoint_factor=factor)
            denom = max(abs(float(eps)), 1.0)
            rel = abs(float(eps - obj)) / denom
            worst = max(worst, rel)
            # The dual LP is derived from the flow LP's own rows, so also
            # re-derive its value from shortest paths under its lengths.
            exact += eps == obj == factor * dual_objective(g, ell, caps, dem)
            count += 1
    dt = time.monotonic() - t0
    ok = (
        worst <= DEFAULT_CONFIG.duality_rel_tol
        and exact == count
        and dt < 60.0
        and count >= 50
    )
    _line(1, "LP primal equals dual", ok,
          f"{count} LPs, worst rel err {worst:.2e}, {exact} exact, {dt:.1f}s")
    assert ok


def test_criterion_2_tree_equality():
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    for seed in range(100):
        rng = random.Random(f"tree-eq:{seed}")
        n = rng.randrange(3, 11)
        g = random_tree(n, seed)
        cap = dict(enumerate(random_caps(n, seed + 1)))
        dem = random_demands(list(range(n)), seed + 2)
        eps = mcf_vertex_lp(g, cap, dem, endpoint_factor=2).epsilon
        _, phi = brute_sparsest_vertex_cut(g, cap, dem)
        worst = max(worst, abs(float(eps - phi)))
        count += 1
    dt = time.monotonic() - t0
    ok = worst <= DEFAULT_CONFIG.duality_rel_tol and dt < 60.0 and count >= 100
    _line(2, "tree flow equals cut", ok,
          f"{count} trees, worst abs err {worst:.2e}, {dt:.1f}s")
    assert ok


def test_criterion_3_weak_duality_exact():
    violations = 0
    count = 0
    for seed in range(40):
        g, cap, dem = _random_capped_instance(seed, max_n=9)
        eps = mcf_vertex_lp(g, cap, dem, endpoint_factor=2).epsilon
        # The brute minimum over all enumerated vertex cuts; eps below it
        # means eps is below every cut's sparsity.
        try:
            _, phi = brute_sparsest_vertex_cut(g, cap, dem)
        except Exception:
            continue
        count += 1
        if eps > phi:  # exact Fraction comparison
            violations += 1
    ok = violations == 0 and count >= 30
    _line(3, "weak duality exact", ok,
          f"{count} instances, {violations} violations")
    assert ok


def test_criterion_4_gap_witness():
    t0 = time.monotonic()
    inst, phi, mcf = search_gap_instance(14, budget_s=600.0, seed=0)
    dt = time.monotonic() - t0
    ratio = phi / mcf
    ok = float(ratio) >= 7 / 5 - 1e-6 and dt <= 600.0
    _line(4, "flow/cut gap witness", ok,
          f"n={inst.graph.n}, phi {phi}, mcf {mcf},"
          f" ratio {float(ratio):.4f}, {dt:.1f}s")
    assert ok


def test_criterion_5_structural_invariants():
    bad = 0
    total = 0

    # 2500 embeddings: 1-Lipschitz and star-shaped on their slack graph.
    embed_graphs = [slack_cycle(6), cycle_instance(6)]
    for seed in range(3):
        embed_graphs.append(random_outerplanar(6, seed)[0])
    per = 2500 // len(embed_graphs)
    embeds = []
    for gi, g in enumerate(embed_graphs):
        samp = embed_sampler(g)
        g_red = reduce_lengths(g)
        for i in range(per):
            tm = samp(gi * 100_003 + i)
            total += 1
            # These draws are also star-shaped on every edge of the input.
            on_g = tm.with_source(g_red)
            if not (tm.is_lipschitz() and is_star_shaped(tm)
                    and is_star_shaped(on_g)):
                bad += 1
            embeds.append((g, tm))

    # 2500 thinned maps: 1-Lipschitz on the slack graph, 4-thin on every
    # edge of the input graph.
    for i, (g, tm) in enumerate(embeds[:2500]):
        thin = thin_map(tm, i)
        on_g = thin.with_source(g)
        total += 1
        if not (thin.is_lipschitz() and is_thin(on_g, DEFAULT_CONFIG.thinness)):
            bad += 1

    # 1500 retractions: connected fibers, identity on the target, level
    # bound d(x, F(x)) < 2^(L(x)+1); all checked by Retraction.check.
    gg, face = grid_graph(3, 3)
    for i in range(1500):
        retr = sample_retraction(gg, set(face), i)
        total += 1
        try:
            retr.check(gg)
        except Exception:
            bad += 1

    # 2000 partitions: every block tau-bounded.
    part_graphs = [(grid_graph(4, 4)[0], F(3)), (cycle_instance(8), F(2))]
    for g, tau in part_graphs:
        dmat = all_pairs_distances(g)
        for i in range(1000):
            part = sample_padded_partition(g, tau, i)
            total += 1
            if any(weak_diameter(dmat, b) > tau for b in part.blocks):
                bad += 1

    # 1500 slack transforms: all four postconditions.
    alpha = DEFAULT_CONFIG.slack_alpha
    for i in range(1500):
        g, _ = random_outerplanar(3 + (i % 5), i)
        h, builds = slack_transform(g, alpha)
        total += 1
        lens_g = g.edge_lengths()
        dg = all_pairs_distances(g)
        dh_full = all_pairs_distances(h)
        ok_i = all(e in lens_g for e in h.edge_lengths())
        ok_i = ok_i and all(
            dg[u][v] >= dh_full[u][v] >= dg[u][v] / alpha
            for u in range(g.n) for v in range(g.n)
        )
        ok_i = ok_i and set(reduce_lengths(h).edge_lengths().items()) == set(
            h.edge_lengths().items()
        )
        lens_h = h.edge_lengths()
        for build in builds:
            for s in build.steps:
                attach = lens_h[norm_edge(*s.attach_edge)]
                if s.length < alpha * attach:
                    ok_i = False
        if not ok_i:
            bad += 1

    ok = bad == 0 and total >= 10_000
    _line(5, "per-sample structural invariants", ok,
          f"{total} samples, {bad} violations")
    assert ok


def test_criterion_6_contraction():
    t0 = time.monotonic()
    graphs = [cycle_instance(6)]
    for seed in range(10):
        graphs.append(random_outerplanar(5 + seed % 3, seed)[0])
    worst_lcb = 1.0
    for gi, g in enumerate(graphs):
        rep = distortion_experiment(g, samples=10_000, seed=gi)
        worst_lcb = min(worst_lcb, rep.min_lcb)
    dt = time.monotonic() - t0
    ok = worst_lcb >= 1 / 960 and dt < 300.0
    _line(6, "mean contraction >= 1/960 at 99%", ok,
          f"{len(graphs)} graphs x 10000 samples, worst lcb {worst_lcb:.5f},"
          f" floor {1 / 960:.5f}, {dt:.1f}s")
    assert ok


def test_criterion_7_thinning_expectation():
    import itertools

    violations = 0
    checked = 0
    for arms in range(2, 6):
        for leg_seed in range(3):
            rng = random.Random(f"legs:{arms}:{leg_seed}")
            legs = [F(rng.randrange(1, 9), 2) for _ in range(arms)]
            g_edges = tuple(
                (0, i + 1, legs[i]) for i in range(arms)
            )
            from faceflow.graph import MetricGraph

            g = MetricGraph(arms + 1, g_edges)
            tm = identity_tree_map(g)
            d = all_pairs_distances(g)
            outcomes = []
            for bits in itertools.product((0, 1), repeat=arms):
                out = thin_map(tm, 0, _choice_fn=lambda x, k, b=bits: b[:k])
                outcomes.append(out)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    mean = sum(
                        (o.tree.dist(o.mapping[u], o.mapping[v])
                         for o in outcomes),
                        F(0),
                    ) / len(outcomes)
                    checked += 1
                    if mean < d[u][v] / 2:  # exact
                        violations += 1
    ok = violations == 0 and checked > 0
    _line(7, "spider thinning expectation", ok,
          f"{checked} pairs over spiders with 2-5 arms, {violations} violations")
    assert ok


def test_criterion_8_rounding_guarantee():
    violations = 0
    count = 0
    for seed in range(60):
        rng = random.Random(f"round:{seed}")
        n = rng.randrange(3, 9)
        g = random_tree(n, seed)
        tm = identity_tree_map(g)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps(
            dict(enumerate(random_caps(n, seed)))
        )
        dem = random_demands(list(range(n)), seed)
        try:
            cert = round_thin(g, tm, ell, caps, dem)
        except Exception:
            continue
        if not cert.exact:
            continue
        count += 1
        if cert.sparsity > rounding_bound(
            tm, ell, caps, dem.items(), DEFAULT_CONFIG.thinness
        ):
            violations += 1
    ok = violations == 0 and count >= 40
    _line(8, "rounding sparsity bound", ok,
          f"{count} exact-nu instances, {violations} violations")
    assert ok


def test_criterion_9_flat_inequality():
    rng = random.Random("flat")
    violations = 0
    total = 0
    while total < 100_000:
        k = rng.randrange(3, 8)
        verts = list(range(k))
        lens = [F(rng.randrange(1, 17), 4) for _ in range(k - 1)]
        total_len = sum(lens, F(0))
        closing = total_len * F(rng.randrange(1, 17), 16)
        c = make_cycle(verts, lens, closing)
        circ = c.circumference
        for _ in range(100):
            total += 1
            alpha = F(rng.randrange(0, 257), 1024)  # alpha <= 1/4
            p = circ * F(rng.randrange(0, 1024), 1024)
            q = (p + alpha * circ) % circ
            x = rng.randrange(k)
            y = rng.randrange(k)
            fp = flatten(c, p)
            fq = flatten(c, q)
            lhs = fp.dist(x, y) + fq.dist(x, y)
            if lhs < 4 * alpha * c.dist(x, y):  # exact
                violations += 1
    ok = violations == 0
    _line(9, "flattening inequality", ok,
          f"{total} random (C,p,q,x,y), {violations} violations")
    assert ok


def test_criterion_10_pipeline_bound():
    corpus = []
    g = cycle_instance(6)
    corpus.append(Instance(
        g, face=tuple(range(6)), vcaps=(F(1),) * 6,
        demands=DemandMatrix.from_pairs([(0, 3, F(1)), (1, 4, F(1))]),
    ))
    gg, face = grid_graph(3, 3)
    corpus.append(Instance(
        gg, face=face, vcaps=(F(1),) * 9,
        demands=DemandMatrix.from_pairs([(0, 8, F(1)), (2, 6, F(1))]),
    ))
    for seed in range(3):
        go, fo = random_outerplanar(6, seed)
        corpus.append(Instance(
            go, face=fo, vcaps=random_caps(6, seed),
            demands=random_demands(fo, seed),
        ))
    worst = 0.0
    for i, inst in enumerate(corpus):
        rep = gap_experiment(inst, samples=30, seed=i)
        assert rep.gap_ratio is not None
        worst = max(worst, rep.gap_ratio)
    bound = DEFAULT_CONFIG.pipeline_ratio_bound
    ok = worst <= bound
    _line(10, "end-to-end ratio vs recorded bound", ok,
          f"{len(corpus)} corpus instances, worst ratio {worst:.3f},"
          f" recorded bound {bound}")
    assert ok
