import dataclasses
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import embedded, slack_cycle, two_slack_blocks
from faceflow import experiments, graph, polyflow, thinround
from faceflow.config import DEFAULT_CONFIG
from faceflow.errors import (
    BudgetExhausted,
    HypothesisViolated,
    InvariantViolation,
    NoSeparatedDemand,
)
from faceflow.experiments import (
    _Z99,
    DistortionReport,
    _positive_dual_lengths,
    distortion_experiment,
    gap_experiment,
    search_gap_instance,
)
from faceflow.graph import MetricGraph, all_pairs_distances, norm_edge
from faceflow.instances import (
    Instance,
    cycle_instance,
    grid_graph,
    random_caps,
    random_demands,
    random_outerplanar,
    random_planar_with_face,
    random_tree,
)
from faceflow.polyflow import (
    AdaptedLengths,
    DemandMatrix,
    _edge_mask,
    assignment_value,
    brute_sparsest_vertex_cut,
    mcf_vertex_lp,
    nu,
    separated_demand,
)
from faceflow.thinround import (
    CutCertificate,
    Edge,
    CutMemo,
    multiscale_round,
    round_thin,
    thin_map,
    tilde_lengths,
)
from faceflow.tree import MetricTree, TreeMap
from faceflow.treeembed import embed_sampler
from test_golden_cli import INSTANCES
from test_thinround import bound_at_half_the_sparsity, table_caps, tree_maps
from test_tree import walk_tree, walk_tree_edge_cuts

F = Fraction


class TestGapExperiment:
    def test_single_edge_ratio_one(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        inst = Instance(
            g,
            vcaps=(F(1), F(1)),
            demands=DemandMatrix.from_pairs([(0, 1, F(1))]),
        )
        rep = gap_experiment(inst, samples=0, seed=0)
        assert rep.mcf == 1
        assert rep.phi_brute == 1
        assert abs(rep.gap_ratio - 1.0) <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_tree_weak_duality(self, seed):
        # Edge-cut sparsity never undercuts the flow value; on trees a
        # factor up to 2 is possible when paths cross a vertex twice.
        g = random_tree(6, seed)
        inst = Instance(
            g,
            vcaps=tuple(F(1) for _ in range(6)),
            demands=DemandMatrix.from_pairs([(0, 5, F(1)), (1, 4, F(1))]),
        )
        rep = gap_experiment(inst, samples=0, seed=seed)
        assert rep.phi_brute is not None
        assert 1.0 - 1e-9 <= rep.gap_ratio <= 2.0 + 1e-9

    def test_cycle_pipeline_bounded(self):
        g = cycle_instance(6)
        inst = Instance(
            g,
            face=tuple(range(6)),
            vcaps=tuple(F(1) for _ in range(6)),
            demands=DemandMatrix.from_pairs([(0, 3, F(1)), (1, 4, F(1))]),
        )
        rep = gap_experiment(inst, samples=40, seed=1)
        assert rep.best_sparsity is not None
        assert rep.gap_ratio >= 1.0 - 1e-9
        assert rep.gap_ratio <= DEFAULT_CONFIG.pipeline_ratio_bound
        assert rep.assertion_tallies.get("retraction") == 40
        assert rep.assertion_tallies.get("thin") == 40

    def test_grid_pipeline_bounded(self):
        g, face = grid_graph(3, 3)
        inst = Instance(
            g,
            face=face,
            vcaps=tuple(F(1) for _ in range(9)),
            demands=DemandMatrix.from_pairs([(0, 8, F(1)), (2, 6, F(1))]),
        )
        rep = gap_experiment(inst, samples=30, seed=2)
        assert rep.gap_ratio is not None
        assert 1.0 - 1e-9 <= rep.gap_ratio <= DEFAULT_CONFIG.pipeline_ratio_bound

    @pytest.mark.parametrize(
        "gen,n,s,pipeline",
        [
            (random_outerplanar, 7, 0, F(2, 7)),
            (random_outerplanar, 7, 1, F(1, 5)),
            (random_outerplanar, 8, 0, F(5, 14)),
            (random_planar_with_face, 11, 0, F(1, 4)),
        ],
        ids=["outer7-0", "outer7-1", "outer8-0", "planar11-0"],
    )
    def test_outerplanar_with_chords(self, gen, n, s, pipeline):
        # Chorded instances whose slack transform deletes edges: the
        # embedding is star-shaped only on its slack graph, so the
        # pipeline must check and thin it there.
        g, face = gen(n, s)
        inst = Instance(
            g, face=face, vcaps=random_caps(n, s), demands=random_demands(face, s)
        )
        samples = 5
        rep = gap_experiment(inst, samples, 0)
        assert set(rep.assertion_tallies) == {
            "retraction", "embed_lipschitz", "composition_star_shaped",
            "thin", "rounded",
        }
        assert all(c == samples for c in rep.assertion_tallies.values())
        cert = rep.best_certificate
        for sparsity in (rep.phi_brute, cert.sparsity, rep.best_sparsity):
            assert sparsity is None or sparsity >= rep.mcf
        assert cert.sparsity / rep.mcf <= DEFAULT_CONFIG.pipeline_ratio_bound
        assert cert.sparsity == pipeline

    def test_non_monotone_table_rejected(self):
        # nu prunes only under monotone rho, so a table that shrinks when
        # an edge is added is refused before any work.
        g = cycle_instance(3)
        tables = {}
        for v in range(3):
            a, b = [(x, y) for (x, y, _) in g.edges if v in (x, y)]
            tables[v] = {
                frozenset(): F(0), frozenset({a}): F(2), frozenset({b}): F(1),
                frozenset({a, b}): F(1),
            }
        inst = Instance(
            g, face=(0, 1, 2), polymatroid=tables,
            demands=DemandMatrix.from_pairs([(0, 1, F(1))]),
        )
        with pytest.raises(ValueError, match="not monotone"):
            gap_experiment(inst, samples=1, seed=0)

    def test_report_lines_render(self):
        g = random_tree(4, 0)
        inst = Instance(
            g,
            vcaps=tuple(F(1) for _ in range(4)),
            demands=DemandMatrix.from_pairs([(0, 3, F(1))]),
        )
        rep = gap_experiment(inst, samples=0, seed=0)
        text = "\n".join(rep.lines())
        assert "mcf" in text and "ratio" in text
        assert rep.assertion_tallies == {}

    def test_no_samples_no_tallies(self):
        rep = gap_experiment(INSTANCES["cycle6"](), samples=0, seed=0)
        assert rep.assertion_tallies == {}
        assert rep.best_certificate is None
        assert rep.phi_brute is not None and rep.best_sparsity == rep.phi_brute

    @pytest.mark.parametrize("name", ["cycle6", "split4"])
    def test_negative_samples_rejected(self, name):
        # Not tallied as checks that ran, with a face or without one.
        with pytest.raises(ValueError, match=r"^samples must be >= 0, got -3$"):
            gap_experiment(INSTANCES[name](), samples=-3, seed=0)

    @pytest.mark.parametrize("name", ["cycle6", "table6"])
    def test_certificate_above_the_bound_raises(self, monkeypatch, name):
        bound_at_half_the_sparsity(monkeypatch)
        with pytest.raises(InvariantViolation, match="> bound"):
            gap_experiment(INSTANCES[name](), samples=3, seed=0)


class TestPerSampleWork:
    """Per-instance work happens once, not once per sample."""

    def test_grid_samples_after_the_first(self, monkeypatch):
        g, face = grid_graph(3, 4)
        inst = Instance(
            g,
            face=face,
            vcaps=tuple(F(1) for _ in range(12)),
            demands=DemandMatrix.from_pairs([(0, 11, F(1)), (3, 8, F(1))]),
        )
        # Calls are charged to the thin_map calls seen so far: segment i
        # (i >= 1) holds the rounding of sample i and the retraction and
        # embedding of sample i + 1.
        segment = [0]
        counts: Counter = Counter()

        def counting(name, fn, charged=lambda *a: True):
            def wrapper(*args, **kwargs):
                if charged(*args):
                    counts[segment[0], name] += 1
                return fn(*args, **kwargs)

            return wrapper

        modules = [m for n, m in sys.modules.items() if n.startswith("faceflow.")]
        for name in ("all_pairs_distances", "ear_decomposition", "find_outer_cycle"):
            original = getattr(graph, name)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counting(name, original))
        # Planarity tests on g itself (or g plus an apex), not on the
        # smaller retracted graphs.
        monkeypatch.setattr(
            nx, "check_planarity",
            counting("planar_g", nx.check_planarity,
                     lambda gx, *a: gx.number_of_nodes() >= g.n),
        )
        thin_map = thinround.thin_map

        def marking_thin_map(*args, **kwargs):
            segment[0] += 1
            return thin_map(*args, **kwargs)

        monkeypatch.setattr(thinround, "thin_map", marking_thin_map)
        rep = gap_experiment(inst, samples=3, seed=1)
        # Fails if the patch no longer reaches the sample loop.
        assert segment[0] == 3
        assert rep.assertion_tallies["thin"] == 3
        for i in (1, 2):
            assert counts[i, "all_pairs_distances"] == 0
            assert counts[i, "ear_decomposition"] == 0
            assert counts[i, "find_outer_cycle"] == 0
            assert counts[i, "planar_g"] == 0


def _sweep_assignment(
    tm: TreeMap,
    tree_edge: tuple[int, int],
    lam: Fraction,
    cut_edges,
    ell: AdaptedLengths,
) -> dict[Edge, int]:
    """Assignment rule: orient the tree edge (x, y); an edge whose path
    traverses x before y goes to its near endpoint u when
    d_T(f(u), x) + lam <= ell_u(e), else to the far endpoint."""
    x, y = tree_edge
    tree = tm.tree
    assign = {}
    for e in cut_edges:
        a, b = e
        fa, fb = tm.mapping[a], tm.mapping[b]
        p = tree.path(fa, fb)
        # Orient (u, v) so the path traverses the tree edge as (x, y).
        ix = p.index(x)
        iy = p.index(y)
        u, v = (a, b) if ix < iy else (b, a)
        du = tree.dist(tm.mapping[u], x)
        lu = ell.ell.get(u, {}).get(e, Fraction(0))
        assign[e] = u if du + lam <= lu else v
    return assign


def reference_cuts(g, tm, ell, caps, dem) -> list[tuple[CutCertificate, int]]:
    """Every certificate ``round_thin`` weighs, with its edge mask over
    ``g.edges``, in the tree's ``edges()`` order, computed with no memo:
    nu and the separated demand afresh for every tree edge of every
    call, every tree path walked as before the rooted index
    (``walk_tree``), in Fractions, and the sweep rule re-derived for
    every lambda by the ``_sweep_assignment`` that the per-cut rules
    replaced."""
    tm = dataclasses.replace(tm, tree=walk_tree(tm.tree))
    tree = tm.tree
    for (u, v, _) in g.edges:
        e = norm_edge(u, v)
        lhs = tree.dist(tm.mapping[u], tm.mapping[v])
        rhs = ell.ell.get(u, {}).get(e, Fraction(0)) + ell.ell.get(v, {}).get(
            e, Fraction(0)
        )
        if lhs > rhs:
            raise HypothesisViolated(
                f"tree distance {lhs} exceeds ell_u + ell_v = {rhs} on edge {e}"
            )
    out = []
    for (te, w, cut) in walk_tree_edge_cuts(g, tm):
        if not cut:
            continue
        sep = separated_demand(g, cut, dem)
        if sep == 0:
            continue
        if len(cut) <= DEFAULT_CONFIG.nu_brute_limit:
            val, assign = nu(cut, caps)
            exact = True
        else:
            # lambda-sweep heuristic: the rule changes only where
            # d_T(f(u), x) + lambda hits ell_u(e).
            x, y = te
            breaks = {Fraction(0), w}
            for (a, b) in cut:
                e = norm_edge(a, b)
                for end in (a, b):
                    lu = ell.ell.get(end, {}).get(e, Fraction(0))
                    lam = lu - tree.dist(tm.mapping[end], x)
                    if 0 <= lam <= w:
                        breaks.add(lam)
            pts = sorted(breaks)
            cands = set(pts)
            for i in range(len(pts) - 1):
                cands.add((pts[i] + pts[i + 1]) / 2)
            val, assign, exact = None, None, False
            for lam in sorted(cands):
                a_ = _sweep_assignment(tm, te, lam, cut, ell)
                v_ = assignment_value(a_, caps)
                if val is None or v_ < val:
                    val, assign = v_, a_
        cert = CutCertificate(
            frozenset(norm_edge(*e) for e in cut), assign, val, sep, val / sep,
            exact, te,
        )
        mask = sum(1 << i for i, (u, v, _) in enumerate(g.edges) if (u, v) in cut)
        out.append((cert, mask))
    if not out:
        raise NoSeparatedDemand("no tree edge separates any demand")
    return out


def reference_round_thin(g, tm, ell, caps, dem) -> CutCertificate:
    """The least of ``reference_cuts`` in (sparsity, mask, tree edge)."""
    cert, _ = min(
        reference_cuts(g, tm, ell, caps, dem),
        key=lambda cm: (cm[0].sparsity, cm[1], cm[0].tree_edge),
    )
    return cert


def first_in_edges_round_thin(g, tm, ell, caps, dem) -> tuple[CutCertificate, list[int]]:
    """The rule ``round_thin`` kept before it ranked ties by edge mask:
    the first of the sparsest ``reference_cuts`` in the tree's
    ``edges()`` order, which is the order the tree was built in.
    Returned with the masks of every cut tied with it."""
    cuts = reference_cuts(g, tm, ell, caps, dem)
    low = min(cert.sparsity for cert, _ in cuts)
    tied = [(cert, mask) for cert, mask in cuts if cert.sparsity == low]
    return tied[0][0], [mask for _, mask in tied]


def _grid3x4() -> Instance:
    """The gap-pipeline grid: unit caps, the two diagonal face demands."""
    g, face = grid_graph(3, 4)
    return Instance(
        g, face=face, vcaps=(F(1),) * 12,
        demands=DemandMatrix.from_pairs([(0, 11, F(1)), (3, 8, F(1))]),
    )


def _planar12_2p2() -> Instance:
    g, face = random_planar_with_face(12, 2)
    return Instance(
        g, face=face, vcaps=random_caps(12, 2),
        demands=random_demands(face, 2, 2),
    )


def _count_cut_calls(monkeypatch) -> dict[str, list[frozenset]]:
    """Record the cut of every ``nu`` call made by ``thinround``, and of
    every ``_components`` call (its edge-index bitmask read back as
    edges), one per separated demand it computes."""
    calls: dict[str, list[frozenset]] = {"nu": [], "separated_demand": []}

    def counting(name, fn, cut_of):
        def wrapper(*args, **kwargs):
            cut = cut_of(*args, **kwargs)
            calls[name].append(frozenset(norm_edge(*e) for e in cut))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        thinround, "nu", counting("nu", thinround.nu, lambda cut, caps: cut)
    )
    monkeypatch.setattr(
        thinround, "_components",
        counting(
            "separated_demand", thinround._components,
            lambda g, cut: [e[:2] for i, e in enumerate(g.edges) if cut >> i & 1],
        ),
    )
    return calls


def _compare_with_reference(monkeypatch, module) -> list:
    """Wrap ``module.round_thin`` so each call is also rounded by the
    reference; returns the (certificate, reference) pairs."""
    pairs = []
    rt = module.round_thin

    def checking(g, tm, ell, caps, dem, memo=None):
        try:
            want = reference_round_thin(g, tm, ell, caps, dem)
        except NoSeparatedDemand:
            with pytest.raises(NoSeparatedDemand):
                rt(g, tm, ell, caps, dem, memo)
            raise
        got = rt(g, tm, ell, caps, dem, memo)
        pairs.append((got, want))
        return got

    monkeypatch.setattr(module, "round_thin", checking)
    return pairs


def _multiscale_inputs():
    g, _ = random_outerplanar(7, 0)
    caps = polyflow.PolymatroidCaps.from_vertex_caps(
        {v: F(1) for v in range(g.n)}
    )
    dem = DemandMatrix.from_pairs([(0, 3, F(1)), (1, 5, F(1))])
    return g, AdaptedLengths.split_evenly(g), caps, dem


def _count_matrices(monkeypatch) -> list[int]:
    """Count every all-pairs matrix built, whichever module calls it."""
    calls = [0]
    original = graph.all_pairs_distances

    def counting(g):
        calls[0] += 1
        return original(g)

    for mod in [m for n, m in sys.modules.items() if n.startswith("faceflow")]:
        if getattr(mod, "all_pairs_distances", None) is original:
            monkeypatch.setattr(mod, "all_pairs_distances", counting)
    return calls


class TestOneMatrixPerGraph:
    """Each graph builds its distance matrix once, for every reader."""

    @pytest.mark.parametrize("make", [_grid3x4, _planar12_2p2])
    def test_gap_experiment(self, monkeypatch, make):
        """The dual-length graph g2, its reduction gr (validation,
        retraction prescale, partitions and level bounds) and the
        retracted graph h (quotient check and slack input): one matrix
        each.  h after its slack deletions needs none, as deleting edges
        keeps a reduced graph reduced."""
        inst = make()
        calls = _count_matrices(monkeypatch)
        gap_experiment(inst, samples=20, seed=1)
        assert calls[0] == 3

    def test_distortion_experiment(self, monkeypatch):
        """The pairs and the slack transform read the same matrix of g."""
        g = slack_cycle(6)
        calls = _count_matrices(monkeypatch)
        distortion_experiment(g, samples=5, seed=0)
        assert calls[0] == 1


@pytest.mark.gate
class TestOneNuPerCut:
    """Caps and demands are fixed within a run, so each distinct cut's nu
    and separated demand are computed once, and every certificate is the
    one a fresh computation gives."""

    @pytest.mark.parametrize("make,cuts", [(_grid3x4, 7), (_planar12_2p2, 9)])
    def test_gap_experiment_calls(self, monkeypatch, make, cuts):
        calls = _count_cut_calls(monkeypatch)
        rep = gap_experiment(make(), samples=60, seed=1)
        assert rep.assertion_tallies["rounded"] == 60
        for name in ("nu", "separated_demand"):
            assert len(calls[name]) == len(set(calls[name])), name
        assert len(calls["nu"]) == cuts

    def test_multiscale_round_calls(self, monkeypatch):
        g, ell, caps, dem = _multiscale_inputs()
        calls = _count_cut_calls(monkeypatch)
        multiscale_round(g, ell, caps, dem, embedded(g), samples=30, seed=2)
        for name in ("nu", "separated_demand"):
            assert len(calls[name]) == len(set(calls[name])), name
        assert 0 < len(calls["nu"]) < 30

    @pytest.mark.parametrize("make", [_grid3x4, _planar12_2p2])
    def test_gap_experiment_matches_reference(self, monkeypatch, make):
        pairs = _compare_with_reference(monkeypatch, thinround)
        gap_experiment(make(), samples=60, seed=1)
        assert len(pairs) == 60
        for i, (got, want) in enumerate(pairs):
            assert got == want, i

    def test_multiscale_round_matches_reference(self, monkeypatch):
        g, ell, caps, dem = _multiscale_inputs()
        pairs = _compare_with_reference(monkeypatch, thinround)
        multiscale_round(g, ell, caps, dem, embedded(g), samples=30, seed=2)
        assert len(pairs) == 30
        for i, (got, want) in enumerate(pairs):
            assert got == want, i

    def test_sweep_branch_matches_reference(self, monkeypatch):
        # With an exact-nu limit of 2 edges most cuts take the lambda sweep,
        # which depends on the map; only its separated demand is memoised.
        # The sweep's cuts never give the best certificate here, so every
        # candidate lambda's assignment, in order, is checked as well.
        small = dataclasses.replace(DEFAULT_CONFIG, nu_brute_limit=2)
        monkeypatch.setattr(thinround, "DEFAULT_CONFIG", small)
        monkeypatch.setitem(globals(), "DEFAULT_CONFIG", small)
        sweeps: dict[str, list] = {"got": [], "want": []}

        def recording(name, value):
            def record(assign, caps):
                sweeps[name].append(list(assign.items()))
                return value(assign, caps)

            return record

        monkeypatch.setattr(
            thinround, "assignment_value",
            recording("got", thinround.assignment_value),
        )
        monkeypatch.setitem(
            globals(), "assignment_value", recording("want", assignment_value)
        )
        pairs = _compare_with_reference(monkeypatch, thinround)
        gap_experiment(_grid3x4(), samples=20, seed=1)
        assert sweeps["got"] and len(pairs) == 20
        assert sweeps["got"] == sweeps["want"]
        for i, (got, want) in enumerate(pairs):
            assert got == want, i

    @staticmethod
    def _first_rounding(monkeypatch):
        """The arguments of the first ``round_thin`` call on grid3x4."""
        args = []
        rt = thinround.round_thin

        def capture(*a):
            args.append(a)
            return rt(*a)

        monkeypatch.setattr(thinround, "round_thin", capture)
        gap_experiment(_grid3x4(), samples=1, seed=1)
        return args[0][:5]

    def test_certificates_own_their_assignment(self, monkeypatch):
        g, tm, ell, caps, dem = self._first_rounding(monkeypatch)
        memo = CutMemo(g, caps, dem)
        first = round_thin(g, tm, ell, caps, dem, memo)
        want = reference_round_thin(g, tm, ell, caps, dem)
        assert first == want and first.exact
        first.assignment.clear()
        assert round_thin(g, tm, ell, caps, dem, memo) == want

    def test_memo_of_another_instance_rejected(self, monkeypatch):
        g, tm, ell, caps, dem = self._first_rounding(monkeypatch)
        other = DemandMatrix.from_pairs([(0, 11, F(1))])
        with pytest.raises(ValueError):
            round_thin(g, tm, ell, caps, dem, CutMemo(g, caps, other))


def shuffled(tm: TreeMap, seed: int) -> TreeMap:
    """tm on a copy of its tree with the same vertices, edges and ticks,
    its adjacency dicts (the outer one and each vertex's) rebuilt in a
    shuffled insertion order and no index, so that ``edges()`` lists
    another order and the next query roots the index elsewhere."""
    rng = random.Random(seed)
    t = MetricTree(tm.tree.D)
    vs = list(tm.tree.adj)
    rng.shuffle(vs)
    for v in vs:
        nbrs = list(tm.tree.adj[v].items())
        rng.shuffle(nbrs)
        t.adj[v] = dict(nbrs)
    t._index = None
    return dataclasses.replace(tm, tree=t)


@st.composite
def thin_roundings(draw):
    """(g, tm, ell, caps, dem): a thinned map of g with its tilde lengths
    from even splits, small caps (vertex or table form) and 1 to 4 unit
    or double demands, so that equally sparse cuts are common.  g is
    ``random_outerplanar(6..9, s)`` or a slack cycle, thinned from its
    random embedding, or the graph of a ``tree_maps`` draw, thinned with
    its branch bits."""
    kind = draw(st.sampled_from(["outer", "slack", "tree"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "tree":
        tm, choice_fn = draw(tree_maps())
        g = tm.source
        thin = thin_map(tm, seed, choice_fn)
    else:
        if kind == "outer":
            g = random_outerplanar(draw(st.integers(6, 9)), draw(st.integers(0, 50)))[0]
        else:
            g = slack_cycle(draw(st.integers(6, 12)))
        thin = thin_map(embed_sampler(g)(seed), seed).with_source(g)
    ell = tilde_lengths(g, thin, AdaptedLengths.split_evenly(g))
    if draw(st.booleans()):
        caps = table_caps(g, seed)
    else:
        caps = polyflow.PolymatroidCaps.from_vertex_caps(
            {v: F(draw(st.integers(1, 2))) for v in range(g.n)}
        )
    vertex = st.integers(0, g.n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 2)), min_size=1, max_size=4))
    dem = DemandMatrix.from_pairs([(u, v, F(w)) for u, v, w in pairs if u != v] or [(0, 1, F(1))])
    return g, thin, ell, caps, dem


@pytest.mark.gate
class TestCutTieRule:
    """``round_thin`` keeps the least cut in (sparsity, edge mask, tree
    edge), so its certificate does not depend on the order in which the
    thinned tree was built; the rule it replaced kept the first sparsest
    cut in ``edges()`` order."""

    @settings(max_examples=150, deadline=None)
    @given(thin_roundings(), st.integers(0, 2**32))
    def test_shuffled_adjacency_same_certificate(self, drawn, order):
        g, tm, ell, caps, dem = drawn
        try:
            want = round_thin(g, tm, ell, caps, dem)
        except NoSeparatedDemand:
            with pytest.raises(NoSeparatedDemand):
                round_thin(g, shuffled(tm, order), ell, caps, dem)
            return
        for k in range(3):
            assert round_thin(g, shuffled(tm, order + k), ell, caps, dem) == want

        # Against the replaced rule: the same sparsity, and the least mask
        # among its tied cuts.
        old, tied = first_in_edges_round_thin(g, tm, ell, caps, dem)
        assert want.sparsity == old.sparsity
        assert _edge_mask(g, want.edges) == min(tied)
        assert want == reference_round_thin(g, tm, ell, caps, dem)

    def test_replaced_rule_moves_with_the_order(self):
        # A thinned slack 6-cycle under unit caps with tied sparsest cuts:
        # the first of them in edges() order changes with the insertion
        # order, while round_thin keeps the least mask.
        g = slack_cycle(6)
        caps = polyflow.PolymatroidCaps.from_vertex_caps({v: F(1) for v in range(g.n)})
        dem = DemandMatrix.from_pairs([(0, 3, F(1)), (1, 4, F(1))])
        tm = thin_map(embed_sampler(g)(0), 0).with_source(g)
        ell = tilde_lengths(g, tm, AdaptedLengths.split_evenly(g))
        want = round_thin(g, tm, ell, caps, dem)
        firsts = set()
        for k in range(20):
            t = shuffled(tm, k)
            assert round_thin(g, t, ell, caps, dem) == want
            old, tied = first_in_edges_round_thin(g, t, ell, caps, dem)
            assert _edge_mask(g, want.edges) == min(tied)
            firsts.add(old.edges)
        assert len(firsts) > 1


class TestOneFlowSolve:
    """The vertex-form flow LP is solved once per instance: the same
    solve gives mcf and the dual lengths.  Polymatroid tables solve
    their own flow LP and the vertex proxy that gives the lengths."""

    @pytest.mark.parametrize("name,solves", [("cycle6", 1), ("table6", 2)])
    def test_solve_lp_calls(self, monkeypatch, name, solves):
        solve_lp = polyflow.solve_lp
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(polyflow, "solve_lp", counting)
        rep = gap_experiment(INSTANCES[name](), samples=2, seed=0)
        assert len(calls) == solves
        assert rep.mcf > 0


class TestPositiveDualLengths:
    def test_floors_zero_lengths(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        e = (0, 1)
        g2, ell2 = _positive_dual_lengths(
            g, {e: F(0)}, AdaptedLengths({0: {e: F(0)}, 1: {e: F(0)}}, {e: F(0)})
        )
        assert g2.edges[0][2] > 0
        ell2.check_adapted()

    def test_floor_small_relative(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        e = (0, 1)
        g2, _ = _positive_dual_lengths(
            g,
            {e: F(1, 7)},
            AdaptedLengths({0: {e: F(1, 14)}, 1: {e: F(1, 14)}}, {e: F(1, 7)}),
        )
        assert g2.edges[0][2] == F(1, 7) + F(1, 7) / 1024


class TestSearchGap:
    def test_finds_witness_quickly(self):
        inst, phi, mcf = search_gap_instance(12, budget_s=30.0, seed=0)
        assert phi / mcf >= F(7, 5)
        # The reported values must reproduce under exact recomputation.
        mcf2 = mcf_vertex_lp(
            inst.graph, inst.cap_dict(), inst.demand_matrix(), endpoint_factor=2
        ).epsilon
        _, phi2 = brute_sparsest_vertex_cut(
            inst.graph, inst.cap_dict(), inst.demand_matrix()
        )
        assert (mcf2, phi2) == (mcf, phi)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            search_gap_instance(15, budget_s=1.0)

    @pytest.mark.parametrize("max_n", [4, 0, -3])
    def test_rejects_small_n(self, max_n):
        # Before the random search, whose sizes start at 5, can fail.
        with pytest.raises(ValueError, match=rf"^max_n must be in 5\.\.14, got {max_n}$"):
            search_gap_instance(max_n, budget_s=1.0)

    def test_budget_exhausted_when_target_unreachable(self):
        with pytest.raises(BudgetExhausted):
            search_gap_instance(5, budget_s=0.5, seed=1, target=F(100))


class TestDistortion:
    def test_path_exact_scale(self):
        g = MetricGraph(4, tuple((i, i + 1, F(1)) for i in range(3)))
        rep = distortion_experiment(g, samples=20, seed=0)
        # Path embeddings are deterministic up to the fixed 1/160 scale.
        for (mean, lcb) in rep.table.values():
            assert abs(mean - 1 / 160) < 1e-9
            assert abs(lcb - 1 / 160) < 1e-9
        assert rep.min_mean == pytest.approx(1 / 160)

    def test_cycle_lcb_above_contraction_floor(self):
        g = cycle_instance(6)
        rep = distortion_experiment(g, samples=1500, seed=3)
        assert rep.min_lcb >= 1 / 960

    def test_custom_embed_fn(self):
        g = MetricGraph(2, ((0, 1, F(2)),))
        from faceflow.tree import MetricTree, TreeMap

        def fn(seed):
            t = MetricTree.from_path([0, 1], [F(1)])
            return TreeMap(t, {0: 0, 1: 1}, g, root=0)

        rep = distortion_experiment(g, samples=10, seed=0, embed_fn=fn)
        assert rep.min_mean == pytest.approx(0.5)

    def test_no_measured_pair(self):
        for g in (MetricGraph(1, ()), MetricGraph(2, ((0, 1, F(0)),))):
            rep = distortion_experiment(g, 3, 0)
            assert (rep.table, rep.min_mean, rep.min_lcb) == ({}, None, None)

    def test_one_tick_matrix_per_sample(self, monkeypatch):
        # No per-pair distance query: one tick_matrix per sample.
        reads = Counter()
        for name in ("tick_matrix", "tick_dist"):
            fn = getattr(MetricTree, name)

            def counted(self, *args, _fn=fn, _name=name):
                reads[_name] += 1
                return _fn(self, *args)

            monkeypatch.setattr(MetricTree, name, counted)
        distortion_experiment(slack_cycle(8), 7, 0)
        assert reads == {"tick_matrix": 7}


@pytest.mark.gate
class TestDistortionOnForests:
    """A map into a forest: a measured pair whose images lie in two trees
    raises ``tick_dist``'s ValueError; a pair at distance 0 or inf is not
    measured and never raises."""

    def test_measured_pair_across_trees_raises(self):
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))

        def fn(seed):
            t = MetricTree.from_path([5, 6], [F(1)])
            t.add_vertex(7)
            return TreeMap(t, {0: 5, 1: 6, 2: 7}, g, root=5)

        with pytest.raises(ValueError, match="^5 and 7 are in different components$"):
            distortion_experiment(g, 3, 0, embed_fn=fn)

    def test_unmeasured_pairs_across_trees(self):
        # Two components of g in two trees, and a 0-length edge whose ends
        # are two vertices of one tree.
        g = MetricGraph(5, ((0, 1, F(1)), (1, 4, F(0)), (2, 3, F(2))))

        def fn(seed):
            t = MetricTree.from_path([0, 1, 4], [F(seed + 1, 3), F(1, 5)])
            t.add_edge(2, 3, F(1, 2))
            return TreeMap(t, {v: v for v in range(5)}, g, root=0)

        got = distortion_experiment(g, 4, 1, embed_fn=fn)
        want = reference_distortion(g, 4, 1, embed_fn=fn)
        assert list(got.table) == [(0, 1), (0, 4), (2, 3)]
        assert got == want


def reference_distortion(g, samples, seed, embed_fn=None):
    """The exact-Fraction distance loop that the tick version replaced,
    kept verbatim."""
    dmat = all_pairs_distances(g)
    if embed_fn is None:
        embed_fn = embed_sampler(g)
    pairs = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if dmat[u][v] not in (0, math.inf)
    ]
    sums = {p: 0.0 for p in pairs}
    sqs = {p: 0.0 for p in pairs}
    sources = sorted({u for (u, _) in pairs})
    for i in range(samples):
        tm = embed_fn(seed * 65_537 + i)
        d_tree = {u: reference_dist_from(tm.tree, tm.mapping[u]) for u in sources}
        for (u, v) in pairs:
            r = float(d_tree[u][tm.mapping[v]] / dmat[u][v])
            sums[(u, v)] += r
            sqs[(u, v)] += r * r
    table = {}
    for p in pairs:
        mean = sums[p] / samples
        var = max(0.0, sqs[p] / samples - mean * mean)
        se = math.sqrt(var / samples)
        table[p] = (mean, mean - _Z99 * se)
    min_mean = min(m for (m, _) in table.values()) if table else 0.0
    min_lcb = min(l for (_, l) in table.values()) if table else 0.0
    return DistortionReport(samples, table, min_mean, min_lcb)


def reference_dist_from(tree, u):
    """Fraction distances from u, summed edge by edge over the lengths
    of ``tree.edges()``."""
    adj = {x: {} for x in tree.vertices()}
    for x, y, w in tree.edges():
        adj[x][y] = adj[y][x] = w
    dist = {u: Fraction(0)}
    stack = [u]
    while stack:
        x = stack.pop()
        for y, w in adj[x].items():
            if y not in dist:
                dist[y] = dist[x] + w
                stack.append(y)
    return dist


@pytest.mark.gate
class TestDistortionReference:
    """Tick distances and one int division per ratio give every float of
    the reference bit for bit."""

    @pytest.mark.parametrize(
        "g",
        [slack_cycle(6), slack_cycle(9, F(1, 32)), random_outerplanar(8, 1)[0],
         random_outerplanar(9, 2, extra_chords=2)[0], random_tree(8, 3),
         two_slack_blocks()],
        ids=["slack6", "slack9", "outer8-1", "outer9-2c2", "tree8-3", "two-slack-blocks"],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_tables_equal(self, g, seed):
        got = distortion_experiment(g, 40, seed)
        want = reference_distortion(g, 40, seed)
        assert got.table == want.table
        assert (got.min_mean, got.min_lcb) == (want.min_mean, want.min_lcb)

    def test_custom_embed_fn(self):
        # Edge lengths with coprime denominators; no common tick unit
        # below their product.
        g = MetricGraph(3, ((0, 1, F(2, 3)), (1, 2, F(5, 7))))
        from faceflow.tree import MetricTree, TreeMap

        def fn(seed):
            t = MetricTree.from_path([0, 1, 2], [F(seed + 1, 11), F(1, 13)])
            return TreeMap(t, {0: 0, 1: 1, 2: 2}, g, root=0)

        got = distortion_experiment(g, 25, 1, embed_fn=fn)
        assert got.table == reference_distortion(g, 25, 1, embed_fn=fn).table
