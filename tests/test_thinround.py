import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import embedded, slack_cycle, two_ear_block, two_slack_blocks
from faceflow import thinround
from faceflow.errors import (
    HypothesisViolated,
    InvariantViolation,
    NegativeEntry,
    NoSeparatedDemand,
    NotStarShaped,
)
from faceflow.graph import MetricGraph, frac, norm_edge
from faceflow.instances import cycle_instance, random_outerplanar, random_tree
from faceflow.polyflow import (
    AdaptedLengths,
    DemandMatrix,
    PolymatroidCaps,
    lovasz_extension,
)
from faceflow.thinround import (
    _pow2_ceil,
    dyadic_preprocess,
    multiscale_round,
    round_thin,
    rounding_bound,
    thin_map,
    tilde_lengths,
)
from faceflow.experiments import gap_experiment
from faceflow import tree as tree_module
from faceflow.tree import MetricTree, TreeMap
from faceflow.treeembed import embed_sampler, is_thin
from test_golden_cli import INSTANCES
from test_tree import ReferenceTree, reference_tree, walk_tree

F = Fraction


def identity_tree_map(g, root=0):
    """Identity map of a tree-shaped metric graph onto itself."""
    t = MetricTree()
    for v in range(g.n):
        t.add_vertex(v)
    for (u, v, w) in g.edges:
        t.add_edge(u, v, w)
    return TreeMap(t, {v: v for v in range(g.n)}, g, root=root)


def spider(legs, length=F(1)):
    g = MetricGraph(
        legs + 1, tuple((0, i, length) for i in range(1, legs + 1))
    )
    return g, identity_tree_map(g)


def triangle_on_spider():
    """A 1-Lipschitz map that is not star-shaped: the legs of a 3-leg
    spider carry the edges of a triangle, so the arm union branches at
    the spider's center 0."""
    g = MetricGraph(4, ((1, 2, F(2)), (1, 3, F(2)), (2, 3, F(2))))
    _, tm = spider(3)
    return g, TreeMap(tm.tree, {1: 1, 2: 2, 3: 3}, g, root=1)


def bound_at_half_the_sparsity(monkeypatch):
    """Make ``rounding_bound`` return half the sparsity of the certificate
    just rounded, so every exact certificate breaks the rounding lemma."""
    last = []
    rt = thinround.round_thin

    def rounding(*args):
        last.append(rt(*args))
        return last[-1]

    monkeypatch.setattr(thinround, "round_thin", rounding)
    monkeypatch.setattr(thinround, "rounding_bound", lambda *a: last[-1].sparsity / 2)


def reference_thin_map(
    tm: TreeMap,
    seed: int,
    _choice_fn=None,
) -> TreeMap:
    """Random 4-thin, 1-Lipschitz image of a star-shaped tree map.  The
    version that added Fraction lengths along paths, kept verbatim apart
    from its name and its tree class.

    Star shape, thinness and the Lipschitz bound refer to the edges of
    ``tm.source``, which the result keeps as its source.

    ``_choice_fn(tree_vertex, k)`` may supply the branch bits (one per
    arm) deterministically; used by exhaustive-enumeration tests."""
    rng = random.Random(f"thin:{seed}")
    if _choice_fn is None:
        def _choice_fn(x, k):
            return tuple(rng.randrange(2) for _ in range(k))

    tree = tm.tree
    root = tm.root
    # Children structure via BFS from the root.
    parent = {root: None}
    order = [root]
    for v in order:
        for u in tree.adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    if len(parent) != len(tree.adj):
        raise ValueError("tree map must live on a connected tree")
    children: dict[int, list[int]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)

    # Fiber adjacency in terms of original tree vertices.
    fiber_pairs = set()
    for (a, b, _) in tm.source.edges:
        fa, fb = tm.mapping[a], tm.mapping[b]
        if fa != fb:
            fiber_pairs.add((min(fa, fb), max(fa, fb)))

    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    # transform(x) -> (tree over new ids, phi: original subtree vertex -> new id)
    def transform(x: int) -> tuple[ReferenceTree, dict[int, int]]:
        t_new = ReferenceTree()
        if not children[x]:
            r = fresh()
            t_new.add_vertex(r)
            return t_new, {x: r}
        phi: dict[int, int] = {}
        r_tilde = fresh()
        t_new.add_vertex(r_tilde)
        phi[x] = r_tilde
        for c in children[x]:
            sub_t, sub_phi = transform(c)
            for tv in sub_t.adj:
                t_new.add_vertex(tv)
            for (a, b, w) in sub_t.edges():
                t_new.add_edge(a, b, w)
            t_new.add_edge(r_tilde, sub_phi[c], tree.adj[x][c])
            phi.update(sub_phi)

        # Current images of tree vertices adjacent (through graph edges)
        # to the fiber of x.
        targets = set()
        for (fa, fb) in fiber_pairs:
            if fa in phi and fb in phi:
                ca, cb = phi[fa], phi[fb]
                if ca == r_tilde and cb != r_tilde:
                    targets.add(cb)
                elif cb == r_tilde and ca != r_tilde:
                    targets.add(ca)
        if not targets:
            return t_new, phi

        # H: union of the paths from the root to the targets.
        h_deg, h_edges = t_new.path_union(r_tilde, sorted(targets))
        for v, dv in h_deg.items():
            if v != r_tilde and dv > 2:
                raise NotStarShaped(
                    f"arm union branches at {v}, map is not star-shaped"
                )
        h_vertices = set(h_deg)
        leaves = sorted(v for v, dv in h_deg.items() if dv == 1 and v != r_tilde)
        arms = [t_new.path_positions(r_tilde, leaf) for leaf in leaves]
        bits = _choice_fn(x, len(arms))

        # New tree: a root with two vertical branches; each arm lands on
        # one branch isometrically; same-position points merge.
        result = ReferenceTree()
        r_new = fresh()
        result.add_vertex(r_new)
        pos_id: dict[tuple[int, Fraction], int] = {}
        new_of: dict[int, int] = {r_tilde: r_new}
        branch_positions: dict[int, set[Fraction]] = {0: set(), 1: set()}
        for arm, b in zip(arms, bits):
            for v, d in arm[1:]:
                key = (b, d)
                if d == 0:
                    new_of[v] = r_new
                    continue
                if key not in pos_id:
                    pos_id[key] = fresh()
                    branch_positions[b].add(d)
                new_of[v] = pos_id[key]
        for b in (0, 1):
            prev = r_new
            prev_pos = Fraction(0)
            for d in sorted(branch_positions[b]):
                nid = pos_id[(b, d)]
                result.add_vertex(nid)
                result.add_edge(prev, nid, d - prev_pos)
                prev, prev_pos = nid, d
        # Re-attach everything hanging off the arms.
        for tv in t_new.adj:
            if tv not in h_vertices and tv != r_tilde:
                result.add_vertex(tv)
                new_of[tv] = tv
        for (a, b, w) in t_new.edges():
            if (min(a, b), max(a, b)) in h_edges:
                continue
            na, nb = new_of[a], new_of[b]
            result.add_edge(na, nb, w)
        phi2 = {orig: new_of[cur] for orig, cur in phi.items()}
        return result, phi2

    final_tree, phi = transform(root)
    mapping = {u: phi[tv] for u, tv in tm.mapping.items()}
    return TreeMap(final_tree, mapping, tm.source, root=phi[root])


class TestThinMap:
    def test_single_edge_identity(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        tm = identity_tree_map(g)
        out = thin_map(tm, 0)
        assert out.is_lipschitz()
        assert is_thin(out, 4)
        assert out.tree.dist(out.mapping[0], out.mapping[1]) == F(1)

    @pytest.mark.parametrize("seed", range(10))
    def test_spider_outputs_thin_lipschitz(self, seed):
        _, tm = spider(4)
        out = thin_map(tm, seed)
        assert out.is_lipschitz()
        assert is_thin(out, 4)

    def test_three_leg_spider_exact_expectation(self):
        # Enumerate all branch-bit outcomes: leaves on the same vertical
        # branch collapse together, on different branches they stay a
        # full path apart.  Mean pairwise distance is exactly half the
        # original, the worst case of the halving guarantee.
        g, tm = spider(3)
        outcomes = []
        for bits in itertools.product((0, 1), repeat=3):
            out = thin_map(tm, 0, _choice_fn=lambda x, k, b=bits: b[:k])
            assert out.is_lipschitz()
            assert is_thin(out, 4)
            outcomes.append(out)
        for (i, j) in [(1, 2), (1, 3), (2, 3)]:
            d = F(2)  # original leaf-to-leaf distance
            mean = sum(
                (o.tree.dist(o.mapping[i], o.mapping[j]) for o in outcomes),
                F(0),
            ) / len(outcomes)
            assert mean == d / 2

    def test_center_distance_preserved(self):
        g, tm = spider(3)
        for bits in itertools.product((0, 1), repeat=3):
            out = thin_map(tm, 0, _choice_fn=lambda x, k, b=bits: b[:k])
            for i in (1, 2, 3):
                assert out.tree.dist(out.mapping[0], out.mapping[i]) == F(1)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_tree_invariants(self, seed):
        g = random_tree(7, seed)
        tm = identity_tree_map(g)
        out = thin_map(tm, seed)
        assert out.is_lipschitz()
        assert is_thin(out, 4)
        # Distances never grow past the original.
        for u in range(g.n):
            for v in range(g.n):
                assert out.tree.dist(out.mapping[u], out.mapping[v]) <= \
                    tm.tree.dist(tm.mapping[u], tm.mapping[v])

    @pytest.mark.parametrize("seed", range(10))
    def test_embedded_cycle_invariants(self, seed):
        g = cycle_instance(6)
        out = thin_map(embed_sampler(g)(seed), seed)
        assert out.is_lipschitz()
        assert is_thin(out.with_source(g), 4)

    @pytest.mark.gate
    @pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (0, 2)], [(0, 1)]],
                             ids=["cycle", "disconnected"])
    def test_rejects_a_non_tree(self, edges):
        t = MetricTree()
        for v in range(3):
            t.add_vertex(v)
        for (u, v) in edges:
            t.add_edge(u, v, F(1))
        g = MetricGraph(3, ((0, 1, F(1)),))
        tm = TreeMap(t, {0: 0, 1: 1, 2: 2}, g)
        with pytest.raises(ValueError, match="^tree map must live on a connected tree$"):
            thin_map(tm, 0)


def listed(t) -> tuple[list[int], list]:
    """The vertices and the edges with their Fraction lengths, each
    sorted.  Their order does not matter: ``round_thin`` ranks equally
    sparse cuts by edge mask, and no query's answer depends on the
    order of a vertex's neighbours."""
    return sorted(t.adj), sorted(t.edges())


def thin_both(tm, seed, choice_fn=None):
    """``thin_map`` and the reference, which gets the tree with the
    Fraction lengths of its ``edges()``: the same vertices and edges,
    the same mapping (in order) and root, on tm's grid; and the fold
    keeps every depth."""
    got = thin_map(tm, seed, choice_fn)
    want = reference_thin_map(
        dataclasses.replace(tm, tree=reference_tree(tm.tree)), seed, choice_fn
    )
    assert listed(got.tree) == listed(want.tree)
    assert list(got.mapping.items()) == list(want.mapping.items())
    assert got.root == want.root
    assert got.tree.D == tm.tree.D
    assert_depths_kept(tm, seed, choice_fn)
    return got


def assert_depths_kept(tm, seed, choice_fn=None):
    """Each vertex v of tm's tree has its image as many ticks below the
    new root as v lies below ``tm.root``.  The images are read through
    probe keys -1 - v added to the mapping, which ``thin_map`` carries
    through without reading them."""
    probe = {-1 - v: v for v in tm.tree.adj}
    out = thin_map(
        dataclasses.replace(tm, mapping={**tm.mapping, **probe}), seed, choice_fn
    )
    for key, v in probe.items():
        depth = out.tree.tick_dist(out.root, out.mapping[key])
        assert depth == tm.tree.tick_dist(tm.root, v)


@st.composite
def tree_maps(draw, star_shaped=True):
    """A random tree map with branch bits.

    The tree: up to 9 vertices rooted at 0, lengths of 0 to 3 ticks on a
    grid 1/D, its edges added in a random order (the children's order).
    The fibres: tree vertex v holds graph vertex v, and up to 4 more
    graph vertices land on random tree vertices.  The graph, when
    ``star_shaped``: from each tree vertex x, at most one edge into each
    child's subtree, to a vertex down a random path, so the arms at x
    never branch; otherwise 8 to 16 draws of an edge between any two
    graph vertices, repeats and loops dropped.
    The branch bits: one per child of x, taken in order.

    Without ``star_shaped``, a seeded rng picks the tree's shape and the
    edges, spread evenly as in ``forest_maps``: about half of those maps
    are not star-shaped."""
    rng = None if star_shaped else random.Random(draw(st.integers(0, 2**32)))

    def pick(lo: int, hi: int) -> int:
        return draw(st.integers(lo, hi)) if rng is None else rng.randint(lo, hi)

    n = pick(1, 9)
    parent = [None] + [pick(0, v - 1) for v in range(1, n)]
    children = {v: [c for c in range(n) if parent[c] == v] for v in range(n)}
    tree = MetricTree(draw(st.integers(1, 4)))
    tree.add_vertex(0)
    for v in draw(st.permutations(range(1, n))):
        tree.add_ticks(parent[v], v, draw(st.integers(0, 3)))
    extra = draw(st.lists(st.integers(0, n - 1), max_size=4))
    mapping = {**{v: v for v in range(n)}, **{n + i: t for i, t in enumerate(extra)}}
    fibre = {v: [u for u, t in mapping.items() if t == v] for v in range(n)}
    pairs = []
    if star_shaped:
        for x in range(n):
            for z in children[x]:
                if not draw(st.booleans()):
                    continue
                while children[z] and draw(st.booleans()):
                    z = draw(st.sampled_from(children[z]))
                ends = (draw(st.sampled_from(fibre[y])) for y in (x, z))
                pairs.append(tuple(ends))
    else:
        seen = set()
        for _ in range(rng.randint(8, 16)):
            a, b = rng.randrange(len(mapping)), rng.randrange(len(mapping))
            if a != b and norm_edge(a, b) not in seen:
                seen.add(norm_edge(a, b))
                pairs.append((a, b))
    edges = tuple((a, b, tree.dist(mapping[a], mapping[b])) for a, b in pairs)
    bits = {x: draw(st.lists(st.integers(0, 1), min_size=len(c), max_size=len(c)))
            for x, c in children.items()}
    tm = TreeMap(tree, mapping, MetricGraph(len(mapping), edges), root=0)
    return tm, lambda x, k: tuple(bits[x][:k])


@pytest.mark.gate
class TestThinReference:
    """The tick ``thin_map`` against the parent's Fraction one."""

    def test_identity_maps(self):
        thin_both(identity_tree_map(MetricGraph(2, ((0, 1, F(1)),))), 0)
        for seed in range(10):
            thin_both(spider(4)[1], seed)
        for seed in range(15):
            thin_both(identity_tree_map(random_tree(7, seed)), seed)

    def test_every_branch_choice(self):
        _, tm = spider(3, F(2, 3))
        for bits in itertools.product((0, 1), repeat=3):
            thin_both(tm, 0, lambda x, k, b=bits: b[:k])

    def test_same_error_when_not_star_shaped(self):
        _, tm = triangle_on_spider()
        with pytest.raises(NotStarShaped) as want:
            reference_thin_map(dataclasses.replace(tm, tree=reference_tree(tm.tree)), 0)
        with pytest.raises(NotStarShaped, match=f"^{re.escape(str(want.value))}$"):
            thin_map(tm, 0)

    def test_names_the_first_branch_on_the_sorted_targets(self):
        # Two spiders hang off the root, and the root's edges reach all
        # four legs; the arms branch at both spider centres, and the
        # error names the one on the path to the smallest target id.
        t = MetricTree()
        for (u, v) in [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6)]:
            t.add_edge(u, v, F(1))
        g = MetricGraph(7, tuple((0, v, F(2)) for v in (2, 3, 5, 6)))
        tm = TreeMap(t, {v: v for v in range(7)}, g)
        with pytest.raises(NotStarShaped, match="^arm union branches at 1,"):
            thin_map(tm, 0)
        with pytest.raises(NotStarShaped, match="^arm union branches at 1,"):
            reference_thin_map(dataclasses.replace(tm, tree=reference_tree(t)), 0)

    GRAPHS = [
        ("c6", cycle_instance(6)),
        *[(f"slack{n}", slack_cycle(n)) for n in range(6, 13)],
        ("two-ear", two_ear_block()),
        *[(f"outer8-{s}", random_outerplanar(8, s)[0]) for s in range(3)],
        ("two-slack-blocks", two_slack_blocks()),
    ]

    @pytest.mark.parametrize("g", [g for _, g in GRAPHS], ids=[n for n, _ in GRAPHS])
    def test_embedded_maps(self, g):
        samp = embed_sampler(g)
        for seed in range(24):
            thin_both(samp(seed), seed)

    @pytest.mark.parametrize("name", ["cycle6", "grid2x3", "outer6", "slack6"])
    def test_gap_experiment_maps(self, monkeypatch, name):
        # Every map the pipeline thins: embeddings of retracted graphs.
        seen = []

        def checked(tm, seed):
            seen.append(seed)
            return thin_both(tm, seed)

        monkeypatch.setattr(thinround, "thin_map", checked)
        gap_experiment(INSTANCES[name](), samples=20, seed=2)
        assert len(seen) == 20


def crossed_map(seed):
    """The identity map of ``random_tree(9, seed)`` with three more graph
    vertices on random tree vertices and 8 random graph edges, rooted at
    a random vertex: its arm unions often branch, also on folded trees."""
    rng = random.Random(f"crossed:{seed}")
    tm = identity_tree_map(random_tree(9, seed))
    mapping = {**tm.mapping, **{9 + i: rng.randrange(9) for i in range(3)}}
    pairs = sorted({norm_edge(*rng.sample(range(12), 2)) for _ in range(8)})
    g = MetricGraph(12, tuple((a, b, tm.tree.dist(mapping[a], mapping[b])) for a, b in pairs))
    return TreeMap(tm.tree, mapping, g, root=rng.randrange(9))


@pytest.mark.gate
class TestNotStarShapedMessages:
    """The vertex a ``NotStarShaped`` error names, as the parent of the
    one arm-union climb named it: the first vertex with two children on
    H, in the order the paths to the sorted targets meet them.  Ids past
    8 are vertices that an earlier fold made."""

    @pytest.mark.parametrize("seed, at", [
        (3, 12), (9, 14), (23, 9), (26, 3), (28, 3), (30, 14), (32, 3),
        (34, 9), (36, 1), (39, 3),
    ])
    def test_crossed_maps(self, seed, at):
        tm = crossed_map(seed)
        message = f"^arm union branches at {at}, map is not star-shaped$"
        with pytest.raises(NotStarShaped, match=message):
            thin_map(tm, seed)
        with pytest.raises(NotStarShaped, match=message):
            reference_thin_map(dataclasses.replace(tm, tree=reference_tree(tm.tree)), seed)

    def test_triangle_on_spider(self):
        with pytest.raises(NotStarShaped, match="^arm union branches at 1, map is not star-shaped$"):
            thin_map(triangle_on_spider()[1], 0)


@pytest.mark.gate
class TestFoldKeepsDepths:
    """A fold lays each arm on a branch at its own depths, so every
    vertex keeps its tick depth below the root: the fact that lets
    ``thin_map`` work on one structure of parents and depths."""

    @settings(max_examples=300, deadline=None)
    @given(tree_maps())
    def test_random_maps(self, drawn):
        tm, choice_fn = drawn
        thin_both(tm, 0, choice_fn)

    @settings(max_examples=300, deadline=None)
    @given(tree_maps(star_shaped=False))
    def test_same_outcome_on_any_map(self, drawn):
        # A map that is not star-shaped fails with the reference's message.
        tm, choice_fn = drawn
        try:
            reference_thin_map(
                dataclasses.replace(tm, tree=reference_tree(tm.tree)), 0, choice_fn
            )
        except NotStarShaped as err:
            with pytest.raises(NotStarShaped, match=f"^{re.escape(str(err))}$"):
                thin_map(tm, 0, choice_fn)
        else:
            thin_both(tm, 0, choice_fn)

    @pytest.mark.parametrize("name", ["spider", "random-tree", "two-ear", "slack8"])
    def test_one_tree_and_no_index(self, monkeypatch, name):
        # One MetricTree, built at the end; no graft, arm union or
        # rooted index on the way.
        tm = {
            "spider": lambda: spider(3)[1],
            "random-tree": lambda: identity_tree_map(random_tree(9, 4)),
            "two-ear": lambda: embed_sampler(two_ear_block())(3),
            "slack8": lambda: embed_sampler(slack_cycle(8))(5),
        }[name]()
        calls = []

        def counted(owner, attr):
            fn = getattr(owner, attr)

            def wrapped(*args, **kwargs):
                calls.append(attr)
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapped)

        counted(MetricTree, "__init__")
        counted(MetricTree, "graft")
        counted(MetricTree, "arm_union")
        counted(tree_module, "_rooted_index")
        out = thin_map(tm, 0)
        assert calls == ["__init__"]
        # At least one fold ran: it took ids past the input's vertices.
        assert max(out.tree.adj) >= len(tm.tree.adj)


class TestRoundThin:
    def single_edge_setup(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        tm = identity_tree_map(g)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps({0: F(1), 1: F(1)})
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        return g, tm, ell, caps, dem

    def test_single_edge_sparsity_one(self):
        g, tm, ell, caps, dem = self.single_edge_setup()
        cert = round_thin(g, tm, ell, caps, dem)
        assert cert.nu_value == 1
        assert cert.separated == 1
        assert cert.sparsity == 1
        assert cert.exact
        assert cert.edges == frozenset({(0, 1)})
        assert cert.sparsity <= rounding_bound(tm, ell, caps, dem.items(), 4)

    def test_rejects_non_adapted(self):
        g, tm, _, caps, dem = self.single_edge_setup()
        bad = AdaptedLengths({0: {}, 1: {}}, {(0, 1): F(1)})
        with pytest.raises(HypothesisViolated):
            round_thin(g, tm, bad, caps, dem)

    def test_no_separated_demand(self):
        g = MetricGraph(2, ((0, 1, F(0)),))
        t = MetricTree()
        t.add_vertex(0)
        tm = TreeMap(t, {0: 0, 1: 0}, g, root=0)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps({0: F(1), 1: F(1)})
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        with pytest.raises(NoSeparatedDemand):
            round_thin(g, tm, ell, caps, dem)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_tree_bound_exact_nu(self, seed):
        rng = random.Random(seed)
        g = random_tree(rng.randrange(3, 8), seed)
        tm = identity_tree_map(g)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps(
            {v: F(rng.randrange(1, 5)) for v in range(g.n)}
        )
        pairs = [
            (u, v, F(rng.randrange(1, 4)))
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if rng.random() < 0.5
        ]
        if not pairs:
            pairs = [(0, 1, F(1))]
        dem = DemandMatrix.from_pairs(pairs)
        cert = round_thin(g, tm, ell, caps, dem)
        assert cert.exact
        assert cert.sparsity <= rounding_bound(tm, ell, caps, dem.items(), 4)


# -- the Fraction formulas that the tick arithmetic replaced, the references;
# ``reference_rho_hat`` is ``polyflow.rho_hat`` before its max went to ints --


def reference_tilde_lengths(
    g: MetricGraph, tm: TreeMap, ell: AdaptedLengths
) -> AdaptedLengths:
    """Per-sample tree-adapted lengths: zero on the strictly smaller side
    of each edge, tree-stretch-scaled on the other(s).  Zero-length edges
    get zero on both sides."""
    tree = tm.tree
    new_ell: dict[int, dict[tuple[int, int], Fraction]] = {v: {} for v in ell.ell}
    for (u, v, w) in g.edges:
        e = (u, v)
        lu = ell.ell.get(u, {}).get(e, Fraction(0))
        lv = ell.ell.get(v, {}).get(e, Fraction(0))
        if w == 0:
            new_ell.setdefault(u, {})[e] = Fraction(0)
            new_ell.setdefault(v, {})[e] = Fraction(0)
            continue
        dt = tree.dist(tm.mapping[u], tm.mapping[v])
        new_ell.setdefault(u, {})[e] = (
            Fraction(0) if lu < lv else 2 * lu * dt / w
        )
        new_ell.setdefault(v, {})[e] = (
            Fraction(0) if lv < lu else 2 * lv * dt / w
        )
    return AdaptedLengths(new_ell, dict(ell.length))


def reference_rho_hat(caps: PolymatroidCaps, v: int, ell_v: dict) -> Fraction:
    """Lovász extension of rho_v at ``ell_v``; under vertex caps every
    nonempty level set costs cap(v), so it is cap(v) * max ell_v."""
    if caps.vertex_caps is None:
        return lovasz_extension(lambda s: caps.rho(v, s), ell_v)
    top = Fraction(0)
    for k, x in ell_v.items():
        x = frac(x)
        if x < 0:
            raise NegativeEntry(f"negative weight {x} at {k}")
        top = max(top, x)
    return caps.vertex_caps.get(v, Fraction(0)) * top


def reference_rounding_bound(
    tm: TreeMap, ell: AdaptedLengths, caps: PolymatroidCaps, pairs, delta: int,
) -> Fraction:
    """delta * sum_v rho_hat_v(ell_v) / sum dem * d_T(F(u), F(v))."""
    numer = delta * sum(
        (reference_rho_hat(caps, v, ell.ell.get(v, {})) for v in ell.ell), Fraction(0)
    )
    denom = Fraction(0)
    for (u, v, w) in pairs:
        denom += w * tm.tree.dist(tm.mapping[u], tm.mapping[v])
    if denom == 0:
        raise NoSeparatedDemand("demands have zero tree distance")
    return numer / denom


def walked(tm: TreeMap) -> TreeMap:
    return dataclasses.replace(tm, tree=walk_tree(tm.tree))


def entries(ell: AdaptedLengths) -> list:
    """Every length with its type, in dict order."""
    return [(v, [(e, type(x), x) for e, x in d.items()]) for v, d in ell.ell.items()]


def check_against_references(monkeypatch) -> list[str]:
    """Wrap ``tilde_lengths`` and ``rounding_bound`` so that every call
    also runs the Fraction reference on a walked copy of the tree: the
    same lengths in the same order, the same bound or the same error.
    Returns the names of the calls checked."""
    seen: list[str] = []
    tilde, bound = thinround.tilde_lengths, thinround.rounding_bound

    def checked_tilde(g, tm, ell):
        got = tilde(g, tm, ell)
        assert entries(got) == entries(reference_tilde_lengths(g, walked(tm), ell))
        assert got.length == ell.length
        seen.append("tilde_lengths")
        return got

    def checked_bound(tm, ell, caps, pairs, delta):
        seen.append("rounding_bound")
        try:
            want = reference_rounding_bound(walked(tm), ell, caps, pairs, delta)
        except NoSeparatedDemand as err:
            with pytest.raises(NoSeparatedDemand, match=f"^{re.escape(str(err))}$"):
                bound(tm, ell, caps, pairs, delta)
            raise
        got = bound(tm, ell, caps, pairs, delta)
        assert type(got) is Fraction and got == want
        return got

    monkeypatch.setattr(thinround, "tilde_lengths", checked_tilde)
    monkeypatch.setattr(thinround, "rounding_bound", checked_bound)
    return seen


def table_caps(g: MetricGraph, seed: int) -> PolymatroidCaps:
    """Explicit tables rho_v(A) = min(c_v, c_v / 2 * |A|) over the edges
    at v, with random c_v."""
    rng = random.Random(seed)
    tables = {}
    for v in range(g.n):
        inc = [(a, b) for (a, b, _) in g.edges if v in (a, b)]
        c = F(rng.randrange(1, 7), rng.randrange(1, 4))
        tables[v] = {
            frozenset(s): min(c, c / 2 * len(s))
            for r in range(len(inc) + 1)
            for s in itertools.combinations(inc, r)
        }
    return PolymatroidCaps(tables=tables)


class TestTickArithmeticMatchesFractions:
    """``tilde_lengths`` and ``rounding_bound`` on ticks and ints give the
    Fractions of the formulas they replaced, on every sample."""

    @pytest.mark.parametrize("name", ["cycle6", "grid2x3", "outer6", "slack6", "table6"])
    def test_gap_experiment(self, monkeypatch, name):
        seen = check_against_references(monkeypatch)
        gap_experiment(INSTANCES[name](), samples=12, seed=1)
        assert seen.count("tilde_lengths") == 12 and "rounding_bound" in seen

    @pytest.mark.parametrize("tables", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_multiscale_round(self, monkeypatch, tables, seed):
        # Chorded, so the slack graph drops edges; random caps and demands.
        g, _ = random_outerplanar(7, seed)
        rng = random.Random(seed)
        caps = table_caps(g, seed) if tables else PolymatroidCaps.from_vertex_caps(
            {v: F(rng.randrange(1, 9), rng.randrange(1, 5)) for v in range(g.n)}
        )
        dem = DemandMatrix.from_pairs(
            [(0, 3, F(rng.randrange(1, 5), 3)), (1, 5, F(1, rng.randrange(1, 4)))]
        )
        seen = check_against_references(monkeypatch)
        multiscale_round(
            g, AdaptedLengths.split_evenly(g), caps, dem, embedded(g), samples=10, seed=seed
        )
        assert seen.count("tilde_lengths") == 10 and "rounding_bound" in seen

    def test_bound_rejects_negative_length(self):
        g, tm = spider(2)
        ell = AdaptedLengths({0: {(0, 1): F(1)}, 1: {(0, 1): F(-1, 2)}}, {})
        caps = PolymatroidCaps.from_vertex_caps({v: F(1) for v in range(3)})
        dem = DemandMatrix.from_pairs([(1, 2, F(1))])
        with pytest.raises(NegativeEntry, match=r"^negative weight -1/2 at \(0, 1\)$"):
            rounding_bound(tm, ell, caps, dem.items(), 4)
        with pytest.raises(NegativeEntry, match=r"^negative weight -1/2 at \(0, 1\)$"):
            reference_rounding_bound(tm, ell, caps, dem.items(), 4)

    def test_adaptedness_message(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        tm = identity_tree_map(g)
        e = (0, 1)
        ell = AdaptedLengths({0: {e: F(1, 3)}, 1: {e: F(1, 4)}}, {e: F(1)})
        caps = PolymatroidCaps.from_vertex_caps({0: F(1), 1: F(1)})
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        with pytest.raises(
            HypothesisViolated,
            match=r"^tree distance 1 exceeds ell_u \+ ell_v = 7/12 on edge \(0, 1\)$",
        ):
            round_thin(g, tm, ell, caps, dem)


def reference_pow2_ceil(x: Fraction) -> Fraction:
    """The doubling and halving ``_pow2_ceil`` that the bit-length one
    replaced, kept verbatim."""
    if x <= 0:
        return Fraction(0)
    p = Fraction(1)
    while p < x:
        p *= 2
    while p / 2 >= x:
        p /= 2
    return p


class TestDyadic:
    def test_pow2_ceil_values(self):
        assert _pow2_ceil(F(0)) == 0
        assert _pow2_ceil(F(1)) == 1
        assert _pow2_ceil(F(3)) == 4
        assert _pow2_ceil(F(1, 3)) == F(1, 2)
        assert _pow2_ceil(F(5, 4)) == 2
        assert _pow2_ceil(F(1, 4)) == F(1, 4)

    @pytest.mark.gate
    def test_pow2_ceil_matches_reference(self):
        xs = [F(0), F(-1), F(-3, 2)]
        xs += [F(n, d) for n in range(1, 301) for d in range(1, 301)]
        for x in xs:
            got = _pow2_ceil(x)
            assert type(got) is Fraction and got == reference_pow2_ceil(x), x

    @pytest.mark.parametrize("seed", range(10))
    def test_preprocess_postconditions(self, seed):
        rng = random.Random(seed)
        g = random_tree(6, seed)
        ell = AdaptedLengths(
            {
                v: {
                    norm_edge(a, b): w * F(rng.randrange(1, 4), 4)
                    for (a, b, w) in g.edges
                    if v in (a, b)
                }
                for v in range(g.n)
            },
            {norm_edge(a, b): w for (a, b, w) in g.edges},
        )
        out = dyadic_preprocess(g, ell)
        out.check_adapted()
        for (u, v, w) in g.edges:
            e = norm_edge(u, v)
            for end in (u, v):
                val = out.ell[end][e]
                if val:
                    # power of two: numerator * denominator is 2^k
                    assert bin(val.numerator * val.denominator).count("1") == 1
            s = out.ell[u][e] + out.ell[v][e]
            assert w <= s < 2 * w

    def test_tilde_lengths_sides(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        tm = identity_tree_map(g)
        e = (0, 1)
        ell = AdaptedLengths({0: {e: F(1, 4)}, 1: {e: F(1)}}, {e: F(1)})
        out = tilde_lengths(g, tm, ell)
        assert out.ell[0][e] == 0  # strictly smaller side
        assert out.ell[1][e] == 2 * F(1) * F(1) / F(1)

    def test_tilde_zero_edge(self):
        g = MetricGraph(2, ((0, 1, F(0)),))
        t = MetricTree()
        t.add_vertex(0)
        tm = TreeMap(t, {0: 0, 1: 0}, g, root=0)
        e = (0, 1)
        ell = AdaptedLengths({0: {e: F(1)}, 1: {e: F(1)}}, {e: F(0)})
        out = tilde_lengths(g, tm, ell)
        assert out.ell[0][e] == 0 and out.ell[1][e] == 0


class TestMultiscale:
    def test_single_edge(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps({0: F(1), 1: F(1)})
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        rep = multiscale_round(
            g, ell, caps, dem, embedded(g), samples=5, seed=3
        )
        assert rep.best.sparsity == 1
        assert all(r <= 1.0 + 1e-12 for r in rep.sample_ratios)

    def test_negative_samples_rejected(self):
        g = MetricGraph(2, ((0, 1, F(1)),))
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps({0: F(1), 1: F(1)})
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        with pytest.raises(ValueError, match=r"^samples must be >= 0, got -1$"):
            multiscale_round(g, ell, caps, dem, embedded(g), samples=-1, seed=0)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_tree_ratios_bounded(self, seed):
        g = random_tree(6, seed)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps(
            {v: F(1) for v in range(g.n)}
        )
        dem = DemandMatrix.from_pairs([(0, g.n - 1, F(1))])
        rep = multiscale_round(
            g, ell, caps, dem, embedded(g), samples=8, seed=seed
        )
        assert rep.best.sparsity > 0
        assert all(r <= 1.0 + 1e-12 for r in rep.sample_ratios)

    def test_cycle_runs_and_bounded(self):
        g = cycle_instance(6)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps(
            {v: F(1) for v in range(6)}
        )
        dem = DemandMatrix.from_pairs([(0, 3, F(1)), (1, 4, F(1))])
        rep = multiscale_round(
            g, ell, caps, dem, embedded(g), samples=20, seed=0
        )
        assert rep.best.sparsity > 0
        assert all(r <= 1.0 + 1e-12 for r in rep.sample_ratios)

    @pytest.mark.parametrize("seed", range(5))
    def test_chorded_outerplanar_runs_and_bounded(self, seed):
        # The slack transform deletes 4 of the 10 edges here; each thinned
        # map must still be 4-thin on every edge of g.
        g, _ = random_outerplanar(7, 0)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps({v: F(1) for v in range(g.n)})
        dem = DemandMatrix.from_pairs([(0, 3, F(1)), (1, 5, F(1))])
        rep = multiscale_round(
            g, ell, caps, dem, embedded(g), samples=8, seed=seed
        )
        assert rep.best.sparsity > 0
        assert all(r <= 1.0 + 1e-12 for r in rep.sample_ratios)

    def test_rejects_map_not_thin_on_g(self):
        # A map whose source has no edges is trivially thin there, but on
        # the 5-leg spider g its center has thin number 5 > 4.
        g, tm = spider(5)
        bare = tm.with_source(MetricGraph(g.n, ()))
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps({v: F(1) for v in range(g.n)})
        dem = DemandMatrix.from_pairs([(1, 2, F(1))])
        with pytest.raises(InvariantViolation):
            multiscale_round(
                g, ell, caps, dem, lambda s: (bare, range(g.n)), samples=1, seed=0
            )

    def test_rejects_map_not_star_shaped(self):
        g, tm = triangle_on_spider()
        assert tm.is_lipschitz()
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps({v: F(1) for v in range(g.n)})
        dem = DemandMatrix.from_pairs([(1, 2, F(1))])
        with pytest.raises(InvariantViolation, match="^embedding is not star-shaped$"):
            multiscale_round(
                g, ell, caps, dem, lambda s: (tm, range(g.n)), samples=1, seed=0
            )

    def test_certificate_above_the_bound_raises(self, monkeypatch):
        g = cycle_instance(6)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps({v: F(1) for v in range(6)})
        dem = DemandMatrix.from_pairs([(0, 3, F(1)), (1, 4, F(1))])
        bound_at_half_the_sparsity(monkeypatch)
        with pytest.raises(InvariantViolation, match="> bound"):
            multiscale_round(g, ell, caps, dem, embedded(g), samples=5, seed=0)

    def test_no_sample_no_certificate(self):
        g = cycle_instance(6)
        ell = AdaptedLengths.split_evenly(g)
        caps = PolymatroidCaps.from_vertex_caps({v: F(1) for v in range(6)})
        dem = DemandMatrix.from_pairs([(0, 3, F(1))])
        with pytest.raises(
            NoSeparatedDemand, match="^no sample produced a separating cut$"
        ):
            multiscale_round(g, ell, caps, dem, embedded(g), samples=0, seed=0)
