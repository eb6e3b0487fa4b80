import itertools
import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_reduced_graph
from faceflow import polyflow
from faceflow.errors import InvariantViolation, NegativeEntry, NoSeparatedDemand, TooLarge, ZeroDenominator
from faceflow.graph import MetricGraph, frac, norm_edge
from faceflow.instances import (
    cycle_instance,
    random_caps,
    random_demands,
    random_outerplanar,
    random_tree,
)
from faceflow.polyflow import (
    AdaptedLengths,
    DemandMatrix,
    Edge,
    PolymatroidCaps,
    assignment_value,
    brute_sparsest_edge_cut,
    brute_sparsest_vertex_cut,
    dual_objective,
    lovasz_extension,
    mcf_dual_vertex,
    mcf_polymatroid_lp,
    mcf_vertex_lp,
    nu,
    rho_hat,
    separated_demand,
    sparsity,
)
from faceflow.simplex import check_solution, solve_lp

F = Fraction


def unit_caps(n):
    return PolymatroidCaps.from_vertex_caps({v: F(1) for v in range(n)})


def single_edge():
    return MetricGraph(2, ((0, 1, F(1)),))


def assert_feasible_flow(g, cap, sol, endpoint_factor):
    """Reference recheck of a concurrent flow, independent of the LP
    rows: every commodity's flow is conserved away from its source and
    delivers epsilon * demand at its sink, and the flow on the edges
    at each vertex is within endpoint_factor * cap."""
    arcs = [(u, v) for (u, v, _) in g.edges] + [(v, u) for (u, v, _) in g.edges]
    for ci, (s, t, d) in enumerate(sol.commodities):
        for v in range(g.n):
            if v == s:
                continue
            bal = sum(
                (sol.flows.get((ci, a, b), F(0)) * ((b == v) - (a == v))
                 for (a, b) in arcs),
                F(0),
            )
            assert bal == (sol.epsilon * d if v == t else 0), (ci, v)
    for w in range(g.n):
        load = sum((f for (_, a, b), f in sol.flows.items() if w in (a, b)), F(0))
        assert load <= endpoint_factor * cap.get(w, F(0)), w


def reference_sigma(g, s_edges, u, v):
    """sigma by one depth-first search per pair (the replaced code)."""
    cut = {norm_edge(*e) for e in s_edges}
    adj = {x: [] for x in range(g.n)}
    for (a, b, _) in g.edges:
        if norm_edge(a, b) not in cut:
            adj[a].append(b)
            adj[b].append(a)
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            return 0
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return 0 if v in seen else 1


def reference_separated_demand(g, s_edges, dem):
    return sum(
        (w * reference_sigma(g, s_edges, u, v) for (u, v, w) in dem.items()), F(0)
    )


# The replaced nu, kept unchanged: all 2^|S| assignments in product order.
def reference_nu(
    s_edges,
    caps: PolymatroidCaps,
    limit: int = 20,
) -> tuple[Fraction, dict[Edge, int]]:
    """Exact minimum of sum_v rho_v(g^-1(v)) over all assignments of each
    cut edge to one of its endpoints."""
    edges = [norm_edge(*e) for e in s_edges]
    if len(edges) > limit:
        raise TooLarge(f"{len(edges)} edges exceeds exact limit {limit}")
    if not edges:
        return Fraction(0), {}
    best = None
    best_assign = None
    for bits in itertools.product((0, 1), repeat=len(edges)):
        buckets: dict[int, list[Edge]] = {}
        for e, b in zip(edges, bits):
            buckets.setdefault(e[b], []).append(e)
        val = sum((caps.rho(v, es) for v, es in buckets.items()), Fraction(0))
        if best is None or val < best:
            best = val
            best_assign = {e: e[b] for e, b in zip(edges, bits)}
    return best, best_assign


def reference_edge_cut(g, caps, dem):
    """The replaced brute_sparsest_edge_cut: every edge set S, the empty
    one first, in mask order, nu(S) by assignment enumeration, first
    strict minimum."""
    edges = [norm_edge(u, v) for (u, v, _) in g.edges]
    best = None
    best_s = None
    for mask in range(1 << len(edges)):
        s = [e for i, e in enumerate(edges) if mask >> i & 1]
        sep = reference_separated_demand(g, s, dem)
        if sep == 0:
            continue
        val, _ = reference_nu(s, caps)
        val = val / sep
        if best is None or val < best:
            best = val
            best_s = frozenset(s)
    if best is None:
        raise NoSeparatedDemand("no edge set separates any demand")
    return best_s, best


def reference_vertex_cut(g, cap, dem):
    """The replaced brute_sparsest_vertex_cut: one search per demand pair."""
    def rho_s(s, u, v):
        inside = (u in s) + (v in s)
        if inside:
            return F(inside, 2)
        cut = [(a, b) for (a, b, _) in g.edges if a in s or b in s]
        return F(reference_sigma(g, cut, u, v))

    best = None
    best_s = None
    for mask in range(1 << g.n):
        s = frozenset(v for v in range(g.n) if mask >> v & 1)
        denom = sum((w * rho_s(s, u, v) for (u, v, w) in dem.items()), F(0))
        if denom == 0:
            continue
        val = sum((cap[v] for v in s), F(0)) / denom
        if best is None or val < best:
            best = val
            best_s = s
    if best is None:
        raise NoSeparatedDemand("no vertex set separates any demand")
    return best_s, best


# The Fraction-per-mask oracles that the int core replaced, kept
# unchanged apart from their helpers, which are copied here: each mask
# builds a frozenset, a union-find over set lookups and Fraction sums.
def fraction_components(g, cut_edges=frozenset(), cut_vertices=frozenset()):
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b, _) in g.edges:
        if a in cut_vertices or b in cut_vertices or (a, b) in cut_edges:
            continue
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(x) for x in range(g.n)]


def fraction_separated(root, pairs):
    return sum((w for (u, v, w) in pairs if root[u] != root[v]), F(0))


def fraction_half_credit(s_verts, root, u, v):
    inside = (u in s_verts) + (v in s_verts)
    if inside == 1:
        return F(1, 2)
    if inside == 2:
        return F(1)
    return F(int(root[u] != root[v]))


def fraction_vertex_cut(g, cap, dem):
    pairs = dem.items()
    best = None
    best_s = None
    for mask in range(1 << g.n):
        s = frozenset(v for v in range(g.n) if mask >> v & 1)
        root = fraction_components(g, cut_vertices=s)
        denom = sum(
            (w * fraction_half_credit(s, root, u, v) for (u, v, w) in pairs),
            F(0),
        )
        if denom == 0:
            continue
        val = sum((frac(cap[v]) for v in s), F(0)) / denom
        if best is None or val < best:
            best = val
            best_s = s
    if best is None:
        raise NoSeparatedDemand("no vertex set separates any demand")
    return best_s, best


def fraction_vertex_cover_cut(g, cap, dem):
    touched = sum(1 << v for v in range(g.n) if g.incident(v))
    pairs = dem.items()
    best = None
    best_c = None
    for mask in range(1 << g.n):
        if mask and not mask & touched:
            continue
        c = frozenset(v for v in range(g.n) if mask >> v & 1)
        sep = fraction_separated(fraction_components(g, cut_vertices=c), pairs)
        if sep == 0:
            continue
        val = sum((cap.get(v, F(0)) for v in c), F(0)) / sep
        if best is None or val < best:
            best = val
            best_c = c
    if best is None:
        raise NoSeparatedDemand("no edge set separates any demand")
    return frozenset(e for v in best_c for e in g.incident(v)), best


def gray_min_assignment(ends, table):
    """The replaced ``_min_assignment``: min over assignments of each
    edge (a, b, bit_a, bit_b) in ``ends`` to one endpoint of sum_v
    table[v][bits of the edges assigned to v], over the full 2^|ends|
    Gray code, one edge moved to its other endpoint per step."""
    held: dict[int, int] = {}
    for (a, b, bit_a, _) in ends:
        held[a] = held.get(a, 0) | bit_a
        held.setdefault(b, 0)
    total = sum(table[v][m] for v, m in held.items())
    low = total
    for step in range(1, 1 << len(ends)):
        a, b, bit_a, bit_b = ends[(step & -step).bit_length() - 1]
        ta, tb = table[a], table[b]
        ha, hb = held[a], held[b]
        held[a], held[b] = ha ^ bit_a, hb ^ bit_b
        total += ta[ha ^ bit_a] + tb[hb ^ bit_b] - ta[ha] - tb[hb]
        if total < low:
            low = total
    return low


def fraction_table_cut(g, caps, dem):
    """Every edge set S with positive separated demand reaches
    ``gray_min_assignment``."""
    edges = [(a, b) for (a, b, _) in g.edges]
    incident = {v: g.incident(v) for v in range(g.n)}
    values = {
        v: [
            caps.rho(v, [e for i, e in enumerate(inc) if m >> i & 1])
            for m in range(1 << len(inc))
        ]
        for v, inc in incident.items()
    }
    scale = math.lcm(*(x.denominator for vals in values.values() for x in vals))
    table = {v: [int(x * scale) for x in vals] for v, vals in values.items()}
    ends = [
        (a, b, 1 << incident[a].index((a, b)), 1 << incident[b].index((a, b)))
        for (a, b) in edges
    ]
    pairs = dem.items()
    best = None
    best_s = None
    for mask in range(1 << len(edges)):
        picked = [i for i in range(len(edges)) if mask >> i & 1]
        s = frozenset(edges[i] for i in picked)
        sep = fraction_separated(fraction_components(g, cut_edges=s), pairs)
        if sep == 0:
            continue
        low = gray_min_assignment([ends[i] for i in picked], table)
        val = F(low, scale) / sep
        if best is None or val < best:
            best = val
            best_s = s
    if best is None:
        raise NoSeparatedDemand("no edge set separates any demand")
    return best_s, best


def fraction_edge_cut(g, caps, dem):
    if caps.is_vertex_form():
        return fraction_vertex_cover_cut(g, caps.vertex_caps, dem)
    return fraction_table_cut(g, caps, dem)


def assert_same_outcome(oracle, reference, *args):
    """``oracle`` returns the reference's (set, value), a Fraction, or
    raises NoSeparatedDemand as it does."""
    try:
        want = reference(*args)
    except NoSeparatedDemand:
        with pytest.raises(NoSeparatedDemand):
            oracle(*args)
        return None
    got = oracle(*args)
    assert got == want
    assert type(got[1]) is Fraction
    return got

def reference_dual_vertex(
    g: MetricGraph, cap, dem: DemandMatrix, endpoint_factor: int = 2
) -> tuple[dict[Edge, Fraction], AdaptedLengths, Fraction]:
    """The replaced mcf_dual_vertex: the dual of the concurrent-flow LP,
    built by hand as its own LP.  Optimal dual as length functions.

    Variables: a nonnegative vertex length t_v, and per-commodity node
    potentials.  Returns (edge lengths len = t_u + t_v, the adapted
    family ell_v(e) = t_v, objective = sum factor * cap(v) * t_v)."""
    cap = {v: frac(c) for v, c in dict(cap).items()}
    commodities = [(u, v, w) for (u, v, w) in dem.items()]
    k = len(commodities)
    if k == 0:
        raise ZeroDenominator("no demands")
    # Variables: t_v (n), then z+_{c,v}, z-_{c,v} for v != source_c.
    nvar = g.n + 2 * k * g.n

    def t_i(v):
        return v

    def zp(ci, v):
        return g.n + 2 * (ci * g.n + v)

    def zm(ci, v):
        return g.n + 2 * (ci * g.n + v) + 1

    rows = []
    for ci, (s, t, d) in enumerate(commodities):
        # Pin the source potential to zero.
        coeffs = [Fraction(0)] * nvar
        coeffs[zp(ci, s)] = 1
        coeffs[zm(ci, s)] = 1
        rows.append((coeffs, "=", Fraction(0)))
        for (u, v, _) in g.edges:
            for (a, b) in ((u, v), (v, u)):
                coeffs = [Fraction(0)] * nvar
                coeffs[zp(ci, b)] += 1
                coeffs[zm(ci, b)] -= 1
                coeffs[zp(ci, a)] -= 1
                coeffs[zm(ci, a)] += 1
                coeffs[t_i(u)] -= 1
                coeffs[t_i(v)] -= 1
                rows.append((coeffs, "<=", Fraction(0)))
    coeffs = [Fraction(0)] * nvar
    for ci, (s, t, d) in enumerate(commodities):
        coeffs[zp(ci, t)] += d
        coeffs[zm(ci, t)] -= d
    rows.append((coeffs, ">=", Fraction(1)))
    objective = [Fraction(0)] * nvar
    for v in range(g.n):
        objective[t_i(v)] = endpoint_factor * cap.get(v, Fraction(0))
    res = solve_lp(objective, rows, maximize=False)
    check_solution(objective, rows, res.x)
    t_vals = [res.x[t_i(v)] for v in range(g.n)]
    length = {}
    ell: dict[int, dict[Edge, Fraction]] = {v: {} for v in range(g.n)}
    for (u, v, _) in g.edges:
        e = norm_edge(u, v)
        length[e] = t_vals[u] + t_vals[v]
        ell[u][e] = t_vals[u]
        ell[v][e] = t_vals[v]
    return length, AdaptedLengths(ell, length), res.objective


SMALL = st.builds(F, st.integers(0, 4), st.integers(1, 3))


@st.composite
def cut_instances(draw, tables=None):
    """(g, caps, dem): up to 7 vertices (isolated ones included), 1-9
    edges, vertex capacities or budget-additive tables
    rho_v(A) = min(c_v, sum of w_v(e) over A), zeros allowed."""
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=9, unique=True))
    g = MetricGraph(n, tuple((u, v, F(1)) for (u, v) in picked))
    dem = DemandMatrix.from_pairs(
        (u, v, w)
        for ((u, v), w) in draw(st.lists(
            st.tuples(st.sampled_from(pairs), st.builds(F, st.integers(1, 3), st.integers(1, 2))),
            min_size=1, max_size=3,
        ))
    )
    if tables is None:
        tables = draw(st.booleans())
    if not tables:
        return g, PolymatroidCaps.from_vertex_caps({v: draw(SMALL) for v in range(n)}), dem
    out = {}
    for v in range(n):
        inc = [e for e in picked if v in e]
        c = draw(SMALL)
        w = {e: draw(SMALL) for e in inc}
        out[v] = {
            frozenset(sub): min(c, sum((w[e] for e in sub), F(0)))
            for r in range(len(inc) + 1)
            for sub in itertools.combinations(inc, r)
        }
    caps = PolymatroidCaps(tables=out)
    caps.validate_tables()
    return g, caps, dem


class TestOracleCrossCheck:
    """The cut oracles against the enumerations they replaced."""

    @settings(max_examples=120, deadline=None)
    @given(cut_instances())
    def test_edge_cut_matches_reference(self, inst):
        g, caps, dem = inst
        try:
            ref_s, ref_phi = reference_edge_cut(g, caps, dem)
        except NoSeparatedDemand:
            with pytest.raises(NoSeparatedDemand):
                brute_sparsest_edge_cut(g, caps, dem)
            return
        s, phi = brute_sparsest_edge_cut(g, caps, dem)
        assert phi == ref_phi
        sep = reference_separated_demand(g, s, dem)
        assert separated_demand(g, s, dem) == sep
        assert nu(s, caps)[0] / sep == phi
        if not caps.is_vertex_form():
            assert s == ref_s

    @settings(max_examples=80, deadline=None)
    @given(cut_instances(tables=False))
    def test_vertex_cut_matches_reference(self, inst):
        g, caps, dem = inst
        try:
            want = reference_vertex_cut(g, caps.vertex_caps, dem)
        except NoSeparatedDemand:
            with pytest.raises(NoSeparatedDemand):
                brute_sparsest_vertex_cut(g, caps.vertex_caps, dem)
            return
        assert brute_sparsest_vertex_cut(g, caps.vertex_caps, dem) == want

    def test_isolated_vertex_adds_no_cut(self):
        # Vertex 2 has no edge and capacity 0: a vertex set holding only
        # it cuts no edge, like the empty set.  With (0, 1) the empty set
        # separates nothing, so the cover {0} wins; with (0, 2) already
        # disconnected, the empty set wins at 0.
        g = MetricGraph(3, ((0, 1, F(1)),))
        caps = PolymatroidCaps.from_vertex_caps({0: F(2), 1: F(3), 2: F(0)})
        for pair, want in (
            ((0, 1), (frozenset({(0, 1)}), F(2))),
            ((0, 2), (frozenset(), F(0))),
        ):
            dem = DemandMatrix.from_pairs([(*pair, F(1))])
            assert reference_edge_cut(g, caps, dem) == want
            assert brute_sparsest_edge_cut(g, caps, dem) == want


@st.composite
def int_core_instances(draw, tables=None):
    """(g, caps, dem) for the int-core cross-check: 1-9 edges on the
    first 2-6 vertices, then up to 2 vertices that no edge reaches; 1-3
    demand pairs over all vertices with weights in {0, 1/2, 1, 3/2, 2,
    3}, all of which may be 0, and then nothing is separated;
    capacities with zeros, or tables of three kinds: budget-additive
    min(c_v, w_v(A)), rank-like min(c_v, |A|), and flat (c_v on every
    nonempty A), whose entries tie."""
    core = draw(st.integers(2, 6))
    n = core + draw(st.integers(0, 2))
    edges = list(itertools.combinations(range(core), 2))
    picked = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=9, unique=True))
    g = MetricGraph(n, tuple((u, v, F(1)) for (u, v) in picked))
    dem = DemandMatrix.from_pairs(
        (u, v, w)
        for ((u, v), w) in draw(st.lists(
            st.tuples(
                st.sampled_from(list(itertools.combinations(range(n), 2))),
                st.builds(F, st.integers(0, 3), st.integers(1, 2)),
            ),
            min_size=1, max_size=3,
        ))
    )
    if tables is None:
        tables = draw(st.booleans())
    if not tables:
        return g, PolymatroidCaps.from_vertex_caps({v: draw(SMALL) for v in range(n)}), dem
    out = {}
    for v in range(n):
        inc = g.incident(v)
        c = draw(SMALL)
        kind = draw(st.sampled_from(["budget", "rank", "flat"]))
        w = {e: draw(SMALL) if kind == "budget" else F(1) for e in inc}
        out[v] = {
            frozenset(sub): (
                c if kind == "flat" and sub else min(c, sum((w[e] for e in sub), F(0)))
            )
            for r in range(len(inc) + 1)
            for sub in itertools.combinations(inc, r)
        }
    caps = PolymatroidCaps(tables=out)
    caps.validate_tables()
    return g, caps, dem


def flat_table_instance(seed):
    """(g, caps, dem) on 3-5 vertices with flat tables (c_v, a multiple
    of 1/2, on every nonempty set) and 1-3 demand pairs: equal lows over
    different separated demands, where the table oracle's bound decides
    whether a later edge set can still win."""
    rng = random.Random(f"flat:{seed}")
    n = rng.randrange(3, 6)
    pairs = list(itertools.combinations(range(n), 2))
    picked = rng.sample(pairs, rng.randrange(2, len(pairs) + 1))
    g = MetricGraph(n, tuple((u, v, F(1)) for (u, v) in picked))
    dem = DemandMatrix.from_pairs(
        (u, v, F(rng.randrange(1, 5), rng.randrange(1, 3)))
        for (u, v) in rng.sample(pairs, rng.randrange(1, 4))
    )
    cap = [F(rng.randrange(5), rng.randrange(1, 3)) for _ in range(n)]
    caps = PolymatroidCaps(tables={
        v: {
            frozenset(sub): cap[v] if sub else F(0)
            for r in range(len(g.incident(v)) + 1)
            for sub in itertools.combinations(g.incident(v), r)
        }
        for v in range(n)
    })
    caps.validate_tables()
    return g, caps, dem


class TestIntCoreMatchesFractionLoop:
    """The int-core oracles return exactly the (set, value) of the
    Fraction-per-mask enumerations they replaced, or raise as they do."""

    @settings(max_examples=150, deadline=None)
    @given(int_core_instances())
    def test_edge_cut(self, inst):
        g, caps, dem = inst
        assert_same_outcome(brute_sparsest_edge_cut, fraction_edge_cut, g, caps, dem)

    def test_edge_cut_flat_tables(self):
        # A bound rounded down instead of up returns a worse cut on 10 of
        # these 80 seeds; the Hypothesis draws above seldom show it.
        for seed in range(80):
            assert_same_outcome(
                brute_sparsest_edge_cut, fraction_edge_cut, *flat_table_instance(seed)
            )

    @settings(max_examples=100, deadline=None)
    @given(int_core_instances(tables=False))
    def test_vertex_cut(self, inst):
        g, caps, dem = inst
        assert_same_outcome(
            brute_sparsest_vertex_cut, fraction_vertex_cut, g, caps.vertex_caps, dem
        )

    def test_nothing_separated_raises(self):
        g = MetricGraph(3, ((0, 1, F(1)),))
        dem = DemandMatrix.from_pairs([(0, 2, F(0))])
        caps = PolymatroidCaps(tables={
            v: {frozenset(): F(0), **{frozenset({e}): F(1) for e in g.incident(v)}}
            for v in range(3)
        })
        for args in ((unit_caps(3),), (caps,)):
            with pytest.raises(NoSeparatedDemand):
                brute_sparsest_edge_cut(g, *args, dem)
        with pytest.raises(NoSeparatedDemand):
            brute_sparsest_vertex_cut(g, {v: F(1) for v in range(3)}, dem)


def table_outerplanar(n, seed):
    """Outerplanar instance with tables rho_v(A) = min(cap_v, cap_v / 2 *
    |A|), as in the benchmark's gap corpus."""
    g, face = random_outerplanar(n, seed)
    cap = random_caps(n, seed)
    tables = {
        v: {
            frozenset(sub): min(cap[v], cap[v] / 2 * len(sub))
            for r in range(len(g.incident(v)) + 1)
            for sub in itertools.combinations(g.incident(v), r)
        }
        for v in range(n)
    }
    return g, PolymatroidCaps(tables=tables), random_demands(face, seed)


def record_assignments(monkeypatch) -> list[frozenset]:
    """The edge set of every ``_min_assignment`` call, and of every
    ``gray_min_assignment`` call that ``fraction_table_cut`` makes."""
    calls = []
    inner = polyflow._min_assignment
    gray = gray_min_assignment

    def recording(ends, table, bound=None):
        calls.append(frozenset((a, b) for (a, b, _, _) in ends))
        return inner(ends, table, bound)

    def gray_recording(ends, table):
        calls.append(frozenset((a, b) for (a, b, _, _) in ends))
        return gray(ends, table)

    monkeypatch.setattr(polyflow, "_min_assignment", recording)
    monkeypatch.setitem(globals(), "gray_min_assignment", gray_recording)
    return calls


class TestTableCutSkip:
    """The table oracle enumerates no edge set with an edge inside one
    component of g - S: dropping it keeps sep and cannot raise nu."""

    def test_superset_cutting_inside_a_component_ties(self, monkeypatch):
        # Triangle 0-1-2 with 3 hanging off 1, the pendant edge first.
        # rho_1 is 1 on every nonempty set and the other vertices cost 5,
        # so {1-3}, mask 1, is the first sparsest cut, at 1.  {0-1, 1-3}
        # ties it: 0-1 joins 0 and 1, which 0-2-1 still connects, and
        # both edges go to 1 at cost 1.
        g = MetricGraph(4, ((1, 3, F(1)), (0, 1, F(1)), (0, 2, F(1)), (1, 2, F(1))))
        dem = DemandMatrix.from_pairs([(0, 3, F(1))])
        tables = {
            v: {
                frozenset(sub): (F(1) if v == 1 else F(5)) if sub else F(0)
                for r in range(len(g.incident(v)) + 1)
                for sub in itertools.combinations(g.incident(v), r)
            }
            for v in range(4)
        }
        caps = PolymatroidCaps(tables=tables)
        caps.validate_tables()
        first = frozenset({(1, 3)})
        inside = frozenset({(0, 1), (1, 3)})
        assert sparsity(g, inside, caps, dem) == sparsity(g, first, caps, dem) == 1
        calls = record_assignments(monkeypatch)
        assert brute_sparsest_edge_cut(g, caps, dem) == (first, 1)
        assert first in calls and inside not in calls
        assert frozenset({(1, 2), (1, 3)}) not in calls
        # Cutting 1 off the triangle ties too, and is enumerated: each
        # of its edges ends in two components.
        assert frozenset({(0, 1), (1, 2)}) in calls
        calls.clear()
        assert fraction_table_cut(g, caps, dem) == (first, 1)
        assert inside in calls

    def test_table7_2_assignment_calls(self, monkeypatch):
        """table7-2 of the gap corpus (10 edges): 199 edge sets reach the
        assignment enumeration; the Fraction loop sends all 657 with
        positive separated demand."""
        g, caps, dem = table_outerplanar(7, 2)
        caps.validate_tables()
        calls = record_assignments(monkeypatch)
        got = brute_sparsest_edge_cut(g, caps, dem)
        assert len(calls) == 199
        calls.clear()
        assert fraction_table_cut(g, caps, dem) == got
        assert len(calls) == 657


class TestTableCutBound:
    """The table oracle searches each edge set below ceil(best_low * sep /
    best_sep), the least int low that no longer gives a smaller ratio."""

    def test_bound_rounds_up(self, monkeypatch):
        # Path 0-2-1 with flat tables: rho_v is c_v on every nonempty set,
        # c = 3, 3, 1.  {0-2} is first at 1/4.  {1-2} at 1/2 is searched
        # below ceil(2/4) = 1 and gives None.  {0-2, 1-2} puts both edges
        # at 2, low 1 over sep 6, below ceil(6/4) = 2: it wins at 1/6.  A
        # floor would give the bound 1 and keep 1/4.
        g = MetricGraph(3, ((0, 2, F(1)), (1, 2, F(1))))
        dem = DemandMatrix.from_pairs([(0, 2, F(4)), (1, 2, F(2))])
        cap = {0: F(3), 1: F(3), 2: F(1)}
        caps = PolymatroidCaps(tables={
            v: {
                frozenset(sub): cap[v] if sub else F(0)
                for r in range(len(g.incident(v)) + 1)
                for sub in itertools.combinations(g.incident(v), r)
            }
            for v in range(3)
        })
        caps.validate_tables()
        seen = []
        inner = polyflow._min_assignment

        def recording(ends, table, bound=None):
            found = inner(ends, table, bound)
            seen.append((len(ends), bound, found and found[0]))
            return found

        monkeypatch.setattr(polyflow, "_min_assignment", recording)
        want = (frozenset({(0, 2), (1, 2)}), F(1, 6))
        assert brute_sparsest_edge_cut(g, caps, dem) == want
        assert seen == [(1, None, 1), (1, 1, None), (2, 2, 1)]
        assert fraction_table_cut(g, caps, dem) == want


class TestDualCrossCheck:
    """mcf_dual_vertex, read off the flow LP's own solve, against the
    hand-built dual LP and against the primal."""

    @settings(max_examples=80, deadline=None)
    @given(cut_instances(tables=False), st.sampled_from([1, 2]))
    def test_matches_reference_dual(self, inst, factor):
        g, caps, dem = inst
        cap = caps.vertex_caps
        _, ell, obj = mcf_dual_vertex(g, cap, dem, endpoint_factor=factor)
        _, _, ref_obj = reference_dual_vertex(g, cap, dem, endpoint_factor=factor)
        eps = mcf_vertex_lp(g, cap, dem, endpoint_factor=factor).epsilon
        assert obj == ref_obj == eps
        ell.check_adapted()
        t = {v: next(iter(ell.ell[v].values()), F(0)) for v in range(g.n)}
        assert all(ell.ell[v][e] == t[v] >= 0 for v in range(g.n) for e in ell.ell[v])
        assert obj == factor * sum((cap[v] * t[v] for v in range(g.n)), F(0))
        # Shortest paths under the lengths re-derive the objective; a
        # disconnected pair gives 0.  Only all pairs at distance 0 leave
        # the ratio undefined, and then the objective is 0.
        try:
            assert factor * dual_objective(g, ell, caps, dem) == obj
        except ZeroDenominator:
            assert obj == 0


class TestDualCertificate:
    """mcf_dual_vertex certifies the multipliers it reads off the solve:
    each of its three checks rejects a wrong read-out."""

    # Path 0-1-2 with pendant 3 at vertex 1, demand (0, 2), unit caps.
    G = MetricGraph(4, ((0, 1, F(1)), (1, 2, F(1)), (1, 3, F(1))))
    CAP = {v: F(1) for v in range(4)}
    DEM = DemandMatrix.from_pairs([(0, 2, F(1))])

    def dual_vertex(self, monkeypatch, alter):
        solve_lp = polyflow.solve_lp

        def altered(*args, **kwargs):
            res = solve_lp(*args, **kwargs)
            return replace(res, duals=alter(res))

        monkeypatch.setattr(polyflow, "solve_lp", altered)
        return mcf_dual_vertex(self.G, self.CAP, self.DEM)

    def test_unaltered_passes(self, monkeypatch):
        length, _, obj = self.dual_vertex(monkeypatch, lambda res: res.duals)
        assert obj == 1 and sum(length.values()) > 0

    def test_halved_multipliers_rejected(self, monkeypatch):
        with pytest.raises(InvariantViolation, match="dual objective"):
            self.dual_vertex(
                monkeypatch, lambda res: {i: y / 2 for i, y in res.duals.items()}
            )

    def test_zeroed_multipliers_rejected(self, monkeypatch):
        with pytest.raises(InvariantViolation, match="dual objective"):
            self.dual_vertex(monkeypatch, lambda res: dict.fromkeys(res.duals, F(0)))

    def test_negated_multipliers_rejected(self, monkeypatch):
        with pytest.raises(InvariantViolation, match="negative"):
            self.dual_vertex(
                monkeypatch, lambda res: {i: -y for i, y in res.duals.items()}
            )

    def test_lengths_off_every_path_rejected(self, monkeypatch):
        # All of the objective on the pendant vertex 3 (the last capacity
        # row, right-hand side 2): the value matches, but the demand pair
        # is at distance 0.
        def on_pendant(res):
            last = max(res.duals)
            return {i: res.objective / 2 if i == last else F(0) for i in res.duals}

        with pytest.raises(InvariantViolation, match="distance"):
            self.dual_vertex(monkeypatch, on_pendant)


class TestCaps:
    def test_vertex_form_rho(self):
        caps = PolymatroidCaps.from_vertex_caps({0: F(3), 1: F(5)})
        assert caps.rho(0, [(0, 1)]) == 3
        assert caps.rho(0, []) == 0

    def test_rho_same_for_any_iterable(self):
        # Lists, one-shot generators and frozensets, with edges in either
        # orientation, read the same value in both forms.
        inc = [(0, 1), (0, 2)]
        table = {
            frozenset(c): F(len(c) + 1) if c else F(0)
            for r in range(3) for c in itertools.combinations(inc, r)
        }
        forms = [
            PolymatroidCaps.from_vertex_caps({0: F(3), 1: F(5), 2: F(7)}),
            PolymatroidCaps(tables={0: table}),
        ]
        for caps in forms:
            for r in range(3):
                for sub in itertools.combinations(inc, r):
                    want = caps.rho(0, list(sub))
                    flipped = [(b, a) for (a, b) in sub]
                    assert caps.rho(0, iter(sub)) == want
                    assert caps.rho(0, (e for e in flipped)) == want
                    assert caps.rho(0, frozenset(sub)) == want
                    assert caps.rho(0, flipped) == want
        assert forms[0].rho(0, iter([(0, 1)])) == 3
        assert forms[0].rho(0, iter([])) == 0
        assert forms[1].rho(0, (e for e in [(2, 0), (1, 0)])) == 3

    def test_negative_vertex_cap_rejected(self):
        PolymatroidCaps.from_vertex_caps({0: F(0), 1: F(1)})
        with pytest.raises(NegativeEntry):
            PolymatroidCaps.from_vertex_caps({0: F(1), 1: F(-1, 2)})

    def test_tables_validated(self):
        good = PolymatroidCaps(
            tables={
                0: {
                    frozenset(): F(0),
                    frozenset({(0, 1)}): F(1),
                    frozenset({(0, 2)}): F(1),
                    frozenset({(0, 1), (0, 2)}): F(3, 2),
                }
            }
        )
        good.validate_tables()

    def test_non_submodular_rejected(self):
        bad = PolymatroidCaps(
            tables={
                0: {
                    frozenset(): F(0),
                    frozenset({(0, 1)}): F(1),
                    frozenset({(0, 2)}): F(1),
                    frozenset({(0, 1), (0, 2)}): F(3),
                }
            }
        )
        with pytest.raises(ValueError):
            bad.validate_tables()

    def test_non_monotone_rejected(self):
        bad = PolymatroidCaps(
            tables={
                0: {
                    frozenset(): F(0),
                    frozenset({(0, 1)}): F(2),
                    frozenset({(0, 2)}): F(0),
                    frozenset({(0, 1), (0, 2)}): F(1),
                }
            }
        )
        with pytest.raises(ValueError):
            bad.validate_tables()


# Path 0-1-2 whose vertex 1 table has no value at {0-1}: read as 0, that
# entry is still monotone and submodular.
E01, E12 = (0, 1), (1, 2)
GAPPED = {
    0: {frozenset({E01}): F(1)},
    1: {frozenset({E12}): F(1), frozenset({E01, E12}): F(1)},
    2: {frozenset({E12}): F(1)},
}
NO_VALUE_AT_01 = re.escape("rho_1 has no value at frozenset({(0, 1)})")


class TestIncompleteTable:
    """A table built directly, not through ``Instance.caps``, with no value
    at some set: ``validate_tables`` and ``rho`` refuse it with the
    message ``Instance.caps`` gives, not a raw KeyError."""

    def test_validate_refuses_a_missing_subset(self):
        with pytest.raises(ValueError, match=f"^{NO_VALUE_AT_01}$"):
            PolymatroidCaps(tables=GAPPED).validate_tables()

    def test_missing_before_monotone(self):
        # Read as 0, the missing {0-1, 0-2} would be below {0-1}.
        table = {frozenset({(0, 1)}): F(1), frozenset({(0, 2)}): F(1)}
        message = re.escape("rho_0 has no value at frozenset({(0, 1), (0, 2)})")
        with pytest.raises(ValueError, match=f"^{message}$"):
            PolymatroidCaps(tables={0: table}).validate_tables()

    def test_rho_outside_the_table(self):
        caps = PolymatroidCaps(tables=GAPPED)
        with pytest.raises(ValueError, match=f"^{NO_VALUE_AT_01}$"):
            caps.rho(1, [E01])
        with pytest.raises(ValueError, match=f"^{NO_VALUE_AT_01}$"):
            nu([E01, E12], caps)
        with pytest.raises(ValueError, match=re.escape("rho_3 has no value at frozenset({(2, 3)})")):
            caps.rho(3, [(3, 2)])
        assert caps.rho(1, [E12, E01]) == 1


class TestLovasz:
    def test_indicator(self):
        table = {
            frozenset(): F(0),
            frozenset({"a"}): F(2),
            frozenset({"b"}): F(3),
            frozenset({"a", "b"}): F(4),
        }
        rho = lambda s: table[s]
        assert lovasz_extension(rho, {"a": F(1), "b": F(0)}) == 2
        assert lovasz_extension(rho, {"a": F(1), "b": F(1)}) == 4

    def test_vertex_cap_breakpoints(self):
        # cap = 2, weights (1, 3): integral of 2 over [0, 3] where the
        # level set is nonempty -> 2 * 3 = 6.
        caps = PolymatroidCaps.from_vertex_caps({0: F(2)})
        assert rho_hat(caps, 0, {(0, 1): F(1), (0, 2): F(3)}) == 6

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([None, F(0), F(1), F(5, 3)]),
        st.dictionaries(
            st.integers(1, 6).map(lambda w: (0, w)),
            st.fractions(min_value=0, max_value=4, max_denominator=6),
            max_size=5,
        ),
    )
    @example(F(2), {})
    @example(F(2), {(0, 1): F(0), (0, 2): F(0)})
    def test_vertex_caps_closed_form(self, cap, ell_v):
        """Under vertex caps rho_hat is exactly the Lovász extension of
        rho_0; cap None leaves vertex 0 out of the caps."""
        caps = PolymatroidCaps.from_vertex_caps({} if cap is None else {0: cap})
        got = rho_hat(caps, 0, ell_v)
        assert isinstance(got, Fraction)
        assert got == lovasz_extension(lambda s: caps.rho(0, s), ell_v)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=1, max_size=5,
        ).filter(lambda ws: min(ws) < 0)
    )
    @example([F(1), F(-1)])
    def test_vertex_caps_negative_weight_raises(self, weights):
        """Every entry is checked, not only the largest, and the error is
        the Lovász extension's."""
        caps = PolymatroidCaps.from_vertex_caps({0: F(1)})
        ell_v = {(0, i + 1): w for i, w in enumerate(weights)}
        with pytest.raises(NegativeEntry) as want:
            lovasz_extension(lambda s: caps.rho(0, s), ell_v)
        with pytest.raises(NegativeEntry, match=f"^{re.escape(str(want.value))}$"):
            rho_hat(caps, 0, ell_v)

    @pytest.mark.parametrize("seed", range(10))
    def test_positively_homogeneous(self, seed):
        rng = random.Random(seed)
        items = ["a", "b", "c"]
        # Random monotone coverage-style function (submodularity not
        # needed for homogeneity).
        weights = {i: F(rng.randrange(1, 6)) for i in items}
        rho = lambda s: sum((weights[i] for i in s), F(0))
        ell = {i: F(rng.randrange(0, 9), 2) for i in items}
        three = {i: 3 * v for i, v in ell.items()}
        assert lovasz_extension(rho, three) == 3 * lovasz_extension(rho, ell)


@st.composite
def nu_cases(draw):
    """(cut, caps): some edges of a ``cut_instances`` graph in drawn order
    and orientation, with the instance's vertex or table capacities, or
    with vertex capacities that include zeros and leave vertices out."""
    g, caps, _ = draw(cut_instances())
    edges = [(u, v) for (u, v, _) in g.edges]
    cut = draw(st.lists(st.sampled_from(edges), max_size=len(edges), unique=True))
    cut = [e if draw(st.booleans()) else e[::-1] for e in cut]
    if draw(st.booleans()):
        kept = draw(st.sets(st.integers(0, g.n - 1)))
        caps = PolymatroidCaps.from_vertex_caps(
            {v: draw(st.sampled_from([F(0), F(1), F(3, 2)])) for v in sorted(kept)}
        )
    return cut, caps


class TestNu:
    @settings(max_examples=300, deadline=None)
    @given(nu_cases())
    def test_matches_reference(self, case):
        cut, caps = case
        assert nu(cut, caps) == reference_nu(cut, caps)

    def test_tie_goes_to_first_assignment(self):
        # Unit caps on the path 0-1-2-3: covers {0,2}, {1,2} and {1,3}
        # all cost 2.  In product order (bit 0 = smaller endpoint) the
        # first of these assignments is (0, 1, 0), the cover {0, 2}.
        cut = [(0, 1), (1, 2), (2, 3)]
        want = (F(2), {(0, 1): 0, (1, 2): 2, (2, 3): 2})
        assert reference_nu(cut, unit_caps(4)) == want
        assert nu(cut, unit_caps(4)) == want

    def test_single_edge_min_endpoint(self):
        caps = PolymatroidCaps.from_vertex_caps({0: F(3), 1: F(5)})
        val, assign = nu([(0, 1)], caps)
        assert val == 3
        assert assign[(0, 1)] == 0

    def test_empty(self):
        assert nu([], unit_caps(2))[0] == 0

    def test_star_saturation(self):
        g_edges = [(0, 1), (0, 2), (0, 3)]
        caps = unit_caps(4)
        val, assign = nu(g_edges, caps)
        assert val == 1
        assert all(assign[e] == 0 for e in g_edges)

    def test_assignment_value_consistent(self):
        caps = unit_caps(4)
        val, assign = nu([(0, 1), (0, 2)], caps)
        assert assignment_value(assign, caps) == val

    def test_sixteen_edges_at_one_vertex(self, monkeypatch):
        # A 16-edge star whose centre 16 has a 2^16-entry table.  Bit 0
        # sends edge (i, 16) to leaf i.  The cheapest assignment sends the
        # edges of the odd leaves (cap 1/3 each) to the centre, paying
        # 7/3 once, below the 8/3 of all eight.  An even leaf costs 0, so
        # its edge ties between its ends, and bit 0 sends it to the leaf.
        # In vertex form no rho_v is read per mask: rho is never called.
        cut = [(i, 16) for i in range(16)]
        caps = PolymatroidCaps.from_vertex_caps(
            {16: F(7, 3), **{i: F(i % 2, 3) for i in range(16)}}
        )

        def no_rho(*args):
            raise AssertionError("rho read in vertex form")

        monkeypatch.setattr(PolymatroidCaps, "rho", no_rho)
        val, assign = nu(cut, caps)
        assert type(val) is Fraction and val == F(7, 3)
        assert assign == {(i, 16): i if i % 2 == 0 else 16 for i in range(16)}

    def test_limit_is_the_config_limit(self):
        # 16 edges of a star are solved; 17 exceed nu_brute_limit.
        caps = unit_caps(18)
        assert nu([(0, v) for v in range(1, 17)], caps)[0] == 1
        with pytest.raises(TooLarge, match="^17 edges exceeds exact limit 16$"):
            nu([(0, v) for v in range(1, 18)], caps)


@st.composite
def assignment_cases(draw):
    """(ends, table) for ``_min_assignment``: 0-8 distinct edges (a, b)
    with a < b over 2-5 vertices, each with its bit at a and at b, and a
    monotone int table per vertex: table[m] is the largest table[m -
    bit] plus a drawn step in 0..2, so entries tie, and a vertex whose
    steps are all 0 has a zero row."""
    n = draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True))
    count = [0] * n
    ends = []
    for (a, b) in edges:
        ends.append((a, b, 1 << count[a], 1 << count[b]))
        count[a] += 1
        count[b] += 1
    table = {}
    for v in range(n):
        zero = draw(st.booleans())
        t = [0] * (1 << count[v])
        for m in range(1, len(t)):
            below = max(t[m & ~(1 << i)] for i in range(count[v]) if m >> i & 1)
            t[m] = below + (0 if zero else draw(st.integers(0, 2)))
        table[v] = t
    return ends, table


def product_min_assignment(ends, table):
    """(low, sides) of the first minimum over every assignment in
    ``itertools.product`` order; bit i of sides is 1 iff ends[i] goes
    to its larger endpoint."""
    best = None
    for choice in itertools.product((0, 1), repeat=len(ends)):
        held = dict.fromkeys(table, 0)
        for (a, b, bit_a, bit_b), c in zip(ends, choice):
            if c:
                held[b] |= bit_b
            else:
                held[a] |= bit_a
        low = sum(table[v][m] for v, m in held.items())
        if best is None or low < best[0]:
            best = (low, sum(c << i for i, c in enumerate(choice)))
    return best


class TestMinAssignment:
    """The pruned search returns the first minimum of full enumeration,
    and nothing when no assignment is below the bound."""

    @settings(max_examples=300, deadline=None)
    @given(assignment_cases(), st.integers(1, 3))
    def test_matches_product_enumeration(self, case, above):
        ends, table = case
        want = product_min_assignment(ends, table)
        assert polyflow._min_assignment(ends, table) == want
        assert polyflow._min_assignment(ends, table, want[0] + above) == want
        assert polyflow._min_assignment(ends, table, want[0]) is None

    def test_no_edges(self):
        assert polyflow._min_assignment([], {}) == (0, 0)
        assert polyflow._min_assignment([], {}, 1) == (0, 0)
        assert polyflow._min_assignment([], {}, 0) is None


def separates(g, s_edges, u, v):
    """The demand a cut separates of one unit demand between u and v."""
    return separated_demand(g, s_edges, DemandMatrix.from_pairs([(u, v, F(1))]))


class TestSigmaSparsity:
    def test_empty_cut_connected(self, c4=None):
        g = cycle_instance(4)
        assert separates(g, [], 0, 2) == 0

    def test_all_edges(self):
        g = cycle_instance(4)
        assert separates(g, [e[:2] for e in g.edges], 0, 2) == 1

    def test_bridge(self):
        g = MetricGraph(4, ((0, 1, F(1)), (1, 2, F(1)), (2, 3, F(1))))
        assert separates(g, [(1, 2)], 0, 3) == 1
        assert separates(g, [(1, 2)], 0, 1) == 0

    def test_sparsity_single_edge(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        assert sparsity(g, [(0, 1)], unit_caps(2), dem) == 1

    def test_sparsity_no_separation(self):
        g = cycle_instance(4)
        dem = DemandMatrix.from_pairs([(0, 2, F(1))])
        with pytest.raises(NoSeparatedDemand):
            sparsity(g, [(0, 1)], unit_caps(4), dem)

    @pytest.mark.parametrize("seed", range(5))
    def test_sparsity_matches_recomputation(self, seed):
        rng = random.Random(seed)
        g = random_reduced_graph(6, seed, p=0.3)
        dem = random_demands(range(6), seed, pairs=2)
        caps = unit_caps(6)
        edges = [e[:2] for e in g.edges]
        cut = rng.sample(edges, min(3, len(edges)))
        sep = separated_demand(g, cut, dem)
        if sep == 0:
            return
        # Independent recomputation: enumerate assignments by hand.
        best = None
        for bits in range(1 << len(cut)):
            assign = {
                tuple(sorted(e)): sorted(e)[(bits >> i) & 1]
                for i, e in enumerate(cut)
            }
            v = assignment_value(assign, caps)
            best = v if best is None or v < best else best
        assert sparsity(g, cut, caps, dem) == best / sep


class TestBruteCuts:
    def test_path_vertex_cut(self):
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        dem = DemandMatrix.from_pairs([(0, 2, F(1))])
        cap = {v: F(1) for v in range(3)}
        s, phi = brute_sparsest_vertex_cut(g, cap, dem)
        assert phi == 1 and s == frozenset({1})
        # An endpoint in S earns half credit: {0} gives 1 / (1/2) = 2,
        # below the middle vertex's 3 / 1.
        cap[1] = F(3)
        assert brute_sparsest_vertex_cut(g, cap, dem) == (frozenset({0}), 2)

    def test_single_edge_vertex_cut(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        _, phi = brute_sparsest_vertex_cut(g, {0: F(1), 1: F(1)}, dem)
        assert phi == 2

    def test_single_edge_edge_cut(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(2))])
        caps = PolymatroidCaps.from_vertex_caps({0: F(3), 1: F(5)})
        s, phi = brute_sparsest_edge_cut(g, caps, dem)
        assert phi == F(3, 2)

    def test_edge_cut_first_cover_on_ties(self):
        # Every single vertex of the unit 6-cycle gives ratio 1; the
        # first vertex set in mask order, {0}, wins with its two edges.
        g = cycle_instance(6)
        dem = DemandMatrix.from_pairs([(0, 3, F(1)), (1, 4, F(1))])
        s, phi = brute_sparsest_edge_cut(g, unit_caps(6), dem)
        assert (s, phi) == (frozenset({(0, 1), (0, 5)}), 1)

    def test_disconnected_pair_gives_zero(self):
        # Edges 0-1 and 2-3: the pair (0, 2) is split before any cut, so
        # the empty set is the sparsest cut of either kind, as mcf is 0.
        g = MetricGraph(4, ((0, 1, F(1)), (2, 3, F(1))))
        cap = {v: F(1) for v in range(4)}
        dem = DemandMatrix.from_pairs([(0, 2, F(1)), (0, 1, F(1))])
        assert brute_sparsest_vertex_cut(g, cap, dem) == (frozenset(), 0)
        caps = PolymatroidCaps.from_vertex_caps(cap)
        assert brute_sparsest_edge_cut(g, caps, dem) == (frozenset(), 0)
        # Each vertex has one edge: the table {} -> 0, {e} -> 1.
        tables = PolymatroidCaps(tables={
            v: {frozenset(): F(0), frozenset(g.incident(v)): F(1)}
            for v in range(4)
        })
        assert brute_sparsest_edge_cut(g, tables, dem) == (frozenset(), 0)
        assert mcf_vertex_lp(g, cap, dem).epsilon == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_sandwich(self, seed):
        g = random_tree(5, seed)
        dem = random_demands(range(5), seed, pairs=2)
        cap = dict(enumerate(random_caps(5, seed)))
        caps = PolymatroidCaps.from_vertex_caps(cap)
        try:
            _, phi_v = brute_sparsest_vertex_cut(g, cap, dem)
            _, phi_rho = brute_sparsest_edge_cut(g, caps, dem)
        except NoSeparatedDemand:
            return
        assert phi_rho <= phi_v <= 2 * phi_rho


class TestFlowLP:
    def test_single_edge_menger(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        sol = mcf_vertex_lp(g, {0: F(1), 1: F(1)}, dem, endpoint_factor=2)
        assert sol.epsilon == 2
        assert_feasible_flow(g, {0: F(1), 1: F(1)}, sol, 2)
        _, phi = brute_sparsest_vertex_cut(g, {0: F(1), 1: F(1)}, dem)
        assert phi == sol.epsilon

    def test_single_edge_polymatroid_form(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        sol = mcf_vertex_lp(g, {0: F(1), 1: F(1)}, dem, endpoint_factor=1)
        assert sol.epsilon == 1
        assert_feasible_flow(g, {0: F(1), 1: F(1)}, sol, 1)

    def test_path_flow(self):
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        dem = DemandMatrix.from_pairs([(0, 2, F(1))])
        sol = mcf_vertex_lp(g, {v: F(1) for v in range(3)}, dem)
        assert sol.epsilon == 1
        assert_feasible_flow(g, {v: F(1) for v in range(3)}, sol, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_tree_equality(self, seed):
        g = random_tree(6, seed)
        cap = dict(enumerate(random_caps(6, seed)))
        dem = random_demands(range(6), seed, pairs=2)
        sol = mcf_vertex_lp(g, cap, dem, endpoint_factor=2)
        assert_feasible_flow(g, cap, sol, 2)
        _, phi = brute_sparsest_vertex_cut(g, cap, dem)
        assert sol.epsilon == phi

    def test_recheck_rejects_tampered_flow(self):
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        cap = {v: F(1) for v in range(3)}
        sol = mcf_vertex_lp(g, cap, DemandMatrix.from_pairs([(0, 2, F(1))]))
        assert_feasible_flow(g, cap, sol, 2)
        leaky = dict(sol.flows)
        leaky[(0, 1, 2)] -= F(1, 2)
        with pytest.raises(AssertionError):
            assert_feasible_flow(g, cap, replace(sol, flows=leaky), 2)
        # Raising epsilon and every flow with it keeps conservation but
        # overloads the middle vertex.
        doubled = {k: 2 * f for k, f in sol.flows.items()}
        with pytest.raises(AssertionError):
            assert_feasible_flow(
                g, cap, replace(sol, epsilon=2 * sol.epsilon, flows=doubled), 2
            )

    def test_disconnected_demand_zero(self):
        g = MetricGraph(3, ((0, 1, F(1)),))
        dem = DemandMatrix.from_pairs([(0, 2, F(1))])
        sol = mcf_vertex_lp(g, {v: F(1) for v in range(3)}, dem)
        assert sol.epsilon == 0
        assert_feasible_flow(g, {v: F(1) for v in range(3)}, sol, 2)


class TestDual:
    def test_single_edge_duality(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        length, ell, obj = mcf_dual_vertex(g, {0: F(1), 1: F(1)}, dem)
        assert obj == 2
        ell.check_adapted()

    def test_path_duality(self):
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        dem = DemandMatrix.from_pairs([(0, 2, F(1))])
        _, _, obj = mcf_dual_vertex(g, {v: F(1) for v in range(3)}, dem)
        assert obj == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_duality_random(self, seed):
        g = random_reduced_graph(5, seed, p=0.4)
        cap = dict(enumerate(random_caps(5, seed)))
        dem = random_demands(range(5), seed, pairs=2)
        sol = mcf_vertex_lp(g, cap, dem)
        assert_feasible_flow(g, cap, sol, 2)
        _, _, obj = mcf_dual_vertex(g, cap, dem)
        assert sol.epsilon == obj

    def test_dual_objective_split_evenly(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        val = dual_objective(g, AdaptedLengths.split_evenly(g), unit_caps(2), dem)
        assert val == 1

    def test_dual_objective_disconnected_pair_is_zero(self):
        # (0, 2) is disconnected: its distance is infinite under every
        # length, so the ratio is 0 and agrees with the LP optimum.
        g = MetricGraph(4, ((0, 1, F(1)), (2, 3, F(1))))
        dem = DemandMatrix.from_pairs([(0, 2, F(1)), (0, 1, F(1))])
        cap = {v: F(1) for v in range(4)}
        _, ell, obj = mcf_dual_vertex(g, cap, dem)
        assert obj == 0
        assert dual_objective(g, ell, unit_caps(4), dem) == 0
        assert dual_objective(g, AdaptedLengths.split_evenly(g), unit_caps(4), dem) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_weak_duality_any_adapted(self, seed):
        g = random_reduced_graph(5, seed, p=0.4)
        cap = dict(enumerate(random_caps(5, seed)))
        caps = PolymatroidCaps.from_vertex_caps(cap)
        dem = random_demands(range(5), seed, pairs=2)
        sol = mcf_vertex_lp(g, cap, dem, endpoint_factor=1)
        assert_feasible_flow(g, cap, sol, 1)
        val = dual_objective(g, AdaptedLengths.split_evenly(g), caps, dem)
        assert val >= sol.epsilon


class TestPolymatroidLP:
    def test_table_caps_constrain_flow(self):
        # Path a - b - c; rho_b caps each single edge at 1 but the pair at
        # 3/2, so concurrent flow through b is 3/2.
        g = MetricGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        tables = {
            v: {
                frozenset({e}): F(1)
                for e in [(0, 1), (1, 2)]
                if v in e
            }
            for v in range(3)
        }
        tables[1][frozenset({(0, 1), (1, 2)})] = F(3, 2)
        caps = PolymatroidCaps(tables=tables)
        dem = DemandMatrix.from_pairs([(0, 2, F(1))])
        sol = mcf_polymatroid_lp(g, caps, dem)
        assert sol.epsilon == F(3, 4)

    def test_vertex_form_delegates(self):
        g = single_edge()
        dem = DemandMatrix.from_pairs([(0, 1, F(1))])
        caps = PolymatroidCaps.from_vertex_caps({0: F(1), 1: F(1)})
        sol = mcf_polymatroid_lp(g, caps, dem)
        assert sol.epsilon == 1
        assert_feasible_flow(g, caps.vertex_caps, sol, 1)
