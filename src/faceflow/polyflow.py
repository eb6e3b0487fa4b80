"""Ground-truth oracles for flows and cuts.

Polymatroid capacities, Lovász extensions, exact cut capacity, sparsest
cuts by enumeration, the vertex-capacitated concurrent-flow LP, and its
dual as length functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .config import DEFAULT_CONFIG
from .errors import (
    InvariantViolation,
    NegativeEntry,
    NoSeparatedDemand,
    TooLarge,
    ZeroDenominator,
)
from .graph import MetricGraph, frac, int_adjacency, int_dijkstra, norm_edge
from .simplex import check_solution, solve_lp

Edge = tuple[int, int]


# -- capacities ---------------------------------------------------------


@dataclass(frozen=True)
class PolymatroidCaps:
    """Per-vertex monotone submodular functions over incident edges.

    Either the vertex-capacity special form rho_v(S) = cap(v) for every
    nonempty S, or explicit tables keyed by frozensets of edges."""

    vertex_caps: Optional[dict[int, Fraction]] = None
    tables: Optional[dict[int, dict[frozenset, Fraction]]] = None

    @staticmethod
    def from_vertex_caps(caps) -> "PolymatroidCaps":
        """Vertex-capacity form; a negative capacity would make rho_v
        non-monotone, so it is rejected."""
        vertex_caps = {v: frac(c) for v, c in dict(caps).items()}
        for v, c in vertex_caps.items():
            if c < 0:
                raise NegativeEntry(f"negative capacity {c} at vertex {v}")
        return PolymatroidCaps(vertex_caps=vertex_caps)

    def is_vertex_form(self) -> bool:
        return self.vertex_caps is not None

    def rho(self, v: int, edges) -> Fraction:
        if self.vertex_caps is not None:
            # cap(v) on every nonempty S: only emptiness is read, so the
            # edges are neither normalised nor collected.
            for _ in edges:
                return self.vertex_caps.get(v, Fraction(0))
            return Fraction(0)
        s = frozenset(norm_edge(*e) for e in edges)
        if not s:
            return Fraction(0)
        try:
            return self.tables[v][s]
        except KeyError:
            raise ValueError(f"rho_{v} has no value at {s}") from None

    def validate_tables(self) -> None:
        """Exhaustive check that every table has a value at each nonempty
        subset of its own ground set and is monotone and submodular."""
        if self.tables is None:
            return
        for v, table in self.tables.items():
            ground = sorted(frozenset().union(*table))
            subsets = [frozenset(c) for r in range(len(ground) + 1)
                       for c in itertools.combinations(ground, r)]
            if table.get(frozenset(), Fraction(0)) != 0:
                raise ValueError(f"rho_{v}(empty) != 0")
            for s in subsets[1:]:
                if s not in table:
                    raise ValueError(f"rho_{v} has no value at {s}")
            f = {**table, frozenset(): Fraction(0)}
            for a in subsets:
                for b in subsets:
                    if a <= b and f[a] > f[b]:
                        raise ValueError(f"rho_{v} not monotone at {a} <= {b}")
                    if f[a] + f[b] < f[a & b] + f[a | b]:
                        raise ValueError(f"rho_{v} not submodular at {a}, {b}")


@dataclass(frozen=True)
class DemandMatrix:
    """Symmetric nonnegative demands given as unordered-pair weights."""

    pairs: dict[Edge, Fraction]

    @staticmethod
    def from_pairs(items) -> "DemandMatrix":
        out: dict[Edge, Fraction] = {}
        for (u, v, w) in items:
            if u == v:
                raise ValueError("demand between a vertex and itself")
            w = frac(w)
            if w < 0:
                raise ValueError("negative demand")
            key = norm_edge(u, v)
            out[key] = out.get(key, Fraction(0)) + w
        return DemandMatrix(out)

    def dem(self, u: int, v: int) -> Fraction:
        return self.pairs.get(norm_edge(u, v), Fraction(0))

    def items(self):
        return [(u, v, w) for (u, v), w in sorted(self.pairs.items()) if w > 0]


@dataclass(frozen=True)
class AdaptedLengths:
    """Per-vertex edge lengths with len(e) <= ell_u(e) + ell_v(e)."""

    ell: dict[int, dict[Edge, Fraction]]
    length: dict[Edge, Fraction]

    def check_adapted(self) -> None:
        for e, le in self.length.items():
            u, v = e
            s = self.ell.get(u, {}).get(e, Fraction(0)) + self.ell.get(v, {}).get(
                e, Fraction(0)
            )
            if le > s:
                raise ValueError(f"lengths not adapted at edge {e}: {le} > {s}")

    @staticmethod
    def split_evenly(g: MetricGraph) -> "AdaptedLengths":
        ell: dict[int, dict[Edge, Fraction]] = {v: {} for v in range(g.n)}
        length = {}
        for (u, v, w) in g.edges:
            e = (u, v)
            length[e] = w
            ell[u][e] = w / 2
            ell[v][e] = w / 2
        return AdaptedLengths(ell, length)


# -- Lovász extension ---------------------------------------------------


def lovasz_extension(rho: Callable[[frozenset], Fraction], ell: dict) -> Fraction:
    """Exact level-set integral of a monotone set function with
    rho(empty) = 0, over nonnegative weights ``ell``: item -> value."""
    vals = {}
    for k, v in ell.items():
        v = frac(v)
        if v < 0:
            raise NegativeEntry(f"negative weight {v} at {k}")
        vals[k] = v
    taus = sorted({Fraction(0)} | set(vals.values()))
    out = Fraction(0)
    for i in range(len(taus) - 1):
        level = frozenset(k for k, v in vals.items() if v >= taus[i + 1])
        out += (taus[i + 1] - taus[i]) * rho(level)
    return out


def rho_hat(caps: PolymatroidCaps, v: int, ell_v: dict) -> Fraction:
    """Lovász extension of rho_v at ``ell_v``; under vertex caps every
    nonempty level set costs cap(v), so it is cap(v) * max ell_v, with
    the max taken by cross-multiplication."""
    if caps.vertex_caps is None:
        return lovasz_extension(lambda s: caps.rho(v, s), ell_v)
    top_n, top_d = 0, 1
    for k, x in ell_v.items():
        x = frac(x)
        xn, xd = x.numerator, x.denominator
        if xn < 0:
            raise NegativeEntry(f"negative weight {x} at {k}")
        if xn * top_d > top_n * xd:
            top_n, top_d = xn, xd
    c = caps.vertex_caps.get(v, Fraction(0))
    return Fraction(c.numerator * top_n, c.denominator * top_d)


# -- cut capacity -------------------------------------------------------


def nu(s_edges, caps: PolymatroidCaps) -> tuple[Fraction, dict[Edge, int]]:
    """Exact minimum of sum_v rho_v(g^-1(v)) over all assignments of each
    cut edge to one of its endpoints, for at most
    ``DEFAULT_CONFIG.nu_brute_limit`` cut edges (``TooLarge`` beyond).

    One ``_min_assignment`` search on the ``_int_tables`` of the cut's
    own edges at each endpoint.  Exact only for monotone rho (tables pass
    ``validate_tables``): the value and the assignment are those of full
    enumeration, the first minimum in product order, bit 0 sending an
    edge to its smaller endpoint."""
    edges = [norm_edge(*e) for e in s_edges]
    limit = DEFAULT_CONFIG.nu_brute_limit
    if len(edges) > limit:
        raise TooLarge(f"{len(edges)} edges exceeds exact limit {limit}")
    if not edges:
        return Fraction(0), {}
    at: dict[int, list[Edge]] = {}  # v -> its cut edges, each once
    for e in dict.fromkeys(edges):
        for v in e:
            at.setdefault(v, []).append(e)
    ends, table, scale = _int_tables(caps, edges, at)
    low, sides = _min_assignment(ends, table)
    return Fraction(low, scale), {e: e[sides >> i & 1] for i, e in enumerate(edges)}


def assignment_value(assign: dict[Edge, int], caps: PolymatroidCaps) -> Fraction:
    buckets: dict[int, list[Edge]] = {}
    for e, v in assign.items():
        if v not in e:
            raise ValueError(f"edge {e} assigned to non-endpoint {v}")
        buckets.setdefault(v, []).append(e)
    return sum((caps.rho(v, es) for v, es in buckets.items()), Fraction(0))


def _components(g: MetricGraph, cut: int) -> list[int]:
    """Union-find root of every vertex of g once the edges whose index
    in ``g.edges`` is a set bit of ``cut`` are deleted.  Two vertices are
    connected iff their roots are equal.  Each root is the least vertex
    of its component, so parent[x] <= x throughout, and one ascending
    pass turns the parents into roots."""
    parent = list(range(g.n))
    for (a, b, _) in g.edges:
        if not cut & 1:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]  # path halving
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
        cut >>= 1
    for x in range(g.n):
        parent[x] = parent[parent[x]]
    return parent


def _edge_mask(g: MetricGraph, cut_edges) -> int:
    """Bitmask over ``g.edges`` indices of the normalised ``cut_edges``."""
    return sum(1 << i for i, (a, b, _) in enumerate(g.edges) if (a, b) in cut_edges)


def _separated(root: list[int], pairs) -> Fraction:
    """Demand of the ``DemandMatrix.items()`` pairs split across components."""
    return sum((w for (u, v, w) in pairs if root[u] != root[v]), Fraction(0))


def separated_demand(g: MetricGraph, s_edges, dem: DemandMatrix) -> Fraction:
    cut = {norm_edge(*e) for e in s_edges}
    return _separated(_components(g, _edge_mask(g, cut)), dem.items())


def sparsity(
    g: MetricGraph, s_edges, caps: PolymatroidCaps, dem: DemandMatrix
) -> Fraction:
    sep = separated_demand(g, s_edges, dem)
    if sep == 0:
        raise NoSeparatedDemand("cut separates no demand")
    val, _ = nu(s_edges, caps)
    return val / sep


# -- sparsest cuts by enumeration --------------------------------------
#
# The oracles enumerate on ints: demands and capacities are scaled once
# to ints over the lcm of their denominators, each candidate's separated
# demand is an int sum over one ``_components`` call, and a candidate
# low / sep beats the best so far iff low * best_sep < best_low * sep.
# The best starts at (1, 0), above every ratio, and only a strictly
# smaller ratio replaces it, so the first minimum in mask order wins.
# One Fraction and one set are built, for the winner.


def _over_lcm(xs) -> tuple[list[int], int]:
    """The rationals ``xs`` as ints over the lcm of their denominators:
    (ints, lcm)."""
    scale = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (scale // x.denominator) for x in xs], scale


def _int_pairs(pairs) -> tuple[list[tuple[int, int, int]], int]:
    """The ``DemandMatrix.items()`` pairs with int weights, and their scale."""
    weights, scale = _over_lcm([w for (_, _, w) in pairs])
    return [(u, v, w) for (u, v, _), w in zip(pairs, weights)], scale


def _vertex_sets(cuts: list[int], caps: list[int]):
    """Every set of k = len(cuts) vertices, as (mask, cut, cap) in
    increasing mask order: cut ORs cuts[i] and cap sums caps[i] over the
    set bits i of the mask.  Each (cut, cap) is read off a table of the
    low half of the bits and one of the high half, about 2^(k/2) long
    each, not one 2^k long."""
    half = len(cuts) // 2

    def table(bits):
        out = [(0, 0)]
        for i in bits:
            out += [(c | cuts[i], s + caps[i]) for (c, s) in out]
        return out

    low = table(range(half))
    for hi, (hi_cut, hi_cap) in enumerate(table(range(half, len(cuts)))):
        for lo, (lo_cut, lo_cap) in enumerate(low):
            yield hi << half | lo, hi_cut | lo_cut, hi_cap + lo_cap


def _edges_of(g: MetricGraph, cut: int) -> frozenset:
    return frozenset((a, b) for i, (a, b, _) in enumerate(g.edges) if cut >> i & 1)


def brute_sparsest_vertex_cut(
    g: MetricGraph,
    cap: dict[int, Fraction],
    dem: DemandMatrix,
) -> tuple[frozenset, Fraction]:
    """min over vertex sets S of cap(S) / sum_i dem_i * credit_i(S): a
    demand pair with one endpoint in S counts half, with both in S whole,
    and with neither whole iff g - S splits it.  With every weight
    doubled the credits are ints; the first S in mask order with the
    smallest ratio wins, and the empty set comes first (a disconnected
    demand pair gives 0)."""
    if g.n > DEFAULT_CONFIG.vertex_cut_max_n:
        raise TooLarge(f"n = {g.n} too large for 2^n enumeration")
    pairs, dem_scale = _int_pairs(dem.items())
    caps, cap_scale = _over_lcm([frac(cap[v]) for v in range(g.n)])
    best_low, best_sep, best_mask = 1, 0, 0
    incident = [_edge_mask(g, g.incident(v)) for v in range(g.n)]
    for mask, cut, low in _vertex_sets(incident, caps):
        root = _components(g, cut)
        sep = 0
        for (u, v, w) in pairs:
            inside = (mask >> u & 1) + (mask >> v & 1)
            if inside or root[u] != root[v]:
                sep += w if inside == 1 else 2 * w
        if sep and low * best_sep < best_low * sep:
            best_low, best_sep, best_mask = low, sep, mask
    if not best_sep:
        raise NoSeparatedDemand("no vertex set separates any demand")
    s = frozenset(v for v in range(g.n) if best_mask >> v & 1)
    return s, Fraction(best_low * 2 * dem_scale, best_sep * cap_scale)


def brute_sparsest_edge_cut(
    g: MetricGraph,
    caps: PolymatroidCaps,
    dem: DemandMatrix,
) -> tuple[frozenset, Fraction]:
    """Sparsest edge cut: min over edge sets S of nu(S) / sep(S).  The
    empty set is one, so a demand pair in two components gives 0.

    With vertex capacities, nu(S) is the cheapest vertex cover of S, and
    covering more edges only separates more demand, so the minimum is
    attained by the edges at some vertex set C (Chekuri-Kannan-Raja-
    Viswanath, ITCS 2012): 2^n vertex sets instead of 2^|E| edge sets.
    Polymatroid tables keep the edge-set enumeration, with nu(S) from
    ``_min_assignment``, the search that ``nu`` runs, cut off at the
    bound a new best must beat.  They skip every S with an edge e whose
    ends lie in one component of g - S: S - e separates the same demand,
    costs no more (rho is monotone), and comes first in mask order, so
    S is never the first minimum and the result is that of the full
    enumeration."""
    if len(g.edges) > DEFAULT_CONFIG.edge_cut_max_edges:
        raise TooLarge(f"|E| = {len(g.edges)} too large for enumeration")
    if caps.is_vertex_form():
        return _vertex_cover_cut(g, caps.vertex_caps, dem)
    return _table_cut(g, caps, dem)


def _vertex_cover_cut(
    g: MetricGraph, cap: dict[int, Fraction], dem: DemandMatrix
) -> tuple[frozenset, Fraction]:
    """min over the vertex sets C of the vertices with an edge of
    cap(C) / sep(edges at C); the first C in mask order with the
    smallest ratio wins.  A vertex without edges adds capacity (>= 0)
    and no cut edge, so no set holding one is ever the first minimum."""
    incident = [_edge_mask(g, g.incident(v)) for v in range(g.n)]
    touched = [v for v in range(g.n) if incident[v]]
    pairs, dem_scale = _int_pairs(dem.items())
    caps, cap_scale = _over_lcm([cap.get(v, Fraction(0)) for v in touched])
    best_low, best_sep, best_cut = 1, 0, 0
    for _, cut, low in _vertex_sets([incident[v] for v in touched], caps):
        root = _components(g, cut)
        sep = sum(w for (u, v, w) in pairs if root[u] != root[v])
        if sep and low * best_sep < best_low * sep:
            best_low, best_sep, best_cut = low, sep, cut
    if not best_sep:
        raise NoSeparatedDemand("no edge set separates any demand")
    return _edges_of(g, best_cut), Fraction(best_low * dem_scale, best_sep * cap_scale)


def _table_cut(
    g: MetricGraph, caps: PolymatroidCaps, dem: DemandMatrix
) -> tuple[frozenset, Fraction]:
    """Edge-set enumeration for polymatroid tables.  An edge set with an
    edge inside one component of g - S is skipped (see
    ``brute_sparsest_edge_cut``); any other is searched with the bound
    ceil(best_low * sep / best_sep), below which an int low must lie to
    give a strictly smaller ratio, so the first minimum is unchanged."""
    incident = {v: g.incident(v) for v in range(g.n)}
    ends, table, scale = _int_tables(caps, [(a, b) for (a, b, _) in g.edges], incident)
    pairs, dem_scale = _int_pairs(dem.items())
    best_low, best_sep, best_cut = 1, 0, 0
    for cut in range(1 << len(ends)):
        root = _components(g, cut)
        sep = sum(w for (u, v, w) in pairs if root[u] != root[v])
        if not sep:
            continue
        picked = [e for i, e in enumerate(ends) if cut >> i & 1]
        if any(root[a] == root[b] for (a, b, _, _) in picked):
            continue
        bound = -(-best_low * sep // best_sep) if best_sep else None
        found = _min_assignment(picked, table, bound)
        if found is not None:
            best_low, best_sep, best_cut = found[0], sep, cut
    if not best_sep:
        raise NoSeparatedDemand("no edge set separates any demand")
    return _edges_of(g, best_cut), Fraction(best_low * dem_scale, best_sep * scale)


def _int_tables(caps: PolymatroidCaps, edges: list[Edge], incident: dict[int, list]):
    """``_min_assignment``'s input: each edge (a, b) as (a, b, its bit in
    incident[a], its bit in incident[b]), and each rho_v as a list
    indexed by bitmasks over incident[v], in ints over one common scale:
    (ends, table, scale).  In vertex form a table is 0 and then cap(v)
    on every nonempty mask, with no rho call per mask."""
    ends = [(a, b, 1 << incident[a].index((a, b)), 1 << incident[b].index((a, b)))
            for (a, b) in edges]
    if caps.vertex_caps is not None:
        ints, scale = _over_lcm([caps.vertex_caps.get(v, Fraction(0)) for v in incident])
        return ends, {v: [0] + [c] * ((1 << len(inc)) - 1)
                      for (v, inc), c in zip(incident.items(), ints)}, scale
    values = {v: [caps.rho(v, [e for i, e in enumerate(inc) if m >> i & 1])
                  for m in range(1 << len(inc))] for v, inc in incident.items()}
    scale = math.lcm(*(x.denominator for vals in values.values() for x in vals))
    return ends, {v: [x.numerator * (scale // x.denominator) for x in vals]
                  for v, vals in values.items()}, scale


def _min_assignment(ends, table, bound=None) -> Optional[tuple[int, int]]:
    """(low, sides) for the first minimum, in ``itertools.product`` order,
    over the assignments of each edge (a, b, bit_a, bit_b) of ``ends`` to
    one endpoint of sum_v table[v][bits of the edges at v], where bit i
    of sides is 1 iff ends[i] goes to b; None if none is below ``bound``.
    Depth-first, cutting off a partial sum that reaches the best so far
    or ``bound``: exact for monotone tables, where no completion is less."""
    held = dict.fromkeys(table, 0)
    best = [math.inf if bound is None else bound, None]
    if 0 < best[0]:  # 0, the empty assignment's sum, is every sum's floor
        _extend(ends, table, held, 0, 0, 0, best)
    return None if best[1] is None else (best[0], best[1])


def _extend(ends, table, held, i, total, sides, best) -> None:
    """Every completion below best[0] of an assignment of ends[:i] with
    sum ``total`` and per-vertex masks ``held``; a complete one sets best."""
    if i == len(ends):
        best[0], best[1] = total, sides
        return
    a, b, bit_a, bit_b = ends[i]
    for v, bit, side in ((a, bit_a, 0), (b, bit_b, 1 << i)):
        t, h = table[v], held[v]
        step = total + t[h | bit] - t[h]
        if step < best[0]:
            held[v] = h | bit
            _extend(ends, table, held, i + 1, step, sides | side, best)
            held[v] = h


# -- concurrent flow LP -------------------------------------------------


@dataclass
class FlowSolution:
    epsilon: Fraction
    # (commodity index, tail, head) -> flow
    flows: dict[tuple[int, int, int], Fraction]
    commodities: list[tuple[int, int, Fraction]]


def _mcf_lp_rows(g: MetricGraph, dem: DemandMatrix, cap_rows):
    """Concurrent-flow LP: per-commodity conservation rows, then one '<='
    row per (edge set, rhs) in ``cap_rows`` bounding the total flow, over
    all commodities and both directions, on the arcs of those edges.

    Edge i = (a, b) of ``g.edges`` carries arc 2i, a -> b, and arc 2i + 1,
    b -> a; commodity c's flow on arc j is variable c * 2m + j, and
    epsilon is the last.  Rows are read off ``g.incident``: a vertex other
    than the source has a conservation row iff it has an edge or is the
    sink.  Flow coefficients are the ints 0 and +-1; epsilon's is -d."""
    commodities = dem.items()
    arcs = [arc for (u, v, _) in g.edges for arc in ((u, v), (v, u))]
    arc_of = {arcs[j]: j for j in range(0, len(arcs), 2)}
    n_arc = len(arcs)
    nvar = len(commodities) * n_arc + 1
    incident = [g.incident(v) for v in range(g.n)]
    rows = []
    for ci, (s, t, d) in enumerate(commodities):
        base = ci * n_arc
        for v, inc in enumerate(incident):
            if v == s or not (inc or v == t):
                continue
            coeffs = [0] * nvar
            for e in inc:
                # Arc j enters v and its reverse j ^ 1 leaves it: arc 2i
                # runs into e[1], and base is even.
                j = base + arc_of[e] + (v == e[0])
                coeffs[j], coeffs[j ^ 1] = 1, -1
            if v == t:
                coeffs[-1] = -d
            rows.append((coeffs, "=", Fraction(0)))
    for edge_set, rhs in cap_rows:
        coeffs = [0] * nvar
        for e in edge_set:
            for j in range(arc_of[e], nvar - 1, n_arc):
                coeffs[j] = coeffs[j + 1] = 1
        rows.append((coeffs, "<=", rhs))
    objective = [Fraction(0)] * nvar
    objective[-1] = Fraction(1)
    return objective, rows, commodities, arcs


def _solve_mcf(g: MetricGraph, dem: DemandMatrix, cap_rows) -> tuple[FlowSolution, list]:
    """Solve the concurrent-flow LP and check the optimum exactly.  Also
    returns the optimal multiplier of each capacity row, in order, read
    off the same solve: they are the LP's only inequality rows."""
    if not dem.items():
        return FlowSolution(Fraction(0), {}, []), []
    objective, rows, commodities, arcs = _mcf_lp_rows(g, dem, cap_rows)
    res = solve_lp(objective, rows, maximize=True)
    check_solution(objective, rows, res.x)
    flows = {}
    n_arc = len(arcs)
    for ci in range(len(commodities)):
        for ai, (a, b) in enumerate(arcs):
            f = res.x[ci * n_arc + ai]
            if f:
                flows[(ci, a, b)] = f
    return FlowSolution(res.objective, flows, commodities), list(res.duals.values())


def _vertex_cap_rows(g: MetricGraph, cap, endpoint_factor: int):
    """Capacity rows of the vertex form, keyed by vertex: one
    (``g.incident(w)``, endpoint_factor * cap(w)) per vertex w with an
    edge, in vertex order.  A negative capacity raises NegativeEntry."""
    cap = PolymatroidCaps.from_vertex_caps(cap).vertex_caps
    return {
        w: (g.incident(w), endpoint_factor * cap.get(w, Fraction(0)))
        for w in range(g.n) if g.incident(w)
    }


def mcf_vertex_lp(
    g: MetricGraph, cap, dem: DemandMatrix, endpoint_factor: int = 2
) -> FlowSolution:
    """Maximum concurrent flow under vertex capacities.

    endpoint_factor=2 is the half-credit-at-endpoints convention (the
    constraint reads sum of incidences <= 2 cap); endpoint_factor=1 is
    the vertex-capacity polymatroid form."""
    return _solve_mcf(g, dem, _vertex_cap_rows(g, cap, endpoint_factor).values())[0]


def mcf_dual_vertex(
    g: MetricGraph, cap, dem: DemandMatrix, endpoint_factor: int = 2
) -> tuple[dict[Edge, Fraction], AdaptedLengths, Fraction]:
    """Optimal dual of the concurrent-flow LP as length functions.

    One solve of ``mcf_vertex_lp``'s LP: t_v is the multiplier of v's
    capacity row, read off the final reduced costs.  Returns (edge
    lengths len = t_u + t_v, the adapted family ell_v(e) = t_v, the flow
    value).  Certified exactly, else InvariantViolation: t >= 0, sum
    factor * cap(v) * t_v is the flow value, and sum_i d_i *
    dist_len(s_i, t_i) >= 1, so by weak duality t is optimal."""
    if not dem.items():
        raise ZeroDenominator("no demands")
    cap_rows = _vertex_cap_rows(g, cap, endpoint_factor)
    sol, duals = _solve_mcf(g, dem, cap_rows.values())
    t = dict(zip(cap_rows, duals))
    if any(x < 0 for x in t.values()):
        raise InvariantViolation("negative vertex length")
    value = sum((rhs * t[v] for v, (_, rhs) in cap_rows.items()), Fraction(0))
    if value != sol.epsilon:
        raise InvariantViolation(f"dual objective {value} != flow {sol.epsilon}")
    length = {(u, v): t[u] + t[v] for (u, v, _) in g.edges}
    if _demand_distance(g, length, dem) < 1:
        raise InvariantViolation("demand-weighted dual distance below 1")
    ell = {w: {e: t[w] for e in g.incident(w)} for w in range(g.n)}
    return length, AdaptedLengths(ell, length), sol.epsilon


def _demand_distance(g: MetricGraph, length: dict[Edge, Fraction], dem: DemandMatrix):
    """sum over demand pairs of dem * shortest-path distance under
    ``length``; math.inf when a pair is disconnected.  One int Dijkstra
    per demand source, over the lengths scaled to ints."""
    adj, M = int_adjacency(g.n, [(u, v, length[u, v]) for (u, v, _) in g.edges])
    rows: dict[int, list] = {}
    total = Fraction(0)
    for (u, v, w) in dem.items():
        if u not in rows:
            rows[u] = int_dijkstra(adj, u)
        t = rows[u][v]
        if t == math.inf:
            return math.inf
        total += w * t
    return total / M


def dual_objective(
    g: MetricGraph,
    ell: AdaptedLengths,
    caps: PolymatroidCaps,
    dem: DemandMatrix,
) -> Fraction:
    """Evaluate sum_v rho_hat_v(ell_v) / sum dem * d_len exactly; 0 when
    a demand pair is disconnected (infinite distance under any length)."""
    ell.check_adapted()
    denom = _demand_distance(g, ell.length, dem)
    if denom == math.inf:
        return Fraction(0)
    if denom == 0:
        raise ZeroDenominator("all demand pairs at dual distance zero")
    numer = sum(
        (rho_hat(caps, v, ell.ell.get(v, {})) for v in range(g.n)), Fraction(0)
    )
    return numer / denom


def mcf_polymatroid_lp(
    g: MetricGraph, caps: PolymatroidCaps, dem: DemandMatrix
) -> FlowSolution:
    """Concurrent flow under general polymatroid capacities: for every
    vertex v and nonempty subset A of its incident edges, the total flow
    crossing A is at most rho_v(A)."""
    if caps.is_vertex_form():
        return mcf_vertex_lp(g, caps.vertex_caps, dem, endpoint_factor=1)

    def cap_rows():
        for w in range(g.n):
            inc = g.incident(w)
            for r in range(1, len(inc) + 1):
                for sub in itertools.combinations(inc, r):
                    yield sub, caps.rho(w, sub)

    return _solve_mcf(g, dem, cap_rows())[0]
