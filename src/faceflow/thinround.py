"""Random thinning of star-shaped tree maps and cut rounding.

thin_map converts a star-shaped 1-Lipschitz tree map into a random
4-thin one by folding, bottom-up at every tree vertex, the arms carrying
graph edges onto two vertical branches; a fold keeps every tick depth,
so the tree is built once, at the end, from parents and depths.  round_thin
turns a thin map plus adapted lengths into a sparse cut certificate, and
multiscale_round runs the dyadic preprocessing + sample loop on top: the
one loop gap_experiment and ``faceflow round`` share, which checks every
exact certificate against the rounding lemma's bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .config import DEFAULT_CONFIG
from .errors import (
    HypothesisViolated,
    InvariantViolation,
    NoSeparatedDemand,
    NotStarShaped,
)
from .graph import MetricGraph
from .polyflow import (
    AdaptedLengths,
    DemandMatrix,
    PolymatroidCaps,
    _components,
    _separated,
    assignment_value,
    nu,
    rho_hat,
)
from .tree import MetricTree, TreeMap, union_below
from .treeembed import is_star_shaped, is_thin

Edge = tuple[int, int]


def thin_map(
    tm: TreeMap,
    seed: int,
    _choice_fn=None,
) -> TreeMap:
    """Random 4-thin, 1-Lipschitz image of a star-shaped tree map.

    Star shape, thinness and the Lipschitz bound refer to the edges of
    ``tm.source``, which the result keeps as its source.

    ``_choice_fn(tree_vertex, k)`` may supply the branch bits (one per
    arm) deterministically; used by exhaustive-enumeration tests."""
    rng = random.Random(f"thin:{seed}")
    if _choice_fn is None:
        def _choice_fn(x, k):
            # tuple() of a list, not of a generator: see sample_padded_partition.
            return tuple([rng.randrange(2) for _ in range(k)])

    tree = tm.tree
    if not tree.is_tree():
        raise ValueError("tree map must live on a connected tree")

    # Fiber adjacency in terms of original tree vertices.
    fiber_nbrs: dict[int, set[int]] = {}
    for (a, b, _) in tm.source.edges:
        fa, fb = tm.mapping[a], tm.mapping[b]
        if fa != fb:
            fiber_nbrs.setdefault(fa, set()).add(fb)
            fiber_nbrs.setdefault(fb, set()).add(fa)

    # New id i has parent par[i] and lies dep[i] ticks below the root; a
    # fold keeps every depth, and a vertex it merges into a branch point
    # moves there, its children following through ``find``.
    par: list = []
    dep: list[int] = []
    moved: dict[int, int] = {}
    first: dict[int, int] = {}  # input vertex -> its id, taken in preorder

    def new_id(p, d: int) -> int:
        par.append(p)
        dep.append(d)
        return len(par) - 1

    def find(i: int) -> int:
        while i in moved:
            i = moved[i]
        return i

    stack = [(tm.root, None, 0)]
    while stack:
        x, p, d = stack.pop()
        if x not in first:
            first[x] = new_id(first.get(p), d)
            stack.append((x, p, d))  # back once every child is done
            kids = [(c, x, d + w) for c, w in tree.adj[x].items() if c != p]
            stack.extend(reversed(kids))
            continue
        # Every id taken since x's is in x's subtree.
        r = first[x]
        targets = sorted({find(first[y]) for y in fiber_nbrs.get(x, ())
                          if first.get(y, -1) > r})
        if not targets:
            continue

        # H, the paths from r to the targets: below[v] counts v's children
        # on H, in the order the climb meets them (the error names the first).
        below = union_below(lambda v: find(par[v]), r, targets)
        for v, k in below.items():
            if k > 1 and v != r:
                raise NotStarShaped(
                    f"arm union branches at {v}, map is not star-shaped"
                )
        leaves = sorted(v for v, k in below.items() if k == 0)
        bits = _choice_fn(x, len(leaves))

        # Fold: a root with two vertical branches; each arm lands on one
        # branch at its own depths; same-depth points merge, and a point
        # at r's depth is the new root.
        r_new = new_id(par[r], dep[r])
        point: dict[tuple[int, int], int] = {}
        for leaf, b in zip(leaves, bits):
            arm, v = [], leaf
            while v != r:
                arm.append(v)
                v = find(par[v])
            for v in reversed(arm):
                key = (b, dep[v])
                if dep[v] > dep[r] and key not in point:
                    point[key] = new_id(None, dep[v])
                moved[v] = point.get(key, r_new)
        moved[r] = r_new
        last = [r_new, r_new]
        for (b, _), i in sorted(point.items()):
            par[i] = last[b]
            last[b] = i

    # The tree on the live ids, in id order.
    adj: dict[int, dict[int, int]] = {i: {} for i in range(len(par)) if i not in moved}
    for i in adj:
        if par[i] is not None:
            p = find(par[i])
            adj[i][p] = adj[p][i] = dep[i] - dep[p]
    result = MetricTree(tree.D)
    result.adj = adj
    mapping = {u: find(first[tv]) for u, tv in tm.mapping.items()}
    return TreeMap(result, mapping, tm.source, root=find(first[tm.root]))


# -- rounding -----------------------------------------------------------


@dataclass
class CutCertificate:
    """From ``round_thin``: the cut of ``tree_edge``, the least of the thin
    tree's cuts in (sparsity, edge mask over ``g.edges``, tree edge)."""

    edges: frozenset
    assignment: dict[Edge, int]
    nu_value: Fraction
    separated: Fraction
    sparsity: Fraction
    exact: bool
    tree_edge: Optional[tuple[int, int]] = None


class CutMemo:
    """The per-instance values of ``round_thin``'s cuts, computed once per
    distinct cut: its separated demand and, for cuts of at most
    ``nu_brute_limit`` edges, nu's exact (value, assignment).  Keys are
    edge masks, bit i for ``g.edges[i]``, as ``_components`` reads them.
    g, caps and dem are fixed for the memo's lifetime, so one memo serves
    every sample of a run, and ``pairs`` lists dem's positive pairs once
    for all of them."""

    def __init__(self, g: MetricGraph, caps: PolymatroidCaps, dem: DemandMatrix):
        self.g, self.caps, self.dem = g, caps, dem
        self.pairs = dem.items()
        self._sep: dict[int, Fraction] = {}
        self._nu: dict[int, tuple[Fraction, dict[Edge, int]]] = {}

    def separated(self, mask: int) -> Fraction:
        if mask not in self._sep:
            self._sep[mask] = _separated(_components(self.g, mask), self.pairs)
        return self._sep[mask]

    def exact_nu(self, mask: int) -> tuple[Fraction, dict[Edge, int]]:
        """nu of the edges of ``mask``, listed in ``g.edges`` order.  The
        assignment is shared: copy it before handing it out."""
        if mask not in self._nu:
            cut = [e[:2] for i, e in enumerate(self.g.edges) if mask >> i & 1]
            self._nu[mask] = nu(cut, self.caps)
        return self._nu[mask]


def round_thin(
    g: MetricGraph,
    tm: TreeMap,
    ell: AdaptedLengths,
    caps: PolymatroidCaps,
    dem: DemandMatrix,
    memo: Optional[CutMemo] = None,
) -> CutCertificate:
    """Best cut among the tree-edge cuts S(a) of a thin map: the least in
    (sparsity, edge mask over ``g.edges``, tree edge (a, b)), whatever
    order the tree was built in; ties go by mask as in the edge-cut oracle.

    The cuts range over the edges of ``g``, not of ``tm.source``.
    Requires tree-adaptedness d_T(F(u),F(v)) <= ell_u(e) + ell_v(e); for
    a map delta-thin on g the returned sparsity satisfies the delta * sum
    rho_hat / sum dem d_T bound whenever every nu was computed exactly.

    Separated demands and exact nu values are read through ``memo``, a
    ``CutMemo(g, caps, dem)``; a caller rounding many maps of one
    instance passes the same memo to every call, and a call without one
    uses a fresh memo.  Each cut is listed in ``g.edges`` order, so nu
    breaks ties as a direct call would.  The sweep branch (more than
    ``nu_brute_limit`` edges) depends on the map and is not memoised.
    Every certificate owns its assignment dict."""
    if memo is None:
        memo = CutMemo(g, caps, dem)
    elif (memo.g, memo.caps, memo.dem) != (g, caps, dem):
        raise ValueError("memo was built for another graph, caps or demands")
    tree, f = tm.tree, tm.mapping
    D = tree.D
    zero = Fraction(0)
    for (u, v, _) in g.edges:
        e = (u, v)
        t = tree.tick_dist(f[u], f[v])
        lu = ell.ell.get(u, {}).get(e, zero)
        lv = ell.ell.get(v, {}).get(e, zero)
        # t / D > lu + lv, cross-multiplied.
        ud, vd = lu.denominator, lv.denominator
        if t * ud * vd > (lu.numerator * vd + lv.numerator * ud) * D:
            raise HypothesisViolated(
                f"tree distance {Fraction(t, D)} exceeds ell_u + ell_v = {lu + lv}"
                f" on edge {e}"
            )
    best = None
    ends = [(f[u], f[v], i) for i, (u, v, _) in enumerate(g.edges)]
    for (a, b, w, idx) in tree.edge_cuts(ends):
        if not idx:
            continue
        mask = sum([1 << i for i in idx])
        sep = memo.separated(mask)
        if sep == 0:
            continue
        if len(idx) <= DEFAULT_CONFIG.nu_brute_limit:
            val, assign = memo.exact_nu(mask)
            exact = True
        else:
            cut = [g.edges[i][:2] for i in idx]
            # lambda-sweep heuristic: orient each cut edge (u, v) so its
            # path crosses the tree edge as (a, b); u keeps e while
            # d_T(f(u), a) + lambda <= ell_u(e), i.e. lambda <= t, and the
            # rule changes only where lambda hits such a t at either end.
            rules = []
            breaks = {zero, w}
            for e in cut:
                p = tree.path(f[e[0]], f[e[1]])
                u, v = e if p.index(a) < p.index(b) else e[::-1]
                tu, tv = (ell.ell.get(end, {}).get(e, zero) - tree.dist(f[end], a)
                          for end in (u, v))
                breaks.update(t for t in (tu, tv) if 0 <= t <= w)
                rules.append((e, u, v, tu))
            pts = sorted(breaks)
            cands = set(pts)
            for i in range(len(pts) - 1):
                cands.add((pts[i] + pts[i + 1]) / 2)
            val, assign, exact = None, None, False
            for lam in sorted(cands):
                a_ = {e: u if lam <= t else v for (e, u, v, t) in rules}
                v_ = assignment_value(a_, caps)
                if val is None or v_ < val:
                    val, assign = v_, a_
        rank = (val / sep, mask, (a, b))
        if best is None or rank < best[0]:
            best = (rank, idx, assign, val, sep, exact)
    if best is None:
        raise NoSeparatedDemand("no tree edge separates any demand")
    (sparsity, _, te), idx, assign, val, sep, exact = best
    cut = frozenset(g.edges[i][:2] for i in idx)
    return CutCertificate(cut, dict(assign), val, sep, sparsity, exact, te)


def rounding_bound(
    tm: TreeMap, ell: AdaptedLengths, caps: PolymatroidCaps, pairs, delta: int,
) -> Fraction:
    """delta * sum_v rho_hat_v(ell_v) / sum dem * d_T(F(u), F(v)), the
    demands given as ``pairs``, the (u, v, w) of ``DemandMatrix.items()``.

    Both sums are taken on ints over the lcm of their terms'
    denominators, the demand sum over tick distances, and one Fraction
    is made at the end."""
    terms = []
    for v, ell_v in ell.ell.items():
        r = rho_hat(caps, v, ell_v)
        terms.append((r.numerator, r.denominator))
    n_num, n_den = _int_sum(terms)
    tree, f = tm.tree, tm.mapping
    d_num, d_den = _int_sum(
        [(w.numerator * tree.tick_dist(f[u], f[v]), w.denominator)
         for (u, v, w) in pairs]
    )
    if d_num == 0:
        raise NoSeparatedDemand("demands have zero tree distance")
    # (delta * n_num / n_den) / (d_num / (d_den * D))
    return Fraction(delta * n_num * d_den * tree.D, n_den * d_num)


def _int_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """Sum of the fractions n/d of ``terms`` as (numerator, denominator)
    over the lcm of the denominators."""
    den = math.lcm(*[d for _, d in terms])
    return sum(n * (den // d) for n, d in terms), den


# -- multi-scale rounding ----------------------------------------------


def _pow2_ceil(x: Fraction) -> Fraction:
    """Least power of two >= x, or 0 for x <= 0.  With k the bit length
    of the numerator less that of the denominator, 2^(k-1) < x < 2^(k+1),
    so the answer is 2^k or, when x > 2^k, 2^(k+1)."""
    if x <= 0:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    k = n.bit_length() - d.bit_length()
    if n << max(-k, 0) > d << max(k, 0):
        k += 1
    return Fraction(2) ** k


def dyadic_preprocess(g: MetricGraph, ell: AdaptedLengths) -> AdaptedLengths:
    """Scale each edge's pair down so ell_u + ell_v = len, then round both
    up to powers of two.  Output: pointwise >= scaled input, < 2x, and
    len >= (ell_u + ell_v) / 2."""
    new_ell: dict[int, dict[Edge, Fraction]] = {v: {} for v in ell.ell}
    for (u, v, w) in g.edges:
        e = (u, v)
        lu = ell.ell.get(u, {}).get(e, Fraction(0))
        lv = ell.ell.get(v, {}).get(e, Fraction(0))
        s = lu + lv
        if s > 0:
            scale = w / s
            lu, lv = lu * scale, lv * scale
        new_ell.setdefault(u, {})[e] = _pow2_ceil(lu)
        new_ell.setdefault(v, {})[e] = _pow2_ceil(lv)
    return AdaptedLengths(new_ell, dict(ell.length))


def tilde_lengths(
    g: MetricGraph, tm: TreeMap, ell: AdaptedLengths
) -> AdaptedLengths:
    """Per-sample tree-adapted lengths: zero on the strictly smaller side
    of each edge, tree-stretch-scaled on the other(s).  Zero-length edges
    get zero on both sides."""
    tree = tm.tree
    D = tree.D
    zero = Fraction(0)
    new_ell: dict[int, dict[Edge, Fraction]] = {v: {} for v in ell.ell}
    for (u, v, w) in g.edges:
        e = (u, v)
        lu = ell.ell.get(u, {}).get(e, zero)
        lv = ell.ell.get(v, {}).get(e, zero)
        if w == 0:
            new_ell.setdefault(u, {})[e] = zero
            new_ell.setdefault(v, {})[e] = zero
            continue
        # 2 * l * d_T / w with d_T = t / D, as one Fraction per side.
        t2 = 2 * tree.tick_dist(tm.mapping[u], tm.mapping[v]) * w.denominator
        dw = D * w.numerator
        un, ud, vn, vd = lu.numerator, lu.denominator, lv.numerator, lv.denominator
        new_ell.setdefault(u, {})[e] = (
            zero if un * vd < vn * ud else Fraction(un * t2, ud * dw)
        )
        new_ell.setdefault(v, {})[e] = (
            zero if vn * ud < un * vd else Fraction(vn * t2, vd * dw)
        )
    return AdaptedLengths(new_ell, dict(ell.length))


@dataclass
class RoundingReport:
    best: CutCertificate
    samples: int
    # samples whose thinned map separated some demand
    rounded: int
    # per-sample (sparsity, per-sample bound) pairs as floats
    sample_ratios: list[float]


def multiscale_round(
    g: MetricGraph,
    ell: AdaptedLengths,
    caps: PolymatroidCaps,
    dem: DemandMatrix,
    sample,
    samples: int,
    seed: int,
) -> RoundingReport:
    """Dyadic preprocessing, then per sample s = seed * 65 537 + i:
    ``sample(s)`` gives ``(emb, pull)``, a tree map to be 1-Lipschitz and
    star-shaped on its own source (e.g. a slack graph) and a map from each
    vertex of g to a vertex of that source.  Check emb, thin it, compose
    with pull, check 4-thinness on g, build the tilde lengths, round, and
    check each exact certificate against ``rounding_bound``; keep the
    sparsest.  One ``CutMemo`` serves all samples."""
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    ell.check_adapted()
    ell2 = dyadic_preprocess(g, ell)
    memo = CutMemo(g, caps, dem)
    best: Optional[CutCertificate] = None
    rounded = 0
    ratios: list[float] = []
    for i in range(samples):
        s = seed * 65_537 + i
        emb, pull = sample(s)
        if not emb.is_lipschitz():
            raise InvariantViolation("embedding is not 1-Lipschitz")
        if not is_star_shaped(emb):
            raise InvariantViolation("embedding is not star-shaped")
        t = thin_map(emb, s)
        thin = TreeMap(
            t.tree, {v: t.mapping[pull[v]] for v in range(g.n)}, g, root=t.root
        )
        if not is_thin(thin, DEFAULT_CONFIG.thinness):
            raise InvariantViolation("thinned map exceeds thinness bound")
        tl = tilde_lengths(g, thin, ell2)
        try:
            cert = round_thin(g, thin, tl, caps, dem, memo)
        except NoSeparatedDemand:
            continue
        rounded += 1
        try:
            bound = rounding_bound(thin, tl, caps, memo.pairs, DEFAULT_CONFIG.thinness)
        except NoSeparatedDemand:
            pass  # every demand at tree distance 0: no bound to check
        else:
            if cert.exact and cert.sparsity > bound:
                raise InvariantViolation(f"sparsity {cert.sparsity} > bound {bound}")
            ratios.append(float(cert.sparsity / bound) if bound else 0.0)
        if best is None or cert.sparsity < best.sparsity:
            best = cert
    if best is None:
        raise NoSeparatedDemand("no sample produced a separating cut")
    return RoundingReport(best, samples, rounded, ratios)
