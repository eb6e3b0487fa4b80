"""Dense two-phase simplex over exact rationals.

Small desk-scale LPs only.  Variables are nonnegative; rows may be
'<=', '>=', or '='.  Dantzig pricing with an automatic switch to Bland's
rule guards against cycling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import Infeasible, IterationLimit, Unbounded

_ZERO = Fraction(0)
_BLAND_AFTER = 2000
_MAX_ITERS = 200_000


@dataclass
class LPResult:
    status: str               # 'optimal', 'infeasible', 'unbounded'
    objective: Fraction | None
    x: list[Fraction] | None


def solve_lp(objective, rows, maximize: bool = True) -> LPResult:
    """Solve max/min objective . x subject to rows, x >= 0.

    ``objective``: list of Fractions (length n).
    ``rows``: list of (coeffs, relation, rhs) with relation in
    '<=', '>=', '='.  Raises IterationLimit when either phase runs past
    ``_MAX_ITERS`` pivots.
    """
    n = len(objective)
    c = [Fraction(v) for v in objective]
    if not maximize:
        c = [-v for v in c]

    # Normalize rows to rhs >= 0.
    norm = []
    for coeffs, rel, rhs in rows:
        coeffs = [Fraction(v) for v in coeffs]
        rhs = Fraction(rhs)
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        norm.append((coeffs, rel, rhs))

    m = len(norm)
    n_slack = sum(1 for (_, rel, _) in norm if rel in ("<=", ">="))
    n_art = sum(1 for (_, rel, _) in norm if rel in (">=", "="))
    total = n + n_slack + n_art

    # Build tableau: m rows of length total+1 (last column rhs).
    tab = []
    basis = []
    si = n
    ai = n + n_slack
    art_cols = []
    for coeffs, rel, rhs in norm:
        row = coeffs + [_ZERO] * (n_slack + n_art) + [rhs]
        if rel == "<=":
            row[si] = Fraction(1)
            basis.append(si)
            si += 1
        elif rel == ">=":
            row[si] = Fraction(-1)
            si += 1
            row[ai] = Fraction(1)
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        else:
            row[ai] = Fraction(1)
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        tab.append(row)

    def pivot(r: int, col: int):
        prow = tab[r]
        pv = prow[col]
        inv = Fraction(1) / pv
        tab[r] = [v * inv for v in prow]
        prow = tab[r]
        for i in range(m):
            if i == r:
                continue
            f = tab[i][col]
            if f:
                row_i = tab[i]
                tab[i] = [a - f * b for a, b in zip(row_i, prow)]
        basis[r] = col

    def run_phase(cost: list[Fraction]) -> Fraction:
        # cost has length total; maximize cost . x
        # reduced costs: z_j = cost_j - cB . column_j
        iters = 0
        while True:
            iters += 1
            if iters > _MAX_ITERS:
                raise IterationLimit(f"simplex iteration limit {_MAX_ITERS} hit")
            cb = [cost[b] for b in basis]
            bland = iters > _BLAND_AFTER
            enter = -1
            best = _ZERO
            for j in range(total):
                zj = cost[j]
                for i in range(m):
                    if cb[i]:
                        zj -= cb[i] * tab[i][j]
                if zj > 0:
                    if bland:
                        enter = j
                        break
                    if zj > best:
                        best = zj
                        enter = j
            if enter < 0:
                obj = _ZERO
                for i in range(m):
                    if cost[basis[i]]:
                        obj += cost[basis[i]] * tab[i][-1]
                return obj
            leave = -1
            best_ratio = None
            for i in range(m):
                a = tab[i][enter]
                if a > 0:
                    ratio = tab[i][-1] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                raise Unbounded("objective unbounded above")
            pivot(leave, enter)

    if art_cols:
        phase1 = [_ZERO] * total
        for j in art_cols:
            phase1[j] = Fraction(-1)
        obj1 = run_phase(phase1)
        if obj1 != 0:
            return LPResult("infeasible", None, None)
        # Drive remaining artificials out of the basis.
        art_set = set(art_cols)
        for i in range(m):
            if basis[i] in art_set:
                for j in range(total):
                    if j not in art_set and tab[i][j] != 0:
                        pivot(i, j)
                        break
        # Forbid artificials from re-entering by zeroing their columns.
        for i in range(m):
            for j in art_cols:
                tab[i][j] = _ZERO

    phase2 = c + [_ZERO] * (n_slack + n_art)
    try:
        obj = run_phase(phase2)
    except Unbounded:
        return LPResult("unbounded", None, None)

    x = [_ZERO] * total
    for i, b in enumerate(basis):
        x[b] = tab[i][-1]
    sol = x[:n]
    if not maximize:
        obj = -obj
    return LPResult("optimal", obj, sol)


def check_solution(objective, rows, x) -> Fraction:
    """Substitute x into all rows exactly; raises Infeasible on any
    violation and returns the exact objective value."""
    for coeffs, rel, rhs in rows:
        lhs = sum((Fraction(a) * xi for a, xi in zip(coeffs, x)), _ZERO)
        rhs = Fraction(rhs)
        ok = {
            "<=": lhs <= rhs,
            ">=": lhs >= rhs,
            "=": lhs == rhs,
        }[rel]
        if not ok:
            raise Infeasible(f"constraint violated: {lhs} {rel} {rhs}")
    for xi in x:
        if xi < 0:
            raise Infeasible("negative variable value")
    return sum((Fraction(ci) * xi for ci, xi in zip(objective, x)), _ZERO)
