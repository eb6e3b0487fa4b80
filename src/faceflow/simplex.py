"""Two-phase tableau simplex over exact rationals.

Small desk-scale LPs only.  Variables are nonnegative; rows may be
'<=', '>=', or '='.  The tableau is stored dense, but a pivot touches
only the nonzero columns of the pivot row, and only in the rows with a
nonzero entry in the pivot column.  The reduced costs are kept as one
more tableau row, which every pivot updates like the others; its
right-hand side is minus the objective.  Dantzig pricing with an
automatic switch to Bland's rule guards against cycling.  An LP with
no optimum raises ``Infeasible`` or ``Unbounded``, and running out of
pivots raises ``IterationLimit``.  The optimal multiplier of each
inequality row is read off the final reduced-cost row, so one solve
gives the primal and the dual.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import Infeasible, IterationLimit, Unbounded

_ZERO = Fraction(0)
_BLAND_AFTER = 2000
_MAX_ITERS = 200_000
_HOLDS = {"<=": operator.le, ">=": operator.ge, "=": operator.eq}


@dataclass
class LPResult:
    objective: Fraction
    x: list[Fraction]
    duals: dict[int, Fraction] = field(default_factory=dict)  # see solve_lp


def solve_lp(objective, rows, maximize: bool = True) -> LPResult:
    """Solve max/min objective . x subject to rows, x >= 0.

    ``objective``: list of Fractions (length n).
    ``rows``: list of (coeffs, relation, rhs) with relation in
    '<=', '>=', '='.  Returns an optimum; raises Infeasible, Unbounded,
    or IterationLimit when either phase runs past ``_MAX_ITERS`` pivots.

    ``duals`` maps each '<=' or '>=' row i to its optimal multiplier y_i
    (y_i >= 0 on a '<=' row of a max LP), read off the final reduced
    cost of the row's slack column; sum_i y_i * rhs_i is the objective
    when no row is '='.  '=' rows get none: their artificial columns are
    zeroed before phase 2.
    """
    n = len(objective)
    c = [Fraction(v) for v in objective]
    if not maximize:
        c = [-v for v in c]

    # Normalize rows to rhs >= 0; flip[i] is -1 where row i was negated.
    norm = []
    flip = []
    for coeffs, rel, rhs in rows:
        coeffs = [Fraction(v) for v in coeffs]
        rhs = Fraction(rhs)
        flip.append(-1 if rhs < 0 else 1)
        if rhs < 0:
            coeffs = [-v for v in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        norm.append((coeffs, rel, rhs))

    m = len(norm)
    n_slack = sum(1 for (_, rel, _) in norm if rel in ("<=", ">="))
    n_art = sum(1 for (_, rel, _) in norm if rel in (">=", "="))
    total = n + n_slack + n_art

    # Build tableau: m constraint rows of length total+1 (last column
    # rhs), then the reduced-cost row at index m.
    tab = []
    basis = []
    si = n
    ai = n + n_slack
    art_cols = []
    # Row index -> (its slack column, the sign taking d[slack] to y_i).
    slack_of = {}
    for i, (coeffs, rel, rhs) in enumerate(norm):
        row = coeffs + [_ZERO] * (n_slack + n_art) + [rhs]
        if rel == "<=":
            row[si] = Fraction(1)
            basis.append(si)
            slack_of[i] = (si, -flip[i])
            si += 1
        elif rel == ">=":
            row[si] = Fraction(-1)
            slack_of[i] = (si, flip[i])
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
    tab.append([])

    def pivot(r: int, col: int):
        # Only the nonzero columns of the pivot row change any row; zeros
        # elsewhere would add a - f * 0 = a.
        prow = tab[r]
        inv = Fraction(1) / prow[col]
        entries = [(j, v * inv) for j, v in enumerate(prow) if v]
        for j, b in entries:
            prow[j] = b
        for i in range(m + 1):
            row = tab[i]
            f = row[col]
            if f and i != r:
                for j, b in entries:
                    row[j] -= f * b
        basis[r] = col

    def run_phase(cost: list[Fraction]) -> Fraction:
        # Maximize cost . x: price out the starting basis once, then let
        # the pivots keep the reduced-cost row current.
        d = cost + [_ZERO]
        for i in range(m):
            cb = cost[basis[i]]
            if cb:
                for j, b in enumerate(tab[i]):
                    if b:
                        d[j] -= cb * b
        tab[m] = d
        iters = 0
        while True:
            iters += 1
            if iters > _MAX_ITERS:
                raise IterationLimit(f"simplex iteration limit {_MAX_ITERS} hit")
            d = tab[m]
            if iters > _BLAND_AFTER:
                enter = next((j for j in range(total) if d[j] > 0), -1)
            else:
                # Largest reduced cost; index() picks the lowest on a tie.
                best = max(d[:total], default=_ZERO)
                enter = d.index(best) if best > 0 else -1
            if enter < 0:
                return -d[-1]
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
                raise Unbounded("objective unbounded")
            pivot(leave, enter)

    if art_cols:
        phase1 = [_ZERO] * total
        for j in art_cols:
            phase1[j] = Fraction(-1)
        if run_phase(phase1) != 0:
            raise Infeasible("no point satisfies every row")
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

    obj = run_phase(c + [_ZERO] * (n_slack + n_art))
    x = [_ZERO] * total
    for i, b in enumerate(basis):
        x[b] = tab[i][-1]
    # Undo the negated objective of a min LP.
    sense = 1 if maximize else -1
    duals = {i: sense * s * tab[m][j] for i, (j, s) in slack_of.items()}
    return LPResult(sense * obj, x[:n], duals)


def check_solution(objective, rows, x) -> Fraction:
    """Substitute x into all rows exactly; raises Infeasible on any
    violation and returns the exact objective value."""
    for coeffs, rel, rhs in rows:
        lhs = sum((Fraction(a) * xi for a, xi in zip(coeffs, x) if a and xi), _ZERO)
        rhs = Fraction(rhs)
        if not _HOLDS[rel](lhs, rhs):
            raise Infeasible(f"constraint violated: {lhs} {rel} {rhs}")
    for xi in x:
        if xi < 0:
            raise Infeasible("negative variable value")
    return sum(
        (Fraction(ci) * xi for ci, xi in zip(objective, x) if ci and xi), _ZERO
    )
