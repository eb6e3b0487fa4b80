"""Two-phase tableau simplex over exact rationals.

Small desk-scale LPs only.  Variables are nonnegative; rows may be
'<=', '>=', or '='.  Each tableau row is a list of ints over one
positive row denominator; Fractions appear only at the input and the
output.  A pivot scales the pivot row by its pivot entry, and each row
with a nonzero entry in the pivot column becomes ``row * p - f * prow``
over ``den * p``, reduced by one gcd; rows with a zero there are not
touched.  The reduced costs are kept as one more tableau row, which
every pivot updates like the others; its right-hand side is minus the
objective.  Dantzig pricing with an automatic switch to Bland's rule
guards against cycling.  An LP with no optimum raises ``Infeasible``
or ``Unbounded``, and running out of pivots raises ``IterationLimit``.
The optimal multiplier of each inequality row is read off the final
reduced-cost row, so one solve gives the primal and the dual.
"""

from __future__ import annotations

import math
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


def _ints(values) -> tuple[list[int], int]:
    """Rationals (ints or Fractions) as ints over their least common
    denominator."""
    # A list, not a generator: unpacking a generator builds the argument
    # tuple by resizing, which strands tuples on the interpreter's free
    # lists until the next full collection.
    den = math.lcm(*[v.denominator for v in values if v])
    return [v.numerator * (den // v.denominator) if v else 0 for v in values], den


def solve_lp(objective, rows, maximize: bool = True) -> LPResult:
    """Solve max/min objective . x subject to rows, x >= 0.

    ``objective``: list of Fractions (length n).
    ``rows``: list of (coeffs, relation, rhs) with relation in
    '<=', '>=', '=' and n coeffs each, else ValueError.  Returns an
    optimum; raises Infeasible, Unbounded, or IterationLimit when either
    phase runs past ``_MAX_ITERS`` pivots.

    ``duals`` maps each '<=' or '>=' row i to its optimal multiplier y_i
    (y_i >= 0 on a '<=' row of a max LP), read off the final reduced
    cost of the row's slack column; sum_i y_i * rhs_i is the objective
    when no row is '='.  '=' rows get none: their artificial columns are
    zeroed before phase 2.
    """
    n = len(objective)
    # Normalize rows to ints over den > 0 with rhs >= 0; flip[i] is -1
    # where row i was negated.
    norm = []
    flip = []
    for i, (coeffs, rel, rhs) in enumerate(rows):
        if len(coeffs) != n:
            raise ValueError(f"row {i} has {len(coeffs)} coefficients, not {n}")
        row, d = _ints([*coeffs, rhs])
        flip.append(-1 if row[-1] < 0 else 1)
        if row[-1] < 0:
            row = [-v for v in row]
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        norm.append((row, d, rel))

    m = len(norm)
    n_slack = sum(1 for (_, _, rel) in norm if rel in ("<=", ">="))
    n_art = sum(1 for (_, _, rel) in norm if rel in (">=", "="))
    total = n + n_slack + n_art
    pad = [0] * (n_slack + n_art)

    # Build tableau: m constraint rows of length total+1 (last column
    # rhs), row i over den[i], then the reduced-cost row at index m.
    tab = []
    den = []
    basis = []
    si = n
    ai = n + n_slack
    art_cols = []
    # Row index -> (its slack column, the sign taking d[slack] to y_i).
    slack_of = {}
    for i, (row, d, rel) in enumerate(norm):
        row[n:] = pad + row[n:]
        if rel == "<=":
            row[si] = d
            basis.append(si)
            slack_of[i] = (si, -flip[i])
            si += 1
        elif rel == ">=":
            row[si] = -d
            slack_of[i] = (si, flip[i])
            si += 1
            row[ai] = d
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        else:
            row[ai] = d
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        tab.append(row)
        den.append(d)
    tab.append([])
    den.append(1)

    def eliminate(i: int, col: int, entries: list[tuple[int, int]], p: int):
        # Row i minus f times the pivot row / p, whose nonzero (column,
        # int) pairs are ``entries``, with p its entry at col: (row * p -
        # f * prow) / (den * p), f = row[col] cancelled against p first.
        row = tab[i]
        f = row[col]
        g = math.gcd(f, p)
        s, f = p // g, f // g
        if s != 1:
            row = [a * s for a in row]
        for j, b in entries:
            row[j] -= f * b
        d = den[i] * s
        g = math.gcd(d, *row)
        if g != 1:
            row = [a // g for a in row]
            d //= g
        tab[i] = row
        den[i] = d

    def pivot(r: int, col: int):
        # Scale row r by its pivot entry p: divide it by the gcd of its
        # entries, signed like p so that p, its new denominator, is
        # positive.  Then eliminate col from the other rows.
        prow = tab[r]
        p = prow[col]
        g = math.gcd(*prow) if p > 0 else -math.gcd(*prow)
        if g != 1:
            prow = [v // g for v in prow]
            p //= g
        tab[r] = prow
        den[r] = p
        entries = [(j, v) for j, v in enumerate(prow) if v]
        for i in range(m + 1):
            if i != r and tab[i][col]:
                eliminate(i, col, entries, p)
        basis[r] = col

    def run_phase(cost: list[int], cost_den: int) -> int:
        # Maximize cost . x: price out the starting basis once, then let
        # the pivots keep the reduced-cost row current.  The basis column
        # j of row i is 1 in row i (tab[i][j] == den[i]) and 0 in the
        # other rows, so pricing it out is eliminating j from row m.
        tab[m] = cost + [0]
        den[m] = cost_den
        for i in range(m):
            if tab[m][basis[i]]:
                entries = [(j, v) for j, v in enumerate(tab[i]) if v]
                eliminate(m, basis[i], entries, den[i])
        iters = 0
        while True:
            iters += 1
            if iters > _MAX_ITERS:
                raise IterationLimit(f"simplex iteration limit {_MAX_ITERS} hit")
            d = tab[m]
            # den[m] > 0, so the ints of row m order like its values.
            if iters > _BLAND_AFTER:
                enter = next((j for j in range(total) if d[j] > 0), -1)
            else:
                # Largest reduced cost; index() picks the lowest on a tie.
                best = max(d[:total], default=0)
                enter = d.index(best) if best > 0 else -1
            if enter < 0:
                return -d[-1]
            # Least ratio b_i / a_i over a_i > 0; the row denominator
            # cancels, so compare b_i * a_k < b_k * a_i.
            leave = -1
            for i in range(m):
                a = tab[i][enter]
                if a > 0:
                    b = tab[i][-1]
                    if (
                        leave < 0
                        or b * ka < kb * a
                        or (b * ka == kb * a and basis[i] < basis[leave])
                    ):
                        leave, kb, ka = i, b, a
            if leave < 0:
                raise Unbounded("objective unbounded")
            pivot(leave, enter)

    if art_cols:
        phase1 = [0] * total
        for j in art_cols:
            phase1[j] = -1
        if run_phase(phase1, 1) != 0:
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
                tab[i][j] = 0

    c, c_den = _ints(objective)
    if not maximize:
        c = [-v for v in c]
    obj = run_phase(c + pad, c_den)
    x = [_ZERO] * total
    for i, b in enumerate(basis):
        x[b] = Fraction(tab[i][-1], den[i])
    # Undo the negated objective of a min LP.
    sense = 1 if maximize else -1
    dm = den[m]
    duals = {i: Fraction(sense * s * tab[m][j], dm) for i, (j, s) in slack_of.items()}
    return LPResult(Fraction(sense * obj, dm), x[:n], duals)


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
