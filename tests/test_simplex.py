import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faceflow import polyflow, simplex
from faceflow.errors import Infeasible, IterationLimit, Unbounded
from faceflow.graph import MetricGraph, norm_edge
from faceflow.instances import (
    Instance,
    grid_graph,
    random_caps,
    random_demands,
    random_outerplanar,
    random_planar_with_face,
)
from faceflow.polyflow import (
    DemandMatrix,
    _mcf_lp_rows,
    _vertex_cap_rows,
    mcf_polymatroid_lp,
)
from faceflow.simplex import (
    _BLAND_AFTER,
    _MAX_ITERS,
    _ZERO,
    LPResult,
    check_solution,
    solve_lp,
)
from test_golden_cli import INSTANCES
from test_polyflow import cut_instances


F = Fraction


class TestSolve:
    def test_basic_max(self):
        # max x + y st x <= 2, y <= 3, x + y <= 4
        res = solve_lp(
            [F(1), F(1)],
            [
                ([F(1), F(0)], "<=", F(2)),
                ([F(0), F(1)], "<=", F(3)),
                ([F(1), F(1)], "<=", F(4)),
            ],
        )
        assert res.objective == 4

    def test_min_with_geq(self):
        # min 2x + 3y st x + y >= 4, x >= 1
        res = solve_lp(
            [F(2), F(3)],
            [
                ([F(1), F(1)], ">=", F(4)),
                ([F(1), F(0)], ">=", F(1)),
            ],
            maximize=False,
        )
        assert res.objective == 8
        assert res.x[0] == 4 and res.x[1] == 0

    def test_equality_constraint(self):
        # max x st x + y = 3, y >= 1 -> x = 2
        res = solve_lp(
            [F(1), F(0)],
            [
                ([F(1), F(1)], "=", F(3)),
                ([F(0), F(1)], ">=", F(1)),
            ],
        )
        assert res.objective == 2

    def test_row_length_must_match(self):
        # A short row would shift the slack and rhs columns: x = [3, 2]
        # reported as optimal with objective 2.
        short = [([F(1)], "<=", F(3)), ([F(0), F(1)], "<=", F(2))]
        with pytest.raises(ValueError, match="row 0 has 1 coefficients, not 2"):
            solve_lp([F(1), F(1)], short)
        long = [([F(1), F(0)], "<=", F(3)), ([F(0), F(1), F(1)], "=", F(2))]
        with pytest.raises(ValueError, match="row 1 has 3 coefficients, not 2"):
            solve_lp([F(1), F(1)], long)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_lp(
                [F(1)],
                [
                    ([F(1)], "<=", F(1)),
                    ([F(1)], ">=", F(2)),
                ],
            )

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            solve_lp([F(1)], [([F(-1)], "<=", F(1))])

    def test_negative_rhs_normalized(self):
        # x >= 2 written as -x <= -2.
        res = solve_lp([F(-1)], [([F(-1)], "<=", F(-2))], maximize=True)
        assert res.objective == -2

    def test_exact_rationals(self):
        res = solve_lp(
            [F(1, 3), F(1, 7)],
            [([F(2, 5), F(1)], "<=", F(9, 11))],
        )
        assert res.objective == F(1, 3) * (F(9, 11) / F(2, 5))

    def test_degenerate_cycling_guard(self):
        # Klee-Minty style growth; must terminate with the right optimum.
        n = 4
        obj = [F(2) ** (n - 1 - j) for j in range(n)]
        rows = []
        for i in range(n):
            coeffs = [F(0)] * n
            for j in range(i):
                coeffs[j] = F(2) ** (i - j + 1)
            coeffs[i] = F(1)
            rows.append((coeffs, "<=", F(5) ** (i + 1)))
        res = solve_lp(obj, rows)
        assert res.objective == F(5) ** n


def explicit_dual(objective, rows):
    """The dual of max objective . x s.t. rows, x >= 0, written for
    ``solve_lp`` (min, nonnegative variables): a '<=' row's multiplier
    is u >= 0, a '>=' row's is -u, and an '=' row's is u - w.  Column j
    of the primal gives the dual row sum_i a_ij y_i >= c_j."""
    cols = [[] for _ in objective]
    dual_obj = []
    for coeffs, rel, rhs in rows:
        for sign in {"<=": (1,), ">=": (-1,), "=": (1, -1)}[rel]:
            dual_obj.append(sign * rhs)
            for col, a in zip(cols, coeffs):
                col.append(sign * a)
    return dual_obj, [(col, ">=", c) for col, c in zip(cols, objective)]


small = st.integers(-3, 3)


@st.composite
def bounded_feasible_lps(draw):
    """At most 4 variables, mixed rows through a known point, box rows,
    and one '=' row stated twice so phase 1 ends with a redundant row."""
    n = draw(st.integers(1, 4))
    point = [F(draw(st.integers(0, 6)), draw(st.integers(1, 3))) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = [F(draw(small)) for _ in range(n)]
        rel = draw(st.sampled_from(["<=", ">=", "="]))
        at = sum(a * x for a, x in zip(coeffs, point))
        gap = F(draw(st.integers(0, 4)), 2)
        rows.append((coeffs, rel, at + {"<=": gap, ">=": -gap, "=": 0}[rel]))
    dup = [F(draw(small)) for _ in range(n)]
    at = sum(a * x for a, x in zip(dup, point))
    rows += [(dup, "=", at), (list(dup), "=", at)]
    for j in range(n):
        box = [F(int(i == j)) for i in range(n)]
        rows.append((box, "<=", point[j] + draw(st.integers(0, 5))))
    rows = draw(st.permutations(rows))
    objective = [F(draw(small)) for _ in range(n)]
    return objective, rows, draw(st.booleans())


class TestOptimality:
    """solve_lp's optimum is feasible, and its value is the optimum of
    the explicit dual, solved by solve_lp too (strong duality)."""

    @given(bounded_feasible_lps())
    @settings(max_examples=150, deadline=None)
    def test_matches_explicit_dual(self, lp):
        objective, rows, maximize = lp
        res = solve_lp(objective, rows, maximize=maximize)
        assert check_solution(objective, rows, res.x) == res.objective
        sign = 1 if maximize else -1
        dual_obj, dual_rows = explicit_dual([sign * c for c in objective], rows)
        dual = solve_lp(dual_obj, dual_rows, maximize=False)
        assert check_solution(dual_obj, dual_rows, dual.x) == dual.objective
        assert sign * dual.objective == res.objective


class TestDualReadOut:
    """The multipliers solve_lp reads off its final reduced costs are an
    optimum of the explicit dual, from the same single solve."""

    @given(bounded_feasible_lps(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_multipliers_solve_explicit_dual(self, lp, data):
        objective, rows, maximize = lp
        # Every '=' row as a '<=' / '>=' pair, so every row has a
        # multiplier; some rows negated, so normalisation flips them.
        split = []
        for coeffs, rel, rhs in rows:
            for r in ("<=", ">=") if rel == "=" else (rel,):
                if data.draw(st.booleans()):
                    r = {"<=": ">=", ">=": "<="}[r]
                    coeffs, rhs = [-a for a in coeffs], -rhs
                split.append((coeffs, r, rhs))
        res = solve_lp(objective, split, maximize=maximize)
        assert sorted(res.duals) == list(range(len(split)))
        y = [res.duals[i] for i in range(len(split))]
        assert sum((yi * rhs for yi, (_, _, rhs) in zip(y, split)), F(0)) == (
            res.objective
        )
        # explicit_dual's column for row i is sign * y_i of the max LP.
        sign = 1 if maximize else -1
        dual_obj, dual_rows = explicit_dual([sign * c for c in objective], split)
        u = [
            sign * yi * {"<=": 1, ">=": -1}[rel]
            for yi, (_, rel, _) in zip(y, split)
        ]
        assert check_solution(dual_obj, dual_rows, u) == sign * res.objective

    def test_signs_on_negated_rows(self):
        # max x + 2y st -x - y >= -3 and -x + y <= -1, both negated by
        # normalisation, and x >= 1/2 with slack: optimum x = 2, y = 1,
        # priced by y = (-3/2, 1/2, 0).
        rows = [
            ([F(-1), F(-1)], ">=", F(-3)),
            ([F(-1), F(1)], "<=", F(-1)),
            ([F(1), F(0)], ">=", F(1, 2)),
        ]
        res = solve_lp([F(1), F(2)], rows)
        assert (res.objective, res.x) == (4, [2, 1])
        assert res.duals == {0: F(-3, 2), 1: F(1, 2), 2: 0}
        # min -x - 2y over the same rows: every multiplier changes sign.
        res = solve_lp([F(-1), F(-2)], rows, maximize=False)
        assert (res.objective, res.x) == (-4, [2, 1])
        assert res.duals == {0: F(3, 2), 1: F(-1, 2), 2: 0}

    def test_equality_rows_get_none(self):
        rows = [([F(1), F(1)], "=", F(3)), ([F(0), F(1)], ">=", F(1))]
        res = solve_lp([F(1), F(0)], rows)
        assert res.objective == 2 and list(res.duals) == [1]


def reference_solve_lp(objective, rows, maximize: bool = True) -> LPResult:
    """The replaced dense solve_lp, kept verbatim: every pivot rebuilds
    every row over all columns.  Solve max/min objective . x subject to
    rows, x >= 0.

    ``objective``: list of Fractions (length n).
    ``rows``: list of (coeffs, relation, rhs) with relation in
    '<=', '>=', '='.  Returns an optimum; raises Infeasible, Unbounded,
    or IterationLimit when either phase runs past ``_MAX_ITERS`` pivots.
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

    # Build tableau: m constraint rows of length total+1 (last column
    # rhs), then the reduced-cost row at index m.
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
    tab.append([])

    def pivot(r: int, col: int):
        prow = tab[r]
        inv = Fraction(1) / prow[col]
        tab[r] = prow = [v * inv for v in prow]
        for i in range(m + 1):
            if i == r:
                continue
            f = tab[i][col]
            if f:
                tab[i] = [a - f * b for a, b in zip(tab[i], prow)]
        basis[r] = col

    def run_phase(cost: list[Fraction]) -> Fraction:
        # Maximize cost . x: price out the starting basis once, then let
        # the pivots keep the reduced-cost row current.
        d = cost + [_ZERO]
        for i in range(m):
            cb = cost[basis[i]]
            if cb:
                d = [a - cb * b for a, b in zip(d, tab[i])]
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
    return LPResult(obj if maximize else -obj, x[:n])


@st.composite
def any_lps(draw):
    """Up to 4 variables and 4 rows of small integers with nothing behind
    them, so infeasible and unbounded LPs come up too."""
    n = draw(st.integers(1, 4))
    rows = [
        (
            [F(draw(small)) for _ in range(n)],
            draw(st.sampled_from(["<=", ">=", "="])),
            F(draw(small)),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    return [F(draw(small)) for _ in range(n)], rows, draw(st.booleans())


def outcome(solve, objective, rows, maximize):
    """(objective, x) of an optimum, or the class of the error raised."""
    try:
        res = solve(objective, rows, maximize=maximize)
    except (Infeasible, Unbounded, IterationLimit) as exc:
        return type(exc)
    return res.objective, res.x


class TestSparseMatchesDense:
    """solve_lp skips zero entries but takes the same pivots as the dense
    solver it replaced, so optima, x and failures are exactly equal."""

    @given(st.one_of(bounded_feasible_lps(), any_lps()))
    @settings(max_examples=200, deadline=None)
    def test_random_lps(self, lp):
        objective, rows, maximize = lp
        assert outcome(solve_lp, objective, rows, maximize) == outcome(
            reference_solve_lp, objective, rows, maximize
        )

    @given(cut_instances(tables=False), st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_flow_lp_and_its_dual(self, inst, factor):
        g, caps, dem = inst
        cap_rows = _vertex_cap_rows(g, caps.vertex_caps, factor).values()
        objective, rows, _, _ = _mcf_lp_rows(g, dem, cap_rows)
        d_obj, d_rows = explicit_dual(objective, rows)
        for lp in ((objective, rows, True), (d_obj, d_rows, False)):
            assert outcome(solve_lp, *lp) == outcome(reference_solve_lp, *lp)


def fraction_solve_lp(objective, rows, maximize: bool = True) -> LPResult:
    """The replaced Fraction solve_lp, kept verbatim: every tableau entry
    is a Fraction.  Solve max/min objective . x subject to rows, x >= 0.

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


def full_outcome(solve, objective, rows, maximize):
    """(objective, x, duals) of an optimum, or the class of the error
    raised."""
    try:
        res = solve(objective, rows, maximize=maximize)
    except (Infeasible, Unbounded, IterationLimit) as exc:
        return type(exc)
    return res.objective, res.x, res.duals


class _Captured(Exception):
    pass


# The most pivots one phase took over the LPs drawn below was 167 (the
# dual of a flow LP; random LPs took at most 9, table LPs 24).  A solver
# that cycles stops here with IterationLimit, which fails against the
# reference's optimum, instead of running the module's 200 000 pivots.
PIVOT_BUDGET = 2000


@pytest.mark.gate
class TestIntegerMatchesFraction:
    """solve_lp keeps each row as ints over one positive denominator but
    takes the same pivots as the Fraction solver it replaced, so optima,
    x, duals and failures are exactly equal."""

    def assert_same(self, objective, rows, maximize):
        with mock.patch.object(simplex, "_MAX_ITERS", PIVOT_BUDGET):
            got = full_outcome(solve_lp, objective, rows, maximize)
        assert got == full_outcome(fraction_solve_lp, objective, rows, maximize)

    @given(st.one_of(bounded_feasible_lps(), any_lps()))
    @settings(max_examples=200, deadline=None)
    def test_random_lps(self, lp):
        self.assert_same(*lp)

    @given(cut_instances(tables=False), st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_flow_lp_and_its_dual(self, inst, factor):
        g, caps, dem = inst
        cap_rows = _vertex_cap_rows(g, caps.vertex_caps, factor).values()
        objective, rows, _, _ = _mcf_lp_rows(g, dem, cap_rows)
        self.assert_same(objective, rows, True)
        self.assert_same(*explicit_dual(objective, rows), False)

    @given(cut_instances(tables=True))
    @settings(max_examples=40, deadline=None)
    def test_table_lps(self, inst):
        g, caps, dem = inst
        lps = []

        def capture(objective, rows, maximize=True):
            lps.append((objective, rows, maximize))
            raise _Captured

        with mock.patch.object(polyflow, "solve_lp", capture):
            with pytest.raises(_Captured):
                mcf_polymatroid_lp(g, caps, dem)
        self.assert_same(*lps[0])

    def test_negative_drive_out_pivot(self):
        # -x - y = 0 leaves its artificial basic at 0 with no positive
        # entry, so it is driven out by a pivot on the entry -1.  Read
        # over a negative denominator, that row would let y = 1 in.
        rows = [([F(-1), F(-1)], "=", F(0)), ([F(0), F(1)], "<=", F(1))]
        res = solve_lp([F(0), F(1)], rows)
        assert (res.objective, res.x, res.duals) == (0, [0, 0], {1: 0})
        self.assert_same([F(0), F(1)], rows, True)


class TestIterationLimit:
    """Running out of pivots is its own failure, not unboundedness."""

    def test_phase_one_limit(self, monkeypatch):
        # x = 1 starts on an artificial basis: phase 1 needs one pivot.
        monkeypatch.setattr(simplex, "_MAX_ITERS", 1)
        with pytest.raises(IterationLimit):
            solve_lp([F(1)], [([F(1)], "=", F(1))])

    def test_phase_two_limit(self, monkeypatch):
        # x <= 1 has no artificials: only phase 2 runs, and needs a pivot.
        monkeypatch.setattr(simplex, "_MAX_ITERS", 1)
        with pytest.raises(IterationLimit):
            solve_lp([F(1)], [([F(1)], "<=", F(1))])


class TestCheckSolution:
    def test_accepts_valid(self):
        val = check_solution(
            [F(1), F(1)], [([F(1), F(1)], "<=", F(4))], [F(2), F(2)]
        )
        assert val == 4

    def test_rejects_violation(self):
        with pytest.raises(Infeasible):
            check_solution([F(1)], [([F(1)], "<=", F(1))], [F(2)])

    def test_rejects_negative(self):
        with pytest.raises(Infeasible):
            check_solution([F(1)], [([F(1)], "<=", F(1))], [F(-1)])


def reference_mcf_lp_rows(g: MetricGraph, dem: DemandMatrix, cap_rows):
    """The edge-scanning ``_mcf_lp_rows`` that the incidence build
    replaced, kept verbatim: Fraction coefficients, and a scan of every
    arc for each (commodity, vertex) pair and each capacity row."""
    commodities = [(u, v, w) for (u, v, w) in dem.items()]
    arcs = []
    for (u, v, _) in g.edges:
        arcs.append((u, v))
        arcs.append((v, u))
    n_arc = len(arcs)
    k = len(commodities)
    nvar = k * n_arc + 1          # flows then epsilon (last)
    eps_i = nvar - 1

    def fvar(ci, ai):
        return ci * n_arc + ai

    rows = []
    for ci, (s, t, d) in enumerate(commodities):
        for v in range(g.n):
            if v == s:
                continue
            coeffs = [Fraction(0)] * nvar
            touched = False
            for ai, (a, b) in enumerate(arcs):
                if b == v:
                    coeffs[fvar(ci, ai)] += 1
                    touched = True
                if a == v:
                    coeffs[fvar(ci, ai)] -= 1
                    touched = True
            if v == t:
                coeffs[eps_i] = -d
                touched = True
            if touched:
                rows.append((coeffs, "=", Fraction(0)))
    arc_edges = [norm_edge(a, b) for (a, b) in arcs]
    for edge_set, rhs in cap_rows:
        coeffs = [Fraction(0)] * nvar
        for ci in range(k):
            for ai, e in enumerate(arc_edges):
                if e in edge_set:
                    coeffs[fvar(ci, ai)] += 1
        rows.append((coeffs, "<=", rhs))
    objective = [Fraction(0)] * nvar
    objective[eps_i] = Fraction(1)
    return objective, rows, commodities, arcs


def reference_vertex_cap_rows(g: MetricGraph, cap, endpoint_factor: int):
    """The edge-scanning ``_vertex_cap_rows``, kept verbatim."""
    cap = {v: Fraction(c) for v, c in dict(cap).items()}
    rows = {}
    for w in range(g.n):
        incident = {(a, b) for (a, b, _) in g.edges if w in (a, b)}
        if incident:
            rows[w] = (incident, endpoint_factor * cap.get(w, Fraction(0)))
    return rows


def reference_table_cap_rows(g: MetricGraph, caps):
    """The table form's capacity rows as ``mcf_polymatroid_lp`` built them
    from an edge scan: every nonempty subset of each vertex's edges."""
    for w in range(g.n):
        inc = [(a, b) for (a, b, _) in g.edges if w in (a, b)]
        for r in range(1, len(inc) + 1):
            for sub in itertools.combinations(inc, r):
                yield set(sub), caps.rho(w, sub)


def _planar(n: int, seed: int) -> Instance:
    g, face = random_planar_with_face(n, seed)
    return Instance(
        g, face=face, vcaps=random_caps(n, seed),
        demands=random_demands(face, seed, pairs=2),
    )


def _grid(rows: int, cols: int) -> Instance:
    g, face = grid_graph(rows, cols)
    n = rows * cols
    return Instance(
        g, face=face, vcaps=random_caps(n, rows * cols),
        demands=DemandMatrix.from_pairs([(0, n - 1, F(1)), (cols - 1, n - cols, F(2))]),
    )


def _outer_tables(n: int, seed: int) -> Instance:
    """random_outerplanar(n, seed) with the tables of the golden table6,
    rho_v(A) = min(cap_v, cap_v / 2 * |A|)."""
    g, face = random_outerplanar(n, seed)
    caps = random_caps(n, seed)
    tables = {
        v: {
            frozenset(sub): min(caps[v], caps[v] / 2 * len(sub))
            for r in range(len(g.incident(v)) + 1)
            for sub in itertools.combinations(g.incident(v), r)
        }
        for v in range(n)
    }
    return Instance(g, face=face, polymatroid=tables, demands=random_demands(face, seed))


def _path_and_isolated(pairs) -> Instance:
    """The path 0 - 1 - 2 and the isolated vertex 3."""
    g = MetricGraph(4, ((0, 1, F(1)), (1, 2, F(2))))
    return Instance(g, vcaps=(F(1), F(2), F(3), F(4)), demands=DemandMatrix.from_pairs(pairs))


VERTEX_LPS = {
    **{name: INSTANCES[name] for name in ("cycle6", "grid2x3", "outer6", "slack6", "split4")},
    **{f"planar{n}-{s}": (lambda n=n, s=s: _planar(n, s)) for n in range(6, 13) for s in (0, 1)},
    **{f"grid{r}x{c}": (lambda r=r, c=c: _grid(r, c)) for (r, c) in ((2, 2), (3, 3), (3, 4))},
    "isolated-sink": lambda: _path_and_isolated([(0, 3, F(1)), (0, 2, F(1, 2))]),
    "isolated-source": lambda: _path_and_isolated([(3, 1, F(2)), (2, 0, F(1))]),
    "zero-weight-pairs": lambda: _path_and_isolated(
        [(0, 2, F(0)), (1, 3, F(0)), (0, 1, F(3, 2))]
    ),
}

TABLE_LPS = {
    "table6": INSTANCES["table6"],
    "outer7-2-tables": lambda: _outer_tables(7, 2),
}


@pytest.mark.gate
class TestLPRowsMatchReference:
    """The flow LP built from incidence equals the edge-scanning build it
    replaced: the same objective, rows (entry by entry), commodities and
    arcs, and the same solve.  Its flow coefficients are the ints 0 and
    +-1."""

    def assert_same_lp(self, got, want):
        objective, rows, commodities, arcs = got
        ref_objective, ref_rows, ref_commodities, ref_arcs = want
        assert (objective, commodities, arcs) == (ref_objective, ref_commodities, ref_arcs)
        assert len(rows) == len(ref_rows)
        for (coeffs, rel, rhs), (ref_coeffs, ref_rel, ref_rhs) in zip(rows, ref_rows):
            assert (rel, rhs) == (ref_rel, ref_rhs)
            assert all(a == b for a, b in zip(coeffs, ref_coeffs, strict=True))
            assert all(type(a) is int and a in (-1, 0, 1) for a in coeffs[:-1])
        assert full_outcome(solve_lp, objective, rows, True) == full_outcome(
            solve_lp, ref_objective, ref_rows, True
        )

    @pytest.mark.parametrize("factor", [1, 2])
    @pytest.mark.parametrize("name", sorted(VERTEX_LPS))
    def test_vertex_form(self, name, factor):
        inst = VERTEX_LPS[name]()
        g, caps, dem = inst.graph, inst.caps(), inst.demand_matrix()
        cap_rows = _vertex_cap_rows(g, caps.vertex_caps, factor)
        ref_cap_rows = reference_vertex_cap_rows(g, caps.vertex_caps, factor)
        assert {w: (set(es), rhs) for w, (es, rhs) in cap_rows.items()} == ref_cap_rows
        self.assert_same_lp(
            _mcf_lp_rows(g, dem, cap_rows.values()),
            reference_mcf_lp_rows(g, dem, ref_cap_rows.values()),
        )

    @pytest.mark.parametrize("name", sorted(TABLE_LPS))
    def test_table_form(self, name):
        inst = TABLE_LPS[name]()
        g, caps, dem = inst.graph, inst.caps(), inst.demand_matrix()
        lps = []

        def capture(objective, rows, maximize=True):
            lps.append((objective, rows))
            raise _Captured

        with mock.patch.object(polyflow, "solve_lp", capture):
            with pytest.raises(_Captured):
                mcf_polymatroid_lp(g, caps, dem)
        commodities, arcs = _mcf_lp_rows(g, dem, ())[2:]
        self.assert_same_lp(
            (*lps[0], commodities, arcs),
            reference_mcf_lp_rows(g, dem, reference_table_cap_rows(g, caps)),
        )
