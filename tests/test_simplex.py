from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faceflow import simplex
from faceflow.errors import Infeasible, IterationLimit, Unbounded
from faceflow.simplex import check_solution, dual_lp, solve_lp


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


class TestDualLP:
    """dual_lp writes the dual that explicit_dual writes, up to the sign
    of each dual row, and keeps the map back to the primal rows."""

    @given(bounded_feasible_lps())
    @settings(max_examples=150, deadline=None)
    def test_optimum_matches_primal_and_explicit_dual(self, lp):
        objective, rows, maximize = lp
        sign = 1 if maximize else -1
        c = [sign * v for v in objective]
        primal = solve_lp(c, rows, maximize=True)
        dual_obj, dual_rows, cols = dual_lp(c, rows)
        assert len(cols) == len(dual_obj)
        assert all(len(coeffs) == len(cols) for coeffs, _, _ in dual_rows)
        dual = solve_lp(dual_obj, dual_rows, maximize=False)
        assert check_solution(dual_obj, dual_rows, dual.x) == dual.objective
        e_obj, e_rows = explicit_dual(c, rows)
        explicit = solve_lp(e_obj, e_rows, maximize=False)
        assert dual.objective == primal.objective == explicit.objective

    def test_cols_map_rows_with_signs(self):
        # max x + 2y st x + y <= 3, x - y >= -1, y = 1: one column for
        # '<=', a negated one for '>=', a pair for '='.
        rows = [
            ([F(1), F(1)], "<=", F(3)),
            ([F(1), F(-1)], ">=", F(-1)),
            ([F(0), F(1)], "=", F(1)),
        ]
        dual_obj, dual_rows, cols = dual_lp([F(1), F(2)], rows)
        assert cols == [(0, 1), (1, -1), (2, 1), (2, -1)]
        assert dual_obj == [F(3), F(1), F(1), F(-1)]
        assert dual_rows == [
            ([F(-1), F(1), F(0), F(0)], "<=", F(-1)),
            ([F(-1), F(-1), F(-1), F(1)], "<=", F(-2)),
        ]
        res = solve_lp(dual_obj, dual_rows, maximize=False)
        y = [F(0)] * len(rows)
        for (i, s), u in zip(cols, res.x):
            y[i] += s * u
        # x = 2, y = 1 is the primal optimum, value 4; its multipliers
        # price every column at its cost.
        assert res.objective == 4 == solve_lp([F(1), F(2)], rows).objective
        assert y[0] >= 0 and y[1] <= 0
        for k, c in enumerate([F(1), F(2)]):
            assert sum((r[0][k] * yi for r, yi in zip(rows, y)), F(0)) >= c


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
