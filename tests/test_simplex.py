from fractions import Fraction

import pytest

from faceflow import simplex
from faceflow.errors import Infeasible, IterationLimit
from faceflow.simplex import check_solution, solve_lp


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
        assert res.status == "optimal"
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
        assert res.status == "optimal"
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
        res = solve_lp(
            [F(1)],
            [
                ([F(1)], "<=", F(1)),
                ([F(1)], ">=", F(2)),
            ],
        )
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve_lp([F(1)], [([F(-1)], "<=", F(1))])
        assert res.status == "unbounded"

    def test_negative_rhs_normalized(self):
        # x >= 2 written as -x <= -2.
        res = solve_lp([F(-1)], [([F(-1)], "<=", F(-2))], maximize=True)
        assert res.objective == -2

    def test_exact_rationals(self):
        res = solve_lp(
            [F(1, 3), F(1, 7)],
            [([F(2, 5), F(1)], "<=", F(9, 11))],
        )
        assert res.status == "optimal"
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
        assert res.status == "optimal"
        assert res.objective == F(5) ** n


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
