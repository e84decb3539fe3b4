"""The HiGHS-backed LP layer against a brute-force reference."""
import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import OptimizeResult, linprog

from didpr import lp as lplib
from didpr.lp import LinearProgram, LpStatus, solve, verify_solution
from lp_reference import random_lp, reference_solve


def make_lp(n, c, A_eq=None, b_eq=None, A_ub=None, b_ub=None):
    empty = lambda: (np.zeros((0, n)), np.zeros(0))
    if A_eq is None:
        A_eq, b_eq = empty()
    if A_ub is None:
        A_ub, b_ub = empty()
    return LinearProgram(n, np.asarray(c, float),
                         np.asarray(A_eq, float), np.asarray(b_eq, float),
                         np.asarray(A_ub, float), np.asarray(b_ub, float))


# solve() runs HiGHS's interior point with crossover.  The pinned programs
# are also put to a second HiGHS algorithm through scipy directly: the dual
# simplex, and HiGHS's own choice; both must give the pinned answer too.
_CROSS_CHECK = {"simplex": "highs-ds", "highs": "highs"}
_SCIPY_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE,
                 3: LpStatus.UNBOUNDED}


def cross_check(lp, algorithm):
    res = linprog(lp.c, A_ub=lp.A_ub, b_ub=lp.b_ub, A_eq=lp.A_eq,
                  b_eq=lp.b_eq, bounds=(0, None),
                  method=_CROSS_CHECK[algorithm])
    return _SCIPY_STATUS[res.status], res


class TestPinnedPrograms:
    @pytest.mark.parametrize("algorithm", ["simplex", "highs"])
    def test_bounded_minimum(self, algorithm):
        lp = make_lp(1, [-1.0], A_ub=[[1.0]], b_ub=[3.0])
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
        assert sol.objective == pytest.approx(-3.0, abs=1e-9)
        status, res = cross_check(lp, algorithm)
        assert status is LpStatus.OPTIMAL
        assert res.fun == pytest.approx(-3.0, abs=1e-9)

    @pytest.mark.parametrize("algorithm", ["simplex", "highs"])
    def test_infeasible_pair(self, algorithm):
        # x1 + x2 = 1 and x1 - x2 = 3 force x2 = -1
        lp = make_lp(2, [0.0, 0.0],
                     A_eq=[[1.0, 1.0], [1.0, -1.0]], b_eq=[1.0, 3.0])
        assert solve(lp).status is LpStatus.INFEASIBLE
        assert cross_check(lp, algorithm)[0] is LpStatus.INFEASIBLE

    @pytest.mark.parametrize("algorithm", ["simplex", "highs"])
    def test_unbounded(self, algorithm):
        lp = make_lp(1, [-1.0])
        assert solve(lp).status is LpStatus.UNBOUNDED
        assert cross_check(lp, algorithm)[0] is LpStatus.UNBOUNDED

    def test_feasibility_simplex_sum(self):
        lp = make_lp(2, [0.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
        sol = solve(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_feasibility_no_constraints(self):
        sol = solve(make_lp(3, [0.0, 0.0, 0.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert np.array_equal(sol.x, np.zeros(3))


class TestAgainstReference:
    def test_sixty_random_programs(self):
        rng = np.random.default_rng(20)
        optimal = infeasible = unbounded = 0
        for _ in range(60):
            lp = random_lp(rng, make_lp)
            want_status, want_obj = reference_solve(lp)
            sol = solve(lp)
            assert sol.status.name.title() == want_status
            if want_status == "Optimal":
                optimal += 1
                assert sol.objective == pytest.approx(want_obj, abs=1e-9)
            elif want_status == "Infeasible":
                infeasible += 1
            else:
                unbounded += 1
        # the generator must actually exercise all three outcomes
        assert optimal >= 20 and infeasible >= 5 and unbounded >= 5


class TestContracts:
    def test_optimal_solutions_verified(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            lp = random_lp(rng, make_lp)
            sol = solve(lp)
            if sol.status is not LpStatus.OPTIMAL:
                continue
            res = verify_solution(lp, sol.x)
            assert res["eq"] <= 1e-7 * (1.0 + np.abs(lp.b_eq).max(initial=0.0))
            assert res["ub"] <= 1e-7
            assert res["neg"] <= 1e-9

    def test_duals_certify_the_optimum(self):
        # The duals are feasible (reduced costs >= 0, <= rows priced <= 0)
        # and close the duality gap: b_eq.y + b_ub.z is the optimum.
        rng = np.random.default_rng(24)
        checked = 0
        for _ in range(40):
            lp = random_lp(rng, make_lp)
            sol = solve(lp)
            if sol.status is not LpStatus.OPTIMAL:
                continue
            checked += 1
            reduced = (lp.c - lp.A_eq.T @ sol.eq_duals
                       - lp.A_ub.T @ sol.ub_duals)
            assert reduced.min(initial=0.0) >= -1e-9
            assert sol.ub_duals.max(initial=0.0) <= 1e-9
            assert lp.b_eq @ sol.eq_duals + lp.b_ub @ sol.ub_duals == \
                pytest.approx(sol.objective, abs=1e-9)
        assert checked >= 10

    def test_optimal_point_off_the_rows_raises(self, monkeypatch):
        # A solver that calls a point optimal is not trusted: solve()
        # re-checks it against the original rows.
        # solve() imports linprog when called, so the patch reaches it.
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *a, **k: OptimizeResult(
                                status=0, x=np.array([0.5, 0.0]), fun=0.5,
                                message="forged"))
        lp = make_lp(2, [1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
        with pytest.raises(lplib.LpError, match="violating the constraints"):
            solve(lp)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        lp = random_lp(rng, make_lp)
        a = solve(lp)
        b = solve(lp)
        assert a.status is b.status
        if a.status is LpStatus.OPTIMAL:
            assert np.array_equal(a.x, b.x)
            assert a.objective == b.objective

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(2, np.zeros(3), np.zeros((0, 2)), np.zeros(0),
                          np.zeros((0, 2)), np.zeros(0))

    def test_nonfinite_rhs_rejected(self):
        with pytest.raises(ValueError):
            make_lp(1, [1.0], A_eq=[[1.0]], b_eq=[np.inf])
