"""The HiGHS-backed LP layer against a brute-force reference."""
import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from didpr import cli
from didpr import lp as lplib
from didpr.lp import LpStatus
from lp_reference import Program, csc, random_lp, reference_solve
from lp_reference import program as make_lp


def solve(prog):
    return lplib.solve(*prog.model_args())


# solve() runs HiGHS's interior point with crossover.  The pinned programs
# are also put to a second HiGHS algorithm through scipy directly: the dual
# simplex, and HiGHS's own choice; both must give the pinned answer too.
_CROSS_CHECK = {"simplex": "highs-ds", "highs": "highs"}
_SCIPY_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE,
                 3: LpStatus.UNBOUNDED}


def cross_check(lp, algorithm):
    A_eq, b_eq, A_ub, b_ub = lp.split()
    res = linprog(lp.c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method=_CROSS_CHECK[algorithm])
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
            lp = random_lp(rng)
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
            lp = random_lp(rng)
            sol = solve(lp)
            if sol.status is not LpStatus.OPTIMAL:
                continue
            A_eq, b_eq, A_ub, b_ub = lp.split()
            eq = np.abs(A_eq @ sol.x - b_eq).max(initial=0.0)
            assert eq <= 1e-7 * (1.0 + np.abs(b_eq).max(initial=0.0))
            ub = np.maximum(A_ub @ sol.x - b_ub, 0.0).max(initial=0.0)
            assert ub <= 1e-7
            assert max(0.0, -sol.x.min(initial=0.0)) <= 1e-9

    def test_duals_certify_the_optimum(self):
        # The duals are feasible (reduced costs >= 0, <= rows priced <= 0)
        # and close the duality gap: b_eq.y + b_ub.z is the optimum.
        rng = np.random.default_rng(24)
        checked = 0
        for _ in range(40):
            lp = random_lp(rng)
            sol = solve(lp)
            if sol.status is not LpStatus.OPTIMAL:
                continue
            checked += 1
            reduced = lp.c - lp.A.T @ sol.duals
            assert reduced.min(initial=0.0) >= -1e-9
            ub = lp.lower == -np.inf
            assert sol.duals[ub].max(initial=0.0) <= 1e-9
            assert np.where(ub, lp.upper, lp.lower) @ sol.duals == \
                pytest.approx(sol.objective, abs=1e-9)
        assert checked >= 10

    def test_optimal_point_off_the_rows_raises(self, monkeypatch):
        # A solver that calls a point optimal is not trusted: solve()
        # re-checks it against the original rows.  HiGHS solves the real
        # program and reports it Optimal; the point it hands back is forged.
        monkeypatch.setattr(lplib.Model, "_optimum",
                            lambda self: (np.array([0.5, 0.0]), 0.5,
                                          np.zeros(1)))
        lp = make_lp(2, [1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
        with pytest.raises(lplib.LpError, match="violating the constraints"):
            solve(lp)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        lp = random_lp(rng)
        a = solve(lp)
        b = solve(lp)
        assert a.status is b.status
        if a.status is LpStatus.OPTIMAL:
            assert np.array_equal(a.x, b.x)
            assert a.objective == b.objective

    def test_dimension_mismatch_rejected(self):
        # two columns, three costs; then row bounds of unequal lengths
        with pytest.raises(ValueError, match="objective length"):
            lplib.Model(np.zeros(0), np.zeros(0), np.zeros(3), [0, 0, 0],
                        [], [])
        with pytest.raises(ValueError, match="row bounds"):
            lplib.Model(np.zeros(1), np.zeros(2), np.zeros(1), [0, 0], [],
                        [])

    def test_nonfinite_rhs_rejected(self):
        with pytest.raises(ValueError):
            solve(make_lp(1, [1.0], A_eq=[[1.0]], b_eq=[np.inf]))


def _northwest_corner(rho, kappa):
    """A basic plan with margins rho and kappa, on ns + nt - 1 cells."""
    x = np.zeros((len(rho), len(kappa)))
    left_r, left_k = rho.copy(), kappa.copy()
    i = j = 0
    while i < len(rho) and j < len(kappa):
        x[i, j] = m = min(left_r[i], left_k[j])
        left_r[i] -= m
        left_k[j] -= m
        if left_r[i] <= left_k[j]:
            i += 1
        else:
            j += 1
    return x


def transportation_program(rng):
    """A random ns x nt transportation program with one equality side row
    and one ranged side row, as the eta module builds them.  Every row
    holds at x0, the mean of the northwest and southwest corner plans,
    which is no vertex: so the program's optimum is as nondegenerate as
    random data make it, and its duals are unique.  Returns (program, x0,
    cell caps).
    """
    ns, nt = rng.integers(3, 9, size=2)
    rho, kappa = rng.dirichlet(np.ones(ns)), rng.dirichlet(np.ones(nt))
    x0 = (_northwest_corner(rho, kappa)
          + _northwest_corner(rho[::-1], kappa)[::-1]).ravel() / 2
    w_eq, w_ub = rng.standard_normal((2, ns * nt))
    A = np.vstack([np.kron(np.eye(ns), np.ones((1, nt))),
                   np.kron(np.ones((1, ns)), np.eye(nt)), w_eq, w_ub])
    lower = np.concatenate([rho, kappa, [w_eq @ x0, w_ub @ x0 - 0.05]])
    upper = np.concatenate([rho, kappa, [w_eq @ x0, w_ub @ x0 + 0.05]])
    prog = Program(rng.standard_normal(ns * nt), A, lower, upper)
    return prog, x0, np.minimum.outer(rho, kappa).ravel()


def restricted(prog, cols):
    return Program(prog.c[cols], prog.A[:, cols], prog.lower, prog.upper)


def reduced_costs(prog, sol):
    return prog.c - prog.A.T @ sol.duals


def dual_objective(prog, duals):
    """Each row's dual times the bound it prices: the lower one where the
    dual is positive, the upper one where it is negative."""
    priced = duals != 0.0
    bound = np.where(duals > 0.0, prog.lower, prog.upper)
    return bound[priced] @ duals[priced]


def grown_models(seed, capped):
    """For 40 random transportation programs: a Model of the plan's cells
    and a third of the rest, then three batches of new columns.  Yields
    (model, its program's columns so far, program, caps) after each
    batch's re-solve, and the re-solve's answer."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        prog, x0, cap = transportation_program(rng)
        rest = rng.permutation(np.flatnonzero(x0 == 0))
        cols = np.concatenate([np.flatnonzero(x0), rest[:len(rest) // 3]])
        model = lplib.Model(*restricted(prog, cols).model_args())
        assert model.solve().status is LpStatus.OPTIMAL
        for batch in np.array_split(rest[len(rest) // 3:], 3):
            model.add_columns(prog.c[batch], *csc(prog.A[:, batch]),
                              cap[batch] if capped else None)
            cols = np.concatenate([cols, batch])
            yield model, cols, prog, cap, model.solve()


class TestWarmStart:
    """Model re-solves from its last basis against cold one-shot solves."""

    def test_resolve_after_new_columns_matches_a_cold_solve(self):
        iterations = 0
        for model, cols, prog, _, warm in grown_models(30, capped=False):
            iterations += model.simplex_iterations
            sub = restricted(prog, cols)
            cold = solve(sub)
            assert warm.status is cold.status is LpStatus.OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, abs=1e-10)
            assert np.abs(reduced_costs(sub, warm)
                          - reduced_costs(sub, cold)).max() <= 1e-10
        # the batches do move the optimum: the re-solves pivot
        assert iterations > 0

    def test_capped_columns_keep_the_optimum(self):
        # A cap the rows imply costs no vertex, so the optimum is the cold
        # one.  At a binding cap the duals are not unique, so instead of
        # matching the cold solve's, the warm duals must certify the
        # optimum themselves: reduced costs >= 0 below the cap, <= 0 at it,
        # and no duality gap once the caps' multipliers are counted.
        for model, cols, prog, cap, warm in grown_models(31, capped=True):
            sub = restricted(prog, cols)
            assert warm.status is LpStatus.OPTIMAL
            assert warm.objective == pytest.approx(solve(sub).objective,
                                                   abs=1e-10)
            d = reduced_costs(sub, warm)
            at_cap = np.isclose(warm.x, cap[cols], rtol=0.0, atol=1e-9)
            assert d[~at_cap].min(initial=0.0) >= -1e-9
            assert d[at_cap].max(initial=0.0) <= 1e-9
            total = (dual_objective(sub, warm.duals)
                     + d[at_cap] @ cap[cols][at_cap])
            assert total == pytest.approx(warm.objective, abs=1e-10)

    def test_resolve_without_new_columns_takes_no_pivot(self):
        for model, _, _, _, warm in grown_models(32, capped=True):
            model.add_columns(np.zeros(0), [0], [], [])
            again = model.solve()
            assert model.simplex_iterations == 0
            assert np.array_equal(again.x, warm.x)

    def test_bad_columns_rejected_before_highs_reads_them(self):
        model = lplib.Model(*make_lp(2, [1.0, 2.0], A_eq=[[1.0, 1.0]],
                                     b_eq=[1.0]).model_args())
        with pytest.raises(ValueError, match="objective length"):
            model.add_columns(np.ones(2), [0, 1], [0], [1.0])
        with pytest.raises(ValueError, match="upper length"):
            model.add_columns(np.ones(1), [0, 1], [0], [1.0], upper=np.ones(3))
        with pytest.raises(ValueError, match="disagree"):
            model.add_columns(np.ones(1), [0, 2], [0], [1.0])
        with pytest.raises(ValueError, match="outside the model's rows"):
            model.add_columns(np.ones(1), [0, 1], [1], [1.0])
        with pytest.raises(ValueError, match="objective length"):
            model.set_cost(np.ones(3))
        with pytest.raises(lplib.LpError, match="rejected"):
            model.close(np.array([2]))
        # the model is unchanged
        assert model.num_vars == 2
        assert model.solve().objective == pytest.approx(1.0, abs=1e-12)

    def test_new_objective_matches_a_cold_solve(self):
        # set_cost, then close, as column generation ends its phase I;
        # closing columns at 0 in the last optimum keeps the program feasible
        rng = np.random.default_rng(33)
        done = None
        for model, cols, prog, _, last in grown_models(34, capped=True):
            if model is done:
                continue  # the model's costs are no longer the program's
            done = model
            c = rng.standard_normal(len(cols))
            shut = (last.x == 0.0) & (rng.random(len(cols)) < 0.5)
            model.set_cost(c)
            model.close(np.flatnonzero(shut))
            warm = model.solve()
            sub = restricted(prog, cols)
            cold = solve(Program(c[~shut], sub.A[:, ~shut], sub.lower,
                                 sub.upper))
            assert warm.status is cold.status is LpStatus.OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, abs=1e-10)
            assert not warm.x[shut].any()


# HiGHS's extension is loaded from its file (lp._highs_core), not through
# scipy.optimize.  In a fresh interpreter, whichever of didpr's LP and
# scipy.optimize loads first, both must share one extension module, and
# neither may change the other's answers: scipy's linprog and a
# conditioned coefficient_bounds on a small DPA graph.
_LOAD_ORDER = """
import json, sys
from didpr.eta import coefficient_bounds, problem_from_graph
from didpr.generate import DpaParams, gen_dpa

def bounds():
    g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 1000, seed=2))
    b = coefficient_bounds(problem_from_graph(g), order=((2, 2),),
                           conditioning={(1, 1): (0.1, 0.1)})
    return list(b[(2, 2)])

def linprog():
    from scipy.optimize import linprog
    return linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                   method="highs").fun

order = sys.argv[1]
out = {}
if order == "scipy-first":
    out["linprog"] = linprog()
out["bounds"] = bounds()
if order == "didpr-first":
    out["linprog"] = linprog()
if order != "alone":
    from scipy.optimize._highspy import _highs_wrapper
    from didpr.lp import Model
    used = {id(sys.modules["scipy.optimize._highspy._core"]),
            id(_highs_wrapper._h), id(Model([1.0], [1.0], [1.0], [0, 1],
                                              [0], [1.0])._core)}
    out["cores"] = len(used)
print(json.dumps(out))
"""


def _fresh_run(order):
    src_dir = str(Path(lplib.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _LOAD_ORDER, order],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def bounds_alone():
    return _fresh_run("alone")["bounds"]


@pytest.mark.parametrize("order", ["didpr-first", "scipy-first"])
def test_highs_shared_with_scipy_optimize_in_either_order(order, bounds_alone):
    run = _fresh_run(order)
    assert run["cores"] == 1
    assert run["linprog"] == pytest.approx(1.0, abs=1e-12)
    assert run["bounds"] == bounds_alone


@pytest.fixture
def no_highs(monkeypatch, tmp_path):
    """Point the extension's lookup at an empty scipy tree."""
    real = importlib.util.find_spec

    def find_spec(name, package=None):
        if name != "scipy":
            return real(name, package)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        return spec

    monkeypatch.delitem(sys.modules, lplib._CORE, raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", find_spec)


def test_missing_highs_extension_names_the_scipy_needed(no_highs):
    with pytest.raises(lplib.LpError, match=r"scipy>=1\.15") as err:
        lplib.Model([1.0], [1.0], [1.0], [0, 1], [0], [1.0])
    assert "\n" not in str(err.value)


def test_missing_highs_extension_is_a_one_line_cli_error(no_highs, tmp_path,
                                                         capsys):
    g, out = tmp_path / "dpa.txt", tmp_path / "bounds.csv"
    assert cli.main(["generate", "dpa", "--alpha", "0.3", "--beta", "0.4",
                     "--gamma", "0.3", "--delta-in", "1", "--delta-out", "1",
                     "--edges", "500", "--seed", "2", "--out", str(g)]) == 0
    capsys.readouterr()
    assert cli.main(["bounds", "--graph", str(g), "--pairs", "22",
                     "--condition-pair", "11", "--condition-values", "0.1",
                     "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "scipy>=1.15" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()
