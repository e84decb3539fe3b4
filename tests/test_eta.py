"""Constraint assembly, target mixing-matrix solving, and coefficient bounds."""
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import didpr

from didpr import eta as etalib
from didpr import lp as lplib
from didpr.assortativity import (
    TYPE_PAIRS,
    AssortProfile,
    EdgeMixMatrix,
    _standardise,
    assortativity,
    assortativity_of_graph,
    edge_mix_from_graph,
)
from didpr.eta import (
    _CG_TOL,
    _center_eta,
    _entropy_eta,
    _lp_target_eta,
    _program,
    _targets,
    coefficient_bounds,
    problem_from_graph,
    problem_from_nu,
    solve_target_eta,
)
from didpr.generate import DpaParams, gen_dpa, gen_er
from didpr.graph import degree_pair_dist

from bounds_reference import (
    full_program,
    reference_range,
    reference_spread,
    spread_program,
)
from center_reference import reference_center_eta

# Two diagonal degree pairs, 13 nodes worth of mass.  Both end marginals of
# every coefficient collapse to the same {1: .3, 2: .7} distribution, so all
# four coefficients are the same function of eta: attainable targets are
# exactly the equal profiles with common value in [-3/7, 1].
NU_TOY = {(1, 1): 6 / 13, (2, 2): 7 / 13}
TOY_LOW = -3 / 7


def toy_problem():
    return problem_from_nu(NU_TOY)


def target_program(p, targets):
    """The LP rows of p's polytope with the four targets pinned."""
    return _program(p, {(a, b): (targets.get(a, b),) * 2
                        for a, b in TYPE_PAIRS})


def matrix(prog):
    """The program's whole constraint matrix, built from its columns."""
    cells = len(prog.problem.rho) * len(prog.problem.kappa)
    start, index, value = prog.columns(np.arange(cells))
    return sp.csc_matrix((value, index, start), shape=(len(prog.lower), cells))


class TestAssembleConstraints:
    def test_marginals_only_row_count(self):
        prog = _program(toy_problem(), {})
        assert matrix(prog).shape == (4, 4)
        assert np.array_equal(prog.lower, prog.upper)

    def test_targets_add_four_rows(self):
        prog = target_program(toy_problem(),
                              AssortProfile(0.2, 0.2, 0.2, 0.2))
        assert len(prog.lower) == 8
        assert np.array_equal(prog.lower, prog.upper)

    def test_interval_adds_one_ranged_row(self):
        prog = _program(toy_problem(), {(1, 1): (-0.1, 0.4)})
        assert len(prog.lower) == 5
        assert (prog.lower[4], prog.upper[4]) == (-0.1, 0.4)

    def test_point_pin_adds_one_eq_row(self):
        prog = _program(toy_problem(), {(1, 1): (0.4, 0.4)})
        assert len(prog.lower) == 5
        assert prog.lower[4] == prog.upper[4] == 0.4

    def test_observed_eta_satisfies_marginal_rows(self):
        g = gen_er(80, 0.1, seed=30)
        eta = edge_mix_from_graph(g)
        prog = _program(problem_from_graph(g), {})
        x = eta.H.reshape(-1)
        assert np.abs(matrix(prog) @ x - prog.lower).max() < 1e-12


def toy_moment_row(prog):
    """The right side of the r(1, 1) row and that row's moment under H."""
    return prog.lower[4], lambda H: float((matrix(prog) @ np.ravel(H))[4])


class TestMomentRows:
    """Pinning r(a, b) adds the standardised moment row U[:, a-1] V[:, b-1]
    with right side r itself: under a mixing matrix with the problem's
    marginals, the row's moment is the coefficient.  On the toy problem
    every end is {1: .3, 2: .7}: mean 1.7 and variance .21."""

    def test_zero_is_independence_value(self):
        # both standardised ends have mean 0, and so has their product
        # under the independence coupling
        p = toy_problem()
        rhs, moment = toy_moment_row(
            target_program(p, AssortProfile(0.0, 0.0, 0.0, 0.0)))
        assert rhs == 0.0
        assert moment(np.outer(p.rho, p.kappa)) == pytest.approx(
            0.0, abs=1e-12)

    def test_unit_correlation(self):
        # the diagonal coupling has r = 1: (.3 * .49 + .7 * .09) / .21
        rhs, moment = toy_moment_row(
            target_program(toy_problem(), AssortProfile(1.0, 1.0, 1.0, 1.0)))
        assert rhs == 1.0
        assert moment(np.diag([0.3, 0.7])) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_round_trip(self):
        # The right side is r itself.  The LP solves the standardised rows,
        # and the coefficients of its answer give r back.
        for r in (-0.4, -0.1, 0.0, 0.35, 1.0):
            p, tgt = toy_problem(), AssortProfile(r, r, r, r)
            rhs, _ = toy_moment_row(target_program(p, tgt))
            assert rhs == r
            eta = _lp_target_eta(p, _targets(tgt))
            assert assortativity(eta).max_abs_diff(tgt) < 1e-9

    def test_identity_on_observed_data(self):
        g = gen_er(120, 0.1, seed=31)
        eta = edge_mix_from_graph(g)
        prog = target_program(problem_from_graph(g), assortativity(eta))
        assert len(prog.lower) == (len(eta.source_pairs)
                                   + len(eta.target_pairs) + 4)
        np.testing.assert_allclose(matrix(prog) @ eta.H.ravel(), prog.lower,
                                   rtol=0.0, atol=1e-10)

    def test_degenerate_sigma_rejected(self):
        p = problem_from_nu({(2, 3): 1.0})
        with pytest.raises(ValueError, match="degenerate"):
            target_program(p, AssortProfile(0.5, 0.5, 0.5, 0.5))


class TestProblemEnds:
    """A problem's ends, worked out from nu, against the graph's own."""

    def test_matches_graph_route(self):
        g = gen_er(100, 0.1, seed=32)
        e = problem_from_graph(g)
        eta = edge_mix_from_graph(g)
        U, _, sd_s = _standardise(eta.source_pairs, eta.row_masses())
        V, _, sd_t = _standardise(eta.target_pairs, eta.col_masses())
        for want, got in ((eta.row_masses(), e.rho), (eta.col_masses(), e.kappa),
                          (U, e.U), (V, e.V), (sd_s, e.sd_s), (sd_t, e.sd_t)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_degenerate_out_end_has_exactly_zero_sigma(self):
        # Every node has out-degree 3, so both out-degree ends sit on one
        # point, but the renormalised source mass is 0.9999999999999998
        # rather than 1.  The one-pass E[x^2] - E[x]^2 formula leaves
        # sqrt noise of about 6e-8 there; the helper must give 0.
        nu = {(3, 1): 3 / 11, (3, 2): 4 / 11, (3, 3): 4 / 11}
        e = problem_from_nu(nu)
        mass = e.rho.sum()
        one_pass = np.sqrt(max(9 * mass - (3 * mass) ** 2, 0.0))
        assert one_pass > 0.0  # the input does expose the rounding noise
        assert e.sd_s[0] == 0.0 and e.sd_t[0] == 0.0
        assert (e.U[:, 0] == 0.0).all() and (e.V[:, 0] == 0.0).all()
        assert e.sd_s[1] > 0.0 and e.sd_t[1] > 0.0

        with pytest.raises(ValueError, match="degenerate"):
            solve_target_eta(problem_from_nu(nu),
                             AssortProfile(0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="degenerate"):
            coefficient_bounds(problem_from_nu(nu))
        # the in-in coefficient is still defined
        lo, hi = coefficient_bounds(problem_from_nu(nu),
                                    order=((2, 2),))[(2, 2)]
        assert -1.0 <= lo < hi <= 1.0


class TestSolveTargetEta:
    def test_own_profile_is_feasible(self):
        g = gen_er(100, 0.1, seed=33)
        obs = assortativity_of_graph(g)
        eta = solve_target_eta(problem_from_graph(g), obs)
        assert eta is not None
        assert assortativity(eta).max_abs_diff(obs) < 1e-6
        eta.validate(atol=1e-6)

    def test_er_paper_targets_feasible(self):
        g = gen_er(1000, 0.1, seed=42)
        tgt = AssortProfile(0.6, 0.5, -0.4, -0.3)
        eta = solve_target_eta(problem_from_graph(g), tgt)
        assert eta is not None
        assert assortativity(eta).max_abs_diff(tgt) < 1e-6

    def test_unequal_targets_unattainable_on_toy(self):
        assert solve_target_eta(
            toy_problem(), AssortProfile(0.5, 0.4, 0.5, 0.5)) is None

    def test_below_range_unattainable_on_toy(self):
        assert solve_target_eta(
            toy_problem(), AssortProfile(-0.6, -0.6, -0.6, -0.6)) is None

    def test_equal_targets_attainable_on_toy(self):
        tgt = AssortProfile(0.5, 0.5, 0.5, 0.5)
        eta = solve_target_eta(toy_problem(), tgt)
        assert eta is not None
        assert assortativity(eta).max_abs_diff(tgt) < 1e-9

    def test_boundary_targets_reachable(self):
        tgt = AssortProfile(1.0, 1.0, 1.0, 1.0)
        eta = solve_target_eta(toy_problem(), tgt)
        assert eta is not None
        assert assortativity(eta).max_abs_diff(tgt) < 1e-6

    # Neither interior route yields a matrix on unattainable targets: the
    # entropy solve finds no strictly positive point, and the centre polish,
    # started from a strictly positive but infeasible matrix, cannot reach
    # the constraints.  solve_target_eta then reports None.
    @pytest.mark.parametrize("route", ["entropy", "center"])
    def test_interior_methods_raise_on_unattainable(self, route):
        p, tgt = toy_problem(), AssortProfile(0.5, 0.4, 0.5, 0.5)
        if route == "entropy":
            eta = _entropy_eta(p, _targets(tgt))[0]
        else:
            ns, nt = len(p.source_pairs), len(p.target_pairs)
            start = EdgeMixMatrix(list(p.source_pairs), list(p.target_pairs),
                                  np.full((ns, nt), 1.0 / (ns * nt)))
            eta = _center_eta(p, _targets(tgt), start)
        assert eta is None
        assert solve_target_eta(p, tgt) is None

    # Each route of solve_target_eta on its own: the entropy point, its
    # centre polish, and the spread LP fallback.
    ROUTES = {
        "solve": solve_target_eta,
        "entropy": lambda p, tgt: _entropy_eta(p, _targets(tgt))[0],
        "center": lambda p, tgt: _center_eta(
            p, _targets(tgt), _entropy_eta(p, _targets(tgt))[0]),
        "spread": lambda p, tgt: _lp_target_eta(p, _targets(tgt)),
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_all_methods_hit_targets(self, route):
        g = gen_er(300, 0.1, seed=2)
        tgt = AssortProfile(0.2, 0.1, -0.1, 0.05)
        eta = self.ROUTES[route](problem_from_graph(g), tgt)
        assert eta is not None
        assert assortativity(eta).max_abs_diff(tgt) < 1e-6
        eta.validate(atol=1e-6)

    def test_lp_fallback_keeps_full_support(self):
        # The entropy solve finds no strictly positive matrix here, yet one
        # exists: the spread LP keeps every entry at least t* = 0.034 times
        # the independence mass.  A basic LP solution has 2.8% support.
        p, tgt = fallback_problem()
        assert _entropy_eta(p, _targets(tgt))[0] is None
        eta = solve_target_eta(p, tgt)
        assert eta is not None and (eta.H > 0.0).all()
        assert assortativity(eta).max_abs_diff(tgt) < 1e-6
        eta.validate(atol=1e-6)


def fallback_problem():
    """DPA with 1,022 edges, and targets where the entropy solve finds no
    strictly positive matrix, though one exists: (problem, targets)."""
    g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 1022, seed=281922))
    return problem_from_graph(g), AssortProfile(
        0.40786717969867986, 0.3146593057866909, 0.7319272474337181,
        0.1591612431119376)


def boundary_problem(n):
    """ER(n, 0.1), and targets with r11 at its closed-form maximum and the
    rest at 0: (problem, targets)."""
    p = problem_from_graph(gen_er(n, 0.1, seed=1))
    hi = coefficient_bounds(p)[(1, 1)][1]
    return p, AssortProfile(hi, 0.0, 0.0, 0.0)


def _standardised_weights(p):
    """Per-coefficient weights w_ab(s, t) whose eta-moment is r(a, b),
    standardised here from the raw degrees and the end masses."""
    def standardise(pairs, mass):
        x = np.array(pairs, dtype=float)
        x -= mass @ x
        return x / np.sqrt(mass @ (x * x))

    u = standardise(p.source_pairs, p.rho)
    v = standardise(p.target_pairs, p.kappa)
    return {(a, b): np.outer(u[:, a - 1], v[:, b - 1]) for a, b in TYPE_PAIRS}


class TestEntropyOracle:
    """The maximum-entropy point is the unique feasible matrix of the form
    exp(A_s + B_t + sum lam_ab w_ab); checking the form and feasibility
    separately certifies the solver's answer."""

    @pytest.mark.parametrize("graph, targets", [
        (lambda: gen_er(300, 0.1, seed=2), (0.2, 0.1, -0.1, 0.05)),
        (lambda: gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 5_000, seed=1)),
         (0.1, 0.15, 0.1, 0.15)),
    ], ids=["er300", "dpa5e3"])
    def test_gibbs_form_and_feasibility(self, graph, targets):
        g = graph()
        tgt = AssortProfile(*targets)
        p = problem_from_graph(g)
        eta, lam = _entropy_eta(p, _targets(tgt))
        assert eta is not None and (eta.H > 0.0).all()

        weights = _standardised_weights(p)
        Z = np.log(eta.H) - sum(lam[k] * weights[pair]
                                for k, pair in enumerate(TYPE_PAIRS))
        additive_part = (Z.mean(axis=1, keepdims=True)
                         + Z.mean(axis=0, keepdims=True) - Z.mean())
        assert np.abs(Z - additive_part).max() < 1e-8

        nu = degree_pair_dist(g)
        src_mass = np.array([i * nu[(i, j)] for i, j in p.source_pairs])
        tgt_mass = np.array([j * nu[(i, j)] for i, j in p.target_pairs])
        rows = eta.H.sum(axis=1)
        cols = eta.H.sum(axis=0)
        assert np.abs(rows / (src_mass / src_mass.sum()) - 1.0).max() < 1e-10
        assert np.abs(cols / (tgt_mass / tgt_mass.sum()) - 1.0).max() < 1e-10
        for pair in TYPE_PAIRS:
            assert float((weights[pair] * eta.H).sum()) == pytest.approx(
                tgt.get(*pair), abs=1e-10)

    def test_answer_does_not_depend_on_blas_threads(self, tmp_path):
        # Solved twice in fresh interpreters, so the thread count is fixed
        # before numpy loads its BLAS.
        script = (
            "import sys, numpy as np\n"
            "from didpr.assortativity import AssortProfile\n"
            "from didpr.eta import _entropy_eta, _targets, problem_from_graph\n"
            "from didpr.generate import gen_er\n"
            "p = problem_from_graph(gen_er(1000, 0.1, seed=1))\n"
            "m_star = _targets(AssortProfile(0.6, 0.5, -0.4, -0.3))\n"
            "np.save(sys.argv[1], _entropy_eta(p, m_star)[0].H)\n"
        )
        src_dir = str(Path(didpr.__file__).resolve().parents[1])
        runs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"eta{threads}.npy"
            runs[threads] = (out, subprocess.Popen(
                [sys.executable, "-c", script, str(out)], env=env))
        for out, proc in runs.values():
            assert proc.wait(timeout=300) == 0
        one, two = (np.load(out) for out, _ in runs.values())
        assert (np.abs(one - two) / one).max() <= 1e-8


class TestCenterOracle:
    """The dense reference assembles and solves the centre's whole Newton
    system; from the same entropy start, the low-rank kernel must reach the
    same centre."""

    @pytest.mark.parametrize("graph, targets", [
        (lambda: gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 3_000, seed=1)),
         (0.1, 0.15, 0.1, 0.15)),
        (lambda: gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 20_000, seed=1)),
         (0.1, 0.15, 0.1, 0.15)),
        (lambda: gen_er(300, 0.1, seed=2), (0.2, 0.1, -0.1, 0.05)),
    ], ids=["dpa3e3", "dpa2e4", "er300"])
    def test_matches_dense_reference(self, graph, targets):
        p = problem_from_graph(graph())
        m_star = _targets(AssortProfile(*targets))
        start = _entropy_eta(p, m_star)[0]
        eta = _center_eta(p, m_star, start)
        ref = reference_center_eta(p, m_star, start)
        assert eta is not None and ref is not None
        assert (np.abs(eta.H - ref.H) / ref.H).max() <= 1e-8


def _scipy_cg(matvec, b, d, maxiter):
    """scipy's cg on the same system and preconditioner: (x, iterations)."""
    from scipy.sparse.linalg import LinearOperator, cg

    n = len(d)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x = cg(LinearOperator((n, n), matvec=matvec, dtype=np.float64), b,
           rtol=_CG_TOL, maxiter=maxiter, callback=count,
           M=LinearOperator((n, n), matvec=lambda z: z / d,
                            dtype=np.float64))[0]
    return x, iterations


def _scipy_has_rtol():
    from scipy.sparse.linalg import cg

    return "rtol" in inspect.signature(cg).parameters


@pytest.mark.skipif(not _scipy_has_rtol(),
                    reason="scipy before 1.12 names cg's tolerance tol")
class TestCgOracle:
    """The in-house CG runs its right sides in lockstep, each with the
    recurrence of scipy.sparse.linalg.cg.  Given a product that applies H
    to one side at a time, every side must come out as scipy's x to the bit
    after the same number of iterations; with the kernel's block product,
    within 1e-12 of it (relative), one iteration either way."""

    CASES = {
        "toy": (toy_problem, (0.5, 0.5, 0.5, 0.5), False),
        "er150": (lambda: problem_from_graph(gen_er(150, 0.1, seed=1)),
                  (0.2, 0.1, -0.1, 0.05), False),
        "dpa3e3": (lambda: problem_from_graph(
            gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 3_000, seed=1))),
            (0.1, 0.15, 0.1, 0.15), True),
    }

    @staticmethod
    def recorded_systems(monkeypatch, case):
        """Every Newton system of the entropy solve and, where asked, its
        centre polish: (the _newton_kkt arguments, then the matmat, B, d,
        maxiter, X and iterations of its _cg call)."""
        make, targets, polish = TestCgOracle.CASES[case]
        calls, kkt = [], []
        real_cg, real_kkt = etalib._cg, etalib._newton_kkt

        def recording_kkt(*args):
            kkt.append(args)
            return real_kkt(*args)

        def recording_cg(matmat, B, d, maxiter):
            X, iterations = real_cg(matmat, B, d, maxiter)
            calls.append((kkt[-1], matmat, B, d, maxiter, X, iterations))
            return X, iterations

        monkeypatch.setattr(etalib, "_newton_kkt", recording_kkt)
        monkeypatch.setattr(etalib, "_cg", recording_cg)
        p, m_star = make(), _targets(AssortProfile(*targets))
        eta = _entropy_eta(p, m_star)[0]
        assert eta is not None
        if polish:
            assert _center_eta(p, m_star, eta) is not None
        monkeypatch.undo()
        assert calls and len(calls) == len(kkt)
        return calls

    @staticmethod
    def one_side_at_a_time(K):
        """H of the kernel's matrix K on one vector, as the kernel applied
        it before the lockstep: (matvec, matmat mapping it over rows)."""
        ns = K.shape[0]
        rs, cs = K.sum(axis=1), K.sum(axis=0)

        def matvec(z):
            return np.concatenate([rs * z[:ns] + K @ z[ns:],
                                   z[:ns] @ K + cs * z[ns:]])

        return matvec, lambda Z: np.stack([matvec(z) for z in Z])

    @pytest.mark.parametrize("case", list(CASES))
    def test_every_kernel_system_matches_scipy(self, monkeypatch, case):
        # One side at a time: scipy's x to the bit.
        for kkt, _, B, d, maxiter, _, _ in self.recorded_systems(monkeypatch,
                                                                 case):
            matvec, matmat = self.one_side_at_a_time(kkt[0])
            # Five right sides per Newton step: four P columns and r_ab.
            assert B.shape == (5, len(d)) and B.flags.c_contiguous
            X, iterations = etalib._cg(matmat, B, d, maxiter)
            assert iterations.sum() < maxiter
            for b, x, n in zip(B, X, iterations):
                want_x, want_n = _scipy_cg(matvec, b, d, maxiter)
                assert np.array_equal(x, want_x)
                assert n == want_n

    @pytest.mark.parametrize("case", list(CASES))
    def test_block_product_matches_scipy(self, monkeypatch, case):
        # H is singular along the shift of rows against columns, which
        # moves no moment, so x is compared with that shift taken out.  At
        # the independence coupling (the entropy solve's first step) KV and
        # U'K vanish: the P columns are rounding noise, and so is their x.
        for kkt, _, B, d, maxiter, X, iterations in self.recorded_systems(
                monkeypatch, case):
            K = kkt[0]
            matvec, _ = self.one_side_at_a_time(K)
            shift = np.concatenate([np.ones(len(K)), -np.ones(len(d) - len(K))])
            for b, x, n in zip(B, X, iterations):
                want_x, want_n = _scipy_cg(matvec, b, d, maxiter)
                assert abs(n - want_n) <= 1
                if np.linalg.norm(b) <= 1e-12 * K.sum():
                    continue
                gap, want_x = ((v - (v @ shift) / len(d) * shift)
                               for v in (x - want_x, want_x))
                assert np.linalg.norm(gap) <= 1e-12 * np.linalg.norm(want_x)

    def test_zero_right_side(self, monkeypatch):
        # A zero side comes back as is after no iteration and costs no pass;
        # the other sides run as they would without it.
        kkt, _, B, d, maxiter = self.recorded_systems(monkeypatch,
                                                      "er150")[0][:5]
        matvec, matmat = self.one_side_at_a_time(kkt[0])
        zero = np.zeros_like(d)
        X, iterations = etalib._cg(matmat, B[:4], d, maxiter)
        with_zero, with_zero_its = etalib._cg(
            matmat, np.stack([B[0], zero, *B[1:4]]), d, maxiter)
        want_x, want_n = _scipy_cg(matvec, zero, d, maxiter)
        assert np.array_equal(with_zero[1], want_x) and not want_x.any()
        assert with_zero_its[1] == want_n == 0
        assert np.array_equal(np.delete(with_zero, 1, axis=0), X)
        assert np.array_equal(np.delete(with_zero_its, 1), iterations)
        X, iterations = etalib._cg(matmat, np.zeros((2, len(d))), d, maxiter)
        assert not X.any() and not iterations.any()

    def test_budget_runs_out(self, monkeypatch):
        # The budget caps the sides' iterations together; each side stops
        # where scipy would with its own count as maxiter.
        calls = self.recorded_systems(monkeypatch, "dpa3e3")
        kkt, _, B, d, _, _, needed = max(calls, key=lambda c: c[6].sum())
        matvec, matmat = self.one_side_at_a_time(kkt[0])
        budget = int(needed.sum()) // 2
        X, iterations = etalib._cg(matmat, B, d, budget)
        assert budget <= iterations.sum() < budget + len(B)
        for b, x, n in zip(B, X, iterations):
            want_x, want_n = _scipy_cg(matvec, b, d, int(n))
            assert np.array_equal(x, want_x)
            assert n == want_n


class TestPassAccounting:
    """A pass is one CG iteration of one right side, so the lockstep makes
    passes cheaper but no fewer, and _PASS_MAX, which sends near-boundary
    targets to the spread LP, cuts where it did."""

    @staticmethod
    def newton_trace(monkeypatch, p, targets):
        """_entropy_eta's answer, and each Newton step's passes on entry
        and after its CG (None where the kernel gave up)."""
        trace = []
        real = etalib._newton_kkt

        def spy(K, U, V, r_ab, r_lam, passes):
            sol = real(K, U, V, r_ab, r_lam, passes)
            trace.append((passes, None if sol is None else sol[2]))
            return sol

        monkeypatch.setattr(etalib, "_newton_kkt", spy)
        return _entropy_eta(p, _targets(targets))[0], trace

    def test_fallback_runs_out_where_it_did(self, monkeypatch):
        # The cap of 5,000 is then reached in the line search's Sinkhorn.
        eta, trace = self.newton_trace(monkeypatch, *fallback_problem())
        assert eta is None
        assert len(trace) == 7 and trace[-1] == (4_320, 4_423)

    def test_er_paper_work(self, monkeypatch):
        tgt = AssortProfile(0.6, 0.5, -0.4, -0.3)
        eta, trace = self.newton_trace(
            monkeypatch, problem_from_graph(gen_er(1000, 0.1, seed=1)), tgt)
        assert eta is not None
        assert assortativity(eta).max_abs_diff(tgt) < 1e-9
        assert len(trace) == 8 and trace[-1][1] <= 1_200

    def test_budget_is_shared_by_the_sides(self, monkeypatch):
        # The kernel gives up exactly when the sides' iterations together
        # reach the passes left.
        calls = TestCgOracle.recorded_systems(monkeypatch, "er150")
        kkt, *_, iterations = calls[0]
        K, U, V, r_ab, r_lam, _ = kkt
        needed = int(iterations.sum())
        start = etalib._PASS_MAX - needed
        assert etalib._newton_kkt(K, U, V, r_ab, r_lam, start + 1) is None
        assert etalib._newton_kkt(K, U, V, r_ab, r_lam, start - 1)[2] == (
            etalib._PASS_MAX - 1)


class TestCoefficientBounds:
    def test_toy_range_is_known_interval(self):
        b = coefficient_bounds(toy_problem())
        for pair in ((1, 1), (1, 2), (2, 1), (2, 2)):
            lo, hi = b[pair]
            assert lo == pytest.approx(TOY_LOW, abs=1e-6)
            assert hi == pytest.approx(1.0, abs=1e-6)

    def test_singleton_conditioning_forces_the_rest(self):
        # one coefficient pins the single free direction of the toy polytope
        b = coefficient_bounds(toy_problem(),
                               conditioning={(1, 1): (0.5, 0.5)})
        for pair in ((1, 2), (2, 1), (2, 2)):
            lo, hi = b[pair]
            assert lo == pytest.approx(0.5, abs=1e-8)
            assert hi == pytest.approx(0.5, abs=1e-8)

    def test_bounds_bracket_observed(self):
        g = gen_er(200, 0.05, seed=34)
        obs = assortativity_of_graph(g)
        b = coefficient_bounds(problem_from_graph(g))
        for a in (1, 2):
            for bb in (1, 2):
                lo, hi = b[(a, bb)]
                assert lo - 1e-9 <= obs.get(a, bb) <= hi + 1e-9

    def test_er_in_in_bounds_stay_wide(self):
        b = coefficient_bounds(problem_from_graph(gen_er(150, 0.1, seed=3)))
        lo, hi = b[(2, 2)]
        assert lo <= -0.9
        assert hi >= 0.9

    def test_monotone_nesting(self):
        p = problem_from_graph(gen_er(120, 0.1, seed=35))
        free = coefficient_bounds(p)
        pinned = coefficient_bounds(p, conditioning={(1, 1): (0.5, 0.6)})
        for pair in ((1, 2), (2, 1), (2, 2)):
            lo0, hi0 = free[pair]
            lo1, hi1 = pinned[pair]
            assert lo1 >= lo0 - 1e-9
            assert hi1 <= hi0 + 1e-9

    def test_unattainable_conditioning_rejected(self):
        with pytest.raises(ValueError, match="unattainable"):
            coefficient_bounds(toy_problem(),
                               conditioning={(1, 1): (-0.9, -0.8)})

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError):
            coefficient_bounds(toy_problem(), order=((3, 1),))

    @pytest.mark.parametrize("graph", [
        lambda: gen_er(150, 0.1, seed=3),
        lambda: gen_er(300, 0.1, seed=1),
        lambda: gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 5_000, seed=1)),
    ], ids=["er150", "er300", "dpa5e3"])
    def test_closed_form_matches_lp(self, graph):
        # r11 in [-1, 1] never binds, but any conditioning sends the bounds
        # down the LP path, which then answers the unconditioned question.
        p = problem_from_graph(graph())
        closed = coefficient_bounds(p)
        via_lp = coefficient_bounds(p, conditioning={(1, 1): (-1.0, 1.0)})
        for pair in TYPE_PAIRS:
            assert closed[pair] == pytest.approx(via_lp[pair], abs=1e-9)

    def test_unconditioned_bounds_solve_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("unconditioned bounds called the LP")

        # every LP, masters and one-shot solves alike, runs in Model.solve
        monkeypatch.setattr(lplib.Model, "solve", no_lp)
        b = coefficient_bounds(problem_from_graph(gen_er(150, 0.1, seed=3)))
        assert all(-1.0 <= lo < hi <= 1.0 for lo, hi in b.values())
        with pytest.raises(AssertionError, match="called the LP"):
            coefficient_bounds(toy_problem(),
                               conditioning={(1, 1): (0.0, 0.5)})


def _oracle_problem(name):
    if name == "toy":
        return toy_problem()
    if name == "er300":
        return problem_from_graph(gen_er(300, 0.05, seed=1))
    return problem_from_graph(
        gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 5_000, seed=1)))


@pytest.fixture(scope="module", params=["toy", "er300", "dpa5e3"])
def oracle_problem(request):
    p = _oracle_problem(request.param)
    return p, coefficient_bounds(p)


def assert_matches_full_program(p, conditioning, order):
    """coefficient_bounds against the full ns x nt program, to 1e-10;
    unattainable intervals must be rejected by both."""
    want = {pair: reference_range(p, pair, conditioning) for pair in order}
    if any(w is None for w in want.values()):
        assert all(w is None for w in want.values())
        with pytest.raises(ValueError, match="unattainable"):
            coefficient_bounds(p, order=order, conditioning=conditioning)
        return
    got = coefficient_bounds(p, order=order, conditioning=conditioning)
    for pair in order:
        diff = np.subtract(got[pair], np.clip(want[pair], -1.0, 1.0))
        assert np.abs(diff).max() <= 1e-10, (pair, got[pair], want[pair])


class TestConditionedBoundsOracle:
    """Column generation against the full program of tests/bounds_reference.py
    on the toy problem, ER with n = 300 and DPA with 5e3 edges.  The ER
    graph has p = 0.05: at p = 0.1 the reference takes twice as long."""

    def test_every_ordered_pair(self, oracle_problem):
        p, free = oracle_problem
        for pin in TYPE_PAIRS:
            value = sum(free[pin]) / 2.0
            assert_matches_full_program(
                p, {pin: (value, value)},
                tuple(pair for pair in TYPE_PAIRS if pair != pin))

    def test_interval(self, oracle_problem):
        p, free = oracle_problem
        lo, hi = free[(1, 1)]
        assert_matches_full_program(
            p, {(1, 1): (lo + 0.2 * (hi - lo), lo + 0.6 * (hi - lo))},
            ((2, 2),))

    @pytest.mark.parametrize("end", [0, 1], ids=["lower", "upper"])
    def test_value_at_an_end_of_its_range(self, oracle_problem, end):
        p, free = oracle_problem
        value = free[(1, 1)][end]
        assert_matches_full_program(p, {(1, 1): (value, value)}, ((2, 2),))

    def test_three_pins(self, oracle_problem):
        # the independence coupling attains every coefficient 0
        p, _ = oracle_problem
        assert_matches_full_program(
            p, {(1, 2): (0.0, 0.0), (2, 1): (-0.05, 0.05), (2, 2): (0.0, 0.0)},
            ((1, 1),))

    def test_unattainable_interval(self, oracle_problem):
        p, free = oracle_problem
        hi = free[(2, 2)][1]
        assert_matches_full_program(p, {(2, 2): (hi + 0.01, hi + 0.02)},
                                    ((1, 1),))

    # Pins near the edge of the joint region of (r12, r21, r22), found by
    # search: no mix of the seed's comonotone and antitone supports meets
    # all three, so the seeded master is infeasible and phase I prices in
    # the cells that meet them.  With r22 = 0.5 the three are jointly
    # unattainable although each lies inside its own range.
    @pytest.mark.parametrize("r22, attainable", [(0.21, True), (0.5, False)])
    def test_infeasible_seed_goes_through_phase_one(self, monkeypatch, r22,
                                                    attainable):
        p = problem_from_graph(gen_er(30, 0.1, seed=1))
        cond = {(1, 2): (0.745, 0.745), (2, 1): (0.878, 0.878),
                (2, 2): (r22, r22)}
        free = coefficient_bounds(p)
        assert all(free[pin][0] < lo <= free[pin][1]
                   for pin, (lo, _) in cond.items())
        want = reference_range(p, (1, 1), cond)
        assert (want is not None) == attainable

        # every master is one Model.solve: the seeded one, then phase I's
        # and phase II's re-solves of the same model
        statuses = []
        solve = lplib.Model.solve

        def logged(model):
            sol = solve(model)
            statuses.append(sol.status)
            return sol

        monkeypatch.setattr(lplib.Model, "solve", logged)
        if attainable:
            got = coefficient_bounds(p, order=((1, 1),), conditioning=cond)
            assert np.abs(np.subtract(got[(1, 1)], want)).max() <= 1e-10
        else:
            with pytest.raises(ValueError, match="unattainable"):
                coefficient_bounds(p, order=((1, 1),), conditioning=cond)
        assert statuses[0] is lplib.LpStatus.INFEASIBLE
        assert len(statuses) > 2

    def test_no_master_is_the_full_program(self, monkeypatch):
        # no silent fall-back to the full ns x nt program, in the
        # conditioned bounds or in the solve's LP fallback
        p = problem_from_graph(
            gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 5_000, seed=1)))
        cells = len(p.source_pairs) * len(p.target_pairs)
        # a master's size is its model's column count when it is solved
        sizes = []
        solve = lplib.Model.solve

        def logged(model):
            sizes.append(model.num_vars)
            return solve(model)

        monkeypatch.setattr(lplib.Model, "solve", logged)
        coefficient_bounds(p, order=((2, 2),),
                           conditioning={(1, 1): (0.1, 0.1)})
        assert sizes and max(sizes) <= cells / 2

        sizes.clear()
        p, tgt = fallback_problem()
        assert solve_target_eta(p, tgt) is not None
        assert sizes and max(sizes) <= len(p.source_pairs) * len(
            p.target_pairs) / 2


def spread_optimum(p, targets):
    """t* of the spread program under targets by column generation, or
    None: the optimum _lp_target_eta's one column generation returns."""
    found = []
    generate = etalib._column_generation

    def record(*args):
        found.append(generate(*args))
        return found[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(etalib, "_column_generation", record)
        eta = _lp_target_eta(p, _targets(targets))
    (result,) = found
    assert (eta is None) == (result is None)
    return None if result is None else -result[0]


def dpa5e3_problem(targets):
    g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 5_000, seed=1))
    return problem_from_graph(g), AssortProfile(*targets)


class TestSpreadOracle:
    """The solve's LP fallback against the full spread program of
    tests/bounds_reference.py: the same verdict, and t* to 1e-9."""

    # Each case lists (problem, targets, attainable) triples.
    @pytest.mark.parametrize("cases", [
        lambda: [(toy_problem(), AssortProfile(r, r, r, r), True)
                 for r in (-0.4, -0.1, 0.0, 0.35, 1.0)],
        lambda: [(*boundary_problem(60), True)],
        lambda: [(*boundary_problem(150), False)],
        lambda: [(problem_from_graph(gen_er(300, 0.1, seed=2)),
                  AssortProfile(0.2, 0.1, -0.1, 0.05), True)],
        lambda: [(*fallback_problem(), True)],
        lambda: [(*dpa5e3_problem((0.1, 0.15, 0.1, 0.15)), True),
                 (*dpa5e3_problem((0.99, 0.5, -0.4, -0.3)), False)],
    ], ids=["toy", "er60-boundary", "er150-boundary", "er300", "dpa1022",
            "dpa5e3"])
    def test_matches_full_program(self, cases):
        for p, tgt, attainable in cases():
            want = reference_spread(p, tgt)
            assert (want is not None) == attainable
            got = spread_optimum(p, tgt)
            if attainable:
                assert got == pytest.approx(want, abs=1e-9)
            else:
                assert got is None


def _same_model_problem(name):
    """A problem, targets and point conditioning for TestSameModel."""
    if name == "toy":
        return toy_problem(), AssortProfile(0.35, 0.35, 0.35, 0.35), {
            (1, 1): (0.35, 0.35)}
    g = (gen_er(150, 0.1, seed=3) if name == "er150" else
         gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 2_000, seed=1)))
    obs = assortativity_of_graph(g)
    return problem_from_graph(g), obs, {
        (1, 2): (obs.r12, obs.r12), (2, 1): (0.0, 0.0),
        (2, 2): (obs.r22, obs.r22)}


@pytest.mark.parametrize("name", ["toy", "er150", "dpa2e3"])
class TestSameModel:
    """Point pins give HiGHS the very model the full sparse program of
    tests/bounds_reference.py gives: the same row bounds, columns and
    reduced costs, bit for bit, so the masters solve as they did when the
    library sliced that program."""

    @staticmethod
    def programs(name):
        """(library program, oracle rows) for the conditioned bounds and
        for the targets."""
        p, tgt, cond = _same_model_problem(name)
        return [(_program(p, cond), full_program(p, cond)),
                (target_program(p, tgt), full_program(p, targets=tgt))]

    def test_columns_are_the_sliced_full_program(self, name):
        rng = np.random.default_rng(40)
        for prog, (A_eq, b_eq, A_ub, _) in self.programs(name):
            # sp.kron stores the zeros of eye(nt) for nt <= 2, as on the
            # toy problem; HiGHS drops them as it reads the matrix
            A_eq.eliminate_zeros()
            assert A_ub.shape[0] == 0
            assert np.array_equal(prog.lower, b_eq)
            assert np.array_equal(prog.upper, b_eq)
            cells = A_eq.shape[1]
            for size in (1, cells // 7 + 1, cells):
                pick = np.sort(rng.choice(cells, size=size, replace=False))
                want = A_eq[:, pick]
                for got, arr in zip(prog.columns(pick),
                                    (want.indptr, want.indices, want.data)):
                    assert np.array_equal(got, arr)

    def test_dense_reduced_costs_are_bit_equal(self, name):
        rng = np.random.default_rng(41)
        for prog, (A_eq, *_) in self.programs(name):
            for _ in range(3):
                c = rng.standard_normal(A_eq.shape[1])
                y = rng.standard_normal(A_eq.shape[0])
                assert np.array_equal(prog.reduced(c, y), c - A_eq.T @ y)
                assert np.array_equal(prog.reduced(0.0, y), 0.0 - A_eq.T @ y)

    def test_spread_column_is_the_full_programs(self, name, monkeypatch):
        p, tgt, _ = _same_model_problem(name)
        seen = {}

        def capture(prog, c, seed, what, extra=None):
            seen.update(c=c, extra=extra)

        monkeypatch.setattr(etalib, "_column_generation", capture)
        assert _lp_target_eta(p, _targets(tgt)) is None
        c, A_eq, *_ = spread_program(p, tgt)
        t = A_eq[:, -1]
        assert np.array_equal(seen["c"], c)
        for got, arr in zip(seen["extra"], (t.indptr, t.indices, t.data)):
            assert np.array_equal(got, arr)


class TestAttainabilityConsistency:
    """Solvability matches the window left by pinning the other three."""

    def test_inside_window_solves_outside_does_not(self):
        g = gen_er(30, 0.15, seed=4)
        obs = assortativity_of_graph(g)
        p = problem_from_graph(g)
        assert solve_target_eta(p, obs) is not None
        cond = {(1, 2): (obs.r12, obs.r12),
                (2, 1): (obs.r21, obs.r21),
                (2, 2): (obs.r22, obs.r22)}
        lo, hi = coefficient_bounds(p, order=((1, 1),),
                                    conditioning=cond)[(1, 1)]
        assert lo - 1e-6 <= obs.r11 <= hi + 1e-6
        beyond = AssortProfile(hi + 0.05, obs.r12, obs.r21, obs.r22)
        assert solve_target_eta(p, beyond) is None


    @pytest.mark.parametrize("n, attainable", [(60, True), (150, False)])
    def test_boundary_target_gets_a_verdict(self, n, attainable):
        # r11 at its closed-form maximum, the rest at 0: the entropy solve
        # finds no positive point, so the LP gives the verdict.  The same
        # target on ER with n = 1000 (attainable) takes ~10 s, so the CI
        # workflow checks it through the CLI instead.
        p, tgt = boundary_problem(n)
        assert _entropy_eta(p, _targets(tgt))[0] is None
        eta = solve_target_eta(p, tgt)
        if attainable:
            assert eta is not None
            assert assortativity(eta).max_abs_diff(tgt) < 1e-9
        else:
            assert eta is None


class TestProblemValidation:
    def test_edgeless_nu_rejected(self):
        with pytest.raises(ValueError):
            problem_from_nu({(0, 0): 1.0})

    # Conditioning enters through coefficient_bounds, which rejects an
    # unknown pair or an empty interval before any work.
    def test_bad_interval_pair_rejected(self):
        with pytest.raises(ValueError, match="unknown type pair"):
            coefficient_bounds(toy_problem(),
                               conditioning={(9, 9): (0.0, 0.1)})

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="empty interval"):
            coefficient_bounds(toy_problem(),
                               conditioning={(1, 1): (0.5, 0.2)})

    # nan != nan, so a NaN pin would fail the point test and go to the LP
    # layer as an interval; every pin must be finite.
    @pytest.mark.parametrize("interval", [(np.nan, np.nan), (0.1, np.inf),
                                          (-np.inf, 0.1)],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="non-finite interval"):
            coefficient_bounds(toy_problem(), order=((2, 2),),
                               conditioning={(1, 1): interval})

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_targets_rejected(self, bad):
        tgt = AssortProfile(bad, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="targets must be finite"):
            _targets(tgt)
        with pytest.raises(ValueError, match="targets must be finite"):
            solve_target_eta(toy_problem(), tgt)


class TestAdaptiveDispatch:
    """The centre polish keys off the entropy tilt's typical log acceptance
    step: light-tailed inputs steer fine from the Gibbs point, heavy tails
    need the analytic-centre polish."""

    def test_drift_separates_regimes(self):
        from didpr.eta import _chain_drift

        pe = problem_from_graph(gen_er(500, 0.1, seed=5))
        _, lam = _entropy_eta(pe, np.array([0.6, 0.5, -0.4, -0.3]))
        assert _chain_drift(pe, lam) > 0.1

        gd = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 20_000, seed=6))
        pd = problem_from_graph(gd)
        _, lam_d = _entropy_eta(pd, np.array([0.1, 0.15, 0.1, 0.15]))
        assert _chain_drift(pd, lam_d) < 0.1
