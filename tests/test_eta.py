"""Constraint assembly, target mixing-matrix solving, and coefficient bounds."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import didpr

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
    _center_eta,
    _column_generation,
    _entropy_eta,
    _lp_target_eta,
    _seed,
    _spread_program,
    assemble_constraints,
    coefficient_bounds,
    problem_from_graph,
    problem_from_nu,
    solve_target_eta,
)
from didpr.generate import DpaParams, gen_dpa, gen_er
from didpr.graph import DegreePairDist, degree_pair_dist

from bounds_reference import reference_range, reference_spread
from center_reference import reference_center_eta

# Two diagonal degree pairs, 13 nodes worth of mass.  Both end marginals of
# every coefficient collapse to the same {1: .3, 2: .7} distribution, so all
# four coefficients are the same function of eta: attainable targets are
# exactly the equal profiles with common value in [-3/7, 1].
NU_TOY = DegreePairDist({(1, 1): 6 / 13, (2, 2): 7 / 13})
TOY_LOW = -3 / 7


def toy_problem(targets=None):
    return problem_from_nu(NU_TOY, targets=targets)


class TestAssembleConstraints:
    def test_marginals_only_row_count(self):
        lp = assemble_constraints(toy_problem())
        assert lp.num_vars == 4
        assert lp.num_eq == 4
        assert lp.num_ub == 0

    def test_targets_add_four_rows(self):
        lp = assemble_constraints(
            toy_problem(targets=AssortProfile(0.2, 0.2, 0.2, 0.2)))
        assert lp.num_eq == 8

    def test_intervals_add_two_ub_rows_each(self):
        lp = assemble_constraints(
            toy_problem(), conditioning={(1, 1): (-0.1, 0.4)})
        assert lp.num_eq == 4
        assert lp.num_ub == 2

    def test_point_pin_adds_one_eq_row(self):
        lp = assemble_constraints(
            toy_problem(), conditioning={(1, 1): (0.4, 0.4)})
        assert lp.num_eq == 5
        assert lp.num_ub == 0
        assert lp.b_eq[4] == 0.4

    def test_observed_eta_satisfies_marginal_rows(self):
        g = gen_er(80, 0.1, seed=30)
        eta = edge_mix_from_graph(g)
        lp = assemble_constraints(problem_from_graph(g))
        x = eta.H.reshape(-1)
        assert np.abs(lp.A_eq @ x - lp.b_eq).max() < 1e-12


def toy_moment_row(lp):
    """b_eq of the r(1, 1) row and that row's moment under H."""
    return lp.b_eq[4], lambda H: float((lp.A_eq @ np.ravel(H))[4])


class TestMomentRows:
    """Pinning r(a, b) adds the standardised moment row U[:, a-1] V[:, b-1]
    with right side r itself: under a mixing matrix with the problem's
    marginals, the row's moment is the coefficient.  On the toy problem
    every end is {1: .3, 2: .7}: mean 1.7 and variance .21."""

    def test_zero_is_independence_value(self):
        # both standardised ends have mean 0, and so has their product
        # under the independence coupling
        p = toy_problem(targets=AssortProfile(0.0, 0.0, 0.0, 0.0))
        rhs, moment = toy_moment_row(assemble_constraints(p))
        assert rhs == 0.0
        assert moment(np.outer(p.ends.rho, p.ends.kappa)) == pytest.approx(
            0.0, abs=1e-12)

    def test_unit_correlation(self):
        # the diagonal coupling has r = 1: (.3 * .49 + .7 * .09) / .21
        p = toy_problem(targets=AssortProfile(1.0, 1.0, 1.0, 1.0))
        rhs, moment = toy_moment_row(assemble_constraints(p))
        assert rhs == 1.0
        assert moment(np.diag([0.3, 0.7])) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_round_trip(self):
        # The right side is r itself.  The LP solves the standardised rows,
        # and the coefficients of its answer give r back.
        for r in (-0.4, -0.1, 0.0, 0.35, 1.0):
            p = toy_problem(targets=AssortProfile(r, r, r, r))
            rhs, _ = toy_moment_row(assemble_constraints(p))
            assert rhs == r
            eta = _lp_target_eta(p)
            assert assortativity(eta).max_abs_diff(
                AssortProfile(r, r, r, r)) < 1e-9

    def test_identity_on_observed_data(self):
        g = gen_er(120, 0.1, seed=31)
        eta = edge_mix_from_graph(g)
        lp = assemble_constraints(
            problem_from_graph(g, targets=assortativity(eta)))
        assert lp.num_eq == len(eta.source_pairs) + len(eta.target_pairs) + 4
        np.testing.assert_allclose(lp.A_eq @ eta.H.ravel(), lp.b_eq,
                                   rtol=0.0, atol=1e-10)

    def test_degenerate_sigma_rejected(self):
        p = problem_from_nu(DegreePairDist({(2, 3): 1.0}),
                            targets=AssortProfile(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="degenerate"):
            assemble_constraints(p)


class TestProblemEnds:
    """A problem's ends, worked out from nu, against the graph's own."""

    def test_matches_graph_route(self):
        g = gen_er(100, 0.1, seed=32)
        e = problem_from_graph(g).ends
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
        nu = DegreePairDist({(3, 1): 3 / 11, (3, 2): 4 / 11, (3, 3): 4 / 11})
        e = problem_from_nu(nu).ends
        mass = e.rho.sum()
        one_pass = np.sqrt(max(9 * mass - (3 * mass) ** 2, 0.0))
        assert one_pass > 0.0  # the input does expose the rounding noise
        assert e.sd_s[0] == 0.0 and e.sd_t[0] == 0.0
        assert (e.U[:, 0] == 0.0).all() and (e.V[:, 0] == 0.0).all()
        assert e.sd_s[1] > 0.0 and e.sd_t[1] > 0.0

        with pytest.raises(ValueError, match="degenerate"):
            solve_target_eta(problem_from_nu(
                nu, targets=AssortProfile(0.0, 0.0, 0.0, 0.0)))
        with pytest.raises(ValueError, match="degenerate"):
            coefficient_bounds(problem_from_nu(nu))
        # the in-in coefficient is still defined
        lo, hi = coefficient_bounds(problem_from_nu(nu),
                                    order=((2, 2),)).get(2, 2)
        assert -1.0 <= lo < hi <= 1.0


class TestSolveTargetEta:
    def test_own_profile_is_feasible(self):
        g = gen_er(100, 0.1, seed=33)
        obs = assortativity_of_graph(g)
        eta = solve_target_eta(problem_from_graph(g, targets=obs))
        assert eta is not None
        assert assortativity(eta).max_abs_diff(obs) < 1e-6
        eta.validate(atol=1e-6)

    def test_er_paper_targets_feasible(self):
        g = gen_er(1000, 0.1, seed=42)
        tgt = AssortProfile(0.6, 0.5, -0.4, -0.3)
        eta = solve_target_eta(problem_from_graph(g, targets=tgt))
        assert eta is not None
        assert assortativity(eta).max_abs_diff(tgt) < 1e-6

    def test_unequal_targets_unattainable_on_toy(self):
        p = toy_problem(targets=AssortProfile(0.5, 0.4, 0.5, 0.5))
        assert solve_target_eta(p) is None

    def test_below_range_unattainable_on_toy(self):
        p = toy_problem(targets=AssortProfile(-0.6, -0.6, -0.6, -0.6))
        assert solve_target_eta(p) is None

    def test_equal_targets_attainable_on_toy(self):
        tgt = AssortProfile(0.5, 0.5, 0.5, 0.5)
        eta = solve_target_eta(toy_problem(targets=tgt))
        assert eta is not None
        assert assortativity(eta).max_abs_diff(tgt) < 1e-9

    def test_boundary_targets_reachable(self):
        tgt = AssortProfile(1.0, 1.0, 1.0, 1.0)
        eta = solve_target_eta(toy_problem(targets=tgt))
        assert eta is not None
        assert assortativity(eta).max_abs_diff(tgt) < 1e-6

    # Neither interior route yields a matrix on unattainable targets: the
    # entropy solve finds no strictly positive point, and the centre polish,
    # started from a strictly positive but infeasible matrix, cannot reach
    # the constraints.  solve_target_eta then reports None.
    @pytest.mark.parametrize("route", ["entropy", "center"])
    def test_interior_methods_raise_on_unattainable(self, route):
        p = toy_problem(targets=AssortProfile(0.5, 0.4, 0.5, 0.5))
        if route == "entropy":
            eta = _entropy_eta(p)[0]
        else:
            ns, nt = len(p.source_pairs), len(p.target_pairs)
            start = EdgeMixMatrix(list(p.source_pairs), list(p.target_pairs),
                                  np.full((ns, nt), 1.0 / (ns * nt)))
            eta = _center_eta(p, start)
        assert eta is None
        assert solve_target_eta(p) is None

    # Each route of solve_target_eta on its own: the entropy point, its
    # centre polish, and the spread LP fallback.
    ROUTES = {
        "solve": solve_target_eta,
        "entropy": lambda p: _entropy_eta(p)[0],
        "center": lambda p: _center_eta(p, _entropy_eta(p)[0]),
        "spread": _lp_target_eta,
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_all_methods_hit_targets(self, route):
        g = gen_er(300, 0.1, seed=2)
        tgt = AssortProfile(0.2, 0.1, -0.1, 0.05)
        eta = self.ROUTES[route](problem_from_graph(g, targets=tgt))
        assert eta is not None
        assert assortativity(eta).max_abs_diff(tgt) < 1e-6
        eta.validate(atol=1e-6)

    def test_lp_fallback_keeps_full_support(self):
        # The entropy solve finds no strictly positive matrix here, yet one
        # exists: the spread LP keeps every entry at least t* = 0.034 times
        # the independence mass.  A basic LP solution has 2.8% support.
        p = fallback_problem()
        tgt = p.targets
        assert _entropy_eta(p)[0] is None
        eta = solve_target_eta(p)
        assert eta is not None and (eta.H > 0.0).all()
        assert assortativity(eta).max_abs_diff(tgt) < 1e-6
        eta.validate(atol=1e-6)

    def test_targets_required(self):
        with pytest.raises(ValueError):
            solve_target_eta(toy_problem())


def fallback_problem():
    """DPA with 1,022 edges and targets where the entropy solve finds no
    strictly positive matrix, though one exists."""
    g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 1022, seed=281922))
    return problem_from_graph(g, targets=AssortProfile(
        0.40786717969867986, 0.3146593057866909, 0.7319272474337181,
        0.1591612431119376))


def boundary_problem(n):
    """r11 at its closed-form maximum on ER(n, 0.1), the rest at 0."""
    g = gen_er(n, 0.1, seed=1)
    hi = coefficient_bounds(problem_from_graph(g)).get(1, 1)[1]
    return problem_from_graph(g, targets=AssortProfile(hi, 0.0, 0.0, 0.0))


def _standardised_weights(p):
    """Per-coefficient weights w_ab(s, t) whose eta-moment is r(a, b),
    standardised here from the raw degrees and the end masses."""
    def standardise(pairs, mass):
        x = np.array(pairs, dtype=float)
        x -= mass @ x
        return x / np.sqrt(mass @ (x * x))

    u = standardise(p.source_pairs, p.ends.rho)
    v = standardise(p.target_pairs, p.ends.kappa)
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
        p = problem_from_graph(g, targets=tgt)
        eta, lam = _entropy_eta(p)
        assert eta is not None and (eta.H > 0.0).all()

        weights = _standardised_weights(p)
        Z = np.log(eta.H) - sum(lam[k] * weights[pair]
                                for k, pair in enumerate(TYPE_PAIRS))
        additive_part = (Z.mean(axis=1, keepdims=True)
                         + Z.mean(axis=0, keepdims=True) - Z.mean())
        assert np.abs(Z - additive_part).max() < 1e-8

        src_mass = np.array([i * p.nu.entries[(i, j)] for i, j in p.source_pairs])
        tgt_mass = np.array([j * p.nu.entries[(i, j)] for i, j in p.target_pairs])
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
            "from didpr.eta import _entropy_eta, problem_from_graph\n"
            "from didpr.generate import gen_er\n"
            "p = problem_from_graph(gen_er(1000, 0.1, seed=1),\n"
            "    targets=AssortProfile(0.6, 0.5, -0.4, -0.3))\n"
            "np.save(sys.argv[1], _entropy_eta(p)[0].H)\n"
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
        p = problem_from_graph(graph(), targets=AssortProfile(*targets))
        start = _entropy_eta(p)[0]
        eta = _center_eta(p, start)
        ref = reference_center_eta(p, start)
        assert eta is not None and ref is not None
        assert (np.abs(eta.H - ref.H) / ref.H).max() <= 1e-8


class TestCoefficientBounds:
    def test_toy_range_is_known_interval(self):
        b = coefficient_bounds(toy_problem())
        for pair in ((1, 1), (1, 2), (2, 1), (2, 2)):
            lo, hi = b.get(*pair)
            assert lo == pytest.approx(TOY_LOW, abs=1e-6)
            assert hi == pytest.approx(1.0, abs=1e-6)

    def test_singleton_conditioning_forces_the_rest(self):
        # one coefficient pins the single free direction of the toy polytope
        b = coefficient_bounds(toy_problem(),
                               conditioning={(1, 1): (0.5, 0.5)})
        for pair in ((1, 2), (2, 1), (2, 2)):
            lo, hi = b.get(*pair)
            assert lo == pytest.approx(0.5, abs=1e-8)
            assert hi == pytest.approx(0.5, abs=1e-8)

    def test_bounds_bracket_observed(self):
        g = gen_er(200, 0.05, seed=34)
        obs = assortativity_of_graph(g)
        b = coefficient_bounds(problem_from_graph(g))
        for a in (1, 2):
            for bb in (1, 2):
                lo, hi = b.get(a, bb)
                assert lo - 1e-9 <= obs.get(a, bb) <= hi + 1e-9

    def test_er_in_in_bounds_stay_wide(self):
        b = coefficient_bounds(problem_from_graph(gen_er(150, 0.1, seed=3)))
        lo, hi = b.get(2, 2)
        assert lo <= -0.9
        assert hi >= 0.9

    def test_monotone_nesting(self):
        p = problem_from_graph(gen_er(120, 0.1, seed=35))
        free = coefficient_bounds(p)
        pinned = coefficient_bounds(p, conditioning={(1, 1): (0.5, 0.6)})
        for pair in ((1, 2), (2, 1), (2, 2)):
            lo0, hi0 = free.get(*pair)
            lo1, hi1 = pinned.get(*pair)
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
            assert closed.get(*pair) == pytest.approx(via_lp.get(*pair),
                                                      abs=1e-9)

    def test_unconditioned_bounds_solve_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("unconditioned bounds called the LP")

        monkeypatch.setattr(lplib, "solve", no_lp)
        b = coefficient_bounds(problem_from_graph(gen_er(150, 0.1, seed=3)))
        assert all(-1.0 <= lo < hi <= 1.0 for lo, hi in b.bounds.values())
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
        diff = np.subtract(got.get(*pair), np.clip(want[pair], -1.0, 1.0))
        assert np.abs(diff).max() <= 1e-10, (pair, got.get(*pair), want[pair])


class TestConditionedBoundsOracle:
    """Column generation against the full program of tests/bounds_reference.py
    on the toy problem, ER with n = 300 and DPA with 5e3 edges.  The ER
    graph has p = 0.05: at p = 0.1 the reference takes twice as long."""

    def test_every_ordered_pair(self, oracle_problem):
        p, free = oracle_problem
        for pin in TYPE_PAIRS:
            value = sum(free.get(*pin)) / 2.0
            assert_matches_full_program(
                p, {pin: (value, value)},
                tuple(pair for pair in TYPE_PAIRS if pair != pin))

    def test_interval(self, oracle_problem):
        p, free = oracle_problem
        lo, hi = free.get(1, 1)
        assert_matches_full_program(
            p, {(1, 1): (lo + 0.2 * (hi - lo), lo + 0.6 * (hi - lo))},
            ((2, 2),))

    @pytest.mark.parametrize("end", [0, 1], ids=["lower", "upper"])
    def test_value_at_an_end_of_its_range(self, oracle_problem, end):
        p, free = oracle_problem
        value = free.get(1, 1)[end]
        assert_matches_full_program(p, {(1, 1): (value, value)}, ((2, 2),))

    def test_three_pins(self, oracle_problem):
        # the independence coupling attains every coefficient 0
        p, _ = oracle_problem
        assert_matches_full_program(
            p, {(1, 2): (0.0, 0.0), (2, 1): (-0.05, 0.05), (2, 2): (0.0, 0.0)},
            ((1, 1),))

    def test_unattainable_interval(self, oracle_problem):
        p, free = oracle_problem
        hi = free.get(2, 2)[1]
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
        assert all(free.get(*pin)[0] < lo <= free.get(*pin)[1]
                   for pin, (lo, _) in cond.items())
        want = reference_range(p, (1, 1), cond)
        assert (want is not None) == attainable

        statuses = []
        solve = lplib.solve

        def logged(prog):
            sol = solve(prog)
            statuses.append(sol.status)
            return sol

        monkeypatch.setattr(lplib, "solve", logged)
        if attainable:
            got = coefficient_bounds(p, order=((1, 1),), conditioning=cond)
            assert np.abs(np.subtract(got.get(1, 1), want)).max() <= 1e-10
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
        sizes = []
        solve = lplib.solve

        def logged(prog):
            sizes.append(prog.num_vars)
            return solve(prog)

        monkeypatch.setattr(lplib, "solve", logged)
        coefficient_bounds(p, order=((2, 2),),
                           conditioning={(1, 1): (0.1, 0.1)})
        assert sizes and max(sizes) <= cells / 2

        sizes.clear()
        p = fallback_problem()
        assert solve_target_eta(p) is not None
        assert sizes and max(sizes) <= len(p.source_pairs) * len(
            p.target_pairs) / 2


def spread_optimum(p):
    """t* of the spread program by column generation, or None."""
    prog, _ = _spread_program(p)
    found = _column_generation(prog, prog.c, _seed(p.ends, TYPE_PAIRS),
                               "the spread program")
    return None if found is None else -found[0]


def dpa5e3_problem(targets):
    g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 5_000, seed=1))
    return problem_from_graph(g, targets=AssortProfile(*targets))


class TestSpreadOracle:
    """The solve's LP fallback against the full spread program of
    tests/bounds_reference.py: the same verdict, and t* to 1e-9."""

    # Each case lists (problem, attainable) pairs.
    @pytest.mark.parametrize("cases", [
        lambda: [(toy_problem(targets=AssortProfile(r, r, r, r)), True)
                 for r in (-0.4, -0.1, 0.0, 0.35, 1.0)],
        lambda: [(boundary_problem(60), True)],
        lambda: [(boundary_problem(150), False)],
        lambda: [(problem_from_graph(
            gen_er(300, 0.1, seed=2),
            targets=AssortProfile(0.2, 0.1, -0.1, 0.05)), True)],
        lambda: [(fallback_problem(), True)],
        lambda: [(dpa5e3_problem((0.1, 0.15, 0.1, 0.15)), True),
                 (dpa5e3_problem((0.99, 0.5, -0.4, -0.3)), False)],
    ], ids=["toy", "er60-boundary", "er150-boundary", "er300", "dpa1022",
            "dpa5e3"])
    def test_matches_full_program(self, cases):
        for p, attainable in cases():
            want = reference_spread(p)
            assert (want is not None) == attainable
            got = spread_optimum(p)
            if attainable:
                assert got == pytest.approx(want, abs=1e-9)
            else:
                assert got is None


class TestAttainabilityConsistency:
    """Solvability matches the window left by pinning the other three."""

    def test_inside_window_solves_outside_does_not(self):
        g = gen_er(30, 0.15, seed=4)
        obs = assortativity_of_graph(g)
        assert solve_target_eta(problem_from_graph(g, targets=obs)) is not None
        cond = {(1, 2): (obs.r12, obs.r12),
                (2, 1): (obs.r21, obs.r21),
                (2, 2): (obs.r22, obs.r22)}
        lo, hi = coefficient_bounds(problem_from_graph(g), order=((1, 1),),
                                    conditioning=cond).get(1, 1)
        assert lo - 1e-6 <= obs.r11 <= hi + 1e-6
        beyond = AssortProfile(hi + 0.05, obs.r12, obs.r21, obs.r22)
        assert solve_target_eta(problem_from_graph(g, targets=beyond)) is None


    @pytest.mark.parametrize("n, attainable", [(60, True), (150, False)])
    def test_boundary_target_gets_a_verdict(self, n, attainable):
        # r11 at its closed-form maximum, the rest at 0: the entropy solve
        # finds no positive point, so the LP gives the verdict.  The same
        # target on ER with n = 1000 (attainable) takes ~10 s, so the CI
        # workflow checks it through the CLI instead.
        p = boundary_problem(n)
        assert _entropy_eta(p)[0] is None
        eta = solve_target_eta(p)
        if attainable:
            assert eta is not None
            assert assortativity(eta).max_abs_diff(p.targets) < 1e-9
        else:
            assert eta is None


class TestProblemValidation:
    def test_edgeless_nu_rejected(self):
        with pytest.raises(ValueError):
            problem_from_nu(DegreePairDist({(0, 0): 1.0}))

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


class TestAdaptiveDispatch:
    """The centre polish keys off the entropy tilt's typical log acceptance
    step: light-tailed inputs steer fine from the Gibbs point, heavy tails
    need the analytic-centre polish."""

    def test_drift_separates_regimes(self):
        from didpr.eta import _chain_drift

        pe = problem_from_graph(gen_er(500, 0.1, seed=5),
                                targets=AssortProfile(0.6, 0.5, -0.4, -0.3))
        _, lam = _entropy_eta(pe)
        assert _chain_drift(pe, lam) > 0.1

        gd = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 20_000, seed=6))
        pd = problem_from_graph(gd,
                                targets=AssortProfile(0.1, 0.15, 0.1, 0.15))
        _, lam_d = _entropy_eta(pd)
        assert _chain_drift(pd, lam_d) < 0.1
