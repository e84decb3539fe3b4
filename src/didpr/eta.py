"""Target edge mixing matrices and attainability bounds.

Given a joint degree-pair distribution, which edge mixing matrices are
consistent with it?  The feasible set is a transportation polytope: rows are
pinned to the out-degree-weighted source masses, columns to the
in-degree-weighted target masses.  Asking additionally for prescribed
assortativity values adds four linear rows, because each coefficient is an
affine function of the mixing matrix once the degree-pair distribution is
fixed.  Everything here therefore reduces to constrained moment problems:

* solve_target_eta finds a mixing matrix realising four target coefficients
  (or reports that no such matrix exists) along one route.  It takes the
  maximum-entropy solution, a smooth Gibbs tilt of the independence
  coupling, and polishes it to the analytic centre of the feasible
  polytope when the tilt alone would leave a rewiring chain diffusive (the
  heavy-tail regime); either interior point lets chains mix orders of
  magnitude faster than a basic LP solution.  When no strictly positive
  solution turns up, an LP that maximises a share of the independence
  coupling answers instead, and its feasibility settles attainability.
  Both interior solves take Newton steps through one kernel: conjugate
  gradients on the row/column block and a 4x4 Schur complement for the
  four moment rows, so their work is a few hundred mat-vecs with the
  ns x nt matrix, at any problem size.  They run on numpy alone; scipy
  is imported only by the LPs below, for HiGHS through lp.Model.
* coefficient_bounds minimises/maximises one coefficient over the polytope,
  optionally conditioned on intervals for other coefficients, which yields
  the attainable range of each coefficient.  Without conditioning each
  extreme has a closed form: the objective sum f(s) g(t) eta(s, t) has the
  Monge property, so the maximum is attained by the comonotone (sorted)
  coupling of the two marginals and the minimum by the antitone one
  (Hoffman 1963; the Frechet-Hoeffding bounds).  Conditioned bounds are
  linear programs over the ns x nt cells, like the solve's fallback.  Both
  LPs run by column generation (_column_generation): a basic optimum has
  no more cells than the program has rows (Dantzig 1951), so HiGHS gets
  only restricted masters, and numpy prices every cell from their duals.
  The masters of one optimisation are one HiGHS model, which takes the
  entering cells as new columns and re-solves from its last basis
  (Lubbecke & Desrosiers 2005).  A cell's column is built from the edge
  ends only when it enters (_Program), and pricing is a dense expression
  in the duals, so no LP ever forms the full constraint matrix.

Every one of these constraints is the same standardised moment.  Each
problem works out its two edge ends once (EtaProblem.ends): pair masses,
and degrees standardised over them by assortativity._standardise, the
helper the coefficients themselves use.  Under a mixing matrix with those
marginals, r(a, b) is the moment of U[:, a-1] V[:, b-1]; the interior
solves, the closed-form bounds and the LP rows all work on that moment
directly, so a pinned coefficient is its own right side and an LP optimum
is the coefficient itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import lp as lplib
from .assortativity import (
    TYPE_PAIRS,
    AssortProfile,
    EdgeMixMatrix,
    _require_spread,
    _standardise,
)
from .graph import DegreePairDist, DirectedGraph, degree_pair_dist

__all__ = [
    "EtaProblem",
    "AssortBounds",
    "problem_from_nu",
    "problem_from_graph",
    "solve_target_eta",
    "coefficient_bounds",
]

# Overshoot beyond [-1, 1] tolerated (and clamped) when reading LP optima
# as coefficient bounds; anything larger is a solver failure.
_CLAMP_TOL = 1e-6


class _Ends(NamedTuple):
    """Source / target pair masses rho / kappa, and the pairs' (out, in)
    degrees standardised over them by _standardise: U / V, with sds
    sd_s / sd_t."""

    rho: np.ndarray
    kappa: np.ndarray
    U: np.ndarray
    V: np.ndarray
    sd_s: np.ndarray
    sd_t: np.ndarray


@dataclass
class EtaProblem:
    """A degree-pair distribution plus optional targets.

    source_pairs: realised (out, in) pairs with positive out-degree mass.
    target_pairs: realised (out, in) pairs with positive in-degree mass.
    targets: four prescribed coefficients, or None for a bare polytope.
    """

    nu: DegreePairDist
    source_pairs: list[tuple[int, int]]
    target_pairs: list[tuple[int, int]]
    targets: AssortProfile | None = None

    @cached_property
    def ends(self) -> _Ends:
        """The edge ends, worked out once per problem.

        An edge leaves a node with pair (i, j) with probability
        proportional to i * nu[i, j] and arrives at (k, l) proportionally
        to l * nu[k, l].
        """
        nu = self.nu.entries
        src_total = sum(i * v for (i, _), v in nu.items())
        tgt_total = sum(j * v for (_, j), v in nu.items())
        rho = np.array([i * nu[(i, j)] / src_total
                        for i, j in self.source_pairs])
        kappa = np.array([l * nu[(k, l)] / tgt_total
                          for k, l in self.target_pairs])
        U, _, sd_s = _standardise(self.source_pairs, rho)
        V, _, sd_t = _standardise(self.target_pairs, kappa)
        return _Ends(rho, kappa, U, V, sd_s, sd_t)


def problem_from_nu(
    nu: DegreePairDist, targets: AssortProfile | None = None
) -> EtaProblem:
    """Build an EtaProblem; pair lists are derived from the support of nu."""
    source_pairs = sorted(p for p in nu.entries if p[0] > 0)
    target_pairs = sorted(p for p in nu.entries if p[1] > 0)
    if not source_pairs or not target_pairs:
        raise ValueError("degree-pair distribution carries no edges")
    return EtaProblem(nu, source_pairs, target_pairs, targets)


def problem_from_graph(
    g: DirectedGraph, targets: AssortProfile | None = None
) -> EtaProblem:
    return problem_from_nu(degree_pair_dist(g), targets)


class _Program(NamedTuple):
    """An LP over the flat ns x nt cells of a mixing matrix, as
    lplib.Model takes it: rows lower <= A x <= upper.  Rows s and ns + t
    pin the masses of source pair s and target pair t; then one row per
    pinned pair (a, b), in the order of pairs, holds the standardised moment
    U[:, a-1] (x) V[:, b-1], whose value under a mixing matrix with these
    marginals is r(a, b) itself.  A point pin (lower == upper, as every
    target is) is an equality, an interval one ranged row.  Redundant rows
    (the two marginal families share their total) are kept; the solver's
    presolve copes with rank deficiency."""

    ends: _Ends
    pairs: list[tuple[int, int]]
    lower: np.ndarray
    upper: np.ndarray

    def columns(self, cells: np.ndarray):
        """CSC arrays (start, index, value) of A's columns at the flat
        cells: rows in ascending order, exact zeros dropped."""
        e = self.ends
        ns, nt = len(e.rho), len(e.kappa)
        s, t = np.divmod(cells, nt)
        index = np.empty((len(cells), 2 + len(self.pairs)), dtype=np.int32)
        index[:, 0], index[:, 1] = s, ns + t
        index[:, 2:] = ns + nt + np.arange(len(self.pairs))
        value = np.ones(index.shape)
        for k, (a, b) in enumerate(self.pairs):
            value[:, 2 + k] = e.U[s, a - 1] * e.V[t, b - 1]
        keep = value != 0.0
        start = np.zeros(len(cells) + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=1), out=start[1:])
        return start, index[keep], value[keep]

    def reduced(self, c, y: np.ndarray) -> np.ndarray:
        """c - A' y over every cell: the reduced costs of row duals y."""
        e = self.ends
        ns, nt = len(e.rho), len(e.kappa)
        R = y[:ns, None] + y[ns:ns + nt]
        for k, (a, b) in enumerate(self.pairs):
            R += y[ns + nt + k] * np.outer(e.U[:, a - 1], e.V[:, b - 1])
        return c - R.ravel()


def _program(e: _Ends,
             pins: dict[tuple[int, int], tuple[float, float]]) -> _Program:
    """The LP of the polytope of the ends e, with the pins
    (a, b) -> (lower, upper)."""
    pairs = sorted(pins)
    _require_spread(e.sd_s, e.sd_t, pairs)
    lower, upper = np.array([pins[pair] for pair in pairs]).reshape(-1, 2).T
    return _Program(e, pairs, np.concatenate([e.rho, e.kappa, lower]),
                    np.concatenate([e.rho, e.kappa, upper]))


def _targets(p: EtaProblem) -> np.ndarray:
    """p's four targets in TYPE_PAIRS order; ValueError unless finite."""
    m_star = np.array([p.targets.get(a, b) for a, b in TYPE_PAIRS])
    if not np.isfinite(m_star).all():
        raise ValueError(f"targets must be finite, got {m_star.tolist()}")
    return m_star


# A rewiring chain driven by the entropy tilt is effectively diffusive when
# its typical log acceptance ratio drops below this; solve_target_eta then
# escalates to the analytic centre.  Heavy-tailed degree sequences sit one
# decade below, light-tailed ones several times above.  The gauge is a
# mean over _DRIFT_SAMPLES sampled swaps; 1e4 of them read within 10% of
# 1e5 on every test and benchmark problem, none crossing the floor.
_DRIFT_FLOOR = 0.1
_DRIFT_SAMPLES = 10_000

# Work caps of the interior solvers.  An interior target converges in a
# handful of Newton steps and a few hundred passes; a target on or beyond
# the boundary of the attainable region sends the multipliers to infinity,
# where the scaling slows down, and ends at one of the caps.  A pass is one
# Sinkhorn sweep or one conjugate-gradient iteration: two mat-vecs with the
# ns x nt matrix either way; each solve has its own pass budget.  Stops:
# moment error below _GRAD_TOL (entropy), squared Newton decrement below
# _CENTER_TOL (centre), relative CG residual below _CG_TOL (_newton_kkt).
#
# Trap: _PASS_MAX also decides which near-boundary targets reach the spread
# LP, whose matrix keeps every entry off zero.  On fallback_problem in
# tests/test_eta.py the entropy solve runs out of passes in Newton step 7.
# With the Sinkhorn tolerance loosened to 1e-2 |g|^2 (kept in [1e-12, 1e-4])
# it converges instead, in 2,721 passes, to a matrix whose smallest entry is
# 1e-96 of the independence mass.  So a cheaper inner loop needs an explicit
# boundary test first; saving passes alone moves targets off the LP.
_NEWTON_MAX = 50
_PASS_MAX = 5_000
_GRAD_TOL = 1e-10
_CENTER_TOL = 1e-6
_CG_TOL = 1e-10

# Relative marginal error of the final Sinkhorn scaling.
_SINKHORN_TOL = 1e-12

# Below this predicted rise, the dual's increase is lost in rounding, so the
# full Newton step is taken without the sufficient-increase test.
_PHI_NOISE = 1e-13

# Index of a and b (0-based) for each multiplier, in TYPE_PAIRS order.
_PAIR_A = np.array([a - 1 for a, _ in TYPE_PAIRS])
_PAIR_B = np.array([b - 1 for _, b in TYPE_PAIRS])


def _chain_drift(p: EtaProblem, lam: np.ndarray) -> float:
    """Typical |log acceptance ratio| of a chain driven by the Gibbs tilt.

    For a swap of edges ((s1,t1),(s2,t2)) -> ((s1,t2),(s2,t1)) the tilt's
    log ratio collapses to (u(s1)-u(s2))' Lam (v(t2)-v(t1)) in the
    standardised weights; ends are sampled from the independence coupling,
    which matches a chain's starting point well enough for a scale
    estimate.  The mean absolute value is a robust drift gauge: on heavy
    tails the weights put their variance into rare outliers, so the tilt
    needed to pin the moments is microscopic and so is the typical ratio.

    Deterministic (fixed internal seed).
    """
    rng = np.random.default_rng(0)
    rho, kappa, U, V, *_ = p.ends
    s1 = rng.choice(len(rho), size=_DRIFT_SAMPLES, p=rho)
    s2 = rng.choice(len(rho), size=_DRIFT_SAMPLES, p=rho)
    t1 = rng.choice(len(kappa), size=_DRIFT_SAMPLES, p=kappa)
    t2 = rng.choice(len(kappa), size=_DRIFT_SAMPLES, p=kappa)
    delta = ((U[s1] - U[s2]) @ lam.reshape(2, 2) * (V[t2] - V[t1])).sum(axis=1)
    return float(np.abs(delta).mean())


def _cg(matvec, b, d, maxiter):
    """Conjugate gradients for H x = b from x = 0, H given by matvec,
    preconditioned by its diagonal d: (x, iterations).

    Stops once the residual is below _CG_TOL |b|, or after maxiter
    iterations.  Every step repeats the arithmetic of scipy's sparse cg
    (scipy 1.17, rtol=_CG_TOL, M = diag(1/d)) in its order, so x is the
    same to the bit; b is made contiguous first, as scipy's ravel does.
    """
    b = np.ascontiguousarray(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return b, 0
    atol = _CG_TOL * float(bnorm)
    x, r = np.zeros_like(b), b.copy()
    p = rho_prev = None
    for it in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, it
        z = r / d
        rho = np.dot(r, z)
        if p is None:
            p = z
        else:
            p *= rho / rho_prev
            p += z
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter


def _newton_kkt(K, U, V, r_ab, r_lam, passes):
    """Solve A diag(K) A' [z; mu] = [r_ab; r_lam], A the constraint map.

    A stacks row sums, column sums and the four standardised moments.  CG
    (_cg, in numpy: the CLI then starts without scipy)
    applies the inverse of the row/column block H = A_ab diag(K) A_ab' to
    r_ab and to the columns of the coupling P without forming H; mu solves
    the 4x4 Schur complement S = R - P' H^-1 P by least squares, and
    z = H^-1 (r_ab - P mu).  passes counts the solve's work so far (see
    _PASS_MAX).  Returns (z, mu, passes after the CG), or None when they
    reach _PASS_MAX, S is not finite, or the right side leaves the range
    of S.
    """
    ns, nt = K.shape
    KV, UtK = K @ V, U.T @ K
    rs, cs = K.sum(axis=1), K.sum(axis=0)
    P = np.concatenate([U[:, _PAIR_A] * KV[:, _PAIR_B],
                        V[:, _PAIR_B] * UtK.T[:, _PAIR_A]])
    UU = (U[:, :, None] * U[:, None, :]).reshape(ns, 4)
    VV = (V[:, :, None] * V[:, None, :]).reshape(nt, 4)
    T = UU.T @ K @ VV
    R = T[np.add.outer(2 * _PAIR_A, _PAIR_A),
          np.add.outer(2 * _PAIR_B, _PAIR_B)]
    d = np.concatenate([rs, cs])

    def h_ab(z):
        return np.concatenate([rs * z[:ns] + K @ z[ns:],
                               z[:ns] @ K + cs * z[ns:]])

    # H is singular along the shift (1, -1) of rows against columns, but
    # every column of P and every r_ab the solvers pass is orthogonal to
    # it, so the systems are consistent.
    X = np.empty((ns + nt, 5))
    for k, col in enumerate((*P.T, r_ab)):
        X[:, k], its = _cg(h_ab, col, d, max(1, _PASS_MAX - passes))
        passes += its
    S = R - P.T @ X[:, :4]
    if not np.isfinite(S).all() or passes >= _PASS_MAX:
        return None
    rhs = r_lam - P.T @ X[:, 4]
    mu = np.linalg.lstsq(S, rhs, rcond=1e-10)[0]
    # A right side outside the range of S lies along a combination of
    # weights that is additive in rows and columns, so its moment is the
    # same for every mixing matrix: the targets are unattainable.
    if np.linalg.norm(S @ mu - rhs) > 0.5 * np.linalg.norm(rhs):
        return None
    return X[:, 4] - X[:, :4] @ mu, mu, passes


def _entropy_eta(p: EtaProblem) -> tuple[EdgeMixMatrix | None, np.ndarray]:
    """Maximum-entropy mixing matrix hitting the marginals and targets.

    Maximises -sum eta log eta subject to the row/column masses and the
    four moment equalities.  The solution has the Gibbs form
    M = exp(A_s + B_t + U Lam V'), Lam the 2x2 arrangement of the four
    multipliers lam; the tilt has rank two because every standardised
    weight is a source factor times a target factor, U[s, a-1] V[t, b-1]
    (see EtaProblem.ends).  Its smooth exponential tilt gives the later
    rewiring chain far better mobility than any basic solution of the LP.

    Newton runs on lam alone, over the reduced concave dual
    phi(lam) = rho.A + kappa.B + m*.lam - sum M.  For each lam, A and B
    balance M to the marginals by Sinkhorn sweeps (two mat-vecs each, the
    scalings folded back into A and B).  The gradient of phi is
    m* - E_M[W]; _newton_kkt with K = M, r_ab = 0 and r_lam = the gradient
    gives the lam step as mu and, as z, how A and B move with it, which
    warm-starts the next balance.  Steps backtrack on phi (Armijo).

    Returns (matrix, lam), lam in standardised units: its size tells how
    strongly the Gibbs landscape steers a rewiring chain (see
    solve_target_eta).  The matrix is None when no strictly positive
    solution turns up: the gradient leaves the range of S, an exponential
    overflows, phi stops rising, or a work cap runs out.  That happens when
    the targets sit on or outside the boundary of the attainable moment
    region; the caller then falls back to the LP, which settles
    attainability.
    """
    (rho, kappa, U, V, *_), m_star = p.ends, _targets(p)
    ns, nt = len(rho), len(kappa)
    passes = 0

    def balance(A, B, lam):
        """Sinkhorn-scale exp(A + B + U Lam V') to the marginals."""
        nonlocal passes
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            K = U @ lam.reshape(2, 2) @ V.T
            K += A[:, None]
            K += B
            np.exp(K, out=K)
            x, y = np.ones(ns), np.ones(nt)
            Ky = K @ y
            while True:
                err = float(np.abs(x * Ky / rho - 1.0).max())
                if err <= _SINKHORN_TOL:
                    break
                if not err < np.inf or passes >= _PASS_MAX:
                    return None
                passes += 1
                x = rho / Ky
                y = kappa / (x @ K)
                Ky = K @ y
            K *= x[:, None]
            K *= y
            return A + np.log(x), B + np.log(y), K

    lam = np.zeros(4)
    state = balance(np.log(rho), np.log(kappa), lam)
    for _ in range(_NEWTON_MAX):
        if state is None:
            break
        A, B, M = state
        g = m_star - (U.T @ M @ V).ravel()
        if np.abs(g).max() < _GRAD_TOL:
            return EdgeMixMatrix(list(p.source_pairs), list(p.target_pairs),
                                 M / M.sum()), lam

        sol = _newton_kkt(M, U, V, np.zeros(ns + nt), g, passes)
        if sol is None:
            break
        z, step, passes = sol
        slope = float(g @ step)

        t = 1.0
        while True:
            state = balance(A + t * z[:ns], B + t * z[ns:], lam + t * step)
            if state is not None:
                A1, B1, M1 = state
                rise = (rho @ (A1 - A) + kappa @ (B1 - B) - (M1.sum() - M.sum())
                        + t * float(m_star @ step))
                if rise >= 1e-4 * t * slope or slope < _PHI_NOISE:
                    break
            t *= 0.5
            if t < 1e-10 or passes >= _PASS_MAX:
                return None, lam
        lam = lam + t * step
    return None, lam


def _center_eta(p: EtaProblem, eta0: EdgeMixMatrix) -> EdgeMixMatrix | None:
    """Polish a strictly positive mixing matrix to the analytic centre.

    Maximises sum log eta over the constraint polytope by damped Newton
    steps from eta0 (any strictly positive feasible point, in practice the
    maximum-entropy solution).  The centre pushes every entry as far from
    zero as the constraints allow, which flattens the acceptance landscape
    seen by the rewiring chain; on heavy-tailed degree sequences this cuts
    the steps-to-target by a large factor compared to the entropy point.

    Each step goes through the entropy solver's kernel, _newton_kkt with
    K = eta^2 and right side 2 A eta - b, so the full step
    eta - eta^2 (A' [z; mu]) lands on the linear constraints and a step
    damped by t shrinks their residual by (1 - t): the iterate stays
    pinned wherever it stops, and _CENTER_TOL trades only closeness to the
    centre.  Returns None only when the final residual is not tiny.
    """
    ns = len(p.source_pairs)
    (rho, kappa, U, V, *_), m_star = p.ends, _targets(p)
    marginals = np.concatenate([rho, kappa])

    X = eta0.H.copy()
    passes = 0
    for _ in range(_NEWTON_MAX):
        X2 = X * X
        sol = _newton_kkt(
            X2, U, V,
            2.0 * np.concatenate([X.sum(axis=1), X.sum(axis=0)]) - marginals,
            2.0 * (U.T @ X @ V).ravel() - m_star, passes)
        if sol is None:
            break
        z, mu, passes = sol
        dx = X - X2 * (z[:ns, None] + z[ns:] + U @ mu.reshape(2, 2) @ V.T)
        if float((dx * dx / X2).sum()) < _CENTER_TOL:
            break
        t_ls = 1.0
        neg = dx < 0.0
        if neg.any():
            t_ls = min(1.0, 0.99 * float((X[neg] / -dx[neg]).min()))
        base = float(np.log(X).sum())
        for _ in range(50):
            stepped = X + t_ls * dx
            if (stepped > 0.0).all() and float(np.log(stepped).sum()) > base:
                break
            t_ls *= 0.5
        else:
            break
        X = stepped
    marginal_err = np.concatenate([X.sum(axis=1), X.sum(axis=0)]) / marginals
    moment_err = (U.T @ X @ V).ravel() - m_star
    if max(np.abs(marginal_err - 1.0).max(), np.abs(moment_err).max()) > 1e-8:
        return None
    return EdgeMixMatrix(list(p.source_pairs), list(p.target_pairs),
                         X / X.sum())


def _spread(p: EtaProblem) -> tuple[float, np.ndarray] | None:
    """The spread program by column generation, seeded with the supports
    of the four target pairs: (-t*, x), or None if infeasible.

    A variant of the target system that favours interior solutions:
    substitute eta = psi + t * (independence coupling), psi >= 0, and
    maximise t (the row sums keep it at most 1).  Feasibility is unchanged
    (t = 0 recovers the plain system), but at the optimum every entry of eta
    is at least t* times the independence mass, which keeps later rewiring
    chains mobile.  x holds psi over the cells, then t*.  t's column is the
    coupling's image under the rows, each summed in cell order (cumsum), as
    a mat-vec with the full program adds them.
    """
    e = p.ends
    m_star = _targets(p)
    prog = _program(e, dict(zip(TYPE_PAIRS, zip(m_star, m_star))))
    indep = np.outer(e.rho, e.kappa)
    t_col = np.concatenate([
        np.cumsum(indep, axis=1)[:, -1], np.cumsum(indep, axis=0)[-1],
        [np.cumsum(np.outer(e.U[:, a - 1], e.V[:, b - 1]) * indep)[-1]
         for a, b in prog.pairs]])
    rows = np.flatnonzero(t_col)
    c = np.zeros(indep.size + 1)
    c[-1] = -1.0
    return _column_generation(prog, c, _seed(e, TYPE_PAIRS),
                              "the spread program",
                              ([0, len(rows)], rows, t_col[rows]))


def _lp_target_eta(p: EtaProblem) -> EdgeMixMatrix | None:
    """The spread program's mixing matrix (see _spread); None if
    infeasible."""
    found = _spread(p)
    if found is None:
        return None
    x = found[1]
    indep = np.outer(p.ends.rho, p.ends.kappa).ravel()
    flat = np.maximum(x[:-1] + x[-1] * indep, 0.0)
    eta = EdgeMixMatrix(list(p.source_pairs), list(p.target_pairs),
                        flat.reshape(len(p.source_pairs), -1))
    eta.validate(atol=1e-6)
    return eta


def solve_target_eta(p: EtaProblem) -> EdgeMixMatrix | None:
    """Find a mixing matrix realising the target coefficients.

    Returns None when the targets are jointly unattainable for this
    degree-pair distribution.  The maximum-entropy solve (see _entropy_eta)
    runs first, at any problem size.  When its Gibbs tilt is too flat to
    steer a rewiring chain (typical log acceptance ratio below
    _DRIFT_FLOOR, the heavy-tail regime), the point is polished to the
    analytic centre of the feasible polytope, which restores mobility
    there; both interior solves step through one Newton kernel
    (_newton_kkt).  When the entropy solve finds no strictly positive solution
    (targets on or near the boundary of the attainable region), the spread
    LP answers instead (_lp_target_eta): every entry of its matrix is at
    least t* times the independence mass, t* the largest share the
    constraints allow, and its feasibility decides attainability.  A
    degenerate end (a degree with no spread) raises ValueError here, before
    any solve.
    """
    if p.targets is None:
        raise ValueError("solve_target_eta requires targets")
    _require_spread(p.ends.sd_s, p.ends.sd_t)
    eta, lam = _entropy_eta(p)
    if eta is None:
        return _lp_target_eta(p)
    if _chain_drift(p, lam) < _DRIFT_FLOOR:
        polished = _center_eta(p, eta)
        if polished is not None:
            eta = polished
    eta.validate(atol=1e-6)
    return eta


@dataclass(frozen=True)
class AssortBounds:
    """Attainable [lower, upper] range per coefficient."""

    bounds: dict[tuple[int, int], tuple[float, float]]

    def get(self, a: int, b: int) -> tuple[float, float]:
        return self.bounds[(a, b)]


def _clamp(r: float, what: str) -> float:
    if abs(r) > 1.0 + _CLAMP_TOL:
        raise lplib.LpError(f"{what} = {r} overshoots [-1, 1] beyond tolerance")
    return min(1.0, max(-1.0, r))


def _comonotone_coupling(f: np.ndarray, rho: np.ndarray, g: np.ndarray,
                         kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                     np.ndarray]:
    """Comonotone coupling of rho and kappa along the values f and g.

    Lay both marginals out in increasing order of their values on [0, 1]
    and pair equal quantiles.  Between consecutive points of the merged
    cumulative-mass grids both cells are constant, so the coupling is one
    cell per piece: returns the pieces' rows, columns and masses, at most
    ns + nt of them.  Negating g gives the antitone coupling.
    """
    fo = np.argsort(f, kind="stable")
    go = np.argsort(g, kind="stable")
    cf = np.cumsum(rho[fo])
    cg = np.cumsum(kappa[go])
    cuts = np.union1d(cf, cg)
    widths = np.diff(cuts, prepend=0.0)
    # A piece ending at cut c lies in the first cell whose cumulative mass
    # reaches c; the clip absorbs rounding in the two totals.
    i = np.minimum(np.searchsorted(cf, cuts), len(cf) - 1)
    j = np.minimum(np.searchsorted(cg, cuts), len(cg) - 1)
    return fo[i], go[j], widths


def _comonotone_moment(f: np.ndarray, rho: np.ndarray,
                       g: np.ndarray, kappa: np.ndarray) -> float:
    """Maximum of sum f(s) g(t) eta(s, t) over couplings eta of rho, kappa,
    which the comonotone coupling attains."""
    i, j, widths = _comonotone_coupling(f, rho, g, kappa)
    return float(widths @ (f[i] * g[j]))


# Column generation (_column_generation).  Up to _PRICE_WIDTH cells of every
# row and of every column enter each round (one cell per round took
# thousands of rounds on ER), each below -_PRICE_TOL.  Artificials summing
# to more than _PHASE_ONE_TOL miss the rows by more than HiGHS's
# feasibility tolerance.
_PRICE_WIDTH = 3
_PRICE_TOL = 1e-10
_PHASE_ONE_TOL = 1e-9


def _seed(e: _Ends, pairs) -> np.ndarray:
    """The comonotone and antitone supports of the pairs, as an ns x nt mask."""
    seed = np.zeros((len(e.rho), len(e.kappa)), dtype=bool)
    for a, b in pairs:
        for sign in (1.0, -1.0):
            i, j, _ = _comonotone_coupling(e.U[:, a - 1], e.rho,
                                           sign * e.V[:, b - 1], e.kappa)
            seed[i, j] = True
    return seed


def _entering(reduced: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Flat indices of the inactive cells that enter the master: the
    _PRICE_WIDTH most negative reduced costs of every row and every
    column, if below -_PRICE_TOL."""
    ns, nt = active.shape
    R = np.where(active, np.inf, reduced.reshape(ns, nt))
    by_row = np.argpartition(R, min(_PRICE_WIDTH, nt) - 1, axis=1)
    by_col = np.argpartition(R, min(_PRICE_WIDTH, ns) - 1, axis=0)
    cand = np.union1d(
        (np.arange(ns)[:, None] * nt + by_row[:, :_PRICE_WIDTH]).ravel(),
        (by_col[:_PRICE_WIDTH] * nt + np.arange(nt)).ravel())
    return cand[R.flat[cand] < -_PRICE_TOL]


def _column_generation(prog: _Program, c: np.ndarray, seed: np.ndarray,
                       what: str, extra=None
                       ) -> tuple[float, np.ndarray] | None:
    """Minimum of c . x over the program's feasible set, and a minimiser.

    c holds the costs of the ns x nt cells, then of any further columns,
    given as CSC arrays extra = (start, index, value): the spread
    program's t.  HiGHS only ever sees a restricted master: the further
    columns and those at the active cells, which start from the ns x nt
    mask seed (see _seed).  All masters of one call are one lplib.Model.
    From a master's row duals y the reduced cost of every cell, c - A' y,
    is one dense expression (_Program.reduced); the cells that can lower
    the objective enter (_entering) as new columns of the model, which
    re-solves from its last basis.  An entering cell is capped by the
    masses of its row and of its column, a bound the first ns + nt rows
    already imply: it costs no vertex, and it lets the re-solve start from
    a dual feasible basis (see lplib.Model).  When no reduced cost is below
    -_PRICE_TOL the duals, with the multipliers of the caps, are feasible
    for the full program up to that amount per cell, and the cells carry
    total mass at most 1, so the master's optimum is within _PRICE_TOL of
    the full one.  Returns (objective, x), x zero off the active cells.

    Cells only enter, so a master can be infeasible only before phase I
    has run.  Phase I adds artificials both ways on every row to the model
    and minimises their sum, pricing the same way with cost 0 on the
    cells; a positive sum that no cell can lower proves the program
    infeasible (its feasible points all keep within the caps), and the
    answer is None.  Otherwise the cells get their costs back and the
    artificials close at 0, in the same model.
    """
    # Every cell is capped by the masses of its row and of its column: the
    # first ns + nt rows, whose coefficients are all nonnegative.
    ns, nt = seed.shape
    cap = np.minimum.outer(prog.lower[:ns], prog.lower[ns:ns + nt]).ravel()
    active = seed.copy()
    # Program column of every model column; -1 marks an artificial.
    where = np.flatnonzero(active)
    model = lplib.Model(prog.lower, prog.upper, c[where],
                        *prog.columns(where))
    if extra is not None:
        model.add_columns(c[seed.size:], *extra)
        where = np.concatenate([where, np.arange(seed.size, len(c))])
    m = len(prog.lower)
    phase_one = artificial = False
    while True:
        sol = model.solve()
        if sol.status is lplib.LpStatus.INFEASIBLE and not artificial:
            model.add_columns(np.ones(2 * m), np.arange(2 * m + 1),
                              np.tile(np.arange(m), 2),
                              np.repeat([1.0, -1.0], m))
            where = np.concatenate([where, np.full(2 * m, -1)])
            model.set_cost((where < 0).astype(float))
            phase_one = artificial = True
            continue
        if sol.status is not lplib.LpStatus.OPTIMAL:
            raise lplib.LpError(f"unexpected LP status {sol.status} for {what}")
        reduced = prog.reduced(0.0 if phase_one else c[:seed.size], sol.duals)
        enter = _entering(reduced, active)
        if enter.size:
            active.flat[enter] = True
            model.add_columns(np.zeros(enter.size) if phase_one else c[enter],
                              *prog.columns(enter), cap[enter])
            where = np.concatenate([where, enter])
        elif not phase_one:
            break
        elif sol.objective > _PHASE_ONE_TOL:
            return None
        else:
            # Phase II: the cells get their costs back and the
            # artificials close at 0.
            model.set_cost(np.where(where < 0, 0.0, c[where]))
            model.close(np.flatnonzero(where < 0))
            phase_one = False
    x = np.zeros(len(c))
    cells = where >= 0
    x[where[cells]] = sol.x[cells]
    return sol.objective, x


def coefficient_bounds(
    p: EtaProblem,
    order: tuple[tuple[int, int], ...] = TYPE_PAIRS,
    conditioning: dict[tuple[int, int], tuple[float, float]] | None = None,
) -> AssortBounds:
    """Attainable range of each queried coefficient.

    For every type pair in `order`, minimise and maximise the coefficient
    over the transportation polytope, subject to the intervals
    (a, b) -> (lower, upper) in `conditioning`.  Without conditioning the
    optima are closed-form: the sorted and reverse-sorted couplings of the
    two marginals, taken on the standardised degrees, so they are the
    coefficients themselves and no LP is solved.  With conditioning each
    optimum is a linear program over the standardised moment rows of
    _Program, so it too is the coefficient; column generation
    solves it (_column_generation), seeded with the comonotone and antitone
    supports of the bounded pair and of every conditioning pair.  Raises
    ValueError on an unknown type pair or an empty interval, and when the
    conditioning intervals cut the feasible set down to nothing.
    """
    conditioning = dict(conditioning or {})
    for pair in (*order, *conditioning):
        if pair not in TYPE_PAIRS:
            raise ValueError(f"unknown type pair {pair}")
    for pair, (lo, hi) in conditioning.items():
        if not np.isfinite([lo, hi]).all():
            raise ValueError(f"non-finite interval [{lo}, {hi}] for {pair}")
        if lo > hi:
            raise ValueError(f"empty interval {lo} > {hi} for {pair}")
    e = p.ends
    prog = _program(e, conditioning) if conditioning else None
    _require_spread(e.sd_s, e.sd_t, order)

    out: dict[tuple[int, int], tuple[float, float]] = {}
    for a, b in order:
        what = f"r({a},{b})"
        u, v = e.U[:, a - 1], e.V[:, b - 1]
        if prog is not None:
            w = np.outer(u, v).ravel()
            seed = _seed(e, ((a, b), *conditioning))
            extremes = []
            for sign in (1.0, -1.0):
                found = _column_generation(prog, sign * w, seed, what)
                if found is None:
                    raise ValueError("conditioning intervals unattainable")
                extremes.append(sign * found[0])
            low, high = extremes
        else:
            low = -_comonotone_moment(u, e.rho, -v, e.kappa)
            high = _comonotone_moment(u, e.rho, v, e.kappa)
        out[(a, b)] = tuple(sorted((_clamp(low, f"lower bound of {what}"),
                                    _clamp(high, f"upper bound of {what}"))))
    return AssortBounds(out)
