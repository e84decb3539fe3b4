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
  ns x nt matrix, at any problem size.
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
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg

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
    "assemble_constraints",
    "solve_target_eta",
    "coefficient_bounds",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER: tuple[tuple[int, int], ...] = TYPE_PAIRS

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


def assemble_constraints(
    p: EtaProblem,
    conditioning: dict[tuple[int, int], tuple[float, float]] | None = None,
) -> lplib.LinearProgram:
    """Linear program over the mixing-matrix entries (row-major, zero cost).

    Equality rows: one per source pair (row sums) and one per target pair
    (column sums).  Every pinned coefficient r(a, b) adds the standardised
    moment row U[:, a-1] (x) V[:, b-1], whose value under a mixing matrix
    with these marginals is r(a, b) itself.  The targets and the intervals
    (a, b) -> (lower, upper) of `conditioning` are pins alike: a point
    (lower == upper, as every target is) is one equality row with right
    side r, an interval two <= rows.  Redundant rows (the two marginal
    families share their total) are kept; the solver's presolve copes with
    rank deficiency.
    """
    conditioning = conditioning or {}
    for pair, (lo, hi) in conditioning.items():
        if pair not in TYPE_PAIRS:
            raise ValueError(f"unknown type pair {pair}")
        if lo > hi:
            raise ValueError(f"empty interval {lo} > {hi} for {pair}")
    pins = list(conditioning.items())
    if p.targets is not None:
        pins += [(pair, (p.targets.get(*pair),) * 2) for pair in TYPE_PAIRS]
    e = p.ends
    _require_spread(e.sd_s, e.sd_t, [pair for pair, _ in pins])
    ns, nt = len(p.source_pairs), len(p.target_pairs)
    eq_rows = [sp.kron(sp.eye(ns), np.ones((1, nt))),
               sp.kron(np.ones((1, ns)), sp.eye(nt))]
    eq_rhs = [e.rho, e.kappa]
    ub_rows, ub_rhs = [], []
    for (a, b), (lo, hi) in sorted(pins):
        row = sp.csr_matrix(np.outer(e.U[:, a - 1], e.V[:, b - 1]).ravel())
        if lo == hi:
            eq_rows.append(row)
            eq_rhs.append([lo])
        else:
            ub_rows += [row, -row]
            ub_rhs += [[hi], [-lo]]
    A_ub = (sp.vstack(ub_rows, format="csc") if ub_rows
            else sp.csc_matrix((0, ns * nt)))
    b_ub = np.concatenate(ub_rhs) if ub_rhs else np.zeros(0)
    return lplib.LinearProgram(
        ns * nt, np.zeros(ns * nt), sp.vstack(eq_rows, format="csc"),
        np.concatenate(eq_rhs), A_ub, b_ub
    )


def _spread_program(p: EtaProblem) -> tuple[lplib.LinearProgram, np.ndarray]:
    """Variant of the target system that favours interior solutions.

    Substitute eta = psi + t * (independence coupling), psi >= 0, and
    maximise t (the row sums keep it at most 1).  Feasibility is unchanged
    (t = 0 recovers the plain system), but at the optimum every entry of eta
    is at least t* times the independence mass, which keeps later rewiring
    chains mobile.  Returns the lifted program (t is the last variable) and
    the independence coupling, flattened.
    """
    base = assemble_constraints(p)
    indep = np.outer(p.ends.rho, p.ends.kappa).ravel()

    # Column of t coefficients: each row's value at eta = independence.
    t_col_eq = np.asarray(base.A_eq @ indep).ravel()
    A_eq = sp.hstack([base.A_eq, sp.csc_matrix(t_col_eq[:, None])], format="csc")
    c = np.zeros(base.num_vars + 1)
    c[-1] = -1.0
    lifted = lplib.LinearProgram(
        base.num_vars + 1, c, A_eq, base.b_eq,
        sp.csc_matrix((0, base.num_vars + 1)), base.b_ub)
    return lifted, indep


# A rewiring chain driven by the entropy tilt is effectively diffusive when
# its typical log acceptance ratio drops below this; solve_target_eta then
# escalates to the analytic centre.  Heavy-tailed degree sequences sit one
# decade below, light-tailed ones several times above.
_DRIFT_FLOOR = 0.1
_DRIFT_SAMPLES = 100_000

# Work caps of the interior solvers.  An interior target converges in a
# handful of Newton steps and a few hundred passes; a target on or beyond
# the boundary of the attainable region sends the multipliers to infinity,
# where the scaling slows down, and ends at one of the caps.  A pass is one
# Sinkhorn sweep or one conjugate-gradient iteration: two mat-vecs with the
# ns x nt matrix either way; each solve has its own pass budget.  Stops:
# moment error below _GRAD_TOL (entropy), squared Newton decrement below
# _CENTER_TOL (centre), relative CG residual below _CG_TOL (_newton_kkt).
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


def _tilt(p: EtaProblem):
    """Masses, standardised degree factors and targets of a target problem.

    Returns (rho, kappa, U, V, m_star) from p.ends; m_star holds the
    targets in TYPE_PAIRS order.  The standardised weight of r(a, b) is the
    rank-one product W(s, t) = U[s, a-1] V[t, b-1], whose moment under a
    mixing matrix is the coefficient itself.
    """
    e = p.ends
    _require_spread(e.sd_s, e.sd_t)
    m_star = np.array([p.targets.get(a, b) for a, b in TYPE_PAIRS])
    return e.rho, e.kappa, e.U, e.V, m_star


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
    rho, kappa, U, V, _ = _tilt(p)
    s1 = rng.choice(len(rho), size=_DRIFT_SAMPLES, p=rho)
    s2 = rng.choice(len(rho), size=_DRIFT_SAMPLES, p=rho)
    t1 = rng.choice(len(kappa), size=_DRIFT_SAMPLES, p=kappa)
    t2 = rng.choice(len(kappa), size=_DRIFT_SAMPLES, p=kappa)
    delta = ((U[s1] - U[s2]) @ lam.reshape(2, 2) * (V[t2] - V[t1])).sum(axis=1)
    return float(np.abs(delta).mean())


def _newton_kkt(K, U, V, r_ab, r_lam, passes):
    """Solve A diag(K) A' [z; mu] = [r_ab; r_lam], A the constraint map.

    A stacks row sums, column sums and the four standardised moments.  CG
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
    n = ns + nt
    h_ab = LinearOperator((n, n), dtype=np.float64, matvec=lambda z: (
        np.concatenate([rs * z[:ns] + K @ z[ns:], z[:ns] @ K + cs * z[ns:]])))
    d = np.concatenate([rs, cs])
    jacobi = LinearOperator((n, n), dtype=np.float64, matvec=lambda z: z / d)

    def count_pass(_) -> None:
        nonlocal passes
        passes += 1

    # H is singular along the shift (1, -1) of rows against columns, but
    # every column of P and every r_ab the solvers pass is orthogonal to
    # it, so the systems are consistent.
    X = np.column_stack([
        cg(h_ab, col, rtol=_CG_TOL, maxiter=max(1, _PASS_MAX - passes),
           M=jacobi, callback=count_pass)[0]
        for col in (*P.T, r_ab)
    ])
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
    weight is a source factor times a target factor (see _tilt).  Its
    smooth exponential tilt gives the later rewiring chain far better
    mobility than any basic solution of the LP.

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
    rho, kappa, U, V, m_star = _tilt(p)
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
    rho, kappa, U, V, m_star = _tilt(p)
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


def _lp_target_eta(p: EtaProblem) -> EdgeMixMatrix | None:
    """Solve the spread program (see _spread_program) by column generation,
    seeded with the supports of the four target pairs; None if infeasible."""
    prog, indep = _spread_program(p)
    found = _column_generation(prog, prog.c, _seed(p.ends, TYPE_PAIRS),
                               "the spread program")
    if found is None:
        return None
    x = found[1]
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
    constraints allow, and its feasibility decides attainability.
    """
    if p.targets is None:
        raise ValueError("solve_target_eta requires targets")
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


def _column_generation(prog: lplib.LinearProgram, c: np.ndarray,
                       seed: np.ndarray, what: str
                       ) -> tuple[float, np.ndarray] | None:
    """Minimum of c . x over the program's feasible set, and a minimiser.

    The program's first ns x nt columns are the cells of a mixing matrix,
    and HiGHS only ever sees a restricted master: the columns at the active
    cells, which start from the ns x nt mask seed (see _seed), plus any
    further columns (the spread program's t).  From its duals y, z the
    reduced cost of every cell, c - A_eq' y - A_ub' z, is one sparse
    product; the cells that can lower the objective enter (_entering) and
    the master is solved again.  When none is below -_PRICE_TOL the duals
    are feasible for the full program up to that amount per cell, and the
    cells carry total mass at most 1, so the master's optimum is within
    _PRICE_TOL of the full one.  Returns (objective, x), x zero off the
    active cells.

    Cells only enter, so a master can be infeasible only before phase I
    has run.  Phase I minimises the sum of artificials on every row,
    pricing the same way with cost 0 on the cells; a positive sum that no
    cell can lower proves the program infeasible, and the answer is None.
    """
    A_eq, A_ub, m_eq = prog.A_eq, prog.A_ub, prog.num_eq
    kept = np.arange(seed.size, prog.num_vars)
    active = seed.copy()
    art = None
    phase_one = False
    while True:
        cols = np.concatenate([np.flatnonzero(active), kept])
        cost, eq, ub = c[cols], A_eq[:, cols], A_ub[:, cols]
        if phase_one:
            cost = np.concatenate([np.zeros(len(cols)), np.ones(art.shape[1])])
            eq, ub = sp.hstack([eq, art[:m_eq]]), sp.hstack([ub, art[m_eq:]])
        sol = lplib.solve(lplib.LinearProgram(len(cost), cost, eq, prog.b_eq,
                                              ub, prog.b_ub))
        if sol.status is lplib.LpStatus.INFEASIBLE and art is None:
            # Artificials, built at the first infeasible master: both ways
            # on every equality row, downward on every <= row.
            eye = sp.eye(m_eq)
            art = sp.block_diag([sp.hstack([eye, -eye]),
                                 -sp.eye(prog.num_ub)], format="csc")
            phase_one = True
            continue
        if sol.status is not lplib.LpStatus.OPTIMAL:
            raise lplib.LpError(f"unexpected LP status {sol.status} for {what}")
        reduced = ((0.0 if phase_one else c)
                   - A_eq.T @ sol.eq_duals - A_ub.T @ sol.ub_duals)
        enter = _entering(reduced[:seed.size], active)
        if enter.size:
            active.flat[enter] = True
        elif not phase_one:
            break
        elif sol.objective > _PHASE_ONE_TOL:
            return None
        else:
            phase_one = False
    x = np.zeros(prog.num_vars)
    x[cols] = sol.x
    return sol.objective, x


def coefficient_bounds(
    p: EtaProblem,
    order: tuple[tuple[int, int], ...] = DEFAULT_ORDER,
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
    assemble_constraints, so it too is the coefficient; column generation
    solves it (_column_generation), seeded with the comonotone and antitone
    supports of the bounded pair and of every conditioning pair.  Raises
    ValueError on an unknown type pair or an empty interval, and when the
    conditioning intervals cut the feasible set down to nothing.
    """
    conditioning = dict(conditioning or {})
    for pair in order:
        if pair not in TYPE_PAIRS:
            raise ValueError(f"unknown type pair {pair}")
    prog = None
    if conditioning:
        bare = EtaProblem(p.nu, p.source_pairs, p.target_pairs)
        prog = assemble_constraints(bare, conditioning)
    e = p.ends
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
