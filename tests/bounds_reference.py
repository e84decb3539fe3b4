"""References for the LPs of the eta module: their full ns x nt programs.

Each end of a conditioned range, and the spread program of the solve's
fallback, is one HiGHS LP over every cell of the mixing matrix.  The library
prices only the cells that can enter; this module solves them all, so the
two must agree to the pricing tolerance and on which programs are
infeasible.  The programs are built here with scipy.sparse, whole, and
split into equality and <= rows, apart from the library's row form.
"""
import numpy as np
import scipy.sparse as sp

from didpr import lp as lplib
from didpr.assortativity import TYPE_PAIRS
from didpr.eta import _targets


def full_program(p, conditioning=None, targets=None):
    """(A_eq, b_eq, A_ub, b_ub) over the row-major mixing-matrix entries.

    Equality rows: one per source pair (row sums) and one per target pair
    (column sums), then, in pair order, the standardised moment row
    U[:, a-1] (x) V[:, b-1] of every pinned coefficient r(a, b), with right
    side r.  The targets, when given, and the intervals
    (a, b) -> (lower, upper) of conditioning are pins alike: a point
    (lower == upper) is one equality row, an interval two <= rows.
    """
    pins = list((conditioning or {}).items())
    if targets is not None:
        pins += [(pair, (r, r)) for pair, r in zip(TYPE_PAIRS,
                                                    _targets(targets))]
    ns, nt = len(p.source_pairs), len(p.target_pairs)
    eq_rows = [sp.kron(sp.eye(ns), np.ones((1, nt))),
               sp.kron(np.ones((1, ns)), sp.eye(nt))]
    eq_rhs = [p.rho, p.kappa]
    ub_rows, ub_rhs = [], []
    for (a, b), (lo, hi) in sorted(pins):
        row = sp.csr_matrix(np.outer(p.U[:, a - 1], p.V[:, b - 1]).ravel())
        if lo == hi:
            eq_rows.append(row)
            eq_rhs.append([lo])
        else:
            ub_rows += [row, -row]
            ub_rhs += [[hi], [-lo]]
    A_ub = (sp.vstack(ub_rows, format="csc") if ub_rows
            else sp.csc_matrix((0, ns * nt)))
    b_ub = np.concatenate(ub_rhs) if ub_rhs else np.zeros(0)
    return (sp.vstack(eq_rows, format="csc"), np.concatenate(eq_rhs),
            A_ub, b_ub)


def solve_full(c, A_eq, b_eq, A_ub, b_ub):
    """min c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0, by one
    HiGHS solve: the <= rows, then the equalities, as row bounds."""
    A = sp.vstack([A_ub, A_eq], format="csc")
    lower = np.concatenate([np.full(len(b_ub), -np.inf), b_eq])
    upper = np.concatenate([b_ub, b_eq])
    return lplib.solve(lower, upper, c, A.indptr, A.indices, A.data)


def reference_range(p, pair, conditioning):
    """(min, max) of r(pair) subject to conditioning, or None when the
    intervals are unattainable; unclamped."""
    rows = full_program(p, conditioning)
    a, b = pair
    w = np.outer(p.U[:, a - 1], p.V[:, b - 1]).ravel()
    vals = []
    for sign in (1.0, -1.0):
        sol = solve_full(sign * w, *rows)
        if sol.status is lplib.LpStatus.INFEASIBLE:
            return None
        assert sol.status is lplib.LpStatus.OPTIMAL, sol.status
        vals.append(sign * sol.objective)
    return vals[0], vals[1]


def spread_program(p, targets):
    """The spread program under the targets: eta = psi + t * (independence
    coupling), psi >= 0, maximise t.  Returns (c, A_eq, b_eq, A_ub, b_ub),
    t the last variable, its column A_eq times the coupling."""
    A_eq, b_eq, A_ub, b_ub = full_program(p, targets=targets)
    n = A_eq.shape[1]
    indep = np.outer(p.rho, p.kappa).ravel()
    A_eq = sp.hstack([A_eq, sp.csc_matrix((A_eq @ indep)[:, None])],
                     format="csc")
    c = np.zeros(n + 1)
    c[-1] = -1.0
    return c, A_eq, b_eq, sp.csc_matrix((0, n + 1)), b_ub


def reference_spread(p, targets):
    """t*, the largest share of the independence coupling the spread
    program allows under the targets, or None when they are unattainable."""
    sol = solve_full(*spread_program(p, targets))
    if sol.status is lplib.LpStatus.INFEASIBLE:
        return None
    assert sol.status is lplib.LpStatus.OPTIMAL, sol.status
    return -sol.objective
