"""References for the LPs of the eta module: their full ns x nt programs.

Each end of a conditioned range, and the spread program of the solve's
fallback, is one HiGHS LP over every cell of the mixing matrix.  The library
prices only the cells that can enter; this module solves them all, so the
two must agree to the pricing tolerance and on which programs are
infeasible.
"""
import numpy as np

from didpr import lp as lplib
from didpr.eta import EtaProblem, _spread_program, assemble_constraints


def reference_range(p, pair, conditioning):
    """(min, max) of r(pair) subject to conditioning, or None when the
    intervals are unattainable; unclamped."""
    bare = EtaProblem(p.nu, p.source_pairs, p.target_pairs)
    prog = assemble_constraints(bare, conditioning)
    e = p.ends
    a, b = pair
    w = np.outer(e.U[:, a - 1], e.V[:, b - 1]).ravel()
    vals = []
    for sign in (1.0, -1.0):
        sol = lplib.solve(lplib.LinearProgram(
            prog.num_vars, sign * w, prog.A_eq, prog.b_eq, prog.A_ub,
            prog.b_ub))
        if sol.status is lplib.LpStatus.INFEASIBLE:
            return None
        assert sol.status is lplib.LpStatus.OPTIMAL, sol.status
        vals.append(sign * sol.objective)
    return vals[0], vals[1]


def reference_spread(p):
    """t*, the largest share of the independence coupling the spread
    program allows under p's targets, or None when they are unattainable."""
    prog, _ = _spread_program(p)
    sol = lplib.solve(prog)
    if sol.status is lplib.LpStatus.INFEASIBLE:
        return None
    assert sol.status is lplib.LpStatus.OPTIMAL, sol.status
    return -sol.objective
