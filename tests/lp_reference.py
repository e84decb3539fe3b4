"""Brute-force reference for small linear programs.

Feasible sets here always include x >= 0, so they are pointed: a feasible
program has a basic feasible solution, and a bounded one attains its
optimum at a vertex.  Vertices are enumerated by solving every square
subsystem of active constraints.  Unboundedness is decided on the recession
cone {d >= 0, A_eq d = 0, A_ub d <= 0, c.d = -1}, which is again pointed,
so it is nonempty exactly when it carries a vertex.

Coefficients are kept as small integers by the generator below; the minimum
nonzero constraint residual at any candidate vertex is then bounded away
from zero by far more than the 1e-7 feasibility tolerance, so the float
enumeration is exact in effect.
"""
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

FEAS_TOL = 1e-7


def csc(A):
    """The CSC arrays (start, index, value) of a matrix's columns."""
    A = sp.csc_matrix(A)
    return A.indptr, A.indices, A.data


@dataclass
class Program:
    """min c.x subject to lower <= A x <= upper, x >= 0, with A dense: the
    row form lplib.Model takes."""

    c: np.ndarray
    A: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def model_args(self):
        """Model's arguments: row bounds, costs and CSC columns."""
        return (self.lower, self.upper, self.c, *csc(self.A))

    def split(self):
        """(A_eq, b_eq, A_ub, b_ub): the rows with lower == upper as
        equalities, every other finite bound as one <= row."""
        eq = self.lower == self.upper
        top = ~eq & np.isfinite(self.upper)
        bottom = ~eq & np.isfinite(self.lower)
        return (self.A[eq], self.lower[eq],
                np.vstack([self.A[top], -self.A[bottom]]),
                np.concatenate([self.upper[top], -self.lower[bottom]]))


def program(n, c, A_eq=None, b_eq=None, A_ub=None, b_ub=None):
    """The Program of min c.x, A_ub x <= b_ub, A_eq x = b_eq, x >= 0 over
    n variables: its <= rows first, then the equalities."""
    if A_eq is None:
        A_eq, b_eq = np.zeros((0, n)), np.zeros(0)
    if A_ub is None:
        A_ub, b_ub = np.zeros((0, n)), np.zeros(0)
    b_eq, b_ub = np.asarray(b_eq, float), np.asarray(b_ub, float)
    return Program(np.asarray(c, float),
                   np.vstack([np.asarray(A_ub, float).reshape(-1, n),
                              np.asarray(A_eq, float).reshape(-1, n)]),
                   np.concatenate([np.full(len(b_ub), -np.inf), b_eq]),
                   np.concatenate([b_ub, b_eq]))


def _vertices(rows, rhs, n, check):
    """Solutions of n-row subsystems that satisfy `check`, deduplicated."""
    found = []
    for subset in itertools.combinations(range(len(rows)), n):
        A = np.array([rows[i] for i in subset], dtype=float)
        b = np.array([rhs[i] for i in subset], dtype=float)
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if check(x):
            found.append(x)
    return found


def reference_solve(lp):
    """Return (status name, optimal objective or None) of a Program."""
    n = len(lp.c)
    A_eq, b_eq, A_ub, b_ub = lp.split()
    eye = np.eye(n)
    rows = list(A_eq) + list(A_ub) + list(eye)
    rhs = list(b_eq) + list(b_ub) + [0.0] * n

    def feasible(x):
        if np.any(x < -FEAS_TOL):
            return False
        if len(b_eq) and np.max(np.abs(A_eq @ x - b_eq)) > FEAS_TOL:
            return False
        if len(b_ub) and np.max(A_ub @ x - b_ub) > FEAS_TOL:
            return False
        return True

    verts = _vertices(rows, rhs, n, feasible)
    if not verts:
        return "Infeasible", None

    ray_rows = list(A_eq) + [lp.c] + list(A_ub) + list(eye)
    ray_rhs = [0.0] * len(b_eq) + [-1.0] + [0.0] * len(b_ub) + [0.0] * n

    def recession(d):
        if np.any(d < -FEAS_TOL):
            return False
        if len(b_eq) and np.max(np.abs(A_eq @ d)) > FEAS_TOL:
            return False
        if abs(lp.c @ d + 1.0) > FEAS_TOL:
            return False
        if len(b_ub) and np.max(A_ub @ d) > FEAS_TOL:
            return False
        return True

    if _vertices(ray_rows, ray_rhs, n, recession):
        return "Unbounded", None
    return "Optimal", min(float(lp.c @ v) for v in verts)


def random_lp(rng):
    """Random small LP with integer data; about half are built around a
    known feasible point so all three statuses occur."""
    n = int(rng.integers(1, 7))
    m_eq = int(rng.integers(0, 4))
    m_ub = int(rng.integers(0, 7 - m_eq))
    c = rng.integers(-3, 4, size=n).astype(float)
    A_eq = rng.integers(-3, 4, size=(m_eq, n)).astype(float)
    A_ub = rng.integers(-3, 4, size=(m_ub, n)).astype(float)
    if rng.random() < 0.5:
        x0 = rng.integers(0, 4, size=n).astype(float)
        b_eq = A_eq @ x0
        b_ub = A_ub @ x0 + rng.integers(0, 3, size=m_ub)
    else:
        b_eq = rng.integers(-4, 5, size=m_eq).astype(float)
        b_ub = rng.integers(-4, 5, size=m_ub).astype(float)
    return program(n, c, A_eq, b_eq, A_ub, b_ub)
