"""Linear programming layer.

Problems are minimisation over x >= 0 with sparse equality and <= rows,
stored by column, as HiGHS (through scipy) takes them.  The library's two
LPs, the conditioned coefficient bounds and the fallback of the
mixing-matrix solver, run as restricted masters priced by numpy
(eta._column_generation), never as the full ns x nt program.

An Optimal answer is re-checked against the original rows by an
independent residual pass before it is returned; solver internals are
never trusted on feasibility.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "LpStatus",
    "LpError",
    "LinearProgram",
    "LpSolution",
    "solve",
    "verify_solution",
]


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpError(RuntimeError):
    """Raised when the solver fails to produce a trustworthy answer."""


@dataclass
class LinearProgram:
    """min c.x subject to A_eq x = b_eq, A_ub x <= b_ub, x >= 0."""

    num_vars: int
    c: np.ndarray
    A_eq: sp.csc_matrix | None = None
    b_eq: np.ndarray | None = None
    A_ub: sp.csc_matrix | None = None
    b_ub: np.ndarray | None = None

    def __post_init__(self) -> None:
        import scipy.sparse as sp

        self.c = np.asarray(self.c, dtype=np.float64)
        if self.c.shape != (self.num_vars,):
            raise ValueError("objective length does not match num_vars")
        for name in ("A_eq", "A_ub"):
            mat = getattr(self, name)
            if mat is not None:
                mat = sp.csc_matrix(mat)
                if mat.shape[1] != self.num_vars:
                    raise ValueError(f"{name} has {mat.shape[1]} columns, "
                                     f"expected {self.num_vars}")
                setattr(self, name, mat)
        for aname, bname in (("A_eq", "b_eq"), ("A_ub", "b_ub")):
            mat = getattr(self, aname)
            vec = getattr(self, bname)
            if (mat is None) != (vec is None):
                raise ValueError(f"{aname} and {bname} must be given together")
            if vec is not None:
                vec = np.asarray(vec, dtype=np.float64)
                if vec.shape != (mat.shape[0],):
                    raise ValueError(f"{bname} length does not match {aname}")
                if not np.all(np.isfinite(vec)):
                    raise ValueError(f"{bname} contains non-finite values")
                setattr(self, bname, vec)

    @property
    def num_eq(self) -> int:
        return 0 if self.A_eq is None else self.A_eq.shape[0]

    @property
    def num_ub(self) -> int:
        return 0 if self.A_ub is None else self.A_ub.shape[0]


@dataclass
class LpSolution:
    """Solver answer.  At an optimum, eq_duals / ub_duals hold the
    derivative of the objective with respect to each row's right side, so
    c - A_eq' eq_duals - A_ub' ub_duals are the reduced costs."""

    status: LpStatus
    x: np.ndarray | None = None
    objective: float | None = None
    eq_duals: np.ndarray | None = None
    ub_duals: np.ndarray | None = None


def verify_solution(lp: LinearProgram, x: np.ndarray) -> dict[str, float]:
    """Residuals of x against the original rows.

    Returns max equality residual, max inequality overshoot, and the most
    negative coordinate (as a positive number).
    """
    x = np.asarray(x, dtype=np.float64)
    eq_res = 0.0
    if lp.A_eq is not None:
        eq_res = float(np.abs(lp.A_eq @ x - lp.b_eq).max(initial=0.0))
    ub_res = 0.0
    if lp.A_ub is not None:
        ub_res = float(np.maximum(lp.A_ub @ x - lp.b_ub, 0.0).max(initial=0.0))
    neg = float(max(0.0, -x.min(initial=0.0)))
    return {"eq": eq_res, "ub": ub_res, "neg": neg}


def _check_optimal(lp: LinearProgram, x: np.ndarray) -> None:
    res = verify_solution(lp, x)
    b_sup = 0.0
    if lp.b_eq is not None and lp.b_eq.size:
        b_sup = float(np.abs(lp.b_eq).max())
    scale = 1.0 + b_sup
    if res["eq"] > 1e-7 * scale or res["ub"] > 1e-7 * scale or res["neg"] > 1e-7:
        raise LpError(
            "HiGHS returned an 'optimal' point violating the constraints "
            f"(residuals {res})"
        )


def solve(lp: LinearProgram) -> LpSolution:
    """Solve a linear program with HiGHS.

    Optimal answers are verified against the constraints before being
    returned.
    """
    # Imported here, as scipy.sparse is where a program is built: the CLI
    # starts without scipy, and only conditioned bounds and the solve's LP
    # fallback pay for loading it.
    from scipy.optimize import linprog

    # Interior point with crossover: on the wide, shallow transportation
    # systems this library produces it is an order of magnitude faster than
    # dual simplex, and crossover still lands on a basic solution.
    res = linprog(
        lp.c,
        A_ub=lp.A_ub,
        b_ub=lp.b_ub,
        A_eq=lp.A_eq,
        b_eq=lp.b_eq,
        bounds=(0, None),
        method="highs-ipm",
        options={
            "primal_feasibility_tolerance": 1e-9,
            "dual_feasibility_tolerance": 1e-9,
            "ipm_optimality_tolerance": 1e-10,
        },
    )
    if res.status == 0:
        x = np.asarray(res.x)
        _check_optimal(lp, x)
        return LpSolution(LpStatus.OPTIMAL, x, float(res.fun),
                          np.asarray(res.eqlin.marginals),
                          np.asarray(res.ineqlin.marginals))
    if res.status == 2:
        return LpSolution(LpStatus.INFEASIBLE)
    if res.status == 3:
        return LpSolution(LpStatus.UNBOUNDED)
    raise LpError(f"HiGHS failed: status {res.status} ({res.message})")

