"""Linear programming layer.

Problems are minimisation over x >= 0 with sparse equality and <= rows,
stored by column.  One HiGHS driver runs them all: Model, built on the
bindings scipy ships (scipy.optimize._highspy), keeps its rows and grows
by columns.  Its first solve is interior point with crossover; after new
columns it re-solves by the simplex from the basis the solve before left,
so a program that gained a few columns costs a few pivots, not a new
solve.  The library's two LPs, the conditioned coefficient bounds and the
fallback of the mixing-matrix solver, each run as one Model of restricted
masters priced by numpy (eta._column_generation), never as the full
ns x nt program; solve() is the one-shot call on the same class.

An Optimal answer is re-checked against the model's rows by an
independent residual pass before it is returned; solver internals are
never trusted on feasibility.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "LpStatus",
    "LpError",
    "LinearProgram",
    "LpSolution",
    "Model",
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


def _check_optimal(lp: LinearProgram, x: np.ndarray,
                   upper: np.ndarray | None = None) -> None:
    res = verify_solution(lp, x)
    if upper is not None:
        res["upper"] = float(np.maximum(x - upper, 0.0).max(initial=0.0))
    b_sup = 0.0
    if lp.b_eq is not None and lp.b_eq.size:
        b_sup = float(np.abs(lp.b_eq).max())
    scale = 1.0 + b_sup
    if (res["eq"] > 1e-7 * scale or res["ub"] > 1e-7 * scale
            or res["neg"] > 1e-7 or res.get("upper", 0.0) > 1e-7):
        raise LpError(
            "HiGHS returned an 'optimal' point violating the constraints "
            f"(residuals {res})"
        )


# HiGHS options for every model; simplex_strategy 1 is the dual simplex.
_OPTIONS = {
    "output_flag": False,
    "presolve": "on",
    "simplex_strategy": 1,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
    "ipm_optimality_tolerance": 1e-10,
}


def _stacked(A_ub, A_eq) -> sp.csc_matrix:
    """The columns as HiGHS holds them: <= rows first, then equalities."""
    import scipy.sparse as sp

    return sp.vstack([A_ub, A_eq], format="csc")


class Model:
    """min c.x over the rows of a LinearProgram, grown by columns and
    re-solved from its last basis.

    The rows are fixed when the model is built, and its columns are the
    program's, with bounds x >= 0.  add_columns appends columns, optionally
    capped above; set_cost replaces the whole objective and close fixes
    columns at 0.  None of the three discards the basis.  prog mirrors the
    model's columns and costs; every Optimal answer is checked against it
    and against the caps.

    solve() picks the algorithm from the state the model is in:
    * no basis (the first solve, or one after an interior point run that
      ended without a basis), or a new objective: interior point with
      crossover.  On the wide, shallow transportation systems of this
      library it is an order of magnitude faster than the simplex from
      nothing, and crossover leaves a basis for the next solve.  After a
      new objective the old basis is still primal feasible, but on the
      degenerate programs that follow a phase I the primal simplex from it
      was slower than a fresh start, and the dual simplex slower still.
    * otherwise the dual simplex from the last basis.  New columns enter
      nonbasic at 0, and one with a negative reduced cost would make the
      basis dual infeasible, but a capped column flips to its cap instead,
      so the dual simplex starts from a dual feasible basis.  A cap that
      the rows already imply (a cell can carry no more than its row's
      mass) costs no vertex.
    """

    def __init__(self, prog: LinearProgram) -> None:
        # Imported here, as scipy.sparse is where a program is built: the
        # CLI starts without scipy, and only conditioned bounds and the
        # solve's LP fallback pay for loading it.
        import scipy.sparse as sp
        from scipy.optimize._highspy import _core

        n = prog.num_vars
        empty = {"A_eq": sp.csc_matrix((0, n)), "b_eq": np.zeros(0),
                 "A_ub": sp.csc_matrix((0, n)), "b_ub": np.zeros(0)}
        prog = replace(prog, **{k: v for k, v in empty.items()
                                if getattr(prog, k) is None})
        self._core = _core
        self.prog = prog
        self._upper = np.full(n, np.inf)
        self._cost_changed = False
        self._h = _core._Highs()
        for key, val in _OPTIONS.items():
            self._h.setOptionValue(key, val)
        A = _stacked(prog.A_ub, prog.A_eq)
        inf = _core.kHighsInf
        m = _core.HighsLp()
        m.num_col_, m.num_row_ = n, A.shape[0]
        m.col_cost_ = prog.c
        m.col_lower_ = np.zeros(n)
        m.col_upper_ = self._upper
        m.row_lower_ = np.concatenate([np.full(prog.num_ub, -inf), prog.b_eq])
        m.row_upper_ = np.concatenate([prog.b_ub, prog.b_eq])
        a = m.a_matrix_
        a.format_ = _core.MatrixFormat.kColwise
        a.num_col_, a.num_row_ = n, A.shape[0]
        a.start_, a.index_, a.value_ = A.indptr, A.indices, A.data
        self._checked(self._h.passModel(m), "the program")

    @property
    def simplex_iterations(self) -> int:
        """Simplex iterations of the last solve."""
        return int(self._h.getInfo().simplex_iteration_count)

    def _checked(self, status, what: str) -> None:
        if status == self._core.HighsStatus.kError:
            raise LpError(f"HiGHS rejected {what}")

    def add_columns(self, c: np.ndarray, A_eq, A_ub,
                    upper: np.ndarray | None = None) -> None:
        """Append columns with costs c, the given rows' entries and caps
        upper (none if None)."""
        import scipy.sparse as sp

        old = self.prog
        # The mirror checks every length before HiGHS reads the arrays.
        prog = LinearProgram(
            old.num_vars + A_eq.shape[1], np.concatenate([old.c, c]),
            sp.hstack([old.A_eq, A_eq]), old.b_eq,
            sp.hstack([old.A_ub, A_ub]), old.b_ub)
        k = prog.num_vars - old.num_vars
        upper = np.full(k, np.inf) if upper is None else np.asarray(
            upper, dtype=np.float64)
        if upper.shape != (k,):
            raise ValueError("upper length does not match the columns")
        A = _stacked(A_ub, A_eq)
        self._checked(self._h.addCols(k, prog.c[old.num_vars:], np.zeros(k),
                                      upper, A.nnz, A.indptr[:-1], A.indices,
                                      A.data), "the new columns")
        self.prog = prog
        self._upper = np.concatenate([self._upper, upper])

    def set_cost(self, c: np.ndarray) -> None:
        """Replace the objective of every column."""
        prog = replace(self.prog, c=c)
        n = prog.num_vars
        self._checked(self._h.changeColsCost(
            n, np.arange(n, dtype=np.int32), prog.c), "the new costs")
        self.prog = prog
        self._cost_changed = True

    def close(self, cols: np.ndarray) -> None:
        """Fix the given columns at 0."""
        zeros = np.zeros(len(cols))
        self._checked(self._h.changeColsBounds(
            len(cols), np.asarray(cols, dtype=np.int32), zeros, zeros),
            "the columns to close")
        self._upper[cols] = 0.0

    def _optimum(self) -> tuple[np.ndarray, float, np.ndarray]:
        """HiGHS's optimal point, objective and row duals."""
        sol = self._h.getSolution()
        return (np.array(sol.col_value),
                self._h.getInfo().objective_function_value,
                np.array(sol.row_dual))

    def solve(self) -> LpSolution:
        """Solve from the last basis (see the class docstring); Optimal
        answers are verified against the rows before being returned."""
        core, h = self._core, self._h
        if h.getBasis().valid and not self._cost_changed:
            h.setOptionValue("solver", "simplex")
        else:
            h.setOptionValue("solver", "ipm")
        self._cost_changed = False
        ran = h.run()
        status = h.getModelStatus()
        if ran != core.HighsStatus.kError:
            if status == core.HighsModelStatus.kOptimal:
                x, objective, duals = self._optimum()
                _check_optimal(self.prog, x, self._upper)
                m_ub = self.prog.num_ub
                return LpSolution(LpStatus.OPTIMAL, x, float(objective),
                                  duals[m_ub:], duals[:m_ub])
            if status == core.HighsModelStatus.kInfeasible:
                return LpSolution(LpStatus.INFEASIBLE)
            if status == core.HighsModelStatus.kUnbounded:
                return LpSolution(LpStatus.UNBOUNDED)
        raise LpError(f"HiGHS failed: {h.modelStatusToString(status)}")


def solve(lp: LinearProgram) -> LpSolution:
    """Solve a linear program with HiGHS, once (see Model).

    Optimal answers are verified against the constraints before being
    returned.
    """
    return Model(lp).solve()
