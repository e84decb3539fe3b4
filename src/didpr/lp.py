"""Linear programming layer.

Every program here is min c.x subject to lower <= A x <= upper and x >= 0,
in HiGHS's own row form: a row with lower == upper is an equality, one
with lower = -inf a <= row, and one with two finite bounds a range.  A is
given by columns, as numpy CSC arrays: column j has the row indices
index[start[j]:start[j+1]] and the entries value[start[j]:start[j+1]].

One HiGHS driver runs them all: Model, built on the HiGHS extension scipy
ships, keeps its rows and grows by columns.  Its first solve is interior
point with crossover; after new columns it re-solves by the simplex from
the basis the solve before left, so a program that gained a few columns
costs a few pivots, not a new solve.  The library's two LPs,
the conditioned coefficient bounds and the fallback of the mixing-matrix
solver, each run as one Model of restricted masters priced by numpy
(eta._column_generation), never as the full ns x nt program; solve() is
the one-shot call on the same class.

An Optimal answer is re-checked against the model's rows by an
independent residual pass, a mat-vec over the model's own arrays, before
it is returned; solver internals are never trusted on feasibility.

The extension is loaded from its file, scipy/optimize/_highspy/_core plus
this interpreter's extension suffix, found without importing scipy: by
name it would first run scipy.optimize's __init__, some 320 modules it
does not use.  That path is scipy's private layout (scipy>=1.15); a scipy
that moves it fails every LP with a one-line LpError.
"""
from __future__ import annotations

import enum
import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

__all__ = [
    "LpStatus",
    "LpError",
    "LpSolution",
    "Model",
    "solve",
]


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpError(RuntimeError):
    """Raised when the solver fails to produce a trustworthy answer."""


@dataclass
class LpSolution:
    """Solver answer.  At an optimum, duals hold the derivative of the
    objective with respect to each row's active bound, so c - A' duals are
    the reduced costs."""

    status: LpStatus
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None


_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """scipy's HiGHS extension, loaded from its file under its own name, or
    the module already imported under that name."""
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    scipy = importlib.util.find_spec("scipy")
    for root in scipy.submodule_search_locations if scipy else ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                loader = ExtensionFileLoader(_CORE, path)
                core = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(_CORE, loader))
                sys.modules[_CORE] = core
                loader.exec_module(core)
                return core
    raise LpError(f"HiGHS's extension {_CORE} not found: needs scipy>=1.15")


# HiGHS options for every model; simplex_strategy 1 is the dual simplex.
_OPTIONS = {
    "output_flag": False,
    "presolve": "on",
    "simplex_strategy": 1,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
    "ipm_optimality_tolerance": 1e-10,
}


class Model:
    """min c.x over the rows lower <= A x <= upper, grown by columns and
    re-solved from its last basis.

    The rows are fixed when the model is built, with its first columns:
    costs c and CSC arrays start, index, value (see the module docstring),
    bounds x >= 0.  add_columns appends columns, optionally capped above;
    set_cost replaces the whole objective and close fixes columns at 0.
    None of the three discards the basis.  The model keeps its own copy of
    the rows, columns and caps, checks every length against it before
    HiGHS reads an array, and checks every Optimal answer against it.

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

    def __init__(self, lower, upper, c, start, index, value) -> None:
        # Loaded here: the CLI starts without scipy, and only conditioned
        # bounds and the solve's LP fallback pay for loading the extension.
        _core = _highs_core()

        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("row bounds lower and upper differ in length")
        if not ((lower < np.inf) & (upper > -np.inf)).all():
            raise ValueError("row bounds contain non-finite values")
        self._core = _core
        self._lower, self._upper = lower, upper
        # The columns as HiGHS holds them, for the checks: CSC arrays and caps.
        self._start, self._index = np.zeros(1, np.int64), np.zeros(0, np.int32)
        self._value, self._caps = np.zeros(0), np.zeros(0)
        self._cost_changed = False
        self._h = _core._Highs()
        for key, val in _OPTIONS.items():
            self._h.setOptionValue(key, val)
        # The rows come without entries; the columns bring them.
        m = len(lower)
        self._checked(self._h.addRows(
            m, lower, upper, 0, np.zeros(m, np.int32), np.zeros(0, np.int32),
            np.zeros(0)), "the rows")
        self.add_columns(c, start, index, value)

    @property
    def num_vars(self) -> int:
        return len(self._caps)

    @property
    def simplex_iterations(self) -> int:
        """Simplex iterations of the last solve."""
        return int(self._h.getInfo().simplex_iteration_count)

    def _checked(self, status, what: str) -> None:
        if status == self._core.HighsStatus.kError:
            raise LpError(f"HiGHS rejected {what}")

    def add_columns(self, c, start, index, value, upper=None) -> None:
        """Append columns with costs c, CSC arrays start, index, value over
        the model's rows, and caps upper (none if None)."""
        c = np.asarray(c, dtype=np.float64)
        start = np.asarray(start, dtype=np.int32)
        index = np.asarray(index, dtype=np.int32)
        value = np.asarray(value, dtype=np.float64)
        k = len(start) - 1
        if (start.ndim != 1 or k < 0 or start[0] != 0
                or (np.diff(start) < 0).any() or start[-1] != len(index)
                or index.shape != value.shape):
            raise ValueError("column arrays start, index, value disagree")
        if ((index < 0) | (index >= len(self._lower))).any():
            raise ValueError("column entries outside the model's rows")
        if c.shape != (k,):
            raise ValueError("objective length does not match the columns")
        upper = np.full(k, np.inf) if upper is None else np.asarray(
            upper, dtype=np.float64)
        if upper.shape != (k,):
            raise ValueError("upper length does not match the columns")
        self._checked(self._h.addCols(k, c, np.zeros(k), upper, len(index),
                                      start[:-1], index, value),
                      "the new columns")
        self._start = np.append(self._start, self._start[-1] + start[1:])
        self._index = np.concatenate([self._index, index])
        self._value = np.concatenate([self._value, value])
        self._caps = np.concatenate([self._caps, upper])

    def set_cost(self, c) -> None:
        """Replace the objective of every column."""
        c = np.asarray(c, dtype=np.float64)
        n = self.num_vars
        if c.shape != (n,):
            raise ValueError("objective length does not match the columns")
        self._checked(self._h.changeColsCost(
            n, np.arange(n, dtype=np.int32), c), "the new costs")
        self._cost_changed = True

    def close(self, cols: np.ndarray) -> None:
        """Fix the given columns at 0."""
        zeros = np.zeros(len(cols))
        self._checked(self._h.changeColsBounds(
            len(cols), np.asarray(cols, dtype=np.int32), zeros, zeros),
            "the columns to close")
        self._caps[cols] = 0.0

    def _check_optimal(self, x: np.ndarray) -> None:
        """Raise LpError unless x keeps the rows to 1e-7 times one plus the
        largest equality right side, and x >= 0 and the caps to 1e-7."""
        lower, upper = self._lower, self._upper
        activity = np.bincount(
            self._index, self._value * np.repeat(x, np.diff(self._start)),
            minlength=len(lower))
        rows = np.maximum(lower - activity, activity - upper).max(initial=0.0)
        neg = -x.min(initial=0.0)
        over = (x - self._caps).max(initial=0.0)
        scale = 1.0 + np.abs(lower[lower == upper]).max(initial=0.0)
        if rows > 1e-7 * scale or neg > 1e-7 or over > 1e-7:
            raise LpError(
                "HiGHS returned an 'optimal' point violating the constraints "
                f"(rows by {rows:.3g}, x >= 0 by {neg:.3g}, "
                f"caps by {over:.3g})")

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
                self._check_optimal(x)
                return LpSolution(LpStatus.OPTIMAL, x, float(objective), duals)
            if status == core.HighsModelStatus.kInfeasible:
                return LpSolution(LpStatus.INFEASIBLE)
            if status == core.HighsModelStatus.kUnbounded:
                return LpSolution(LpStatus.UNBOUNDED)
        raise LpError(f"HiGHS failed: {h.modelStatusToString(status)}")


def solve(lower, upper, c, start, index, value) -> LpSolution:
    """Solve a linear program with HiGHS, once (see Model)."""
    return Model(lower, upper, c, start, index, value).solve()
