"""Output checkers for the benchmark, computed apart from didpr.

Every check reads the files a `didpr` subcommand wrote and tests them
against numpy computations made here (Pearson correlations of edge-end
degrees, `np.bincount` degree sequences, the model's tail-index formula)
or against properties the method must have.  Nothing here imports didpr,
and nothing compares against a stored copy of earlier output.  A failed
check raises CheckError with a one-line reason.
"""
from __future__ import annotations

import csv
import json

import numpy as np

PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
# Slack for comparisons that hold exactly in exact arithmetic but pass
# through 12-significant-digit CSV text on one side.
_ROUND = 1e-9


class CheckError(Exception):
    """An output that contradicts the independent computation."""


def read_edges(path) -> tuple[int, np.ndarray, np.ndarray]:
    """(node count, src, dst) of an edge list with a '# nodes=N' header."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    if not header.startswith("# nodes="):
        raise CheckError(f"{path}: missing '# nodes=N' header")
    n = int(header[len("# nodes="):])
    data = np.loadtxt(path, dtype=np.int64, comments=("#", "%"), ndmin=2)
    if data.shape[1] != 2:
        raise CheckError(f"{path}: expected two columns")
    return n, data[:, 0], data[:, 1]


def degrees(n: int, src: np.ndarray, dst: np.ndarray) -> dict[int, np.ndarray]:
    """Out-degrees (type 1) and in-degrees (type 2) per node."""
    return {1: np.bincount(src, minlength=n), 2: np.bincount(dst, minlength=n)}


def coefficients(n: int, src: np.ndarray, dst: np.ndarray) -> dict:
    """r(a, b): Pearson correlation over edges of the source's type-a degree
    and the target's type-b degree."""
    deg = degrees(n, src, dst)
    return {(a, b): float(np.corrcoef(deg[a][src], deg[b][dst])[0, 1])
            for a, b in PAIRS}


def max_gap(r: dict, targets: dict) -> float:
    return max(abs(r[p] - targets[p]) for p in PAIRS)


def check_graph(path, graph: tuple, nodes: int | None, edges: int | None,
                reported: dict) -> None:
    """A generated graph (as read by read_edges) has the asked size, and
    the coefficients the CLI printed (`reported`, keys "r11".."r22") match
    the recomputed ones."""
    n, src, dst = graph
    if nodes is not None and n != nodes:
        raise CheckError(f"{path}: {n} nodes, expected {nodes}")
    if edges is not None and src.size != edges:
        raise CheckError(f"{path}: {src.size} edges, expected {edges}")
    if src.size and max(src.max(), dst.max()) >= n:
        raise CheckError(f"{path}: node id beyond the declared {n}")
    r = coefficients(n, src, dst)
    for a, b in PAIRS:
        if abs(r[(a, b)] - reported[f"r{a}{b}"]) > _ROUND:
            raise CheckError(f"{path}: printed r{a}{b}="
                             f"{reported[f'r{a}{b}']} but edges give "
                             f"{r[(a, b)]}")


def read_bounds(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_bounds(rows: list[dict], pair: str, contains: list[float],
                 conditioned: tuple[str, float] | None = None) -> None:
    """The bounds row for `pair` (optionally conditioned on pair = value)
    lies in [-1, 1] and contains every value in `contains`."""
    cond_pair, cond_value = conditioned if conditioned else ("", None)
    match = [r for r in rows
             if r["pair"] == pair and r["conditioned_pair"] == cond_pair
             and (cond_value is None
                  or abs(float(r["conditioned_value"]) - cond_value) < 1e-12)]
    if len(match) != 1:
        raise CheckError(f"expected one bounds row for r{pair} "
                         f"given {conditioned}, found {len(match)}")
    lo, hi = float(match[0]["lower"]), float(match[0]["upper"])
    if not -1.0 <= lo <= hi <= 1.0:
        raise CheckError(f"r{pair} bounds [{lo}, {hi}] not inside [-1, 1]")
    for v in contains:
        if not lo - _ROUND <= v <= hi + _ROUND:
            raise CheckError(f"r{pair} bounds [{lo}, {hi}] exclude {v}")


def _masses(keys: np.ndarray, weights: np.ndarray) -> dict[tuple, float]:
    """Total weight per distinct row of `keys` (an (m, 2) integer array)."""
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    sums = np.bincount(inv.ravel(), weights=weights, minlength=len(uniq))
    return {tuple(k): float(s) for k, s in zip(uniq.tolist(), sums)}


def _mass_gap(a: dict, b: dict) -> float:
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


def check_eta(path, n: int, src: np.ndarray, dst: np.ndarray, targets: dict,
              atol: float = 1e-6) -> None:
    """A mixing-matrix CSV (i, j, k, l, eta rows) has the graph's source and
    target pair masses and the target coefficients, each to `atol`."""
    cells = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    pairs_s = cells[:, 0:2].astype(np.int64)
    pairs_t = cells[:, 2:4].astype(np.int64)
    w = cells[:, 4]
    if (w < 0.0).any():
        raise CheckError(f"{path}: negative mass")
    deg = degrees(n, src, dst)
    ones = np.full(src.size, 1.0 / src.size)
    graph_s = _masses(np.stack([deg[1][src], deg[2][src]], axis=1), ones)
    graph_t = _masses(np.stack([deg[1][dst], deg[2][dst]], axis=1), ones)
    gap = max(_mass_gap(_masses(pairs_s, w), graph_s),
              _mass_gap(_masses(pairs_t, w), graph_t))
    if gap > atol:
        raise CheckError(f"{path}: pair masses off the graph's by {gap:.3g}")
    for a, b in PAIRS:
        x = pairs_s[:, a - 1].astype(np.float64)
        y = pairs_t[:, b - 1].astype(np.float64)
        mx, my = w @ x, w @ y
        cov = w @ ((x - mx) * (y - my))
        r = cov / np.sqrt((w @ (x - mx) ** 2) * (w @ (y - my) ** 2))
        if abs(r - targets[(a, b)]) > atol:
            raise CheckError(f"{path}: eta gives r{a}{b}={r}, target "
                             f"{targets[(a, b)]}")


def read_trace(path) -> np.ndarray:
    """Trace rows (step, r11, r12, r21, r22, acc_rate) as a float array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def first_step_within(trace: np.ndarray, targets: dict, tol: float):
    """Step of the first trace row within `tol` of every target, or None."""
    t = np.array([targets[p] for p in PAIRS])
    ok = np.abs(trace[:, 1:5] - t).max(axis=1) <= tol
    return int(trace[np.argmax(ok), 0]) if ok.any() else None


def check_rewired(before: tuple, path, trace_path, targets: dict, tol: float,
                  reached_step) -> None:
    """One rewiring replicate: every out- and in-degree kept, the final
    graph's recomputed r within `tol` of the targets and equal to the trace's
    last row, and `reached_step` the first trace row within `tol`."""
    n0, src0, dst0 = before
    n, src, dst = read_edges(path)
    if n != n0 or src.size != src0.size:
        raise CheckError(f"{path}: size changed")
    d0, d1 = degrees(n0, src0, dst0), degrees(n, src, dst)
    for t, name in ((1, "out"), (2, "in")):
        moved = np.flatnonzero(d0[t] != d1[t])
        if moved.size:
            raise CheckError(f"{path}: {name}-degree of node {moved[0]} "
                             f"changed {d0[t][moved[0]]} -> {d1[t][moved[0]]}")
    r = coefficients(n, src, dst)
    gap = max_gap(r, targets)
    if gap > tol:
        raise CheckError(f"{path}: final r is {gap:.4f} from the targets")
    trace = read_trace(trace_path)
    last = dict(zip(PAIRS, trace[-1, 1:5]))
    if max_gap(r, last) > 1e-8:
        raise CheckError(f"{trace_path}: last row does not match {path}")
    first = first_step_within(trace, targets, tol)
    if first != reached_step:
        raise CheckError(f"{trace_path}: first row within tolerance is step "
                         f"{first}, reported {reached_step}")


def tail_indices(alpha: float, beta: float, gamma: float,
                 delta_out: float, delta_in: float) -> tuple[float, float]:
    """Out- and in-degree tail indices of the directed preferential
    attachment model (Bollobas, Borgs, Chayes and Riordan 2003):
    iota_out = (1 + delta_out (alpha + gamma)) / (beta + gamma) and
    iota_in = (1 + delta_in (alpha + gamma)) / (alpha + beta)."""
    ag = alpha + gamma
    return (1.0 + delta_out * ag) / (beta + gamma), \
        (1.0 + delta_in * ag) / (alpha + beta)


def check_fit(path, nodes: int, edges: int) -> None:
    """A fit JSON: alpha + beta + gamma = 1, beta = 1 - nodes/edges,
    positive offsets, and the tail-index formula at the fitted parameters
    reproduces the fitted tail indices."""
    with open(path, encoding="utf-8") as fh:
        fit = json.load(fh)
    a, b, g = fit["alpha_hat"], fit["beta_hat"], fit["gamma_hat"]
    if abs(a + b + g - 1.0) > 1e-9:
        raise CheckError(f"{path}: alpha+beta+gamma = {a + b + g}")
    if abs(b - (1.0 - nodes / edges)) > 1e-12:
        raise CheckError(f"{path}: beta_hat {b} != 1 - {nodes}/{edges}")
    if min(a, g) < 0.0 or fit["delta_out_hat"] <= 0 or fit["delta_in_hat"] <= 0:
        raise CheckError(f"{path}: parameter out of range")
    i1, i2 = tail_indices(a, b, g, fit["delta_out_hat"], fit["delta_in_hat"])
    for got, want, name in ((i1, fit["iota1_hat"], "iota1"),
                            (i2, fit["iota2_hat"], "iota2")):
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            raise CheckError(f"{path}: formula gives {name}={got}, fit "
                             f"reports {want}")


def check_gains(path, replicates: int) -> None:
    """Per replicate, the scenario-pair buckets' counts and coefficient
    gains sum to the replicate's total row."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cols = ["count"] + [f"d_r{a}{b}" for a, b in PAIRS]
    for rep in range(replicates):
        mine = [r for r in rows if r["replicate"] == str(rep)]
        totals = [r for r in mine if r["scenario_pair"] == "total"]
        buckets = [r for r in mine if r["scenario_pair"] != "total"]
        if len(totals) != 1 or not buckets:
            raise CheckError(f"{path}: replicate {rep} lacks buckets or total")
        if int(totals[0]["count"]) <= 0:
            raise CheckError(f"{path}: replicate {rep} accepted no swap")
        for col in cols:
            got = sum(float(r[col]) for r in buckets)
            want = float(totals[0][col])
            if abs(got - want) > _ROUND:
                raise CheckError(f"{path}: replicate {rep} {col} buckets sum "
                                 f"to {got}, total is {want}")
