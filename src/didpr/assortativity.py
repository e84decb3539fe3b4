"""Degree--degree assortativity for directed multigraphs.

A directed edge has two ends, and each end carries two degrees, so four
assortativity coefficients exist: out-out, out-in, in-out, and in-in.  Each
one is the Pearson correlation between a source-end degree and a target-end
degree, taken over the edge list.  Degree type 1 means out-degree, type 2
means in-degree, and r(a, b) correlates source type a with target type b.

The joint behaviour of the four coefficients is captured by the edge mixing
matrix: the proportion of edges leading from a node with degree pair (i, j)
to a node with degree pair (k, l).  Only degree pairs realised in the graph
are materialised, which keeps downstream linear programs tractable.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .graph import DegreePairDist, DirectedGraph

__all__ = [
    "TYPE_PAIRS",
    "AssortProfile",
    "EdgeEndDistributions",
    "EdgeMixMatrix",
    "edge_mix_from_graph",
    "end_distributions",
    "assortativity",
    "assortativity_of_graph",
    "assortativity_from_edges",
    "write_eta_csv",
    "read_eta_csv",
]

# The four (source type, target type) combinations, in reporting order.
TYPE_PAIRS: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (2, 1), (2, 2))


@dataclass(frozen=True)
class AssortProfile:
    """The four directed assortativity coefficients of one network."""

    r11: float
    r12: float
    r21: float
    r22: float

    def get(self, a: int, b: int) -> float:
        if (a, b) not in TYPE_PAIRS:
            raise ValueError(f"no such coefficient: r({a},{b})")
        return getattr(self, f"r{a}{b}")

    def as_dict(self) -> dict[str, float]:
        return {"r11": self.r11, "r12": self.r12, "r21": self.r21, "r22": self.r22}

    def max_abs_diff(self, other: "AssortProfile") -> float:
        return max(
            abs(self.get(a, b) - other.get(a, b)) for a, b in TYPE_PAIRS
        )


@dataclass(frozen=True)
class EdgeEndDistributions:
    """Source-end and target-end degree distributions of a random edge.

    q[a] is the distribution of the source node's type-a degree and
    q_tilde[b] that of the target node's type-b degree, each as a
    degree -> probability dict.  sigma_q / sigma_q_tilde hold the matching
    standard deviations.
    """

    q: dict[int, dict[int, float]]
    q_tilde: dict[int, dict[int, float]]
    sigma_q: dict[int, float]
    sigma_q_tilde: dict[int, float]

    def mean_q(self, a: int) -> float:
        return sum(k * p for k, p in self.q[a].items())

    def mean_q_tilde(self, b: int) -> float:
        return sum(k * p for k, p in self.q_tilde[b].items())


def _dist_sigma(dist: dict[int, float]) -> float:
    """Standard deviation of a degree -> mass dict.

    A single-support marginal must report exactly 0 (degenerate ends make
    the coefficients undefined, and callers test sigma > 0); the one-pass
    second-moment formula leaks rounding noise of order 1e-8 there, so the
    degenerate case is short-circuited and the rest uses centred sums on
    the renormalised masses.
    """
    if len(dist) <= 1:
        return 0.0
    total = sum(dist.values())
    mean = sum(k * v for k, v in dist.items()) / total
    var = sum((k - mean) ** 2 * v for k, v in dist.items()) / total
    return float(np.sqrt(max(var, 0.0)))


@dataclass
class EdgeMixMatrix:
    """Joint distribution of (source degree pair, target degree pair).

    source_pairs / target_pairs list the realised (out, in) degree pairs in
    lexicographic order; H[s, t] is the proportion of edges from a node with
    pair source_pairs[s] to a node with pair target_pairs[t].
    """

    source_pairs: list[tuple[int, int]]
    target_pairs: list[tuple[int, int]]
    H: np.ndarray

    def __post_init__(self) -> None:
        self.H = np.asarray(self.H, dtype=np.float64)
        if self.H.shape != (len(self.source_pairs), len(self.target_pairs)):
            raise ValueError(
                f"H shape {self.H.shape} does not match the pair lists "
                f"({len(self.source_pairs)} x {len(self.target_pairs)})"
            )

    def source_index(self) -> dict[tuple[int, int], int]:
        return {p: i for i, p in enumerate(self.source_pairs)}

    def target_index(self) -> dict[tuple[int, int], int]:
        return {p: i for i, p in enumerate(self.target_pairs)}

    def validate(self, atol: float = 1e-9) -> None:
        """Check nonnegativity and total mass one; raise on violation."""
        if self.H.size == 0:
            raise ValueError("empty edge mixing matrix")
        if float(self.H.min()) < -atol:
            raise ValueError(f"negative entry {self.H.min()} in edge mixing matrix")
        total = float(self.H.sum())
        if abs(total - 1.0) > atol:
            raise ValueError(f"edge mixing matrix mass {total} != 1")

    def row_masses(self) -> np.ndarray:
        return self.H.sum(axis=1)

    def col_masses(self) -> np.ndarray:
        return self.H.sum(axis=0)


def _pair_codes(deg_a: np.ndarray, deg_b: np.ndarray) -> np.ndarray:
    # Encode (a, b) pairs into one int for fast uniquing; degrees are < 2**31.
    return deg_a.astype(np.int64) * (np.int64(1) << 32) + deg_b.astype(np.int64)


def edge_mix_from_graph(g: DirectedGraph) -> EdgeMixMatrix:
    """Empirical edge mixing matrix of a graph.

    Requires at least one edge.  Row s sums to the proportion of edges whose
    source carries degree pair source_pairs[s], and likewise for columns.
    """
    m = g.num_edges
    if m == 0:
        raise ValueError("graph has no edges; edge mixing matrix undefined")
    s_out = g.out_deg[g.src]
    s_in = g.in_deg[g.src]
    t_out = g.out_deg[g.dst]
    t_in = g.in_deg[g.dst]

    s_codes = _pair_codes(s_out, s_in)
    t_codes = _pair_codes(t_out, t_in)
    s_uniq, s_idx = np.unique(s_codes, return_inverse=True)
    t_uniq, t_idx = np.unique(t_codes, return_inverse=True)

    counts = np.zeros((s_uniq.size, t_uniq.size), dtype=np.int64)
    np.add.at(counts, (s_idx, t_idx), 1)

    def decode(codes: np.ndarray) -> list[tuple[int, int]]:
        his = (codes >> 32).tolist()
        los = (codes & ((np.int64(1) << 32) - 1)).tolist()
        return [(int(a), int(b)) for a, b in zip(his, los)]

    return EdgeMixMatrix(decode(s_uniq), decode(t_uniq), counts / m)


def _degree_values(pairs: list[tuple[int, int]], dtype=np.float64):
    arr = np.asarray(pairs, dtype=np.int64)
    return arr[:, 0].astype(dtype), arr[:, 1].astype(dtype)


def end_distributions(eta: EdgeMixMatrix) -> EdgeEndDistributions:
    """Marginal end distributions and their standard deviations.

    The source-end type-a distribution aggregates row masses of eta over the
    type-a coordinate of the source degree pair; target ends use columns.
    """
    row = eta.row_masses()
    col = eta.col_masses()
    s_out, s_in = _degree_values(eta.source_pairs)
    t_out, t_in = _degree_values(eta.target_pairs)

    def collapse(vals: np.ndarray, mass: np.ndarray) -> dict[int, float]:
        out: dict[int, float] = {}
        for v, p in zip(vals.tolist(), mass.tolist()):
            if p != 0.0:
                out[int(v)] = out.get(int(v), 0.0) + p
        return out

    q = {1: collapse(s_out, row), 2: collapse(s_in, row)}
    q_tilde = {1: collapse(t_out, col), 2: collapse(t_in, col)}

    sigma_q = {a: _dist_sigma(q[a]) for a in (1, 2)}
    sigma_q_tilde = {b: _dist_sigma(q_tilde[b]) for b in (1, 2)}
    return EdgeEndDistributions(q, q_tilde, sigma_q, sigma_q_tilde)


def _profile_from_moments(
    cross: dict[tuple[int, int], float],
    mu_q: dict[int, float],
    mu_qt: dict[int, float],
    sig_q: dict[int, float],
    sig_qt: dict[int, float],
) -> AssortProfile:
    vals = {}
    for a, b in TYPE_PAIRS:
        if sig_q[a] == 0.0 or sig_qt[b] == 0.0:
            raise ValueError(
                f"degenerate end distribution; r({a},{b}) undefined"
            )
        r = (cross[(a, b)] - mu_q[a] * mu_qt[b]) / (sig_q[a] * sig_qt[b])
        if abs(r) > 1.0 + 1e-9:
            raise ValueError(f"computed r({a},{b}) = {r} outside [-1, 1]")
        vals[(a, b)] = r
    return AssortProfile(vals[(1, 1)], vals[(1, 2)], vals[(2, 1)], vals[(2, 2)])


def assortativity(eta: EdgeMixMatrix) -> AssortProfile:
    """The four assortativity coefficients of an edge mixing matrix.

    Raises ValueError when any needed end distribution is degenerate (zero
    standard deviation) or a coefficient falls outside [-1, 1] beyond
    rounding error.
    """
    ends = end_distributions(eta)
    s_out, s_in = _degree_values(eta.source_pairs)
    t_out, t_in = _degree_values(eta.target_pairs)
    f = {1: s_out, 2: s_in}
    gv = {1: t_out, 2: t_in}
    cross = {
        (a, b): float(f[a] @ eta.H @ gv[b]) for a, b in TYPE_PAIRS
    }
    mu_q = {a: ends.mean_q(a) for a in (1, 2)}
    mu_qt = {b: ends.mean_q_tilde(b) for b in (1, 2)}
    return _profile_from_moments(cross, mu_q, mu_qt, ends.sigma_q, ends.sigma_q_tilde)


def assortativity_from_edges(g: DirectedGraph) -> AssortProfile:
    """Assortativity computed directly over the edge list.

    Pearson correlation of (source type-a degree, target type-b degree)
    across edges, with population normalisation.  Agrees with
    assortativity(edge_mix_from_graph(g)) up to rounding and serves as an
    independent cross-check of that path.
    """
    if g.num_edges == 0:
        raise ValueError("graph has no edges; assortativity undefined")
    x = {
        1: g.out_deg[g.src].astype(np.float64),
        2: g.in_deg[g.src].astype(np.float64),
    }
    y = {
        1: g.out_deg[g.dst].astype(np.float64),
        2: g.in_deg[g.dst].astype(np.float64),
    }
    mu_q = {a: float(x[a].mean()) for a in (1, 2)}
    mu_qt = {b: float(y[b].mean()) for b in (1, 2)}
    sig_q = {
        a: float(np.sqrt(max((x[a] * x[a]).mean() - mu_q[a] ** 2, 0.0)))
        for a in (1, 2)
    }
    sig_qt = {
        b: float(np.sqrt(max((y[b] * y[b]).mean() - mu_qt[b] ** 2, 0.0)))
        for b in (1, 2)
    }
    cross = {(a, b): float((x[a] * y[b]).mean()) for a, b in TYPE_PAIRS}
    return _profile_from_moments(cross, mu_q, mu_qt, sig_q, sig_qt)


def assortativity_of_graph(g: DirectedGraph) -> AssortProfile:
    """Assortativity of a graph via its edge mixing matrix."""
    return assortativity(edge_mix_from_graph(g))


_ETA_HEADER = ("i", "j", "k", "l", "eta")


def _csv_rows(path, header: tuple[str, ...]):
    """Yield (line number, fields) per data row of a CSV file.  Blank lines
    are skipped; a bad header, or a row with another field count, raises
    ValueError naming its line."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != header:
            raise ValueError(f"{path}: expected header {','.join(header)}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: expected "
                                 f"{len(header)} fields, got {len(row)}")
            yield reader.line_num, row


def write_eta_csv(eta: EdgeMixMatrix, path) -> None:
    """Write the positive entries of a mixing matrix as (i, j, k, l, eta) rows.

    Rows follow the row-major order of H, so the output is deterministic.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_ETA_HEADER)
        for s, (i, j) in enumerate(eta.source_pairs):
            row = eta.H[s]
            for t, (k, l) in enumerate(eta.target_pairs):
                if row[t] > 0.0:
                    writer.writerow([i, j, k, l, f"{row[t]:.17g}"])


def read_eta_csv(path) -> EdgeMixMatrix:
    """Rebuild a mixing matrix from its CSV form.

    Pair lists are the sorted distinct pairs present in the file; entries
    absent from the file are zero.  A row without five fields, or with an
    entry that is negative or not finite, raises ValueError naming its line.
    """
    cells: dict[tuple[tuple[int, int], tuple[int, int]], float] = {}
    for line, row in _csv_rows(path, _ETA_HEADER):
        i, j, k, l = (int(v) for v in row[:4])
        value = float(row[4])
        if not 0.0 <= value < np.inf:
            raise ValueError(f"{path}:{line}: eta entry {row[4]} is not "
                             f"finite and nonnegative")
        cells[((i, j), (k, l))] = value
    if not cells:
        raise ValueError(f"{path}: no entries")
    source_pairs = sorted({sp for sp, _ in cells})
    target_pairs = sorted({tp for _, tp in cells})
    s_index = {p: i for i, p in enumerate(source_pairs)}
    t_index = {p: i for i, p in enumerate(target_pairs)}
    H = np.zeros((len(source_pairs), len(target_pairs)))
    for (sp, tp), val in cells.items():
        H[s_index[sp], t_index[tp]] = val
    return EdgeMixMatrix(source_pairs, target_pairs, H)
