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

One helper, _standardise, works out an edge end's degree means and standard
deviations and centres and scales its degrees by them.  Every coefficient
is the moment of a standardised source degree times a standardised target
degree, so the coefficients here, the constraints and bounds in eta and
the rewiring chain's trace in rewire all take their end moments from it,
and _profile checks and packs the result.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph

__all__ = [
    "TYPE_PAIRS",
    "AssortProfile",
    "EdgeMixMatrix",
    "edge_mix_from_graph",
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


def _standardise(pairs, mass) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standardise the out- and in-degree of one edge end over its masses.

    pairs lists (out, in) degree pairs and mass their masses, of any
    positive total.  Returns (Z, mean, sd): the two means and standard
    deviations under the renormalised masses, and Z, the degrees centred by
    the means and scaled by the sds, one row per pair.  A degree that takes
    one value on the pairs of positive mass has sd exactly 0 and a zero
    column: centred sums would leave rounding noise there, and callers test
    sd > 0.
    """
    X = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    w = np.asarray(mass, dtype=np.float64)
    total = w.sum()
    if not total > 0.0:
        raise ValueError("edge end carries no mass")
    w = w / total
    mean = w @ X
    D = X - mean
    sd = np.sqrt(w @ (D * D))
    support = X[w > 0.0]
    sd[(support == support[0]).all(axis=0)] = 0.0
    Z = np.divide(D, sd, out=np.zeros_like(D), where=sd > 0.0)
    return Z, mean, sd


def _require_spread(sd_s, sd_t, pairs=TYPE_PAIRS) -> None:
    """Raise ValueError unless both ends of every r(a, b) in pairs have a
    positive sd (source sds sd_s, target sds sd_t, out-degree first)."""
    for a, b in pairs:
        if sd_s[a - 1] == 0.0 or sd_t[b - 1] == 0.0:
            raise ValueError(
                f"degenerate end distribution; r({a},{b}) undefined")


def _profile(r, sd_s, sd_t) -> AssortProfile:
    """The profile of the coefficients r[a-1][b-1].

    Raises ValueError when an end is degenerate (see _require_spread) or a
    coefficient falls outside [-1, 1] beyond rounding error.
    """
    _require_spread(sd_s, sd_t)
    vals = np.asarray(r, dtype=np.float64).ravel().tolist()
    for (a, b), val in zip(TYPE_PAIRS, vals):
        if abs(val) > 1.0 + 1e-9:
            raise ValueError(f"computed r({a},{b}) = {val} outside [-1, 1]")
    return AssortProfile(*vals)


def assortativity(eta: EdgeMixMatrix) -> AssortProfile:
    """The four assortativity coefficients of an edge mixing matrix.

    With both ends standardised over eta's own marginals (_standardise),
    r(a, b) is the moment U[:, a-1]' H V[:, b-1].  Raises ValueError when
    any end distribution is degenerate (zero standard deviation) or a
    coefficient falls outside [-1, 1] beyond rounding error.
    """
    H = eta.H / eta.H.sum()
    U, _, sd_s = _standardise(eta.source_pairs, H.sum(axis=1))
    V, _, sd_t = _standardise(eta.target_pairs, H.sum(axis=0))
    return _profile(U.T @ H @ V, sd_s, sd_t)


def assortativity_from_edges(g: DirectedGraph) -> AssortProfile:
    """Assortativity computed directly over the edge list.

    Pearson correlation of (source type-a degree, target type-b degree)
    across edges, with population normalisation: each edge end is
    standardised with unit mass per edge.  Agrees with
    assortativity(edge_mix_from_graph(g)) up to rounding and cross-checks
    that path's aggregation into degree-pair classes.
    """
    m = g.num_edges
    if m == 0:
        raise ValueError("graph has no edges; assortativity undefined")
    deg = np.column_stack([g.out_deg, g.in_deg])
    U, _, sd_s = _standardise(deg[g.src], np.ones(m))
    V, _, sd_t = _standardise(deg[g.dst], np.ones(m))
    return _profile(U.T @ V / m, sd_s, sd_t)


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
    absent from the file are zero.  A row without five fields, with a degree
    that is not a nonnegative integer, or with an entry that is not a finite
    nonnegative number, raises ValueError naming its line.
    """
    cells: dict[tuple[tuple[int, int], tuple[int, int]], float] = {}
    for line, row in _csv_rows(path, _ETA_HEADER):
        try:
            degrees = [int(v) for v in row[:4]]
        except ValueError:
            degrees = [-1]
        if min(degrees) < 0:
            raise ValueError(f"{path}:{line}: degrees {','.join(row[:4])} "
                             f"are not all nonnegative integers")
        i, j, k, l = degrees
        try:
            value = float(row[4])
        except ValueError:
            value = np.nan
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
