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

A mixing matrix carries float masses: _standardise centres and scales an
edge end's degrees by their means and sds under them, so each coefficient
of a mixing matrix, and each constraint and bound in eta, is a moment of
standardised degrees.  An edge list carries integer degrees: _pearson
turns its integer sums (_end_sums) into coefficients, exact but for the
last rounding, for a graph and for the rewiring chain's trace and gains.
_profile checks and packs the coefficients of both.

The eta CSV stores a mixing matrix.  Written (write_eta_csv): the line
"i,j,k,l,eta", then "i,j,k,l,x" for each positive entry x = H[s, t], where
(i, j) = source_pairs[s] and (k, l) = target_pairs[t], in row-major order
of H; x is formatted with %.17g, which reads back as the same float64.
Every line ends in CRLF and nothing is quoted.  Read (read_eta_csv, with
the line rules of the graph module): the first line must be the header
exactly; blank lines are skipped; every other line holds five
comma-separated fields, four integer degrees in [0, 2**31) and a finite
nonnegative entry, and no (i, j, k, l) may appear twice.

Two read paths, one result.  read_eta_csv reads through graph._read_csv:
one np.loadtxt pass over the path, with _eta_rows' checks as masks, and
for a flagged row or any failure there the line scan, the one place that
names the first bad line (_eta_why words it).  Both paths parse each field
with the same converter and build the matrix in _eta_rows, so they give
the same pairs and H.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (DirectedGraph, _decode_pairs, _pair_codes, _parse_rows,
                    _read_csv)

__all__ = [
    "TYPE_PAIRS",
    "AssortProfile",
    "EdgeMixMatrix",
    "edge_mix_from_graph",
    "assortativity",
    "assortativity_of_graph",
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

    def validate(self, atol: float = 1e-9) -> None:
        """Check finite, nonnegative entries and total mass one; raise on
        violation."""
        if self.H.size == 0:
            raise ValueError("empty edge mixing matrix")
        if not np.isfinite(self.H).all():
            raise ValueError("non-finite entry in edge mixing matrix")
        if float(self.H.min()) < -atol:
            raise ValueError(f"negative entry {self.H.min()} in edge mixing matrix")
        total = float(self.H.sum())
        if abs(total - 1.0) > atol:
            raise ValueError(f"edge mixing matrix mass {total} != 1")

    def row_masses(self) -> np.ndarray:
        return self.H.sum(axis=1)

    def col_masses(self) -> np.ndarray:
        return self.H.sum(axis=0)


def edge_mix_from_graph(g: DirectedGraph) -> EdgeMixMatrix:
    """Empirical edge mixing matrix of a graph.

    Requires at least one edge.  Row s sums to the proportion of edges whose
    source carries degree pair source_pairs[s], and likewise for columns.
    """
    m = g.num_edges
    if m == 0:
        raise ValueError("graph has no edges; edge mixing matrix undefined")
    codes = _pair_codes(g.out_deg, g.in_deg)
    s_uniq = np.unique(codes[g.out_deg > 0])
    t_uniq = np.unique(codes[g.in_deg > 0])
    cells = (np.searchsorted(s_uniq, codes)[g.src] * t_uniq.size
             + np.searchsorted(t_uniq, codes)[g.dst])
    counts = np.bincount(cells, minlength=s_uniq.size * t_uniq.size)
    return EdgeMixMatrix(_decode_pairs(s_uniq), _decode_pairs(t_uniq),
                         counts.reshape(s_uniq.size, -1) / m)


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


def _end_sums(g: DirectedGraph):
    """(sums, roots) of g's edge ends, each indexed [end][type - 1], end 0
    the source and 1 the target: sums adds the end's degrees over the edges
    (Python integers), and roots is sqrt(m Sxx - Sx^2), Sxx adding their
    squares: m times their sd."""
    deg = np.stack((g.out_deg, g.in_deg))
    # A node ends out- (in-) degree many edges as a source (target), so
    # row 0 (1) of P and Q sums those ends' degrees and their squares.
    P, Q = ((deg @ (deg ** k).T).tolist() for k in (1, 2))
    return P, [[math.sqrt(g.num_edges * q - p * p) for p, q in zip(*end)]
               for end in zip(P, Q)]


def _pearson(m, sxy, ends) -> list[list[float]]:
    """r[a-1][b-1] = (m Sxy - Sx Sy) / (sqrt(m Sxx - Sx^2) sqrt(m Syy - Sy^2))
    over m edges, x the source's type-a and y the target's type-b degree, of
    the Python integers sxy[a-1][b-1] = Sxy and ends (_end_sums).  Only the
    roots and the division round; a degenerate end (root 0) gives r = 0."""
    (sx, sy), (rx, ry) = ends
    return [[(m * sxy[a][b] - sx[a] * sy[b]) / (rx[a] * ry[b])
             if rx[a] * ry[b] else 0.0 for b in range(2)] for a in range(2)]


def assortativity_of_graph(g: DirectedGraph) -> AssortProfile:
    """Assortativity of a graph with at least one edge, no edge mix built:
    _pearson over the exact integer sums of the edges."""
    if g.num_edges == 0:
        raise ValueError("graph has no edges; assortativity undefined")
    deg = np.stack((g.out_deg, g.in_deg))
    sxy = (deg.take(g.src, axis=1) @ deg.take(g.dst, axis=1).T).tolist()
    ends = _end_sums(g)
    return _profile(_pearson(g.num_edges, sxy, ends), *ends[1])


_ETA_HEADER = ("i", "j", "k", "l", "eta")
_ETA_DTYPE = np.dtype([("degrees", np.int64, (4,)), ("eta", np.float64)])


def write_eta_csv(eta: EdgeMixMatrix, path) -> None:
    """Write the positive entries of a mixing matrix as (i, j, k, l, eta) rows.

    Rows follow the row-major order of H, so the output is deterministic;
    the bytes are given in the module docstring.  Each source prefix
    "i,j," and target prefix "k,l," is formatted once, and the text is
    written one source row at a time.
    """
    targets = [f"{k},{l}," for k, l in eta.target_pairs]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_ETA_HEADER) + "\r\n")
        for (i, j), row in zip(eta.source_pairs, eta.H):
            cols = np.flatnonzero(row > 0.0)
            source = f"{i},{j},"
            fh.write("".join([f"{source}{targets[t]}{v:.17g}\r\n" for t, v
                              in zip(cols.tolist(), row[cols].tolist())]))


def read_eta_csv(path) -> EdgeMixMatrix:
    """Rebuild a mixing matrix from its CSV form (module docstring).

    Pair lists are the sorted distinct pairs present in the file; entries
    absent from the file are zero.  The first bad row raises ValueError
    naming its line: one without five fields, with a degree that is not a
    nonnegative integer below 2**31, with an entry that is not a finite
    nonnegative number, or repeating the cell of an earlier row.
    """
    eta = _read_csv(path, _ETA_HEADER, _ETA_DTYPE, _eta_rows, _eta_why)
    if not eta.H.size:
        raise ValueError(f"{path}: no entries")
    return eta


def _eta_rows(table):
    """What both read paths take from parsed eta rows: (flags, matrix).
    flags masks the rows that fail each check, in order: a degree outside
    [0, 2**31), an entry that is not finite and nonnegative, a cell of an
    earlier row.  matrix() builds the mixing matrix once no row is
    flagged.  Each array the size of the table is dropped once used: the
    checks peak at about 26 bytes a row above the table's 40."""
    degrees, values = table["degrees"], table["eta"]
    s_uniq, cells = _index_in(_pair_codes(degrees[:, 0], degrees[:, 1]))
    t_uniq, t_idx = _index_in(_pair_codes(degrees[:, 2], degrees[:, 3]))
    cells *= t_uniq.size  # each row's index in H, row-major, in place
    cells += t_idx
    del t_idx
    # A stable sort keeps each cell's rows in file order: all but the first
    # repeat an earlier row.
    order = np.argsort(cells, kind="stable")
    ordered = cells[order]
    repeated = np.zeros(table.size, dtype=bool)
    repeated[order[1:][ordered[1:] == ordered[:-1]]] = True
    del order, ordered
    # _pair_codes packs two degrees into one int64: both must be < 2**31.
    flags = (((degrees < 0) | (degrees >= 2**31)).any(axis=1),
             ~((values >= 0.0) & (values < np.inf)),
             repeated)

    def matrix() -> EdgeMixMatrix:
        H = np.zeros((s_uniq.size, t_uniq.size))
        H.ravel()[cells] = values
        return EdgeMixMatrix(_decode_pairs(s_uniq), _decode_pairs(t_uniq), H)
    return flags, matrix


def _index_in(codes):
    """(the sorted distinct codes, each code's index among them), found by
    searchsorted: np.unique's return_inverse holds more arrays of this size."""
    uniq = np.unique(codes)
    return uniq, np.searchsorted(uniq, codes)


def _eta_why(table, rows, nos, row, kind) -> str:
    """What is wrong with eta row `row`, flagged with `kind` by
    _read_csv: one of _eta_rows' checks, or a row that does not parse."""
    fields = rows[row].split(",")
    if kind == 3 and len(fields) == len(_ETA_HEADER):
        # Five fields, one unparsable: the entry (kind 1) when the row
        # parses with it replaced by 0, else the degrees (kind 0).
        kind = _parse_rows([",".join(fields[:4] + ["0"])], _ETA_DTYPE,
                           ",")[1]
    if kind == 0:
        return (f"degrees {','.join(fields[:4])} are not all nonnegative "
                f"integers below 2**31")
    if kind == 1:
        return f"eta entry {fields[4]} is not finite and nonnegative"
    if kind == 2:
        degrees = table["degrees"]
        first = np.argmax((degrees == degrees[row]).all(axis=1))
        return (f"duplicate entry {','.join(fields[:4])} (first on line "
                f"{nos[first]})")
    return f"expected {len(_ETA_HEADER)} fields, got {len(fields)}"
