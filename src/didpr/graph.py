"""Directed multigraph container and edge-list utilities.

The graph is stored as parallel source/target index arrays so that degree
lookups and edge swaps stay cheap during long rewiring runs.  Self-loops and
repeated edges are allowed everywhere; node ids are 0-based integers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DirectedGraph",
    "DegreePairDist",
    "GraphFormatError",
    "degree_pair_dist",
    "read_edge_list",
    "write_edge_list",
    "read_edge_labels",
    "write_edge_labels",
]

# Scenario label codes of generated edges, shared by generate and rewire.
_LABEL_NAMES = {"a": "alpha", "b": "beta", "g": "gamma"}


class GraphFormatError(ValueError):
    """Raised when an edge-list file cannot be parsed."""


@dataclass
class DirectedGraph:
    """A directed multigraph with cached degree arrays.

    Attributes:
        num_nodes: number of nodes; ids run from 0 to num_nodes - 1.
        src: int64 array, source node of each edge.
        dst: int64 array, target node of each edge.
        out_deg: int64 array of length num_nodes.
        in_deg: int64 array of length num_nodes.
        edge_labels: optional per-edge provenance codes ("a", "b", "g") set
            by the preferential-attachment generator; None otherwise.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    out_deg: np.ndarray
    in_deg: np.ndarray
    edge_labels: np.ndarray | None = field(default=None)

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        src,
        dst,
        edge_labels=None,
    ) -> "DirectedGraph":
        """Build a graph from edge endpoint sequences, recomputing degrees.

        Raises ValueError when an endpoint is outside [0, num_nodes).
        """
        if num_nodes < 0:
            raise ValueError("num_nodes must be nonnegative")
        src = np.asarray(src, dtype=np.int64).copy()
        dst = np.asarray(dst, dtype=np.int64).copy()
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be 1-d arrays of equal length")
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= num_nodes:
                raise ValueError(
                    f"edge endpoint out of range: saw node {hi if hi >= num_nodes else lo}"
                    f" with num_nodes={num_nodes}"
                )
        out_deg = np.bincount(src, minlength=num_nodes).astype(np.int64)
        in_deg = np.bincount(dst, minlength=num_nodes).astype(np.int64)
        labels = None
        if edge_labels is not None:
            labels = np.asarray(edge_labels, dtype="U1").copy()
            if labels.shape != src.shape:
                raise ValueError("edge_labels must align with the edge arrays")
        return cls(num_nodes, src, dst, out_deg, in_deg, labels)

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as (source, target) tuples, in storage order."""
        return list(zip(self.src.tolist(), self.dst.tolist()))

    def copy(self) -> "DirectedGraph":
        labels = None if self.edge_labels is None else self.edge_labels.copy()
        return DirectedGraph(
            self.num_nodes,
            self.src.copy(),
            self.dst.copy(),
            self.out_deg.copy(),
            self.in_deg.copy(),
            labels,
        )

    def degrees_consistent(self) -> bool:
        """True when the cached degree arrays match a recount of the edges."""
        out = np.bincount(self.src, minlength=self.num_nodes)
        inn = np.bincount(self.dst, minlength=self.num_nodes)
        return bool(
            np.array_equal(out, self.out_deg) and np.array_equal(inn, self.in_deg)
        )


@dataclass(frozen=True)
class DegreePairDist:
    """Joint distribution of (out-degree, in-degree) over nodes.

    entries maps (out, in) -> proportion of nodes; values are positive and
    sum to one.
    """

    entries: dict[tuple[int, int], float]

    def marginal_out(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for (i, _), p in self.entries.items():
            out[i] = out.get(i, 0.0) + p
        return out


def degree_pair_dist(g: DirectedGraph) -> DegreePairDist:
    """Empirical joint (out, in) degree-pair distribution of a graph.

    Raises ValueError for a graph with no nodes.
    """
    if g.num_nodes == 0:
        raise ValueError("empty graph: degree pair distribution undefined")
    pairs = np.stack([g.out_deg, g.in_deg], axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    n = g.num_nodes
    entries = {
        (int(i), int(j)): int(c) / n for (i, j), c in zip(uniq.tolist(), counts.tolist())
    }
    return DegreePairDist(entries)


# ---------------------------------------------------------------------------
# Edge-list file I/O
# ---------------------------------------------------------------------------

def read_edge_list(path) -> DirectedGraph:
    """Read a whitespace-separated edge list.

    Each data line holds "src dst" (tabs or spaces).  Lines starting with
    '#' or '%' are comments; a comment of the form "# nodes=N" fixes the node
    count.  Without such a header the node count is one plus the largest id
    seen.  Malformed lines raise GraphFormatError with the line number.
    """
    declared: int | None = None
    srcs: list[int] = []
    dsts: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] in "#%":
                body = line[1:].strip()
                if body.startswith("nodes="):
                    try:
                        declared = int(body[len("nodes="):])
                    except ValueError as exc:
                        raise GraphFormatError(
                            f"{path}:{lineno}: bad node-count header {body!r}"
                        ) from exc
                    if declared < 0:
                        raise GraphFormatError(
                            f"{path}:{lineno}: negative node count {declared}"
                        )
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'src dst', got {line!r}"
                )
            try:
                u = int(parts[0])
                v = int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer node id in {line!r}"
                ) from exc
            if u < 0 or v < 0:
                raise GraphFormatError(
                    f"{path}:{lineno}: negative node id in {line!r}"
                )
            srcs.append(u)
            dsts.append(v)
    top = max(max(srcs, default=-1), max(dsts, default=-1))
    num_nodes = declared if declared is not None else top + 1
    if top >= num_nodes:
        raise GraphFormatError(
            f"{path}: node id {top} exceeds declared node count {num_nodes}"
        )
    return DirectedGraph.from_edges(num_nodes, srcs, dsts)


def write_edge_list(g: DirectedGraph, path) -> None:
    """Write a graph as an edge list, preserving edge order.

    A "# nodes=N" header is always written so isolated nodes survive a
    round trip.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes={g.num_nodes}\n")
        for u, v in zip(g.src.tolist(), g.dst.tolist()):
            fh.write(f"{u}\t{v}\n")


def write_edge_labels(g: DirectedGraph, path) -> None:
    """Write per-edge scenario labels, one single-letter code per line."""
    if g.edge_labels is None:
        raise ValueError("graph carries no edge labels")
    with open(path, "w", encoding="utf-8") as fh:
        for code in g.edge_labels.tolist():
            fh.write(f"{code}\n")


def read_edge_labels(path, num_edges: int) -> np.ndarray:
    """Read a label sidecar written by write_edge_labels."""
    codes: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line not in _LABEL_NAMES:
                raise GraphFormatError(f"{path}:{lineno}: unknown label {line!r}")
            codes.append(line)
    if len(codes) != num_edges:
        raise GraphFormatError(
            f"{path}: {len(codes)} labels for {num_edges} edges"
        )
    return np.asarray(codes, dtype="U1")
