"""Graph helpers the tests use and the library does not.

Edge tuples, an independent graph copy, a degree recount, the out-degree
marginal of a degree-pair distribution, an edge's scenario name, the
row and column of each degree pair in a mixing matrix, and the four
coefficients computed straight over the edge list, the cross-check of the
library's route through the edge mixing matrix.
"""
import numpy as np

from didpr.assortativity import (
    AssortProfile,
    EdgeMixMatrix,
    _profile,
    _standardise,
)
from didpr.graph import _LABEL_NAMES, DirectedGraph


def edges(g: DirectedGraph) -> list[tuple[int, int]]:
    """Edge list as (source, target) tuples, in storage order."""
    return list(zip(g.src.tolist(), g.dst.tolist()))


def copy_graph(g: DirectedGraph) -> DirectedGraph:
    """A copy that shares no array with g."""
    labels = None if g.edge_labels is None else g.edge_labels.copy()
    return DirectedGraph(g.num_nodes, g.src.copy(), g.dst.copy(),
                         g.out_deg.copy(), g.in_deg.copy(), labels)


def degrees_consistent(g: DirectedGraph) -> bool:
    """True when the cached degree arrays match a recount of the edges."""
    out = np.bincount(g.src, minlength=g.num_nodes)
    inn = np.bincount(g.dst, minlength=g.num_nodes)
    return bool(np.array_equal(out, g.out_deg)
                and np.array_equal(inn, g.in_deg))


def marginal_out(nu: dict[tuple[int, int], float]) -> dict[int, float]:
    """Out-degree -> proportion of nodes, from (out, in) -> proportion."""
    out: dict[int, float] = {}
    for (i, _), p in nu.items():
        out[i] = out.get(i, 0.0) + p
    return out


def scenario_of_edge(g: DirectedGraph, edge_index: int) -> str:
    """Scenario name ("alpha", "beta", "gamma") of one generated edge.

    Raises ValueError for graphs without scenario labels and IndexError for
    a bad edge index.
    """
    if g.edge_labels is None:
        raise ValueError("no scenario labels on this graph")
    if not 0 <= edge_index < g.num_edges:
        raise IndexError(f"edge index {edge_index} out of range")
    return _LABEL_NAMES[str(g.edge_labels[edge_index])]


def source_index(eta: EdgeMixMatrix) -> dict[tuple[int, int], int]:
    """Source pair -> its row of eta.H."""
    return {p: i for i, p in enumerate(eta.source_pairs)}


def target_index(eta: EdgeMixMatrix) -> dict[tuple[int, int], int]:
    """Target pair -> its column of eta.H."""
    return {p: i for i, p in enumerate(eta.target_pairs)}


def assortativity_from_edges(g: DirectedGraph) -> AssortProfile:
    """Assortativity computed directly over the edge list.

    Pearson correlation of (source type-a degree, target type-b degree)
    across edges, with population normalisation: each edge end is
    standardised with unit mass per edge.  Agrees with
    assortativity_of_graph(g) and assortativity(edge_mix_from_graph(g)) up
    to rounding and cross-checks their aggregation into degree-pair
    classes.
    """
    m = g.num_edges
    if m == 0:
        raise ValueError("graph has no edges; assortativity undefined")
    deg = np.column_stack([g.out_deg, g.in_deg])
    U, _, sd_s = _standardise(deg[g.src], np.ones(m))
    V, _, sd_t = _standardise(deg[g.dst], np.ones(m))
    return _profile(U.T @ V / m, sd_s, sd_t)
