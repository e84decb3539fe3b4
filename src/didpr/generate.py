"""Random directed network generators.

gen_er: every ordered node pair, self-pairs included, carries an edge
independently with fixed probability.

gen_dpa: directed preferential attachment.  Each step is one of three
scenarios: with probability alpha a new node points to an existing node,
with probability beta an existing node points to an existing node, and with
probability gamma an existing node points to a new node.  Existing sources
are drawn proportionally to out-degree + delta_out, existing targets
proportionally to in-degree + delta_in.  The process is seeded with a
single node carrying a self-loop; the seed loop is dropped from the output,
so a run returns exactly the requested number of edges, each labelled with
its scenario.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph
from .weighted import CumulativeWeightTree

__all__ = ["DpaParams", "gen_er", "gen_dpa"]

# Row block size for the Bernoulli sweep in gen_er.
_ER_BLOCK_CELLS = 4_000_000


def gen_er(n: int, p: float, seed=None) -> DirectedGraph:
    """Directed Erdos-Renyi graph with self-loops allowed.

    Each of the n*n ordered pairs (u, v), including u == v, is an edge
    independently with probability p.  Out- and in-degrees are therefore
    Binomial(n, p).

    Args:
        n: number of nodes, at least 1.
        p: edge probability in [0, 1].
        seed: anything accepted by numpy.random.default_rng.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    rows_per_block = max(1, _ER_BLOCK_CELLS // n)
    srcs = []
    dsts = []
    for start in range(0, n, rows_per_block):
        stop = min(start + rows_per_block, n)
        mask = rng.random((stop - start, n)) < p
        r, c = np.nonzero(mask)
        srcs.append(r + start)
        dsts.append(c)
    src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64)
    return DirectedGraph.from_edges(n, src, dst)


@dataclass(frozen=True)
class DpaParams:
    """Parameters of one preferential-attachment run.

    alpha, beta, gamma are scenario probabilities summing to one (within
    1e-12).  delta_in and delta_out are strictly positive offsets added to
    the degrees when sampling existing targets and sources; non-integer
    values are fine.  target_edges is the number of edges to generate and
    seed feeds the run's random generator.
    """

    alpha: float
    beta: float
    gamma: float
    delta_in: float
    delta_out: float
    target_edges: int
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-12:
            raise ValueError(
                "scenario probabilities must sum to 1, got "
                f"{self.alpha + self.beta + self.gamma}"
            )
        if self.delta_in <= 0.0 or self.delta_out <= 0.0:
            raise ValueError("delta_in and delta_out must be positive")
        if self.target_edges < 1:
            raise ValueError("target_edges must be at least 1")


def gen_dpa(params: DpaParams) -> DirectedGraph:
    """Grow a preferential-attachment network with target_edges edges.

    Every returned edge carries a scenario label ("a", "b", or "g") in
    edge_labels.  Self-loops can arise in beta steps because source and
    target are drawn independently.
    """
    num_edges = params.target_edges
    rng = np.random.default_rng(params.seed)
    cap = num_edges + 1  # every step adds at most one node, plus the seed

    d_out = np.zeros(cap, dtype=np.int64)
    d_in = np.zeros(cap, dtype=np.int64)
    out_tree = CumulativeWeightTree(cap)
    in_tree = CumulativeWeightTree(cap)

    # seed: one node with a self-loop (dropped from the output below)
    d_out[0] = 1
    d_in[0] = 1
    out_tree.add(0, 1.0 + params.delta_out)
    in_tree.add(0, 1.0 + params.delta_in)
    n = 1

    src = np.empty(num_edges, dtype=np.int64)
    dst = np.empty(num_edges, dtype=np.int64)
    labels = np.empty(num_edges, dtype="U1")

    scen = rng.random(num_edges)
    alpha = params.alpha
    ab = params.alpha + params.beta
    for e in range(num_edges):
        u = scen[e]
        if u < alpha:
            v2 = in_tree.sample(rng.random() * in_tree.total)
            v1 = n
            n += 1
            d_out[v1] = 1
            out_tree.add(v1, 1.0 + params.delta_out)
            in_tree.add(v1, params.delta_in)
            d_in[v2] += 1
            in_tree.add(v2, 1.0)
            labels[e] = "a"
        elif u < ab:
            v1 = out_tree.sample(rng.random() * out_tree.total)
            v2 = in_tree.sample(rng.random() * in_tree.total)
            d_out[v1] += 1
            out_tree.add(v1, 1.0)
            d_in[v2] += 1
            in_tree.add(v2, 1.0)
            labels[e] = "b"
        else:
            v1 = out_tree.sample(rng.random() * out_tree.total)
            v2 = n
            n += 1
            d_in[v2] = 1
            in_tree.add(v2, 1.0 + params.delta_in)
            out_tree.add(v2, params.delta_out)
            d_out[v1] += 1
            out_tree.add(v1, 1.0)
            labels[e] = "g"
        src[e] = v1
        dst[e] = v2

    return DirectedGraph.from_edges(n, src, dst, edge_labels=labels)
