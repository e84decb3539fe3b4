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

The weights live in two Fenwick trees, plain lists searched and updated
inline.  The endpoint uniforms come in one block after the scenario ones;
PCG64 fills it with the numbers that one scalar draw per endpoint gave.
Every tree add keeps its order, and a descent starts at the largest power
of two below the node count: each higher node covers every node, so holds
the running total, which the drawn point stays below.  A seed thus gives
the graph of the tree sampler in tests/dpa_reference.py bit for bit.  An
O(1) urn (the end of a uniform edge, else a uniform node) would draw other
graphs per seed; it waits until perfbench stops generating with gen_dpa.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import _LABEL_CODES, DirectedGraph

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
    return DirectedGraph.from_edges(n, np.concatenate(srcs),
                                    np.concatenate(dsts))


@dataclass(frozen=True)
class DpaParams:
    """Parameters of one preferential-attachment run.

    alpha, beta, gamma are scenario probabilities summing to one (within
    1e-12).  delta_in and delta_out are finite, strictly positive offsets
    added to the degrees when sampling existing targets and sources;
    non-integer values are fine.  target_edges is the number of edges to
    generate and seed feeds the run's random generator.
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
        if not (self.delta_in > 0.0 and self.delta_out > 0.0):  # nan fails
            raise ValueError("delta_in and delta_out must be positive")
        if math.inf in (self.delta_in, self.delta_out):
            raise ValueError("delta_in and delta_out must be finite")
        if self.target_edges < 1:
            raise ValueError("target_edges must be at least 1")


def gen_dpa(params: DpaParams) -> DirectedGraph:
    """Grow a preferential-attachment network with target_edges edges.

    Every returned edge carries its scenario's label code
    (graph._LABEL_CODES) in edge_labels.  Self-loops can arise in beta
    steps because source and target are drawn independently.
    """
    num_edges = params.target_edges
    rng = np.random.default_rng(params.seed)
    scen = rng.random(num_edges)
    # 0, 1, 2 for an alpha, beta, gamma step: u < alpha, u < alpha + beta
    codes = ((scen >= params.alpha).astype(np.int64)
             + (scen >= params.alpha + params.beta))
    uni = rng.random(num_edges + int(np.count_nonzero(codes == 1))).tolist()
    delta_in, delta_out = params.delta_in, params.delta_out
    seed_in, seed_out = 1.0 + delta_in, 1.0 + delta_out

    cap = num_edges + 1  # every step adds at most one node, plus the seed
    size = 1 << (cap - 1).bit_length()
    out_tree = [0.0] * (size + 1)
    in_tree = [0.0] * (size + 1)
    i = 1  # the seed: one node with a self-loop, dropped from the output
    while i <= size:
        out_tree[i] += seed_out
        in_tree[i] += seed_in
        i += i & -i
    out_total, in_total = seed_out, seed_in
    n, top, j = 1, 0, 0  # nodes, largest power of two below n, next draw
    src = [0] * num_edges
    dst = [0] * num_edges
    for e, code in enumerate(codes.tolist()):
        if code != 0:  # beta and gamma draw an existing source
            point = uni[j] * out_total
            j += 1
            v1, mask = 0, top
            while mask:
                if out_tree[v1 + mask] <= point:
                    point -= out_tree[v1 + mask]
                    v1 += mask
                mask >>= 1
            v1 = v1 if v1 < cap else cap - 1  # the tree's float-drift guard
        if code != 2:  # alpha and beta draw an existing target
            point = uni[j] * in_total
            j += 1
            v2, mask = 0, top
            while mask:
                if in_tree[v2 + mask] <= point:
                    point -= in_tree[v2 + mask]
                    v2 += mask
                mask >>= 1
            v2 = v2 if v2 < cap else cap - 1
        if code == 0:
            v1, add_out, add_in = n, seed_out, delta_in
        elif code == 2:
            v2, add_out, add_in = n, delta_out, seed_in
        if code != 1:  # alpha and gamma add node n
            i = n + 1
            while i <= size:
                out_tree[i] += add_out
                in_tree[i] += add_in
                i += i & -i
            out_total += add_out
            in_total += add_in
            n += 1
            if n > top << 1:
                top = top << 1 or 1
        if code != 0:
            i = v1 + 1
            while i <= size:
                out_tree[i] += 1.0
                i += i & -i
            out_total += 1.0
        if code != 2:
            i = v2 + 1
            while i <= size:
                in_tree[i] += 1.0
                i += i & -i
            in_total += 1.0
        src[e] = v1
        dst[e] = v2

    labels = np.array(_LABEL_CODES)[codes]
    return DirectedGraph.from_edges(n, src, dst, edge_labels=labels)
