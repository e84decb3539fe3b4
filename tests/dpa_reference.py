"""Tree-object reference for the preferential-attachment generator.

The form gen_dpa had before its sampler was inlined: a Fenwick tree class
with one method call per add and per draw, one scalar rng.random() per
endpoint, and per-node degree arrays kept alongside.  For a given seed it
must reproduce the library's node count, edges and labels exactly.
"""
import numpy as np

from didpr.graph import DirectedGraph


class CumulativeWeightTree:
    """Fenwick (binary indexed) tree of nonnegative float weights for
    indices 0..capacity-1, with O(log capacity) adds and draws."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._n = capacity
        size = 1
        while size < capacity:
            size <<= 1
        self._size = size
        self._tree = [0.0] * (size + 1)
        self._total = 0.0

    def __len__(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        return self._total

    def add(self, index: int, delta: float) -> None:
        """Add delta to the weight at index."""
        if not 0 <= index < self._n:
            raise IndexError(f"index {index} out of range")
        self._total += delta
        i = index + 1
        tree = self._tree
        while i <= self._size:
            tree[i] += delta
            i += i & (-i)

    def weight(self, index: int) -> float:
        """Current weight at index (reconstructed from prefix sums)."""
        return self.prefix_sum(index + 1) - self.prefix_sum(index)

    def prefix_sum(self, count: int) -> float:
        """Sum of weights at indices 0..count-1."""
        if count <= 0:
            return 0.0
        i = min(count, self._n)
        total = 0.0
        tree = self._tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def sample(self, point: float) -> int:
        """Smallest index whose prefix sum exceeds point, for point in
        [0, total); draw point as u * total with u ~ Uniform[0, 1)."""
        if not 0.0 <= point < self._total:
            raise ValueError(f"point {point} outside [0, {self._total})")
        idx = 0
        mask = self._size
        tree = self._tree
        while mask:
            nxt = idx + mask
            if nxt <= self._size and tree[nxt] <= point:
                point -= tree[nxt]
                idx = nxt
            mask >>= 1
        if idx >= self._n:  # guard against float drift at the upper edge
            idx = self._n - 1
        return idx


def reference_gen_dpa(params) -> DirectedGraph:
    """gen_dpa one step at a time on two CumulativeWeightTree objects."""
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
