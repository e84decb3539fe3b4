"""Degree-preserving rewiring toward a target edge mixing matrix.

The chain repeatedly samples two distinct edges (v1, v2), (v3, v4) and
proposes swapping their targets to (v1, v4), (v3, v2).  A proposal is
accepted with probability

    min(1, [eta(s1, t2) * eta(s2, t1)] / [eta(s1, t1) * eta(s2, t2)])

where s/t are the degree pairs at the edges' ends.  Node degrees never
change, so the degree-pair distribution is exactly preserved while the edge
mixing matrix drifts toward eta.  A zero denominator counts as acceptance:
the chain must be free to leave configurations the target assigns no mass.

A block of proposals runs level by level: a proposal's level is one more
than the highest level among the earlier proposals of its block that share
an edge with it.  This is exact.  A proposal reads and writes only its own
two edges' targets (degrees never change), so proposals with no edge in
common commute, and level order keeps every pair that shares one in step
order.

Accepted swaps change the four degree products by integers.  One integer
tally per ordered pair of scenario labels holds those changes and the
accepted count, for every run: checkpoints read its totals, and scenario
gains fold it by unordered label pair.
"""
from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from .assortativity import (
    TYPE_PAIRS,
    AssortProfile,
    EdgeMixMatrix,
    _pair_codes,
    _profile_from_moments,
    edge_mix_from_graph,
    end_distributions,
)
from .graph import _LABEL_NAMES, DirectedGraph

__all__ = [
    "RewiringConfig",
    "RewiringTrace",
    "ScenarioGains",
    "rewire",
    "rewire_with_scenario_gains",
    "read_trace_csv",
]

_TRACE_HEADER = ("step", "r11", "r12", "r21", "r22", "acc_rate")

# Proposals are drawn from the generator in blocks of this size, whatever
# the checkpoint cadence, so a run's trajectory is a function of the seed and
# the step count alone.  Levels are found once per block; a checkpoint
# inside a block splits it into segments that run level by level in turn.
# Checkpointing sets only the trace resolution; it never changes the chain.
_PROPOSAL_BLOCK = 8192
# Bits that number the 2 * _PROPOSAL_BLOCK edge touches of one block.
_TOUCH_BITS = (2 * _PROPOSAL_BLOCK - 1).bit_length()


@dataclass(frozen=True)
class RewiringConfig:
    """Chain parameters.

    max_steps: proposals to attempt.  checkpoint_every: steps between trace
    rows.  tolerance/stop_early: stop at a checkpoint once every coefficient
    is within tolerance of its target (requires targets).
    """

    max_steps: int
    checkpoint_every: int = 1000
    tolerance: float = 0.05
    stop_early: bool = False
    seed: int | None = None
    targets: AssortProfile | None = None

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.stop_early and self.targets is None:
            raise ValueError("stop_early requires targets")


@dataclass
class RewiringTrace:
    """Checkpoint rows of (step, r11, r12, r21, r22, acceptance rate).

    The first row is the initial state at step 0 with acceptance rate 0.
    """

    checkpoints: list[tuple[int, float, float, float, float, float]] = field(
        default_factory=list
    )

    def final_profile(self) -> AssortProfile:
        if not self.checkpoints:
            raise ValueError("empty trace")
        row = self.checkpoints[-1]
        return AssortProfile(row[1], row[2], row[3], row[4])

    def checkpoints_to_reach(
        self, targets: AssortProfile, tolerance: float
    ) -> int | None:
        """Index of the first checkpoint (step > 0 rows counted from 1)
        whose profile is within tolerance of targets, or None."""
        for idx, row in enumerate(self.checkpoints):
            profile = AssortProfile(row[1], row[2], row[3], row[4])
            if profile.max_abs_diff(targets) <= tolerance:
                return idx
        return None

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_TRACE_HEADER)
            for step, r11, r12, r21, r22, acc in self.checkpoints:
                writer.writerow(
                    [step, f"{r11:.12g}", f"{r12:.12g}", f"{r21:.12g}",
                     f"{r22:.12g}", f"{acc:.12g}"]
                )


def read_trace_csv(path) -> RewiringTrace:
    rows: list[tuple[int, float, float, float, float, float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != _TRACE_HEADER:
            raise ValueError(f"{path}: not a rewiring trace file")
        for row in reader:
            step, *vals = row
            rows.append((int(step), *(float(v) for v in vals)))
    return RewiringTrace(rows)


# ---------------------------------------------------------------------------
# The chain
# ---------------------------------------------------------------------------

def _node_pair_indices(g: DirectedGraph, eta: EdgeMixMatrix):
    """Per-node indices into eta's source/target pair lists (-1 = unused).

    Raises ValueError when a realised pair is missing from eta (support
    mismatch between the graph and the mixing matrix).
    """
    codes = _pair_codes(g.out_deg, g.in_deg)
    found = []
    for ends, pairs, side in ((g.src, eta.source_pairs, "source"),
                              (g.dst, eta.target_pairs, "target")):
        keys = _pair_codes(*np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T)
        order = np.argsort(keys)
        nodes = np.unique(ends)
        pos = np.searchsorted(keys, codes[nodes], sorter=order)
        hit = pos < keys.size
        hit[hit] = keys[order[pos[hit]]] == codes[nodes[hit]]
        if not hit.all():
            v = nodes[np.argmin(hit)]
            pair = (int(g.out_deg[v]), int(g.in_deg[v]))
            raise ValueError(
                f"support mismatch: {side} degree pair {pair} absent from eta"
            )
        idx = np.full(g.num_nodes, -1, dtype=np.int64)
        idx[nodes] = order[pos]
        found.append(idx)
    return found[0], found[1]


def _levels(e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Level of each proposal in a block: 0 when no earlier proposal shares
    an edge with it, else 1 + the highest level of those that do.

    Proposals on one level touch pairwise distinct edges, and every earlier
    proposal that shares an edge with one of them sits on a lower level.
    """
    b = e1.size
    # Sort the touches by (edge, position in the block): the positions fill
    # the low bits, so the keys are distinct and a plain sort keeps step order.
    key = np.empty(2 * b, dtype=np.int64)
    key[0::2] = e1
    key[1::2] = e2
    key <<= _TOUCH_BITS
    key |= np.arange(2 * b)
    key.sort()
    touch = key & ((1 << _TOUCH_BITS) - 1)
    key >>= _TOUCH_BITS
    repeat = key[1:] == key[:-1]
    # The proposal that touched each touch's edge last before it (b: none).
    pred = np.full(2 * b, b, dtype=np.int64)
    pred[touch[1:][repeat]] = touch[:-1][repeat] >> 1
    p1, p2 = pred.reshape(b, 2).T.copy()
    # Levels only rise from 0; each pass settles at least one more level.
    # They stay below the block size, so int16 holds them.
    lev = np.zeros(b + 1, dtype=np.int16)
    lev[b] = -1
    new = np.empty(b, dtype=np.int16)
    while True:
        np.maximum(lev.take(p1), lev.take(p2), out=new)
        new += 1
        if np.array_equal(new, lev[:b]):
            return new
        lev[:b] = new


def _sweep(dst, e1, e2, u, lev, row, tp, Hf, ints, floats, flags):
    """Run one segment of proposals level by level, updating dst in place.

    Every level writes into slices of the caller's scratch rows, so the
    loop allocates no arrays of its own.  Returns the accepted proposals'
    edges and the targets those held before the swap.  Indices are always
    in range; mode="wrap" only lets take() write straight into its output.
    """
    n = e1.size
    a1, a2, v2, v4, r1, r2, t1, t2, idx = ints[:, :n]
    us, den, num, h = floats[:, :n]
    ok, le = flags[:, :n]
    order = lev.argsort(kind="stable")
    for arr, out in ((e1, a1), (e2, a2), (u, us)):
        arr.take(order, out=out, mode="wrap")
    row.take(a1, out=r1, mode="wrap")
    row.take(a2, out=r2, mode="wrap")
    lev = lev[order]
    cuts = (np.flatnonzero(lev[1:] != lev[:-1]) + 1).tolist()
    for s in map(slice, [0, *cuts], [*cuts, n]):
        x, y, acc = v2[s], v4[s], ok[s]
        dst.take(a1[s], out=x, mode="wrap")
        dst.take(a2[s], out=y, mode="wrap")
        tp.take(x, out=t1[s], mode="wrap")
        tp.take(y, out=t2[s], mode="wrap")
        # den = H[s1, t1] * H[s2, t2]; num = H[s1, t2] * H[s2, t1]
        for prod, ta, tb in ((den, t1, t2), (num, t2, t1)):
            Hf.take(np.add(r1[s], ta[s], out=idx[s]), out=prod[s], mode="wrap")
            Hf.take(np.add(r2[s], tb[s], out=idx[s]), out=h[s], mode="wrap")
            np.multiply(prod[s], h[s], out=prod[s])
        np.less_equal(den[s], 0.0, out=acc)
        np.multiply(us[s], den[s], out=den[s])
        np.less_equal(den[s], num[s], out=le[s])
        np.logical_or(acc, le[s], out=acc)
        # Accepted proposals swap targets; the rest write back their own.
        for edges, keep, swap in ((a1, x, y), (a2, y, x)):
            np.copyto(idx[s], keep)
            np.copyto(idx[s], swap, where=acc)
            dst[edges[s]] = idx[s]
    return a1[ok], a2[ok], v2[ok], v4[ok]


@dataclass
class ScenarioGains:
    """Assortativity increase attributed to sampled scenario pairs.

    counts: accepted swaps per unordered scenario pair, keyed by e.g.
    ("alpha", "gamma").  delta_r: per-bucket increase of each coefficient.
    total_delta_r: overall increase per coefficient across the run; bucket
    contributions sum to it (telescoping).
    """

    counts: dict[tuple[str, str], int]
    delta_r: dict[tuple[str, str], dict[str, float]]
    total_delta_r: dict[str, float]


def _run_chain(g: DirectedGraph, eta: EdgeMixMatrix, cfg: RewiringConfig,
               track_gains: bool):
    if g.num_edges < 2:
        raise ValueError("rewiring needs at least two edges")
    if track_gains and g.edge_labels is None:
        raise ValueError("no scenario labels on this graph")
    # End moments are rewiring invariants: degrees never change.
    ends = end_distributions(edge_mix_from_graph(g))
    mu_q = {a: ends.mean_q(a) for a in (1, 2)}
    mu_qt = {b: ends.mean_q_tilde(b) for b in (1, 2)}
    sp_node, tp_node = _node_pair_indices(g, eta)

    m = g.num_edges
    rng = np.random.default_rng(cfg.seed)
    out_deg, in_deg = g.out_deg, g.in_deg
    # The chain swaps targets in the result's own dst.
    labels = None if g.edge_labels is None else g.edge_labels.copy()
    result = DirectedGraph(g.num_nodes, g.src.copy(), g.dst.copy(),
                           out_deg.copy(), in_deg.copy(), labels)
    dst = result.dst
    so, si = out_deg[g.src], in_deg[g.src]     # per-edge source degrees
    Hf = eta.H.ravel()
    row = sp_node[g.src] * eta.H.shape[1]      # offset of each edge's H row
    s_init = np.array([int(x @ y[dst]) for x in (so, si)
                       for y in (out_deg, in_deg)], dtype=np.int64)
    # Rows: accepted swaps, then the changes of the four degree products.
    # Columns: ordered pairs of scenario labels; one column without gains.
    names, lab = [""], np.zeros(m, dtype=np.int64)
    if track_gains:
        names, lab = np.unique(g.edge_labels, return_inverse=True)
    nl = len(names)
    tally = np.zeros((5, nl * nl), dtype=np.int64)
    # Scratch rows for _sweep.  Per-level arrays would be small and of ever
    # new sizes; numpy caches such buffers, and scattered over the heap they
    # kept the memory freed around them from going back to the system.
    ints = np.empty((9, _PROPOSAL_BLOCK), dtype=np.int64)
    floats = np.empty((4, _PROPOSAL_BLOCK))
    flags = np.empty((2, _PROPOSAL_BLOCK), dtype=bool)

    def profile_now() -> AssortProfile:
        s = s_init + tally[1:].sum(axis=1)
        return _profile_from_moments(
            {k: float(v) / m for k, v in zip(TYPE_PAIRS, s.tolist())},
            mu_q, mu_qt, ends.sigma_q, ends.sigma_q_tilde)

    trace = RewiringTrace([(0, *_profile_vals(profile_now()), 0.0)])
    targets = cfg.targets
    stop = (cfg.stop_early
            and trace.final_profile().max_abs_diff(targets) <= cfg.tolerance)
    steps_done = 0
    last_ckpt = 0
    last_accepted = 0
    next_ckpt = min(cfg.checkpoint_every, cfg.max_steps)
    while steps_done < cfg.max_steps and not stop:
        blk = min(_PROPOSAL_BLOCK, cfg.max_steps - steps_done)
        e1s = rng.integers(0, m, size=blk)
        e2s = rng.integers(0, m - 1, size=blk)
        e2s = e2s + (e2s >= e1s)
        us = rng.random(blk)
        lev = _levels(e1s, e2s)
        pos = 0
        while pos < blk and not stop:
            end = min(blk, pos + next_ckpt - steps_done)
            x1, x2, v2, v4 = _sweep(dst, e1s[pos:end], e2s[pos:end],
                                    us[pos:end], lev[pos:end], row, tp_node,
                                    Hf, ints, floats, flags)
            d_out, d_in = so[x1] - so[x2], si[x1] - si[x2]
            g_out = out_deg[v4] - out_deg[v2]
            g_in = in_deg[v4] - in_deg[v2]
            pair = lab[x1] * nl + lab[x2]
            for counts, change in zip(tally, (1, d_out * g_out, d_out * g_in,
                                              d_in * g_out, d_in * g_in)):
                np.add.at(counts, pair, change)
            steps_done += end - pos
            pos = end
            if steps_done == next_ckpt:
                prof = profile_now()
                accepted = int(tally[0].sum())
                trace.checkpoints.append((
                    steps_done, *_profile_vals(prof),
                    (accepted - last_accepted) / (steps_done - last_ckpt)))
                last_ckpt = steps_done
                last_accepted = accepted
                next_ckpt = min(steps_done + cfg.checkpoint_every,
                                cfg.max_steps)
                stop = (cfg.stop_early
                        and prof.max_abs_diff(targets) <= cfg.tolerance)

    gains = _gains(tally, names, m, ends) if track_gains else None
    return result, trace, gains


def _profile_vals(p: AssortProfile) -> tuple[float, float, float, float]:
    return (p.r11, p.r12, p.r21, p.r22)


def _gains(tally, names, m, ends) -> ScenarioGains:
    """Fold the chain's tally (columns: ordered label pairs) into gains."""
    def to_r(s: list[int]) -> dict[str, float]:
        return {f"r{a}{b}": v / (m * ends.sigma_q[a] * ends.sigma_q_tilde[b])
                for (a, b), v in zip(TYPE_PAIRS, s)}

    buckets: dict[tuple[str, str], np.ndarray] = {}
    for pair, vals in zip(itertools.product(names, repeat=2), tally.T):
        key = tuple(sorted(_LABEL_NAMES[code] for code in pair))
        buckets[key] = buckets.get(key, 0) + vals
    buckets = {key: vals.tolist() for key, vals in buckets.items()
               if vals[0] > 0}
    counts = {key: vals[0] for key, vals in buckets.items()}
    delta_r = {key: to_r(vals[1:]) for key, vals in buckets.items()}
    total = to_r(tally[1:].sum(axis=1).tolist())
    return ScenarioGains(counts, delta_r, total)


def rewire(
    g: DirectedGraph, eta: EdgeMixMatrix, cfg: RewiringConfig
) -> tuple[DirectedGraph, RewiringTrace]:
    """Run the rewiring chain; the input graph is left untouched.

    Returns the rewired graph and the checkpoint trace.  Node degrees (and
    hence the degree-pair distribution) are preserved exactly by
    construction.
    """
    result, trace, _ = _run_chain(g, eta, cfg, track_gains=False)
    return result, trace


def rewire_with_scenario_gains(
    g: DirectedGraph, eta: EdgeMixMatrix, cfg: RewiringConfig
) -> tuple[DirectedGraph, RewiringTrace, ScenarioGains]:
    """Rewire a scenario-labelled graph, attributing assortativity change.

    Each accepted swap's change of the four coefficients is credited to the
    unordered pair of scenario labels of the two sampled edges.
    """
    result, trace, gains = _run_chain(g, eta, cfg, track_gains=True)
    return result, trace, gains
