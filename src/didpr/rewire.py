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
order.  Each block runs in one such sweep, whatever the checkpoint cadence:
the sweep reports where in the block each accepted proposal stands, and a
checkpoint inside the block sums only the accepted proposals before it.
Should the chain stop there, the block's edges get back the targets they
held before it, and the proposals before the checkpoint run again; by the
same argument, none of them depended on a later one.

Accepted swaps change the four degree products by integers.  One integer
tally per ordered pair of scenario labels holds those changes and the
accepted count, for every run: checkpoints read its totals, and scenario
gains fold it by unordered label pair.  The end means and sds that turn
those sums into coefficients never change either; they come from
assortativity._standardise, the helper behind every coefficient.
chain_setup gathers them with the chain's other seed-free inputs, once per
graph and eta, and replicate chains share the result.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .assortativity import (
    TYPE_PAIRS,
    AssortProfile,
    EdgeMixMatrix,
    _pair_codes,
    _profile,
    _standardise,
    edge_mix_from_graph,
)
from .graph import (
    _LABEL_NAMES,
    DirectedGraph,
    _csv_rows,
    _first_problem,
    _parse_rows,
)

__all__ = [
    "ChainSetup",
    "RewiringConfig",
    "RewiringTrace",
    "ScenarioGains",
    "chain_setup",
    "rewire",
    "rewire_with_scenario_gains",
    "read_trace_csv",
]

_TRACE_HEADER = ("step", "r11", "r12", "r21", "r22", "acc_rate")
_TRACE_DTYPE = np.dtype([("step", np.int64), ("values", np.float64, (5,))])

# Proposals are drawn from the generator in blocks of this size, whatever
# the checkpoint cadence, so a run's trajectory is a function of the seed and
# the step count alone.  Each block runs in one level sweep, and its
# checkpoints read the tally of the accepted proposals before them.
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
        if not self.tolerance > 0.0:
            raise ValueError(
                f"tolerance must be positive, got {self.tolerance}")
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
        """Write the rows as CSV: the header, then step and the five
        values formatted %.12g, CRLF line ends."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(_TRACE_HEADER) + "\r\n")
            fh.write("".join([
                f"{step},{r11:.12g},{r12:.12g},{r21:.12g},{r22:.12g},"
                f"{acc:.12g}\r\n"
                for step, r11, r12, r21, r22, acc in self.checkpoints]))


def read_trace_csv(path) -> RewiringTrace:
    """Read a trace written by RewiringTrace.to_csv.

    Blank lines are skipped.  The first row without six fields, or with a
    value that is not a finite number, raises ValueError naming its line.
    """
    nos, rows = _csv_rows(path, _TRACE_HEADER)
    table, parsed = _parse_rows(rows, _TRACE_DTYPE, ",")
    problem = _first_problem(len(rows), parsed,
                             ~np.isfinite(table["values"]).all(axis=1))
    if problem:
        row = problem[0]
        width = len(rows[row].split(","))
        why = ("expected an integer step and finite values"
               if width == len(_TRACE_HEADER)
               else f"expected {len(_TRACE_HEADER)} fields, got {width}")
        raise ValueError(f"{path}:{nos[row]}: {why}")
    return RewiringTrace(list(zip(table["step"].tolist(),
                                  *table["values"].T.tolist())))


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
    # A node is some edge's source (target) exactly when its out- (in-)
    # degree is positive.
    for deg, pairs, side in ((g.out_deg, eta.source_pairs, "source"),
                             (g.in_deg, eta.target_pairs, "target")):
        keys = _pair_codes(*np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T)
        order = np.argsort(keys)
        nodes = np.flatnonzero(deg)
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
    # The proposal that touched each touch's edge last before it (b: none),
    # one row per edge of the proposal.
    pred = np.empty(2 * b, dtype=np.int64)
    pred[touch[0]] = b
    pred[touch[1:]] = np.where(key[1:] == key[:-1], touch[:-1] >> 1, b)
    pred = pred.reshape(b, 2).T.copy()
    # Pass k leaves every level at min(level, k), so the levels are final
    # once their highest is below k.  They stay below the block size, so
    # int16 holds them.
    lev = np.zeros(b + 1, dtype=np.int16)
    lev[b] = -1
    out = lev[:b]
    both = np.empty((2, b), dtype=np.int16)
    for k in itertools.count(1):
        lev.take(pred, out=both, mode="wrap")
        np.maximum(both[0], both[1], out=out)
        out += 1
        if out.max() < k:
            return out


def _sweep(dst, e1, e2, u, lev, row, tp, Hf, ints, floats, flags):
    """Run proposals level by level, updating dst in place.

    Every level writes into slices of the caller's scratch rows, so the
    loop allocates no arrays of its own.  Returns the accepted proposals'
    positions among the given ones, and their rows: the two edges and the
    targets those held before the swap.  Indices are always in range;
    mode="wrap" only lets take() write straight into its output.
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
    hit = np.flatnonzero(ok)
    return order.take(hit), ints[:4, :n].take(hit, axis=1)


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


@dataclass(frozen=True)
class ChainSetup:
    """What every chain on one graph toward one eta shares.

    Degrees never change, so none of it depends on the seed: the ends'
    degree means and sds, each edge's source degrees and eta row offset,
    each node's eta target-pair index, and the initial degree-product sums.
    """

    centre: np.ndarray
    scale: np.ndarray
    sd_s: np.ndarray
    sd_t: np.ndarray
    so: np.ndarray
    si: np.ndarray
    row: np.ndarray
    tp_node: np.ndarray
    s_init: np.ndarray


def chain_setup(g: DirectedGraph, eta: EdgeMixMatrix) -> ChainSetup:
    """The invariants of rewiring g toward eta, for any number of chains.

    Raises ValueError when g has fewer than two edges, or when a realised
    degree pair is missing from eta.
    """
    if g.num_edges < 2:
        raise ValueError("rewiring needs at least two edges")
    # The masses of the graph's degree-pair classes are exact edge counts / m.
    mix = edge_mix_from_graph(g)
    _, mean_s, sd_s = _standardise(mix.source_pairs, mix.row_masses())
    _, mean_t, sd_t = _standardise(mix.target_pairs, mix.col_masses())
    sp_node, tp_node = _node_pair_indices(g, eta)
    out_deg, in_deg = g.out_deg, g.in_deg
    so, si = out_deg[g.src], in_deg[g.src]     # per-edge source degrees
    s_init = np.array([int(x @ y[g.dst]) for x in (so, si)
                       for y in (out_deg, in_deg)], dtype=np.int64)
    return ChainSetup(np.outer(mean_s, mean_t), np.outer(sd_s, sd_t),
                      sd_s, sd_t, so, si, sp_node[g.src] * eta.H.shape[1],
                      tp_node, s_init)


def _run_chain(g: DirectedGraph, eta: EdgeMixMatrix, cfg: RewiringConfig,
               track_gains: bool, setup: ChainSetup | None = None):
    if setup is None:
        setup = chain_setup(g, eta)
    if track_gains and g.edge_labels is None:
        raise ValueError("no scenario labels on this graph")
    m = g.num_edges
    rng = np.random.default_rng(cfg.seed)
    out_deg, in_deg = g.out_deg, g.in_deg
    so, si, sd_s, sd_t = setup.so, setup.si, setup.sd_s, setup.sd_t
    # The chain swaps targets in the result's own dst.
    labels = None if g.edge_labels is None else g.edge_labels.copy()
    result = DirectedGraph(g.num_nodes, g.src.copy(), g.dst.copy(),
                           out_deg.copy(), in_deg.copy(), labels)
    dst = result.dst
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
    scratch = (np.empty((9, _PROPOSAL_BLOCK), dtype=np.int64),
               np.empty((4, _PROPOSAL_BLOCK)),
               np.empty((2, _PROPOSAL_BLOCK), dtype=bool))
    fixed = (setup.row, setup.tp_node, eta.H.ravel(), *scratch)

    def profile_of(sums) -> AssortProfile:
        s = setup.s_init + sums[1:].sum(axis=1)
        # A degenerate end divides by zero here, and _profile rejects it.
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (s.reshape(2, 2) / m - setup.centre) / setup.scale
        return _profile(r, sd_s, sd_t)

    def reached(prof: AssortProfile) -> bool:
        return (cfg.stop_early
                and prof.max_abs_diff(cfg.targets) <= cfg.tolerance)

    trace = RewiringTrace([(0, *_profile_vals(profile_of(tally)), 0.0)])
    stop = reached(trace.final_profile())
    every = cfg.checkpoint_every
    steps_done = last_accepted = 0
    while steps_done < cfg.max_steps and not stop:
        blk = min(_PROPOSAL_BLOCK, cfg.max_steps - steps_done)
        e1s = rng.integers(0, m, size=blk)
        e2s = rng.integers(0, m - 1, size=blk)
        e2s = e2s + (e2s >= e1s)
        us = rng.random(blk)
        lev = _levels(e1s, e2s)
        # The block's checkpoints, as counts of its proposals that run
        # before them: the cadence's multiples and the run's last step.
        ckpts = list(range(every - steps_done % every, blk + 1, every))
        if steps_done + blk == cfg.max_steps and ckpts[-1:] != [blk]:
            ckpts.append(blk)
        if cfg.stop_early:
            before = dst.take(e1s), dst.take(e2s)
        pos, (x1, x2, v2, v4) = _sweep(dst, e1s, e2s, us, lev, *fixed)
        d_out, d_in = so[x1] - so[x2], si[x1] - si[x2]
        g_out = out_deg[v4] - out_deg[v2]
        g_in = in_deg[v4] - in_deg[v2]
        # Tally by (checkpoints passed, label pair).  The running sums over
        # the first axis are what the block adds up to each checkpoint.
        cell = (pos + steps_done % every) // every * (nl * nl)
        cell += lab[x1] * nl + lab[x2]
        part = np.zeros((5, len(ckpts) + 1, nl * nl), dtype=np.int64)
        for counts, change in zip(part.reshape(5, -1),
                                  (1, d_out * g_out, d_out * g_in,
                                   d_in * g_out, d_in * g_in)):
            np.add.at(counts, cell, change)
        part = part.cumsum(axis=1)
        done = part[:, -1]
        for j, end in enumerate(ckpts):
            sums = tally + part[:, j]
            prof = profile_of(sums)
            accepted = int(sums[0].sum())
            step, last = steps_done + end, trace.checkpoints[-1][0]
            trace.checkpoints.append((step, *_profile_vals(prof),
                                      (accepted - last_accepted)
                                      / (step - last)))
            last_accepted = accepted
            if reached(prof):
                if end < blk:
                    # Rewind the block's edges and replay the proposals
                    # before the checkpoint: their outcomes stay the same.
                    dst[e1s], dst[e2s] = before
                    _sweep(dst, e1s[:end], e2s[:end], us[:end], lev[:end],
                           *fixed)
                stop, done, blk = True, part[:, j], end
                break
        tally += done
        steps_done += blk

    gains = _gains(tally, names, m, sd_s, sd_t) if track_gains else None
    return result, trace, gains


def _profile_vals(p: AssortProfile) -> tuple[float, float, float, float]:
    return (p.r11, p.r12, p.r21, p.r22)


def _gains(tally, names, m, sd_s, sd_t) -> ScenarioGains:
    """Fold the chain's tally (columns: ordered label pairs) into gains."""
    def to_r(s: list[int]) -> dict[str, float]:
        return {f"r{a}{b}": v / (m * sd_s[a - 1] * sd_t[b - 1])
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
    g: DirectedGraph, eta: EdgeMixMatrix, cfg: RewiringConfig, *,
    setup: ChainSetup | None = None,
) -> tuple[DirectedGraph, RewiringTrace]:
    """Run the rewiring chain; the input graph is left untouched.

    Returns the rewired graph and the checkpoint trace.  Node degrees (and
    hence the degree-pair distribution) are preserved exactly by
    construction.  setup, if given, must be chain_setup(g, eta); replicate
    chains on one graph share it instead of each rebuilding it.
    """
    result, trace, _ = _run_chain(g, eta, cfg, track_gains=False,
                                  setup=setup)
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
