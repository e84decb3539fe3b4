"""Degree-preserving rewiring toward a target edge mixing matrix.

The chain repeatedly samples two distinct edges (v1, v2), (v3, v4) and
proposes swapping their targets to (v1, v4), (v3, v2).  A proposal is
accepted with probability

    min(1, [eta(s1, t2) * eta(s2, t1)] / [eta(s1, t1) * eta(s2, t2)])

where s/t are the degree pairs at the edges' ends.  Node degrees never
change, so the degree-pair distribution is exactly preserved while the edge
mixing matrix drifts toward eta.  A zero denominator counts as acceptance:
the chain must be free to leave configurations the target assigns no mass.

Assortativity is evaluated at checkpoints from the current edge list.
When scenario gains are tracked, the degree products are instead updated per
accepted swap; that is exact integer bookkeeping, so both ways give
identical traces.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .assortativity import (
    TYPE_PAIRS,
    AssortProfile,
    EdgeMixMatrix,
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

# Proposals are drawn from the generator in blocks of this size, independent
# of the checkpoint cadence, so a run's trajectory is a function of the seed
# and the step count alone.  Checkpointing is instrumentation; it must not
# perturb the chain.
_PROPOSAL_BLOCK = 8192


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

def _degree_products(x: dict, dst: np.ndarray, out_deg, in_deg) -> dict:
    y1 = out_deg[dst].astype(np.float64)
    y2 = in_deg[dst].astype(np.float64)
    return {
        (1, 1): float(x[1] @ y1),
        (1, 2): float(x[1] @ y2),
        (2, 1): float(x[2] @ y1),
        (2, 2): float(x[2] @ y2),
    }


def _node_pair_indices(g: DirectedGraph, eta: EdgeMixMatrix):
    """Per-node indices into eta's source/target pair lists (-1 = unused).

    Raises ValueError when a realised pair is missing from eta (support
    mismatch between the graph and the mixing matrix).
    """
    src_idx = eta.source_index()
    tgt_idx = eta.target_index()
    n = g.num_nodes
    sp = np.full(n, -1, dtype=np.int64)
    tp = np.full(n, -1, dtype=np.int64)
    out = g.out_deg
    inn = g.in_deg
    for v in np.unique(g.src).tolist():
        pair = (int(out[v]), int(inn[v]))
        idx = src_idx.get(pair)
        if idx is None:
            raise ValueError(
                f"support mismatch: source degree pair {pair} absent from eta"
            )
        sp[v] = idx
    for v in np.unique(g.dst).tolist():
        pair = (int(out[v]), int(inn[v]))
        idx = tgt_idx.get(pair)
        if idx is None:
            raise ValueError(
                f"support mismatch: target degree pair {pair} absent from eta"
            )
        tp[v] = idx
    return sp, tp


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


def _run_chain(
    g: DirectedGraph,
    eta: EdgeMixMatrix,
    cfg: RewiringConfig,
    track_gains: bool,
):
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
    src_arr = g.src.copy()
    dst = g.dst.tolist()
    spe = sp_node[src_arr].tolist()        # per-edge source-pair index (fixed)
    tp = tp_node.tolist()                  # per-node target-pair index
    Hl = [row[:] for row in eta.H.tolist()]
    out_l = g.out_deg.tolist()
    in_l = g.in_deg.tolist()
    so = g.out_deg[src_arr].tolist()       # per-edge source degrees (fixed)
    si = g.in_deg[src_arr].tolist()

    x = {1: g.out_deg[src_arr].astype(np.float64),
         2: g.in_deg[src_arr].astype(np.float64)}
    prods = _degree_products(x, g.dst, g.out_deg, g.in_deg)
    s_int = {k: int(round(v)) for k, v in prods.items()}
    s_init = dict(s_int)

    labels = g.edge_labels.tolist() if track_gains else None
    buckets: dict[tuple[str, str], list[int]] = {}

    def profile_now() -> AssortProfile:
        if track_gains:
            s = {k: float(v) for k, v in s_int.items()}
        else:
            s = _degree_products(x, np.asarray(dst, dtype=np.int64),
                                 g.out_deg, g.in_deg)
        return _profile_from_moments({k: v / m for k, v in s.items()},
                                     mu_q, mu_qt, ends.sigma_q,
                                     ends.sigma_q_tilde)

    trace = RewiringTrace([(0, *_profile_vals(profile_now()), 0.0)])
    targets = cfg.targets
    if cfg.stop_early and trace.final_profile().max_abs_diff(targets) <= cfg.tolerance:
        return _finish(g, src_arr, dst, trace, s_int, s_init, buckets, m, ends,
                       track_gains)

    steps_done = 0
    accepted = 0
    last_ckpt = 0
    next_ckpt = min(cfg.checkpoint_every, cfg.max_steps)
    stop = False
    while steps_done < cfg.max_steps and not stop:
        blk = min(_PROPOSAL_BLOCK, cfg.max_steps - steps_done)
        e1s = rng.integers(0, m, size=blk)
        e2s = rng.integers(0, m - 1, size=blk)
        e2s = e2s + (e2s >= e1s)
        us = rng.random(blk)
        for e1, e2, u in zip(e1s.tolist(), e2s.tolist(), us.tolist()):
            v2 = dst[e1]
            v4 = dst[e2]
            s1 = spe[e1]
            s2 = spe[e2]
            t1 = tp[v2]
            t2 = tp[v4]
            row1 = Hl[s1]
            row2 = Hl[s2]
            den = row1[t1] * row2[t2]
            if den <= 0.0 or u * den <= row1[t2] * row2[t1]:
                dst[e1] = v4
                dst[e2] = v2
                accepted += 1
                if track_gains:
                    do = so[e1] - so[e2]
                    di = si[e1] - si[e2]
                    go = out_l[v4] - out_l[v2]
                    gi = in_l[v4] - in_l[v2]
                    s_int[(1, 1)] += do * go
                    s_int[(1, 2)] += do * gi
                    s_int[(2, 1)] += di * go
                    s_int[(2, 2)] += di * gi
                    key = _bucket_key(labels[e1], labels[e2])
                    bucket = buckets.get(key)
                    if bucket is None:
                        bucket = [0, 0, 0, 0, 0]
                        buckets[key] = bucket
                    bucket[0] += 1
                    bucket[1] += do * go
                    bucket[2] += do * gi
                    bucket[3] += di * go
                    bucket[4] += di * gi
            steps_done += 1
            if steps_done == next_ckpt:
                prof = profile_now()
                trace.checkpoints.append(
                    (steps_done, *_profile_vals(prof),
                     accepted / (steps_done - last_ckpt))
                )
                last_ckpt = steps_done
                accepted = 0
                next_ckpt = min(steps_done + cfg.checkpoint_every,
                                cfg.max_steps)
                if (cfg.stop_early
                        and prof.max_abs_diff(targets) <= cfg.tolerance):
                    stop = True
                    break

    return _finish(g, src_arr, dst, trace, s_int, s_init, buckets, m, ends,
                   track_gains)


def _profile_vals(p: AssortProfile) -> tuple[float, float, float, float]:
    return (p.r11, p.r12, p.r21, p.r22)


def _bucket_key(code1: str, code2: str) -> tuple[str, str]:
    n1 = _LABEL_NAMES[code1]
    n2 = _LABEL_NAMES[code2]
    return (n1, n2) if n1 <= n2 else (n2, n1)


def _finish(g, src_arr, dst, trace, s_int, s_init, buckets, m, ends,
            track_gains):
    labels = None if g.edge_labels is None else g.edge_labels.copy()
    result = DirectedGraph(
        g.num_nodes,
        src_arr,
        np.asarray(dst, dtype=np.int64),
        g.out_deg.copy(),
        g.in_deg.copy(),
        labels,
    )
    if not track_gains:
        return result, trace, None

    def to_r(key_s: dict) -> dict[str, float]:
        return {
            f"r{a}{b}": key_s[(a, b)]
            / (m * ends.sigma_q[a] * ends.sigma_q_tilde[b])
            for a, b in TYPE_PAIRS
        }

    counts = {key: vals[0] for key, vals in buckets.items()}
    delta_r = {
        key: to_r({(1, 1): vals[1], (1, 2): vals[2],
                   (2, 1): vals[3], (2, 2): vals[4]})
        for key, vals in buckets.items()
    }
    total = to_r({k: s_int[k] - s_init[k] for k in s_int})
    return result, trace, ScenarioGains(counts, delta_r, total)


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
