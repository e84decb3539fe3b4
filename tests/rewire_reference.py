"""Scalar reference for the rewiring chain.

One proposal at a time, in step order, with plain Python lists: the form
the chain had before it was batched by levels.  It draws the same proposal
blocks from the generator and applies the same float acceptance test, so
for a given seed it must reproduce the library's edge list, trace rows and
scenario gains exactly.  Degree products are integer sums updated per
accepted swap, and each checkpoint turns them into coefficients with the
library's moment formula, so equal chains give bit-equal rows.
"""
import numpy as np

from didpr.assortativity import (
    TYPE_PAIRS,
    _profile_from_moments,
    edge_mix_from_graph,
    end_distributions,
)
from didpr.graph import _LABEL_NAMES
from didpr.rewire import _PROPOSAL_BLOCK, RewiringTrace, ScenarioGains


def reference_chain(g, eta, cfg, track_gains=False):
    """Run the chain on g toward eta; returns (dst, trace, gains or None)."""
    ends = end_distributions(edge_mix_from_graph(g))
    mu_q = {a: ends.mean_q(a) for a in (1, 2)}
    mu_qt = {b: ends.mean_q_tilde(b) for b in (1, 2)}
    src_index = eta.source_index()
    tgt_index = eta.target_index()
    out_l = g.out_deg.tolist()
    in_l = g.in_deg.tolist()
    src = g.src.tolist()
    dst = g.dst.tolist()
    spe = [src_index[(out_l[v], in_l[v])] for v in src]
    tp = {v: tgt_index[(out_l[v], in_l[v])] for v in dst}
    H = eta.H.tolist()
    so = [out_l[v] for v in src]
    si = [in_l[v] for v in src]
    m = len(src)

    s = {(1, 1): 0, (1, 2): 0, (2, 1): 0, (2, 2): 0}
    for e in range(m):
        for a, x in ((1, so[e]), (2, si[e])):
            for b, y in ((1, out_l[dst[e]]), (2, in_l[dst[e]])):
                s[(a, b)] += x * y
    s_init = dict(s)
    labels = g.edge_labels.tolist() if track_gains else None
    buckets = {}

    def profile_vals():
        p = _profile_from_moments({k: float(v) / m for k, v in s.items()},
                                  mu_q, mu_qt, ends.sigma_q,
                                  ends.sigma_q_tilde)
        return (p.r11, p.r12, p.r21, p.r22)

    def within(vals):
        t = cfg.targets
        return max(abs(v - w) for v, w in
                   zip(vals, (t.r11, t.r12, t.r21, t.r22))) <= cfg.tolerance

    trace = RewiringTrace([(0, *profile_vals(), 0.0)])
    rng = np.random.default_rng(cfg.seed)
    steps = accepted = last = 0
    stop = cfg.stop_early and within(trace.checkpoints[0][1:5])
    while steps < cfg.max_steps and not stop:
        blk = min(_PROPOSAL_BLOCK, cfg.max_steps - steps)
        e1s = rng.integers(0, m, size=blk)
        e2s = rng.integers(0, m - 1, size=blk)
        e2s = e2s + (e2s >= e1s)
        us = rng.random(blk)
        for e1, e2, u in zip(e1s.tolist(), e2s.tolist(), us.tolist()):
            v2, v4 = dst[e1], dst[e2]
            row1, row2 = H[spe[e1]], H[spe[e2]]
            t1, t2 = tp[v2], tp[v4]
            den = row1[t1] * row2[t2]
            if den <= 0.0 or u * den <= row1[t2] * row2[t1]:
                dst[e1], dst[e2] = v4, v2
                accepted += 1
                d = {1: so[e1] - so[e2], 2: si[e1] - si[e2]}
                gain = {1: out_l[v4] - out_l[v2], 2: in_l[v4] - in_l[v2]}
                delta = {(a, b): d[a] * gain[b] for a, b in TYPE_PAIRS}
                for k in s:
                    s[k] += delta[k]
                if track_gains:
                    key = tuple(sorted((_LABEL_NAMES[labels[e1]],
                                        _LABEL_NAMES[labels[e2]])))
                    bucket = buckets.setdefault(key, [0, dict.fromkeys(s, 0)])
                    bucket[0] += 1
                    for k in s:
                        bucket[1][k] += delta[k]
            steps += 1
            if steps % cfg.checkpoint_every == 0 or steps == cfg.max_steps:
                vals = profile_vals()
                trace.checkpoints.append(
                    (steps, *vals, accepted / (steps - last)))
                last = steps
                accepted = 0
                if cfg.stop_early and within(vals):
                    stop = True
                    break
    if not track_gains:
        return np.array(dst, dtype=np.int64), trace, None

    def to_r(sums):
        return {f"r{a}{b}": sums[(a, b)]
                / (m * ends.sigma_q[a] * ends.sigma_q_tilde[b])
                for a, b in TYPE_PAIRS}

    gains = ScenarioGains(
        {key: count for key, (count, _) in buckets.items()},
        {key: to_r(sums) for key, (_, sums) in buckets.items()},
        to_r({k: s[k] - s_init[k] for k in s}),
    )
    return np.array(dst, dtype=np.int64), trace, gains
