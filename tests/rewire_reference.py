"""Scalar reference for the rewiring chain.

One proposal at a time, in step order, with plain Python lists.  A
permutation of the edges serves the library's _SHUFFLE_ROUNDS rounds; each
round draws an offset o and proposes pair i as (perm[i],
perm[half + (i + o) % half]) in turn.  It draws the uniforms of a round's
pairs at once: the generator's draws come in sequence, so they are the
library's chunk draws joined, whatever the chunk size.  With the same
float acceptance test, for a given seed it must reproduce the library's
edge list, trace rows and scenario gains exactly.  Degree products are
integer sums updated per accepted swap.  Each checkpoint turns them into
coefficients with its own copy of the integer formula,
(m Sxy - Sx Sy) / (sqrt(m Sxx - Sx^2) sqrt(m Syy - Sy^2)), from plain
Python integers summed edge by edge and math.sqrt, and each gain is
m dSxy over the same roots, so equal chains give bit-equal rows and gains.
"""
import math

import numpy as np

from didpr.assortativity import TYPE_PAIRS, _profile
from didpr.graph import _LABEL_NAMES
from didpr.rewire import _SHUFFLE_ROUNDS, RewiringTrace, ScenarioGains

from graph_helpers import source_index, target_index


def reference_chain(g, eta, cfg, track_gains=False):
    """Run the chain on g toward eta; returns (dst, trace, gains or None)."""
    src_index = source_index(eta)
    tgt_index = target_index(eta)
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
    half = m // 2
    # Each end's degree sums and roots over the edges, by degree type.
    ends = {"s": {1: so, 2: si}, "t": {1: [out_l[v] for v in dst],
                                        2: [in_l[v] for v in dst]}}
    sums = {e: {a: sum(x) for a, x in xs.items()} for e, xs in ends.items()}
    roots = {e: {a: math.sqrt(m * sum(v * v for v in x) - sums[e][a] ** 2)
                 for a, x in xs.items()} for e, xs in ends.items()}

    s = {(1, 1): 0, (1, 2): 0, (2, 1): 0, (2, 2): 0}
    for e in range(m):
        for a, x in ((1, so[e]), (2, si[e])):
            for b, y in ((1, out_l[dst[e]]), (2, in_l[dst[e]])):
                s[(a, b)] += x * y
    s_init = dict(s)
    labels = g.edge_labels.tolist() if track_gains else None
    buckets = {}

    def profile_vals():
        r = [[(m * s[(a, b)] - sums["s"][a] * sums["t"][b])
              / (roots["s"][a] * roots["t"][b]) for b in (1, 2)]
             for a in (1, 2)]
        p = _profile(r, [roots["s"][1], roots["s"][2]],
                     [roots["t"][1], roots["t"][2]])
        return (p.r11, p.r12, p.r21, p.r22)

    def within(vals):
        t = cfg.stop_at
        return max(abs(v - w) for v, w in
                   zip(vals, (t.r11, t.r12, t.r21, t.r22))) <= cfg.tolerance

    trace = RewiringTrace([(0, *profile_vals(), 0.0)])
    rng = np.random.default_rng(cfg.seed)
    steps = accepted = last = rounds = 0
    stop = cfg.stop_at is not None and within(trace.checkpoints[0][1:5])
    while steps < cfg.max_steps and not stop:
        if rounds % _SHUFFLE_ROUNDS == 0:
            perm = rng.permutation(m).tolist()
        rounds += 1
        o = int(rng.integers(half))
        us = rng.random(min(half, cfg.max_steps - steps)).tolist()
        for i, u in enumerate(us):
            e1, e2 = perm[i], perm[half + (i + o) % half]
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
                if cfg.stop_at is not None and within(vals):
                    stop = True
                    break
    if not track_gains:
        return np.array(dst, dtype=np.int64), trace, None

    def to_r(change):
        return {f"r{a}{b}": m * change[(a, b)]
                / (roots["s"][a] * roots["t"][b]) for a, b in TYPE_PAIRS}

    gains = ScenarioGains(
        {key: count for key, (count, _) in buckets.items()},
        {key: to_r(sums) for key, (_, sums) in buckets.items()},
        to_r({k: s[k] - s_init[k] for k in s}),
    )
    return np.array(dst, dtype=np.int64), trace, gains
