"""Degree-preserving rewiring toward a target edge mixing matrix.

The chain repeatedly samples two distinct edges (v1, v2), (v3, v4) and
proposes swapping their targets to (v1, v4), (v3, v2).  A proposal is
accepted with probability

    min(1, [eta(s1, t2) * eta(s2, t1)] / [eta(s1, t1) * eta(s2, t2)])

where s/t are the degree pairs at the edges' ends.  Node degrees never
change, so the degree-pair distribution is exactly preserved while the edge
mixing matrix drifts toward eta.  A zero denominator counts as acceptance:
the chain must be free to leave configurations the target assigns no mass.

Proposals come in rounds.  A round draws one uniformly random permutation
of the m edges and proposes its consecutive pairs (perm[0], perm[1]),
(perm[2], perm[3]), ..., m // 2 of them; with m odd, one edge sits the
round out.  Each proposal is still a uniformly random ordered pair of
distinct edges.  The law the chain samples is unchanged: for a fixed pair,
swapping with the acceptance above is a Metropolis move with an involutive
proposal, so it keeps detailed balance with respect to prod_e eta(s_e, t_e)
and leaves that law invariant; the pairs are chosen without looking at the
state, so any sequence of such moves leaves it invariant too.

A proposal reads and writes only its own two edges' targets (degrees never
change), so the pairs of a round, which share no edge, commute.  They run
in chunks of at most _CHUNK pairs, each one gather, acceptance test and
scatter over the whole chunk.  A round's permutation is drawn when its
first pair is due and a chunk's uniforms when it runs; the generator's
doubles come in sequence, so the chunk size changes no draw, and a run's
trajectory is a function of the seed and the step count alone.  Accepted
pairs come out in step order, so a checkpoint inside a chunk sums the
accepted swaps before it; should the chain stop there, the later pairs
never ran, and their edges get back the targets they held.  The checkpoint
cadence sets only the trace resolution; it never changes the chain.

Accepted swaps change the four degree products by integers.  Integer
totals of those changes and of the accepted count serve the checkpoints;
with scenario gains, so do tallies per bucket, the unordered pair of the
two edges' scenarios, in report order (_BUCKETS): alpha-alpha, alpha-beta,
alpha-gamma, beta-beta, beta-gamma, gamma-gamma.  The end means and sds
that turn those sums into coefficients never change either; they come from
assortativity._standardise, the helper behind every coefficient.
chain_setup gathers them with the chain's other seed-free inputs, once per
graph and eta, and replicate chains share the result.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assortativity import (
    TYPE_PAIRS,
    AssortProfile,
    EdgeMixMatrix,
    _profile,
    _standardise,
    edge_mix_from_graph,
)
from .graph import (
    _LABEL_CODES,
    _LABEL_NAMES,
    DirectedGraph,
    _csv_rows,
    _first_problem,
    _pair_codes,
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

# Pairs per chunk.  It sets the size of the chain's arrays, not its draws.
_CHUNK = 4096

# The unordered pairs of scenarios, in report order, and the bucket of each
# ordered pair of label indices (positions in _LABEL_CODES).
_SCENARIOS = tuple(_LABEL_NAMES.values())
_BUCKETS = tuple((x, y) for i, x in enumerate(_SCENARIOS)
                 for y in _SCENARIOS[i:])
_BUCKET_OF = np.array([
    [_BUCKETS.index(tuple(sorted((x, y), key=_SCENARIOS.index)))
     for y in _SCENARIOS] for x in _SCENARIOS])


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


def _propose(dst, e1, e2, u, row, tp, Hf):
    """Propose swapping the targets of each pair (e1[i], e2[i]) at once.

    The pairs must share no edge.  Updates dst in place and returns the
    accepted pairs' positions, in increasing order, and the targets their
    two edges held before the swap.
    """
    x, y = dst.take(e1), dst.take(e2)
    r1, r2 = row.take(e1), row.take(e2)
    t1, t2 = tp.take(x), tp.take(y)
    # den = H[s1, t1] * H[s2, t2]; num = H[s1, t2] * H[s2, t1]
    den = Hf.take(r1 + t1) * Hf.take(r2 + t2)
    num = Hf.take(r1 + t2) * Hf.take(r2 + t1)
    hit = np.flatnonzero((den <= 0.0) | (u * den <= num))
    x, y = x.take(hit), y.take(hit)
    dst[e1.take(hit)] = y
    dst[e2.take(hit)] = x
    return hit, x, y


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
    degree means and sds, each edge's source (out, in) degrees and eta row
    offset, each node's (out, in) degrees and eta target-pair index, and the
    initial degree-product sums.
    """

    centre: np.ndarray
    scale: np.ndarray
    sd_s: np.ndarray
    sd_t: np.ndarray
    src_deg: np.ndarray
    node_deg: np.ndarray
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
    node_deg = np.stack((g.out_deg, g.in_deg))
    src_deg = node_deg.take(g.src, axis=1)
    s_init = (src_deg @ node_deg[:, g.dst].T).ravel()
    return ChainSetup(np.outer(mean_s, mean_t), np.outer(sd_s, sd_t),
                      sd_s, sd_t, src_deg, node_deg,
                      sp_node[g.src] * eta.H.shape[1], tp_node, s_init)


def _run_chain(g: DirectedGraph, eta: EdgeMixMatrix, cfg: RewiringConfig,
               track_gains: bool, setup: ChainSetup | None = None):
    if setup is None:
        setup = chain_setup(g, eta)
    if track_gains:
        if g.edge_labels is None:
            raise ValueError("no scenario labels on this graph")
        lab = np.searchsorted(_LABEL_CODES, g.edge_labels)  # the codes sort
        if (np.take(_LABEL_CODES, lab, mode="clip") != g.edge_labels).any():
            raise ValueError(f"scenario labels must be among {_LABEL_CODES}")
    m = g.num_edges
    half = m // 2
    rng = np.random.default_rng(cfg.seed)
    src_deg, node_deg = setup.src_deg, setup.node_deg
    sd_s, sd_t = setup.sd_s, setup.sd_t
    fixed = (setup.row, setup.tp_node, eta.H.ravel())
    # The chain swaps targets in the result's own dst.
    labels = None if g.edge_labels is None else g.edge_labels.copy()
    result = DirectedGraph(g.num_nodes, g.src.copy(), g.dst.copy(),
                           g.out_deg.copy(), g.in_deg.copy(), labels)
    dst = result.dst
    # Accepted swaps, then the changes of the four degree products: their
    # totals, and with gains one column per bucket.
    total = np.zeros(5, dtype=np.int64)
    if track_gains:
        tally = np.zeros((5, len(_BUCKETS)), dtype=np.int64)

    def profile_of(sums) -> AssortProfile:
        s = setup.s_init + sums[1:]
        # A degenerate end divides by zero here, and _profile rejects it.
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (s.reshape(2, 2) / m - setup.centre) / setup.scale
        return _profile(r, sd_s, sd_t)

    def reached(prof: AssortProfile) -> bool:
        return (cfg.stop_early
                and prof.max_abs_diff(cfg.targets) <= cfg.tolerance)

    trace = RewiringTrace([(0, *_profile_vals(profile_of(total)), 0.0)])
    stop = reached(trace.final_profile())
    every = cfg.checkpoint_every
    steps_done = last_accepted = 0
    at = half   # pairs of the current round proposed so far
    while steps_done < cfg.max_steps and not stop:
        if at == half:
            perm, at = rng.permutation(m), 0
        n = min(_CHUNK, half - at, cfg.max_steps - steps_done)
        e1, e2 = perm[2 * at:2 * (at + n)].reshape(n, 2).T
        at += n
        hit, v2, v4 = _propose(dst, e1, e2, rng.random(n), *fixed)
        x1, x2 = e1.take(hit), e2.take(hit)
        # One column per accepted swap: a count of 1, then the changes of
        # the degree products (source out, in times target out, in).
        d = src_deg.take(x1, axis=1) - src_deg.take(x2, axis=1)
        gain = node_deg.take(v4, axis=1) - node_deg.take(v2, axis=1)
        change = np.ones((5, hit.size), dtype=np.int64)
        np.multiply(d[:, None], gain, out=change[1:].reshape(2, 2, -1))
        # The chunk's checkpoints, as counts of its pairs that run before
        # them: the cadence's multiples and the run's last step.
        ckpts = list(range(every - steps_done % every, n + 1, every))
        if steps_done + n == cfg.max_steps and ckpts[-1:] != [n]:
            ckpts.append(n)
        done = 0    # the chunk's accepted swaps counted in total
        for end, j in zip(ckpts, np.searchsorted(hit, ckpts).tolist()):
            total += change[:, done:j].sum(axis=1)
            done = j
            prof = profile_of(total)
            accepted = int(total[0])
            step, last = steps_done + end, trace.checkpoints[-1][0]
            trace.checkpoints.append((step, *_profile_vals(prof),
                                      (accepted - last_accepted)
                                      / (step - last)))
            last_accepted = accepted
            if reached(prof):
                # The pairs after the checkpoint never ran: their edges
                # get back the targets they held.
                dst[x1[j:]], dst[x2[j:]] = v2[j:], v4[j:]
                stop, n = True, end
                break
        if not stop:
            total += change[:, done:].sum(axis=1)
            done = hit.size
        if track_gains:
            cell = _BUCKET_OF[lab.take(x1[:done]), lab.take(x2[:done])]
            for counts, vals in zip(tally, change[:, :done]):
                np.add.at(counts, cell, vals)
        steps_done += n

    gains = _gains(tally, m, sd_s, sd_t) if track_gains else None
    return result, trace, gains


def _profile_vals(p: AssortProfile) -> tuple[float, float, float, float]:
    return (p.r11, p.r12, p.r21, p.r22)


def _gains(tally, m, sd_s, sd_t) -> ScenarioGains:
    """The gains of the chain's tally (columns: _BUCKETS)."""
    def to_r(s: list[int]) -> dict[str, float]:
        return {f"r{a}{b}": v / (m * sd_s[a - 1] * sd_t[b - 1])
                for (a, b), v in zip(TYPE_PAIRS, s)}

    buckets = {key: vals for key, vals in zip(_BUCKETS, tally.T.tolist())
               if vals[0] > 0}
    return ScenarioGains({k: vals[0] for k, vals in buckets.items()},
                         {k: to_r(vals[1:]) for k, vals in buckets.items()},
                         to_r(tally[1:].sum(axis=1).tolist()))


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
