"""The rewiring chain: its stationary law, the chunked round chain (stops
inside a chunk included) against the scalar reference, the draws it makes,
the levels of its rounds, and the telescoping of scenario gains."""
import importlib
import itertools
from collections import Counter

import numpy as np
import pytest

from didpr.assortativity import (
    TYPE_PAIRS,
    AssortProfile,
    EdgeMixMatrix,
    assortativity_of_graph,
    edge_mix_from_graph,
)
from didpr.eta import problem_from_graph, solve_target_eta
from didpr.generate import DpaParams, gen_dpa, gen_er
from didpr.graph import DirectedGraph, degree_pair_dist
from didpr.rewire import (
    _CHUNK,
    RewiringConfig,
    RewiringTrace,
    _node_pair_indices,
    chain_setup,
    read_trace_csv,
    rewire,
    rewire_with_scenario_gains,
)
from rewire_reference import reference_chain

REWIRE = importlib.import_module("didpr.rewire")

TARGETS = AssortProfile(0.1, 0.15, 0.1, 0.15)


@pytest.fixture(scope="module")
def dpa():
    """A labelled DPA graph with 3e3 edges and its eta for TARGETS."""
    g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 3_000, seed=7))
    return g, solve_target_eta(problem_from_graph(g, targets=TARGETS))


def test_product_updates_match_recomputation(dpa):
    # rewire() and the gains run share one chain and one integer tally, so
    # the same seed must give the same chain and the same trace.
    g, eta = dpa
    cfg = RewiringConfig(max_steps=60_000, checkpoint_every=2_500, seed=11,
                         targets=TARGETS)
    plain, trace = rewire(g, eta, cfg)
    tracked, trace_g, gains = rewire_with_scenario_gains(g, eta, cfg)
    # Replicates share one chain_setup; it must not change the chain.
    shared, trace_s = rewire(g, eta, cfg, setup=chain_setup(g, eta))

    assert len(trace.checkpoints) == 25
    assert trace.checkpoints == trace_g.checkpoints == trace_s.checkpoints
    assert np.array_equal(plain.dst, tracked.dst)
    assert np.array_equal(plain.dst, shared.dst)
    # The gains telescope: buckets sum to the total, and the total is the
    # change between the first and last checkpoints.
    first, last = trace.checkpoints[0], trace.checkpoints[-1]
    for k, (a, b) in enumerate(TYPE_PAIRS, start=1):
        key = f"r{a}{b}"
        bucket_sum = sum(d[key] for d in gains.delta_r.values())
        assert bucket_sum == pytest.approx(gains.total_delta_r[key], abs=1e-12)
        assert gains.total_delta_r[key] == pytest.approx(last[k] - first[k],
                                                         abs=1e-12)


def _profile_key(values):
    return tuple(round(v, 9) for v in values)


def test_visit_frequencies_match_product_law():
    # Five edges on five nodes; the chain moves among the 60 distinct
    # arrangements of the target multiset.  Proposals are symmetric and
    # eta is strictly positive, so the Metropolis chain's stationary law is
    # prod_e eta(s_e, t_e) over arrangements.  The trace records each
    # state's coefficients; arrangements sharing them are pooled on both
    # sides, which gives 31 classes.
    src, dst = [1, 0, 2, 4, 4], [2, 2, 3, 4, 1]
    g = DirectedGraph.from_edges(5, src, dst)

    def pair(v):
        return (int(g.out_deg[v]), int(g.in_deg[v]))

    source_pairs = sorted({pair(v) for v in src})
    target_pairs = sorted({pair(v) for v in dst})
    H = np.random.default_rng(3).uniform(0.1, 1.0,
                                         (len(source_pairs), len(target_pairs)))
    eta = EdgeMixMatrix(source_pairs, target_pairs, H / H.sum())

    law: Counter = Counter()
    for arrangement in set(itertools.permutations(dst)):
        weight = np.prod([H[source_pairs.index(pair(s)),
                            target_pairs.index(pair(t))]
                          for s, t in zip(src, arrangement)])
        prof = assortativity_of_graph(
            DirectedGraph.from_edges(5, src, arrangement))
        law[_profile_key((prof.r11, prof.r12, prof.r21, prof.r22))] += weight
    total = sum(law.values())
    assert len(law) == 31

    steps = 20_000
    _, trace = rewire(g, eta, RewiringConfig(max_steps=steps,
                                             checkpoint_every=1, seed=1))
    visits = Counter(_profile_key(row[1:5]) for row in trace.checkpoints[1:])
    assert set(visits) <= set(law)
    tv = 0.5 * sum(abs(visits[k] / steps - law[k] / total) for k in law)
    # Sampling noise puts tv near 0.025 here; the uniform law over
    # arrangements sits at 0.33 and the inverse-weight law at 0.58.
    assert tv < 0.06


def test_rewired_graph_keeps_degrees_and_degree_pairs(dpa):
    g, eta = dpa
    rewired, trace = rewire(g, eta, RewiringConfig(max_steps=50_000, seed=3))
    assert not np.array_equal(rewired.dst, g.dst)
    assert trace.checkpoints[-1][5] > 0.0
    assert np.array_equal(rewired.src, g.src)
    assert np.array_equal(rewired.out_deg, g.out_deg)
    assert np.array_equal(rewired.in_deg, g.in_deg)
    # Degrees recounted from the rewired edge list, not just carried over.
    assert np.array_equal(np.bincount(rewired.dst, minlength=g.num_nodes),
                          g.in_deg)
    assert degree_pair_dist(rewired).entries == degree_pair_dist(g).entries


def test_trajectory_does_not_depend_on_checkpoint_cadence(dpa):
    # Proposals are drawn in fixed blocks whatever the cadence, so the
    # chain is a function of the seed and the step count alone.
    g, eta = dpa
    steps = 50_001
    runs = {every: rewire(g, eta, RewiringConfig(max_steps=steps,
                                                 checkpoint_every=every,
                                                 seed=7))
            for every in (1, steps, 997)}
    dense = runs[1][1].checkpoints
    assert len(dense) == steps + 1
    for every, (rewired, trace) in runs.items():
        assert np.array_equal(rewired.dst, runs[1][0].dst)
        rows = trace.checkpoints
        assert [row[0] for row in rows] == sorted(
            {*range(0, steps, every), steps})
        # Coefficients agree with the per-step trace at every shared step;
        # each acceptance rate counts the accepted swaps since the row
        # before it.
        for prev, row in zip(rows, rows[1:]):
            assert row[:5] == dense[row[0]][:5]
            accepted = sum(r[5] for r in dense[prev[0] + 1:row[0] + 1])
            assert round(row[5] * (row[0] - prev[0])) == accepted


def _random_eta(g, seed):
    """A strictly positive mixing matrix on g's own degree pairs."""
    mix = edge_mix_from_graph(g)
    H = np.random.default_rng(seed).uniform(0.1, 1.0, mix.H.shape)
    return EdgeMixMatrix(mix.source_pairs, mix.target_pairs, H / H.sum())


def _toy_graph(src, dst):
    g = DirectedGraph.from_edges(max(src + dst) + 1, src, dst)
    return g, _random_eta(g, 3)


def _assert_matches_reference(g, eta, cfg, gains=False):
    if gains:
        rewired, trace, got = rewire_with_scenario_gains(g, eta, cfg)
    else:
        (rewired, trace), got = rewire(g, eta, cfg), None
    dst, ref_trace, ref_gains = reference_chain(g, eta, cfg, gains)
    assert np.array_equal(rewired.dst, dst)
    assert trace.checkpoints == ref_trace.checkpoints
    assert got == ref_gains
    return trace


@pytest.mark.parametrize("edges, steps, every", [
    # Three edges: one pair per round, and one edge sits each round out.
    # (Two edges cannot give nondegenerate ends.)
    (([2, 3, 3], [3, 3, 2]), 3_001, 250),
    # The five-edge toy of the product-law test: two pairs per round, and
    # the run ends after the first pair of a round.
    (([1, 0, 2, 4, 4], [2, 2, 3, 4, 1]), 9_691, 700),
], ids=["three-edges", "five-edge-toy"])
def test_toy_chains_match_scalar_reference(edges, steps, every):
    g, eta = _toy_graph(*edges)
    _assert_matches_reference(g, eta, RewiringConfig(
        max_steps=steps, checkpoint_every=every, seed=1))


def test_dpa_chain_and_gains_match_scalar_reference(dpa):
    g, eta = dpa
    cfg = RewiringConfig(max_steps=30_001, checkpoint_every=2_000, seed=5,
                         targets=TARGETS)
    # The run ends one pair into its 21st round.
    assert cfg.max_steps % (g.num_edges // 2) == 1
    _assert_matches_reference(g, eta, cfg, gains=True)
    _assert_matches_reference(g, eta, cfg)


def test_er_chain_matches_scalar_reference():
    g = gen_er(330, 0.1, 4)
    assert 9_000 < g.num_edges < 12_000
    # Each round runs in two chunks.
    assert _CHUNK < g.num_edges // 2 < 2 * _CHUNK
    _assert_matches_reference(g, _random_eta(g, 5), RewiringConfig(
        max_steps=40_000, checkpoint_every=3_000, seed=6))


@pytest.mark.parametrize("chunk", [1, 7, 1_000])
def test_chunk_size_changes_no_draw(dpa, monkeypatch, chunk):
    # The reference draws each round's uniforms at once; chunks of any
    # size, ending anywhere in a round, must draw the same numbers.
    g, eta = dpa
    monkeypatch.setattr(REWIRE, "_CHUNK", chunk)
    _assert_matches_reference(g, eta, RewiringConfig(
        max_steps=9_001 if chunk == 1 else 30_001, checkpoint_every=997,
        tolerance=0.02, stop_early=True, seed=5, targets=TARGETS), gains=True)


def test_stop_early_inside_a_chunk_matches_scalar_reference(dpa):
    g, eta = dpa
    cfg = RewiringConfig(max_steps=400_000, checkpoint_every=1_000,
                         tolerance=0.02, stop_early=True, seed=2,
                         targets=TARGETS)
    trace = _assert_matches_reference(g, eta, cfg, gains=True)
    last = trace.checkpoints[-1][0]
    # A round here is one chunk of 1,500 pairs.
    assert last < cfg.max_steps and last % (g.num_edges // 2) != 0
    assert trace.final_profile().max_abs_diff(TARGETS) <= cfg.tolerance


@pytest.mark.parametrize("alpha, gamma, absent", [
    (0.0, 0.5, "alpha"), (0.5, 0.0, "gamma")], ids=["alpha-0", "gamma-0"])
def test_gains_without_a_scenario_match_scalar_reference(alpha, gamma,
                                                         absent):
    # Labels of two scenarios only: the tally's buckets are the six of the
    # report whatever labels occur, and the three with the absent scenario
    # stay empty.
    g = gen_dpa(DpaParams(alpha, 0.5, gamma, 1.0, 1.0, 2_000, seed=3))
    assert len(set(g.edge_labels.tolist())) == 2
    eta = solve_target_eta(problem_from_graph(g, targets=TARGETS))
    cfg = RewiringConfig(max_steps=20_001, checkpoint_every=1_500, seed=4,
                         targets=TARGETS)
    _assert_matches_reference(g, eta, cfg, gains=True)
    gains = rewire_with_scenario_gains(g, eta, cfg)[2]
    present = [key for key in REWIRE._BUCKETS if absent not in key]
    assert list(gains.counts) == present
    assert all(count > 0 for count in gains.counts.values())


@pytest.mark.parametrize("label", ["c", "z", "A", ""])
def test_unknown_label_raises_before_the_chain(dpa, monkeypatch, label):
    # "c" sorts between two codes, "z" after and "A" before all of them:
    # none may be filed under a neighbouring code's scenario.
    g, eta = dpa
    labels = g.edge_labels.copy()
    labels[17] = label
    bad = DirectedGraph.from_edges(g.num_nodes, g.src, g.dst,
                                   edge_labels=labels)
    monkeypatch.setattr(REWIRE, "_propose",
                        lambda *args: pytest.fail("the chain ran"))
    with pytest.raises(ValueError, match="scenario labels must be among"):
        rewire_with_scenario_gains(bad, eta, RewiringConfig(
            max_steps=1_000, seed=1))


class _CountingGenerator:
    """Wraps a numpy Generator and records the draws the chain makes."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = []

    def permutation(self, m):
        self.draws.append(("permutation", m))
        return self._rng.permutation(m)

    def random(self, n):
        self.draws.append(("random", n))
        return self._rng.random(n)


def _run_counted(monkeypatch, g, eta, cfg, gains=False):
    """Run the chain, recording its generator's draws and the pairs of each
    _propose call; returns (result of the run, draws, proposed pairs)."""
    made, proposed = [], []
    default_rng, propose = np.random.default_rng, REWIRE._propose

    def counting_rng(seed):
        made.append(_CountingGenerator(default_rng(seed)))
        return made[-1]

    def counting(dst, e1, e2, *rest):
        proposed.append((e1.copy(), e2.copy()))
        return propose(dst, e1, e2, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", counting_rng)
        patch.setattr(REWIRE, "_propose", counting)
        run = (rewire_with_scenario_gains(g, eta, cfg) if gains
               else rewire(g, eta, cfg))
    (rng,) = made
    return run, rng.draws, proposed


@pytest.mark.parametrize("rounds, extra", [(1, 0), (3, 0), (3, 1), (4, 1_499)])
def test_a_run_of_k_rounds_draws_k_permutations(dpa, monkeypatch, rounds,
                                                  extra):
    # A round of DPA 3e3 is one chunk of 1,500 pairs; its permutation is
    # drawn when its first pair is due, so a run that ends on a round's
    # last pair draws none for the next.
    g, eta = dpa
    half = g.num_edges // 2
    steps = rounds * half + extra
    _, draws, proposed = _run_counted(monkeypatch, g, eta, RewiringConfig(
        max_steps=steps, checkpoint_every=1_000, seed=2))
    chunks = [half] * rounds + [extra] * (extra > 0)
    assert draws == [
        draw for n in chunks
        for draw in (("permutation", g.num_edges), ("random", n))]
    assert [e1.size for e1, _ in proposed] == chunks
    for e1, e2 in proposed:
        # A round's pairs cover distinct edges: m is even here.
        ends = np.concatenate((e1, e2))
        assert np.unique(ends).size == ends.size


@pytest.mark.parametrize("every, seed", [
    (1_000, 2), (700, 4), (1_499, 5), (1_500, 5), (3_001, 1),
], ids=["inside-a-chunk", "early-in-a-chunk", "one-before-chunk-end",
        "chunk-end", "cadence-above-chunk"])
def test_stop_inside_a_chunk_runs_each_pair_once(dpa, monkeypatch, every,
                                                 seed):
    # Each chunk is proposed once, in one _propose call.  A stop inside a
    # chunk leaves the chunk's later pairs unrun, and the edge list equals
    # the scalar chain's at the stop.
    g, eta = dpa
    half = g.num_edges // 2
    cfg = RewiringConfig(max_steps=400_000, checkpoint_every=every,
                         tolerance=0.02, stop_early=True, seed=seed,
                         targets=TARGETS)
    (rewired, trace, gains), draws, proposed = _run_counted(
        monkeypatch, g, eta, cfg, gains=True)
    dst, ref_trace, ref_gains = reference_chain(g, eta, cfg, True)
    assert np.array_equal(rewired.dst, dst)
    assert trace.checkpoints == ref_trace.checkpoints
    assert gains == ref_gains
    last = trace.checkpoints[-1][0]
    rounds = -(-last // half)
    assert 0 < last < cfg.max_steps
    assert (last % half == 0) == (every == half)
    assert [e1.size for e1, _ in proposed] == [half] * rounds
    assert draws == [("permutation", g.num_edges), ("random", half)] * rounds


def test_targets_met_at_step_zero_draw_nothing(dpa, monkeypatch):
    g, _ = dpa
    eta = edge_mix_from_graph(g)
    cfg = RewiringConfig(max_steps=50_000, checkpoint_every=1_000,
                         stop_early=True, seed=2,
                         targets=assortativity_of_graph(g))
    (rewired, trace, _), draws, proposed = _run_counted(
        monkeypatch, g, eta, cfg, gains=True)
    assert np.array_equal(rewired.dst, g.dst)
    assert [row[0] for row in trace.checkpoints] == [0]
    assert draws == proposed == []
    _assert_matches_reference(g, eta, cfg, gains=True)


def _reference_levels(e1, e2):
    """1 + the highest level among the earlier proposals that share an edge
    with it, else 0, one proposal at a time.  The highest such level is the
    larger of the highest levels so far on the proposal's two edges."""
    top, levels = {}, []
    for a, b in zip(e1.tolist(), e2.tolist()):
        level = 1 + max(top.get(a, -1), top.get(b, -1))
        top[a] = top[b] = level
        levels.append(level)
    return levels


def _graph_with_edges(m):
    """A graph with m edges and a random eta on its degree pairs: a toy for
    m of 3 or 5, else m random edges on m // 8 nodes."""
    toys = {3: ([2, 3, 3], [3, 3, 2]), 5: ([1, 0, 2, 4, 4], [2, 2, 3, 4, 1])}
    if m in toys:
        return _toy_graph(*toys[m])
    n, rng = m // 8, np.random.default_rng(m)
    g = DirectedGraph.from_edges(n, rng.integers(0, n, m),
                                 rng.integers(0, n, m))
    return g, _random_eta(g, m)


@pytest.mark.parametrize("m", [3, 5, 47, 1_000, 20_000])
@pytest.mark.parametrize("size", [1, 2, 777, 8_192])
def test_levels_match_their_definition(monkeypatch, m, size):
    # By the definition above, the chain's proposals sit at the level of
    # their round: the pairs of a round share no edge, so none waits on
    # another, and at most one edge sits a round out, so each pair shares
    # an edge with the round before and waits on it.
    g, eta = _graph_with_edges(m)
    _, draws, proposed = _run_counted(monkeypatch, g, eta, RewiringConfig(
        max_steps=size, checkpoint_every=size, seed=m * size))
    e1, e2 = (np.concatenate(ends) for ends in zip(*proposed))
    assert _reference_levels(e1, e2) == [i // (m // 2) for i in range(size)]
    assert sum(kind == "permutation" for kind, _ in draws) == -(-size
                                                                // (m // 2))


@pytest.mark.parametrize("tolerance", [0.0, -0.1, float("nan")])
def test_tolerance_must_be_positive(tolerance):
    # nan fails every comparison, so only `not tolerance > 0` rejects it; a
    # nan tolerance would let a stop-early chain run without ever stopping
    with pytest.raises(ValueError, match="tolerance must be positive"):
        RewiringConfig(max_steps=10, tolerance=tolerance)


def test_trace_csv_bytes(tmp_path):
    # Header, then the step and five %.12g values per row, CRLF line ends.
    trace = RewiringTrace([(0, 0.1, -0.2, 0.3, 1 / 3, 0.0),
                           (1000, 0.5, 0.25, -1e-20, 1.0, 0.125)])
    path = tmp_path / "t.csv"
    trace.to_csv(path)
    assert path.read_bytes() == (
        b"step,r11,r12,r21,r22,acc_rate\r\n"
        b"0,0.1,-0.2,0.3,0.333333333333,0\r\n"
        b"1000,0.5,0.25,-1e-20,1,0.125\r\n")
    assert read_trace_csv(path).checkpoints == [
        (0, 0.1, -0.2, 0.3, 0.333333333333, 0.0),
        (1000, 0.5, 0.25, -1e-20, 1.0, 0.125)]


def test_node_pair_indices_cover_exactly_the_edge_ends():
    # Nodes 3 and 4 have no out-edges and node 0 no in-edges: they get -1
    # on that side and a pair index on the other.
    g = DirectedGraph.from_edges(5, [0, 0, 1, 2, 2], [1, 2, 2, 3, 4])
    eta = edge_mix_from_graph(g)
    src_idx, dst_idx = _node_pair_indices(g, eta)
    assert src_idx.tolist() == [1, 0, 2, -1, -1]
    assert dst_idx.tolist() == [-1, 1, 2, 0, 0]
