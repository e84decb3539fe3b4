"""The rewiring chain: its stationary law, the level-batched chain against
the scalar reference, and the telescoping of scenario gains."""
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
    _PROPOSAL_BLOCK,
    RewiringConfig,
    rewire,
    rewire_with_scenario_gains,
)
from rewire_reference import reference_chain

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

    assert len(trace.checkpoints) == 25
    assert trace.checkpoints == trace_g.checkpoints
    assert np.array_equal(plain.dst, tracked.dst)
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
    # Three edges: any two proposals share an edge, so each block is one
    # long chain of levels.  (Two edges cannot give nondegenerate ends.)
    (([2, 3, 3], [3, 3, 2]), 3_001, 250),
    # The five-edge toy of the product-law test, across a block boundary.
    (([1, 0, 2, 4, 4], [2, 2, 3, 4, 1]), _PROPOSAL_BLOCK + 1_500, 700),
], ids=["three-edges", "five-edge-toy"])
def test_toy_chains_match_scalar_reference(edges, steps, every):
    g, eta = _toy_graph(*edges)
    _assert_matches_reference(g, eta, RewiringConfig(
        max_steps=steps, checkpoint_every=every, seed=1))


def test_dpa_chain_and_gains_match_scalar_reference(dpa):
    g, eta = dpa
    cfg = RewiringConfig(max_steps=30_001, checkpoint_every=2_000, seed=5,
                         targets=TARGETS)
    _assert_matches_reference(g, eta, cfg, gains=True)
    _assert_matches_reference(g, eta, cfg)


def test_er_chain_matches_scalar_reference():
    g = gen_er(330, 0.1, 4)
    assert 9_000 < g.num_edges < 12_000
    _assert_matches_reference(g, _random_eta(g, 5), RewiringConfig(
        max_steps=40_000, checkpoint_every=3_000, seed=6))


def test_stop_early_inside_a_block_matches_scalar_reference(dpa):
    g, eta = dpa
    cfg = RewiringConfig(max_steps=400_000, checkpoint_every=1_000,
                         tolerance=0.02, stop_early=True, seed=5,
                         targets=TARGETS)
    trace = _assert_matches_reference(g, eta, cfg, gains=True)
    last = trace.checkpoints[-1][0]
    assert last < cfg.max_steps and last % _PROPOSAL_BLOCK != 0
    assert trace.final_profile().max_abs_diff(TARGETS) <= cfg.tolerance
