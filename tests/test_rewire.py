"""The rewiring chain: per-swap product bookkeeping against recomputation."""
import numpy as np
import pytest

from didpr.assortativity import TYPE_PAIRS, AssortProfile
from didpr.eta import problem_from_graph, solve_target_eta
from didpr.generate import DpaParams, gen_dpa
from didpr.rewire import RewiringConfig, rewire, rewire_with_scenario_gains

TARGETS = AssortProfile(0.1, 0.15, 0.1, 0.15)


def test_product_updates_match_recomputation():
    # rewire() evaluates each checkpoint from the edge list; the gains run
    # updates integer degree products per accepted swap.  Both are exact,
    # so the same seed must give the same chain and the same trace.
    g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 3_000, seed=7))
    eta = solve_target_eta(problem_from_graph(g, targets=TARGETS))
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
