"""Fitting the attachment model: tail indices on samples with a known
exponent, and parameter recovery on generated graphs."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import didpr
from didpr.fit import _ks_two_sample, fit_ev, tail_index
from didpr.generate import DpaParams, gen_dpa


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("a", [2.5, 3.0])
def test_tail_index_of_zipf_sample(a, seed):
    # P(X = k) ~ k^-a has tail index a - 1; seen within 0.025 here.
    iota, x_min = tail_index(np.random.default_rng(seed).zipf(a, 20_000))
    assert iota == pytest.approx(a - 1.0, abs=0.05)
    assert x_min >= 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fit_ev_recovers_scenario_probabilities(seed):
    # The offsets are not checked: at this size the tail indices read low,
    # so the recovered offsets fall well short of the true 1.
    g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 20_000, seed=seed))
    fitted = fit_ev(g, 200, seed=seed)
    assert fitted.beta_hat == pytest.approx(0.4, abs=0.01)
    assert fitted.alpha_hat == pytest.approx(0.3, abs=0.05)
    assert fitted.alpha_hat + fitted.beta_hat + fitted.gamma_hat == (
        pytest.approx(1.0, abs=1e-12))
    assert fitted.a_hat == pytest.approx(fitted.iota2_hat / fitted.iota1_hat)
    assert fitted.delta_in_hat > 0.0 and fitted.delta_out_hat > 0.0


def test_ks_two_sample_matches_scipy():
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(7)
    for _ in range(200):
        # few distinct values, so both samples carry ties within and across
        x = rng.integers(0, 12, rng.integers(1, 60)) / 11.0
        y = rng.integers(0, 12, rng.integers(1, 60)) / 11.0
        assert _ks_two_sample(x, y) == ks_2samp(x, y).statistic
        x, y = rng.random(rng.integers(1, 300)), rng.random(rng.integers(1, 300))
        assert _ks_two_sample(x, y) == ks_2samp(x, y).statistic


def test_cli_import_leaves_scipy_stats_and_optimize_out():
    # Start-up loads no scipy module at all: scipy.sparse and its linalg
    # were about two thirds of it, scipy.stats as much again.  Only the
    # fit and the LP paths need scipy.  The process pool is loaded only
    # for --jobs > 1.
    src_dir = str(Path(didpr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, didpr.cli; didpr.cli.build_parser(); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
         "or m == 'concurrent.futures.process'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
