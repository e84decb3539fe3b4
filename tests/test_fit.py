"""Fitting the attachment model: tail indices on samples with a known
exponent, and parameter recovery on generated graphs."""
import numpy as np
import pytest

from didpr.fit import fit_ev, tail_index
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
