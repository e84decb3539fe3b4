"""Fitting the attachment model: tail indices on samples with a known
exponent, the exact degree laws against generated graphs, and parameter
recovery on generated graphs."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import didpr
import didpr.fit
from didpr.fit import (
    _EXPONENT_BOUNDS,
    _fminbound,
    _hurwitz_zeta,
    _log_law,
    fit_ev,
    tail_index,
    tail_indices_from_params,
)
from didpr.generate import DpaParams, gen_dpa


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("a", [2.5, 3.0])
def test_tail_index_of_zipf_sample(a, seed):
    # P(X = k) ~ k^-a has tail index a - 1; seen within 0.025 here.
    iota, x_min = tail_index(np.random.default_rng(seed).zipf(a, 20_000))
    assert iota == pytest.approx(a - 1.0, abs=0.05)
    assert x_min >= 1


@pytest.mark.parametrize("params", [(0.3, 0.4, 0.3, 1.0, 1.0),
                                    (0.1, 0.6, 0.3, 2.0, 0.5)])
def test_degree_laws_match_generated_frequencies(params):
    # The recursion's node law against the node counts at degrees 0-10 of
    # one 1e5-edge graph, as binomial z-scores (largest seen: 2.2).
    alpha, beta, gamma, delta_in, delta_out = params
    g = gen_dpa(DpaParams(*params, 100_000, seed=1))
    ag = alpha + gamma
    for degrees, law in (
            (g.in_deg, _log_law(alpha, gamma, alpha + beta, ag, delta_in, 10)),
            (g.out_deg, _log_law(gamma, alpha, gamma + beta, ag, delta_out,
                                 10))):
        q = np.exp(law)
        seen = np.bincount(degrees, minlength=11)[:11]
        z = (seen - g.num_nodes * q) / np.sqrt(g.num_nodes * q * (1.0 - q))
        assert np.abs(z).max() < 4.0, z


def test_degree_law_tail_is_the_tail_index():
    # q_i falls as i^-(1 + iota): the ratio exponent tends to the formula's.
    alpha, beta, gamma, delta_in, delta_out = 0.1, 0.6, 0.3, 2.0, 0.5
    iota_out, iota_in = tail_indices_from_params(alpha, beta, gamma,
                                                 delta_out, delta_in)
    ag = alpha + gamma
    for law, iota in (
            (_log_law(alpha, gamma, alpha + beta, ag, delta_in, 10**6), iota_in),
            (_log_law(gamma, alpha, gamma + beta, ag, delta_out, 10**6),
             iota_out)):
        slope = (law[10**6] - law[10**5]) / math.log(10.0)
        assert -slope - 1.0 == pytest.approx(iota, abs=1e-4)
        assert np.exp(law).sum() == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fit_ev_recovers_scenario_probabilities(seed):
    g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 20_000, seed=seed))
    fitted = fit_ev(g)
    assert fitted.beta_hat == pytest.approx(0.4, abs=0.01)
    assert fitted.alpha_hat == pytest.approx(0.3, abs=0.05)
    assert fitted.alpha_hat + fitted.beta_hat + fitted.gamma_hat == (
        pytest.approx(1.0, abs=1e-12))
    assert fitted.delta_in_hat > 0.0 and fitted.delta_out_hat > 0.0


def test_fit_ev_recovery_rate_over_seeds():
    # DPA (0.3, 0.4, 0.3), delta = 1, 2e4 edges: 20 seeds, and at most one
    # may miss (none did when this was written).
    misses = []
    for seed in range(1, 21):
        g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 20_000, seed=seed))
        fitted = fit_ev(g)
        assert fitted.beta_hat == pytest.approx(0.4, abs=0.01)
        assert fitted.alpha_hat + fitted.beta_hat + fitted.gamma_hat == (
            pytest.approx(1.0, abs=1e-12))
        assert (fitted.iota1_hat, fitted.iota2_hat) == tail_indices_from_params(
            fitted.alpha_hat, fitted.beta_hat, fitted.gamma_hat,
            fitted.delta_out_hat, fitted.delta_in_hat)
        if not (abs(fitted.alpha_hat - 0.3) <= 0.05
                and abs(fitted.delta_in_hat - 1.0) <= 0.2
                and abs(fitted.delta_out_hat - 1.0) <= 0.2):
            misses.append((seed, fitted))
    assert len(misses) <= 1, misses


# (alpha, beta, gamma, delta_in, delta_out): both offsets small, large and
# lopsided, each scenario dominant, and beta near 1.
_RECOVERY_GRID = [(0.3, 0.4, 0.3, 1.0, 1.0), (0.1, 0.6, 0.3, 2.0, 0.5),
                  (0.45, 0.1, 0.45, 0.5, 3.0), (0.2, 0.2, 0.6, 1.5, 1.5),
                  (0.6, 0.3, 0.1, 3.0, 0.7), (0.05, 0.9, 0.05, 1.0, 1.0)]


@pytest.mark.parametrize("params", _RECOVERY_GRID, ids=str)
def test_fit_ev_recovers_parameters_over_a_grid(params):
    # 2e4 edges, seeds 1-5.  Worst seen when this was written: |alpha error|
    # 0.010, offset error 41% (delta_out at (0.6, 0.3, 0.1, 3, 0.7), seed 5).
    alpha, _, _, delta_in, delta_out = params
    for seed in range(1, 6):
        fitted = fit_ev(gen_dpa(DpaParams(*params, 20_000, seed=seed)))
        assert fitted.alpha_hat == pytest.approx(alpha, abs=0.02), seed
        assert fitted.delta_in_hat == pytest.approx(delta_in, rel=0.5), seed
        assert fitted.delta_out_hat == pytest.approx(delta_out, rel=0.5), seed


def test_fit_ev_pinned_on_dpa():
    # The composite-likelihood fit on DPA 2e4 at seed 1; the fit is
    # deterministic, so a second call gives the same bits.
    g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 20_000, seed=1))
    want = {
        "alpha_hat": 0.3057642743474028,
        "beta_hat": 0.39570000000000005,
        "gamma_hat": 0.2985357256525972,
        "delta_in_hat": 1.0390664211502991,
        "delta_out_hat": 1.0061196785698499,
        "iota1_hat": 2.316213445005593,
        "iota2_hat": 2.320728079581282,
    }
    assert fit_ev(g).as_dict() == want
    assert fit_ev(g).as_dict() == want


def test_fit_ev_offsets_scale_with_the_mean_degree():
    # The search bounds delta (alpha + gamma), not delta: on a dense graph
    # (mean degree 50) offsets far above 100 still fit.
    g = gen_dpa(DpaParams(0.01, 0.98, 0.01, 150.0, 50.0, 30_000, seed=1))
    fitted = fit_ev(g)
    assert fitted.delta_in_hat == pytest.approx(150.0, rel=0.2)
    assert fitted.delta_out_hat == pytest.approx(50.0, rel=0.2)


def test_fit_ev_rejects_light_tails():
    # Erdos-Renyi degrees are Poisson: both offsets run to the upper end.
    with pytest.raises(ValueError, match="delta_in and delta_out ran to an "
                                         "end of the search interval"):
        fit_ev(didpr.gen_er(300, 0.1, seed=1))


class TestHurwitzZetaOracle:
    # Near 1, where the Euler-Maclaurin tail carries the sum, up to the
    # upper end of the exponent search.
    XS = [1.0 + 1e-6, 1.0 + 3e-6, 1.0 + 1e-5, 1.0 + 1e-4, 1.001, 1.01,
          1.1, 1.5, 1.75, 2.0, 2.3, 2.5, 3.0, 3.7, 5.0, 7.25, 9.0, 12.0]

    def test_arrays_match_scipy(self):
        from scipy.special import zeta

        qs = np.arange(1, 5001)
        xs = self.XS + np.random.default_rng(3).uniform(1.0, 12.0, 6).tolist()
        for x in xs:
            np.testing.assert_array_equal(_hurwitz_zeta(x, qs), zeta(x, qs))

    def test_scalars_match_scipy(self):
        from scipy.special import zeta

        rng = np.random.default_rng(4)
        xs = self.XS + (1.0 + 11.0 * rng.random(200)).tolist()
        for x in xs:
            for q in [1, 2, 9, 10, 11, 5000] + rng.integers(1, 5001, 5).tolist():
                assert _hurwitz_zeta(x, q) == zeta(x, q), (x, q)


class TestFminboundOracle:
    @staticmethod
    def _check(func):
        from scipy.optimize import minimize_scalar

        want = minimize_scalar(func, bounds=_EXPONENT_BOUNDS,
                               method="bounded", options={"xatol": 1e-6})
        assert _fminbound(func, _EXPONENT_BOUNDS) == (want.x, want.nfev)

    @pytest.mark.parametrize("sample", ["dpa", "zipf"])
    def test_every_tail_likelihood(self, sample, monkeypatch):
        seen = []

        def spy(func, bounds):
            seen.append(func)
            return _fminbound(func, bounds)

        monkeypatch.setattr(didpr.fit, "_fminbound", spy)
        if sample == "dpa":
            g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 20_000, seed=1))
            tail_index(g.out_deg)
            tail_index(g.in_deg)
        else:
            tail_index(np.random.default_rng(1).zipf(2.5, 20_000))
        assert len(seen) > 20
        for func in seen:
            self._check(func)

    @pytest.mark.parametrize("centre", [3.7, 1.0, 12.0, 0.5, 20.0])
    def test_quadratics(self, centre):
        self._check(lambda x: (x - centre) ** 2)

    def test_constant(self):
        self._check(lambda x: 2.5)

    # Flat stretches make the bracket updates compare equal values and
    # points (the step and ceil cases need the `nfc == xf` and
    # `fulc == nfc` tests).
    @pytest.mark.parametrize("func", [
        lambda x: 0.0 if 4.0 < x < 6.0 else 1.0,
        lambda x: float(int(abs(x - 7.0) * 2)),
        lambda x: float(math.ceil(abs(x - 5.5))),
        lambda x: float(math.floor(x)),
        lambda x: max(0.0, abs(x - 5.0) - 1.0),
    ], ids=["step", "stairs", "ceil", "floor", "flat-bottom"])
    def test_ties(self, func):
        self._check(func)

    # scipy's numpy-scalar arithmetic warns on inf - inf; the result holds.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("cut", [2.0, 6.0, 9.5])
    def test_infinite_on_part_of_the_interval(self, cut):
        self._check(lambda x: np.inf if x < cut else (x - 4.0) ** 2)
        self._check(lambda x: np.inf if x > cut else (x - 8.0) ** 2)


def test_cli_import_leaves_scipy_stats_and_optimize_out():
    # Start-up loads no scipy module at all: scipy.sparse and its linalg
    # were about two thirds of it, scipy.stats as much again.  Only the LP
    # paths need scipy.  The process pool is loaded only for --jobs > 1.
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
