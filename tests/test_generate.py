"""Random network generators, and the weighted-sampling tree of the
reference generator."""
import numpy as np
import pytest

from didpr.generate import DpaParams, gen_dpa, gen_er
from dpa_reference import CumulativeWeightTree, reference_gen_dpa
from graph_helpers import edges, scenario_of_edge


class TestGenEr:
    def test_p_zero_no_edges(self):
        assert gen_er(10, 0.0, seed=0).num_edges == 0

    def test_p_one_complete_with_self_loops(self):
        g = gen_er(3, 1.0, seed=0)
        assert g.num_edges == 9
        assert sum(1 for s, t in edges(g) if s == t) == 3

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            gen_er(10, 1.5)
        with pytest.raises(ValueError):
            gen_er(10, -0.1)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            gen_er(0, 0.5)

    def test_mean_edge_count(self):
        # each ordered pair is an independent Bernoulli(p), n^2 of them
        n, p, reps = 1000, 0.1, 100
        counts = [gen_er(n, p, seed=s).num_edges for s in range(reps)]
        sd_one = np.sqrt(n * n * p * (1 - p))
        assert abs(np.mean(counts) - n * n * p) < 3 * sd_one

    def test_deterministic(self):
        a = gen_er(200, 0.1, seed=77)
        b = gen_er(200, 0.1, seed=77)
        assert edges(a) == edges(b)


class TestDpaParams:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DpaParams(0.5, 0.4, 0.2, 1.0, 1.0, 10)

    def test_probability_range(self):
        with pytest.raises(ValueError):
            DpaParams(-0.1, 0.6, 0.5, 1.0, 1.0, 10)

    def test_deltas_must_be_positive(self):
        with pytest.raises(ValueError):
            DpaParams(0.3, 0.4, 0.3, 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            DpaParams(0.3, 0.4, 0.3, 1.0, -2.0, 10)

    def test_edge_count_must_be_positive(self):
        with pytest.raises(ValueError):
            DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 0)


class TestGenDpa:
    def test_alpha_one_in_tree(self):
        g = gen_dpa(DpaParams(1.0, 0.0, 0.0, 1.0, 1.0, 50, seed=1))
        assert g.num_nodes == 51
        assert g.num_edges == 50
        # every non-seed node is born as a source of exactly one edge
        assert np.all(g.out_deg[1:] == 1)
        assert g.out_deg[0] == 0
        assert all(g.edge_labels == "a")

    def test_gamma_one_mirror(self):
        g = gen_dpa(DpaParams(0.0, 0.0, 1.0, 1.0, 1.0, 50, seed=2))
        assert g.num_nodes == 51
        assert np.all(g.in_deg[1:] == 1)

    def test_beta_one_stays_on_seed(self):
        g = gen_dpa(DpaParams(0.0, 1.0, 0.0, 1.0, 1.0, 30, seed=3))
        assert g.num_nodes == 1
        assert edges(g) == [(0, 0)] * 30
        assert all(g.edge_labels == "b")

    def test_node_count_law(self):
        g = gen_dpa(DpaParams(0.2, 0.5, 0.3, 2.0, 0.7, 2000, seed=4))
        grown = int(np.sum(g.edge_labels == "a") + np.sum(g.edge_labels == "g"))
        assert g.num_nodes == 1 + grown
        assert g.num_edges == 2000

    def test_label_frequencies(self):
        g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 10_000, seed=5))
        freq = {c: float(np.mean(g.edge_labels == c)) for c in "abg"}
        assert abs(freq["a"] - 0.3) < 0.02
        assert abs(freq["b"] - 0.4) < 0.02
        assert abs(freq["g"] - 0.3) < 0.02

    def test_deterministic(self):
        params = dict(alpha=0.3, beta=0.4, gamma=0.3, delta_in=1.0,
                      delta_out=1.0, target_edges=500)
        a = gen_dpa(DpaParams(**params, seed=6))
        b = gen_dpa(DpaParams(**params, seed=6))
        assert edges(a) == edges(b)
        assert a.edge_labels.tolist() == b.edge_labels.tolist()

    def test_non_integer_delta_supported(self):
        g = gen_dpa(DpaParams(0.1, 0.8, 0.1, 6.078, 10.432, 300, seed=7))
        assert g.num_edges == 300


# (alpha, beta, gamma, delta_in, delta_out): the paper's model with unit
# offsets, the nine candidates fit_ev simulates for DPA 2e4 at seed 1
# (non-integer offsets), and the pure and two-scenario corner cases.
_DPA_GRID = [
    (0.3, 0.4, 0.3, 1.0, 1.0),
    (0.18129, 0.39570000000000005, 0.42300999999999994,
     0.040560353094699186, 0.8107579090256435),
    (0.211505, 0.39570000000000005, 0.39279499999999995,
     0.12934097506172826, 0.719764699926927),
    (0.24172, 0.39570000000000005, 0.36257999999999996,
     0.21812159702875802, 0.6287714908282113),
    (0.271935, 0.39570000000000005, 0.33236499999999997,
     0.30690221899578707, 0.5377782817294952),
    (0.30215, 0.39570000000000005, 0.30215,
     0.39568284096281686, 0.44678507263077943),
    (0.33236499999999997, 0.39570000000000005, 0.271935,
     0.48446346292984593, 0.355791863532063),
    (0.36258, 0.39570000000000005, 0.24171999999999993,
     0.5732440848968757, 0.2647986544333469),
    (0.392795, 0.39570000000000005, 0.21150499999999994,
     0.6620247068639051, 0.17380544533463116),
    (0.42301, 0.39570000000000005, 0.18128999999999995,
     0.7508053288309345, 0.08281223623591506),
    (0.0, 0.6, 0.4, 1.0, 1.0),
    (0.4, 0.6, 0.0, 1.0, 1.0),
    (0.0, 1.0, 0.0, 1.0, 1.0),
    (1.0, 0.0, 0.0, 1.0, 1.0),
    (0.0, 0.0, 1.0, 1.0, 1.0),
]


def _assert_same_graph(params):
    got, want = gen_dpa(params), reference_gen_dpa(params)
    assert got.num_nodes == want.num_nodes
    np.testing.assert_array_equal(got.src, want.src)
    np.testing.assert_array_equal(got.dst, want.dst)
    assert got.edge_labels.dtype == want.edge_labels.dtype == "<U1"
    np.testing.assert_array_equal(got.edge_labels, want.edge_labels)


class TestGenDpaMatchesReference:
    # Edge counts around the powers of two where the Fenwick trees grow a
    # level and the descents start one level higher.
    @pytest.mark.parametrize("num_edges", [1, 2, 1023, 1024, 1025, 2047])
    @pytest.mark.parametrize("model", _DPA_GRID)
    def test_bit_for_bit(self, model, num_edges):
        for seed in (1, 2):
            _assert_same_graph(DpaParams(*model, num_edges, seed=seed))

    def test_paper_scale(self):
        _assert_same_graph(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 20_000, seed=1))


class TestScenarioOfEdge:
    def test_names(self):
        g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 200, seed=8))
        for e in range(20):
            name = scenario_of_edge(g, e)
            assert name in ("alpha", "beta", "gamma")
            assert name[0] == {"a": "a", "b": "b", "g": "g"}[
                str(g.edge_labels[e])]

    def test_unlabeled_graph_rejected(self):
        g = gen_er(10, 0.3, seed=9)
        with pytest.raises(ValueError, match="no scenario labels"):
            scenario_of_edge(g, 0)

    def test_bad_index(self):
        g = gen_dpa(DpaParams(1.0, 0.0, 0.0, 1.0, 1.0, 5, seed=10))
        with pytest.raises(IndexError):
            scenario_of_edge(g, 5)


class TestCumulativeWeightTree:
    # The tree of the reference generator in tests/dpa_reference.py.
    def test_prefix_sums_match_naive(self):
        rng = np.random.default_rng(11)
        weights = rng.random(37)
        tree = CumulativeWeightTree(37)
        for i, w in enumerate(weights):
            tree.add(i, w)
        cums = np.cumsum(weights)
        assert tree.total == pytest.approx(cums[-1], rel=1e-12)
        for i in range(37):
            assert tree.prefix_sum(i + 1) == pytest.approx(cums[i], rel=1e-12)
            assert tree.weight(i) == pytest.approx(weights[i], rel=1e-12)

    def test_incremental_updates(self):
        tree = CumulativeWeightTree(8)
        tree.add(3, 2.0)
        tree.add(3, 1.5)
        tree.add(0, 1.0)
        assert tree.weight(3) == pytest.approx(3.5)
        assert tree.total == pytest.approx(4.5)

    def test_sample_picks_owning_index(self):
        tree = CumulativeWeightTree(4)
        for i, w in enumerate([4.0, 2.0, 1.0, 3.0]):
            tree.add(i, w)
        assert tree.sample(0.0) == 0
        assert tree.sample(3.999) == 0
        assert tree.sample(4.0) == 1
        assert tree.sample(6.5) == 2
        assert tree.sample(9.999) == 3

    def test_sample_skips_zero_weight(self):
        tree = CumulativeWeightTree(5)
        tree.add(1, 2.0)
        tree.add(4, 1.0)
        seen = {tree.sample(x) for x in np.linspace(0.0, 2.999, 50)}
        assert seen == {1, 4}

    def test_preferential_frequencies(self):
        # the beta-step target draw: weight d_in + delta on fixed degrees
        degrees = np.array([3, 1, 0, 2])
        delta = 1.0
        weights = degrees + delta
        tree = CumulativeWeightTree(4)
        for i, w in enumerate(weights):
            tree.add(i, float(w))
        rng = np.random.default_rng(12)
        draws = 100_000
        counts = np.zeros(4)
        for u in rng.random(draws):
            counts[tree.sample(u * tree.total)] += 1
        expect = weights / weights.sum()
        np.testing.assert_allclose(counts / draws, expect, atol=0.01)
