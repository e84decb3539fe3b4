"""Edge mixing matrix, end distributions, and the four coefficients.

The reference computation used throughout is a direct Pearson correlation
over the raw edge list with population normalisation: for type pair (a, b),
x_e is the source's type-a degree and y_e the target's type-b degree.
"""
import numpy as np
import pytest

from didpr.assortativity import (
    AssortProfile,
    EdgeMixMatrix,
    assortativity,
    assortativity_from_edges,
    assortativity_of_graph,
    edge_mix_from_graph,
    end_distributions,
    read_eta_csv,
    write_eta_csv,
)
from didpr.generate import gen_er
from didpr.graph import DirectedGraph, degree_pair_dist


def graph_from_pairs(num_nodes, pairs):
    return DirectedGraph.from_edges(
        num_nodes, [s for s, _ in pairs], [t for _, t in pairs]
    )


def pearson_profile(g):
    """Brute-force oracle: correlate end degrees edge by edge."""
    ends = {1: (g.out_deg, g.out_deg), 2: (g.in_deg, g.in_deg)}
    src = np.array([s for s, _ in g.edges()])
    dst = np.array([t for _, t in g.edges()])
    vals = {}
    for a in (1, 2):
        for b in (1, 2):
            x = (g.out_deg if a == 1 else g.in_deg)[src].astype(float)
            y = (g.out_deg if b == 1 else g.in_deg)[dst].astype(float)
            cov = (x * y).mean() - x.mean() * y.mean()
            vals[f"r{a}{b}"] = cov / (x.std() * y.std())
    return AssortProfile(**vals)


FIXTURE_PAIRS = [(0, 1), (1, 2), (2, 0), (0, 2)]  # 3 nodes, one doubled source


class TestEdgeMixFromGraph:
    def test_single_edge(self):
        eta = edge_mix_from_graph(graph_from_pairs(2, [(0, 1)]))
        assert eta.source_pairs == [(1, 0)]
        assert eta.target_pairs == [(0, 1)]
        assert eta.H.tolist() == [[1.0]]

    def test_two_cycle(self):
        eta = edge_mix_from_graph(graph_from_pairs(2, [(0, 1), (1, 0)]))
        assert eta.source_pairs == [(1, 1)]
        assert eta.target_pairs == [(1, 1)]
        assert eta.H.tolist() == [[1.0]]

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError):
            edge_mix_from_graph(DirectedGraph.from_edges(3, [], []))

    def test_margins_match_nu(self):
        # row masses must equal i nu_ij / sum(i nu), columns l nu_kl / sum(l nu)
        g = gen_er(200, 0.05, seed=11)
        eta = edge_mix_from_graph(g)
        nu = degree_pair_dist(g).entries
        out_total = sum(i * v for (i, _), v in nu.items())
        in_total = sum(j * v for (_, j), v in nu.items())
        rho = np.array([i * nu[(i, j)] / out_total for i, j in eta.source_pairs])
        kappa = np.array([l * nu[(k, l)] / in_total for k, l in eta.target_pairs])
        np.testing.assert_allclose(eta.row_masses(), rho, atol=1e-12)
        np.testing.assert_allclose(eta.col_masses(), kappa, atol=1e-12)
        eta.validate()

    def test_counts_are_exact_proportions(self):
        g = graph_from_pairs(3, FIXTURE_PAIRS)
        eta = edge_mix_from_graph(g)
        si = eta.source_index()
        ti = eta.target_index()
        # node 0 has pair (2,1) and sources two of the four edges
        assert eta.H[si[(2, 1)], ti[(1, 2)]] == pytest.approx(0.25)
        assert eta.row_masses()[si[(2, 1)]] == pytest.approx(0.5)


class TestEndDistributions:
    def test_point_mass(self):
        eta = EdgeMixMatrix([(2, 3)], [(5, 7)], np.array([[1.0]]))
        ends = end_distributions(eta)
        assert ends.q == {1: {2: 1.0}, 2: {3: 1.0}}
        assert ends.q_tilde == {1: {5: 1.0}, 2: {7: 1.0}}
        assert all(v == 0.0 for v in ends.sigma_q.values())
        assert all(v == 0.0 for v in ends.sigma_q_tilde.values())

    def test_uniform_two_by_two(self):
        pairs = [(1, 1), (2, 2)]
        eta = EdgeMixMatrix(pairs, pairs, np.full((2, 2), 0.25))
        ends = end_distributions(eta)
        assert ends.q[1] == {1: 0.5, 2: 0.5}
        assert ends.sigma_q[1] == pytest.approx(0.5)
        assert ends.mean_q(1) == pytest.approx(1.5)

    def test_source_marginal_matches_nu(self):
        g = gen_er(150, 0.08, seed=12)
        ends = end_distributions(edge_mix_from_graph(g))
        nu = degree_pair_dist(g).entries
        total = sum(i * v for (i, _), v in nu.items())
        for i in set(i for i, _ in nu if i > 0):
            expect = sum(i * v for (k, _), v in nu.items() if k == i)
            # q^(1)_i = (sum_j i nu_ij) / (sum i nu)
            expect = i * sum(v for (k, _), v in nu.items() if k == i) / total
            assert ends.q[1].get(i, 0.0) == pytest.approx(expect, abs=1e-12)


class TestAssortativity:
    def test_degenerate_ends_rejected(self):
        eta = edge_mix_from_graph(graph_from_pairs(2, [(0, 1), (1, 0)]))
        with pytest.raises(ValueError, match="degenerate"):
            assortativity(eta)

    def test_three_node_fixture_matches_oracle(self):
        g = graph_from_pairs(3, FIXTURE_PAIRS)
        got = assortativity_of_graph(g)
        want = pearson_profile(g)
        for key, val in got.as_dict().items():
            assert val == pytest.approx(want.get(int(key[1]), int(key[2])),
                                        abs=1e-12), key
        # closed forms for this fixture
        assert got.r11 == pytest.approx(-1 / np.sqrt(3), abs=1e-12)
        assert got.r12 == pytest.approx(0.0, abs=1e-12)
        assert got.r21 == pytest.approx(1.0, abs=1e-12)
        assert got.r22 == pytest.approx(-1 / np.sqrt(3), abs=1e-12)

    def test_random_graphs_match_oracle(self):
        for seed in range(5):
            g = gen_er(60, 0.1, seed=seed)
            got = assortativity_of_graph(g)
            want = pearson_profile(g)
            assert got.max_abs_diff(want) < 1e-10

    def test_er_near_zero(self):
        prof = assortativity_of_graph(gen_er(1000, 0.1, seed=42))
        for val in prof.as_dict().values():
            assert abs(val) < 0.05

    def test_eta_route_matches_edge_route(self):
        g = gen_er(120, 0.1, seed=13)
        via_eta = assortativity(edge_mix_from_graph(g))
        via_edges = assortativity_from_edges(g)
        assert via_eta.max_abs_diff(via_edges) < 1e-10

    def test_relabel_invariance(self):
        g = gen_er(80, 0.1, seed=14)
        perm = np.random.default_rng(1).permutation(g.num_nodes)
        relabeled = DirectedGraph.from_edges(
            g.num_nodes,
            perm[np.array([s for s, _ in g.edges()])],
            perm[np.array([t for _, t in g.edges()])],
        )
        diff = assortativity_of_graph(g).max_abs_diff(
            assortativity_of_graph(relabeled))
        assert diff < 1e-12

    def test_duplicate_edges_invariance(self):
        pairs = FIXTURE_PAIRS
        g = graph_from_pairs(3, pairs)
        doubled = graph_from_pairs(3, pairs + pairs)
        diff = assortativity_of_graph(g).max_abs_diff(
            assortativity_of_graph(doubled))
        assert diff < 1e-12

    def test_values_within_unit_interval(self):
        for seed in range(4):
            prof = assortativity_of_graph(gen_er(50, 0.15, seed=seed))
            for val in prof.as_dict().values():
                assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9


class TestProfile:
    def test_get_and_dict(self):
        prof = AssortProfile(0.1, 0.2, -0.3, 0.4)
        assert prof.get(2, 1) == -0.3
        assert prof.as_dict() == {"r11": 0.1, "r12": 0.2, "r21": -0.3,
                                  "r22": 0.4}

    def test_max_abs_diff(self):
        a = AssortProfile(0.0, 0.0, 0.0, 0.0)
        b = AssortProfile(0.1, -0.2, 0.05, 0.0)
        assert a.max_abs_diff(b) == pytest.approx(0.2)


class TestEtaCsv:
    def test_round_trip(self, tmp_path):
        eta = edge_mix_from_graph(gen_er(60, 0.1, seed=15))
        path = tmp_path / "eta.csv"
        write_eta_csv(eta, path)
        back = read_eta_csv(path)
        assert back.source_pairs == eta.source_pairs
        assert back.target_pairs == eta.target_pairs
        np.testing.assert_array_equal(back.H, eta.H)
        back.validate()

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "eta.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_eta_csv(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "eta.csv"
        path.write_text("i,j,k,l,eta\n")
        with pytest.raises(ValueError):
            read_eta_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bad_entry_rejected_with_its_line(self, tmp_path, value):
        path = tmp_path / "eta.csv"
        path.write_text(f"i,j,k,l,eta\n1,1,1,1,0.5\n1,1,2,1,{value}\n")
        with pytest.raises(ValueError, match=r"eta\.csv:3: .*not finite"):
            read_eta_csv(path)
