"""Edge mixing matrix, end standardisation, and the four coefficients.

The reference computations are a direct Pearson correlation over the raw
edge list with population normalisation (for type pair (a, b), x_e is the
source's type-a degree and y_e the target's type-b degree), and the same
correlation worked out exactly from integer sums or from rational moments.
"""
import importlib
import math
import re
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from didpr.assortativity import (
    TYPE_PAIRS,
    AssortProfile,
    EdgeMixMatrix,
    _standardise,
    assortativity,
    assortativity_of_graph,
    edge_mix_from_graph,
    read_eta_csv,
    write_eta_csv,
)
from didpr.eta import problem_from_graph, solve_target_eta
from didpr.generate import DpaParams, gen_dpa, gen_er
from didpr.graph import DirectedGraph, degree_pair_dist
from didpr.rewire import RewiringConfig, read_trace_csv, rewire

from graph_helpers import (
    assortativity_from_edges,
    edges,
    source_index,
    target_index,
)


def graph_from_pairs(num_nodes, pairs):
    return DirectedGraph.from_edges(
        num_nodes, [s for s, _ in pairs], [t for _, t in pairs]
    )


def pearson_profile(g):
    """Brute-force oracle: correlate end degrees edge by edge."""
    ends = {1: (g.out_deg, g.out_deg), 2: (g.in_deg, g.in_deg)}
    src = np.array([s for s, _ in edges(g)])
    dst = np.array([t for _, t in edges(g)])
    vals = {}
    for a in (1, 2):
        for b in (1, 2):
            x = (g.out_deg if a == 1 else g.in_deg)[src].astype(float)
            y = (g.out_deg if b == 1 else g.in_deg)[dst].astype(float)
            cov = (x * y).mean() - x.mean() * y.mean()
            vals[f"r{a}{b}"] = cov / (x.std() * y.std())
    return AssortProfile(**vals)


def exact_profile(g):
    """r(a, b) from the integer sums m, Sx, Sy, Sxx, Syy and Sxy over the
    edge list, to 40 significant digits before the final rounding."""
    x = {1: g.out_deg[g.src].tolist(), 2: g.in_deg[g.src].tolist()}
    y = {1: g.out_deg[g.dst].tolist(), 2: g.in_deg[g.dst].tolist()}
    m = g.num_edges
    vals = []
    with localcontext() as ctx:
        ctx.prec = 40
        for a, b in TYPE_PAIRS:
            xs, ys = x[a], y[b]
            cov = m * sum(u * v for u, v in zip(xs, ys)) - sum(xs) * sum(ys)
            var_x = m * sum(u * u for u in xs) - sum(xs) ** 2
            var_y = m * sum(v * v for v in ys) - sum(ys) ** 2
            vals.append(float(Decimal(cov) / Decimal(var_x * var_y).sqrt()))
    return AssortProfile(*vals)


def fraction_profile(g):
    """r(a, b) from the edge list's moments as Fractions: means, covariance
    and variances are exact, and only the root of r^2, taken to 40 digits,
    and the final rounding are not."""
    x = {1: g.out_deg[g.src].tolist(), 2: g.in_deg[g.src].tolist()}
    y = {1: g.out_deg[g.dst].tolist(), 2: g.in_deg[g.dst].tolist()}
    m = g.num_edges

    def moment(us, vs):
        return Fraction(sum(u * v for u, v in zip(us, vs)), m)

    vals = []
    for a, b in TYPE_PAIRS:
        xs, ys = x[a], y[b]
        mx, my = Fraction(sum(xs), m), Fraction(sum(ys), m)
        cov = moment(xs, ys) - mx * my
        var_x, var_y = moment(xs, xs) - mx ** 2, moment(ys, ys) - my ** 2
        r2 = cov ** 2 / (var_x * var_y)
        with localcontext() as ctx:
            ctx.prec = 40
            r = (Decimal(r2.numerator) / Decimal(r2.denominator)).sqrt()
        vals.append(math.copysign(float(r), cov))
    return AssortProfile(*vals)


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
        nu = degree_pair_dist(g)
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
        si = source_index(eta)
        ti = target_index(eta)
        # node 0 has pair (2,1) and sources two of the four edges
        assert eta.H[si[(2, 1)], ti[(1, 2)]] == pytest.approx(0.25)
        assert eta.row_masses()[si[(2, 1)]] == pytest.approx(0.5)


class TestEdgeMixChecks:
    def test_shape_must_match_the_pair_lists(self):
        with pytest.raises(ValueError, match=re.escape(
                "H shape (2, 1) does not match the pair lists (1 x 1)")):
            EdgeMixMatrix([(1, 0)], [(0, 1)], np.ones((2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_validate_rejects_non_finite_entries(self, bad):
        # nan slipped past the sign and mass tests, which compare false.
        eta = EdgeMixMatrix([(1, 0), (2, 0)], [(0, 1)], [[1.0], [bad]])
        with pytest.raises(ValueError,
                           match="^non-finite entry in edge mixing matrix$"):
            eta.validate()

    @pytest.mark.parametrize("pairs, H, message", [
        ([], np.zeros((0, 1)), "empty edge mixing matrix"),
        ([(1, 0), (2, 0)], [[1.5], [-0.5]],
         "negative entry -0.5 in edge mixing matrix"),
        ([(1, 0), (2, 0)], [[0.25], [0.25]],
         "edge mixing matrix mass 0.5 != 1"),
    ], ids=["empty", "negative", "mass"])
    def test_validate_names_the_violation(self, pairs, H, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EdgeMixMatrix(pairs, [(0, 1)], H).validate()


class TestEndDistributions:
    """_standardise: an edge end's degree means and sds, and its degrees
    centred and scaled by them."""

    def test_point_mass(self):
        for pair in ((2, 3), (5, 7)):
            Z, mean, sd = _standardise([pair], [1.0])
            assert mean.tolist() == list(pair)
            assert sd.tolist() == [0.0, 0.0]
            assert Z.tolist() == [[0.0, 0.0]]
        eta = EdgeMixMatrix([(2, 3)], [(5, 7)], np.array([[1.0]]))
        with pytest.raises(ValueError, match="degenerate"):
            assortativity(eta)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="^edge end carries no mass$"):
            _standardise([(1, 1), (2, 2)], [0.0, 0.0])

    def test_uniform_two_by_two(self):
        pairs = [(1, 1), (2, 2)]
        for mass in ([0.5, 0.5], [2.0, 2.0]):  # any positive total
            Z, mean, sd = _standardise(pairs, mass)
            assert mean.tolist() == [1.5, 1.5]
            assert sd.tolist() == [0.5, 0.5]
            assert Z.tolist() == [[-1.0, -1.0], [1.0, 1.0]]
        eta = EdgeMixMatrix(pairs, pairs, np.full((2, 2), 0.25))
        assert assortativity(eta).as_dict() == dict.fromkeys(
            ("r11", "r12", "r21", "r22"), 0.0)

    def test_source_marginal_matches_nu(self):
        # A source's out-degree i has mass i nu_ij / sum(i nu), so the
        # source end's mean out-degree is sum(i^2 nu) / sum(i nu), and so on.
        g = gen_er(150, 0.08, seed=12)
        eta = edge_mix_from_graph(g)
        _, mean, sd = _standardise(eta.source_pairs, eta.row_masses())
        nu = degree_pair_dist(g)
        total = sum(p[0] * v for p, v in nu.items())
        for col in (0, 1):
            m1 = sum(p[0] * p[col] * v for p, v in nu.items()) / total
            m2 = sum(p[0] * p[col] ** 2 * v for p, v in nu.items()) / total
            assert mean[col] == pytest.approx(m1, abs=1e-12)
            assert sd[col] == pytest.approx(np.sqrt(m2 - m1 * m1), abs=1e-10)


EXACT_GRAPHS = {
    "fixture": lambda: graph_from_pairs(3, FIXTURE_PAIRS),
    **{f"er60-{seed}": lambda seed=seed: gen_er(60, 0.1, seed=seed)
       for seed in range(5)},
    "dpa2e3": lambda: gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 2_000,
                                        seed=1)),
}


class TestExactOracle:
    """Every route to the coefficients against r worked out exactly."""

    @pytest.mark.parametrize("name", list(EXACT_GRAPHS))
    def test_routes_match_exact_r(self, name):
        g = EXACT_GRAPHS[name]()
        want = exact_profile(g)
        mix = edge_mix_from_graph(g)
        _, trace = rewire(g, mix, RewiringConfig(max_steps=1, seed=0))
        step0 = AssortProfile(*trace.checkpoints[0][1:5])
        for got in (assortativity_of_graph(g), assortativity(mix),
                    assortativity_from_edges(g), step0):
            assert got.max_abs_diff(want) <= 1e-12

    def test_sums_past_int64_stay_exact(self):
        # An out-hub and an in-hub of degree 7e4 put m Sxx past 2**63 for
        # the source out-degree and the target in-degree: the products must
        # not be taken in int64.  The graph's coefficients and the chain's
        # step-0 row must print as the rational moments do.
        hub, rng = 70_000, np.random.default_rng(1)
        src = np.concatenate(([0] * hub, np.arange(2, hub + 1),
                              rng.integers(2, hub + 1, 30_000)))
        dst = np.concatenate((np.arange(1, hub + 1), [1] * (hub - 1),
                              rng.integers(2, hub + 1, 30_000)))
        g = DirectedGraph.from_edges(hub + 1, src, dst)
        for deg, ends in ((g.out_deg, g.src), (g.in_deg, g.dst)):
            assert g.num_edges * sum(v * v for v in deg[ends].tolist()) > 2**63
        want = fraction_profile(g)
        _, trace = rewire(g, edge_mix_from_graph(g),
                          RewiringConfig(max_steps=1, seed=0))
        for got in (assortativity_of_graph(g),
                    AssortProfile(*trace.checkpoints[0][1:5])):
            for (a, b), val in zip(TYPE_PAIRS, want.as_dict().values()):
                assert f"{got.get(a, b):.12g}" == f"{val:.12g}"
                assert math.isclose(got.get(a, b), val, rel_tol=1e-15)


class TestAssortativity:
    def test_degenerate_ends_rejected(self):
        eta = edge_mix_from_graph(graph_from_pairs(2, [(0, 1), (1, 0)]))
        with pytest.raises(ValueError, match="degenerate"):
            assortativity(eta)

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError, match=(
                "^graph has no edges; assortativity undefined$")):
            assortativity_of_graph(DirectedGraph.from_edges(3, [], []))

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

    @pytest.mark.parametrize("model", ["er", "dpa"])
    def test_graph_route_needs_no_edge_mix(self, monkeypatch, model):
        # Integer sums over the edges and nodes give the Pearson over the
        # edges, light or heavy tailed, without the dense ns x nt edge mix.
        g = (gen_er(300, 0.05, seed=3) if model == "er" else
             gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 5_000, seed=2)))
        monkeypatch.setattr(ASSORTATIVITY, "edge_mix_from_graph",
                            lambda g: pytest.fail("built the edge mix"))
        got = assortativity_of_graph(g)
        assert got.max_abs_diff(assortativity_from_edges(g)) <= 1e-12

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
            perm[np.array([s for s, _ in edges(g)])],
            perm[np.array([t for _, t in edges(g)])],
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
        with pytest.raises(ValueError, match=re.escape(
                "no such coefficient: r(3,1)")):
            prof.get(3, 1)

    def test_max_abs_diff(self):
        a = AssortProfile(0.0, 0.0, 0.0, 0.0)
        b = AssortProfile(0.1, -0.2, 0.05, 0.0)
        assert a.max_abs_diff(b) == pytest.approx(0.2)


BAD_ETA_ROWS = [
    pytest.param("1,1,2,1,nan", "not finite", id="nan"),
    pytest.param("1,1,2,1,inf", "not finite", id="inf"),
    pytest.param("1,1,2,1,-0.5", "not finite", id="-0.5"),
    pytest.param("1,1,2,1,x", "not finite", id="eta-not-a-number"),
    pytest.param("x,1,2,1,0.5", "nonnegative integers", id="degree-x"),
    pytest.param("-1,1,2,1,0.5", "nonnegative integers",
                 id="degree-negative"),
    pytest.param("1,1,2.5,1,0.5", "nonnegative integers",
                 id="degree-fraction"),
    pytest.param("1,1,4294967297,1,0.5", "nonnegative integers below",
                 id="degree-beyond-pair-codes"),
    pytest.param("1,1,1,1,0.25", "duplicate entry", id="duplicate"),
    pytest.param("1,1,2,1", "expected 5 fields, got 4", id="short"),
]


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

    @pytest.mark.parametrize("row, why", BAD_ETA_ROWS)
    def test_bad_entry_rejected_with_its_line(self, tmp_path, row, why):
        path = tmp_path / "eta.csv"
        path.write_text(f"i,j,k,l,eta\n1,1,1,1,0.5\n{row}\n")
        with pytest.raises(ValueError, match=rf"eta\.csv:3: .*{why}"):
            read_eta_csv(path)

    @pytest.mark.parametrize("row, why", BAD_ETA_ROWS)
    def test_blank_lines_count_toward_the_line(self, tmp_path, row, why):
        path = tmp_path / "eta.csv"
        path.write_text(f"i,j,k,l,eta\n1,1,1,1,0.5\n\n{row}\n")
        with pytest.raises(ValueError, match=rf"eta\.csv:4: .*{why}"):
            read_eta_csv(path)

    @pytest.mark.parametrize("row, why", BAD_ETA_ROWS)
    def test_first_bad_row_of_many(self, tmp_path, row, why):
        # The bulk parser must name the first bad row however deep it sits,
        # ahead of a later row that is bad in another way.
        rows = [f"{i},{j},{k},1,0.001" for i in range(1, 11)
                for j in range(1, 11) for k in range(1, 21)]
        rows[0] = "1,1,1,1,0.5"
        rows[1500] = row
        rows[1800] = "1,2,3"
        path = tmp_path / "eta.csv"
        path.write_bytes(("i,j,k,l,eta\r\n" + "\r\n".join(rows)
                          + "\r\n").encode())
        with pytest.raises(ValueError, match=rf"eta\.csv:1502: .*{why}"):
            read_eta_csv(path)

    def test_repeated_cell_rejected(self, tmp_path):
        path = tmp_path / "eta.csv"
        path.write_text("i,j,k,l,eta\n1,1,1,1,0.5\n1,1,1,1,0.25\n"
                        "2,1,1,1,0.5\n")
        with pytest.raises(ValueError, match=r"eta\.csv:3: duplicate entry "
                                             r"1,1,1,1 \(first on line 2\)"):
            read_eta_csv(path)

    def test_repeated_cell_names_its_first_line(self, tmp_path):
        path = tmp_path / "eta.csv"
        path.write_text("i,j,k,l,eta\n1,1,1,1,0.5\n\n2,1,1,1,0.5\n"
                        "3,1,1,1,0.5\n2,1,1,1,0.25\n1,1,1,1,0.5\n")
        with pytest.raises(ValueError, match=r"eta\.csv:6: duplicate entry "
                                             r"2,1,1,1 \(first on line 4\)"):
            read_eta_csv(path)

    def test_csv_bytes(self, tmp_path):
        # Header, then "i,j,k,l,%.17g" rows in row-major order of H, CRLF
        # line ends; the zero cell is left out.
        eta = EdgeMixMatrix([(1, 0), (2, 3)], [(0, 1), (4, 2)],
                            np.array([[0.1, 0.0], [0.2, 0.7]]))
        path = tmp_path / "eta.csv"
        write_eta_csv(eta, path)
        assert path.read_bytes() == (
            b"i,j,k,l,eta\r\n"
            b"1,0,0,1,0.10000000000000001\r\n"
            b"2,3,0,1,0.20000000000000001\r\n"
            b"2,3,4,2,0.69999999999999996\r\n")
        back = read_eta_csv(path)
        assert back.source_pairs == eta.source_pairs
        assert back.target_pairs == eta.target_pairs
        np.testing.assert_array_equal(back.H, eta.H)


ASSORTATIVITY = importlib.import_module("didpr.assortativity")
GRAPH = importlib.import_module("didpr.graph")


def _bulk_only(monkeypatch):
    """Make the line scan fail, so a read must take the bulk path."""
    def no_scan(path):
        raise AssertionError(f"{path} went through the line scan")
    monkeypatch.setattr(GRAPH, "_lines", no_scan)


def _scanned(read, path, monkeypatch):
    """What read makes of path when the bulk pass turns every file back."""
    with monkeypatch.context() as patch:
        patch.setattr(GRAPH, "_bulk_table", lambda *args, **options: None)
        return read(path)


def _same_matrix(a, b):
    return (a.source_pairs == b.source_pairs
            and a.target_pairs == b.target_pairs
            and a.H.shape == b.H.shape
            and a.H.tobytes() == b.H.tobytes())


@pytest.fixture(scope="module")
def dpa_eta_csv(tmp_path_factory):
    """The eta CSV of DPA with 2e3 edges solved for (0.1, 0.15, 0.1, 0.15)."""
    g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 2_000, seed=1))
    eta = solve_target_eta(problem_from_graph(g),
                           AssortProfile(0.1, 0.15, 0.1, 0.15))
    path = tmp_path_factory.mktemp("eta") / "eta.csv"
    write_eta_csv(eta, path)
    return path, eta


def _spaced(row: bytes) -> bytes:
    return b" " + b" , ".join(row.split(b",")) + b"\t"


def _plus(row: bytes) -> bytes:
    return b",".join(field if field.startswith(b"-") else b"+" + field
                     for field in row.split(b","))


def _blank_lines(rows: list[bytes]) -> list[bytes]:
    out = []
    for i, row in enumerate(rows):
        out += [row, b""] if i % 50 == 0 else [row]
    return out


# Copies of a written CSV: (line end, rewrite of the row list, of a row).
CSV_VARIANTS = {
    "crlf": (b"\r\n", None, None),
    "lf": (b"\n", None, None),
    "cr": (b"\r", None, None),
    "blank-lines": (b"\r\n", _blank_lines, None),
    "blank-lines-cr": (b"\r", _blank_lines, None),
    "spaces": (b"\n", None, _spaced),
    "plus": (b"\r\n", None, _plus),
}


def _variant(source, path, variant):
    """Write to path the copy `variant` of the CRLF file source."""
    end, rewrite_rows, rewrite_row = CSV_VARIANTS[variant]
    header, *rows = source.read_bytes().split(b"\r\n")[:-1]
    if rewrite_row is not None:
        rows = [rewrite_row(row) for row in rows]
    if rewrite_rows is not None:
        rows = rewrite_rows(rows)
    path.write_bytes(end.join([header, *rows]) + end)


class TestEtaCsvReadPaths:
    def test_written_file_takes_the_bulk_path(self, dpa_eta_csv,
                                              monkeypatch):
        path, eta = dpa_eta_csv
        _bulk_only(monkeypatch)
        assert _same_matrix(read_eta_csv(path), eta)

    @pytest.mark.parametrize("variant", sorted(CSV_VARIANTS))
    def test_paths_agree(self, dpa_eta_csv, tmp_path, monkeypatch, variant):
        # The same pairs and the same H bits from both paths, and from the
        # matrix that was written.
        source, eta = dpa_eta_csv
        path = tmp_path / "eta.csv"
        _variant(source, path, variant)
        scanned = _scanned(read_eta_csv, path, monkeypatch)
        _bulk_only(monkeypatch)
        assert _same_matrix(read_eta_csv(path), scanned)
        assert _same_matrix(scanned, eta)

    def test_read_peaks_below_twice_the_parsed_rows(self, tmp_path):
        # 320 x 320 positive cells: 102,400 rows, parsed into 40 bytes each
        # (four int64 degrees and a float64).  The checks and H may take as
        # much again.  Checks that gave every row the first row of its cell,
        # with np.unique's inverses, peaked at three times the table.
        rng = np.random.default_rng(5)
        eta = EdgeMixMatrix([(i, 2 * i) for i in range(320)],
                            [(i, i + 1) for i in range(320)],
                            rng.random((320, 320)) + 0.5)
        path = tmp_path / "eta.csv"
        write_eta_csv(eta, path)
        read_eta_csv(path)  # whatever loads on first use loads here
        tracemalloc.start()
        try:
            back = read_eta_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _same_matrix(back, eta)
        assert peak <= 2 * 320 * 320 * 40

    @pytest.mark.parametrize("text, message", [
        pytest.param("i,j,k,l,eta\n1,1,1,1,0.5\n   \n2,1,1,1,0.5\n",
                     ":3: expected 5 fields, got 1", id="spaces-only"),
        pytest.param("\ufeffi,j,k,l,eta\n1,1,1,1,0.5\n",
                     ": expected header i,j,k,l,eta", id="bom"),
        pytest.param('i,j,k,l,eta\n"1",1,1,1,0.5\n',
                     ':2: degrees "1",1,1,1 are not all nonnegative '
                     'integers below 2**31', id="quoted"),
        pytest.param("i,j,k,l,eta\n1,1,1,1,0.5,\n",
                     ":2: expected 5 fields, got 6",
                     id="trailing-comma"),
        pytest.param("i,j,k,l,eta\r\n", ": no entries",
                     id="no-rows"),
    ])
    def test_files_the_bulk_path_turns_back(self, tmp_path, text, message):
        path = tmp_path / "eta.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                read_eta_csv(path)
        assert str(info.value) == f"{path}{message}"


def _same_rows(a, b):
    return (a.checkpoints == b.checkpoints
            and np.array(a.checkpoints).tobytes()
            == np.array(b.checkpoints).tobytes())


@pytest.fixture(scope="module")
def chain_trace_csv(tmp_path_factory):
    """The trace of a 20,000-step chain on ER (200, 0.05) toward its own
    mixing matrix, a row every 100 steps."""
    g = gen_er(200, 0.05, seed=3)
    _, trace = rewire(g, edge_mix_from_graph(g),
                      RewiringConfig(max_steps=20_000, checkpoint_every=100,
                                     seed=3))
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    trace.to_csv(path)
    return path


class TestTraceCsvReadPaths:
    def test_written_file_takes_the_bulk_path(self, chain_trace_csv,
                                              monkeypatch):
        want = _scanned(read_trace_csv, chain_trace_csv, monkeypatch)
        _bulk_only(monkeypatch)
        got = read_trace_csv(chain_trace_csv)
        assert len(got.checkpoints) == 201
        assert _same_rows(got, want)

    @pytest.mark.parametrize("variant", sorted(CSV_VARIANTS))
    def test_paths_agree(self, chain_trace_csv, tmp_path, monkeypatch,
                         variant):
        # The same rows, bit for bit, from both paths and from the file
        # that was written.
        path = tmp_path / "trace.csv"
        _variant(chain_trace_csv, path, variant)
        scanned = _scanned(read_trace_csv, path, monkeypatch)
        _bulk_only(monkeypatch)
        assert _same_rows(read_trace_csv(path), scanned)
        assert _same_rows(scanned, read_trace_csv(chain_trace_csv))

    @pytest.mark.parametrize("text, message", [
        pytest.param("step,r11,r12,r21,r22,acc_rate\n0,0.1,0.2,0.3,0.4,0\n"
                     "   \n100,0.1,0.2,0.3,0.4,0.5\n",
                     ":3: expected 6 fields, got 1", id="spaces-only"),
        pytest.param("step,r11,r12,r21,r22,acc_rate\n0,0.1,0.2,0.3,0.4,0,\n",
                     ":2: expected 6 fields, got 7", id="trailing-comma"),
    ])
    def test_files_the_bulk_path_turns_back(self, tmp_path, text, message):
        path = tmp_path / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                read_trace_csv(path)
        assert str(info.value) == f"{path}{message}"
