"""Graph storage, degree bookkeeping, the swap move, and file IO."""
import warnings

import numpy as np
import pytest
from scipy import stats

from didpr import graph as graph_module
from didpr.assortativity import edge_mix_from_graph
from didpr.generate import DpaParams, gen_dpa, gen_er
from didpr.graph import (
    DirectedGraph,
    GraphFormatError,
    degree_pair_dist,
    read_edge_list,
    write_edge_list,
)
from didpr.rewire import RewiringConfig, rewire_with_scenario_gains

from edge_list_reference import reference_read_edge_labels, reference_read_edge_list
from graph_helpers import copy_graph, degrees_consistent, edges, marginal_out


def sample_edge_pair(g: DirectedGraph, rng: np.random.Generator) -> tuple[int, int]:
    """Draw two distinct edge indices uniformly at random.

    Reference form of the rewiring chain's proposal, which draws the same
    pair law in blocks (didpr.rewire._run_chain).  Requires two edges.
    """
    m = g.num_edges
    if m < 2:
        raise ValueError("need at least two edges to sample a pair")
    e1 = int(rng.integers(m))
    e2 = int(rng.integers(m - 1))
    if e2 >= e1:
        e2 += 1
    return e1, e2


def swap_edges(g: DirectedGraph, e1: int, e2: int) -> None:
    """Exchange the targets of edges e1 and e2 in place.

    Reference form of the chain's move: (v1, v2), (v3, v4) become
    (v1, v4), (v3, v2), and no degree changes.
    """
    m = g.num_edges
    if e1 == e2:
        raise ValueError("swap requires two distinct edge indices")
    if not (0 <= e1 < m and 0 <= e2 < m):
        raise ValueError(f"edge index out of range: ({e1}, {e2}) with {m} edges")
    d = g.dst
    d[e1], d[e2] = d[e2], d[e1]


def graph_from_pairs(num_nodes, pairs, labels=None):
    src = [s for s, _ in pairs]
    dst = [t for _, t in pairs]
    return DirectedGraph.from_edges(num_nodes, src, dst, edge_labels=labels)


class TestDirectedGraph:
    def test_degrees_recomputed_from_edges(self):
        g = graph_from_pairs(4, [(0, 1), (0, 2), (2, 2), (3, 0)])
        assert g.out_deg.tolist() == [2, 0, 1, 1]
        assert g.in_deg.tolist() == [1, 1, 2, 0]
        assert g.num_edges == 4
        assert degrees_consistent(g)

    def test_degree_sums_match_edge_count(self):
        g = gen_er(50, 0.2, seed=3)
        assert int(g.out_deg.sum()) == g.num_edges
        assert int(g.in_deg.sum()) == g.num_edges

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            graph_from_pairs(2, [(0, 5)])
        with pytest.raises(ValueError):
            graph_from_pairs(2, [(-1, 0)])

    def test_long_label_is_rejected_not_cut(self):
        # Cut to one character, "bogus" would read as b and count as beta.
        with pytest.raises(ValueError,
                           match="edge label 'alpha' is longer than one"):
            graph_from_pairs(3, [(0, 1), (1, 2), (2, 0)],
                             labels=["alpha", "bogus", "gamma"])
        g = graph_from_pairs(3, [(0, 1), (1, 2), (2, 0)],
                             labels=np.array(["a", "", "g"], dtype="U5"))
        assert g.edge_labels.dtype == np.dtype("U1")
        assert g.edge_labels.tolist() == ["a", "", "g"]

    def test_copy_is_independent(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        h = copy_graph(g)
        swap_edges(h, 0, 1)
        assert edges(g) == [(0, 1), (1, 2)]
        assert edges(h) != edges(g)

    def test_with_targets_owns_only_dst(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2), (2, 0)],
                             labels=["a", "b", "g"])
        dst = np.array([2, 0, 1])
        h = g.with_targets(dst)
        assert h.dst is dst and h.num_nodes == 3
        assert edges(h) == [(0, 2), (1, 0), (2, 1)]
        for name in ("src", "out_deg", "in_deg", "edge_labels"):
            view = getattr(h, name)
            assert np.shares_memory(view, getattr(g, name))
            assert not view.flags.writeable
        assert edges(g) == [(0, 1), (1, 2), (2, 0)]
        assert graph_from_pairs(2, [(0, 1)]).with_targets([0]).edge_labels \
            is None
        with pytest.raises(ValueError, match="one target per edge"):
            g.with_targets([0, 1])


class TestDegreePairDist:
    def test_single_edge_two_nodes(self):
        g = graph_from_pairs(2, [(0, 1)])
        nu = degree_pair_dist(g)
        assert nu.entries == {(1, 0): 0.5, (0, 1): 0.5}

    def test_regular_circulant_point_mass(self):
        # node i points to i+1 and i+2 (mod 6): out = in = 2 everywhere
        n = 6
        pairs = [(i, (i + k) % n) for i in range(n) for k in (1, 2)]
        nu = degree_pair_dist(graph_from_pairs(n, pairs))
        assert nu.entries == {(2, 2): 1.0}

    def test_entries_sum_to_one_and_count_isolated_nodes(self):
        g = graph_from_pairs(5, [(0, 1)])  # nodes 2..4 isolated
        nu = degree_pair_dist(g)
        assert nu.entries[(0, 0)] == pytest.approx(3 / 5)
        assert sum(nu.entries.values()) == pytest.approx(1.0, abs=1e-12)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty graph"):
            degree_pair_dist(DirectedGraph.from_edges(0, [], []))

    def test_er_out_marginal_binomial(self):
        # Each node draws n Bernoulli(p) targets (self included), so the
        # out-degree marginal is Binomial(n, p).  Checked per bin at three
        # standard deviations, restricted to bins expecting at least five
        # nodes so the normal approximation is meaningful.
        n, p = 1000, 0.1
        g = gen_er(n, p, seed=42)
        marg = marginal_out(degree_pair_dist(g))
        checked = 0
        for d in range(n + 1):
            pmf = stats.binom.pmf(d, n, p)
            expected = n * pmf
            if expected < 5.0:
                continue
            checked += 1
            observed = n * marg.get(d, 0.0)
            sd = np.sqrt(n * pmf * (1.0 - pmf))
            assert abs(observed - expected) <= 3.0 * sd, f"degree bin {d}"
        assert checked > 30


class TestSampleEdgePair:
    def test_two_edges_forced(self):
        g = graph_from_pairs(2, [(0, 1), (1, 0)])
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert sorted(sample_edge_pair(g, rng)) == [0, 1]

    def test_distinct_indices(self):
        g = gen_er(20, 0.2, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(500):
            e1, e2 = sample_edge_pair(g, rng)
            assert e1 != e2
            assert 0 <= e1 < g.num_edges
            assert 0 <= e2 < g.num_edges

    def test_uniform_over_unordered_pairs(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        rng = np.random.default_rng(0)
        draws = 100_000
        freq: dict = {}
        for _ in range(draws):
            key = tuple(sorted(sample_edge_pair(g, rng)))
            freq[key] = freq.get(key, 0) + 1
        assert len(freq) == 6
        for count in freq.values():
            assert abs(count / draws - 1 / 6) < 0.01

    def test_single_edge_rejected(self):
        g = graph_from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError):
            sample_edge_pair(g, np.random.default_rng(0))


class TestSwapEdges:
    def test_targets_exchange(self):
        g = graph_from_pairs(4, [(0, 1), (2, 3)])
        swap_edges(g, 0, 1)
        assert edges(g) == [(0, 3), (2, 1)]

    def test_shared_target_is_identity(self):
        g = graph_from_pairs(3, [(0, 1), (2, 1)])
        swap_edges(g, 0, 1)
        assert sorted(edges(g)) == [(0, 1), (2, 1)]

    def test_degrees_bit_identical(self):
        g = gen_er(30, 0.2, seed=9)
        out0, in0 = g.out_deg.copy(), g.in_deg.copy()
        rng = np.random.default_rng(4)
        for _ in range(200):
            e1, e2 = sample_edge_pair(g, rng)
            swap_edges(g, e1, e2)
        assert np.array_equal(g.out_deg, out0)
        assert np.array_equal(g.in_deg, in0)
        assert degrees_consistent(g)

    def test_nu_invariant_under_swaps(self):
        g = gen_er(30, 0.2, seed=10)
        nu0 = degree_pair_dist(g)
        rng = np.random.default_rng(5)
        for _ in range(100):
            swap_edges(g, *sample_edge_pair(g, rng))
        assert degree_pair_dist(g).entries == nu0.entries

    def test_same_index_rejected(self):
        g = graph_from_pairs(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            swap_edges(g, 1, 1)

    def test_out_of_range_rejected(self):
        g = graph_from_pairs(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            swap_edges(g, 0, 2)


class TestEdgeListIO:
    def test_plain_two_edges(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_nodes == 3
        assert edges(g) == [(0, 1), (1, 2)]

    def test_comment_and_self_loop(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("% comment\n0 0\n")
        g = read_edge_list(path)
        assert g.num_nodes == 1
        assert edges(g) == [(0, 0)]

    def test_nodes_header_preserves_isolated(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nodes=5\n0 1\n")
        assert read_edge_list(path).num_nodes == 5

    def test_blank_and_comment_lines_count_toward_line_numbers(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# nodes=3\n0 1\n\n0 x\n")
        with pytest.raises(GraphFormatError, match=r"bad\.txt:4"):
            read_edge_list(path)

    @pytest.mark.parametrize("bad_row, why", [
        pytest.param("0", "expected 'src dst'", id="one-field"),
        pytest.param("0 1 2", "expected 'src dst'", id="three-fields"),
        pytest.param("0 1 # note", "expected 'src dst'", id="inline-comment"),
        pytest.param("0 1.5", "non-integer", id="fraction"),
        pytest.param("-1 2", "negative", id="negative"),
    ])
    def test_first_bad_line_of_many(self, tmp_path, bad_row, why):
        # The bulk parser must name the first bad line however deep it sits,
        # before later bad lines and after comment, blank and CRLF lines.
        rows = [f"{v} {(v * 7) % 500}" for v in range(2000)]
        rows[1234] = bad_row
        rows[1700] = "x y"
        path = tmp_path / "bad.txt"
        path.write_bytes(("# nodes=500\r\n% note\r\n\r\n"
                          + "\r\n".join(rows) + "\r\n").encode())
        with pytest.raises(GraphFormatError, match=rf"bad\.txt:1238: {why}"):
            read_edge_list(path)

    def test_bad_node_header_before_bad_row_is_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n# nodes=x\n0\n")
        with pytest.raises(GraphFormatError, match=r"bad\.txt:2: bad node-count"):
            read_edge_list(path)

    def test_crlf_comments_and_spacing_accepted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"# nodes=6\r\n  0\t 1 \r\n\r\n% c\r\n5  2\r\n")
        g = read_edge_list(path)
        assert g.num_nodes == 6
        assert edges(g) == [(0, 1), (5, 2)]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n0\n")
        with pytest.raises(GraphFormatError, match=r"bad\.txt:2"):
            read_edge_list(path)

    def test_non_integer_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 x\n")
        with pytest.raises(GraphFormatError, match=r":1"):
            read_edge_list(path)

    def test_negative_id(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n-1 2\n")
        with pytest.raises(GraphFormatError, match=r":2"):
            read_edge_list(path)

    def test_declared_node_count_too_small(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# nodes=2\n0 5\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_round_trip(self, tmp_path):
        g = gen_er(40, 0.1, seed=6)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert "# nodes=40" in path.read_text().splitlines()[0]
        h = read_edge_list(path)
        assert h.num_nodes == g.num_nodes
        assert edges(h) == edges(g)
        assert np.array_equal(h.out_deg, g.out_deg)

    def test_edge_list_bytes(self, tmp_path):
        # Header, then one "src<TAB>dst<LF>" line per edge in storage order.
        g = graph_from_pairs(12, [(10, 2), (0, 11), (11, 11)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert path.read_bytes() == b"# nodes=12\n10\t2\n0\t11\n11\t11\n"

    def test_edge_list_bytes_across_node_counts(self, tmp_path):
        # The id strings of the last node count are kept between writes;
        # a write with another count must not reuse them.
        small = graph_from_pairs(3, [(2, 0)])
        large = graph_from_pairs(12, [(11, 2), (10, 10)])
        want = {3: b"# nodes=3\n2\t0\n", 12: b"# nodes=12\n11\t2\n10\t10\n"}
        for k, g in enumerate([small, large, large, small, large]):
            path = tmp_path / f"g{k}.txt"
            write_edge_list(g, path)
            assert path.read_bytes() == want[g.num_nodes]

    def test_empty_edge_list_bytes(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(graph_from_pairs(3, []), path)
        assert path.read_bytes() == b"# nodes=3\n"
        assert read_edge_list(path).num_nodes == 3

    def test_label_sidecar_bytes(self, tmp_path):
        labels = np.array(["a", "b", "g", "b"])
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)], labels)
        write_edge_list(g, tmp_path / "g.txt")
        assert (tmp_path / "g.txt.labels").read_bytes() == b"a\nb\ng\nb\n"

    def test_unknown_label_names_its_line(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(graph_from_pairs(3, [(0, 1), (1, 2), (2, 0)]), path)
        (tmp_path / "g.txt.labels").write_text("a\n\nb\nz\n")
        with pytest.raises(GraphFormatError,
                           match=r"g\.txt\.labels:4: unknown"):
            read_edge_list(path)

    def test_label_sidecar_round_trip(self, tmp_path):
        labels = np.array(["a", "b", "g", "b"])
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)], labels)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path).edge_labels.tolist() == labels.tolist()

    def test_label_count_mismatch(self, tmp_path):
        path = tmp_path / "g.labels"
        path.write_text("a\nb\n")
        with pytest.raises(GraphFormatError):
            graph_module._read_edge_labels(path, 3)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(graph_from_pairs(2, [(0, 1), (1, 0)]), path)
        (tmp_path / "g.txt.labels").write_text("a\nz\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    @pytest.mark.parametrize("text", [
        pytest.param("# nodes=99999999999999999999\n0 1\n", id="plain"),
        pytest.param("% note\r\n# nodes=99999999999999999999\r\n0 1\r\n",
                     id="scanned"),
    ])
    def test_node_count_beyond_int64_names_its_line(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode())
        line = text.replace("\r\n", "\n").split("\n").index(
            "# nodes=99999999999999999999") + 1
        with pytest.raises(GraphFormatError, match=rf"g\.txt:{line}: node "
                           r"count 99999999999999999999 does not fit in "
                           r"int64"):
            read_edge_list(path)


class TestLabelSidecar:
    """read_edge_list and write_edge_list carry "<path>.labels" with the
    edge list: a graph file is both files."""

    def test_labels_survive_a_round_trip(self, tmp_path):
        g = gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0, 2000, seed=1))
        path = tmp_path / "lab.txt"
        write_edge_list(g, path)
        assert (tmp_path / "lab.txt.labels").read_text() == "".join(
            f"{code}\n" for code in g.edge_labels.tolist())
        back = read_edge_list(path)
        assert back.edge_labels.tolist() == g.edge_labels.tolist()
        # The gains chain runs on the graph read back, as on the original.
        eta = edge_mix_from_graph(g)
        cfg = RewiringConfig(max_steps=2000, seed=2)
        gains = [rewire_with_scenario_gains(h, eta, cfg)[2] for h in (g, back)]
        assert gains[0].counts == gains[1].counts
        assert sum(gains[1].counts.values()) > 0

    def test_unlabelled_write_removes_the_sidecar(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(graph_from_pairs(3, [(0, 1), (1, 2)], ["a", "g"]),
                        path)
        assert (tmp_path / "g.txt.labels").exists()
        write_edge_list(graph_from_pairs(3, [(2, 0)]), path)
        assert not (tmp_path / "g.txt.labels").exists()
        back = read_edge_list(path)
        assert back.edge_labels is None
        assert edges(back) == [(2, 0)]

    def test_sidecar_of_another_size_is_named(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(graph_from_pairs(3, [(0, 1), (1, 2), (2, 0)]), path)
        (tmp_path / "g.txt.labels").write_text("a\nb\n")
        with pytest.raises(GraphFormatError,
                           match=r"g\.txt\.labels: 2 labels for 3 edges"):
            read_edge_list(path)


def read_outcome(read, path, *args):
    """What a reader makes of a file: the graph's node count and edges, the
    labels, or the type and text of the error it raises.  A warning that
    escapes the reader counts as part of the outcome."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = read(path, *args)
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            got = (type(exc).__name__, str(exc))
        else:
            got = (got.tolist() if isinstance(got, np.ndarray)
                   else (got.num_nodes, got.src.tolist(), got.dst.tolist()))
    return got, [str(w.message) for w in caught]


# (file bytes, what the file exercises): each must read as the line scan of
# tests/edge_list_reference.py reads it, value or error text.
EDGE_LIST_CASES = [
    (b"# nodes=5\n0 1\n2 3\n", "LF"),
    (b"# nodes=5\r\n0 1\r\n2 3\r\n", "CRLF"),
    (b"# nodes=5\r0 1\r2 3\r", "CR"),
    (b"# nodes=5\r0 1\n# nodes=7\r2 3\n", "CR inside an LF file"),
    (b"0 1\n\n   \n\t\n2 3\n", "blank and space-only lines"),
    (b"\t0\t+1 \n+2  \t3\n", "tabs and plus signs"),
    (b"# nodes=9\n0 1\n", "header first"),
    (b"# nodes=9\n0 1\n# nodes=4\n2 3\n", "header repeated"),
    (b"0 1\n2 3\n# nodes=6\n", "header after the data"),
    (b"0 1\n2 3\n# nodes=6", "header ends the file without LF"),
    (b"# nodes=2\n0 5\n", "header below the largest id"),
    (b"#nodes= +0_7 \n0 1\n", "header int() accepts"),
    (b"# nodes = 3\n# comment\n#\n0 4\n", "not a header"),
    (b"# nodes=x\n0 1\n", "unparsable header"),
    (b"# nodes=x\n0\n", "unparsable header before a bad row"),
    (b"0\n# nodes=x\n", "unparsable header after a bad row"),
    (b"# nodes=-3\n0 1\n", "negative header"),
    (b"# nodes=-3\n0 1 2\n", "negative header before a bad row"),
    (b"# nodes=-3\n# nodes=5\n0 1\n", "negative header before a good one"),
    (b"-4 1\n# nodes=-3\n", "negative header after a bad row"),
    (b"0 1\n  # nodes=9\n", "indented header"),
    (b"% nodes=9\n0 1\n", "percent comment"),
    (b"# nodes=5\r\n% c\r\n0 1\r\n", "percent comment, CRLF"),
    (b"0 1 # note\n2 3\n", "hash after the data"),
    (b"0 1\n2\n3 4\n", "row with one field"),
    (b"0 1\n2 3 4\n", "row with three fields"),
    (b"0 1 2\n3 4 5\n", "every row with three fields"),
    (b"0 1\n-1 2\n", "negative id"),
    (b"0 1\n1 2.5\n", "non-integer"),
    (b"0 1\n1 99999999999999999999\n", "id beyond int64"),
    (b"0\xc2\xa01\n", "non-ASCII space"),
    (b"0\x0b1\n2\x1c3\n", "ASCII whitespace controls"),
    (b"0 1\x00\n", "NUL byte"),
    (b"", "empty file"),
    (b"# nodes=4\n# more\n", "comments only"),
    (b"# just a note\n", "comments only, no header"),
    (b"\n\n", "blank lines only"),
]

LABEL_CASES = [
    (b"a\nb\ng\n", 3, "plain"),
    (b"a\n\nb\n\ng\n", 3, "blank lines"),
    (b"a b\ng\n", 3, "two codes on one line"),
    (b"ab\ng\n", 2, "two codes run together"),
    (b"a\nz\ng\n", 3, "unknown code"),
    (b"a\nb\n", 3, "too few codes"),
    (b"a\nb\ng\na\n", 3, "too many codes"),
    (b"a\r\n b\t\ng", 3, "CRLF, spaces, no final LF"),
    (b"", 0, "empty for no edges"),
]


class TestReadersMatchLineScan:
    """Differential test against the frozen line scan."""

    @pytest.mark.parametrize("data", [c[0] for c in EDGE_LIST_CASES],
                             ids=[c[1] for c in EDGE_LIST_CASES])
    def test_edge_list(self, tmp_path, data):
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        got, leaked = read_outcome(read_edge_list, path)
        want, _ = read_outcome(reference_read_edge_list, path)
        assert got == want
        assert leaked == []

    @pytest.mark.parametrize("data, num_edges", [c[:2] for c in LABEL_CASES],
                             ids=[c[2] for c in LABEL_CASES])
    def test_label_sidecar(self, tmp_path, data, num_edges):
        path = tmp_path / "g.txt.labels"
        path.write_bytes(data)
        got, leaked = read_outcome(graph_module._read_edge_labels, path,
                                   num_edges)
        want, _ = read_outcome(reference_read_edge_labels, path, num_edges)
        assert got == want
        assert leaked == []

    @pytest.mark.parametrize("name", ["g.txt.gz", "g.bz2", "g.xz"])
    def test_name_with_a_compressor_ending(self, tmp_path, name):
        # np.loadtxt opens such names through a decompressor; the file is
        # plain text all the same, and must read as the line scan reads it.
        path = tmp_path / name
        path.write_bytes(b"# nodes=4\n0 1\n2 3\n")
        assert read_outcome(read_edge_list, path) == (
            read_outcome(reference_read_edge_list, path))
        assert read_outcome(read_edge_list, path)[0] == (4, [0, 2], [1, 3])

    def test_random_files(self, tmp_path):
        # Mostly good rows and headers, with junk tokens, comment marks and
        # mixed line ends between them, so both paths and every error kind
        # come up.
        rng = np.random.default_rng(22)
        junk = ["x", "1.5", "-2", "+3", "#", "%", " ", "\t", "\x0b", "\x1c",
                "\xa0", "nodes=", "# nodes=", "# nodes=-1", "7 8 9", ""]
        ends = ["\n", "\n", "\n", "\r\n", "\r"]
        kinds = {"bulk": 0, "scan": 0}
        for k in range(400):
            lines = []
            for _ in range(rng.integers(0, 7)):
                u = rng.random()
                if u < 0.6:
                    line = f"{rng.integers(0, 9)} {rng.integers(0, 9)}"
                elif u < 0.75:
                    line = f"# nodes={rng.integers(0, 12)}"
                else:
                    line = "".join(rng.choice(junk, rng.integers(1, 4)))
                lines.append(line + rng.choice(ends))
            path = tmp_path / f"g{k}.txt"
            path.write_bytes("".join(lines).encode())
            got, leaked = read_outcome(read_edge_list, path)
            want, _ = read_outcome(reference_read_edge_list, path)
            assert got == want, path.read_bytes()
            assert leaked == []
            kinds["bulk" if graph_module._plain(path.read_bytes())
                  else "scan"] += 1
        assert min(kinds.values()) > 50


class TestWrittenFilesSkipLineScan:
    """Every file the writers make is plain, so reading it back never
    reaches the line scan, which is several times slower."""

    @pytest.fixture(autouse=True)
    def no_line_scan(self, monkeypatch):
        def scan(*args):
            raise AssertionError("line scan reached")
        monkeypatch.setattr(graph_module, "_scan_edge_list", scan)
        monkeypatch.setattr(graph_module, "_scan_edge_labels", scan)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: gen_dpa(DpaParams(0.3, 0.4, 0.3, 1.0, 1.0,
                                               20_000, seed=1)), id="dpa-2e4"),
        pytest.param(lambda: gen_er(1000, 0.1, seed=1), id="er-1000"),
        pytest.param(lambda: graph_from_pairs(7, []), id="edgeless"),
    ])
    def test_round_trip(self, tmp_path, make):
        g = make()
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        h = read_edge_list(path)
        assert h.num_nodes == g.num_nodes
        assert np.array_equal(h.src, g.src) and np.array_equal(h.dst, g.dst)
        if g.edge_labels is None:
            assert h.edge_labels is None
        else:
            assert h.edge_labels.tolist() == g.edge_labels.tolist()
