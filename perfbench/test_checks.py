"""Tests of the benchmark's output checkers on toy outputs worked out by hand.

Each checker must accept a correct output and reject one perturbed in the
way the benchmark guards against.  Run with `python -m pytest perfbench`.
"""
import json

import numpy as np
import pytest

import checks
from checks import PAIRS, CheckError

# 0->1, 0->2, 1->2.  Out-degrees (2, 1, 0), in-degrees (0, 1, 2).  Over the
# three edges the source out-degrees are (2, 2, 1) and the target
# out-degrees (1, 0, 0): means 5/3 and 1/3, covariance 1/9, both variances
# 2/9, so r11 = 1/2.  The same sums give r12 = r21 = -1/2 and r22 = 1/2.
TOY = [(0, 1), (0, 2), (1, 2)]
TOY_R = {(1, 1): 0.5, (1, 2): -0.5, (2, 1): -0.5, (2, 2): 0.5}

# A five-edge graph and the result of swapping the targets of its edges 3
# and 4: (2, 0), (3, 1) -> (2, 1), (3, 0).  Every degree is kept.
BEFORE = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 1)]
AFTER = [(0, 1), (0, 2), (1, 2), (2, 1), (3, 0)]


def write_edges(path, edges, n):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes={n}\n")
        for u, v in edges:
            fh.write(f"{u}\t{v}\n")
    return path


def write_trace(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,r11,r12,r21,r22,acc_rate\n")
        for step, r in rows:
            vals = ",".join(f"{r[p]:.12g}" for p in PAIRS)
            fh.write(f"{step},{vals},0.5\n")
    return path


def test_toy_coefficients_match_hand_computation(tmp_path):
    n, src, dst = checks.read_edges(write_edges(tmp_path / "g.txt", TOY, 3))
    deg = checks.degrees(n, src, dst)
    assert deg[1].tolist() == [2, 1, 0]
    assert deg[2].tolist() == [0, 1, 2]
    r = checks.coefficients(n, src, dst)
    for p in PAIRS:
        assert r[p] == pytest.approx(TOY_R[p], abs=1e-12)


def test_graph_check_rejects_misreported_coefficient(tmp_path):
    path = write_edges(tmp_path / "g.txt", TOY, 3)
    graph = checks.read_edges(path)
    reported = {f"r{a}{b}": TOY_R[(a, b)] for a, b in PAIRS}
    checks.check_graph(path, graph, 3, 3, reported)
    with pytest.raises(CheckError, match="r12"):
        checks.check_graph(path, graph, 3, 3, {**reported, "r12": -0.4})
    with pytest.raises(CheckError, match="edges"):
        checks.check_graph(path, graph, 3, 4, reported)


def test_bounds_check_rejects_row_excluding_target():
    rows = [
        {"conditioned_pair": "", "conditioned_value": "", "pair": "11",
         "lower": "-0.8", "upper": "0.7"},
        {"conditioned_pair": "11", "conditioned_value": "0.1", "pair": "22",
         "lower": "-0.1", "upper": "0.12"},
    ]
    checks.check_bounds(rows, "11", [0.6, 0.0])
    with pytest.raises(CheckError, match="exclude 0.75"):
        checks.check_bounds(rows, "11", [0.75])
    checks.check_bounds(rows, "22", [0.1], conditioned=("11", 0.1))
    with pytest.raises(CheckError, match="exclude 0.15"):
        checks.check_bounds(rows, "22", [0.15], conditioned=("11", 0.1))
    with pytest.raises(CheckError, match="inside"):
        checks.check_bounds([{**rows[0], "upper": "1.2"}], "11", [])


def test_rewired_check_accepts_swap_and_rejects_moved_degree(tmp_path):
    before = checks.read_edges(write_edges(tmp_path / "b.txt", BEFORE, 4))
    after_path = write_edges(tmp_path / "a.txt", AFTER, 4)
    r0 = checks.coefficients(*before)
    r1 = checks.coefficients(*checks.read_edges(after_path))
    assert checks.max_gap(r0, r1) > 0.02
    trace = write_trace(tmp_path / "t.csv", [(0, r0), (10, r1)])
    checks.check_rewired(before, after_path, trace, r1, 0.02, 10)
    with pytest.raises(CheckError, match="first row within tolerance"):
        checks.check_rewired(before, after_path, trace, r1, 0.02, 0)

    moved = [(0, 0)] + AFTER[1:]        # node 1 loses an in-edge to node 0
    moved_path = write_edges(tmp_path / "m.txt", moved, 4)
    with pytest.raises(CheckError, match="in-degree of node 0"):
        checks.check_rewired(before, moved_path, trace, r1, 0.02, 10)


def test_rewired_check_rejects_final_graph_off_target(tmp_path):
    before = checks.read_edges(write_edges(tmp_path / "b.txt", BEFORE, 4))
    after_path = write_edges(tmp_path / "a.txt", AFTER, 4)
    r1 = checks.coefficients(*checks.read_edges(after_path))
    far = {p: v + 0.05 for p, v in r1.items()}
    trace = write_trace(tmp_path / "t.csv", [(0, far), (10, r1)])
    with pytest.raises(CheckError, match="from the targets"):
        checks.check_rewired(before, after_path, trace, far, 0.02, 0)


def write_gains(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("replicate,scenario_pair,count,d_r11,d_r12,d_r21,d_r22\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return path


GAINS = [
    (0, "alpha-alpha", 3, 0.01, 0.02, 0.0, -0.01),
    (0, "alpha-beta", 5, 0.03, 0.01, 0.02, 0.04),
    (0, "total", 8, 0.04, 0.03, 0.02, 0.03),
]


def test_gains_check_rejects_table_that_does_not_telescope(tmp_path):
    checks.check_gains(write_gains(tmp_path / "g.csv", GAINS), 1)
    broken = GAINS[:1] + [(0, "alpha-beta", 5, 0.03, 0.01, 0.025, 0.04)] + GAINS[2:]
    with pytest.raises(CheckError, match="d_r21"):
        checks.check_gains(write_gains(tmp_path / "b.csv", broken), 1)
    short = GAINS[:2] + [(0, "total", 9, 0.04, 0.03, 0.02, 0.03)]
    with pytest.raises(CheckError, match="count"):
        checks.check_gains(write_gains(tmp_path / "c.csv", short), 1)


def test_tail_index_formula_by_hand():
    # (0.3, 0.4, 0.3), offsets 1: (1 + 0.6) / 0.7 on both sides.
    assert checks.tail_indices(0.3, 0.4, 0.3, 1.0, 1.0) == pytest.approx(
        (16 / 7, 16 / 7), rel=1e-15)
    # beta + gamma = 0.7, alpha + beta = 0.5, alpha + gamma = 0.8.
    assert checks.tail_indices(0.3, 0.2, 0.5, 2.0, 0.5) == pytest.approx(
        (2.6 / 0.7, 1.4 / 0.5), rel=1e-15)


def test_fit_check_rejects_inconsistent_fit(tmp_path):
    fit = {"alpha_hat": 0.3, "beta_hat": 0.4, "gamma_hat": 0.3,
           "delta_in_hat": 1.0, "delta_out_hat": 1.0,
           "iota1_hat": 16 / 7, "iota2_hat": 16 / 7}
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(fit))
    checks.check_fit(path, nodes=600, edges=1000)
    with pytest.raises(CheckError, match="1 - 700/1000"):
        checks.check_fit(path, nodes=700, edges=1000)
    path.write_text(json.dumps({**fit, "iota1_hat": 2.3}))
    with pytest.raises(CheckError, match="iota1"):
        checks.check_fit(path, nodes=600, edges=1000)
    path.write_text(json.dumps({**fit, "gamma_hat": 0.31}))
    with pytest.raises(CheckError, match="alpha"):
        checks.check_fit(path, nodes=600, edges=1000)


def write_eta(path, graph, bump=0.0):
    """The graph's own edge mixing matrix, with `bump` moved between the
    first two cells."""
    n, src, dst = graph
    deg = checks.degrees(n, src, dst)
    cells = {}
    for u, v in zip(src.tolist(), dst.tolist()):
        key = (deg[1][u], deg[2][u], deg[1][v], deg[2][v])
        cells[key] = cells.get(key, 0.0) + 1.0 / src.size
    rows = sorted(cells.items())
    rows[0] = (rows[0][0], rows[0][1] + bump)
    rows[1] = (rows[1][0], rows[1][1] - bump)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,k,l,eta\n")
        for (i, j, k, l), w in rows:
            fh.write(f"{i},{j},{k},{l},{w:.17g}\n")
    return path


def test_eta_check_rejects_wrong_masses_and_coefficients(tmp_path):
    graph = checks.read_edges(write_edges(tmp_path / "g.txt", BEFORE, 4))
    r = checks.coefficients(*graph)
    good = write_eta(tmp_path / "eta.csv", graph)
    checks.check_eta(good, *graph, r)
    with pytest.raises(CheckError, match="r11"):
        checks.check_eta(good, *graph, {**r, (1, 1): r[(1, 1)] + 1e-4})
    moved = write_eta(tmp_path / "moved.csv", graph, bump=0.01)
    with pytest.raises(CheckError, match="masses"):
        checks.check_eta(moved, *graph, r)


def test_first_step_within():
    t = np.array([[0, 0.0, 0.0, 0.0, 0.0, 0.0],
                  [10, 0.5, 0.5, 0.5, 0.5, 0.3],
                  [20, 0.59, 0.49, 0.5, 0.5, 0.3],
                  [30, 0.6, 0.5, 0.5, 0.5, 0.3]])
    target = {p: 0.5 for p in PAIRS}
    assert checks.first_step_within(t, target, 0.02) == 10
    assert checks.first_step_within(t, {**target, (1, 1): 0.6}, 0.02) == 20
    assert checks.first_step_within(t, {p: 0.9 for p in PAIRS}, 0.02) is None
