"""End-to-end runs of the subcommands that go through the eta solver."""
import csv
import json
import re

import numpy as np
import pytest

from didpr import cli
from didpr.assortativity import (
    AssortProfile,
    assortativity,
    assortativity_from_edges,
    read_eta_csv,
)
from didpr.graph import degree_pair_dist, read_edge_list
from didpr.rewire import read_trace_csv, rewire

TARGETS = AssortProfile(0.1, 0.1, 0.1, 0.1)


@pytest.fixture(scope="module")
def er_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "er.txt"
    code = cli.main(["generate", "er", "--n", "100", "--p", "0.1",
                     "--seed", "5", "--out", str(path)])
    assert code == 0
    assert read_edge_list(path).num_nodes == 100
    return path


def test_bounds_csv(er_graph, tmp_path):
    out = tmp_path / "bounds.csv"
    assert cli.main(["bounds", "--graph", str(er_graph),
                     "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["pair"] for r in rows] == ["11", "12", "21", "22"]
    for r in rows:
        assert r["conditioned_pair"] == "" and r["conditioned_value"] == ""
        lo, hi = float(r["lower"]), float(r["upper"])
        assert -1.0 <= lo < hi <= 1.0
        assert lo < TARGETS.get(*map(int, r["pair"])) < hi


def test_solve_eta_csv(er_graph, tmp_path, capsys):
    out = tmp_path / "eta.csv"
    assert cli.main(["solve-eta", str(er_graph), "--targets",
                     "0.1,0.1,0.1,0.1", "--out", str(out)]) == 0
    eta = read_eta_csv(out)
    eta.validate(atol=1e-6)
    assert assortativity(eta).max_abs_diff(TARGETS) < 1e-6
    summary = json.loads(capsys.readouterr().out)
    assert summary["entries"] == int(np.count_nonzero(eta.H))


def test_rewire_edge_list_and_trace(er_graph, tmp_path):
    out = tmp_path / "rewired.txt"
    assert cli.main(["rewire", str(er_graph), "--targets", "0.1,0.1,0.1,0.1",
                     "--steps", "20000", "--seed", "3",
                     "--out", str(out)]) == 0
    before, after = read_edge_list(er_graph), read_edge_list(out)
    assert after.num_edges == before.num_edges
    assert degree_pair_dist(after).entries == degree_pair_dist(before).entries

    trace = read_trace_csv(f"{out}.trace.csv")
    steps = [row[0] for row in trace.checkpoints]
    assert steps[0] == 0 and steps[-1] == 20000
    assert steps == sorted(steps)
    for row in trace.checkpoints:
        assert all(-1.0 <= r <= 1.0 for r in row[1:5])
        assert 0.0 <= row[5] <= 1.0


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_config_replay_with_new_out_keeps_first_run(er_graph, tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    first = run / "a.txt"
    assert cli.main(["rewire", str(er_graph), "--targets", "0.1,0.1,0.1,0.1",
                     "--steps", "5000", "--seed", "3",
                     "--out", str(first)]) == 0
    before = _snapshot(run)
    assert sorted(before) == ["a.txt", "a.txt.config.json", "a.txt.trace.csv"]
    assert "trace" not in json.loads(before["a.txt.config.json"])

    second = run / "b.txt"
    assert cli.main(["rewire", "--config", f"{first}.config.json",
                     "--out", str(second)]) == 0
    after = _snapshot(run)
    assert {k: after[k] for k in before} == before
    # Same seed and settings: the replay reproduces the first run's outputs.
    assert after["b.txt"] == before["a.txt"]
    assert after["b.txt.trace.csv"] == before["a.txt.trace.csv"]


def test_truncated_eta_csv_is_a_one_line_error(er_graph, tmp_path, capsys):
    eta = tmp_path / "eta.csv"
    assert cli.main(["solve-eta", str(er_graph), "--targets",
                     "0.1,0.1,0.1,0.1", "--out", str(eta)]) == 0
    lines = eta.read_text(encoding="utf-8").splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(",", 1)[0]])
                     + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["rewire", str(er_graph), "--eta", str(short),
                     "--steps", "100", "--out",
                     str(tmp_path / "b.txt")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and f"short.csv:{len(lines)}:" in err[0]


@pytest.mark.parametrize("key", ["backend", "incremental", "method"])
def test_removed_options_rejected_in_config(er_graph, tmp_path, capsys, key):
    cfg = tmp_path / "old.config.json"
    cfg.write_text(json.dumps({"command": "rewire", "graph": str(er_graph),
                               "targets": [0.1, 0.1, 0.1, 0.1],
                               "steps": 100, key: "auto"}), encoding="utf-8")
    assert cli.main(["rewire", "--config", str(cfg),
                     "--out", str(tmp_path / "c.txt")]) == 1
    assert f"unknown config keys: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
def test_bad_eta_entry_is_a_one_line_error(er_graph, tmp_path, capsys, value):
    eta = tmp_path / "eta.csv"
    assert cli.main(["solve-eta", str(er_graph), "--targets",
                     "0.1,0.1,0.1,0.1", "--out", str(eta)]) == 0
    lines = eta.read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:2] + [lines[2].rsplit(",", 1)[0]
                                          + "," + value] + lines[3:]) + "\n",
                   encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "b.txt"
    assert cli.main(["rewire", str(er_graph), "--eta", str(bad),
                     "--targets", "0.1,0.1,0.1,0.1", "--steps", "20000",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "bad.csv:3:" in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bad.csv", "eta.csv", "eta.csv.config.json"]


def test_rewire_degree_check_fails_before_any_output(er_graph, tmp_path,
                                                     capsys, monkeypatch):
    # The second replicate comes back with one edge's target moved.  The
    # check recounts degrees from the edge list, so it must catch that, and
    # it runs before any replicate is written.
    calls = []

    def faulty_rewire(g, eta, cfg):
        rewired, trace = rewire(g, eta, cfg)
        calls.append(cfg)
        if len(calls) == 2:
            rewired.dst[0] = (rewired.dst[0] + 1) % rewired.num_nodes
        return rewired, trace

    monkeypatch.setattr(cli, "rewire", faulty_rewire)
    out = tmp_path / "run" / "rewired.txt"
    out.parent.mkdir()
    assert cli.main(["rewire", str(er_graph), "--targets", "0.1,0.1,0.1,0.1",
                     "--steps", "2000", "--replicates", "2", "--seed", "3",
                     "--out", str(out)]) == 1
    assert len(calls) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: internal check failed: degrees changed"]
    assert list(out.parent.iterdir()) == []


def test_eta_of_another_graph_is_a_support_mismatch(er_graph, tmp_path,
                                                    capsys):
    eta = tmp_path / "eta.csv"
    assert cli.main(["solve-eta", str(er_graph), "--targets",
                     "0.1,0.1,0.1,0.1", "--out", str(eta)]) == 0
    other = tmp_path / "dpa.txt"
    assert cli.main(["generate", "dpa", "--alpha", "0.3", "--beta", "0.4",
                     "--gamma", "0.3", "--delta-in", "1", "--delta-out", "1",
                     "--edges", "2000", "--seed", "1", "--out",
                     str(other)]) == 0
    out = tmp_path / "run" / "rewired.txt"
    out.parent.mkdir()
    capsys.readouterr()
    assert cli.main(["rewire", str(other), "--eta", str(eta),
                     "--steps", "2000", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: support mismatch: source degree pair "
                        r"\(\d+, \d+\) absent from eta", err[0])
    assert list(out.parent.iterdir()) == []


def test_assort_json(er_graph, tmp_path, capsys):
    out = tmp_path / "assort.json"
    capsys.readouterr()
    assert cli.main(["assort", str(er_graph), "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text(encoding="utf-8")) == printed
    g = read_edge_list(er_graph)
    want = assortativity_from_edges(g)
    assert (printed["nodes"], printed["edges"]) == (g.num_nodes, g.num_edges)
    for key, value in want.as_dict().items():
        assert printed[key] == pytest.approx(value, abs=1e-12)
    assert json.loads((tmp_path / "assort.json.config.json").read_text(
        encoding="utf-8"))["command"] == "assort"


def test_fit_json(tmp_path, capsys):
    graph = tmp_path / "dpa.txt"
    assert cli.main(["generate", "dpa", "--alpha", "0.3", "--beta", "0.4",
                     "--gamma", "0.3", "--delta-in", "1", "--delta-out", "1",
                     "--edges", "5000", "--seed", "2",
                     "--out", str(graph)]) == 0
    out = tmp_path / "fit.json"
    capsys.readouterr()
    assert cli.main(["fit", str(graph), "--n-tail", "50", "--grid-size", "5",
                     "--seed", "1", "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text(encoding="utf-8")) == printed
    g = read_edge_list(graph)
    assert printed["beta_hat"] == pytest.approx(1.0 - g.num_nodes / g.num_edges)
    assert printed["n_tail"] == 50
    assert (printed["alpha_hat"] + printed["beta_hat"] + printed["gamma_hat"]
            == pytest.approx(1.0))
    # The grid holds five equally spaced candidates for alpha.
    share = printed["alpha_hat"] / (1.0 - printed["beta_hat"])
    assert share * 4 == pytest.approx(round(share * 4))


def test_scenario_gains_csv(tmp_path):
    out = tmp_path / "gains.csv"
    assert cli.main(["scenario-gains", "--alpha", "0.3", "--beta", "0.4",
                     "--gamma", "0.3", "--delta-in", "1", "--delta-out", "1",
                     "--edges", "2000", "--targets", "0.1,0.15,0.1,0.15",
                     "--steps", "20000", "--replicates", "2", "--seed", "9",
                     "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["replicate"] for r in rows] == ["0"] * 7 + ["1"] * 7
    for rep in ("0", "1"):
        block = [r for r in rows if r["replicate"] == rep]
        buckets, total = block[:-1], block[-1]
        assert total["scenario_pair"] == "total"
        assert [r["scenario_pair"] for r in buckets] == [
            "-".join(key) for key in cli._BUCKET_ORDER]
        # Buckets telescope to the total (up to the 12 printed digits).
        assert sum(int(r["count"]) for r in buckets) == int(total["count"]) > 0
        for col in ("d_r11", "d_r12", "d_r21", "d_r22"):
            assert sum(float(r[col]) for r in buckets) == pytest.approx(
                float(total[col]), abs=1e-10)


def test_aggregate_averages_replicate_traces(er_graph, tmp_path, capsys):
    out = tmp_path / "rw.txt"
    assert cli.main(["rewire", str(er_graph), "--targets", "0.1,0.1,0.1,0.1",
                     "--steps", "5000", "--replicates", "2", "--seed", "4",
                     "--out", str(out)]) == 0
    inputs = [tmp_path / f"rw.txt.trace.r{rep}.csv" for rep in (0, 1)]
    mean = tmp_path / "mean.csv"
    capsys.readouterr()
    assert cli.main(["aggregate", *map(str, inputs), "--out", str(mean)]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 6
    traces = [read_trace_csv(p).checkpoints for p in inputs]
    assert traces[0] != traces[1]
    for row, a, b in zip(read_trace_csv(mean).checkpoints, *traces):
        assert row[0] == a[0] == b[0]
        assert row[1:] == pytest.approx([(x + y) / 2 for x, y in
                                         zip(a[1:], b[1:])], abs=1e-12)


def _bad_inputs(graph, tmp):
    """One bad invocation per subcommand that argparse itself accepts."""
    malformed = tmp / "malformed.txt"
    malformed.write_text("0 1\n1 two\n", encoding="utf-8")
    not_a_trace = tmp / "not_a_trace.csv"
    not_a_trace.write_text("a,b\n1,2\n", encoding="utf-8")
    out = str(tmp / "out")
    return {
        "generate": ["generate", "er", "--n", "10", "--out", out],
        "assort": ["assort", str(tmp / "missing.txt")],
        "bounds": ["bounds", "--graph", str(graph), "--model", "er",
                   "--out", out],
        "solve-eta": ["solve-eta", str(graph), "--targets", "0.1,0.1,0.1",
                      "--out", out],
        "rewire": ["rewire", str(graph), "--steps", "100", "--out", out],
        "fit": ["fit", str(malformed), "--n-tail", "10"],
        "scenario-gains": ["scenario-gains", "--targets", "0.1,0.1,0.1,0.1",
                           "--steps", "100", "--out", out],
        "aggregate": ["aggregate", str(not_a_trace), "--out", out],
    }


def test_bad_inputs_cover_every_subcommand(tmp_path):
    assert set(_bad_inputs(tmp_path / "g.txt", tmp_path)) == set(cli._HANDLERS)


@pytest.mark.parametrize("command", sorted(cli._HANDLERS))
def test_bad_input_is_a_one_line_error(er_graph, tmp_path, capsys, command):
    argv = _bad_inputs(er_graph, tmp_path)[command]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (tmp_path / "out").exists()
