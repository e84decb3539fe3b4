"""End-to-end runs of the subcommands that go through the eta solver."""
import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from didpr import cli
from didpr.assortativity import (
    AssortProfile,
    EdgeMixMatrix,
    assortativity,
    edge_mix_from_graph,
    read_eta_csv,
    write_eta_csv,
)
from didpr.generate import gen_er
from didpr.graph import degree_pair_dist, read_edge_list
from didpr.rewire import read_trace_csv, rewire

from graph_helpers import assortativity_from_edges

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


# Runs the stages given as JSON in one fresh process and reports, after
# each stage, its exit code and the scipy modules loaded so far.  Each
# session ends with a conditioned bounds call, which shows that the check
# can see scipy arrive: HiGHS's extension and its two submodules, loaded
# from the extension's file, and nothing of scipy.optimize.
HIGHS_MODULES = ["scipy.optimize._highspy._core",
                 "scipy.optimize._highspy._core.cb",
                 "scipy.optimize._highspy._core.simplex_constants"]
_SCIPY_SESSION = """
import json, sys
from didpr.cli import main
report = []
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    report.append([argv[0], code, sorted(m for m in sys.modules
                                         if m.split(".")[0] == "scipy")])
print(json.dumps(report))
"""


def _scipy_report(stages):
    src_dir = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _SCIPY_SESSION,
                          json.dumps(stages)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_light_tailed_pipeline_loads_no_scipy(tmp_path):
    d = str(tmp_path)
    g = d + "/er.txt"
    report = _scipy_report([
        ["generate", "er", "--n", "100", "--p", "0.1", "--seed", "5",
         "--out", g],
        ["bounds", "--graph", g, "--out", d + "/bounds.csv"],
        ["solve-eta", g, "--targets", "0.1,0.1,0.1,0.1",
         "--out", d + "/eta.csv"],
        ["rewire", g, "--eta", d + "/eta.csv", "--steps", "2000",
         "--out", d + "/rewired.txt"],
        ["bounds", "--graph", g, "--pairs", "22", "--condition-pair", "11",
         "--condition-values", "0.1", "--out", d + "/conditioned.csv"],
    ])
    assert [(stage, code) for stage, code, _ in report] == [
        ("generate", 0), ("bounds", 0), ("solve-eta", 0), ("rewire", 0),
        ("bounds", 0)]
    assert [loaded for _, _, loaded in report[:4]] == [[]] * 4
    assert report[4][2] == HIGHS_MODULES


def test_real_data_pipeline_loads_no_scipy(tmp_path):
    # The fit's numerics run on numpy alone, so the whole real-data
    # workflow (generate, fit, unconditioned bounds, rewire, scenario
    # gains) on a heavy-tailed graph loads no scipy module.
    d = str(tmp_path)
    g = d + "/dpa.txt"
    targets = ["--targets", "0.1,0.15,0.1,0.15"]
    report = _scipy_report([
        ["generate", "dpa", "--alpha", "0.3", "--beta", "0.4", "--gamma",
         "0.3", "--delta-in", "1", "--delta-out", "1", "--edges", "3000",
         "--seed", "2", "--out", g],
        ["fit", g, "--out", d + "/fit.json"],
        ["bounds", "--graph", g, "--pairs", "11", "--out", d + "/bounds.csv"],
        ["rewire", g, *targets, "--steps", "2000", "--out", d + "/rw.txt"],
        ["scenario-gains", *_DPA_500, *targets, "--steps", "2000",
         "--replicates", "2", "--seed", "9", "--out", d + "/gains.csv"],
        ["bounds", "--graph", g, "--pairs", "22", "--condition-pair", "11",
         "--condition-values", "0.1", "--out", d + "/conditioned.csv"],
    ])
    assert [(stage, code) for stage, code, _ in report] == [
        ("generate", 0), ("fit", 0), ("bounds", 0), ("rewire", 0),
        ("scenario-gains", 0), ("bounds", 0)]
    assert [loaded for _, _, loaded in report[:5]] == [[]] * 5
    assert report[5][2] == HIGHS_MODULES


def test_rewire_edge_list_and_trace(er_graph, tmp_path):
    out = tmp_path / "rewired.txt"
    assert cli.main(["rewire", str(er_graph), "--targets", "0.1,0.1,0.1,0.1",
                     "--steps", "20000", "--seed", "3",
                     "--out", str(out)]) == 0
    before, after = read_edge_list(er_graph), read_edge_list(out)
    assert after.num_edges == before.num_edges
    assert degree_pair_dist(after) == degree_pair_dist(before)

    trace = read_trace_csv(f"{out}.trace.csv")
    steps = [row[0] for row in trace.checkpoints]
    assert steps[0] == 0 and steps[-1] == 20000
    assert steps == sorted(steps)
    for row in trace.checkpoints:
        assert all(-1.0 <= r <= 1.0 for r in row[1:5])
        assert 0.0 <= row[5] <= 1.0


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_rewire_trace_path_gets_replicate_suffixes(er_graph, tmp_path):
    # --trace names the trace file; with replicates each gets .r<i> before
    # the extension, like --out, and the echo holds the path as given.
    out, trace = tmp_path / "rw.txt", tmp_path / "traces" / "t.csv"
    trace.parent.mkdir()
    assert cli.main(["rewire", str(er_graph), "--targets", "0.1,0.1,0.1,0.1",
                     "--steps", "2000", "--replicates", "2", "--seed", "3",
                     "--trace", str(trace), "--out", str(out)]) == 0
    assert sorted(p.name for p in trace.parent.iterdir()) == [
        "t.r0.csv", "t.r1.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "rw.r0.txt", "rw.r1.txt", "rw.txt.config.json", "traces"]
    rows = [read_trace_csv(trace.parent / f"t.r{rep}.csv").checkpoints
            for rep in (0, 1)]
    assert rows[0] != rows[1]
    assert all(r[-1][0] == 2000 for r in rows)
    echo = json.loads((tmp_path / "rw.txt.config.json").read_text(
        encoding="utf-8"))
    assert echo["trace"] == str(trace)


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

    def faulty_rewire(g, eta, cfg, **shared):
        rewired, trace = rewire(g, eta, cfg, **shared)
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


def test_eta_without_a_target_pair_is_a_support_mismatch(er_graph, tmp_path,
                                                         capsys):
    # Every source pair of the graph is in eta, so its target side fails.
    mix = edge_mix_from_graph(read_edge_list(er_graph))
    *kept, missing = mix.target_pairs
    eta = tmp_path / "eta.csv"
    shape = (len(mix.source_pairs), len(kept))
    write_eta_csv(EdgeMixMatrix(mix.source_pairs, kept,
                                np.full(shape, 1.0 / np.prod(shape))), eta)
    out = tmp_path / "run" / "rewired.txt"
    out.parent.mkdir()
    capsys.readouterr()
    assert cli.main(["rewire", str(er_graph), "--eta", str(eta),
                     "--steps", "2000", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: support mismatch: target degree pair {missing} absent "
        f"from eta"]
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
    # --n-tail and --seed are ignored, but still parse.
    assert cli.main(["fit", str(graph), "--n-tail", "50", "--seed", "1",
                     "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text(encoding="utf-8")) == printed
    g = read_edge_list(graph)
    assert printed["beta_hat"] == pytest.approx(1.0 - g.num_nodes / g.num_edges)
    assert (printed["alpha_hat"] + printed["beta_hat"] + printed["gamma_hat"]
            == pytest.approx(1.0))


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
            "alpha-alpha", "alpha-beta", "alpha-gamma", "beta-beta",
            "beta-gamma", "gamma-gamma"]
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


def test_aggregate_takes_stop_early_replicates(tmp_path, capsys):
    # The two replicates reach tolerance at steps 5,000 and 6,000, so their
    # traces end at different checkpoints: the mean covers the shorter's.
    graph, out = tmp_path / "er.txt", tmp_path / "rw.txt"
    assert cli.main(["generate", "er", "--n", "200", "--p", "0.1",
                     "--seed", "1", "--out", str(graph)]) == 0
    assert cli.main(["rewire", str(graph), "--targets", "0.3,0.2,-0.1,-0.1",
                     "--tolerance", "0.05", "--checkpoint-every", "500",
                     "--steps", "100000", "--replicates", "2", "--stop-early",
                     "--seed", "1", "--out", str(out)]) == 0
    inputs = [tmp_path / f"rw.txt.trace.r{rep}.csv" for rep in (1, 0)]
    traces = [read_trace_csv(p).checkpoints for p in inputs]
    assert [rows[-1][0] for rows in traces] == [6_000, 5_000]
    mean = tmp_path / "mean.csv"
    capsys.readouterr()
    assert cli.main(["aggregate", *map(str, inputs), "--out", str(mean)]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 11
    got = read_trace_csv(mean).checkpoints
    assert [row[0] for row in got] == list(range(0, 5_001, 500))
    for row, a, b in zip(got, *traces):
        assert row[1:] == pytest.approx([(x + y) / 2 for x, y in
                                         zip(a[1:], b[1:])], abs=1e-12)
    # Steps that are not a prefix of the shortest trace's stay an error
    # that names the file.
    lines = inputs[1].read_text(encoding="utf-8").splitlines()
    shifted = tmp_path / "shifted.csv"
    shifted.write_text("\n".join(lines[:2] + ["501" + lines[2][3:]]
                                 + lines[3:]) + "\n", encoding="utf-8")
    assert cli.main(["aggregate", str(inputs[0]), str(shifted),
                     "--out", str(tmp_path / "bad.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {inputs[0]}: checkpoint steps do not begin with those of "
        f"{shifted}"]
    # A trace without rows begins every trace, but gives no mean.
    empty = tmp_path / "empty.csv"
    empty.write_text(lines[0] + "\n", encoding="utf-8")
    assert cli.main(["aggregate", str(inputs[0]), str(empty),
                     "--out", str(tmp_path / "bad.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {empty}: no checkpoint rows"]
    assert not (tmp_path / "bad.csv").exists()


def _bad_inputs(graph, tmp):
    """One bad invocation per subcommand that argparse itself accepts."""
    malformed = tmp / "malformed.txt"
    malformed.write_text("0 1\n1 two\n", encoding="utf-8")
    no_edges = tmp / "no_edges.txt"
    no_edges.write_text("", encoding="utf-8")
    not_a_trace = tmp / "not_a_trace.csv"
    not_a_trace.write_text("a,b\n1,2\n", encoding="utf-8")
    empty_pairs = tmp / "empty.config.json"
    empty_pairs.write_text(json.dumps({"pairs": []}), encoding="utf-8")
    configs = {}
    for name, text in (("not-json", "{not json"), ("list", "[1, 2]"),
                       ("bounds", json.dumps({"command": "bounds"}))):
        configs[name] = str(tmp / f"{name}.config.json")
        Path(configs[name]).write_text(text, encoding="utf-8")
    out = str(tmp / "out")
    er = ["generate", "er", "--n", "10", "--p", "0.1", "--out", out]
    return {
        "generate": ["generate", "er", "--n", "10", "--out", out],
        "assort": ["assort", str(tmp / "missing.txt")],
        "bounds": ["bounds", "--graph", str(graph), "--model", "er",
                   "--out", out],
        "solve-eta": ["solve-eta", str(graph), "--targets", "0.1,0.1,0.1",
                      "--out", out],
        "rewire": ["rewire", str(graph), "--steps", "100", "--out", out],
        "fit": ["fit", str(malformed), "--n-tail", "10"],
        # Poisson degrees drive both offsets to the end of their search.
        "fit-light-tails": ["fit", str(graph), "--out", out],
        "fit-no-edges": ["fit", str(no_edges), "--out", out],
        "scenario-gains": ["scenario-gains", "--targets", "0.1,0.1,0.1,0.1",
                           "--steps", "100", "--out", out],
        "aggregate": ["aggregate", str(not_a_trace), "--out", out],
        "bounds-empty-pairs": ["bounds", "--graph", str(graph), "--pairs", ",",
                               "--out", out],
        "bounds-empty-values": ["bounds", "--graph", str(graph),
                                "--condition-pair", "11",
                                "--condition-values", ",", "--out", out],
        "bounds-empty-config-pairs": ["bounds", "--graph", str(graph),
                                      "--config", str(empty_pairs),
                                      "--out", out],
        "config-not-json": er + ["--config", configs["not-json"]],
        "config-not-object": er + ["--config", configs["list"]],
        "config-for-another-command": er + ["--config", configs["bounds"]],
        "value-outside-choices": ["generate", "xx", "--out", out],
        "missing-required-option": ["solve-eta", str(graph), "--out", out],
        "assort-no-edges": ["assort", str(no_edges), "--out", out],
        "bounds-graph-replicates": ["bounds", "--graph", str(graph),
                                    "--replicates", "2", "--out", out],
        "bounds-pair-without-values": ["bounds", "--graph", str(graph),
                                       "--condition-pair", "11",
                                       "--out", out],
    }


# The error line of each case whose branch no other test reaches.
_BAD_MESSAGES = {
    "config-not-json": "not-json.config.json: not valid JSON (",
    "config-not-object": "list.config.json: config must be a JSON object",
    "config-for-another-command": "bounds.config.json: config is for "
                                  "'bounds', not 'generate'",
    "value-outside-choices": "error: model must be one of er, dpa",
    "missing-required-option": "error: missing required options: targets",
    "assort-no-edges": "error: graph has no edges; assortativity undefined",
    "bounds-graph-replicates": "error: replicates only make sense with "
                               "--model",
    "bounds-pair-without-values": "error: --condition-pair and "
                                  "--condition-values go together",
}

_BAD_CASES = sorted(cli._HANDLERS) + ["bounds-empty-pairs",
                                      "bounds-empty-values",
                                      "bounds-empty-config-pairs",
                                      "fit-light-tails", "fit-no-edges",
                                      *sorted(_BAD_MESSAGES)]


def test_bad_inputs_cover_every_subcommand(tmp_path):
    cases = _bad_inputs(tmp_path / "g.txt", tmp_path)
    assert sorted(cases) == sorted(_BAD_CASES)
    assert {argv[0] for argv in cases.values()} == set(cli._HANDLERS)


@pytest.mark.parametrize("case", _BAD_CASES)
def test_bad_input_is_a_one_line_error(er_graph, tmp_path, capsys, case):
    argv = _bad_inputs(er_graph, tmp_path)[case]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert _BAD_MESSAGES.get(case, "error: ") in lines[0]
    assert list(tmp_path.glob("out*")) == []


def test_undefined_coefficients_print_as_null(tmp_path, capsys):
    # One node and p = 1 give one self-loop: no degree varies, so no
    # coefficient is defined, and generate still writes the graph.
    out = tmp_path / "one.txt"
    capsys.readouterr()
    assert cli.main(["generate", "er", "--n", "1", "--p", "1",
                     "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"nodes": 1, "edges": 1, "r11": None,
                                        "r12": None, "r21": None, "r22": None}
    assert captured.err == ""
    assert out.read_bytes() == b"# nodes=1\n0\t0\n"


@pytest.mark.parametrize("option, argv", [
    ("condition_values", ["bounds", "--pairs", "22", "--condition-pair", "11",
                          "--condition-values", "nan"]),
    ("condition_values", ["bounds", "--pairs", "22", "--condition-pair", "11",
                          "--condition-values", "0.1,inf"]),
    ("targets", ["solve-eta", "--targets", "nan,0,0,0"]),
    ("targets", ["solve-eta", "--targets", "0,0,-inf,0"]),
    ("targets", ["rewire", "--targets", "nan,0,0,0", "--steps", "100"]),
    ("tolerance", ["rewire", "--targets", "0,0,0,0", "--steps", "100",
                   "--tolerance", "nan", "--stop-early"]),
], ids=["bounds-nan", "bounds-inf", "solve-eta-nan", "solve-eta-inf",
        "rewire-nan-targets", "rewire-nan-tolerance"])
def test_non_finite_option_is_named(er_graph, tmp_path, capsys, option,
                                    argv):
    # Non-finite numbers stop at the option parser, which names the option,
    # instead of reaching the LP layer or a chain that can never stop.
    command, *rest = argv
    graph = ["--graph", str(er_graph)] if command == "bounds" else [
        str(er_graph)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main([command, *graph, *rest, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {option} must be finite, got ")
    assert not out.exists()


@pytest.mark.parametrize("source", ["--eta", "none"])
def test_stop_early_without_targets_names_both_flags(er_graph, tmp_path,
                                                     capsys, source):
    # There is nothing to stop at: the run fails before it reads a file.
    run = tmp_path / "run"
    run.mkdir()
    argv = ["rewire", str(er_graph), "--steps", "100", "--stop-early",
            "--out", str(run / "out")]
    if source == "--eta":
        argv += ["--eta", str(tmp_path / "missing-eta.csv")]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --stop-early needs --targets, the coefficients to stop at"]
    assert list(run.iterdir()) == []


@pytest.mark.parametrize("bad_row", ["1000,0.1", "1000,0.1,x,0.1,0.1,0.5",
                                     "1000,0.1,nan,0.1,0.1,0.5"],
                         ids=["short", "non-numeric", "non-finite"])
def test_bad_trace_row_is_a_one_line_error(er_graph, tmp_path, capsys,
                                           bad_row):
    good = tmp_path / "rw.txt"
    assert cli.main(["rewire", str(er_graph), "--targets", "0.1,0.1,0.1,0.1",
                     "--steps", "3000", "--seed", "4", "--out",
                     str(good)]) == 0
    lines = (tmp_path / "rw.txt.trace.csv").read_text(
        encoding="utf-8").splitlines()
    # A blank line is skipped; the bad row is line 4 of the file.
    bad = tmp_path / "t.csv"
    bad.write_text("\n".join(lines[:2] + ["", bad_row] + lines[3:]) + "\n",
                   encoding="utf-8")
    out = tmp_path / "o.csv"
    capsys.readouterr()
    assert cli.main(["aggregate", str(bad), str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "t.csv:4:" in err[0]
    assert not out.exists()


def test_blank_trace_lines_are_skipped(er_graph, tmp_path):
    good = tmp_path / "rw.txt"
    assert cli.main(["rewire", str(er_graph), "--targets", "0.1,0.1,0.1,0.1",
                     "--steps", "3000", "--seed", "4", "--out",
                     str(good)]) == 0
    trace = tmp_path / "rw.txt.trace.csv"
    lines = trace.read_text(encoding="utf-8").splitlines()
    gappy = tmp_path / "gappy.csv"
    gappy.write_text("\n".join(lines[:2] + [""] + lines[2:] + [""]) + "\n",
                     encoding="utf-8")
    assert read_trace_csv(gappy) == read_trace_csv(trace)


@pytest.mark.parametrize("command", ["rewire", "bounds", "scenario-gains"])
def test_zero_replicates_is_a_one_line_error(er_graph, tmp_path, capsys,
                                             command):
    run = tmp_path / "run"
    run.mkdir()
    out = str(run / "out")
    argv = {
        "rewire": ["rewire", str(er_graph), "--targets", "0.1,0.1,0.1,0.1",
                   "--steps", "1000", "--out", out],
        "bounds": ["bounds", "--model", "er", "--n", "50", "--p", "0.1",
                   "--out", out],
        "scenario-gains": ["scenario-gains", "--alpha", "0.3", "--beta",
                           "0.4", "--gamma", "0.3", "--delta-in", "1",
                           "--delta-out", "1", "--edges", "500", "--targets",
                           "0.1,0.15,0.1,0.15", "--steps", "1000",
                           "--out", out],
    }[command]
    for key in ("replicates", "jobs"):
        capsys.readouterr()
        assert cli.main(argv + [f"--{key}", "0"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {key} must be at least 1"]
        assert list(run.iterdir()) == []


@pytest.mark.parametrize("key,value", [("steps", 2500.9), ("seed", True)])
def test_non_integer_config_value_is_a_one_line_error(er_graph, tmp_path,
                                                      capsys, key, value):
    cfg = tmp_path / "bad.config.json"
    cfg.write_text(json.dumps({"command": "rewire", "graph": str(er_graph),
                               "targets": [0.1, 0.1, 0.1, 0.1],
                               "steps": 2500, key: value}), encoding="utf-8")
    run = tmp_path / "run"
    run.mkdir()
    capsys.readouterr()
    assert cli.main(["rewire", "--config", str(cfg),
                     "--out", str(run / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {key} must be an integer, got {value!r}"]
    assert list(run.iterdir()) == []


@pytest.mark.parametrize("key, value, expected", [
    ("tolerance", True, "a number"), ("out", False, "text"),
    ("targets", False, "four numbers r11,r12,r21,r22"),
    ("stop_early", 1, "true or false")])
def test_boolean_config_value_only_sets_a_flag(er_graph, tmp_path, capsys,
                                               key, value, expected):
    # float(True) is 1.0 and str(False) a file name: a JSON boolean is
    # read only where the option is a flag, and a flag takes nothing else.
    cfg = tmp_path / "bool.config.json"
    cfg.write_text(json.dumps({"command": "rewire", "graph": str(er_graph),
                               "targets": [0.1, 0.1, 0.1, 0.1],
                               "steps": 1000, "out": str(tmp_path / "run"),
                               key: value}), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["rewire", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {key} must be {expected}, got {value!r}"]
    assert [p.name for p in tmp_path.iterdir()] == ["bool.config.json"]


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command, fixed, key, text, expected", [
    ("generate", ["er", "--p", "0.1"], "n", "2.0", "an integer"),
    ("generate", ["er", "--p", "0.1"], "n", "abc", "an integer"),
    ("rewire", ["{graph}", "--targets", "0.1,0.1,0.1,0.1"], "steps", "1e3",
     "an integer"),
    ("bounds", ["--graph", "{graph}", "--pairs", "22", "--condition-pair",
                "11"], "condition_values", "0.1,x", "a comma list of numbers"),
    ("bounds", ["--graph", "{graph}", "--pairs", "22",
                "--condition-values", "0.1"], "condition_pair", "13",
     "a type pair 11, 12, 21 or 22 (1 = out, 2 = in)"),
], ids=["n-fraction", "n-text", "steps-exponent", "condition-values-item",
        "condition-pair"])
def test_unreadable_value_names_its_option(er_graph, tmp_path, capsys, form,
                                           command, fixed, key, text,
                                           expected):
    # A flag's text and a config value go through one converter: the same
    # text fails the same way in either place, with one line naming the
    # option, exit code 1 and nothing written.
    argv = [command] + [arg.format(graph=er_graph) for arg in fixed]
    if form == "flag":
        argv += ["--" + key.replace("_", "-"), text]
    else:
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: text}), encoding="utf-8")
        argv += ["--config", str(cfg)]
    run = tmp_path / "run"
    run.mkdir()
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(run / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {key} must be {expected}, got {text!r}"]
    assert captured.out == ""
    assert list(run.iterdir()) == []


@pytest.mark.parametrize("argv, named", [
    (["generate", "er", "--n", "50", "--p", "0.1", "--bogus", "1"],
     "--bogus"),
    (["generate", "er", "--p", "0.1", "--n"], "--n"),
    (["generate", "er", "--n", "50", "--p"], "--p"),
    (["frobnicate"], "frobnicate"),
    ([], "command"),
], ids=["unknown-flag", "missing-value", "missing-last-value",
        "unknown-command", "no-command"])
def test_parser_error_is_a_one_line_error(tmp_path, capsys, argv, named):
    run = tmp_path / "run"
    run.mkdir()
    capsys.readouterr()
    # With --out given, a run that got past the parser would write there.
    argv = argv[:2] + ["--out", str(run / "out")] + argv[2:] if argv else argv
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert captured.out == ""
    assert list(run.iterdir()) == []


@pytest.mark.parametrize("argv", [["-h"], ["generate", "-h"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: didpr")


@pytest.mark.parametrize("form", ["flag", "config"])
def test_seed_above_2_53_is_read_exactly(tmp_path, form):
    # A float would round 2**53 + 1 to 2**53; integer text parses exactly.
    seed = 2**53 + 1
    out = tmp_path / "er.txt"
    argv = ["generate", "er", "--n", "20", "--p", "0.2", "--out", str(out)]
    if form == "flag":
        argv += ["--seed", str(seed)]
    else:
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"seed": str(seed)}), encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 0
    echo = json.loads((tmp_path / "er.txt.config.json").read_text(
        encoding="utf-8"))
    assert echo["seed"] == seed
    want = gen_er(20, 0.2, seed)
    got = read_edge_list(out)
    assert np.array_equal(got.src, want.src)
    assert np.array_equal(got.dst, want.dst)


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("argv, key, value, message", [
    (["generate", "er", "--p", "0.1"], "n", 10**20,
     "an integer within int64, got {raw}"),
    (["bounds", "--model", "er", "--n", "50", "--p", "0.1"], "replicates",
     10**20, "an integer within int64, got {raw}"),
    (["generate", "er", "--n", "50", "--p", "0.1"], "seed", -1,
     "at least 0"),
    (["rewire", "{graph}", "--targets", "0.1,0.1,0.1,0.1", "--steps", "100"],
     "seed", -3, "at least 0"),
    (["generate", "dpa", "--alpha", "0.3", "--beta", "0.4", "--gamma", "0.3",
      "--delta-in", "1", "--delta-out", "1"], "edges", -1, "at least 1"),
    (["rewire", "{graph}", "--targets", "0.1,0.1,0.1,0.1"], "steps", -5,
     "at least 1"),
], ids=["n", "replicates", "generate-seed", "rewire-seed", "dpa-edges",
        "rewire-steps"])
def test_integer_out_of_range_names_its_option(er_graph, tmp_path, capsys,
                                               form, argv, key, value,
                                               message):
    # Each fails in the option parser, before anything is allocated or
    # spawned: one line naming the option, exit code 1, nothing written.
    argv = [arg.format(graph=er_graph) for arg in argv]
    if form == "flag":
        argv += [f"--{key}", str(value)]
        raw = repr(str(value))
    else:
        cfg = tmp_path / "range.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        argv += ["--config", str(cfg)]
        raw = repr(value)
    run = tmp_path / "run"
    run.mkdir()
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(run / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {key} must be {message.format(raw=raw)}"]
    assert captured.out == ""
    assert list(run.iterdir()) == []


def test_integer_range_ends():
    # The ends of int64 convert; one past either end does not.  A seed has
    # no upper end.  Converted only: a node count this large would allocate.
    n = cli._SCHEMAS["generate"]["n"]
    for value in (-2**63, 2**63 - 1):
        assert cli._convert("n", n, str(value)) == value
    for value in (-2**63 - 1, 2**63):
        with pytest.raises(cli.CliError, match="n must be an integer within"):
            cli._convert("n", n, str(value))
    assert cli._convert("seed", cli._SEED_OPT, str(2**70)) == 2**70


_DPA = ["--alpha", "0.3", "--beta", "0.4", "--gamma", "0.3",
        "--delta-in", "1", "--delta-out", "1"]
_DPA_500 = [*_DPA, "--edges", "500"]


@pytest.mark.parametrize("command", ["rewire", "bounds", "scenario-gains"])
def test_two_jobs_reproduce_one_job(er_graph, tmp_path, command):
    argv = {
        "rewire": ["rewire", str(er_graph), "--targets", "0.1,0.1,0.1,0.1",
                   "--steps", "2000", "--replicates", "2", "--seed", "3"],
        "bounds": ["bounds", "--model", "er", "--n", "60", "--p", "0.1",
                   "--replicates", "2", "--seed", "3"],
        "scenario-gains": ["scenario-gains", *_DPA_500, "--targets",
                           "0.1,0.15,0.1,0.15", "--steps", "2000",
                           "--replicates", "2", "--seed", "3"],
    }[command]
    outputs = []
    for jobs in ("1", "2"):
        run = tmp_path / f"jobs{jobs}"
        run.mkdir()
        assert cli.main(argv + ["--jobs", jobs, "--out",
                                str(run / "out.txt")]) == 0
        config = json.loads((run / "out.txt.config.json").read_text(
            encoding="utf-8"))
        assert config.pop("jobs") == int(jobs)
        config.pop("out")
        files = {p.name: p.read_bytes() for p in run.iterdir()
                 if not p.name.endswith(".config.json")}
        outputs.append((config, files))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]) == (4 if command == "rewire" else 1)


@pytest.mark.parametrize("seed", [0, 3, 2**70])
def test_replicate_seeds_are_the_spawned_children(seed):
    # Built one at a time, replicate i's seed draws the state of the i-th
    # child spawn gives, and so do the seeds it spawns in turn.
    children = np.random.SeedSequence(seed).spawn(5)
    seeds = cli._fan_out(lambda s: s, {"seed": seed, "replicates": 5,
                                       "jobs": 1}, shared=())
    assert len(seeds) == len(children)
    for mine, child in zip(seeds, children):
        assert np.array_equal(mine.generate_state(8),
                              child.generate_state(8))
        for a, b in zip(mine.spawn(2), child.spawn(2)):
            assert np.array_equal(a.generate_state(8), b.generate_state(8))


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the most
    tasks submitted and not yet collected, and runs each task in this
    process when its result is asked for, so no process starts."""

    made: list = []
    most_in_flight = 0

    def __init__(self, max_workers, initializer, initargs):
        self.made.append(max_workers)
        self.in_flight = 0
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.in_flight += 1
        _RecordingPool.most_in_flight = max(self.most_in_flight,
                                            self.in_flight)

        def result():
            self.in_flight -= 1
            return fn(*args)
        return SimpleNamespace(result=result)


@pytest.mark.parametrize("affinity, jobs, workers", [
    (3, 5000, 3), (3, 2, 2), (None, 5000, 4), (1, 2, 1)],
    ids=["capped-by-affinity", "jobs-below-cpus", "capped-by-cpu-count",
         "one-cpu"])
def test_workers_are_capped_at_the_usable_cpus(monkeypatch, affinity, jobs,
                                               workers):
    # One worker runs the replicates in this process, with no pool.
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(_RecordingPool, "most_in_flight", 0)
    monkeypatch.setattr(cli, "_SHARED", ())  # the fake sets it here
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(affinity)))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    params = {"seed": 3, "replicates": 50, "jobs": jobs}
    got = cli._fan_out(lambda token, s: (token, s.spawn_key), params,
                       shared=("shared",))
    assert _RecordingPool.made == ([workers] if workers > 1 else [])
    assert got == [("shared", (i,)) for i in range(50)]
    # The pool holds a window of four tasks per worker, not all 50.
    assert _RecordingPool.most_in_flight == (4 * workers if workers > 1
                                             else 0)


def test_gains_csv_does_not_depend_on_the_cadence(tmp_path, monkeypatch):
    # --checkpoint-every still parses, but the gains chain keeps one
    # checkpoint, at its last step, and the CSV is the same bytes.
    cadences = []
    run_gains = cli.rewire_with_scenario_gains

    def recording(g, eta, cfg):
        cadences.append(cfg.checkpoint_every)
        return run_gains(g, eta, cfg)
    monkeypatch.setattr(cli, "rewire_with_scenario_gains", recording)
    csvs = []
    for every in ("7", "1000"):
        out = tmp_path / f"gains-{every}.csv"
        assert cli.main(["scenario-gains", *_DPA_500, "--targets",
                         "0.1,0.15,0.1,0.15", "--steps", "20000",
                         "--checkpoint-every", every, "--seed", "3",
                         "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    assert cadences == [20000, 20000]


@pytest.fixture(scope="module")
def dpa_5k(tmp_path_factory):
    path = tmp_path_factory.mktemp("dpa5k") / "dpa.txt"
    assert cli.main(["generate", "dpa", *_DPA, "--edges", "5000",
                     "--seed", "1", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_each_replicate_keeps_only_its_targets(dpa_5k, tmp_path, jobs):
    # A replicate holds one new dst, 8 bytes per edge; the rest is the input
    # graph's.  Allow half as much again for traces and reports.
    # The pool's modules load on first use, a cost the one-replicate run,
    # which needs no pool, would not pay.
    import concurrent.futures.process  # noqa: F401

    peaks = {}
    # Whatever the first run loads lazily, it loads in the warm-up run.
    for name, replicates in (("warm-up", 1), ("one", 1), ("nine", 9)):
        out = tmp_path / name / "out.txt"
        out.parent.mkdir()
        tracemalloc.start()
        try:
            assert cli.main(["rewire", str(dpa_5k), "--targets",
                             "0.1,0.15,0.1,0.15", "--steps", "5000",
                             "--replicates", str(replicates), "--jobs", jobs,
                             "--seed", "3", "--out", str(out)]) == 0
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    edges = read_edge_list(dpa_5k).num_edges
    assert (peaks["nine"] - peaks["one"]) / 8 <= 1.5 * 8 * edges


def _toy_graph(path):
    """The degree structure of test_eta's toy problem: six nodes of degree
    pair (1, 1) and seven of (2, 2), where only equal targets in
    [-3/7, 1] are attainable."""
    ring = [(i, (i + 1) % 13) for i in range(13)]
    odd = [6, 8, 10, 12, 7, 9, 11]
    chord = [(odd[i], odd[(i + 1) % 7]) for i in range(7)]
    path.write_text("".join(f"{u} {v}\n" for u, v in ring + chord),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["solve-eta", "rewire", "scenario-gains"])
def test_unattainable_targets_are_a_one_line_error(tmp_path, capsys, command):
    toy = _toy_graph(tmp_path / "toy.txt")
    run = tmp_path / "run"
    run.mkdir()
    out = str(run / "out")
    argv = {
        "solve-eta": ["solve-eta", toy, "--targets", "0.5,0.4,0.5,0.5"],
        "rewire": ["rewire", toy, "--targets", "0.5,0.4,0.5,0.5",
                   "--steps", "100"],
        # r11 of these DPA graphs stays below 0.8.
        "scenario-gains": ["scenario-gains", *_DPA_500, "--targets",
                           "0.9,0.9,0.9,0.9", "--steps", "100"],
    }[command]
    capsys.readouterr()
    assert cli.main(argv + ["--out", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    ranges = ", ".join(rf"r{a}{b} in \[-?\d\.\d{{4}}, -?\d\.\d{{4}}\]"
                        for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)))
    assert re.fullmatch(r"error: the targets are jointly unattainable for "
                        rf"this degree structure \(each alone: {ranges}\)",
                        err[0])
    if command != "scenario-gains":
        assert err[0].count("[-0.4286, 1.0000]") == 4
    assert list(run.iterdir()) == []


def test_generate_over_a_labelled_graph_replaces_its_labels(tmp_path,
                                                            capsys):
    # The DPA graph's sidecar must not outlive it: the ER graph written in
    # its place has 1999 edges, and 2000 stale labels would fail the read.
    out = str(tmp_path / "s.txt")
    assert cli.main(["generate", "dpa", *_DPA, "--edges", "2000",
                     "--seed", "1", "--out", out]) == 0
    assert (tmp_path / "s.txt.labels").exists()
    assert cli.main(["generate", "er", "--n", "100", "--p", "0.2",
                     "--seed", "1", "--out", out]) == 0
    assert not (tmp_path / "s.txt.labels").exists()
    capsys.readouterr()
    assert cli.main(["assort", out]) == 0
    assert json.loads(capsys.readouterr().out)["edges"] == read_edge_list(
        out).num_edges


@pytest.mark.parametrize("case", ["nodes-header", "replicates"])
def test_oversized_integer_is_a_one_line_error(tmp_path, capsys, case):
    # Both fail before any allocation: the header when it is read, the
    # replicate count in the option parser.
    graph = tmp_path / "huge.txt"
    graph.write_text("# nodes=99999999999999999999\n0 1\n", encoding="utf-8")
    run = tmp_path / "run"
    run.mkdir()
    out = str(run / "out")
    argv = {
        "nodes-header": ["assort", str(graph), "--out", out],
        "replicates": ["bounds", "--model", "er", "--n", "50", "--p", "0.1",
                       "--replicates", "99999999999999999999", "--out", out],
    }[case]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    if case == "nodes-header":
        assert err[0] == (f"error: {graph}:1: node count "
                          "99999999999999999999 does not fit in int64")
    assert list(run.iterdir()) == []


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 37.3 GiB for an array"),
     "Unable to allocate 37.3 GiB for an array"),
    (MemoryError(), "MemoryError"),
], ids=["numpy", "bare"])
def test_out_of_memory_is_a_one_line_error(er_graph, tmp_path, capsys,
                                           monkeypatch, exc, message):
    # A stand-in: a graph file that really needs that much memory could
    # exhaust a host that overcommits.
    def read(path):
        raise exc
    monkeypatch.setattr(cli, "read_edge_list", read)
    capsys.readouterr()
    assert cli.main(["assort", str(er_graph)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.fixture(scope="module")
def traces(er_graph, tmp_path_factory):
    out = tmp_path_factory.mktemp("traces") / "rw.txt"
    assert cli.main(["rewire", str(er_graph), "--targets", "0.1,0.1,0.1,0.1",
                     "--steps", "3000", "--replicates", "2", "--seed", "4",
                     "--out", str(out)]) == 0
    return [f"{out}.trace.r{rep}.csv" for rep in (0, 1)]


# One run of each subcommand, without its --out.
_REPLAYED = {
    "generate": ["generate", "dpa", *_DPA_500, "--seed", "2"],
    "assort": ["assort", "{graph}"],
    "bounds": ["bounds", "--model", "er", "--n", "60", "--p", "0.1",
               "--replicates", "2", "--seed", "3"],
    "solve-eta": ["solve-eta", "{graph}", "--targets", "0.1,0.1,0.1,0.1"],
    "rewire": ["rewire", "{graph}", "--targets", "0.1,0.1,0.1,0.1",
               "--steps", "2000", "--replicates", "2", "--seed", "3"],
    "fit": ["fit", "{dpa}"],
    "scenario-gains": ["scenario-gains", *_DPA_500, "--targets",
                       "0.1,0.15,0.1,0.15", "--steps", "2000", "--seed", "3"],
    "aggregate": ["aggregate", "{trace0}", "{trace1}"],
}


def test_replays_cover_every_subcommand():
    assert sorted(_REPLAYED) == sorted(cli._HANDLERS)


@pytest.mark.parametrize("command", sorted(_REPLAYED))
def test_config_replay_reproduces_outputs_and_summary(er_graph, dpa_5k,
                                                      traces, tmp_path,
                                                      capsys, command):
    # Replayed from its echo with a new --out, a run writes the same bytes
    # and prints the same summary, up to the output directory's name.
    argv = [arg.format(graph=er_graph, dpa=dpa_5k, trace0=traces[0],
                       trace1=traces[1]) for arg in _REPLAYED[command]]
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(first / "out.txt")]) == 0
    printed = capsys.readouterr().out
    assert cli.main([command, "--config", str(first / "out.txt.config.json"),
                     "--out", str(second / "out.txt")]) == 0
    assert capsys.readouterr().out == printed.replace(str(first),
                                                      str(second))
    want = {name: data.replace(str(first).encode(), str(second).encode())
            for name, data in _snapshot(first).items()}
    assert _snapshot(second) == want
    assert "out.txt.config.json" in want


@pytest.mark.parametrize("command", ["assort", "fit"])
def test_failed_write_prints_no_summary(er_graph, dpa_5k, tmp_path, capsys,
                                        command):
    graph = dpa_5k if command == "fit" else er_graph
    capsys.readouterr()
    assert cli.main([command, str(graph), "--out",
                     str(tmp_path / "missing" / "out.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert list(tmp_path.iterdir()) == []
