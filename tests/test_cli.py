"""End-to-end runs of the subcommands that go through the eta solver."""
import csv
import json

import numpy as np
import pytest

from didpr import cli
from didpr.assortativity import AssortProfile, assortativity, read_eta_csv
from didpr.graph import degree_pair_dist, read_edge_list
from didpr.rewire import read_trace_csv

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


@pytest.mark.parametrize("key", ["backend", "incremental"])
def test_removed_options_rejected_in_config(er_graph, tmp_path, capsys, key):
    cfg = tmp_path / "old.config.json"
    cfg.write_text(json.dumps({"command": "rewire", "graph": str(er_graph),
                               "targets": [0.1, 0.1, 0.1, 0.1],
                               "steps": 100, key: "auto"}), encoding="utf-8")
    assert cli.main(["rewire", "--config", str(cfg),
                     "--out", str(tmp_path / "c.txt")]) == 1
    assert f"unknown config keys: {key}" in capsys.readouterr().err


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
