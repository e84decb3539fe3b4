#!/usr/bin/env python3
"""Benchmark one workload as a session of `didpr` subcommands.

    python3 perfbench/run.py --workload er-paper --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; `didpr` is imported from its
`src/` directory.  A session calls `didpr.cli.main` in this process, one
subcommand per stage with `--jobs 1`, times every stage, and checks every
output with `checks.py`.  Sessions are repeated in whole rounds until
`--seconds` have passed, and each metric is the median over rounds.  Set-up
time is the median of several fresh interpreters importing `didpr.cli`.

With `--trace 0` the last stdout line is a JSON object holding the
end-to-end metrics.  With `--trace 1` each round is an untraced session
followed by a traced one (see `tracing.py`), and the line holds the
per-layer metrics of the traced session plus the tracing overhead.  A
record of the run (machine, versions, BLAS threads, per-stage and
per-replicate outcomes, spans) goes to `.perfbench_runs/`.
"""
from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import checks
from checks import CheckError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUNS = ROOT / ".perfbench_runs"

SETUP_SAMPLES = 3
# Every graph a workload rewires is generated from this fixed seed, so it
# plays the part of a data set; --seed drives the rewiring chains and the
# fit's candidate simulations.  scenario-gains generates its own replicate
# graphs, so it takes this seed too: with seeds from --seed, one replicate
# graph in twenty stalled the entropy solve (see CHANGES.md) and the stage
# took 17 s instead of 2.6 s.
GRAPH_SEED = 1
TOL = 0.02
MAX_STEPS = 4_000_000
# Steps between trace rows, which sets the resolution of steps_to_tol: ER
# chains need ~1.3M steps, DPA chains 0.05M-0.4M.
ER_CHECKPOINT = 10_000
DPA_CHECKPOINT = 5_000
# Chains per rewire stage.  ER chains drift straight into the tolerance band
# (steps to reach it vary by ~2% between seeds).  DPA chains settle near the
# band's edge and enter it by fluctuation, so one chain's steps vary
# several-fold between seeds; steps_to_tol sums enough of them to be steady.
ER_REPLICATES = 2
DPA_REPLICATES = 32
ER_N, ER_P = 1000, 0.1
ER_TARGETS = (0.6, 0.5, -0.4, -0.3)
DPA_MODEL = ("--alpha", 0.3, "--beta", 0.4, "--gamma", 0.3,
             "--delta-in", 1, "--delta-out", 1)
DPA_TARGETS = (0.1, 0.15, 0.1, 0.15)
DPA_EDGES = 20_000
GAINS_STEPS = 300_000


def _targets_arg(targets) -> str:
    return ",".join(str(t) for t in targets)


def _targets_dict(targets) -> dict:
    return dict(zip(checks.PAIRS, targets))


class Session:
    """One pass through a workload's stages in a clean work directory."""

    def __init__(self, cli, workdir: Path, seed: int):
        self.cli = cli
        self.dir = workdir
        self.seed = seed
        self.stages: list[dict] = []
        self.problems: list[str] = []
        self.reached: list[int] = []
        self.graph = None         # (nodes, src, dst) of the generated graph
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def generated(self) -> tuple:
        """The generated graph that later checks compare against."""
        if self.graph is None:
            raise CheckError("the generate stage left no readable graph")
        return self.graph

    def stage(self, name: str, argv: list, check=None, replicates: int = 0):
        """Run one subcommand and check its outputs.

        `check(report)` gets the JSON line the subcommand printed.  For a
        stage with replicates it may return one success flag per replicate;
        otherwise every replicate of a stage that exits 0 succeeds.  A nonzero exit fails the stage and
        its replicates; the session goes on.
        """
        buf = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = self.cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not the end
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        rec = {"stage": name, "seconds": seconds, "exit": code,
               "replicates_ok": [code == 0] * replicates}
        if error:
            rec["error"] = error
        if code == 0 and check is not None:
            try:
                lines = buf.getvalue().strip().splitlines()
                flags = check(json.loads(lines[-1]))
            except (CheckError, ValueError, LookupError, OSError) as exc:
                # An output that cannot be read is a wrong output.
                self.problems.append(f"{name}: {exc}")
            else:
                if replicates and flags is not None:
                    rec["replicates_ok"] = flags
        self.stages.append(rec)

    def seconds(self, *names) -> float:
        return sum(r["seconds"] for r in self.stages if r["stage"] in names)

    def counts(self) -> tuple[int, int]:
        attempted = sum(1 + len(r["replicates_ok"]) for r in self.stages)
        failed = sum((r["exit"] != 0) + r["replicates_ok"].count(False)
                     for r in self.stages)
        return attempted, failed

    # -- stages shared by the workloads ---------------------------------

    def generate(self, model_args: list, nodes=None, edges=None) -> str:
        out = self.path("graph.txt")

        def check(report):
            self.graph = checks.read_edges(out)
            checks.check_graph(out, self.graph, nodes, edges, report)
        self.stage("generate", ["generate", *model_args,
                                "--seed", GRAPH_SEED, "--out", out], check)
        return out

    def bounds(self, graph: str, pair: str, target: float, condition=None):
        out = self.path("bounds.csv")
        argv = ["bounds", "--graph", graph, "--pairs", pair, "--jobs", 1,
                "--out", out]
        if condition is not None:
            argv += ["--condition-pair", condition[0],
                     "--condition-values", condition[1]]

        def check(report):
            want = [target]
            if condition is None:
                r = checks.coefficients(*self.generated())
                want.append(r[(int(pair[0]), int(pair[1]))])
            checks.check_bounds(checks.read_bounds(out), pair, want, condition)
        self.stage("bounds", argv, check)

    def rewire(self, graph: str, targets: tuple, checkpoint: int,
               replicates: int, extra: list = ()):
        out = self.path("rewired.txt")
        tdict = _targets_dict(targets)

        def check(report):
            flags = []
            for rep in report["replicates"]:
                step = rep.get("reached_step")
                self.reached.append(MAX_STEPS if step is None else step)
                if step is not None:
                    checks.check_rewired(self.generated(), rep["out"],
                                         rep["trace"], tdict, TOL, step)
                flags.append(step is not None)
            return flags
        self.stage("rewire", ["rewire", graph, *extra,
                              "--targets", _targets_arg(targets),
                              "--tolerance", TOL, "--stop-early",
                              "--steps", MAX_STEPS,
                              "--checkpoint-every", checkpoint,
                              "--replicates", replicates, "--jobs", 1,
                              "--seed", self.seed, "--out", out],
                   check, replicates=replicates)


def er_paper(s: Session) -> tuple[str, ...]:
    g = s.generate(["er", "--n", ER_N, "--p", ER_P], nodes=ER_N)
    s.bounds(g, "11", ER_TARGETS[0])
    s.rewire(g, ER_TARGETS, ER_CHECKPOINT, ER_REPLICATES)
    return ("rewire",)


def dpa_paper(s: Session) -> tuple[str, ...]:
    g = s.generate(["dpa", *DPA_MODEL, "--edges", DPA_EDGES], edges=DPA_EDGES)
    s.bounds(g, "22", DPA_TARGETS[3], condition=("11", 0.1))
    eta = s.path("eta.csv")
    s.stage("solve-eta",
            ["solve-eta", g, "--targets", _targets_arg(DPA_TARGETS),
             "--out", eta],
            lambda report: checks.check_eta(eta, *s.generated(),
                                            _targets_dict(DPA_TARGETS)))
    s.rewire(g, DPA_TARGETS, DPA_CHECKPOINT, DPA_REPLICATES,
             ["--eta", eta])
    return ("solve-eta", "rewire")


def dpa_fit(s: Session) -> tuple[str, ...]:
    g = s.generate(["dpa", *DPA_MODEL, "--edges", DPA_EDGES], edges=DPA_EDGES)
    fit = s.path("fit.json")
    s.stage("fit", ["fit", g, "--n-tail", 200, "--seed", s.seed,
                    "--out", fit],
            lambda report: checks.check_fit(fit, s.generated()[0], DPA_EDGES))
    s.bounds(g, "11", DPA_TARGETS[0])
    s.rewire(g, DPA_TARGETS, DPA_CHECKPOINT, DPA_REPLICATES)
    gains = s.path("gains.csv")
    s.stage("scenario-gains",
            ["scenario-gains", *DPA_MODEL, "--edges", DPA_EDGES,
             "--targets", _targets_arg(DPA_TARGETS),
             "--steps", GAINS_STEPS, "--checkpoint-every", DPA_CHECKPOINT,
             "--replicates", 2, "--jobs", 1, "--seed", GRAPH_SEED,
             "--out", gains],
            lambda report: checks.check_gains(gains, 2), replicates=2)
    return ("rewire",)


WORKLOADS = {"er-paper": er_paper, "dpa-paper": dpa_paper, "dpa-fit": dpa_fit}


def run_session(cli, workload: str, seed: int) -> tuple[Session, dict]:
    s = Session(cli, WORK / f"{workload}-{os.getpid()}", seed)
    target_stages = WORKLOADS[workload](s)
    metrics = {
        "session_s": (s.seconds(*(r["stage"] for r in s.stages)), "s"),
        "bounds_s": (s.seconds("bounds"), "s"),
        "target_s": (s.seconds(*target_stages), "s"),
        "steps_to_tol": (sum(s.reached), "steps"),
    }
    shutil.rmtree(s.dir, ignore_errors=True)
    return s, metrics


def measure_setup(samples: int) -> list[float]:
    """Seconds from starting a fresh interpreter until `didpr.cli` is
    imported and its parser built, `samples` times."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        "import didpr.cli; didpr.cli.build_parser()"],
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return {}
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "didpr" / "cli.py").is_file():
        print(f"error: no didpr sources under {SRC}", file=sys.stderr)
        return 2

    # Set-up time is an end-to-end metric only; traced runs skip it.
    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)
    sys.path.insert(0, str(SRC))
    import didpr.cli as cli
    import numpy
    import scipy
    import tracing

    rounds = []     # (sessions, metrics as name -> (value, unit), spans)
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        s, m = run_session(cli, args.workload, args.seed)
        if not args.trace:
            rounds.append(([s], m, None))
            continue
        tracer = tracing.Tracer()
        with tracer.patched():
            t, tm = run_session(cli, args.workload, args.seed)
        layers = tracer.metrics({r["stage"]: r["seconds"] for r in t.stages})
        layers["trace.overhead_s"] = (tm["session_s"][0] - m["session_s"][0],
                                      "s")
        rounds.append(([s, t], layers, tracer.spans))

    sessions = [s for ss, _, _ in rounds for s in ss]
    attempted, failed = map(sum, zip(*(s.counts() for s in sessions)))
    problems = [p for s in sessions for p in s.problems]
    metrics = {name: {"value": statistics.median(m[name][0]
                                                 for _, m, _ in rounds),
                      "unit": unit}
               for name, (_, unit) in rounds[0][1].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB"}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": blas_threads(),
        "setup_samples_s": setup, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics,
        "rounds": [{"sessions": [{"stages": s.stages, "problems": s.problems}
                                 for s in sessions],
                    "spans": spans}
                   for sessions, _, spans in rounds],
    }
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"blas_threads={record['blas_threads']} nproc={record['nproc']}",
          file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
