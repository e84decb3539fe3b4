"""Command-line front end: generation, bounds, rewiring, fitting, CSV output.

Subcommands cover the whole pipeline: generate random networks, report
assortativity, compute attainable coefficient bounds, solve for a target
edge mixing matrix, rewire toward targets, fit attachment parameters,
attribute assortativity gains to attachment scenarios, and average
replicate traces.

Options may come from flags or from a JSON file given via --config; flags
win over config values, which win over defaults, and unknown config keys
are rejected.  Flags stay text in the parser, and _convert reads them and
config values alike.  An integer option must fit in int64, except the
seed, which may be any integer from 0 up; a seed not given as a flag or in
the config is 0.

Each cmd_* handler writes its own output files and returns its summary.
`main` alone reports: for a run given an --out it echoes the effective
settings to <out>.config.json, and re-running from that file reproduces
the outputs byte for byte; then it prints the summary as one JSON line.
Commands with replicates run them through _fan_out, the one place that
derives their seeds from --seed.

Every failure a user can cause, argparse's own errors included, is a
ValueError (CliError is one), a lookup, OS or runtime error, or an overflow
or out-of-memory error from a size too large to handle; `main` turns each
into one `error: <message>` line on stderr and exit code 1.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import deque
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .assortativity import (
    TYPE_PAIRS,
    AssortProfile,
    assortativity,
    assortativity_of_graph,
    read_eta_csv,
    write_eta_csv,
)
from .eta import coefficient_bounds, problem_from_graph, solve_target_eta
from .fit import fit_ev
from .generate import DpaParams, gen_dpa, gen_er
# degree_pair_dist is no longer called here, but perfbench/tracing.py wraps
# it under this module's name, so the name stays bound.
from .graph import (  # noqa: F401
    DirectedGraph,
    degree_pair_dist,
    read_edge_list,
    write_edge_list,
)
from .rewire import (
    _BUCKETS,
    RewiringConfig,
    RewiringTrace,
    chain_setup,
    read_trace_csv,
    rewire,
    rewire_with_scenario_gains,
)

__all__ = ["main", "main_entry"]


class CliError(ValueError):
    """User-facing failure; message goes to stderr, exit code 1."""


# ---------------------------------------------------------------------------
# option schema and config merging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Opt:
    """One option of one subcommand.

    kind drives both argparse wiring and value conversion: str, int,
    float, flag, floats (comma list), targets (exactly four floats), pair
    (a type pair like 11), pairs (comma list of type pairs), paths.
    """

    kind: str
    default: object = None
    required: bool = False
    positional: bool = False
    choices: tuple | None = None
    help: str = ""


_SEED_OPT = _Opt("int", default=0, help="RNG seed")
# fit draws no random numbers and has no tail size, and scenario-gains keeps
# no trace, but older command lines pass those options: perfbench/run.py
# still passes fit --n-tail/--seed and scenario-gains --checkpoint-every.
_IGNORED_HELP = "ignored; accepted so that older command lines still run"

_DPA_OPTS = {
    "alpha": _Opt("float", help="probability of a new-source step"),
    "beta": _Opt("float", help="probability of an existing-to-existing step"),
    "gamma": _Opt("float", help="probability of a new-target step"),
    "delta_in": _Opt("float", help="in-degree attachment offset"),
    "delta_out": _Opt("float", help="out-degree attachment offset"),
    "edges": _Opt("int", help="number of edges to grow"),
}

_SCHEMAS: dict[str, dict[str, _Opt]] = {
    "generate": {
        "model": _Opt("str", required=True, positional=True,
                      choices=("er", "dpa"), help="network model"),
        "n": _Opt("int", help="node count (er)"),
        "p": _Opt("float", help="edge probability (er)"),
        **_DPA_OPTS,
        "out": _Opt("str", required=True, help="edge-list output path"),
        "seed": _SEED_OPT,
    },
    "assort": {
        "graph": _Opt("str", required=True, positional=True,
                      help="edge-list file"),
        "out": _Opt("str", help="optional JSON output path"),
    },
    "bounds": {
        "graph": _Opt("str", help="edge-list file to take the degree "
                                  "structure from"),
        "model": _Opt("str", choices=("er", "dpa"),
                      help="generate replicate graphs instead of reading one"),
        "n": _Opt("int", help="node count (er)"),
        "p": _Opt("float", help="edge probability (er)"),
        **_DPA_OPTS,
        "pairs": _Opt("pairs", default=((1, 1), (1, 2), (2, 1), (2, 2)),
                      help="type pairs to bound, e.g. 11,22 (default all)"),
        "condition_pair": _Opt("pair",
                               help="type pair pinned while bounding the "
                                    "others, e.g. 11"),
        "condition_values": _Opt("floats",
                                 help="comma list of pinned values, one "
                                      "bounds sweep per value"),
        "replicates": _Opt("int", default=1,
                           help="independent graphs when --model is used"),
        "jobs": _Opt("int", default=1, help="worker processes"),
        "out": _Opt("str", required=True, help="bounds CSV output path"),
        "seed": _SEED_OPT,
    },
    "solve-eta": {
        "graph": _Opt("str", required=True, positional=True,
                      help="edge-list file"),
        "targets": _Opt("targets", required=True,
                        help="r11,r12,r21,r22 target values"),
        "out": _Opt("str", required=True, help="mixing-matrix CSV path"),
    },
    "rewire": {
        "graph": _Opt("str", required=True, positional=True,
                      help="edge-list file"),
        "targets": _Opt("targets", help="r11,r12,r21,r22 target values"),
        "eta": _Opt("str", help="reuse a solved mixing-matrix CSV instead "
                                "of solving from targets"),
        "steps": _Opt("int", required=True, help="swap proposals to attempt"),
        "checkpoint_every": _Opt("int", default=1000,
                                 help="steps between trace rows; sets only "
                                      "the trace resolution and never "
                                      "changes the chain"),
        "tolerance": _Opt("float", default=0.05,
                          help="per-coefficient closeness for --stop-early"),
        "stop_early": _Opt("flag", default=False,
                           help="stop once every coefficient is within "
                                "tolerance of --targets"),
        "replicates": _Opt("int", default=1, help="independent chains"),
        "jobs": _Opt("int", default=1, help="worker processes"),
        "out": _Opt("str", required=True, help="rewired edge-list path"),
        "trace": _Opt("str", help="trace CSV path (default <out>.trace.csv)"),
        "seed": _SEED_OPT,
    },
    "fit": {
        "graph": _Opt("str", required=True, positional=True,
                      help="edge-list file"),
        "n_tail": _Opt("int", help=_IGNORED_HELP),
        "out": _Opt("str", help="optional JSON output path"),
        "seed": _Opt("int", default=0, help=_IGNORED_HELP),
    },
    "scenario-gains": {
        **_DPA_OPTS,
        "targets": _Opt("targets", required=True,
                        help="r11,r12,r21,r22 target values"),
        "steps": _Opt("int", required=True, help="swap proposals per chain"),
        "checkpoint_every": _Opt("int", help=_IGNORED_HELP),
        "replicates": _Opt("int", default=1, help="independent runs"),
        "jobs": _Opt("int", default=1, help="worker processes"),
        "out": _Opt("str", required=True, help="gains CSV output path"),
        "seed": _SEED_OPT,
    },
    "aggregate": {
        "inputs": _Opt("paths", required=True, positional=True,
                       help="trace CSV files to average"),
        "out": _Opt("str", required=True, help="averaged trace CSV path"),
    },
}

_HELP = {
    "generate": "generate a random network and write its edge list",
    "assort": "report the four assortativity coefficients of a network",
    "bounds": "compute attainable assortativity bounds, optionally "
              "conditioned on pinned coefficients (unconditioned bounds are "
              "closed-form; conditioned ones solve a linear program)",
    "solve-eta": "solve for an edge mixing matrix realising target "
                 "coefficients (maximum entropy, centred on heavy tails; a "
                 "linear program where that finds no positive solution, "
                 "which also decides attainability)",
    "rewire": "rewire a network toward target coefficients, preserving "
              "every degree",
    "fit": "fit attachment-model parameters to an observed network by the "
           "composite likelihood of its exact in- and out-degree laws "
           "(deterministic; an error when the degrees do not follow them)",
    "scenario-gains": "attribute rewiring assortativity gains to "
                      "attachment scenario pairs",
    "aggregate": "average several trace CSVs row by row",
}


def _conv_int(value) -> int:
    # Text parses exactly, through int(); a JSON number must be whole.
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _conv_pair(value) -> tuple[int, int]:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        pair = (_conv_int(value[0]), _conv_int(value[1]))
    else:
        pair = tuple(map(int, str(value).strip().lstrip("r").replace(",", "")))
    if pair not in TYPE_PAIRS:
        raise ValueError(value)
    return pair


def _conv_list(conv, value) -> tuple:
    """A JSON list, or else a comma list in text, converted item by item."""
    if not isinstance(value, (list, tuple)):
        value = [tok for tok in str(value).split(",") if tok.strip()]
    return tuple(conv(v) for v in value)


# Each kind's converter, for flag text and config values alike, and what a
# value it cannot read should have been.  Only a flag takes a JSON boolean,
# and a flag nothing else.
_KINDS = {
    "str": (str, "text"),
    "int": (_conv_int, "an integer"),
    "float": (float, "a number"),
    "flag": (bool, "true or false"),
    "floats": (partial(_conv_list, float), "a comma list of numbers"),
    "targets": (partial(_conv_list, float), "four numbers r11,r12,r21,r22"),
    "pair": (_conv_pair, "a type pair 11, 12, 21 or 22 (1 = out, 2 = in)"),
    "pairs": (partial(_conv_list, _conv_pair),
              "a comma list of type pairs like 11,22"),
    "paths": (lambda v: [v] if isinstance(v, str) else [str(x) for x in v],
              "a list of paths"),
}


def _convert(key: str, opt: _Opt, raw):
    conv, expected = _KINDS[opt.kind]
    try:
        if isinstance(raw, bool) != (opt.kind == "flag"):
            raise ValueError(raw)
        value = conv(raw)
    except (TypeError, ValueError):
        raise CliError(f"{key} must be {expected}, got {raw!r}") from None
    if opt.kind == "int" and key != "seed" and not -2**63 <= value < 2**63:
        raise CliError(f"{key} must be an integer within int64, got {raw!r}")
    if opt.kind == "targets" and len(value) != 4:
        raise CliError(f"{key} needs four values r11,r12,r21,r22")
    if opt.kind in ("floats", "pairs", "paths") and not value:
        raise CliError(f"{key} needs at least one value")
    if opt.kind in ("float", "floats", "targets") and not np.isfinite(
            value).all():
        raise CliError(f"{key} must be finite, got {value!r}")
    if opt.choices is not None and value not in opt.choices:
        raise CliError(
            f"{key} must be one of {', '.join(map(str, opt.choices))}"
        )
    return value


def _load_config_file(path: str, command: str, schema: dict) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise CliError(f"{path}: config must be a JSON object")
    stated = raw.pop("command", None)
    if stated is not None and stated != command:
        raise CliError(f"{path}: config is for '{stated}', not '{command}'")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise CliError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return raw


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge CLI > config file > schema defaults into one parameter dict."""
    schema = _SCHEMAS[command]
    cfg: dict = {}
    if getattr(args, "config", None):
        cfg = _load_config_file(args.config, command, schema)
    params: dict = {}
    for key, opt in schema.items():
        value = getattr(args, key, None)
        if value in (None, []):  # [] is an absent nargs="*" positional
            value = cfg.get(key)
        if value is None:
            value = opt.default
        if value is not None:
            value = _convert(key, opt, value)
        params[key] = value
    missing = [k for k, o in schema.items() if o.required and params[k] is None]
    if missing:
        raise CliError(f"missing required options: {', '.join(missing)}")
    for key, least in (("replicates", 1), ("jobs", 1), ("seed", 0),
                       ("edges", 1), ("steps", 1)):
        if params.get(key) is not None and params[key] < least:
            raise CliError(f"{key} must be at least {least}")
    return params


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _profile_fields(g: DirectedGraph) -> dict:
    """Four coefficients as a JSON-ready dict; nulls when undefined."""
    fields: dict = {"r11": None, "r12": None, "r21": None, "r22": None}
    if g.num_edges > 0:
        try:
            fields = assortativity_of_graph(g).as_dict()
        except ValueError:
            pass
    return fields


def _model_graph(params: dict, model: str, seed) -> DirectedGraph:
    """Generate one graph of the er or dpa model from the resolved options."""
    keys = ("n", "p") if model == "er" else _DPA_OPTS
    missing = [k for k in keys if params[k] is None]
    if missing:
        raise CliError(f"the {model} model needs: {', '.join(missing)}")
    values = [params[k] for k in keys]
    if model == "er":
        return gen_er(*values, seed)
    return gen_dpa(DpaParams(*values, seed))


def _replicate_path(path: str, rep: int, replicates: int) -> str:
    if replicates == 1:
        return path
    stem, ext = os.path.splitext(path)
    return f"{stem}.r{rep}{ext}"


def _solve_eta_or_fail(g: DirectedGraph, targets: AssortProfile):
    """The eta realising targets on g's degree structure, or a CliError that
    gives each coefficient's attainable range on its own."""
    p = problem_from_graph(g)
    eta = solve_target_eta(p, targets)
    if eta is None:
        bounds = coefficient_bounds(p)
        ranges = ", ".join("r{}{} in [{:.4f}, {:.4f}]".format(
            a, b, *bounds[(a, b)]) for a, b in TYPE_PAIRS)
        raise CliError("the targets are jointly unattainable for this degree "
                       f"structure (each alone: {ranges})")
    return eta


# _fan_out's shared arguments, set in each worker process by the pool's
# initializer and never in the parent.
_SHARED: tuple = ()


def _share(*shared) -> None:
    global _SHARED
    _SHARED = shared


def _replicate(worker, seed: int, i: int, shared: tuple | None = None):
    """worker(*shared, replicate i's seed), shared defaulting to the
    process's _SHARED.  The seed is the i-th child that
    SeedSequence(seed).spawn gives, built without the children before it."""
    return worker(*(_SHARED if shared is None else shared),
                  np.random.SeedSequence(seed, spawn_key=(i,)))


def _fan_out(worker, params: dict, shared: tuple) -> list:
    """_replicate(worker, params["seed"], i, shared) for each replicate i,
    in order, run across up to params["jobs"] processes.  shared goes to
    each process once, when it starts, not with every task, and at most
    four tasks per process are in flight at once."""
    seed, replicates = params["seed"], params["replicates"]
    # Outputs do not depend on the worker count, so the usable CPUs cap it.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(params["jobs"], replicates, cpus)
    if workers == 1:
        return [_replicate(worker, seed, i, shared) for i in range(replicates)]
    # Imported here: it adds ~30 ms to every start-up, and only --jobs > 1
    # needs it.
    from concurrent.futures import ProcessPoolExecutor

    # Under the fork start method the pool starts all its workers at once,
    # and they inherit shared without pickling it.  On a 2-CPU Linux host,
    # DPA with 1e5 edges and 32 replicates at --jobs 2, sending it with
    # every task instead raised the parent's peak RSS from 104 to 128 MB.
    # Each pending task holds ~2 KB in the parent, so only a window waits.
    results, window = [], deque()
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=_share, initargs=shared) as pool:
        for i in range(replicates):
            window.append(pool.submit(_replicate, worker, seed, i))
            if len(window) == 4 * workers:
                results.append(window.popleft().result())
        return results + [task.result() for task in window]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_generate(params: dict) -> dict:
    g = _model_graph(params, params["model"], params["seed"])
    write_edge_list(g, params["out"])
    return {"nodes": g.num_nodes, "edges": g.num_edges, **_profile_fields(g)}


def cmd_assort(params: dict) -> dict:
    g = read_edge_list(params["graph"])
    if g.num_edges == 0:
        raise CliError("graph has no edges; assortativity undefined")
    profile = assortativity_of_graph(g)
    doc = {"nodes": g.num_nodes, "edges": g.num_edges, **profile.as_dict()}
    if params["out"]:
        _write_json(doc, params["out"])
    return doc


def _bounds_worker(params: dict, seed) -> list[tuple]:
    if params["graph"] is not None:
        g = read_edge_list(params["graph"])
    else:
        g = _model_graph(params, params["model"], seed)
    problem = problem_from_graph(g)
    pairs, cond_pair = params["pairs"], params["condition_pair"]
    rows = []
    for value in params["condition_values"] or (None,):
        conditioning = None
        if value is not None:
            conditioning = {cond_pair: (value, value)}
        result = coefficient_bounds(problem, order=pairs,
                                    conditioning=conditioning)
        for pair in pairs:
            lo, hi = result[pair]
            rows.append((
                "%d%d" % cond_pair if value is not None else "",
                f"{value:.12g}" if value is not None else "",
                "%d%d" % pair, f"{lo:.12g}", f"{hi:.12g}",
            ))
    return rows


def cmd_bounds(params: dict) -> dict:
    if (params["graph"] is None) == (params["model"] is None):
        raise CliError("give exactly one of --graph or --model")
    if params["graph"] is not None and params["replicates"] != 1:
        raise CliError("replicates only make sense with --model")
    if (params["condition_pair"] is None) != (params["condition_values"] is None):
        raise CliError("--condition-pair and --condition-values go together")

    per_rep = _fan_out(_bounds_worker, params, shared=(params,))

    with open(params["out"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["conditioned_pair", "conditioned_value", "pair", "lower", "upper"]
        )
        for rows in per_rep:
            writer.writerows(rows)
    return {"replicates": params["replicates"],
            "rows": sum(len(r) for r in per_rep), "out": params["out"]}


def cmd_solve_eta(params: dict) -> dict:
    g = read_edge_list(params["graph"])
    eta = _solve_eta_or_fail(g, AssortProfile(*params["targets"]))
    write_eta_csv(eta, params["out"])
    return {"entries": int(np.count_nonzero(eta.H)),
            **assortativity(eta).as_dict()}


def _rewire_worker(g: DirectedGraph, eta, setup, cfg: RewiringConfig, seed):
    """One replicate chain's new targets and trace.  Only dst comes back
    from a worker process: the rest of the rewired graph is g's.  rewire is
    looked up in this module when the chain runs, so a wrapper put in its
    place runs in forked worker processes too."""
    rewired, trace = rewire(g, eta, replace(cfg, seed=seed), setup=setup)
    return rewired.dst, trace


def cmd_rewire(params: dict) -> dict:
    targets = (AssortProfile(*params["targets"])
               if params["targets"] is not None else None)
    if params["stop_early"] and targets is None:
        raise CliError("--stop-early needs --targets, the coefficients to "
                       "stop at")
    g = read_edge_list(params["graph"])
    if params["eta"] is not None:
        eta = read_eta_csv(params["eta"])
    elif targets is not None:
        eta = _solve_eta_or_fail(g, targets)
    else:
        raise CliError("give --targets (to solve for a mixing matrix) "
                       "or --eta (to reuse one)")
    # Derived here rather than stored in params, so the echoed config only
    # holds given values and a replay with a new --out gets its own trace.
    trace_base = params["trace"] or f"{params['out']}.trace.csv"

    # Built here, so an invalid setting fails before any chain starts.
    cfg = RewiringConfig(max_steps=params["steps"],
                         checkpoint_every=params["checkpoint_every"],
                         tolerance=params["tolerance"],
                         stop_at=targets if params["stop_early"] else None)
    # The replicates share one graph and one eta, so their seed-free setup
    # is built once; each keeps only its own targets.
    results = [(g.with_targets(dst), trace) for dst, trace in _fan_out(
        _rewire_worker, params, shared=(g, eta, chain_setup(g, eta), cfg))]

    # Recount from each rewired edge list before anything is written: the
    # sources are g's own (with_targets), so the same in-degrees mean every
    # degree pair survived.
    for rewired, _ in results:
        recount = np.bincount(rewired.dst, minlength=g.num_nodes)
        if not np.array_equal(recount, g.in_deg):
            raise CliError("internal check failed: degrees changed")
    reports = []
    for rep, (rewired, trace) in enumerate(results):
        out_path = _replicate_path(params["out"], rep, len(results))
        trace_path = _replicate_path(trace_base, rep, len(results))
        write_edge_list(rewired, out_path)
        trace.to_csv(trace_path)
        report = {"out": out_path, "trace": trace_path,
                  "final": trace.final_profile().as_dict()}
        if targets is not None:
            report["reached_step"] = trace.first_step_within(
                targets, params["tolerance"])
        reports.append(report)
    return {"edges": g.num_edges, "replicates": reports}


def cmd_fit(params: dict) -> dict:
    doc = fit_ev(read_edge_list(params["graph"])).as_dict()
    if params["out"]:
        _write_json(doc, params["out"])
    return doc


def _gains_worker(params: dict, seed):
    gen_seed, chain_seed = seed.spawn(2)
    g = _model_graph(params, "dpa", gen_seed)
    eta = _solve_eta_or_fail(g, AssortProfile(*params["targets"]))
    # The trace is dropped: one checkpoint, at the last step, is enough.
    cfg = RewiringConfig(max_steps=params["steps"],
                         checkpoint_every=params["steps"], seed=chain_seed)
    _, _, gains = rewire_with_scenario_gains(g, eta, cfg)
    return gains


def cmd_scenario_gains(params: dict) -> dict:
    all_gains = _fan_out(_gains_worker, params, shared=(params,))

    with open(params["out"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "scenario_pair", "count",
                         "d_r11", "d_r12", "d_r21", "d_r22"])
        for rep, gains in enumerate(all_gains):
            rows = [("-".join(key), gains.counts.get(key, 0),
                     gains.delta_r.get(key, {})) for key in _BUCKETS]
            rows.append(("total", sum(gains.counts.values()),
                         gains.total_delta_r))
            for name, count, delta in rows:
                writer.writerow([rep, name, count] + [
                    f"{delta.get(f'r{a}{b}', 0.0):.12g}"
                    for a, b in TYPE_PAIRS])
    return {"replicates": params["replicates"], "out": params["out"]}


def cmd_aggregate(params: dict) -> dict:
    paths = params["inputs"]
    traces = [read_trace_csv(path) for path in paths]
    # Stop-early replicates stop at different steps: average the shortest's.
    short = min(range(len(traces)), key=lambda i: len(traces[i].checkpoints))
    steps0 = [row[0] for row in traces[short].checkpoints]
    if not steps0:
        raise CliError(f"{paths[short]}: no checkpoint rows")
    for path, trace in zip(paths, traces):
        if [row[0] for row in trace.checkpoints[:len(steps0)]] != steps0:
            raise CliError(f"{path}: checkpoint steps do not begin with "
                           f"those of {paths[short]}")
    mean_rows = []
    for i, step in enumerate(steps0):
        stack = np.array([trace.checkpoints[i][1:] for trace in traces])
        mean_rows.append((step, *stack.mean(axis=0).tolist()))
    RewiringTrace(mean_rows).to_csv(params["out"])
    return {"inputs": len(traces), "rows": len(mean_rows),
            "out": params["out"]}


_HANDLERS = {
    "generate": cmd_generate,
    "assort": cmd_assort,
    "bounds": cmd_bounds,
    "solve-eta": cmd_solve_eta,
    "rewire": cmd_rewire,
    "fit": cmd_fit,
    "scenario-gains": cmd_scenario_gains,
    "aggregate": cmd_aggregate,
}


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # subparsers share the class
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    """The subcommands and their flags, all read as text (see _convert)."""
    parser = _Parser(
        prog="didpr",
        description="Directed-network assortativity toolkit: generate, "
                    "bound, rewire, fit.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for command, schema in _SCHEMAS.items():
        sp = sub.add_parser(command, help=_HELP[command],
                            description=_HELP[command])
        sp.add_argument("--config",
                        help="JSON file with option values; explicit flags "
                             "win over it")
        for key, opt in schema.items():
            if opt.positional:
                sp.add_argument(key, nargs="*" if opt.kind == "paths" else "?",
                                help=opt.help)
            else:
                sp.add_argument("--" + key.replace("_", "-"), dest=key,
                                action=(argparse.BooleanOptionalAction
                                        if opt.kind == "flag" else "store"),
                                default=None, help=opt.help)
    return parser


def main(argv=None) -> int:
    """Run one subcommand, then echo its config and print its summary."""
    try:
        args = build_parser().parse_args(argv)
        params = _resolve(args, args.command)
        summary = _HANDLERS[args.command](params)
        if params["out"]:
            _write_json({"command": args.command,
                         **{k: v for k, v in params.items() if v is not None}},
                        f"{params['out']}.config.json")
        print(json.dumps(summary))
        return 0
    except (ValueError, LookupError, OSError, RuntimeError, OverflowError,
            MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
