"""Per-layer spans for the traced mode of the benchmark.

The CLI binds the layer functions with `from ... import`, so a span is
recorded by replacing the name in the calling module for the length of a
traced session: `didpr.cli` for the stages, `didpr.fit` for the candidate
simulations and tail fits, `didpr.eta` for the degree-pair distribution,
and `didpr.lp.solve` itself, which `eta` reaches through its `lplib`
module reference.  Spans (name, start, end, parent) are kept in memory and
summed into per-layer metrics when the session ends.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def _wrap(self, name, fn, after):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, None, None,
                               self._open[-1] if self._open else None])
            self._open.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[idx][1:3] = [start, end]
                self.seconds[name] += end - start
                self.calls[name] += 1
            if after is not None:
                after(self.counts, args, result)
            return result
        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers; restore the original names on exit."""
        import didpr.cli
        import didpr.eta
        import didpr.fit
        import didpr.lp

        targets = [
            (didpr.cli, "gen_er", "generate.gen_er", None),
            (didpr.cli, "gen_dpa", "generate.gen_dpa", _dpa_edges),
            (didpr.fit, "gen_dpa", "generate.gen_dpa", _dpa_edges),
            (didpr.cli, "read_edge_list", "graph.read_edge_list", None),
            (didpr.cli, "write_edge_list", "graph.write_edge_list", None),
            (didpr.cli, "degree_pair_dist", "graph.degree_pair_dist", None),
            (didpr.eta, "degree_pair_dist", "graph.degree_pair_dist", None),
            (didpr.cli, "assortativity_of_graph",
             "assortativity.assortativity_of_graph", None),
            (didpr.cli, "write_eta_csv", "assortativity.write_eta_csv", None),
            (didpr.cli, "read_eta_csv", "assortativity.read_eta_csv", None),
            (didpr.cli, "solve_target_eta", "eta.solve_target_eta", None),
            (didpr.cli, "coefficient_bounds", "eta.coefficient_bounds", None),
            (didpr.lp, "solve", "lp.solve", _lp_vars),
            (didpr.cli, "rewire", "rewire.rewire", _chain_counts("rewire")),
            (didpr.cli, "rewire_with_scenario_gains", "rewire.gains",
             _chain_counts("gains")),
            (didpr.cli, "fit_ev", "fit.fit_ev", None),
            (didpr.fit, "tail_index", "fit.tail_index", None),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
        try:
            for mod, attr, name, after in targets:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr), after))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def metrics(self, stage_seconds: dict[str, float]) -> dict[str, tuple]:
        """Per-layer metrics as name -> (value, unit).  Times are inclusive:
        a span's time includes the spans it calls."""
        s, n, c = self.seconds, self.calls, self.counts
        out = {f"cli.{stage.replace('-', '_')}_s": (stage_seconds.get(stage, 0.0), "s")
               for stage in ("generate", "fit", "bounds", "solve-eta",
                             "rewire", "scenario-gains")}
        for name in ("graph.read_edge_list", "graph.write_edge_list",
                     "graph.degree_pair_dist", "generate.gen_er",
                     "generate.gen_dpa", "assortativity.assortativity_of_graph",
                     "assortativity.write_eta_csv", "assortativity.read_eta_csv",
                     "eta.solve_target_eta", "eta.coefficient_bounds",
                     "lp.solve", "rewire.rewire", "fit.fit_ev",
                     "fit.tail_index"):
            out[f"{name}_s"] = (s[name], "s")
        out["rewire.gains_s"] = (s["rewire.gains"], "s")
        out["generate.gen_dpa_calls"] = (n["generate.gen_dpa"], "count")
        out["generate.dpa_edges_per_s"] = (
            _rate(c["dpa_edges"], s["generate.gen_dpa"]), "1/s")
        out["eta.solve_target_eta_calls"] = (n["eta.solve_target_eta"], "count")
        out["lp.solve_calls"] = (n["lp.solve"], "count")
        out["lp.vars"] = (int(c["lp_vars"]), "count")
        out["rewire.steps"] = (int(c["rewire_steps"]), "steps")
        out["rewire.msteps_per_s"] = (
            _rate(c["rewire_steps"], s["rewire.rewire"]) / 1e6, "Msteps/s")
        out["rewire.acc_rate"] = (
            c["rewire_accepted"] / c["rewire_steps"] if c["rewire_steps"] else 0.0,
            "ratio")
        out["rewire.gains_msteps_per_s"] = (
            _rate(c["gains_steps"], s["rewire.gains"]) / 1e6, "Msteps/s")
        return out


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0.0 else 0.0


def _dpa_edges(counts, args, result):
    counts["dpa_edges"] += result.num_edges


def _lp_vars(counts, args, result):
    counts["lp_vars"] += args[0].num_vars


def _chain_counts(prefix):
    """Steps and accepted swaps of one chain, read off its trace: each row
    holds the acceptance rate since the previous row."""
    def after(counts, args, result):
        rows = result[1].checkpoints
        steps = rows[-1][0]
        accepted = sum(round(row[5] * (row[0] - prev[0]))
                       for prev, row in zip(rows, rows[1:]))
        counts[f"{prefix}_steps"] += steps
        counts[f"{prefix}_accepted"] += accepted
    return after
