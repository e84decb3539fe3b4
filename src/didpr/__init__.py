"""Directed-network assortativity toolkit.

Generate directed random networks, measure the four directed
degree--degree assortativity coefficients, decide which target values are
jointly attainable, rewire a network toward attainable targets while
preserving every node's out- and in-degrees, and fit the
preferential-attachment model behind the generator.

didpr.assortativity and didpr.rewire are the functions of those names; the
modules are reached through importlib.import_module("didpr.rewire").
"""
from .assortativity import (
    TYPE_PAIRS,
    AssortProfile,
    EdgeMixMatrix,
    assortativity,
    assortativity_of_graph,
    edge_mix_from_graph,
    read_eta_csv,
    write_eta_csv,
)
from .eta import (
    EtaProblem,
    coefficient_bounds,
    problem_from_graph,
    problem_from_nu,
    solve_target_eta,
)
from .fit import EvFit, beta_hat, fit_ev, tail_indices_from_params
from .generate import DpaParams, gen_dpa, gen_er
from .graph import (
    DirectedGraph,
    GraphFormatError,
    degree_pair_dist,
    read_edge_list,
    write_edge_list,
)
from .lp import LpError
from .rewire import (
    RewiringConfig,
    RewiringTrace,
    ScenarioGains,
    read_trace_csv,
    rewire,
    rewire_with_scenario_gains,
)

__version__ = "0.1.0"

__all__ = [
    "TYPE_PAIRS",
    "AssortProfile",
    "EdgeMixMatrix",
    "assortativity",
    "assortativity_of_graph",
    "edge_mix_from_graph",
    "read_eta_csv",
    "write_eta_csv",
    "EtaProblem",
    "coefficient_bounds",
    "problem_from_graph",
    "problem_from_nu",
    "solve_target_eta",
    "EvFit",
    "beta_hat",
    "fit_ev",
    "tail_indices_from_params",
    "DpaParams",
    "gen_dpa",
    "gen_er",
    "DirectedGraph",
    "GraphFormatError",
    "degree_pair_dist",
    "read_edge_list",
    "write_edge_list",
    "LpError",
    "RewiringConfig",
    "RewiringTrace",
    "ScenarioGains",
    "read_trace_csv",
    "rewire",
    "rewire_with_scenario_gains",
    "__version__",
]
