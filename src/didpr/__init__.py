"""Directed-network assortativity toolkit.

Generate directed random networks, measure the four directed
degree--degree assortativity coefficients, decide which target values are
jointly attainable, rewire a network toward attainable targets while
preserving every node's out- and in-degrees, and fit the
preferential-attachment model behind the generator.
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
    AssortBounds,
    EtaProblem,
    coefficient_bounds,
    problem_from_graph,
    problem_from_nu,
    solve_target_eta,
)
from .fit import EvFit, beta_hat, fit_ev, invert_tail_indices, polar_transform, tail_index, tail_indices_from_params
from .generate import DpaParams, gen_dpa, gen_er
from .graph import (
    DegreePairDist,
    DirectedGraph,
    GraphFormatError,
    degree_pair_dist,
    read_edge_labels,
    read_edge_list,
    write_edge_labels,
    write_edge_list,
)
from .lp import LpError, LpSolution, LpStatus, solve
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
    "AssortBounds",
    "EtaProblem",
    "coefficient_bounds",
    "problem_from_graph",
    "problem_from_nu",
    "solve_target_eta",
    "EvFit",
    "beta_hat",
    "fit_ev",
    "invert_tail_indices",
    "polar_transform",
    "tail_index",
    "tail_indices_from_params",
    "DpaParams",
    "gen_dpa",
    "gen_er",
    "DegreePairDist",
    "DirectedGraph",
    "GraphFormatError",
    "degree_pair_dist",
    "read_edge_labels",
    "read_edge_list",
    "write_edge_labels",
    "write_edge_list",
    "LpError",
    "LpSolution",
    "LpStatus",
    "solve",
    "RewiringConfig",
    "RewiringTrace",
    "ScenarioGains",
    "read_trace_csv",
    "rewire",
    "rewire_with_scenario_gains",
    "__version__",
]
