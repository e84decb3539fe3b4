"""The benchmark's tracer against the library names it wraps.

perfbench/tracing.py records per-layer spans by replacing library functions
by name (lp.solve, cli.degree_pair_dist, eta.degree_pair_dist, ...) for the
length of a traced session.  Entering its patch context reads every one of
them, so a name that was removed or renamed fails here, not only in a
traced benchmark run.
"""
import importlib.util
from pathlib import Path

import didpr.lp

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_name():
    solve = didpr.lp.solve
    with load_tracing().Tracer().patched():
        assert didpr.lp.solve is not solve
    assert didpr.lp.solve is solve
