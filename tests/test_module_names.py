"""Every global name read inside a function of the package must exist.

A function that reads a name which is neither bound at module level nor a
builtin imports and collects fine, then raises NameError only when it runs.
This scan reports such names statically, one line per name, with the
standard-library symtable module.  A second scan does the same for names a
module exports in __all__ or imports from a sibling module.  A third lists
every scipy import: the package runs on numpy, and the one scipy module it
loads, HiGHS's extension for the LPs, it loads from the extension's file
(lp._highs_core), with no import statement.
"""
import ast
import builtins
import symtable
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "didpr"
MODULE_FILES = sorted(SRC.glob("*.py"))

# Names the interpreter binds in every module namespace.
_MODULE_DUNDERS = {
    "__name__", "__file__", "__doc__", "__package__", "__spec__",
    "__loader__", "__builtins__", "__path__", "__cached__",
}


def _nested(table: symtable.SymbolTable):
    for child in table.get_children():
        yield child
        yield from _nested(child)


def module_bindings(path: Path) -> set[str]:
    """Names bound at module level: assignments, defs, classes, imports."""
    module = symtable.symtable(path.read_text(encoding="utf-8"),
                               str(path), "exec")
    return {s.get_name() for s in module.get_symbols()
            if s.is_assigned() or s.is_imported()}


def stale_exports(path: Path) -> list[str]:
    """'<file>:<line> <name>' for each __all__ entry the module does not
    bind, and each `from .module import name` whose module does not bind
    name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = module_bindings(path)
    found = []
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            found += [f"{path.name}:{node.lineno} {elt.value}"
                      for elt in node.value.elts if elt.value not in bound]
        elif (isinstance(node, ast.ImportFrom) and node.level == 1
              and node.module is not None):
            source = module_bindings(path.parent / f"{node.module}.py")
            found += [f"{path.name}:{node.lineno} {node.module}.{a.name}"
                      for a in node.names if a.name not in source]
    return found


def unresolved_globals(path: Path) -> list[str]:
    """'<file>:<line> <name>' for each global read that nothing binds."""
    module = symtable.symtable(path.read_text(encoding="utf-8"),
                               str(path), "exec")
    scopes = list(_nested(module))
    bound = module_bindings(path)
    # `global x; x = ...` inside a function also binds x at module level.
    bound |= {s.get_name() for t in scopes for s in t.get_symbols()
              if s.is_declared_global() and s.is_assigned()}
    known = bound | set(dir(builtins)) | _MODULE_DUNDERS

    found = []
    for table in scopes:
        for sym in table.get_symbols():
            name = sym.get_name()
            if sym.is_global() and sym.is_referenced() and name not in known:
                found.append(f"{path.name}:{table.get_lineno()} {name}")
    return found


def test_scan_flags_an_unbound_global(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from math import sqrt\n"
        "LIMIT = 3\n"
        "def ok(x):\n"
        "    return sqrt(x) + LIMIT + len([x])\n"
        "def bad(x):\n"
        "    return {a: _missing(a) for a in x}\n",
        encoding="utf-8",
    )
    assert unresolved_globals(src) == ["probe.py:6 _missing"]


@pytest.mark.parametrize("path", MODULE_FILES, ids=lambda p: p.name)
def test_no_unresolved_global_names(path):
    assert unresolved_globals(path) == []


def test_export_scan_flags_stale_names(tmp_path):
    (tmp_path / "lib.py").write_text("def kept():\n    pass\n",
                                     encoding="utf-8")
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .lib import kept, dropped\n"
        "__all__ = ['kept', 'gone']\n",
        encoding="utf-8",
    )
    assert stale_exports(probe) == ["probe.py:1 lib.dropped",
                                    "probe.py:2 gone"]


@pytest.mark.parametrize("path", MODULE_FILES, ids=lambda p: p.name)
def test_exports_and_sibling_imports_bound(path):
    assert stale_exports(path) == []


def scipy_imports(path: Path) -> list[str]:
    """'<file> <module>' for each scipy module the file imports, at any
    depth of its syntax tree."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return [f"{path.name} {mod}" for mod in found
            if mod.split(".")[0] == "scipy"]


def test_import_scan_finds_nested_scipy_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import scipy.sparse as sp\n"
        "def f():\n"
        "    from scipy.optimize import linprog\n",
        encoding="utf-8",
    )
    assert scipy_imports(probe) == ["probe.py scipy.sparse",
                                    "probe.py scipy.optimize"]


def test_only_scipy_import_is_highs_in_lp():
    # HiGHS, the one scipy module lp.py loads, comes from its file.
    found = [line for path in MODULE_FILES for line in scipy_imports(path)]
    assert found == []
