"""Line-scan reference for the edge-list and label-sidecar readers.

The form read_edge_list and its sidecar reader had before plain files got a
bulk path: every line of the file stripped, the data rows parsed in one
np.loadtxt call with the first bad row found by halving, and the headers
read in a Python loop.  For any file, the library must give the same node
count and edges, the same labels, or a GraphFormatError with the same text.
"""
import numpy as np

from didpr.graph import _LABEL_NAMES, DirectedGraph, GraphFormatError

_EDGE_DTYPE = np.dtype([("ends", np.int64, (2,))])


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().split("\n")


def _parse_rows(rows, dtype):
    """(table of rows[:n], n), n the index of the first row that does not
    parse, or len(rows)."""
    def parse(part):
        if not part:
            return np.empty(0, dtype)
        return np.loadtxt(part, dtype=dtype, comments=None, ndmin=1)
    try:
        return parse(rows), len(rows)
    except ValueError:
        lo, hi = 0, len(rows)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse(rows[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    return parse(rows[:lo]), lo


def reference_read_edge_list(path):
    lines = [line.strip() for line in _lines(path)]
    nos = [no for no, s in enumerate(lines, 1) if s and s[0] not in "#%"]
    rows = [lines[no - 1] for no in nos]
    table, parsed = _parse_rows(rows, _EDGE_DTYPE)
    ends = table["ends"]
    problem = (parsed, 1) if parsed < len(rows) else None
    negative = (ends < 0).any(axis=1)
    if negative.any() and (problem is None or np.argmax(negative) < problem[0]):
        problem = (int(np.argmax(negative)), 0)
    stop = nos[problem[0]] if problem else len(lines)
    declared = None
    for no in [no for no, s in enumerate(lines[:stop], 1)
               if s[:1] in ("#", "%")]:
        body = lines[no - 1][1:].strip()
        if not body.startswith("nodes="):
            continue
        try:
            declared = int(body[len("nodes="):])
        except ValueError as exc:
            raise GraphFormatError(
                f"{path}:{no}: bad node-count header {body!r}") from exc
        if declared < 0:
            raise GraphFormatError(
                f"{path}:{no}: negative node count {declared}")
    if problem:
        row, kind = problem
        line = rows[row]
        why = ("negative node id in" if kind == 0
               else "non-integer node id in" if len(line.split()) == 2
               else "expected 'src dst', got")
        raise GraphFormatError(f"{path}:{nos[row]}: {why} {line!r}")
    top = int(ends.max(initial=-1))
    num_nodes = declared if declared is not None else top + 1
    if top >= num_nodes:
        raise GraphFormatError(
            f"{path}: node id {top} exceeds declared node count {num_nodes}"
        )
    return DirectedGraph.from_edges(num_nodes, ends[:, 0], ends[:, 1])


def reference_read_edge_labels(path, num_edges):
    lines = [line.strip() for line in _lines(path)]
    nos = [no for no, s in enumerate(lines, 1) if s]
    codes = [lines[no - 1] for no in nos]
    bad = [code not in _LABEL_NAMES for code in codes]
    if any(bad):
        row = bad.index(True)
        raise GraphFormatError(
            f"{path}:{nos[row]}: unknown label {codes[row]!r}")
    if len(codes) != num_edges:
        raise GraphFormatError(
            f"{path}: {len(codes)} labels for {num_edges} edges"
        )
    return np.asarray(codes, dtype="U1")
