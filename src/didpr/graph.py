"""Directed multigraph container and edge-list utilities.

The graph is stored as parallel source/target index arrays so that degree
lookups and edge swaps stay cheap during long rewiring runs.  Self-loops and
repeated edges are allowed everywhere; node ids are 0-based integers.

It owns the codes other modules share: _pair_codes packs an (out, in)
degree pair into one int64 that sorts as the pairs do (_decode_pairs
unpacks it), and _LABEL_CODES holds the scenario labels a, b, g of
generated edges, for alpha, beta, gamma.

File formats.  Every reader here and in assortativity and rewire takes UTF-8
text whose lines end in LF, CRLF or CR, parses all rows in one np.loadtxt
call and raises on the first bad line as "path:line: ...", counting every
line of the file, blank and comment lines included.  Integers are decimal;
as np.loadtxt allows, a field may carry spaces around it and a leading '+'.

* Edge list, read: each line is stripped; empty lines are skipped; a line
  starting with '#' or '%' is a comment, and a comment "# nodes=N" (the
  last one counts) fixes the node count, which is otherwise one plus the
  largest id.  Every other line is "src dst": two nonnegative integers
  separated by spaces or tabs, with nothing after them (no third field, no
  trailing comment).  Written: b"# nodes=N\n", then b"src\tdst\n" per edge
  in storage order.
* Label sidecar ("<edge list>.labels"), read: one code a, b or g per line,
  stripped, blank lines skipped, one per edge.  Written: b"code\n" per
  edge in storage order.  It belongs to the edge list: read_edge_list
  attaches it when it exists, and write_edge_list replaces both files.

Two read paths, one result.  Every file the writers here make takes the
bulk path: a plain edge list (printable ASCII but '%', tabs and line ends,
every '#' at the start of a line) is parsed by one np.loadtxt pass over the
file, and a sidecar of a, b, g and LF, one code per line, by one split.
Any other file, and a plain one whose bulk read fails or finds a bad value,
goes through the line scan described above, the one place that names errors.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
# Nearly every subcommand uses both (np.unique loads numpy.ma on its first
# call), so they load with the package rather than inside the first stage
# that needs them.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

__all__ = [
    "DirectedGraph",
    "DegreePairDist",
    "GraphFormatError",
    "degree_pair_dist",
    "read_edge_list",
    "write_edge_list",
]

# Scenario label codes, in scenario order, and the scenario each names.
_LABEL_CODES = ("a", "b", "g")
_LABEL_NAMES = dict(zip(_LABEL_CODES, ("alpha", "beta", "gamma")))


class GraphFormatError(ValueError):
    """Raised when an edge-list file cannot be parsed."""


@dataclass
class DirectedGraph:
    """A directed multigraph with cached degree arrays.

    A graph from with_targets, such as a rewired replicate, shares src,
    out_deg, in_deg and edge_labels with the graph it came from, as
    read-only views; its dst is the only array it owns.

    Attributes:
        num_nodes: number of nodes; ids run from 0 to num_nodes - 1.
        src: int64 array, source node of each edge.
        dst: int64 array, target node of each edge.
        out_deg: int64 array of length num_nodes.
        in_deg: int64 array of length num_nodes.
        edge_labels: optional per-edge scenario label codes (_LABEL_CODES)
            set by the preferential-attachment generator; None otherwise.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    out_deg: np.ndarray
    in_deg: np.ndarray
    edge_labels: np.ndarray | None = field(default=None)

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        src,
        dst,
        edge_labels=None,
    ) -> "DirectedGraph":
        """Build a graph from edge endpoint sequences, recomputing degrees.

        Raises ValueError when an endpoint is outside [0, num_nodes), or
        when a label is longer than one character, rather than cut it short.
        """
        if num_nodes < 0:
            raise ValueError("num_nodes must be nonnegative")
        src = np.asarray(src, dtype=np.int64).copy()
        dst = np.asarray(dst, dtype=np.int64).copy()
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be 1-d arrays of equal length")
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= num_nodes:
                raise ValueError(
                    f"edge endpoint out of range: saw node {hi if hi >= num_nodes else lo}"
                    f" with num_nodes={num_nodes}"
                )
        out_deg = np.bincount(src, minlength=num_nodes).astype(np.int64)
        in_deg = np.bincount(dst, minlength=num_nodes).astype(np.int64)
        labels = None
        if edge_labels is not None:
            labels = np.asarray(edge_labels, dtype=str)
            if labels.shape != src.shape:
                raise ValueError("edge_labels must align with the edge arrays")
            cut = labels.astype("U1")
            long = labels[cut != labels]
            if long.size:
                raise ValueError(f"edge label {str(long[0])!r} is longer "
                                 "than one character")
            labels = cut
        return cls(num_nodes, src, dst, out_deg, in_deg, labels)

    def with_targets(self, dst) -> "DirectedGraph":
        """This graph with the edges' targets replaced by dst.

        dst must give every node its in-degree here, as a degree-preserving
        rewiring does; it is not recounted.  The result shares src,
        out_deg, in_deg and edge_labels with this graph as read-only views,
        and owns dst, taken as is when it is already an int64 array.
        """
        dst = np.asarray(dst, dtype=np.int64)
        if dst.shape != self.src.shape:
            raise ValueError("dst must hold one target per edge")
        return DirectedGraph(self.num_nodes, _read_only(self.src), dst,
                             _read_only(self.out_deg),
                             _read_only(self.in_deg),
                             _read_only(self.edge_labels))

    @property
    def num_edges(self) -> int:
        return int(self.src.size)


def _read_only(a: np.ndarray | None) -> np.ndarray | None:
    """A read-only view of a (None for None)."""
    if a is None:
        return None
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class DegreePairDist:
    """Joint distribution of (out-degree, in-degree) over nodes.

    entries maps (out, in) -> proportion of nodes; values are positive and
    sum to one.
    """

    entries: dict[tuple[int, int], float]


def _pair_codes(deg_a: np.ndarray, deg_b: np.ndarray) -> np.ndarray:
    # Encode (a, b) pairs into one int for fast uniquing; degrees are < 2**31.
    return deg_a.astype(np.int64) * (np.int64(1) << 32) + deg_b.astype(np.int64)


def _decode_pairs(codes: np.ndarray) -> list[tuple[int, int]]:
    """The (a, b) pairs that _pair_codes encoded as codes."""
    return list(zip((codes >> 32).tolist(),
                    (codes & ((np.int64(1) << 32) - 1)).tolist()))


def degree_pair_dist(g: DirectedGraph) -> DegreePairDist:
    """Empirical joint (out, in) degree-pair distribution of a graph.

    Raises ValueError for a graph with no nodes.
    """
    if g.num_nodes == 0:
        raise ValueError("empty graph: degree pair distribution undefined")
    uniq, counts = np.unique(_pair_codes(g.out_deg, g.in_deg),
                             return_counts=True)
    return DegreePairDist(dict(zip(_decode_pairs(uniq),
                                   (counts / g.num_nodes).tolist())))


# ---------------------------------------------------------------------------
# Text files
# ---------------------------------------------------------------------------

# Rows per write call: the writers build text in chunks of this many lines,
# so memory stays flat however large the graph.
_WRITE_ROWS = 100_000


def _lines(path) -> list[str]:
    """The lines of a UTF-8 text file; LF, CRLF and CR each end a line."""
    with open(path, encoding="utf-8") as fh:
        return fh.read().split("\n")


def _csv_rows(path, header: tuple[str, ...]) -> tuple[list[int], list[str]]:
    """(line numbers, lines) of the data rows of a CSV file: the nonblank
    lines after a header line that must read exactly `header`."""
    lines = _lines(path)
    if lines[0].split(",") != list(header):
        raise ValueError(f"{path}: expected header {','.join(header)}")
    nos = [no for no, line in enumerate(lines[1:], 2) if line]
    return nos, [lines[no - 1] for no in nos]


def _parse_rows(rows: list[str], dtype: np.dtype, delimiter=None):
    """Parse rows in one np.loadtxt call into a structured array.

    Returns (table, n): table holds rows[:n], and n is the index of the
    first row that does not parse (len(rows) when all do).  dtype fixes the
    field count, so a row parses or fails on its own, and the first failure
    is found by halving with the parser itself as the test.
    """
    def parse(part):
        if not part:
            return np.empty(0, dtype)
        return np.loadtxt(part, dtype=dtype, delimiter=delimiter,
                          comments=None, ndmin=1)
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


def _bulk_table(path, dtype: np.dtype, **options):
    """The rows of a UTF-8 file parsed in one np.loadtxt pass over the path,
    which reads it in chunks, not a string per line; None when that fails.

    Any failure leaves the file to the caller's line scan, which reads it
    again and decides.  Not only ValueError: np.loadtxt opens a name ending
    in .gz, .bz2, .xz or .lzma through a decompressor, which raises its own.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows
            return np.loadtxt(path, dtype=dtype, ndmin=1, encoding="utf-8",
                              **options)
    except Exception:
        return None


def _bulk_csv(path, header: tuple[str, ...], dtype: np.dtype):
    """The data rows of a CSV file whose first line reads exactly `header`
    (as _csv_rows checks it), parsed by _bulk_table; None when the header
    differs or the file cannot be read that way."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
    except Exception:
        return None
    if first.rstrip("\n") != ",".join(header):
        return None
    return _bulk_table(path, dtype, delimiter=",", comments=None, skiprows=1)


def _first_problem(num_rows: int, parsed: int, *flags):
    """(row, kind) of the earliest bad row, or None when every row is good.

    flags are row masks over the first `parsed` rows; kind is the index of
    the first mask that flags the row, or len(flags) for the row that did
    not parse.
    """
    found = (parsed, len(flags)) if parsed < num_rows else None
    for kind, bad in enumerate(flags):
        if bad.any() and (found is None or np.argmax(bad) < found[0]):
            found = (int(np.argmax(bad)), kind)
    return found


_EDGE_DTYPE = np.dtype([("ends", np.int64, (2,))])


def read_edge_list(path) -> DirectedGraph:
    """Read an edge list (format in the module docstring), with the labels
    of its sidecar "<path>.labels" when that exists.

    A plain file (_plain) goes through _bulk_edge_list.  Any other file,
    and a plain one that the bulk path turns back, goes through the line
    scan (_scan_edge_list), which raises GraphFormatError naming the first
    bad line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    g = _bulk_edge_list(path, data) if _plain(data) else None
    g = _scan_edge_list(path) if g is None else g
    if os.path.exists(f"{path}.labels"):
        g.edge_labels = _read_edge_labels(f"{path}.labels", g.num_edges)
    return g


# Bytes of a plain edge list: printable ASCII but '%', tab, LF and CR.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b"%", b"") + b"\t\n\r"


def _plain(data: bytes) -> bool:
    """Whether the bulk path may read the file: every '#' starts a line, so
    np.loadtxt drops exactly the scan's comment lines, and the file holds
    only _PLAIN_BYTES.  Without '%', a '%' comment, which np.loadtxt would
    take for a bad row, goes straight to the scan; the rest of that rule is
    a precaution: where str.strip and np.loadtxt could part on what is
    whitespace, the line scan decides."""
    if data.translate(None, _PLAIN_BYTES):
        return False
    hashes, first = data.count(b"#"), data.startswith(b"#")
    return hashes == first or hashes == first + data.count(b"\n#")


def _bulk_edge_list(path, data: bytes) -> DirectedGraph | None:
    """The graph of a plain edge list, parsed in one np.loadtxt pass, with
    the "# nodes=N" headers read from its '#' lines; None when the line scan
    must run, to name an error or because np.loadtxt could not read it."""
    declared: int | None = None
    at = data.find(b"#")
    while at >= 0:
        end = data.find(b"\n", at)
        body = data[at + 1:end if end >= 0 else None].strip()
        if body.startswith(b"nodes="):
            # A lone CR inside body fails int() too: the scan reads it.
            try:
                declared = int(body[len(b"nodes="):])
            except ValueError:
                return None
            if not 0 <= declared < 2**63:
                return None
        at = data.find(b"#", at + 1)
    table = _bulk_table(path, _EDGE_DTYPE, comments="#")
    if table is None:
        return None
    ends = table["ends"]
    top = int(ends.max(initial=-1))
    num_nodes = declared if declared is not None else top + 1
    if ends.min(initial=0) < 0 or top >= num_nodes:
        return None
    return DirectedGraph.from_edges(num_nodes, ends[:, 0], ends[:, 1])


def _scan_edge_list(path) -> DirectedGraph:
    """Read an edge list line by line: each line stripped, the data rows
    parsed in one _parse_rows call, the headers in a loop.  Raises
    GraphFormatError naming the first bad line."""
    lines = [line.strip() for line in _lines(path)]
    nos = [no for no, s in enumerate(lines, 1) if s and s[0] not in "#%"]
    rows = [lines[no - 1] for no in nos]
    table, parsed = _parse_rows(rows, _EDGE_DTYPE)
    ends = table["ends"]
    problem = _first_problem(len(rows), parsed, (ends < 0).any(axis=1))
    stop = nos[problem[0]] if problem else len(lines)
    declared: int | None = None
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
        if declared >= 2**63:
            raise GraphFormatError(
                f"{path}:{no}: node count {declared} does not fit in int64")
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


@lru_cache(maxsize=1)
def _node_ids(num_nodes: int) -> np.ndarray:
    """The decimal strings of the node ids, as a read-only object array.
    The last table is kept: rewiring replicates write one node set again
    and again."""
    ids = np.array(list(map(str, range(num_nodes))), dtype=object)
    ids.flags.writeable = False
    return ids


def write_edge_list(g: DirectedGraph, path) -> None:
    """Write a graph as an edge list, preserving edge order, and replace its
    sidecar "<path>.labels": written for a labelled graph, else removed.

    A "# nodes=N" header is always written so isolated nodes survive a
    round trip.  Each node id is formatted once (_node_ids) and looked up
    per edge.
    """
    ids = _node_ids(g.num_nodes)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes={g.num_nodes}\n")
        for lo in range(0, g.num_edges, _WRITE_ROWS):
            src, dst = g.src[lo:lo + _WRITE_ROWS], g.dst[lo:lo + _WRITE_ROWS]
            rows = np.empty((src.size, 4), dtype=object)
            rows[:, 0], rows[:, 1] = ids[src], "\t"
            rows[:, 2], rows[:, 3] = ids[dst], "\n"
            fh.write("".join(rows.ravel().tolist()))
    if g.edge_labels is not None:
        _write_edge_labels(g, f"{path}.labels")
    elif os.path.exists(f"{path}.labels"):
        os.remove(f"{path}.labels")


def _write_edge_labels(g: DirectedGraph, path) -> None:
    """Write a labelled graph's label sidecar, one code per line."""
    codes = g.edge_labels.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(codes), _WRITE_ROWS):
            fh.write("\n".join(codes[lo:lo + _WRITE_ROWS]) + "\n")


def _read_edge_labels(path, num_edges: int) -> np.ndarray:
    """Read a label sidecar.

    A sidecar of a, b, g and LF alone, one code per line and one per edge,
    is read in one split.  Any other file goes through the line scan
    (_scan_edge_labels): blank lines are skipped, and an unknown code or a
    wrong count raises GraphFormatError, naming the line of the code.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.translate(None, "".join(_LABEL_CODES).encode() + b"\n"):
        codes = data.decode("ascii").split()
        if len(codes) == num_edges == len(data) - data.count(b"\n"):
            return np.array(codes, dtype="U1")
    return _scan_edge_labels(path, num_edges)


def _scan_edge_labels(path, num_edges: int) -> np.ndarray:
    """Read a label sidecar line by line; raises GraphFormatError naming
    the first unknown code's line, or the counts when they differ."""
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
