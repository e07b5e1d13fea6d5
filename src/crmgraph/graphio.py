"""Undirected edge-list ingestion, trace serialization, and provenance sidecars."""

import csv
import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyGraphError, ParseError, SchemaError
from .graphs import UndirectedGraph, compact_graph
from .inference import TRACE_FIELDS, ChainTrace

TRACE_HEADER = ["iteration", "chain", *TRACE_FIELDS]
SIDECAR_SCHEMA_VERSION = 1
COMMENT_PREFIXES = (b"#", b"%")
WRITE_BLOCK_EDGES = 1 << 14

# str.split also splits at the four ASCII information separators, which
# bytes.split does not, so the reader maps those to spaces first
_INFO_SEPARATORS = b"\x1c\x1d\x1e\x1f"
_INFO_SEPARATORS_TO_SPACE = bytes.maketrans(_INFO_SEPARATORS, b" " * len(_INFO_SEPARATORS))


def _chunk_table(min_digits):
    """0..9999 as 4 ASCII digits each, read as one uint32 apiece; leading
    zeros beyond min_digits are NUL bytes."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    places = np.array([1000, 100, 10, 1])
    digits[(np.arange(10000)[:, None] < places) & (places >= 10**min_digits)] = 0
    return np.ascontiguousarray(digits).view(np.uint32).ravel()


@functools.cache
def _chunk_tables():
    """The tables for an id's inner and last chunks, built on first use.

    A chunk's entry is chunk + 10000 when a higher chunk is nonzero, so it is
    zero-padded; a leading chunk drops its zeros, and a zero leading chunk is
    all NUL, except as the last chunk of an id, where it prints "0".
    """
    padded = _chunk_table(4)
    return np.concatenate([_chunk_table(0), padded]), np.concatenate([_chunk_table(1), padded])


_SEPARATORS = np.frombuffer(b" \0\0\0\n\0\0\0", dtype=np.uint32)


@dataclass
class IngestResult:
    graph: UndirectedGraph
    ids: np.ndarray                 # node k has external id ids[k]; ids ascend
    n_duplicates: int               # edge lines merged into an earlier pair


def _bad_line(data):
    """ParseError for the first edge line of data without two integer ids."""
    for lineno, raw in enumerate(data.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith(COMMENT_PREFIXES):
            continue
        shown = raw.strip().decode("ascii", "backslashreplace")
        if len(fields) < 2:
            return ParseError(lineno, f"expected two ids, got {shown!r}")
        try:
            int(fields[0]), int(fields[1])
        except ValueError:
            return ParseError(lineno, f"non-integer node id in {shown!r}")
    raise AssertionError("the whole-file check failed, but every edge line is well formed")


def _id_fields(data):
    """The first two fields of each edge line in one flat sequence of bytes:
    line k's at 2k and 2k + 1.

    Lines end at \\n, \\r\\n or a lone \\r. Blank lines and lines whose first
    field starts with '#' or '%' are skipped unread.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    space = b - ord("\t")           # bytes.split's separators: \t to \r, and " "
    space = np.less_equal(space, ord("\r") - ord("\t"), out=space.view(bool))
    space |= b == ord(" ")
    event = ~space
    event[1:] &= space[:-1]         # the first byte of each field
    ends = np.equal(b, ord("\n"), out=space)   # space is no longer needed
    if b"\r" in data:
        lone_cr = b == ord("\r")
        lone_cr[:-1] &= ~ends[1:]
        ends |= lone_cr
    event |= ends
    # field starts and line ends in file order: a line's fields are the
    # events after the end of the line before
    event = np.flatnonzero(event)
    if not len(event):
        return []
    is_end = ends[event]
    after_end = np.empty_like(is_end)
    after_end[0] = True
    after_end[1:] = is_end[:-1]
    lead = np.flatnonzero(after_end > is_end)       # each nonblank line's first field
    lead = lead[~np.isin(b[event[lead]], [ord(p) for p in COMMENT_PREFIXES])]
    if not len(lead):
        return []
    if lead[-1] + 1 == len(event) or is_end[lead + 1].any():
        raise _bad_line(data)
    stop = lead[-1] + 2             # the event after the last id
    n_kept = stop - lead[0] - np.count_nonzero(is_end[lead[0]:stop])
    if n_kept == 2 * len(lead):
        # the usual file: no third field, and no comment between edge lines
        return data[event[lead[0]]:event[stop] if stop < len(event) else None].split()
    # a field's index in data.split() is its event's less the line ends before it
    lead -= np.cumsum(is_end)[lead]
    return np.array(data.split(), dtype=object)[np.stack([lead, lead + 1], axis=1).ravel()]


def read_edge_list(path):
    """Parse a SNAP-style edge list into an undirected graph with contiguous node ids.

    The file is read as bytes. Lines end at \\n, \\r\\n or a lone \\r. Blank
    lines and lines whose first field starts with '#' or '%' are skipped,
    whatever bytes they hold. Every other line holds two integer ids in
    ASCII, as int() reads them (a sign, leading zeros and underscores are
    accepted), separated by ASCII whitespace; fields after the second, such
    as a weight, are ignored. A line without two such ids raises ParseError
    with its 1-based line number.

    Duplicate edges, reversed duplicates included, collapse; self-loops are
    kept. Nodes are numbered in increasing order of their external id, so a
    graph without isolated nodes written by write_edge_list reads back with
    the same node ids. Ids beyond int64 stay exact Python ints.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if any(c in data for c in _INFO_SEPARATORS):
        data = data.translate(_INFO_SEPARATORS_TO_SPACE)
    fields = _id_fields(data)
    if not len(fields):
        raise EmptyGraphError(f"no edges found in {path}")

    try:
        try:
            ends = np.array(fields, dtype=np.int64)
        except OverflowError:
            # numpy's own choice would be float64 for ids in [2**63, 2**64),
            # which merges neighbours
            ends = np.array([int(f) for f in fields], dtype=object)
    except ValueError:
        raise _bad_line(data) from None
    graph, ids = compact_graph(ends[0::2], ends[1::2])
    return IngestResult(graph=graph, ids=ids, n_duplicates=len(ends) // 2 - graph.n_edges)


def _format_block(i, j):
    """The lines "i j\\n" of a block of edges as bytes.

    Each id is cut into 4-digit chunks; each chunk's 4 ASCII bytes come from
    a table as one uint32, behind NUL bytes where the id has fewer digits.
    A last column holds each id's separator, and one translate drops the NULs.
    """
    ids = np.stack([i, j], axis=1).ravel()
    top, n_chunks = int(ids.max()), 1
    while top >= 10000**n_chunks:
        n_chunks += 1
    cells = np.empty((len(ids), n_chunks + 1), dtype=np.uint32)
    cells[:, -1] = np.tile(_SEPARATORS, len(i))
    inner, last = _chunk_tables()
    q = ids
    for col in range(n_chunks - 1, -1, -1):
        higher = q // 10000
        table = last if col == n_chunks - 1 else inner
        cells[:, col] = table[q - higher * 10000 + (higher != 0) * 10000]
        q = higher
    return cells.tobytes().translate(None, b"\0")


def write_edge_list(graph, path, header=None):
    """Write an undirected graph's edges one "i j" pair per line, header lines as comments.

    Each line of header is written as "# line" in UTF-8; the ids and
    separators are ASCII, as f"{i} {j}\\n" would write them. Ids must lie in
    [0, 2**63): a negative one raises DomainError before the file is opened.
    Edges are formatted in blocks of WRITE_BLOCK_EDGES, which bound the
    memory, each written by one call.
    """
    i = np.asarray(graph.edge_i, dtype=np.int64)
    j = np.asarray(graph.edge_j, dtype=np.int64)
    if len(i) and min(i.min(), j.min()) < 0:
        raise DomainError("write_edge_list: node ids must be >= 0")
    with open(path, "wb") as fh:
        if header:
            fh.write("".join(f"# {line}\n" for line in header.splitlines()).encode())
        for start in range(0, len(i), WRITE_BLOCK_EDGES):
            stop = start + WRITE_BLOCK_EDGES
            fh.write(_format_block(i[start:stop], j[start:stop]))


def write_csv(path, header, rows):
    """One header row, then rows, with the csv module's default dialect."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def write_trace_csv(traces, path):
    """Serialize a list of chain traces: the fixed header, then 17-digit floats."""
    write_csv(path, TRACE_HEADER, (
        [i, t.chain_id, *(format(float(t.records[k][i]), ".17g") for k in TRACE_FIELDS)]
        for t in traces for i in range(len(t))))


def read_trace_csv(path):
    """Inverse of write_trace_csv; returns a list of ChainTrace objects.

    Each chain's rows must number their iterations 0, 1, 2, ... in file
    order: SchemaError names the first row that repeats or skips one.
    """
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header != TRACE_HEADER:
            raise SchemaError(
                f"bad trace header {header!r}; expected {TRACE_HEADER!r}"
            )
        by_chain = {}
        for rowno, row in enumerate(rd, start=2):
            if len(row) != len(TRACE_HEADER):
                raise SchemaError(f"row {rowno} has {len(row)} fields, "
                                  f"expected {len(TRACE_HEADER)}")
            try:
                iteration, chain = int(row[0]), int(row[1])
                values = [float(x) for x in row[2:]]
            except ValueError:
                raise SchemaError(f"row {rowno}: non-integer iteration or chain id or "
                                  f"non-numeric field in {row!r}") from None
            rows = by_chain.setdefault(chain, [])
            if iteration != len(rows):
                raise SchemaError(f"row {rowno}: chain {chain} iteration {iteration} "
                                  f"out of order, expected {len(rows)}")
            rows.append(values)
    traces = []
    for chain in sorted(by_chain):
        mat = np.asarray(by_chain[chain], dtype=float)
        recs = {k: mat[:, c] for c, k in enumerate(TRACE_FIELDS)}
        traces.append(ChainTrace(records=recs, chain_id=chain))
    return traces


def _strict_json(value):
    """value with each non-finite float, also one inside a list, as None."""
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def write_sidecar(out_path, fields):
    """Provenance metadata for a generated artifact, as strict JSON: a
    non-finite float (a constant chain's NaN ESS, an infinite PSRF) is null."""
    from . import __version__

    doc = {"schema_version": SIDECAR_SCHEMA_VERSION, "library_version": __version__}
    doc.update((k, _strict_json(v)) for k, v in fields.items())
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
