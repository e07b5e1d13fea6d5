"""Undirected edge-list ingestion, trace serialization, and provenance sidecars."""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGraphError, ParseError, SchemaError
from .graphs import UndirectedGraph, compact_graph
from .inference import TRACE_FIELDS, ChainTrace

TRACE_HEADER = ["iteration", "chain", *TRACE_FIELDS]
SIDECAR_SCHEMA_VERSION = 1
COMMENT_PREFIXES = ("#", "%")
WRITE_BLOCK_EDGES = 1 << 14


@dataclass
class IngestResult:
    graph: UndirectedGraph
    ids: np.ndarray                 # node k has external id ids[k]; ids ascend
    n_duplicates: int               # edge lines merged into an earlier pair


def _parse_lines(path):
    """The two ids of each edge line in one flat list: line k's at 2k and 2k + 1."""
    ends = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.split()
            if not fields or fields[0].startswith(COMMENT_PREFIXES):
                continue
            if len(fields) < 2:
                raise ParseError(lineno, f"expected two ids, got {raw.strip()!r}")
            try:
                ends += int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(lineno, f"non-integer node id in {raw.strip()!r}") from None
    return ends


def read_edge_list(path):
    """Parse a SNAP-style edge list into an undirected graph with contiguous node ids.

    Lines starting with '#' or '%' and blank lines are skipped; duplicate
    edges, reversed duplicates included, collapse; self-loops are kept.
    Nodes are numbered in increasing order of their external id, so a
    graph without isolated nodes written by write_edge_list reads back with
    the same node ids.
    """
    ends = _parse_lines(path)
    if not ends:
        raise EmptyGraphError(f"no edges found in {path}")

    try:
        ends = np.asarray(ends, dtype=np.int64)
    except OverflowError:
        # ids beyond int64 stay exact Python ints; numpy's own choice would
        # be float64 for ids in [2**63, 2**64), which merges neighbours
        ends = np.asarray(ends, dtype=object)
    graph, ids = compact_graph(ends[0::2], ends[1::2])
    return IngestResult(graph=graph, ids=ids, n_duplicates=len(ends) // 2 - graph.n_edges)


def write_edge_list(graph, path, header=None):
    """Write an undirected graph's edges one "i j" pair per line, header lines as comments.

    Each block of edges is formatted by one %-operation, which is about
    twice as fast as one f-string per edge; the block bounds the memory.
    """
    pairs = np.stack([graph.edge_i, graph.edge_j], axis=1)
    with open(path, "w") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for start in range(0, len(pairs), WRITE_BLOCK_EDGES):
            block = pairs[start:start + WRITE_BLOCK_EDGES]
            fh.write("%d %d\n" * len(block) % tuple(block.ravel().tolist()))


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


def write_sidecar(out_path, fields):
    """Provenance metadata for a generated artifact."""
    from . import __version__

    doc = {"schema_version": SIDECAR_SCHEMA_VERSION, "library_version": __version__}
    doc.update(fields)
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
