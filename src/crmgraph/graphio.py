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
    id_map: dict                    # external id -> contiguous id, in id order
    n_lines: int                    # edge lines read
    n_duplicates: int               # edge lines merged into an earlier pair


def _parse_lines(path):
    pairs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(COMMENT_PREFIXES):
                continue
            fields = line.split()
            if len(fields) < 2:
                raise ParseError(lineno, f"expected two ids, got {line!r}")
            try:
                a, b = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(lineno, f"non-integer node id in {line!r}") from None
            pairs.append((a, b))
    return pairs


def read_edge_list(path):
    """Parse a SNAP-style edge list into an undirected graph with contiguous node ids.

    Lines starting with '#' or '%' and blank lines are skipped; duplicate
    edges, reversed duplicates included, collapse; self-loops are kept.
    Nodes are numbered in increasing order of their external id, so a
    graph without isolated nodes written by write_edge_list reads back with
    the same node ids.
    """
    pairs = _parse_lines(path)
    if not pairs:
        raise EmptyGraphError(f"no edges found in {path}")

    try:
        pairs = np.asarray(pairs, dtype=np.int64)
    except OverflowError:
        # ids beyond int64 stay exact Python ints; numpy's own choice would
        # be float64 for ids in [2**63, 2**64), which merges neighbours
        pairs = np.asarray(pairs, dtype=object)
    graph, ids = compact_graph(pairs[:, 0], pairs[:, 1])
    id_map = dict(zip(ids.tolist(), range(len(ids))))
    return IngestResult(graph=graph, id_map=id_map, n_lines=len(pairs),
                        n_duplicates=len(pairs) - graph.n_edges)


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


def _fmt(x):
    return format(float(x), ".17g")


def write_trace_csv(traces, path):
    """Serialize chain traces with the fixed scalar-column header."""
    if not isinstance(traces, (list, tuple)):
        traces = [traces]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(TRACE_HEADER)
        for t in traces:
            n = len(t)
            for i in range(n):
                wr.writerow(
                    [i, t.chain_id]
                    + [_fmt(t.records[k][i]) for k in TRACE_FIELDS]
                )


def read_trace_csv(path):
    """Inverse of write_trace_csv; returns a list of ChainTrace objects."""
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
                by_chain.setdefault(int(row[1]), []).append([float(x) for x in row[2:]])
            except ValueError:
                raise SchemaError(f"row {rowno}: non-integer chain id or non-numeric "
                                  f"field in {row!r}") from None
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
