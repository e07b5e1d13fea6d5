"""Graph value types and structural transforms.

Each graph type is built from raw endpoint pairs: it checks ids against
its node count (DomainError if out of range), merges repeated pairs and stores
them sorted. A directed multigraph counts ordered pairs; its undirected
restriction keeps one edge per connected unordered pair (self-loops
allowed).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError


def _merge_pairs(n, a, b):
    """Pairs (a, b) over [0, n) x [0, n), each stored once, sorted by (a, b).

    One np.unique of the key a * n + b merges and sorts. Returns the stored
    a, b and how many times each pair was listed.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    for ids in (a, b):
        if len(ids) and (ids.min() < 0 or ids.max() >= n):
            raise DomainError(f"node id out of range [0, {n})")
    keys, counts = np.unique(a * n + b, return_counts=True)
    return keys // n, keys % n, counts


def edge_end_counts(n, i, j, counts=None):
    """Per-node count m over [0, n) of the ends of edges (i, j), each edge
    taken counts times (once when counts is None); a self edge counts twice."""
    m = np.bincount(i, weights=counts, minlength=n)
    m += np.bincount(j, weights=counts, minlength=n)
    return m.astype(np.int64)


@dataclass(frozen=True, eq=False)
class DirectedMultigraph:
    """Sparse directed edge counts n_ij >= 1 over 0-based contiguous ids.

    One (src, dst) pair is listed per edge; counts holds each stored
    pair's multiplicity.
    """

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        pairs = _merge_pairs(self.n_nodes, self.src, self.dst)
        for name, value in zip(("src", "dst", "counts"), pairs):
            object.__setattr__(self, name, value)

    @property
    def total_edges(self):
        """D*: total number of directed edges, multiplicity included."""
        return int(self.counts.sum())

    def incident_degree(self):
        """Per-node count of outgoing plus incoming edges; a self edge counts twice."""
        return edge_end_counts(self.n_nodes, self.src, self.dst, self.counts)

    def count_matrix(self):
        """Dense n_ij matrix; only for small graphs (tests, oracles)."""
        m = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int64)
        m[self.src, self.dst] = self.counts
        return m


@dataclass(frozen=True, eq=False)
class UndirectedGraph:
    """Symmetric binary adjacency stored as sorted unordered pairs (i <= j)."""

    n_nodes: int
    edge_i: np.ndarray
    edge_j: np.ndarray
    degree: np.ndarray = field(init=False)

    def __post_init__(self):
        i, j = self.edge_i, self.edge_j
        lo, hi, _ = _merge_pairs(self.n_nodes, np.minimum(i, j), np.maximum(i, j))
        object.__setattr__(self, "edge_i", lo)
        object.__setattr__(self, "edge_j", hi)
        # a self-loop contributes 1 to the degree statistics
        deg = np.bincount(lo, minlength=self.n_nodes)
        deg += np.bincount(hi[lo != hi], minlength=self.n_nodes)
        object.__setattr__(self, "degree", deg.astype(np.int64))

    # Inference reads these on every sweep; a graph that is only drawn or
    # written never builds them.
    @cached_property
    def loops(self):
        """Indices of the self-loop edges."""
        return np.flatnonzero(self.edge_i == self.edge_j)

    @cached_property
    def unit_m(self):
        """Per-node count of edge ends, a self-loop counting 2: m at nbar = 1."""
        return edge_end_counts(self.n_nodes, self.edge_i, self.edge_j)

    @property
    def n_edges(self):
        """N^(e): number of distinct unordered edges, self-loops included."""
        return len(self.edge_i)


@dataclass(frozen=True, eq=False)
class CrmSample:
    """Finite atom weights plus unrepresented remainder mass."""

    weights: np.ndarray
    remainder_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.remainder_mass < 0:
            raise DomainError("remainder mass must be >= 0")


def compact_graph(i, j):
    """Graph on the ids that pairs (i, j) touch, plus each node's source id.

    Nodes are numbered in increasing order of their source id.
    """
    ids, labels = np.unique(np.concatenate([i, j]), return_inverse=True)
    return UndirectedGraph(len(ids), labels[: len(i)], labels[len(i):]), ids


def to_undirected(d):
    """Undirected restriction: edge {i, j} iff n_ij + n_ji > 0."""
    return UndirectedGraph(d.n_nodes, d.src, d.dst)


def multigraph_degree_fractions(d, j_max):
    """Fractions N_{alpha,j}/N_alpha of multigraph nodes with j incident edges.

    Incident means outgoing or incoming, a self edge counting twice; entry
    j-1 of the result holds the fraction at degree j, j = 1..j_max.
    """
    if j_max < 1:
        raise DomainError("j_max must be >= 1")
    deg = d.incident_degree()
    deg = deg[deg > 0]
    n = len(deg)
    fractions = np.zeros(j_max)
    if n == 0:
        return fractions
    hist = np.bincount(deg, minlength=j_max + 1)
    fractions[:] = hist[1 : j_max + 1] / n
    return fractions

