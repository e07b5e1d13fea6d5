"""Graph value types and structural transforms.

Each graph type is built from raw endpoint pairs and checks their ids
against its node count (DomainError if not integers or out of range). A
directed multigraph lists one (src, dst) pair per edge, in the order given;
its undirected restriction keeps one edge per connected unordered pair
(self-loops allowed), merged and stored sorted.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError


def _checked_ids(n, a, b):
    """Endpoint ids a, b as int64; DomainError unless they are integers that
    pair up in [0, n). An empty id list of any dtype is valid."""
    a, b = np.asarray(a), np.asarray(b)
    if len(a) != len(b):
        raise DomainError(f"{len(a)} source ids for {len(b)} target ids")
    if len(a) and (a.dtype.kind not in "iu" or b.dtype.kind not in "iu"):
        raise DomainError(f"node ids must be integers, got dtypes {a.dtype} and {b.dtype}")
    a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
    for ids in (a, b):
        if len(ids) and (ids.min() < 0 or ids.max() >= n):
            raise DomainError(f"node id out of range [0, {n})")
    return a, b


def edge_end_counts(n, i, j, counts=None):
    """Per-node count m over [0, n) of the ends of edges (i, j), each edge
    taken counts times (once when counts is None); a self edge counts twice."""
    m = np.bincount(i, weights=counts, minlength=n)
    m += np.bincount(j, weights=counts, minlength=n)
    return m.astype(np.int64)


@dataclass(frozen=True, eq=False)
class DirectedMultigraph:
    """Directed edges over 0-based contiguous ids, one (src, dst) pair per
    edge in the order given: a pair listed k times has multiplicity n_ij = k."""

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self):
        for name, ids in zip(("src", "dst"), _checked_ids(self.n_nodes, self.src, self.dst)):
            object.__setattr__(self, name, ids)

    @property
    def total_edges(self):
        """D*: total number of directed edges, multiplicity included."""
        return len(self.src)

    def incident_degree(self):
        """Per-node count of outgoing plus incoming edges; a self edge counts twice."""
        return edge_end_counts(self.n_nodes, self.src, self.dst)

    def count_matrix(self):
        """Dense n_ij matrix; only for small graphs (tests, oracles)."""
        m = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int64)
        np.add.at(m, (self.src, self.dst), 1)
        return m


@dataclass(frozen=True, eq=False)
class UndirectedGraph:
    """Symmetric binary adjacency stored as sorted unordered pairs (i <= j)."""

    n_nodes: int
    edge_i: np.ndarray
    edge_j: np.ndarray

    def __post_init__(self):
        i, j = _checked_ids(self.n_nodes, self.edge_i, self.edge_j)
        n = self.n_nodes
        # return_counts keeps np.unique on its sort path; value-only is ~20x slower on numpy 2.4
        keys, _ = np.unique(np.minimum(i, j) * n + np.maximum(i, j), return_counts=True)
        object.__setattr__(self, "edge_i", keys // n)
        object.__setattr__(self, "edge_j", keys % n)

    # Built on first read: a graph that is only drawn or written builds none of them.
    @cached_property
    def degree(self):
        """Per-node count of distinct neighbours; a self-loop contributes 1."""
        deg = np.bincount(self.edge_i, minlength=self.n_nodes)
        deg += np.bincount(self.edge_j[self.edge_i != self.edge_j], minlength=self.n_nodes)
        return deg.astype(np.int64)

    @cached_property
    def loops(self):
        """Indices of the self-loop edges."""
        return np.flatnonzero(self.edge_i == self.edge_j)

    @cached_property
    def unit_m(self):
        """Per-node count of edge ends, a self-loop counting 2: m at every latent count 1."""
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

