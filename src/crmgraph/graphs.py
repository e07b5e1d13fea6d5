"""Graph value types and structural transforms.

A directed multigraph stores sparse ordered-pair counts over contiguous
node ids; its undirected restriction keeps one unordered edge per pair
with at least one directed interaction (self-loops allowed).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OverlapError


@dataclass(frozen=True, eq=False)
class DirectedMultigraph:
    """Sparse directed edge counts n_ij >= 1 over 0-based contiguous ids."""

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "src", np.asarray(self.src, dtype=np.int64))
        object.__setattr__(self, "dst", np.asarray(self.dst, dtype=np.int64))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if np.any(self.counts < 1):
            raise DomainError("all stored multigraph counts must be >= 1")

    @property
    def total_edges(self):
        """D*: total number of directed edges, multiplicity included."""
        return int(self.counts.sum())

    def incident_degree(self):
        """Per-node count of outgoing plus incoming edges; a self edge counts twice."""
        deg = np.bincount(self.src, weights=self.counts, minlength=self.n_nodes)
        deg += np.bincount(self.dst, weights=self.counts, minlength=self.n_nodes)
        return deg.astype(np.int64)

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
    degree: np.ndarray = field(default=None)

    def __post_init__(self):
        i = np.asarray(self.edge_i, dtype=np.int64)
        j = np.asarray(self.edge_j, dtype=np.int64)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        order = np.lexsort((hi, lo))
        object.__setattr__(self, "edge_i", lo[order])
        object.__setattr__(self, "edge_j", hi[order])
        if self.degree is None:
            deg = np.bincount(self.edge_i, minlength=self.n_nodes)
            # self-loop contributes 1 to the degree statistics
            nonloop = self.edge_i != self.edge_j
            deg += np.bincount(self.edge_j[nonloop], minlength=self.n_nodes)
            object.__setattr__(self, "degree", deg.astype(np.int64))

    @property
    def n_edges(self):
        """N^(e): number of distinct unordered edges, self-loops included."""
        return len(self.edge_i)

    def has_edge(self, i, j):
        lo, hi = min(i, j), max(i, j)
        return bool(np.any((self.edge_i == lo) & (self.edge_j == hi)))


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Edges between a left and a right node set; within-side edges impossible."""

    n_left: int
    n_right: int
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray = field(default=None)

    def __post_init__(self):
        left = np.asarray(self.left, dtype=np.int64)
        right = np.asarray(self.right, dtype=np.int64)
        if len(left) and (left.min() < 0 or left.max() >= self.n_left):
            raise DomainError("left node id out of range")
        if len(right) and (right.min() < 0 or right.max() >= self.n_right):
            raise DomainError("right node id out of range")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if self.counts is not None:
            object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))

    @property
    def n_edges(self):
        return len(self.left)


@dataclass(frozen=True, eq=False)
class CrmSample:
    """Finite atoms (weights, optional locations) plus unrepresented remainder mass."""

    weights: np.ndarray
    locations: np.ndarray = None
    remainder_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.locations is not None:
            object.__setattr__(self, "locations", np.asarray(self.locations, dtype=float))
        if self.remainder_mass < 0:
            raise DomainError("remainder mass must be >= 0")

    @property
    def total_mass(self):
        return float(self.weights.sum())


def _first_appearance_relabel(seq):
    """Map values of seq to contiguous ids in order of first appearance."""
    uniq, first = np.unique(seq, return_index=True)
    order = np.argsort(first)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    pos = np.searchsorted(uniq, seq)
    return rank[pos], uniq[order]


def to_undirected(d):
    """Undirected restriction: edge {i, j} iff n_ij + n_ji > 0."""
    n = d.n_nodes
    keys = np.unique(np.minimum(d.src, d.dst) * n + np.maximum(d.src, d.dst))
    return UndirectedGraph(n, keys // n, keys % n)


def degree_histogram(z):
    """Map degree -> node count for an undirected graph; degrees sum to n_nodes."""
    degs, counts = np.unique(z.degree, return_counts=True)
    return {int(k): int(c) for k, c in zip(degs, counts)}


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


def group_link_probability(sample, a, b):
    """P(at least one edge between disjoint node sets A and B) = 1 - e^(-2 W(A) W(B))."""
    a = np.asarray(sorted(a), dtype=np.int64)
    b = np.asarray(sorted(b), dtype=np.int64)
    if len(np.intersect1d(a, b)) > 0:
        raise OverlapError("node sets must be disjoint")
    k = len(sample.weights)
    for ids in (a, b):
        if len(ids) and (ids.min() < 0 or ids.max() >= k):
            raise DomainError("node id out of range for this CRM sample")
    wa = float(sample.weights[a].sum())
    wb = float(sample.weights[b].sum())
    return float(-np.expm1(-2.0 * wa * wb))
