"""Graph value types and structural transforms.

Each graph type is built from raw endpoint pairs: it checks ids against
its shape (DomainError if out of range), merges repeated pairs and stores
them sorted. A directed multigraph counts ordered pairs; its undirected
restriction keeps one edge per connected unordered pair (self-loops
allowed); a bipartite graph counts left-right pairs.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OverlapError


def _merge_pairs(n_a, n_b, a, b, counts=None):
    """Pairs (a, b) over [0, n_a) x [0, n_b), each stored once, sorted by (a, b).

    Repeated pairs add their counts, or count one per listed pair when
    counts is None; one np.unique of the key a * n_b + b merges and sorts.
    Returns the stored a, b and counts.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    for ids, n in ((a, n_a), (b, n_b)):
        if len(ids) and (ids.min() < 0 or ids.max() >= n):
            raise DomainError(f"node id out of range [0, {n})")
    if counts is None:
        keys, merged = np.unique(a * n_b + b, return_counts=True)
    else:
        counts = np.asarray(counts, dtype=np.int64)
        if np.any(counts < 1):
            raise DomainError("pair counts must be >= 1")
        keys, inverse = np.unique(a * n_b + b, return_inverse=True)
        merged = np.zeros(len(keys), dtype=np.int64)
        np.add.at(merged, inverse, counts)
    return keys // n_b, keys % n_b, merged


@dataclass(frozen=True, eq=False)
class DirectedMultigraph:
    """Sparse directed edge counts n_ij >= 1 over 0-based contiguous ids."""

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    counts: np.ndarray = None

    def __post_init__(self):
        pairs = _merge_pairs(self.n_nodes, self.n_nodes, self.src, self.dst, self.counts)
        for name, value in zip(("src", "dst", "counts"), pairs):
            object.__setattr__(self, name, value)

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
    degree: np.ndarray = field(init=False)

    def __post_init__(self):
        i, j = self.edge_i, self.edge_j
        lo, hi, _ = _merge_pairs(self.n_nodes, self.n_nodes, np.minimum(i, j), np.maximum(i, j))
        object.__setattr__(self, "edge_i", lo)
        object.__setattr__(self, "edge_j", hi)
        # a self-loop contributes 1 to the degree statistics
        deg = np.bincount(lo, minlength=self.n_nodes)
        deg += np.bincount(hi[lo != hi], minlength=self.n_nodes)
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
    """Edge counts between a left and a right node set; within-side edges impossible."""

    n_left: int
    n_right: int
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray = None

    def __post_init__(self):
        pairs = _merge_pairs(self.n_left, self.n_right, self.left, self.right, self.counts)
        for name, value in zip(("left", "right", "counts"), pairs):
            object.__setattr__(self, name, value)

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
    return UndirectedGraph(d.n_nodes, d.src, d.dst)


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
