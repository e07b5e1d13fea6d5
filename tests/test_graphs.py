import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crmgraph.errors import DomainError
from crmgraph.graphs import (
    CrmSample,
    DirectedMultigraph,
    UndirectedGraph,
    multigraph_degree_fractions,
    to_undirected,
)


@pytest.fixture
def three_node_multigraph():
    # counts: n_22 = 4, n_12 = 2, n_13 = 1, n_31 = 3 (1-based node labels)
    counts = [4, 2, 1, 3]
    return DirectedMultigraph(
        3,
        src=np.repeat([1, 0, 0, 2], counts),
        dst=np.repeat([1, 1, 2, 0], counts),
    )


def test_total_edges(three_node_multigraph):
    assert three_node_multigraph.total_edges == 10


def test_incident_degree(three_node_multigraph):
    # self edges count twice; sums to 2 D*
    deg = three_node_multigraph.incident_degree()
    np.testing.assert_array_equal(deg, [6, 10, 4])
    assert deg.sum() == 2 * three_node_multigraph.total_edges


def test_undirected_restriction(three_node_multigraph):
    z = to_undirected(three_node_multigraph)
    assert z.n_edges == 3
    pairs = set(zip(z.edge_i.tolist(), z.edge_j.tolist()))
    assert pairs == {(0, 1), (0, 2), (1, 1)}


def test_degree_histogram(three_node_multigraph):
    z = to_undirected(three_node_multigraph)
    # self-loop contributes 1 to the undirected degree
    np.testing.assert_array_equal(np.bincount(z.degree), [0, 1, 2])
    assert np.bincount(z.degree).sum() == z.n_nodes


def test_count_matrix(three_node_multigraph):
    m = three_node_multigraph.count_matrix()
    assert m[1, 1] == 4 and m[0, 1] == 2 and m[0, 2] == 1 and m[2, 0] == 3
    assert m.sum() == 10


def test_undirected_graph_sorts_and_orients_edges():
    z = UndirectedGraph(4, [3, 2, 1], [1, 2, 0])
    assert list(zip(z.edge_i, z.edge_j)) == [(0, 1), (1, 3), (2, 2)]


@pytest.mark.parametrize("build", [
    lambda: DirectedMultigraph(2, [0, 2], [1, 0]),
    lambda: DirectedMultigraph(2, [0], [-1]),
    lambda: UndirectedGraph(3, [0, 1], [1, 3]),
    lambda: UndirectedGraph(3, [-1], [0]),
    lambda: DirectedMultigraph(2, [0], [2]),
    lambda: DirectedMultigraph(2, [-1], [0]),
    lambda: UndirectedGraph(3, [3], [0]),
    # non-integer ids are refused, not truncated or left to numpy's cast
    lambda: UndirectedGraph(3, [0.7, 1.9], [1.2, 2.5]),
    lambda: UndirectedGraph(3, [0.0, 1.0], [1.0, 2.0]),
    lambda: UndirectedGraph(3, [0], [1.0]),
    lambda: UndirectedGraph(3, [np.nan], [1]),
    lambda: UndirectedGraph(3, [True], [False]),
    lambda: DirectedMultigraph(3, [0.5], [1]),
    lambda: DirectedMultigraph(3, ["0"], ["1"]),
])
def test_graph_types_reject_out_of_range_ids(build):
    with pytest.raises(DomainError):
        build()


def test_empty_id_lists_of_any_dtype_are_valid():
    for ids in ([], np.empty(0), np.empty(0, object)):
        z = UndirectedGraph(2, ids, ids)
        assert z.n_edges == 0 and z.edge_i.dtype == np.int64
        assert DirectedMultigraph(2, ids, ids).src.dtype == np.int64


def test_undirected_graph_collapses_repeated_and_reversed_pairs():
    z = UndirectedGraph(3, [0, 1, 1], [1, 0, 2])
    assert z.n_edges == 2
    assert list(zip(z.edge_i.tolist(), z.edge_j.tolist())) == [(0, 1), (1, 2)]
    np.testing.assert_array_equal(z.degree, [1, 2, 1])


@pytest.mark.parametrize("build", [
    lambda: DirectedMultigraph(3, [0], [1, 2]),
    lambda: UndirectedGraph(3, [0, 1], [2]),
])
def test_graph_types_reject_unpaired_ids(build):
    with pytest.raises(DomainError):
        build()


def test_repeated_pairs_stay_in_given_order():
    src, dst = [2, 0, 2, 0, 2, 0], [1, 1, 1, 0, 1, 0]
    d = DirectedMultigraph(3, src, dst)
    assert (d.src.tolist(), d.dst.tolist()) == (src, dst)
    assert d.src.dtype == d.dst.dtype == np.int64
    assert d.total_edges == 6
    np.testing.assert_array_equal(d.count_matrix(), [[2, 1, 0], [0, 0, 0], [0, 3, 0]])


def test_undirected_has_edge():
    z = UndirectedGraph(3, [0, 1], [1, 1])
    edges = set(zip(z.edge_i.tolist(), z.edge_j.tolist()))
    # a reversed pair is stored oriented i <= j; a self-loop is kept
    assert (0, 1) in edges and (1, 1) in edges
    assert (0, 2) not in edges and (2, 0) not in edges


def _brute_force_undirected(count_matrix):
    n = count_matrix.shape[0]
    edges = set()
    for i in range(n):
        for j in range(n):
            if count_matrix[i, j] > 0:
                edges.add((min(i, j), max(i, j)))
    return edges


def _shuffled_multigraph(mat, rng):
    """The multigraph with counts mat, its edges listed in random order."""
    src, dst = np.nonzero(mat)
    order = rng.permutation(mat.sum())
    return DirectedMultigraph(len(mat), np.repeat(src, mat[src, dst])[order],
                              np.repeat(dst, mat[src, dst])[order])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(0, 123456))
def test_undirected_restriction_matches_brute_force(n, seed):
    rng = np.random.default_rng(seed)
    mat = rng.poisson(0.8, size=(n, n))
    d = _shuffled_multigraph(mat, rng)
    z = to_undirected(d)
    assert set(zip(z.edge_i.tolist(), z.edge_j.tolist())) == _brute_force_undirected(mat)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(0, 123456))
def test_incident_degree_conservation(n, seed):
    rng = np.random.default_rng(seed)
    mat = rng.poisson(0.6, size=(n, n))
    d = _shuffled_multigraph(mat, rng)
    np.testing.assert_array_equal(d.count_matrix(), mat)
    assert d.total_edges == mat.sum()
    np.testing.assert_array_equal(d.incident_degree(), mat.sum(0) + mat.sum(1))
    assert d.incident_degree().sum() == 2 * d.total_edges


def test_degree_fractions(three_node_multigraph):
    f = multigraph_degree_fractions(three_node_multigraph, 10)
    # incident degrees 6, 10, 4 over 3 nodes
    assert f[3] == pytest.approx(1 / 3) and f[5] == pytest.approx(1 / 3)
    assert f.sum() <= 1.0 + 1e-12
    with pytest.raises(DomainError):
        multigraph_degree_fractions(three_node_multigraph, 0)


def test_crm_sample_total_mass_and_validation():
    s = CrmSample([1.0, 2.5], remainder_mass=0.1)
    assert s.weights.dtype == float
    assert s.weights.sum() == pytest.approx(3.5) and s.remainder_mass == 0.1
    with pytest.raises(DomainError):
        CrmSample(np.array([1.0]), remainder_mass=-0.5)
