import time
from types import SimpleNamespace

import numpy as np
import pytest

from crmgraph.errors import EmptyGraphError, ParseError, SchemaError
from crmgraph.graphs import UndirectedGraph
from crmgraph.graphio import (
    WRITE_BLOCK_EDGES,
    read_edge_list,
    read_trace_csv,
    write_edge_list,
    write_trace_csv,
)
from crmgraph.inference import ChainTrace
from crmgraph.params import GgpParams
from crmgraph.simulate import SimConfig, sample_graph


def write(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_read_edge_list_basic(tmp_path):
    path = write(tmp_path, "# comment\n% other comment\n\n10 20\n20 10\n10 20\n30 30\n")
    res = read_edge_list(path)
    z = res.graph
    assert isinstance(z, UndirectedGraph)
    assert z.n_nodes == 3
    # reversed and repeated duplicates collapse; the self-loop stays
    assert z.n_edges == 2
    assert res.id_map == {10: 0, 20: 1, 30: 2}
    assert res.n_duplicates == 2


def test_read_edge_list_parse_error_line_number(tmp_path):
    path = write(tmp_path, "1 2\nbroken\n")
    with pytest.raises(ParseError) as err:
        read_edge_list(path)
    assert err.value.line_number == 2
    path = write(tmp_path, "1 2\n3 x\n", name="g2.txt")
    with pytest.raises(ParseError):
        read_edge_list(path)


def test_read_edge_list_empty(tmp_path):
    path = write(tmp_path, "# only comments\n\n")
    with pytest.raises(EmptyGraphError):
        read_edge_list(path)


def test_read_edge_list_deterministic(tmp_path):
    path = write(tmp_path, "5 1\n2 5\n1 2\n")
    a = read_edge_list(path)
    b = read_edge_list(path)
    assert a.id_map == b.id_map
    np.testing.assert_array_equal(a.graph.edge_i, b.graph.edge_i)
    np.testing.assert_array_equal(a.graph.edge_j, b.graph.edge_j)


def test_edge_list_round_trip(tmp_path):
    z = UndirectedGraph(4, [0, 1, 2], [1, 2, 2])
    path = str(tmp_path / "out.txt")
    write_edge_list(z, path, header="generated for a test")
    back = read_edge_list(path).graph
    assert back.n_edges == z.n_edges
    np.testing.assert_array_equal(back.edge_i, z.edge_i)
    np.testing.assert_array_equal(back.edge_j, z.edge_j)


def _per_line_form(graph, header=None):
    """The edge list as one f-string per line writes it."""
    lines = [f"# {line}\n" for line in header.splitlines()] if header else []
    lines += [f"{i} {j}\n" for i, j in zip(graph.edge_i.tolist(), graph.edge_j.tolist())]
    return "".join(lines).encode()


def _chain_graph(n_edges):
    return UndirectedGraph(n_edges + 1, np.arange(n_edges), np.arange(1, n_edges + 1))


# write_edge_list reads only edge_i and edge_j; a graph object with ids past
# 2**31 would allocate per-node arrays of that length, so a stand-in holds them
WRITER_CASES = {
    "header": (lambda: sample_graph(SimConfig(params=GgpParams(30.0, 0.5, 1.0),
                                              truncation_eps=1e-4, seed=2)),
               "crmgraph sample seed=2\nsecond line"),
    "empty": (lambda: UndirectedGraph(0, [], []), "header of an empty graph"),
    "block-plus-one": (lambda: _chain_graph(WRITE_BLOCK_EDGES + 1), None),
    "ids-past-2**31": (lambda: SimpleNamespace(
        edge_i=np.array([0, 2**31 - 1, 2**31, 2**40], dtype=np.int64),
        edge_j=np.array([2**31, 2**31, 2**62, 2**63 - 1], dtype=np.int64)), None),
}


@pytest.mark.parametrize("make_graph, header", WRITER_CASES.values(), ids=WRITER_CASES)
def test_write_edge_list_matches_the_per_line_form(tmp_path, make_graph, header):
    graph = make_graph()
    path = tmp_path / "g.txt"
    write_edge_list(graph, str(path), header=header)
    assert path.read_bytes() == _per_line_form(graph, header)


def test_simulated_graph_reads_back_with_the_same_node_ids(tmp_path):
    z = sample_graph(SimConfig(params=GgpParams(30.0, 0.5, 1.0), truncation_eps=1e-4, seed=2))
    path = str(tmp_path / "sim.txt")
    write_edge_list(z, path)
    back = read_edge_list(path).graph
    assert back.n_nodes == z.n_nodes
    np.testing.assert_array_equal(back.edge_i, z.edge_i)
    np.testing.assert_array_equal(back.edge_j, z.edge_j)


def test_read_edge_list_takes_ids_beyond_int64_and_negative(tmp_path):
    big = 2**70
    res = read_edge_list(write(tmp_path, f"{big} 5\n5 {big}\n7 -3\n"))
    assert res.id_map == {-3: 0, 5: 1, 7: 2, big: 3}
    assert list(res.id_map) == sorted(res.id_map)
    assert list(zip(res.graph.edge_i.tolist(), res.graph.edge_j.tolist())) == [(0, 2), (1, 3)]
    assert res.n_duplicates == 1
    # just past int64: two distinct ids stay two nodes
    res = read_edge_list(write(tmp_path, f"{2**63} 5\n{2**63 + 1} 5\n", name="g2.txt"))
    assert res.id_map == {5: 0, 2**63: 1, 2**63 + 1: 2}
    assert res.graph.n_edges == 2


def random_traces(seed=0, n=50, chains=2):
    rng = np.random.default_rng(seed)
    out = []
    for c in range(chains):
        recs = {
            "alpha": rng.gamma(2.0, 50.0, size=n),
            "sigma": rng.uniform(-3, 1, size=n),
            "tau": rng.gamma(1.0, 1.0, size=n) + 1e-300,
            "w_star": np.abs(rng.standard_normal(n)) * 1e-10,
            "log_post": -rng.gamma(5.0, 100.0, size=n),
        }
        out.append(ChainTrace(records=recs, chain_id=c))
    return out


def test_trace_csv_round_trip(tmp_path):
    traces = random_traces()
    path = str(tmp_path / "trace.csv")
    write_trace_csv(traces, path)
    back = read_trace_csv(path)
    assert len(back) == 2
    for orig, got in zip(traces, back):
        assert got.chain_id == orig.chain_id
        for k in orig.records:
            np.testing.assert_array_equal(got.records[k], orig.records[k])


def test_trace_csv_header():
    from crmgraph.graphio import TRACE_HEADER

    assert TRACE_HEADER == ["iteration", "chain", "alpha", "sigma", "tau",
                            "w_star", "log_post"]


def test_trace_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("iteration,chain,sigma,alpha,tau,w_star,log_post\n")
    with pytest.raises(SchemaError):
        read_trace_csv(str(path))


def test_trace_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "iteration,chain,alpha,sigma,tau,w_star,log_post\n0,0,1.0,0.5\n"
    )
    with pytest.raises(SchemaError):
        read_trace_csv(str(path))


def test_trace_csv_parse_speed(tmp_path):
    traces = random_traces(n=40000, chains=3)
    path = str(tmp_path / "big.csv")
    write_trace_csv(traces, path)
    start = time.time()
    back = read_trace_csv(path)
    elapsed = time.time() - start
    assert sum(len(t) for t in back) == 120000
    assert elapsed < 2.0
