import dataclasses
import json
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from crmgraph.diagnostics import sparsity_test
from crmgraph.errors import DomainError, EmptyGraphError, ParseError, SchemaError
from crmgraph.graphs import UndirectedGraph
from crmgraph.graphio import (
    WRITE_BLOCK_EDGES,
    read_edge_list,
    read_trace_csv,
    write_edge_list,
    write_sidecar,
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
    assert res.ids.tolist() == [10, 20, 30]
    assert res.n_duplicates == 2


def test_read_edge_list_takes_indented_comments_tabs_crlf_and_weights(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"  # indented comment\n\t% indented comment\n"
                     b"7\t2\n2 9\r\n9 7 0.5\n")
    res = read_edge_list(str(path))
    assert res.ids.tolist() == [2, 7, 9]
    assert list(zip(res.graph.edge_i.tolist(), res.graph.edge_j.tolist())) == [
        (0, 1), (0, 2), (1, 2)]
    assert res.n_duplicates == 0


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
    np.testing.assert_array_equal(a.ids, b.ids)
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


CHUNK_BOUNDARY_IDS = [0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 10**12, 10**16, 2**63 - 1]


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
    # ids at each 4-digit chunk boundary, each paired with another such id and with 7
    "chunk-boundaries": (lambda: SimpleNamespace(
        edge_i=np.array(CHUNK_BOUNDARY_IDS * 2, dtype=np.int64),
        edge_j=np.array(CHUNK_BOUNDARY_IDS[::-1] + [7] * len(CHUNK_BOUNDARY_IDS),
                        dtype=np.int64)), None),
    "non-ascii-header": (lambda: _chain_graph(3), "caf\u00e9 \u2014 \u03c3=0.5\nna\u00efve"),
}


@pytest.mark.parametrize("make_graph, header", WRITER_CASES.values(), ids=WRITER_CASES)
def test_write_edge_list_matches_the_per_line_form(tmp_path, make_graph, header):
    graph = make_graph()
    path = tmp_path / "g.txt"
    write_edge_list(graph, str(path), header=header)
    assert path.read_bytes() == _per_line_form(graph, header)


def test_write_edge_list_rejects_a_negative_id(tmp_path):
    path = tmp_path / "g.txt"
    graph = SimpleNamespace(edge_i=np.array([0, -1]), edge_j=np.array([1, 2]))
    with pytest.raises(DomainError):
        write_edge_list(graph, str(path))
    assert not path.exists()


def test_write_edge_list_memory_is_bounded_by_the_block(tmp_path):
    graph = _chain_graph(1_000_000)
    tracemalloc.start()
    try:
        write_edge_list(graph, str(tmp_path / "chain.txt"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a block's arrays take about 110 bytes per edge for these 7-digit ids;
    # one copy of the graph's two edge arrays would take 16 MB
    assert peak < 256 * WRITE_BLOCK_EDGES


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
    assert res.ids.tolist() == [-3, 5, 7, big]
    assert list(zip(res.graph.edge_i.tolist(), res.graph.edge_j.tolist())) == [(0, 2), (1, 3)]
    assert res.n_duplicates == 1
    # just past int64: two distinct ids stay two nodes
    res = read_edge_list(write(tmp_path, f"{2**63} 5\n{2**63 + 1} 5\n", name="g2.txt"))
    assert res.ids.tolist() == [5, 2**63, 2**63 + 1]
    assert res.graph.n_edges == 2


# file bytes -> edge_i, edge_j, ids, n_duplicates
READER_CASES = {
    "comments-mid-file": (b"1 2\n  # indented\n\t% indented\n2 3\n# 4 5\n3 1\n",
                          [0, 0, 1], [1, 2, 2], [1, 2, 3], 0),
    "blank-lines-crlf-cr-no-final-newline": (b"\n5 6\r\n\r\n6 7\r\r7 5\n\n\n5 6",
                                             [0, 0, 1], [1, 2, 2], [5, 6, 7], 1),
    "tabs-weight-trailing-note": (b"1\t2\n2 3 0.5\n3\t\t1  # note\n1 3 x y z\n",
                                  [0, 0, 1], [1, 2, 2], [1, 2, 3], 1),
    "signs-zeros-underscores-big": (f"+5 007\n1_000 -3\n{2**63} 5\n{2**70} 7\n".encode(),
                                    [0, 1, 1, 2], [3, 2, 4, 5],
                                    [-3, 5, 7, 1000, 2**63, 2**70], 0),
    "latin-1-and-utf-8-comments": ("# caf\u00e9\n".encode("latin-1")
                                   + "% \u00e9t\u00e9\n1 2\n".encode()
                                   + b"#\xff\xfe\n2 1\n",
                                   [0], [1], [1, 2], 1),
}


@pytest.mark.parametrize("data, edge_i, edge_j, ids, n_duplicates",
                         READER_CASES.values(), ids=READER_CASES)
def test_read_edge_list_cases(tmp_path, data, edge_i, edge_j, ids, n_duplicates):
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    res = read_edge_list(str(path))
    assert res.graph.edge_i.tolist() == edge_i
    assert res.graph.edge_j.tolist() == edge_j
    assert res.ids.tolist() == ids
    assert res.n_duplicates == n_duplicates


# file bytes -> the line ParseError names
BAD_READER_CASES = {
    "one-field": (b"# c\n1 2\n\n3\n4 5\n", 4),
    "four-fields-over-two-lines": (b"1 2 5\n7\n", 2),
    "letter-in-id": (b"1 2\r\n12a 3\r\n", 2),
    "hex-id": (b"1 2\r0x10 3\r", 2),
    "latin-1-id": (b"1 2\n3 4\n5 \xe96\n", 3),
    "no-break-space-separator": ("1 2\n3\u00a04\n".encode(), 2),
    "no-break-space-after-ids": ("1 2\u00a0\n".encode(), 1),
}


@pytest.mark.parametrize("data, line", BAD_READER_CASES.values(), ids=BAD_READER_CASES)
def test_read_edge_list_names_the_bad_line(tmp_path, data, line):
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        read_edge_list(str(path))
    assert err.value.line_number == line


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


@pytest.mark.parametrize("row", [
    "0,0,1.0,0.5",
    "0,0,1.0,0.5,1.0,0.1,abc",
    "0,0.5,1.0,0.5,1.0,0.1,-3.0",
    "0,a,1.0,0.5,1.0,0.1,-3.0",
    "0.5,0,1.0,0.5,1.0,0.1,-3.0",
    "0,0,1.0,0.5,1.0,0.1,-3.0",
    "2,0,1.0,0.5,1.0,0.1,-3.0",
], ids=["ragged", "non-numeric-field", "float-chain-id", "non-numeric-chain-id",
        "non-integer-iteration", "repeated-iteration", "skipped-iteration"])
def test_trace_csv_rejects_ragged_rows(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(
        "iteration,chain,alpha,sigma,tau,w_star,log_post\n"
        "0,0,1.0,0.5,1.0,0.1,-2.0\n" + row + "\n"
    )
    with pytest.raises(SchemaError, match="row 3"):
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


def test_sidecar_writes_non_finite_floats_as_null(tmp_path):
    # a constant chain has no ESS (nan), and chains constant at different
    # values have an infinite PSRF
    traces = [ChainTrace(records={"sigma": np.full(300, s)}, chain_id=c)
              for c, s in enumerate((0.25, 0.5))]
    result = sparsity_test(traces)
    assert np.isnan(result.ess_sigma) and result.max_psrf == np.inf
    path = tmp_path / "sparsity.json"
    write_sidecar(str(path), {**dataclasses.asdict(result),
                              "hmc_accept_post_adapt": [0.74, float("nan")]})

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    doc = json.loads(path.read_text(), parse_constant=reject)
    assert doc["ess_sigma"] is None and doc["max_psrf"] is None
    assert doc["hmc_accept_post_adapt"] == [0.74, None]
    assert doc["ci_sigma"] == [0.25, 0.5] and doc["p_sparse"] == 1.0
