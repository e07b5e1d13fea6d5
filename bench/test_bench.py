"""Tests of the benchmark itself: span targets, wrapper transparency, gates.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import crmgraph  # noqa: E402
from crmgraph import diagnostics, graphio, inference, simulate  # noqa: E402
from crmgraph.graphs import UndirectedGraph  # noqa: E402
from crmgraph.params import GgpParams  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402

MODULES = {"simulate": simulate, "graphio": graphio, "inference": inference,
           "diagnostics": diagnostics}


def tiny_graph(seed=3):
    cfg = simulate.SimConfig(params=GgpParams(20.0, 0.3, 1.0), truncation_eps=1e-4, seed=seed)
    z, _ = simulate.sample_undirected_ggp(cfg)
    return z


def exercise(tmp_path):
    """Digests of every call path the workloads make, on tiny inputs."""
    z = tiny_graph()
    path = str(tmp_path / "g.txt")
    graphio.write_edge_list(z, path)
    back = graphio.read_edge_list(path).graph
    chain = inference.run_chain(back, inference.McmcConfig(n_iter=30, thin=5, seed=7))
    traces = inference.run_chains(back, inference.McmcConfig(n_iter=140, n_chains=2, seed=7))
    result = diagnostics.sparsity_test(traces)
    return (workloads.graph_digest(z), workloads.graph_digest(back),
            workloads.trace_digest([chain]), workloads.trace_digest(traces), result.p_sparse)


@pytest.mark.parametrize("mod_name, attr, span_name", TARGETS)
def test_span_target_exists_where_callers_look_it_up(mod_name, attr, span_name):
    caller = getattr(crmgraph, mod_name)
    assert callable(getattr(caller, attr))
    layer, func = span_name.split(".")
    # The span is named after the module that defines the function.
    assert getattr(getattr(crmgraph, layer), func) is getattr(caller, attr)


@pytest.fixture(scope="module")
def traced_exercise(tmp_path_factory):
    """(untraced digests, traced digests, tracer) of one exercise each."""
    tmp_path = tmp_path_factory.mktemp("exercise")
    plain = exercise(tmp_path)
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        tracer.op = 0
        traced = exercise(tmp_path)
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def test_wrappers_leave_outputs_unchanged(traced_exercise):
    plain, traced, tracer = traced_exercise
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert names == {name for _, _, name in TARGETS}
    for mod_name, attr, _ in TARGETS:
        assert not hasattr(getattr(MODULES[mod_name], attr), "__wrapped__")


def test_every_per_layer_metric_is_produced(traced_exercise):
    _, per_layer = run.load_spec()
    values = run.per_layer_values(traced_exercise[2], [0], per_layer)
    # Filled in by run.py and the sample-paper workload, not by the spans.
    outside_spans = {"graphio.bytes", "process.peak_rss_mb", "trace.overhead_frac"}
    assert {name for name in per_layer if not values[name]} <= outside_spans


def test_counts_stop_when_wrappers_are_removed():
    tracer = Tracer()
    tracer.install(MODULES)
    tracer.count("graphio.bytes", 10)
    tracer.uninstall()
    tracer.count("graphio.bytes", 10)
    assert tracer.per_op()[-1]["graphio.bytes"] == 10


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        tracer.op = 0
        simulate.sample_undirected_ggp(
            simulate.SimConfig(params=GgpParams(20.0, 0.3, 1.0), truncation_eps=1e-4, seed=1))
    finally:
        tracer.uninstall()
    row = tracer.per_op()[0]
    children = (row["simulate.sample_crm_truncated.s"] + row["graphs.to_undirected.s"])
    assert row["simulate.sample_undirected_ggp.self_s"] == pytest.approx(
        row["simulate.sample_undirected_ggp.s"] - children)
    assert row["simulate.atoms"] >= row["simulate.nodes"] > 0


def test_roundtrip_gate_rejects_dropped_line(tmp_path):
    z = tiny_graph()
    path = tmp_path / "g.txt"
    graphio.write_edge_list(z, str(path))
    workloads.check_roundtrip(z, graphio.read_edge_list(str(path)).graph)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(workloads.GateError):
        workloads.check_roundtrip(z, graphio.read_edge_list(str(path)).graph)


def test_size_gate_rejects_graph_outside_brackets():
    with pytest.raises(workloads.GateError):
        workloads.check_graph_size(tiny_graph())


def chain_on_tiny_graph():
    return inference.run_chain(tiny_graph(), inference.McmcConfig(n_iter=40, seed=2))


def test_chain_gate_rejects_non_finite_log_post():
    trace = chain_on_tiny_graph()
    trace.accept_rates["hmc_post_adapt"] = 0.6
    workloads.check_chain(trace, 0.6)
    trace.records["log_post"][0] = np.nan
    with pytest.raises(workloads.GateError):
        workloads.check_chain(trace, 0.6)


def test_chain_gate_rejects_acceptance_outside_band():
    trace = chain_on_tiny_graph()
    trace.accept_rates["hmc_post_adapt"] = 0.6 + workloads.ACCEPT_BAND + 0.01
    with pytest.raises(workloads.GateError):
        workloads.check_chain(trace, 0.6)


@pytest.mark.parametrize("p_sparse, ci", [(0.4, (-0.1, 0.1)), (1.2, (-0.1, 0.1)),
                                          (0.4, (0.01, 0.1)), (0.4, (-0.1, -0.01))])
def test_sparsity_gate(p_sparse, ci):
    result = diagnostics.SparsityTestResult(p_sparse=p_sparse, ci_sigma=ci)
    if p_sparse <= 1.0 and ci[0] <= 0.0 <= ci[1]:
        workloads.check_sparsity(result)
    else:
        with pytest.raises(workloads.GateError):
            workloads.check_sparsity(result)


def test_stored_input_with_wrong_digest_is_refused(tmp_path, monkeypatch):
    z = UndirectedGraph(3, np.array([0, 1]), np.array([1, 2]))
    graphio.write_edge_list(z, str(tmp_path / "g.txt"))
    entry = {"file": "g.txt", "sha256": workloads.file_sha256(tmp_path / "g.txt"),
             "n_nodes": 3, "n_edges": 2}
    (tmp_path / "manifest.json").write_text(json.dumps({"tiny": entry}))
    monkeypatch.setattr(workloads, "INPUT_DIR", tmp_path)
    monkeypatch.setattr(workloads, "MANIFEST", tmp_path / "manifest.json")
    graph = workloads.load_input("tiny")
    assert graph.n_edges == 2
    with open(tmp_path / "g.txt", "a") as fh:
        fh.write("2 0\n")
    with pytest.raises(workloads.InputError):
        workloads.load_input("tiny")


def test_stored_inputs_match_manifest():
    manifest = json.loads(workloads.MANIFEST.read_text())
    for name, entry in manifest.items():
        assert workloads.file_sha256(workloads.INPUT_DIR / entry["file"]) == entry["sha256"]


@pytest.mark.parametrize("n, tail", [(19, None), (40, 75.0), (100, 90.0), (1000, 99.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, tail):
    s = run.summarize(list(range(n)))
    assert s["n"] == n
    assert (s["tail"][0] if s["tail"] else None) == tail


def test_benchmark_json_lists_every_workload():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
