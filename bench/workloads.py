"""The three benchmark workloads, their correctness gates and output digests.

Every call into crmgraph goes through a module attribute looked up at call
time (``simulate.sample_undirected_ggp``, ``inference.run_chain``, ...), so a
traced run that replaces those attributes times exactly the calls an
untraced run makes.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from crmgraph import diagnostics, graphio, inference, simulate
from crmgraph.params import GgpParams

INPUT_DIR = Path(__file__).resolve().parent / "inputs"
MANIFEST = INPUT_DIR / "manifest.json"

PAPER_PARAMS = GgpParams(300.0, 0.5, 1.0)
PAPER_EPS = 1e-6
# Paper criterion 6 brackets for one paper-scale draw.
NODE_RANGE = (8000, 22000)
EDGE_RANGE = (45000, 120000)

FIT_ITERS = 500
FIT_THIN = 5                 # as in the README quick start
ACCEPT_BAND = 0.3            # post-adapt HMC acceptance within target +- band
SPARSITY_ITERS = 1000
SPARSITY_CHAINS = 2
SPARSITY_SIGMA = 0.0         # sigma that generated the sparsity-boundary input


class GateError(Exception):
    """An output failed its correctness gate."""


class InputError(Exception):
    """A stored benchmark input is missing or does not match its manifest."""


@dataclass
class Outcome:
    """One attempted operation: which metric it feeds and how it went."""

    metric: str              # "op_s" or "load_s"
    seconds: float = None    # None when the operation raised or failed its gate
    error: str = None
    digest: str = None


def op_seed(seed, k):
    """Seed of the k-th operation of a run started with ``--seed seed``."""
    return seed * 1000 + k


def graph_digest(z):
    h = hashlib.sha256()
    h.update(np.int64(z.n_nodes).tobytes())
    h.update(np.ascontiguousarray(z.edge_i, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(z.edge_j, dtype=np.int64).tobytes())
    return h.hexdigest()


def trace_digest(traces):
    h = hashlib.sha256()
    for t in traces:
        for name in sorted(t.records):
            h.update(name.encode())
            h.update(np.ascontiguousarray(t.records[name], dtype=np.float64).tobytes())
    return h.hexdigest()


def file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_graph_size(z):
    if not (NODE_RANGE[0] <= z.n_nodes <= NODE_RANGE[1]):
        raise GateError(f"{z.n_nodes} nodes outside {NODE_RANGE}")
    if not (EDGE_RANGE[0] <= z.n_edges <= EDGE_RANGE[1]):
        raise GateError(f"{z.n_edges} edges outside {EDGE_RANGE}")


def check_roundtrip(drawn, back):
    if (back.n_nodes, back.n_edges) != (drawn.n_nodes, drawn.n_edges):
        raise GateError(
            f"read back {back.n_nodes} nodes / {back.n_edges} edges, "
            f"drew {drawn.n_nodes} / {drawn.n_edges}"
        )
    if not np.array_equal(np.sort(back.degree), np.sort(drawn.degree)):
        raise GateError("degree sequence changed in the edge-list round trip")


def check_chain(trace, target_accept):
    if not np.all(np.isfinite(trace["log_post"])):
        raise GateError("non-finite log_post in the trace")
    acc = trace.accept_rates["hmc_post_adapt"]
    if abs(acc - target_accept) > ACCEPT_BAND:
        raise GateError(f"post-adapt HMC acceptance {acc:.3f} outside "
                        f"{target_accept} +- {ACCEPT_BAND}")


def check_sparsity(result):
    if not 0.0 <= result.p_sparse <= 1.0:
        raise GateError(f"p_sparse {result.p_sparse} outside [0, 1]")
    lo, hi = result.ci_sigma
    if not lo <= SPARSITY_SIGMA <= hi:
        raise GateError(f"99% interval ({lo:.4f}, {hi:.4f}) misses sigma = {SPARSITY_SIGMA}")


def load_input(name):
    """Check a stored fit input against its manifest and ingest it."""
    entry = json.loads(MANIFEST.read_text())[name]
    path = INPUT_DIR / entry["file"]
    if not path.is_file():
        raise InputError(f"missing benchmark input {path}")
    if file_sha256(path) != entry["sha256"]:
        raise InputError(f"{path} does not match its sha256 in {MANIFEST.name}")
    graph = graphio.read_edge_list(str(path)).graph
    if (graph.n_nodes, graph.n_edges) != (entry["n_nodes"], entry["n_edges"]):
        raise InputError(f"{path} ingests to {graph.n_nodes} nodes / {graph.n_edges} "
                         f"edges, manifest says {entry['n_nodes']} / {entry['n_edges']}")
    return graph


def _attempt(metric, fn):
    """Run fn() -> (seconds, digest); a raised error or failed gate becomes a failure."""
    try:
        seconds, digest = fn()
    except GateError as exc:
        return Outcome(metric, error=f"gate: {exc}")
    except Exception as exc:     # a run reports failed operations and goes on
        return Outcome(metric, error=f"{type(exc).__name__}: {exc}")
    return Outcome(metric, seconds=seconds, digest=digest)


class SamplePaper:
    """Draw a paper-scale graph, write it, read it back."""

    name = "sample-paper"

    def __init__(self, seed, workdir, count=None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.count = count or (lambda name, amount: None)

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)

    def step(self, k):
        path = str(self.workdir / f"draw-{os.getpid()}-{k}.txt")
        drawn = {}

        def draw():
            cfg = simulate.SimConfig(params=PAPER_PARAMS, truncation_eps=PAPER_EPS,
                                     seed=op_seed(self.seed, k))
            t0 = time.perf_counter()
            z, _ = simulate.sample_undirected_ggp(cfg)
            graphio.write_edge_list(z, path)
            seconds = time.perf_counter() - t0
            self.count("graphio.bytes", os.path.getsize(path))
            check_graph_size(z)
            drawn["z"] = z
            return seconds, graph_digest(z)

        def load():
            t0 = time.perf_counter()
            back = graphio.read_edge_list(path).graph
            check_roundtrip(drawn["z"], back)
            return time.perf_counter() - t0, None

        try:
            outcomes = [_attempt("op_s", draw)]
            if outcomes[0].error is None:
                outcomes.append(_attempt("load_s", load))
        finally:
            if os.path.exists(path):
                os.remove(path)
        return outcomes


class _StoredInputWorkload:
    """A workload that fits the stored input named ``input_name``."""

    input_name = None

    def __init__(self, seed, workdir=None, count=None):
        self.seed = seed
        self.graph = None

    def setup(self):
        self.graph = load_input(self.input_name)

    def step(self, k):
        return [_attempt("op_s", self.fit_op(k))]


class FitPaper(_StoredInputWorkload):
    """One fixed-length chain on the stored paper-scale graph."""

    name = "fit-paper"
    input_name = "fit-paper"

    def fit_op(self, k):
        cfg = inference.McmcConfig(n_iter=FIT_ITERS, thin=FIT_THIN, seed=op_seed(self.seed, k))

        def fit():
            t0 = time.perf_counter()
            trace = inference.run_chain(self.graph, cfg)
            seconds = time.perf_counter() - t0
            check_chain(trace, cfg.target_accept)
            return seconds, trace_digest([trace])

        return fit


class SparsityBoundary(_StoredInputWorkload):
    """The test-sparsity path on the stored gamma-process (sigma = 0) graph."""

    name = "sparsity-boundary"
    input_name = "sparsity-boundary"

    def fit_op(self, k):
        # CLI defaults for every field except the chain count and length.
        cfg = inference.McmcConfig(n_iter=SPARSITY_ITERS, n_chains=SPARSITY_CHAINS,
                                   seed=op_seed(self.seed, k))

        def test():
            t0 = time.perf_counter()
            traces = inference.run_chains(self.graph, cfg)
            result = diagnostics.sparsity_test(traces)
            seconds = time.perf_counter() - t0
            check_sparsity(result)
            return seconds, trace_digest(traces)

        return test


WORKLOADS = {w.name: w for w in (SamplePaper, FitPaper, SparsityBoundary)}
