"""Pinned sha256 digests of fixed-seed sampler output.

A refactor that claims identical output proves it here. A change that
moves a random stream on purpose updates the affected digest and says so.
The digests depend on numpy's Philox stream and on the platform's libm
(exp, log, lgamma), so a different numpy or C library may change them
without any change to this package.
"""

import hashlib

import numpy as np

from crmgraph.inference import McmcConfig, run_chain
from crmgraph.params import GgpParams, rng_stream
from crmgraph.simulate import SimConfig, sample_graph
from crmgraph.totalmass import sample_truncated_poisson

RUN_CHAIN_SHA256 = "ac4b5b2b67a845fb8df7af691adc987df45bff68559e212c379329bc33c7cc7a"
SAMPLE_GRAPH_SHA256 = "0df421284f5ebc070b0f6cafef67600026ffc86aa8181d1d0b3c39187fd4b9a4"
TRUNCATED_POISSON_SHA256 = "63d7085834c557855ad946d6e5d5f18bb3e3a09bdd75f736bc6f8d366b6d61b9"


def _update(h, arr, dtype):
    h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def trace_sha256(trace):
    h = hashlib.sha256()
    for name in sorted(trace.records):
        h.update(name.encode())
        _update(h, trace.records[name], np.float64)
    for name in sorted(trace.accept_rates):
        h.update(name.encode())
        _update(h, [trace.accept_rates[name]], np.float64)
    if trace.omega is not None:
        _update(h, trace.omega, np.float64)
    if "stepsize" in trace.meta:
        _update(h, [trace.meta["stepsize"]], np.float64)
    return h.hexdigest()


def graph_sha256(z):
    h = hashlib.sha256()
    _update(h, [z.n_nodes], np.int64)
    _update(h, z.edge_i, np.int64)
    _update(h, z.edge_j, np.int64)
    return h.hexdigest()


def small_graph():
    return sample_graph(SimConfig(params=GgpParams(20.0, 0.5, 1.0), truncation_eps=1e-3, seed=6))


def test_run_chain_digest():
    cfg = McmcConfig(n_iter=120, seed=3, thin=2, omega_record_stride=5)
    assert trace_sha256(run_chain(small_graph(), cfg)) == RUN_CHAIN_SHA256


def test_sample_graph_truncated_digest():
    z = sample_graph(SimConfig(params=GgpParams(60.0, 0.5, 1.0), truncation_eps=1e-5, seed=21))
    assert z.n_nodes > 100
    assert graph_sha256(z) == SAMPLE_GRAPH_SHA256


def test_truncated_poisson_digest():
    # the latent-count stream on its own, over rates from 1e-12 to 1e4
    x = sample_truncated_poisson(np.geomspace(1e-12, 1e4, 1601), rng_stream(4, 0))
    h = hashlib.sha256()
    _update(h, x, np.int64)
    assert h.hexdigest() == TRUNCATED_POISSON_SHA256
