"""Pinned sha256 digests of fixed-seed sampler output.

A refactor that claims identical output proves it here. A change that
moves a random stream on purpose updates the affected digest and says so.
The digests depend on numpy's SFC64 stream, seeded through SeedSequence
(see rng_stream), and on the platform's libm (exp, log, lgamma), so a
different numpy or C library may change them without any change to this
package.
"""

import hashlib

import numpy as np

from crmgraph.inference import McmcConfig, run_chain
from crmgraph.params import GgpParams, rng_stream
from crmgraph.simulate import SimConfig, sample_graph
from crmgraph.totalmass import sample_truncated_poisson

RUN_CHAIN_SHA256 = "65b166204c1994e479304dcfde53947bda4985a8a2c5b07000484d684092ca7b"
SAMPLE_GRAPH_SHA256 = "b3f65d4d61d31ac61b40ea96f375c62d1f30e9e0eb088e432702f6ac1a1cd749"
TRUNCATED_POISSON_SHA256 = "049764308a3e09e11394c0990c7a95362619b6ebdb8eccaff544f037832af984"
CHAIN_LIKE_POISSON_SHA256 = "9820943be91fd7445382c5374b3e7e967d27d211a8335c1fb3c2f9f276dc2244"
# pinned on the compound-Poisson path that the sigma < 0 Kallenberg path replaced
FINITE_ACTIVITY_SHA256 = "db3152126700f457f64fd877eeb07ceb972d9045e6ca2211de550ac06a82cda6"


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


def test_sample_graph_finite_activity_kallenberg_digest():
    h = hashlib.sha256()
    for seed, sigma in enumerate((-0.5, -1.0, -3.0)):
        p = GgpParams(30.0, sigma, 0.7)
        z = sample_graph(SimConfig(params=p, seed=40 + seed, path="kallenberg"))
        assert z.n_edges > 100
        h.update(graph_sha256(z).encode())
    assert h.hexdigest() == FINITE_ACTIVITY_SHA256


def test_truncated_poisson_digest():
    # the latent-count stream on its own, over rates from 1e-12 to 1e4
    x = sample_truncated_poisson(np.geomspace(1e-12, 1e4, 1601), rng_stream(4, 0))
    h = hashlib.sha256()
    _update(h, x, np.int64)
    assert h.hexdigest() == TRUNCATED_POISSON_SHA256


def test_truncated_poisson_chain_like_digest():
    # rates spread like a fit's latent rates, from 3e-8 to about 150: most
    # draws are X = 1, and about 6% of rates are past the inversion limit
    g = rng_stream(5, 0)
    rate = g.exponential(size=200_000) * 10.0 ** g.uniform(-3.0, 1.3, size=200_000)
    x = sample_truncated_poisson(rate, rng_stream(5, 1))
    h = hashlib.sha256()
    _update(h, x, np.int64)
    assert h.hexdigest() == CHAIN_LIKE_POISSON_SHA256
