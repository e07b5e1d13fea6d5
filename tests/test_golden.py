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
import pytest

from crmgraph.inference import McmcConfig, run_chain
from crmgraph.params import GgpParams, rng_stream
from crmgraph.simulate import (
    _DRAW_BLOCK,
    SimConfig,
    _crm_weights,
    sample_graph,
    sample_undirected_ggp,
)
from crmgraph.totalmass import sample_truncated_poisson

RUN_CHAIN_SHA256 = "d7b4195495532ff917a287f510a3ddb72432f5e417c48f015b7c26b28a08f6a8"
# the same chain with no adaptation: the stepsize and the hyper walk keep
# their starting values, so no adapter rule can move this digest
UNADAPTED_RUN_CHAIN_SHA256 = "5e314d61ce111ea6aeed655fc4591291f9305b5c9a1e8741b16c0a5a2c0a7704"
SAMPLE_GRAPH_SHA256 = "b3f65d4d61d31ac61b40ea96f375c62d1f30e9e0eb088e432702f6ac1a1cd749"
TRUNCATED_POISSON_SHA256 = "049764308a3e09e11394c0990c7a95362619b6ebdb8eccaff544f037832af984"
CHAIN_LIKE_POISSON_SHA256 = "9820943be91fd7445382c5374b3e7e967d27d211a8335c1fb3c2f9f276dc2244"
DEEP_INVERSION_POISSON_SHA256 = "30fc73f58da5627ad210b6acd3223a0d626a5ae787cd8788eb48a9e02f5db663"
# pinned on the compound-Poisson path that the sigma < 0 Kallenberg path replaced
FINITE_ACTIVITY_SHA256 = "db3152126700f457f64fd877eeb07ceb972d9045e6ca2211de550ac06a82cda6"
# truncated draws of 77k-169k CRM proposals and 2 D* of 100k-200k endpoints, so
# that a draw made in blocks spans several of them: (alpha, sigma, tau, eps, sha256)
# over every CRM weight, the graph, and its ground-truth weights
MULTI_BLOCK_DRAWS = {
    "sigma-0.5": (300.0, 0.5, 1.0, 1e-5,
                  "9588b62c36632b8be92e6a599c0c89c10725176c1538fb679277e82a604b9eea"),
    "sigma-0.5-tau-0.25": (150.0, 0.5, 0.25, 1e-6,
                           "55afa2a9ce0853cdaadacecbf38467c17fd39fd9d85a7dc17b179faba8ad3bd1"),
    "sigma-0-tau-10": (3000.0, 0.0, 10.0, 1e-12,
                       "768a58581e171c311c055954349045ef4f90610c42fa729ec6e55f5c46408f17"),
    "sigma-neg-0.5-tau-150": (5.5e5, -0.5, 150.0, 1e-6,
                              "d17e23b2b8ba121b5a8feebf3d7f341a99b5a015f461fea3bfd5c34220cf738c"),
    "sigma-neg-2-tau-800": (1.5e11, -2.0, 800.0, 1e-9,
                            "e99e4a7e06e622afc7fc5f2a6149baafbd872855a1ec6a347b3ba876798d329c"),
}


def truncated_poisson(rate, rng):
    """Every draw of sample_truncated_poisson(rate, rng), 1 off its index."""
    index, count = sample_truncated_poisson(rate, rng)
    x = np.ones(len(rate), dtype=np.int64)
    x[index] = count
    return x


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


def test_unadapted_run_chain_digest():
    cfg = McmcConfig(n_iter=120, adapt_iters=0, seed=3, thin=2, omega_record_stride=5)
    assert trace_sha256(run_chain(small_graph(), cfg)) == UNADAPTED_RUN_CHAIN_SHA256


def test_sample_graph_truncated_digest():
    z = sample_graph(SimConfig(params=GgpParams(60.0, 0.5, 1.0), truncation_eps=1e-5, seed=21))
    assert z.n_nodes > 100
    assert graph_sha256(z) == SAMPLE_GRAPH_SHA256


@pytest.mark.parametrize("name", MULTI_BLOCK_DRAWS)
def test_multi_block_truncated_draw_digest(name):
    alpha, sigma, tau, eps, digest = MULTI_BLOCK_DRAWS[name]
    p = GgpParams(alpha, sigma, tau)
    w, n_proposals = _crm_weights(p, eps, rng_stream(8))
    z, truth = sample_undirected_ggp(SimConfig(params=p, truncation_eps=eps, seed=8))
    assert n_proposals > 2 * _DRAW_BLOCK and z.n_edges > 20_000
    h = hashlib.sha256()
    _update(h, w, np.float64)
    h.update(graph_sha256(z).encode())
    _update(h, truth.weights, np.float64)
    assert h.hexdigest() == digest


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
    x = truncated_poisson(np.geomspace(1e-12, 1e4, 1601), rng_stream(4, 0))
    h = hashlib.sha256()
    _update(h, x, np.int64)
    assert h.hexdigest() == TRUNCATED_POISSON_SHA256


def test_truncated_poisson_chain_like_digest():
    # rates spread like a fit's latent rates, from 3e-8 to about 150: most
    # draws are X = 1, and about 6% of rates are past the inversion limit
    g = rng_stream(5, 0)
    rate = g.exponential(size=200_000) * 10.0 ** g.uniform(-3.0, 1.3, size=200_000)
    x = truncated_poisson(rate, rng_stream(5, 1))
    h = hashlib.sha256()
    _update(h, x, np.int64)
    assert h.hexdigest() == CHAIN_LIKE_POISSON_SHA256


def test_truncated_poisson_deep_inversion_digest():
    # 20k rates uniform in [2, 10], all inverted term by term: X reaches 23,
    # so most undecided draws take many terms and the last few finish one
    # by one; the uniforms drawn next pin the generator state
    rate = rng_stream(6, 0).uniform(2.0, 10.0, size=20_000)
    rng = rng_stream(6, 1)
    x = truncated_poisson(rate, rng)
    assert x.max() > 20
    h = hashlib.sha256()
    _update(h, x, np.int64)
    _update(h, rng.random(4), np.float64)
    assert h.hexdigest() == DEEP_INVERSION_POISSON_SHA256
