import os
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import gammaln

from crmgraph.errors import DomainError, InconsistentStateError
from crmgraph.graphs import UndirectedGraph
from crmgraph.inference import (
    McmcConfig,
    McmcState,
    compute_m,
    grad_log_posterior,
    hmc_update,
    hyper_update,
    latent_rates,
    latent_update,
    log_posterior,
    run_chain,
    run_chains,
)
from crmgraph.params import GgpParams, rng_stream
from crmgraph.simulate import SimConfig, sample_undirected_ggp


def two_node_state(sigma=0.5, tau=1.0, w=(1.0, 1.0), w_star=0.0, nbar=(1,)):
    graph = UndirectedGraph(2, [0], [1])
    state = McmcState(
        omega=np.log(np.asarray(w, dtype=float)),
        w_star=w_star,
        alpha=1.0,
        sigma=sigma,
        tau=tau,
        nbar=np.asarray(nbar, dtype=np.int64),
    )
    return state, graph


def test_log_posterior_hand_value():
    # two unit weights, one edge, sigma = 0.5, tau = 1, w* = 0:
    # 2 [log rho(1)] - (2)^2 = -2 - 2 log Gamma(0.5) - 4
    state, graph = two_node_state()
    expected = -2.0 - 2.0 * gammaln(0.5) - 4.0
    assert log_posterior(state, graph) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-7.1447298858494, rel=1e-10)


def test_log_posterior_brute_force_oracle():
    rng = np.random.default_rng(0)
    graph = UndirectedGraph(3, [0, 0, 1, 2], [1, 2, 1, 2])
    for _ in range(20):
        w = rng.uniform(0.1, 2.0, size=3)
        nbar = rng.integers(1, 4, size=4)
        sigma, tau, w_star = rng.uniform(-0.5, 0.9), rng.uniform(0.5, 2), rng.uniform(0, 1)
        state = McmcState(np.log(w), w_star, 1.0, sigma, tau, nbar)
        m = np.zeros(3)
        for (i, j), n in zip([(0, 1), (0, 2), (1, 1), (2, 2)], nbar):
            m[i] += n
            m[j] += n
        direct = sum(
            m[i] * np.log(w[i])
            + (-1 - sigma) * np.log(w[i]) - tau * w[i] - gammaln(1 - sigma)
            for i in range(3)
        ) - (w.sum() + w_star) ** 2 + np.log(w).sum()
        assert log_posterior(state, graph) == pytest.approx(direct, rel=1e-12)


def test_gradient_hand_value():
    state, graph = two_node_state()
    g = grad_log_posterior(state, graph)
    # m - sigma - w (tau + 2 sum w + 2 w*) = 1 - 0.5 - 1 * 5
    np.testing.assert_allclose(g, [-4.5, -4.5], rtol=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    graph = UndirectedGraph(4, [0, 0, 1, 2, 3], [1, 2, 3, 3, 3])
    h = 1e-6
    for _ in range(100):
        w = rng.uniform(0.2, 2.0, size=4)
        nbar = rng.integers(1, 5, size=5)
        state = McmcState(
            np.log(w), rng.uniform(0, 1), 1.0,
            rng.uniform(-1, 0.9), rng.uniform(0.5, 2), nbar,
        )
        grad = grad_log_posterior(state, graph)
        for i in range(4):
            up = state.omega.copy()
            up[i] += h
            dn = state.omega.copy()
            dn[i] -= h
            s_up = McmcState(up, state.w_star, 1.0, state.sigma, state.tau, nbar)
            s_dn = McmcState(dn, state.w_star, 1.0, state.sigma, state.tau, nbar)
            fd = (log_posterior(s_up, graph) - log_posterior(s_dn, graph)) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_state_consistency_checks():
    state, graph = two_node_state(nbar=(1, 1))  # wrong latent length
    with pytest.raises(InconsistentStateError):
        log_posterior(state, graph)
    with pytest.raises(InconsistentStateError):
        grad_log_posterior(state, graph)
    state, graph = two_node_state(nbar=(0,))  # latent count below 1
    with pytest.raises(InconsistentStateError):
        log_posterior(state, graph)


def test_compute_m_self_loop_counts_twice():
    graph = UndirectedGraph(2, [0, 1], [0, 1])  # loop on 0, edge via (1,1) loop
    m = compute_m(graph, np.array([3, 2]))
    np.testing.assert_array_equal(m, [6, 4])


def test_compute_m_matches_bincount_reference():
    # the per-graph count at nbar = 1 plus the excess must equal two
    # weighted bincounts over every edge, integer for integer
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        e = int(rng.integers(1, 200))
        graph = UndirectedGraph(n, rng.integers(0, n, e), rng.integers(0, n, e))
        nbar = rng.geometric(rng.uniform(0.3, 1.0), graph.n_edges)
        nbar[rng.uniform(size=graph.n_edges) < 0.3] += rng.integers(0, 1000)
        ref = np.bincount(graph.edge_i, weights=nbar, minlength=n)
        ref += np.bincount(graph.edge_j, weights=nbar, minlength=n)
        m = compute_m(graph, nbar)
        assert m.dtype == np.int64
        np.testing.assert_array_equal(m, ref.astype(np.int64))
    assert len(graph.loops) > 0


def test_latent_rates_match_mask_form_bitwise():
    rng = np.random.default_rng(8)
    graph = UndirectedGraph(30, rng.integers(0, 30, 300), rng.integers(0, 30, 300))
    assert len(graph.loops) > 0
    state = McmcState(rng.normal(0.0, 3.0, 30), 0.1, 1.0, 0.2, 1.0,
                      np.ones(graph.n_edges, dtype=np.int64))
    w = np.exp(state.omega)
    ref = 2.0 * w[graph.edge_i] * w[graph.edge_j]
    loop = graph.edge_i == graph.edge_j
    ref[loop] = w[graph.edge_i[loop]] ** 2
    assert latent_rates(state, graph).tobytes() == ref.tobytes()


def test_diverging_hmc_rejects_without_warnings():
    # these seeds overflow in exp, in dot and in a scalar power
    for seed in range(100, 111):
        state, graph = two_node_state()
        omega = state.omega.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state, accepted = hmc_update(state, graph, 10, 50.0, rng_stream(seed, 0))
        assert accepted is False
        np.testing.assert_array_equal(state.omega, omega)


def test_hmc_preserves_two_node_posterior():
    # fixed hyperparameters and latents: compare the production HMC kernel
    # against 2-D quadrature of the unnormalized density in w. A self-loop
    # adds 2 to m, so edges (0,0), (0,1) with unit counts give m = (3, 1).
    sigma, tau, w_star = 0.3, 1.0, 0.2
    graph = UndirectedGraph(2, [0, 0], [0, 1])
    state = McmcState(np.log([0.5, 0.5]), w_star, 1.0, sigma, tau, np.array([1, 1]))
    m = compute_m(graph, state.nbar)
    np.testing.assert_array_equal(m, [3, 1])

    def dens(w1, w2):
        return (
            w1 ** (m[0] - 1 - sigma) * w2 ** (m[1] - 1 - sigma)
            * np.exp(-tau * (w1 + w2) - (w1 + w2 + w_star) ** 2)
        )

    norm, _ = dblquad(lambda y, x: dens(x, y), 0, 8, 0, 8, epsabs=1e-12)
    mean1, _ = dblquad(lambda y, x: x * dens(x, y), 0, 8, 0, 8, epsabs=1e-12)
    expected = mean1 / norm

    rng = rng_stream(100, 0)
    draws = []
    n_acc = 0
    for it in range(40000):
        state, accepted = hmc_update(state, graph, 10, 0.15, rng)
        n_acc += accepted
        if it >= 2000:
            draws.append(np.exp(state.omega[0]))
    assert n_acc / 40000 > 0.3
    assert np.mean(draws) == pytest.approx(expected, rel=0.02)


def test_latent_exact_mean():
    # rates fixed at 2: mean of the zero-truncated Poisson is 2/(1 - e^-2)
    state, graph = two_node_state(w=(1.0, 1.0))
    rng = rng_stream(101, 0)
    vals = []
    for _ in range(20000):
        latent_update(state, graph, rng)
        vals.append(state.nbar[0])
    expected = 2.0 / (1.0 - np.exp(-2.0))
    assert expected == pytest.approx(2.3130352854993312, rel=1e-12)
    se = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert abs(np.mean(vals) - expected) <= 4.0 * se


def test_hyper_update_moves_and_keeps_validity():
    cfg = SimConfig(params=GgpParams(30, 0.5, 1.0), truncation_eps=1e-4, seed=5)
    z, _ = sample_undirected_ggp(cfg)
    mc = McmcConfig(n_iter=10, seed=0, rw_sd=0.1)
    rng = rng_stream(104, 0)
    from crmgraph.inference import init_state

    state = init_state(z, rng)
    latent_update(state, z, rng)
    n_acc = 0
    for _ in range(300):
        state, acc = hyper_update(state, mc, rng)
        n_acc += acc
        assert state.alpha > 0 and state.sigma < 1 and state.tau > 0
        assert state.w_star >= 0
    assert 0 < n_acc < 300


def test_zero_iteration_trace():
    state, graph = two_node_state()
    cfg = McmcConfig(n_iter=0, seed=0)
    trace = run_chain(graph, cfg)
    assert len(trace) == 0
    assert trace.meta["n_iter"] == 0
    assert trace.meta["init"]["n_nodes"] == 2


def test_single_self_loop_node():
    graph = UndirectedGraph(1, [0], [0])
    cfg = McmcConfig(n_iter=50, seed=1)
    trace = run_chain(graph, cfg)
    assert len(trace) == 50 - cfg.adapt_iters
    assert np.all(np.isfinite(trace["log_post"]))


def test_run_chain_computes_m_once_per_latent_draw(monkeypatch):
    # the m of a latent draw serves the recorded log_post and the next HMC update
    import crmgraph.inference as inf

    calls = []
    original = inf.compute_m

    def counted(graph, nbar):
        calls.append(len(nbar))
        return original(graph, nbar)

    monkeypatch.setattr(inf, "compute_m", counted)
    graph = UndirectedGraph(3, [0, 1, 2], [1, 2, 2])
    run_chain(graph, McmcConfig(n_iter=40, thin=1, adapt_iters=10, seed=2))
    assert len(calls) == 40 + 1      # the starting latent draw, then one per sweep


def test_empty_graph_rejected():
    graph = UndirectedGraph(3, [], [])
    with pytest.raises(DomainError):
        run_chain(graph, McmcConfig(n_iter=10))


def test_run_chains_distinct_streams():
    cfg = SimConfig(params=GgpParams(20, 0.5, 1.0), truncation_eps=1e-3, seed=6)
    z, _ = sample_undirected_ggp(cfg)
    mc = McmcConfig(n_iter=60, n_chains=3, seed=9)
    traces = run_chains(z, mc)
    assert len(traces) == 3
    assert traces[0].chain_id == 0 and traces[2].chain_id == 2
    assert not np.allclose(traces[0]["sigma"], traces[1]["sigma"])


@pytest.fixture
def two_cpus(monkeypatch):
    # run_chains forks a pool only when at least 2 CPUs are usable
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_run_chains_pool_matches_serial_loop(two_cpus):
    cfg = SimConfig(params=GgpParams(20, 0.5, 1.0), truncation_eps=1e-3, seed=6)
    z, _ = sample_undirected_ggp(cfg)
    mc = McmcConfig(n_iter=60, n_chains=3, seed=9, omega_record_stride=4)
    pooled = run_chains(z, mc)
    serial = [run_chain(z, mc, c) for c in range(3)]
    assert len(pooled) == len(serial)
    for a, b in zip(pooled, serial):
        assert a.chain_id == b.chain_id
        assert a.records.keys() == b.records.keys()
        for name in a.records:
            np.testing.assert_array_equal(a[name], b[name])
        assert a.omega is not None
        np.testing.assert_array_equal(a.omega, b.omega)
        assert a.accept_rates == b.accept_rates
        assert a.meta == b.meta


def test_run_chains_worker_error_keeps_type(two_cpus):
    with pytest.raises(DomainError):
        run_chains(UndirectedGraph(3, [], []), McmcConfig(n_iter=10, n_chains=2))


def test_run_chains_runs_replaced_run_chain_in_workers(two_cpus, monkeypatch):
    # a closure cannot be pickled; the workers must find it on the module
    import crmgraph.inference as inf

    original = inf.run_chain

    def wrapped(*args, **kwargs):
        trace = original(*args, **kwargs)
        trace.meta["pid"] = os.getpid()
        return trace

    monkeypatch.setattr(inf, "run_chain", wrapped)
    graph = UndirectedGraph(3, [0, 1], [1, 2])
    traces = run_chains(graph, McmcConfig(n_iter=20, n_chains=2, seed=1))
    assert [t.chain_id for t in traces] == [0, 1]
    assert all(t.meta["pid"] != os.getpid() for t in traces)


def test_chain_deterministic_in_seed():
    cfg = SimConfig(params=GgpParams(20, 0.5, 1.0), truncation_eps=1e-3, seed=6)
    z, _ = sample_undirected_ggp(cfg)
    mc = McmcConfig(n_iter=80, seed=3)
    a = run_chain(z, mc)
    b = run_chain(z, mc)
    np.testing.assert_array_equal(a["sigma"], b["sigma"])
    np.testing.assert_array_equal(a["log_post"], b["log_post"])


def test_relabeling_nodes_preserves_scalar_trace():
    # permuting node labels and reordering back gives the same graph, hence
    # the same trace; scalar updates see nodes only through reductions
    cfg = SimConfig(params=GgpParams(15, 0.5, 1.0), truncation_eps=1e-3, seed=8)
    z, _ = sample_undirected_ggp(cfg)
    rng = np.random.default_rng(0)
    perm = rng.permutation(z.n_nodes)
    z_perm = UndirectedGraph(z.n_nodes, perm[z.edge_i], perm[z.edge_j])
    inv = np.empty_like(perm)
    inv[perm] = np.arange(z.n_nodes)
    z_back = UndirectedGraph(z.n_nodes, inv[z_perm.edge_i], inv[z_perm.edge_j])
    np.testing.assert_array_equal(z.edge_i, z_back.edge_i)
    np.testing.assert_array_equal(z.edge_j, z_back.edge_j)
    mc = McmcConfig(n_iter=60, seed=2)
    a = run_chain(z, mc)
    b = run_chain(z_back, mc)
    np.testing.assert_array_equal(a["sigma"], b["sigma"])


def test_omega_snapshots():
    graph = UndirectedGraph(2, [0], [1])
    mc = McmcConfig(n_iter=40, seed=0, omega_record_stride=2)
    trace = run_chain(graph, mc)
    assert trace.omega is not None
    assert trace.omega.shape[1] == 2
    assert trace.omega.shape[0] == 15  # 30 kept samples, stride 2


def test_g_star_density_never_evaluated():
    # the only uses of the total-mass law anywhere are exact samplers
    import crmgraph.inference as inf
    import crmgraph.totalmass as tm
    import inspect

    src = inspect.getsource(inf)
    assert "pdf" not in src and "density_total_mass" not in src
    assert not any("pdf" in name for name in dir(tm))
