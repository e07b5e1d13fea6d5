import copy
import dataclasses
import functools
import itertools
import multiprocessing
import os
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import gammaln
from scipy.stats import chisquare

from crmgraph.errors import DomainError, InconsistentStateError
from crmgraph.graphs import UndirectedGraph
from crmgraph.inference import (
    HMC_TARGET_ACCEPT,
    LEAPFROG_STEPS,
    McmcConfig,
    McmcState,
    compute_m,
    grad_log_posterior,
    hmc_update,
    hyper_update,
    init_state,
    latent_rates,
    latent_update,
    log_posterior,
    run_chain,
    run_chains,
)
from crmgraph.params import GgpParams, rng_stream
from crmgraph.simulate import SimConfig, sample_crm_truncated, sample_undirected_ggp


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


@pytest.mark.parametrize("stepsize, accepts", [(50.0, False), (1e-3, True)])
def test_hmc_never_writes_into_the_callers_omega(stepsize, accepts):
    # the trajectory runs in place, so it must run in a copy: a rejected
    # update keeps state.omega itself, an accepted one swaps in a new array
    z, _ = sample_undirected_ggp(SimConfig(GgpParams(20.0, 0.5, 1.0), 1e-3, seed=6))
    state = init_state(z, rng_stream(7, 0))
    before = state.omega
    saved = before.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state, accepted = hmc_update(state, z, 10, stepsize, rng_stream(7, 1))
    assert accepted is accepts
    assert (state.omega is before) is not accepts
    assert before.tobytes() == saved


class _Scripted:
    """Generator stand-in that hands out given normals and a given uniform."""

    def __init__(self, normals, u):
        self.normals, self.u = normals, u

    def standard_normal(self, size):
        assert size == len(self.normals)
        return self.normals.copy()

    def uniform(self):
        return self.u


def test_hmc_follows_the_textbook_leapfrog():
    # oracle: p += eps/2 grad, q += eps p on grad_log_posterior. The
    # scaled-momentum kernel rounds differently, but driven by the same
    # normals it must land on the same position, and a uniform a hair on
    # either side of the oracle's acceptance ratio must decide alike. One
    # step (no inner loop) and LEAPFROG_STEPS steps
    z, _ = sample_undirected_ggp(SimConfig(GgpParams(20.0, 0.5, 1.0), 1e-3, seed=6))
    rng = rng_stream(7, 0)
    start = init_state(z, rng)
    latent_update(start, z, rng)
    eps = 0.05

    def grad(q):
        return grad_log_posterior(dataclasses.replace(start, omega=q), z)

    for n_steps, seed in itertools.product((1, LEAPFROG_STEPS), range(60, 70)):
        p0 = rng_stream(seed, 0).standard_normal(len(start.omega))
        q = start.omega.copy()
        p = p0 + 0.5 * eps * grad(q)
        for step in range(n_steps):
            q = q + eps * p
            p = p + (0.5 * eps if step == n_steps - 1 else eps) * grad(q)
        log_r = (log_posterior(dataclasses.replace(start, omega=q), z) - log_posterior(start, z)
                 - 0.5 * (p @ p - p0 @ p0))
        assert 1e-4 < abs(log_r) < 1.0     # one step's ratio can be either sign
        state = copy.copy(start)
        state, accepted = hmc_update(state, z, n_steps, eps, _Scripted(p0, np.exp(log_r + 1e-9)))
        assert accepted is False and state.omega is start.omega
        state, accepted = hmc_update(state, z, n_steps, eps, _Scripted(p0, np.exp(log_r - 1e-9)))
        assert accepted is True
        np.testing.assert_allclose(state.omega, q, rtol=1e-12, atol=1e-12 * np.abs(q).max())


def test_weights_never_go_stale():
    z, _ = sample_undirected_ggp(SimConfig(GgpParams(20.0, 0.5, 1.0), 1e-3, seed=6))
    state = init_state(z, rng_stream(7, 0))
    assert state.weights().tobytes() == np.exp(state.omega).tobytes()
    # after an accepted HMC update
    state, accepted = hmc_update(state, z, 10, 1e-3, rng_stream(7, 1))
    assert accepted
    assert state.weights().tobytes() == np.exp(state.omega).tobytes()
    # after a replaced omega, an omega written in place, and on a copied state
    state.omega = state.omega + 1.0
    assert state.weights().tobytes() == np.exp(state.omega).tobytes()
    state.omega[0] = 3.0
    assert state.weights()[0] == np.exp(3.0)
    state = init_state(z, rng_stream(7, 0))
    twin = copy.deepcopy(state)
    twin.omega[0] = 3.0
    assert twin.weights()[0] == np.exp(3.0)
    assert state.weights()[0] != np.exp(3.0)


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
    rng = rng_stream(104, 0)
    state = init_state(z, rng)
    latent_update(state, z, rng)
    n_acc = 0
    for _ in range(300):
        state, acc = hyper_update(state, 0.1, rng)
        n_acc += acc
        assert state.alpha > 0 and state.sigma < 1 and state.tau > 0
        assert state.w_star >= 0
    assert 0 < n_acc < 300


def test_hyper_update_rejects_an_overflowed_proposal():
    # at this scale exp(walk_sd z) over- or underflows, so sigma' = -inf or
    # 1 and tau' = inf or 0: outside the region, every proposal is rejected
    state, _ = two_node_state()
    rng = rng_stream(105, 0)
    for _ in range(50):
        with np.errstate(over="ignore"):
            state, acc = hyper_update(state, 1e6, rng)
        assert not acc
    assert (state.alpha, state.sigma, state.tau) == (1.0, 0.5, 1.0)


def test_every_kept_hyper_move_uses_the_frozen_walk_sd(monkeypatch):
    import crmgraph.inference as inf

    sds = []
    original = inf.hyper_update

    def recorded(state, walk_sd, rng):
        sds.append(walk_sd)
        return original(state, walk_sd, rng)

    monkeypatch.setattr(inf, "hyper_update", recorded)
    z, _ = sample_undirected_ggp(SimConfig(GgpParams(20.0, 0.0, 1.0), 1e-3, seed=6))
    trace = run_chain(z, McmcConfig(n_iter=120, adapt_iters=40, seed=2))
    burn = trace.meta["burn"]
    assert sds[0] == inf.HYPER_WALK_SD0 and len(sds) == 120
    assert all(a != b for a, b in zip(sds[:burn], sds[1:burn + 1]))   # each adapting move steps it
    assert sds[burn:] == [trace.meta["hyper_walk_sd"]] * (120 - burn)


def test_run_chain_times_each_block():
    state, graph = two_node_state()
    cfg = McmcConfig(n_iter=40, thin=3, seed=4)
    trace = run_chain(graph, cfg)
    timing = trace.meta["timing"]
    assert list(timing) == ["hmc", "hyper", "latent", "record"]
    for block in ("hmc", "hyper", "latent"):
        assert timing[block]["calls"] == cfg.n_iter
    assert timing["record"]["calls"] == len(trace) > 0
    assert all(v >= 0 for t in timing.values() for v in t.values())


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


def test_mcmc_config_rejects_non_integral_seed():
    for seed in (1.9, -1):
        with pytest.raises(DomainError):
            McmcConfig(n_iter=1, seed=seed)
    assert McmcConfig(n_iter=1, seed=np.int64(4)).seed == 4


@pytest.mark.parametrize("name", ["n_iter", "n_chains", "adapt_iters", "thin",
                                  "omega_record_stride"])
def test_mcmc_config_counts_must_be_integers(name):
    with pytest.raises(DomainError, match=name):
        McmcConfig(**{"n_iter": 8, name: 2.5})
    assert getattr(McmcConfig(**{"n_iter": 8, name: np.int64(2)}), name) == 2


def test_mcmc_config_rejects_negative_omega_record_stride():
    with pytest.raises(DomainError):
        McmcConfig(n_iter=1, omega_record_stride=-3)


def test_hmc_tuning_is_not_a_config_field():
    for name, value in (("leapfrog_steps", 5), ("target_accept", 0.8)):
        with pytest.raises(TypeError):
            McmcConfig(n_iter=1, **{name: value})
    cfg = McmcConfig(n_iter=1)
    assert cfg.target_accept == HMC_TARGET_ACCEPT == 0.6 and LEAPFROG_STEPS == 10
    with pytest.raises(AttributeError):
        cfg.target_accept = 0.8


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


def _tag_pids(monkeypatch):
    """Record in each trace the pid of the process that ran its chain."""
    import crmgraph.inference as inf

    original = inf.run_chain

    def wrapped(*args, **kwargs):
        trace = original(*args, **kwargs)
        trace.meta["pid"] = os.getpid()
        return trace

    monkeypatch.setattr(inf, "run_chain", wrapped)


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
        # wall-clock block timings differ run to run; their shape does not
        ta, tb = a.meta.pop("timing"), b.meta.pop("timing")
        assert a.meta == b.meta
        assert {k: v["calls"] for k, v in ta.items()} == {k: v["calls"] for k, v in tb.items()}


def test_run_chains_worker_error_keeps_type(two_cpus):
    with pytest.raises(DomainError):
        run_chains(UndirectedGraph(3, [], []), McmcConfig(n_iter=10, n_chains=2))


def test_run_chains_runs_replaced_run_chain_in_workers(two_cpus, monkeypatch):
    # a closure cannot be pickled; the workers must find it on the module
    _tag_pids(monkeypatch)
    graph = UndirectedGraph(3, [0, 1], [1, 2])
    traces = run_chains(graph, McmcConfig(n_iter=20, n_chains=2, seed=1))
    assert [t.chain_id for t in traces] == [0, 1]
    assert all(t.meta["pid"] != os.getpid() for t in traces)


def test_run_chains_counts_cpus_without_affinity(monkeypatch):
    # macOS and Windows have no sched_getaffinity: the pool is sized by cpu_count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _tag_pids(monkeypatch)
    traces = run_chains(UndirectedGraph(3, [0, 1], [1, 2]), McmcConfig(n_iter=20, n_chains=2))
    assert [t.chain_id for t in traces] == [0, 1]
    assert all(t.meta["pid"] != os.getpid() for t in traces)
    monkeypatch.setattr(os, "cpu_count", lambda: None)     # unknown: one CPU
    traces = run_chains(UndirectedGraph(3, [0, 1], [1, 2]), McmcConfig(n_iter=20, n_chains=2))
    assert all(t.meta["pid"] == os.getpid() for t in traces)


def test_run_chains_without_fork_runs_in_process(two_cpus, monkeypatch):
    # Windows has no "fork" start method: the chains run serially here
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    _tag_pids(monkeypatch)
    graph = UndirectedGraph(3, [0, 1], [1, 2])
    mc = McmcConfig(n_iter=20, n_chains=2, seed=1)
    traces = run_chains(graph, mc)
    assert [t.chain_id for t in traces] == [0, 1]
    assert all(t.meta["pid"] == os.getpid() for t in traces)
    for t in traces:
        np.testing.assert_array_equal(t["sigma"], run_chain(graph, mc, t.chain_id)["sigma"])


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



# simulation-based calibration (Cook, Gelman & Rubin 2006; Talts et al. 2018)
# of the HMC and latent blocks: the production run_chain, with the hyper block
# patched out and the start patched to the truth's (alpha, sigma, tau, w*),
# targets p(w, nbar | graph, w*, alpha, sigma, tau), so the truth's rank among
# its kept draws is uniform
SBC_PARAMS, SBC_EPS = GgpParams(5.0, 0.5, 1.0), 1e-8
SBC_CONFIG = McmcConfig(n_iter=600, adapt_iters=200, thin=10, omega_record_stride=1)


def _start_at_truth(graph, rng, w_star):
    deg = graph.degree.astype(float)
    w0 = deg / np.sqrt(deg.sum()) * np.exp(0.2 * rng.standard_normal(graph.n_nodes))
    p = SBC_PARAMS
    return McmcState(np.log(w0), w_star, p.alpha, p.sigma, p.tau,
                     np.ones(graph.n_edges, dtype=np.int64))


def _sbc_ranks(r):
    """Replicate r's rank of the truth among the clamped chain's 40 kept draws
    for log w of the highest-degree node, log w of a node picked by r's own
    stream, and sum w; None when the graph has no edge, a choice that depends
    on the data alone. w* is the mass of the atoms that got no edge plus the
    remainder below eps."""
    import crmgraph.inference as inf

    z, truth = sample_undirected_ggp(SimConfig(SBC_PARAMS, SBC_EPS, seed=r))
    if z.n_edges == 0:
        return None
    # sample_undirected_ggp draws its CRM first, from this same stream
    crm = sample_crm_truncated(SBC_PARAMS, SBC_EPS, rng_stream(r))
    unseen = crm.weights[~np.isin(crm.weights, truth.weights)]
    w_star = unseen.sum() + truth.remainder_mass
    nodes = [int(np.argmax(z.degree)), rng_stream(r, 2).integers(z.n_nodes)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inf, "init_state", functools.partial(_start_at_truth, w_star=w_star))
        patch.setattr(inf, "hyper_update", lambda state, walk_sd, rng: (state, False))
        omega = run_chain(z, SBC_CONFIG, chain_id=1).omega     # stream 1: not the graph's
    assert omega.shape == (40, z.n_nodes)
    draws = np.column_stack([omega[:, nodes], np.exp(omega).sum(axis=1)])
    return (draws < [*np.log(truth.weights[nodes]), truth.weights.sum()]).sum(axis=0)


def _sbc_p_values(n_replicates):
    """Chi-square p-value of each statistic's ranks, in 8 bins of 6 or 5 of
    their 41 values. The replicates run in two workers, forked for the reason
    run_chains forks: 200 replicates took 8.5 s forked, 17.7 s spawned."""
    if "fork" in multiprocessing.get_all_start_methods():
        with multiprocessing.get_context("fork").Pool(2) as pool:
            ranks = pool.map(_sbc_ranks, range(n_replicates))
    else:
        ranks = list(map(_sbc_ranks, range(n_replicates)))
    ranks = [r for r in ranks if r is not None]
    assert len(ranks) > 0.95 * n_replicates
    share = np.bincount(np.arange(41) * 8 // 41) / 41
    return [chisquare(np.bincount(stat * 8 // 41, minlength=8), share * len(stat)).pvalue
            for stat in np.array(ranks).T]


def test_hmc_and_latent_blocks_are_calibrated():
    # one threshold, 1e-3, for the three tests together
    assert min(_sbc_p_values(200)) > 1e-3 / 3
