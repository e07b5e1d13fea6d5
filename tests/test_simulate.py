import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import expon, gamma, ks_2samp, kstest

from crmgraph import simulate
from crmgraph.errors import DomainError
from crmgraph.graphs import CrmSample, DirectedMultigraph, UndirectedGraph
from crmgraph.levy import expected_truncation_mass, levy_density, tail_intensity
from crmgraph.params import GgpParams, rng_stream
from crmgraph.simulate import (
    SimConfig,
    _crm_weights,
    gamma_weight_quantile,
    sample_crm_truncated,
    sample_gamma_urn,
    sample_graph,
    sample_kallenberg,
    sample_undirected_ggp,
)


def test_sim_config_validation():
    p = GgpParams(1, 0.5, 1)
    with pytest.raises(DomainError):
        SimConfig(params=p, truncation_eps=0.0)
    with pytest.raises(DomainError):
        SimConfig(params=p, path="magic")
    with pytest.raises(DomainError):
        SimConfig(params=p, path="urn")  # urn is exact only at sigma = 0
    SimConfig(params=GgpParams(1, 0.0, 1), path="urn")


def test_truncated_crm_atom_count_mean():
    p = GgpParams(5.0, 0.5, 1.0)
    eps = 0.1
    rng = rng_stream(1, 0)
    counts = [len(sample_crm_truncated(p, eps, rng).weights) for _ in range(2000)]
    lam = p.alpha * tail_intensity(p, eps)
    se = np.sqrt(lam / len(counts))
    assert abs(np.mean(counts) - lam) <= 4.0 * se


def test_truncated_crm_campbell_mean():
    # E[sum w] = alpha int_eps^inf w rho(w) dw
    p = GgpParams(5.0, 0.5, 1.0)
    eps = 0.05
    expected = p.alpha * quad(
        lambda w: w * levy_density(p, w), eps, np.inf, limit=300
    )[0]
    rng = rng_stream(2, 0)
    masses = [sample_crm_truncated(p, eps, rng).weights.sum() for _ in range(2000)]
    se = np.std(masses, ddof=1) / np.sqrt(len(masses))
    assert abs(np.mean(masses) - expected) <= 4.0 * se


def test_truncated_crm_weights_exceed_eps():
    p = GgpParams(20.0, 0.5, 1.0)
    rng = rng_stream(3, 0)
    s = sample_crm_truncated(p, 0.01, rng)
    assert np.all(s.weights > 0.01)
    assert s.remainder_mass > 0
    assert s.locations is not None and np.all((0 <= s.locations) & (s.locations <= 20))


def test_finite_activity_exact_path():
    # sigma < 0: almost all of the Poisson(-(alpha/sigma) tau^sigma) jumps exceed eps
    p = GgpParams(10.0, -0.5, 1.0)
    rng = rng_stream(4, 0)
    counts = [len(sample_crm_truncated(p, 1e-9, rng).weights) for _ in range(4000)]
    lam = -(p.alpha / p.sigma) * p.tau**p.sigma  # nearly no mass below eps
    se = np.sqrt(lam / len(counts))
    assert abs(np.mean(counts) - lam) <= 4.0 * se


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    sigma=st.one_of(st.sampled_from([-1e-12, 0.0, 1e-12, -1.0, -3.0]),
                    st.floats(-0.9, 0.9)),
    log_tau=st.floats(-6.0, 6.0),
    eps_pos=st.floats(0.0, 1.0),
)
def test_thinning_matches_campbell_means(sigma, log_tau, eps_pos):
    # eps spans three decades below min(1, 1/tau) up to 20/tau, so it falls
    # on either side of 1/tau (the thinning split) and, for tau < 1, of 1
    tau = 10.0**log_tau
    lo, hi = min(0.0, -log_tau) - 3.0, np.log10(20.0) - log_tau
    eps = 10.0 ** (lo + eps_pos * (hi - lo))
    lam = 200.0  # mean atom count, set through alpha
    p = GgpParams(lam / tail_intensity(GgpParams(1.0, sigma, tau), eps), sigma, tau)
    rng = rng_stream(0, 0)
    n_draws = 60
    counts, masses, proposed = [], [], 0
    for _ in range(n_draws):
        w, n_prop = _crm_weights(p, eps, rng)
        assert np.all(np.isfinite(w)) and np.all(w > eps)
        counts.append(len(w))
        masses.append(w.sum())
        proposed += n_prop
    assert abs(np.mean(counts) - lam) <= 4.0 * np.sqrt(lam / n_draws)
    expected = p.alpha * tau ** (sigma - 1.0) - expected_truncation_mass(p, eps)
    se = np.std(masses, ddof=1) / np.sqrt(n_draws)
    assert abs(np.mean(masses) - expected) <= 4.0 * se
    assert proposed <= 3 * sum(counts)


def test_thinning_never_inverts_the_tail(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tail inversion called for tau > 0")

    monkeypatch.setattr(simulate, "inv_tail_intensity", refuse)
    rng = rng_stream(15, 0)
    for sigma in (-2.0, -0.5, 0.0, 0.5):
        assert len(sample_crm_truncated(GgpParams(50.0, sigma, 1.0), 1e-4, rng).weights)
    # the patch is live: tau = 0 still inverts the tail in closed form
    with pytest.raises(AssertionError):
        sample_crm_truncated(GgpParams(50.0, 0.5, 0.0), 1e-4, rng)


def test_tau_zero_weights_follow_the_stable_tail():
    # tau = 0: rhobar(x) is proportional to x^(-sigma), so the atom count is
    # Poisson(alpha rhobar(eps)) and sigma log(w / eps) is exactly Exp(1)
    p = GgpParams(50.0, 0.5, 0.0)
    eps = 1e-4
    rng = rng_stream(40, 0)
    draws = [_crm_weights(p, eps, rng)[0] for _ in range(200)]
    lam = p.alpha * tail_intensity(p, eps)
    assert abs(np.mean([len(w) for w in draws]) - lam) <= 4.0 * np.sqrt(lam / len(draws))
    w = np.concatenate(draws)
    assert np.all(np.isfinite(w)) and np.all(w > eps)
    assert kstest(p.sigma * np.log(w / eps), expon.cdf).pvalue > 0.01


def test_zero_atom_draw_is_an_empty_graph():
    # about 0.1 atoms are expected here, and this seed draws none
    cfg = SimConfig(params=GgpParams(0.05, -0.5, 1.0), truncation_eps=1e-3, seed=0)
    assert len(sample_crm_truncated(cfg.params, cfg.truncation_eps, rng_stream(0)).weights) == 0
    z = sample_graph(cfg)
    assert (z.n_nodes, z.n_edges) == (0, 0)
    z, gt = sample_undirected_ggp(cfg)
    assert z.n_nodes == 0
    assert len(gt.weights) == 0 and len(gt.locations) == 0


def test_directed_conditional_moments():
    w = np.array([0.5, 0.3])
    sample = CrmSample(w)
    rng = rng_stream(5, 0)
    totals = []
    for _ in range(6000):
        d, _ = simulate._directed_conditional(sample, rng)
        totals.append(d.total_edges)
    tot = w.sum() ** 2
    assert abs(np.mean(totals) - tot) <= 4.0 * np.std(totals, ddof=1) / np.sqrt(len(totals))


def test_directed_conditional_ordered_pair_rate():
    w = np.array([0.5, 0.3])
    sample = CrmSample(w)
    rng = rng_stream(6, 0)
    pair_counts = []
    for _ in range(6000):
        d, atom_ids = simulate._directed_conditional(sample, rng)
        # conditional counts are Poisson(w_i w_j) per ordered pair of atoms;
        # only atoms that drew an endpoint become nodes, so key the counts on atom ids
        m = np.zeros((2, 2), dtype=np.int64)
        m[atom_ids[d.src], atom_ids[d.dst]] = d.counts
        pair_counts.append(m)
    pair_counts = np.asarray(pair_counts)
    se = pair_counts.std(axis=0, ddof=1) / np.sqrt(len(pair_counts))
    assert np.all(np.abs(pair_counts.mean(axis=0) - np.outer(w, w)) <= 4.0 * se)


def test_directed_conditional_numbers_nodes_by_atom_index():
    sample = sample_crm_truncated(GgpParams(30, 0.5, 1.0), 1e-4, rng_stream(4, 0))
    d, atom_ids = simulate._directed_conditional(sample, rng_stream(4, 1))
    assert d.n_nodes == len(atom_ids) > 1
    assert np.all(np.diff(atom_ids) > 0)
    assert np.all(d.incident_degree() > 0)


def _choice_and_unique(sample, rng):
    """The directed conditional as numpy's own sampler draws it: rng.choice
    for the endpoints, np.unique for the node labels.

    The reference is numpy's choice, so a numpy release that changes how
    choice draws moves it, as it may move the digests in test_golden.py;
    this test then says that the production draw no longer equals choice's.
    """
    w = sample.weights
    total = w.sum()
    n_edges = rng.poisson(total * total)
    endpoints = np.empty(0, np.int64)
    if n_edges:
        endpoints = rng.choice(len(w), size=2 * n_edges, p=w / total)
    atom_ids, labels = np.unique(endpoints, return_inverse=True)
    return DirectedMultigraph(len(atom_ids), labels[0::2], labels[1::2]), atom_ids


def _zeros_mixed_in():
    w = np.random.default_rng(1).gamma(0.5, size=500)
    w[::4] = 0.0
    w[-1] = 0.0
    return w


CONDITIONAL_WEIGHTS = {
    "one-atom": lambda: np.array([2.5]),
    "paper-scale": lambda: sample_crm_truncated(GgpParams(300, 0.5, 1.0), 1e-6,
                                                rng_stream(0)).weights,
    "1e-6-to-1e2": lambda: np.random.default_rng(0).permutation(
        np.concatenate([np.geomspace(1e-6, 1e-2, 2000), [1e2, 3.0, 0.5]])),
    "zeros-mixed-in": _zeros_mixed_in,
    "all-zero": lambda: np.zeros(50),
    "no-atoms": lambda: np.zeros(0),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("make_weights", CONDITIONAL_WEIGHTS.values(), ids=CONDITIONAL_WEIGHTS)
def test_directed_conditional_equals_numpy_choice(make_weights, seed):
    sample = CrmSample(make_weights())
    rng, ref_rng = rng_stream(seed, 3), rng_stream(seed, 3)
    d, atom_ids = simulate._directed_conditional(sample, rng)
    want, want_ids = _choice_and_unique(sample, ref_rng)
    assert d.n_nodes == want.n_nodes
    for got, ref in [(d.src, want.src), (d.dst, want.dst), (d.counts, want.counts),
                     (atom_ids, want_ids)]:
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)
    assert np.all(sample.weights[atom_ids] > 0)


@pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf, -np.inf])
def test_directed_conditional_rejects_bad_weights_before_drawing(bad):
    w = np.array([0.5, 0.3, 0.2])
    w[1] = bad
    rng = rng_stream(2)
    with pytest.raises(DomainError):
        simulate._directed_conditional(CrmSample(w), rng)
    np.testing.assert_equal(rng.bit_generator.state, rng_stream(2).bit_generator.state)


def test_directed_conditional_of_zero_weights_is_an_empty_graph():
    d, atom_ids = simulate._directed_conditional(CrmSample(np.zeros(4)), rng_stream(2))
    assert (d.n_nodes, d.total_edges, len(atom_ids)) == (0, 0, 0)


def test_undirected_sample_ground_truth_alignment():
    cfg = SimConfig(params=GgpParams(50, 0.5, 1.0), truncation_eps=1e-4, seed=7)
    z, gt = sample_undirected_ggp(cfg)
    assert len(gt.weights) == z.n_nodes
    assert np.all(gt.weights > 0)
    # higher-degree nodes should carry larger weights on average
    if z.n_nodes > 10:
        order = np.argsort(z.degree)
        lo = gt.weights[order[: z.n_nodes // 4]].mean()
        hi = gt.weights[order[-z.n_nodes // 4 :]].mean()
        assert hi > lo


def test_no_self_loops_flag():
    cfg = SimConfig(params=GgpParams(80, 0.5, 1.0), truncation_eps=1e-4, seed=8,
                    include_self_loops=False)
    z, gt = sample_undirected_ggp(cfg)
    assert np.all(z.edge_i != z.edge_j)
    assert len(gt.weights) == z.n_nodes


def test_gamma_urn_edge_count_moments():
    # D* | W ~ Poisson(W^2), W ~ Gamma(alpha, tau): E D* = alpha(alpha+1)/tau^2
    rng = rng_stream(9, 0)
    alpha, tau = 3.0, 1.5
    totals = [sample_gamma_urn(alpha, tau, rng).total_edges for _ in range(6000)]
    expected = alpha * (alpha + 1.0) / tau**2
    se = np.std(totals, ddof=1) / np.sqrt(len(totals))
    assert abs(np.mean(totals) - expected) <= 4.0 * se


def test_gamma_urn_validation():
    with pytest.raises(DomainError):
        sample_gamma_urn(0.0, 1.0, rng_stream(0, 0))


def test_compound_poisson_graph_matches_gamma_quantile():
    u = np.array([0.01, 0.3, 0.5, 0.9, 0.999])
    np.testing.assert_allclose(gamma_weight_quantile(-0.5, 2.0)(u),
                               gamma.ppf(u, 0.5, scale=0.5), rtol=1e-10)
    with pytest.raises(DomainError):
        gamma_weight_quantile(0.5, 1.0)
    with pytest.raises(DomainError):
        sample_graph(SimConfig(params=GgpParams(20, 0.5, 1.0), path="compound-poisson"))


def test_kallenberg_requires_infinite_activity():
    with pytest.raises(DomainError):
        sample_kallenberg(GgpParams(1, -0.5, 1.0), 1e-3, rng_stream(0, 0))


def test_kallenberg_no_isolated_nodes():
    z = sample_kallenberg(GgpParams(20, 0.5, 1.0), 1e-3, rng_stream(13, 0))
    assert np.all(z.degree >= 1)


def test_sample_graph_dispatch():
    for path, p in [
        ("truncated", GgpParams(20, 0.5, 1.0)),
        ("urn", GgpParams(20, 0.0, 1.0)),
        ("kallenberg", GgpParams(20, 0.5, 1.0)),
        ("compound-poisson", GgpParams(20, -1.0, 1.0)),
    ]:
        cfg = SimConfig(params=p, truncation_eps=1e-3, seed=3, path=path)
        z = sample_graph(cfg)
        assert isinstance(z, UndirectedGraph)


@pytest.mark.parametrize("path,p", [
    ("truncated", GgpParams(20, 0.5, 1.0)),
    ("urn", GgpParams(20, 0.0, 1.0)),
    ("kallenberg", GgpParams(20, 0.5, 1.0)),
    ("compound-poisson", GgpParams(20, -1.0, 1.0)),
])
def test_every_path_drops_self_loops_when_asked(path, p):
    kept = sample_graph(SimConfig(params=p, truncation_eps=1e-3, seed=3, path=path))
    assert np.any(kept.edge_i == kept.edge_j)   # the seed draws loops to drop
    z = sample_graph(SimConfig(params=p, truncation_eps=1e-3, seed=3, path=path,
                               include_self_loops=False))
    assert np.all(z.edge_i != z.edge_j)
    assert np.all(z.degree >= 1)


def test_import_does_not_load_scipy_stats():
    src = str(Path(simulate.__file__).parents[1])
    code = "import sys, crmgraph; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("sigma,tau", [(-0.5, 1.0), (-1.0, 0.5)])
def test_compound_poisson_path_matches_truncated_path(sigma, tau):
    # Both paths draw Poisson(alpha tau^sigma / -sigma) Gamma(-sigma, tau)
    # jumps and keep only nodes with an edge. Per-graph counts are compared,
    # not pooled degrees, which are correlated within one graph.
    p = GgpParams(20.0, sigma, tau)
    counts = []
    for stream, path in enumerate(("truncated", "compound-poisson")):
        cfg = SimConfig(params=p, truncation_eps=1e-6, path=path)
        rng = rng_stream(31, stream)
        zs = [sample_graph(cfg, rng) for _ in range(500)]
        counts.append(([z.n_nodes for z in zs], [z.n_edges for z in zs]))
    (trunc_nodes, trunc_edges), (cp_nodes, cp_edges) = counts
    assert ks_2samp(trunc_nodes, cp_nodes).pvalue > 0.01
    assert ks_2samp(trunc_edges, cp_edges).pvalue > 0.01


def test_sample_graph_deterministic_in_seed():
    cfg = SimConfig(params=GgpParams(30, 0.5, 1.0), truncation_eps=1e-4, seed=21)
    a = sample_graph(cfg)
    b = sample_graph(cfg)
    assert a.n_nodes == b.n_nodes
    np.testing.assert_array_equal(a.edge_i, b.edge_i)
    np.testing.assert_array_equal(a.edge_j, b.edge_j)
