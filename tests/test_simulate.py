import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import expon, gamma, ks_2samp, kstest

from crmgraph import simulate
from crmgraph.errors import DomainError
from crmgraph.graphs import CrmSample, DirectedMultigraph, UndirectedGraph, to_undirected
from crmgraph.levy import (
    expected_truncation_mass,
    levy_density,
    tail_intensity,
    total_tail_mass,
)
from crmgraph.params import GgpParams, rng_stream
from crmgraph.simulate import (
    SimConfig,
    _crm_weights,
    sample_crm_truncated,
    sample_gamma_urn,
    sample_graph,
    sample_kallenberg,
    sample_undirected_ggp,
)


def test_sim_config_validation():
    p = GgpParams(1, 0.5, 1)
    for eps in (0.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            SimConfig(params=p, truncation_eps=eps)
        with pytest.raises(DomainError):
            sample_crm_truncated(p, eps, rng_stream(0))
    with pytest.raises(DomainError):
        SimConfig(params=p, path="magic")
    with pytest.raises(DomainError):
        SimConfig(params=p, path="urn")  # urn is exact only at sigma = 0
    SimConfig(params=GgpParams(1, 0.0, 1), path="urn")
    for seed in (2.5, -1, 2**128):
        with pytest.raises(DomainError):
            SimConfig(params=p, seed=seed)
    assert SimConfig(params=p, seed=np.int64(3)).seed == 3
    assert simulate.SIM_PATHS == ("truncated", "urn", "kallenberg")


@pytest.mark.parametrize("path,p", [
    ("urn", GgpParams(20, 0.0, 1.0)),
    ("kallenberg", GgpParams(20, 0.5, 1.0)),
])
def test_undirected_ggp_draws_only_the_truncated_path(path, p):
    # only the truncated path has its ground truth, so a truncated draw
    # must not stand in for another path's
    with pytest.raises(DomainError):
        sample_undirected_ggp(SimConfig(params=p, truncation_eps=1e-3, path=path))


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
    assert len(gt.weights) == 0


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
        np.add.at(m, (atom_ids[d.src], atom_ids[d.dst]), 1)
        pair_counts.append(m)
    pair_counts = np.asarray(pair_counts)
    se = pair_counts.std(axis=0, ddof=1) / np.sqrt(len(pair_counts))
    assert np.all(np.abs(pair_counts.mean(axis=0) - np.outer(w, w)) <= 4.0 * se)


def test_undirected_edge_law_per_pair():
    # n_ij + n_ji ~ Poisson(2 w_i w_j), so {i, j} is an edge with probability
    # 1 - exp(-2 w_i w_j) and i has a self-loop with 1 - exp(-w_i^2). The
    # truncated and Kallenberg paths both draw their edges this way. Over the
    # 465 pairs the largest |z| reads 2.81; a bound of 4.5 SEs gives each pair
    # a 7e-6 chance of a false alarm under the normal approximation, and a
    # conditional that draws D* at 1.05 times its rate reads 6.9
    w = np.geomspace(0.02, 1.2, 30)
    sample, rng, n_draws = CrmSample(w), rng_stream(8, 0), 20_000
    counts = np.zeros((len(w), len(w)))
    for _ in range(n_draws):
        d, atom_ids = simulate._directed_conditional(sample, rng)
        z = to_undirected(d)
        counts[atom_ids[z.edge_i], atom_ids[z.edge_j]] += 1   # each pair once per graph
    i, j = np.triu_indices(len(w))
    p = np.where(i == j, -np.expm1(-w[i] ** 2), -np.expm1(-2.0 * w[i] * w[j]))
    se = np.sqrt(p * (1.0 - p) / n_draws)
    assert np.max(np.abs(counts[i, j] / n_draws - p) / se) <= 4.5
    assert not np.any(np.tril(counts, -1))


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
    for got, ref in [(d.src, want.src), (d.dst, want.dst), (atom_ids, want_ids)]:
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)
    assert np.all(sample.weights[atom_ids] > 0)


# 4e9 and 1e200 put W*^2 past numpy's Poisson limit (~9.2e18), 1e200 without overflow
@pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf, -np.inf, 4e9, 1e200])
def test_directed_conditional_rejects_bad_weights_before_drawing(bad):
    w = np.array([0.5, 0.3, 0.2])
    w[1] = bad
    rng = rng_stream(2)
    with pytest.raises(DomainError):
        simulate._directed_conditional(CrmSample(w), rng)
    np.testing.assert_equal(rng.bit_generator.state, rng_stream(2).bit_generator.state)


# each count draw asks numpy for a Poisson mean past its limit (~9.2e18); all but
# the urn, whose mean depends on its Gamma draw of W*, fail before drawing anything
@pytest.mark.parametrize("draw, draws_first", [
    (lambda rng: sample_crm_truncated(GgpParams(300, 0.5, 1.0), 1e-40, rng), False),
    (lambda rng: sample_crm_truncated(GgpParams(300, 0.5, 0.0), 1e-40, rng), False),
    (lambda rng: sample_kallenberg(GgpParams(300, 0.5, 1.0), 1e-40, rng), False),
    (lambda rng: sample_kallenberg(GgpParams(300, -1e-18, 1.0), 1e-6, rng), False),
    (lambda rng: sample_gamma_urn(1e10, 1.0, rng), True),
], ids=["truncated", "truncated-tau-0", "kallenberg", "kallenberg-finite-activity", "urn"])
def test_poisson_mean_past_numpy_limit_is_a_domain_error(draw, draws_first):
    rng = rng_stream(2)
    with pytest.raises(DomainError, match="Poisson mean"):
        draw(rng)
    unchanged = rng.random() == rng_stream(2).random()
    assert unchanged != draws_first


@pytest.mark.parametrize("tau", [1.0, 0.0])
def test_draw_past_the_proposal_cap_is_refused_before_allocating(tau):
    # alpha 300, sigma 0.5, eps 1e-20: about 3.4e12 proposals, 24.6 TiB of doubles
    rng = rng_stream(2)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"expects 3\.38514e\+12 proposals"):
            sample_crm_truncated(GgpParams(300.0, 0.5, tau), 1e-20, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert rng.random() == rng_stream(2).random()


def test_proposal_cap_bounds_the_summed_mean(monkeypatch):
    # alpha 10, sigma -2, tau 1, eps 0.1: the (eps, b] and (b, inf) counts have
    # means of about 2.5 and 4.5, so a cap of 5 passes each alone but not their sum
    p = GgpParams(10.0, -2.0, 1.0)
    monkeypatch.setattr(simulate, "MAX_EXPECTED_PROPOSALS", 5.0)
    with pytest.raises(DomainError, match=r"expects 6\.9376 proposals"):
        sample_crm_truncated(p, 0.1, rng_stream(3))
    monkeypatch.setattr(simulate, "MAX_EXPECTED_PROPOSALS", 7.0)
    sample_crm_truncated(p, 0.1, rng_stream(3))


# alpha 300, sigma 0.5, tau 1 at eps = 1e-8: 3.4e6 atoms, whose tail inversion
# would take about 40 s; sigma = -5e-5: 6e6 atoms
@pytest.mark.parametrize("params, eps, message", [
    (GgpParams(300.0, 0.5, 1.0), 1e-8,
     r"expects 3\.38454e\+06 atoms .* MAX_KALLENBERG_ATOMS = 3e\+06; raise eps"),
    (GgpParams(300.0, -5e-5, 1.0), 1e-6, r"expects 6e\+06 atoms .*; use the truncated path"),
], ids=["paper-scale", "finite-activity"])
def test_kallenberg_draw_past_the_atom_cap_is_refused_before_drawing(params, eps, message):
    rng = rng_stream(2)
    with pytest.raises(DomainError, match=message):
        sample_kallenberg(params, eps, rng)
    np.testing.assert_equal(rng.bit_generator.state, rng_stream(2).bit_generator.state)


def test_kallenberg_atom_cap_bounds_the_expected_count(monkeypatch):
    p = GgpParams(20.0, 0.5, 1.0)
    mean = p.alpha * tail_intensity(p, 1e-3)
    monkeypatch.setattr(simulate, "MAX_KALLENBERG_ATOMS", np.nextafter(mean, 0.0))
    with pytest.raises(DomainError, match="MAX_KALLENBERG_ATOMS"):
        sample_kallenberg(p, 1e-3, rng_stream(3))
    monkeypatch.setattr(simulate, "MAX_KALLENBERG_ATOMS", mean)
    assert sample_kallenberg(p, 1e-3, rng_stream(3)).n_edges > 0


@pytest.mark.parametrize("n", [0, 1, simulate._DRAW_BLOCK - 1, simulate._DRAW_BLOCK,
                               simulate._DRAW_BLOCK + 1, 3 * simulate._DRAW_BLOCK + 7])
def test_blocked_thinning_equals_one_call(n):
    w = rng_stream(5).random(n)
    rng, one_call = rng_stream(6), rng_stream(6)
    expected = w[one_call.random(n) < np.exp(-2.0 * w)]
    k = simulate._thin(w, 2.0, rng)
    np.testing.assert_array_equal(w[:k], expected)
    np.testing.assert_equal(rng.bit_generator.state, one_call.bit_generator.state)


def test_paper_scale_draw_peak_memory():
    # seed 4 makes 338k CRM proposals and 2 D* = 180k endpoints; the draw peaked
    # at 15.5 MiB while its temporaries were whole arrays, and at 9.9 MiB blocked
    cfg = SimConfig(params=GgpParams(300.0, 0.5, 1.0), truncation_eps=1e-6, seed=4)
    tracemalloc.start()
    try:
        sample_undirected_ggp(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


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
    for alpha in (0.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            sample_gamma_urn(alpha, 1.0, rng_stream(0, 0))
    for tau in (np.nan, np.inf):
        with pytest.raises(DomainError):
            sample_gamma_urn(1.0, tau, rng_stream(0, 0))


def test_compound_poisson_graph_matches_gamma_quantile():
    # for sigma < 0 the Kallenberg marks are the Poisson(alpha rhobar(0+))
    # jumps of a compound Poisson process, Gamma(-sigma, tau) quantiles of
    # uniforms; replay that draw through scipy's quantile on the same stream
    p = GgpParams(20, -0.5, 2.0)
    z = sample_kallenberg(p, 1e-3, rng_stream(5, 0))
    rng = rng_stream(5, 0)
    u = rng.uniform(size=rng.poisson(p.alpha * total_tail_mass(p)))
    ref = to_undirected(simulate._directed_conditional(CrmSample(gamma.ppf(u, 0.5, scale=0.5)), rng)[0])
    assert z.n_nodes == ref.n_nodes > 10
    np.testing.assert_array_equal(z.edge_i, ref.edge_i)
    np.testing.assert_array_equal(z.edge_j, ref.edge_j)


def test_kallenberg_no_isolated_nodes():
    z = sample_kallenberg(GgpParams(20, 0.5, 1.0), 1e-3, rng_stream(13, 0))
    assert np.all(z.degree >= 1)
    with pytest.raises(DomainError):
        sample_kallenberg(GgpParams(20, 0.5, 1.0), 0.0, rng_stream(13, 0))


def test_sample_graph_dispatch():
    for path, p in [
        ("truncated", GgpParams(20, 0.5, 1.0)),
        ("urn", GgpParams(20, 0.0, 1.0)),
        ("kallenberg", GgpParams(20, 0.5, 1.0)),
        ("kallenberg", GgpParams(20, -1.0, 1.0)),
    ]:
        cfg = SimConfig(params=p, truncation_eps=1e-3, seed=3, path=path)
        z = sample_graph(cfg)
        assert isinstance(z, UndirectedGraph)


@pytest.mark.parametrize("path,p", [
    ("truncated", GgpParams(20, 0.5, 1.0)),
    ("urn", GgpParams(20, 0.0, 1.0)),
    ("kallenberg", GgpParams(20, 0.5, 1.0)),
    ("kallenberg", GgpParams(20, -1.0, 1.0)),
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
    # jumps (on the Kallenberg path, its sigma < 0 case) and keep only nodes
    # with an edge. Per-graph counts are compared, not pooled degrees, which
    # are correlated within one graph.
    p = GgpParams(20.0, sigma, tau)
    counts = []
    for stream, path in enumerate(("truncated", "kallenberg")):
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
