"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line with the measured quantities so a
full run doubles as a report. Tolerances are statistical (standard errors
or replicate spread), never tuned to a particular seed's output.
"""

import os

import numpy as np
import pytest
from scipy.stats import ks_2samp

from crmgraph.diagnostics import (
    credible_interval,
    powerlaw_check,
    psrf,
    scaling_experiment,
    sparsity_test,
)
from crmgraph.graphs import UndirectedGraph, to_undirected
from crmgraph.inference import (
    McmcConfig,
    McmcState,
    compute_m,
    grad_log_posterior,
    log_posterior,
    run_chains,
)
from crmgraph.levy import laplace_exponent
from crmgraph.params import GgpParams, rng_stream
from crmgraph.simulate import (
    SimConfig,
    sample_gamma_urn,
    sample_graph,
    sample_undirected_ggp,
)
from crmgraph.totalmass import sample_tilted_total_mass


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_gamma_moment_oracle():
    # E[D*] = alpha (alpha + 1) / tau^2 = 6, Var = 90 at alpha = 2, tau = 1
    rng = rng_stream(1001, 0)
    n = 100000
    totals = np.empty(n)
    for i in range(n):
        w = rng.gamma(2.0, 1.0)
        totals[i] = rng.poisson(w * w)
    # spot-check that the urn construction produces the same edge totals
    urn_totals = np.array(
        [sample_gamma_urn(2.0, 1.0, rng).total_edges for _ in range(20000)]
    )
    mean, var = totals.mean(), totals.var(ddof=1)
    se = totals.std(ddof=1) / np.sqrt(n)
    se_urn = urn_totals.std(ddof=1) / np.sqrt(len(urn_totals))
    ok = (
        abs(mean - 6.0) <= 3.0 * se
        and abs(var - 90.0) <= 0.1 * 90.0
        and abs(urn_totals.mean() - 6.0) <= 3.0 * se_urn
    )
    report(1, ok, f"mean(D*)={mean:.3f} (target 6 +- {3*se:.3f}), "
                  f"var={var:.1f} (target 90 +- 9), urn mean={urn_totals.mean():.3f}")


def test_criterion_2_powerlaw_fractions():
    rows = powerlaw_check(0.5, 1.0, 500.0, seeds=range(10), j_max=2, eps=1e-6)
    p1_emp, p2_emp = rows[0][1], rows[1][1]
    ok = abs(p1_emp - 0.5) <= 0.02 and abs(p2_emp - 0.125) <= 0.01
    report(2, ok, f"N1/N={p1_emp:.4f} (target 0.5 +- 0.02), "
                  f"N2/N={p2_emp:.4f} (target 0.125 +- 0.01)")


def test_criterion_3_sparsity_slopes():
    grid = [50, 100, 200, 400, 800]
    _, slope_dense = scaling_experiment(-1.0, 1.0, grid, [0, 1, 2], eps=1e-6)
    _, slope_sparse = scaling_experiment(0.5, 1.0, grid, [0, 1, 2], eps=1e-6)
    ok = abs(slope_dense - 2.0) <= 0.15 and slope_sparse <= 2.0 / 1.5 + 0.15
    report(3, ok, f"slope(sigma=-1)={slope_dense:.3f} (target 2 +- 0.15), "
                  f"slope(sigma=0.5)={slope_sparse:.3f} (target <= 1.48)")


def _undirected_stats(sampler, n_reps):
    nodes, degrees = [], []
    for _ in range(n_reps):
        z = sampler()
        nodes.append(z.n_nodes)
        if z.n_nodes:
            degrees.append(z.degree)
    return np.array(nodes), np.concatenate(degrees)


def test_criterion_4_sampler_equivalence():
    reps = 500
    rng_a, rng_b = rng_stream(1004, 0), rng_stream(1004, 1)
    urn_nodes, urn_deg = _undirected_stats(
        lambda: to_undirected(sample_gamma_urn(20.0, 1.0, rng_a)), reps)
    p0 = GgpParams(20.0, 0.0, 1.0)
    trunc_nodes, trunc_deg = _undirected_stats(
        lambda: sample_graph(
            SimConfig(params=p0, truncation_eps=1e-6, seed=0), rng=rng_b), reps)
    ks_n0 = ks_2samp(urn_nodes, trunc_nodes).pvalue
    ks_d0 = ks_2samp(urn_deg, trunc_deg).pvalue

    rng_c, rng_d = rng_stream(1004, 2), rng_stream(1004, 3)
    p5 = GgpParams(10.0, 0.5, 1.0)
    direct_nodes, direct_deg = _undirected_stats(
        lambda: sample_graph(
            SimConfig(params=p5, truncation_eps=1e-3, seed=0), rng=rng_c), reps)
    kall_nodes, kall_deg = _undirected_stats(
        lambda: sample_graph(
            SimConfig(params=p5, truncation_eps=1e-3, seed=0, path="kallenberg"),
            rng=rng_d), reps)
    ks_n5 = ks_2samp(direct_nodes, kall_nodes).pvalue
    ks_d5 = ks_2samp(direct_deg, kall_deg).pvalue

    ok = min(ks_n0, ks_d0, ks_n5, ks_d5) > 0.01
    report(4, ok, f"KS p-values: urn/truncated nodes={ks_n0:.3f} deg={ks_d0:.3f}; "
                  f"direct/Kallenberg nodes={ks_n5:.3f} deg={ks_d5:.3f} (all > 0.01)")


def test_criterion_5_gradient_check():
    rng = np.random.default_rng(1005)
    graph = UndirectedGraph(5, [0, 0, 1, 2, 3, 4], [1, 2, 3, 3, 4, 4])
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        w = rng.uniform(0.2, 2.0, size=5)
        m = compute_m(graph, np.arange(6), rng.integers(1, 5, size=6))
        state = McmcState(np.log(w), rng.uniform(0, 1), 1.0,
                          rng.uniform(-1, 0.9), rng.uniform(0.5, 2), m)
        grad = grad_log_posterior(state, graph)
        for i in range(5):
            up, dn = state.omega.copy(), state.omega.copy()
            up[i] += h
            dn[i] -= h
            s_up = McmcState(up, state.w_star, 1.0, state.sigma, state.tau, m)
            s_dn = McmcState(dn, state.w_star, 1.0, state.sigma, state.tau, m)
            fd = (log_posterior(s_up, graph) - log_posterior(s_dn, graph)) / (2 * h)
            worst = max(worst, abs(grad[i] - fd) / max(1.0, abs(fd)))
    ok = worst <= 1e-5
    report(5, ok, f"max relative gradient error {worst:.2e} (target <= 1e-5)")


def test_criterion_6_paper_scale_simulation():
    nodes, edges = [], []
    for seed in range(20):
        cfg = SimConfig(params=GgpParams(300.0, 0.5, 1.0), truncation_eps=1e-6,
                        seed=seed)
        z, _ = sample_undirected_ggp(cfg)
        nodes.append(z.n_nodes)
        edges.append(z.n_edges)
    mn, me = np.median(nodes), np.median(edges)
    ok = 8000 <= mn <= 22000 and 45000 <= me <= 120000
    report(6, ok, f"median nodes={mn:.0f} (target [8000, 22000]), "
                  f"median edges={me:.0f} (target [45000, 120000])")


def test_criterion_7_synthetic_recovery():
    cfg = SimConfig(params=GgpParams(100.0, 0.5, 1.0), truncation_eps=1e-6, seed=3)
    z, _ = sample_undirected_ggp(cfg)
    mc = McmcConfig(n_iter=20000, n_chains=3, seed=0, thin=5,
                    omega_record_stride=20)
    traces = run_chains(z, mc)
    rep = psrf(traces, params=("alpha", "sigma", "tau", "w_star", "w"))
    sigma = np.concatenate([t["sigma"] for t in traces])
    lo, hi = credible_interval(sigma, 0.95)
    mean_sigma = sigma.mean()
    ok = rep.max_psrf <= 1.1 and lo <= 0.5 <= hi and abs(mean_sigma - 0.5) <= 0.1
    report(7, ok, f"max PSRF={rep.max_psrf:.3f} (<= 1.1), "
                  f"sigma CI=({lo:.3f}, {hi:.3f}) covers 0.5, "
                  f"mean sigma={mean_sigma:.3f} (0.5 +- 0.1)")


def test_criterion_8_dense_regime_identification():
    rng = np.random.default_rng(1008)
    n, p = 1000, 0.01
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    ei, ej = iu[mask], ju[mask]
    ids = np.unique(np.concatenate([ei, ej]))
    remap = np.full(n, -1)
    remap[ids] = np.arange(len(ids))
    z = UndirectedGraph(len(ids), remap[ei], remap[ej])

    mc = McmcConfig(n_iter=4000, n_chains=2, seed=0)
    traces = run_chains(z, mc)
    zeta2 = np.concatenate([-t["sigma"] / t["tau"] for t in traces]).mean()
    res = sparsity_test(traces)
    target = np.sqrt(-0.5 * np.log(1.0 - p))
    ok = abs(zeta2 - target) <= 0.2 * target and res.p_sparse < 0.05
    report(8, ok, f"mean zeta2={zeta2:.5f} (target {target:.5f} +- 20%), "
                  f"p_sparse={res.p_sparse:.4f} (< 0.05)")


def test_criterion_9_tilted_mass_laplace():
    rng = rng_stream(1009, 0)
    n = 20000
    worst = 0.0
    fails = []
    grid = [
        (-0.5, 1.0, 0.0), (-0.5, 1.0, 2.0),
        (0.0, 1.0, 1.0), (0.0, 0.5, 3.0),
        (0.5, 1.0, 0.0), (0.5, 1.0, 2.0), (0.5, 0.0, 1.0),
        (0.8, 0.5, 1.0),
    ]
    for sigma, tau, c in grid:
        base = GgpParams(2.0, sigma, tau)
        x = np.array([sample_tilted_total_mass(base, c, rng) for _ in range(n)])
        for t in (0.5, 1.0, 2.0):
            vals = np.exp(-t * x)
            se = vals.std(ddof=1) / np.sqrt(n)
            expected = np.exp(
                -2.0 * (laplace_exponent(base, t + c) - laplace_exponent(base, c))
            )
            gap = abs(vals.mean() - expected)
            worst = max(worst, gap / se if se > 0 else 0.0)
            if gap > 4.0 * se:
                fails.append((sigma, tau, c, t))
    ok = not fails
    report(9, ok, f"max |gap|/SE = {worst:.2f} over the (sigma, tau, c, t) grid "
                  f"(target <= 4); failures: {fails}")


# (alpha, sigma, tau, graph seed), drawn with eps = 1e-6: 182 nodes and 3546
# edges, 540 and 6787, 1942 and 19805
GGP_VERDICT_GRAPHS = {
    "sigma-neg-0.5": (100.0, -0.5, 1.0, 1),
    "sigma-0": (100.0, 0.0, 1.0, 4),
    "sigma-0.25": (150.0, 0.25, 1.0, 3),
}
VERDICT_MIN_ESS = 10.0


@pytest.mark.parametrize("name", GGP_VERDICT_GRAPHS)
def test_sparsity_verdict_on_ggp_graphs(name):
    """The sparsity test fits GGP graphs drawn on both sides of sigma = 0.

    Each fit runs 2 chains of 2000 iterations (the CLI defaults otherwise,
    so 1500 kept draws each) and must give a summed sigma ESS of at least
    VERDICT_MIN_ESS = 10. The thresholds follow from the Monte Carlo error
    at that ESS E, treating the pooled draws as E independent ones:

    - p_sparse estimates p = Pr(sigma >= 0 | data) with standard error
      sqrt(p (1 - p) / E). Away from sigma = 0 the posterior sd of sigma is
      about 0.08 (sigma = -0.5) and 0.015 (sigma = 0.25), and 0 lies more
      than 5 of them outside the posterior bulk, so p < 1e-6 or p > 1 - 1e-6
      and that error is below 3.2e-4 at E = 10. A threshold of 0.05 is then
      more than 150 standard errors from p: p_sparse < 0.05 (sigma < 0) or
      > 0.95 (sigma > 0) fails only when the chains sit in the wrong law or
      have not left their start near sigma = 0, not by chance.
    - The 99% interval is the 0.5% and 99.5% quantiles of the pooled draws.
      At E = 10 the level of an empirical tail quantile q = 0.005 is off by
      about sqrt(q (1 - q) / E) = 0.022, so the interval has an effective
      level between about 96% and 99.9%. A truth outside it is still a
      failure worth reporting: for a well-specified fit it happens less
      than 4% of the time over graph draws, and these graphs were fixed
      before any fit was run.
    - On the sigma = 0 graph nothing beyond coverage is asserted: p there
      is near 0.14-0.5, and at E = 10 its standard error is up to 0.16.
    """
    alpha, sigma, tau, seed = GGP_VERDICT_GRAPHS[name]
    cfg = SimConfig(params=GgpParams(alpha, sigma, tau), truncation_eps=1e-6, seed=seed)
    z, _ = sample_undirected_ggp(cfg)
    traces = run_chains(z, McmcConfig(n_iter=2000, n_chains=2, seed=0))
    res = sparsity_test(traces)
    lo, hi = res.ci_sigma
    ok = res.ess_sigma >= VERDICT_MIN_ESS and lo <= sigma <= hi
    if sigma < 0.0:
        ok = ok and res.p_sparse < 0.05
    elif sigma > 0.0:
        ok = ok and res.p_sparse > 0.95
    detail = (f"{name} ({z.n_nodes} nodes, {z.n_edges} edges): p_sparse={res.p_sparse:.4f}, "
              f"sigma 99% CI=({lo:.3f}, {hi:.3f}), sigma ESS={res.ess_sigma:.1f} "
              f"(>= {VERDICT_MIN_ESS})")
    print(f"{'PASS' if ok else 'FAIL'} sparsity verdict: {detail}")
    assert ok, detail


CALIBRATION_RUNS = 16
CALIBRATION_FACTOR = 1.75


def test_sparsity_test_error_bar_matches_the_run_to_run_spread():
    """The reported mcse_p_sparse is as large as p_sparse's spread over runs.

    Sixteen independent 2-chain runs of 1000 iterations (250 adapting), as
    the benchmark runs test-sparsity, fit one gamma-process (sigma = 0)
    graph of 92 nodes, where p_sparse is near 0.35. The sd of p_sparse
    over the runs must be within a factor CALIBRATION_FACTOR = 1.75 of the
    root mean square of the reported errors, either way. With 16 runs the
    sd is itself off by about 18% (1 / sqrt(2 * 15)), so a calibrated error
    lies within the factor by more than 3 of those errors. A sampler whose
    chains mix more slowly than their ESS says fails it: with the hyper
    block's walk fixed at sd 0.02 the ratio read 2.44 on these runs.
    """
    z = sample_graph(SimConfig(params=GgpParams(30.0, 0.0, 1.0), seed=2))
    runs = [sparsity_test(run_chains(z, McmcConfig(n_iter=1000, n_chains=2, seed=s)))
            for s in range(CALIBRATION_RUNS)]
    p = np.array([r.p_sparse for r in runs])
    rms = np.sqrt(np.mean(np.array([r.mcse_p_sparse for r in runs], dtype=float) ** 2))
    ratio = p.std(ddof=1) / rms             # a missing error is NaN, and fails
    ok = 1.0 / CALIBRATION_FACTOR <= ratio <= CALIBRATION_FACTOR
    detail = (f"{z.n_nodes} nodes, {len(p)} runs: p_sparse mean {p.mean():.3f}, sd "
              f"{p.std(ddof=1):.3f}; reported error RMS {rms:.3f}; sd / RMS = {ratio:.2f} "
              f"(within {CALIBRATION_FACTOR} either way)")
    print(f"{'PASS' if ok else 'FAIL'} sparsity error bar: {detail}")
    assert ok, detail


DATA_FILES = {
    "polblogs": "data/polblogs.txt",
    "USairport": "data/usairport.txt",
}


@pytest.mark.skipif(
    not all(os.path.exists(p) for p in DATA_FILES.values()),
    reason="real network files not present",
)
def test_criterion_10_real_networks():
    from crmgraph.graphio import read_edge_list

    results = {}
    for name, path in DATA_FILES.items():
        z = read_edge_list(path).graph
        mc = McmcConfig(n_iter=10000, n_chains=2, seed=0, thin=5)
        traces = run_chains(z, mc)
        results[name] = sparsity_test(traces).p_sparse
    ok = results["polblogs"] < 0.1 and results["USairport"] > 0.9
    report(10, ok, f"p_sparse: polblogs={results['polblogs']:.3f} (~0), "
                   f"USairport={results['USairport']:.3f} (~1)")
