import numpy as np
import pytest
from scipy.special import gammaln

from crmgraph.diagnostics import (
    credible_interval,
    degree_bins,
    ess,
    fit_loglog_slope,
    posterior_predictive_degrees,
    powerlaw_check,
    powerlaw_fraction,
    psrf,
    scaling_experiment,
    sparsity_test,
    stalled_hmc_warnings,
)
from crmgraph.errors import DomainError, TooFewChainsError, TooFewSamplesError
from crmgraph.inference import ChainTrace, McmcConfig, run_chain
from crmgraph.params import GgpParams, rng_stream
from crmgraph.simulate import SimConfig, sample_undirected_ggp


def make_trace(chain_id=0, n=100, seed=0, shift=0.0, scale=1.0):
    rng = np.random.default_rng(seed)
    recs = {
        "alpha": 10 + scale * rng.standard_normal(n) + shift,
        "sigma": 0.4 + 0.05 * scale * rng.standard_normal(n) + 0.01 * shift,
        "tau": np.abs(1 + 0.1 * scale * rng.standard_normal(n)),
        "w_star": np.abs(0.1 + 0.02 * rng.standard_normal(n)),
        "log_post": -100 + rng.standard_normal(n),
    }
    return ChainTrace(records=recs, chain_id=chain_id)


def reference_psrf(chains):
    """Independent implementation of the split-free Gelman-Rubin estimator."""
    chains = np.asarray(chains, dtype=float)
    m, n = chains.shape
    means = chains.mean(axis=1)
    w = np.sum((chains - means[:, None]) ** 2) / (m * (n - 1))
    b = n * np.sum((means - means.mean()) ** 2) / (m - 1)
    return np.sqrt((w + b / n) / w)


def test_psrf_identical_chains_is_one():
    t = make_trace(seed=5)
    t2 = ChainTrace(records={k: v.copy() for k, v in t.records.items()}, chain_id=1)
    report = psrf([t, t2])
    assert all(v == 1.0 for v in report.psrf.values())
    assert report.max_psrf == 1.0


def test_psrf_separated_chains_is_large():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(1000)
    b = rng.standard_normal(1000) + 10.0
    t1 = ChainTrace(records={"alpha": a}, chain_id=0)
    t2 = ChainTrace(records={"alpha": b}, chain_id=1)
    report = psrf([t1, t2], params=("alpha",))
    assert report.psrf["alpha"] > 1.2
    assert report.psrf["alpha"] == pytest.approx(reference_psrf([a, b]), abs=1e-10)


def test_psrf_matches_reference_on_random_traces():
    rng = np.random.default_rng(2)
    chains = rng.standard_normal((4, 250)) * rng.uniform(0.5, 2, size=(4, 1))
    traces = [ChainTrace(records={"sigma": c}, chain_id=i) for i, c in enumerate(chains)]
    report = psrf(traces, params=("sigma",))
    assert report.psrf["sigma"] == pytest.approx(reference_psrf(chains), abs=1e-10)


def test_psrf_requires_chains_and_samples():
    with pytest.raises(TooFewChainsError):
        psrf([make_trace()])
    with pytest.raises(TooFewSamplesError):
        psrf([make_trace(n=5), make_trace(n=5, seed=1)])


def test_psrf_expands_omega_selector():
    omega = np.random.default_rng(3).standard_normal((20, 3))
    t1 = ChainTrace(records={"sigma": np.zeros(20)}, omega=omega, chain_id=0)
    t2 = ChainTrace(records={"sigma": np.zeros(20)}, omega=omega + 0.01, chain_id=1)
    report = psrf([t1, t2], params=("w",))
    assert set(report.psrf) == {"w[0]", "w[1]", "w[2]"}


def test_credible_interval_constant():
    assert credible_interval(np.full(100, 3.25), 0.95) == (3.25, 3.25)


def test_credible_interval_uniform_quantiles():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=1_000_000)
    lo, hi = credible_interval(x, 0.95)
    assert lo == pytest.approx(0.025, abs=0.005)
    assert hi == pytest.approx(0.975, abs=0.005)


def test_credible_interval_widens_with_level():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(10000)
    widths = []
    for level in (0.5, 0.8, 0.95, 0.99):
        lo, hi = credible_interval(x, level)
        widths.append(hi - lo)
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_credible_interval_validation():
    with pytest.raises(DomainError):
        credible_interval(np.zeros(100), 1.5)
    with pytest.raises(TooFewSamplesError):
        credible_interval(np.zeros(10), 0.95)


def test_sparsity_test_definitional():
    rng = np.random.default_rng(6)
    sig1 = rng.standard_normal(500) * 0.5
    sig2 = rng.standard_normal(500) * 0.5 + 0.1
    t1 = make_trace(n=500)
    t2 = make_trace(n=500, chain_id=1)
    t1.records["sigma"], t2.records["sigma"] = sig1, sig2
    res = sparsity_test([t1, t2])
    pooled = np.concatenate([sig1, sig2])
    assert res.p_sparse == np.mean(pooled >= 0)
    lo, hi = res.ci_sigma
    assert lo < hi
    assert lo == pytest.approx(np.quantile(pooled, 0.005))


def _ar1(phi, n, seed):
    z = rng_stream(seed, 0).standard_normal(n)
    x = np.empty(n)
    x[0] = z[0] / np.sqrt(1.0 - phi * phi)     # start in the stationary law
    for t in range(1, n):
        x[t] = phi * x[t - 1] + z[t]
    return x


@pytest.mark.parametrize("phi,tol", [(0.0, 0.06), (0.5, 0.10), (0.9, 0.22), (-0.5, 0.13)])
def test_ess_of_ar1_series(phi, tol):
    # the ESS of a stationary AR(1) series is n (1 - phi) / (1 + phi) to
    # first order. Over 100 seeds at n = 50000 the ratio to it had sd 0.014,
    # 0.025, 0.053 and 0.032 at phi = 0, 0.5, 0.9 and -0.5; each tol is
    # about 4 of those sds
    n = 50_000
    for seed in range(3):
        ratio = ess(_ar1(phi, n, seed)) / (n * (1.0 - phi) / (1.0 + phi))
        assert abs(ratio - 1.0) <= tol


def test_ess_edge_cases():
    assert np.isnan(ess(np.full(50, 0.3)))
    with pytest.raises(TooFewSamplesError):
        ess([1.0, 2.0, 3.0])
    # a perfectly alternating chain would have tau = 0; it is capped
    n = 1000
    assert ess(np.tile([1.0, -1.0], n // 2)) == pytest.approx(n * np.log10(n))


def test_sparsity_test_sums_sigma_ess_over_chains():
    t1, t2 = make_trace(n=400, seed=3), make_trace(n=400, seed=4, chain_id=1)
    res = sparsity_test([t1, t2])
    assert res.ess_sigma == ess(t1["sigma"]) + ess(t2["sigma"])
    assert 300.0 < res.ess_sigma < 1600.0           # independent draws: about 800
    assert sparsity_test([make_trace(n=3), make_trace(n=300)]).ess_sigma is None


def test_sparsity_test_mcse_of_p_sparse():
    # i.i.d. N(0, 1) draws: p is near 1/2 and the indicator's ESS near the
    # draw count. Over 200 seeds the ratio to sqrt(0.25 / 6000) read 0.96-1.08
    rng = np.random.default_rng(11)
    traces = [ChainTrace(records={"sigma": rng.standard_normal(2000)}, chain_id=c)
              for c in range(3)]
    res = sparsity_test(traces)
    assert res.mcse_p_sparse == pytest.approx(np.sqrt(0.25 / 6000), rel=0.2)
    # every draw on one side: no Monte Carlo error
    positive = [ChainTrace(records={"sigma": np.abs(t["sigma"])}, chain_id=0) for t in traces]
    assert sparsity_test(positive).mcse_p_sparse == 0.0
    # a chain whose indicator never changes while p is in (0, 1), or a chain
    # with fewer than 4 draws: no estimate
    assert sparsity_test(traces[:1] + positive[:1]).mcse_p_sparse is None
    short = ChainTrace(records={"sigma": np.array([-0.1, 0.2, 0.3])}, chain_id=1)
    assert sparsity_test(traces[:1] + [short]).mcse_p_sparse is None


def test_sparsity_test_all_positive():
    t = make_trace(n=300)
    t.records["sigma"] = np.full(300, 0.5)
    t2 = make_trace(n=300, chain_id=1)
    t2.records["sigma"] = np.full(300, 0.5)
    res = sparsity_test([t, t2])
    assert res.p_sparse == 1.0
    assert res.ci_sigma == (0.5, 0.5)


def test_sparsity_test_warns_on_bad_mixing():
    t1 = make_trace(n=300, seed=1)
    t2 = make_trace(n=300, seed=2, chain_id=1)
    t2.records["sigma"] = t2.records["sigma"] + 5.0
    res = sparsity_test([t1, t2])
    assert res.max_psrf > 1.1
    assert res.warning is not None


@pytest.mark.parametrize("adapt_iters,stalled", [(2, True), (None, False)],
                         ids=["adapt-2", "adapt-default"])
def test_sparsity_test_warns_on_stalled_hmc(adapt_iters, stalled):
    # dual averaging over only two iterations freezes a stepsize at which
    # HMC accepts almost nothing after adaptation; the default 100 does not
    z, _ = sample_undirected_ggp(SimConfig(GgpParams(20.0, 0.5, 1.0), 1e-3, seed=6))
    trace = run_chain(z, McmcConfig(n_iter=400, seed=2, adapt_iters=adapt_iters))
    assert (trace.accept_rates["hmc_post_adapt"] < 0.05) == stalled
    res = sparsity_test([trace])
    assert res.max_psrf is None
    if stalled:
        assert res.warning == stalled_hmc_warnings([trace])[0]
        assert res.warning.startswith("chain 0: post-adaptation HMC acceptance")
    else:
        assert res.warning is None


def test_stalled_hmc_warnings_skip_traces_without_rates():
    # traces read back from CSV carry no acceptance rates
    t = make_trace(n=300)
    assert t.accept_rates == {}
    assert stalled_hmc_warnings([t]) == []
    stalled = make_trace(n=300, chain_id=4)
    stalled.accept_rates["hmc_post_adapt"] = 0.0
    empty = make_trace(n=0, chain_id=5)
    empty.accept_rates["hmc_post_adapt"] = 0.0
    assert len(stalled_hmc_warnings([t, stalled, empty])) == 1
    res = sparsity_test([t, stalled])
    assert res.warning == stalled_hmc_warnings([stalled])[0]


def test_accept_rates_over_an_empty_window_are_nan():
    # every iteration adapts, so no post-adaptation rate exists
    z, _ = sample_undirected_ggp(SimConfig(GgpParams(20.0, 0.5, 1.0), 1e-3, seed=6))
    trace = run_chain(z, McmcConfig(n_iter=40, adapt_iters=40, seed=2))
    rates = trace.accept_rates
    assert len(trace) == 0
    assert np.isnan(rates["hmc_post_adapt"]) and np.isnan(rates["hyper_post_adapt"])
    assert 0.0 < rates["hmc"] <= 1.0 and 0.0 <= rates["hyper"] <= 1.0
    no_iterations = run_chain(z, McmcConfig(n_iter=0, seed=2)).accept_rates
    assert len(no_iterations) == 4 and all(np.isnan(r) for r in no_iterations.values())
    kept = make_trace(n=300)
    kept.accept_rates["hmc_post_adapt"] = float("nan")
    assert stalled_hmc_warnings([trace, kept]) == []


def test_powerlaw_fraction_values():
    # sigma = 0.5: p_1 = sigma = 0.5, p_2 = 0.5 Gamma(1.5) / (Gamma(0.5) Gamma(3))
    assert powerlaw_fraction(0.5, 1) == pytest.approx(0.5, abs=1e-12)
    assert powerlaw_fraction(0.5, 2) == pytest.approx(0.125, abs=1e-12)
    j = np.arange(1, 6)
    direct = np.exp(
        np.log(0.3) + gammaln(j - 0.3) - gammaln(0.7) - gammaln(j + 1.0)
    )
    np.testing.assert_allclose(powerlaw_fraction(0.3, j), direct, atol=1e-12)


def test_powerlaw_fraction_sums_to_one():
    # tail beyond J decays like J^-sigma / Gamma(1 - sigma)
    j = np.arange(1, 1_000_001)
    partial = powerlaw_fraction(0.5, j).sum()
    assert partial < 1.0
    assert partial == pytest.approx(1.0, abs=1e-3)


def test_powerlaw_requires_positive_sigma():
    with pytest.raises(DomainError):
        powerlaw_fraction(0.0, 1)
    with pytest.raises(DomainError):
        powerlaw_check(-0.5, 1.0, 10.0, [0], 3)


def test_powerlaw_check_structure():
    rows = powerlaw_check(0.5, 1.0, 100.0, [0, 1], 3, eps=1e-3)
    assert [r[0] for r in rows] == [1, 2, 3]
    for _, emp, theo, gap in rows:
        assert gap == pytest.approx(abs(emp - theo), abs=1e-15)
    assert rows[0][2] == pytest.approx(0.5)


def test_scaling_experiment_slope_reproducible():
    rows, slope = scaling_experiment(-1.0, 1.0, [20, 40, 80], [0, 1, 2], eps=1e-4)
    assert len(rows) == 9
    # recompute from the emitted rows with an independent regression
    by_alpha = {}
    for a, s, n, e in rows:
        by_alpha.setdefault(a, []).append((n, e))
    xs = [np.median([n for n, _ in v]) for v in by_alpha.values()]
    ys = [np.median([e for _, e in v]) for v in by_alpha.values()]
    x, y = np.log(xs), np.log(ys)
    beta = np.linalg.lstsq(np.stack([x, np.ones_like(x)], axis=1), y, rcond=None)[0][0]
    assert slope == pytest.approx(beta, abs=1e-10)


def test_scaling_experiment_validation():
    with pytest.raises(DomainError):
        scaling_experiment(-1.0, 1.0, [20, 40], [0, 1, 2])
    with pytest.raises(DomainError):
        scaling_experiment(-1.0, 1.0, [20, 40, 80], [0])


def test_degree_bins_structure():
    lo, hi = degree_bins(100)
    assert list(lo[:16]) == list(range(1, 17))
    assert list(hi[:16]) == list(range(1, 17))
    assert lo[16] == 17 and hi[16] == 31
    assert lo[17] == 32 and hi[17] == 63
    assert hi[-1] == 100


def test_ppc_requires_draws():
    t = make_trace(n=50)
    with pytest.raises(TooFewSamplesError):
        posterior_predictive_degrees([t], 0, 1e-3)


def test_ppc_bands_and_observed():
    rng = np.random.default_rng(7)
    n = 60
    t = ChainTrace(records={
        "alpha": np.full(n, 30.0),
        "sigma": np.full(n, 0.5),
        "tau": np.full(n, 1.0),
    })
    from crmgraph.simulate import sample_undirected_ggp

    observed, _ = sample_undirected_ggp(SimConfig(
        params=GgpParams(30, 0.5, 1), truncation_eps=1e-3, seed=99))
    bands = posterior_predictive_degrees([t], 40, 1e-3, observed=observed, seed=1)
    assert np.all(bands["lo"] <= bands["median"])
    assert np.all(bands["median"] <= bands["hi"])
    assert "observed" in bands
    # data from the generating parameters should mostly fall inside the band
    inside = (bands["observed"] >= bands["lo"]) & (bands["observed"] <= bands["hi"])
    assert inside.mean() >= 0.6


def test_ppc_bands_widen_with_posterior_spread():
    n = 60
    narrow = ChainTrace(records={
        "alpha": np.full(n, 30.0), "sigma": np.full(n, 0.5), "tau": np.full(n, 1.0),
    })
    rng = np.random.default_rng(8)
    wide = ChainTrace(records={
        "alpha": np.clip(30.0 + 15 * rng.standard_normal(n), 5, 80),
        "sigma": np.clip(0.5 + 0.2 * rng.standard_normal(n), 0.05, 0.9),
        "tau": np.abs(1.0 + 0.3 * rng.standard_normal(n)),
    })
    b1 = posterior_predictive_degrees([narrow], 50, 1e-3, seed=2)
    b2 = posterior_predictive_degrees([wide], 50, 1e-3, seed=2)
    k = min(len(b1["lo"]), len(b2["lo"]))
    width1 = b1["hi"][:k] - b1["lo"][:k]
    width2 = b2["hi"][:k] - b2["lo"][:k]
    assert width2.sum() > width1.sum()
    assert np.mean(width2 >= width1) >= 0.7


def test_fit_loglog_slope_exact_powerlaw():
    n = np.array([10.0, 100.0, 1000.0])
    e = 3.0 * n**1.7
    assert fit_loglog_slope(n, e) == pytest.approx(1.7, abs=1e-12)
