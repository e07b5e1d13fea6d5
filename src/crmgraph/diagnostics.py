"""Convergence diagnostics, credible intervals, the sparsity test, and
posterior-predictive and scaling checks.

Everything here is a pure function of traces or freshly simulated graphs.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, TooFewChainsError, TooFewSamplesError
from .graphs import multigraph_degree_fractions
from .inference import PARAM_FIELDS
from .params import GgpParams, rng_stream
from .simulate import (
    DEFAULT_EPS,
    SimConfig,
    sample_crm_truncated,
    sample_directed_conditional,
    sample_undirected_ggp,
)

# post-adaptation HMC acceptance below which a chain is reported as stalled
MIN_HMC_ACCEPT = 0.05


@dataclass(frozen=True)
class PsrfReport:
    psrf: dict                      # parameter name -> R hat
    max_psrf: float


@dataclass(frozen=True)
class SparsityTestResult:
    p_sparse: float                 # Pr(sigma >= 0 | data), pooled over chains
    ci_sigma: tuple                 # equal-tailed 99% interval for sigma
    max_psrf: float = None
    ess_sigma: float = None         # sum over chains of sigma's ess
    mcse_p_sparse: float = None     # Monte Carlo standard error of p_sparse
    warning: str = None


def _psrf_scalar(chains):
    """R hat from an (n_chains, n_samples) array.

    Classic between/within estimator without chain splitting:
    sqrt((W + B/n) / W), which is exactly 1 on duplicated chains.
    """
    chains = np.asarray(chains, dtype=float)
    n = chains.shape[1]
    w = chains.var(axis=1, ddof=1).mean()
    b = n * chains.mean(axis=1).var(ddof=1)
    if w == 0.0:
        return 1.0 if b == 0.0 else np.inf
    return float(np.sqrt((w + b / n) / w))


def ess(x):
    """Effective sample size of one chain's draws x, by Geyer's (1992)
    initial monotone sequence.

    The autocorrelations rho_t come from one zero-padded FFT. The pair sums
    rho_2k + rho_2k+1 are summed up to the first non-positive one, each
    lowered to the smallest before it, so tau = -1 + 2 (sum of pairs) and
    the ESS is n / tau. An anti-correlated chain can make tau tiny, so the
    ESS is capped at n log10(n), as Stan caps it. A constant chain has none:
    nan.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        raise TooFewSamplesError("ess requires at least 4 draws")
    if x.min() == x.max():
        return np.nan
    d = x - x.mean()
    f = np.fft.rfft(d, 2 * n)
    acov = np.fft.irfft(f.real**2 + f.imag**2, 2 * n)[:n]
    pairs = acov[: n - n % 2].reshape(-1, 2).sum(axis=1) / acov[0]
    nonpositive = np.flatnonzero(pairs <= 0.0)
    stop = nonpositive[0] if nonpositive.size else pairs.size
    tau = 2.0 * np.minimum.accumulate(pairs[:stop]).sum() - 1.0
    return float(n / max(tau, 1.0 / np.log10(n)))


def _trace_columns(traces, params):
    """Map selector names to per-chain sample matrices."""
    cols = {}
    for name in params:
        if name == "w":
            if any(t.omega is None for t in traces):
                continue
            k = min(t.omega.shape[0] for t in traces)
            omegas = np.stack([t.omega[:k] for t in traces])    # (chains, k, N)
            for node in range(omegas.shape[2]):
                cols[f"w[{node}]"] = omegas[:, :, node]
        else:
            k = min(len(t[name]) for t in traces)
            cols[name] = np.stack([t[name][:k] for t in traces])
    return cols


def psrf(traces, params=PARAM_FIELDS):
    """Potential scale reduction factors across chains.

    The selector is a sequence of record names; the name "w" expands to one
    entry per node using the recorded log-weight snapshots.
    """
    if len(traces) < 2:
        raise TooFewChainsError("psrf requires at least 2 chains")
    cols = _trace_columns(traces, params)
    if not cols:
        raise TooFewSamplesError("no overlapping records for the requested parameters")
    report = {}
    for name, mat in cols.items():
        if mat.shape[1] < 10:
            raise TooFewSamplesError("psrf requires at least 10 kept samples per chain")
        report[name] = _psrf_scalar(mat)
    return PsrfReport(psrf=report, max_psrf=float(max(report.values())))


def credible_interval(trace, level):
    """Equal-tailed empirical credible interval of a 1-D sample array."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must be in (0, 1)")
    x = np.asarray(trace, dtype=float)
    if len(x) < 2.0 / (1.0 - level):
        raise TooFewSamplesError(
            f"need at least {2.0 / (1.0 - level):.0f} samples for level {level}"
        )
    half = (1.0 - level) / 2.0
    lo, hi = np.quantile(x, [half, 1.0 - half])
    return float(lo), float(hi)


def stalled_hmc_warnings(traces):
    """One message per chain whose HMC accepted fewer than MIN_HMC_ACCEPT of
    its post-adaptation proposals.

    A stepsize adapted over only a few iterations can freeze where HMC
    stops accepting, and the log-weights then never move after burn-in.
    Chains without kept draws or acceptance rates (a trace read back from
    CSV has none) are skipped, and so is a NaN rate (no post-adaptation
    iterations).
    """
    out = []
    for t in traces:
        rate = t.accept_rates.get("hmc_post_adapt")
        if len(t) and rate is not None and rate < MIN_HMC_ACCEPT:
            out.append(f"chain {t.chain_id}: post-adaptation HMC acceptance {rate:.3f} is "
                       f"below {MIN_HMC_ACCEPT}; the log-weights have stalled")
    return out


def _summed_ess(chains):
    """Sum over chains of ess, None when a chain has fewer than 4 draws."""
    try:
        return sum(ess(x) for x in chains)
    except TooFewSamplesError:
        return None


def sparsity_test(traces):
    """Pr(sigma >= 0 | data) from pooled kept draws, with a 99% CI for sigma.

    The warning, if any, names chains that may not have mixed: a PSRF of
    sigma above 1.1, or a stalled HMC block (stalled_hmc_warnings).
    ess_sigma is the sum of each chain's ess of sigma, None when a chain
    has fewer than 4 kept draws. mcse_p_sparse is sqrt(p (1 - p) / E), E
    the sum of each chain's ess of the indicator sigma >= 0: 0.0 when every
    draw falls on one side, None when a chain has fewer than 4 kept draws
    or, with p in (0, 1), an indicator that never changes.
    """
    if sum(len(t) for t in traces) == 0:
        raise TooFewSamplesError("sparsity test requires kept draws")
    sigmas = [np.asarray(t["sigma"], dtype=float) for t in traces]
    sigma = np.concatenate(sigmas)
    p_sparse = float(np.mean(sigma >= 0.0))
    ci = credible_interval(sigma, 0.99)
    max_r, messages = None, stalled_hmc_warnings(traces)
    if len(traces) >= 2:
        try:
            max_r = psrf(traces, params=("sigma",)).max_psrf
            if max_r > 1.1:
                messages.insert(0, f"max PSRF {max_r:.3f} exceeds 1.1; chains may not have mixed")
        except TooFewSamplesError:
            pass
    mcse = 0.0
    if 0.0 < p_sparse < 1.0:
        ess_sparse = _summed_ess([x >= 0.0 for x in sigmas])
        ok = ess_sparse is not None and not np.isnan(ess_sparse)
        mcse = float(np.sqrt(p_sparse * (1.0 - p_sparse) / ess_sparse)) if ok else None
    return SparsityTestResult(p_sparse=p_sparse, ci_sigma=ci, max_psrf=max_r,
                              ess_sigma=_summed_ess(sigmas), mcse_p_sparse=mcse,
                              warning="; ".join(messages) or None)


def degree_bins(max_degree):
    """Unit bins through degree 16, then base-2 logarithmic bins.

    Returns (lo, hi) inclusive integer bin edges.
    """
    lo, hi = [], []
    d = 1
    while d <= min(16, max_degree):
        lo.append(d)
        hi.append(d)
        d += 1
    upper = 32
    while d <= max_degree:
        lo.append(d)
        hi.append(min(upper - 1, max_degree))
        d = upper
        upper *= 2
    return np.asarray(lo), np.asarray(hi)


def _binned_degree_counts(degree, lo, hi):
    counts = np.zeros(len(lo))
    if len(degree) == 0:
        return counts
    hist = np.bincount(degree, minlength=int(hi[-1]) + 2)
    for b in range(len(lo)):
        counts[b] = hist[int(lo[b]) : int(hi[b]) + 1].sum()
    return counts


def posterior_predictive_degrees(traces, n_draws, eps, observed=None, seed=0):
    """Degree-count quantile bands from the posterior predictive.

    Draws n_draws hyperparameter triples from the pooled trace, simulates a
    graph for each by truncation at eps, and returns per-bin (2.5%, 50%,
    97.5%) quantiles of the binned degree counts. When an observed graph is
    supplied its binned counts are appended for plotting.
    """
    if n_draws < 1:
        raise TooFewSamplesError("n_draws must be >= 1")
    if sum(len(t) for t in traces) == 0:
        raise TooFewSamplesError("posterior predictive requires kept draws")
    alpha = np.concatenate([t["alpha"] for t in traces])
    sigma = np.concatenate([t["sigma"] for t in traces])
    tau = np.concatenate([t["tau"] for t in traces])

    rng = rng_stream(seed, 10_000)
    idx = rng.integers(0, len(alpha), size=n_draws)
    degrees = []                    # not the graphs, which are about 12x larger
    max_deg = 1
    for t, i in enumerate(idx):
        cfg = SimConfig(
            params=GgpParams(float(alpha[i]), float(sigma[i]), float(tau[i])),
            truncation_eps=eps,
            seed=seed,
        )
        z, _ = sample_undirected_ggp(cfg, rng=rng_stream(seed, 10_001 + t))
        degrees.append(z.degree)
        if z.n_nodes:
            max_deg = max(max_deg, int(z.degree.max()))
    if observed is not None and observed.n_nodes:
        max_deg = max(max_deg, int(observed.degree.max()))

    lo, hi = degree_bins(max_deg)
    counts = np.stack([_binned_degree_counts(d, lo, hi) for d in degrees])
    q_lo, q_med, q_hi = np.quantile(counts, [0.025, 0.5, 0.975], axis=0)
    out = {
        "bin_lo": lo,
        "bin_hi": hi,
        "lo": q_lo,
        "median": q_med,
        "hi": q_hi,
    }
    if observed is not None:
        out["observed"] = _binned_degree_counts(observed.degree, lo, hi)
    return out


def fit_loglog_slope(n_nodes, n_edges):
    """OLS slope of log edge count on log node count."""
    x = np.log(np.asarray(n_nodes, dtype=float))
    y = np.log(np.asarray(n_edges, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def scaling_experiment(sigma, tau, alpha_grid, seeds, eps=DEFAULT_EPS):
    """Edge growth against node growth along an alpha grid.

    Returns rows (alpha, seed, n_nodes, n_edges) and the OLS slope of
    log N^(e) on log N fitted to the per-alpha medians across seeds.
    """
    alpha_grid = list(alpha_grid)
    seeds = list(seeds)
    if len(set(alpha_grid)) < 3 or len(seeds) < 3:
        raise DomainError("need at least 3 distinct alpha values and 3 seeds")
    rows = []
    med_nodes, med_edges = [], []
    for a in alpha_grid:
        nodes_a, edges_a = [], []
        for s in seeds:
            cfg = SimConfig(params=GgpParams(a, sigma, tau), truncation_eps=eps, seed=s)
            z, _ = sample_undirected_ggp(cfg)
            rows.append((a, s, z.n_nodes, z.n_edges))
            nodes_a.append(z.n_nodes)
            edges_a.append(z.n_edges)
        med_nodes.append(np.median(nodes_a))
        med_edges.append(np.median(edges_a))
        if med_edges[-1] == 0:
            raise DomainError(f"the median graph at alpha={a} has no edges; "
                              "the log-log slope is undefined")
    slope = fit_loglog_slope(med_nodes, med_edges)
    return rows, slope


def powerlaw_fraction(sigma, j):
    """Theoretical asymptotic degree fraction p_{sigma,j} of the multigraph."""
    if sigma <= 0.0:
        raise DomainError("the power-law limit requires sigma > 0")
    j = np.asarray(j)
    return np.exp(
        np.log(sigma) + gammaln(j - sigma) - gammaln(1.0 - sigma) - gammaln(j + 1.0)
    )


def powerlaw_check(sigma, tau, alpha, seeds, j_max, eps=DEFAULT_EPS):
    """Empirical multigraph degree fractions against p_{sigma,j}.

    Returns rows (j, empirical mean fraction, theoretical, absolute gap).
    """
    if sigma <= 0.0:
        raise DomainError("the power-law limit requires sigma > 0")
    params = GgpParams(alpha, sigma, tau)
    fracs = []
    for s in seeds:
        rng = rng_stream(s, 0)
        sample = sample_crm_truncated(params, eps, rng)
        d = sample_directed_conditional(sample, rng)
        fracs.append(multigraph_degree_fractions(d, j_max))
    emp = np.mean(fracs, axis=0)
    theo = powerlaw_fraction(sigma, np.arange(1, j_max + 1))
    return [
        (j + 1, float(emp[j]), float(theo[j]), float(abs(emp[j] - theo[j])))
        for j in range(j_max)
    ]
