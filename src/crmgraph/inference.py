"""HMC-within-Gibbs posterior inference for GGP graphs.

The target is the conditional law of (log-sociabilities, remainder mass,
hyperparameters, latent directed counts) given an undirected graph:
HMC updates the log-weights, a joint Metropolis-Hastings block with an
exponentially tilted total-mass proposal updates (alpha, sigma, tau, w*)
without ever evaluating the intractable total-mass density, and the
latent counts are drawn from their zero-truncated Poisson conditional.
Each hyperparameter carries an improper 1/x prior.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, InconsistentStateError
from .levy import laplace_exponent
from .params import GgpParams, rng_stream
from .totalmass import sample_tilted_total_mass, sample_truncated_poisson

PARAM_FIELDS = ("alpha", "sigma", "tau", "w_star")  # McmcState scalars a trace keeps
TRACE_FIELDS = PARAM_FIELDS + ("log_post",)


@dataclass
class McmcState:
    """Current position of one chain."""

    omega: np.ndarray          # log sociabilities, length N
    w_star: float              # remainder mass
    alpha: float
    sigma: float
    tau: float
    nbar: np.ndarray           # latent counts per undirected edge, >= 1

    def weights(self):
        return np.exp(self.omega)


@dataclass
class McmcConfig:
    n_iter: int
    n_chains: int = 3
    leapfrog_steps: int = 10
    target_accept: float = 0.6
    adapt_iters: int = None
    rw_sd: float = 0.02
    thin: int = 1
    seed: int = 0
    omega_record_stride: int = 0    # 0 disables log-weight snapshots

    def __post_init__(self):
        if self.n_iter < 0 or self.thin < 1 or self.leapfrog_steps < 1:
            raise DomainError("n_iter >= 0, thin >= 1, leapfrog_steps >= 1 required")
        if self.n_chains < 1:
            raise DomainError(f"n_chains must be >= 1, got {self.n_chains}")
        if not 0.0 < self.target_accept < 1.0:
            raise DomainError("target_accept must be in (0, 1)")
        if not (np.isfinite(self.rw_sd) and self.rw_sd > 0.0):
            raise DomainError(f"rw_sd must be finite and > 0, got {self.rw_sd}")
        if self.adapt_iters is None:
            self.adapt_iters = self.n_iter // 4
        if self.adapt_iters < 0:
            raise DomainError(f"adapt_iters must be >= 0, got {self.adapt_iters}")


@dataclass
class ChainTrace:
    """Per-kept-iteration scalar records plus optional log-weight snapshots."""

    records: dict
    omega: np.ndarray = None
    accept_rates: dict = field(default_factory=dict)
    chain_id: int = 0
    meta: dict = field(default_factory=dict)

    def __len__(self):
        if not self.records:
            return 0
        return len(next(iter(self.records.values())))

    def __getitem__(self, name):
        return self.records[name]


def compute_m(graph, nbar):
    """Per-node exponent m_i from latent edge counts; a self count contributes 2.

    Most counts are 1 (about nine in ten at paper scale), so m starts from
    its value at nbar = 1, which the graph holds, and adds the excess
    nbar - 1 of the other edges.
    """
    up = np.flatnonzero(nbar > 1)
    excess = nbar[up] - 1
    extra = np.bincount(graph.edge_i[up], weights=excess, minlength=graph.n_nodes)
    extra += np.bincount(graph.edge_j[up], weights=excess, minlength=graph.n_nodes)
    return graph.unit_m + extra.astype(np.int64)


def _check_state(state, graph):
    if len(state.nbar) != graph.n_edges:
        raise InconsistentStateError("latent count vector does not match the edge list")
    if np.any(state.nbar < 1):
        raise InconsistentStateError("latent counts must be >= 1 on edges")


def _grad_and_mass(omega, m_sigma, tau, w_star):
    """Gradient in omega of the omega terms of the log posterior,
    (m_i - sigma) - w_i (tau + 2 sum_j w_j + 2 w*), and sum_j w_j."""
    w = np.exp(omega)
    s = w.sum()
    return m_sigma - w * (tau + 2.0 * s + 2.0 * w_star), s


def _log_target_and_grad(omega, m_sigma, tau, w_star):
    """Terms of the log posterior that depend on omega, Jacobian included,
    and their gradient; m_sigma is m - sigma."""
    grad, s = _grad_and_mass(omega, m_sigma, tau, w_star)
    return float(np.dot(m_sigma, omega) - tau * s - (s + w_star) ** 2), grad


def log_posterior(state, graph, *, check=True, m=None):
    """Joint log density up to the additive log g* constant.

    sum_i [m_i log w_i + log rho(w_i)] - (sum w + w*)^2 plus the Jacobian
    sum_i omega_i of the log parameterization. run_chain passes
    check=False: it draws every latent count itself, so they are >= 1.
    It also passes m = compute_m(graph, state.nbar), which it computes once
    per latent draw for this and the next HMC update.
    """
    if check:
        _check_state(state, graph)
    if m is None:
        m = compute_m(graph, state.nbar)
    value, _ = _log_target_and_grad(state.omega, m - state.sigma, state.tau, state.w_star)
    return value - len(state.omega) * gammaln(1.0 - state.sigma)


def grad_log_posterior(state, graph):
    """Gradient in omega: m_i - sigma - w_i (tau + 2 sum_j w_j + 2 w*)."""
    _check_state(state, graph)
    grad, _ = _grad_and_mass(
        state.omega, compute_m(graph, state.nbar) - state.sigma, state.tau, state.w_star)
    return grad


def hmc_update(state, graph, n_steps, stepsize, rng, m=None):
    """One Hamiltonian update of the log-weights; returns acceptance flag.

    m is compute_m(graph, state.nbar), computed here when not given. The
    log target is evaluated only at the two ends of the trajectory. A
    diverging trajectory overflows; its non-finite ratio rejects it, so
    numpy's overflow and invalid-value warnings are silenced here.
    """
    if m is None:
        m = compute_m(graph, state.nbar)
    target = (m - state.sigma, state.tau, state.w_star)
    omega = state.omega
    p0 = rng.standard_normal(len(omega))

    with np.errstate(over="ignore", invalid="ignore"):
        log_p0, grad = _log_target_and_grad(omega, *target)
        p = p0 + 0.5 * stepsize * grad
        q = omega
        for _ in range(n_steps - 1):
            q = q + stepsize * p
            p = p + stepsize * _grad_and_mass(q, *target)[0]
        q = q + stepsize * p
        log_p, grad = _log_target_and_grad(q, *target)
        p = -(p + 0.5 * stepsize * grad)
        log_r = log_p - log_p0 - 0.5 * (np.dot(p, p) - np.dot(p0, p0))
    if not np.isfinite(log_r):
        return state, False
    if np.log(rng.uniform()) < log_r:
        state.omega = q
        return state, True
    return state, False


def hyper_update(state, config, rng):
    """Joint MH move on (alpha, sigma, tau, w*) with the tilting proposal.

    tau and 1 - sigma take lognormal random-walk proposals, alpha a gamma
    proposal matched to the conditional, and the remainder mass w* is drawn
    from the exponentially tilted total-mass law with tilt 2 sum w + w*;
    the tilting makes every total-mass density cancel from the ratio.
    """
    w = state.weights()
    s_w = float(w.sum())
    sum_log_w = float(state.omega.sum())
    n = len(state.omega)
    sigma, tau, w_star = state.sigma, state.tau, state.w_star

    tau_p = tau * np.exp(config.rw_sd * rng.standard_normal())
    sigma_p = 1.0 - (1.0 - sigma) * np.exp(config.rw_sd * rng.standard_normal())
    tilt = 2.0 * s_w + w_star
    # psi is per unit alpha, so these shapes carry alpha = 1
    shape, shape_p = GgpParams(1.0, sigma, tau), GgpParams(1.0, sigma_p, tau_p)
    rate_p = laplace_exponent(shape_p, tilt)
    alpha_p = float(rng.gamma(n, 1.0 / rate_p))
    if alpha_p <= 0.0 or not np.isfinite(alpha_p):
        return state, False
    w_star_p = sample_tilted_total_mass(GgpParams(alpha_p, sigma_p, tau_p), tilt, rng)

    log_r = (
        -((s_w + w_star_p) ** 2) + (s_w + w_star) ** 2
        - (tau_p - tau + 2.0 * w_star - 2.0 * w_star_p) * s_w
        + (sigma - sigma_p) * sum_log_w
        + n * (
            gammaln(1.0 - sigma) + np.log(laplace_exponent(shape, 2.0 * s_w + w_star_p))
            - gammaln(1.0 - sigma_p) - np.log(laplace_exponent(shape_p, tilt))
        )
    )
    if not np.isfinite(log_r):
        return state, False
    if np.log(rng.uniform()) < log_r:
        state.alpha, state.sigma, state.tau, state.w_star = alpha_p, sigma_p, tau_p, w_star_p
        return state, True
    return state, False


def latent_rates(state, graph):
    """Conditional truncated-Poisson rates: 2 w_i w_j off-diagonal, w_i^2 on."""
    w = state.weights()
    rate = (2.0 * w)[graph.edge_i]
    rate *= w[graph.edge_j]
    loops = graph.loops
    rate[loops] = w[graph.edge_i[loops]] ** 2
    return rate


def latent_update(state, graph, rng):
    """Draw the latent edge counts from their zero-truncated Poisson conditional."""
    state.nbar = sample_truncated_poisson(latent_rates(state, graph), rng)
    return state


def init_state(graph, rng):
    """Starting point: degree-proportional weights, sigma near 0, tau near 1."""
    deg = graph.degree.astype(float)
    total_deg = deg.sum()
    w0 = deg / np.sqrt(total_deg)
    w0 = w0 * np.exp(0.2 * rng.standard_normal())   # chain-to-chain spread
    sigma0 = float(np.clip(0.1 * rng.standard_normal(), -0.8, 0.8))
    tau0 = float(np.exp(0.1 * rng.standard_normal()))
    w_star0 = 0.1
    s_w = w0.sum()
    alpha0 = graph.n_nodes / laplace_exponent(GgpParams(1.0, sigma0, tau0), 2.0 * s_w + w_star0)
    return McmcState(
        omega=np.log(np.maximum(w0, 1e-10)),
        w_star=float(w_star0),
        alpha=float(alpha0),
        sigma=float(sigma0),
        tau=float(tau0),
        nbar=np.ones(graph.n_edges, dtype=np.int64),
    )


class _DualAveraging:
    """Nesterov dual averaging of the leapfrog stepsize toward a target rate."""

    def __init__(self, eps0, target, gamma=0.05, t0=10.0, kappa=0.75):
        self.mu = np.log(10.0 * eps0)
        self.target = target
        self.gamma, self.t0, self.kappa = gamma, t0, kappa
        self.log_eps = np.log(eps0)
        self.log_eps_bar = np.log(eps0)
        self.h_bar = 0.0
        self.t = 0

    def update(self, accepted):
        self.t += 1
        frac = 1.0 / (self.t + self.t0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (self.target - float(accepted))
        self.log_eps = self.mu - np.sqrt(self.t) / self.gamma * self.h_bar
        w = self.t ** (-self.kappa)
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar

    @property
    def stepsize(self):
        return float(np.exp(self.log_eps))

    @property
    def frozen_stepsize(self):
        return float(np.exp(self.log_eps_bar))


def run_chain(graph, config, chain_id=0):
    """One chain of the HMC-within-Gibbs sampler on an undirected graph.

    Sweep order: HMC on log-weights, joint hyperparameter block, latent
    counts. The stepsize adapts for the first adapt_iters iterations
    (which double as burn-in), then freezes. Chain c draws from
    rng_stream(config.seed, c).
    """
    if graph.n_edges < 1:
        raise DomainError("inference requires a graph with at least one edge")
    rng = rng_stream(config.seed, chain_id)
    state = init_state(graph, rng)
    latent_update(state, graph, rng)                # start latent at its conditional
    m = compute_m(graph, state.nbar)                # shared until the next latent draw

    burn = min(config.adapt_iters, config.n_iter)
    eps0 = 0.1 / max(len(state.omega), 1) ** 0.25
    adapter = _DualAveraging(eps0, config.target_accept)

    recs = {k: [] for k in TRACE_FIELDS}
    omega_snaps = []
    accept = {"hmc": 0, "hyper": 0}
    post_window = {"hmc": 0, "hyper": 0, "n": 0}

    for it in range(config.n_iter):
        adapting = it < burn
        stepsize = adapter.stepsize if adapting else adapter.frozen_stepsize
        state, acc_hmc = hmc_update(state, graph, config.leapfrog_steps, stepsize, rng, m=m)
        if adapting:
            adapter.update(acc_hmc)
        state, acc_hyp = hyper_update(state, config, rng)
        state = latent_update(state, graph, rng)
        m = compute_m(graph, state.nbar)
        accept["hmc"] += acc_hmc
        accept["hyper"] += acc_hyp
        if not adapting:
            post_window["hmc"] += acc_hmc
            post_window["hyper"] += acc_hyp
            post_window["n"] += 1
        if it >= burn and (it - burn) % config.thin == 0:
            for k in PARAM_FIELDS:
                recs[k].append(getattr(state, k))
            recs["log_post"].append(log_posterior(state, graph, check=False, m=m))
            stride = config.omega_record_stride
            if stride and ((it - burn) // config.thin) % stride == 0:
                omega_snaps.append(state.omega.copy())

    n_post = max(post_window["n"], 1)
    return ChainTrace(
        records={k: np.asarray(v) for k, v in recs.items()},
        omega=np.asarray(omega_snaps) if omega_snaps else None,
        accept_rates={
            "hmc": accept["hmc"] / max(config.n_iter, 1),
            "hyper": accept["hyper"] / max(config.n_iter, 1),
            "hmc_post_adapt": post_window["hmc"] / n_post,
            "hyper_post_adapt": post_window["hyper"] / n_post,
        },
        chain_id=chain_id,
        meta={
            "n_iter": config.n_iter,
            "burn": burn,
            "thin": config.thin,
            "stepsize": adapter.frozen_stepsize,
            "init": {
                "n_nodes": graph.n_nodes,
                "n_edges": graph.n_edges,
            },
        },
    )


def _chain(graph, config, chain_id):
    """Pool task. It looks up run_chain when called, so a wrapper installed
    on the module runs in the worker and is never pickled."""
    return run_chain(graph, config, chain_id)


def run_chains(graph, config):
    """Independent chains on separate random streams, run in parallel.

    The pool has k = min(n_chains, usable CPUs) workers, where the usable
    CPUs are the process's affinity set, so ``taskset`` bounds it. With
    k < 2 the chains run one after another in this process. Chain c draws
    from rng_stream(config.seed, c) either way, so the traces, returned in
    chain order, do not depend on k down to the last bit. An error raised
    in a worker is raised here with its type.

    Workers are forked, not spawned. On a 2-vCPU host, a 2-worker spawn
    pool cost 0.77 s per call, spent starting interpreters that import
    numpy and scipy afresh; forkserver cost 0.58 s and fork 0.03 s. The
    benchmark's 2-chain sparsity test takes about 1.4 s serially, so
    spawn would erase most of the gain. Fork is safe only while the
    caller runs no other thread. This package starts none, and OpenBLAS
    stops its own threads around a fork.
    """
    k = min(config.n_chains, len(os.sched_getaffinity(0)))
    if k < 2:
        return [run_chain(graph, config, chain_id=c) for c in range(config.n_chains)]
    with ProcessPoolExecutor(k, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_chain, repeat(graph), repeat(config), range(config.n_chains)))

