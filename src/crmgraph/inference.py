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
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, InconsistentStateError
from .graphs import edge_end_counts
from .levy import _psi
from .params import GgpParams, check_seed, rng_stream
from .totalmass import sample_tilted_total_mass, sample_truncated_poisson

PARAM_FIELDS = ("alpha", "sigma", "tau", "w_star")  # McmcState scalars a trace keeps
TRACE_FIELDS = PARAM_FIELDS + ("log_post",)
BLOCKS = ("hmc", "hyper", "latent", "record")   # the timed parts of a sweep
LEAPFROG_STEPS = 10             # per HMC update
HMC_TARGET_ACCEPT = 0.6         # the acceptance the stepsize adapts toward
HYPER_WALK_SD0 = 0.02           # the hyper block's walk sd before adaptation
HYPER_TARGET_ACCEPT = 0.234     # its adapted acceptance (Roberts, Gelman & Gilks 1997)


@dataclass
class McmcState:
    """Current position of one chain; weights() is exp(omega)."""

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
    """Chain lengths, counts and seed; the tuning is this module's constants."""

    n_iter: int
    n_chains: int = 3
    adapt_iters: int = None
    thin: int = 1
    seed: int = 0
    omega_record_stride: int = 0    # 0 disables log-weight snapshots

    def __post_init__(self):
        if self.adapt_iters is None:
            self.adapt_iters = self.n_iter // 4
        for name, least in (("n_iter", 0), ("n_chains", 1), ("adapt_iters", 0), ("thin", 1),
                            ("omega_record_stride", 0)):
            value = getattr(self, name)
            try:
                value = operator.index(value)
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {value!r}") from None
            if value < least:
                raise DomainError(f"{name} must be >= {least}, got {value}")
        check_seed(self.seed)

    @property
    def target_accept(self):
        return HMC_TARGET_ACCEPT


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
    up = (nbar > 1).nonzero()[0]
    return graph.unit_m + edge_end_counts(
        graph.n_nodes, graph.edge_i.take(up), graph.edge_j.take(up), nbar.take(up) - 1)


def _check_state(state, graph):
    if len(state.nbar) != graph.n_edges:
        raise InconsistentStateError("latent count vector does not match the edge list")
    if np.any(state.nbar < 1):
        raise InconsistentStateError("latent counts must be >= 1 on edges")


def _grad_and_mass(w, m_sigma, tau, w_star, scale=1.0, out=None):
    """scale times the gradient in omega of the omega terms of the log
    posterior, m_sigma - scale w_i (tau + 2 sum_j w_j + 2 w*), and sum_j w_j.

    w is exp(omega), and m_sigma is scale (m - sigma), which a leapfrog
    step passes pre-scaled. The gradient is written into out when given
    (it may be w) and into a new array otherwise.
    """
    s = w.sum()
    grad = np.multiply(w, -scale * (tau + 2.0 * s + 2.0 * w_star), out=out)
    grad += m_sigma
    return grad, s


def _log_target(omega, w_sum, m_sigma, tau, w_star):
    """Terms of the log posterior that depend on omega, Jacobian included,
    where w_sum is sum_i exp(omega_i) and m_sigma is m - sigma."""
    return float(np.dot(m_sigma, omega) - tau * w_sum - (w_sum + w_star) ** 2)


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
    value = _log_target(state.omega, state.weights().sum(), m - state.sigma,
                        state.tau, state.w_star)
    return value - len(state.omega) * gammaln(1.0 - state.sigma)


def grad_log_posterior(state, graph):
    """Gradient in omega: m_i - sigma - w_i (tau + 2 sum_j w_j + 2 w*)."""
    _check_state(state, graph)
    grad, _ = _grad_and_mass(
        state.weights(), compute_m(graph, state.nbar) - state.sigma, state.tau, state.w_star)
    return grad


def hmc_update(state, graph, n_steps, stepsize, rng, m=None):
    """One Hamiltonian update of the log-weights; returns acceptance flag.

    m is compute_m(graph, state.nbar), computed here when not given. The
    log target is evaluated only at the two ends of the trajectory. A
    diverging trajectory overflows; its non-finite ratio rejects it, so
    numpy's overflow, divide and invalid-value warnings are silenced here.

    The leapfrog carries the scaled momentum r = eps p. With
    a = eps^2 (m - sigma) formed once per call, a full step is q += r,
    then r += a - eps^2 w (tau + 2 sum w + 2 w*) at w = exp(q): six array
    passes, in one copy of omega, r and one work buffer, with nothing
    allocated per step and state.omega never written. The kinetic energy
    is r.r / (2 eps^2). This is the textbook p += eps/2 grad, q += eps p
    map, rounded differently.
    """
    if m is None:
        m = compute_m(graph, state.nbar)
    m_sigma = m - state.sigma
    eps2 = stepsize * stepsize
    target = (np.multiply(eps2, m_sigma), state.tau, state.w_star, eps2)
    z = rng.standard_normal(len(state.omega))

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        buf, s = _grad_and_mass(state.weights(), *target)
        log_p0 = _log_target(state.omega, s, m_sigma, state.tau, state.w_star)
        buf *= 0.5
        r = np.multiply(stepsize, z)
        r += buf
        q = state.omega.copy()
        for _ in range(n_steps - 1):
            q += r
            _grad_and_mass(np.exp(q, out=buf), *target, out=buf)
            r += buf
        q += r
        buf, s = _grad_and_mass(np.exp(q, out=buf), *target, out=buf)
        log_p = _log_target(q, s, m_sigma, state.tau, state.w_star)
        buf *= 0.5
        r += buf    # the end momentum is -r / eps; its sign drops out of r.r
        log_r = log_p - log_p0 - 0.5 * (np.dot(r, r) / eps2 - np.dot(z, z))
    if not np.isfinite(log_r):
        return state, False
    if np.log(rng.uniform()) < log_r:
        state.omega = q
        return state, True
    return state, False


def hyper_update(state, walk_sd, rng):
    """Joint MH move on (alpha, sigma, tau, w*) with the tilting proposal.

    tau and 1 - sigma take lognormal walks of log-sd walk_sd, alpha a gamma
    proposal matched to the conditional, and the remainder mass w* is drawn
    from the exponentially tilted total-mass law with tilt 2 sum w + w*;
    the tilting makes every total-mass density cancel from the ratio.
    """
    w = state.weights()
    s_w = float(w.sum())
    sum_log_w = float(state.omega.sum())
    n = len(state.omega)
    sigma, tau, w_star = state.sigma, state.tau, state.w_star

    tau_p = tau * np.exp(walk_sd * rng.standard_normal())
    sigma_p = 1.0 - (1.0 - sigma) * np.exp(walk_sd * rng.standard_normal())
    if not (-np.inf < sigma_p < 1.0 and 0.0 < tau_p < np.inf):
        return state, False     # exp over- or underflowed: only at a huge walk_sd
    tilt = 2.0 * s_w + w_star
    rate_p = _psi(sigma_p, tau_p, tilt)
    alpha_p = float(rng.gamma(n, 1.0 / rate_p))
    if alpha_p <= 0.0 or not np.isfinite(alpha_p):
        return state, False
    w_star_p = sample_tilted_total_mass(GgpParams(alpha_p, sigma_p, tau_p), tilt, rng)

    log_r = (
        -((s_w + w_star_p) ** 2) + (s_w + w_star) ** 2
        - (tau_p - tau + 2.0 * w_star - 2.0 * w_star_p) * s_w
        + (sigma - sigma_p) * sum_log_w
        + n * (
            gammaln(1.0 - sigma) + np.log(_psi(sigma, tau, 2.0 * s_w + w_star_p))
            - gammaln(1.0 - sigma_p) - np.log(rate_p)
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
    rate = (2.0 * w).take(graph.edge_i)
    rate *= w.take(graph.edge_j)
    loops = graph.loops
    rate[loops] = w.take(graph.edge_i.take(loops)) ** 2
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
    alpha0 = graph.n_nodes / _psi(sigma0, tau0, 2.0 * s_w + w_star0)
    return McmcState(
        omega=np.log(np.maximum(w0, 1e-10)),
        w_star=float(w_star0),
        alpha=float(alpha0),
        sigma=float(sigma0),
        tau=float(tau0),
        nbar=np.ones(graph.n_edges, dtype=np.int64),
    )


class _DualAveraging:
    """Nesterov dual averaging of the leapfrog stepsize toward HMC_TARGET_ACCEPT."""

    GAMMA, T0, KAPPA = 0.05, 10.0, 0.75

    def __init__(self, eps0):
        self.mu = np.log(10.0 * eps0)
        self.log_eps = self.log_eps_bar = np.log(eps0)
        self.h_bar = 0.0
        self.t = 0

    def update(self, accepted):
        self.t += 1
        frac = 1.0 / (self.t + self.T0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (HMC_TARGET_ACCEPT - float(accepted))
        self.log_eps = self.mu - np.sqrt(self.t) / self.GAMMA * self.h_bar
        w = self.t ** (-self.KAPPA)
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar

    @property
    def stepsize(self):
        return float(np.exp(self.log_eps))

    @property
    def frozen_stepsize(self):
        return float(np.exp(self.log_eps_bar))


class _WalkScale:
    """The hyper walk sd, HYPER_WALK_SD0 exp(log_s), in Robbins-Monro steps
    log_s += (accepted - HYPER_TARGET_ACCEPT) / sqrt(t) at update t."""

    def __init__(self):
        self.log_s = 0.0
        self.t = 0
        self.sd = HYPER_WALK_SD0

    def update(self, accepted):
        self.t += 1
        self.log_s += (float(accepted) - HYPER_TARGET_ACCEPT) / np.sqrt(self.t)
        self.sd = HYPER_WALK_SD0 * float(np.exp(self.log_s))


def run_chain(graph, config, chain_id=0):
    """One chain of the HMC-within-Gibbs sampler on an undirected graph.

    Sweep order: HMC on log-weights, joint hyperparameter block, latent
    counts. The stepsize and the hyper walk sd adapt for the first
    adapt_iters iterations (which double as burn-in), then freeze into
    meta["stepsize"] and meta["hyper_walk_sd"]. Chain c draws from
    rng_stream(config.seed, c).

    meta["timing"] holds the wall seconds and calls of each block in
    BLOCKS: hmc (with the stepsize adaptation), hyper, latent (the draw
    and the m it gives) and record (kept iterations only).
    """
    if graph.n_edges < 1:
        raise DomainError("inference requires a graph with at least one edge")
    rng = rng_stream(config.seed, chain_id)
    state = init_state(graph, rng)
    latent_update(state, graph, rng)                # start latent at its conditional
    m = compute_m(graph, state.nbar)                # shared until the next latent draw

    burn = min(config.adapt_iters, config.n_iter)
    eps0 = 0.1 / max(len(state.omega), 1) ** 0.25
    adapter = _DualAveraging(eps0)
    walk = _WalkScale()

    recs = {k: [] for k in TRACE_FIELDS}
    omega_snaps = []
    accepted = np.zeros((config.n_iter, 2), dtype=bool)    # per iteration: HMC, hyper
    kept = range(burn, config.n_iter, config.thin)
    stride = config.omega_record_stride
    spent = dict.fromkeys(BLOCKS, 0.0)
    clock = time.perf_counter

    for it in range(config.n_iter):
        adapting = it < burn
        stepsize = adapter.stepsize if adapting else adapter.frozen_stepsize
        t0 = clock()
        state, accepted[it, 0] = hmc_update(state, graph, LEAPFROG_STEPS, stepsize, rng, m=m)
        if adapting:
            adapter.update(accepted[it, 0])
        t1 = clock()
        state, accepted[it, 1] = hyper_update(state, walk.sd, rng)
        if adapting:
            walk.update(accepted[it, 1])
        t2 = clock()
        state = latent_update(state, graph, rng)
        m = compute_m(graph, state.nbar)
        t3 = clock()
        spent["hmc"] += t1 - t0
        spent["hyper"] += t2 - t1
        spent["latent"] += t3 - t2
        if it in kept:
            for k in PARAM_FIELDS:
                recs[k].append(getattr(state, k))
            recs["log_post"].append(log_posterior(state, graph, check=False, m=m))
            if stride and kept.index(it) % stride == 0:
                omega_snaps.append(state.omega.copy())
            spent["record"] += clock() - t3

    with np.errstate(invalid="ignore"):     # an empty window has no rate: 0/0 is NaN
        rates = accepted.sum(axis=0) / config.n_iter
        post = accepted[burn:].sum(axis=0) / (config.n_iter - burn)
    return ChainTrace(
        records={k: np.asarray(v) for k, v in recs.items()},
        omega=np.asarray(omega_snaps) if omega_snaps else None,
        accept_rates={
            "hmc": float(rates[0]),
            "hyper": float(rates[1]),
            "hmc_post_adapt": float(post[0]),
            "hyper_post_adapt": float(post[1]),
        },
        chain_id=chain_id,
        meta={
            "n_iter": config.n_iter,
            "burn": burn,
            "thin": config.thin,
            "stepsize": adapter.frozen_stepsize,
            "hyper_walk_sd": walk.sd,
            "timing": {
                b: {"seconds": spent[b], "calls": len(kept) if b == "record" else config.n_iter}
                for b in BLOCKS
            },
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
    CPUs are the process's affinity set, so ``taskset`` bounds it; where
    the OS has no affinity call (macOS, Windows) they are os.cpu_count().
    With k < 2, or where multiprocessing has no "fork" start method
    (Windows), the chains run one after another in this process. Chain c draws
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
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    k = min(config.n_chains, cpus or 1)
    if k < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [run_chain(graph, config, chain_id=c) for c in range(config.n_chains)]
    with ProcessPoolExecutor(k, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_chain, repeat(graph), repeat(config), range(config.n_chains)))

