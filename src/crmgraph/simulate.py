"""Generative paths for GGP random graphs.

All paths target the same hierarchy: a (truncated) CRM draw gives node
weights, the directed multigraph is Poisson given the squared total mass,
and the undirected graph keeps one edge per connected unordered pair. The
truncated path draws the CRM atoms above eps by exact Poisson thinning of
closed-form envelopes. The gamma-process urn and the Kallenberg
construction (unit-rate marks through the inverted tail intensity; for
sigma < 0 its finite-activity case, whose marks are the Gamma(-sigma, tau)
jumps of a compound Poisson process) are independent alternatives used
for cross-validation. The Kallenberg path draws its edges, given its
weights, with the truncated path's directed conditional. The urn and the finite-activity draw are exact; the
truncated path, and the Kallenberg path for sigma >= 0, drop the atoms
below eps, about 2 W m(eps) of which would have had an edge. Every path
finishes a draw by the same rules: a draw with no atoms is an empty graph,
isolated nodes drop, self-loops drop when include_self_loops is false, and
nodes are numbered in the order of the atoms they come from. Every Poisson count a path
draws is checked against numpy's limit on the mean first: DomainError, naming
the mean, instead of numpy's ValueError. The truncated path also refuses, the
same way, a draw that expects more than MAX_EXPECTED_PROPOSALS CRM proposals,
and the Kallenberg path one that expects more than MAX_KALLENBERG_ATOMS atoms.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import exprel, gammaincinv, gammaln

from .errors import DomainError
from .graphs import CrmSample, DirectedMultigraph, compact_graph, to_undirected
from .levy import (
    expected_truncation_mass,
    inv_tail_intensity,
    tail_intensity,
    total_tail_mass,
)
from .params import MAX_POISSON_MEAN, GgpParams, check_seed, rng_stream

DEFAULT_EPS = 1e-6
# the largest W* whose square stays at or below numpy's Poisson limit
_MAX_TOTAL_MASS = np.nextafter(np.sqrt(MAX_POISSON_MEAN), 0.0)
# a truncated draw that expects more CRM proposals than this is refused before
# it allocates: at 16 bytes per proposal its atom draw would peak at 16 GB
MAX_EXPECTED_PROPOSALS = 1e9
# proposals thinned, and endpoints searched, per block: a block's temporaries
# (256 KiB of doubles each) stay small enough for the allocator to reuse
_DRAW_BLOCK = 1 << 15
# a Kallenberg draw that expects more atoms than this is refused before it
# draws: for sigma >= 0 each atom costs inv_tail_intensity's 60 bisection steps,
# about 13 us and 114 bytes. At the cap (alpha 300, sigma 0.5, tau 1, eps
# 1.27e-8) a draw took 35 s on a 2-vCPU x86-64 VM, with a peak RSS of 359 MiB
# (1e6 atoms: 15 s, 157 MiB); the cap is the largest round count whose draw
# costs less than one of 5e4 atoms by O(K^2) pair draws, 49 s and 719 MiB there
MAX_KALLENBERG_ATOMS = 3e6


@dataclass(frozen=True)
class SimConfig:
    """Configuration for one graph draw. A valid one can still make the draw
    raise DomainError, before anything is drawn or allocated, when
    truncation_eps is too small: the truncated path refuses a draw that
    expects more than MAX_EXPECTED_PROPOSALS (1e9) CRM proposals, which
    would hold 16 bytes each, the Kallenberg path one that expects more
    than MAX_KALLENBERG_ATOMS (3e6) atoms, each inverted by bisection, and
    every path refuses a Poisson count whose mean passes numpy's limit
    (about 9.2e18). At the paper's alpha = 300, sigma = 0.5, tau = 1,
    eps = 1e-6 expects 3.4e5 proposals or atoms, eps = 1e-8 3.4e6 and
    eps = 1e-20 3.4e12."""

    params: GgpParams
    truncation_eps: float = DEFAULT_EPS
    seed: int = 0
    path: str = "truncated"
    include_self_loops: bool = True

    def __post_init__(self):
        check_seed(self.seed)
        if not (np.isfinite(self.truncation_eps) and self.truncation_eps > 0):
            raise DomainError(
                f"truncation_eps must be finite and positive, got {self.truncation_eps}")
        if self.path not in SIM_PATHS:
            raise DomainError(f"unknown simulation path {self.path!r}")
        if self.path == "urn" and self.params.sigma != 0.0:
            raise DomainError("the urn path is exact only for sigma = 0")


def _check_poisson_mean(mean, what):
    if not 0 <= mean <= MAX_POISSON_MEAN:
        raise DomainError(f"{what} has Poisson mean {mean:.6g}, outside numpy's "
                          f"range [0, {MAX_POISSON_MEAN:.6g}]")


def _poisson_count(mean, rng, what):
    """rng.poisson(mean), or DomainError, before any draw, for a mean numpy rejects."""
    _check_poisson_mean(mean, what)
    return rng.poisson(mean)


def _check_proposal_means(means):
    """DomainError, before any draw, for proposal counts {what: Poisson mean}
    that numpy cannot draw or whose means add up past MAX_EXPECTED_PROPOSALS."""
    for what, mean in means.items():
        _check_poisson_mean(mean, what)
    total = sum(means.values())
    if total > MAX_EXPECTED_PROPOSALS:
        raise DomainError(f"the CRM draw expects {total:.6g} proposals (their Poisson mean), "
                          f"more than MAX_EXPECTED_PROPOSALS = {MAX_EXPECTED_PROPOSALS:.6g}; "
                          f"raise eps")


def _thin(w, tau, rng):
    """Keep each proposal of w with probability e^(-tau w), in place.

    Returns k, with w[:k] the kept proposals in order. The test
    rng.random(len(w)) < np.exp(-tau * w) runs in blocks of _DRAW_BLOCK,
    whose uniforms are the same doubles, in the same order, as one call's.
    """
    k = 0
    for lo in range(0, len(w), _DRAW_BLOCK):
        block = w[lo:lo + _DRAW_BLOCK]
        kept = block[rng.random(len(block)) < np.exp(-tau * block)]
        w[k:k + len(kept)] = kept
        k += len(kept)
    return k


def _crm_weights(params, eps, rng):
    """Weights above eps of one restricted CRM draw, and the proposals made.

    For tau > 0 the intensity alpha rho(w) = c w^(-1-sigma) e^(-tau w),
    c = alpha / Gamma(1-sigma), is thinned in two pieces split at
    b = max(eps, 1/tau), where each envelope keeps a fixed share of its
    proposals whatever the parameters:

    - on (eps, b], proposals follow the Pareto intensity c w^(-1-sigma)
      (log-uniform at sigma = 0) and are kept with probability e^(-tau w);
    - on (b, inf), proposals are b + Exp(lam tau) and are kept with
      probability (w/b)^(-1-sigma) e^((1-lam) tau (b-w)) / env. For
      sigma >= -1, lam = 1 and env = 1; below -1 the density rises past b,
      and lam < 1 with env >= 1 keeps the envelope above it.

    The (eps, b] proposals live in one array: its uniforms become weights
    in place, and the thinning test runs in blocks of _DRAW_BLOCK, each
    block's kept weights moved down to the front of the array. The blocks'
    uniforms are the same doubles, in the same order, as one call's, so
    blocking changes no output. glibc hands a freed
    multi-MiB array back to the OS, and the next draw faults its pages in
    again; with few such arrays alive, a draw holds 16 bytes per proposal
    at its peak. At the paper's scale (338k proposals, seed 4) the
    tracemalloc peak of this draw fell from 15.5 to 5.2 MiB, and that of a
    whole sample_undirected_ggp from 15.5 to 9.9 MiB; a loop that draws,
    writes and reads back paper-scale graphs took about 1,500 minor page
    faults per draw and write instead of about 4,000-4,500.

    For tau = 0 (then 0 < sigma < 1) the tail intensity inverts in closed
    form, so the weights are drawn directly.

    DomainError before any draw when the expected proposal count passes
    MAX_EXPECTED_PROPOSALS or a count's mean passes numpy's Poisson limit.
    """
    a, s, t = params.alpha, params.sigma, params.tau
    floor = np.nextafter(eps, np.inf)
    if t == 0.0:
        rate = tail_intensity(params, eps)
        _check_proposal_means({"the atom count above eps": a * rate})
        k = rng.poisson(a * rate)
        w = inv_tail_intensity(params, rng.uniform(size=k) * rate)
        return np.maximum(w, floor), k

    log_c = np.log(a) - gammaln(1.0 - s)
    b = max(eps, 1.0 / t)

    # (eps, b]: with x = log(w/eps) for sigma >= 0, or x = log(b/w) for
    # sigma < 0, the proposal law of x on [0, L] has cdf
    # expm1(-|sigma| x) / expm1(-|sigma| L), which expm1 and log1p invert
    # without cancellation as sigma -> 0 from either side
    big_l = np.log(b / eps)
    r = abs(s) * big_l
    anchor = eps if s >= 0 else b
    length = big_l * exprel(-r)     # -expm1(-r) / |sigma|, big_l at sigma = 0
    mean1 = np.exp(log_c - s * np.log(anchor)) * length

    # (b, inf), in units v = tau w with v0 = tau b >= 1: the density
    # v^k e^(-v), k = -1-sigma, lies below v0^k e^(-v0) env e^(-lam (v-v0))
    k = -1.0 - s
    v0 = t * b
    lam = 1.0 if k <= 0 else max(1.0 / (1.0 + k), 1.0 - k / v0)
    v_top = v0 if k <= 0 else max(v0, k / (1.0 - lam))
    log_env = k * np.log(v_top / v0) - (1.0 - lam) * (v_top - v0)
    mean2 = np.exp(log_c + k * np.log(b) - v0 + log_env - np.log(lam * t))
    _check_proposal_means({"the CRM proposal count on (eps, b]": mean1,
                           "the CRM proposal count on (b, inf)": mean2})

    n1 = rng.poisson(mean1)
    w1 = rng.random(n1)
    if s != 0.0:    # log(w / anchor), which is x for sigma > 0 and -x for sigma < 0
        w1 *= np.expm1(-r)
        np.log1p(w1, out=w1)
        w1 /= -s
    else:
        w1 *= big_l
    np.exp(w1, out=w1)
    w1 *= anchor
    k1 = _thin(w1, t, rng)

    n2 = rng.poisson(mean2)
    w2 = b + rng.exponential(1.0 / (lam * t), size=n2)
    log_keep = k * np.log(w2 / b) - (1.0 - lam) * t * (w2 - b) - log_env
    w2 = w2[rng.random(n2) < np.exp(log_keep)]

    w = np.concatenate([w1[:k1], w2])
    return np.maximum(w, floor, out=w), n1 + n2


def sample_crm_truncated(params, eps, rng):
    """Atoms of the restricted CRM with weights above eps.

    The weights are the points of a Poisson process with intensity
    alpha rho(w) on (eps, inf), drawn by exact Poisson thinning of two
    closed-form envelopes for tau > 0 (no special function is evaluated
    per atom) and by closed-form tail inversion for tau = 0. The mean mass
    below eps is recorded as remainder (it never spawns edges).
    """
    if not (np.isfinite(eps) and eps > 0):
        raise DomainError(f"eps must be finite and positive, got {eps}")
    w, _ = _crm_weights(params, eps, rng)
    return CrmSample(w, remainder_mass=expected_truncation_mass(params, eps))


def _directed_conditional(sample, rng):
    """Directed multigraph given weights, plus the node -> atom index map.

    D* ~ Poisson(W*^2), and each of the 2 D* endpoints is an atom drawn
    with probability proportional to its weight. The endpoints are drawn
    exactly as rng.choice(len(w), 2 D*, p=w / w.sum()) draws them: the
    same cdf, the same uniforms, the same right-sided search, so the draw
    and the generator state after it equal choice's bit for bit. The
    uniforms are searched in sorted order, which walks the cdf forward
    instead of making 2 D* cache-missing binary searches over it, and
    which yields the atom indices already sorted: distinct atoms and each
    endpoint's node label then follow from adjacent differences, with no
    second sort. The cdf is normalised in place, and the search gathers
    the sorted uniforms _DRAW_BLOCK at a time instead of as one whole
    sorted copy; the labels' cumulative sum reuses the atom-index buffer.
    So the search holds the cdf and three arrays of 2 D* entries, and
    nothing else of a multi-MiB size: at the paper's scale 7.4 MiB over the
    weights, against 8.3 MiB with whole-array temporaries. The blocks make
    the same generator draws, so they change no output.
    DomainError for a negative or non-finite weight, and for a total W*
    whose square passes numpy's Poisson limit (about 9.2e18).
    """
    w = sample.weights
    total = w.sum()
    # NaN and -inf fail the compare; +inf makes the total too large
    if not (np.all(w >= 0) and total <= _MAX_TOTAL_MASS):
        raise DomainError(
            f"weights must be >= 0 with a sum of at most {_MAX_TOTAL_MASS:.6g}, so that "
            f"W*^2 is within numpy's Poisson limit; got sum {total:.6g}")
    n_edges = rng.poisson(total * total)
    if n_edges == 0:
        none = np.empty(0, np.int64)
        return DirectedMultigraph(0, none, none), none
    cdf = np.divide(w, total)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    u = rng.random(2 * n_edges)
    order = np.argsort(u)
    atoms = np.empty(len(u), np.int64)
    for lo in range(0, len(u), _DRAW_BLOCK):
        block = order[lo:lo + _DRAW_BLOCK]
        atoms[lo:lo + len(block)] = cdf.searchsorted(u[block], side="right")
    del cdf, u
    first = np.empty(len(atoms), bool)
    first[0] = True
    np.not_equal(atoms[1:], atoms[:-1], out=first[1:])
    atom_ids = atoms[first]
    np.cumsum(first, out=atoms)    # each sorted endpoint's node label, plus 1
    atoms -= 1
    labels = np.empty(len(atoms), np.int64)
    labels[order] = atoms
    return DirectedMultigraph(len(atom_ids), labels[0::2], labels[1::2]), atom_ids


def sample_directed_conditional(sample, rng):
    """D* ~ Poisson(W*^2); each of the 2 D* endpoints i.i.d. proportional to
    weights, the edges listed in the order drawn."""
    d, _ = _directed_conditional(sample, rng)
    return d


def _strip_self_loops(z):
    keep = z.edge_i != z.edge_j
    return compact_graph(z.edge_i[keep], z.edge_j[keep])


def sample_undirected_ggp(config, rng=None):
    """Draw (Z, generating CrmSample) via truncation + conditional Poisson.

    The returned sample is restricted to the atoms that became graph nodes,
    ordered by node id, so it serves as ground truth for recovery tests.
    Only the truncated path has that ground truth: DomainError for another.
    """
    if config.path != "truncated":
        raise DomainError(f"sample_undirected_ggp draws the truncated path, not {config.path!r}")
    if rng is None:
        rng = rng_stream(config.seed)
    crm = sample_crm_truncated(config.params, config.truncation_eps, rng)
    d, atom_ids = _directed_conditional(crm, rng)
    z = to_undirected(d)
    if not config.include_self_loops:
        z, kept = _strip_self_loops(z)
        atom_ids = atom_ids[kept]
    return z, CrmSample(crm.weights[atom_ids], remainder_mass=crm.remainder_mass)


def sample_gamma_urn(alpha, tau, rng):
    """Exact gamma-process (sigma = 0) multigraph via the Blackwell-MacQueen urn.

    W* ~ Gamma(alpha, tau), D* ~ Poisson(W*^2); endpoint labels follow the
    urn: a new node with probability alpha/(alpha+n), an existing node j
    with probability m_j/(alpha+n). Choosing an existing node proportional
    to multiplicity is done by copying a uniformly chosen past endpoint.
    """
    if not (np.isfinite(alpha) and np.isfinite(tau) and alpha > 0 and tau > 0):
        raise DomainError(f"gamma urn requires finite alpha > 0 and tau > 0, "
                          f"got alpha={alpha}, tau={tau}")
    total = rng.gamma(alpha, 1.0 / tau)
    n_edges = _poisson_count(total * total, rng, "the urn's edge count D*")
    labels = np.empty(2 * n_edges, dtype=np.int64)
    n_distinct = 0
    for n in range(2 * n_edges):
        if rng.uniform() * (alpha + n) < alpha:
            labels[n] = n_distinct
            n_distinct += 1
        else:
            labels[n] = labels[rng.integers(n)]
    return DirectedMultigraph(n_distinct, labels[0::2], labels[1::2])


def sample_kallenberg(params, eps, rng):
    """Undirected graph from the thinned unit-rate mark construction.

    Unit-rate marks theta on [0, alpha rhobar(eps)] map to weights through
    the inverse tail intensity. Given the weights, the edges follow the same
    law as on the truncated path, and are drawn by the same directed
    conditional: {i, j} is an edge with probability 1 - exp(-2 w_i w_j), and
    i has a self-loop with 1 - exp(-w_i^2). Isolated nodes drop, and nodes
    are numbered by atom index. For sigma < 0 the activity is finite,
    rhobar(0+) = tau^sigma / (-sigma), and rhobar^-1(theta) =
    H^-1(1 - theta / rhobar(0+)) with H the Gamma(-sigma, tau) cdf: all
    alpha rhobar(0+) marks are kept, their uniforms go through H^-1
    directly, and eps is unused.

    DomainError before any draw when the expected mark count passes numpy's
    Poisson limit or MAX_KALLENBERG_ATOMS. At alpha 300, sigma 0.5, tau 1
    the cap is eps = 1.27e-8; the paper's eps = 1e-6 expects 3.4e5 atoms
    and took about 5 s, nearly all of it inverting the tail intensity.
    """
    finite = params.sigma < 0
    # tail_intensity raises DomainError for eps <= 0
    bound = params.alpha * (total_tail_mass(params) if finite else tail_intensity(params, eps))
    _check_poisson_mean(bound, "the mark count")
    if bound > MAX_KALLENBERG_ATOMS:
        raise DomainError(f"the Kallenberg draw expects {bound:.6g} atoms (their Poisson mean), "
                          f"more than MAX_KALLENBERG_ATOMS = {MAX_KALLENBERG_ATOMS:.6g}; "
                          + ("use the truncated path" if finite else "raise eps"))
    k = rng.poisson(bound)
    if finite:
        w = gammaincinv(-params.sigma, rng.uniform(size=k)) * (1.0 / params.tau)
    else:
        marks = rng.uniform(0.0, bound, size=k)
        w = inv_tail_intensity(params, marks / params.alpha)
    return to_undirected(_directed_conditional(CrmSample(w), rng)[0])


# the cross-validation paths: each keeps its self-loops and has no isolated nodes
_PATH_SAMPLERS = {
    "urn": lambda params, eps, rng: to_undirected(
        sample_gamma_urn(params.alpha, params.tau, rng)),
    "kallenberg": sample_kallenberg,
}
SIM_PATHS = ("truncated", *_PATH_SAMPLERS)


def sample_graph(config, rng=None):
    """Dispatch one undirected draw over the configured generative path.

    The truncated path drops self-loops itself, to keep its ground truth
    aligned; the others drop them here.
    """
    if rng is None:
        rng = rng_stream(config.seed)
    if config.path == "truncated":
        return sample_undirected_ggp(config, rng)[0]
    z = _PATH_SAMPLERS[config.path](config.params, config.truncation_eps, rng)
    return z if config.include_self_loops else _strip_self_loops(z)[0]
