"""Generative paths for GGP random graphs.

All paths target the same hierarchy: a (truncated) CRM draw gives node
weights, the directed multigraph is Poisson given the squared total mass,
and the undirected graph keeps one edge per connected unordered pair. The
truncated path draws the CRM atoms above eps by exact Poisson thinning of
closed-form envelopes. The gamma-process urn, the Kallenberg construction
(unit-rate marks through the numerically inverted tail intensity) and the
compound Poisson jumps of a sigma < 0 GGP are independent, distributionally
equivalent alternatives used for cross-validation. Every path finishes a
draw by the same rules: a draw with no atoms is an empty graph, isolated
nodes drop, self-loops drop when include_self_loops is false, and nodes are
numbered in the order of the atoms they come from.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv, gammaln

from .errors import DomainError
from .graphs import CrmSample, DirectedMultigraph, compact_graph, to_undirected
from .levy import (
    expected_truncation_mass,
    inv_tail_intensity,
    tail_intensity,
    total_tail_mass,
)
from .params import GgpParams, rng_stream

DEFAULT_EPS = 1e-6


@dataclass(frozen=True)
class SimConfig:
    """Configuration for one graph draw."""

    params: GgpParams
    truncation_eps: float = DEFAULT_EPS
    seed: int = 0
    path: str = "truncated"
    include_self_loops: bool = True

    def __post_init__(self):
        if self.truncation_eps <= 0:
            raise DomainError("truncation_eps must be positive")
        if self.path not in SIM_PATHS:
            raise DomainError(f"unknown simulation path {self.path!r}")
        if self.path == "urn" and self.params.sigma != 0.0:
            raise DomainError("the urn path is exact only for sigma = 0")


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

    For tau = 0 (then 0 < sigma < 1) the tail intensity inverts in closed
    form, so the weights are drawn directly.
    """
    a, s, t = params.alpha, params.sigma, params.tau
    if t == 0.0:
        rate = tail_intensity(params, eps)
        k = rng.poisson(a * rate)
        w = inv_tail_intensity(params, rng.uniform(size=k) * rate)
        return np.maximum(w, np.nextafter(eps, np.inf)), k

    log_c = np.log(a) - gammaln(1.0 - s)
    b = max(eps, 1.0 / t)

    # (eps, b]: with x = log(w/eps) for sigma >= 0, or x = log(b/w) for
    # sigma < 0, the proposal law of x on [0, L] has cdf
    # expm1(-|sigma| x) / expm1(-|sigma| L), which expm1 and log1p invert
    # without cancellation as sigma -> 0 from either side
    big_l = np.log(b / eps)
    r = abs(s) * big_l
    anchor = eps if s >= 0 else b
    length = -np.expm1(-r) / abs(s) if s != 0.0 else big_l
    n1 = rng.poisson(np.exp(log_c - s * np.log(anchor)) * length)
    u = rng.random(n1)
    x = -np.log1p(u * np.expm1(-r)) / abs(s) if s != 0.0 else u * big_l
    w1 = eps * np.exp(x) if s >= 0 else b * np.exp(-x)
    w1 = w1[rng.random(n1) < np.exp(-t * w1)]

    # (b, inf), in units v = tau w with v0 = tau b >= 1: the density
    # v^k e^(-v), k = -1-sigma, lies below v0^k e^(-v0) env e^(-lam (v-v0))
    k = -1.0 - s
    v0 = t * b
    lam = 1.0 if k <= 0 else max(1.0 / (1.0 + k), 1.0 - k / v0)
    v_top = v0 if k <= 0 else max(v0, k / (1.0 - lam))
    log_env = k * np.log(v_top / v0) - (1.0 - lam) * (v_top - v0)
    n2 = rng.poisson(np.exp(log_c + k * np.log(b) - v0 + log_env - np.log(lam * t)))
    w2 = b + rng.exponential(1.0 / (lam * t), size=n2)
    log_keep = k * np.log(w2 / b) - (1.0 - lam) * t * (w2 - b) - log_env
    w2 = w2[rng.random(n2) < np.exp(log_keep)]

    w = np.concatenate([w1, w2])
    return np.maximum(w, np.nextafter(eps, np.inf)), n1 + n2


def sample_crm_truncated(params, eps, rng):
    """Atoms of the restricted CRM with weights above eps.

    The weights are the points of a Poisson process with intensity
    alpha rho(w) on (eps, inf), drawn by exact Poisson thinning of two
    closed-form envelopes for tau > 0 (no special function is evaluated
    per atom) and by closed-form tail inversion for tau = 0; locations are
    uniform on [0, alpha]. The mean mass below eps is recorded as remainder
    (it never spawns edges).
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    w, _ = _crm_weights(params, eps, rng)
    theta = rng.uniform(0.0, params.alpha, size=len(w))
    return CrmSample(w, theta, remainder_mass=expected_truncation_mass(params, eps))


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
    second sort. DomainError for a negative or non-finite weight.
    """
    w = sample.weights
    total = w.sum()
    # NaN and -inf fail the compare; +inf makes the total infinite
    if not (np.all(w >= 0) and np.isfinite(total)):
        raise DomainError("weights must be >= 0 with a finite sum")
    n_edges = rng.poisson(total * total)
    if n_edges == 0:
        none = np.empty(0, np.int64)
        return DirectedMultigraph(0, none, none), none
    cdf = (w / total).cumsum()
    cdf /= cdf[-1]
    u = rng.random(2 * n_edges)
    order = np.argsort(u)
    atoms = cdf.searchsorted(u[order], side="right")
    del cdf, u    # freed early, so the conditional peaks below the CRM draw in memory
    first = np.diff(atoms, prepend=-1) != 0
    labels = np.empty(len(atoms), np.int64)
    labels[order] = np.cumsum(first)
    labels -= 1
    atom_ids = atoms[first]
    return DirectedMultigraph(len(atom_ids), labels[0::2], labels[1::2]), atom_ids


def sample_directed_conditional(sample, rng):
    """D* ~ Poisson(W*^2); each of the 2 D* endpoints i.i.d. proportional to weights."""
    d, _ = _directed_conditional(sample, rng)
    return d


def _strip_self_loops(z):
    keep = z.edge_i != z.edge_j
    return compact_graph(z.edge_i[keep], z.edge_j[keep])


def sample_undirected_ggp(config, rng=None):
    """Draw (Z, generating CrmSample) via truncation + conditional Poisson.

    The returned sample is restricted to the atoms that became graph nodes,
    ordered by node id, so it serves as ground truth for recovery tests.
    """
    if rng is None:
        rng = rng_stream(config.seed)
    crm = sample_crm_truncated(config.params, config.truncation_eps, rng)
    d, atom_ids = _directed_conditional(crm, rng)
    z = to_undirected(d)
    if not config.include_self_loops:
        z, kept = _strip_self_loops(z)
        atom_ids = atom_ids[kept]
    node_sample = CrmSample(
        crm.weights[atom_ids],
        None if crm.locations is None else crm.locations[atom_ids],
        remainder_mass=crm.remainder_mass,
    )
    return z, node_sample


def sample_gamma_urn(alpha, tau, rng):
    """Exact gamma-process (sigma = 0) multigraph via the Blackwell-MacQueen urn.

    W* ~ Gamma(alpha, tau), D* ~ Poisson(W*^2); endpoint labels follow the
    urn: a new node with probability alpha/(alpha+n), an existing node j
    with probability m_j/(alpha+n). Choosing an existing node proportional
    to multiplicity is done by copying a uniformly chosen past endpoint.
    """
    if alpha <= 0 or tau <= 0:
        raise DomainError("gamma urn requires alpha > 0 and tau > 0")
    total = rng.gamma(alpha, 1.0 / tau)
    n_edges = rng.poisson(total * total)
    labels = np.empty(2 * n_edges, dtype=np.int64)
    n_distinct = 0
    for n in range(2 * n_edges):
        if rng.uniform() * (alpha + n) < alpha:
            labels[n] = n_distinct
            n_distinct += 1
        else:
            labels[n] = labels[rng.integers(n)]
    return DirectedMultigraph(n_distinct, labels[0::2], labels[1::2])


def _bernoulli_pair_edges(w, rng, chunk=512):
    """Edges i < j with p_ij = 1 - exp(-2 w_i w_j) and self-loops with
    p_ii = 1 - exp(-w_i^2), drawn in chunks of rows."""
    k = len(w)
    ei, ej = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for start in range(0, k, chunk):
        stop = min(start + chunk, k)
        rows = np.arange(start, stop)
        # upper triangle only: columns j > i
        p = -np.expm1(-2.0 * np.outer(w[rows], w))
        mask = rng.random(p.shape) < p
        cols = np.arange(k)
        tri = cols[None, :] > rows[:, None]
        r, c = np.nonzero(mask & tri)
        ei.append(rows[r])
        ej.append(c)
        p_loop = -np.expm1(-(w[rows] ** 2))
        loop = rng.random(len(rows)) < p_loop
        ei.append(rows[loop])
        ej.append(rows[loop])
    return np.concatenate(ei), np.concatenate(ej)


def sample_kallenberg(params, eps, rng):
    """Undirected graph from the thinned unit-rate mark construction.

    Unit-rate marks on [0, alpha rhobar(eps)] map to weights through the
    inverse tail intensity; each unordered pair is edged independently with
    the pair probability of the weight construction. Isolated nodes drop.
    """
    if params.sigma < 0:
        raise DomainError("Kallenberg path requires infinite activity (sigma >= 0)")
    if eps <= 0:
        raise DomainError("eps must be positive")
    bound = params.alpha * tail_intensity(params, eps)
    k = rng.poisson(bound)
    marks = rng.uniform(0.0, bound, size=k)
    w = inv_tail_intensity(params, marks / params.alpha)
    ei, ej = _bernoulli_pair_edges(w, rng)
    return compact_graph(ei, ej)[0]


def gamma_weight_quantile(sigma, tau):
    """H^-1 for the sigma < 0 GGP, whose jumps are i.i.d. Gamma(-sigma, tau)."""
    if sigma >= 0 or tau <= 0:
        raise DomainError("gamma jumps require sigma < 0 and tau > 0")
    return lambda u: gammaincinv(-sigma, u) * (1.0 / tau)


def _compound_poisson_path(params, eps, rng):
    """Graphon-style draw for finite activity (sigma < 0).

    Poisson(alpha rhobar(0+)) i.i.d. Gamma(-sigma, tau) jumps; each pair is
    edged with 1 - exp(-2 w_i w_j) and each node looped with 1 - exp(-w_i^2).
    As on the other paths, nodes without an edge are not part of the graph.
    DomainError for sigma >= 0.
    """
    hinv = gamma_weight_quantile(params.sigma, params.tau)
    n = rng.poisson(params.alpha * total_tail_mass(params))
    ei, ej = _bernoulli_pair_edges(hinv(rng.uniform(size=n)), rng)
    return compact_graph(ei, ej)[0]


# the cross-validation paths: each keeps its self-loops and has no isolated nodes
_PATH_SAMPLERS = {
    "urn": lambda params, eps, rng: to_undirected(
        sample_gamma_urn(params.alpha, params.tau, rng)),
    "kallenberg": sample_kallenberg,
    "compound-poisson": _compound_poisson_path,
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
