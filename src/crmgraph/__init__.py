"""Sparse exchangeable random graphs from generalized gamma processes."""

__version__ = "0.1.0"

from .diagnostics import (
    PsrfReport,
    SparsityTestResult,
    credible_interval,
    posterior_predictive_degrees,
    powerlaw_check,
    powerlaw_fraction,
    psrf,
    scaling_experiment,
    sparsity_test,
)
from .errors import (
    CrmGraphError,
    DomainError,
    EmptyGraphError,
    InconsistentStateError,
    NonPositiveAlphaError,
    NotInvertibleError,
    OutOfRegionError,
    OverlapError,
    ParseError,
    SchemaError,
    TooFewChainsError,
    TooFewSamplesError,
)
from .graphio import (
    EdgeListSource,
    read_edge_list,
    read_trace_csv,
    write_edge_list,
    write_trace_csv,
)
from .graphs import (
    BipartiteGraph,
    CrmSample,
    DirectedMultigraph,
    UndirectedGraph,
    degree_histogram,
    group_link_probability,
    multigraph_degree_fractions,
    to_undirected,
)
from .inference import (
    ChainTrace,
    McmcConfig,
    McmcState,
    grad_log_posterior,
    load_state,
    log_posterior,
    run_bipartite_gibbs,
    run_chain,
    run_chains,
    save_state,
)
from .levy import (
    inv_tail_intensity,
    kappa,
    laplace_exponent,
    levy_density,
    tail_intensity,
)
from .params import GgpParams, rng_stream
from .simulate import (
    SimConfig,
    sample_bipartite,
    sample_crm_truncated,
    sample_directed_conditional,
    sample_er_equivalent,
    sample_gamma_urn,
    sample_graph,
    sample_kallenberg,
    sample_undirected_ggp,
)
from .totalmass import (
    sample_tilted_total_mass,
    sample_total_mass,
    sample_truncated_poisson,
)
