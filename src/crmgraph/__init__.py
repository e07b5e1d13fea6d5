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
    ParseError,
    SchemaError,
    TooFewChainsError,
    TooFewSamplesError,
)
from .graphio import (
    read_edge_list,
    read_trace_csv,
    write_edge_list,
    write_trace_csv,
)
from .graphs import (
    CrmSample,
    DirectedMultigraph,
    UndirectedGraph,
    multigraph_degree_fractions,
    to_undirected,
)
from .inference import (
    ChainTrace,
    McmcConfig,
    McmcState,
    grad_log_posterior,
    log_posterior,
    run_chain,
    run_chains,
)
from .levy import (
    inv_tail_intensity,
    laplace_exponent,
    levy_density,
    tail_intensity,
)
from .params import GgpParams, rng_stream
from .simulate import (
    SimConfig,
    sample_crm_truncated,
    sample_directed_conditional,
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
