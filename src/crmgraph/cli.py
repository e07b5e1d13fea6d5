"""Command-line interface.

Subcommands: sample, fit, test-sparsity, ppc, scaling, diag. Exit codes:
0 success, 2 usage error, 1 runtime error.
"""

import argparse
import dataclasses
import sys
import time

import numpy as np

from . import __version__
from .diagnostics import (
    credible_interval,
    ess,
    posterior_predictive_degrees,
    psrf,
    scaling_experiment,
    sparsity_test,
    stalled_hmc_warnings,
)
from .errors import CrmGraphError
from .graphio import (
    read_edge_list,
    read_trace_csv,
    write_csv,
    write_edge_list,
    write_sidecar,
    write_trace_csv,
)
from .inference import HMC_TARGET_ACCEPT, PARAM_FIELDS, McmcConfig, run_chains
from .params import GgpParams
from .simulate import DEFAULT_EPS, SIM_PATHS, SimConfig, sample_graph


def _add_model_args(p):
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)


def _add_fit_args(p):
    p.add_argument("graph", help="edge-list file to fit")
    p.add_argument("--n-iter", type=int, default=20000)
    p.add_argument("--n-chains", type=int)
    p.add_argument("--adapt-iters", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--seed", type=int)


def build_parser():
    """A sample, fit or test-sparsity flag not given for a SimConfig or McmcConfig
    field is absent from the namespace (SUPPRESS), so the config's default applies."""
    parser = argparse.ArgumentParser(
        prog="crmgraph",
        description="Sparse random graphs from completely random measures",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a graph and write an edge list",
                       argument_default=argparse.SUPPRESS)
    _add_model_args(p)
    p.add_argument("--eps", type=float, dest="truncation_eps", metavar="EPS")
    p.add_argument("--seed", type=int)
    p.add_argument("--path", choices=SIM_PATHS)
    p.add_argument("--no-self-loops", action="store_false", dest="include_self_loops")
    p.add_argument("--out", default="graph.txt")

    p = sub.add_parser("fit", help="run MCMC on an edge-list graph",
                       argument_default=argparse.SUPPRESS)
    _add_fit_args(p)
    p.add_argument("--out", default="trace.csv")

    p = sub.add_parser("test-sparsity", help="fit, then report Pr(sigma >= 0 | data)",
                       argument_default=argparse.SUPPRESS)
    _add_fit_args(p)
    p.add_argument("--out", default="sparsity.json")
    p.add_argument("--trace-out", default=None)

    p = sub.add_parser("ppc", help="posterior-predictive degree bands from a trace")
    p.add_argument("trace", help="trace CSV from fit")
    p.add_argument("--graph", default=None, help="observed edge list for overlay")
    p.add_argument("--n-draws", type=int, default=200)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="ppc.csv")

    p = sub.add_parser("scaling", help="edge/node scaling experiment")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--alpha-grid", type=float, nargs="+", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--out", default="scaling.csv")

    p = sub.add_parser("diag", help="PSRF and credible intervals from stored traces")
    p.add_argument("trace", help="trace CSV from fit")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", default=None, help="optional param,psrf CSV")
    return parser


def _config(cls, args, **fields):
    """cls from the flags given for its fields, plus fields; cls's defaults fill the rest."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names}, **fields)


def _cmd_sample(args):
    params = GgpParams(args.alpha, args.sigma, args.tau)
    cfg = _config(SimConfig, args, params=params)
    z = sample_graph(cfg)
    write_edge_list(z, args.out, header=f"crmgraph sample seed={cfg.seed}")
    write_sidecar(args.out + ".json", {
        "alpha": params.alpha, "sigma": params.sigma, "tau": params.tau,
        "eps": cfg.truncation_eps, "seed": cfg.seed, "path": cfg.path,
        "include_self_loops": cfg.include_self_loops,
        "n_nodes": z.n_nodes, "n_edges": z.n_edges,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })
    print(f"wrote {z.n_nodes} nodes, {z.n_edges} edges to {args.out}")
    return 0


def _fit(args):
    cfg = _config(McmcConfig, args)            # a bad setting is reported before the graph is read
    traces = run_chains(read_edge_list(args.graph).graph, cfg)
    for message in stalled_hmc_warnings(traces):
        print(f"warning: {message}", file=sys.stderr)
    return traces


def _cmd_fit(args):
    traces = _fit(args)
    write_trace_csv(traces, args.out)
    print(f"wrote {sum(len(t) for t in traces)} kept samples to {args.out}")
    return 0


def _cmd_test_sparsity(args):
    start = time.time()
    traces = _fit(args)
    if args.trace_out:
        write_trace_csv(traces, args.trace_out)
    result = sparsity_test(traces)
    doc = {
        "p_sparse": result.p_sparse,
        "ci_sigma": result.ci_sigma,
        "max_psrf": result.max_psrf,
        "ess_sigma": result.ess_sigma,
        "mcse_p_sparse": result.mcse_p_sparse,
        "target_accept": HMC_TARGET_ACCEPT,
        "hmc_accept_post_adapt": [t.accept_rates["hmc_post_adapt"] for t in traces],
        "hyper_accept_post_adapt": [t.accept_rates["hyper_post_adapt"] for t in traces],
        "hyper_walk_sd": [t.meta["hyper_walk_sd"] for t in traces],
        "runtime": time.time() - start,
    }
    if result.warning:
        doc["warning"] = result.warning
    write_sidecar(args.out, doc)
    print(f"p_sparse={result.p_sparse:.4f} ci_sigma=({result.ci_sigma[0]:.4f}, "
          f"{result.ci_sigma[1]:.4f})")
    return 0


def _cmd_ppc(args):
    traces = read_trace_csv(args.trace)
    observed = read_edge_list(args.graph).graph if args.graph else None
    bands = posterior_predictive_degrees(
        traces, args.n_draws, args.eps, observed=observed, seed=args.seed
    )
    extra = ["observed"] if "observed" in bands else []
    rows = []
    for b, (lo, hi) in enumerate(zip(bands["bin_lo"], bands["bin_hi"])):
        label = f"{lo}" if lo == hi else f"{lo}-{hi}"
        rows.append([label] + [bands[k][b] for k in ["lo", "median", "hi", *extra]])
    write_csv(args.out, ["degree_bin", "lo", "median", "hi", *extra], rows)
    print(f"wrote {len(rows)} degree bins to {args.out}")
    return 0


def _cmd_scaling(args):
    rows, slope = scaling_experiment(
        args.sigma, args.tau, args.alpha_grid, args.seeds, eps=args.eps
    )
    write_csv(args.out, ["alpha", "seed", "n_nodes", "n_edges"], rows)
    print(f"slope={slope:.4f}")
    return 0


def _cmd_diag(args):
    traces = read_trace_csv(args.trace)
    report = psrf(traces)
    print("param,psrf")
    for name, val in report.psrf.items():
        print(f"{name},{val:.6f}")
    print(f"max_psrf={report.max_psrf:.6f}")
    pooled = {k: np.concatenate([t[k] for t in traces]) for k in PARAM_FIELDS}
    for name, samples in pooled.items():
        lo, hi = credible_interval(samples, args.level)
        print(f"ci[{name}]=({lo:.6f}, {hi:.6f})")
    for name in PARAM_FIELDS:
        print(f"ess[{name}]={sum(ess(t[name]) for t in traces):.1f}")
    if args.out:
        write_csv(args.out, ["param", "psrf"],
                  [[name, f"{val:.17g}"] for name, val in report.psrf.items()])
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "fit": _cmd_fit,
    "test-sparsity": _cmd_test_sparsity,
    "ppc": _cmd_ppc,
    "scaling": _cmd_scaling,
    "diag": _cmd_diag,
}


def cli_dispatch(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (CrmGraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
