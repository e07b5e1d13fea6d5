"""crmgraph benchmark: one workload, one seed, a fixed measuring window.

    python3 bench/run.py --workload sample-paper --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ``src/`` next to
this directory. Human-readable lines go to stdout, and the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a run
with timing wrappers installed with ``--trace 1``. Full samples, digests and
provenance (plus spans, when traced) are written under ``.bench_out/``.
"""

import os

# Pin the BLAS and OpenMP pools to one thread before numpy is imported, so
# that pool threads do not compete with the measured thread on a small host.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
# Address-space cap for this process and its set-up probes. With sigma just
# below 0, sample_total_mass materialises Poisson(alpha/|sigma|) jumps, which
# can ask for gigabytes; under the cap such a draw fails with MemoryError and
# counts as a failed operation instead of exhausting a shared machine.
ADDRESS_SPACE_CAP = 2 << 30
WORKLOAD_NAMES = ("sample-paper", "fit-paper", "sparsity-boundary")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10

# Metrics derived from other counters of the same operation.
RATIOS = {
    "simulate.node_yield": ("simulate.nodes", "simulate.atoms"),
    "inference.stepsize": ("inference.stepsize_sum", "inference.chains"),
    "inference.hmc_update.accept": ("inference.hmc_update.accepted", "inference.hmc_update.calls"),
    "inference.hyper_update.accept": ("inference.hyper_update.accepted",
                                      "inference.hyper_update.calls"),
    "inference.compute_m.calls_per_iter": ("inference.compute_m.calls",
                                           "inference.hmc_update.calls"),
}


class BenchError(Exception):
    """The benchmark cannot run here: no package source, bad input, failed probe."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description="crmgraph benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        ap.error("--seed must be in [0, 2**32)")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def load_spec():
    """Metric names and units of the result line, as BENCHMARK.json lists them.

    Returns (end-to-end {name: unit}, per-layer {name: unit}). A traced run
    also prints every other span it recorded without putting it in the result
    line. See bench/README.md for the end-to-end metric each per-layer one
    should move.
    """
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def cap_address_space():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return resource.getrlimit(resource.RLIMIT_AS)[0]


def import_package():
    """Import crmgraph from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "crmgraph" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src / 'crmgraph'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import crmgraph
    if Path(crmgraph.__file__).resolve().parent != (src / "crmgraph").resolve():
        raise BenchError(f"imported crmgraph from {crmgraph.__file__}, not from {src}")
    import workloads
    return crmgraph, workloads


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(address_cap):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pools": {v: os.environ[v] for v in THREAD_VARS},
        "address_space_cap_bytes": address_cap,
    }


def summarize(samples):
    """Median, the highest listed percentile with >= 10 samples beyond it, and n."""
    import numpy as np
    n = len(samples)
    tail = None
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            tail = (p, float(np.percentile(samples, p)))
            break
    return {"median": statistics.median(samples), "n": n, "tail": tail}


def run_setup_probes(args, speed):
    """Time SETUP_PROBES fresh interpreters doing this workload's set-up.

    Returns (wall seconds, mean host-speed probe seconds around each).
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    walls, probes = [], []
    before = speed.measure()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed (exit {proc.returncode}):\n{proc.stderr}")
        after = speed.measure()
        probes.append(0.5 * (before + after))
        before = after
    return walls, probes


def per_layer_values(tracer, ok_ops, per_layer):
    """Median over successful operations of each per-layer metric and span time.

    A metric whose layer the workload never calls reads 0.
    """
    rows = tracer.per_op()
    names = set(per_layer)
    for row in rows.values():
        for name, (num, den) in RATIOS.items():
            if row.get(den):
                row[name] = row.get(num, 0) / row[den]
        names.update(n for n in row if n.endswith((".s", ".self_s")))
    out = {}
    for name in sorted(names):
        vals = [rows[k][name] for k in ok_ops if k in rows and name in rows[k]]
        out[name] = float(statistics.median(vals)) if vals else 0.0
    return out


def recheck_untraced(workload, k, traced, traced_probe_s, speed):
    """Repeat operation k without wrappers.

    Returns (digests equal, overhead): overhead is the traced over the
    untraced time of the operation, each divided by the host-speed probe
    beside it, minus 1. Both are None when the repeat itself fails.
    """
    before = speed.measure()
    again = workload.step(k)
    probe = 0.5 * (before + speed.measure())
    if any(o.error for o in again):
        return None, None
    overhead = (traced[0].seconds / traced_probe_s) / (again[0].seconds / probe) - 1.0
    return [o.digest for o in again] == [o.digest for o in traced], overhead


def report_lines(name, workload_mod, summaries, peak_rss, attempted, failed):
    def fmt(label, s, unit, scale=1.0):
        tail = (f"p{s['tail'][0]:g} {s['tail'][1] * scale:.6g}" if s["tail"]
                else f"no percentile has {MIN_BEYOND} samples beyond it")
        return f"{label:<16} median {s['median'] * scale:.6g} {unit} (n={s['n']}; {tail})"

    lines = [fmt("setup_s", summaries["setup_s"], "s at the probe's reference speed"),
             fmt("setup_wall_s", summaries["setup_wall_s"], "s, wall")]
    wall = summaries["op_wall_s"]
    if name == "sample-paper":
        lines.append(fmt("sample_s", wall, "s/graph, wall"))
    elif name == "fit-paper":
        lines.append(fmt("fit_ms_per_iter", wall, "ms, wall", 1000.0 / workload_mod.FIT_ITERS))
    else:
        lines.append(fmt("sparsity_s", wall, "s, wall"))
    lines.append(fmt("op_s", summaries["op_s"], "s at the probe's reference speed"))
    lines.append(fmt("probe_s", summaries["probe_s"], "s, host-speed probe"))
    if "load_s" in summaries:
        lines.append(fmt("load_s", summaries["load_s"], "s/graph, wall"))
    lines.append(f"{'peak_rss_mb':<16} {peak_rss:.1f} MB")
    lines.append(f"{'fail_frac':<16} {failed}/{attempted} = {failed / attempted:.4g}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    address_cap = cap_address_space()
    try:
        end_to_end, per_layer = load_spec()
        _, workloads = import_package()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from hostspeed import REFERENCE_S, HostSpeedProbe
    from spans import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer() if args.trace else None
    workload = workloads.WORKLOADS[args.workload](
        args.seed, OUT_DIR / "work", count=tracer.count if tracer else None)

    if args.setup_probe:
        try:
            workload.setup()
        except workloads.InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    speed = HostSpeedProbe()
    try:
        setup_walls, setup_probes = run_setup_probes(args, speed)
        if tracer:
            from crmgraph import diagnostics, graphio, inference, simulate
            tracer.install({"simulate": simulate, "graphio": graphio,
                            "inference": inference, "diagnostics": diagnostics})
        workload.setup()
    except (BenchError, workloads.InputError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outcomes = []                # (op index, Outcome)
    probe_s = {}                 # op index -> mean probe seconds just before and after
    before = speed.measure()
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        if tracer:
            tracer.op = k
        for o in workload.step(k):
            outcomes.append((k, o))
            if o.error:
                print(f"op {k} {o.metric} failed: {o.error}", file=sys.stderr)
        after = speed.measure()
        probe_s[k] = 0.5 * (before + after)
        before = after
        k += 1

    ok_ops = sorted({i for i, o in outcomes if o.error is None}
                    - {i for i, o in outcomes if o.error is not None})
    transparent, overhead = None, None
    if tracer:
        tracer.uninstall()
        if ok_ops:
            # The last operation runs in a warm process, as the repeat does.
            last = [o for i, o in outcomes if i == ok_ops[-1]]
            transparent, overhead = recheck_untraced(workload, ok_ops[-1], last,
                                                     probe_s[ok_ops[-1]], speed)

    attempted = len(outcomes)
    failed = sum(o.error is not None for _, o in outcomes)
    gate_failed = any(o.error and o.error.startswith("gate:") for _, o in outcomes)
    ops = [(i, o.seconds) for i, o in outcomes if o.metric == "op_s" and not o.error]
    samples = {"setup_s": [w * REFERENCE_S / p for w, p in zip(setup_walls, setup_probes)],
               "setup_wall_s": setup_walls,
               "op_s": [s * REFERENCE_S / probe_s[i] for i, s in ops],
               "op_wall_s": [s for _, s in ops],
               "probe_s": list(probe_s.values()),
               "load_s": [o.seconds for _, o in outcomes if o.metric == "load_s" and not o.error]}
    if not samples["op_s"]:
        print("error: no operation completed; nothing to report", file=sys.stderr)
        return 1
    summaries = {name: summarize(vals) for name, vals in samples.items() if vals}
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    prov = provenance(address_cap)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for line in report_lines(args.workload, workloads, summaries, peak_rss, attempted, failed):
        print(line)
    for i, o in outcomes:
        if o.digest:
            print(f"digest op {i} {o.metric} sha256 {o.digest}")

    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "provenance": prov, "samples": samples,
           "summaries": summaries, "peak_rss_mb": peak_rss,
           "attempted": attempted, "failed": failed,
           "outcomes": [{"op": i, **vars(o)} for i, o in outcomes]}
    if tracer:
        layer = per_layer_values(tracer, ok_ops, per_layer)
        layer["process.peak_rss_mb"] = peak_rss
        layer["trace.overhead_frac"] = overhead if overhead is not None else 0.0
        if ok_ops:
            print(f"traced digests equal untraced on op {ok_ops[-1]}: {transparent}; "
                  f"overhead (traced / untraced time - 1): {overhead}")
        for name, unit in per_layer.items():
            print(f"{name:<40} {layer[name]:.6g} {unit}")
        for name in sorted(set(layer) - set(per_layer)):
            if layer[name]:
                print(f"{name:<40} {layer[name]:.6g} s (span, not in the result line)")
        for name, value in sorted(tracer.per_op().get(-1, {}).items()):
            if name.endswith(".s"):
                print(f"set-up span {name:<28} {value:.6g} s (not in the result line)")
        doc.update(per_layer=layer, traced_digests_equal_untraced=transparent)
        with open(OUT_DIR / f"{tag}.spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        metrics = {n: {"value": layer[n], "unit": u} for n, u in per_layer.items()}
    else:
        metrics = {n: {"value": summaries[n]["median"], "unit": u} for n, u in end_to_end.items()}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(doc, indent=1, default=str) + "\n")

    correct = not gate_failed and transparent is not False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
