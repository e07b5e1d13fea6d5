"""Spans around the calls into each crmgraph layer, recorded from outside.

Only a traced run installs these wrappers. Each wrapper replaces a module
attribute that callers look up at call time (``run_chain`` and
``sample_undirected_ggp`` resolve their helpers through module globals), so
no source file of the package changes. A span records its name, start, end,
parent and the operation it belongs to; spans stay in memory until the run
ends. Self time is a span's duration minus that of its direct children,
which nest properly because the package is single-threaded.
"""

import time

# (module, attribute, span name). The span name is the layer that owns the
# code; the attribute is where the caller looks it up.
TARGETS = (
    ("simulate", "sample_undirected_ggp", "simulate.sample_undirected_ggp"),
    ("simulate", "sample_crm_truncated", "simulate.sample_crm_truncated"),
    ("simulate", "inv_tail_intensity", "levy.inv_tail_intensity"),
    ("simulate", "to_undirected", "graphs.to_undirected"),
    ("graphio", "write_edge_list", "graphio.write_edge_list"),
    ("graphio", "read_edge_list", "graphio.read_edge_list"),
    ("inference", "run_chain", "inference.run_chain"),
    ("inference", "hmc_update", "inference.hmc_update"),
    ("inference", "hyper_update", "inference.hyper_update"),
    ("inference", "latent_update", "inference.latent_update"),
    ("inference", "log_posterior", "inference.log_posterior"),
    ("inference", "compute_m", "inference.compute_m"),
    ("inference", "sample_tilted_total_mass", "totalmass.sample_tilted_total_mass"),
    ("inference", "sample_truncated_poisson", "totalmass.sample_truncated_poisson"),
    ("diagnostics", "sparsity_test", "diagnostics.sparsity_test"),
    ("diagnostics", "psrf", "diagnostics.psrf"),
)


def _observe_crm(tracer, result):
    tracer.count("simulate.atoms", len(result.weights))


def _observe_ggp(tracer, result):
    tracer.count("simulate.nodes", result[0].n_nodes)


def _observe_accept(name):
    def observe(tracer, result):
        tracer.count(name + ".accepted", int(bool(result[1])))
    return observe


def _observe_chain(tracer, result):
    tracer.count("inference.chains", 1)
    tracer.count("inference.stepsize_sum", result.meta["stepsize"])


# Counts taken from a layer's return value, keyed by span name.
OBSERVERS = {
    "simulate.sample_crm_truncated": _observe_crm,
    "simulate.sample_undirected_ggp": _observe_ggp,
    "inference.hmc_update": _observe_accept("inference.hmc_update"),
    "inference.hyper_update": _observe_accept("inference.hyper_update"),
    "inference.run_chain": _observe_chain,
}


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1, op index)
        self.counts = []         # (op index, name, amount)
        self.op = -1
        self._stack = []
        self._saved = []

    def count(self, name, amount):
        """Add to a counter of the current operation; ignored while uninstalled."""
        if self._saved:
            self.counts.append((self.op, name, amount))

    def wrap(self, fn, name, observe=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules):
        """Replace every target attribute in ``modules`` (name -> module)."""
        for mod_name, attr, span_name in TARGETS:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, span_name, OBSERVERS.get(span_name)))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    def per_op(self):
        """{op index: {"<span>.s": total, "<span>.self_s": self, "<span>.calls": n,
        counter: sum}}; spans outside any operation (set-up) sit under op -1."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            row = out.setdefault(op, {})
            row[name + ".s"] = row.get(name + ".s", 0.0) + (end - start)
            row[name + ".self_s"] = row.get(name + ".self_s", 0.0) + (end - start - child_time[k])
            row[name + ".calls"] = row.get(name + ".calls", 0) + 1
        for op, name, amount in self.counts:
            row = out.setdefault(op, {})
            row[name] = row.get(name, 0) + amount
        return out
