"""Layer spans recorded from outside the program.

``Tracer.install`` replaces layer-boundary public functions of rrglab, in
the module namespaces that call them, by wrappers that record one span per
call: a name, start, end, parent span and the counts a layer reports
(taken from the call's arguments or return value).  Hot inner helpers are
never wrapped, so the wrappers cost a few microseconds per layer call.
Spans stay in memory; ``layer_metrics`` reduces the spans of one recipe
call to the per-layer metrics.
"""

import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from types import SimpleNamespace


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _run_chain_counts(bound, result):
    return {"proposals": bound.arguments["n_steps"], "accepted": result[1]}


def _kernel_counts(bound, result):
    # positional: a compiled kernel may expose no signature to bind by name
    return {"steps": len(bound.args[1]), "accepted": result}


def _emf_counts(bound, result):
    return {"accepted": result.n_accepted, "rejected": result.n_rejected}


def _sde_counts(bound, result):
    args = bound.arguments
    steps = round((args["t_end"] - args["t_start"]) / args["dt"])
    return {"replica_steps": steps * args["n_replicas"]}


def _bytes_counts(bound, result):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


# (module, attribute, span name, counter).  A function imported into several
# namespaces is wrapped in each namespace that calls it; graphs and chain
# functions that rrglab imports lazily are wrapped in their home module.
LAYER_BOUNDARIES = [
    ("harness", "sample_regular_graph", "graphs.sample", None),
    ("graphs", "sample_regular_graph", "graphs.sample", None),
    ("chain", "run_chain", "chain.run_chain", _run_chain_counts),
    ("_kernels", "run_switch_steps", "_kernels.run_switch_steps",
     _kernel_counts),
    ("spectra", "restrict_to_offspace", "matrices.offspace", None),
    ("spectra", "embed_in_offspace", "matrices.offspace", None),
    ("harness", "embed_in_offspace", "matrices.offspace", None),
    ("flow", "sample_constrained_goe", "matrices.goe_sample", None),
    ("harness", "decompose", "spectra.decompose", None),
    ("flow", "decompose", "spectra.decompose", None),
    ("harness", "gap_ensemble", "spectra.stats", None),
    ("harness", "ks_distance", "spectra.stats", None),
    ("harness", "stieltjes_empirical", "spectra.stats", None),
    ("harness", "goe_reference", "harness.goe_reference", None),
    ("harness", "evolve_exact", "flow.evolve", None),
    ("harness", "evolve_sde", "flow.evolve", None),
    ("harness", "free_conv_stieltjes", "flow.free_conv", None),
    ("harness", "eigenvalue_path", "flow.eigval_path", None),
    ("harness", "emf_solve", "flow.emf_solve", _emf_counts),
    ("harness", "eigenvector_sde", "flow.eigvec_sde", _sde_counts),
    ("flow", "estimate_seminorm", "flow.seminorm", None),
    ("flow", "switch_generator_stieltjes", "flow.jump_generator", None),
    ("io", "write_matrix", "io.write", _bytes_counts),
    ("io", "write_csv", "io.write", _bytes_counts),
    ("io", "write_graph_text", "io.write", _bytes_counts),
    ("io", "write_report_json", "io.write", _bytes_counts),
    ("io", "write_manifest", "io.write", _bytes_counts),
]

ROOT_SPAN = "harness.recipe"


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []

    @contextmanager
    def span(self, name):
        span = self._begin(name)
        try:
            yield span
        finally:
            self._finish(span)

    def _begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def _finish(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, name, func, counter=None):
        try:
            signature = inspect.signature(func)
        except (TypeError, ValueError):  # a builtin from a compiled kernel
            signature = None

        @wraps(func)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._finish(span)
            if counter is not None:
                if signature is None:
                    bound = SimpleNamespace(args=args, arguments=kwargs)
                else:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                span.counts = counter(bound, result)
            return result

        return traced

    def install(self, package):
        for module_name, attr, name, counter in LAYER_BOUNDARIES:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(name, original, counter))
            self._patched.append((module, attr, original))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self):
        """Return the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def layer_totals(spans):
    """Per span name: calls, total time, self time and summed counts.

    Self time is a span's duration minus the durations of its direct child
    spans; the self times of all names add up to the root span's duration.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "counts": defaultdict(int)})
    for index, span in enumerate(spans):
        entry = totals[span.name]
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += span.duration - child_time[index]
        for key, value in span.counts.items():
            entry["counts"][key] += value
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


_UNUSED = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}


def layer_metrics(spans):
    """The per-layer metrics of one recipe call; 0 for a layer it never used."""
    totals = layer_totals(spans)

    def layer(name):
        return totals.get(name, _UNUSED)

    def self_s(name):
        return layer(name)["self_s"]

    def count(name, key):
        return layer(name)["counts"].get(key, 0)

    steps = count("_kernels.run_switch_steps", "steps")
    burnin = layer("chain.run_chain")["total_s"]
    accepted = count("chain.run_chain", "accepted")
    emf_acc = count("flow.emf_solve", "accepted")
    emf_steps = emf_acc + count("flow.emf_solve", "rejected")
    written = count("io.write", "bytes")
    return {
        "kernels.steps": steps,
        "kernels.steps_per_s": _ratio(steps, self_s("_kernels.run_switch_steps")),
        "chain.burnin_s": burnin,
        "chain.accepted_per_s": _ratio(accepted, burnin),
        "chain.accept_ratio": _ratio(accepted, count("chain.run_chain", "proposals")),
        "graphs.pairing_s": self_s("graphs.sample"),
        "matrices.offspace_s": self_s("matrices.offspace"),
        "matrices.goe_sample_s": self_s("matrices.goe_sample"),
        "spectra.decompose_s": self_s("spectra.decompose"),
        "spectra.decompose_calls": layer("spectra.decompose")["calls"],
        "spectra.stats_s": self_s("spectra.stats"),
        "harness.goe_reference_s": self_s("harness.goe_reference"),
        "harness.recipe_self_s": self_s(ROOT_SPAN),
        "flow.evolve_s": self_s("flow.evolve"),
        "flow.free_conv_s": self_s("flow.free_conv"),
        "flow.eigval_path_s": self_s("flow.eigval_path"),
        "flow.emf_solve_s": self_s("flow.emf_solve"),
        "flow.emf_steps": emf_steps,
        "flow.emf_accept_ratio": _ratio(emf_acc, emf_steps),
        "flow.eigvec_sde_s": self_s("flow.eigvec_sde"),
        "flow.eigvec_sde_steps_per_s": _ratio(
            count("flow.eigvec_sde", "replica_steps"), self_s("flow.eigvec_sde")),
        "flow.seminorm_s": self_s("flow.seminorm"),
        "flow.jump_generator_s": self_s("flow.jump_generator"),
        "io.write_s": self_s("io.write"),
        "io.bytes_written": written,
        "io.write_mb_per_s": _ratio(written / 1e6, self_s("io.write")),
    }
