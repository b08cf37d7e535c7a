"""Span tracer that wraps the public functions of the eqtoeplitz modules.

Modules bind their imports by name (``from .geometry import section_basis``),
so a function is replaced in every loaded ``eqtoeplitz`` namespace that holds
it, not only in its defining module.  Spans nest: each records its name,
start, end and the index of its parent span.  A span's self time is its
duration minus the durations of its direct children.  Nothing under the
package changes; the wrappers are removed when the tracer is uninstalled.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter


def _count_basis(c, r, args, kwargs):
    c["geometry.section_basis.rows"] += r.dim
    c["geometry.section_basis.bytes_computed"] += r.indices.nbytes + r.log_norms.nbytes


def _count_isotype(c, r, args, kwargs):
    c["symmetry.isotype_basis.rows_kept"] += r.dim
    c["symmetry.isotype_basis.rows_enumerated"] += r.parent.dim


def _count_sweep(c, r, args, kwargs):
    c["toeplitz.trace_sweep.levels"] += len(r.records) + len(r.failures)
    c["toeplitz.trace_sweep.levels_failed"] += len(r.failures)


def _count_zero_locus(c, r, args, kwargs):
    c["reduction.zero_locus_sample.n_total"] += r.n_total
    c["reduction.zero_locus_sample.kept"] += r.points.shape[0]


def _count_points(c, r, args, kwargs):
    c["geometry.sample_sphere.points"] += r.shape[0]


def _count_hits(c, r, args, kwargs):
    c["cache.hits"] += r is not None


def _count_csv(c, r, args, kwargs):
    c["iotools.write_csv.bytes"] += os.path.getsize(args[0])


#: (module, attribute, span name, counter hook).  A dotted attribute names a
#: method, which is wrapped on its class.
TARGETS = (
    ("geometry", "section_basis", "geometry.section_basis", _count_basis),
    ("geometry", "sample_sphere", "geometry.sample_sphere", _count_points),
    ("symmetry", "isotype_basis", "symmetry.isotype_basis", _count_isotype),
    ("symmetry", "equivariant_kernel_pairs", "symmetry.equivariant_kernel_pairs", None),
    ("toeplitz", "trace_sweep", "toeplitz.trace_sweep", _count_sweep),
    ("toeplitz", "trace_psi", "toeplitz.trace_psi", None),
    ("reduction", "check_regular_and_free", "reduction.check_regular_and_free", None),
    ("reduction", "zero_locus_sample", "reduction.zero_locus_sample", _count_zero_locus),
    ("reduction", "reduced_space_integral", "reduction.reduced_space_integral", None),
    ("reduction", "effective_volume", "reduction.effective_volume", None),
    ("reduction", "find_fixed_components", "reduction.find_fixed_components", None),
    ("reduction", "component_invariants", "reduction.component_invariants", None),
    ("reduction", "f_bar_integral", "reduction.f_bar_integral", None),
    ("_intlinalg", "smith_normal_form", "intlinalg.smith_normal_form", None),
    ("cache", "Cache.get", "cache.get", _count_hits),
    ("cache", "Cache.put", "cache.put", None),
    ("asymptotics", "decay_probe", "asymptotics.decay_probe", None),
    ("asymptotics", "compare_and_fit", "asymptotics.compare_and_fit", None),
    ("asymptotics", "TracePrediction.__call__", "asymptotics.prediction", None),
    ("asymptotics", "predict_toeplitz_leading", "asymptotics.prediction", None),
    ("iotools", "write_csv", "iotools.write_csv", _count_csv),
    ("config", "load_config", "config.load_config", None),
    ("selftest", "run_selftest", "selftest.run_selftest", None),
    ("cli", "main", "cli.main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))
PACKAGE = "eqtoeplitz"


class Tracer:
    """Collects spans and counters in memory for one traced run."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None]
        self.counters = Counter()
        self._stack = []
        self._patched = []     # (owner, attribute, original)

    def _wrap(self, name, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                count(counters, result, args, kwargs)
            return result
        return traced

    def install(self) -> None:
        for mod_name, attr, name, count in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = vars(owner)[meth]
                self._set(owner, meth, self._wrap(name, orig, count))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, count)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name != PACKAGE and not loaded_name.startswith(PACKAGE + "."):
                    continue
                for key, val in list(vars(loaded).items()):
                    if val is orig:
                        self._set(loaded, key, wrapped)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- aggregation -------------------------------------------------------
    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            n += parent is not None
        return n


def _ratio(a, b):
    return a / b if b else 0.0


def uncovered(tracer: Tracer, workload) -> list:
    """Wrapped functions the workload should reach but that recorded no call."""
    totals = tracer.totals()
    return [n for n in SPAN_NAMES if n not in workload.idle and totals[n]["calls"] == 0]


def layer_metrics(tracer: Tracer, traced_s: float, plain_s: float, procs: dict) -> dict:
    """Per-layer metrics of one traced repetition: name -> (value, unit).

    ``<span>.s`` is self time.  ``procs`` is an untraced repetition of the
    sequence as processes; ``plain_s`` the same in-process without tracing.
    """
    totals, c = tracer.totals(), tracer.counters
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (totals[name]["calls"], "count")
        out[f"{name}.self_s" if name == "cli.main" else f"{name}.s"] = (
            totals[name]["self_s"], "s")
    for key in ("geometry.section_basis.rows", "geometry.sample_sphere.points",
                "symmetry.isotype_basis.rows_kept", "toeplitz.trace_sweep.levels",
                "toeplitz.trace_sweep.levels_failed", "reduction.zero_locus_sample.n_total",
                "reduction.zero_locus_sample.kept", "cache.hits"):
        out[key] = (c[key], "count")
    out["geometry.section_basis.bytes_computed"] = (
        c["geometry.section_basis.bytes_computed"], "bytes")
    out["iotools.write_csv.bytes"] = (c["iotools.write_csv.bytes"], "bytes")
    levels = c["toeplitz.trace_sweep.levels"]
    out["symmetry.isotype_keep_ratio"] = (_ratio(
        c["symmetry.isotype_basis.rows_kept"], c["symmetry.isotype_basis.rows_enumerated"]),
        "ratio")
    out["symmetry.isotype_basis.calls_per_level"] = (_ratio(
        tracer.calls_under("symmetry.isotype_basis", "toeplitz.trace_sweep"), levels), "ratio")
    out["toeplitz.levels_per_s"] = (_ratio(levels, totals["toeplitz.trace_sweep"]["s"]), "1/s")
    out["reduction.zero_locus_sample.keep_ratio"] = (_ratio(
        c["reduction.zero_locus_sample.kept"], c["reduction.zero_locus_sample.n_total"]),
        "ratio")
    out["cache.hit_ratio"] = (_ratio(c["cache.hits"], totals["cache.get"]["calls"]), "ratio")
    for cmd in ("analyze", "trace", "predict", "compare", "kernel", "selftest"):
        out[f"cli.{cmd}_s"] = (procs.get(f"cli.{cmd}_s", 0.0), "s")
    out["cli.cpu_s"] = (procs["cpu_s"], "s")
    out["trace.wall_s"] = (traced_s, "s")
    out["trace.overhead_ratio"] = (_ratio(traced_s, plain_s), "ratio")
    out["trace.wall_ratio"] = (_ratio(traced_s, procs["wall_s"]), "ratio")
    return out
