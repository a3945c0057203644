"""Per-layer spans and counts, recorded from outside the package.

The package binds names at import (``from .tightness import check_tightness``),
so a function is wrapped in the namespace of the module that calls it, not
where it is defined. Spans nest through a stack: a span's self time is its
duration minus the durations of the wrapped calls made inside it. Spans are
aggregated per name as they close, which keeps memory flat on long runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict


class Tracer:
    """Aggregated calls, total and self time per span name, plus named counts."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._children_s: list[float] = []

    def wrap_span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._children_s.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - inner
                if self._children_s:
                    self._children_s[-1] += elapsed
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def wrap_count(self, name, fn):
        # Hot inner calls are counted, not timed: their time stays in the caller's self time.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _after_check_tightness(tracer, args, kwargs, result):
    svd = args[0] if args else kwargs["svd"]
    if svd.degeneracy() >= 2:
        tracer.counts["tightness.searched"] += 1
        if result.found:
            tracer.counts["tightness.found"] += 1


def _after_minimize(prefix):
    def after(tracer, args, kwargs, result):
        tracer.counts[f"{prefix}.nfev"] += int(result.nfev)

    return after


def _after_seesaw(tracer, args, kwargs, result):
    if result.converged:
        tracer.counts["seesaw.converged"] += 1


def _after_predicate(tracer, args, kwargs, result):
    tracer.counts["scan.predicate_evals"] += 1


def _after_write(tracer, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counts["fileio.atomic_write_text.bytes"] += len(text.encode())


# (module, attribute, span name, after-hook). Every attribute is the name a
# caller looks up at call time, so wrapping it there intercepts the call.
SPAN_SITES = [
    ("svetbound.analysis", "check_tightness", "tightness.check_tightness", _after_check_tightness),
    ("svetbound.tightness", "minimize", "tightness.lbfgs", _after_minimize("tightness.lbfgs")),
    ("svetbound.scan", "optimize_filter", "scan.optimize_filter", None),
    ("svetbound.scan", "minimize", "scan.nelder_mead", _after_minimize("scan.nelder_mead")),
    ("svetbound.scan", "certify_unfiltered", "analysis.certify_unfiltered", _after_predicate),
    ("svetbound.scan", "certify_filtered", "analysis.certify_filtered", _after_predicate),
    ("svetbound", "certify_filtered", "analysis.certify_filtered", None),
    # Spans around the scan calls inside cli.main, so cli.self_s is the CLI's own time.
    ("svetbound.cli", "figure_data", "scan.figure_data", None),
    ("svetbound.cli", "write_csv", "scan.write_csv", None),
    ("svetbound.cli", "write_json", "scan.write_json", None),
    ("svetbound.analysis", "seesaw_from_matrix", "seesaw.seesaw_from_matrix", _after_seesaw),
    ("svetbound.analysis", "filtered_bound", "filtering.filtered_bound", None),
    ("svetbound.scan", "filtered_bound", "filtering.filtered_bound", None),
    ("svetbound.filtering", "apply_filter", "filtering.apply_filter", None),
    ("svetbound.filtering", "x_matrix", "filtering.x_matrix", None),
    ("svetbound.analysis", "correlation_matrix", "svetlichny.correlation_matrix", None),
    ("svetbound.filtering", "correlation_matrix", "svetlichny.correlation_matrix", None),
    ("svetbound.analysis", "svetlichny_value", "svetlichny.svetlichny_value", None),
    ("svetbound", "load_state", "states.load_state", None),
    ("svetbound.scan", "build_family_state", "states.build_family_state", None),
    ("svetbound.scan", "atomic_write_text", "fileio.atomic_write_text", _after_write),
    ("svetbound.cli", "atomic_write_text", "fileio.atomic_write_text", _after_write),
    ("svetbound.cli", "main", "cli.main", None),
]

# Counted at the B-pair update, which runs once per see-saw sweep of every restart.
COUNT_SITES = [("svetbound.seesaw", "update_b_pair", "seesaw.sweeps")]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every site for the duration of the block, then restore the originals."""
    saved = []
    try:
        for module_name, attr, span, after in SPAN_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap_span(span, original, after))
        for module_name, attr, name in COUNT_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap_count(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    # A ratio over an empty base reads 0, so every metric is present on every workload.
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit)."""
    calls, total, self_s, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def timed(span):
        out[f"{span}.calls"] = (calls[span], "count")
        out[f"{span}.time_s"] = (total[span], "s")

    timed("tightness.check_tightness")
    checks = calls["tightness.check_tightness"]
    out["tightness.searched_ratio"] = (_ratio(counts["tightness.searched"], checks), "ratio")
    out["tightness.found_ratio"] = (
        _ratio(counts["tightness.found"], counts["tightness.searched"]), "ratio"
    )
    out["tightness.lbfgs.runs"] = (calls["tightness.lbfgs"], "count")
    out["tightness.lbfgs.nfev"] = (counts["tightness.lbfgs.nfev"], "count")

    timed("scan.optimize_filter")
    # Self time excludes the wrapped children: the Nelder-Mead runs and the closing filtered_bound.
    out["scan.optimize_filter.self_s"] = (self_s["scan.optimize_filter"], "s")
    # Computed, not counted: each call runs one batched SVD over the full filter grid.
    grid_points = importlib.import_module("svetbound.scan").ScanSpec().filter_grid_points
    out["scan.grid_svds"] = (calls["scan.optimize_filter"] * grid_points**3, "count")
    out["scan.nelder_mead.runs"] = (calls["scan.nelder_mead"], "count")
    out["scan.nelder_mead.nfev"] = (counts["scan.nelder_mead.nfev"], "count")
    out["scan.predicate_evals"] = (counts["scan.predicate_evals"], "count")

    timed("seesaw.seesaw_from_matrix")
    sweeps = counts["seesaw.sweeps"]
    out["seesaw.sweeps"] = (sweeps, "count")
    out["seesaw.us_per_sweep"] = (1e6 * _ratio(total["seesaw.seesaw_from_matrix"], sweeps), "us")
    out["seesaw.converged_ratio"] = (
        _ratio(counts["seesaw.converged"], calls["seesaw.seesaw_from_matrix"]), "ratio"
    )

    timed("filtering.filtered_bound")
    timed("filtering.apply_filter")
    timed("filtering.x_matrix")

    timed("svetlichny.correlation_matrix")
    timed("svetlichny.svetlichny_value")

    timed("analysis.certify_unfiltered")
    timed("analysis.certify_filtered")
    out["analysis.self_s"] = (
        self_s["analysis.certify_unfiltered"] + self_s["analysis.certify_filtered"], "s"
    )

    timed("states.load_state")
    timed("states.build_family_state")

    timed("fileio.atomic_write_text")
    out["fileio.atomic_write_text.bytes"] = (counts["fileio.atomic_write_text.bytes"], "B")
    out["cli.main.time_s"] = (total["cli.main"], "s")
    out["cli.self_s"] = (self_s["cli.main"], "s")
    return out
