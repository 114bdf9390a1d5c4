"""Observability layer: spans, metrics and convergence telemetry.

Three small pieces (see OBSERVABILITY.md for the span model, the counter
catalogue and the Perfetto how-to):

* :mod:`repro.obs.trace` -- hierarchical spans with zero-cost disable,
  written as JSON-lines or Chrome ``trace_event`` files; activated by
  ``REPRO_TRACE=<path>`` or programmatically (:func:`tracing`).
* :mod:`repro.obs.metrics` -- process-wide counters / gauges / histograms
  the hot seams update at phase granularity.
* :mod:`repro.obs.report` -- ``python -m repro.obs.report`` text reporter
  (top spans by self-time, counter table, convergence sparklines).

Per-run numbers -- PathFinder overuse curves, annealing cost-vs-temperature,
cache hit rates -- are snapshotted into ``PaRResult.telemetry`` by
:mod:`repro.par.flow`; this package only provides the machinery.
"""

from .metrics import MetricsRegistry, add, gauge, merge, observe, registry
from .trace import (
    Tracer,
    active,
    clear,
    emit_event,
    emit_series,
    install,
    span,
    traced,
    tracing,
)

__all__ = [
    "MetricsRegistry",
    "registry",
    "add",
    "gauge",
    "observe",
    "merge",
    "Tracer",
    "span",
    "traced",
    "emit_event",
    "emit_series",
    "install",
    "clear",
    "active",
    "tracing",
]
