"""``repro.obs`` — dependency-free observability for the whole stack.

Three layers, all opt-in and near-free when disabled:

* **Metrics** (:mod:`repro.obs.metrics`) — a process-wide registry of
  counters, gauges, and log-bucketed histograms with labeled series,
  snapshot/merge for cross-process aggregation, and Prometheus-text /
  JSON exporters.
* **Tracing** (:mod:`repro.obs.tracing`) — nested spans with monotonic
  durations, streamed as JSONL in the :mod:`repro.io.journal` framing,
  plus flame-style summaries (``repro obs summarize``).
* **Scope** (:mod:`repro.obs.scope`) — the ambient ``obs_scope()``
  context (mirroring ``campaign_scope``) behind the one-line helpers
  ``inc`` / ``observe`` / ``set_gauge`` / ``trace`` that instrumented
  code calls unconditionally.

A :class:`~repro.obs.progress.ProgressTracker` holds one run's totals,
ETA and convergence timeline. The registry and the tracker carry counts
but own none: a search run's counts belong to
:class:`repro.search.loop.RunLedger`, which feeds ``SearchResult.stats``,
the registry behind ``/metrics`` and the tracker behind ``/progress``
from one call each, and cache hits and misses belong to the
:class:`~repro.model.eval_cache.EvaluationCache`.
:class:`~repro.obs.server.ObsServer` serves the live ``/metrics`` /
``/progress`` / ``/flame`` endpoints, and :mod:`repro.obs.bench` keeps
the benchmark-regression ledger.

See ``docs/observability.md`` for the metric-name and span taxonomy,
the live-endpoint routes, and the ledger format.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".metrics": (
        "DEFAULT_BUCKETS",
        "TIMING_BUCKETS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "default_registry",
    ),
    ".progress": (
        "ProgressPrinter",
        "ProgressTracker",
        "active_trackers",
        "current_progress_owner",
        "empty_progress_stats",
        "progress_owner",
    ),
    ".scope": (
        "ObsContext",
        "active_obs",
        "inc",
        "obs_scope",
        "observe",
        "set_gauge",
        "trace",
    ),
    ".server": ("ObsServer",),
    ".tracing": (
        "SPAN_REQUIRED_KEYS",
        "Span",
        "Tracer",
        "flame_summary",
        "read_trace",
        "validate_span",
    ),
})
