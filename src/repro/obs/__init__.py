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

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    TIMING_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from repro.obs.progress import (
    ProgressPrinter,
    ProgressTracker,
    active_trackers,
    current_progress_owner,
    empty_progress_stats,
    progress_owner,
)
from repro.obs.scope import (
    ObsContext,
    active_obs,
    inc,
    obs_scope,
    observe,
    set_gauge,
    trace,
)
from repro.obs.server import ObsServer
from repro.obs.tracing import (
    SPAN_REQUIRED_KEYS,
    Span,
    Tracer,
    flame_summary,
    read_trace,
    validate_span,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "TIMING_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsContext",
    "ObsServer",
    "ProgressPrinter",
    "ProgressTracker",
    "active_trackers",
    "current_progress_owner",
    "progress_owner",
    "empty_progress_stats",
    "Span",
    "SPAN_REQUIRED_KEYS",
    "Tracer",
    "active_obs",
    "default_registry",
    "flame_summary",
    "inc",
    "obs_scope",
    "observe",
    "read_trace",
    "set_gauge",
    "trace",
    "validate_span",
]
