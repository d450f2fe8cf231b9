"""Process-wide metrics registry: counters, gauges, and histograms.

Ruby's value claim is quantitative (EDP deltas, mapspace expansion
factors, search throughput), so the runtime needs one uniform way to
count things across the scalar, cached, batched, parallel, and campaign
execution paths. This module is that substrate:

* **Counter** — monotonically increasing totals (evaluations, cache hits,
  pruned candidates). Supports labeled series (``driver="random"``).
* **Gauge** — last-written values (best EDP so far, queue depth).
* **Histogram** — distributions over fixed log-spaced buckets (batch
  latencies, span durations). Buckets are fixed at construction so
  snapshots from different processes merge without rebinning.

Everything is dependency-free, thread-safe (one lock per registry), and
snapshot-oriented: :meth:`MetricsRegistry.snapshot` produces a plain dict
that pickles across process pools, and :meth:`MetricsRegistry.merge`
folds a child snapshot back into a parent registry — the aggregation
path the worker pool (:mod:`repro.search.worker_pool`) uses for
per-worker metrics.

Exporters: :meth:`MetricsRegistry.to_json` (stable machine-readable
payload for ``--metrics-out``) and :meth:`MetricsRegistry.to_prometheus`
(the text exposition format, for scraping or eyeballing).
"""

from __future__ import annotations

import re
import threading
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

#: Default histogram buckets: log-spaced, two per decade, 10 us .. 100 s.
#: Chosen to straddle everything we time — a single scalar evaluation
#: (~ms), a packed batch (~10 ms), and a whole campaign job (~s-min).
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 2.0), 12) for exponent in range(-10, 5)
)

#: Finer buckets for duration series: two per decade, 100 ns .. 100 s.
#: Sub-10 µs work — cache probes, single spans, per-batch slices — all
#: collapsed into DEFAULT_BUCKETS' lowest bucket; duration histograms
#: (``span.duration_seconds``, ``search.run_seconds``) use this grid
#: instead. Every observer of one series must pass the same buckets or
#: cross-process snapshot merges will (deliberately) refuse to rebin.
TIMING_BUCKETS: Tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 2.0), 16) for exponent in range(-14, 5)
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, double-quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    """Invert :func:`_escape_label_value` (single left-to-right scan, so
    ``\\\\n`` decodes to backslash + ``n``, not a newline)."""
    out = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            out.append("\n" if nxt == "n" else nxt)
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


def _label_text(key: LabelKey) -> str:
    """Prometheus-style ``{a="x",b="y"}`` rendering ('' when unlabeled)."""
    if not key:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in key
    )
    return "{" + inner + "}"


def _metric_ident(name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    cleaned = "".join(c if c.isalnum() else "_" for c in name)
    return f"repro_{cleaned}"


class Counter:
    """A monotonically increasing metric family with labeled series."""

    kind = "counter"

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every labeled series."""
        with self._lock:
            return sum(self._series.values())


class Gauge:
    """A last-write-wins metric family with labeled series."""

    kind = "gauge"

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> Optional[float]:
        with self._lock:
            return self._series.get(_label_key(labels))


class Histogram:
    """A fixed-bucket histogram family with labeled series.

    Buckets are upper bounds (``le`` semantics); an implicit +inf bucket
    catches the overflow. ``observe`` is O(len(buckets)) with a linear
    scan — bucket counts are cumulative only at export time, which keeps
    merging trivial (element-wise addition).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted, non-empty list")
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._lock = lock
        # Per label set: (per-bucket counts incl. +inf slot, sum, count).
        self._series: Dict[LabelKey, Dict[str, Any]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {
                    "counts": [0] * (len(self.buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
                self._series[key] = series
            slot = len(self.buckets)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    slot = index
                    break
            series["counts"][slot] += 1
            series["sum"] += float(value)
            series["count"] += 1

    def stats(self, **labels: Any) -> Dict[str, Any]:
        """(count, sum, mean) for one labeled series (zeros when unseen)."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None:
                return {"count": 0, "sum": 0.0, "mean": 0.0}
            count = series["count"]
            return {
                "count": count,
                "sum": series["sum"],
                "mean": (series["sum"] / count) if count else 0.0,
            }


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    One process-wide instance (:func:`default_registry`) backs the
    ambient :func:`repro.obs.scope.obs_scope`; search workers build
    private registries and ship snapshots back for merging.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    # -- metric construction ---------------------------------------------

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            metric = self._metrics.get(name)
        if metric is not None:
            if metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {kind}"
                )
            return metric
        created = factory()
        with self._lock:
            return self._metrics.setdefault(name, created)

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, help, self._lock), "counter"
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(
            name, lambda: Gauge(name, help, self._lock), "gauge"
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, self._lock, buckets), "histogram"
        )

    def names(self) -> Iterable[str]:
        with self._lock:
            return sorted(self._metrics)

    # -- snapshot / reset / merge ----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict copy of every series (picklable, mergeable)."""
        out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            for name, metric in self._metrics.items():
                if metric.kind == "counter":
                    out["counters"][name] = {
                        _label_text(k): v for k, v in metric._series.items()
                    }
                elif metric.kind == "gauge":
                    out["gauges"][name] = {
                        _label_text(k): v for k, v in metric._series.items()
                    }
                else:
                    out["histograms"][name] = {
                        "buckets": list(metric.buckets),
                        "series": {
                            _label_text(k): {
                                "counts": list(s["counts"]),
                                "sum": s["sum"],
                                "count": s["count"],
                            }
                            for k, s in metric._series.items()
                        },
                    }
        return out

    def reset(self) -> None:
        """Drop every metric (names and values)."""
        with self._lock:
            self._metrics.clear()

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histogram bucket counts add; gauges take the
        snapshot's value (last write wins). Histograms merge only when
        bucket bounds agree — mixed bounds raise rather than rebin.
        """
        for name, series in snapshot.get("counters", {}).items():
            counter = self.counter(name)
            for label_text, value in series.items():
                key = _parse_label_text(label_text)
                with self._lock:
                    counter._series[key] = counter._series.get(key, 0.0) + value
        for name, series in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            for label_text, value in series.items():
                key = _parse_label_text(label_text)
                with self._lock:
                    gauge._series[key] = value
        for name, payload in snapshot.get("histograms", {}).items():
            histogram = self.histogram(
                name, buckets=tuple(payload["buckets"])
            )
            if list(histogram.buckets) != list(payload["buckets"]):
                raise ValueError(
                    f"histogram {name!r}: cannot merge differing buckets"
                )
            for label_text, incoming in payload["series"].items():
                key = _parse_label_text(label_text)
                with self._lock:
                    series = histogram._series.get(key)
                    if series is None:
                        series = {
                            "counts": [0] * (len(histogram.buckets) + 1),
                            "sum": 0.0,
                            "count": 0,
                        }
                        histogram._series[key] = series
                    for i, count in enumerate(incoming["counts"]):
                        series["counts"][i] += count
                    series["sum"] += incoming["sum"]
                    series["count"] += incoming["count"]

    # -- exporters --------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """The snapshot under a versioned envelope (``--metrics-out``)."""
        return {"schema": 1, "metrics": self.snapshot()}

    def to_prometheus(self) -> str:
        """Text exposition format (counters get the ``_total`` suffix)."""
        lines = []
        snapshot = self.snapshot()
        for name in sorted(snapshot["counters"]):
            ident = _metric_ident(name) + "_total"
            lines.append(f"# TYPE {ident} counter")
            for label_text, value in sorted(snapshot["counters"][name].items()):
                lines.append(f"{ident}{label_text} {_format_value(value)}")
        for name in sorted(snapshot["gauges"]):
            ident = _metric_ident(name)
            lines.append(f"# TYPE {ident} gauge")
            for label_text, value in sorted(snapshot["gauges"][name].items()):
                lines.append(f"{ident}{label_text} {_format_value(value)}")
        for name in sorted(snapshot["histograms"]):
            ident = _metric_ident(name)
            payload = snapshot["histograms"][name]
            lines.append(f"# TYPE {ident} histogram")
            for label_text, series in sorted(payload["series"].items()):
                cumulative = 0
                for bound, count in zip(payload["buckets"], series["counts"]):
                    cumulative += count
                    le_labels = _merge_le(label_text, bound)
                    lines.append(f"{ident}_bucket{le_labels} {cumulative}")
                cumulative += series["counts"][-1]
                lines.append(
                    f"{ident}_bucket{_merge_le(label_text, '+Inf')} {cumulative}"
                )
                lines.append(
                    f"{ident}_sum{label_text} {_format_value(series['sum'])}"
                )
                lines.append(f"{ident}_count{label_text} {series['count']}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _merge_le(label_text: str, bound: Any) -> str:
    """Insert the ``le`` label into an existing label-text block."""
    le = f'le="{bound}"'
    if not label_text:
        return "{" + le + "}"
    return label_text[:-1] + "," + le + "}"


_LABEL_PAIR_RE = re.compile(r'([A-Za-z0-9_.]+)="((?:[^"\\]|\\.)*)"')


def _parse_label_text(label_text: str) -> LabelKey:
    """Invert :func:`_label_text` (snapshot keys round-trip through it).

    Values are matched as quoted strings with escape-aware regexes
    rather than split on commas, so label values containing commas,
    quotes, backslashes, or newlines survive the snapshot/merge cycle.
    """
    if not label_text:
        return ()
    inner = label_text.strip()[1:-1]
    return tuple(
        (match.group(1), _unescape_label_value(match.group(2)))
        for match in _LABEL_PAIR_RE.finditer(inner)
    )


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry (what a bare ``obs_scope()`` installs)."""
    return _DEFAULT_REGISTRY
