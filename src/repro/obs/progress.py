"""Search progress accounting: totals, ETA, and convergence timelines.

Long searches used to be silent until they returned: the registry counts
*what happened* but nothing says *how far along* a run is. This module
adds the missing sense. A :class:`ProgressTracker` pairs a total-work
estimate (an evaluation budget, whole populations of it for genetic
search, the branch-and-bound partition-cell count, …) with completed-work
accounting, an incumbent-convergence timeline (a bounded ring buffer of
``(monotonic_s, best_metric)`` recorded on each improvement), and an
EWMA-throughput ETA.

Every :class:`~repro.search.loop.RunLedger` owns a tracker, so the
``progress`` sub-dict of ``SearchResult.stats`` has one schema across
every searcher; live consumers — the ``/progress`` endpoint of
:class:`~repro.obs.server.ObsServer` and the ``--progress`` TTY line —
discover in-flight trackers through the weak module registry
(:func:`active_trackers`), so a finished search disappears as soon as
its result is dropped.

Totals are *estimates*, not contracts: exhaustive sweeps use the cheap
pre-fanout-filter menu product (an upper bound), and a random search
that stops on patience ends short of its budget. ``fraction`` is therefore
clamped to ``[0, 1]`` and :meth:`ProgressTracker.finish` snaps completed
work to the total, so the fraction is monotonically nondecreasing and
ends at 1.0 whenever a total is known.

The governing zero-cost-when-off rule holds: trackers publish
``search.progress_fraction`` / ``search.eta_seconds`` gauges through the
ambient scope helpers, which no-op without an active
:func:`~repro.obs.scope.obs_scope`; the accounting itself is a handful
of float adds under a lock, paid only per batch/unit, never per
candidate on the batched paths.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import weakref
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, TextIO

from repro.obs import scope as _scope

#: Convergence-timeline ring-buffer capacity. Improvements beyond this
#: many keep only the most recent points — the timeline is a live
#: diagnostic, not the full curve (``SearchResult.curve`` keeps that).
DEFAULT_TIMELINE_CAPACITY = 512

#: Minimum seconds between EWMA throughput updates. Batched searchers
#: advance in bursts; accumulating units across at least this window
#: keeps the instantaneous rate (and therefore the ETA) from whipsawing.
RATE_INTERVAL_S = 0.2

#: EWMA smoothing factor for the units-per-second throughput estimate.
RATE_ALPHA = 0.3

_TRACKERS_LOCK = threading.Lock()
_TRACKERS: "weakref.WeakSet[ProgressTracker]" = weakref.WeakSet()


def _reset_lock_after_fork() -> None:
    """A forked child runs only the forking thread, so a lock another
    parent thread held at the fork would never be released there."""
    global _TRACKERS_LOCK
    _TRACKERS_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock_after_fork)

# Ambient per-thread tracker owner. Drivers that run searches for many
# clients (the mapper service's workers) tag each run with a job id
# here; trackers created inside the scope pick the tag up, so live
# consumers can tell concurrent searches apart without threading an id
# through every searcher signature.
_OWNER = threading.local()


@contextmanager
def progress_owner(owner: Optional[str]) -> Iterator[None]:
    """Tag trackers created in this thread's ``with`` body with ``owner``.

    Nested scopes restore the previous owner on exit; ``None`` clears the
    tag. Owners are thread-local, so concurrent service workers cannot
    contaminate each other's runs.
    """
    previous = getattr(_OWNER, "value", None)
    _OWNER.value = owner
    try:
        yield
    finally:
        _OWNER.value = previous


def current_progress_owner() -> Optional[str]:
    """The owner tag installed by the innermost :func:`progress_owner`."""
    return getattr(_OWNER, "value", None)


def active_trackers(owner: Optional[str] = None) -> List["ProgressTracker"]:
    """Live trackers in creation order (weakly held — GC'd trackers
    vanish). The ``/progress`` endpoint and the TTY printer poll this.

    Args:
        owner: return only trackers tagged with this owner (see
            :func:`progress_owner`); ``None`` returns every live tracker.
    """
    with _TRACKERS_LOCK:
        trackers = list(_TRACKERS)
    if owner is not None:
        trackers = [t for t in trackers if t.owner == owner]
    return sorted(trackers, key=lambda t: t.created_s)


def empty_progress_stats() -> Dict[str, Any]:
    """The ``progress`` stats sub-dict of a run that tracked nothing.

    Same key set as :meth:`ProgressTracker.stats_payload`, so
    ``SearchResult.stats["progress"]`` has a uniform schema across every
    searcher and path (the stats-schema test pins this).
    """
    return {
        "total_units": None,
        "completed_units": 0.0,
        "fraction": None,
        "eta_s": None,
        "rate_units_per_s": None,
        "improvements": 0,
    }


class ProgressTracker:
    """Completed-work accounting plus convergence timeline for one run.

    Args:
        driver: label for gauges and display (``"random"``,
            ``"branch-bound"``, ``"campaign"``, …).
        total_units: total-work estimate in whatever unit the caller
            advances by (evaluations, partition cells, jobs). ``None``
            means unknown: ``fraction`` and ``eta_s`` stay ``None`` but
            completed-work and the timeline still accumulate.
        timeline_capacity: convergence ring-buffer bound.
        clock: monotonic clock override (tests only).
        owner: identity tag for live consumers that must tell concurrent
            runs apart (the service tags each search with its job id).
            Defaults to the ambient :func:`progress_owner` tag, so
            searchers need no signature change to be taggable.
    """

    def __init__(
        self,
        driver: str = "search",
        total_units: Optional[float] = None,
        timeline_capacity: int = DEFAULT_TIMELINE_CAPACITY,
        clock: Callable[[], float] = time.monotonic,
        owner: Optional[str] = None,
    ) -> None:
        self.driver = driver
        self.owner = owner if owner is not None else current_progress_owner()
        self._clock = clock
        self.created_s = time.time()
        self._lock = threading.Lock()
        self._total = float(total_units) if total_units is not None else None
        self._completed = 0.0
        self._improvements = 0
        self._best_metric: Optional[float] = None
        self._timeline: "deque" = deque(maxlen=timeline_capacity)
        self._started = clock()
        self._finished: Optional[float] = None
        # EWMA throughput: units accumulated since the last rate sample.
        self._rate: Optional[float] = None
        self._rate_units = 0.0
        self._rate_marker = self._started
        with _TRACKERS_LOCK:
            _TRACKERS.add(self)

    # -- accounting -------------------------------------------------------

    def set_total(self, total_units: Optional[float]) -> None:
        """(Re)estimate the total; ``None`` marks it unknown again."""
        with self._lock:
            self._total = (
                float(total_units) if total_units is not None else None
            )

    def advance(self, units: float = 1.0) -> None:
        """Record ``units`` of completed work and refresh the ETA."""
        if units < 0:
            raise ValueError("progress cannot move backwards")
        now = self._clock()
        with self._lock:
            self._completed += units
            self._rate_units += units
            interval = now - self._rate_marker
            if interval >= RATE_INTERVAL_S:
                instantaneous = self._rate_units / interval
                self._rate = (
                    instantaneous
                    if self._rate is None
                    else RATE_ALPHA * instantaneous
                    + (1.0 - RATE_ALPHA) * self._rate
                )
                self._rate_units = 0.0
                self._rate_marker = now
        self._publish()

    def improved(self, best_metric: float) -> None:
        """Record an incumbent improvement on the convergence timeline."""
        now = self._clock()
        with self._lock:
            self._improvements += 1
            self._best_metric = float(best_metric)
            self._timeline.append(
                (round(now - self._started, 6), float(best_metric))
            )

    def finish(self) -> None:
        """Mark the run done; snaps completed work up to the total.

        Totals are estimates (often pre-filter upper bounds), so the
        snap is what guarantees a finished run reports fraction 1.0 —
        and since completed work only ever grows, the fraction stays
        monotonically nondecreasing throughout.
        """
        with self._lock:
            if self._finished is None:
                self._finished = self._clock()
            if self._total is not None and self._completed < self._total:
                self._completed = self._total
        self._publish()

    # -- derived views ----------------------------------------------------

    @property
    def done(self) -> bool:
        with self._lock:
            return self._finished is not None

    def fraction(self) -> Optional[float]:
        """Completed share in ``[0, 1]``, or ``None`` with no total."""
        with self._lock:
            return self._fraction_locked()

    def _fraction_locked(self) -> Optional[float]:
        if self._total is None or self._total <= 0:
            return None
        return min(1.0, self._completed / self._total)

    def eta_seconds(self) -> Optional[float]:
        """EWMA-throughput remaining-time estimate (None when unknown)."""
        with self._lock:
            return self._eta_locked()

    def _eta_locked(self) -> Optional[float]:
        if (
            self._finished is not None
            or self._total is None
            or self._rate is None
            or self._rate <= 0
        ):
            return None
        remaining = self._total - self._completed
        if remaining <= 0:
            return 0.0
        return remaining / self._rate

    def elapsed_seconds(self) -> float:
        with self._lock:
            end = self._finished if self._finished is not None else self._clock()
            return end - self._started

    def stats_payload(self) -> Dict[str, Any]:
        """The compact ``progress`` sub-dict for ``SearchResult.stats``
        (same key set as :func:`empty_progress_stats`)."""
        with self._lock:
            return {
                "total_units": self._total,
                "completed_units": self._completed,
                "fraction": self._fraction_locked(),
                "eta_s": self._eta_locked(),
                "rate_units_per_s": self._rate,
                "improvements": self._improvements,
            }

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe full view (the ``/progress`` endpoint's payload):
        the stats payload plus identity, timing, and the timeline."""
        with self._lock:
            end = self._finished if self._finished is not None else self._clock()
            return {
                "driver": self.driver,
                "owner": self.owner,
                "total_units": self._total,
                "completed_units": self._completed,
                "fraction": self._fraction_locked(),
                "eta_s": self._eta_locked(),
                "rate_units_per_s": self._rate,
                "improvements": self._improvements,
                "best_metric": self._best_metric,
                "elapsed_s": round(end - self._started, 6),
                "done": self._finished is not None,
                "timeline": [list(point) for point in self._timeline],
            }

    # -- gauge mirroring --------------------------------------------------

    def _publish(self) -> None:
        """Mirror fraction/ETA into the ambient registry (no-op when no
        scope is active, preserving the zero-traffic guarantee).

        Owned trackers add a ``job`` label: two concurrent searches with
        the same driver would otherwise fight over one gauge series, so
        each would read the other's fraction (the cross-contamination the
        service regression test pins). Unowned trackers keep the original
        single-series shape.
        """
        if _scope.active_obs() is None:
            return
        labels = {"driver": self.driver}
        if self.owner is not None:
            labels["job"] = self.owner
        fraction = self.fraction()
        if fraction is not None:
            _scope.set_gauge("search.progress_fraction", fraction, **labels)
        eta = self.eta_seconds()
        if eta is not None:
            _scope.set_gauge("search.eta_seconds", eta, **labels)


class ProgressPrinter:
    """Daemon thread rendering a live one-line progress display.

    Polls :func:`active_trackers` every ``interval_s`` and rewrites one
    carriage-returned line on ``stream`` (stderr by default — stdout
    stays machine-parseable). Started by the CLI's ``--progress`` flag;
    :meth:`stop` terminates the line with a newline so the shell prompt
    lands clean.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        interval_s: float = 0.25,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._wrote = False
        self._last_width = 0

    def start(self) -> "ProgressPrinter":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="obs-progress", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        if self._wrote:
            self.stream.write("\n")
            self.stream.flush()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.render_once()

    def render_once(self) -> None:
        """One repaint (factored out so tests can drive it directly)."""
        line = self._compose(active_trackers())
        if not line and not self._wrote:
            return
        padded = line.ljust(self._last_width)
        self._last_width = len(line)
        self.stream.write("\r" + padded)
        self.stream.flush()
        self._wrote = True

    @staticmethod
    def _compose(trackers: List[ProgressTracker]) -> str:
        parts = []
        for tracker in trackers:
            if tracker.done:
                continue
            snap = tracker.snapshot()
            fraction = snap["fraction"]
            if fraction is not None:
                piece = f"{tracker.driver} {fraction:6.1%}"
                if snap["total_units"]:
                    piece += (
                        f" ({snap['completed_units']:,.0f}"
                        f"/{snap['total_units']:,.0f})"
                    )
            else:
                piece = (
                    f"{tracker.driver} {snap['completed_units']:,.0f} units"
                )
            if snap["eta_s"] is not None:
                piece += f" eta {snap['eta_s']:.1f}s"
            if snap["best_metric"] is not None:
                piece += f" best {snap['best_metric']:.4e}"
            parts.append(piece)
        return "  |  ".join(parts)
