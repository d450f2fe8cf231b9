"""Reusable process-pool machinery for parallel searches.

:mod:`repro.search.parallel` grew the original pool: a fork→spawn→
sequential start-method ladder, an initializer that ships immutable
search state once per worker instead of once per job, and a snapshot
protocol that carries per-worker metrics registries back to the driver.
The parallel branch-and-bound driver needs exactly the same machinery
plus one more ingredient — *shared* mutable state (the incumbent bound)
that must be created from the same multiprocessing context as the pool
itself. This module hosts the generalized pieces so both searchers (and
future parallel drivers) share one implementation:

* :func:`run_jobs` — fan picklable jobs over a persistent pool of
  workers, trying each start method before degrading to sequential
  in-process execution; results come back in dispatch order regardless
  of completion order.
* ``shared_factory`` — a hook called with the pool's context (or
  ``None`` on the sequential path) to build context-matched shared
  primitives. A ``multiprocessing.Value`` created under ``fork`` cannot
  be handed to a ``spawn`` pool, so the factory runs once per ladder
  attempt and its products are merged into the worker state.
* :class:`SharedIncumbent` — the cross-process best-so-far cell used by
  parallel branch-and-bound; its process-local stand-in for serial and
  sequential runs is :class:`~repro.search.branch_bound.LocalIncumbent`.
* :func:`run_under_worker_obs` / :func:`collect_worker_obs` — the
  metrics-registry snapshot protocol: workers accumulate into a private
  registry and ship a picklable snapshot inside their result stats; the
  driver pops and merges every snapshot into its ambient registry so
  per-worker counters sum into the caller's scope.
* :func:`worker_stack` and :func:`worker_errors` — the worker side both
  drivers share: the per-process mapspace + evaluator, and job
  attribution of failures.
"""

from __future__ import annotations

import logging
import math
import os
import sys
from contextlib import contextmanager
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from repro import obs
from repro.exceptions import SearchError, WorkerError
from repro.mapspace.factory import make_mapspace
from repro.model.evaluator import Evaluator
from repro.obs import MetricsRegistry

logger = logging.getLogger(__name__)

#: Start methods tried, in order, when the caller does not force one.
#: ``fork`` is cheapest (no re-import, no pickling of the initializer
#: state); ``spawn`` is the portable fallback (and the only option on
#: Windows and recent macOS defaults).
START_METHODS = ("fork", "spawn")

#: Transient stats key a worker uses to ship its private metrics-registry
#: snapshot back to the driver; popped (and merged into the ambient
#: registry) by :func:`collect_worker_obs` before merged stats are
#: assembled, so it is never visible to callers.
OBS_SNAPSHOT_KEY = "_obs_registry"

# Per-process (entry, state) installed by the pool initializer so
# spawn-started workers (which re-import this module) can rebuild their
# stack without re-pickling the shared state for every job.
_POOL_STATE: Optional[Tuple[Callable[..., Any], Dict[str, Any]]] = None


def _init_pool_worker(entry: Callable[..., Any], state: Dict[str, Any]) -> None:
    """Pool initializer: stash the job entry point and shared state."""
    global _POOL_STATE
    _POOL_STATE = (entry, state)


def _run_pool_job(indexed_job: Tuple[int, Any]) -> Tuple[int, Any]:
    """Worker trampoline: run one job through the installed entry point."""
    index, job = indexed_job
    if _POOL_STATE is None:  # pragma: no cover - initializer always runs
        raise SearchError("worker pool state not initialized")
    entry, state = _POOL_STATE
    return index, entry(state, job)


def spawn_usable() -> bool:
    """True when ``spawn`` workers can bootstrap.

    Spawned children re-import ``__main__``; from an interactive session
    (REPL, stdin script) there is no importable main module, the children
    die during bootstrap, and the pool respawns them forever — a hang, not
    an exception. Detect that case up front and fall through to the next
    execution mode instead.
    """
    main = sys.modules.get("__main__")
    if main is None or getattr(main, "__spec__", None) is not None:
        return True  # `python -m ...` (and pytest): importable by spec.
    main_file = getattr(main, "__file__", None)
    return bool(main_file) and os.path.exists(main_file)


def start_contexts(start_method: Optional[str]) -> Iterator[Tuple[Any, str]]:
    """Yield ``(context, method)`` per usable start method: ``start_method``
    alone when forced, else :data:`START_METHODS` in order (spawn only when
    :func:`spawn_usable`). An exhausted ladder means running in-process."""
    for method in (start_method,) if start_method else START_METHODS:
        if method == "spawn" and not spawn_usable():
            logger.warning(
                "spawn start method skipped: __main__ is not importable "
                "(interactive session?)"
            )
            continue
        try:
            import multiprocessing

            context = multiprocessing.get_context(method)
        except (ImportError, ValueError) as error:
            logger.debug("start method %r unavailable: %s", method, error)
            continue
        yield context, method


def run_jobs(
    entry: Callable[[Dict[str, Any], Any], Any],
    state: Dict[str, Any],
    jobs: Iterable[Any],
    workers: int,
    start_method: Optional[str] = None,
    shared_factory: Optional[Callable[[Any], Dict[str, Any]]] = None,
    on_result: Optional[Callable[[Any], None]] = None,
) -> Tuple[List[Any], str, Dict[str, Any]]:
    """Fan ``jobs`` over a process pool; returns (results, mode, shared).

    ``entry(state, job)`` must be a picklable module-level callable (spawn
    workers import it by reference). ``state`` ships once per worker via
    the pool initializer; jobs stay small. Results come back sorted by
    dispatch order even though the pool consumes them via
    ``imap_unordered`` (with a chunksize that amortizes IPC for large job
    lists), so tie-breaking downstream is identical across pool modes.

    ``shared_factory(ctx)`` — when given — is called once per ladder
    attempt with the candidate ``multiprocessing`` context (``None`` on
    the sequential path) and returns a dict merged into the worker state.
    Context-matched construction is mandatory for synchronization
    primitives: a SemLock born under ``fork`` raises if shipped into a
    ``spawn`` pool. The dict from the attempt that actually ran is
    returned so the driver can read the shared objects afterwards.

    ``on_result(result)`` — when given — is called in the driver process
    once per job **as its result arrives** (completion order on the pool
    path, dispatch order sequentially), before the sorted result list is
    assembled. This is the hook parallel drivers use to stream per-unit
    progress into a live tracker; exceptions it raises propagate and
    abort the run, so callbacks should be cheap and non-throwing.

    Every candidate start method is tried before giving up on
    parallelism; the sequential fallback still runs all jobs in-process.
    """
    if workers < 1:
        raise SearchError("workers must be >= 1")
    job_list = list(jobs)
    factory = shared_factory or (lambda ctx: {})
    if workers > 1 and len(job_list) > 1:
        for context, method in start_contexts(start_method):
            try:
                shared = factory(context)
                full_state = {**state, **shared} if shared else state
                chunksize = max(1, len(job_list) // (workers * 4))
                with context.Pool(
                    processes=workers,
                    initializer=_init_pool_worker,
                    initargs=(entry, full_state),
                ) as pool:
                    indexed = []
                    for pair in pool.imap_unordered(
                        _run_pool_job,
                        list(enumerate(job_list)),
                        chunksize=chunksize,
                    ):
                        indexed.append(pair)
                        if on_result is not None:
                            on_result(pair[1])
                indexed.sort(key=lambda pair: pair[0])
                logger.info(
                    "worker pool ran %d jobs via %s", len(job_list), method
                )
                return [result for _, result in indexed], method, shared
            except (OSError, ValueError, RuntimeError) as error:
                logger.warning(
                    "start method %r failed (%s); trying next option",
                    method,
                    error,
                )
        logger.warning(
            "no multiprocessing start method usable; running sequentially"
        )
    shared = factory(None)
    full_state = {**state, **shared} if shared else state
    results = []
    for job in job_list:
        result = entry(full_state, job)
        results.append(result)
        if on_result is not None:
            on_result(result)
    return results, "sequential", shared


class SharedIncumbent:
    """Cross-process best-so-far cell for parallel branch-and-bound.

    A ``multiprocessing.Value('d')`` holds the incumbent metric; its lock
    is the synchronisation. Reads take the lock too: a torn read could
    observe a garbage-small metric and wrongly prune a subtree containing
    the optimum, which would break the bit-exactness contract. Construct
    via :func:`SharedIncumbent.factory` so the primitive is born from the
    pool's own context (see :func:`run_jobs`).
    """

    def __init__(self, ctx: Any, metric: float = math.inf):
        self._value = ctx.Value("d", float(metric))

    @staticmethod
    def factory(metric: float = math.inf) -> Callable[[Any], Dict[str, Any]]:
        """``shared_factory`` for :func:`run_jobs`: builds the incumbent
        from the attempt's context, or a
        :class:`~repro.search.branch_bound.LocalIncumbent` when the
        attempt is sequential (``ctx is None``)."""

        def build(ctx: Any) -> Dict[str, Any]:
            if ctx is None:
                from repro.search.branch_bound import LocalIncumbent

                return {"incumbent": LocalIncumbent(metric)}
            return {"incumbent": SharedIncumbent(ctx, metric)}

        return build

    def read(self) -> float:
        with self._value.get_lock():
            return self._value.value

    def offer(self, metric: float) -> bool:
        """Install ``metric`` if strictly better; True when accepted.

        The compare and the write happen under one lock acquisition, so
        concurrent offers serialize and the cell is monotone decreasing.
        """
        metric = float(metric)
        with self._value.get_lock():
            if not metric < self._value.value:
                return False
            self._value.value = metric
            return True


def run_under_worker_obs(
    enabled: bool, run: Callable[[], Any]
) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Run ``run()`` under a private metrics registry when ``enabled``.

    Returns ``(result, snapshot)`` where ``snapshot`` is a picklable
    registry snapshot (or ``None`` when observability is off). The
    private registry deliberately replaces any scope inherited across
    ``fork`` — the driver's tracer file handle must not be shared — and
    the caller stores the snapshot under :data:`OBS_SNAPSHOT_KEY` in its
    result stats for :func:`collect_worker_obs` to merge driver-side.
    """
    if not enabled:
        return run(), None
    registry = MetricsRegistry()
    with obs.obs_scope(registry=registry):
        result = run()
    return result, registry.snapshot()


def collect_worker_obs(stats_dicts: Iterable[Dict[str, Any]]) -> None:
    """Merge worker registry snapshots into the driver's ambient registry.

    Each worker accumulated metrics into its own process-local registry
    (see :func:`run_under_worker_obs`); fold those counts into whichever
    registry the caller's :func:`~repro.obs.scope.obs_scope` installed,
    and strip the transport key so stats payloads keep their documented
    shape. Safe to call with observability off (snapshots are still
    stripped).
    """
    context = obs.active_obs()
    for stats in stats_dicts:
        snapshot = stats.pop(OBS_SNAPSHOT_KEY, None)
        if snapshot is not None and context is not None:
            context.registry.merge(snapshot)


def worker_stack(state: Dict[str, Any]) -> Dict[str, Any]:
    """The worker's mapspace and evaluator, built once per process per search.

    ``state`` carries the architecture, workload, mapspace kind and
    constraints and the driver's pre-built energy table (estimating it is
    the only expensive part of evaluator construction, so the driver
    hoists it out of the workers), plus optional ``evaluator_options``:
    the driver evaluator's keyword configuration (``include_noc``,
    ``include_static``, ``clock_ghz``). The evaluator is uncached: a
    worker prices its own stream, whose duplicate draws are too rare to
    pay for the lookups.

    The stack is memoized in ``state`` itself under ``"stack"``: the pool
    initializer installs one state dict per worker process, and the
    sequential fallback shares one across a run's jobs, so each process
    builds the stack once and drops it with the search. A driver's entry
    point may add its own per-search pieces to the returned dict (the
    branch-and-bound worker adds its bound engine).
    """
    stack = state.get("stack")
    if stack is None:
        stack = state["stack"] = {
            "mapspace": make_mapspace(
                state["arch"],
                state["workload"],
                state["kind"],
                state["constraints"],
            ),
            "evaluator": Evaluator(
                state["arch"],
                state["workload"],
                energy_table=state["energy_table"],
                **state.get("evaluator_options", {}),
            ),
        }
    return stack


@contextmanager
def worker_errors(index: int, seed: int) -> Iterator[None]:
    """Re-raise any failure inside the block as a :class:`WorkerError`.

    ``imap_unordered`` re-raises whatever bare exception a worker died
    with, losing which job failed; wrapping attaches the job's
    ``(index, seed)`` and pickles cleanly back to the driver.
    """
    try:
        yield
    except WorkerError:
        raise
    except Exception as error:
        raise WorkerError(
            index, seed, f"{type(error).__name__}: {error}"
        ) from error

