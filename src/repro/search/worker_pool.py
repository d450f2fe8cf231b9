"""Worker processes for campaigns and parallel searches.

One worker layer, :class:`WorkerSet`, runs the campaign runner and
the pooled best-of-seeds search (both in :mod:`repro.search.campaign`)
and parallel branch-and-bound
(:mod:`repro.search.branch_bound_parallel`); :func:`run_jobs` is the
searches' loop over it. The rest is the searches' shared worker side:
:class:`SharedIncumbent`, a context-matched cross-process best-so-far
cell (built by a ``shared_factory``); :func:`run_under_worker_obs` /
:func:`collect_worker_obs`, which ship each worker's private metrics
registry back as a snapshot and merge it into the driver's scope; and
:func:`worker_stack` / :func:`worker_errors`, the per-process mapspace
and evaluator and the job attribution of failures.
"""

from __future__ import annotations

import logging
import math
import os
import sys
from contextlib import closing, contextmanager
from dataclasses import dataclass
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
#: ``fork`` is cheapest (no re-import, no pickling of the worker state);
#: ``spawn`` is the portable fallback (and the only option on Windows
#: and recent macOS defaults).
START_METHODS = ("fork", "spawn")

#: Transient stats key a worker uses to ship its private metrics-registry
#: snapshot back to the driver; popped (and merged into the ambient
#: registry) by :func:`collect_worker_obs` before merged stats are
#: assembled, so it is never visible to callers.
OBS_SNAPSHOT_KEY = "_obs_registry"

#: Seconds a reaped worker gets to exit before it is SIGKILLed.
_REAP_GRACE_S = 2.0


def spawn_usable() -> bool:
    """True when ``spawn`` workers can bootstrap.

    Spawned children re-import ``__main__``; from an interactive session
    (REPL, stdin script) there is no importable main module and every
    child dies during bootstrap. Detect that case up front and fall
    through to the next execution mode instead.
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


def _exit_with_driver(sentinel) -> None:
    """Watcher-thread body: end this worker process once the driver
    process, whose ``sentinel`` turns ready when it exits, is gone."""
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)


def _worker_main(conn, entry, state, inherited) -> None:
    """Worker-process body: run jobs until the driver hangs up.

    Replies ``(True, entry(state, job))``, or ``(False, error)`` with the
    worker's traceback as the error's ``__cause__``. Closing the
    ``inherited`` driver-side pipe ends a forked worker got copies of
    lets EOF arrive when the driver closes its end or dies. EOF is only
    read between jobs, so a watcher thread also ends the worker, mid-job,
    once the driver process is gone.
    """
    import multiprocessing
    import threading
    from multiprocessing.pool import ExceptionWithTraceback

    for other in inherited:
        other.close()
    threading.Thread(
        target=_exit_with_driver,
        args=(multiprocessing.parent_process().sentinel,),
        daemon=True,
    ).start()
    try:
        while True:
            job = conn.recv()
            try:
                reply = (True, entry(state, job))
            except Exception as error:
                traced = ExceptionWithTraceback(error, error.__traceback__)
                reply = (False, traced)
            conn.send(reply)
    except (EOFError, OSError):
        pass  # the driver closed the set or died


@dataclass(eq=False)
class _Worker:
    proc: Any
    conn: Any

    def reap(self, terminate: bool) -> None:
        """Stop the process: SIGTERM first when ``terminate``, otherwise let
        it exit on EOF; SIGKILL whatever outlives the grace period."""
        self.conn.close()
        if terminate:
            self.proc.terminate()
        self.proc.join(_REAP_GRACE_S)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()


class WorkerSet:
    """Up to ``size`` worker processes, each running one job at a time.

    ``entry(state, job)`` must be a picklable module-level callable.
    Each worker gets ``(entry, state)`` once, as arguments at process
    start; workers start on demand (or all at once, :meth:`start`) and
    live until :meth:`close`.

    The first :meth:`submit` picks the first of ``contexts`` (see
    :func:`start_contexts`) whose first worker starts, after merging
    ``shared_factory(context)`` into ``state`` (a ``multiprocessing.Value``
    must come from the context that starts the workers). With none, or
    ``contexts=None``, jobs run inline, one at a time, with
    ``shared_factory(None)``. :attr:`mode` is the start method or None.

    :meth:`wait` maps each finished job key to ``(True, result)``, or to
    ``(False, exitcode)`` when its worker died without replying. An
    exception a job raised re-raises there (from :meth:`submit` inline).
    """

    def __init__(
        self,
        entry: Callable[[Any, Any], Any],
        state: Any,
        size: int,
        contexts: Optional[Iterable[Tuple[Any, str]]],
        shared_factory: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> None:
        self.size = size
        self.mode: Optional[str] = None
        self.shared: Dict[str, Any] = {}
        self._entry = entry
        self._base_state = state
        self._state = state
        self._contexts = contexts
        self._factory = shared_factory or (lambda context: {})
        self._context: Any = None
        self._started = False
        self._idle: List[_Worker] = []
        self._busy: Dict[Any, _Worker] = {}
        self._done: Dict[Any, Tuple[bool, Any]] = {}  # inline results

    @property
    def inline(self) -> bool:
        """True once jobs run in the driver process."""
        return self._started and self._context is None

    @property
    def running(self) -> int:
        """Jobs submitted and not yet returned by :meth:`wait`."""
        return len(self._busy) + len(self._done)

    def has_room(self) -> bool:
        """True when another job can start now (inline: one at a time)."""
        return self.running < (1 if self.inline else self.size)

    def _use(self, context: Any, method: Optional[str]) -> None:
        """Adopt ``context`` and build the shared objects that match it."""
        self._context, self.mode = context, method
        self.shared = self._factory(context)
        base = self._base_state
        self._state = {**base, **self.shared} if self.shared else base

    def _spawn(self) -> _Worker:
        ours, theirs = self._context.Pipe()
        inherited: List[Any] = []
        if self.mode == "fork":
            inherited = [ours] + [w.conn for w in self._idle]
            inherited += [w.conn for w in self._busy.values()]
        proc = self._context.Process(
            target=_worker_main,
            args=(theirs, self._entry, self._state, inherited),
            daemon=True,
        )
        try:
            proc.start()
        finally:
            theirs.close()
        return _Worker(proc, ours)

    def _first_worker(self) -> Optional[_Worker]:
        """Pick the start method by starting the first worker under it."""
        self._started = True
        for context, method in self._contexts or ():
            try:
                self._use(context, method)
                return self._spawn()
            except (OSError, ValueError, RuntimeError) as error:
                logger.warning(
                    "start method %r failed (%s); trying next option",
                    method, error,
                )
        if self._contexts is not None:
            logger.warning(
                "no multiprocessing start method usable; running jobs inline "
                "(no timeouts, no crash isolation)"
            )
        self._use(None, None)
        return None

    def start(self) -> List[int]:
        """Start workers now, up to ``size``, instead of on demand; returns
        the idle workers' pids (none when jobs run inline)."""
        if not self._started:
            worker = self._first_worker()
            if worker is not None:
                self._idle.append(worker)
        while not self.inline and self.running + len(self._idle) < self.size:
            self._idle.append(self._spawn())
        return [worker.proc.pid for worker in self._idle]

    def submit(self, key: Any, job: Any) -> None:
        """Start ``job`` under ``key`` on an idle worker (or a new one)."""
        if not self._started:
            worker = self._first_worker()
        elif self.inline:
            worker = None
        else:
            worker = self._idle.pop() if self._idle else self._spawn()
        if worker is None:
            self._done[key] = (True, self._entry(self._state, job))
            return
        self._busy[key] = worker
        try:
            worker.conn.send(job)
        except OSError:
            pass  # died while idle: wait() reports it

    def wait(
        self, timeout: Optional[float] = None
    ) -> Dict[Any, Tuple[bool, Any]]:
        """Block until a job ends or ``timeout`` seconds pass; return the
        finished jobs (see the class docstring). A dead worker is reaped."""
        if self._done or not self._busy:
            done, self._done = self._done, {}
            return done
        from multiprocessing.connection import wait

        busy = self._busy
        ready = set(wait(
            [w.conn for w in busy.values()]
            + [w.proc.sentinel for w in busy.values()],
            timeout,
        ))
        done: Dict[Any, Tuple[bool, Any]] = {}
        for key, worker in list(busy.items()):
            dead = worker.proc.sentinel in ready
            if not dead and worker.conn not in ready:
                continue
            # A dying worker's pipe reads as EOF.
            try:
                reply = worker.conn.recv() if worker.conn.poll() else None
            except (EOFError, OSError):
                reply = None
            del busy[key]
            if reply is None or dead:
                worker.reap(terminate=False)
            else:
                self._idle.append(worker)
            if reply is None:
                done[key] = (False, worker.proc.exitcode)
            elif not reply[0]:
                raise reply[1]
            else:
                done[key] = reply
        return done

    def terminate(self, key: Any) -> None:
        """Stop the worker running ``key``; its job is abandoned."""
        self._done.pop(key, None)
        worker = self._busy.pop(key, None)
        if worker is not None:
            worker.reap(terminate=True)

    def close(self) -> None:
        """Reap every worker: idle ones exit on EOF, busy ones are stopped."""
        for key in list(self._busy):
            self.terminate(key)
        for worker in self._idle:
            worker.reap(terminate=False)
        self._idle.clear()


def _job_seed(job: Any) -> int:
    """The seed a job names: random-search jobs are ``(index, seed)``;
    other jobs read 0, as branch-and-bound units do in their own errors."""
    if isinstance(job, tuple) and len(job) == 2 and isinstance(job[1], int):
        return job[1]
    return 0


def run_jobs(
    entry: Callable[[Dict[str, Any], Any], Any],
    state: Dict[str, Any],
    jobs: Iterable[Any],
    workers: int,
    start_method: Optional[str] = None,
    shared_factory: Optional[Callable[[Any], Dict[str, Any]]] = None,
    on_result: Optional[Callable[[Any], None]] = None,
) -> Tuple[List[Any], str, Dict[str, Any]]:
    """Fan ``jobs`` over a :class:`WorkerSet`; returns (results, mode, shared).

    ``entry``, ``state`` and ``shared_factory`` are as for
    :class:`WorkerSet`. Results come back in dispatch order whatever the
    completion order, so tie-breaking downstream is identical across
    modes. ``mode`` is the start method that ran, or "sequential" when
    the jobs ran in-process (one worker, one job, or no usable start
    method); ``shared`` is the ``shared_factory`` dict the run used.

    ``on_result(result)`` — when given — is called in the driver once
    per job **as its result arrives**, before the sorted list is built:
    the hook parallel drivers stream progress through. Exceptions it
    raises abort the run.

    An exception a job raised propagates; a worker that dies mid-job
    raises :class:`WorkerError` for that job's dispatch index. Either
    way every other worker is reaped before the error leaves.
    """
    if workers < 1:
        raise SearchError("workers must be >= 1")
    job_list = list(jobs)
    contexts = (
        start_contexts(start_method)
        if workers > 1 and len(job_list) > 1 else None
    )
    results: List[Any] = [None] * len(job_list)
    pending = list(enumerate(job_list))[::-1]
    with closing(
        WorkerSet(entry, state, workers, contexts, shared_factory)
    ) as pool:
        while pending or pool.running:
            while pending and pool.has_room():
                pool.submit(*pending.pop())
            for index, (ok, value) in pool.wait().items():
                if not ok:
                    raise WorkerError(
                        index, _job_seed(job_list[index]),
                        f"worker process died (exitcode {value})",
                    )
                results[index] = value
                if on_result is not None:
                    on_result(value)
    return results, pool.mode or "sequential", pool.shared


class SharedIncumbent:
    """Cross-process best-so-far cell for parallel branch-and-bound.

    A ``multiprocessing.Value('d')`` holds the incumbent metric; its lock
    is the synchronisation. Reads take the lock too: a torn read could
    observe a garbage-small metric and wrongly prune a subtree containing
    the optimum, which would break the bit-exactness contract. Construct
    via :func:`SharedIncumbent.factory` so the primitive is born from the
    worker set's own context (see :class:`WorkerSet`).
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

    The stack is memoized in ``state`` itself under ``"stack"``: each
    worker process gets its own state dict at start, and the inline
    fallback shares one across a run's jobs, so each process
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

    A bare exception from a worker says nothing of which job failed;
    wrapping attaches the job's ``(index, seed)`` and pickles cleanly
    back to the driver.
    """
    try:
        yield
    except WorkerError:
        raise
    except Exception as error:
        raise WorkerError(
            index, seed, f"{type(error).__name__}: {error}"
        ) from error

