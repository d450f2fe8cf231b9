"""The one search loop: one pricer, and a ledger for the run.

Every search prices its candidates through one
:class:`~repro.model.batch.BatchEvaluator`, built per run by
:func:`batch_engine_for`. The engine prices a packed
:class:`~repro.model.batch.MappingBatch` through its vectorized kernels,
or row by row through the scalar evaluator when its row-wise switch is
off (``use_batch=False``, or an evaluator the kernels cannot price
exactly), with bit-identical metrics either way, so no loop branches on
how its rows are priced. Only the row-wise path looks rows up in the
evaluator's cache (one lookup per candidate); kernel-priced rows never
do, and only their improvements and fallback rows are stored. Random and
Pareto search sample their chunks straight into packed rows; genetic
search packs each assembled population with
:func:`~repro.model.batch.pack_mappings`.

:class:`RunLedger` is the run's accounting and the one owner of its
counts: the clock, candidates and valid rows, the incumbent and its
convergence curve, the batch-kernel rows (:class:`BatchCounts`), the
branch-and-bound tree counters, the cache baseline and the progress
tracker. ``SearchResult.stats``, the ``search.*`` and ``batch.*``
metrics behind ``/metrics`` and the tracker behind ``/progress`` are all
fed from one call each, so they cannot disagree. Exhaustive search and
branch-and-bound price enumerated batches directly, from per-chain
tables (see :meth:`~repro.model.batch.BatchEvaluator.evaluate_batch`),
but account through the same ledger; a branch-and-bound walk counts its
own rows and tree nodes (a parallel unit has no ledger) and hands them
over once.
"""

from __future__ import annotations

import functools
import numbers
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import obs
from repro.exceptions import SearchError
from repro.mapspace.generator import MapSpace, MapspaceKind
from repro.model.batch import BatchEvaluator, BatchOutcome, MappingBatch
from repro.model.evaluator import OBJECTIVES, Evaluation, Evaluator
from repro.obs import TIMING_BUCKETS, ProgressTracker
from repro.search.result import ConvergencePoint, SearchResult, throughput_stats


def check_objective(objective: Any) -> str:
    """The canonical name of a search objective, or :class:`SearchError`.

    Accepts the names :meth:`Evaluation.metric` accepts and folds its
    delay aliases ("cycles", "latency") into "delay", so the kernels and
    the bound engine, which branch on the canonical names, price the same
    metric as the row-wise path.
    """
    if not isinstance(objective, str) or objective not in OBJECTIVES:
        raise SearchError(
            f"unknown objective {objective!r}; use edp, energy, or delay"
        )
    return "delay" if objective in ("cycles", "latency") else objective


def check_kind(kind: Any) -> MapspaceKind:
    """The :class:`MapspaceKind` ``kind`` names, or :class:`SearchError`."""
    try:
        return MapspaceKind(kind)
    except (TypeError, ValueError):
        raise SearchError(
            f"unknown mapspace kind {kind!r}; use "
            f"{', '.join(known.value for known in MapspaceKind)}"
        ) from None


def check_int(
    name: str, value: Any, minimum: Optional[int] = None,
    optional: bool = False,
) -> Any:
    """Reject a search count that is not an integer (a bool is not),
    or is below ``minimum``, as :class:`SearchError`; ``None`` passes
    when ``optional``."""
    if value is None and optional:
        return value
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or (minimum is not None and value < minimum)
    ):
        bound = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise SearchError(
            f"{name} must be {bound}{' or None' if optional else ''}, "
            f"got {value!r}"
        )
    return value


def lazy_evaluation(
    evaluations: Dict[int, Evaluation], i: int, evaluator: Evaluator,
    mapping: Any,
) -> Callable[[], Evaluation]:
    """Row ``i``'s full evaluation, built only when called.

    That is ``evaluations[i]`` when the engine made it anyway (a fallback
    row, or any row priced row-wise), else the row's mapping priced
    through :meth:`Evaluator.evaluate_fresh`. ``mapping`` is the mapping,
    or a callable that builds it (so a row that never becomes the final
    best is never materialized).
    """
    evaluation = evaluations.get(i)
    if evaluation is not None:
        return lambda: evaluation
    if callable(mapping):
        return lambda: evaluator.evaluate_fresh(mapping())
    return functools.partial(evaluator.evaluate_fresh, mapping)


def batch_engine_for(
    mapspace: MapSpace, evaluator: Evaluator, use_batch: bool
) -> BatchEvaluator:
    """The pricing engine for this search: built on the mapspace's
    layout, with its row-wise switch off when ``use_batch`` is not set."""
    return BatchEvaluator(
        evaluator, layout=mapspace.batch_layout(), vectorize=use_batch
    )


@dataclass
class BatchCounts:
    """Rows a run priced through the batch kernel: ``stats["batch"]``.

    Derived from each :class:`~repro.model.batch.BatchOutcome`'s masks. A
    row that carries an evaluation without being a fallback row was
    priced with the row-wise switch off and never reached the kernel.
    ``infeasible`` counts the enumerated candidates the enumeration
    proved capacity-infeasible on menu indices and never packed; they
    are candidates of the run (``num_evaluated``), but not kernel rows.
    """

    batches: int = 0
    candidates: int = 0
    pruned: int = 0
    fallback: int = 0
    infeasible: int = 0

    @classmethod
    def of(
        cls, outcome: BatchOutcome, batch: Optional[MappingBatch] = None
    ) -> "BatchCounts":
        infeasible = 0 if batch is None else batch.candidates - batch.size
        fallback = int(outcome.fallback.sum())
        priced = outcome.valid.size - (len(outcome.evaluations) - fallback)
        if not priced:
            return cls(infeasible=infeasible)
        return cls(1, priced, int(outcome.pruned.sum()), fallback, infeasible)

    def __iadd__(self, other: "BatchCounts") -> "BatchCounts":
        self.batches += other.batches
        self.candidates += other.candidates
        self.pruned += other.pruned
        self.fallback += other.fallback
        self.infeasible += other.infeasible
        return self

    def payload(self) -> Dict[str, Any]:
        return {
            "batches": self.batches,
            "candidates": self.candidates,
            "pruned": self.pruned,
            "prune_rate": (
                self.pruned / self.candidates if self.candidates else 0.0
            ),
            "fallback": self.fallback,
            "infeasible": self.infeasible,
        }


def _bnb_stats(
    nodes_expanded: int = 0,
    leaves_deferred: int = 0,
    subtrees_pruned: int = 0,
    infeasible_subtrees: int = 0,
    root_bound: Optional[float] = None,
    bound_tightness: Optional[float] = None,
    warm_start_metric: Optional[float] = None,
) -> Dict[str, Any]:
    """The ``bnb`` stats sub-dict (all-zero on a run without a tree)."""
    return {
        "nodes_expanded": nodes_expanded,
        "leaves_deferred": leaves_deferred,
        "subtrees_pruned": subtrees_pruned,
        "infeasible_subtrees": infeasible_subtrees,
        "root_bound": root_bound,
        "bound_tightness": bound_tightness,
        "warm_start_metric": warm_start_metric,
    }


class RunLedger:
    """Accounting for one search run.

    Use as a context manager around the run: it times the run, and at
    :meth:`stop` (or a clean exit) finishes the progress tracker and
    publishes ``search.runs`` / ``search.run_seconds``. Build the result
    inside the run's ``search.run`` span, so the span and the clock both
    cover the final best's pricing. ``mode`` reads
    ``"batch"`` when the engine's kernels price the rows and ``"scalar"``
    when its row-wise switch is off.

    An improvement is recorded with a callable that builds its full
    :class:`Evaluation`; only the final best's is called, once, by
    :meth:`result`.

    Args:
        evaluator: the run's evaluator (re-prices the final best).
            Its attached cache, if any, is baselined here so a shared
            cache reports this run's delta.
        driver: metric label, e.g. ``"random"``.
        objective: the metric improvements are judged on.
        total_units: progress-total estimate (``None`` = unknown).
        engine: the engine from :func:`batch_engine_for`; None for a
            ledger that only aggregates other runs' results.
    """

    def __init__(
        self,
        evaluator: Optional[Evaluator],
        driver: str,
        objective: str = "edp",
        total_units: Optional[float] = None,
        engine: Any = None,
    ) -> None:
        self.evaluator = evaluator
        self.driver = driver
        self.objective = objective
        self.engine = engine
        self.mode = (
            "batch" if getattr(engine, "vectorize", False) else "scalar"
        )
        self.progress = ProgressTracker(driver=driver, total_units=total_units)
        self.cache = getattr(evaluator, "cache", None)
        self.cache_baseline = (
            (self.cache.hits, self.cache.misses)
            if self.cache is not None
            else (0, 0)
        )
        self.elapsed_s = 0.0
        self._started = 0.0
        self._stopped = False
        self.evaluations = 0
        self.num_valid = 0
        self.batch = BatchCounts()
        self.bnb = _bnb_stats()
        self._make_best: Optional[Callable[[], Evaluation]] = None
        self.best_metric = float("inf")
        self.curve: List[ConvergencePoint] = []

    def __enter__(self) -> "RunLedger":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.stop()

    def stop(self) -> None:
        """Stop the run's clock, finish its progress and publish
        ``search.runs`` / ``search.run_seconds``, once."""
        if self._stopped:
            return
        self._stopped = True
        self.elapsed_s = time.perf_counter() - self._started
        self.progress.finish()
        obs.inc("search.runs", driver=self.driver)
        obs.observe(
            "search.run_seconds",
            self.elapsed_s,
            buckets=TIMING_BUCKETS,
            driver=self.driver,
        )

    def price_batch(
        self, batch: MappingBatch, prune: bool = False
    ) -> BatchOutcome:
        """Price a packed batch's rows against the current incumbent."""
        return self.engine.evaluate_batch(
            batch,
            objective=self.objective,
            incumbent=self.best_metric,
            prune=prune,
        )

    def count(self, candidates: int, advance: bool = True) -> None:
        """Count priced candidates in every sink at once.

        ``advance=False`` leaves the progress tracker alone, for runs
        that measure progress in other units (branch-and-bound cells).
        """
        self.evaluations += candidates
        obs.inc("search.candidates", candidates, driver=self.driver)
        if advance:
            self.progress.advance(candidates)

    def count_batch(self, counts: BatchCounts) -> None:
        """Count batch-kernel rows in ``stats["batch"]`` and the
        ``batch.*`` metrics at once."""
        self.batch += counts
        if counts.batches:
            obs.inc("batch.batches", counts.batches)
            obs.inc("batch.candidates", counts.candidates)
            obs.inc("batch.pruned", counts.pruned)
            obs.inc("batch.fallback", counts.fallback)
        if counts.infeasible:
            obs.inc("batch.infeasible", counts.infeasible)

    def count_outcome(
        self, outcome: BatchOutcome, batch: Optional[MappingBatch] = None
    ) -> None:
        """Count one priced batch: its candidates (an enumerated batch's
        span, else its rows), valid rows and kernel rows."""
        self.count(outcome.valid.size if batch is None else batch.candidates)
        self.num_valid += int(outcome.valid.sum())
        self.count_batch(BatchCounts.of(outcome, batch))

    def improved(
        self, metric: float, make_evaluation: Callable[[], Evaluation],
        at: int,
    ) -> None:
        """The improvement hook: the candidate ``make_evaluation`` builds
        is the new incumbent, found at candidate number ``at`` of the
        run."""
        self._make_best = make_evaluation
        self.best_metric = metric
        self.curve.append(ConvergencePoint(evaluations=at, best_metric=metric))
        obs.inc("search.improvements", driver=self.driver)
        obs.set_gauge("search.best_metric", metric, driver=self.driver)
        self.progress.improved(metric)

    def record_batch(
        self, batch: MappingBatch, outcome: BatchOutcome
    ) -> List[int]:
        """Account a packed :class:`~repro.model.batch.BatchOutcome`.

        Valid rows are counted with an array sum; only rows that beat the
        incumbent on entry are walked (in row order, so the improvement
        sequence matches a row-by-row walk). Returns the rows that
        improved the incumbent, ascending. An improvement keeps its
        mapping, not a full evaluation (see :func:`lazy_evaluation`).
        An enumerated batch counts its whole span, and each improvement is
        numbered by its row's ordinal within it.
        """
        base = self.evaluations
        self.count_outcome(outcome, batch)
        beats = outcome.valid & ~outcome.pruned
        beats &= outcome.metric < self.best_metric
        improved: List[int] = []
        for i in np.flatnonzero(beats):
            i = int(i)
            metric = float(outcome.metric[i])
            if metric < self.best_metric:
                self.improved(
                    metric,
                    lazy_evaluation(
                        outcome.evaluations, i, self.evaluator,
                        batch.mapping_at(i),
                    ),
                    base + batch.ordinal(i) + 1,
                )
                improved.append(i)
        return improved

    def close_tree(
        self, walk: Any, root_bound: float,
        warm_start_metric: Optional[float],
    ) -> None:
        """Take a finished branch-and-bound walk's counts into the run.

        ``walk`` is the driver's ``_SubtreeWalker`` with every parallel
        unit's counters already summed in. Its rows reach
        ``search.candidates`` and ``stats["batch"]`` here (progress
        advanced by covered cells during the walk), and its tree counters
        become ``stats["bnb"]``, ``search.subtrees_pruned`` and
        ``search.bound_tightness``.
        """
        self.count(walk.evaluations, advance=False)
        self.num_valid += walk.num_valid
        self.count_batch(walk.batch)
        tightness = (
            root_bound / self.best_metric
            if self._make_best is not None and self.best_metric > 0
            else None
        )
        self.bnb = _bnb_stats(
            nodes_expanded=walk.nodes_expanded,
            leaves_deferred=walk.leaves_deferred,
            subtrees_pruned=walk.subtrees_pruned,
            infeasible_subtrees=walk.infeasible_subtrees,
            root_bound=root_bound,
            bound_tightness=tightness,
            warm_start_metric=warm_start_metric,
        )
        obs.inc("search.subtrees_pruned", walk.subtrees_pruned,
                driver=self.driver)
        if tightness is not None:
            obs.set_gauge("search.bound_tightness", tightness,
                          driver=self.driver)

    def stats(self) -> Dict[str, Any]:
        """The uniform ``stats`` payload for the run so far."""
        payload = throughput_stats(
            self.evaluations, self.elapsed_s, self.cache, self.cache_baseline
        )
        payload["batch"] = self.batch.payload()
        payload["bnb"] = self.bnb
        payload["progress"] = self.progress.stats_payload()
        return payload

    def result(self, terminated_by: str) -> SearchResult:
        """The run's result: builds the final best's evaluation, then
        stops the run."""
        best = self._make_best() if self._make_best is not None else None
        self.stop()
        return SearchResult(
            best=best,
            objective=self.objective,
            num_evaluated=self.evaluations,
            num_valid=self.num_valid,
            terminated_by=terminated_by,
            curve=self.curve,
            stats=self.stats(),
        )
