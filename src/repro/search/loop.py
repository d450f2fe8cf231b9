"""The one search loop: a pricer picked once, and a ledger for the run.

Random, genetic, annealing and Pareto search each run a single loop over
one pricer. The pricer is the vectorized
:class:`~repro.model.batch.BatchEvaluator` when it supports the (arch,
workload, evaluator) triple and ``use_batch`` is set, and a
:class:`ScalarPricer` otherwise. Both price a packed
:class:`~repro.model.batch.MappingBatch` through ``evaluate_rows`` with
bit-identical metrics, so the loop never branches on which one it holds.
Random and Pareto search sample their chunks straight into packed rows;
genetic and annealing search pack their assembled genomes with
:func:`~repro.model.batch.pack_mappings`.

:class:`RunLedger` is the run's accounting: candidate counts, the
incumbent and its convergence curve, and the ``search.candidates`` /
``search.improvements`` / ``search.best_metric`` metrics plus the progress
tracker, all fed from one call each. It builds the :class:`SearchResult`.
Exhaustive search and branch-and-bound price packed batches directly,
but account through the same ledger.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from repro import obs
from repro.exceptions import SearchError
from repro.mapspace.generator import MapSpace
from repro.model.batch import BatchEvaluator, BatchOutcome, MappingBatch
from repro.model.evaluator import Evaluation, Evaluator
from repro.obs import SearchTimer, empty_batch_stats
from repro.search.result import ConvergencePoint, SearchResult


def check_batch_size(batch_size: int) -> int:
    """Reject a non-positive ``batch_size`` the same way for every strategy."""
    if batch_size < 1:
        raise SearchError(f"batch_size must be >= 1, got {batch_size}")
    return batch_size


def batch_engine_for(
    mapspace: MapSpace,
    evaluator: Evaluator,
    use_batch: bool,
    injected: Any = None,
) -> Optional[Any]:
    """The batch engine for this search, or None when it must run scalar.

    An injected engine (the service's shared, lock-wrapped engine) skips
    construction; it must match this mapspace's layout, which the service
    guarantees by keying engines on the same (arch, workload, kind,
    constraints) signature.
    """
    if not use_batch:
        return None
    if injected is not None:
        return injected if getattr(injected, "supported", False) else None
    engine = BatchEvaluator(evaluator, layout=mapspace.batch_layout())
    return engine if engine.supported else None


class ScalarPricer:
    """The scalar :class:`Evaluator` behind the batch engine's interface.

    Calls :meth:`Evaluator.evaluate` exactly once per row, in row order,
    on the row's ``Mapping`` (the stored one for a packed list), so an
    attached cache is filled and looked up exactly as a per-candidate
    scalar loop would. Never prunes.
    """

    def __init__(self, evaluator: Evaluator) -> None:
        self.evaluator = evaluator

    def evaluate_rows(
        self,
        batch: MappingBatch,
        objective: str = "edp",
        incumbent: float = float("inf"),
        prune: bool = False,
    ) -> BatchOutcome:
        outcome = BatchOutcome.blank(batch.size)
        for i in range(batch.size):
            outcome.put(
                i, self.evaluator.evaluate(batch.mapping_at(i)), objective
            )
        return outcome

    def stats_payload(self) -> dict:
        return empty_batch_stats()


class RunLedger:
    """Accounting for one search run.

    Use as a context manager around the run (it owns the
    :class:`~repro.obs.SearchTimer`). ``pricer`` is the batch engine when
    one is given, else a :class:`ScalarPricer`; ``mode`` names which.

    Args:
        evaluator: the run's evaluator (re-prices improvements lazily).
        driver: metric label, e.g. ``"random"``.
        objective: the metric improvements are judged on.
        total_units: progress-total estimate (``None`` = unknown).
        engine: the batch engine from :func:`batch_engine_for`, or None.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        driver: str,
        objective: str = "edp",
        total_units: Optional[float] = None,
        engine: Any = None,
    ) -> None:
        self.evaluator = evaluator
        self.driver = driver
        self.objective = objective
        self.pricer = engine if engine is not None else ScalarPricer(evaluator)
        self.mode = "batch" if engine is not None else "scalar"
        self.timer = SearchTimer(
            evaluator, driver=driver, total_units=total_units
        )
        self.evaluations = 0
        self.num_valid = 0
        self.best: Optional[Evaluation] = None
        self.best_metric = float("inf")
        self.curve: List[ConvergencePoint] = []

    @property
    def progress(self):
        return self.timer.progress

    def __enter__(self) -> "RunLedger":
        self.timer.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.timer.__exit__(exc_type, exc, tb)

    def price_batch(
        self, batch: MappingBatch, prune: bool = False
    ) -> BatchOutcome:
        """Price a packed batch's rows against the current incumbent."""
        return self.pricer.evaluate_rows(
            batch,
            objective=self.objective,
            incumbent=self.best_metric,
            prune=prune,
        )

    def count(self, candidates: int) -> None:
        """Count priced candidates in every sink at once."""
        self.evaluations += candidates
        obs.inc("search.candidates", candidates, driver=self.driver)
        self.progress.advance(candidates)

    def improved(
        self, metric: float, evaluation: Evaluation, at: int
    ) -> None:
        """The improvement hook: ``evaluation`` is the new incumbent,
        found at candidate number ``at`` of the run."""
        self.best = evaluation
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
        improved the incumbent, ascending; an improvement without a full
        evaluation is re-priced through :meth:`Evaluator.evaluate_fresh`.
        """
        base = self.evaluations
        self.count(batch.size)
        self.num_valid += int(outcome.valid.sum())
        beats = outcome.valid & ~outcome.pruned
        beats &= outcome.metric < self.best_metric
        improved: List[int] = []
        for i in np.flatnonzero(beats):
            i = int(i)
            metric = float(outcome.metric[i])
            if metric < self.best_metric:
                evaluation = outcome.evaluations.get(i)
                if evaluation is None:
                    evaluation = self.evaluator.evaluate_fresh(
                        batch.mapping_at(i)
                    )
                self.improved(metric, evaluation, base + i + 1)
                improved.append(i)
        return improved

    def stats(self) -> dict:
        """The uniform ``stats`` payload for the run so far."""
        return self.timer.stats(self.evaluations, engine=self.pricer)

    def result(self, terminated_by: str) -> SearchResult:
        return SearchResult(
            best=self.best,
            objective=self.objective,
            num_evaluated=self.evaluations,
            num_valid=self.num_valid,
            terminated_by=terminated_by,
            curve=self.curve,
            stats=self.stats(),
        )
