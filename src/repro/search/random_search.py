"""Timeloop-style random-sampling search.

Samples mappings uniformly from the mapspace, evaluates each, and keeps the
best. Termination mirrors Timeloop: stop after ``patience`` consecutive
*valid* mappings that fail to improve the objective (the paper uses 3000
across 24 threads), or after a hard evaluation budget.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from repro import obs
from repro.mapspace.generator import MapSpace
from repro.model.evaluator import Evaluator
from repro.search.loop import (
    RunLedger,
    batch_engine_for,
    check_int,
    check_objective,
)
from repro.search.result import SearchResult
from repro.utils import batching
from repro.utils.rng import make_rng

#: The paper's per-thread termination criterion (Section IV-B): 3000
#: consecutive valid non-improving mappings. It applies per stream, so
#: each seed of a best-of-seeds job
#: (:func:`~repro.search.campaign.search_job`) is judged on its own.
DEFAULT_PATIENCE = 3_000


class RandomSearch:
    """Random sampling with a consecutive-non-improving stop criterion.

    Args:
        mapspace: where mappings come from.
        evaluator: prices each mapping. An attached
            :class:`~repro.model.eval_cache.EvaluationCache` is consulted
            only when draws are priced row by row (``use_batch=False``):
            there it skips re-pricing duplicate draws, and its hit
            counters surface in ``SearchResult.stats``. Vectorized
            pricing never looks it up.
        objective: "edp" (the paper's default), "energy", or "delay".
        max_evaluations: hard budget on drawn mappings (valid or not).
        patience: stop after this many consecutive valid non-improving
            mappings; ``None`` disables the criterion. Defaults to the
            paper's 3000.
        seed: RNG seed or generator for reproducibility.
        use_batch: price candidates through the vectorized
            :class:`~repro.model.batch.BatchEvaluator` when it supports
            this (arch, workload, evaluator) triple, else through the
            scalar evaluator, the one path that looks candidates up in
            (and stores every evaluation into) the evaluator's cache.
            Draws, metrics, improvements, and termination are identical
            either way (see :mod:`repro.search.loop`). Candidates are
            sampled and priced in chunks of
            :data:`~repro.utils.batching.DEFAULT_BATCH_SIZE`.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        evaluator: Evaluator,
        objective: str = "edp",
        max_evaluations: int = 10_000,
        patience: Optional[int] = DEFAULT_PATIENCE,
        seed: Optional[Union[int, random.Random]] = None,
        use_batch: bool = True,
    ) -> None:
        self.mapspace = mapspace
        self.evaluator = evaluator
        self.objective = check_objective(objective)
        self.max_evaluations = check_int(
            "max_evaluations", max_evaluations, minimum=1
        )
        self.patience = check_int(
            "patience", patience, minimum=1, optional=True
        )
        self.rng = make_rng(seed)
        self.use_batch = use_batch

    def run(self) -> SearchResult:
        """Run the search to termination."""
        engine = batch_engine_for(self.mapspace, self.evaluator, self.use_batch)
        ledger = RunLedger(
            self.evaluator, "random", self.objective,
            total_units=self.max_evaluations, engine=engine,
        )
        consecutive_non_improving = 0
        terminated_by = "budget"
        with ledger, obs.trace(
            "search.run", driver="random", mode=ledger.mode,
            objective=self.objective,
        ):
            while ledger.evaluations < self.max_evaluations:
                # A chunk never outruns a one-at-a-time loop's stopping
                # point: it is capped by both the remaining budget and the
                # draws still needed to exhaust patience, so a patience
                # stop can only land on the chunk's last draw and the RNG
                # stream never runs ahead.
                chunk = min(
                    batching.DEFAULT_BATCH_SIZE,
                    self.max_evaluations - ledger.evaluations,
                )
                if self.patience is not None:
                    chunk = min(chunk, self.patience - consecutive_non_improving)
                with obs.trace("search.batch", size=chunk):
                    with obs.trace("search.sample"):
                        batch = self.mapspace.sample_batch(self.rng, chunk)
                    with obs.trace("search.price"):
                        outcome = ledger.price_batch(batch, prune=True)
                improved = ledger.record_batch(batch, outcome)
                # The valid rows after the chunk's last improvement (all of
                # them, if none improved) extend the non-improving run.
                tail = outcome.valid
                if improved:
                    consecutive_non_improving = 0
                    tail = tail[improved[-1] + 1:]
                consecutive_non_improving += int(tail.sum())
                if (
                    self.patience is not None
                    and consecutive_non_improving >= self.patience
                ):
                    terminated_by = "patience"
                    break
            return ledger.result(terminated_by)
