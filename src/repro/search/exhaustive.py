"""Exhaustive search for toy problems (complete mapspace sweeps)."""

from __future__ import annotations

from repro import obs
from repro.exceptions import SearchError
from repro.mapspace.generator import MapSpace
from repro.model.batch import PartialBoundEngine
from repro.model.evaluator import Evaluator
from repro.search.loop import (
    RunLedger, batch_engine_for, check_int, check_objective,
)
from repro.search.result import SearchResult
from repro.utils import batching


class ExhaustiveSearch:
    """Evaluate every mapping of a mapspace, each exactly once.

    Candidates come straight from the chain enumerator as batches of
    per-dim menu indices (candidates the enumeration proves
    capacity-infeasible on menu indices are counted, never priced) and
    are priced by the :class:`~repro.model.batch.BatchEvaluator`. With
    its kernels on, rows are priced from the per-chain tables of a
    :class:`~repro.model.bounds.PartialBoundEngine` built once per run,
    the tables branch-and-bound bounds with, so no row is packed unless
    it improves the incumbent or falls back to the scalar model.
    Admissible lower-bound pruning (always on) skips the traffic terms of
    candidates that provably cannot beat the incumbent. With the
    row-wise switch off, rows are packed and priced one by one through
    the scalar evaluator. Results are bit-exact either way; the
    ``prune-parity`` invariant checks pruned against unpruned pricing,
    and ``leaf-exactness`` table pricing against the column walk.

    The sweep is exact over canonical loop order only: it enumerates
    tile-size chains with every level's temporal loops in workload
    dimension order, while the random sampler also shuffles them. On
    conv5_expand PFM under ``eyeriss_row_stationary()`` random search
    (100,000 evaluations, seed 1) finds EDP 4.965e14 against this
    sweep's 5.236e14.

    Args:
        mapspace: must be small enough to enumerate.
        evaluator: prices each mapping.
        objective: optimization metric name.
        limit: safety cap on enumerated mappings; exceeding it raises.
        use_batch: price candidates through the batch kernels when they
            price this evaluator exactly. Candidates are packed
            :data:`~repro.utils.batching.DEFAULT_BATCH_SIZE` per batch.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        evaluator: Evaluator,
        objective: str = "edp",
        limit: int = 1_000_000,
        use_batch: bool = True,
    ) -> None:
        self.mapspace = mapspace
        self.evaluator = evaluator
        self.objective = check_objective(objective)
        self.limit = check_int("limit", limit, 1)
        self.use_batch = use_batch

    def run(self) -> SearchResult:
        engine = batch_engine_for(self.mapspace, self.evaluator, self.use_batch)
        tables = self._tables(engine)
        # The pre-filter menu product is cheap and only an over-estimate:
        # the tracker snaps the fraction to 1.0 at the end.
        ledger = RunLedger(
            self.evaluator, "exhaustive", self.objective,
            total_units=self.mapspace.enumeration_upper_bound(),
            engine=engine,
        )
        # Clamp to bound chunk memory on tiny limits. The limit counts
        # enumerated candidates, so each batch is checked on its span
        # (capacity-infeasible candidates included) before it is priced.
        batch_size = max(1, min(batching.DEFAULT_BATCH_SIZE, self.limit + 1))
        with ledger, obs.trace(
            "search.run", driver="exhaustive", mode=ledger.mode,
            objective=self.objective,
        ):
            for batch in self.mapspace.iter_batches(
                batch_size=batch_size, capacity=engine.vectorize
            ):
                self._check_limit(ledger.evaluations + batch.candidates)
                with obs.trace("search.batch", size=batch.size):
                    outcome = engine.evaluate_batch(
                        batch,
                        objective=self.objective,
                        incumbent=ledger.best_metric,
                        prune=True,
                        tables=tables,
                    )
                ledger.record_batch(batch, outcome)
            return ledger.result("exhausted")

    def _tables(self, engine):
        """The per-chain tables enumerated rows are priced from, or None.

        Without them every batch is packed: row-wise pricing needs no
        tables, and a layout whose partial bounds could overflow int64,
        which :class:`PartialBoundEngine` refuses, is priced by the
        column walk as before (the sweep needs no bounds, and its rows'
        products are guarded row by row either way).
        """
        if not engine.vectorize:
            return None
        try:
            return PartialBoundEngine(engine, self.mapspace.dim_chain_menus())
        except SearchError:
            return None

    def _check_limit(self, evaluations: int) -> None:
        if evaluations > self.limit:
            raise SearchError(
                f"exhaustive search exceeded limit of {self.limit} mappings"
            )
