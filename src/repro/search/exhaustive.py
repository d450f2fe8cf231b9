"""Exhaustive search for toy problems (complete mapspace sweeps)."""

from __future__ import annotations

from itertools import islice

from repro import obs
from repro.exceptions import SearchError
from repro.mapspace.generator import MapSpace
from repro.model.batch import pack_mappings
from repro.model.evaluator import Evaluator
from repro.search.loop import RunLedger, batch_engine_for, check_batch_size
from repro.search.result import SearchResult


class ExhaustiveSearch:
    """Evaluate every mapping of a mapspace, each exactly once.

    Candidates come from one of two sources and feed the same run
    ledger. By default they are packed straight from the chain enumerator
    into columnar batches and priced in bulk by the vectorized
    :class:`~repro.model.batch.BatchEvaluator`, with admissible
    lower-bound pruning skipping the expensive traffic stage for
    candidates that provably cannot beat the incumbent. Permutation
    sweeps, ``use_batch=False``, and evaluator configurations the engine
    does not support enumerate ``Mapping`` objects in chunks and price
    them through the scalar evaluator instead. Results are bit-exact
    across the two sources.

    Args:
        mapspace: must be small enough to enumerate.
        evaluator: prices each mapping.
        objective: optimization metric name.
        permutations: also enumerate temporal loop orders (scalar source).
        limit: safety cap on enumerated mappings; exceeding it raises.
        use_batch: price candidates through the batch engine when it
            supports this (arch, workload, evaluator) triple.
        batch_size: candidates per packed batch or scalar chunk (>= 1).
        prune: enable lower-bound pruning on the packed source. Never
            changes the search outcome, only which candidates get fully
            priced.
        batch_engine: optional shared engine to price through instead of
            building one.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        evaluator: Evaluator,
        objective: str = "edp",
        permutations: bool = False,
        limit: int = 1_000_000,
        use_batch: bool = True,
        batch_size: int = 512,
        prune: bool = True,
        batch_engine=None,
    ) -> None:
        self.mapspace = mapspace
        self.evaluator = evaluator
        self.objective = objective
        self.permutations = permutations
        self.limit = limit
        self.use_batch = use_batch
        self.batch_size = check_batch_size(batch_size)
        self.prune = prune
        self.batch_engine = batch_engine

    def run(self) -> SearchResult:
        # Permutation sweeps leave the columnar grid (several temporal
        # loops per level per dim), so they always enumerate scalar.
        engine = None if self.permutations else batch_engine_for(
            self.mapspace, self.evaluator, self.use_batch, self.batch_engine
        )
        # The pre-filter menu product is cheap and only an over-estimate:
        # the tracker snaps the fraction to 1.0 at the end. Permutation
        # sweeps multiply the space by per-level orderings the product
        # doesn't see, so their total stays unknown.
        ledger = RunLedger(
            self.evaluator, "exhaustive", self.objective,
            total_units=(
                None
                if self.permutations
                else self.mapspace.enumeration_upper_bound()
            ),
            engine=engine,
        )
        # Clamp so the limit check always fires before a chunk that would
        # push past the cap is priced (and bound chunk memory).
        batch_size = max(1, min(self.batch_size, self.limit + 1))
        with ledger, obs.trace(
            "search.run", driver="exhaustive", mode=ledger.mode,
            objective=self.objective,
        ):
            if engine is not None:
                for batch in self.mapspace.iter_batches(batch_size=batch_size):
                    self._check_limit(ledger.evaluations + batch.size)
                    with obs.trace("search.batch", size=batch.size):
                        outcome = engine.evaluate_batch(
                            batch,
                            objective=self.objective,
                            incumbent=ledger.best_metric,
                            prune=self.prune,
                        )
                    ledger.record_batch(batch, outcome)
            else:
                # No dedup: chain enumeration emits each candidate exactly
                # once, so a seen-set would only hide a count mismatch
                # against the packed source (the enumeration-count-parity
                # invariant checks this).
                candidates = self.mapspace.enumerate_mappings(
                    permutations=self.permutations
                )
                layout = self.mapspace.batch_layout()
                while chunk := list(islice(candidates, batch_size)):
                    self._check_limit(ledger.evaluations + len(chunk))
                    with obs.trace("search.batch", size=len(chunk)):
                        batch = pack_mappings(layout, chunk)
                        outcome = ledger.price_batch(batch)
                    ledger.record_batch(batch, outcome)
        return ledger.result("exhausted")

    def _check_limit(self, evaluations: int) -> None:
        if evaluations > self.limit:
            raise SearchError(
                f"exhaustive search exceeded limit of {self.limit} mappings"
            )


def exhaustive_search(
    mapspace: MapSpace,
    evaluator: Evaluator,
    objective: str = "edp",
    permutations: bool = False,
    limit: int = 1_000_000,
    use_batch: bool = True,
    batch_size: int = 512,
    prune: bool = True,
) -> SearchResult:
    """One-shot functional wrapper around :class:`ExhaustiveSearch`."""
    return ExhaustiveSearch(
        mapspace,
        evaluator,
        objective=objective,
        permutations=permutations,
        limit=limit,
        use_batch=use_batch,
        batch_size=batch_size,
        prune=prune,
    ).run()
