"""Simulated-annealing mapspace search (extension).

Another point on the "Ruby composes with better search" axis: a local
search whose neighborhood re-allocates one dimension's bound chain (the
same move the genetic search uses for mutation) with Metropolis
acceptance and a geometric cooling schedule.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Union

from repro import obs
from repro.exceptions import SearchError
from repro.mapspace.generator import MapSpace
from repro.model.batch import pack_mappings
from repro.model.evaluator import Evaluator
from repro.search.loop import RunLedger, batch_engine_for, check_objective
from repro.search.result import SearchResult
from repro.utils.rng import make_rng


class SimulatedAnnealing:
    """Simulated annealing over per-dimension bound chains.

    Args:
        mapspace: source of genomes and mapping assembly.
        evaluator: objective function (lower = better).
        objective: optimization metric name.
        steps: annealing steps (each evaluates one neighbor).
        initial_temperature: Metropolis temperature as a *fraction of the
            initial objective value* — scale-free across workloads.
        cooling: geometric decay factor per step.
        restarts: independent annealing chains; best result wins.
        seed: RNG seed or generator.
        use_batch: price candidates through the vectorized kernels of
            :class:`~repro.model.batch.BatchEvaluator`, else row by row
            through the scalar evaluator; the engine is bit-exact and
            pricing consumes no RNG, so the trajectory is the same either
            way.
        batch_engine: optional shared engine to price through instead of
            building one.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        evaluator: Evaluator,
        objective: str = "edp",
        steps: int = 1_000,
        initial_temperature: float = 0.5,
        cooling: float = 0.995,
        restarts: int = 1,
        seed: Optional[Union[int, random.Random]] = None,
        use_batch: bool = True,
        batch_engine=None,
    ) -> None:
        if steps < 1:
            raise SearchError("steps must be >= 1")
        if not 0.0 < cooling <= 1.0:
            raise SearchError("cooling must be in (0, 1]")
        if initial_temperature <= 0:
            raise SearchError("initial_temperature must be positive")
        if restarts < 1:
            raise SearchError("restarts must be >= 1")
        self.mapspace = mapspace
        self.evaluator = evaluator
        self.objective = check_objective(objective)
        self.steps = steps
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.restarts = restarts
        self.rng = make_rng(seed)
        self.use_batch = use_batch
        self.batch_engine = batch_engine

    def run(self) -> SearchResult:
        engine = batch_engine_for(
            self.mapspace, self.evaluator, self.use_batch, self.batch_engine
        )
        # Nominal plan: one seed draw + `steps` neighbors per restart.
        # Infeasible-seed retries can exceed it; the tracker clamps the
        # fraction at 1.0 and finish() snaps short runs up to it.
        ledger = RunLedger(
            self.evaluator, "annealing", self.objective,
            total_units=self.restarts * (self.steps + 1), engine=engine,
        )

        def evaluate(genome) -> float:
            # The Metropolis chain is sequential (each step's candidate
            # depends on the previous acceptance), so candidates are
            # priced one at a time; pricing consumes no RNG.
            batch = pack_mappings(
                self.mapspace.batch_layout(),
                [self.mapspace.assemble(genome, self.rng)],
            )
            outcome = ledger.price_batch(batch)
            ledger.record_batch(batch, outcome)
            return float(outcome.metric[0])

        with ledger, obs.trace(
            "search.run", driver="annealing", mode=ledger.mode,
            objective=self.objective,
        ):
            for restart in range(self.restarts):
                with obs.trace("search.restart", index=restart):
                    current = self.mapspace.sample_chains(self.rng)
                    current_metric = evaluate(current)
                    attempts = 0
                    while current_metric == float("inf") and attempts < 50:
                        current = self.mapspace.sample_chains(self.rng)
                        current_metric = evaluate(current)
                        attempts += 1
                    if current_metric == float("inf"):
                        continue
                    temperature = self.initial_temperature * current_metric
                    for _ in range(self.steps):
                        dim = self.rng.choice(list(current))
                        neighbor = self.mapspace.resample_dim(
                            current, dim, self.rng
                        )
                        neighbor_metric = evaluate(neighbor)
                        if self._accept(
                            current_metric, neighbor_metric, temperature
                        ):
                            current, current_metric = neighbor, neighbor_metric
                            obs.inc("search.accepts", driver="annealing")
                        else:
                            obs.inc("search.rejects", driver="annealing")
                        temperature *= self.cooling
        return ledger.result("budget")

    def _accept(self, current: float, candidate: float, temperature: float) -> bool:
        if candidate <= current:
            return True
        if candidate == float("inf") or temperature <= 0:
            return False
        delta = candidate - current
        return self.rng.random() < math.exp(-delta / temperature)
