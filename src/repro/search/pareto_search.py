"""Multi-objective (energy vs delay) mapspace search.

EDP collapses the energy/latency trade-off to one number; architects often
want the whole frontier instead — e.g. the lowest-energy mapping that
meets a latency target. This search samples the mapspace and maintains the
set of non-dominated (energy, cycles) mappings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro import obs
from repro.mapspace.generator import MapSpace
from repro.model.evaluator import Evaluation, Evaluator
from repro.search.loop import RunLedger, batch_engine_for, check_int
from repro.utils import batching
from repro.utils.rng import make_rng


@dataclass
class ParetoSearchResult:
    """The non-dominated set found by :class:`ParetoSearch`.

    ``frontier`` is sorted by ascending energy (so descending-or-equal
    cycles); every entry is a valid evaluation no other entry dominates.
    ``stats`` carries the uniform searcher stats payload (wall time,
    evaluator counters, and the always-present ``batch`` sub-dict).
    """

    frontier: List[Evaluation] = field(default_factory=list)
    num_evaluated: int = 0
    num_valid: int = 0
    stats: Dict = field(default_factory=dict)

    def best_by(self, objective: str) -> Optional[Evaluation]:
        """Frontier entry minimizing one metric ('energy'/'delay'/'edp')."""
        if not self.frontier:
            return None
        return min(self.frontier, key=lambda e: e.metric(objective))

    def fastest_within_energy(self, energy_budget_pj: float) -> Optional[Evaluation]:
        """Lowest-cycle mapping not exceeding an energy budget."""
        candidates = [
            e for e in self.frontier if e.energy_pj <= energy_budget_pj
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda e: e.cycles)

    def leanest_within_latency(self, cycle_budget: int) -> Optional[Evaluation]:
        """Lowest-energy mapping not exceeding a cycle budget."""
        candidates = [e for e in self.frontier if e.cycles <= cycle_budget]
        if not candidates:
            return None
        return min(candidates, key=lambda e: e.energy_pj)


def _dominates_xy(
    a_energy: float, a_cycles: int, b_energy: float, b_cycles: int
) -> bool:
    return (
        a_energy <= b_energy
        and a_cycles <= b_cycles
        and (a_energy < b_energy or a_cycles < b_cycles)
    )


def _dominates(a: Evaluation, b: Evaluation) -> bool:
    return _dominates_xy(a.energy_pj, a.cycles, b.energy_pj, b.cycles)


class ParetoSearch:
    """Random sampling that keeps the (energy, cycles) Pareto set.

    Args:
        mapspace: where mappings come from.
        evaluator: prices each mapping.
        max_evaluations: sampling budget.
        seed: RNG seed or generator.
        use_batch: price sampled candidates through the vectorized
            :class:`~repro.model.batch.BatchEvaluator` when it supports
            the triple, else through the scalar evaluator (bit-exact
            either way). Sampling consumes the RNG stream one draw at a
            time and pricing consumes none, so both visit exactly the
            same candidates. Candidates are sampled and priced in chunks
            of :data:`~repro.utils.batching.DEFAULT_BATCH_SIZE`.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        evaluator: Evaluator,
        max_evaluations: int = 10_000,
        seed: Optional[Union[int, random.Random]] = None,
        use_batch: bool = True,
    ) -> None:
        self.mapspace = mapspace
        self.evaluator = evaluator
        self.max_evaluations = check_int(
            "max_evaluations", max_evaluations, minimum=1
        )
        self.rng = make_rng(seed)
        self.use_batch = use_batch

    def run(self) -> ParetoSearchResult:
        engine = batch_engine_for(self.mapspace, self.evaluator, self.use_batch)
        # No scalar incumbent in a multi-objective search: the ledger only
        # counts, and the progress timeline records frontier growth.
        ledger = RunLedger(
            self.evaluator, "pareto",
            total_units=self.max_evaluations, engine=engine,
        )
        frontier: List[Evaluation] = []
        with ledger, obs.trace("search.run", driver="pareto", mode=ledger.mode):
            while ledger.evaluations < self.max_evaluations:
                chunk = min(
                    batching.DEFAULT_BATCH_SIZE,
                    self.max_evaluations - ledger.evaluations,
                )
                with obs.trace("search.batch", size=chunk):
                    with obs.trace("search.sample"):
                        batch = self.mapspace.sample_batch(self.rng, chunk)
                    with obs.trace("search.price"):
                        outcome = ledger.price_batch(batch)
                ledger.count_outcome(outcome)
                for i in np.flatnonzero(outcome.valid):
                    i = int(i)
                    energy = float(outcome.energy_pj[i])
                    cycles = int(outcome.cycles[i])
                    if any(
                        _dominates_xy(kept.energy_pj, kept.cycles, energy, cycles)
                        for kept in frontier
                    ):
                        continue
                    # Materialize the full Evaluation only for frontier
                    # entrants: dominated candidates never leave the batch.
                    evaluation = outcome.evaluations.get(i)
                    if evaluation is None:
                        evaluation = self.evaluator.evaluate_fresh(
                            batch.mapping_at(i)
                        )
                    frontier[:] = [
                        kept
                        for kept in frontier
                        if not _dominates(evaluation, kept)
                    ]
                    frontier.append(evaluation)
                    ledger.progress.improved(float(len(frontier)))
            frontier.sort(key=lambda e: (e.energy_pj, e.cycles))
            ledger.stop()
            return ParetoSearchResult(
                frontier=frontier,
                num_evaluated=ledger.evaluations,
                num_valid=ledger.num_valid,
                stats=ledger.stats(),
            )
