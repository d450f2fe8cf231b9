"""GAMMA-style genetic search over a mapspace (extension).

The paper positions Ruby as orthogonal to search strategy: better search
(GAMMA, Mind Mappings, CoSA) composes with a better mapspace. This module
provides that composition — a genetic algorithm whose genome is the set of
per-dimension bound chains plus the permutation choice, with:

* **selection** — tournament by objective;
* **crossover** — per-dimension chain exchange between two parents
  (repairing joint fanout violations by re-allocating offending dims);
* **mutation** — re-allocating one random dimension's chain.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.exceptions import SearchError
from repro.mapspace.allocation import DimChain
from repro.mapspace.generator import MapSpace
from repro.model.batch import pack_mappings
from repro.model.evaluator import Evaluator
from repro.search.loop import (
    RunLedger,
    batch_engine_for,
    check_int,
    check_objective,
)
from repro.search.result import SearchResult
from repro.utils.rng import make_rng

Genome = Dict[str, DimChain]


class GeneticSearch:
    """Genetic mapspace search.

    Args:
        mapspace: source of genomes (chains) and mapping assembly.
        evaluator: fitness function (lower objective = fitter).
        objective: optimization metric name.
        population_size: individuals per generation.
        max_evaluations: evaluation budget, the one every heuristic
            strategy reads. The initial population and each bred
            generation cost ``population_size`` evaluations, so the run
            evolves ``max_evaluations // population_size - 1``
            generations; a budget below ``2 * population_size`` (not
            even one generation) raises :class:`SearchError`.
        mutation_rate: probability of mutating each offspring.
        tournament: tournament size for parent selection.
        seed: RNG seed or generator.
        use_batch: score each population through the vectorized
            kernels of :class:`~repro.model.batch.BatchEvaluator`, else
            row by row through the scalar evaluator. Genomes are
            assembled in population order before scoring (pricing
            consumes no RNG) and the engine is bit-exact, so the evolution
            trajectory is the same either way. Each population is priced as one chunk.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        evaluator: Evaluator,
        objective: str = "edp",
        population_size: int = 50,
        max_evaluations: int = 1_050,
        mutation_rate: float = 0.3,
        tournament: int = 3,
        seed: Optional[Union[int, random.Random]] = None,
        use_batch: bool = True,
    ) -> None:
        if population_size < 2:
            raise SearchError("population_size must be >= 2")
        # The initial population plus at least one bred generation.
        check_int(
            "max_evaluations", max_evaluations, minimum=2 * population_size
        )
        if not 0.0 <= mutation_rate <= 1.0:
            raise SearchError("mutation_rate must be in [0, 1]")
        if tournament < 1:
            raise SearchError("tournament must be >= 1")
        self.mapspace = mapspace
        self.evaluator = evaluator
        self.objective = check_objective(objective)
        self.population_size = population_size
        self.generations = max_evaluations // population_size - 1
        self.mutation_rate = mutation_rate
        self.tournament = tournament
        self.rng = make_rng(seed)
        self.use_batch = use_batch

    def run(self) -> SearchResult:
        """Evolve the population and return the best mapping found."""
        engine = batch_engine_for(self.mapspace, self.evaluator, self.use_batch)
        ledger = RunLedger(
            self.evaluator, "genetic", self.objective,
            total_units=(self.generations + 1) * self.population_size,
            engine=engine,
        )

        def score_population(genomes: List[Genome]) -> List[float]:
            """Fitness of a whole population, in population order.

            All genomes are assembled first (the only RNG consumer), then
            priced together; pruning stays off because selection needs
            every individual's fitness, not just the incumbent-beaters.
            """
            batch = pack_mappings(
                self.mapspace.batch_layout(),
                [self.mapspace.assemble(genome, self.rng) for genome in genomes],
            )
            outcome = ledger.price_batch(batch)
            ledger.record_batch(batch, outcome)
            return outcome.metric.tolist()

        with ledger, obs.trace(
            "search.run", driver="genetic", mode=ledger.mode,
            objective=self.objective,
        ):
            population = [
                self.mapspace.sample_chains(self.rng)
                for _ in range(self.population_size)
            ]
            with obs.trace("search.generation", index=0):
                scored = list(zip(score_population(population), population))
            for generation in range(self.generations):
                with obs.trace("search.generation", index=generation + 1):
                    offspring: List[Genome] = []
                    while len(offspring) < self.population_size:
                        mother = self._select(scored)
                        father = self._select(scored)
                        child = self._crossover(mother, father)
                        if self.rng.random() < self.mutation_rate:
                            child = self._mutate(child)
                        offspring.append(child)
                    scored_offspring = list(
                        zip(score_population(offspring), offspring)
                    )
                    pool = scored + scored_offspring
                    pool.sort(key=lambda pair: pair[0])
                    scored = pool[: self.population_size]
                obs.inc("search.generations", driver="genetic")
            return ledger.result("budget")

    def _select(self, scored: List[Tuple[float, Genome]]) -> Genome:
        contenders = [
            scored[self.rng.randrange(len(scored))] for _ in range(self.tournament)
        ]
        return min(contenders, key=lambda pair: pair[0])[1]

    def _crossover(self, mother: Genome, father: Genome) -> Genome:
        child: Genome = {}
        for dim in mother:
            child[dim] = mother[dim] if self.rng.random() < 0.5 else father[dim]
        return self._repair(child)

    def _mutate(self, genome: Genome) -> Genome:
        dim = self.rng.choice(list(genome))
        return self.mapspace.resample_dim(genome, dim, self.rng)

    def _repair(self, genome: Genome) -> Genome:
        """Re-allocate random dims until the joint fanout fits."""
        repaired = dict(genome)
        attempts = 0
        while not self.mapspace.chains_within_fanout(repaired):
            dim = self.rng.choice(list(repaired))
            repaired = self.mapspace.resample_dim(repaired, dim, self.rng)
            attempts += 1
            if attempts > 20 * len(repaired):
                return self.mapspace.sample_chains(self.rng)
        return repaired
