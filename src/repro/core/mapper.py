"""The Mapper facade: one call from (architecture, workload) to a mapping.

Ties together the three Timeloop subproblems — mapspace generation, search,
and cost modelling — behind a single configuration object. This is the
primary entry point of the library:

    >>> from repro import eyeriss_like, ConvLayer, find_best_mapping
    >>> arch = eyeriss_like()
    >>> layer = ConvLayer("conv", c=64, m=64, p=56, q=56, r=3, s=3)
    >>> result = find_best_mapping(arch, layer.workload(), kind="ruby-s")
    >>> result.best.edp  # doctest: +SKIP
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Union

from repro import obs
from repro.arch.spec import Architecture
from repro.energy.table import EnergyTable
from repro.exceptions import SearchError
from repro.mapspace.constraints import ConstraintSet
from repro.mapspace.factory import make_mapspace
from repro.mapspace.generator import MapspaceKind
from repro.model.evaluator import Evaluator
from repro.problem.workload import Workload
from repro.search import POOLED_STRATEGIES, STRATEGIES
from repro.search.loop import check_int, check_kind, check_objective
from repro.search.random_search import RandomSearch
from repro.search.result import SearchResult
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class MapperConfig:
    """Configuration for a :class:`Mapper` run.

    Every value is checked on construction: an unknown kind, objective
    or strategy, a count that is not an integer in range, or a
    ``use_batch`` that is not a bool, raises :class:`SearchError` before
    any search starts.

    Attributes:
        kind: mapspace variant ("pfm", "ruby", "ruby-s", "ruby-t").
        objective: "edp" (paper default), "energy", or "delay"
            ("cycles" and "latency" are stored as "delay").
        strategy: "random" (Timeloop-style), "exhaustive", "branch-bound"
            (exact, with subtree pruning), or "genetic".
        max_evaluations: evaluation budget of the heuristic strategies,
            random and genetic (which breeds
            ``max_evaluations // population_size - 1`` generations and
            refuses a budget below two populations); the exact strategies
            ignore it.
        patience: consecutive-non-improving termination of the random
            strategy (the paper uses 3000); genetic search ignores it.
        seed: RNG seed for reproducibility.
        constraints: dataflow constraints applied to the mapspace.
        use_batch: price candidates through the vectorized batch kernels
            (bit-exact); without it, or for an evaluator the kernels do
            not model, each row is priced through the scalar evaluator.
            Only row-wise pricing looks candidates up in the cache (and
            stores every evaluation); the kernels never look it up and
            store only improvements and fallback rows.
        workers: process count. With ``workers > 1`` the random strategy
            runs that many independent streams, seeded from ``seed``, as
            one best-of-seeds job
            (:func:`~repro.search.campaign.search_job`, the paper's
            multi-thread setup; ``max_evaluations`` and ``patience``
            apply per stream), and branch-bound shares its
            subtrees over the pool with a shared incumbent (results stay
            bit-identical to the serial walk). The other strategies have
            no pool and reject ``workers > 1``.
        start_method: multiprocessing start method override for
            ``workers > 1`` ("fork" or "spawn"; auto-laddered when None).
    """

    kind: Union[str, MapspaceKind] = MapspaceKind.RUBY_S
    objective: str = "edp"
    strategy: str = "random"
    max_evaluations: int = 10_000
    patience: Optional[int] = 1_000
    seed: Optional[int] = None
    constraints: Optional[ConstraintSet] = None
    use_batch: bool = True
    workers: int = 1
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        check_kind(self.kind)
        object.__setattr__(
            self, "objective", check_objective(self.objective)
        )
        if self.strategy not in STRATEGIES:
            raise SearchError(
                f"unknown strategy {self.strategy!r}; use "
                f"{', '.join(STRATEGIES)}"
            )
        check_int("max_evaluations", self.max_evaluations, minimum=1)
        check_int("patience", self.patience, minimum=1, optional=True)
        check_int("seed", self.seed, optional=True)
        check_int("workers", self.workers, minimum=1)
        if not isinstance(self.use_batch, bool):
            raise SearchError(
                f"use_batch must be true or false, got {self.use_batch!r}"
            )
        if self.workers > 1 and self.strategy not in POOLED_STRATEGIES:
            raise SearchError(
                f"workers > 1 needs a strategy with a worker pool "
                f"({' or '.join(POOLED_STRATEGIES)}), not {self.strategy!r}"
            )


class Mapper:
    """Find good mappings of a workload onto an architecture.

    Args:
        arch: the accelerator.
        workload: the tensor operation.
        config: search configuration (defaults to :class:`MapperConfig`).
        energy_table: optional pre-built energy table (ignored when an
            ``evaluator`` is injected — it already owns one).
        evaluator: optional pre-built evaluator for this exact
            (arch, workload) pair. The mapper service passes one whose
            :class:`~repro.model.eval_cache.EvaluationCache` lives
            across requests. Only row-wise pricing (``use_batch=False``)
            looks candidates up in it: a repeated row-wise request reads
            its evaluations back, while within one search few lookups
            hit. Vectorized searches only store their improvements and
            scalar-fallback rows there.
    """

    def __init__(
        self,
        arch: Architecture,
        workload: Workload,
        config: Optional[MapperConfig] = None,
        energy_table: Optional[EnergyTable] = None,
        evaluator: Optional[Evaluator] = None,
    ) -> None:
        self.arch = arch
        self.workload = workload
        self.config = config or MapperConfig()
        self.evaluator = (
            evaluator
            if evaluator is not None
            else Evaluator(arch, workload, energy_table)
        )
        self.mapspace = make_mapspace(
            arch, workload, self.config.kind, self.config.constraints
        )

    def run(self, seed: Optional[Union[int, random.Random]] = None) -> SearchResult:
        """Run the configured search; ``seed`` overrides the config seed."""
        with obs.trace(
            "mapper.run",
            strategy=self.config.strategy,
            kind=MapspaceKind(self.config.kind).value,
            objective=self.config.objective,
            workload=self.workload.name,
        ):
            return self._run(seed)

    def _run(
        self, seed: Optional[Union[int, random.Random]] = None
    ) -> SearchResult:
        config = self.config
        effective_seed = seed if seed is not None else config.seed
        strategy = config.strategy
        if strategy == "random" and config.workers > 1:
            from repro.search.campaign import CampaignJob, search_job

            rng = make_rng(effective_seed)
            seeds = tuple(rng.getrandbits(32) for _ in range(config.workers))
            job = CampaignJob(
                job_id=self.workload.name,
                arch=self.arch,
                workload=self.workload,
                kind=MapspaceKind(config.kind).value,
                objective=config.objective,
                max_evaluations=config.max_evaluations,
                patience=config.patience,
                seeds=seeds,
                constraints=config.constraints,
            )
            return search_job(
                job,
                workers=config.workers,
                start_method=config.start_method,
                use_batch=config.use_batch,
                energy_table=self.evaluator.energy_table,
            )
        if strategy == "random":
            return RandomSearch(
                self.mapspace,
                self.evaluator,
                objective=self.config.objective,
                max_evaluations=self.config.max_evaluations,
                patience=self.config.patience,
                seed=effective_seed,
                use_batch=self.config.use_batch,
            ).run()
        if strategy == "exhaustive":
            from repro.search.exhaustive import ExhaustiveSearch

            return ExhaustiveSearch(
                self.mapspace,
                self.evaluator,
                objective=self.config.objective,
                use_batch=self.config.use_batch,
            ).run()
        if strategy == "branch-bound":
            from repro.search.branch_bound import BranchBoundSearch

            return BranchBoundSearch(
                self.mapspace,
                self.evaluator,
                objective=self.config.objective,
                seed=effective_seed,
                use_batch=self.config.use_batch,
                workers=self.config.workers,
                start_method=self.config.start_method,
            ).run()
        # "genetic", the last name MapperConfig accepts.
        from repro.search.genetic import GeneticSearch

        return GeneticSearch(
            self.mapspace,
            self.evaluator,
            objective=self.config.objective,
            max_evaluations=self.config.max_evaluations,
            seed=effective_seed,
            use_batch=self.config.use_batch,
        ).run()


def find_best_mapping(
    arch: Architecture,
    workload: Workload,
    kind: Union[str, MapspaceKind] = MapspaceKind.RUBY_S,
    objective: str = "edp",
    max_evaluations: int = 10_000,
    patience: Optional[int] = 1_000,
    seed: Optional[int] = None,
    constraints: Optional[ConstraintSet] = None,
    strategy: str = "random",
    use_batch: bool = True,
    workers: int = 1,
    start_method: Optional[str] = None,
) -> SearchResult:
    """One-call mapping search (see :class:`MapperConfig` for parameters)."""
    config = MapperConfig(
        kind=kind,
        objective=objective,
        strategy=strategy,
        max_evaluations=max_evaluations,
        patience=patience,
        seed=seed,
        constraints=constraints,
        use_batch=use_batch,
        workers=workers,
        start_method=start_method,
    )
    return Mapper(arch, workload, config).run()
