"""The Evaluator: mapping -> (energy, cycles, EDP, utilization).

This is the architecture cost model of the Timeloop decomposition — the
third subproblem next to mapspace generation and search. An
:class:`Evaluator` is bound to one (architecture, workload) pair so search
loops can evaluate thousands of mappings without re-deriving tensor paths
or energy tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.arch.spec import Architecture
from repro.energy.accelergy import estimate_energy_table
from repro.exceptions import EvaluationError, ReproError
from repro.energy.table import EnergyTable
from repro.mapping.nest import Mapping
from repro.mapping.validity import check_mapping
from repro.model.access_counts import AccessCounts, compute_access_counts
from repro.model.eval_cache import EvaluationCache
from repro.model.energy_model import compute_energy_pj
from repro.obs import scope as _obs
from repro.model.latency import (
    bandwidth_stall_cycles,
    compute_cycles,
    compute_utilization,
)
from repro.problem.workload import Workload

#: Objective names :meth:`Evaluation.metric` accepts ("cycles" and
#: "latency" are aliases of "delay").
OBJECTIVES = ("edp", "energy", "delay", "cycles", "latency")


@dataclass(frozen=True)
class Evaluation:
    """The result of evaluating one mapping.

    Attributes:
        mapping: the evaluated mapping.
        valid: False if the mapping violated a hard constraint; invalid
            evaluations carry the violations and no metrics.
        violations: human-readable constraint violations (empty when valid).
        energy_pj: total energy in picojoules.
        cycles: total execution cycles (MAC-normalized delay).
        utilization: useful-MAC fraction of compute-unit-cycles.
        energy_breakdown_pj: per-component energy.
        access_counts: per-level, per-tensor element access totals.
    """

    mapping: Mapping
    valid: bool
    violations: Tuple[str, ...] = ()
    energy_pj: float = 0.0
    cycles: int = 0
    utilization: float = 0.0
    energy_breakdown_pj: Dict[str, float] = field(default_factory=dict)
    access_counts: Optional[AccessCounts] = None

    @property
    def edp(self) -> float:
        """Energy-delay product (pJ x cycles) — the paper's target metric."""
        return self.energy_pj * self.cycles

    def metric(self, objective: str) -> float:
        """Look up an optimization objective by name."""
        if objective == "edp":
            return self.edp
        if objective == "energy":
            return self.energy_pj
        if objective in ("delay", "cycles", "latency"):
            return float(self.cycles)
        raise ValueError(
            f"unknown objective {objective!r}; use edp, energy, or delay"
        )


class Evaluator:
    """Evaluate mappings of one workload on one architecture.

    Args:
        arch: the accelerator.
        workload: the tensor operation.
        energy_table: optional pre-built energy table; estimated via the
            Accelergy-like model when omitted. Search drivers that spin up
            many evaluators for the same architecture should build the
            table once and pass it in — estimation walks every storage
            level through the SRAM/DRAM models.
        cache: optional :class:`~repro.model.eval_cache.EvaluationCache`
            consulted (by mapping signature) before the full
            validity -> access-counts -> energy pipeline. Cache hits are
            guaranteed to match what the pipeline would have produced.
    """

    def __init__(
        self,
        arch: Architecture,
        workload: Workload,
        energy_table: Optional[EnergyTable] = None,
        include_noc: bool = False,
        include_static: bool = False,
        clock_ghz: float = 1.0,
        cache: Optional[EvaluationCache] = None,
    ) -> None:
        self.arch = arch
        self.workload = workload
        self.energy_table = energy_table or estimate_energy_table(arch)
        self.include_noc = include_noc
        self.include_static = include_static
        self.clock_ghz = clock_ghz
        self.cache = cache

    def evaluate(self, mapping: Mapping) -> Evaluation:
        """Validate and evaluate ``mapping``; never raises on bad mappings.

        With a cache attached, an already-seen signature skips the cost
        model entirely; the returned evaluation always carries the mapping
        that was asked about (not the equivalent one priced first), so
        callers comparing ``result.mapping`` see no difference between a
        hit and a miss.
        """
        if self.cache is None:
            return self._evaluate_uncached(mapping)
        key = mapping.signature()
        hit = self.cache.get(key)
        if hit is not None:
            if hit.mapping is mapping:
                return hit
            return replace(hit, mapping=mapping)
        evaluation = self._evaluate_uncached(mapping)
        self.cache.put(key, evaluation)
        return evaluation

    def evaluate_fresh(self, mapping: Mapping) -> Evaluation:
        """Run the full pipeline unconditionally and store the result.

        Skips the cache *lookup* (the batch engine's kernel-priced rows
        and their improvements never look the cache up) but still records
        the evaluation, so a later row-wise lookup of it hits. Traced as
        the ``evaluator.fresh`` span.
        """
        with _obs.trace("evaluator.fresh"):
            evaluation = self._evaluate_uncached(mapping)
        if self.cache is not None:
            self.cache.put(mapping.signature(), evaluation)
        return evaluation

    def _evaluate_uncached(self, mapping: Mapping) -> Evaluation:
        """The full validity -> access-counts -> energy pipeline.

        Invalid mappings come back as ``Evaluation(valid=False)``.
        Anything else the model raises on a mapping that *passed*
        validation is a genuine cost-model failure and is wrapped in
        :class:`~repro.exceptions.EvaluationError`, so campaign drivers
        can record it as a structured per-job failure instead of dying on
        an anonymous ``ZeroDivisionError`` deep in a sweep.
        """
        _obs.inc("evaluator.evals")
        violations = check_mapping(mapping, self.arch, self.workload)
        if violations:
            return Evaluation(
                mapping=mapping, valid=False, violations=tuple(violations)
            )
        try:
            return self._cost_mapping(mapping)
        except ReproError:
            raise
        except Exception as error:
            raise EvaluationError(
                f"cost model failed on mapping {mapping.signature()!r}: "
                f"{type(error).__name__}: {error}"
            ) from error

    def _cost_mapping(self, mapping: Mapping) -> Evaluation:
        """Price one already-validated mapping."""
        counts = compute_access_counts(self.arch, self.workload, mapping)
        cycles = compute_cycles(self.workload, mapping)
        stall = bandwidth_stall_cycles(self.arch, counts)
        if stall is not None:
            cycles = max(cycles, stall)
        energy, breakdown = compute_energy_pj(
            self.arch, self.workload, counts, self.energy_table
        )
        if self.include_noc:
            from repro.energy.noc import noc_energy_pj

            noc = noc_energy_pj(self.arch, counts)
            breakdown["noc"] = noc
            energy += noc
        if self.include_static:
            from repro.energy.static import static_energy_pj

            static = static_energy_pj(self.arch, cycles, self.clock_ghz)
            breakdown["static"] = static
            energy += static
        utilization = compute_utilization(self.arch, self.workload, cycles)
        return Evaluation(
            mapping=mapping,
            valid=True,
            energy_pj=energy,
            cycles=cycles,
            utilization=utilization,
            energy_breakdown_pj=breakdown,
            access_counts=counts,
        )
