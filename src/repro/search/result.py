"""Search results and convergence tracking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.model.eval_cache import EvaluationCache
from repro.model.evaluator import Evaluation


@dataclass(frozen=True)
class ConvergencePoint:
    """Best objective value observed after ``evaluations`` mappings."""

    evaluations: int
    best_metric: float


@dataclass
class SearchResult:
    """Outcome of one search run.

    Attributes:
        best: best valid evaluation found, or None if the space yielded no
            valid mapping within budget.
        objective: the optimized metric name ("edp", "energy", "delay").
        num_evaluated: total mappings drawn (valid + invalid).
        num_valid: valid mappings among them.
        terminated_by: "patience", "budget", or "exhausted".
        curve: best-so-far trace, one point per improvement (prepend-safe
            for averaging across seeds with :func:`best_so_far_series`).
        stats: throughput/observability payload, built by the run's
            :class:`~repro.search.loop.RunLedger` from the counts it owns,
            so it always agrees with the ``search.*`` / ``batch.*``
            metrics and the ``/progress`` tracker. Every driver reports
            ``elapsed_s`` and ``evals_per_sec`` (see
            :func:`throughput_stats`), a ``batch`` sub-dict
            (batches/candidates/pruned/prune_rate/fallback: the rows this
            run priced through the batch kernel, all zero on the scalar
            path; infeasible: enumerated candidates proved
            capacity-infeasible and never packed), a ``bnb`` sub-dict (nodes_expanded/leaves_deferred/
            subtrees_pruned/infeasible_subtrees/root_bound/
            bound_tightness/warm_start_metric; all zero or None except on
            a branch-and-bound tree walk) and a ``progress`` sub-dict.
            Cached evaluators add a ``cache`` sub-dict (hits/misses/
            hit_rate/size/max_entries; hits and misses are the cache's
            delta over the run). Pooled runs add ``pool_mode`` ("fork",
            "spawn", or "sequential"): a best-of-seeds search with a
            ``workers`` list of per-seed counts (and no ``bnb``),
            parallel branch-and-bound with a ``pool`` breakdown.
    """

    best: Optional[Evaluation]
    objective: str
    num_evaluated: int
    num_valid: int
    terminated_by: str
    curve: List[ConvergencePoint] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def best_metric(self) -> Optional[float]:
        if self.best is None:
            return None
        return self.best.metric(self.objective)

    def best_so_far_series(self, length: int) -> List[float]:
        """Expand the improvement curve to a dense best-so-far series.

        Index ``i`` holds the best metric after ``i + 1`` evaluations;
        positions before the first valid mapping hold ``inf``. Used to
        average convergence behaviour across seeds (the paper's Fig. 7
        averages 100 runs).
        """
        series = [float("inf")] * length
        for point in self.curve:
            start = min(point.evaluations - 1, length)
            for i in range(start, length):
                if point.best_metric < series[i]:
                    series[i] = point.best_metric
        return series


def throughput_stats(
    num_evaluated: int,
    elapsed_s: float,
    cache: Optional[EvaluationCache] = None,
    cache_baseline: Tuple[int, int] = (0, 0),
) -> Dict[str, Any]:
    """Build the ``SearchResult.stats`` throughput payload.

    Args:
        num_evaluated: mappings drawn during the run being reported.
        elapsed_s: wall-clock duration of the run.
        cache: the evaluator's cache, if one was attached.
        cache_baseline: ``(hits, misses)`` snapshot taken before the run,
            so a cache shared across runs reports per-run deltas.

    A live cache that saw **no lookups** during the run (e.g. the batch
    kernels priced every candidate, and they never look the cache up)
    reports ``hit_rate: None`` rather than a misleading ``0.0`` — zero
    means "every lookup missed", which is a different claim.
    """
    stats: Dict[str, Any] = {
        "elapsed_s": elapsed_s,
        "evals_per_sec": (num_evaluated / elapsed_s) if elapsed_s > 0 else 0.0,
    }
    if cache is not None:
        hits = cache.hits - cache_baseline[0]
        misses = cache.misses - cache_baseline[1]
        lookups = hits + misses
        stats["cache"] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / lookups) if lookups else None,
            "size": len(cache),
            "max_entries": cache.max_entries,
        }
    return stats
