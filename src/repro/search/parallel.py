"""Parallel multi-start random search (the paper's 24-thread setup).

Timeloop's random-sampling search farms independent streams across
threads; the paper runs 3000-patience over 24 of them. This module does
the equivalent with a process pool: N workers each run an independent
seeded :class:`~repro.search.random_search.RandomSearch`, and the best
result (plus aggregate statistics) is merged.

The workers are a :class:`~repro.search.worker_pool.WorkerSet` and
start-method agnostic. Shared, immutable state — the architecture,
workload, constraints, and the energy table (estimated **once**, not per
worker) — ships once per worker at process start, so jobs themselves are
just ``(index, seed)`` pairs and the driver works under both ``fork``
and ``spawn``. Platforms with neither usable start method degrade to
sequential execution of the same jobs; ``stats["pool_mode"]`` records
which mode actually ran. A worker that dies mid-stream fails the search
with a :class:`~repro.exceptions.WorkerError` for its ``(index, seed)``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import obs
from repro.arch.spec import Architecture
from repro.energy.accelergy import estimate_energy_table
from repro.energy.table import EnergyTable
from repro.exceptions import SearchError
from repro.mapspace.constraints import ConstraintSet
from repro.mapspace.generator import MapspaceKind
from repro.search.loop import BatchCounts, RunLedger, check_objective
from repro.search.random_search import DEFAULT_PATIENCE, RandomSearch
from repro.search.result import SearchResult
from repro.search.worker_pool import (
    OBS_SNAPSHOT_KEY,
    collect_worker_obs,
    run_jobs,
    run_under_worker_obs,
    worker_errors,
    worker_stack,
)
from repro.utils.rng import make_rng


def _pool_entry(state: Dict[str, Any], job: Tuple[int, int]) -> SearchResult:
    """Pool entry point: run one seeded ``(index, seed)`` search.

    When the driver had an observability scope active it sets
    ``state["obs"]``; the worker then runs under a *private* registry
    (deliberately replacing any scope inherited across ``fork``, whose
    tracer file handle must not be shared) and ships a picklable snapshot
    back inside the result's stats for the driver to merge.
    """
    index, seed = job
    with worker_errors(index, seed):
        stack = worker_stack(state)
        search = RandomSearch(
            stack["mapspace"],
            stack["evaluator"],
            objective=state["objective"],
            max_evaluations=state["max_evaluations"],
            patience=state["patience"],
            seed=seed,
            use_batch=state["use_batch"],
        )
        result, snapshot = run_under_worker_obs(state["obs"], search.run)
    if snapshot is not None:
        result.stats[OBS_SNAPSHOT_KEY] = snapshot
    return result


def parallel_random_search(
    arch: Architecture,
    workload,
    kind: Union[str, MapspaceKind] = MapspaceKind.RUBY_S,
    constraints: Optional[ConstraintSet] = None,
    objective: str = "edp",
    max_evaluations: int = 10_000,
    patience: Optional[int] = DEFAULT_PATIENCE,
    workers: int = 4,
    seed: Optional[int] = None,
    energy_table: Optional[EnergyTable] = None,
    start_method: Optional[str] = None,
    use_batch: bool = True,
) -> SearchResult:
    """Run ``workers`` independent searches and merge the best result.

    ``max_evaluations`` and ``patience`` apply *per worker* (matching the
    paper's per-thread termination criterion). Each worker is one serial
    :class:`RandomSearch` stream with an uncached evaluator. The merged
    result reports the summed evaluation counts and the single best
    evaluation; its curve is the winning worker's curve (see
    :func:`_merge` for the index semantics).

    Args:
        energy_table: pre-built per-access energies; estimated once here
            (never per worker) when omitted.
        start_method: force a multiprocessing start method ("fork" or
            "spawn"); by default each is tried in that order before
            degrading to sequential execution.
        use_batch: let each worker price candidates through the
            vectorized batch kernels (bit-exact; results are identical
            either way).

    The returned ``stats`` carry ``pool_mode`` (which execution mode
    actually ran), wall-clock ``elapsed_s``/``evals_per_sec`` across the
    whole pool, the summed ``batch`` counters, and a ``workers`` list
    with each worker's seed, counts, and throughput.
    """
    if workers < 1:
        raise SearchError("workers must be >= 1")
    objective = check_objective(objective)
    rng = make_rng(seed)
    seeds = [rng.getrandbits(32) for _ in range(workers)]
    state: Dict[str, Any] = {
        "arch": arch,
        "workload": workload,
        "kind": MapspaceKind(kind),
        "constraints": constraints,
        "objective": objective,
        "max_evaluations": max_evaluations,
        "patience": patience,
        "energy_table": energy_table or estimate_energy_table(arch),
        "use_batch": use_batch,
        "obs": obs.active_obs() is not None,
    }
    # Workers report whole results, not per-candidate ticks, so the
    # driver-side tracker advances in worker-sized strides as each stream
    # finishes. The nominal total is every worker spending its full
    # budget; patience stops spend less, and finish() snaps the fraction.
    ledger = RunLedger(
        None, "parallel", objective, total_units=workers * max_evaluations
    )
    pool_best = math.inf

    def _on_result(result: SearchResult) -> None:
        nonlocal pool_best
        # Each worker's own ledger already published its counts, so the
        # pool's ledger sums them for the stats without re-publishing.
        ledger.evaluations += result.num_evaluated
        ledger.num_valid += result.num_valid
        batch = result.stats["batch"]
        ledger.batch += BatchCounts(
            batch["batches"], batch["candidates"], batch["pruned"],
            batch["fallback"], batch["infeasible"],
        )
        ledger.progress.advance(result.num_evaluated)
        if result.best is not None:
            metric = result.best.metric(objective)
            if metric < pool_best:
                pool_best = metric
                ledger.progress.improved(metric)

    with ledger, obs.trace(
        "search.run", driver="parallel", workers=workers, objective=objective
    ):
        results, pool_mode, _ = run_jobs(
            _pool_entry,
            state,
            list(enumerate(seeds)),
            workers,
            start_method=start_method,
            on_result=_on_result,
        )
    collect_worker_obs([result.stats for result in results])
    merged = _merge(results, ledger)
    # No tree walk, so the pool's payload keeps its schema without ``bnb``.
    del merged.stats["bnb"]
    merged.stats["pool_mode"] = pool_mode
    merged.stats["workers"] = _worker_rows(results, seeds)
    return merged


def _worker_rows(
    results: List[SearchResult], seeds: List[int]
) -> List[Dict[str, Any]]:
    """Each worker's seed, counts and throughput for the merged stats."""
    return [
        {
            "worker": index,
            "seed": worker_seed,
            "num_evaluated": result.num_evaluated,
            "num_valid": result.num_valid,
            "terminated_by": result.terminated_by,
            "elapsed_s": result.stats.get("elapsed_s"),
            "evals_per_sec": result.stats.get("evals_per_sec"),
        }
        for index, (worker_seed, result) in enumerate(zip(seeds, results))
    ]


def _merge(results: List[SearchResult], ledger: RunLedger) -> SearchResult:
    """Merge per-worker results into one.

    Counts are the pool ledger's sums across workers while the curve is
    the winning worker's trace unchanged, so ``curve[i].evaluations`` are
    that worker's *local* evaluation indices (1-based within its own
    stream) — they are not comparable to the merged ``num_evaluated``
    total and always satisfy ``curve[-1].evaluations <= num_evaluated``.
    This keeps the per-thread semantics of the paper's convergence plots:
    each thread's patience and budget are judged against its own stream.
    """
    objective = ledger.objective
    winner = min(
        (result for result in results if result.best is not None),
        key=lambda result: result.best.metric(objective),
        default=None,
    )
    return SearchResult(
        best=winner.best if winner else None,
        objective=objective,
        num_evaluated=ledger.evaluations,
        num_valid=ledger.num_valid,
        terminated_by=winner.terminated_by if winner else "budget",
        curve=winner.curve if winner else [],
        stats=ledger.stats(),
    )
