"""Parallel branch-and-bound: subtree work-sharing over a process pool.

:class:`~repro.search.branch_bound.BranchBoundSearch` is the one driver
for serial and parallel searches: it builds the ledger, the walker and
the warm start, and with ``workers > 1`` it asks its walker for the
tree's best-first frontier
(:meth:`~repro.search.branch_bound._SubtreeWalker.frontier`, about
``UNITS_PER_WORKER`` nodes per worker). The frontier expands nodes with
the walk's own rule, so fanout-infeasible and bound-cut subtrees are
resolved before dispatch, and its nodes come out in ascending-bound
order (workers start on promising subtrees, which tightens the shared
incumbent early). :func:`walk_units` fans those **work units** (the
index tuple is all a worker receives) over the worker set in
:mod:`repro.search.worker_pool`.

Cross-process pruning — the part that makes this superlinear-friendly —
runs through a :class:`~repro.search.worker_pool.SharedIncumbent`: a
``multiprocessing.Value`` holding the best true metric found by *any*
worker. Workers read it before every subtree cut and leaf flush, so
one worker's improvement shrinks every other worker's frontier; because
the cell only ever holds true candidate metrics and cuts keep the same
``PRUNE_MARGIN`` guard as the serial walk, no subtree containing a
strict improvement is ever cut — the optimum always survives in some
worker's local best.

Bit-exactness despite races: workers return their *claimed* best (a
menu-index signature), and the driver rebuilds each claim's mapping
from it (:meth:`~repro.mapspace.generator.MapSpace.menu_mapping`) and
re-prices every claim through its own evaluator, in unit dispatch
order, against the warm-start incumbent. ``min`` over true re-priced
metrics is invariant to incumbent race timing, so the returned best
metric is bit-identical to serial search (ties between co-optimal
mappings may resolve to a different argmin; the parity invariant
compares metrics). The convergence curve
is the driver's local view (warm start + re-price improvements) with
driver-local evaluation indices, and it is the only place improvements
are recorded: an arriving unit advances progress, nothing more.

Counting: workers publish no row or tree counts. Each unit ships its
walker's counters (rows, valid rows, batch-kernel rows, tree nodes); the
driver sums them into its own walker and hands the total to its ledger
once, so ``search.candidates`` equals ``num_evaluated`` and
``search.subtrees_pruned`` equals ``stats["bnb"]["subtrees_pruned"]``.

Transport: workers receive only the pool state (specs, options and the
search settings). Each rebuilds its mapspace, batch engine and
:class:`~repro.model.batch.PartialBoundEngine` from it once per process;
the bound engine's tables take milliseconds to build, so no array ever
crosses a process boundary.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from repro import obs
from repro.search.worker_pool import (
    OBS_SNAPSHOT_KEY,
    SharedIncumbent,
    collect_worker_obs,
    run_jobs,
    run_under_worker_obs,
    worker_errors,
    worker_stack,
)

#: Target work units per worker. More units than workers keeps the pool
#: busy when subtree costs are skewed (the whole point of work-sharing);
#: the frontier expands past the first tree level when it is too coarse.
UNITS_PER_WORKER = 4


def _walk_stack(state: Dict[str, Any]) -> Dict[str, Any]:
    """The worker stack plus its tree engines (built once)."""
    from repro.search.branch_bound import tree_engines

    stack = worker_stack(state)
    if "bound_engine" not in stack:
        stack.update(zip(
            ("engine", "bound_engine", "dims_order"),
            tree_engines(
                stack["mapspace"], stack["evaluator"], state["use_batch"]
            ),
        ))
    return stack


def _unit_entry(
    state: Dict[str, Any], job: Tuple[int, Tuple[int, ...]]
) -> Dict[str, Any]:
    """Pool entry point: walk one subtree best-first against the shared
    incumbent. Failures come back as a :class:`WorkerError` carrying the
    unit index (units have no seed of their own; it reads 0)."""
    from repro.search.branch_bound import _SubtreeWalker

    index, root_indices = job
    with worker_errors(index, 0):
        stack = _walk_stack(state)
        started = time.perf_counter()
        walker = _SubtreeWalker(
            stack["mapspace"],
            stack["engine"],
            stack["evaluator"],
            stack["bound_engine"],
            stack["dims_order"],
            objective=state["objective"],
            leaf_width=state["leaf_width"],
            limit=state["limit"],
            incumbent=state["incumbent"],
        )
        _, snapshot = run_under_worker_obs(
            state["obs"], lambda: walker.walk(tuple(root_indices))
        )
    result = {
        "unit": index,
        "elapsed_s": time.perf_counter() - started,
        "metric": walker.best_metric,
        "signature": walker.best_signature,
        "counters": {
            "evaluations": walker.evaluations,
            "num_valid": walker.num_valid,
            "nodes_expanded": walker.nodes_expanded,
            "leaves_deferred": walker.leaves_deferred,
            "subtrees_pruned": walker.subtrees_pruned,
            "infeasible_subtrees": walker.infeasible_subtrees,
        },
        "batch": walker.batch,
    }
    if snapshot is not None:
        result[OBS_SNAPSHOT_KEY] = snapshot
    return result


def walk_units(
    search, walker, units: List[Tuple[int, ...]]
) -> Dict[str, Any]:
    """Walk ``units`` (the driver walker's frontier) over ``search``'s
    pool against a shared incumbent seeded from ``walker``'s best.

    Each unit's counters are summed into ``walker``, progress advances by
    a unit's subtree as it arrives, and every claimed best is re-priced
    through ``walker`` (see module doc). Returns the ``pool_mode`` and
    ``pool`` entries of the run's stats.
    """
    mapspace = search.mapspace
    evaluator = search.evaluator
    state: Dict[str, Any] = {
        "arch": mapspace.arch,
        "workload": mapspace.workload,
        "kind": mapspace.kind,
        "constraints": mapspace.constraints,
        "energy_table": evaluator.energy_table,
        "evaluator_options": {
            "include_noc": evaluator.include_noc,
            "include_static": evaluator.include_static,
            "clock_ghz": evaluator.clock_ghz,
        },
        "use_batch": search.use_batch,
        "objective": search.objective,
        "leaf_width": search.leaf_width,
        "limit": search.limit,
        "obs": obs.active_obs() is not None,
    }

    # A finished unit resolves its whole subtree. Its claimed best is an
    # improvement only once the re-price below accepts it.
    def _on_unit_result(result: Dict[str, Any]) -> None:
        unit = units[result["unit"]]
        walker.ledger.progress.advance(walker.suffix_product[len(unit)])

    results, pool_mode, _ = run_jobs(
        _unit_entry,
        state,
        list(enumerate(units)),
        search.workers,
        start_method=search.start_method,
        shared_factory=SharedIncumbent.factory(float(walker.best_metric)),
        on_result=_on_unit_result,
    )
    collect_worker_obs(results)

    # Merge unit counters into the driver's walker; re-price every
    # claimed best through the driver's evaluator, in dispatch order, so
    # ties resolve deterministically and the metric is race-independent.
    unit_rows: List[Dict[str, Any]] = []
    claim_mappings: List[Any] = []
    for result in results:
        counters = result["counters"]
        walker.evaluations += counters["evaluations"]
        walker.num_valid += counters["num_valid"]
        walker.batch += result["batch"]
        walker.nodes_expanded += counters["nodes_expanded"]
        walker.leaves_deferred += counters["leaves_deferred"]
        walker.subtrees_pruned += counters["subtrees_pruned"]
        walker.infeasible_subtrees += counters["infeasible_subtrees"]
        metric = result["metric"]
        unit_rows.append(
            {
                "unit": result["unit"],
                "evaluations": counters["evaluations"],
                "subtrees_pruned": counters["subtrees_pruned"],
                "elapsed_s": result["elapsed_s"],
                "metric": metric if metric != float("inf") else None,
            }
        )
        if metric != float("inf"):
            claim_mappings.append(mapspace.menu_mapping(result["signature"]))
    if claim_mappings:
        walker.price_mappings(claim_mappings)
    return {
        "pool_mode": pool_mode,
        "pool": {
            "workers": search.workers,
            "num_units": len(units),
            "units": unit_rows,
        },
    }
