"""Parallel branch-and-bound: subtree work-sharing over a process pool.

The prefix tree decomposes naturally at its top levels: the cross
product of the first one or two ``dims_order`` menus partitions the
whole enumerable space into disjoint subtrees.
:meth:`~repro.mapspace.generator.MapSpace.partition_prefixes` gives the
cells that can fit the fanout caps as menu-index tuples. This driver
turns each such cell that its bound does not prune yet into a **work
unit** (the tuple is all a worker receives), orders units by their
admissible bound (workers start on promising subtrees,
which tightens the shared incumbent early), and fans them over the
worker set in :mod:`repro.search.worker_pool`.

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
from repro.search.loop import RunLedger
from repro.search.result import SearchResult
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
#: the partition depth grows to two levels when one level is too coarse.
UNITS_PER_WORKER = 4


def _walk_stack(state: Dict[str, Any]) -> Dict[str, Any]:
    """The worker stack plus its batch and bound engines (built once)."""
    stack = worker_stack(state)
    if "bound_engine" in stack:
        return stack
    from repro.model.batch import BatchEvaluator, PartialBoundEngine

    from repro.search.branch_bound import dims_branch_order

    mapspace = stack["mapspace"]
    engine = BatchEvaluator(
        stack["evaluator"],
        layout=mapspace.batch_layout(),
        vectorize=state["use_batch"],
    )
    menus = mapspace.dim_chain_menus()
    stack.update(
        engine=engine,
        bound_engine=PartialBoundEngine(engine, menus),
        dims_order=dims_branch_order(menus),
    )
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
        "kind": "walk",
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


def run_parallel_tree(search, engine) -> SearchResult:
    """Drive ``BranchBoundSearch`` with ``workers > 1`` (see module doc).

    The driver warm-starts serially (seeding the shared incumbent),
    partitions and bound-orders the top of the tree, fans units over the
    pool, and re-prices every worker claim so the returned best metric
    is bit-identical to the serial walk.
    """
    from repro.model.batch import PRUNE_MARGIN, PartialBoundEngine

    from repro.search.branch_bound import (
        LocalIncumbent,
        _SubtreeWalker,
        dims_branch_order,
    )

    mapspace = search.mapspace
    evaluator = search.evaluator
    menus = mapspace.dim_chain_menus()
    bound_engine = PartialBoundEngine(engine, menus)
    dims_order = dims_branch_order(menus)
    num_dims = len(menus)
    workers = search.workers

    # Progress total: the pre-filter menu product (every full assignment
    # the partition covers). Partition-time pruning and per-unit arrivals
    # advance against it driver-side; workers never touch the tracker.
    total_units = 1
    for _, menu in menus:
        total_units *= len(menu)
    ledger = RunLedger(
        evaluator, "branch-bound", search.objective,
        total_units=total_units, engine=engine,
    )
    with ledger, obs.trace(
        "search.run", driver="branch-bound", mode="parallel",
        objective=search.objective, workers=workers,
    ):
        # Driver-side walker: hosts warm start, partition-time
        # pruning counters, and the final re-price — all through the
        # same incumbent protocol as the serial search.
        walker = _SubtreeWalker(
            mapspace,
            engine,
            evaluator,
            bound_engine,
            dims_order,
            objective=search.objective,
            leaf_width=search.leaf_width,
            limit=search.limit,
            incumbent=LocalIncumbent(),
            ledger=ledger,
        )
        warm_metric = search._warm_start(walker)
        root_bound = float(bound_engine.bound({}, search.objective))

        # Partition the first one or two tree levels into work units
        # (two when one level is too coarse to balance the pool).
        depth = 1
        if num_dims > 1 and len(dims_order[0][1]) < (
            UNITS_PER_WORKER * workers
        ):
            depth = 2
        depth = min(depth, num_dims)
        part_dims = [dims_order[i][0] for i in range(depth)]
        units = mapspace.partition_prefixes(part_dims)
        total_cells = 1
        for i in range(depth):
            total_cells *= len(dims_order[i][1])
        walker.infeasible_subtrees += total_cells - len(units)
        # Every infeasible partition cell resolves a whole subtree.
        walker._cover(
            (total_cells - len(units)) * walker.suffix_product[depth]
        )

        # Bound every unit; prune against the warm incumbent before
        # dispatch; order the rest so workers start on promising
        # subtrees (the incumbent tightens fastest that way).
        cut = float(walker.incumbent.read())
        bounded: List[Tuple[float, Tuple[int, ...]]] = []
        for indices in units:
            assigned = {
                part_dims[i]: k for i, k in enumerate(indices)
            }
            unit_bound = float(
                bound_engine.bound(assigned, search.objective)
            )
            if (
                cut != float("inf")
                and unit_bound * (1.0 - PRUNE_MARGIN) >= cut
            ):
                walker.subtrees_pruned += 1
                walker._cover(walker.suffix_product[depth])
                continue
            bounded.append((unit_bound, indices))
        bounded.sort()

        # Each unit is a worker-side walk of its subtree, keeping the
        # serial walk's flush-time bound re-check against the live
        # incumbent.
        jobs = [(j, indices) for j, (_, indices) in enumerate(bounded)]
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
        # Stream per-unit completion into the driver's tracker as
        # results arrive: a finished unit resolves its whole subtree.
        # Its claimed best is an improvement only once the re-price
        # below accepts it.
        def _on_unit_result(result: Dict[str, Any]) -> None:
            ledger.progress.advance(walker.suffix_product[depth])

        results, pool_mode, _ = run_jobs(
            _unit_entry,
            state,
            jobs,
            workers,
            start_method=search.start_method,
            shared_factory=SharedIncumbent.factory(float(walker.best_metric)),
            on_result=_on_unit_result,
        )
        collect_worker_obs(results)

        # Merge unit counters into the driver's walker; re-price every
        # claimed best through the driver's evaluator, in dispatch
        # order, so ties resolve deterministically and the metric is
        # race-independent.
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
                    "kind": result["kind"],
                    "evaluations": counters["evaluations"],
                    "subtrees_pruned": counters["subtrees_pruned"],
                    "elapsed_s": result["elapsed_s"],
                    "metric": (
                        metric if metric != float("inf") else None
                    ),
                }
            )
            if metric == float("inf"):
                continue
            claim_mappings.append(mapspace.menu_mapping(result["signature"]))
        if claim_mappings:
            walker.price_mappings(claim_mappings)
        ledger.close_tree(walker, root_bound, warm_metric)

    result = ledger.result("exhausted")
    stats = result.stats
    stats["pool_mode"] = pool_mode
    stats["pool"] = {
        "workers": workers,
        "partition_depth": depth,
        "num_units": len(jobs),
        "units": unit_rows,
    }
    return result
