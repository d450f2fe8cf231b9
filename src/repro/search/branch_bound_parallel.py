"""Parallel branch-and-bound: subtree work-sharing over a process pool.

The prefix tree decomposes naturally at its top levels: the cross
product of the first one or two ``dims_order`` menus partitions the
whole enumerable space into disjoint subtrees. This driver turns each
feasible, not-yet-prunable partition cell into a **work unit**, orders
units by their admissible bound (workers start on promising subtrees,
which tightens the shared incumbent early), and fans them over the
reusable pool in :mod:`repro.search.worker_pool`.

Cross-process pruning — the part that makes this superlinear-friendly —
runs through a :class:`~repro.search.worker_pool.SharedIncumbent`: a
``multiprocessing.Value`` holding the best true metric found by *any*
worker (plus a small shared array with the argmin's menu-index
signature). Workers read it before every subtree cut and leaf flush, so
one worker's improvement shrinks every other worker's frontier; because
the cell only ever holds true candidate metrics and cuts keep the same
``PRUNE_MARGIN`` guard as the serial walk, no subtree containing a
strict improvement is ever cut — the optimum always survives in some
worker's local best.

Bit-exactness despite races: workers return their *claimed* best (menu
signature or batch row), and the driver re-prices every claim through
its own evaluator, in unit dispatch order, against the warm-start
incumbent. ``min`` over true re-priced metrics is invariant to incumbent
race timing, so the returned best metric is bit-identical to serial
search (ties between co-optimal mappings may resolve to a different
argmin; the parity invariant compares metrics). The convergence curve
is the driver's local view (warm start + re-price improvements) with
driver-local evaluation indices.

Transport is zero-copy where it matters: the
:class:`~repro.model.batch.PartialBoundEngine` factor tables (the only
Python-loop-heavy precomputation) ship to walk workers as
``multiprocessing.shared_memory`` views, and leaf-sized partitions are
driver-enumerated into packed SoA batches shipped the same way
(:meth:`MappingBatch.to_shared`), with a pickle fallback mirroring the
pool's fork→spawn→sequential ladder. The driver owns every segment and
unlinks in a ``finally``, so a crashed or SIGKILLed worker cannot leak
``/dev/shm`` entries.
"""

from __future__ import annotations

import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.exceptions import SearchError, WorkerError
from repro.mapspace.factory import make_mapspace
from repro.model.eval_cache import EvaluationCache
from repro.model.evaluator import Evaluator
from repro.model.shm import ShmArrayBundle
from repro.obs import empty_batch_stats
from repro.search.loop import RunLedger
from repro.search.result import SearchResult
from repro.search.worker_pool import (
    OBS_SNAPSHOT_KEY,
    LocalIncumbent,
    SharedIncumbent,
    collect_worker_obs,
    run_jobs,
    run_under_worker_obs,
)

#: Target work units per worker. More units than workers keeps the pool
#: busy when subtree costs are skewed (the whole point of work-sharing);
#: the partition depth grows to two levels when one level is too coarse.
UNITS_PER_WORKER = 4

# Per-process worker stack (mapspace, evaluator, engines) built once per
# pool lifetime from the initializer state and reused across units. The
# token guards against id-reuse when the sequential fallback runs two
# searches in one process.
_STACK_TOKEN: Optional[str] = None
_STACK: Optional[Dict[str, Any]] = None


def _get_stack(state: Dict[str, Any]) -> Dict[str, Any]:
    """Build (once per process per search) the worker's pricing stack."""
    global _STACK_TOKEN, _STACK
    if _STACK is not None and _STACK_TOKEN == state["token"]:
        return _STACK
    from repro.model.batch import BatchEvaluator, PartialBoundEngine

    from repro.search.branch_bound import dims_branch_order

    mapspace = make_mapspace(
        state["arch"], state["workload"], state["kind"], state["constraints"]
    )
    cache_size = state["cache_size"]
    cache = EvaluationCache(cache_size) if cache_size else None
    evaluator = Evaluator(
        state["arch"],
        state["workload"],
        energy_table=state["energy_table"],
        cache=cache,
    )
    layout = mapspace.batch_layout()
    engine = BatchEvaluator(evaluator, layout=layout)
    if not engine.supported:
        raise SearchError(
            "batch engine unsupported in branch-and-bound worker"
        )
    menus = mapspace.dim_chain_menus()
    bound_engine = PartialBoundEngine(engine, menus)
    attachments: List[ShmArrayBundle] = []
    if state["table_handle"] is not None:
        attachment = ShmArrayBundle.attach(state["table_handle"])
        bound_engine.preload_tables(attachment.arrays)
        # The preloaded views live in the engine's caches; keep the
        # mapping open for the process lifetime (closing a mapping with
        # live views is undefined behavior — the driver's unlink, not a
        # worker-side close, is what reclaims the segment).
        attachments.append(attachment)
    _STACK = {
        "mapspace": mapspace,
        "evaluator": evaluator,
        "engine": engine,
        "layout": layout,
        "bound_engine": bound_engine,
        "dims_order": dims_branch_order(menus),
        "num_dims": len(menus),
        "attachments": attachments,
    }
    _STACK_TOKEN = state["token"]
    return _STACK


def _unit_entry(state: Dict[str, Any], job: Tuple[int, str, Any]) -> Dict[str, Any]:
    """Pool entry point: run one subtree work unit.

    Failures are re-raised as :class:`WorkerError` carrying the unit
    index, mirroring the random pool's job-attribution contract.
    """
    index, kind, payload = job
    try:
        return _run_unit(state, index, kind, payload)
    except WorkerError:
        raise
    except Exception as error:
        raise WorkerError(
            index, state["seed"], f"{type(error).__name__}: {error}"
        ) from error


def _run_unit(
    state: Dict[str, Any], index: int, kind: str, payload: Any
) -> Dict[str, Any]:
    stack = _get_stack(state)
    incumbent = state["incumbent"]
    engine = stack["engine"]
    started = time.perf_counter()
    before = engine.stats_payload()

    def run() -> Dict[str, Any]:
        if kind == "walk":
            return _walk_unit(stack, incumbent, state, tuple(payload))
        return _price_unit(stack, incumbent, state, payload)

    result, snapshot = run_under_worker_obs(state["obs"], run)
    after = engine.stats_payload()
    result["unit"] = index
    result["kind"] = kind
    result["elapsed_s"] = time.perf_counter() - started
    result["batch"] = {
        key: after[key] - before[key]
        for key in ("batches", "candidates", "pruned", "fallback")
    }
    if snapshot is not None:
        result[OBS_SNAPSHOT_KEY] = snapshot
    return result


def _walk_unit(
    stack: Dict[str, Any],
    incumbent,
    state: Dict[str, Any],
    root_indices: Tuple[int, ...],
) -> Dict[str, Any]:
    """Walk one subtree best-first against the shared incumbent."""
    from repro.search.branch_bound import _SubtreeWalker

    walker = _SubtreeWalker(
        stack["mapspace"],
        stack["engine"],
        stack["evaluator"],
        stack["bound_engine"],
        stack["dims_order"],
        objective=state["objective"],
        leaf_width=state["leaf_width"],
        batch_size=state["batch_size"],
        limit=state["limit"],
        incumbent=incumbent,
    )
    walker.walk(root_indices)
    return {
        "metric": walker.best_metric,
        "signature": walker.best_signature,
        "row": None,
        "counters": {
            "evaluations": walker.evaluations,
            "num_valid": walker.num_valid,
            "nodes_expanded": walker.nodes_expanded,
            "leaves_deferred": walker.leaves_deferred,
            "subtrees_pruned": walker.subtrees_pruned,
            "infeasible_subtrees": walker.infeasible_subtrees,
        },
    }


def _price_unit(
    stack: Dict[str, Any],
    incumbent,
    state: Dict[str, Any],
    descriptor: Dict[str, Any],
) -> Dict[str, Any]:
    """Price one transported leaf batch against the shared incumbent."""
    from repro.model.batch import MappingBatch

    batch, bundle = MappingBatch.from_shared(stack["layout"], descriptor)
    # Keep the attachment open for the process lifetime (see _get_stack).
    stack["attachments"].append(bundle)
    cut = float(incumbent.read())
    outcome = stack["engine"].evaluate_batch(
        batch, objective=state["objective"], incumbent=cut, prune=True
    )
    obs.inc("search.candidates", batch.size, driver="branch-bound")
    num_dims = stack["num_dims"]
    evaluations = 0
    num_valid = 0
    best_metric = float("inf")
    best_row: Optional[int] = None
    for i in range(batch.size):
        evaluations += 1
        if not outcome.valid[i]:
            continue
        num_valid += 1
        if outcome.pruned[i]:
            continue
        metric = float(outcome.metric[i])
        if metric < best_metric:
            # Track the local best even when the shared offer loses — the
            # driver's re-price, not the race, decides the final argmin.
            best_metric = metric
            best_row = i
        if metric < cut:
            if incumbent.offer(metric, (-1,) * num_dims):
                cut = metric
            else:
                cut = float(incumbent.read())
    return {
        "metric": best_metric,
        "signature": None,
        "row": best_row,
        "counters": {
            "evaluations": evaluations,
            "num_valid": num_valid,
            "nodes_expanded": 0,
            "leaves_deferred": 0,
            "subtrees_pruned": 0,
            "infeasible_subtrees": 0,
        },
    }


def run_parallel_tree(search, engine) -> SearchResult:
    """Drive ``BranchBoundSearch`` with ``workers > 1`` (see module doc).

    The driver warm-starts serially (seeding the shared incumbent),
    partitions and bound-orders the top of the tree, fans units over the
    pool, and re-prices every worker claim so the returned best metric
    is bit-identical to the serial walk.
    """
    from repro.model.batch import PRUNE_MARGIN, PartialBoundEngine

    from repro.search.branch_bound import (
        FLUSH_ROWS_FACTOR,
        _SubtreeWalker,
        _bnb_stats,
        dims_branch_order,
    )

    mapspace = search.mapspace
    evaluator = search.evaluator
    menus = mapspace.dim_chain_menus()
    menu_map = dict(menus)
    workload_dims = [dim for dim, _ in menus]
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
    bundles: List[ShmArrayBundle] = []
    try:
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
                batch_size=search.batch_size,
                limit=search.limit,
                incumbent=LocalIncumbent(num_dims),
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
            bounded: List[Tuple[float, Tuple[int, ...], Dict]] = []
            for indices, prefix in units:
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
                    obs.inc("search.subtrees_pruned", driver="branch-bound")
                    continue
                bounded.append((unit_bound, indices, prefix))
            bounded.sort(key=lambda unit: (unit[0], unit[1]))

            # All units at one depth share a subtree size, so the mode is
            # global. Walk is the default — each worker keeps the full
            # flush-time bound re-check against the live incumbent, so
            # pruning tracks the serial trajectory. Price mode (driver
            # enumerates packed batches, workers only evaluate) loses
            # sub-partition bound pruning, so it is reserved for spaces
            # small enough that the whole survivor set fits in a few
            # flush windows and enumeration cost is negligible.
            price_rows_cap = FLUSH_ROWS_FACTOR * search.batch_size
            price_mode = (
                walker.suffix_product[depth] <= search.leaf_width
                and len(bounded) * walker.suffix_product[depth]
                <= price_rows_cap
            )
            jobs: List[Tuple[int, str, Any]] = []
            price_batches: List[Any] = []
            table_handle = None
            if bounded and price_mode:
                walker.leaves_deferred += len(bounded)
                projected = walker.evaluations
                for batch in mapspace.iter_prefix_batches(
                    [prefix for _, _, prefix in bounded],
                    batch_size=search.batch_size,
                ):
                    projected += batch.size
                    if search.limit is not None and projected > search.limit:
                        raise SearchError(
                            f"branch-and-bound search exceeded limit of "
                            f"{search.limit} priced mappings"
                        )
                    bundle, descriptor = batch.to_shared()
                    bundles.append(bundle)
                    price_batches.append(batch)
                    jobs.append((len(jobs), "price", descriptor))
            elif bounded:
                tables = bound_engine.export_tables()
                if tables:
                    table_bundle = ShmArrayBundle.share(tables)
                    bundles.append(table_bundle)
                    table_handle = table_bundle.handle
                jobs = [
                    (j, "walk", indices)
                    for j, (_, indices, _) in enumerate(bounded)
                ]

            state: Dict[str, Any] = {
                "token": uuid.uuid4().hex,
                "arch": mapspace.arch,
                "workload": mapspace.workload,
                "kind": mapspace.kind,
                "constraints": mapspace.constraints,
                "energy_table": evaluator.energy_table,
                "cache_size": getattr(
                    getattr(evaluator, "cache", None), "max_entries", None
                ),
                "objective": search.objective,
                "leaf_width": search.leaf_width,
                "batch_size": search.batch_size,
                "limit": search.limit,
                "table_handle": table_handle,
                "obs": obs.active_obs() is not None,
                "seed": 0,
            }
            # Stream per-unit completion into the driver's tracker as
            # results arrive: a finished walk unit resolves its whole
            # subtree, a priced batch resolves one cell per row. Claimed
            # metrics feed the convergence timeline live; the post-hoc
            # re-price below still decides the actual best.
            seen_best = float(walker.best_metric)

            def _on_unit_result(result: Dict[str, Any]) -> None:
                nonlocal seen_best
                if result["kind"] == "walk":
                    ledger.progress.advance(walker.suffix_product[depth])
                else:
                    ledger.progress.advance(
                        result["counters"]["evaluations"]
                    )
                metric = result["metric"]
                if metric < seen_best:
                    seen_best = metric
                    ledger.progress.improved(float(metric))

            if jobs:
                results, pool_mode, _ = run_jobs(
                    _unit_entry,
                    state,
                    jobs,
                    workers,
                    start_method=search.start_method,
                    shared_factory=SharedIncumbent.factory(
                        num_dims, float(walker.best_metric)
                    ),
                    on_result=_on_unit_result,
                )
            else:
                results, pool_mode = [], "sequential"
            collect_worker_obs(results)

            # Merge unit counters; re-price every claimed best through
            # the driver's evaluator, in dispatch order, so ties resolve
            # deterministically and the metric is race-independent.
            worker_evaluations = 0
            worker_valid = 0
            batch_totals = empty_batch_stats()
            unit_rows: List[Dict[str, Any]] = []
            claim_mappings: List[Any] = []
            for result in results:
                counters = result["counters"]
                worker_evaluations += counters["evaluations"]
                worker_valid += counters["num_valid"]
                walker.nodes_expanded += counters["nodes_expanded"]
                walker.leaves_deferred += counters["leaves_deferred"]
                walker.subtrees_pruned += counters["subtrees_pruned"]
                walker.infeasible_subtrees += counters["infeasible_subtrees"]
                for key in ("batches", "candidates", "pruned", "fallback"):
                    batch_totals[key] += result["batch"][key]
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
                if result["kind"] == "walk":
                    signature = result["signature"]
                    chains = {
                        dim: menu_map[dim][signature[i]]
                        for i, dim in enumerate(workload_dims)
                    }
                    claim_mappings.append(
                        mapspace.assemble(chains, rng=None)
                    )
                else:
                    claim_mappings.append(
                        price_batches[result["unit"]].mapping_at(
                            result["row"]
                        )
                    )
            if claim_mappings:
                walker.price_mappings(claim_mappings)
            if price_mode and bounded:
                # Cells the joint-fanout filter dropped during driver-side
                # enumeration never became priced rows; resolve the
                # remainder so the fraction reaches 1.0.
                rows_priced = sum(
                    result["counters"]["evaluations"]
                    for result in results
                    if result["kind"] == "price"
                )
                walker._cover(
                    len(bounded) * walker.suffix_product[depth] - rows_priced
                )

            tightness = (
                root_bound / walker.best_metric
                if walker.best is not None and walker.best_metric > 0
                else None
            )
            if tightness is not None:
                obs.set_gauge(
                    "search.bound_tightness", tightness,
                    driver="branch-bound",
                )
    finally:
        # The driver is the only unlinker; releasing here (even on a
        # worker crash) is what keeps /dev/shm free of leaked segments.
        for bundle in bundles:
            bundle.release()

    ledger.evaluations = walker.evaluations + worker_evaluations
    ledger.num_valid = walker.num_valid + worker_valid
    result = ledger.result("exhausted")
    stats = result.stats
    batch_stats = stats["batch"]
    for key in ("batches", "candidates", "pruned", "fallback"):
        batch_stats[key] += batch_totals[key]
    batch_stats["prune_rate"] = (
        batch_stats["pruned"] / batch_stats["candidates"]
        if batch_stats["candidates"]
        else 0.0
    )
    stats["batch"] = batch_stats
    stats["bnb"] = _bnb_stats(
        nodes_expanded=walker.nodes_expanded,
        leaves_deferred=walker.leaves_deferred,
        subtrees_pruned=walker.subtrees_pruned,
        infeasible_subtrees=walker.infeasible_subtrees,
        root_bound=root_bound,
        bound_tightness=tightness,
        warm_start_metric=warm_metric,
    )
    stats["pool_mode"] = pool_mode
    stats["pool"] = {
        "workers": workers,
        "partition_depth": depth,
        "num_units": len(jobs),
        "transport": bundles[0].transport if bundles else None,
        "units": unit_rows,
    }
    return result
