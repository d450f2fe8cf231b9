"""Hierarchical branch-and-bound mapper with partial-cost pruning.

The flat searchers traverse the whole chain-product enumeration, pricing
every candidate at least partially (the batch engine's row pruning still
packs and cycles every row). This searcher instead walks the *prefix tree*
over problem dimensions: each tree level fixes one dimension's complete
Eq. (5) bound+remainder chain, and every node is priced with an admissible
lower bound over all completions
(:class:`~repro.model.batch.PartialBoundEngine`). Any subtree whose bound
cannot beat the incumbent is cut before a single one of its candidates is
enumerated — the lift from "prune rows in a packed batch" to "prune
regions of the mapspace" (ROADMAP item 3; cf. the level-by-level
ComputeLevelMapper idiom).

Search order and exactness:

* **warm start** — a short random-sampling pass seeds the incumbent. The
  samples are assembled in canonical loop order (``assemble(..., rng=None)``),
  so every warm candidate is a member of the enumerated space and the
  final best is always an enumeration member.
* **best-first** — nodes pop in ascending bound order (ties broken by a
  monotone insertion counter, so the trajectory is seed-deterministic).
  Bounds are monotone along the tree, so the first prunable node at the
  front of the heap proves every remaining node prunable and the search
  terminates with the exact optimum.
* **leaf batches** — once a subtree is small enough, it is buffered
  rather than branched; buffered subtrees flush together through
  :meth:`MapSpace.iter_prefix_batches`, which masks the completions of
  *many* subtrees as fully pinned menu-index rows (no unravel) and cuts
  them into shared full-width batches (tiny per-leaf batches would
  otherwise dominate the runtime). At flush time each buffered
  bound is re-checked against the incumbent — which usually improved
  since the leaf was popped — so late leaves are often cut without
  enumerating a row. Sibling leaves get their per-completion bound grids
  one block per call when their parent is expanded, keeping only cells
  under the cut of the moment. Surviving rows are priced from the bound
  engine's per-chain tables by the bit-exact vectorized engine, with
  row-level pruning against the same incumbent.
  The returned best-EDP is therefore bit-identical to
  :class:`~repro.search.exhaustive.ExhaustiveSearch` — asserted by the
  ``branch-bound-parity`` invariant in :mod:`repro.verify.invariants`.

The walk itself lives in :class:`_SubtreeWalker`, parameterized by an
*incumbent cell* (:class:`LocalIncumbent` here;
:class:`~repro.search.worker_pool.SharedIncumbent` when
:mod:`repro.search.branch_bound_parallel` fans subtrees over a worker
pool with ``workers > 1``). Serial search reads and writes the local cell
exactly where it used to read ``best_metric``, so the trajectory — and
the returned best — is unchanged; parallel workers read the shared cell
at the same points, which makes every cross-process cut subject to the
same ``PRUNE_MARGIN`` guard and keeps the best-EDP bit-identical.

The tree walk runs for every evaluator configuration. When the engine's
row-wise switch is off (``use_batch=False``, or NoC/static energy,
bandwidth stalls or 2**53+ operations, which its kernels do not model),
leaf rows are priced one by one through the scalar evaluator and the run
reports ``mode="scalar"``. The bounds stay admissible there: the extra
terms only ever add energy or cycles.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.exceptions import SearchError
from repro.mapspace.generator import MapSpace
from repro.model.evaluator import Evaluation, Evaluator
from repro.search.loop import (
    BatchCounts,
    RunLedger,
    batch_engine_for,
    check_int,
    check_objective,
)
from repro.search.result import SearchResult
from repro.utils import batching
from repro.utils.rng import make_rng

#: Default number of warm-start samples seeding the incumbent.
DEFAULT_WARM_SAMPLES = 64

#: Default subtree size below which completions are priced as batches
#: rather than branched further. Leaves get a dense per-completion bound
#: sweep at flush time, so wide leaves are cheap: the sweep is a handful
#: of broadcast kernels, and only surviving cells are ever enumerated.
DEFAULT_LEAF_WIDTH = 4_096

#: Buffered leaf rows (pre-fanout-filter estimate) that trigger a flush.
#: Large enough that flushes pack full batches; small enough that the
#: incumbent stays fresh between flushes. A constant of the walk, not a
#: multiple of the batch size, so the tree counts do not depend on how a
#: flush chunks its rows.
FLUSH_ROWS = 4_096

#: Leaf widths per block of sibling leaves whose suffix grids are
#: computed in one call.
FLUSH_ROWS_FACTOR = 8


class LocalIncumbent:
    """Process-local best-so-far cell (serial / sequential-fallback).

    Same protocol as :class:`~repro.search.worker_pool.SharedIncumbent`
    — ``read`` the current bound, ``offer`` a strictly-better candidate
    metric — so search code is written once against the incumbent
    interface.
    """

    def __init__(self, metric: float = math.inf) -> None:
        self._metric = float(metric)

    def read(self) -> float:
        return self._metric

    def offer(self, metric: float) -> bool:
        """Install ``metric`` if strictly better; True when accepted."""
        if not metric < self._metric:
            return False
        self._metric = float(metric)
        return True


def dims_branch_order(menus: Sequence[Tuple[str, Tuple]]) -> List[Tuple[str, Tuple]]:
    """Branch the widest menus first: that is where bounds can cut the
    largest subtrees, and it keeps the frontier small. Ties break on
    workload dim order, so the trajectory is fully deterministic — and
    identical between the serial walk and the parallel partitioning."""
    return sorted(menus, key=lambda pair: (-len(pair[1]), pair[0]))


class _SubtreeWalker:
    """Best-first walk of a prefix (sub)tree against an incumbent cell.

    One implementation serves both regimes: the serial search walks the
    whole tree with a :class:`LocalIncumbent`, and each parallel worker
    walks its assigned top-level subtree with a
    :class:`~repro.search.worker_pool.SharedIncumbent`. The walker keeps
    a cached cut metric (``_cut``) refreshed from the incumbent at every
    node pop, flush, and batch — the points where the serial search read
    ``best_metric`` — and re-reads it whenever an ``offer`` loses a race,
    so pruning is never done against anything but a real candidate's
    true metric. Under the local cell this is bit-for-bit the original
    serial trajectory.

    Alongside the incumbent the walker tracks its own best candidate
    (evaluation, metric, and menu-index signature in workload dim order)
    so a parallel driver can re-price every worker's claim and return a
    bit-identical best metric regardless of race timing.

    The walker owns its walk's counts: priced and valid rows, the batch
    kernel's rows (``batch``) and the tree counters. It publishes none of
    them; the driver hands them to its ledger once, through
    :meth:`~repro.search.loop.RunLedger.close_tree`, after summing every
    parallel unit's counts in.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        engine,
        evaluator: Evaluator,
        bound_engine,
        dims_order: Sequence[Tuple[str, Tuple]],
        objective: str,
        leaf_width: int,
        limit: Optional[int],
        incumbent,
        ledger=None,
    ) -> None:
        self.mapspace = mapspace
        self.engine = engine
        self.evaluator = evaluator
        self.bound_engine = bound_engine
        self.dims_order = list(dims_order)
        self.objective = objective
        self.leaf_width = leaf_width
        self.limit = limit
        self.incumbent = incumbent
        #: Optional RunLedger: its improvement hook records every accepted
        #: improvement, and its progress tracker advances as cells are
        #: covered. The serial search and the parallel driver pass theirs;
        #: parallel workers leave it None (the driver advances per
        #: arriving unit and re-prices their claims through its own).
        #: Rows and tree counters reach it only through ``close_tree``.
        self.ledger = ledger
        self.num_dims = len(self.dims_order)
        #: Workload dim order — the canonical signature axis (matches
        #: ``dim_chain_menus`` and the batch layout's dim columns).
        self.workload_dims = [dim for dim, _ in mapspace.dim_chain_menus()]
        self._menu_lens = np.array(
            [len(menu) for _, menu in mapspace.dim_chain_menus()],
            dtype=np.int64,
        )
        # suffix_product[k] = candidates (pre-fanout-filter) below depth k.
        suffix = [1] * (self.num_dims + 1)
        for k in range(self.num_dims - 1, -1, -1):
            suffix[k] = suffix[k + 1] * len(self.dims_order[k][1])
        self.suffix_product = suffix

        self.evaluations = 0
        self.num_valid = 0
        self.batch = BatchCounts()
        self.nodes_expanded = 0
        self.leaves_deferred = 0
        self.subtrees_pruned = 0
        self.infeasible_subtrees = 0
        #: Pre-filter cells this walker has resolved (priced, pruned, or
        #: proved infeasible). Every cell of a walked subtree is counted
        #: exactly once, so a completed ``walk(root)`` accumulates exactly
        #: ``suffix_product[len(root)]`` — the progress-total invariant
        #: the branch-bound tests pin.
        self.cells_covered = 0.0
        self.best: Optional[Evaluation] = None
        self.best_metric = float("inf")
        self.best_signature: Optional[Tuple[int, ...]] = None

        self._cut = float(incumbent.read())
        # Leaf subtrees are buffered and flushed together so their rows
        # pack into shared full-width batches (a per-leaf iter_batches
        # call would emit mostly-empty batches and the per-batch kernel
        # overhead would swamp the pruning win).
        self._leaf_buffer: List[Tuple[float, Tuple[int, ...], Optional[tuple]]] = []
        self._leaf_rows = 0
        #: Cells per block of sibling leaves whose suffix grids are
        #: computed in one call.
        self._block_cells = FLUSH_ROWS_FACTOR * leaf_width
        self._counter = 1

    def _cover(self, cells: float) -> None:
        """Account ``cells`` pre-filter candidates as resolved."""
        if cells <= 0:
            return
        self.cells_covered += cells
        if self.ledger is not None:
            self.ledger.progress.advance(cells)

    # -- improvements ----------------------------------------------------

    def _consider(
        self,
        metric: float,
        make_evaluation: Callable[[], Evaluation],
        at: int,
        signature: Optional[Tuple[int, ...]] = None,
    ) -> bool:
        """Offer a true candidate metric, priced as row ``at`` of the
        walk, to the incumbent.

        The evaluation is materialized only when the candidate beats the
        cached cut (same laziness as before). A losing offer — possible
        only under a shared incumbent, when another worker posted a
        better true metric first — refreshes the cut instead.
        """
        if not metric < self._cut:
            return False

        evaluation = make_evaluation()
        if signature is None:
            signature = (-1,) * len(self.workload_dims)
        if not self.incumbent.offer(metric):
            self._cut = float(self.incumbent.read())
            return False
        self._cut = metric
        self.best = evaluation
        self.best_metric = metric
        self.best_signature = tuple(int(x) for x in signature)
        if self.ledger is not None:
            self.ledger.improved(metric, evaluation, at)
        return True

    def price_mappings(self, mappings) -> None:
        """Price assembled mappings through the engine (no row pruning).

        Used for the warm start and for the parallel driver's final
        re-price of worker claims; every improving candidate goes through
        :meth:`_consider`, so order decides ties deterministically.
        """
        outcome = self.engine.evaluate_mappings(
            mappings, objective=self.objective, prune=False
        )
        base = self._count(outcome)
        # The cut only ever falls, so rows that lose to it on entry
        # can never improve and are skipped without a Python step.
        for i in np.flatnonzero(outcome.valid & (outcome.metric < self._cut)):
            i = int(i)

            def make_evaluation(i=i):
                evaluation = outcome.evaluations.get(i)
                if evaluation is not None:
                    return evaluation
                return self.evaluator.evaluate_fresh(mappings[i])

            self._consider(
                float(outcome.metric[i]), make_evaluation, base + i + 1
            )

    def _count(self, outcome, batch=None) -> int:
        """Count a priced batch's candidates (an enumerated batch's span);
        returns the count before it."""
        base = self.evaluations
        self.evaluations += (
            outcome.valid.size if batch is None else batch.candidates
        )
        self.num_valid += int(outcome.valid.sum())
        self.batch += BatchCounts.of(outcome, batch)
        return base

    # -- the walk --------------------------------------------------------

    def walk(self, root_indices: Tuple[int, ...] = ()) -> float:
        """Best-first walk of the subtree rooted at ``root_indices``
        (menu indices along ``dims_order``; empty = the whole tree).
        Returns the root's bound. Buffered leaves are flushed before
        returning, so the walker's best is final when this returns.
        """
        from repro.model.batch import PRUNE_MARGIN

        dims_order = self.dims_order
        root_assigned = {
            dims_order[i][0]: k for i, k in enumerate(root_indices)
        }
        root_bound = self.bound_engine.bound(root_assigned, self.objective)
        # Heap entries: (bound, insertion counter, chain-index tuple
        # along dims_order, the leaf's cells from _sibling_cells or None).
        # The counter makes ties deterministic (the cells are never
        # compared).
        heap: List[Tuple[float, int, Tuple[int, ...], Optional[tuple]]] = [
            (root_bound, 0, tuple(root_indices), None)
        ]
        while heap:
            node_bound, _, indices, cells = heapq.heappop(heap)
            self._cut = float(self.incumbent.read())
            if (
                self._cut != float("inf")
                and node_bound * (1.0 - PRUNE_MARGIN) >= self._cut
            ):
                # Best-first: every remaining node's bound is at least
                # this one, so the whole frontier is proved prunable.
                self.subtrees_pruned += 1 + len(heap)
                self._cover(
                    self.suffix_product[len(indices)]
                    + sum(
                        self.suffix_product[len(entry[2])] for entry in heap
                    )
                )
                heap.clear()
                break
            depth = len(indices)
            if depth == self.num_dims or (
                self.suffix_product[depth] <= self.leaf_width
            ):
                # Deferred, not expanded: the node's completions will be
                # priced (or cut) at flush time. Counted separately from
                # expansions so both stats stay meaningful.
                self.leaves_deferred += 1
                self._leaf_buffer.append((node_bound, indices, cells))
                self._leaf_rows += self.suffix_product[depth]
                if self._leaf_rows >= FLUSH_ROWS:
                    self.flush_leaves()
                continue
            self.nodes_expanded += 1
            dim, menu = dims_order[depth]
            prefix = {
                dims_order[i][0]: dims_order[i][1][k]
                for i, k in enumerate(indices)
            }
            assigned = {
                dims_order[i][0]: k for i, k in enumerate(indices)
            }
            # One vectorized call prices the whole menu of children —
            # per-child scalar bounds were the walk's hotspot.
            child_bounds = self.bound_engine.child_bounds(
                assigned, dim, self.objective
            )
            children: List[Tuple[int, float]] = []
            for k, chain in enumerate(menu):
                prefix[dim] = chain
                if not self.mapspace.chains_within_fanout(prefix):
                    # No completion fits the fanout caps; not a bound
                    # decision, so counted separately.
                    self.infeasible_subtrees += 1
                    self._cover(self.suffix_product[depth + 1])
                    continue
                child_bound = float(child_bounds[k])
                if (
                    self._cut != float("inf")
                    and child_bound * (1.0 - PRUNE_MARGIN) >= self._cut
                ):
                    self.subtrees_pruned += 1
                    self._cover(self.suffix_product[depth + 1])
                    continue
                children.append((k, child_bound))
            sibling_cells = self._sibling_cells(
                assigned, dim, depth + 1, [k for k, _ in children]
            )
            for (k, child_bound), leaf_cells in zip(children, sibling_cells):
                heapq.heappush(
                    heap,
                    (child_bound, self._counter, indices + (k,), leaf_cells),
                )
                self._counter += 1

        # Leaves buffered after the last threshold flush (including any
        # left when the frontier drained) still need pricing; the flush
        # re-checks their bounds against the final incumbent.
        self.flush_leaves()
        return root_bound

    def _sibling_cells(
        self,
        assigned: Dict[str, int],
        dim: str,
        depth: int,
        children: List[int],
    ) -> List[Optional[Tuple[np.ndarray, np.ndarray]]]:
        """Suffix-grid cells of a node's ``children`` (their menu indices
        along ``dim``), computed one block of siblings at a time.

        Children at ``depth`` that will be deferred as leaves with free
        dimensions differ only in ``dim``, so one :meth:`suffix_bounds`
        call with ``siblings`` prices a block of about
        ``FLUSH_ROWS_FACTOR * leaf_width`` of their cells. Per child only
        the flat indices and values of cells under the current cut are
        kept. The cut only falls, so at flush these hold every cell the
        flush-time cut keeps. Inner nodes, fully assigned leaves, and
        every child while there is no incumbent, get ``None``: such a
        leaf prices its own grid at flush, as a root leaf does.
        """
        from repro.model.batch import PRUNE_MARGIN

        cells_per_leaf = self.suffix_product[depth]
        if (
            not children
            or depth == self.num_dims
            or cells_per_leaf > self.leaf_width
            or self._cut == float("inf")
        ):
            return [None] * len(children)
        axis = [d for d in self.workload_dims if d not in assigned].index(dim)
        per_block = max(1, self._block_cells // cells_per_leaf)
        cells: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
        for start in range(0, len(children), per_block):
            ks = np.array(children[start:start + per_block], dtype=np.int64)
            grid = self.bound_engine.suffix_bounds(
                assigned, self.objective, siblings=(dim, ks)
            )
            # Row j: child ks[j]'s own suffix grid, flattened.
            grid = np.moveaxis(grid, axis, 0).reshape(ks.size, -1)
            under = grid * (1.0 - PRUNE_MARGIN) < self._cut
            for values, mask in zip(grid, under):
                keep = np.flatnonzero(mask)
                cells.append((keep, values[keep]))
        return cells

    def flush_leaves(self) -> None:
        """Price every buffered leaf subtree through shared batches.

        At flush time each leaf's stored bound is re-checked against the
        incumbent — which usually improved since the leaf was popped —
        and surviving leaves get a dense per-completion bound sweep
        (:meth:`suffix_bounds`): complete assignments are the tightest
        bounds the engine can state, and a cell cut there is never even
        enumerated into a batch. A leaf whose cells its parent's sibling
        block already priced re-checks just the cells it kept.

        Surviving cells are fully pinned menu-index rows: they are
        masked for fanout and capacity and cut into batches by
        :meth:`MapSpace.iter_prefix_batches` without an unravel, and
        priced from the bound engine's tables without being packed.
        Rows are counted by candidate: each batch's span includes the
        cells the enumeration proved capacity-infeasible, and each row's
        candidate number is its ordinal within that span.
        """
        from repro.model.batch import PRUNE_MARGIN

        if not self._leaf_buffer:
            return
        self._cut = float(self.incumbent.read())
        dims_order = self.dims_order
        # Surviving cells as menu-index rows in workload dim order, packed
        # without ever building chain dicts.
        blocks = [np.empty((0, self.num_dims), dtype=np.int64)]
        for leaf_bound, leaf_indices, cells in self._leaf_buffer:
            if (
                self._cut != float("inf")
                and leaf_bound * (1.0 - PRUNE_MARGIN) >= self._cut
            ):
                self.subtrees_pruned += 1
                self._cover(self.suffix_product[len(leaf_indices)])
                continue
            assigned = {
                dims_order[i][0]: k for i, k in enumerate(leaf_indices)
            }
            row = np.array(
                [assigned.get(dim, -1) for dim in self.workload_dims],
                dtype=np.int64,
            )
            if len(leaf_indices) == self.num_dims:
                blocks.append(row[None, :])
                continue
            if cells is None:
                index, flat = None, self.bound_engine.suffix_bounds(
                    assigned, self.objective
                ).reshape(-1)
            else:
                index, flat = cells
            if self._cut != float("inf"):
                keep = np.flatnonzero(
                    flat * (1.0 - PRUNE_MARGIN) < self._cut
                )
                if index is not None:
                    keep = index[keep]
                cut = self.suffix_product[len(leaf_indices)] - keep.size
                self.subtrees_pruned += cut
                # Each cut cell is one complete assignment.
                self._cover(cut)
            else:
                keep = np.arange(flat.size) if index is None else index
            # suffix_bounds lays its axes out in workload dim order over
            # the free dims, which are exactly the row's -1 entries.
            rows = np.repeat(row[None, :], keep.size, axis=0)
            rows[:, row < 0] = np.stack(
                np.unravel_index(keep, tuple(self._menu_lens[row < 0])), axis=1
            )
            blocks.append(rows)
        self._leaf_buffer.clear()
        self._leaf_rows = 0
        pinned = np.concatenate(blocks)
        if not len(pinned):
            return
        resolved = 0
        with obs.trace("search.leaf_flush", subtrees=len(pinned)):
            for batch in self.mapspace.iter_prefix_batches(
                pinned,
                batch_size=batching.DEFAULT_BATCH_SIZE,
                tags=np.arange(len(pinned)),
                capacity=self.engine.vectorize,
            ):
                if (
                    self.limit is not None
                    and self.evaluations + batch.candidates > self.limit
                ):
                    raise SearchError(
                        f"branch-and-bound search exceeded limit of "
                        f"{self.limit} priced mappings"
                    )
                self._cut = float(self.incumbent.read())
                outcome = self.engine.evaluate_batch(
                    batch,
                    objective=self.objective,
                    incumbent=self._cut,
                    prune=True,
                    tables=self.bound_engine,
                )
                base = self._count(outcome, batch)
                resolved += batch.candidates
                self._cover(batch.candidates)
                live = outcome.valid & ~outcome.pruned
                for i in np.flatnonzero(live & (outcome.metric < self._cut)):
                    i = int(i)
                    metric = float(outcome.metric[i])
                    tag = int(batch.tags[i])

                    def make_evaluation(outcome=outcome, batch=batch, i=i):
                        evaluation = outcome.evaluations.get(i)
                        if evaluation is not None:
                            return evaluation
                        return self.evaluator.evaluate_fresh(
                            batch.mapping_at(i)
                        )

                    self._consider(
                        metric,
                        make_evaluation,
                        base + batch.ordinal(i) + 1,
                        signature=tuple(pinned[tag].tolist()),
                    )
        # Pinned cells the joint-fanout filter dropped are in no batch's
        # span; they are resolved all the same.
        self._cover(len(pinned) - resolved)


class BranchBoundSearch:
    """Exact best-first branch-and-bound over the per-dimension prefix tree.

    Exact over canonical loop order only, like
    :class:`~repro.search.exhaustive.ExhaustiveSearch`: the tree fixes
    tile-size chains with every level's temporal loops in workload
    dimension order (the bound tables assume it too), while the random
    sampler also shuffles them. On conv5_expand PFM under
    ``eyeriss_row_stationary()`` random search (100,000 evaluations,
    seed 1) finds EDP 4.965e14 against this walk's 5.236e14.

    Args:
        mapspace: must be enumerable (same regime as exhaustive search).
        evaluator: prices candidates (through the batch engine).
        objective: optimization metric name ("edp", "energy", "delay").
        warm_samples: random samples seeding the incumbent before the
            tree walk; 0 disables warm start.
        leaf_width: subtrees with at most this many candidates are priced
            as packed batches instead of being branched further; they
            are packed :data:`~repro.utils.batching.DEFAULT_BATCH_SIZE`
            per batch.
        limit: safety cap on *priced* candidates (pruned subtrees are
            free); exceeding it raises. ``None`` disables the cap. With
            ``workers > 1`` every work unit's walk counts against its
            own cap (as does the driver's warm start and re-pricing), so
            a parallel search may price up to ``limit`` rows per unit.
        seed: RNG seed or generator (consumed only by the warm start).
        use_batch: price leaf rows through the vectorized kernels;
            without it they are priced row by row through the scalar
            evaluator (same tree, same answer).
        workers: fan top-level subtrees over a process pool when > 1
            (see :mod:`repro.search.branch_bound_parallel`); the best
            metric is bit-identical to the serial walk, and it is the only
            reproducible result. What each unit prices depends on when
            it reads the shared incumbent, so ``num_evaluated``,
            ``stats["bnb"]`` counts (``subtrees_pruned`` among them) and
            the argmin among co-optimal ties vary from run to run at a
            fixed seed.
        start_method: force a multiprocessing start method ("fork" or
            "spawn") for ``workers > 1``; by default each is tried in
            that order before degrading to sequential execution.
    """

    def __init__(
        self,
        mapspace: MapSpace,
        evaluator: Evaluator,
        objective: str = "edp",
        warm_samples: int = DEFAULT_WARM_SAMPLES,
        leaf_width: int = DEFAULT_LEAF_WIDTH,
        limit: Optional[int] = 10_000_000,
        seed: Optional[Union[int, random.Random]] = None,
        use_batch: bool = True,
        workers: int = 1,
        start_method: Optional[str] = None,
    ) -> None:
        self.mapspace = mapspace
        self.evaluator = evaluator
        self.objective = check_objective(objective)
        self.warm_samples = check_int("warm_samples", warm_samples, 0)
        self.leaf_width = check_int("leaf_width", leaf_width, 1)
        self.limit = check_int("limit", limit, 1, optional=True)
        self.rng = make_rng(seed)
        self.use_batch = use_batch
        self.workers = check_int("workers", workers, 1)
        self.start_method = start_method

    def run(self) -> SearchResult:
        engine = batch_engine_for(self.mapspace, self.evaluator, self.use_batch)
        if self.workers > 1:
            from repro.search.branch_bound_parallel import run_parallel_tree

            return run_parallel_tree(self, engine)
        return self._run_tree(engine)

    # -- the tree walk ---------------------------------------------------

    def _warm_start(self, walker: _SubtreeWalker) -> Optional[float]:
        """Seed the incumbent so bounds bite immediately.

        Runs on the walker so improvements flow through the same
        incumbent protocol (and curve/obs hooks) as tree candidates.
        """
        if not self.warm_samples:
            return None
        mapspace = self.mapspace
        with obs.trace("search.warm_start", samples=self.warm_samples):
            chain_sets = [
                mapspace.sample_chains(self.rng)
                for _ in range(self.warm_samples)
            ]
            mappings = [
                mapspace.assemble(chains, rng=None) for chains in chain_sets
            ]
            walker.price_mappings(mappings)
        return walker.best_metric if walker.best is not None else None

    def _run_tree(self, engine) -> SearchResult:
        from repro.model.batch import PartialBoundEngine

        mapspace = self.mapspace
        menus = mapspace.dim_chain_menus()
        bound_engine = PartialBoundEngine(engine, menus)
        dims_order = dims_branch_order(menus)

        # Total work = the pre-filter menu product: every cell is either
        # priced, pruned, or proved infeasible exactly once, so the
        # walker's covered-cells accounting lands exactly on this number.
        total_cells = 1
        for _, menu in menus:
            total_cells *= len(menu)
        ledger = RunLedger(
            self.evaluator, "branch-bound", self.objective,
            total_units=total_cells, engine=engine,
        )
        with ledger, obs.trace(
            "search.run", driver="branch-bound", mode=ledger.mode,
            objective=self.objective,
        ):
            walker = _SubtreeWalker(
                mapspace,
                engine,
                self.evaluator,
                bound_engine,
                dims_order,
                objective=self.objective,
                leaf_width=self.leaf_width,
                limit=self.limit,
                incumbent=LocalIncumbent(),
                ledger=ledger,
            )
            warm_metric = self._warm_start(walker)
            root_bound = walker.walk(())
            ledger.close_tree(walker, root_bound, warm_metric)
        return ledger.result("exhausted")
