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
  rather than branched. When a node's children are such leaves, their
  per-completion bound grids are computed one block of siblings per
  :meth:`~repro.model.bounds.PartialBoundEngine.suffix_bounds` call, and
  only cells under the cut of the moment are kept. The leaves keep that
  block as their record (:class:`_LeafBlock`). Buffered leaves flush
  together. The first flush that holds a leaf of a block prices the
  block: fanout and capacity are decided for its cells under that
  flush's cut by the enumeration's rule (:meth:`MapSpace.block_fits`),
  and the feasible ones are priced, all blocks of the flush in one
  :meth:`MapSpace.iter_prefix_batches` pass of fully pinned menu-index
  rows priced from the bound engine's per-chain tables
  (:meth:`~repro.model.batch.BatchEvaluator.evaluate_batch` with
  ``tables``). Leaves without a record (fully assigned leaves, the
  root, and leaves expanded before any incumbent existed) get their
  blocks at flush. The rest of a flush is bookkeeping: each leaf's
  bound and each kept cell's bound is re-checked against the incumbent
  (which usually improved since the leaf was popped), cut cells are
  pruned, feasible ones counted, and improvements offered in candidate
  order.
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
reports ``mode="scalar"``. Every leaf is then priced at flush, so the
scalar evaluator sees only the cells that survive the flush's cut. The
bounds stay admissible there: the extra terms only ever add energy or
cycles.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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
    lazy_evaluation,
)
from repro.search.result import SearchResult
from repro.utils import batching
from repro.utils.rng import make_rng

#: Default number of warm-start samples seeding the incumbent.
DEFAULT_WARM_SAMPLES = 64

#: Default subtree size below which completions are priced as batches
#: rather than branched further. Leaves get a dense per-completion bound
#: sweep (one per block of siblings), so wide leaves are cheap: the sweep
#: is a handful of broadcast kernels, and only surviving cells are ever
#: priced.
DEFAULT_LEAF_WIDTH = 4_096

#: Buffered leaf rows (pre-fanout-filter estimate) that trigger a flush.
#: Small enough that the incumbent stays fresh between flushes. A
#: constant of the walk, not a multiple of the batch size, so the tree
#: counts do not depend on how pricing chunks its rows.
FLUSH_ROWS = 4_096

#: Leaf widths per block of sibling leaves whose suffix grids are
#: computed in one call.
FLUSH_ROWS_FACTOR = 8


class _LeafBlock:
    """Kept cells of a block of sibling leaves: what their flushes read.

    ``rows`` holds each leaf's menu-index row in workload dim order
    (``-1`` at the free dims, which all leaves of a block share). Each
    leaf's kept cells, those of its suffix grid under the cut when the
    grid was computed, lie in ``starts[j]:starts[j + 1]`` of ``index``
    (flat grid index) and ``values`` (bound). A leaf's record is the
    pair ``(block, j)``.

    A block is priced once (:meth:`_SubtreeWalker._price`), at the cut of
    the first flush that holds one of its leaves. Only the cells under
    that cut can be candidates then or later (the cut only falls); for
    them pricing sets ``fan`` (fits every joint fanout cap) and
    ``priced`` (also fits every bounded level when the engine is
    vectorized: a row the engine prices), False elsewhere. Each leaf's
    priced cells then lie in ``priced_starts[j]:priced_starts[j + 1]``
    of ``valid``, ``metric`` and ``cells`` (the cell's menu-index row,
    the handle its mapping is rebuilt from), and ``evaluations`` holds
    the full evaluations the engine made anyway (fallback rows, and
    every row when pricing row-wise), keyed by priced-cell position.
    """

    __slots__ = (
        "rows", "starts", "index", "values", "fan", "priced",
        "priced_starts", "valid", "metric", "cells", "evaluations",
    )

    def __init__(self, rows, starts, index, values) -> None:
        self.rows = rows
        self.starts = starts
        self.index = index
        self.values = values
        self.fan: Optional[np.ndarray] = None
        self.priced: Optional[np.ndarray] = None
        self.priced_starts: Optional[np.ndarray] = None
        self.valid: Optional[np.ndarray] = None
        self.metric: Optional[np.ndarray] = None
        self.cells: Optional[np.ndarray] = None
        self.evaluations: Dict[int, Evaluation] = {}

    def kept(self, j: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Leaf ``j``'s kept cells: ``(values, fan, priced)``."""
        a, b = self.starts[j], self.starts[j + 1]
        return self.values[a:b], self.fan[a:b], self.priced[a:b]

    def outcomes(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Leaf ``j``'s priced cells: ``(valid, metric)``."""
        a, b = self.priced_starts[j], self.priced_starts[j + 1]
        return self.valid[a:b], self.metric[a:b]

    def single(self, j: int) -> "_LeafBlock":
        """Leaf ``j`` as a block of its own (views of this one's cells)."""
        a, b = self.starts[j], self.starts[j + 1]
        return _LeafBlock(
            self.rows[j:j + 1], np.array([0, b - a]), self.index[a:b],
            self.values[a:b],
        )

    def cell_rows(self, cells: np.ndarray, menu_lens: np.ndarray) -> np.ndarray:
        """Kept cells ``cells`` as fully pinned menu-index rows."""
        leaf = np.searchsorted(self.starts, cells, side="right") - 1
        rows = self.rows[leaf]
        free = self.rows[0] < 0
        if free.any():
            rows[:, free] = np.stack(
                np.unravel_index(
                    self.index[cells], tuple(menu_lens[free])
                ),
                axis=1,
            )
        return rows


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
    workload dim order, so the trajectory is fully deterministic."""
    return sorted(menus, key=lambda pair: (-len(pair[1]), pair[0]))


def tree_engines(mapspace: MapSpace, evaluator: Evaluator, use_batch: bool):
    """The batch engine, bound engine and branch order of a tree walk:
    built by the driver, and once per process by each parallel worker."""
    from repro.model.batch import PartialBoundEngine

    engine = batch_engine_for(mapspace, evaluator, use_batch)
    menus = mapspace.dim_chain_menus()
    return engine, PartialBoundEngine(engine, menus), dims_branch_order(menus)


class _SubtreeWalker:
    """Best-first walk of a prefix (sub)tree against an incumbent cell.

    One implementation serves both regimes: the serial search walks the
    whole tree with a :class:`LocalIncumbent`, and each parallel worker
    walks its assigned subtree with a
    :class:`~repro.search.worker_pool.SharedIncumbent`. The walker keeps
    a cached cut metric (``_cut``) refreshed from the incumbent at every
    node pop and flush — the points where the serial search read
    ``best_metric`` — and re-reads it whenever an ``offer`` loses a race,
    so pruning is never done against anything but a real candidate's
    true metric. Under the local cell this is bit-for-bit the original
    serial trajectory.

    Alongside the incumbent the walker tracks its own best candidate
    (metric, and menu-index signature in workload dim order) so a
    parallel driver can re-price every worker's claim and return a
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
        self.best_metric = float("inf")
        self.best_signature: Optional[Tuple[int, ...]] = None

        self._cut = float(incumbent.read())
        # Leaf subtrees are buffered and flushed together, each with its
        # bound and its record (None until the flush prices it).
        self._leaf_buffer: List[
            Tuple[float, Tuple[int, ...], Optional[Tuple[_LeafBlock, int]]]
        ] = []
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

        ``make_evaluation`` builds the candidate's full evaluation; it is
        handed to the ledger, which calls it only for the run's final
        best. A losing offer — possible only under a shared incumbent,
        when another worker posted a better true metric first —
        refreshes the cut instead.
        """
        if not metric < self._cut:
            return False
        if signature is None:
            signature = (-1,) * len(self.workload_dims)
        if not self.incumbent.offer(metric):
            self._cut = float(self.incumbent.read())
            return False
        self._cut = metric
        self.best_metric = metric
        self.best_signature = tuple(int(x) for x in signature)
        if self.ledger is not None:
            self.ledger.improved(metric, make_evaluation, at)
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
            self._consider(
                float(outcome.metric[i]),
                lazy_evaluation(
                    outcome.evaluations, i, self.evaluator, mappings[i]
                ),
                base + i + 1,
            )

    def _count(self, outcome) -> int:
        """Count a priced batch of mappings; returns the count before it."""
        base = self.evaluations
        self.evaluations += outcome.valid.size
        self.num_valid += int(outcome.valid.sum())
        self.batch += BatchCounts.of(outcome)
        return base

    # -- the walk --------------------------------------------------------

    def walk(self, root_indices: Tuple[int, ...] = ()) -> float:
        """Best-first walk of the subtree rooted at ``root_indices``
        (menu indices along ``dims_order``; empty = the whole tree).
        Returns the root's bound. Buffered leaves are flushed before
        returning, so the walker's best is final when this returns.
        """
        dims_order = self.dims_order
        root_assigned = {
            dims_order[i][0]: k for i, k in enumerate(root_indices)
        }
        root_bound = self.bound_engine.bound(root_assigned, self.objective)
        # Heap entries: (bound, insertion counter, chain-index tuple
        # along dims_order, record). A leaf's record is the (_LeafBlock,
        # j) pair _sibling_cells built for it, or None (every other
        # node, and leaves that get theirs at flush). The counter makes
        # ties deterministic (records are never compared).
        heap: List[Tuple[float, int, Tuple[int, ...], Optional[tuple]]] = [
            (root_bound, 0, tuple(root_indices), None)
        ]
        while heap:
            entry = self._pop(heap)
            if entry is None:
                break
            node_bound, _, indices, record = entry
            depth = len(indices)
            if depth == self.num_dims or (
                self.suffix_product[depth] <= self.leaf_width
            ):
                # Deferred, not expanded: the node's completions will be
                # priced (or cut) at flush time. Counted separately from
                # expansions so both stats stay meaningful.
                self.leaves_deferred += 1
                self._leaf_buffer.append((node_bound, indices, record))
                self._leaf_rows += self.suffix_product[depth]
                if self._leaf_rows >= FLUSH_ROWS:
                    self.flush_leaves()
                continue
            self._expand(heap, indices, leaf_records=True)

        # Leaves buffered after the last threshold flush (including any
        # left when the frontier drained) still need pricing; the flush
        # re-checks their bounds against the final incumbent.
        self.flush_leaves()
        return root_bound

    def frontier(self, target: int) -> List[Tuple[int, ...]]:
        """The whole tree's best-first frontier, as parallel work units:
        menu-index tuples along ``dims_order`` in (bound, insertion)
        order.

        Nodes pop and expand as in :meth:`walk`, leaf-sized ones too,
        until the heap holds ``target`` nodes or only fully assigned
        ones. Pruned and infeasible children are covered here, so
        ``cells_covered`` plus every unit's subtree is the whole tree.
        No leaf records are built: each unit's walk builds its own.
        """
        heap = [(self.bound_engine.bound({}, self.objective), 0, (), None)]
        full = []
        while heap and len(heap) + len(full) < target:
            entry = self._pop(heap)
            if entry is None:
                break
            if len(entry[2]) == self.num_dims:
                full.append(entry)
            else:
                self._expand(heap, entry[2], leaf_records=False)
        return [entry[2] for entry in sorted(heap + full)]

    def _pop(self, heap: List[tuple]) -> Optional[tuple]:
        """Pop the best node, or None once its bound is cut: best-first,
        every remaining node's bound is at least this one, so the whole
        frontier is proved prunable (and covered)."""
        from repro.model.batch import PRUNE_MARGIN

        entry = heapq.heappop(heap)
        self._cut = float(self.incumbent.read())
        if (
            self._cut != float("inf")
            and entry[0] * (1.0 - PRUNE_MARGIN) >= self._cut
        ):
            self.subtrees_pruned += 1 + len(heap)
            self._cover(
                self.suffix_product[len(entry[2])]
                + sum(self.suffix_product[len(node[2])] for node in heap)
            )
            heap.clear()
            return None
        return entry

    def _expand(
        self, heap: List[tuple], indices: Tuple[int, ...], leaf_records: bool
    ) -> None:
        """Push node ``indices``' live children onto ``heap``, with their
        records when ``leaf_records``; cut and infeasible ones are
        counted and covered."""
        from repro.model.batch import PRUNE_MARGIN

        depth = len(indices)
        self.nodes_expanded += 1
        dim, menu = self.dims_order[depth]
        assigned = {self.dims_order[i][0]: k for i, k in enumerate(indices)}
        # One vectorized call prices the whole menu of children —
        # per-child scalar bounds were the walk's hotspot — and one
        # mask decides which of them can fit the fanout caps.
        child_bounds = self.bound_engine.child_bounds(
            assigned, dim, self.objective
        )
        index: List[Any] = [assigned.get(w) for w in self.workload_dims]
        index[self.workload_dims.index(dim)] = np.arange(len(menu))
        fits, _ = self.mapspace.block_fits(
            index, (len(menu),), capacity=False
        )
        live = fits
        if self._cut != float("inf"):
            cut_off = child_bounds * (1.0 - PRUNE_MARGIN) >= self._cut
            live = fits & ~cut_off
        # Children no completion of which fits the fanout caps are not
        # a bound decision, so they are counted separately.
        infeasible = len(menu) - int(np.count_nonzero(fits))
        pruned = int(np.count_nonzero(fits)) - int(np.count_nonzero(live))
        self.infeasible_subtrees += infeasible
        self.subtrees_pruned += pruned
        self._cover((infeasible + pruned) * self.suffix_product[depth + 1])
        children = np.flatnonzero(live).tolist()
        records = (
            self._sibling_cells(assigned, dim, depth + 1, children)
            if leaf_records
            else [None] * len(children)
        )
        for k, child_bound, child in zip(
            children, child_bounds[children].tolist(), records
        ):
            heapq.heappush(
                heap, (child_bound, self._counter, indices + (k,), child)
            )
            self._counter += 1

    def _sibling_cells(
        self,
        assigned: Dict[str, int],
        dim: str,
        depth: int,
        children: List[int],
    ) -> List[Optional[Tuple[_LeafBlock, int]]]:
        """Records of a node's ``children`` (their menu indices along
        ``dim``) at ``depth``, built when the node is expanded.

        Only children that will be deferred as leaves with free
        dimensions get one (:meth:`_leaf_blocks`), and only while there
        is an incumbent to cut their cells against. The cut only falls,
        so at flush their records hold every cell the flush-time cut
        keeps. Every other child gets ``None``; a leaf without a record
        gets one at flush.
        """
        if (
            not children
            or depth == self.num_dims
            or self.suffix_product[depth] > self.leaf_width
            or self._cut == float("inf")
        ):
            return [None] * len(children)
        return self._leaf_blocks(assigned, dim, children)

    def _leaf_blocks(
        self,
        assigned: Dict[str, int],
        dim: Optional[str],
        children: List[int],
    ) -> List[Tuple[_LeafBlock, int]]:
        """Records of the leaves ``assigned | {dim: k}`` for ``k`` in
        ``children`` (with ``dim`` None, of the one leaf ``assigned``),
        built one block of siblings at a time.

        The leaves differ only in ``dim``, so one :meth:`suffix_bounds`
        call with ``siblings`` bounds a block of about
        ``FLUSH_ROWS_FACTOR * leaf_width`` of their cells. Per leaf only
        cells under the current cut are kept (all of them while there is
        no incumbent). A block is priced
        once, by the first flush that holds one of its leaves
        (:meth:`flush_leaves`). When the engine prices row-wise each leaf
        gets a block of its own, so the scalar evaluator prices only
        cells of leaves that flush.
        """
        from repro.model.batch import PRUNE_MARGIN

        parent = self._leaf_row(assigned)
        free = np.flatnonzero(parent < 0)
        if dim is not None:
            d = self.workload_dims.index(dim)
            axis = int(np.searchsorted(free, d))
            free = free[free != d]
        leaf_shape = tuple(self._menu_lens[free].tolist())
        cells_per_leaf = math.prod(leaf_shape)
        per_block = max(1, self._block_cells // cells_per_leaf)
        records: List[Tuple[_LeafBlock, int]] = []
        for start in range(0, len(children), per_block):
            if dim is None:
                rows = parent[None, :]
                grid = self.bound_engine.suffix_bounds(
                    assigned, self.objective
                )
            else:
                ks = np.array(
                    children[start:start + per_block], dtype=np.int64
                )
                rows = np.repeat(parent[None, :], ks.size, axis=0)
                rows[:, d] = ks
                # Leaf j's own suffix grid is slice j along dim's axis.
                grid = np.moveaxis(
                    self.bound_engine.suffix_bounds(
                        assigned, self.objective, siblings=(dim, ks)
                    ),
                    axis,
                    0,
                )
            grid = grid.reshape(-1)
            if self._cut != float("inf"):
                kept = np.flatnonzero(
                    grid * (1.0 - PRUNE_MARGIN) < self._cut
                )
            else:
                kept = np.arange(grid.size)
            block = _LeafBlock(
                rows,
                np.searchsorted(
                    kept, np.arange(len(rows) + 1) * cells_per_leaf
                ),
                # The smallest dtype that holds a leaf's flat grid index.
                (kept % cells_per_leaf).astype(
                    np.min_scalar_type(cells_per_leaf)
                ),
                grid[kept],
            )
            if self.engine.vectorize:
                records += [(block, j) for j in range(len(rows))]
            else:
                records += [(block.single(j), 0) for j in range(len(rows))]
        return records

    def _orphan_records(
        self, bounds: Sequence[float], indices: Sequence[Tuple[int, ...]]
    ) -> List[Tuple[_LeafBlock, int]]:
        """Records, built at flush, of the leaves that got none at
        expansion (``indices`` along ``dims_order``, in order).

        Fully assigned leaves form one block, each one cell carrying the
        leaf's ``bounds`` entry. The others get one block of siblings per
        parent
        (:meth:`_leaf_blocks`, cut at the flush's cut); a walk whose root
        is itself a leaf gets the root's.
        """
        records: List[Any] = [None] * len(indices)
        full = [
            i for i, leaf in enumerate(indices) if len(leaf) == self.num_dims
        ]
        if full:
            order = [
                [dim for dim, _ in self.dims_order].index(dim)
                for dim in self.workload_dims
            ]
            rows = np.array([indices[i] for i in full], np.int64)[:, order]
            block = _LeafBlock(
                rows,
                np.arange(len(rows) + 1),
                np.zeros(len(rows), dtype=np.uint8),
                np.array([bounds[i] for i in full], dtype=float),
            )
            for j, i in enumerate(full):
                records[i] = (block, j)
        siblings: Dict[Optional[tuple], List[int]] = {}
        for i, leaf in enumerate(indices):
            if len(leaf) < self.num_dims:
                siblings.setdefault(leaf[:-1] if leaf else None, []).append(i)
        for parent, members in siblings.items():
            if parent is None:
                blocks = self._leaf_blocks({}, None, [None])
            else:
                blocks = self._leaf_blocks(
                    {self.dims_order[d][0]: k for d, k in enumerate(parent)},
                    self.dims_order[len(parent)][0],
                    [indices[i][-1] for i in members],
                )
            for i, record in zip(members, blocks):
                records[i] = record
        return records

    def _leaf_row(self, assigned: Dict[str, int]) -> np.ndarray:
        """``assigned`` as a menu-index row in workload dim order."""
        return np.array(
            [assigned.get(dim, -1) for dim in self.workload_dims],
            dtype=np.int64,
        )

    def _decide(self, blocks: List[_LeafBlock], cut: float) -> None:
        """Decide fanout and capacity for the cells of ``blocks`` under
        ``cut``, and keep the rows of those the engine will price
        (``cells``). Cells over the cut stay undecided (``fan`` and
        ``priced`` False): no later cut keeps them.

        Consecutive blocks are decided together, one
        :meth:`MapSpace.block_fits` call on their cells' fully pinned
        rows per ``FLUSH_ROWS`` or so cells, so the rows of a flush's
        many small blocks are masked at once and those of many large
        ones are never all built at the same time.
        """
        from repro.model.batch import PRUNE_MARGIN

        def decide(group: List[Tuple[_LeafBlock, np.ndarray]]) -> None:
            parts = [
                block.cell_rows(under, self._menu_lens)
                for block, under in group
            ]
            rows = np.concatenate(parts)
            fan, room = self.mapspace.block_fits(
                rows.T, (len(rows),), self.engine.vectorize
            )
            fits = fan & room
            start = 0
            for (block, under), part in zip(group, parts):
                end = start + len(part)
                block.fan = np.zeros(block.values.size, dtype=bool)
                block.fan[under] = fan[start:end]
                block.priced = np.zeros(block.values.size, dtype=bool)
                block.priced[under] = fits[start:end]
                block.priced_starts = np.concatenate(
                    [[0], np.cumsum(block.priced)]
                )[block.starts]
                block.cells = part[fits[start:end]]
                start = end

        group: List[Tuple[_LeafBlock, np.ndarray]] = []
        cells = 0
        for block in blocks:
            under = (
                np.flatnonzero(block.values * (1.0 - PRUNE_MARGIN) < cut)
                if cut != float("inf")
                else np.arange(block.values.size)
            )
            group.append((block, under))
            cells += under.size
            if cells >= FLUSH_ROWS:
                decide(group)
                group, cells = [], 0
        if group:
            decide(group)

    def _price(self, blocks: List[_LeafBlock]) -> None:
        """Price the decided cells of ``blocks`` in one enumeration pass.

        Their rows go through one :meth:`MapSpace.iter_prefix_batches`
        call, which cuts them into batches, and the engine, from the
        bound engine's tables, with row pruning against the current cut:
        a pruned row's metric is ``inf``, which no later cut can be
        above. The enumeration masks pinned rows itself (its callers may
        pass any), so these rows, which :meth:`_decide` kept, pass that
        mask a second time. The kernel's rows are counted in ``batch``
        here; the cells count as candidates only when their leaf flushes.
        """
        pinned = np.concatenate([block.cells for block in blocks])
        valid = np.zeros(len(pinned), dtype=bool)
        metric = np.full(len(pinned), float("inf"))
        evaluations: Dict[int, Evaluation] = {}
        if len(pinned):
            with obs.trace(
                "search.leaf_price",
                cells=sum(block.index.size for block in blocks),
                rows=len(pinned),
            ):
                for batch in self.mapspace.iter_prefix_batches(
                    pinned,
                    batch_size=batching.DEFAULT_BATCH_SIZE,
                    tags=np.arange(len(pinned)),
                    capacity=self.engine.vectorize,
                ):
                    outcome = self.engine.evaluate_batch(
                        batch,
                        objective=self.objective,
                        incumbent=self._cut,
                        prune=True,
                        tables=self.bound_engine,
                    )
                    self.batch += BatchCounts.of(outcome, batch)
                    valid[batch.tags] = outcome.valid
                    metric[batch.tags] = outcome.metric
                    for i, evaluation in outcome.evaluations.items():
                        evaluations[int(batch.tags[i])] = evaluation
        starts = np.cumsum([0] + [len(block.cells) for block in blocks])
        for block, start, end in zip(blocks, starts, starts[1:]):
            block.valid = valid[start:end]
            block.metric = metric[start:end]
        for i, evaluation in evaluations.items():
            b = int(np.searchsorted(starts, i, side="right")) - 1
            blocks[b].evaluations[i - int(starts[b])] = evaluation

    def flush_leaves(self) -> None:
        """Account every buffered leaf subtree against the current cut.

        At flush time each leaf's stored bound is re-checked against the
        incumbent — which usually improved since the leaf was popped —
        and so is each cell its record kept: complete assignments are
        the tightest bounds the engine can state. Leaves without a
        record get one now (:meth:`_orphan_records`). Every block not
        yet priced has its cells under this flush's cut decided
        (:meth:`_decide`) and priced, all blocks in one :meth:`_price`
        call.

        The rest is bookkeeping against the cut read at the flush's
        start: cut cells go to ``subtrees_pruned``, kept fanout-feasible
        cells are the walk's candidates (``num_evaluated``, checked
        against ``limit``), those the engine priced valid go to
        ``num_valid``, and kept capacity-infeasible ones to
        ``batch.infeasible``. Improvements are offered in candidate
        order, each numbered by its position among the flush's
        candidates.
        """
        from repro.model.batch import PRUNE_MARGIN

        if not self._leaf_buffer:
            return
        self._cut = cut = float(self.incumbent.read())
        finite = cut != float("inf")
        leaves: List[Optional[Tuple[_LeafBlock, int]]] = []
        leaf_cells = 0
        orphans: List[Tuple[int, float, Tuple[int, ...]]] = []
        for leaf_bound, leaf_indices, record in self._leaf_buffer:
            resolved = self.suffix_product[len(leaf_indices)]
            if finite and leaf_bound * (1.0 - PRUNE_MARGIN) >= cut:
                self.subtrees_pruned += 1
                self._cover(resolved)
                continue
            if record is None:
                orphans.append((len(leaves), leaf_bound, leaf_indices))
            leaves.append(record)
            leaf_cells += resolved
        self._leaf_buffer.clear()
        self._leaf_rows = 0
        if orphans:
            positions, bounds, indices = zip(*orphans)
            for position, record in zip(
                positions, self._orphan_records(bounds, indices)
            ):
                leaves[position] = record
        if not leaves:
            return
        pending = list(
            {id(block): block for block, _ in leaves if block.fan is None}
            .values()
        )
        with obs.trace("search.leaf_flush", leaves=len(leaves)):
            if pending:
                self._decide(pending, cut)
            values, fan, priced = (
                np.concatenate(part)
                for part in zip(*(block.kept(j) for block, j in leaves))
            )
            keep = (
                values * (1.0 - PRUNE_MARGIN) < cut
                if finite
                else np.ones(values.size, dtype=bool)
            )
            candidate = keep & fan
            total = int(np.count_nonzero(candidate))
            if (
                total
                and self.limit is not None
                and self.evaluations + total > self.limit
            ):
                raise SearchError(
                    f"branch-and-bound search exceeded limit of "
                    f"{self.limit} priced mappings"
                )
            if pending:
                self._price(pending)
            valid, metric = (
                np.concatenate(part)
                for part in zip(*(block.outcomes(j) for block, j in leaves))
            )
            # Each cut cell is one complete assignment; the kept ones are
            # resolved here too, as candidates or as infeasible.
            self.subtrees_pruned += leaf_cells - int(np.count_nonzero(keep))
            self._cover(leaf_cells)
            at = self.evaluations
            self.evaluations += total
            live = keep[priced]
            self.batch.infeasible += total - int(np.count_nonzero(live))
            live &= valid
            self.num_valid += int(np.count_nonzero(live))
            hits = np.flatnonzero(live & (metric < self._cut))
            if not hits.size:
                return
            # A priced cell's candidate number within the flush, and where
            # its block holds it.
            number = np.cumsum(candidate)[np.flatnonzero(priced)]
            sizes = [
                int(block.priced_starts[j + 1] - block.priced_starts[j])
                for block, j in leaves
            ]
            ends = np.cumsum(sizes)
            for h in hits.tolist():
                leaf = int(np.searchsorted(ends, h, side="right"))
                block, j = leaves[leaf]
                i = int(block.priced_starts[j] - ends[leaf]) + sizes[leaf] + h
                row = block.cells[i].copy()
                self._consider(
                    float(metric[h]),
                    lazy_evaluation(
                        block.evaluations, i, self.evaluator,
                        functools.partial(self.mapspace.menu_mapping, row),
                    ),
                    at + int(number[h]),
                    signature=tuple(row.tolist()),
                )


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
        workers: fan the tree's best-first frontier over a process pool
            when > 1 (see :mod:`repro.search.branch_bound_parallel`); the
            best metric is bit-identical to the serial walk, and it is the
            only reproducible result. What each unit prices depends on when
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
        if walker.best_signature is None:
            return None
        return walker.best_metric

    def run(self) -> SearchResult:
        """Warm-start, walk the tree (or, with ``workers > 1``, fan its
        best-first frontier over a pool) and close the run."""
        mapspace = self.mapspace
        engine, bound_engine, dims_order = tree_engines(
            mapspace, self.evaluator, self.use_batch
        )
        # Total work = the pre-filter menu product: every cell is either
        # priced, pruned, or proved infeasible exactly once, so the
        # walker's covered-cells accounting lands exactly on this number.
        total_cells = math.prod(len(menu) for _, menu in dims_order)
        ledger = RunLedger(
            self.evaluator, "branch-bound", self.objective,
            total_units=total_cells, engine=engine,
        )
        pool: Dict[str, Any] = {}
        with ledger, obs.trace(
            "search.run", driver="branch-bound",
            mode="parallel" if self.workers > 1 else ledger.mode,
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
            if self.workers > 1:
                from repro.search import branch_bound_parallel as parallel

                root_bound = float(bound_engine.bound({}, self.objective))
                units = walker.frontier(
                    parallel.UNITS_PER_WORKER * self.workers
                )
                pool = parallel.walk_units(self, walker, units)
            else:
                root_bound = walker.walk(())
            ledger.close_tree(walker, root_bound, warm_metric)
            result = ledger.result("exhausted")
        result.stats.update(pool)
        return result
