"""Vectorized batch evaluation: the columnar (structure-of-arrays) cost model.

The scalar :class:`~repro.model.evaluator.Evaluator` prices one mapping at a
time through pure-Python recursions; search loops are bounded by interpreter
overhead, not by the math. This module packs N candidate mappings into three
integer tensors and replays the exact same recursions as NumPy kernels over
whole batches:

* ``bounds[n, c, d]`` / ``rems[n, c, d]`` — the Eq. (5) bound and remainder
  of candidate ``n`` at *column* ``c`` for problem dimension ``d``. Columns
  are the fixed loop-block skeleton of the architecture (one temporal block
  per storage level plus one spatial block per mesh axis with fanout), the
  same skeleton :func:`~repro.mapspace.slots.build_slots` derives. An absent
  loop is the identity cell ``(bound=1, remainder=1)``, which every cost
  recursion passes through unchanged — so kernels run over the full fixed
  grid with no per-candidate filtering.
* ``pos[n, c, d]`` — the loop's position in the global nest (``-1`` when
  absent). Only *order* matters: the one order-sensitive quantity in the
  cost model is the innermost-relevant-temporal cutoff, and every predicate
  against it compares positions of loops that are both present, so any
  order-isomorphic numbering works (enumeration uses a virtual grid
  numbering; packed ``Mapping`` objects use their real positions).

Exactness: integers stay integers (int64, with a float-side overflow guard
that routes rows whose intermediates could exceed 2**53 back to the scalar
evaluator), and floats are composed in the same order as the scalar model
(per-level energy accumulation in architecture order, compute energy last),
so energy_pj, cycles, EDP — and utilization — match the scalar evaluator
bit for bit. The parity suite in ``tests/test_batch_eval.py`` asserts this
across presets, workload kinds, and imperfect mappings. Evaluators the
kernels cannot price exactly (NoC or static energy, bandwidth stalls,
2**53 operations or more) and ``use_batch=False`` turn the engine's
row-wise switch off: it then prices every row through the scalar
evaluator, so every search keeps one pricer.

Lower-bound pruning: traffic through every boundary is at least one full
sweep of delivered tiles, and the per-rank delivery sum is multilinear in
the per-dimension tile counts, so its minimum over the feasible box
``t_j in [1, size_j]`` is attained at a box vertex. Minimizing over the
(at most four) vertices per rank yields a compulsory-traffic energy bound
that is a true constant per (architecture, workload); multiplied by the
(cheaply vectorized) exact cycle count it lower-bounds EDP, letting the
engine discard candidates that cannot beat the incumbent *before* the
expensive traffic stage. A relative margin keeps float rounding from ever
pruning a true improvement (see :data:`PRUNE_MARGIN`).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.arch.spec import Architecture
from repro.mapping.loop import Loop
from repro.mapping.nest import LevelNest, Mapping
# The bound engine lives in its own module; callers and the benchmark's
# layer tracer look it up here.
from repro.model.bounds import PartialBoundEngine, _rank_box_min
from repro.model.evaluator import Evaluation, Evaluator
from repro.problem.workload import Workload
from repro.utils.batching import DEFAULT_BATCH_SIZE

import numpy as np

#: Relative safety margin on the lower-bound prune test. A candidate is
#: pruned only when ``lower_bound * (1 - PRUNE_MARGIN) >= incumbent``; the
#: bound is computed with a handful of float roundings (relative error
#: ~1e-15), so the margin guarantees a pruned candidate's true metric is
#: strictly worse than the incumbent — no improvement is ever discarded,
#: and exact ties are left to the (tie-rejecting) search loops.
PRUNE_MARGIN = 1e-9

#: Intermediate integer quantities are kept below 2**53 so that int64
#: arithmetic cannot wrap and int->float conversions stay exact. Rows that
#: could exceed it fall back to the scalar evaluator (exact bigints).
_EXACT_LIMIT = float(2**53)


@dataclass(frozen=True)
class Column:
    """One loop block of the fixed columnar grid.

    Mirrors :class:`~repro.mapspace.slots.Slot` structure (which depends
    only on the architecture — constraints change caps and allowed dims,
    never which blocks exist), plus the hardware fanout limit used by the
    vectorized validity check.
    """

    level_index: int
    level_name: str
    spatial: bool
    axis: int = 0
    fanout_limit: int = 0  # hardware per-axis limit (spatial columns only)


def derive_columns(arch: Architecture) -> List[Column]:
    """Build the columnar grid skeleton for ``arch`` (outer to inner)."""
    columns: List[Column] = []
    for index, level in enumerate(arch.levels):
        columns.append(Column(index, level.name, spatial=False))
        if level.fanout > 1:
            axis_fanouts = [(0, level.fanout_x), (1, level.fanout_y)]
            if level.fanout_x is None:
                axis_fanouts = [(0, level.fanout)]
            for axis, axis_fanout in axis_fanouts:
                if axis_fanout is None or axis_fanout < 2:
                    continue
                columns.append(
                    Column(
                        index,
                        level.name,
                        spatial=True,
                        axis=axis,
                        fanout_limit=axis_fanout,
                    )
                )
    return columns


@dataclass(frozen=True)
class _TensorMeta:
    """Precomputed per-tensor projection structure (dim names -> indices)."""

    name: str
    is_output: bool
    bits_per_element: int
    ranks: Tuple[Tuple[Tuple[int, int], ...], ...]  # ((dim_idx, coef), ...)
    relevant_idx: Tuple[int, ...]  # workload dim order
    irrelevant_idx: Tuple[int, ...]  # workload dim order
    keepers: Tuple[int, ...]
    boundaries: Tuple[Tuple[int, Optional[int]], ...]  # (parent, child)
    partition_words: Tuple[Optional[int], ...]  # per storage level


@dataclass(frozen=True)
class _TensorTraffic:
    """One tensor's boundaries in the traffic stage, in keeper order.

    ``base_const`` / ``base_ranks`` split the tensor's rank delivery sums
    into a constant (a one-term rank with coefficient 1 always sums to
    its dim's size: the delivered tiles partition the dimension) and the
    ranks that need delivered-tile counts ``t_j``. Each of those is
    ``(dims, lead, weights)``: ``_rank_delivery_sum``'s
    ``prod_j t_j + sum_j c_j (s_j - t_j) prod_{i != j} t_i``, regrouped to
    skip its divisions, is ``lead * prod_j t_j + sum_j weights_j *
    prod_{i != j} t_i`` with ``lead = 1 - sum_j c_j`` and
    ``weights_j = c_j * s_j``.
    """

    is_output: bool
    groups: Any  # int64 [boundaries]: each boundary's depth group
    #: int64 [boundaries]: each boundary's lane segment; ``None`` when the
    #: tensor has no irrelevant dim (all four multipliers are 1).
    segments: Optional[Any]
    parents: Any  # int64 [boundaries]
    children: Any  # int64 [boundaries - 1]: the innermost has no child
    base_const: int
    base_ranks: Tuple[Tuple[Tuple[int, ...], int, Tuple[int, ...]], ...]


@dataclass(frozen=True)
class _TrafficPlan:
    """The per-layout structure of the batch traffic stage (see ``_traffic``).

    A boundary's *depth* is the number of grid columns above its child
    level (all of them for a tensor's innermost boundary). Columns are
    level-ordered, so those columns are always the prefix ``[0, depth)``:
    boundaries of equal depth form a *group* that shares one snapshot of
    the delivered-tile counts and of the per-dim qualifying positions.

    Each boundary's projection recursions run as *lanes*, one per
    irrelevant dim; a boundary's lanes are one *segment*. Lanes are laid
    out group by group, deepest first, so the lanes whose group reaches
    column ``c`` are the leading ``active[c]``: one inner-to-outer column
    walk steps every group through its own columns only.
    """

    depths: Tuple[int, ...]  # ascending group depths
    temporal: Any  # int64: temporal columns above the deepest group
    #: Per column above the deepest group: lanes that step it.
    active: Tuple[int, ...]
    lane_dims: Any  # int64 [lanes]: the irrelevant dim of each lane
    lane_segment: Any  # int64 [lanes]: the segment of each lane
    starts: Any  # int64 [segments]: ``multiply.reduceat`` lane offsets
    #: Per spatial column: bool ``[active, 4, 1]`` selection in each
    #: variant (always on the inner side; on the outer side only above
    #: the lane's parent level).
    spatial_select: Dict[int, Any]
    #: Rows of the flattened ``[temporal + 1, dims]`` running maximum of
    #: qualifying positions (row 0 is the all ``-1`` start) whose maximum
    #: is each segment's cutoff: the start row, then the tensor's
    #: relevant dims below the group's temporal prefix.
    cut_rows: Any
    cut_starts: Any  # int64 [segments]: ``maximum.reduceat`` offsets
    tensors: Tuple[_TensorTraffic, ...]


def _build_traffic_plan(layout: "BatchLayout") -> _TrafficPlan:
    """Group ``layout``'s tensor boundaries by depth and lay out lanes."""

    def depth_of(child: Optional[int]) -> int:
        child_level = layout.num_levels if child is None else child
        return sum(1 for level in layout.col_level if level < child_level)

    depths = tuple(
        sorted(
            {
                depth_of(child)
                for meta in layout.tensors
                for _, child in meta.boundaries
            }
        )
    )
    max_depth = depths[-1]
    temporal = [c for c in range(max_depth) if not layout.col_spatial[c]]
    segment_of: Dict[Tuple[int, int], int] = {}
    lane_dims: List[int] = []
    lane_segment: List[int] = []
    lane_parent: List[int] = []
    lane_depth: List[int] = []
    starts: List[int] = []
    cut_rows: List[int] = []
    cut_starts: List[int] = []
    for depth in reversed(depths):
        qual_row = sum(1 for c in temporal if c < depth)
        for t, meta in enumerate(layout.tensors):
            if not meta.irrelevant_idx:
                continue
            for j, (parent, child) in enumerate(meta.boundaries):
                if depth_of(child) != depth:
                    continue
                segment_of[(t, j)] = len(starts)
                starts.append(len(lane_dims))
                cut_starts.append(len(cut_rows))
                cut_rows.append(0)
                cut_rows.extend(
                    qual_row * layout.num_dims + d for d in meta.relevant_idx
                )
                for d in meta.irrelevant_idx:
                    lane_dims.append(d)
                    lane_segment.append(segment_of[(t, j)])
                    lane_parent.append(parent)
                    lane_depth.append(depth)
    active = tuple(
        sum(1 for depth in lane_depth if depth > c) for c in range(max_depth)
    )
    spatial_select: Dict[int, Any] = {}
    for c in range(max_depth):
        if not layout.col_spatial[c]:
            continue
        spatial_select[c] = np.array(
            [
                [True, layout.col_level[c] < parent, True, layout.col_level[c] < parent]
                for parent in lane_parent[: active[c]]
            ],
            dtype=bool,
        ).reshape(active[c], 4, 1)
    tensors: List[_TensorTraffic] = []
    for t, meta in enumerate(layout.tensors):
        const = 1
        ranks = []
        for rank in meta.ranks:
            if len(rank) == 1 and rank[0][1] == 1:
                const *= int(layout.sizes[rank[0][0]])
            else:
                ranks.append(
                    (
                        tuple(d for d, _ in rank),
                        1 - sum(coef for _, coef in rank),
                        tuple(coef * int(layout.sizes[d]) for d, coef in rank),
                    )
                )
        boundaries = range(len(meta.boundaries))
        tensors.append(
            _TensorTraffic(
                is_output=meta.is_output,
                groups=np.array(
                    [depths.index(depth_of(child)) for _, child in meta.boundaries],
                    dtype=np.int64,
                ),
                segments=(
                    np.array([segment_of[(t, j)] for j in boundaries], dtype=np.int64)
                    if meta.irrelevant_idx
                    else None
                ),
                parents=np.array(
                    [parent for parent, _ in meta.boundaries], dtype=np.int64
                ),
                children=np.array(
                    [child for _, child in meta.boundaries[:-1]], dtype=np.int64
                ),
                base_const=const,
                base_ranks=tuple(ranks),
            )
        )
    return _TrafficPlan(
        depths=depths,
        temporal=np.array(temporal, dtype=np.int64),
        active=active,
        lane_dims=np.array(lane_dims, dtype=np.int64),
        lane_segment=np.array(lane_segment, dtype=np.int64),
        starts=np.array(starts, dtype=np.int64),
        spatial_select=spatial_select,
        cut_rows=np.array(cut_rows, dtype=np.int64),
        cut_starts=np.array(cut_starts, dtype=np.int64),
        tensors=tuple(tensors),
    )


class BatchLayout:
    """The fixed columnar structure of one (architecture, workload) pair.

    Holds everything that depends only on the specs — the column grid, the
    virtual position numbering used by enumeration, per-tensor projection
    metadata, and the per-level capacity/fanout limits. Energy coefficients
    live in :class:`BatchEvaluator` (they come from the evaluator's table).

    Args:
        arch: target architecture.
        workload: the tensor operation.
        permutation_priority: optional ``{level_name: fixed_dim_order}``
            matching the mapspace's constraint permutations, so the virtual
            grid numbering is order-isomorphic to the real nest positions
            that :meth:`~repro.mapspace.generator.MapSpace.assemble`
            produces with ``rng=None``. Irrelevant for packed ``Mapping``
            objects, which carry their real positions.
    """

    def __init__(
        self,
        arch: Architecture,
        workload: Workload,
        permutation_priority: Optional[Dict[str, Optional[Tuple[str, ...]]]] = None,
    ) -> None:
        self.arch = arch
        self.workload = workload
        self.columns = derive_columns(arch)
        self.num_columns = len(self.columns)
        self.level_names: Tuple[str, ...] = tuple(l.name for l in arch.levels)
        self.num_levels = len(arch.levels)
        self.dims: Tuple[str, ...] = workload.dim_names
        self.dim_index: Dict[str, int] = {d: i for i, d in enumerate(self.dims)}
        self.num_dims = len(self.dims)
        self.sizes = np.array(
            [workload.size(d) for d in self.dims], dtype=np.int64
        )
        self.col_level: Tuple[int, ...] = tuple(
            c.level_index for c in self.columns
        )
        self.col_spatial: Tuple[bool, ...] = tuple(c.spatial for c in self.columns)
        self.col_axis: Tuple[int, ...] = tuple(c.axis for c in self.columns)
        self._col_lookup: Dict[Tuple[int, bool, int], int] = {}
        for offset, column in enumerate(self.columns):
            key = (column.level_index, column.spatial, column.axis)
            self._col_lookup[key] = offset
        self._build_grid(permutation_priority or {})
        self._build_tensor_meta()
        self._build_limits()
        self.traffic_plan = (
            _build_traffic_plan(self) if self.paths_supported else None
        )

    # -- construction ---------------------------------------------------

    def _build_grid(self, priorities: Dict[str, Optional[Tuple[str, ...]]]) -> None:
        """Number the grid cells in virtual nest order (see module doc)."""
        order: List[Tuple[int, int]] = []
        self.grid_cells_by_level: List[List[Tuple[int, int]]] = []
        for level_index, level_name in enumerate(self.level_names):
            cells: List[Tuple[int, int]] = []
            fixed = priorities.get(level_name)
            if fixed:
                priority = {dim: i for i, dim in enumerate(fixed)}
                dim_order = sorted(
                    range(self.num_dims),
                    key=lambda d: (
                        priority.get(self.dims[d], len(priority)),
                        d,
                    ),
                )
            else:
                dim_order = list(range(self.num_dims))
            for offset, column in enumerate(self.columns):
                if column.level_index != level_index or column.spatial:
                    continue
                cells.extend((offset, d) for d in dim_order)
            for offset, column in enumerate(self.columns):
                if column.level_index != level_index or not column.spatial:
                    continue
                cells.extend((offset, d) for d in range(self.num_dims))
            self.grid_cells_by_level.append(cells)
            order.extend(cells)
        self.grid_pos = np.full(
            (self.num_columns, self.num_dims), -1, dtype=np.int64
        )
        for position, (offset, d) in enumerate(order):
            self.grid_pos[offset, d] = position

    def _build_tensor_meta(self) -> None:
        self.tensors: List[_TensorMeta] = []
        self.paths_supported = True
        self.paths_reason = ""
        for tensor in self.workload.tensors:
            relevant = tensor.relevant_dims
            rel_idx = tuple(
                i for i, d in enumerate(self.dims) if d in relevant
            )
            irr_idx = tuple(
                i for i, d in enumerate(self.dims) if d not in relevant
            )
            ranks = tuple(
                tuple((self.dim_index[term.dim], term.coefficient) for term in rank)
                for rank in tensor.ranks
            )
            keepers = tuple(
                i
                for i, level in enumerate(self.arch.levels)
                if level.keeps_tensor(tensor.name)
            )
            if not keepers or keepers[0] != 0:
                # The scalar model raises SpecError on these architectures.
                # The engine turns its kernels off so its rows raise it too,
                # and PartialBoundEngine refuses the layout.
                self.paths_supported = False
                self.paths_reason = (
                    f"tensor {tensor.name} must be kept at the outermost "
                    f"level of {self.arch.name}"
                )
            boundaries: List[Tuple[int, Optional[int]]] = [
                (parent, child) for parent, child in zip(keepers, keepers[1:])
            ]
            if keepers:
                boundaries.append((keepers[-1], None))
            partition = tuple(
                level.tensor_capacity(tensor.name) for level in self.arch.levels
            )
            self.tensors.append(
                _TensorMeta(
                    name=tensor.name,
                    is_output=tensor.is_output,
                    bits_per_element=tensor.bits_per_element,
                    ranks=ranks,
                    relevant_idx=rel_idx,
                    irrelevant_idx=irr_idx,
                    keepers=keepers,
                    boundaries=tuple(boundaries),
                    partition_words=partition,
                )
            )

    def _build_limits(self) -> None:
        # Spatial-dataflow restrictions: per spatial column, the dims that
        # may NOT take a nontrivial bound there (None = unrestricted).
        self.spatial_disallowed: List[Optional[Any]] = []
        for column in self.columns:
            if not column.spatial:
                self.spatial_disallowed.append(None)
                continue
            allowed = self.arch.levels[column.level_index].spatial_dims
            if allowed is None:
                self.spatial_disallowed.append(None)
            else:
                mask = np.array(
                    [d not in allowed for d in self.dims], dtype=bool
                )
                self.spatial_disallowed.append(mask if mask.any() else None)
        # Capacity checks: per bounded level, which tensors are kept there.
        self.capacity_levels: List[Tuple[int, Any]] = []
        for level_index, level in enumerate(self.arch.levels):
            if level.total_capacity_words is None:
                continue
            kept = tuple(
                t
                for t, tensor in enumerate(self.workload.tensors)
                if level.keeps_tensor(tensor.name)
            )
            suffix_cols = tuple(
                c
                for c in range(self.num_columns)
                if self.col_level[c] >= level_index
            )
            self.capacity_levels.append(
                (
                    level_index,
                    {
                        "kept": kept,
                        "cols": suffix_cols,
                        "word_bits": level.word_bits,
                        "shared_capacity": (
                            level.capacity_words
                            if not level.is_partitioned
                            else None
                        ),
                    },
                )
            )

    def capacity_extents(self, bounds: Any) -> List[Any]:
        """Per-dim tile extent each bounded level holds, for packed rows.

        One ``(num_dims, n)`` int64 array per entry of
        :attr:`capacity_levels` (row ``d`` is dim ``d``'s extents): the
        product of every bound at that level and inside it. This is the
        largest tile the level must hold.
        """
        extents = []
        for _, info in self.capacity_levels:
            ext = np.ones((bounds.shape[0], self.num_dims), dtype=np.int64)
            for c in info["cols"]:
                ext *= bounds[:, c, :]
            extents.append(ext.T)
        return extents

    def fits_capacity(self, extents: Sequence[Any], n: Any) -> Any:
        """Which rows fit every bounded level (``check_mapping``'s
        capacity rule) given their tile extents.

        ``extents`` has one entry per :attr:`capacity_levels` level,
        indexed by dim: dim ``d``'s int64 extents there, as
        :meth:`capacity_extents` gives them, or one int64 scalar that
        every row shares. ``n`` is the row count, or the shape the
        extents broadcast to. The batch kernel's validity stage passes
        ``(n,)`` extents folded from packed rows; enumeration passes
        extents gathered from per-chain tables, a head x tail block's as
        ``(B, 1)`` and ``(1, T)`` arrays, so it can drop rows that cannot
        fit before packing them. Both fold them through each kept
        tensor's rank footprints in the same int64 arithmetic; a term
        stays as small as its operands until it meets the other side.
        """
        valid = np.ones(n, dtype=bool)
        for (level_index, info), ext in zip(self.capacity_levels, extents):
            shared = 0
            for t in info["kept"]:
                meta = self.tensors[t]
                footprint = 1
                for rank in meta.ranks:
                    if len(rank) == 1 and rank[0][1] == 1:
                        # A one-dim rank's footprint is its extent.
                        footprint = footprint * ext[rank[0][0]]
                        continue
                    # 1 + sum(coef * (extent - 1)), constant part first.
                    span = 1 - sum(coef for _, coef in rank)
                    for d, coef in rank:
                        span = span + (ext[d] if coef == 1 else coef * ext[d])
                    footprint = footprint * span
                words = np.maximum(
                    footprint * meta.bits_per_element // info["word_bits"], 1
                )
                partition = meta.partition_words[level_index]
                if partition is not None:
                    valid &= words <= partition
                else:
                    shared = shared + words
            if info["shared_capacity"] is not None:
                valid &= shared <= info["shared_capacity"]
        return valid

    # -- packing and materialization ------------------------------------

    def column_for(
        self, level_index: int, spatial: bool, axis: int
    ) -> Optional[int]:
        """Grid column holding a loop at ``(level, block, axis)``, if any."""
        return self._col_lookup.get((level_index, spatial, axis if spatial else 0))

    def materialize(self, bounds_row: Any, rems_row: Any, pos_row: Any) -> Mapping:
        """Rebuild the :class:`Mapping` a packed row encodes.

        Each level's loops are emitted in ``pos`` order, so a row keeps its
        own loop order whichever numbering it carries: real nest positions
        (packed or sampled ``Mapping`` rows) or the virtual grid numbering
        of enumerated rows, whose order equals what
        :meth:`~repro.mapspace.generator.MapSpace.assemble` produces with
        ``rng=None``.
        """
        bounds, rems, pos = bounds_row.tolist(), rems_row.tolist(), pos_row.tolist()
        nests: List[LevelNest] = []
        for level_index, level_name in enumerate(self.level_names):
            placed = sorted(
                (pos[offset][d], offset, d)
                for offset, d in self.grid_cells_by_level[level_index]
                if bounds[offset][d] != 1 or rems[offset][d] != 1
            )
            temporal: List[Loop] = []
            spatial: List[Loop] = []
            for _, offset, d in placed:
                column = self.columns[offset]
                loop = Loop(
                    self.dims[d],
                    bounds[offset][d],
                    rems[offset][d],
                    spatial=column.spatial,
                    axis=column.axis,
                )
                (spatial if column.spatial else temporal).append(loop)
            nests.append(
                LevelNest(
                    level_name=level_name,
                    temporal=tuple(temporal),
                    spatial=tuple(spatial),
                )
            )
        return Mapping(levels=tuple(nests))


class MappingBatch:
    """N candidate mappings in structure-of-arrays form.

    ``bounds``/``rems``/``pos`` are int64 arrays of shape
    ``[n, num_columns, num_dims]``; absent loops hold the identity cell
    ``(1, 1, -1)``. ``fallback`` flags rows the columnar grid cannot
    represent (bypass sets, misaligned levels, duplicate cells); those are
    priced by the scalar evaluator instead. ``mappings`` holds the rows
    kept as ``Mapping`` objects by row index: every row of a
    :func:`pack_mappings` batch, the bypass rows of a sampled one.

    Enumerated batches may instead carry their rows as ``menu_rows``, an
    ``(n, num_dims)`` int64 array of indices into ``menu_tables`` (per
    dim, each chain's ``(2, num_columns)`` bounds and remainders). Such
    a batch holds only candidates that passed the enumeration's fanout
    and capacity masks, and packs ``bounds`` and ``rems`` on first read:
    a batch priced from per-chain tables
    (:meth:`BatchEvaluator.evaluate_batch` with ``tables``) never packs.
    """

    def __init__(
        self,
        layout: BatchLayout,
        bounds: Any = None,
        rems: Any = None,
        pos: Any = None,
        fallback: Any = None,
        mappings: Optional[Dict[int, Mapping]] = None,
        tags: Any = None,
        span: Optional[int] = None,
        ordinals: Any = None,
        menu_rows: Any = None,
        menu_tables: Optional[Sequence[Any]] = None,
    ) -> None:
        self.layout = layout
        self._bounds = bounds
        self._rems = rems
        self.pos = pos
        self.fallback = fallback
        self.mappings = mappings
        #: Optional per-row provenance stamped by
        #: :meth:`MapSpace.iter_prefix_batches` (the source prefix's tag);
        #: pricing kernels ignore it.
        self.tags = tags
        #: Enumerated batches only: how many enumerated candidates the
        #: batch resolves (its rows plus the capacity-infeasible
        #: candidates the enumeration dropped before them), and each
        #: row's 0-based position among them. ``None`` on sampled and
        #: packed batches, whose rows are their candidates.
        self.span = span
        self.ordinals = ordinals
        self.menu_rows = menu_rows
        self.menu_tables = menu_tables

    @property
    def bounds(self) -> Any:
        if self._bounds is None:
            self._pack()
        return self._bounds

    @property
    def rems(self) -> Any:
        if self._rems is None:
            self._pack()
        return self._rems

    def _pack(self) -> None:
        self._bounds, self._rems = pack_menu_rows(
            self.layout, self.menu_tables, self.menu_rows
        )

    @property
    def size(self) -> int:
        if self.menu_rows is not None:
            return len(self.menu_rows)
        return int(self._bounds.shape[0])

    @property
    def candidates(self) -> int:
        """Candidates this batch resolves: :attr:`span`, else its rows."""
        return self.size if self.span is None else self.span

    def ordinal(self, index: int) -> int:
        """Row ``index``'s 0-based position among :attr:`candidates`."""
        return index if self.ordinals is None else int(self.ordinals[index])

    def mapping_at(self, index: int) -> Mapping:
        """The ``Mapping`` object of row ``index`` (rebuilt if not stored).

        An unpacked enumerated row is gathered from the menu tables
        alone, so materializing one row never packs the batch.
        """
        if self.mappings is not None and index in self.mappings:
            return self.mappings[index]
        if self._bounds is None:
            chains = zip(self.menu_tables, self.menu_rows[index])
            cells = np.stack([table[k] for table, k in chains], axis=-1)
            return self.layout.materialize(cells[0], cells[1], self.pos[index])
        return self.layout.materialize(
            self._bounds[index], self._rems[index], self.pos[index]
        )


def pack_menu_rows(
    layout: BatchLayout, tables: Sequence[Any], rows: Any
) -> Tuple[Any, Any]:
    """``(bounds, rems)`` of menu-index rows: per dim, each row's chain
    gathered from ``tables`` (see :class:`MappingBatch`)."""
    shape = (len(rows), layout.num_columns, layout.num_dims)
    bounds = np.empty(shape, dtype=np.int64)
    rems = np.empty(shape, dtype=np.int64)
    for d, table in enumerate(tables):
        cells = table[rows[:, d]]
        bounds[:, :, d] = cells[:, 0]
        rems[:, :, d] = cells[:, 1]
    return bounds, rems


def pack_mappings(layout: BatchLayout, mappings: Sequence[Mapping]) -> MappingBatch:
    """Pack ``Mapping`` objects into columnar form (real nest positions).

    Rows the grid cannot represent are flagged ``fallback`` rather than
    rejected, so callers get uniform batch semantics with scalar-exact
    results for the exotic cases.
    """
    n = len(mappings)
    shape = (n, layout.num_columns, layout.num_dims)
    bounds = np.ones(shape, dtype=np.int64)
    rems = np.ones(shape, dtype=np.int64)
    pos = np.full(shape, -1, dtype=np.int64)
    fallback = np.zeros(n, dtype=bool)
    for i, mapping in enumerate(mappings):
        if mapping.bypass:
            fallback[i] = True
            continue
        if tuple(nest.level_name for nest in mapping.levels) != layout.level_names:
            fallback[i] = True
            continue
        for placed in mapping.placed_loops():
            loop = placed.loop
            d = layout.dim_index.get(loop.dim)
            if d is None:
                # Unknown dim: the scalar validity check reports it even
                # for trivial loops, so the row must go scalar.
                fallback[i] = True
                break
            if loop.bound == 1:
                continue  # identity cell; nontrivial_loops drops it too
            c = layout.column_for(placed.level_index, loop.spatial, loop.axis)
            if c is None or pos[i, c, d] != -1:
                fallback[i] = True
                break
            bounds[i, c, d] = loop.bound
            rems[i, c, d] = loop.remainder
            pos[i, c, d] = placed.position
    return MappingBatch(
        layout=layout,
        bounds=bounds,
        rems=rems,
        pos=pos,
        fallback=fallback,
        mappings=dict(enumerate(mappings)),
    )


@dataclass
class BatchOutcome:
    """Vectorized results for one :class:`MappingBatch`.

    Arrays are indexed by batch row. ``metric`` holds ``inf`` at invalid
    and pruned rows; ``energy_pj``/``cycles``/``utilization`` are only
    meaningful where ``valid & ~pruned``. ``evaluations`` maps the rows
    that got a full scalar :class:`Evaluation` anyway (fallback rows, and
    every row priced with the row-wise switch off) to it; any other row a
    caller keeps is re-priced through :meth:`Evaluator.evaluate_fresh`.
    """

    valid: Any
    pruned: Any
    fallback: Any
    metric: Any
    energy_pj: Any
    cycles: Any
    utilization: Any
    evaluations: Dict[int, Evaluation] = field(default_factory=dict)

    @classmethod
    def blank(cls, n: int) -> "BatchOutcome":
        """``n`` rows awaiting results: invalid, unpruned, infinite metric.

        ``cycles`` is an object array so a scalar evaluation's exact
        integer cycle count fits whatever its size.
        """
        return cls(
            valid=np.zeros(n, dtype=bool),
            pruned=np.zeros(n, dtype=bool),
            fallback=np.zeros(n, dtype=bool),
            metric=np.full(n, float("inf")),
            energy_pj=np.full(n, float("nan")),
            cycles=np.zeros(n, dtype=object),
            utilization=np.full(n, float("nan")),
        )

    def put(self, row: int, evaluation: Evaluation, objective: str) -> None:
        """Fill ``row`` from a full scalar evaluation (kept in ``evaluations``)."""
        self.evaluations[row] = evaluation
        self.valid[row] = evaluation.valid
        self.pruned[row] = False
        if evaluation.valid:
            self.metric[row] = evaluation.metric(objective)
            self.energy_pj[row] = evaluation.energy_pj
            self.cycles[row] = evaluation.cycles
            self.utilization[row] = evaluation.utilization
        else:
            self.metric[row] = float("inf")


class BatchEvaluator:
    """Price whole batches of mappings: the one pricer every search uses.

    Wraps a scalar :class:`Evaluator` (whose energy table and fallback
    path it reuses). With :attr:`vectorize` on, rows go through the NumPy
    kernels, bit-exact with the scalar evaluator on ``energy_pj``,
    ``cycles``, EDP, and ``utilization``, and never look up the
    evaluator's cache: a lookup costs a ``Mapping`` and its
    ``signature()`` per row, far more than the kernel row it could skip.
    Rows the kernels cannot represent (bypass sets, overflow-guarded rows)
    still go through the scalar evaluator one by one, and are stored in
    the cache. With the switch off, every row is one
    :meth:`Evaluator.evaluate` call (lookup included), in row order. The
    switch is off when the caller asks for it (``vectorize=False``, from
    ``use_batch=False``) and when the kernels cannot price the evaluator
    exactly: NoC or static energy, a level with a bandwidth limit, a
    workload of 2**53 or more operations, or a tensor without an
    outermost keeper level.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        layout: Optional[BatchLayout] = None,
        vectorize: bool = True,
    ) -> None:
        self.evaluator = evaluator
        self.layout = layout or BatchLayout(evaluator.arch, evaluator.workload)
        #: The row-wise switch: kernels (True) or one scalar
        #: ``evaluate`` per row (False).
        self.vectorize = (
            vectorize
            and self.layout.paths_supported
            and self._kernel_exact(evaluator)
        )
        self._precompute()

    @staticmethod
    def _kernel_exact(evaluator: Evaluator) -> bool:
        """True when the kernels price ``evaluator``'s model exactly."""
        return not (
            evaluator.include_noc
            or evaluator.include_static
            or any(
                level.bandwidth_words_per_cycle is not None
                for level in evaluator.arch.levels
            )
            or evaluator.workload.total_operations >= _EXACT_LIMIT
        )

    def _precompute(self) -> None:
        layout = self.layout
        table = self.evaluator.energy_table
        self.read_pj: List[float] = []
        self.write_pj: List[float] = []
        for level in layout.arch.levels:
            self.read_pj.append(table.read_pj(level.name))
            self.write_pj.append(table.write_pj(level.name))
        # Matches the scalar energy model: compute energy is one exact
        # int * float product added after the per-level accumulation.
        self.compute_energy = layout.workload.total_operations * table.mac_pj
        self.units_opc = (
            layout.arch.total_compute_units * layout.arch.compute.ops_per_cycle
        )
        self.ops_f = float(layout.workload.total_operations)
        sizes = {d: int(s) for d, s in zip(layout.dims, layout.sizes)}
        self._build_lower_bound(sizes)
        self._build_overflow_guard()

    def _build_lower_bound(self, sizes: Dict[str, int]) -> None:
        """Compulsory-energy constant: see the module docstring derivation."""
        layout = self.layout
        lower = 0.0
        for meta in layout.tensors:
            base_lb = 1
            for rank in meta.ranks:
                base_lb *= _rank_box_min(
                    rank, layout, [(1, int(layout.sizes[d])) for d, _ in rank]
                )
            for parent, child in meta.boundaries:
                if not meta.is_output:
                    lower += self.read_pj[parent] * base_lb
                    if child is not None:
                        lower += self.write_pj[child] * base_lb
                else:
                    lower += self.write_pj[parent] * base_lb
                    if child is not None:
                        lower += self.read_pj[child] * base_lb
        self.lb_energy = lower + self.compute_energy

    def _build_overflow_guard(self) -> None:
        """Per-tensor bound factors: traffic <= C_t * prod_d BD_d**e_td.

        ``BD_d`` is the product of all of dim ``d``'s bounds; relevant dims
        contribute once per rank they appear in (the delivery-sum bound),
        irrelevant dims once (the projection-count bound); ``C_t`` collects
        the ``1 + sum(coef)`` slack per rank. Rows where any factor — or
        the iteration-space product times the compute capacity — reaches
        2**53 fall back to the exact scalar path.
        """
        layout = self.layout
        self._guard_tensors: List[Tuple[float, Any]] = []
        for meta in layout.tensors:
            c_const = 1.0
            exponents = np.ones(layout.num_dims, dtype=np.float64)
            for d in meta.relevant_idx:
                exponents[d] = 0.0
            for rank in meta.ranks:
                c_const *= 1.0 + sum(coef for _, coef in rank)
                for d, _ in rank:
                    exponents[d] += 1.0
            self._guard_tensors.append((c_const, exponents))

    # -- public API ------------------------------------------------------

    def evaluate_batch(
        self,
        batch: MappingBatch,
        objective: str = "edp",
        incumbent: float = float("inf"),
        prune: bool = False,
        tables: Optional["PartialBoundEngine"] = None,
    ) -> BatchOutcome:
        """Price one batch; optionally prune against ``incumbent``.

        An enumerated batch that still holds its rows as menu indices is
        priced from ``tables``, a :class:`PartialBoundEngine` built on
        the same menus, when given: every cost term is gathered per
        chain (:meth:`PartialBoundEngine.row_overflow` through
        :meth:`PartialBoundEngine.row_traffic`), so the batch is never
        packed. Any other batch, and every batch without ``tables``, is
        priced by the column walk over its packed rows. Both give
        bit-identical outcomes (the ``leaf-exactness`` invariant).

        With :attr:`vectorize` off, every row is one
        :meth:`Evaluator.evaluate` call on ``mapping_at(i)``, in row order
        (so an attached cache is looked up and filled exactly as a
        per-candidate loop would), and nothing is pruned. An empty batch
        (an enumerated span whose candidates all failed capacity) prices
        nothing.
        """
        if not self.vectorize or not batch.size:
            outcome = BatchOutcome.blank(batch.size)
            for i in range(batch.size):
                outcome.put(
                    i, self.evaluator.evaluate(batch.mapping_at(i)), objective
                )
            return outcome
        n = batch.size
        if tables is not None and batch.menu_rows is not None:
            rows = batch.menu_rows
            fallback = batch.fallback | tables.row_overflow(rows)
            with obs.trace("batch.validity", rows=n):
                valid = tables.row_valid(rows)
            with obs.trace("batch.cycles", rows=n):
                cycles = tables.row_cycles(rows)
            traffic = functools.partial(tables.row_traffic, rows)
        else:
            bounds, rems, pos = batch.bounds, batch.rems, batch.pos
            fallback = batch.fallback | self._overflow_rows(bounds)
            with obs.trace("batch.validity", rows=n):
                valid = self._validity(bounds, rems)
            with obs.trace("batch.cycles", rows=n):
                cycles = self._cycles(bounds, rems)
            traffic = functools.partial(self._traffic, bounds, rems, pos)
        cycles_f = cycles.astype(np.float64)
        pruned = np.zeros(n, dtype=bool)
        if prune and incumbent != float("inf"):
            if objective == "edp":
                bound_metric = self.lb_energy * cycles_f
            elif objective == "energy":
                bound_metric = np.full(n, self.lb_energy)
            else:
                bound_metric = cycles_f
            pruned = (
                valid
                & ~fallback
                & (bound_metric * (1.0 - PRUNE_MARGIN) >= incumbent)
            )
        metric = np.full(n, float("inf"))
        energy = np.full(n, float("nan"))
        utilization = np.full(n, float("nan"))
        live = np.flatnonzero(valid & ~fallback & ~pruned)
        if live.size:
            with obs.trace("batch.traffic", rows=live.size):
                reads, writes = traffic(live)
                live_energy = self._energy(reads, writes)
            energy[live] = live_energy
            capacity = (cycles[live] * self.units_opc).astype(np.float64)
            utilization[live] = self.ops_f / capacity
            if objective == "edp":
                metric[live] = live_energy * cycles_f[live]
            elif objective == "energy":
                metric[live] = live_energy
            else:
                metric[live] = cycles_f[live]
        outcome = BatchOutcome(
            valid=valid,
            pruned=pruned,
            fallback=fallback,
            metric=metric,
            energy_pj=energy,
            cycles=cycles,
            utilization=utilization,
        )
        for i in np.flatnonzero(fallback):
            i = int(i)
            outcome.put(
                i, self.evaluator.evaluate_fresh(batch.mapping_at(i)), objective
            )
        return outcome

    def evaluate_mappings(
        self,
        mappings: Sequence[Mapping],
        objective: str = "edp",
        incumbent: float = float("inf"),
        prune: bool = False,
    ) -> BatchOutcome:
        """Price a list of ``Mapping`` objects: :meth:`evaluate_batch` of
        their :func:`pack_mappings` batch (row ``i`` is ``mappings[i]``)."""
        return self.evaluate_batch(
            pack_mappings(self.layout, mappings),
            objective=objective,
            incumbent=incumbent,
            prune=prune,
        )

    # -- vectorized kernels ----------------------------------------------

    def _overflow_rows(self, bounds: Any) -> Any:
        layout = self.layout
        bd = np.ones((bounds.shape[0], layout.num_dims), dtype=np.float64)
        bounds_f = bounds.astype(np.float64)
        for c in range(layout.num_columns):
            bd *= bounds_f[:, c, :]
        return self._overflow_of(bd)

    def _overflow_of(self, bd: Any) -> Any:
        """The guard on ``bd``, each row's per-dim float bound products
        (``BD_d``, multiplied in column order)."""
        over = bd.prod(axis=1) * self.units_opc >= _EXACT_LIMIT
        for c_const, exponents in self._guard_tensors:
            over |= c_const * (bd**exponents).prod(axis=1) >= _EXACT_LIMIT
        return over

    def _validity(self, bounds: Any, rems: Any) -> Any:
        """Replay ``check_mapping`` as boolean masks (structure is packed)."""
        layout = self.layout
        n = bounds.shape[0]
        # Coverage: the full per-dim Eq. (5) chain must equal the dim size.
        cov = np.zeros((n, layout.num_dims), dtype=np.int64)
        for c in range(layout.num_columns):
            cov = cov * bounds[:, c, :] + rems[:, c, :] - 1
        valid = ((cov + 1) == layout.sizes[None, :]).all(axis=1)
        # Fanout and dataflow restrictions per spatial column.
        for c, column in enumerate(layout.columns):
            if not column.spatial:
                continue
            allocation = bounds[:, c, :].prod(axis=1)
            valid &= allocation <= column.fanout_limit
            disallowed = layout.spatial_disallowed[c]
            if disallowed is not None:
                valid &= ~(bounds[:, c, disallowed] > 1).any(axis=1)
        # Capacity: the largest tile held at each bounded level must fit.
        return valid & layout.fits_capacity(layout.capacity_extents(bounds), n)

    def _cycles(self, bounds: Any, rems: Any) -> Any:
        """Per-dim shadowed temporal-step recursion, product over dims."""
        layout = self.layout
        n = bounds.shape[0]
        steps = np.zeros((n, layout.num_dims), dtype=np.int64)
        shadowed = np.zeros((n, layout.num_dims), dtype=bool)
        for c in range(layout.num_columns):
            if layout.col_spatial[c]:
                shadowed |= rems[:, c, :] >= 2
            else:
                effective = np.where(shadowed, bounds[:, c, :], rems[:, c, :])
                steps = steps * bounds[:, c, :] + effective - 1
        return (steps + 1).prod(axis=1)

    def _traffic(
        self, bounds: Any, rems: Any, pos: Any, live: Any
    ) -> Tuple[Any, Any]:
        """Exact per-level reads/writes for the surviving rows.

        A vectorization of ``compute_access_counts`` over the layout's
        :class:`_TrafficPlan`, with rows innermost: the live rows are
        gathered once as ``[columns, dims, rows]``.

        1. One outer-to-inner pass over the columns folds the
           delivered-tile counts and snapshots them at every group depth.
        2. :meth:`_lane_multipliers` gives every boundary's four
           ``_projection_count`` multipliers from one column walk.
        3. Per tensor, the rank delivery sums times the multipliers
           accumulate into its levels' reads and writes, in exact int64.

        Returns ``(reads, writes)``, int64 ``[levels, rows]``.
        """
        if live.size > DEFAULT_BATCH_SIZE:
            # Price batch-sized blocks: the stage's temporaries are as wide
            # as its rows, and one batch's worth stays warm in the heap.
            blocks = [
                self._traffic(bounds, rems, pos, live[s:s + DEFAULT_BATCH_SIZE])
                for s in range(0, live.size, DEFAULT_BATCH_SIZE)
            ]
            return tuple(
                np.concatenate([block[i] for block in blocks], axis=1)
                for i in (0, 1)
            )
        layout = self.layout
        plan = layout.traffic_plan
        m = live.size
        b = np.take(bounds.transpose(1, 2, 0), live, axis=2)
        r = np.take(rems.transpose(1, 2, 0), live, axis=2)
        if pos.strides[0] == 0:
            # Enumerated rows share one (broadcast) numbering.
            p = pos[0][:, :, None]
        else:
            p = np.take(pos.transpose(1, 2, 0), live, axis=2)
        surplus = b - r
        # 1. Delivered tiles, (t - 1) * P + R per column, per group depth.
        delivered = np.empty(
            (len(plan.depths), layout.num_dims, m), dtype=np.int64
        )
        tiles = np.ones((layout.num_dims, m), dtype=np.int64)
        c = 0
        for g, depth in enumerate(plan.depths):
            while c < depth:
                tiles = tiles * b[c] - surplus[c]
                c += 1
            delivered[g] = tiles
        # 2. Projection multipliers of the boundaries with irrelevant dims.
        multipliers = (
            self._lane_multipliers(b, r, p, surplus) if plan.lane_dims.size else None
        )
        # 3. Accumulation.
        reads = np.zeros((layout.num_levels, m), dtype=np.int64)
        writes = np.zeros((layout.num_levels, m), dtype=np.int64)
        for tensor in plan.tensors:
            base = np.full(
                (tensor.parents.size, m), tensor.base_const, dtype=np.int64
            )
            if tensor.base_ranks:
                tensor_tiles = delivered[tensor.groups]
            for dims, lead, weights in tensor.base_ranks:
                counts = [tensor_tiles[:, d] for d in dims]
                total = lead * functools.reduce(operator.mul, counts)
                for j, weight in enumerate(weights):
                    rest = counts[:j] + counts[j + 1:]
                    total += weight * (
                        functools.reduce(operator.mul, rest) if rest else 1
                    )
                base *= total
            if tensor.segments is None:
                inner = outer = inner_sp = outer_sp = base
            else:
                terms = base[:, None, :] * multipliers[tensor.segments]
                inner, outer, inner_sp, outer_sp = terms.transpose(1, 0, 2)
            # The innermost boundary has no child.
            inner, inner_sp = inner[:-1], inner_sp[:-1]
            if not tensor.is_output:
                reads[tensor.parents] += outer
                writes[tensor.children] += inner
            else:
                writes[tensor.parents] += outer
                reads[tensor.parents] += outer - outer_sp
                reads[tensor.children] += inner
                writes[tensor.children] += inner - inner_sp
        return reads, writes

    def _lane_multipliers(self, b: Any, r: Any, p: Any, surplus: Any) -> Any:
        """Step 2 of :meth:`_traffic`: ``[segments, 4, rows]`` multipliers.

        A boundary's cutoff is its innermost relevant temporal position
        above it: the running maximum of each dim's qualifying positions
        (bound > 1) over the temporal columns, snapshotted at the group
        depth and maxed over the tensor's relevant dims.

        The four variants stack as inner, outer, inner_spatial,
        outer_spatial. Selections (see ``_boundary_traffic``): spatial
        loops always on the inner side and above the parent on the outer
        side; temporal loops inside the cutoff on inner and outer only.
        Each variant carries ``(full, gap)`` with ``gap = full - last``,
        which turns both branches of the ``_projection_count`` recursion
        into products, so a column step is a handful of whole-array
        multiplies with no per-row branch:

        * selected loop:   ``full' = P*full``, ``gap' = (P-R)*full + gap``;
        * unselected loop: ``full' = full``,   ``gap' = 0 if R >= 2 else gap``.

        ``multiply.reduceat`` over each segment's lanes multiplies the
        per-dim counts into the boundary's multipliers.
        """
        layout = self.layout
        plan = layout.traffic_plan
        m = b.shape[2]
        qual = np.full(
            (plan.temporal.size + 1, layout.num_dims, m), -1, dtype=np.int64
        )
        qual[1:] = np.where(b[plan.temporal] > 1, p[plan.temporal], -1)
        for i in range(1, len(qual)):
            np.maximum(qual[i - 1], qual[i], out=qual[i])
        cutoffs = np.maximum.reduceat(
            qual.reshape(-1, m)[plan.cut_rows], plan.cut_starts, axis=0
        )
        lanes = plan.lane_dims
        cols = slice(0, len(plan.active))
        kept = (r[cols] < 2)[:, lanes, None, :]
        inside = p[cols, lanes, None, :] < cutoffs[plan.lane_segment, None, :]
        # The walk state and a scratch buffer in one block: the steps
        # below update in place and allocate nothing this wide.
        full, gap, work = np.empty((3, lanes.size, 4, m), dtype=np.int64)
        full.fill(1)
        gap.fill(0)
        for c in reversed(range(len(plan.active))):
            k = plan.active[c]
            b_c = b[c, lanes[:k], None, :]
            surplus_c = surplus[c, lanes[:k], None, :]
            if layout.col_spatial[c]:
                selected = plan.spatial_select[c]
                f, g, w = full[:k], gap[:k], work[:k]
                g *= selected | kept[c, :k]
                np.multiply(f, surplus_c, out=w)
                w *= selected
                g += w
                np.multiply(f, b_c, out=w)
                np.copyto(f, w, where=selected)
            else:
                # Inner and outer select inside the cutoff; the
                # spatial-only variants never select a temporal loop.
                inside_c = inside[c, :k]
                f, g, w = full[:k, :2], gap[:k, :2], work[:k, :2]
                g *= inside_c | kept[c, :k]
                np.multiply(f, surplus_c * inside_c, out=w)
                g += w
                f *= np.where(inside_c, b_c, 1)
                gap[:k, 2:] *= kept[c, :k]
        np.subtract(full, gap, out=full)
        return np.multiply.reduceat(full, plan.starts, axis=0)

    def _energy(self, reads: Any, writes: Any) -> Any:
        """Float accumulation in the scalar model's exact operation order."""
        layout = self.layout
        total = np.zeros(reads.shape[1], dtype=np.float64)
        for level in range(layout.num_levels):
            level_energy = (
                reads[level].astype(np.float64) * self.read_pj[level]
                + writes[level].astype(np.float64) * self.write_pj[level]
            )
            total = total + level_energy
        return total + self.compute_energy
