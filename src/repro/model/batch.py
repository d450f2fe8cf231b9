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
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.arch.spec import Architecture
from repro.exceptions import SearchError, SpecError
from repro.mapping.loop import Loop
from repro.mapping.nest import LevelNest, Mapping
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

#: The partial-bound grid computes in int64; :class:`PartialBoundEngine`
#: refuses workloads whose products could reach this.
_INT64_LIMIT = float(2**63)


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

    def fits_capacity(self, extents: Sequence[Any], n: int) -> Any:
        """Which of ``n`` rows fit every bounded level (``check_mapping``'s
        capacity rule) given their tile extents.

        ``extents`` has one entry per :attr:`capacity_levels` level,
        indexed by dim: dim ``d``'s ``(n,)`` int64 extents there, as
        :meth:`capacity_extents` gives them, or one int64 scalar that
        every row shares. The batch kernel's validity stage passes
        extents folded from packed rows; enumeration passes extents
        gathered from per-chain tables, so it can drop rows that cannot
        fit before packing them. Both fold them through each kept
        tensor's rank footprints in the same int64 arithmetic.
        """
        valid = np.ones(n, dtype=bool)
        for (level_index, info), ext in zip(self.capacity_levels, extents):
            shared = np.zeros(n, dtype=np.int64)
            for t in info["kept"]:
                meta = self.tensors[t]
                footprint = np.ones(n, dtype=np.int64)
                for rank in meta.ranks:
                    span = np.zeros(n, dtype=np.int64)
                    for d, coef in rank:
                        span += coef * (ext[d] - 1)
                    footprint *= span + 1
                words = np.maximum(
                    footprint * meta.bits_per_element // info["word_bits"], 1
                )
                partition = meta.partition_words[level_index]
                if partition is not None:
                    valid &= words <= partition
                else:
                    shared += words
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


@dataclass
class MappingBatch:
    """N candidate mappings in structure-of-arrays form.

    ``bounds``/``rems``/``pos`` are int64 arrays of shape
    ``[n, num_columns, num_dims]``; absent loops hold the identity cell
    ``(1, 1, -1)``. ``fallback`` flags rows the columnar grid cannot
    represent (bypass sets, misaligned levels, duplicate cells); those are
    priced by the scalar evaluator instead. ``mappings`` holds the rows
    kept as ``Mapping`` objects by row index: every row of a
    :func:`pack_mappings` batch, the bypass rows of a sampled one.
    """

    layout: BatchLayout
    bounds: Any
    rems: Any
    pos: Any
    fallback: Any
    mappings: Optional[Dict[int, Mapping]] = None
    #: Optional per-row provenance stamped by
    #: :meth:`MapSpace.iter_prefix_batches` (the source prefix's tag);
    #: pricing kernels ignore it.
    tags: Any = None
    #: Enumerated batches only: how many enumerated candidates the batch
    #: resolves (its rows plus the capacity-infeasible candidates the
    #: enumeration dropped before packing), and each row's 0-based
    #: position among them. ``None`` on sampled and packed batches, whose
    #: rows are their candidates.
    span: Optional[int] = None
    ordinals: Any = None

    @property
    def size(self) -> int:
        return int(self.bounds.shape[0])

    @property
    def candidates(self) -> int:
        """Candidates this batch resolves: :attr:`span`, else its rows."""
        return self.size if self.span is None else self.span

    def ordinal(self, index: int) -> int:
        """Row ``index``'s 0-based position among :attr:`candidates`."""
        return index if self.ordinals is None else int(self.ordinals[index])

    def mapping_at(self, index: int) -> Mapping:
        """The ``Mapping`` object of row ``index`` (rebuilt if not stored)."""
        if self.mappings is not None and index in self.mappings:
            return self.mappings[index]
        return self.layout.materialize(
            self.bounds[index], self.rems[index], self.pos[index]
        )


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


def _rank_box_min(
    rank: Tuple[Tuple[int, int], ...],
    layout: BatchLayout,
    choices: Sequence[Tuple[int, ...]],
) -> int:
    """Minimum delivery sum of one rank over a box of tile counts.

    ``choices[j]`` holds the candidate tile counts of the rank's ``j``-th
    dim: one exact count, or its box's two corners. The sum is affine in
    each count separately, so its minimum over the box sits at a vertex
    (at most 2**len(rank) evaluations; ranks couple <= 2 dims). Computed
    in exact Python ints.
    """
    sizes = [int(layout.sizes[d]) for d, _ in rank]

    def delivery(vertex: Tuple[int, ...]) -> int:
        all_tiles = math.prod(vertex)
        total = all_tiles
        for (_, coef), t, size in zip(rank, vertex, sizes):
            total += coef * (size - t) * (all_tiles // t)
        return total

    return min(map(delivery, itertools.product(*choices)))


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
    ) -> BatchOutcome:
        """Price one packed batch; optionally prune against ``incumbent``.

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
        bounds, rems, pos = batch.bounds, batch.rems, batch.pos
        fallback = batch.fallback | self._overflow_rows(bounds)
        with obs.trace("batch.validity", rows=n):
            valid = self._validity(bounds, rems)
        cycles = self._cycles(bounds, rems)
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
                reads, writes = self._traffic(bounds, rems, pos, live)
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


class PartialBoundEngine:
    """Admissible completion bounds for partial chain assignments.

    The batch engine's lower bound (:meth:`BatchEvaluator._build_lower_bound`)
    is a single constant — the per-rank multilinear delivery sum minimized
    over the whole tile-count box. This class refines that bound along the
    per-dimension prefix tree: a prefix pins the full Eq. (5) chains of a
    subset of problem dimensions, which fixes those dimensions' per-boundary
    delivered-tile counts and per-dimension cycle factors *exactly*, while
    unassigned dimensions stay relaxed over the box spanned by their chain
    menu. The result lower-bounds the metric of **every** mapping that
    completes the prefix, so a branch-and-bound search can discard whole
    subtrees before they are enumerated:

    * **cycles** — the cycle count is an exact per-dimension product
      (see :meth:`BatchEvaluator._cycles`); assigned dims contribute their
      exact factor, free dims the minimum factor over their menu.
    * **energy** — each tensor boundary's traffic is its rank delivery-sum
      product times per-dimension projection multipliers over the
      irrelevant dims. Each rank sum is multilinear in the per-dim
      delivered tile counts, so with assigned counts pinned the minimum
      over the free counts sits at a vertex of their menu's [min, max]
      box. The multipliers factor per irrelevant dimension and are coupled
      to the rest of the mapping only through the boundary's *cutoff* (the
      innermost relevant temporal position above it, a max over relevant
      dims); both the per-dim factor and the cutoff are monotone under
      assignment, so replaying each factor at a cutoff *lower bound*
      (assigned relevant dims exact, free ones at their menu minimum)
      stays admissible. The output tensor's read-delta terms
      (``outer - outer_sp`` / ``inner - inner_sp``), which are always
      nonnegative, are the only traffic dropped outright.
    * **EDP** — both factors are nonnegative, so the product of the two
      bounds lower-bounds the product.
    * **terms the kernels do not model** — NoC and static energy only add
      energy, and bandwidth stalls only add cycles, so the bounds stay
      admissible for evaluators the engine prices row-wise.

    Bounds are monotone along the tree (fixing more dimensions can only
    raise them), which makes best-first search with a single
    front-of-heap cutoff exact. The same :data:`PRUNE_MARGIN` discipline
    as row-level pruning keeps float rounding from ever cutting a true
    improvement.

    The formula has two implementations: the scalar :meth:`bound` (Python
    ints/floats, the oracle the tests compare against) and one vectorized
    kernel, :meth:`_grid_bounds`, which prices a whole grid of swept
    dimensions' menus at once. The kernel has two entry points:
    :meth:`child_bounds` sweeps the branching dimension of a tree node,
    and :meth:`suffix_bounds` sweeps every unassigned dimension of a leaf.

    Both read one set of per-chain tables, all built at construction by
    NumPy column walks over each menu's bounds and remainders: cycle
    factors, delivered tiles and qualifying positions per cut, and the
    projection factor of every (chain, cutoff) per boundary key. Building
    them takes milliseconds even on Ruby-S menus of thousands of chains,
    so every process that bounds (each parallel worker included) builds
    its own. :meth:`_chain_cycles`, :meth:`_chain_tiles`,
    :meth:`_chain_qual` and :meth:`_projection_factor` replay one chain's
    walk in Python ints; they are the scalar reference the tests check
    every table cell against.
    """

    def __init__(
        self,
        engine: BatchEvaluator,
        menus: Sequence[Tuple[str, Sequence[Any]]],
    ) -> None:
        layout = engine.layout
        if not layout.paths_supported:
            # Bounds over a degenerate keeper chain would be meaningless;
            # fail the way the scalar model does on every valid mapping.
            raise SpecError(layout.paths_reason)
        self.engine = engine
        self.layout = layout
        # Boundary cut levels at which delivered-tile counts are needed
        # (a boundary (parent, child) folds the columns above ``child``;
        # the innermost boundary folds everything).
        self.cuts: Tuple[int, ...] = tuple(
            sorted(
                {
                    layout.num_levels if child is None else child
                    for meta in layout.tensors
                    for _, child in meta.boundaries
                }
            )
        )
        #: Per dim: the menu chains (the scalar reference replays them).
        self.menus: Dict[str, Sequence[Any]] = {}
        #: Per dim: each menu chain's exact cycle factor, ``int64[menu]``.
        self.cycles: Dict[str, Any] = {}
        #: Per dim, per cut: each chain's delivered tiles, ``int64[menu]``.
        self.tiles: Dict[str, Dict[int, Any]] = {}
        #: Per dim, per cut: each chain's innermost qualifying temporal
        #: position (-1 when the chain has no bound>1 temporal loop above
        #: the cut), ``int64[menu]``.
        self.qual: Dict[str, Dict[int, Any]] = {}
        #: Per dim: minimum cycle factor over the menu (free-dim relaxation).
        self.min_cycles: Dict[str, int] = {}
        #: Per dim, per cut: [min, max] delivered-tile box over the menu.
        self.tile_range: Dict[str, Dict[int, Tuple[int, int]]] = {}
        #: Per dim: {cut: minimum qualifying position over the menu}.
        self.qual_min: Dict[str, Dict[int, int]] = {}
        #: Largest possible cutoff (cutoffs are virtual grid positions, or
        #: -1); factor tables are indexed by ``cutoff + 1``.
        self._cutoff_hi = int(layout.grid_pos.max())
        #: Per ``(dim, cut, parent, inner)``: the projection factor of each
        #: menu chain at each cutoff, ``int64[menu, cutoff + 1]``, and its
        #: menu minimum, ``int64[cutoff + 1]``.
        self.factors: Dict[Tuple[str, int, int, bool], Tuple[Any, Any]] = {}
        arrays: Dict[str, Tuple[Any, Any]] = {}
        for dim, menu in menus:
            if not menu:
                raise RuntimeError(f"dimension {dim} has an empty chain menu")
            self.menus[dim] = list(menu)
            arrays[dim] = (
                np.array([c.bounds for c in menu], dtype=np.int64),
                np.array([c.remainders for c in menu], dtype=np.int64),
            )
            self._build_chain_stats(dim, *arrays[dim])
        for meta in layout.tensors:
            for parent, child in meta.boundaries:
                cut = layout.num_levels if child is None else child
                for d in meta.irrelevant_idx:
                    dim = layout.dims[d]
                    for inner in (False, True) if child is not None else (False,):
                        key = (dim, cut, parent, inner)
                        if key not in self.factors:
                            table = self._build_factor_table(key, *arrays[dim])
                            self.factors[key] = (table, table.min(axis=0))
        self._check_int64_range()

    def _check_int64_range(self) -> None:
        """Refuse a layout whose grid products could wrap in int64.

        :meth:`_grid_bounds` multiplies cycle factors, rank delivery sums
        and projection factors as int64. Their largest products, bounded
        in float64 from the table maxima, must stay below 2**63; a
        workload that reaches it gets a typed error instead of silently
        wrapped (and so inadmissible) bounds.
        """
        layout = self.layout
        largest = 1.0
        for dim in layout.dims:
            largest *= float(self.cycles[dim].max())
        for meta in layout.tensors:
            for parent, child in meta.boundaries:
                cut = layout.num_levels if child is None else child
                base = 1.0
                for rank in meta.ranks:
                    # Rank sum all_tiles + sum(coef * (size - t) *
                    # all_tiles / t) at the largest tile counts.
                    highs = [
                        float(self.tile_range[layout.dims[d]][cut][1])
                        for d, _ in rank
                    ]
                    all_tiles = math.prod(highs)
                    base *= all_tiles + sum(
                        coef * float(layout.sizes[d]) * all_tiles / high
                        for (d, coef), high in zip(rank, highs)
                    )
                for inner in (False, True) if child is not None else (False,):
                    traffic = base
                    for d in meta.irrelevant_idx:
                        key = (layout.dims[d], cut, parent, inner)
                        traffic *= float(self.factors[key][0].max())
                    largest = max(largest, traffic)
        if largest >= _INT64_LIMIT:
            raise SearchError(
                f"partial bounds for {layout.workload.name} on "
                f"{layout.arch.name} would overflow int64: a traffic or "
                f"cycle product reaches {largest:.3g} >= 2**63"
            )

    def _build_chain_stats(self, dim: str, bounds: Any, rems: Any) -> None:
        """Every menu chain's cycle factor, tiles and qualifying positions.

        Column walks over the menu's ``(menu, column)`` bounds and
        remainders: the vectorized :meth:`_chain_cycles`,
        :meth:`_chain_tiles` and :meth:`_chain_qual`.
        """
        layout = self.layout
        d = layout.dim_index[dim]
        steps = np.zeros(bounds.shape[0], dtype=np.int64)
        shadowed = np.zeros(bounds.shape[0], dtype=bool)
        for c in range(layout.num_columns):
            b, r = bounds[:, c], rems[:, c]
            if layout.col_spatial[c]:
                shadowed |= r >= 2
            else:
                steps = steps * b + np.where(shadowed, b, r) - 1
        self.cycles[dim] = steps + 1
        self.tiles[dim] = {}
        t = np.zeros(bounds.shape[0], dtype=np.int64)
        c = 0
        for cut in self.cuts:
            while c < layout.num_columns and layout.col_level[c] < cut:
                t = t * bounds[:, c] + rems[:, c] - 1
                c += 1
            self.tiles[dim][cut] = t + 1
        self.qual[dim] = {}
        for cut in self.cuts:
            cols = [
                c for c in range(layout.num_columns)
                if layout.col_level[c] < cut and not layout.col_spatial[c]
            ]
            pos = np.where(bounds[:, cols] > 1, layout.grid_pos[cols, d], -1)
            self.qual[dim][cut] = pos.max(axis=1, initial=-1)
        self.min_cycles[dim] = int(self.cycles[dim].min())
        self.tile_range[dim] = {
            cut: (int(tiles.min()), int(tiles.max()))
            for cut, tiles in self.tiles[dim].items()
        }
        self.qual_min[dim] = {
            cut: int(qual.min()) for cut, qual in self.qual[dim].items()
        }

    def _build_factor_table(
        self, key: Tuple[str, int, int, bool], bounds: Any, rems: Any
    ) -> Any:
        """Every menu chain's projection factor at every cutoff.

        The vectorized :meth:`_projection_factor`: one inner-to-outer
        column walk keeps the (full-subtree, last-path) counts of the
        whole ``(menu, cutoff)`` grid, so the same ``(f, l)`` recursion
        runs for every cell at once.
        """
        dim, cut, parent, inner = key
        layout = self.layout
        d = layout.dim_index[dim]
        cutoffs = np.arange(-1, self._cutoff_hi + 1, dtype=np.int64)
        f = np.ones((bounds.shape[0], cutoffs.size), dtype=np.int64)
        l = f.copy()
        for c in range(layout.num_columns - 1, -1, -1):
            if layout.col_level[c] >= cut:
                continue
            b, r = bounds[:, c, None], rems[:, c, None]
            if layout.col_spatial[c]:
                selected: Any = inner or layout.col_level[c] < parent
            else:
                selected = layout.grid_pos[c, d] < cutoffs
            l = np.where(selected, (r - 1) * f + l, np.where(r >= 2, f, l))
            f = np.where(selected, b * f, f)
        return l

    def _chain_cycles(self, chain: Any) -> int:
        """One dimension's exact factor of the cycle product.

        The scalar replay of the :meth:`BatchEvaluator._cycles` kernel for
        a single (dim, chain) column walk.
        """
        layout = self.layout
        steps = 0
        shadowed = False
        for c in range(layout.num_columns):
            b = chain.bounds[c]
            r = chain.remainders[c]
            if layout.col_spatial[c]:
                shadowed = shadowed or r >= 2
            else:
                steps = steps * b + (b if shadowed else r) - 1
        return steps + 1

    def _chain_tiles(self, chain: Any) -> Dict[int, int]:
        """Delivered-tile counts of one dimension above each boundary cut.

        The per-dim fold from :meth:`BatchEvaluator._traffic`: columns are
        level-ordered, so the cuts (ascending) share one running fold.
        """
        layout = self.layout
        tiles: Dict[int, int] = {}
        t = 0
        c = 0
        for cut in self.cuts:
            while c < layout.num_columns and layout.col_level[c] < cut:
                t = t * chain.bounds[c] + chain.remainders[c] - 1
                c += 1
            tiles[cut] = t + 1
        return tiles

    def _chain_qual(self, dim: str, chain: Any) -> Dict[int, int]:
        """Innermost qualifying temporal position per cut for one chain.

        The per-dim ingredient of a boundary's cutoff in
        :meth:`BatchEvaluator._lane_multipliers`: the deepest virtual grid position
        among this dimension's bound>1 temporal loops above the cut, or
        ``-1`` when there is none. The boundary cutoff is the max of these
        over the tensor's relevant dims.
        """
        layout = self.layout
        d = layout.dim_index[dim]
        qual: Dict[int, int] = {}
        for cut in self.cuts:
            deepest = -1
            for c in range(layout.num_columns):
                if layout.col_level[c] >= cut or layout.col_spatial[c]:
                    continue
                if chain.bounds[c] > 1:
                    deepest = max(deepest, int(layout.grid_pos[c, d]))
            qual[cut] = deepest
        return qual

    def _projection_factor(
        self, dim: str, chain: Any, cut: int, parent: int,
        inner: bool, cutoff: int,
    ) -> int:
        """One irrelevant dimension's projection-count factor, replayed.

        The scalar replay of one lane of
        :meth:`BatchEvaluator._lane_multipliers`, at a given cutoff:
        walk the boundary's columns inner to outer keeping (full-subtree,
        last-path) counts; spatial loops are always selected on the inner
        multiplier and selected above the parent on the outer one;
        temporal loops are selected when their position is inside the
        cutoff, and otherwise promote the full count when they carry a
        genuine remainder. Both counts are monotone in the selected set,
        so evaluating at a cutoff lower bound is admissible.
        """
        layout = self.layout
        d = layout.dim_index[dim]
        f = 1
        l = 1
        for c in range(layout.num_columns - 1, -1, -1):
            if layout.col_level[c] >= cut:
                continue
            b = int(chain.bounds[c])
            r = int(chain.remainders[c])
            if layout.col_spatial[c]:
                if inner or layout.col_level[c] < parent:
                    l = (r - 1) * f + l
                    f = b * f
                elif r >= 2:
                    l = f
            else:
                if int(layout.grid_pos[c, d]) < cutoff:
                    l = (r - 1) * f + l
                    f = b * f
                elif r >= 2:
                    l = f
        return l

    def _factor_at(
        self, dim: str, idx: Optional[int], cut: int, parent: int,
        inner: bool, cutoff: int,
    ) -> int:
        """One projection factor as a Python int: an assigned chain's
        (``idx``), or a free dimension's menu minimum (``idx`` None)."""
        table, table_min = self.factors[(dim, cut, parent, inner)]
        if idx is None:
            return int(table_min[cutoff + 1])
        return int(table[idx, cutoff + 1])

    def suffix_bounds(
        self,
        assigned: Dict[str, int],
        objective: str = "edp",
        siblings: Optional[Tuple[str, Any]] = None,
    ) -> Any:
        """:meth:`bound` of every *complete* assignment extending ``assigned``.

        Returns an array shaped by the free dimensions' menu lengths (in
        layout dim order). Nothing is relaxed — each cell fixes every
        dimension, so the cell value equals the scalar ``bound`` of that
        full assignment: the tightest partial bound the engine can state,
        computed densely. This is the leaf regime of the tree walk: once
        a subtree is small, sweeping all of its completions' bounds in a
        few broadcast kernels costs far less than branching further, and
        the cells it cuts are never even enumerated into batches.

        ``siblings=(dim, indices)`` prices a block of sibling leaves in
        one grid: ``dim`` is a free dimension of ``assigned`` and its
        axis holds just the given menu ``indices``. Slice ``j`` along that
        axis equals ``suffix_bounds(assigned | {dim: indices[j]})`` cell
        for cell.
        """
        free = [dim for dim in self.layout.dims if dim not in assigned]
        select = {} if siblings is None else {siblings[0]: siblings[1]}
        with obs.trace("bound.suffix", swept=len(free)):
            return self._grid_bounds(assigned, free, objective, select)

    def child_bounds(
        self, assigned: Dict[str, int], branch_dim: str,
        objective: str = "edp",
    ) -> Any:
        """:meth:`bound` for every child of a node, menu-vectorized.

        Element ``k`` is the bound of ``assigned | {branch_dim: k}``,
        computed once per expansion instead of once per child. This is
        what makes deep branching affordable: the scalar bound re-derives
        every rank sum per child, turning tree walks over wide menus into
        millions of tiny Python folds.
        """
        with obs.trace("bound.child"):
            return self._grid_bounds(assigned, [branch_dim], objective)

    def _grid_bounds(
        self,
        assigned: Dict[str, int],
        swept: Sequence[str],
        objective: str,
        select: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """:meth:`bound` over the grid of the ``swept`` dimensions' menus.

        Cell ``(k_1, ..., k_n)`` — one axis per swept dimension, in layout
        dim order — is the bound of ``assigned`` extended by the swept
        dimensions' ``k_i``-th chains: the scalar path's math with each
        swept dimension's per-chain stats laid along its own broadcast
        axis. ``select`` narrows a swept dimension's axis to the given
        menu indices (the whole menu otherwise). Every other dimension is
        assigned (exact values) or free (menu-minimum cycle and projection
        factors, box vertices in the rank sums) exactly as in
        :meth:`bound`. Projection factors come
        from the cutoff-indexed tables: an assigned chain's row, a free
        dimension's menu minimum, or a swept dimension's whole
        (menu, cutoff) table gathered along its axis.
        """
        layout = self.layout
        engine = self.engine
        axes = [dim for dim in layout.dims if dim in swept]
        picks = {
            dim: np.asarray(
                (select or {}).get(dim, np.arange(len(self.menus[dim]))),
                dtype=np.int64,
            )
            for dim in axes
        }
        shape = tuple(picks[dim].size for dim in axes)

        # Each swept dimension's menu indices, laid along its own axis:
        # gathering a per-chain table with them spreads it onto the grid.
        menu_idx = {}
        for axis, dim in enumerate(axes):
            view = [1] * len(axes)
            view[axis] = shape[axis]
            menu_idx[dim] = picks[dim].reshape(view)

        def factor(
            dim: str, cut: int, parent: int, inner: bool, cutoff_idx: Any
        ) -> Any:
            table, table_min = self.factors[(dim, cut, parent, inner)]
            if dim in menu_idx:
                return table[menu_idx[dim], cutoff_idx]
            idx = assigned.get(dim)
            return (table_min if idx is None else table[idx])[cutoff_idx]

        cycles: Any = np.int64(1)
        for dim in layout.dims:
            idx = assigned.get(dim)
            if dim in menu_idx:
                cycles = cycles * self.cycles[dim][menu_idx[dim]]
            elif idx is not None:
                cycles = cycles * int(self.cycles[dim][idx])
            else:
                cycles = cycles * self.min_cycles[dim]
        if objective == "delay":
            return np.broadcast_to(cycles, shape).astype(float)
        energy: Any = np.float64(engine.compute_energy)
        for meta in layout.tensors:
            for parent, child in meta.boundaries:
                cut = layout.num_levels if child is None else child
                base: Any = 1
                for rank in meta.ranks:
                    # Box-vertex minimum of the rank sum (see _rank_min);
                    # a swept dim contributes its whole tile vector, and a
                    # rank with no free dim has a single vertex.
                    options: List[Tuple[Any, ...]] = []
                    sizes: List[int] = []
                    for d, _ in rank:
                        dim = layout.dims[d]
                        sizes.append(int(layout.sizes[d]))
                        idx = assigned.get(dim)
                        if dim in menu_idx:
                            options.append(
                                (self.tiles[dim][cut][menu_idx[dim]],)
                            )
                        elif idx is not None:
                            options.append(
                                (int(self.tiles[dim][cut][idx]),)
                            )
                        else:
                            lo, hi = self.tile_range[dim][cut]
                            options.append((lo,) if lo == hi else (lo, hi))
                    best: Any = None
                    for vertex in itertools.product(*options):
                        all_tiles: Any = 1
                        for t in vertex:
                            all_tiles = all_tiles * t
                        total = all_tiles
                        for (_, coef), t, size in zip(rank, vertex, sizes):
                            total = total + coef * (size - t) * (
                                all_tiles // t
                            )
                        best = (
                            total if best is None else np.minimum(best, total)
                        )
                    base = base * best
                # Cutoff lower bound, as in bound(); swept relevant dims
                # make it a grid of cutoffs.
                cutoff: Any = -1
                for d in meta.relevant_idx:
                    dim = layout.dims[d]
                    idx = assigned.get(dim)
                    if dim in menu_idx:
                        qual = self.qual[dim][cut][menu_idx[dim]]
                    elif idx is not None:
                        qual = int(self.qual[dim][cut][idx])
                    else:
                        qual = self.qual_min[dim][cut]
                    cutoff = np.maximum(cutoff, qual)
                cutoff_idx = cutoff + 1
                outer: Any = 1
                inner: Any = 1
                for d in meta.irrelevant_idx:
                    dim = layout.dims[d]
                    outer = outer * factor(dim, cut, parent, False, cutoff_idx)
                    if child is not None:
                        inner = inner * factor(
                            dim, cut, parent, True, cutoff_idx
                        )
                if not meta.is_output:
                    energy = energy + engine.read_pj[parent] * (base * outer)
                    if child is not None:
                        energy = energy + engine.write_pj[child] * (
                            base * inner
                        )
                else:
                    energy = energy + engine.write_pj[parent] * (base * outer)
                    if child is not None:
                        energy = energy + engine.read_pj[child] * (
                            base * inner
                        )
        if objective == "energy":
            return np.broadcast_to(energy, shape).astype(float)
        return np.broadcast_to(energy * cycles.astype(float), shape)

    def bound(self, assigned: Dict[str, int], objective: str = "edp") -> float:
        """Lower bound on ``objective`` over all completions of ``assigned``.

        ``assigned`` maps dimension names to chain indices into the menus
        this engine was built with. Invalid completions price to ``inf``
        under every search, so bounding the raw model metric is admissible
        for them too.
        """
        cycles_lb = 1
        for dim in self.layout.dims:
            idx = assigned.get(dim)
            cycles_lb *= (
                int(self.cycles[dim][idx])
                if idx is not None
                else self.min_cycles[dim]
            )
        if objective == "delay":
            return float(cycles_lb)
        engine = self.engine
        layout = self.layout
        energy = 0.0
        for meta in layout.tensors:
            for parent, child in meta.boundaries:
                cut = layout.num_levels if child is None else child
                base = 1
                for rank in meta.ranks:
                    base *= self._rank_min(rank, cut, assigned)
                # Cutoff lower bound: assigned relevant dims contribute
                # their exact innermost qualifying position, free ones
                # their menu minimum. The true cutoff is the max over
                # exact positions, so this never overshoots.
                cutoff = -1
                for d in meta.relevant_idx:
                    dim = layout.dims[d]
                    idx = assigned.get(dim)
                    qual = (
                        int(self.qual[dim][cut][idx])
                        if idx is not None
                        else self.qual_min[dim][cut]
                    )
                    if qual > cutoff:
                        cutoff = qual
                outer = 1
                inner = 1
                for d in meta.irrelevant_idx:
                    dim = layout.dims[d]
                    idx = assigned.get(dim)
                    outer *= self._factor_at(
                        dim, idx, cut, parent, False, cutoff
                    )
                    if child is not None:
                        inner *= self._factor_at(
                            dim, idx, cut, parent, True, cutoff
                        )
                if not meta.is_output:
                    energy += engine.read_pj[parent] * base * outer
                    if child is not None:
                        energy += engine.write_pj[child] * base * inner
                else:
                    energy += engine.write_pj[parent] * base * outer
                    if child is not None:
                        energy += engine.read_pj[child] * base * inner
        energy += engine.compute_energy
        if objective == "energy":
            return energy
        return energy * float(cycles_lb)

    def _rank_min(
        self,
        rank: Tuple[Tuple[int, int], ...],
        cut: int,
        assigned: Dict[str, int],
    ) -> int:
        """Box-vertex minimum of one rank's delivery sum at one boundary.

        Assigned dims contribute their exact delivered-tile count at this
        cut; free dims relax over their menu's [min, max] box.
        """
        choices: List[Tuple[int, ...]] = []
        for d, _ in rank:
            dim = self.layout.dims[d]
            idx = assigned.get(dim)
            if idx is not None:
                choices.append((int(self.tiles[dim][cut][idx]),))
            else:
                lo, hi = self.tile_range[dim][cut]
                choices.append((lo,) if lo == hi else (lo, hi))
        return _rank_box_min(rank, self.layout, choices)
