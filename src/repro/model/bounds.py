"""Admissible completion bounds and per-chain tables for exact searches.

:class:`PartialBoundEngine` tabulates, once per (layout, chain menus),
everything the cost model needs per (dimension, chain): cycle factors,
delivered tiles and qualifying positions per boundary cut, and projection
factors at every cutoff. Branch-and-bound bounds partial assignments from
those tables, and the exhaustive sweep and branch-and-bound's leaf
pricing price enumerated rows from them through
:meth:`~repro.model.batch.BatchEvaluator.evaluate_batch`.

:mod:`repro.model.batch` re-exports the engine, where its callers look
it up. Keeping the two apart keeps each module's compile small: without
cached bytecode, compiling the largest module is the largest single
allocation of importing the package, and so sets a short run's peak RSS.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.exceptions import SearchError, SpecError

if TYPE_CHECKING:
    from repro.model.batch import BatchEvaluator, BatchLayout

#: The partial-bound grid computes in int64; :class:`PartialBoundEngine`
#: refuses workloads whose products could reach this.
_INT64_LIMIT = float(2**63)

#: The dtypes of :meth:`PartialBoundEngine._grid_bounds`' work arrays:
#: one boundary's rank product, one traffic product (and, once the energy
#: sum is done, the cycle count), one gathered projection factor, one
#: energy term and the energy sum.
_WORK_DTYPES = {
    "base": np.int64, "traffic": np.int64, "factor": np.int64,
    "term": np.float64, "energy": np.float64,
}

#: The work arrays shaped like the whole grid.
_GRID_WORK = ("base", "traffic", "term", "energy")


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

    **Pricing enumerated rows.** A fully assigned cell needs no
    relaxation, and enumerated rows all share the virtual grid's
    positions, so the same tables price them exactly:
    :meth:`BatchEvaluator.evaluate_batch` with ``tables=self`` reads the
    overflow guard, validity, cycles and per-level traffic of a batch's
    menu-index rows from them (:meth:`row_overflow`, :meth:`row_valid`,
    :meth:`row_cycles`, :meth:`row_traffic`) instead of packing the rows
    and walking their columns. The output tensor's spatial-only
    multipliers, which the bound drops, are the cutoff -1 column of the
    same factor tables. Exhaustive search and branch-and-bound's leaf
    pricing use it; the column walk stays the oracle (the
    ``leaf-exactness`` invariant).

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
        #: Per tensor, the grid's rank sums as ``(constant, ranks)``: a
        #: one-dim rank with coefficient 1 sums to its dim's size at every
        #: tile count (the delivered tiles partition the dimension), so
        #: those fold into the constant.
        self._grid_ranks: Dict[str, Tuple[int, Tuple[Any, ...]]] = {}
        for meta in layout.tensors:
            const = 1
            ranks = []
            for rank in meta.ranks:
                if len(rank) == 1 and rank[0][1] == 1:
                    const *= int(layout.sizes[rank[0][0]])
                else:
                    ranks.append(rank)
            self._grid_ranks[meta.name] = (const, tuple(ranks))
        #: Factor keys whose table is all 1 (a dim whose chains have no
        #: bound above 1 at the boundary's columns): products skip them.
        self.unit_factors = {
            key
            for key, (table, _) in self.factors.items()
            if (table == 1).all()
        }
        self._build_row_tables(arrays)
        self._check_int64_range()
        #: :meth:`_grid_bounds`' work arrays, by name.
        self._work_arrays: Dict[str, Any] = {}

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

    def _build_row_tables(self, arrays: Dict[str, Tuple[Any, Any]]) -> None:
        """What :meth:`row_overflow` through :meth:`row_traffic` read.

        Per dim: each chain's float bound product (the overflow guard's
        ``BD_d``), whether the chain alone passes ``_validity``'s
        coverage and dataflow checks, and a ``(stats, menu)`` stack of
        its delivered tiles and qualifying positions per cut and its
        spatial-only projection factors (the cutoff -1 column of a factor
        table), which one gather per dim spreads over a block of rows.
        Per tensor boundary, a plan of where its terms sit: rank
        ``(dims, lead, weights)`` as in :class:`_TensorTraffic`, with
        each dim as ``(dim, stack row)``; its relevant dims' qualifying
        rows; and per irrelevant dim whose projection factors are not
        all 1, the flattened outer and inner factor tables and their
        spatial-only stack rows (``None`` where the boundary has no
        child).
        """
        layout = self.layout
        engine = self.engine
        stacks: List[List[Any]] = [[] for _ in layout.dims]

        def stack_row(d: int, values: Any) -> int:
            stacks[d].append(values)
            return len(stacks[d]) - 1

        self._bound_products: List[Any] = []
        #: ``(dim, per-chain validity)`` of dims with an invalid chain.
        self._chain_valid: List[Tuple[int, Any]] = []
        tile_rows: List[Dict[int, int]] = []
        qual_rows: List[Dict[int, int]] = []
        for d, dim in enumerate(layout.dims):
            bounds, rems = arrays[dim]
            product = np.ones(len(bounds), dtype=np.float64)
            cover = np.zeros(len(bounds), dtype=np.int64)
            valid = np.ones(len(bounds), dtype=bool)
            for c in range(layout.num_columns):
                product *= bounds[:, c].astype(np.float64)
                cover = cover * bounds[:, c] + rems[:, c] - 1
                disallowed = layout.spatial_disallowed[c]
                if disallowed is not None and disallowed[d]:
                    valid &= bounds[:, c] <= 1
            valid &= cover + 1 == layout.sizes[d]
            self._bound_products.append(product)
            if not valid.all():
                self._chain_valid.append((d, valid))
            tile_rows.append(
                {cut: stack_row(d, t) for cut, t in self.tiles[dim].items()}
            )
            qual_rows.append(
                {cut: stack_row(d, q) for cut, q in self.qual[dim].items()}
            )
        # Float products are monotone in each factor, so when the menus'
        # largest products pass the guard, every row does.
        self._overflow_free = not engine._overflow_of(
            np.array([[p.max() for p in self._bound_products]])
        )[0]

        def factor_entry(key: Tuple[str, int, int, bool]) -> Any:
            if key in self.unit_factors:
                return None
            table = self.factors[key][0]
            d = layout.dim_index[key[0]]
            return table.ravel(), table.shape[1], stack_row(d, table[:, 0])

        self._row_plan: List[tuple] = []
        plan = layout.traffic_plan
        for meta, tensor in zip(layout.tensors, plan.tensors):
            for parent, child in meta.boundaries:
                cut = layout.num_levels if child is None else child
                factors = []
                for d in meta.irrelevant_idx:
                    dim = layout.dims[d]
                    outer = factor_entry((dim, cut, parent, False))
                    inner = (
                        factor_entry((dim, cut, parent, True))
                        if child is not None
                        else None
                    )
                    if outer is not None or inner is not None:
                        factors.append((d, outer, inner))
                self._row_plan.append(
                    (
                        meta.is_output,
                        parent,
                        child,
                        tensor.base_const,
                        tuple(
                            (
                                tuple((d, tile_rows[d][cut]) for d in dims),
                                lead,
                                weights,
                            )
                            for dims, lead, weights in tensor.base_ranks
                        ),
                        tuple(
                            (d, qual_rows[d][cut]) for d in meta.relevant_idx
                        ),
                        tuple(factors),
                    )
                )
        self._stacks = [np.array(rows, dtype=np.int64) for rows in stacks]
        # The bound reads the same per-chain tiles and qualifying
        # positions: let it read them from the stacks, one copy of each.
        for d, dim in enumerate(layout.dims):
            for cut, row in tile_rows[d].items():
                self.tiles[dim][cut] = self._stacks[d][row]
            for cut, row in qual_rows[d].items():
                self.qual[dim][cut] = self._stacks[d][row]

    # -- pricing enumerated rows -------------------------------------------
    #
    # ``rows`` is an ``(n, num_dims)`` int64 array of indices into this
    # engine's menus, holding only candidates that passed the
    # enumeration's fanout and capacity masks (a :class:`MappingBatch`'s
    # ``menu_rows``). Each method is the table form of one stage of
    # :meth:`BatchEvaluator.evaluate_batch` over the same rows packed.

    def row_overflow(self, rows: Any) -> Any:
        """The overflow guard: its rule on the chains' float bound
        products, gathered per row (skipped when even the menus' largest
        products pass it)."""
        if self._overflow_free:
            return np.zeros(len(rows), dtype=bool)
        return self.engine._overflow_of(
            np.stack(
                [p[rows[:, d]] for d, p in enumerate(self._bound_products)],
                axis=1,
            )
        )

    def row_valid(self, rows: Any) -> Any:
        """Validity: each chain's own coverage and dataflow checks (the
        joint fanout and capacity checks passed at enumeration)."""
        valid = np.ones(len(rows), dtype=bool)
        for d, chain_valid in self._chain_valid:
            valid &= chain_valid[rows[:, d]]
        return valid

    def row_cycles(self, rows: Any) -> Any:
        """Cycles: the product of the chains' cycle factors."""
        cycles = self.cycles[self.layout.dims[0]][rows[:, 0]]
        for d, dim in enumerate(self.layout.dims[1:], start=1):
            cycles = cycles * self.cycles[dim][rows[:, d]]
        return cycles

    def row_traffic(self, rows: Any, live: Any) -> Tuple[Any, Any]:
        """Exact per-level reads/writes of ``rows[live]``, from the tables.

        :meth:`BatchEvaluator._traffic` for enumerated rows, which all
        share the virtual grid's positions: each boundary's rank delivery
        sums read the rows' delivered tiles at its cut, its cutoff is the
        maximum of its relevant dims' qualifying positions, and its
        multipliers are products over its irrelevant dims of factor
        table cells, at that cutoff for the outer and inner ones and at
        cutoff -1 for the spatial-only ones (which never select a
        temporal loop). The same int64 terms accumulate in the same
        places, so reads and writes equal the column walk's exactly.
        Returns ``(reads, writes)``, int64 ``[levels, rows]``.
        """
        layout = self.layout
        picked = rows[live]
        m = len(picked)
        idx = [
            np.ascontiguousarray(picked[:, d]) for d in range(layout.num_dims)
        ]
        stats = [
            np.take(stack, i, axis=1) for stack, i in zip(self._stacks, idx)
        ]
        reads = np.zeros((layout.num_levels, m), dtype=np.int64)
        writes = np.zeros((layout.num_levels, m), dtype=np.int64)
        for entry in self._row_plan:
            is_output, parent, child, base, ranks, relevant, factors = entry
            for dims, lead, weights in ranks:
                counts = [stats[d][k] for d, k in dims]
                total = lead * functools.reduce(operator.mul, counts)
                for j, weight in enumerate(weights):
                    rest = counts[:j] + counts[j + 1:]
                    total = total + weight * (
                        functools.reduce(operator.mul, rest) if rest else 1
                    )
                base = base * total
            outer = inner = outer_sp = inner_sp = base
            if factors:
                column = 1 + functools.reduce(
                    np.maximum, (stats[d][k] for d, k in relevant), -1
                )
                for d, outer_factors, inner_factors in factors:
                    if outer_factors is not None:
                        flat, width, sp = outer_factors
                        outer = outer * flat.take(idx[d] * width + column)
                        outer_sp = outer_sp * stats[d][sp]
                    if inner_factors is not None:
                        flat, width, sp = inner_factors
                        inner = inner * flat.take(idx[d] * width + column)
                        inner_sp = inner_sp * stats[d][sp]
            if not is_output:
                reads[parent] += outer
                if child is not None:
                    writes[child] += inner
            else:
                writes[parent] += outer
                reads[parent] += outer - outer_sp
                if child is not None:
                    reads[child] += inner
                    writes[child] += inner - inner_sp
        return reads, writes

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

    def _work(self, name: str, shape: Tuple[int, ...]) -> Any:
        """Work array ``name`` of ``shape`` (contents undefined).

        One flat buffer per name, grown on demand and reused by every
        later grid: a fresh grid-sized temporary per product would be
        paged in anew on each call.
        """
        size = math.prod(shape)
        buffer = self._work_arrays.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._work_arrays[name] = np.empty(
                size, dtype=_WORK_DTYPES[name]
            )
        return buffer[:size].reshape(shape)

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

        Products and the energy sum that span the whole grid go into the
        engine's work arrays (:meth:`_work`); the returned grid is always
        a fresh array.
        """
        layout = self.layout
        engine = self.engine
        picks = {
            dim: np.asarray(
                (select or {}).get(dim, np.arange(len(self.menus[dim]))),
                dtype=np.int64,
            )
            for dim in layout.dims
            if dim in swept
        }
        shape = tuple(cells.size for cells in picks.values())
        # A swept dimension with a single pick is priced as assigned, so
        # the grid has no size-1 axes (NumPy's loops over them are slow);
        # the result gets them back at the end.
        assigned = dict(assigned)
        for dim, cells in picks.items():
            if cells.size == 1:
                assigned[dim] = int(cells[0])
        axes = [dim for dim, cells in picks.items() if cells.size > 1]
        grid = tuple(picks[dim].size for dim in axes)

        # Each swept dimension's menu indices, laid along its own axis:
        # gathering a per-chain table with them spreads it onto the grid.
        menu_idx = {}
        for axis, dim in enumerate(axes):
            view = [1] * len(axes)
            view[axis] = grid[axis]
            menu_idx[dim] = picks[dim].reshape(view)
        cells = math.prod(grid)
        work = {name: self._work(name, grid) for name in _GRID_WORK}

        def into(name: str, ufunc: Any, a: Any, b: Any) -> Any:
            """``ufunc(a, b)``, into work array ``name`` when an operand
            spans the whole grid (in place when ``a`` is that array)."""
            if getattr(a, "size", 1) == cells or getattr(b, "size", 1) == cells:
                return ufunc(a, b, out=work[name])
            return ufunc(a, b)

        def factor(
            dim: str, cut: int, parent: int, inner: bool, cutoff_idx: Any
        ) -> Any:
            table, table_min = self.factors[(dim, cut, parent, inner)]
            if dim in menu_idx:
                # The cutoff grid spans relevant dims only, so it is 1
                # along this dim's axis: gather the picked rows at every
                # cutoff and swap the row axis into that place.
                rows = table[picks[dim]]
                if not np.ndim(cutoff_idx):
                    return rows[:, cutoff_idx].reshape(menu_idx[dim].shape)
                cells = rows.take(
                    cutoff_idx,
                    axis=1,
                    out=self._work("factor", (len(rows), *cutoff_idx.shape)),
                )
                return cells.swapaxes(0, axes.index(dim) + 1)[0]
            idx = assigned.get(dim)
            return (table_min if idx is None else table[idx])[cutoff_idx]

        def cycles_grid() -> Any:
            cycles: Any = np.int64(1)
            for dim in layout.dims:
                idx = assigned.get(dim)
                if dim in menu_idx:
                    factor_d = self.cycles[dim][menu_idx[dim]]
                elif idx is not None:
                    factor_d = int(self.cycles[dim][idx])
                else:
                    factor_d = self.min_cycles[dim]
                cycles = into("traffic", np.multiply, cycles, factor_d)
            return cycles

        if objective == "delay":
            return (
                np.broadcast_to(cycles_grid(), grid)
                .astype(float)
                .reshape(shape)
            )
        energy: Any = np.float64(engine.compute_energy)
        for meta in layout.tensors:
            for parent, child in meta.boundaries:
                cut = layout.num_levels if child is None else child
                base, ranks = self._grid_ranks[meta.name]
                for rank in ranks:
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
                    base = into("base", np.multiply, base, best)
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
                # Traffic, outer then inner: the rank sums times the
                # projection factors (all-1 factor tables skipped), each
                # priced into the energy sum before the next is formed.
                if not meta.is_output:
                    terms = [(engine.read_pj[parent], False)]
                    if child is not None:
                        terms.append((engine.write_pj[child], True))
                else:
                    terms = [(engine.write_pj[parent], False)]
                    if child is not None:
                        terms.append((engine.read_pj[child], True))
                for pj, inner in terms:
                    traffic: Any = base
                    for d in meta.irrelevant_idx:
                        dim = layout.dims[d]
                        if (dim, cut, parent, inner) not in self.unit_factors:
                            traffic = into(
                                "traffic", np.multiply, traffic,
                                factor(dim, cut, parent, inner, cutoff_idx),
                            )
                    term = into("term", np.multiply, pj, traffic)
                    energy = into("energy", np.add, energy, term)
        if objective == "energy":
            return np.broadcast_to(energy, grid).astype(float).reshape(shape)
        # The float product of energy and the int64 cycles, fresh.
        edp = np.multiply(energy, cycles_grid())
        return np.broadcast_to(edp, grid).reshape(shape)

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
