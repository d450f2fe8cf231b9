"""MapSpace: samples and enumerates complete mappings.

Combines per-dimension bound chains (from the allocator) with loop-order
(permutation) choices into :class:`~repro.mapping.nest.Mapping` objects,
respecting joint spatial-fanout budgets across dimensions.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import random
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.arch.spec import Architecture
from repro.exceptions import MapspaceError
from repro.mapping.loop import Loop
from repro.mapping.nest import LevelNest, Mapping
from repro.mapspace.allocation import (
    ChainTable,
    DimAllocator,
    DimChain,
    bound_tables,
    cell_bits,
    check_rng,
)
from repro.mapspace.constraints import ConstraintSet
from repro.mapspace.slots import Slot, build_slots
from repro.obs import scope as _obs
from repro.utils.batching import DEFAULT_BATCH_SIZE
from repro.utils.rng import make_rng

if TYPE_CHECKING:
    from repro.model.batch import MappingBatch

#: Candidate cells (head rows x tail rows) masked per enumeration step.
#: Bounded so the step's mask and extent temporaries stay small: on a
#: conv5_expand PFM sweep (2-core host), 8,192-cell steps cut enumeration
#: from about 0.06 s to 0.04 s but raised peak RSS by 1.6 MB.
_INDEX_CHUNK = 2048


@functools.lru_cache(maxsize=None)
def _swaps(length: int) -> Tuple[Tuple[int, int], ...]:
    """``random.shuffle``'s swap loop over ``length`` items: one ``(k,
    bits)`` per step, ``k`` from ``length - 1`` down to 1, drawing ``j <=
    k`` from ``getrandbits(bits)`` with ``bits = (k + 1).bit_length()``."""
    return tuple((k, (k + 1).bit_length()) for k in range(length - 1, 0, -1))


class MapspaceKind(str, enum.Enum):
    """The four mapspaces studied by the paper."""

    PFM = "pfm"
    RUBY = "ruby"
    RUBY_S = "ruby-s"
    RUBY_T = "ruby-t"

    @property
    def spatial_imperfect(self) -> bool:
        """Whether spatial slots may take non-divisor bounds."""
        return self in (MapspaceKind.RUBY, MapspaceKind.RUBY_S)

    @property
    def temporal_imperfect(self) -> bool:
        """Whether temporal slots may take non-divisor bounds."""
        return self in (MapspaceKind.RUBY, MapspaceKind.RUBY_T)


class MapSpace:
    """A mapspace for one (architecture, workload, kind) triple.

    Args:
        arch: target accelerator.
        workload: tensor operation to map.
        kind: which factorization regime to use.
        constraints: optional dataflow constraints.
    """

    BYPASS_PROBABILITY = 0.2

    def __init__(
        self,
        arch: Architecture,
        workload,
        kind: MapspaceKind,
        constraints: Optional[ConstraintSet] = None,
        sampling: str = "structured",
        explore_bypass: bool = False,
    ) -> None:
        self.arch = arch
        self.workload = workload
        self.kind = MapspaceKind(kind)
        self.constraints = constraints or ConstraintSet()
        self.explore_bypass = explore_bypass
        self.slots: List[Slot] = build_slots(arch, self.constraints)
        self.allocator = DimAllocator(
            self.slots,
            spatial_imperfect=self.kind.spatial_imperfect,
            temporal_imperfect=self.kind.temporal_imperfect,
            sampling=sampling,
        )
        # Bypass candidates: every non-outermost level a tensor may use.
        self._bypass_candidates = [
            (level.name, tensor.name)
            for level in arch.levels[1:]
            for tensor in workload.tensors
            if level.keeps_tensor(tensor.name)
        ]
        # Imperfect mapspaces contain the perfect one; drawing an all-exact
        # sample now and then keeps their random search from ever lagging a
        # PFM search merely for lack of density on the perfect sub-space.
        self._perfect_allocator: Optional[DimAllocator] = None
        if self.kind is not MapspaceKind.PFM:
            self._perfect_allocator = DimAllocator(
                self.slots,
                spatial_imperfect=False,
                temporal_imperfect=False,
                sampling=sampling,
            )
        self._dim_names: Tuple[str, ...] = tuple(workload.dim_names)
        self._sizes = {dim: workload.size(dim) for dim in self._dim_names}
        self._spatial_caps = {
            offset: slot.fanout_cap
            for offset, slot in enumerate(self.slots)
            if slot.spatial
        }
        self._caps = np.array(list(self._spatial_caps.values()), np.int64)
        # Per level: (name, mask of its cells, lazily filled nest entries
        # per masked cell set, fixed-permutation rank per flat cell or
        # None). A cell is ``offset * num_dims + d`` (see ``cell_bits``).
        num_dims = len(self._dim_names)
        self._level_plan: List[tuple] = []
        for level_index, level in enumerate(arch.levels):
            level_mask = 0
            for offset, slot in enumerate(self.slots):
                if slot.level_index == level_index:
                    level_mask |= ((1 << num_dims) - 1) << (offset * num_dims)
            fixed = self.constraints.permutation(level.name)
            rank = {dim: i for i, dim in enumerate(fixed or ())}
            self._level_plan.append((
                level.name,
                level_mask,
                {},
                [
                    rank.get(self._dim_names[cell % num_dims], len(rank))
                    for cell in range(len(self.slots) * num_dims)
                ]
                if fixed else None,
            ))
        # The sampler's per-allocator plans (workload dim order), the
        # chain tables both allocators draw into with one NumPy row
        # (bounds then remainders) per chain, the dim shuffle's swaps, and
        # the fresh spatial budgets of one draw, indexed by slot offset.
        self._dim_plans = {
            allocator: [
                allocator.plan(dim, self._sizes[dim]) for dim in self._dim_names
            ]
            for allocator in (self.allocator, self._perfect_allocator)
            if allocator is not None
        }
        self._tables = [
            ChainTable(self._sizes[dim], d, num_dims)
            for d, dim in enumerate(self._dim_names)
        ]
        self._reset_rows()
        self._dim_order = list(range(num_dims))
        self._dim_swaps = _swaps(num_dims)
        self._budgets = [slot.fanout_cap for slot in self.slots]
        self._batch_layout = None
        self._dim_chain_menus: Optional[List[Tuple[str, Tuple[DimChain, ...]]]] = None
        self._menu_tables_cache: Optional[list] = None
        self._menu_masks: Optional[tuple] = None

    def sample(self, rng: Optional[random.Random] = None) -> Mapping:
        """Sample one mapping (bounds, remainders, permutations, bypass)."""
        return self.sample_batch(rng, 1).mapping_at(0)

    def sample_batch(
        self, rng: Optional[random.Random], n: int
    ) -> "MappingBatch":
        """Draw ``n`` mappings straight into one packed batch.

        Consumes exactly the RNG stream of ``n`` calls to :meth:`sample`
        (which is this with ``n=1``), per draw: the chains (as
        :meth:`sample_chains` draws them), each level's temporal-loop
        shuffle, then the bypass rolls. Each draw lands as one row of a
        :class:`~repro.model.batch.MappingBatch` holding its bounds,
        remainders and real nest positions — no ``Mapping`` is built, and
        :meth:`MappingBatch.mapping_at` rebuilds one on demand. A draw
        with a bypass set is flagged ``fallback`` with an identity row and
        keeps its ``Mapping``, exactly as
        :func:`~repro.model.batch.pack_mappings` packs it.

        The RNG must pass :func:`~repro.mapspace.allocation.check_rng`
        (``random.Random`` and ``SystemRandom`` do); any other raises
        :class:`MapspaceError` before a draw. Every integer draw is
        ``random.Random._randbelow_with_getrandbits`` inlined on
        ``rng.getrandbits`` with its bit length precomputed. Per draw this
        is one :meth:`DimAllocator.draw` call, which yields a chain id per
        dimension into the space's chain tables and the OR of the chains'
        cell bits, and one :meth:`_nest_cells` call, which reads each
        level's loops from that mask; all of it runs inside one
        ``mapspace.sample`` span (``draws`` = ``n``). The batch's bounds
        and remainders are then gathered from the tables' NumPy rows by
        chain id and its nest positions set by one scatter. The tables
        hold at most ``_CHAIN_MEMO_LIMIT`` chains (~460 B each on Eyeriss,
        ~30 MB) at the start of a call; they are cleared between calls,
        never inside one.
        """
        from repro.model.batch import MappingBatch

        rng = make_rng(rng)
        check_rng(rng)
        getrandbits, random_ = rng.getrandbits, rng.random
        _obs.inc("mapspace.samples", n)
        num_slots, num_dims = len(self.slots), len(self._dim_names)
        tables = self._bounded_tables()
        # Each draw's chain ids (workload dim order), and the concatenated
        # nest cells with each draw's end, turned into arrays at the end.
        ids: List[int] = []
        cells: List[int] = []
        ends: List[int] = []
        bypass: Dict[int, list] = {}
        roll_bypass = self.explore_bypass and self._bypass_candidates
        with _obs.trace("mapspace.sample", draws=n):
            for i in range(n):
                allocator, plans, order, budgets = self._draw_setup(
                    getrandbits, random_
                )
                row, mask = allocator.draw(
                    plans, tables, order, budgets, getrandbits, random_
                )
                ids += row
                self._nest_cells(mask, getrandbits, cells)
                ends.append(len(cells))
                if roll_bypass:
                    pairs = [
                        pair
                        for pair in self._bypass_candidates
                        if random_() < self.BYPASS_PROBABILITY
                    ]
                    if pairs:
                        bypass[i] = pairs

        chain_ids = np.array(ids, dtype=np.int64).reshape(n, num_dims)
        gathered = np.empty((n, num_dims, 2 * num_slots), dtype=np.int64)
        for d in range(num_dims):
            gathered[:, d] = self._rows(d)[chain_ids[:, d]]
        # A draw's k-th cell sits at nest position k.
        ends_at = np.array(ends, dtype=np.int64)
        counts = np.diff(ends_at, prepend=0)
        starts = np.repeat(ends_at - counts, counts)
        pos = np.full(n * num_slots * num_dims, -1, dtype=np.int64)
        pos[
            np.repeat(np.arange(n) * (num_slots * num_dims), counts)
            + np.array(cells, dtype=np.int64)
        ] = np.arange(len(cells)) - starts
        batch = MappingBatch(
            layout=self.batch_layout(),
            bounds=np.ascontiguousarray(
                gathered[:, :, :num_slots].transpose(0, 2, 1)
            ),
            rems=np.ascontiguousarray(
                gathered[:, :, num_slots:].transpose(0, 2, 1)
            ),
            pos=pos.reshape(n, num_slots, num_dims),
            fallback=np.zeros(n, dtype=bool),
        )
        if bypass:
            batch.mappings = {
                i: batch.mapping_at(i).with_bypass(pairs)
                for i, pairs in bypass.items()
            }
            rows = list(bypass)
            batch.bounds[rows] = 1
            batch.rems[rows] = 1
            batch.pos[rows] = -1
            batch.fallback[rows] = True
        return batch

    def _reset_rows(self) -> None:
        """Empty the tables' NumPy rows: per dim, an array whose first
        ``_rows_filled[d]`` rows mirror the table (the rest is spare)."""
        width = 2 * len(self.slots)
        self._table_rows = [np.empty((0, width), np.int64) for _ in self._tables]
        self._rows_filled = [0] * len(self._tables)

    def _bounded_tables(self) -> List[ChainTable]:
        """The chain tables, cleared first if they reached their bound
        (with their NumPy rows and the levels' nest entries)."""
        if bound_tables(self._tables):
            self._reset_rows()
            for _, _, entries, _ in self._level_plan:
                entries.clear()
        return self._tables

    def _rows(self, d: int) -> np.ndarray:
        """Dimension ``d``'s chain table as NumPy rows of bounds then
        remainders, indexed by chain id: the chains added since the last
        call are appended, into an array grown by doubling."""
        table, rows = self._tables[d], self._table_rows[d]
        filled, count = self._rows_filled[d], len(table.bounds)
        if filled < count:
            if count > len(rows):
                grown = np.empty((max(count, 2 * len(rows)), rows.shape[1]), np.int64)
                grown[:filled] = rows[:filled]
                rows = self._table_rows[d] = grown
            rows[filled:count] = [
                b + r for b, r in zip(table.bounds[filled:], table.rems[filled:])
            ]
            self._rows_filled[d] = count
        return rows

    PERFECT_SEED_PROBABILITY = 0.15

    def _draw_setup(
        self, getrandbits: Callable[[int], int], random_: Callable[[], float]
    ) -> Tuple[DimAllocator, list, List[int], List[int]]:
        """One draw's allocator, its plans, dim order and fresh budgets.

        Draws the perfect-allocator roll, then shuffles the dim indices
        with ``random.shuffle``'s own swap loop.
        """
        allocator = self.allocator
        if (
            self._perfect_allocator is not None
            and random_() < self.PERFECT_SEED_PROBABILITY
        ):
            allocator = self._perfect_allocator
        order = self._dim_order[:]
        for k, bits in self._dim_swaps:
            j = getrandbits(bits)
            while j > k:
                j = getrandbits(bits)
            order[k], order[j] = order[j], order[k]
        return allocator, self._dim_plans[allocator], order, self._budgets[:]

    def sample_chains(
        self, rng: Optional[random.Random] = None
    ) -> Dict[str, DimChain]:
        """Sample per-dimension bound chains under the joint fanout budget.

        The dict iterates in the draw's (shuffled) dim order. The RNG is
        held to :meth:`sample_batch`'s requirement.
        """
        rng = make_rng(rng)
        check_rng(rng)
        getrandbits, random_ = rng.getrandbits, rng.random
        tables = self._bounded_tables()
        allocator, plans, order, budgets = self._draw_setup(getrandbits, random_)
        ids, _ = allocator.draw(
            plans, tables, order, budgets, getrandbits, random_
        )
        names = self._dim_names
        return {
            names[k]: DimChain(
                names[k], tables[k].bounds[ids[k]], tables[k].rems[ids[k]]
            )
            for k in order
        }

    def resample_dim(
        self,
        chains: Dict[str, DimChain],
        dim: str,
        rng: Optional[random.Random] = None,
    ) -> Dict[str, DimChain]:
        """Return a copy of ``chains`` with ``dim`` re-allocated.

        The fanout budget offered to ``dim`` is whatever the other
        dimensions leave free — the mutation operator of the genetic search.
        The RNG is held to :meth:`sample_batch`'s requirement.
        """
        rng = make_rng(rng)
        budgets = self.remaining_budgets(chains, exclude=dim)
        updated = dict(chains)
        updated[dim] = self.allocator.sample_chain(
            dim, self._sizes[dim], rng, budgets
        )
        return updated

    def remaining_budgets(
        self, chains: Dict[str, DimChain], exclude: Optional[str] = None
    ) -> Dict[int, int]:
        """Spatial budget left at each spatial slot given ``chains``."""
        budgets = dict(self._spatial_caps)
        for offset in list(budgets):
            used = 1
            for dim, chain in chains.items():
                if dim == exclude:
                    continue
                used *= chain.bounds[offset]
            budgets[offset] = max(0, budgets[offset] // used)
        return budgets

    def chains_within_fanout(self, chains: Dict[str, DimChain]) -> bool:
        """True if the joint spatial allocation fits every slot cap.

        ``chains`` may be a prefix: unassigned dimensions contribute a
        spatial bound of at least 1, so a prefix that already exceeds a
        cap has no feasible completion. Serves chains that need not be
        in any menu (genetic repair, :meth:`enumerate_mappings`); menu
        indices go through :meth:`block_fits`, which decides the same
        rule for a whole block at once.
        """
        for offset, slot in enumerate(self.slots):
            if not slot.spatial:
                continue
            used = 1
            for chain in chains.values():
                used *= chain.bounds[offset]
            if used > slot.fanout_cap:
                return False
        return True

    # -- prefix enumeration ----------------------------------------------
    #
    # The flat enumeration (enumerate_mappings / iter_batches) walks the
    # cartesian product of per-dimension chain menus. A *prefix* fixes the
    # chains of a subset of dimensions, as one row of menu indices (-1 for
    # a free dimension); the prefix tree over dimensions is
    # the decomposition under which the cost model factors exactly (cycles
    # are a per-dim product, delivered-tile counts are per-dim folds), so a
    # hierarchical searcher can bound and prune whole subtrees before they
    # are ever enumerated.

    def dim_chain_menus(self) -> List[Tuple[str, Tuple[DimChain, ...]]]:
        """Per-dimension chain menus in workload dim order (cached).

        Each menu is the full ``enumerate_chains`` list for that dimension;
        the flat enumeration is exactly the joint-fanout-filtered cartesian
        product of these menus.
        """
        if self._dim_chain_menus is None:
            self._dim_chain_menus = [
                (
                    dim,
                    tuple(
                        self.allocator.enumerate_chains(
                            dim, self.workload.size(dim)
                        )
                    ),
                )
                for dim in self.workload.dim_names
            ]
        return self._dim_chain_menus

    def enumeration_upper_bound(self) -> int:
        """Cheap upper bound on the flat enumeration: the menu-size
        product *before* joint-fanout filtering.

        Costs one multiply per dimension (menus are cached), unlike
        :meth:`count_completions`, which filters the whole product. Used as
        the total-work estimate for exhaustive-search progress tracking —
        an over-estimate only tightens to 1.0 when the run finishes.
        """
        total = 1
        for _, menu in self.dim_chain_menus():
            total *= len(menu)
        return total

    def count_completions(self, prefixes: Optional[np.ndarray] = None) -> int:
        """Exact number of enumerated mappings completing ``prefixes``.

        ``prefixes`` are menu-index rows as :meth:`iter_prefix_batches`
        takes them; ``None`` is the one all-free row, the whole flat
        enumeration. Counts the joint-fanout-filtered product of each
        row's free menus with its pinned dims fixed, summed over the
        rows. Over all chains of any one dimension this reproduces the
        flat count exactly (the prefix tree partitions the enumeration)
        — asserted by the prefix-counting tests. Counts the candidates
        :meth:`iter_prefix_batches` resolves (the sum of its batches'
        spans, capacity-infeasible candidates included), without packing.
        """
        rows = self._free_row() if prefixes is None else prefixes
        return sum(
            count
            for count, _ in self._feasible_index_rows(self._check_rows(rows))
        )

    def sample_many(
        self, count: int, rng: Optional[random.Random] = None
    ) -> List[Mapping]:
        """Sample ``count`` mappings from one RNG stream."""
        batch = self.sample_batch(rng, count)
        return [batch.mapping_at(i) for i in range(count)]

    def assemble(
        self, chains: Dict[str, DimChain], rng: Optional[random.Random] = None
    ) -> Mapping:
        """Build a Mapping from per-dim chains, ordering loops per level.

        With ``rng`` each level's temporal loops are shuffled as
        :meth:`sample_batch` shuffles them (the RNG is held to its
        requirement); without, they keep canonical order.
        """
        ordered = [chains[dim] for dim in self._dim_names]
        num_dims = len(ordered)
        getrandbits = None
        if rng is not None:
            check_rng(rng)
            getrandbits = rng.getrandbits
        mask = 0
        for d, chain in enumerate(ordered):
            mask |= cell_bits(chain.bounds, d, num_dims)
        cells: List[int] = []
        self._nest_cells(mask, getrandbits, cells)
        temporal: List[List[Loop]] = [[] for _ in self._level_plan]
        spatial: List[List[Loop]] = [[] for _ in self._level_plan]
        for cell in cells:
            offset, d = divmod(cell, num_dims)
            slot = self.slots[offset]
            (spatial if slot.spatial else temporal)[slot.level_index].append(
                Loop(
                    self._dim_names[d],
                    ordered[d].bounds[offset],
                    ordered[d].remainders[offset],
                    spatial=slot.spatial,
                    axis=slot.axis,
                )
            )
        return Mapping(
            levels=tuple(
                LevelNest(
                    level_name=plan[0],
                    temporal=tuple(temporal[index]),
                    spatial=tuple(spatial[index]),
                )
                for index, plan in enumerate(self._level_plan)
            )
        )

    def _nest_cells(
        self,
        mask: int,
        getrandbits: Optional[Callable[[int], int]],
        cells: List[int],
    ) -> None:
        """Append every loop of the nest to ``cells``, in nest order.

        ``mask`` holds the nest's loops as cell bits (``cell_bits`` of
        each dim's chain). Levels come outer to inner, each as its
        temporal cells then its spatial cells, both in slot, then dim,
        order, read from the level's table of ``mask``'s cells on it
        (filled on first use). The temporal cells of a level with two or
        more are shuffled with ``random.shuffle``'s own swap loop when
        ``getrandbits`` is given (``m`` loops make ``m - 1`` integer
        draws), then stably sorted by the level's fixed permutation — the
        one loop-order rule behind both :meth:`assemble` and the rows of
        :meth:`sample_batch`.
        """
        for _, level_mask, entries, rank in self._level_plan:
            key = mask & level_mask
            entry = entries.get(key)
            if entry is None:
                entry = entries[key] = self._level_entry(key)
            loops, swaps, tail = entry
            if swaps:
                loops = list(loops)
                if getrandbits is not None:
                    for k, bits in swaps:
                        j = getrandbits(bits)
                        while j > k:
                            j = getrandbits(bits)
                        loops[k], loops[j] = loops[j], loops[k]
                if rank is not None:
                    loops.sort(key=rank.__getitem__)
                cells += loops
            cells += tail

    def _level_entry(self, key: int) -> tuple:
        """One level's ``(temporal cells, their swaps, tail)`` for the
        cell bits ``key``: a level with fewer than two temporal loops has
        nothing to order and keeps them in ``tail`` before its spatial
        cells."""
        num_dims = len(self._dim_names)
        temporal: List[int] = []
        spatial: List[int] = []
        for cell in range(key.bit_length()):
            if key >> cell & 1:
                is_spatial = self.slots[cell // num_dims].spatial
                (spatial if is_spatial else temporal).append(cell)
        if len(temporal) < 2:
            return (), (), tuple(temporal + spatial)
        return tuple(temporal), _swaps(len(temporal)), tuple(spatial)

    def enumerate_mappings(
        self, limit: Optional[int] = None
    ) -> Iterator[Mapping]:
        """Exhaustively yield mappings (joint fanout filtered).

        Every level keeps canonical (workload) dim order. Only feasible
        for toy problems — imperfect mapspaces are huge.
        """
        menus = [menu for _, menu in self.dim_chain_menus()]
        emitted = 0
        for combo in itertools.product(*menus):
            chains = {chain.dim: chain for chain in combo}
            if not self.chains_within_fanout(chains):
                continue
            yield self.assemble(chains, rng=None)
            emitted += 1
            if limit is not None and emitted >= limit:
                return

    def batch_layout(self):
        """The columnar :class:`~repro.model.batch.BatchLayout` of this space.

        Built once and cached. The layout's column grid mirrors this
        space's slots one-to-one (both derive the same fixed skeleton from
        the architecture), and its virtual position numbering honours the
        constraints' fixed permutations so materialized batch rows equal
        what :meth:`assemble` produces with ``rng=None``.
        """
        if self._batch_layout is not None:
            return self._batch_layout
        from repro.model.batch import BatchLayout

        priorities = {
            level.name: self.constraints.permutation(level.name)
            for level in self.arch.levels
        }
        layout = BatchLayout(
            self.arch, self.workload, permutation_priority=priorities
        )
        columns = [(c.level_index, c.spatial, c.axis) for c in layout.columns]
        slots = [(s.level_index, s.spatial, s.axis) for s in self.slots]
        if columns != slots:
            raise MapspaceError(
                "batch layout columns do not mirror the mapspace slots; "
                "the columnar encoding cannot represent this architecture"
            )
        self._batch_layout = layout
        return layout

    def iter_batches(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE,
        capacity: bool = True,
    ) -> Iterator["object"]:
        """Exhaustively enumerate straight into packed columnar batches.

        The batch analogue of :meth:`enumerate_mappings`: identical chain
        combinations in identical order (same joint-fanout filter), but
        each candidate lands as a row of a
        :class:`~repro.model.batch.MappingBatch` — no ``Mapping``
        objects, no per-candidate Python loop-nest assembly. Positions are
        the layout's virtual grid numbering, which is order-isomorphic to
        the real nest positions, so batch evaluation results are bit-exact
        against the scalar evaluator; rows can still be materialized on
        demand via :meth:`MappingBatch.mapping_at`.

        This is :meth:`iter_prefix_batches` of the one all-free row;
        ``capacity`` is its capacity prefilter.
        """
        yield from self.iter_prefix_batches(
            self._free_row(), batch_size=batch_size, capacity=capacity
        )

    def iter_prefix_batches(
        self,
        prefixes: np.ndarray,
        batch_size: int = DEFAULT_BATCH_SIZE,
        tags: Optional[Sequence[int]] = None,
        capacity: bool = True,
    ) -> Iterator["object"]:
        """Enumerate many prefixes' completions into *shared* packed batches.

        ``prefixes`` are menu-index rows: an ``(n, num_dims)`` integer
        array in workload dim order holding each pinned dimension's index
        into :meth:`dim_chain_menus` and ``-1`` for a free dimension
        (:meth:`iter_batches` passes one all-free row). Rows of another
        shape or dtype, or with an index outside ``[-1, menu length)``,
        raise :class:`~repro.exceptions.MapspaceError`.

        Rows from consecutive prefixes share one fill buffer, so pricing a
        large set of small subtrees (the branch-and-bound leaf regime)
        still produces full-width batches — one partial batch per call,
        not one per subtree. Within each prefix the candidate order
        matches :meth:`iter_batches` exactly.

        With ``capacity`` set (the default), only candidates whose tiles
        fit every bounded level are yielded: capacity depends on each
        dimension's chain alone, so it is decided on menu indices from
        per-chain extent tables, the same way the joint fanout is. Those
        batches keep their rows as menu indices (``menu_rows``) and pack
        them only when read, so a batch priced from per-chain tables is
        never packed. Searches that price rows
        one by one through the scalar evaluator turn it off, so that
        oracle still sees, checks and caches every candidate.
        The enumeration is still the fanout-feasible product: each batch
        records in ``span`` how many of its candidates it resolves (its
        rows plus the capacity-infeasible candidates before them, and for
        the last batch after them) and in ``ordinals`` each row's position
        among them, so the spans of one call sum to
        :meth:`count_completions` and ``ordinals`` give every row its
        candidate number. A call whose trailing candidates all fail
        capacity ends with an empty batch that carries their span.

        ``tags`` — when given, one int per prefix — stamps every row of a
        yielded batch with its source prefix's tag in ``batch.tags``, so
        callers that pack many subtrees into one batch can recover which
        subtree an improving row came from (provenance survives the
        fanout and capacity filters, which silently drop rows).
        """
        prefixes = self._check_rows(prefixes)
        if batch_size < 1:
            raise MapspaceError("batch_size must be >= 1")
        if tags is not None and len(tags) != len(prefixes):
            raise MapspaceError("tags must align one-to-one with prefixes")
        if (prefixes >= 0).all():
            yield from self._pinned_batches(
                prefixes, batch_size, tags, capacity
            )
            return
        tables = self._menu_tables()
        chunks = self._feasible_index_rows(prefixes, tags, capacity=capacity)
        num_dims = len(tables)

        def pack(rows, start, end):
            return self._enumerated_batch(
                tables,
                rows[:, :num_dims],
                rows[:, num_dims].copy() if tags is not None else None,
                end - start,
                rows[:, -1] - start,
                capacity,
            )

        held = np.empty((0, num_dims + 2), dtype=np.int64)
        # Candidates resolved by the batches yielded so far, and in all.
        resolved = total = 0
        while True:
            with _obs.trace("mapspace.enumerate"):
                step = next(chunks, None)
            if step is None:
                break
            count, rows = step
            total += count
            held = np.concatenate([held, rows])
            full = len(held) - len(held) % batch_size
            for start in range(0, full, batch_size):
                part = held[start:start + batch_size]
                end = int(part[-1, -1]) + 1
                yield pack(part, resolved, end)
                resolved = end
            held = held[full:]
        if len(held) or total > resolved:
            yield pack(held, resolved, total)

    def _free_row(self) -> np.ndarray:
        """The one all-free prefix row: the whole flat enumeration."""
        return np.full((1, len(self._dim_names)), -1, dtype=np.int64)

    def _check_rows(self, rows: Any) -> np.ndarray:
        """``rows`` as int64 menu-index prefix rows, or MapspaceError."""
        rows = np.asarray(rows)
        lens = np.array([len(table) for table in self._menu_tables()])
        if (
            rows.ndim != 2
            or rows.shape[1] != len(lens)
            or not np.issubdtype(rows.dtype, np.integer)
        ):
            raise MapspaceError(
                f"prefix rows must be a 2-D integer array of width "
                f"{len(lens)}, got {rows.dtype} of shape {rows.shape}"
            )
        if ((rows < -1) | (rows >= lens)).any():
            raise MapspaceError(
                f"prefix rows must hold menu indices in [-1, menu length) "
                f"(menu lengths {lens.tolist()})"
            )
        return rows.astype(np.int64, copy=False)

    def _menu_tables(self) -> List["np.ndarray"]:
        """Per-dimension tables of the chain menus (cached).

        ``table[k]`` is menu chain ``k`` as a ``(2, num_slots)`` int64 pair
        of bounds and remainders. What :meth:`block_fits` reads of them
        (:meth:`_mask_tables`) is cached alongside.
        """
        if self._menu_tables_cache is None:
            self._menu_tables_cache = [
                np.array(
                    [(c.bounds, c.remainders) for c in menu], np.int64
                ).reshape(-1, 2, len(self.slots))
                for _, menu in self.dim_chain_menus()
            ]
            self._menu_masks = self._mask_tables(self._menu_tables_cache)
        return self._menu_tables_cache

    def _mask_tables(self, tables: List["np.ndarray"]) -> tuple:
        """What the fanout and capacity masks read, per dimension's chains.

        Returns ``(fans, extents, shared)``. ``fans`` maps each dimension
        whose chains can change a fanout product to its chains' bounds at
        the spatial slots, ``(num_spatial_slots, len(tables[d]))``.
        ``extents[d]`` is ``(num_capacity_levels, len(tables[d]))`` int64:
        each chain's tile extent at every bounded level, the product of
        its bounds at that level and inside it (one row of
        :meth:`BatchLayout.capacity_extents`, per chain). ``shared[d]`` is
        the ``(num_capacity_levels,)`` extents every chain of the
        dimension shares (a one-chain menu, say), or ``None``.
        """
        spatial = list(self._spatial_caps)
        fans = {d: table[:, 0, spatial].T for d, table in enumerate(tables)}
        fans = {d: fan for d, fan in fans.items() if (fan > 1).any()}
        levels = self.batch_layout().capacity_levels
        extents = []
        for table in tables:
            ext = np.ones((len(levels), len(table)), dtype=np.int64)
            for j, (_, info) in enumerate(levels):
                for c in info["cols"]:
                    ext[j] *= table[:, 0, c]
            extents.append(ext)
        shared = [
            ext[:, 0] if (ext == ext[:, :1]).all() else None for ext in extents
        ]
        return fans, extents, shared

    def block_fits(
        self,
        index: Sequence[Any],
        shape: Tuple[int, ...],
        capacity: bool = True,
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Fanout and capacity masks of a block of candidates.

        ``index[d]`` holds dimension ``d``'s menu indices (workload dim
        order, into :meth:`dim_chain_menus`): an int, an int64 array of
        ``len(shape)`` dims that broadcasts to ``shape``, or ``None`` for
        a free dimension, which is skipped (no fanout factor, no tile
        extent): a block of prefixes fits as
        :meth:`chains_within_fanout` decides each. Each candidate of the
        block takes every other dimension's chain from its position
        there: a list of rows passes each dim's column, enumeration's
        head x tail blocks pass ``(B, 1)`` and ``(1, T)`` columns, and
        branch-and-bound's node expansion passes its branching menu as
        one axis. Returns two bool masks that broadcast to ``shape``:
        which candidates fit every joint fanout cap, and (with
        ``capacity``, else all True) which fit every bounded level.
        Per-chain fanout factors are multiplied for all caps at once,
        smallest shapes first, so a product spans a head x tail block
        only once both sides have joined it; usage is clamped at
        ``caps + 1`` (far from int64's range).
        """
        self._menu_tables()
        fans, extents, shared = self._menu_masks
        pinned = [d for d, k in enumerate(index) if k is not None]
        slots = (len(self._caps),) + (1,) * len(shape)
        used: Any = np.ones(slots, np.int64)
        for d in sorted(pinned, key=lambda d: np.shape(index[d])):
            if d in fans:
                factor = fans[d].take(index[d], axis=1)
                if not np.ndim(index[d]):
                    factor = factor.reshape(slots)
                used = np.minimum(used * factor, (self._caps + 1).reshape(slots))
        fit = np.broadcast_to(
            np.logical_and.reduce(used <= self._caps.reshape(slots)), shape
        )
        levels = self.batch_layout().capacity_levels
        if not (capacity and levels):
            return fit, np.broadcast_to(True, shape)
        per_dim = [
            np.ones(len(levels), np.int64) if index[d] is None
            else extents[d].take(index[d], axis=1) if same is None
            else same
            for d, same in enumerate(shared)
        ]
        room = self.batch_layout().fits_capacity(
            [[e[j] for e in per_dim] for j in range(len(levels))], shape
        )
        return fit, room

    def menu_mapping(self, row: Sequence[int]) -> Mapping:
        """The mapping of one menu-index row (workload dim order), as an
        enumerated batch materializes it (:meth:`MappingBatch.mapping_at`)."""
        cells = np.stack(
            [table[k] for table, k in zip(self._menu_tables(), row)], axis=-1
        )
        layout = self.batch_layout()
        return layout.materialize(cells[0], cells[1], layout.grid_pos)

    def _pinned_batches(
        self,
        rows: np.ndarray,
        batch_size: int,
        tags: Optional[Sequence[int]],
        capacity: bool,
    ) -> Iterator["object"]:
        """:meth:`iter_prefix_batches` of fully pinned menu-index rows.

        Each row is its own candidate, so the unravel is skipped: ``rows``
        are masked as a one-axis block (the branch-and-bound leaf
        pricing's case), and the survivors are cut into batches with the
        spans and ordinals the unravel path gives.
        """
        tables = self._menu_tables()
        tag_of = None if tags is None else np.asarray(tags, dtype=np.int64)
        with _obs.trace("mapspace.enumerate"):
            fit, room = self.block_fits(rows.T, (len(rows),), capacity)
            feasible = np.flatnonzero(fit)
            kept = np.arange(len(feasible))[room[feasible]]

        def pack(part, start, end):
            picked = feasible[part]
            return self._enumerated_batch(
                tables,
                rows[picked],
                None if tag_of is None else tag_of[picked],
                end - start,
                part - start,
                capacity,
            )

        full = len(kept) - len(kept) % batch_size
        resolved = 0
        for start in range(0, full, batch_size):
            part = kept[start:start + batch_size]
            end = int(part[-1]) + 1
            yield pack(part, resolved, end)
            resolved = end
        if len(kept) > full or len(feasible) > resolved:
            yield pack(kept[full:], resolved, len(feasible))

    def _enumerated_batch(
        self, tables, menu, tags, span, ordinals, capacity: bool
    ) -> "MappingBatch":
        """One enumerated batch of menu-index rows ``menu``.

        Only capacity-masked rows travel as menu indices (packed on first
        read); without ``capacity`` they are packed now. Positions are
        row-constant on the virtual grid, so ``pos`` is a read-only
        broadcast view (kernels never write it).
        """
        from repro.model.batch import MappingBatch, pack_menu_rows

        layout = self.batch_layout()
        n = len(menu)
        _obs.inc("mapspace.batches")
        _obs.inc("mapspace.candidates", n)
        if capacity:
            cells = {"menu_rows": menu, "menu_tables": tables}
        else:
            bounds, rems = pack_menu_rows(layout, tables, menu)
            cells = {"bounds": bounds, "rems": rems}
        return MappingBatch(
            layout=layout,
            pos=np.broadcast_to(
                layout.grid_pos[None], (n, *layout.grid_pos.shape)
            ),
            fallback=np.zeros(n, dtype=bool),
            tags=tags,
            span=span,
            ordinals=ordinals,
            **cells,
        )

    def _feasible_index_rows(
        self,
        pins: np.ndarray,
        tags: Optional[Sequence[int]] = None,
        capacity: bool = False,
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """The fanout-feasible completions of the prefix rows ``pins`` as
        menu indices.

        Yields one ``(count, rows)`` pair per step: ``count``
        fanout-feasible candidates, in :meth:`iter_batches` order, and
        ``rows``, an ``(n, num_dims + 2)`` int64 array of those
        candidates: one menu index per dimension, then the row's prefix
        tag, then its 0-based position among all fanout-feasible
        candidates of the call. With ``capacity`` set, rows whose tiles
        overflow a bounded level are left out of ``rows`` (``count``
        still counts them).

        Every prefix spans a mixed-radix block of ``prod(free menu
        lengths)`` candidates (one for a fully pinned prefix), laid end to
        end. Consecutive prefixes that leave the same dims free share a
        factoring of their blocks: the *tail* is the longest suffix of
        free dims whose menu product fits in one step of ``_INDEX_CHUNK``
        cells, and the *head* is each prefix's pinned dims plus the other
        free dims. The tail's rows are built once; each step unravels a
        block of head indices only, decides fanout and capacity on the
        head x tail cells by broadcasting (:meth:`block_fits`), and
        gathers the rows of the cells that survive.
        """
        menus = self._menu_tables()
        num_dims = len(menus)
        tag_of = np.asarray([0] * len(pins) if tags is None else tags, np.int64)
        radix = np.where(pins < 0, [len(table) for table in menus], 1)
        if radix.astype(float).prod(axis=1).sum() >= 2.0 ** 62:
            raise MapspaceError("enumeration too large to index")
        base = np.column_stack(
            [np.maximum(pins, 0), tag_of, np.zeros(len(pins), np.int64)]
        )
        capacity = capacity and bool(self.batch_layout().capacity_levels)
        # Runs of consecutive prefixes that leave the same dims free.
        cuts = list(np.flatnonzero((radix[1:] != radix[:-1]).any(axis=1)) + 1)
        runs = list(zip([0, *cuts], [*cuts, len(pins)])) if len(pins) else []
        chunk = _INDEX_CHUNK
        seen = 0
        for lo, hi in runs:
            digits = radix[lo].tolist()
            free = [d for d in range(num_dims) if digits[d] > 1]
            inner: List[int] = []
            size = 1
            while free and size * digits[free[-1]] <= chunk:
                inner.insert(0, free.pop())
                size *= digits[inner[0]]
            tail = np.zeros((size, num_dims + 2), np.int64)
            local = np.arange(size)
            for d in reversed(inner):
                local, tail[:, d] = np.divmod(local, digits[d])
            tail_index = {d: tail[None, :, d] for d in inner}
            # The head sets the prefix's pinned dims and the outer free
            # dims ``free``.
            heads = math.prod(digits[d] for d in free)
            total = (hi - lo) * heads
            width = max(1, chunk // size)
            for a in range(0, total, width):
                pid, local = np.divmod(
                    np.arange(a, min(a + width, total)), heads
                )
                head = base[lo + pid]
                for d in reversed(free):
                    local, digit = np.divmod(local, digits[d])
                    head[:, d] += digit
                fit, room = self.block_fits(
                    [
                        tail_index.get(d, head[:, d, None])
                        for d in range(num_dims)
                    ],
                    (len(head), size),
                    capacity,
                )
                order = np.cumsum(fit, axis=None)
                count = int(order[-1])
                cells = np.flatnonzero(fit & room)
                outer_row, tail_row = np.divmod(cells, size)
                kept = head[outer_row] + tail[tail_row]
                kept[:, -1] = order[cells] + (seen - 1)
                seen += count
                yield count, kept

