"""Per-dimension bound allocation: where PFM and Ruby actually differ.

A dimension of size ``D`` gets one bound per slot. Walking slots inner to
outer with a running residue ``V`` (initially ``D``):

* an **exact** slot must pick a divisor of ``V`` and leaves ``V / b``;
* an **imperfect** slot may pick any ``b`` and leaves ``ceil(V / b)`` — the
  shortfall becomes the Eq. (5) remainder on the globally-last iteration;
* the outermost temporal slot absorbs whatever residue remains.

Which slots are exact defines the mapspace: all exact = PFM; spatial free =
Ruby-S; temporal free = Ruby-T; all free = Ruby. The remainders are then
uniquely determined by the mixed-radix decomposition of ``D - 1`` over the
inner-to-outer bounds (see :func:`assign_remainders`), which is why
generation never has to search over remainder values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import MapspaceError
from repro.mapspace.slots import Slot
from repro.utils.mathx import ceil_div, divisors, mixed_radix_digits

#: Chains the chain tables of one sampler may hold together before they
#: are cleared (~460 B each on Eyeriss with their id entry, cell bits and
#: NumPy row, ~30 MB); they are cleared only between draw calls, never
#: inside one. Measured on Eyeriss: one 3,000-draw Fig. 10 search (PFM
#: or Ruby-S) draws 287-1,078 distinct chains, and 302,000 draws of
#: unconstrained Ruby on a 512x64x512 GEMM 34,919 and still growing, so
#: only very long runs over imperfect spaces reach it.
_CHAIN_MEMO_LIMIT = 1 << 16


#: A compiled per-dim draw plan: ``(size, steps)`` (see
#: :meth:`DimAllocator.plan`).
ChainPlan = Tuple[int, Tuple[Tuple[int, bool, bool], ...]]
#: One memoized ``(residue, cap)`` draw: the divisors of ``residue`` up to
#: ``cap``, their count, its bit length and the bit length of ``cap``.
_Options = Tuple[Tuple[int, ...], int, int, int]


def check_rng(rng: random.Random) -> None:
    """Raise :class:`MapspaceError` unless ``rng`` draws integers by bits.

    The samplers inline ``random.Random._randbelow_with_getrandbits``
    (``r = getrandbits(k)`` until ``r < n``, with ``k = n.bit_length()``),
    the integer draw of ``random.Random`` and of every subclass that keeps
    ``getrandbits`` (``SystemRandom`` included). A subclass that overrides
    ``random()`` alone draws its integers from floats instead, a stream
    the inlined draw cannot follow, so it is refused before any draw.
    """
    if type(rng)._randbelow is not random.Random._randbelow_with_getrandbits:
        raise MapspaceError(
            f"{type(rng).__name__} does not draw its integers with "
            "getrandbits (it overrides random() only); the sampler follows "
            "random.Random's getrandbits stream and cannot replay it"
        )


def cell_bits(bounds: Sequence[int], dim_index: int, num_dims: int) -> int:
    """A chain's loops as bits: ``1 << (offset * num_dims + dim_index)``
    for every slot offset whose bound exceeds 1."""
    bits = 0
    for offset, bound in enumerate(bounds):
        if bound > 1:
            bits |= 1 << (offset * num_dims + dim_index)
    return bits


class ChainTable:
    """The distinct chains one dimension has drawn, numbered by first draw.

    ``ids`` maps a chain's integer code (its step bounds as digits, see
    :meth:`DimAllocator.draw`) to its id; ``bounds``, ``rems`` (both
    outer-to-inner) and ``cells`` (:func:`cell_bits` at the dimension's
    ``dim_index`` of ``num_dims``) are indexed by id. 95-98% of a Fig. 10
    search's draws repeat a chain already drawn, so a draw costs one
    lookup and remainders are derived once per distinct chain.
    """

    __slots__ = ("size", "dim_index", "num_dims", "ids", "bounds", "rems", "cells")

    def __init__(self, size: int, dim_index: int = 0, num_dims: int = 1) -> None:
        self.size = size
        self.dim_index = dim_index
        self.num_dims = num_dims
        self.clear()

    def clear(self) -> None:
        self.ids: Dict[int, int] = {}
        self.bounds: List[Tuple[int, ...]] = []
        self.rems: List[Tuple[int, ...]] = []
        self.cells: List[int] = []

    def add(self, key: int, bounds: Tuple[int, ...]) -> int:
        """Number the new chain ``bounds``, coded ``key``, and derive its
        table entries."""
        chain_id = self.ids[key] = len(self.bounds)
        self.bounds.append(bounds)
        self.rems.append(assign_remainders(self.size, bounds))
        self.cells.append(cell_bits(bounds, self.dim_index, self.num_dims))
        return chain_id


def bound_tables(tables: Iterable[ChainTable]) -> bool:
    """Clear ``tables`` once together they hold ``_CHAIN_MEMO_LIMIT``
    chains; True when they were cleared (their ids are then void)."""
    tables = list(tables)
    if sum(len(table.bounds) for table in tables) < _CHAIN_MEMO_LIMIT:
        return False
    for table in tables:
        table.clear()
    return True


@dataclass(frozen=True)
class DimChain:
    """The allocated loop bounds of one dimension, aligned with the slots.

    ``bounds`` and ``remainders`` are outer-to-inner (slot order).
    """

    dim: str
    bounds: Tuple[int, ...]
    remainders: Tuple[int, ...]


def assign_remainders(size: int, bounds_outer_to_inner: Sequence[int]) -> Tuple[int, ...]:
    """Derive Eq. (5) remainders for given bounds covering ``size`` points.

    Writing the bounds inner-to-outer as radices, ``size - 1`` decomposes
    into mixed-radix digits; ``R_i = digit_i + 1``. Raises
    :class:`MapspaceError` when the bounds cannot cover ``size`` (the
    most-significant digit would exceed the outermost bound).
    """
    if size < 1:
        raise MapspaceError(f"dimension size must be >= 1, got {size}")
    if not bounds_outer_to_inner:
        if size == 1:
            return ()
        raise MapspaceError(f"no bounds to cover size {size}")
    inner_to_outer = list(reversed(bounds_outer_to_inner))
    digits = mixed_radix_digits(size - 1, inner_to_outer[:-1])
    outermost_remainder = digits[-1] + 1
    if outermost_remainder > inner_to_outer[-1]:
        raise MapspaceError(
            f"bounds {tuple(bounds_outer_to_inner)} cannot cover {size}: "
            f"outermost needs remainder {outermost_remainder}"
        )
    remainders_inner_to_outer = [digit + 1 for digit in digits]
    return tuple(reversed(remainders_inner_to_outer))


class DimAllocator:
    """Allocates per-dimension bounds over a slot skeleton.

    Args:
        slots: outer-to-inner slot list from :func:`~repro.mapspace.slots.build_slots`.
        spatial_imperfect: spatial slots may take non-divisor bounds.
        temporal_imperfect: temporal slots may take non-divisor bounds.
    """

    SAMPLING_MODES = ("structured", "uniform")

    def __init__(
        self,
        slots: Sequence[Slot],
        spatial_imperfect: bool,
        temporal_imperfect: bool,
        sampling: str = "structured",
    ) -> None:
        if not slots or slots[0].spatial:
            raise MapspaceError("slot list must start with a temporal slot")
        if sampling not in self.SAMPLING_MODES:
            raise MapspaceError(
                f"sampling must be one of {self.SAMPLING_MODES}, got {sampling!r}"
            )
        self.slots = list(slots)
        self.spatial_imperfect = spatial_imperfect
        self.temporal_imperfect = temporal_imperfect
        self.sampling = sampling
        # One compiled plan per (dim, size), the divisor memo (bounded by
        # the workload's (residue, cap) pairs: at most a few hundred
        # measured, however long the run) and the chain tables of
        # :meth:`sample_chain`, which grow with the run on imperfect spaces.
        self._plans: Dict[Tuple[str, int], ChainPlan] = {}
        self._divisor_memo: Dict[Tuple[int, int], _Options] = {}
        self._tables: Dict[Tuple[str, int], ChainTable] = {}

    def _slot_is_imperfect(self, slot: Slot) -> bool:
        return self.spatial_imperfect if slot.spatial else self.temporal_imperfect

    def plan(self, dim: str, size: int) -> ChainPlan:
        """The compiled draw plan of ``dim`` over ``size`` points (cached).

        A plan is ``(size, steps)``: ``steps`` holds one ``(offset,
        spatial, imperfect)`` row per non-outermost slot that allows
        ``dim``, inner to outer.
        """
        plan = self._plans.get((dim, size))
        if plan is None:
            steps = tuple(
                (offset, slot.spatial, self._slot_is_imperfect(slot))
                for offset, slot in reversed(list(enumerate(self.slots))[1:])
                if slot.allows(dim)
            )
            plan = self._plans[(dim, size)] = (size, steps)
        return plan

    def draw(
        self,
        plans: Sequence[ChainPlan],
        tables: Sequence[ChainTable],
        order: Sequence[int],
        budgets: List[int],
        getrandbits: Callable[[int], int],
        random: Callable[[], float],
    ) -> Tuple[List[int], int]:
        """Draw one bound chain per plan, walking ``plans[k]`` for k in ``order``.

        Returns the drawn chains' ids in ``tables`` (aligned with
        ``plans``; a new chain is added to ``tables[k]``) and the OR of
        their cell bits. ``budgets`` holds the remaining fanout of each
        spatial slot, indexed by slot offset and shared across the dims of
        one draw; it is updated in place.

        ``getrandbits`` and ``random`` are a ``random.Random``'s own
        (:func:`check_rng` must have accepted it). An integer below ``n``
        is drawn as ``random.Random._randbelow_with_getrandbits`` draws
        it, ``r = getrandbits(k)`` until ``r < n`` with ``k =
        n.bit_length()``, inlined with ``n`` and ``k`` memoized per
        ``(residue, cap)``: an exact slot draws ``opts[r]`` and an
        imperfect one ``1 + r`` below ``cap``, the draws ``choice`` and
        ``randint`` make, so the stream matches a walk through those
        wrappers.

        Each dim's slots are walked inner to outer; a slot that cannot
        take a nontrivial bound (residue 1, or the dim disallowed) keeps
        bound 1 and draws nothing, an exact slot draws a divisor of the
        residue within its cap, and the outermost slot absorbs the
        residue. The chain is coded as one integer, its step bounds as
        base ``size + 1`` digits, and looked up by that code in the dim's
        table, so repeats (95-98% of a Fig. 10 search's draws) build and
        derive nothing; the tables are the caller's to bound with
        :func:`bound_tables` between calls, never inside one, since ids
        already returned must stay valid.

        An imperfect slot draws from ``[1, cap]``. In ``"structured"`` mode
        (default) the range is sampled with extra density on its
        high-value regions — divisors of the residue (the perfect
        sub-space, so Ruby never converges slower than PFM merely for lack
        of samples) and the cap itself (the utilization-maximizing choice
        imperfect factorization exists to reach). Every value in
        ``[1, cap]`` remains reachable, so the mapspace itself is
        unchanged; only sampling density differs. ``"uniform"`` mode keeps
        a flat distribution (the ablation baseline).
        """
        structured = self.sampling == "structured"
        divisor_memo = self._divisor_memo
        ids = [0] * len(plans)
        mask = 0
        for k in order:
            size, steps = plans[k]
            residue, radix, key = size, size + 1, 0
            for offset, spatial, imperfect in steps:
                if residue == 1:
                    break
                cap = residue
                if spatial:  # cap = min(residue, max(1, budget))
                    budget = budgets[offset]
                    if budget < residue:
                        cap = budget if budget > 1 else 1
                options = divisor_memo.get((residue, cap))
                if options is None:
                    options = self._options(residue, cap)
                opts, count, bits, cap_bits = options
                # imperfect: uniform, or a structured roll of [0, 0.4) ->
                # any value; exact, or a roll of [0.4, 0.8) -> a divisor;
                # a roll of [0.8, 1) -> the cap.
                if imperfect and (not structured or (roll := random()) < 0.4):
                    r = getrandbits(cap_bits)
                    while r >= cap:
                        r = getrandbits(cap_bits)
                    bound = 1 + r
                elif not imperfect or roll < 0.8:
                    r = getrandbits(bits)
                    while r >= count:
                        r = getrandbits(bits)
                    bound = opts[r]
                else:
                    bound = cap
                key = key * radix + bound
                if bound > 1:
                    residue = -(-residue // bound)
                    if spatial:
                        budgets[offset] = budget // bound
            table = tables[k]
            chain_id = table.ids.get(key)
            if chain_id is None:
                chain_id = table.add(key, self._chain_bounds(plans[k], key))
            ids[k] = chain_id
            mask |= table.cells[chain_id]
        return ids, mask

    def _chain_bounds(self, plan: ChainPlan, key: int) -> Tuple[int, ...]:
        """The outer-to-inner bounds of the chain :meth:`draw` coded as
        ``key``: its step bounds as base ``size + 1`` digits, first step
        most significant (bounds are at least 1, so the code is unique)."""
        size, steps = plan
        digits = []
        while key:
            key, digit = divmod(key, size + 1)
            digits.append(digit)
        bounds = [1] * len(self.slots)
        residue = size
        for (offset, _, _), bound in zip(steps, reversed(digits)):
            bounds[offset] = bound
            residue = -(-residue // bound)
        bounds[0] = residue
        return tuple(bounds)

    def _options(self, residue: int, cap: int) -> _Options:
        """Memoize the divisors of ``residue`` up to ``cap``, their count
        and its bit length, and the bit length of ``cap``."""
        opts = tuple(d for d in divisors(residue) if d <= cap)
        options = self._divisor_memo[(residue, cap)] = (
            opts, len(opts), len(opts).bit_length(), cap.bit_length()
        )
        return options

    def sample_chain(
        self,
        dim: str,
        size: int,
        rng: random.Random,
        spatial_budgets: Dict[int, int],
    ) -> DimChain:
        """Sample one bound chain for ``dim``; mutates ``spatial_budgets``.

        The one-dim form of :meth:`draw`, over this allocator's own chain
        tables (bounded like the sampler's). ``spatial_budgets`` maps slot
        list indices to the remaining fanout available at each spatial
        slot (shared across dimensions; a missing slot has budget 1).
        Raises :class:`MapspaceError` for an RNG :func:`check_rng`
        refuses, before any draw.
        """
        check_rng(rng)
        bound_tables(self._tables.values())
        table = self._tables.get((dim, size))
        if table is None:
            table = self._tables[(dim, size)] = ChainTable(size)
        budgets = [spatial_budgets.get(o, 1) for o in range(len(self.slots))]
        (chain_id,), _ = self.draw(
            [self.plan(dim, size)], [table], (0,), budgets,
            rng.getrandbits, rng.random,
        )
        bounds = table.bounds[chain_id]
        for offset, bound in enumerate(bounds):
            if bound > 1 and self.slots[offset].spatial:
                spatial_budgets[offset] = budgets[offset]
        return DimChain(dim=dim, bounds=bounds, remainders=table.rems[chain_id])

    def enumerate_chains(
        self,
        dim: str,
        size: int,
        spatial_caps: Optional[Dict[int, int]] = None,
    ) -> Iterator[DimChain]:
        """Exhaustively yield every bound chain for ``dim``.

        ``spatial_caps`` optionally overrides each spatial slot's cap (list
        index -> cap). Joint cross-dimension fanout limits are the caller's
        concern. Intended for toy problems and counting studies — the
        imperfect spaces grow like ``size**num_free_slots``.
        """
        caps = spatial_caps or {}

        def options(offset: int, residue: int) -> List[int]:
            slot = self.slots[offset]
            if offset == 0:
                return [residue]
            if residue == 1 or not slot.allows(dim):
                return [1]
            cap = residue
            if slot.spatial:
                cap = min(cap, caps.get(offset, slot.fanout_cap or 1))
                cap = max(cap, 1)
            if self._slot_is_imperfect(slot):
                return list(range(1, cap + 1))
            return [d for d in divisors(residue) if d <= cap]

        def recurse(offset: int, residue: int, acc: List[int]) -> Iterator[List[int]]:
            if offset < 0:
                if residue == 1:
                    yield list(acc)
                return
            for bound in options(offset, residue):
                if offset == 0:
                    yield list(acc) + [bound]
                    continue
                yield from recurse(
                    offset - 1, ceil_div(residue, bound), acc + [bound]
                )

        for inner_to_outer in recurse(len(self.slots) - 1, size, []):
            bounds = tuple(reversed(inner_to_outer))
            yield DimChain(
                dim=dim,
                bounds=bounds,
                remainders=assign_remainders(size, bounds),
            )
