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
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import MapspaceError
from repro.mapspace.slots import Slot
from repro.utils.mathx import ceil_div, divisors, mixed_radix_digits

#: Chains an allocator's chain memos may hold together before they are
#: cleared (~260 B each as ``(bounds, remainders)`` tuples, ~17 MB).
#: Measured on Eyeriss: one 3,000-draw Fig. 10 search (PFM or Ruby-S)
#: memoizes 287-1,078 chains, and 302,000 draws of unconstrained Ruby on a
#: 512x64x512 GEMM 34,919 and still growing, so only very long runs over
#: imperfect spaces reach it.
_CHAIN_MEMO_LIMIT = 1 << 16


#: A drawn chain as ``(bounds, remainders)``, both outer-to-inner.
Chain = Tuple[Tuple[int, ...], Tuple[int, ...]]
#: A compiled per-dim draw plan: ``(size, steps, memo)`` (see
#: :meth:`DimAllocator.plan`).
ChainPlan = Tuple[
    int, Tuple[Tuple[int, bool, bool], ...], Dict[Tuple[int, ...], Chain]
]


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
        # One compiled plan per (dim, size) and the two draw memos. The
        # divisor memo is bounded by the workload's (residue, cap) pairs
        # (at most a few hundred measured, however long the run); the
        # chain memos (one per plan) grow with the run on imperfect spaces.
        self._plans: Dict[Tuple[str, int], ChainPlan] = {}
        self._divisor_memo: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._memo_entries = 0

    def _slot_is_imperfect(self, slot: Slot) -> bool:
        return self.spatial_imperfect if slot.spatial else self.temporal_imperfect

    def plan(self, dim: str, size: int) -> ChainPlan:
        """The compiled draw plan of ``dim`` over ``size`` points (cached).

        A plan is ``(size, steps, memo)``: ``steps`` holds one ``(offset,
        spatial, imperfect)`` row per non-outermost slot that allows
        ``dim``, inner to outer, and ``memo`` maps drawn bounds to their
        ``(bounds, remainders)`` pair.
        """
        plan = self._plans.get((dim, size))
        if plan is None:
            steps = tuple(
                (offset, slot.spatial, self._slot_is_imperfect(slot))
                for offset, slot in reversed(list(enumerate(self.slots))[1:])
                if slot.allows(dim)
            )
            plan = self._plans[(dim, size)] = (size, steps, {})
        return plan

    def draw(
        self,
        plans: Sequence[ChainPlan],
        order: Sequence[int],
        budgets: List[int],
        randbelow: Callable[[int], int],
        random: Callable[[], float],
    ) -> List[Chain]:
        """Draw one bound chain per plan, walking ``plans[k]`` for k in ``order``.

        Returns ``(bounds, remainders)`` pairs aligned with ``plans``.
        ``budgets`` holds the remaining fanout of each spatial slot,
        indexed by slot offset and shared across the dims of one draw; it
        is updated in place. ``randbelow`` and ``random`` are a
        ``random.Random``'s bound ``_randbelow`` and ``random``: an exact
        slot draws ``opts[randbelow(len(opts))]`` and an imperfect one
        ``1 + randbelow(cap)``, the very calls ``choice`` and ``randint``
        make, so the stream matches a walk through those wrappers.

        Each dim's slots are walked inner to outer; a slot that cannot
        take a nontrivial bound (residue 1, or the dim disallowed) keeps
        bound 1 and draws nothing, an exact slot draws a divisor of the
        residue within its cap, and the outermost slot absorbs the
        residue.

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
        num_slots = len(self.slots)
        chains: List[Chain] = [None] * len(plans)  # type: ignore[list-item]
        for k in order:
            size, steps, memo = plans[k]
            bounds = [1] * num_slots
            residue = size
            for offset, spatial, imperfect in steps:
                if residue == 1:
                    break
                cap = residue
                if spatial:  # cap = min(residue, max(1, budget))
                    budget = budgets[offset]
                    if budget < residue:
                        cap = budget if budget > 1 else 1
                # imperfect: uniform, or a structured roll of [0, 0.4) ->
                # any value; exact, or a roll of [0.4, 0.8) -> a divisor;
                # a roll of [0.8, 1) -> the cap.
                if imperfect and (not structured or (roll := random()) < 0.4):
                    bound = 1 + randbelow(cap)
                elif not imperfect or roll < 0.8:
                    opts = divisor_memo.get((residue, cap))
                    if opts is None:
                        opts = divisor_memo[(residue, cap)] = tuple(
                            d for d in divisors(residue) if d <= cap
                        )
                    bound = opts[randbelow(len(opts))]
                else:
                    bound = cap
                if bound > 1:
                    residue = -(-residue // bound)
                    if spatial:
                        budgets[offset] = budget // bound
                    bounds[offset] = bound
            bounds[0] = residue
            key = tuple(bounds)
            chain = memo.get(key)
            if chain is None:
                chain = self._remember(memo, size, key)
            chains[k] = chain
        return chains

    def _remember(self, memo: dict, size: int, bounds: Tuple[int, ...]) -> Chain:
        """Memoize the chain of ``bounds`` over ``size`` points: 95-98% of
        a Fig. 10 search's draws repeat a chain already drawn."""
        if self._memo_entries >= _CHAIN_MEMO_LIMIT:
            for _, _, other in self._plans.values():
                other.clear()
            self._memo_entries = 0
        self._memo_entries += 1
        chain = memo[bounds] = (bounds, assign_remainders(size, bounds))
        return chain

    def sample_chain(
        self,
        dim: str,
        size: int,
        rng: random.Random,
        spatial_budgets: Dict[int, int],
    ) -> DimChain:
        """Sample one bound chain for ``dim``; mutates ``spatial_budgets``.

        The one-dim form of :meth:`draw`. ``spatial_budgets`` maps slot
        list indices to the remaining fanout available at each spatial
        slot (shared across dimensions; a missing slot has budget 1).
        """
        budgets = [spatial_budgets.get(o, 1) for o in range(len(self.slots))]
        ((bounds, remainders),) = self.draw(
            [self.plan(dim, size)], (0,), budgets, rng._randbelow, rng.random
        )
        for offset, bound in enumerate(bounds):
            if bound > 1 and self.slots[offset].spatial:
                spatial_budgets[offset] = budgets[offset]
        return DimChain(dim=dim, bounds=bounds, remainders=remainders)

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
