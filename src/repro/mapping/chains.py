"""Per-dimension chain math: Eq. (5) recursions over remaindered loops.

For one problem dimension, its loops across all levels form a *chain*
(outer to inner). The paper's Eq. (5),

    ``L_n = L_{n+1} * P_n + R_n - 1``  (base ``L_top+1 = 0``),

gives the number of innermost points minus one when run over the full
chain, and more generally the number of distinct tiles minus one when run
over any outer prefix of the chain. All cost-model quantities reduce to
this recursion applied to sub-chains:

* **coverage** — recursion over the whole chain; must equal ``D`` for a
  valid mapping (Ruby never over-computes).
* **temporal steps** — recursion over the temporal loops only; the product
  over dims is the total cycle count (spatial loops execute in lockstep
  within a step).
* **tiles above a boundary** — recursion over the loops outside a storage
  point; counts the tile deliveries along that dim. The summed extents of
  those tiles equal ``D`` exactly, which is what makes imperfect access
  counts exact.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.mapping.loop import Loop
from repro.mapping.nest import Mapping, PlacedLoop


def chain_trip_count(loops: Iterable[Loop]) -> int:
    """Run the Eq. (5) recursion over ``loops`` (ordered outer to inner).

    Returns ``L + 1``: the exact number of leaf iterations (equivalently,
    distinct tiles produced by the chain). An empty chain yields 1.
    """
    level = 0
    for loop in loops:
        level = level * loop.bound + loop.remainder - 1
    return level + 1


def chain_coverage(loops: Iterable[Loop]) -> int:
    """Points covered by a full chain — alias of :func:`chain_trip_count`.

    Named separately because call sites read better: coverage is compared
    against the dimension size ``D`` for validity.
    """
    return chain_trip_count(loops)


def dim_chain(mapping: Mapping, dim: str) -> List[PlacedLoop]:
    """All loops of ``dim`` in global nest order (outer first)."""
    return [p for p in mapping.placed_loops() if p.loop.dim == dim]


def temporal_steps(loops: Iterable[Loop]) -> int:
    """Exact temporal step count of a chain (ordered outer to inner).

    Spatial loops execute in lockstep within a step, so they contribute no
    steps themselves — but they *shadow* inner temporal remainders: once an
    outer spatial loop of the same dimension keeps at least two instances
    active in the final window (remainder >= 2), the last instance's short
    temporal pass runs concurrently with a full sibling pass, so the
    schedule still takes the full bound. Only when every crossed spatial
    loop narrows to a single active instance does an inner temporal
    remainder genuinely shorten the schedule.
    """
    full_contexts = 0
    shadowed = False
    for loop in loops:
        if loop.spatial:
            if loop.remainder >= 2:
                shadowed = True
            continue
        effective_remainder = loop.bound if shadowed else loop.remainder
        full_contexts = full_contexts * loop.bound + effective_remainder - 1
    return full_contexts + 1


def tile_extent(loops: Iterable[Loop]) -> int:
    """Maximum tile extent produced below a boundary: product of bounds.

    Uses full bounds ``P`` (not remainders) because capacity must hold the
    largest tile.
    """
    extent = 1
    for loop in loops:
        extent *= loop.bound
    return extent
