"""Exact per-level access counting with imperfect factorization.

For each tensor and each consecutive pair of keeper levels, the element
traffic across the boundary decomposes per problem dimension (Eq. 5 makes
each dimension's tile structure independent):

* a **relevant** dimension contributes its delivered-tile count and the
  exact summed extents of those tiles (= the dimension's coverage — tiles
  partition the iteration space, so imperfect factors cost nothing extra);
* an **irrelevant temporal** loop contributes its trip count iff a relevant
  temporal loop lies inside it above the boundary (tile churn forces
  refetch), else 1 (the child's tile persists — reuse);
* an **irrelevant spatial** loop always multiplies fills into the child
  (every instance holds a copy) but multiplies reads from the parent only
  when it lies *above* the parent (fanouts between parent and child are
  multicast — one read, many deliveries; for outputs, spatial reduction).

Sliding-window (conv input) ranks couple two dimensions; their footprint
sums use the closed form in :func:`_rank_delivery_sum`.

Accuracy: the formulas are exact (validated against the reference
simulator in ``tests/test_reference_sim.py`` and continuously by
``repro verify``) except in two corners where real tile reuse survives a
remainder and the closed form still charges for it — a deliberately
**conservative** approximation (it can overcount, never undercount, so it
biases against — never inflates — the benefit of imperfect factorization):

* a *spatial remainder* on a dimension relevant to a tensor with an
  irrelevant counting loop enclosing it: an instance that idles through
  the remainder window keeps its resident tile, so revisits of that tile
  are not real refetches;
* a *temporal remainder* on a relevant dimension under an irrelevant
  counting loop: when the remainder pass collapses to a single tile,
  consecutive trips of the counting loop see an unchanged tile (no
  displacement, no refetch), but the trip count is multiplied in anyway.

See :func:`repro.verify.differential.compare_case` for the tolerance
bounds these corners are held to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.arch.spec import Architecture
from repro.mapping.chains import chain_trip_count
from repro.mapping.nest import Mapping, PlacedLoop
from repro.model.dataflow import (
    Boundary,
    innermost_relevant_temporal_position,
    nontrivial_loops,
    tensor_paths,
)
from repro.problem.tensor import TensorSpec
from repro.problem.workload import Workload


@dataclass
class AccessCounts:
    """Word-granularity access totals per (storage level, tensor).

    ``reads[(level_index, tensor_name)]`` counts elements read out of the
    level (serving children, draining partial sums); ``writes[...]`` counts
    elements written into it (fills, accumulations, drain receipts).
    """

    reads: Dict[Tuple[int, str], int] = field(default_factory=dict)
    writes: Dict[Tuple[int, str], int] = field(default_factory=dict)

    def add_reads(self, level: int, tensor: str, count: int) -> None:
        """Accumulate ``count`` element reads at ``(level, tensor)``."""
        key = (level, tensor)
        self.reads[key] = self.reads.get(key, 0) + count

    def add_writes(self, level: int, tensor: str, count: int) -> None:
        """Accumulate ``count`` element writes at ``(level, tensor)``."""
        key = (level, tensor)
        self.writes[key] = self.writes.get(key, 0) + count

    def level_reads(self, level: int) -> int:
        """Total element reads out of one storage level (all tensors)."""
        return sum(v for (lvl, _), v in self.reads.items() if lvl == level)

    def level_writes(self, level: int) -> int:
        """Total element writes into one storage level (all tensors)."""
        return sum(v for (lvl, _), v in self.writes.items() if lvl == level)

    def level_total(self, level: int) -> int:
        """Reads plus writes at one storage level."""
        return self.level_reads(level) + self.level_writes(level)


@dataclass(frozen=True)
class _BoundaryTraffic:
    """Element counts across one boundary of one tensor's path.

    The ``*_spatial`` fields count only the instance (copy) multiplicity of
    each side; subtracting them from the combined multipliers leaves the
    temporal *revisit* multiplicity, which is what partial-sum refill
    traffic scales with (a spatial copy is a first visit, not a revisit).
    """

    base_elements: int  # one full sweep of delivered tiles
    inner_multiplier: int  # refetch + per-instance copies at the child side
    outer_multiplier: int  # refetch + parent-instance copies (multicast-aware)
    inner_spatial: int = 1  # child-side instance copies only
    outer_spatial: int = 1  # parent-side instance copies only


def compute_access_counts(
    arch: Architecture, workload: Workload, mapping: Mapping
) -> AccessCounts:
    """Compute exact access counts for every level and tensor."""
    counts = AccessCounts()
    loops = nontrivial_loops(mapping)
    paths = tensor_paths(arch, workload, mapping)
    for path in paths.values():
        tensor = path.tensor
        for boundary in path.boundaries:
            traffic = _boundary_traffic(tensor, workload, loops, boundary)
            _accumulate(counts, tensor, boundary, traffic)
    return counts


def _boundary_traffic(
    tensor: TensorSpec,
    workload: Workload,
    loops: List[PlacedLoop],
    boundary: Boundary,
) -> _BoundaryTraffic:
    relevant = tensor.relevant_dims
    bpos = boundary.boundary_position
    ppos = boundary.parent_position
    cutoff = innermost_relevant_temporal_position(loops, relevant, bpos)

    tiles: Dict[str, int] = {}
    coverage: Dict[str, int] = {}
    for dim in relevant:
        dim_loops = [p for p in loops if p.loop.dim == dim]
        tiles[dim] = chain_trip_count(
            p.loop for p in dim_loops if p.position < bpos
        )
        coverage[dim] = chain_trip_count(p.loop for p in dim_loops)

    base = 1
    for rank in tensor.ranks:
        base *= _rank_delivery_sum(rank, tiles, coverage)

    inner_mult = 1
    outer_mult = 1
    inner_spatial = 1
    outer_spatial = 1
    for dim in workload.dim_names:
        if dim in relevant:
            continue
        dim_loops = [p for p in loops if p.loop.dim == dim and p.position < bpos]
        inner_mult *= _projection_count(
            dim_loops,
            lambda p: p.loop.spatial or p.position < cutoff,
        )
        outer_mult *= _projection_count(
            dim_loops,
            lambda p: (p.loop.spatial and p.position < ppos)
            or (not p.loop.spatial and p.position < cutoff),
        )
        inner_spatial *= _projection_count(
            dim_loops, lambda p: p.loop.spatial
        )
        outer_spatial *= _projection_count(
            dim_loops, lambda p: p.loop.spatial and p.position < ppos
        )

    return _BoundaryTraffic(
        base_elements=base,
        inner_multiplier=inner_mult,
        outer_multiplier=outer_mult,
        inner_spatial=inner_spatial,
        outer_spatial=outer_spatial,
    )


def _projection_count(dim_loops, selected) -> int:
    """Distinct selected-index tuples over one dimension's executed leaves.

    A refetch-forcing loop (selected temporal) multiplies deliveries; a
    spatial loop (selected) multiplies copies. With remainders, the count
    is not a simple product: a loop off the last path always runs its full
    bound, so an instance skipped by a remainder window may still receive
    its copy in an earlier full window. Counting distinct projections of
    the leaf index tuples onto the selected loops captures this *union*
    semantics exactly. Recursion (inner to outer), tracking the projection
    count of a full (off-last-path) subtree and of the last-path subtree:

    * selected loop:      ``full' = P*full``; ``last' = (R-1)*full + last``
    * unselected loop:    ``full' = full``;   ``last' = full if R >= 2
      else last`` (a non-last sibling subtree's projections are a superset
      of the last subtree's).

    The answer is the last-path value at the outermost level. For a chain
    whose selected loops form an outer prefix this reduces to the Eq. (5)
    recursion, which is why relevant-dimension tile counts can keep using
    :func:`~repro.mapping.chains.chain_trip_count`.
    """
    full = 1
    last = 1
    for placed in reversed(dim_loops):
        bound = placed.loop.bound
        remainder = placed.loop.remainder
        if selected(placed):
            full, last = bound * full, (remainder - 1) * full + last
        else:
            last = full if remainder >= 2 else last
    return last


def _rank_delivery_sum(
    rank, tiles: Dict[str, int], coverage: Dict[str, int]
) -> int:
    """Summed footprint of one tensor rank over all delivered tile tuples.

    For a rank ``sum_j c_j * d_j`` the extent of a tile tuple is
    ``sum_j c_j (e_j - 1) + 1``; summing over the independent per-dim tile
    sequences (count ``t_j``, extents summing to coverage ``c_cov_j``):

        ``sum = prod_j t_j + sum_j c_j (c_cov_j - t_j) * prod_{j' != j} t_j'``

    This is exact for imperfect factors because per-dim extents sum to the
    coverage regardless of how the remainders fall.
    """
    tile_counts = [tiles.get(term.dim, 1) for term in rank]
    coverages = [coverage.get(term.dim, 1) for term in rank]
    all_tiles = 1
    for count in tile_counts:
        all_tiles *= count
    total = all_tiles
    for j, term in enumerate(rank):
        others = all_tiles // tile_counts[j] if tile_counts[j] else 0
        total += term.coefficient * (coverages[j] - tile_counts[j]) * others
    return total


def _accumulate(
    counts: AccessCounts,
    tensor: TensorSpec,
    boundary: Boundary,
    traffic: _BoundaryTraffic,
) -> None:
    parent = boundary.parent_level
    child = boundary.child_level
    base = traffic.base_elements
    inner = traffic.inner_multiplier
    outer = traffic.outer_multiplier
    if not tensor.is_output:
        counts.add_reads(parent, tensor.name, base * outer)
        if child is not None:
            counts.add_writes(child, tensor.name, base * inner)
        return
    # Output tensor: drains flow child -> parent (spatially reduced on the
    # way up); refills flow parent -> child on every *revisit* of a tile by
    # an instance — spatial copies are first visits, so the refill traffic
    # scales with the multiplier in excess of the pure copy count.
    counts.add_writes(parent, tensor.name, base * outer)
    counts.add_reads(parent, tensor.name, base * (outer - traffic.outer_spatial))
    if child is not None:
        counts.add_reads(child, tensor.name, base * inner)
        counts.add_writes(
            child, tensor.name, base * (inner - traffic.inner_spatial)
        )
