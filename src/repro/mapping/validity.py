"""Mapping validity: coverage, fanout, dataflow, and capacity checks.

Mapspace generators emit structurally well-formed mappings; this module is
the filter that rejects the invalid ones (the paper's "second step"):

1. **Structure** — one level nest per storage level, in order.
2. **Coverage** — every problem dimension's chain covers exactly ``D``
   points (Eq. 5). Ruby mappings never over- or under-compute.
3. **Fanout** — spatial allocation at each level fits the hardware fanout,
   and spatial dims respect the level's dataflow restrictions.
4. **Capacity** — the largest tile of each kept tensor fits the level
   (shared buffers sum across tensors; operand-private partitions are
   checked individually).
"""

from __future__ import annotations

from typing import Dict, List

from repro.arch.spec import Architecture
from repro.exceptions import InvalidMappingError
from repro.mapping.chains import chain_coverage
from repro.mapping.nest import Mapping
from repro.problem.workload import Workload


def check_mapping(
    mapping: Mapping, arch: Architecture, workload: Workload
) -> List[str]:
    """Return a list of human-readable violations (empty = valid)."""
    violations: List[str] = []
    violations.extend(_check_structure(mapping, arch))
    if violations:
        return violations  # later checks assume aligned structure
    violations.extend(_check_coverage(mapping, workload))
    violations.extend(_check_fanout(mapping, arch))
    violations.extend(capacity_violations(mapping, arch, workload))
    return violations


def is_valid_mapping(
    mapping: Mapping, arch: Architecture, workload: Workload
) -> bool:
    """True if ``mapping`` passes every check."""
    return not check_mapping(mapping, arch, workload)


def require_valid(
    mapping: Mapping, arch: Architecture, workload: Workload
) -> None:
    """Raise :class:`InvalidMappingError` listing all violations, if any."""
    violations = check_mapping(mapping, arch, workload)
    if violations:
        raise InvalidMappingError(
            f"invalid mapping for {workload.name} on {arch.name}: "
            + "; ".join(violations)
        )


def _check_structure(mapping: Mapping, arch: Architecture) -> List[str]:
    violations = []
    expected = [level.name for level in arch.levels]
    actual = [nest.level_name for nest in mapping.levels]
    if expected != actual:
        violations.append(
            f"level nests {actual} do not match architecture levels {expected}"
        )
    return violations


def _check_coverage(mapping: Mapping, workload: Workload) -> List[str]:
    violations = []
    dim_sizes = workload.dim_sizes
    for dim, size in dim_sizes.items():
        loops = [p.loop for p in mapping.placed_loops() if p.loop.dim == dim]
        covered = chain_coverage(loops)
        if covered != size:
            violations.append(f"dim {dim}: chain covers {covered}, need {size}")
    for dim in mapping.dims_used:
        if dim not in dim_sizes:
            violations.append(f"loop over unknown dim {dim}")
    return violations


def _check_fanout(mapping: Mapping, arch: Architecture) -> List[str]:
    violations = []
    for level, nest in zip(arch.levels, mapping.levels):
        fanout_x = level.fanout_x if level.fanout_x is not None else level.fanout
        fanout_y = level.fanout_y if level.fanout_y is not None else 1
        for axis, limit in ((0, fanout_x), (1, fanout_y)):
            allocation = nest.spatial_allocation_on_axis(axis)
            if allocation > limit:
                violations.append(
                    f"level {level.name}: spatial allocation {allocation} on "
                    f"axis {'XY'[axis]} exceeds fanout {limit}"
                )
        if level.spatial_dims is not None:
            for loop in nest.spatial:
                if loop.bound > 1 and loop.dim not in level.spatial_dims:
                    violations.append(
                        f"level {level.name}: dim {loop.dim} not allowed "
                        f"spatially (allowed: {sorted(level.spatial_dims)})"
                    )
    return violations


def _tile_extents_at_level(mapping: Mapping, level_index: int) -> Dict[str, int]:
    """Max per-dim tile extent held at ``level_index``.

    The tile at a level is iterated by that level's temporal loops and
    everything inner, i.e. all loops at level indices >= ``level_index``.
    Bounds (not remainders) give the largest tile, which capacity must hold.
    """
    extents: Dict[str, int] = {}
    for placed in mapping.placed_loops():
        if placed.level_index >= level_index:
            extents[placed.loop.dim] = (
                extents.get(placed.loop.dim, 1) * placed.loop.bound
            )
    return extents


def capacity_violations(
    mapping: Mapping, arch: Architecture, workload: Workload
) -> List[str]:
    """The capacity violations of ``mapping`` alone (empty = every tile
    fits). Enumeration drops candidates on this rule before packing them;
    the tests and ``repro verify`` hold it to this scalar check."""
    violations = []
    for level_index, level in enumerate(arch.levels):
        if level.total_capacity_words is None:
            continue
        extents = _tile_extents_at_level(mapping, level_index)
        shared_words = 0
        for tensor in workload.tensors:
            if not level.keeps_tensor(tensor.name):
                continue
            if mapping.bypasses(level.name, tensor.name):
                continue
            footprint = tensor.tile_footprint(extents)
            words = footprint * tensor.bits_per_element // level.word_bits
            words = max(words, 1)
            partition = level.tensor_capacity(tensor.name)
            if partition is not None:
                if words > partition:
                    violations.append(
                        f"level {level.name}: {tensor.name} tile needs {words} "
                        f"words, partition holds {partition}"
                    )
            else:
                shared_words += words
        if not level.is_partitioned and level.capacity_words is not None:
            if shared_words > level.capacity_words:
                violations.append(
                    f"level {level.name}: tiles need {shared_words} words, "
                    f"capacity is {level.capacity_words}"
                )
    return violations
