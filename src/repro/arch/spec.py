"""The Architecture: an ordered hierarchy of storage levels plus compute.

Levels are listed outermost first (DRAM at index 0); the compute level sits
below the last storage level. The *logical* hierarchy seen by mappings
interleaves a temporal loop block per storage level with a spatial loop
block per nonunit fanout, exactly as in Timeloop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.arch.level import ComputeLevel, StorageLevel
from repro.exceptions import SpecError
from repro.utils.mathx import product


@dataclass(frozen=True)
class Architecture:
    """A complete accelerator specification.

    Attributes:
        name: e.g. ``"eyeriss-like-14x12"``.
        levels: storage levels, outermost (DRAM) first.
        compute: the MAC level.
        mesh_x / mesh_y: optional headline PE-array shape for reporting
            (e.g. 14x12); behavioural fanouts live on the levels themselves.
    """

    name: str
    levels: Tuple[StorageLevel, ...]
    compute: ComputeLevel = ComputeLevel()
    mesh_x: Optional[int] = None
    mesh_y: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("architecture name must be non-empty")
        if not self.levels:
            raise SpecError(f"architecture {self.name} has no storage levels")
        names = [level.name for level in self.levels]
        if len(set(names)) != len(names):
            raise SpecError(f"architecture {self.name} has duplicate level names")
        if self.levels[0].capacity_words is not None:
            # The outermost level backs the whole problem; by convention it
            # is unbounded (DRAM). A bounded outer level would reject any
            # workload bigger than itself, which is never what presets mean.
            raise SpecError(
                f"architecture {self.name}: outermost level "
                f"{self.levels[0].name} must be unbounded (capacity None)"
            )

    @property
    def innermost(self) -> StorageLevel:
        return self.levels[-1]

    @property
    def outermost(self) -> StorageLevel:
        return self.levels[0]

    def level(self, name: str) -> StorageLevel:
        """Look up a storage level by name."""
        for lvl in self.levels:
            if lvl.name == name:
                return lvl
        raise KeyError(f"architecture {self.name} has no level {name}")

    def level_index(self, name: str) -> int:
        """Index of a storage level (0 = outermost)."""
        for i, lvl in enumerate(self.levels):
            if lvl.name == name:
                return i
        raise KeyError(f"architecture {self.name} has no level {name}")

    @property
    def total_compute_units(self) -> int:
        """Total parallel MAC instances = product of all fanouts."""
        return product(level.fanout for level in self.levels)

    def instances_at(self, index: int) -> int:
        """Number of physical instances of storage level ``index``.

        The outermost level has one instance; each nonunit fanout above a
        level multiplies its instance count.
        """
        if not 0 <= index < len(self.levels):
            raise IndexError(f"level index {index} out of range")
        return product(level.fanout for level in self.levels[:index])

    def iter_levels_inner_to_outer(self) -> Iterator[Tuple[int, StorageLevel]]:
        """Yield ``(index, level)`` from the innermost level outward."""
        for index in range(len(self.levels) - 1, -1, -1):
            yield index, self.levels[index]

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [f"Architecture {self.name}:"]
        for index, level in enumerate(self.levels):
            cap = (
                "unbounded"
                if level.total_capacity_words is None
                else f"{level.total_capacity_words} words"
            )
            fanout = f" --fanout {level.fanout}-->" if level.fanout > 1 else ""
            lines.append(
                f"  [{index}] {level.name}: {cap}, "
                f"{self.instances_at(index)} instance(s){fanout}"
            )
        lines.append(
            f"  [compute] {self.compute.name}: "
            f"{self.total_compute_units} unit(s), {self.compute.word_bits}-bit"
        )
        return "\n".join(lines)

    def with_levels(self, levels: List[StorageLevel], name: Optional[str] = None) -> "Architecture":
        """Return a copy with replaced storage levels (for DSE sweeps)."""
        return Architecture(
            name=name or self.name,
            levels=tuple(levels),
            compute=self.compute,
            mesh_x=self.mesh_x,
            mesh_y=self.mesh_y,
        )
