"""Energy and area estimation (the Accelergy + Cacti + Aladdin substitute).

The paper evaluates energy with Accelergy, which dispatches large memories
to Cacti and small components to Aladdin-derived tables. We replace that
toolchain with analytical models calibrated to the well-known relative
access costs of the Eyeriss paper (register file ~1x MAC, global buffer
~6x, DRAM ~200x). Because every result in the paper is a *ratio* between
mapspaces evaluated on the same cost model, preserving this ordering
preserves the paper's shapes.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".sram": ("sram_access_energy_pj", "sram_area_mm2"),
    ".dram": ("DRAM_ACCESS_PJ", "dram_access_energy_pj"),
    ".table": ("EnergyTable", "LevelEnergy"),
    ".accelergy": ("estimate_energy_table",),
    ".area": ("estimate_area_mm2",),
})
