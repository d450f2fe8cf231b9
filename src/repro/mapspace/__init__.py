"""Mapspace generation: PFM (perfect factorization) and Ruby variants.

The four mapspaces of the paper, all built on one allocator
(:mod:`repro.mapspace.allocation`) that walks each problem dimension's loop
slots from the innermost level outward:

* **PFM** — every bound divides the remaining extent exactly (Timeloop).
* **Ruby** — every bound is a free integer; the Eq. (5) remainders follow
  uniquely from the mixed-radix decomposition of ``D - 1``.
* **Ruby-S** — free bounds at spatial slots only (temporal bounds must
  divide exactly); remainders land on the spatial levels.
* **Ruby-T** — free bounds at temporal slots only.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".constraints": ("ConstraintSet",),
    ".slots": ("Slot", "build_slots"),
    ".allocation": ("DimAllocator", "assign_remainders"),
    ".generator": ("MapSpace", "MapspaceKind"),
    ".factory": (
        "make_mapspace",
        "pfm_mapspace",
        "ruby_mapspace",
        "ruby_s_mapspace",
        "ruby_t_mapspace",
    ),
    ".counting": ("MapspaceSizes", "count_mapspace_sizes"),
    ".chain_count": ("count_dim_chains", "mapspace_upper_bound"),
})
