"""Architecture specifications: memory hierarchies with spatial fanouts.

An :class:`~repro.arch.spec.Architecture` is an ordered list of storage
levels (outermost/DRAM first) ending at a compute level (the MAC units).
Each storage level may fan out spatially to multiple instances of the level
below it — that fanout is where spatial (``parFor``) loops live.

Presets reproduce the designs of the paper: an Eyeriss-like 14x12 row-
stationary accelerator, a Simba-like multi-PE vector-MAC accelerator, and
the toy linear arrays of Section III.
"""

from repro._exports import lazy_exports
from repro.arch.eyeriss import eyeriss_like
from repro.arch.simba import simba_like
from repro.arch.toy import toy_linear_architecture

#: The named architecture presets, one table for every entry point: the
#: CLI's ``--arch`` choices and the service's ``"arch": "<name>"``
#: shorthand. Each value builds a fresh :class:`Architecture`.
ARCH_PRESETS = {
    "eyeriss": eyeriss_like,
    "simba": simba_like,
    "toy16": lambda: toy_linear_architecture(16),
    "toy9": lambda: toy_linear_architecture(9),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".level": ("ComputeLevel", "StorageLevel"),
    ".spec": ("Architecture",),
    ".eyeriss": ("eyeriss_like",),
    ".simba": ("simba_like",),
    ".toy": ("toy_glb_architecture", "toy_linear_architecture"),
}, own=("ARCH_PRESETS",))
