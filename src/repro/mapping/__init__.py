"""Mapping representation: loopnests with imperfect (remaindered) loops.

A :class:`~repro.mapping.nest.Mapping` assigns, per storage level, an
ordered block of temporal loops plus a block of spatial loops for the fanout
below that level. Every loop carries a bound ``P`` and a remainder
``R in [1, P]`` applied on the globally-last iteration — Eq. (5) of the
paper. ``R == P`` everywhere recovers classic perfect-factorization
mappings.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".loop": ("Loop",),
    ".nest": ("LevelNest", "Mapping", "PlacedLoop"),
    ".chains": (
        "chain_coverage",
        "chain_trip_count",
        "dim_chain",
        "temporal_steps",
        "tile_extent",
    ),
    ".validity": ("check_mapping", "is_valid_mapping"),
    ".render": ("render_mapping",),
})
