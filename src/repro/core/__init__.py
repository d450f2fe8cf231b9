"""High-level API: the Mapper facade, DSE sweeps, and reporting."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".mapper": ("Mapper", "MapperConfig", "find_best_mapping"),
    ".metrics": ("geometric_mean", "normalize_to", "improvement_percent"),
    ".dse": ("DesignPoint", "SweepResult", "sweep_pe_arrays", "sweep_glb_sizes"),
    ".report": ("format_table",),
    ".plots": ("ascii_bar_chart", "ascii_line_chart", "ascii_scatter"),
})
