"""repro: Ruby — imperfect-factorization mapspaces for tensor accelerators.

A from-scratch Python reproduction of "Ruby: Improving Hardware Efficiency
for Tensor Algebra Accelerators Through Imperfect Factorization"
(ISPASS 2022), including the Timeloop-style mapping evaluation stack it
builds on: workload algebra, architecture specs, an Accelergy-like energy
model, mapspace generation (PFM / Ruby / Ruby-S / Ruby-T), an exact
remainder-aware analytical cost model, and search.

Quickstart::

    from repro import ConvLayer, eyeriss_like, find_best_mapping

    arch = eyeriss_like()
    layer = ConvLayer("conv", c=64, m=64, p=56, q=56, r=3, s=3)
    result = find_best_mapping(arch, layer.workload(), kind="ruby-s", seed=0)
    print(result.best.edp, result.best.utilization)
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".arch": (
        "Architecture",
        "ComputeLevel",
        "StorageLevel",
        "eyeriss_like",
        "simba_like",
        "toy_glb_architecture",
        "toy_linear_architecture",
    ),
    ".core": ("Mapper", "MapperConfig", "find_best_mapping", "sweep_pe_arrays"),
    ".energy": ("EnergyTable", "estimate_area_mm2", "estimate_energy_table"),
    ".mapping": ("Loop", "Mapping", "is_valid_mapping", "render_mapping"),
    ".mapspace": (
        "ConstraintSet",
        "MapSpace",
        "MapspaceKind",
        "count_mapspace_sizes",
        "make_mapspace",
        "pfm_mapspace",
        "ruby_mapspace",
        "ruby_s_mapspace",
        "ruby_t_mapspace",
    ),
    ".model": ("Evaluation", "Evaluator"),
    ".problem": ("ConvLayer", "GemmLayer", "TensorSpec", "Workload", "pad_dimension"),
    ".search": ("SearchResult", "RandomSearch", "ExhaustiveSearch", "GeneticSearch"),
}, own=("__version__",))
