"""Experiment harnesses reproducing every table and figure of the paper.

One module per artifact; each exposes a ``run_*`` function returning a
structured result plus a ``format_*`` report renderer printing the same
rows/series the paper reports. The ``benchmarks/`` tree wraps these with
pytest-benchmark and asserts the paper's qualitative claims.

| Module    | Paper artifact | Claim reproduced                               |
|-----------|----------------|------------------------------------------------|
| fig07     | Fig. 7(a-d)    | convergence of best EDP per mapspace            |
| table01   | Table I        | mapspace sizes vs tensor dimension              |
| fig08     | Fig. 8         | Ruby-S vs PFM vs padding across dimension sizes |
| fig09     | Fig. 9         | AlexNet L2: handcrafted vs PFM vs Ruby-S        |
| fig10     | Fig. 10        | ResNet-50 on Eyeriss-like, per layer type       |
| fig11     | Fig. 11        | DeepBench on Eyeriss-like                       |
| fig12     | Fig. 12        | ResNet-50 on Simba-like                         |
| fig13     | Figs. 13/14    | array sweep: Pareto frontier + improvements     |
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".common": ("multi_seed_search", "best_metrics_by_kind"),
    ".fig07": ("Fig7Result", "format_fig7", "run_fig7_scenario"),
    ".table01": ("Table1Result", "format_table1", "run_table1"),
    ".fig08": ("Fig8Result", "format_fig8", "run_fig8"),
    ".fig09": ("Fig9Result", "format_fig9", "run_fig9"),
    ".fig10": ("LayerComparison", "format_fig10", "run_fig10"),
    ".fig11": ("format_fig11", "run_fig11"),
    ".fig12": ("format_fig12", "run_fig12"),
    ".fig13": ("Fig13Result", "format_fig13", "run_fig13"),
})
