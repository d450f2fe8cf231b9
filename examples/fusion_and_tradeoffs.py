#!/usr/bin/env python3
"""Reading Ruby-S mappings beyond a single EDP number.

1. **Energy/latency trade-off** — instead of one EDP-optimal mapping,
   sweep the whole (energy, cycles) Pareto frontier of one layer
   (`repro.search.ParetoSearch`) and pick by budget.
2. **Roofline** — locate the chosen mapping on the accelerator roofline
   (`repro.model.roofline`) to see whether more reuse or more PEs would
   pay next.

Run:  python examples/fusion_and_tradeoffs.py
"""

from repro import ConvLayer, Evaluator, eyeriss_like
from repro.mapspace import ruby_s_mapspace
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.model.roofline import roofline_point
from repro.search.pareto_search import ParetoSearch


def main() -> None:
    arch = eyeriss_like()
    constraints = eyeriss_row_stationary()
    layer = ConvLayer("block_3x3", c=64, m=64, p=14, q=14, r=3, s=3)

    print("== 1. energy/latency Pareto frontier of a 3x3 layer ==")
    workload = layer.workload()
    space = ruby_s_mapspace(arch, workload, constraints)
    evaluator = Evaluator(arch, workload)
    frontier = ParetoSearch(space, evaluator, max_evaluations=3000, seed=0).run()
    for entry in frontier.frontier:
        print(
            f"  energy {entry.energy_pj:.3e} pJ   cycles {entry.cycles:>9,}  "
            f"util {entry.utilization:.1%}"
        )
    fastest = frontier.best_by("delay")
    leanest = frontier.best_by("energy")
    print(
        f"  span: the fastest mapping costs "
        f"{fastest.energy_pj / leanest.energy_pj:.2f}x the energy of the "
        f"leanest, which takes {leanest.cycles / fastest.cycles:.2f}x the cycles"
    )
    print()

    print("== 2. roofline position of the EDP-best mapping ==")
    best = frontier.best_by("edp")
    point = roofline_point(arch, workload, best)
    print(
        f"  operational intensity {point.operational_intensity:.1f} MACs/DRAM-byte, "
        f"throughput {point.achieved_ops_per_cycle:.1f}/{point.peak_ops_per_cycle:.0f} "
        f"MACs/cycle ({point.roof_fraction:.1%} of roof, "
        f"{'compute' if point.is_compute_bound else 'memory'}-bound)"
    )


if __name__ == "__main__":
    main()
