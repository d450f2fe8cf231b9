"""Branch-and-bound mapper benchmark: prune-driven speedup, bit-exact.

The headline criterion for the hierarchical branch-and-bound searcher:
on a real ResNet-50 layer's Eyeriss mapspace it must find the *same*
best-EDP mapping as the batched exhaustive sweep at >= 2x the speed, and
the win must come from genuine subtree pruning (nonzero counters), not
from evaluating fewer candidates by accident.

Run with: pytest benchmarks/test_perf_branch_bound.py --benchmark-only -s
"""

from __future__ import annotations

from conftest import best_of, run_once

from repro.arch import eyeriss_like
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.factory import pfm_mapspace
from repro.model import Evaluator
from repro.search.branch_bound import BranchBoundSearch
from repro.search.exhaustive import ExhaustiveSearch
from repro.zoo.resnet50 import RESNET50_LAYERS


def _conv5_expand_setup():
    arch = eyeriss_like()
    by_name = {layer.name: layer for layer, _ in RESNET50_LAYERS}
    workload = by_name["conv5_expand"].workload()
    constraints = eyeriss_row_stationary()
    return arch, workload, constraints


def test_resnet_layer_branch_bound_2x(benchmark):
    """>= 2x over batched exhaustive on conv5_expand, same optimum."""
    arch, workload, constraints = _conv5_expand_setup()

    def exhaustive():
        return ExhaustiveSearch(
            pfm_mapspace(arch, workload, constraints=constraints),
            Evaluator(arch, workload),
            objective="edp",
            limit=1_000_000,
        ).run()

    def branch_bound():
        return BranchBoundSearch(
            pfm_mapspace(arch, workload, constraints=constraints),
            Evaluator(arch, workload),
            objective="edp",
            seed=0,
        ).run()

    rounds = 2
    exact, exact_s = best_of(exhaustive, rounds)
    pruned, pruned_s = best_of(branch_bound, rounds)
    run_once(benchmark, branch_bound)

    bnb = pruned.stats["bnb"]
    speedup = exact_s / pruned_s
    print(
        f"\nconv5_expand pfm ({exact.num_evaluated} candidates): "
        f"exhaustive {exact_s:.2f}s, branch-bound {pruned_s:.2f}s "
        f"({speedup:.1f}x), priced {pruned.num_evaluated}, "
        f"subtrees pruned {bnb['subtrees_pruned']}"
    )
    # Exactness first: pruning must never change the answer.
    assert pruned.best_metric == exact.best_metric
    # The win must come from real subtree pruning.
    assert bnb["subtrees_pruned"] > 0
    assert pruned.num_evaluated < exact.num_evaluated
    assert speedup >= 2.0, (
        f"branch-and-bound speedup {speedup:.2f}x below the 2x criterion"
    )


def test_branch_bound_seed_stability(benchmark):
    """Different warm-start seeds land on the identical optimum."""
    arch, workload, constraints = _conv5_expand_setup()

    def search(seed):
        return BranchBoundSearch(
            pfm_mapspace(arch, workload, constraints=constraints),
            Evaluator(arch, workload),
            objective="edp",
            seed=seed,
        ).run()

    first = run_once(benchmark, lambda: search(11))
    second = search(12)
    assert first.best_metric == second.best_metric
