"""Parallel branch-and-bound: exactness, stats, and observability merge.

The contract under test: ``workers > 1`` is a pure performance knob.
Subtree work-sharing over a cross-process shared incumbent must return
the bit-identical best metric as the serial walk (the driver re-prices
every worker claim, so incumbent race timing cannot leak into the
answer), expose the same stats schema plus a ``pool`` payload, and merge
per-worker observability counters into the driver's registry exactly
like the parallel random search does.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.arch import (
    eyeriss_like,
    toy_glb_architecture,
    toy_linear_architecture,
)
from repro.exceptions import SearchError
from repro.mapspace import MapspaceKind
from repro.mapspace.factory import make_mapspace
from repro.model import Evaluator
from repro.model.batch import PRUNE_MARGIN, PartialBoundEngine
from repro.obs import MetricsRegistry, obs_scope
from repro.problem import GemmLayer
from repro.search import BranchBoundSearch
from repro.search.branch_bound import (
    LocalIncumbent,
    _SubtreeWalker,
    dims_branch_order,
)
from repro.search.branch_bound_parallel import UNITS_PER_WORKER
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.loop import batch_engine_for


def _toy_fixture(kind=MapspaceKind.PFM):
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = GemmLayer("g6x4x2", m=6, n=4, k=2).workload()
    space = make_mapspace(arch, workload, kind)
    return space, Evaluator(arch, workload)


def _eyeriss_fixture():
    arch = eyeriss_like()
    workload = GemmLayer("g8x4x4", m=8, n=4, k=4).workload()
    space = make_mapspace(arch, workload, MapspaceKind.PFM)
    return space, Evaluator(arch, workload)


def _driver_walker(space, evaluator):
    """A walker set up like the driver's, warm-started at seed 0."""
    search = BranchBoundSearch(space, evaluator, seed=0)
    engine = batch_engine_for(space, evaluator, True)
    menus = space.dim_chain_menus()
    walker = _SubtreeWalker(
        space, engine, evaluator, PartialBoundEngine(engine, menus),
        dims_branch_order(menus), objective="edp",
        leaf_width=search.leaf_width, limit=search.limit,
        incumbent=LocalIncumbent(),
    )
    search._warm_start(walker)
    return walker


def _assert_covers(walker, units):
    """The frontier's resolved cells plus its units' subtrees are every
    cell of the tree, each once."""
    total = math.prod(len(menu) for _, menu in walker.dims_order)
    assert walker.cells_covered + sum(
        walker.suffix_product[len(unit)] for unit in units
    ) == total


class TestFrontier:
    """The driver's work units are its walker's best-first frontier."""

    def test_wide_first_menu_gives_its_live_cells_by_bound(self):
        """With a first menu of at least the target, the units are what
        partitioning that menu gave: its fanout-feasible cells the warm
        incumbent does not cut, sorted by their scalar bounds."""
        space, evaluator = _eyeriss_fixture()
        walker = _driver_walker(space, evaluator)
        dim, menu = walker.dims_order[0]
        target = UNITS_PER_WORKER * 2
        assert len(menu) >= target
        index = [None] * len(walker.workload_dims)
        index[walker.workload_dims.index(dim)] = np.arange(len(menu))
        fits, _ = space.block_fits(index, (len(menu),), capacity=False)
        cut = walker.incumbent.read()
        want = []
        for k in np.flatnonzero(fits).tolist():
            bound = float(walker.bound_engine.bound({dim: k}, "edp"))
            if bound * (1.0 - PRUNE_MARGIN) < cut:
                want.append((bound, (k,)))
        units = walker.frontier(target)
        assert units == [unit for _, unit in sorted(want)]
        _assert_covers(walker, units)

    @pytest.mark.parametrize("kind", [MapspaceKind.PFM, MapspaceKind.RUBY_S])
    def test_deeper_frontier_covers_the_tree(self, kind):
        """A target above the first menu expands further, best-first, and
        its units stay disjoint subtrees in ascending-bound order."""
        space, evaluator = _toy_fixture(kind)
        walker = _driver_walker(space, evaluator)
        target = 2 * len(walker.dims_order[0][1])
        units = walker.frontier(target)
        assert len(units) >= target
        assert max(len(unit) for unit in units) >= 2
        assert len(set(units)) == len(units)
        assert not any(
            other[:len(unit)] == unit
            for unit in units for other in units if other != unit
        )
        bounds = [
            float(walker.bound_engine.bound(
                {walker.dims_order[d][0]: k for d, k in enumerate(unit)},
                "edp",
            ))
            for unit in units
        ]
        assert bounds == sorted(bounds)
        _assert_covers(walker, units)

    def test_stops_when_every_unit_is_fully_assigned(self):
        space, evaluator = _toy_fixture()
        walker = _driver_walker(space, evaluator)
        units = walker.frontier(10**6)
        assert units
        assert all(len(unit) == walker.num_dims for unit in units)
        _assert_covers(walker, units)

    def test_pools_get_units_to_share(self):
        """Two workers get several units on both parallel fixtures (the
        killed-worker test kills the worker that takes unit 2)."""
        for space, evaluator in (_toy_fixture(), _eyeriss_fixture()):
            walker = _driver_walker(space, evaluator)
            assert len(walker.frontier(UNITS_PER_WORKER * 2)) >= 3


class TestParallelParity:
    """workers > 1 never changes the answer."""

    @pytest.mark.parametrize("kind", [MapspaceKind.PFM, MapspaceKind.RUBY_S])
    def test_toy_matches_serial_and_exhaustive(self, kind):
        space, evaluator = _toy_fixture(kind)
        exhaustive = ExhaustiveSearch(space, evaluator, limit=200_000).run()
        serial = BranchBoundSearch(space, evaluator, seed=0).run()
        parallel = BranchBoundSearch(
            space, evaluator, seed=0, workers=2
        ).run()
        assert serial.best_metric == exhaustive.best_metric
        assert parallel.best_metric == serial.best_metric

    def test_workers_price_with_the_driver_evaluator_config(self):
        """Workers build the driver's NoC evaluator: a worker pricing
        without NoC energy would claim metrics below the true optimum
        (and post them to the shared incumbent)."""
        arch = toy_linear_architecture(16)
        workload = GemmLayer("g16x8x8", m=16, n=8, k=8).workload()

        def run(workers):
            return BranchBoundSearch(
                make_mapspace(arch, workload, MapspaceKind.PFM),
                Evaluator(arch, workload, include_noc=True),
                seed=0,
                workers=workers,
            ).run()

        serial, parallel = run(1), run(2)
        assert parallel.stats["pool"]["num_units"] > 0
        assert parallel.best_metric == serial.best_metric
        claims = [
            unit["metric"]
            for unit in parallel.stats["pool"]["units"]
            if unit["metric"] is not None
        ]
        assert all(metric >= serial.best_metric for metric in claims)

    def test_workers_keep_the_row_wise_switch(self):
        """``use_batch=False`` reaches the workers: no kernel rows."""
        space, evaluator = _toy_fixture()
        serial = BranchBoundSearch(
            space, evaluator, seed=0, use_batch=False
        ).run()
        parallel = BranchBoundSearch(
            space, evaluator, seed=0, use_batch=False, workers=2
        ).run()
        assert parallel.stats["pool"]["num_units"] > 0
        assert parallel.best_metric == serial.best_metric
        assert parallel.stats["batch"]["candidates"] == 0

    def test_eyeriss_matches_serial(self):
        space, evaluator = _eyeriss_fixture()
        serial = BranchBoundSearch(space, evaluator, seed=0).run()
        parallel = BranchBoundSearch(
            space, evaluator, seed=0, workers=2
        ).run()
        assert parallel.best_metric == serial.best_metric
        assert parallel.terminated_by == "exhausted"

    def test_walk_mode_matches_serial(self, set_batch_size):
        # A tiny leaf width makes every worker-side walk branch deep
        # (on bound tables each worker built for itself).
        set_batch_size(16)
        space, evaluator = _eyeriss_fixture()
        serial = BranchBoundSearch(
            space, evaluator, seed=0, leaf_width=4
        ).run()
        parallel = BranchBoundSearch(
            space, evaluator, seed=0, workers=2, leaf_width=4
        ).run()
        assert parallel.best_metric == serial.best_metric
        bnb = parallel.stats["bnb"]
        # Deep walks must both expand interior nodes and defer leaves —
        # the two counters are distinct stats and both must register.
        assert bnb["nodes_expanded"] > 0
        assert bnb["leaves_deferred"] > 0

    def test_seed_determinism_across_runs(self):
        space, evaluator = _eyeriss_fixture()
        a = BranchBoundSearch(space, evaluator, seed=3, workers=2).run()
        b = BranchBoundSearch(space, evaluator, seed=3, workers=2).run()
        assert a.best_metric == b.best_metric
        assert a.stats["bnb"] == b.stats["bnb"]


class TestParallelStats:
    def test_pool_payload_schema(self):
        space, evaluator = _eyeriss_fixture()
        result = BranchBoundSearch(space, evaluator, seed=0, workers=2).run()
        assert result.stats["pool_mode"] in ("fork", "spawn", "sequential")
        pool = result.stats["pool"]
        assert pool["workers"] == 2
        assert pool["num_units"] == len(pool["units"])
        assert "transport" not in pool
        for row in pool["units"]:
            assert row["evaluations"] >= 0
            assert row["elapsed_s"] >= 0.0

    def test_stats_schema_matches_serial(self):
        space, evaluator = _eyeriss_fixture()
        serial = BranchBoundSearch(space, evaluator, seed=0).run()
        parallel = BranchBoundSearch(
            space, evaluator, seed=0, workers=2
        ).run()
        assert set(parallel.stats["bnb"]) == set(serial.stats["bnb"])
        assert set(parallel.stats["batch"]) == set(serial.stats["batch"])
        # Parallel runs additionally expose the pool breakdown.
        assert "pool" in parallel.stats and "pool" not in serial.stats

    def test_sequential_fallback_when_pool_unusable(self, monkeypatch):
        def explode(*args, **kwargs):
            raise ValueError("no process pools here")

        monkeypatch.setattr(
            "multiprocessing.get_context", explode, raising=True
        )
        space, evaluator = _eyeriss_fixture()
        serial = BranchBoundSearch(space, evaluator, seed=0).run()
        result = BranchBoundSearch(
            space, evaluator, seed=0, workers=2
        ).run()
        assert result.stats["pool_mode"] == "sequential"
        assert result.best_metric == serial.best_metric

    def test_rejects_bad_workers(self):
        space, evaluator = _toy_fixture()
        with pytest.raises(SearchError):
            BranchBoundSearch(space, evaluator, workers=0)


class TestObsMerge:
    """Per-worker registries must sum into the driver scope."""

    def test_subtrees_pruned_counter_merges(self, set_batch_size):
        set_batch_size(16)
        space, evaluator = _eyeriss_fixture()
        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            result = BranchBoundSearch(
                space, evaluator, seed=0, workers=2, leaf_width=4,
            ).run()
        bnb = result.stats["bnb"]
        assert bnb["subtrees_pruned"] > 0
        # The registry total spans driver-side partition pruning plus
        # every worker's walk — it must equal the merged stats counter.
        merged = registry.counter("search.subtrees_pruned").value(
            driver="branch-bound"
        )
        assert merged == bnb["subtrees_pruned"]

    def test_improvements_and_evaluations_reach_driver_scope(self):
        space, evaluator = _eyeriss_fixture()
        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            result = BranchBoundSearch(
                space, evaluator, seed=0, workers=2
            ).run()
        assert (
            registry.counter("search.candidates").value(
                driver="branch-bound"
            )
            == result.num_evaluated
        )
        assert (
            registry.counter("search.improvements").value(
                driver="branch-bound"
            )
            > 0
        )

    def test_repriced_claims_count_once(self):
        # Without a warm start every unit claims a best, and the driver
        # re-prices each claim: those rows are candidates like any other,
        # and a claim improves the incumbent once, when its re-price
        # accepts it.
        space, evaluator = _eyeriss_fixture()
        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            result = BranchBoundSearch(
                space, evaluator, seed=0, warm_samples=0, workers=2
            ).run()
        assert (
            registry.counter("search.candidates").value(
                driver="branch-bound"
            )
            == result.num_evaluated
        )
        improvements = registry.counter("search.improvements").value(
            driver="branch-bound"
        )
        assert improvements == len(result.curve) >= 1
        assert result.stats["progress"]["improvements"] == improvements
        assert result.stats["batch"]["candidates"] == result.num_evaluated


@pytest.mark.skipif(not hasattr(__import__("os"), "fork"), reason="needs fork")
def test_killed_worker_fails_the_search(crash_run):
    """A worker SIGKILLed mid-walk raises WorkerError for its unit
    instead of hanging the driver, and every other worker is reaped."""
    report = crash_run("""
        import repro.search.branch_bound_parallel as parallel
        from repro.arch import eyeriss_like
        from repro.mapspace import MapspaceKind
        from repro.mapspace.factory import make_mapspace
        from repro.model import Evaluator
        from repro.problem import GemmLayer
        from repro.search import BranchBoundSearch

        attributed = parallel.worker_errors


        def killing(index, seed):
            if index == 2:
                kill_self()
            return attributed(index, seed)


        def run():
            parallel.worker_errors = killing  # forked workers inherit it
            arch = eyeriss_like()
            workload = GemmLayer("g8x4x4", m=8, n=4, k=4).workload()
            BranchBoundSearch(
                make_mapspace(arch, workload, MapspaceKind.PFM),
                Evaluator(arch, workload),
                seed=0, workers=2, start_method="fork",
            ).run()
    """)
    assert report == {"index": 2, "children": 0}
