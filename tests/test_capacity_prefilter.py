"""Exact searches skip what the menu tables already decide.

Enumeration drops capacity-infeasible candidates on menu indices before
packing them, and branch-and-bound prices the suffix grids of sibling
leaves one block at a time. Neither may change what a search reports:
candidate counts, the ``limit`` trip point, curves and the optimum stay
those of a search that packs and bounds every candidate on its own.
"""

import itertools

import numpy as np
import pytest

from repro.arch import eyeriss_like, toy_glb_architecture
from repro.exceptions import ReproError, SearchError
from repro.mapspace import make_mapspace
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.factory import pfm_mapspace
from repro.model import BatchEvaluator, Evaluator
from repro.model.batch import PartialBoundEngine
from repro.problem import GemmLayer
from repro.problem.gemm import vector_workload
from repro.search import BranchBoundSearch, ExhaustiveSearch
from repro.zoo.resnet50 import RESNET50_LAYERS

#: (workload, kind, exhaustive candidates, branch-and-bound candidates,
#: candidate numbers of the branch-and-bound improvements): what a search
#: that packed every fanout-feasible candidate reported on the toy GLB
#: architecture (branch-and-bound with seed 0 and leaf width 16). Most
#: of these candidates fail capacity.
LIMIT_CASES = [
    ("v100", "ruby", 1315, 82, [9, 31, 47]),
    ("gemm", "pfm", 7632, 2494, [41, 209, 1868]),
]


def _toy_case(name, kind):
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = (
        vector_workload("v100", 100)
        if name == "v100"
        else GemmLayer("small_gemm", m=12, n=10, k=8).workload()
    )
    return arch, workload, lambda: make_mapspace(arch, workload, kind)


class TestLimitTripPoint:
    @pytest.mark.parametrize("name,kind,exhaustive,_,__", LIMIT_CASES)
    def test_exhaustive_limit(
        self, name, kind, exhaustive, _, __, set_batch_size
    ):
        set_batch_size(64)
        arch, workload, space = _toy_case(name, kind)
        assert space().count_completions() == exhaustive

        def run(limit):
            return ExhaustiveSearch(
                space(), Evaluator(arch, workload), limit=limit
            ).run()

        result = run(exhaustive)
        assert result.num_evaluated == exhaustive
        batch = result.stats["batch"]
        assert batch["infeasible"] > 0
        assert batch["candidates"] + batch["infeasible"] == exhaustive
        with pytest.raises(SearchError, match="limit"):
            run(exhaustive - 1)
        # The row-wise oracle packs every candidate; improvements carry
        # the same candidate numbers on both paths.
        row_wise = ExhaustiveSearch(
            space(), Evaluator(arch, workload), use_batch=False
        ).run()
        assert row_wise.stats["batch"]["infeasible"] == 0
        assert [(p.evaluations, p.best_metric) for p in result.curve] == [
            (p.evaluations, p.best_metric) for p in row_wise.curve
        ]

    @pytest.mark.parametrize("name,kind,_,priced,improved_at", LIMIT_CASES)
    def test_branch_bound_limit(self, name, kind, _, priced, improved_at):
        arch, workload, space = _toy_case(name, kind)

        def run(limit):
            return BranchBoundSearch(
                space(), Evaluator(arch, workload), seed=0, leaf_width=16,
                limit=limit,
            ).run()

        result = run(priced)
        assert result.num_evaluated == priced
        assert [p.evaluations for p in result.curve] == improved_at
        assert result.stats["batch"]["infeasible"] > 0
        with pytest.raises(SearchError, match="limit"):
            run(priced - 1)


class TestSiblingBlocks:
    @pytest.mark.parametrize("objective", ["edp", "energy", "delay"])
    def test_slices_equal_per_leaf_suffix_bounds(self, objective):
        """Slice ``j`` of a sibling block is the leaf's own grid, bit for
        bit, whatever subset and order of siblings the block holds."""
        arch = eyeriss_like()
        workload = {
            layer.name: layer for layer, _ in RESNET50_LAYERS
        }["conv5_expand"].workload()
        space = pfm_mapspace(
            arch, workload, constraints=eyeriss_row_stationary()
        )
        menus = space.dim_chain_menus()
        engine = PartialBoundEngine(
            BatchEvaluator(Evaluator(arch, workload), layout=space.batch_layout()),
            menus,
        )
        sizes = dict((dim, len(menu)) for dim, menu in menus)
        rng = np.random.default_rng(5)
        for pinned, dim in (({"C": 3}, "M"), ({"M": 7, "C": 1}, "P"), ({}, "C")):
            ks = rng.choice(sizes[dim], size=min(6, sizes[dim]), replace=False)
            block = engine.suffix_bounds(pinned, objective, siblings=(dim, ks))
            free = [d for d in engine.layout.dims if d not in pinned]
            axis = free.index(dim)
            assert block.shape[axis] == ks.size
            for j, k in enumerate(ks):
                leaf = engine.suffix_bounds({**pinned, dim: int(k)}, objective)
                assert np.array_equal(np.take(block, j, axis=axis), leaf)

    @pytest.mark.parametrize("kind,leaf_width", [("pfm", 16), ("ruby-s", 64)])
    def test_walk_matches_one_grid_per_leaf(self, monkeypatch, kind, leaf_width):
        """Turning the blocks off (every leaf prices its own grid at flush)
        changes no count, curve or optimum of the walk."""
        from repro.search.branch_bound import _SubtreeWalker

        arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
        workload = GemmLayer("small_gemm", m=12, n=10, k=8).workload()

        def fingerprint():
            result = BranchBoundSearch(
                make_mapspace(arch, workload, kind),
                Evaluator(arch, workload), seed=0, leaf_width=leaf_width,
            ).run()
            return (
                result.best_metric, result.num_evaluated, result.num_valid,
                [(p.evaluations, p.best_metric) for p in result.curve],
                result.stats["bnb"],
            )

        blocked = fingerprint()
        monkeypatch.setattr(
            _SubtreeWalker,
            "_sibling_cells",
            lambda self, assigned, dim, depth, children: [None] * len(children),
        )
        assert fingerprint() == blocked


class TestInt64Guard:
    def test_engine_refuses_products_reaching_2_63(self):
        """A 2**21-cubed GEMM's traffic product reaches 2**63."""
        side = 2**21
        arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
        workload = GemmLayer("huge", m=side, n=side, k=side).workload()
        space = make_mapspace(arch, workload, "pfm")
        engine = BatchEvaluator(
            Evaluator(arch, workload), layout=space.batch_layout()
        )
        with pytest.raises(SearchError, match="overflow int64") as info:
            PartialBoundEngine(engine, space.dim_chain_menus())
        assert isinstance(info.value, ReproError)

    def test_engine_accepts_resnet50_layers(self):
        arch = eyeriss_like()
        for layer, _ in itertools.islice(RESNET50_LAYERS, 0, None, 6):
            space = pfm_mapspace(
                arch, layer.workload(), constraints=eyeriss_row_stationary()
            )
            PartialBoundEngine(
                BatchEvaluator(
                    Evaluator(arch, layer.workload()),
                    layout=space.batch_layout(),
                ),
                space.dim_chain_menus(),
            )
