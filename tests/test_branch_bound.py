"""Branch-and-bound mapper: prefix enumeration, bounds, and the search.

Three layers of guarantees, mirroring the construction:

* the prefix tree partitions the enumeration — per-prefix counts sum to
  the flat counts and the closed forms, and prefix batches reproduce the
  flat batch stream exactly;
* the partial-cost bounds are admissible — never above the true metric
  of any completion — and the vectorized paths (``child_bounds``,
  ``suffix_bounds``) agree with the scalar ``bound`` elementwise;
* the search itself returns the exhaustive optimum bit-for-bit, on
  every mapspace kind, deterministically per seed, whether the engine
  prices rows through its kernels or row by row.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.arch import (
    eyeriss_like,
    toy_glb_architecture,
    toy_linear_architecture,
)
from repro.exceptions import SearchError, SpecError
from repro.mapspace import MapspaceKind
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.counting import count_mapspace_size
from repro.mapspace.factory import make_mapspace, pfm_mapspace
from repro.mapspace.generator import MapSpace
from repro.model import Evaluator
from repro.model.batch import BatchEvaluator, PartialBoundEngine
from repro.problem import ConvLayer, GemmLayer
from repro.search import BranchBoundSearch
from repro.search.branch_bound import _SubtreeWalker
from repro.search.exhaustive import ExhaustiveSearch
from repro.zoo.resnet50 import RESNET50_LAYERS


def _toy():
    return toy_glb_architecture(num_pes=6, glb_bytes=1024)


def _row_wise_case(config):
    """(arch, workload, evaluator options, use_batch) for a config the
    engine prices row by row: NoC+static energy, a DRAM bandwidth limit,
    or ``use_batch=False``."""
    arch = toy_linear_architecture(16)
    workload = GemmLayer("g", m=16, n=8, k=8).workload()
    if config == "noc+static":
        options = {"include_noc": True, "include_static": True}
        return arch, workload, options, True
    if config == "bandwidth":
        dram, *inner = arch.levels
        limited = replace(dram, bandwidth_words_per_cycle=2.0)
        return arch.with_levels([limited, *inner]), workload, {}, True
    return arch, workload, {}, False


def _bound_engine(space, evaluator):
    engine = BatchEvaluator(evaluator, layout=space.batch_layout())
    assert engine.vectorize
    return PartialBoundEngine(engine, space.dim_chain_menus())


def _cell_metrics(space, evaluator, objective="edp"):
    """True metric per enumerated candidate, keyed by menu-index cell.

    The flat enumeration is the row-major product of the per-dim menus
    with jointly-infeasible combos skipped, so walking the index product
    in the same order aligns cells with enumerated candidates one-to-one.
    A batch's rows sit at their ordinals within its span; the candidates
    between them failed capacity and price to ``inf``.
    """
    engine = BatchEvaluator(evaluator, layout=space.batch_layout())
    metrics = []
    for batch in space.iter_batches(batch_size=256):
        out = engine.evaluate_batch(batch, objective=objective, prune=False)
        span = [float("inf")] * batch.candidates
        for i in range(batch.size):
            if out.valid[i]:
                span[batch.ordinal(i)] = float(out.metric[i])
        metrics += span
    menus = space.dim_chain_menus()
    cells = []
    for combo_idx in itertools.product(
        *[range(len(menu)) for _, menu in menus]
    ):
        chains = {
            menus[d][0]: menus[d][1][k] for d, k in enumerate(combo_idx)
        }
        if space.chains_within_fanout(chains):
            cells.append(combo_idx)
    assert len(cells) == len(metrics)
    return dict(zip(cells, metrics))


def _pin(space, **pins):
    """One menu-index prefix row: ``pins`` maps dim to menu index, every
    other dim is free (-1)."""
    return np.array(
        [[pins.get(dim, -1) for dim, _ in space.dim_chain_menus()]],
        dtype=np.int64,
    )


class TestPrefixEnumeration:
    @pytest.mark.parametrize("kind", list(MapspaceKind))
    def test_prefix_counts_partition_flat_count(self, vector100, kind):
        """Per-prefix counts sum to the flat count and the closed form."""
        arch = _toy()
        space = make_mapspace(arch, vector100, kind.value)
        flat = space.count_completions()
        assert flat == count_mapspace_size(
            arch, vector100, kind, count_valid=False
        ).raw
        for dim, menu in space.dim_chain_menus():
            by_prefix = sum(
                space.count_completions(_pin(space, **{dim: k}))
                for k in range(len(menu))
            )
            assert by_prefix == flat

    def test_prefix_counts_partition_along_every_dim(self, small_gemm):
        """Multi-dim space: any dimension's menu partitions the count."""
        space = make_mapspace(_toy(), small_gemm, "pfm")
        flat = space.count_completions()
        assert flat > 0
        for dim, menu in space.dim_chain_menus():
            rows = np.concatenate(
                [_pin(space, **{dim: k}) for k in range(len(menu))]
            )
            assert space.count_completions(rows) == flat
        # A two-dim prefix partitions one dim's sub-count the same way.
        (d0, _), (d1, menu1) = space.dim_chain_menus()[:2]
        for k0 in range(3):
            assert space.count_completions(_pin(space, **{d0: k0})) == sum(
                space.count_completions(_pin(space, **{d0: k0, d1: k1}))
                for k1 in range(len(menu1))
            )

    def test_batch_counts_match_prefix_counts(self, small_gemm):
        space = make_mapspace(_toy(), small_gemm, "pfm")
        dim, _ = space.dim_chain_menus()[0]
        for k in range(4):
            row = _pin(space, **{dim: k})
            batched = sum(
                batch.candidates
                for batch in space.iter_prefix_batches(row, batch_size=64)
            )
            assert batched == space.count_completions(row)

    def test_prefix_batches_reproduce_flat_stream(self, small_gemm):
        """Concatenating one dim's prefix batches equals the flat stream."""
        space = make_mapspace(_toy(), small_gemm, "pfm")
        dim, menu = space.dim_chain_menus()[0]

        def stacked(batches):
            batches = list(batches)
            bounds = np.concatenate([b.bounds for b in batches])
            rems = np.concatenate([b.rems for b in batches])
            return bounds, rems

        flat_bounds, flat_rems = stacked(space.iter_batches(batch_size=128))
        pref_bounds, pref_rems = stacked(
            space.iter_prefix_batches(
                np.concatenate(
                    [_pin(space, **{dim: k}) for k in range(len(menu))]
                ),
                batch_size=128,
            )
        )
        assert np.array_equal(flat_bounds, pref_bounds)
        assert np.array_equal(flat_rems, pref_rems)

    def test_infeasible_prefix_counts_zero(self, small_gemm):
        space = make_mapspace(_toy(), small_gemm, "pfm")
        menus = space.dim_chain_menus()
        full = {dim: menu[0] for dim, menu in menus}
        row = _pin(space, **{dim: 0 for dim, _ in menus})
        if space.chains_within_fanout(full):
            assert space.count_completions(row) == 1
        else:
            assert space.count_completions(row) == 0


class TestBoundAdmissibility:
    CASES = [
        ("toy-gemm-pfm", "toy"),
        ("toy-v100-ruby-s", "toy"),
        ("eyeriss-conv-pfm", "eyeriss"),
    ]

    def _setup(self, case, vector100, small_gemm):
        if case == "toy-gemm-pfm":
            arch = _toy()
            return arch, small_gemm, make_mapspace(arch, small_gemm, "pfm")
        if case == "toy-v100-ruby-s":
            arch = _toy()
            return arch, vector100, make_mapspace(arch, vector100, "ruby-s")
        # Adversarial: a conv with genuine R/S coefficient ranks, under
        # the row-stationary constraint set (sliding-window reuse is the
        # hard case for the projection-multiplier bound).
        arch = eyeriss_like()
        workload = ConvLayer(
            "tiny", c=2, m=2, p=3, q=3, r=3, s=3
        ).workload()
        return arch, workload, make_mapspace(
            arch, workload, "pfm", eyeriss_row_stationary()
        )

    @pytest.mark.parametrize("case", [c for c, _ in CASES])
    def test_full_assignment_bound_below_true_metric(
        self, case, vector100, small_gemm
    ):
        """The tightest bound (all dims pinned) never exceeds the truth."""
        arch, workload, space = self._setup(case, vector100, small_gemm)
        evaluator = Evaluator(arch, workload)
        be = _bound_engine(space, evaluator)
        metrics = _cell_metrics(space, evaluator)
        for cell, metric in metrics.items():
            if metric == float("inf"):
                continue
            assigned = {
                dim: k
                for (dim, _), k in zip(space.dim_chain_menus(), cell)
            }
            assert be.bound(assigned) <= metric * (1 + 1e-9)

    @pytest.mark.parametrize("case", [c for c, _ in CASES])
    def test_partial_bounds_admissible_on_random_prefixes(
        self, case, vector100, small_gemm
    ):
        """bound(prefix) <= min true metric over the prefix's completions."""
        arch, workload, space = self._setup(case, vector100, small_gemm)
        evaluator = Evaluator(arch, workload)
        be = _bound_engine(space, evaluator)
        by_objective = {
            objective: _cell_metrics(space, evaluator, objective)
            for objective in ("edp", "energy", "delay")
        }
        metrics = by_objective["edp"]
        menus = space.dim_chain_menus()
        dims = [dim for dim, _ in menus]
        rng = random.Random(7)
        checked = 0
        for _ in range(40):
            chosen = rng.sample(dims, rng.randrange(len(dims) + 1))
            assigned = {
                dim: rng.randrange(len(dict(menus)[dim]))
                for dim in chosen
            }
            cells = [
                cell
                for cell in metrics
                if all(
                    cell[d] == assigned[dim]
                    for d, dim in enumerate(dims)
                    if dim in assigned
                )
            ]
            if all(metrics[cell] == float("inf") for cell in cells):
                continue
            for objective, truth in by_objective.items():
                true_min = min(truth[cell] for cell in cells)
                assert be.bound(assigned, objective) <= true_min * (1 + 1e-9)
                checked += 1
        assert checked

    @staticmethod
    def _assert_grid_matches_scalar(be, assigned, swept, objective, grid):
        """Every cell of a swept-dims grid equals the scalar bound."""
        axes = [d for d in be.layout.dims if d in swept]
        menus = [range(len(be.menus[d])) for d in axes]
        assert grid.shape == tuple(len(m) for m in menus)
        for cell in itertools.product(*menus):
            full = {**assigned, **dict(zip(axes, cell))}
            assert float(grid[cell]) == pytest.approx(
                be.bound(full, objective), rel=1e-12
            )

    @pytest.mark.parametrize("case", [c for c, _ in CASES])
    def test_vectorized_bounds_match_scalar(
        self, case, vector100, small_gemm
    ):
        """Every vectorized grid equals the scalar bound in every cell.

        Covers both entry points (``child_bounds`` sweeps one dim,
        ``suffix_bounds`` every free one), a grid sweeping two dims while
        others stay free (relaxed) — a shape neither entry point asks
        for — and the 0-d grid, which sweeps nothing.
        """
        arch, workload, space = self._setup(case, vector100, small_gemm)
        be = _bound_engine(space, Evaluator(arch, workload))
        dims = list(be.layout.dims)
        rng = random.Random(3)
        partial_grids = 0
        for _ in range(12):
            chosen = rng.sample(dims, rng.randrange(len(dims)))
            assigned = {d: rng.randrange(len(be.menus[d])) for d in chosen}
            free = [d for d in dims if d not in assigned]
            for objective in ("edp", "energy", "delay"):
                check = functools.partial(
                    self._assert_grid_matches_scalar, be, assigned,
                    objective=objective,
                )
                branch = rng.choice(free)
                check(
                    swept=[branch],
                    grid=be.child_bounds(assigned, branch, objective),
                )
                check(swept=free, grid=be.suffix_bounds(assigned, objective))
                check(swept=[], grid=be._grid_bounds(assigned, [], objective))
                if len(free) >= 3:
                    swept = rng.sample(free, 2)
                    check(
                        swept=swept,
                        grid=be._grid_bounds(assigned, swept, objective),
                    )
                    partial_grids += 1
        assert partial_grids or len(dims) < 3

    def test_bound_monotone_under_assignment(self, small_gemm):
        """Assigning a dim never loosens the bound (tree monotonicity)."""
        arch = _toy()
        space = make_mapspace(arch, small_gemm, "pfm")
        be = _bound_engine(space, Evaluator(arch, small_gemm))
        menus = dict(space.dim_chain_menus())
        dims = list(be.layout.dims)
        rng = random.Random(11)
        for _ in range(30):
            chosen = rng.sample(dims, rng.randrange(len(dims)))
            assigned = {d: rng.randrange(len(menus[d])) for d in chosen}
            parent = be.bound(assigned)
            free = [d for d in dims if d not in assigned]
            if not free:
                continue
            branch = rng.choice(free)
            child = min(
                be.bound({**assigned, branch: idx})
                for idx in range(len(menus[branch]))
            )
            assert child >= parent * (1 - 1e-12)


class TestBranchBoundSearch:
    @pytest.mark.parametrize("kind", ["pfm", "ruby-s"])
    def test_matches_exhaustive_on_toy(
        self, toy_arch, vector100, toy_evaluator, kind
    ):
        space = make_mapspace(toy_arch, vector100, kind)
        exact = ExhaustiveSearch(space, toy_evaluator).run()
        pruned = BranchBoundSearch(
            make_mapspace(toy_arch, vector100, kind),
            Evaluator(toy_arch, vector100),
            seed=0,
        ).run()
        assert pruned.best_metric == exact.best_metric

    def test_matches_exhaustive_on_eyeriss_gemm(self):
        arch = eyeriss_like()
        workload = GemmLayer("g8x4x4", m=8, n=4, k=4).workload()
        exact = ExhaustiveSearch(
            make_mapspace(arch, workload, "pfm"), Evaluator(arch, workload)
        ).run()
        pruned = BranchBoundSearch(
            make_mapspace(arch, workload, "pfm"),
            Evaluator(arch, workload),
            seed=5,
        ).run()
        assert pruned.best_metric == exact.best_metric

    def test_seed_deterministic(self, toy_arch, vector100):
        def run():
            return BranchBoundSearch(
                make_mapspace(toy_arch, vector100, "pfm"),
                Evaluator(toy_arch, vector100),
                seed=42,
            ).run()

        a, b = run(), run()
        assert a.best_metric == b.best_metric
        assert a.num_evaluated == b.num_evaluated
        assert a.best.mapping.signature() == b.best.mapping.signature()
        assert a.stats["bnb"] == b.stats["bnb"]

    def test_leaf_width_does_not_change_optimum(self, toy_arch, small_gemm):
        metrics = set()
        for leaf_width in (1, 8, 512, 100_000):
            result = BranchBoundSearch(
                make_mapspace(toy_arch, small_gemm, "pfm"),
                Evaluator(toy_arch, small_gemm),
                seed=2,
                leaf_width=leaf_width,
            ).run()
            metrics.add(result.best_metric)
        assert len(metrics) == 1

    @pytest.mark.parametrize("config", ["noc+static", "bandwidth", "no-batch"])
    def test_row_wise_configs_walk_the_tree_exactly(self, config):
        """Evaluators the kernels do not model, and ``use_batch=False``,
        still walk the tree: same optimum as exhaustive, subtrees cut."""
        arch, workload, options, use_batch = _row_wise_case(config)
        exact = ExhaustiveSearch(
            make_mapspace(arch, workload, "pfm"),
            Evaluator(arch, workload, **options),
            use_batch=use_batch,
        ).run()
        result = BranchBoundSearch(
            make_mapspace(arch, workload, "pfm"),
            Evaluator(arch, workload, **options),
            seed=0,
            use_batch=use_batch,
        ).run()
        assert result.best_metric == exact.best_metric
        assert result.stats["bnb"]["subtrees_pruned"] > 0
        assert result.num_evaluated < exact.num_evaluated

    def test_degenerate_keeper_chain_raises_spec_error(self):
        """A tensor the outermost level does not keep fails as the scalar
        model does, before any bound is built on that layout."""
        workload = GemmLayer("g", m=8, n=4, k=4).workload()
        arch = toy_linear_architecture(4)
        dram, *inner = arch.levels
        arch = arch.with_levels(
            [replace(dram, keeps=frozenset({"A", "B"})), *inner]
        )
        space = make_mapspace(arch, workload, "pfm")
        engine = BatchEvaluator(
            Evaluator(arch, workload), layout=space.batch_layout()
        )
        assert not engine.vectorize
        with pytest.raises(SpecError, match="outermost level"):
            PartialBoundEngine(engine, space.dim_chain_menus())
        for warm_samples in (0, 64):
            with pytest.raises(SpecError, match="outermost level"):
                BranchBoundSearch(
                    make_mapspace(arch, workload, "pfm"),
                    Evaluator(arch, workload),
                    seed=0,
                    warm_samples=warm_samples,
                ).run()

    def test_stats_schema(self, toy_arch, vector100):
        result = BranchBoundSearch(
            make_mapspace(toy_arch, vector100, "pfm"),
            Evaluator(toy_arch, vector100),
            seed=0,
        ).run()
        assert set(result.stats["batch"]) == {
            "batches", "candidates", "pruned", "prune_rate", "fallback",
            "infeasible",
        }
        assert set(result.stats["bnb"]) == {
            "nodes_expanded", "leaves_deferred", "subtrees_pruned",
            "infeasible_subtrees", "root_bound", "bound_tightness",
            "warm_start_metric",
        }
        assert result.stats["bnb"]["root_bound"] is not None
        # Leaf-buffered nodes are deferrals, not expansions: both stats
        # count real events (a deferred leaf used to short-circuit the
        # expansion counter via `continue`, leaving nodes_expanded == 1
        # next to hundreds of thousands of pruned subtrees).
        assert result.stats["bnb"]["leaves_deferred"] > 0

    def test_warm_start_disabled_still_exact(self, toy_arch, vector100):
        exact = ExhaustiveSearch(
            make_mapspace(toy_arch, vector100, "pfm"),
            Evaluator(toy_arch, vector100),
        ).run()
        cold = BranchBoundSearch(
            make_mapspace(toy_arch, vector100, "pfm"),
            Evaluator(toy_arch, vector100),
            seed=0,
            warm_samples=0,
        ).run()
        assert cold.best_metric == exact.best_metric
        assert cold.stats["bnb"]["warm_start_metric"] is None

    def test_constructor_validation(self, toy_arch, vector100):
        space = make_mapspace(toy_arch, vector100, "pfm")
        evaluator = Evaluator(toy_arch, vector100)
        with pytest.raises(SearchError):
            BranchBoundSearch(space, evaluator, warm_samples=-1)
        with pytest.raises(SearchError):
            BranchBoundSearch(space, evaluator, leaf_width=0)
        with pytest.raises(SearchError, match="objective"):
            BranchBoundSearch(space, evaluator, objective="bogus")
        with pytest.raises(TypeError, match="batch_size"):
            BranchBoundSearch(space, evaluator, batch_size=512)

    def test_limit_enforced(self, toy_arch, vector100):
        with pytest.raises(SearchError):
            BranchBoundSearch(
                make_mapspace(toy_arch, vector100, "pfm"),
                Evaluator(toy_arch, vector100),
                seed=0,
                warm_samples=0,
                limit=3,
            ).run()


class TestTablesMatchScalarReference:
    """Every table cell built at construction equals its scalar replay.

    The engine builds its per-chain stats and projection-factor tables
    with vectorized column walks over whole menus; ``_chain_cycles``,
    ``_chain_tiles``, ``_chain_qual`` and ``_projection_factor`` replay
    one chain (and one cutoff) at a time in Python ints. Checked for
    every (chain, cutoff) of every key.
    """

    CASES = [c for c, _ in TestBoundAdmissibility.CASES] + [
        "eyeriss-gemm-ruby-s",
        "eyeriss-conv3x3-ruby-s",
        "eyeriss-strided-dilated-conv",
    ]

    def _space(self, case, vector100, small_gemm):
        if case in dict(TestBoundAdmissibility.CASES):
            return TestBoundAdmissibility()._setup(case, vector100, small_gemm)
        arch = eyeriss_like()
        if case == "eyeriss-gemm-ruby-s":
            workload = GemmLayer("g", m=12, n=10, k=8).workload()
            return arch, workload, make_mapspace(arch, workload, "ruby-s")
        if case == "eyeriss-conv3x3-ruby-s":
            layer = ConvLayer("c3", c=3, m=4, p=5, q=5, r=3, s=3)
            kind = "ruby-s"
        else:
            layer = ConvLayer(
                "sd", c=2, m=3, p=4, q=3, r=3, s=2,
                stride_h=2, stride_w=3, dilation_h=2, dilation_w=2,
            )
            kind = "pfm"
        workload = layer.workload()
        return arch, workload, make_mapspace(
            arch, workload, kind, eyeriss_row_stationary()
        )

    @pytest.mark.parametrize("case", CASES)
    def test_every_cell_matches_scalar_replay(
        self, case, vector100, small_gemm
    ):
        arch, workload, space = self._space(case, vector100, small_gemm)
        be = _bound_engine(space, Evaluator(arch, workload))
        cutoffs = range(-1, be._cutoff_hi + 1)
        keys_by_dim = {}
        for key in be.factors:
            keys_by_dim.setdefault(key[0], []).append(key)
        cells = 0
        for dim, menu in be.menus.items():
            for idx, chain in enumerate(menu):
                assert be.cycles[dim][idx] == be._chain_cycles(chain)
                tiles = be._chain_tiles(chain)
                qual = be._chain_qual(dim, chain)
                for cut in be.cuts:
                    assert be.tiles[dim][cut][idx] == tiles[cut]
                    assert be.qual[dim][cut][idx] == qual[cut]
                for key in keys_by_dim.get(dim, ()):
                    _, cut, parent, inner = key
                    row = be.factors[key][0][idx]
                    assert row.tolist() == [
                        be._projection_factor(
                            dim, chain, cut, parent, inner, cutoff
                        )
                        for cutoff in cutoffs
                    ]
                    cells += row.size
        for (table, table_min) in be.factors.values():
            assert np.array_equal(table_min, table.min(axis=0))
        assert cells == sum(t.size for t, _ in be.factors.values())


def _resnet_pfm(name):
    """A ResNet-50 layer's row-stationary PFM space on Eyeriss."""
    arch = eyeriss_like()
    workload = {
        layer.name: layer for layer, _ in RESNET50_LAYERS
    }[name].workload()
    return (
        pfm_mapspace(arch, workload, constraints=eyeriss_row_stationary()),
        Evaluator(arch, workload),
    )


def _toy_gemm(kind):
    arch = _toy()
    workload = GemmLayer("small_gemm", m=12, n=10, k=8).workload()
    return make_mapspace(arch, workload, kind), Evaluator(arch, workload)


class TestLeafPricing:
    """Sibling blocks are priced once, and the flush only does the
    bookkeeping; the walk is the one a per-flush pricing pass makes."""

    #: (best metric, num_evaluated, num_valid, digest of the best
    #: mapping's signature, the curve and ``stats["bnb"]``) of seed-0
    #: walks, recorded when every flush priced its own cells.
    FINGERPRINTS = {
        ("conv5_expand", None): (
            523603827315777.7, 13184, 323, "29b272d793498446"),
        ("conv5_reduce", None): (
            529265104909884.1, 16760, 557, "49e7d1b2268c4c38"),
        ("pfm", 16): (10277933.818093512, 2494, 188, "7f55bf64ca33c801"),
        ("pfm", 64): (10277933.818093512, 2494, 188, "7f55bf64ca33c801"),
        ("ruby", 16): (10277933.818093512, 4160, 84, "7efef71064f19a23"),
        ("ruby", 64): (10277933.818093512, 2677, 72, "714e0037b9746573"),
        ("ruby-s", 16): (10277933.818093512, 3574, 224, "f0d2ebcd903792a2"),
        ("ruby-s", 64): (10277933.818093512, 1374, 80, "2cae2fe381d9dd63"),
        ("ruby-t", 16): (10277933.818093512, 4160, 69, "4048ea19e3925bd3"),
        ("ruby-t", 64): (10277933.818093512, 3096, 152, "76beaca148287d1b"),
    }

    @pytest.mark.parametrize("case,leaf_width", sorted(
        FINGERPRINTS, key=lambda key: (key[0], key[1] or 0)
    ))
    def test_walk_fingerprint(self, case, leaf_width):
        """ResNet-50 conv5 layers (default leaf width) and the toy GEMM in
        all four kinds (16- and 64-cell leaves)."""
        if leaf_width is None:
            space, evaluator = _resnet_pfm(case)
            options = {}
        else:
            space, evaluator = _toy_gemm(case)
            options = {"leaf_width": leaf_width}
        result = BranchBoundSearch(space, evaluator, seed=0, **options).run()
        digest = hashlib.sha256(repr((
            result.best.mapping.signature(),
            [(p.evaluations, p.best_metric) for p in result.curve],
            sorted(result.stats["bnb"].items()),
        )).encode()).hexdigest()[:16]
        assert (
            result.best_metric, result.num_evaluated, result.num_valid, digest
        ) == self.FINGERPRINTS[(case, leaf_width)]

    def test_one_enumeration_pass_per_block(self, monkeypatch):
        """A vectorized walk enters ``iter_prefix_batches`` at most once per
        sibling block, plus once per flush that holds leaves without a
        record (a per-flush pricing pass entered it 122 times on
        conv5_expand)."""
        counts = {"passes": 0, "blocks": 0, "flushes": 0}
        iter_prefix_batches = MapSpace.iter_prefix_batches
        suffix_bounds = PartialBoundEngine.suffix_bounds
        flush_leaves = _SubtreeWalker.flush_leaves

        def passes(self, *args, **kwargs):
            counts["passes"] += 1
            return iter_prefix_batches(self, *args, **kwargs)

        def blocks(self, assigned, objective="edp", siblings=None):
            counts["blocks"] += siblings is not None
            return suffix_bounds(self, assigned, objective, siblings)

        def flushes(self):
            counts["flushes"] += any(
                record is None for _, _, record in self._leaf_buffer
            )
            return flush_leaves(self)

        monkeypatch.setattr(MapSpace, "iter_prefix_batches", passes)
        monkeypatch.setattr(PartialBoundEngine, "suffix_bounds", blocks)
        monkeypatch.setattr(_SubtreeWalker, "flush_leaves", flushes)
        space, evaluator = _resnet_pfm("conv5_expand")
        result = BranchBoundSearch(space, evaluator, seed=0).run()
        assert result.num_evaluated == 13184
        assert counts["blocks"] > 0
        assert 0 < counts["passes"] <= counts["blocks"] + counts["flushes"]
