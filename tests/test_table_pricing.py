"""Enumerated rows are priced from per-chain tables, exactly.

Exhaustive sweeps and the branch-and-bound leaf flush keep their rows as
per-dim menu indices and price them from the tables of a
:class:`PartialBoundEngine`; only sampled and packed rows take the column
walk. Both must give the same outcomes bit for bit, the table path must
keep the walk's overflow guard, and a search must still run where the
bound engine refuses a layout.
"""

import inspect
import textwrap

import numpy as np
import pytest

import repro.model.bounds as bounds_module
from repro.arch import toy_glb_architecture, toy_linear_architecture
from repro.exceptions import SearchError
from repro.mapspace import make_mapspace
from repro.model import BatchEvaluator, Evaluator
from repro.model.batch import PartialBoundEngine, pack_menu_rows
from repro.problem import GemmLayer
from repro.search import BranchBoundSearch, ExhaustiveSearch
from repro.model.eval_cache import EvaluationCache
from repro.verify.invariants import check_leaf_exactness
from tests.test_mapspace_generator import _assert_packs_like_oracle


def _gemm_space(kind="pfm", arch=None, m=12, n=10, k=8):
    arch = arch or toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = GemmLayer("gemm", m=m, n=n, k=k).workload()
    return arch, workload, make_mapspace(arch, workload, kind)


def _fingerprint(result):
    return (
        result.best_metric,
        result.best.mapping.signature() if result.best else None,
        result.num_evaluated,
        result.num_valid,
        [(p.evaluations, p.best_metric) for p in result.curve],
        result.stats["batch"],
        result.stats["bnb"],
    )


class TestMenuRowBatches:
    def test_capacity_masked_batches_pack_on_first_read(self):
        _, _, space = _gemm_space("ruby")
        for batch in space.iter_batches(batch_size=64):
            assert batch.menu_rows is not None
            assert batch._bounds is None
            first = batch.mapping_at(0)
            assert batch._bounds is None  # one row never packs the batch
            bounds, rems = pack_menu_rows(
                batch.layout, batch.menu_tables, batch.menu_rows
            )
            assert np.array_equal(batch.bounds, bounds)
            assert np.array_equal(batch.rems, rems)
            assert batch.mapping_at(0).signature() == first.signature()

    def test_unmasked_batches_are_packed(self):
        _, _, space = _gemm_space()
        for batch in space.iter_batches(capacity=False):
            assert batch.menu_rows is None
            assert batch.bounds.shape[0] == batch.size

    @pytest.mark.parametrize("capacity", [True, False])
    def test_pinned_rows_skip_the_unravel_exactly(self, capacity, monkeypatch):
        """Fully pinned index rows (the leaf flush's) skip the unravel and
        batch exactly as the per-candidate oracle packs them."""
        _, _, space = _gemm_space("ruby-s")
        unravelled = []

        def unravel(*args, **kwargs):
            unravelled.append(args)
            return feasible_index_rows(*args, **kwargs)

        feasible_index_rows = space._feasible_index_rows
        monkeypatch.setattr(space, "_feasible_index_rows", unravel)
        rng = np.random.default_rng(0)
        pinned = np.stack(
            [
                rng.integers(0, len(menu), 3000)
                for _, menu in space.dim_chain_menus()
            ],
            axis=1,
        )
        got = _assert_packs_like_oracle(
            space, pinned, 64, np.arange(len(pinned)) * 3, capacity
        )
        assert len(got) > 1 and not unravelled
        assert all((b.menu_rows is None) == (not capacity) for b in got)


class TestLeafExactness:
    def test_invariant_holds(self):
        checked, violations = check_leaf_exactness(seed=0)
        assert checked > 0
        assert violations == []

    @pytest.mark.parametrize(
        "old,new",
        [("outer - outer_sp", "outer - outer"), ("inner - inner_sp", "inner - inner")],
    )
    def test_invariant_catches_full_for_spatial_multiplier(
        self, monkeypatch, old, new
    ):
        """Pricing the output's read deltas with the full multiplier in
        place of the spatial-only one must be caught."""
        source = textwrap.dedent(
            inspect.getsource(PartialBoundEngine.row_traffic)
        )
        assert old in source
        namespace = {}
        exec(compile(source.replace(old, new), "mutant", "exec"),
             vars(bounds_module), namespace)
        monkeypatch.setattr(
            PartialBoundEngine, "row_traffic", namespace["row_traffic"]
        )
        _, violations = check_leaf_exactness(seed=0)
        assert violations
        assert all("leaf-exactness" in v for v in violations)

    @pytest.mark.parametrize("kind", ["pfm", "ruby", "ruby-s", "ruby-t"])
    def test_exact_searches_match_the_column_walk(self, monkeypatch, kind):
        """Exhaustive and branch-and-bound searches report the same
        answers, counts and curves with the table path on and off."""
        arch, workload, _ = _gemm_space(kind)

        def runs():
            space = make_mapspace(arch, workload, kind)
            return [
                ExhaustiveSearch(space, Evaluator(arch, workload)).run(),
                BranchBoundSearch(
                    space, Evaluator(arch, workload), seed=0, leaf_width=64
                ).run(),
            ]

        tables = [_fingerprint(r) for r in runs()]
        original = BatchEvaluator.evaluate_batch

        def walk(self, batch, *args, tables=None, **kwargs):
            return original(self, batch, *args, **kwargs)

        monkeypatch.setattr(BatchEvaluator, "evaluate_batch", walk)
        assert [_fingerprint(r) for r in runs()] == tables


class TestOverflowGuard:
    #: 9 * M sits just below 2**53, so every chain whose bounds overshoot
    #: M trips the guard on toy9 while M itself still prices in int64.
    SIZE = 1000799917193443

    def _space(self):
        arch = toy_linear_architecture(9)
        workload = GemmLayer("big", m=self.SIZE, n=1, k=1).workload()
        return arch, workload, make_mapspace(arch, workload, "ruby-s")

    def test_flags_equal_the_packed_guard(self):
        arch, workload, space = self._space()
        engine = BatchEvaluator(
            Evaluator(arch, workload), layout=space.batch_layout()
        )
        assert engine.vectorize
        tables = PartialBoundEngine(engine, space.dim_chain_menus())
        flags = []
        for batch in space.iter_batches():
            got = tables.row_overflow(batch.menu_rows)
            assert np.array_equal(got, engine._overflow_rows(batch.bounds))
            flags.append(got)
        flags = np.concatenate(flags)
        assert 0 < flags.sum() < flags.size

    def test_flagged_rows_price_through_the_scalar_model(self):
        arch, workload, space = self._space()
        batched = ExhaustiveSearch(space, Evaluator(arch, workload)).run()
        scalar = ExhaustiveSearch(
            space, Evaluator(arch, workload), use_batch=False
        ).run()
        assert batched.stats["batch"]["fallback"] > 0
        assert batched.best_metric == scalar.best_metric
        assert batched.num_evaluated == scalar.num_evaluated
        assert (
            batched.best.mapping.signature()
            == scalar.best.mapping.signature()
        )


class TestRefusedBoundLayouts:
    def test_exhaustive_prices_a_layout_the_bound_engine_refuses(self):
        """A 2**62-row GEMM's bound products reach 2**63; the sweep never
        needed the bounds and still prices every candidate."""
        arch = toy_linear_architecture(9)
        workload = GemmLayer("huge", m=2**62, n=1, k=1).workload()
        space = make_mapspace(arch, workload, "pfm")
        engine = BatchEvaluator(
            Evaluator(arch, workload), layout=space.batch_layout()
        )
        with pytest.raises(SearchError, match="overflow int64"):
            PartialBoundEngine(engine, space.dim_chain_menus())
        result = ExhaustiveSearch(space, Evaluator(arch, workload)).run()
        assert result.num_evaluated == space.count_completions()
        assert result.best is not None

    def test_vectorized_sweep_falls_back_to_the_column_walk(
        self, monkeypatch
    ):
        arch, workload, _ = _gemm_space("ruby")

        def sweep():
            space = make_mapspace(arch, workload, "ruby")
            return _fingerprint(
                ExhaustiveSearch(space, Evaluator(arch, workload)).run()
            )

        expected = sweep()
        monkeypatch.setattr(bounds_module, "_INT64_LIMIT", 2.0**10)
        assert sweep() == expected


def test_shared_engine_builds_tables():
    """An engine over a cache-attached evaluator, as a service worker's
    pool entries keep across its jobs, prices enumerated rows from
    tables too, with the same answer."""
    arch, workload, space = _gemm_space("ruby-s")
    evaluator = Evaluator(arch, workload, cache=EvaluationCache())
    shared = BatchEvaluator(evaluator, layout=space.batch_layout())
    assert PartialBoundEngine(shared, space.dim_chain_menus()).layout is (
        space.batch_layout()
    )
    plain = ExhaustiveSearch(space, Evaluator(arch, workload)).run()
    served = ExhaustiveSearch(space, evaluator).run()
    assert _fingerprint(served) == _fingerprint(plain)
