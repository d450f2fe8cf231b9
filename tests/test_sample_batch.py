"""Sampling straight into packed rows: ``MapSpace.sample_batch``.

The per-candidate sampler it replaced (``per_candidate_sample``: chains
slot by slot, ``Mapping`` assembly, then :func:`pack_mappings`) is the
oracle throughout: rows, fallback flags, materialized mappings, the RNG
stream, and whole random and Pareto searches must match it exactly.
"""

import random

import numpy as np
import pytest

from repro.arch import eyeriss_like, toy_glb_architecture
from repro.mapspace import ConstraintSet, MapspaceKind
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.generator import MapSpace
from repro.model import Evaluator, pack_mappings
from repro.model.batch import BatchEvaluator
from repro.obs import MetricsRegistry, obs_scope
from repro.problem import GemmLayer
from repro.search import ParetoSearch, RandomSearch
from repro.search.loop import RunLedger, batch_engine_for
from repro.search.pareto_search import _dominates, _dominates_xy
from repro.service.coalesce import SharedBatchEngine, ThreadSafeEvaluationCache
from repro.verify.invariants import (
    _sample_parity_fixtures,
    check_sample_parity,
    per_candidate_sample,
)
from repro.zoo.resnet50 import resnet50_representative


def _toy_space(kind=MapspaceKind.RUBY, **kwargs):
    arch = toy_glb_architecture(num_pes=6, glb_bytes=4096)
    workload = GemmLayer("g", m=12, n=10, k=8).workload()
    return MapSpace(arch, workload, kind, **kwargs)


def _eyeriss_space(layer_name, kind):
    workload = dict(
        (w.name, w) for w, _ in resnet50_representative()
    )[layer_name]
    return MapSpace(eyeriss_like(), workload, kind, eyeriss_row_stationary())


# -- rows -------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sample_parity_invariant_is_clean(seed):
    checked, violations = check_sample_parity(seed)
    assert checked == len(_sample_parity_fixtures(seed))
    assert violations == []


@pytest.mark.parametrize("label", [label for label, _ in _sample_parity_fixtures(0)])
def test_chunked_draws_continue_one_stream(label):
    space = dict(_sample_parity_fixtures(0))[label]
    rng, oracle_rng = random.Random(5), random.Random(5)
    drawn = []
    for n in (1, 7, 24):
        batch = space.sample_batch(rng, n)
        drawn += [batch.mapping_at(i) for i in range(n)]
    want = [per_candidate_sample(space, oracle_rng) for _ in range(32)]
    assert drawn == want
    assert rng.getstate() == oracle_rng.getstate()


def test_sample_and_sample_many_replay_the_oracle():
    space = _toy_space(explore_bypass=True)
    rng, oracle_rng = random.Random(11), random.Random(11)
    single = [space.sample(rng) for _ in range(20)]
    many = space.sample_many(20, rng)
    want = [per_candidate_sample(space, oracle_rng) for _ in range(40)]
    assert single + many == want
    assert any(m.bypass for m in want)
    assert rng.getstate() == oracle_rng.getstate()


def test_fixed_permutations_reorder_sampled_rows():
    fixed = ConstraintSet.build(
        fixed_permutations={"GlobalBuffer": ("K", "M"), "DRAM": ("N",)}
    )
    space = _toy_space(constraints=fixed)
    batch = space.sample_batch(random.Random(3), 200)
    for i in range(batch.size):
        for nest in batch.mapping_at(i).levels:
            order = space.constraints.permutation(nest.level_name) or ()
            rank = {dim: k for k, dim in enumerate(order)}
            ranks = [rank.get(loop.dim, len(rank)) for loop in nest.temporal]
            assert ranks == sorted(ranks)


def test_bypass_rows_are_fallback_identity_rows():
    space = _toy_space(explore_bypass=True)
    batch = space.sample_batch(random.Random(2), 64)
    rows = np.flatnonzero(batch.fallback)
    assert 0 < rows.size < batch.size
    assert set(batch.mappings) == set(rows.tolist())
    assert (batch.bounds[rows] == 1).all() and (batch.rems[rows] == 1).all()
    assert (batch.pos[rows] == -1).all()
    assert all(batch.mapping_at(int(i)).bypass for i in rows)


def test_samples_counter_counts_one_per_draw():
    space = _toy_space()
    registry = MetricsRegistry()
    with obs_scope(registry):
        space.sample_batch(random.Random(0), 37)
        space.sample(random.Random(0))
        space.sample_many(5, random.Random(0))
    counters = registry.snapshot()["counters"]
    assert sum(counters["mapspace.samples"].values()) == 43


# -- pos-aware materialization ----------------------------------------------


def _shuffled_mappings():
    space = _eyeriss_space("conv3_3x3", MapspaceKind.RUBY_S)
    rng = random.Random(4)
    return space, [per_candidate_sample(space, rng) for _ in range(40)]


def test_packed_rows_rebuild_their_own_loop_order():
    space, mappings = _shuffled_mappings()
    layout = space.batch_layout()
    batch = pack_mappings(layout, mappings)
    batch.mappings = None
    assert [batch.mapping_at(i) for i in range(batch.size)] == mappings
    # Not vacuous: grid order (the enumeration numbering) loses the draws'
    # temporal orders.
    assert any(
        layout.materialize(batch.bounds[i], batch.rems[i], layout.grid_pos)
        != mappings[i]
        for i in range(batch.size)
    )


# -- searches ---------------------------------------------------------------


def _oracle_random(space, evaluator, seed, max_evaluations, patience,
                   batch_size=512, use_batch=True, engine=None):
    """The per-candidate random search: sample ``Mapping``s, pack the list,
    then walk the priced rows one candidate at a time."""
    engine = batch_engine_for(space, evaluator, use_batch, engine)
    ledger = RunLedger(evaluator, "random", "edp",
                       total_units=max_evaluations, engine=engine)
    rng = random.Random(seed)
    consecutive, terminated_by, chunk_ends = 0, "budget", []
    with ledger:
        while ledger.evaluations < max_evaluations:
            chunk = min(batch_size, max_evaluations - ledger.evaluations)
            if patience is not None:
                chunk = min(chunk, patience - consecutive)
            mappings = [per_candidate_sample(space, rng) for _ in range(chunk)]
            outcome = ledger.price_batch(
                pack_mappings(space.batch_layout(), mappings), prune=True
            )
            base = ledger.evaluations
            ledger.count(chunk)
            for i, mapping in enumerate(mappings):
                if not outcome.valid[i]:
                    continue
                ledger.num_valid += 1
                metric = float(outcome.metric[i])
                if not outcome.pruned[i] and metric < ledger.best_metric:
                    evaluation = outcome.evaluations.get(i)
                    if evaluation is None:
                        evaluation = evaluator.evaluate_fresh(mapping)
                    ledger.improved(metric, evaluation, base + i + 1)
                    consecutive = 0
                else:
                    consecutive += 1
            chunk_ends.append(ledger.evaluations)
            if patience is not None and consecutive >= patience:
                terminated_by = "patience"
                break
    return ledger.result(terminated_by), chunk_ends, rng


def _oracle_pareto(space, evaluator, seed, max_evaluations, batch_size=512):
    """The per-candidate Pareto search over a packed ``Mapping`` list."""
    engine = batch_engine_for(space, evaluator, True)
    ledger = RunLedger(evaluator, "pareto", total_units=max_evaluations,
                       engine=engine)
    rng = random.Random(seed)
    frontier = []
    with ledger:
        while ledger.evaluations < max_evaluations:
            chunk = min(batch_size, max_evaluations - ledger.evaluations)
            mappings = [per_candidate_sample(space, rng) for _ in range(chunk)]
            outcome = ledger.price_batch(
                pack_mappings(space.batch_layout(), mappings)
            )
            ledger.count(chunk)
            for i, mapping in enumerate(mappings):
                if not outcome.valid[i]:
                    continue
                ledger.num_valid += 1
                energy, cycles = float(outcome.energy_pj[i]), int(outcome.cycles[i])
                if any(
                    _dominates_xy(k.energy_pj, k.cycles, energy, cycles)
                    for k in frontier
                ):
                    continue
                evaluation = outcome.evaluations.get(i)
                if evaluation is None:
                    evaluation = evaluator.evaluate_fresh(mapping)
                frontier = [k for k in frontier if not _dominates(evaluation, k)]
                frontier.append(evaluation)
    frontier.sort(key=lambda e: (e.energy_pj, e.cycles))
    return frontier, ledger.evaluations, ledger.num_valid


def _assert_same_run(got, want):
    assert got.best.mapping == want.best.mapping
    assert got.best_metric == want.best_metric
    assert got.num_evaluated == want.num_evaluated
    assert got.num_valid == want.num_valid
    assert got.terminated_by == want.terminated_by
    assert got.curve == want.curve


@pytest.mark.parametrize("layer", ["conv2_3x3", "conv5_expand"])
@pytest.mark.parametrize("kind", [MapspaceKind.PFM, MapspaceKind.RUBY_S])
def test_random_search_matches_per_candidate_oracle(layer, kind):
    space = _eyeriss_space(layer, kind)
    evaluator = Evaluator(space.arch, space.workload)
    rng = random.Random(1)
    got = RandomSearch(space, evaluator, max_evaluations=3000, patience=1000,
                       seed=rng).run()
    want, _, oracle_rng = _oracle_random(space, evaluator, 1, 3000, 1000)
    _assert_same_run(got, want)
    assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("layer", ["conv2_3x3", "conv5_expand"])
@pytest.mark.parametrize("kind", [MapspaceKind.PFM, MapspaceKind.RUBY_S])
def test_pareto_search_matches_per_candidate_oracle(layer, kind):
    space = _eyeriss_space(layer, kind)
    evaluator = Evaluator(space.arch, space.workload)
    got = ParetoSearch(space, evaluator, max_evaluations=1200, seed=1).run()
    frontier, evaluated, valid = _oracle_pareto(space, evaluator, 1, 1200)
    assert [e.mapping for e in got.frontier] == [e.mapping for e in frontier]
    assert [(e.energy_pj, e.cycles) for e in got.frontier] == [
        (e.energy_pj, e.cycles) for e in frontier
    ]
    assert (got.num_evaluated, got.num_valid) == (evaluated, valid)


@pytest.mark.parametrize("use_batch", [True, False])
def test_patience_stops_exactly_after_a_mid_chunk_improvement(use_batch):
    space = _toy_space(MapspaceKind.RUBY_S)
    evaluator = Evaluator(space.arch, space.workload)
    kwargs = dict(max_evaluations=5000, patience=40, batch_size=16)
    got = RandomSearch(space, evaluator, seed=7, use_batch=use_batch,
                       **kwargs).run()
    want, chunk_ends, _ = _oracle_random(
        space, evaluator, 7, kwargs["max_evaluations"], kwargs["patience"],
        batch_size=kwargs["batch_size"], use_batch=use_batch,
    )
    _assert_same_run(got, want)
    assert got.terminated_by == "patience"
    assert got.num_evaluated < kwargs["max_evaluations"]
    # An improvement strictly inside a chunk, so the patience count has to
    # restart mid-chunk rather than at a chunk edge.
    assert any(point.evaluations not in chunk_ends for point in got.curve)


def test_cache_attached_engine_looks_up_once_per_candidate():
    space = _eyeriss_space("conv5_expand", MapspaceKind.RUBY_S)

    class RecordingCache(ThreadSafeEvaluationCache):
        def get(self, key):
            self.keys.append(key)
            return super().get(key)

    def run(search):
        cache = RecordingCache()
        cache.keys = []
        evaluator = Evaluator(space.arch, space.workload, cache=cache)
        engine = SharedBatchEngine(
            BatchEvaluator(evaluator, layout=space.batch_layout())
        )
        return search(evaluator, engine), cache.keys

    kwargs = dict(max_evaluations=1500, patience=600, batch_size=256)
    got, got_keys = run(lambda evaluator, engine: RandomSearch(
        space, evaluator, seed=1, batch_engine=engine, **kwargs).run())
    (want, _, _), want_keys = run(lambda evaluator, engine: _oracle_random(
        space, evaluator, 1, kwargs["max_evaluations"], kwargs["patience"],
        batch_size=kwargs["batch_size"], engine=engine))
    _assert_same_run(got, want)
    assert len(got_keys) == got.num_evaluated
    assert got_keys == want_keys
