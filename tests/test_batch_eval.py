"""Scalar <-> batch parity for the vectorized evaluation engine.

The batch engine's contract is *bit-exactness*: every quantity a search
compares (energy_pj, cycles, EDP, utilization, validity) must equal the
scalar :class:`~repro.model.evaluator.Evaluator`'s result with ``==``, not
``pytest.approx`` — otherwise batched searches could diverge from the
figures. These tests sweep presets x mapspace kinds with imperfect
(remainder-carrying) mappings and invalid candidates included, and assert
the searches themselves are trajectory-identical with batching on or off.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.arch import (
    eyeriss_like,
    simba_like,
    toy_glb_architecture,
    toy_linear_architecture,
)
from repro.arch.level import ComputeLevel, StorageLevel
from repro.arch.spec import Architecture
from repro.exceptions import SearchError
from repro.mapping.validity import capacity_violations
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.factory import make_mapspace
from repro.model import DEFAULT_BATCH_SIZE, BatchEvaluator, Evaluator, pack_mappings
from repro.model.access_counts import compute_access_counts
from repro.model.eval_cache import EvaluationCache
from repro.problem import ConvLayer, GemmLayer
from repro.problem.gemm import vector_workload
from repro.problem.tensor import simple_tensor
from repro.problem.workload import Workload
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.genetic import GeneticSearch
from repro.search.pareto_search import ParetoSearch
from repro.search.random_search import RandomSearch

KINDS = ("pfm", "ruby", "ruby-s", "ruby-t")


def _presets():
    return [
        (
            "toy",
            toy_glb_architecture(num_pes=6, glb_bytes=1024),
            vector_workload("v100", 100),
        ),
        (
            "linear9",
            toy_linear_architecture(9),
            vector_workload("v500", 500),
        ),
        (
            "eyeriss",
            eyeriss_like(),
            ConvLayer("conv", c=8, m=16, p=6, q=6, r=3, s=3).workload(),
        ),
        (
            "simba",
            simba_like(),
            GemmLayer("gemm", m=12, n=10, k=8).workload(),
        ),
    ]


def _assert_same_result(a, b, *, check_stats_batch=False):
    """Two SearchResults from identical-trajectory searches must agree."""
    assert a.num_evaluated == b.num_evaluated
    assert a.num_valid == b.num_valid
    assert a.terminated_by == b.terminated_by
    assert [(p.evaluations, p.best_metric) for p in a.curve] == [
        (p.evaluations, p.best_metric) for p in b.curve
    ]
    assert (a.best is None) == (b.best is None)
    if a.best is not None:
        assert a.best.metric(a.objective) == b.best.metric(b.objective)
        assert a.best.energy_pj == b.best.energy_pj
        assert a.best.cycles == b.best.cycles
        assert a.best.mapping.signature() == b.best.mapping.signature()
    if check_stats_batch:
        batch = b.stats["batch"]
        assert batch["candidates"] + batch["infeasible"] == b.num_evaluated
        assert 0.0 <= batch["prune_rate"] <= 1.0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "preset", _presets(), ids=lambda case: case[0]
)
def test_random_sample_parity(preset, kind):
    """Property-style sweep: batch == scalar on random (in)valid samples."""
    _, arch, workload = preset
    mapspace = make_mapspace(arch, workload, kind)
    evaluator = Evaluator(arch, workload)
    engine = BatchEvaluator(evaluator, layout=mapspace.batch_layout())
    assert engine.vectorize
    rng = random.Random(20260805)
    mappings = [mapspace.sample(rng) for _ in range(50)]
    batch = pack_mappings(mapspace.batch_layout(), mappings)
    outcome = engine.evaluate_batch(batch, objective="edp")
    saw_invalid = saw_imperfect = False
    for i, mapping in enumerate(mappings):
        scalar = evaluator.evaluate(mapping)
        assert scalar.valid == bool(outcome.valid[i])
        if not scalar.valid:
            saw_invalid = True
            assert outcome.metric[i] == float("inf")
            continue
        if mapping.has_imperfect_loops():
            saw_imperfect = True
        # Exact equality — the whole point of the columnar engine.
        assert scalar.energy_pj == float(outcome.energy_pj[i])
        assert scalar.cycles == int(outcome.cycles[i])
        assert scalar.utilization == float(outcome.utilization[i])
        assert scalar.edp == float(outcome.metric[i])
    assert saw_invalid or all(
        bool(v) for v in outcome.valid
    ), "sampler produced no invalid mapping and none were flagged"
    if kind != "pfm":
        assert saw_imperfect, "imperfect kinds must exercise remainders"


@pytest.mark.parametrize("kind", KINDS)
def test_enumeration_batch_matches_scalar(kind):
    """iter_batches rows equal enumerate_mappings at their ordinals; the
    candidates between them are exactly those failing scalar capacity."""
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    mapspace = make_mapspace(arch, workload, kind)
    evaluator = Evaluator(arch, workload)
    engine = BatchEvaluator(evaluator, layout=mapspace.batch_layout())
    scalar_mappings = list(mapspace.enumerate_mappings())
    rows = {}
    resolved = 0
    for batch in mapspace.iter_batches(batch_size=32):
        outcome = engine.evaluate_batch(batch, objective="edp")
        for i in range(batch.size):
            rows[resolved + batch.ordinal(i)] = (batch.mapping_at(i), outcome, i)
        resolved += batch.candidates
    assert resolved == len(scalar_mappings)
    assert 0 < len(rows) < resolved, "the prefilter must drop some rows here"
    for position, mapping in enumerate(scalar_mappings):
        fits = not capacity_violations(mapping, arch, workload)
        assert fits == (position in rows)
        if not fits:
            continue
        materialized, outcome, i = rows[position]
        assert mapping.signature() == materialized.signature()
        scalar = evaluator.evaluate(mapping)
        assert scalar.valid == bool(outcome.valid[i])
        if scalar.valid:
            assert scalar.edp == float(outcome.metric[i])


@pytest.mark.parametrize("kind", KINDS)
def test_pruning_never_discards_the_best(kind, set_batch_size):
    """Acceptance gate: the pruned kernel sweep matches the row-wise sweep.

    Pruned against unpruned pricing is the ``prune-parity`` invariant's
    job (tests/test_verify_invariants.py).
    """
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    mapspace = make_mapspace(arch, workload, kind)

    def sweep(**kwargs):
        return ExhaustiveSearch(
            mapspace, Evaluator(arch, workload), objective="edp", **kwargs
        ).run()

    scalar = sweep(use_batch=False)
    set_batch_size(64)
    pruned = sweep(use_batch=True)
    _assert_same_result(scalar, pruned, check_stats_batch=True)


def test_pruning_skips_candidates_somewhere(set_batch_size):
    """The lower bound actually fires on a space with bad candidates."""
    set_batch_size(64)
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    mapspace = make_mapspace(arch, workload, "ruby")
    result = ExhaustiveSearch(mapspace, Evaluator(arch, workload)).run()
    assert result.stats["batch"]["pruned"] > 0


@pytest.mark.parametrize("kind", ("pfm", "ruby", "ruby-s"))
def test_random_search_batch_parity(kind, set_batch_size):
    """Batched RandomSearch is draw-for-draw identical to the scalar loop."""
    set_batch_size(64)
    arch = eyeriss_like()
    workload = ConvLayer("conv", c=8, m=16, p=6, q=6, r=3, s=3).workload()
    constraints = eyeriss_row_stationary()

    def search(use_batch):
        return RandomSearch(
            make_mapspace(arch, workload, kind, constraints),
            Evaluator(arch, workload),
            max_evaluations=400,
            patience=80,
            seed=11,
            use_batch=use_batch,
        ).run()

    _assert_same_result(
        search(False), search(True), check_stats_batch=True
    )


def test_random_search_patience_termination_matches(set_batch_size):
    """A patience stop lands on the same draw with and without batching."""
    set_batch_size(256)
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)

    def search(use_batch):
        return RandomSearch(
            make_mapspace(arch, workload, "pfm"),
            Evaluator(arch, workload),
            max_evaluations=5000,
            patience=40,
            seed=3,
            use_batch=use_batch,
        ).run()

    a, b = search(False), search(True)
    assert a.terminated_by == "patience"
    _assert_same_result(a, b)


def test_genetic_batch_parity():
    """Batched population scoring evolves the exact same trajectory."""
    arch = eyeriss_like()
    workload = GemmLayer("gemm", m=12, n=10, k=8).workload()

    def search(use_batch):
        return GeneticSearch(
            make_mapspace(arch, workload, "ruby-s"),
            Evaluator(arch, workload),
            population_size=14,
            max_evaluations=84,
            seed=21,
            use_batch=use_batch,
        ).run()

    _assert_same_result(search(False), search(True), check_stats_batch=True)


def test_pareto_batch_parity(set_batch_size):
    """Chunked batch pricing keeps exactly the scalar frontier."""
    set_batch_size(64)
    arch = simba_like()
    workload = GemmLayer("gemm", m=12, n=10, k=8).workload()

    def search(use_batch):
        return ParetoSearch(
            make_mapspace(arch, workload, "ruby-s"),
            Evaluator(arch, workload),
            max_evaluations=300,
            seed=17,
            use_batch=use_batch,
        ).run()

    scalar, batched = search(False), search(True)
    assert scalar.num_evaluated == batched.num_evaluated == 300
    assert scalar.num_valid == batched.num_valid
    assert scalar.frontier, "no valid mapping sampled"
    assert [
        (e.energy_pj, e.cycles, e.mapping.signature()) for e in scalar.frontier
    ] == [
        (e.energy_pj, e.cycles, e.mapping.signature()) for e in batched.frontier
    ]
    assert scalar.stats["batch"]["candidates"] == 0
    assert batched.stats["batch"]["candidates"] == batched.num_evaluated


def test_exhaustive_limit_enforced_on_batch_path():
    """The safety cap raises before a too-large batch is priced."""
    arch = toy_linear_architecture(9)
    workload = vector_workload("v500", 500)
    mapspace = make_mapspace(arch, workload, "ruby")
    with pytest.raises(SearchError, match="exceeded limit"):
        ExhaustiveSearch(
            mapspace, Evaluator(arch, workload), limit=50, use_batch=True
        ).run()


def test_exhaustive_scalar_dedups_on_signature():
    """The scalar sweep's seen-set now keys on Mapping.signature()."""
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    mapspace = make_mapspace(arch, workload, "ruby")
    result = ExhaustiveSearch(
        mapspace, Evaluator(arch, workload), use_batch=False
    ).run()
    signatures = {
        m.signature() for m in mapspace.enumerate_mappings()
    }
    assert result.num_evaluated == len(signatures)


def test_bypass_mappings_fall_back_to_scalar():
    """Rows the grid cannot encode (bypass sets) are priced scalar-exact."""
    arch = eyeriss_like()
    workload = ConvLayer("conv", c=8, m=16, p=6, q=6, r=3, s=3).workload()
    mapspace = make_mapspace(arch, workload, "ruby-s")
    mapspace.explore_bypass = True
    evaluator = Evaluator(arch, workload)
    engine = BatchEvaluator(evaluator, layout=mapspace.batch_layout())
    rng = random.Random(77)
    mappings = [mapspace.sample(rng) for _ in range(40)]
    assert any(m.bypass for m in mappings), "no bypass mapping drawn"
    batch = pack_mappings(mapspace.batch_layout(), mappings)
    outcome = engine.evaluate_batch(batch, objective="edp")
    assert bool(outcome.fallback.any())
    for i, mapping in enumerate(mappings):
        scalar = evaluator.evaluate(mapping)
        assert scalar.valid == bool(outcome.valid[i])
        if scalar.valid:
            assert scalar.edp == float(outcome.metric[i])
            assert scalar.energy_pj == float(outcome.energy_pj[i])


def test_unsupported_evaluator_runs_scalar_path():
    """NoC/static components turn the kernels off; searches stay correct."""
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    evaluator = Evaluator(arch, workload, include_noc=True)
    engine = BatchEvaluator(evaluator)
    assert not engine.vectorize

    def search(use_batch):
        return RandomSearch(
            make_mapspace(arch, workload, "ruby-s"),
            Evaluator(arch, workload, include_noc=True),
            max_evaluations=120,
            patience=None,
            seed=5,
            use_batch=use_batch,
        ).run()

    a, b = search(False), search(True)
    _assert_same_result(a, b)
    # Kernels never engaged: the uniform schema still carries the batch
    # sub-dict, with every counter at zero.
    assert b.stats["batch"]["candidates"] == 0
    assert b.stats["batch"]["batches"] == 0


#: Row-wise (``use_batch=False``) runs with a cache attached, pinned to
#: the answers of the per-candidate scalar loop the row-wise engine
#: replaced: best metric, convergence curve, candidates, valid rows and
#: cache hits/misses. A 4x3x2 GEMM draws duplicates inside one chunk, so
#: the get-or-price order of in-batch repeats is pinned too.
_ROW_WISE_GOLDEN = {
    "random": (
        lambda s, e: RandomSearch(
            s, e, max_evaluations=600, patience=None, seed=3,
            use_batch=False,
        ),
        21435.11210903247,
        [(27, 52717.89890896105), (39, 32301.992181720787),
         (105, 21481.861454480524), (128, 21435.11210903247)],
        (600, 35, 420, 180),
    ),
    "genetic": (
        lambda s, e: GeneticSearch(
            s, e, population_size=12, max_evaluations=84, seed=4,
            use_batch=False,
        ),
        32324.596199892865,
        [(12, 64905.02974523378), (29, 64699.02436344157),
         (55, 43341.37098164936), (62, 43048.202908961044),
         (74, 32324.596199892865)],
        (84, 42, 38, 46),
    ),
    "exhaustive": (
        lambda s, e: ExhaustiveSearch(s, e, use_batch=False),
        21435.11210903247,
        [(1, 294163.0407268831), (2, 216805.47272688313),
         (3, 108119.15767254547), (7, 64605.525672545475),
         (15, 43110.535369558456), (18, 43090.44290896105),
         (19, 21435.11210903247)],
        (252, 93, 0, 252),
    ),
    "pareto": (
        lambda s, e: ParetoSearch(
            s, e, max_evaluations=300, seed=6, use_batch=False
        ),
        None,
        [(5358.778027258118, 4)] * 4,
        (300, 26, 156, 144),
    ),
}

#: Batch sizes the golden runs were captured with (the others used 512).
_ROW_WISE_BATCH_SIZE = {"random": 256, "exhaustive": 64}


@pytest.mark.parametrize("name", sorted(_ROW_WISE_GOLDEN))
def test_row_wise_engine_matches_scalar_loop(name, set_batch_size):
    make, best, curve, counts = _ROW_WISE_GOLDEN[name]
    if name in _ROW_WISE_BATCH_SIZE:
        set_batch_size(_ROW_WISE_BATCH_SIZE[name])
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = GemmLayer("g", m=4, n=3, k=2).workload()
    cache = EvaluationCache(4096)
    result = make(
        make_mapspace(arch, workload, "ruby-s"),
        Evaluator(arch, workload, cache=cache),
    ).run()
    assert (
        result.num_evaluated, result.num_valid, cache.hits, cache.misses
    ) == counts
    assert result.stats["batch"]["candidates"] == 0
    if name == "pareto":
        points = [(e.energy_pj, e.cycles) for e in result.frontier]
        assert points == curve
        return
    assert result.best_metric == best
    assert [(p.evaluations, p.best_metric) for p in result.curve] == curve


class _RecordingCache(EvaluationCache):
    """An :class:`EvaluationCache` that counts its ``get`` calls."""

    def __init__(self, max_entries):
        super().__init__(max_entries)
        self.gets = 0

    def get(self, key):
        self.gets += 1
        return super().get(key)


def test_cache_lookup_counts_on_row_wise_path(set_batch_size):
    """Row-wise pricing, the cache's one client, looks up once per draw."""
    set_batch_size(64)
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    cache = _RecordingCache(1024)
    result = RandomSearch(
        make_mapspace(arch, workload, "ruby-s"),
        Evaluator(arch, workload, cache=cache),
        max_evaluations=200,
        patience=None,
        seed=9,
        use_batch=False,
    ).run()
    assert cache.gets == cache.hits + cache.misses == result.num_evaluated
    assert result.num_evaluated == 200


def test_cached_and_uncached_batched_searches_agree(set_batch_size):
    """The kernels never look the cache up, and a cache changes no result."""
    set_batch_size(64)
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)

    def search(cache):
        return RandomSearch(
            make_mapspace(arch, workload, "ruby-s"),
            Evaluator(arch, workload, cache=cache),
            max_evaluations=300,
            patience=None,
            seed=123,
            use_batch=True,
        ).run()

    cache = _RecordingCache(1024)
    _assert_same_result(search(None), search(cache), check_stats_batch=True)
    assert cache.gets == 0


def test_objective_energy_and_delay_parity(set_batch_size):
    """Non-EDP objectives route through the same exact kernels."""
    set_batch_size(64)
    arch = simba_like()
    workload = GemmLayer("gemm", m=12, n=10, k=8).workload()
    for objective in ("energy", "delay"):
        def search(use_batch):
            return RandomSearch(
                make_mapspace(arch, workload, "ruby-s"),
                Evaluator(arch, workload),
                objective=objective,
                max_evaluations=200,
                patience=60,
                seed=31,
                use_batch=use_batch,
            ).run()

        _assert_same_result(search(False), search(True))


# -- per-level traffic parity ------------------------------------------------
#
# Energy parity cannot tell apart two levels with equal read (or write)
# costs: a traffic stage that credited one level's accesses to the other
# would still price every row exactly. These tests compare the stage's
# per-level reads and writes, row by row, with the scalar access counts.


def _matvec_preset():
    """A GLB-bypassing matrix-vector product: ``y[m] = A[m, k] * x[k]``.

    ``A`` has no irrelevant dim (its boundary gets no projection lanes)
    and is kept at DRAM only (one boundary, no child level); ``x`` and
    ``y`` pass through a GLB with a 2-D spatial fanout and a PE buffer.
    """
    dram = StorageLevel.build(name="DRAM", capacity_words=None, word_bits=16)
    glb = StorageLevel.build(
        name="GlobalBuffer",
        capacity_words=512,
        word_bits=16,
        keeps={"x", "y"},
        fanout=12,
        fanout_x=4,
        fanout_y=3,
    )
    pe = StorageLevel.build(
        name="PEBuffer", capacity_words=64, word_bits=16, keeps={"x", "y"}
    )
    arch = Architecture(
        name="matvec-bypass",
        levels=(dram, glb, pe),
        compute=ComputeLevel(),
        mesh_x=4,
        mesh_y=3,
    )
    workload = Workload.create(
        name="matvec",
        dims={"M": 24, "K": 18},
        tensors=[
            simple_tensor("A", ("M", "K")),
            simple_tensor("x", ("K",)),
            simple_tensor("y", ("M",), is_output=True),
        ],
    )
    return arch, workload


def _live_rows(engine, batch):
    """Rows the traffic stage prices: valid, representable, not guarded."""
    valid = engine._validity(batch.bounds, batch.rems)
    keep = valid & ~batch.fallback & ~engine._overflow_rows(batch.bounds)
    return np.flatnonzero(keep)


def _assert_level_parity(engine, batch, live):
    """The traffic stage's per-level reads/writes equal the scalar counts."""
    layout = engine.layout
    reads, writes = engine._traffic(batch.bounds, batch.rems, batch.pos, live)
    assert reads.shape == writes.shape == (layout.num_levels, live.size)
    levels = range(layout.num_levels)
    expected = {}
    for row in set(live.tolist()):
        counts = compute_access_counts(
            layout.arch, layout.workload, batch.mapping_at(row)
        )
        expected[row] = (
            [counts.level_reads(l) for l in levels],
            [counts.level_writes(l) for l in levels],
        )
    for column, row in enumerate(live.tolist()):
        assert reads[:, column].tolist() == expected[row][0]
        assert writes[:, column].tolist() == expected[row][1]


@pytest.mark.parametrize(
    "preset",
    [p for p in _presets() if p[0] in ("toy", "eyeriss")]
    + [("matvec", *_matvec_preset())],
    ids=lambda case: case[0],
)
def test_level_traffic_parity_enumerated(preset):
    """Enumerated rows carry the broadcast virtual position numbering."""
    _, arch, workload = preset
    mapspace = make_mapspace(arch, workload, "ruby")
    engine = BatchEvaluator(Evaluator(arch, workload), layout=mapspace.batch_layout())
    checked = 0
    for batch in mapspace.iter_batches(batch_size=256):
        assert batch.pos.strides[0] == 0
        live = _live_rows(engine, batch)
        if live.size:
            _assert_level_parity(engine, batch, live)
            checked += live.size
        if checked >= 300:
            break
    assert checked


@pytest.mark.parametrize("name", ["eyeriss", "eyeriss-strided", "simba", "matvec"])
def test_level_traffic_parity_sampled(name):
    """Sampled Ruby-S rows carry real (shuffled) nest positions."""
    if name == "matvec":
        arch, workload = _matvec_preset()
    elif name == "eyeriss-strided":
        # Sliding-window ranks with coefficients other than 1.
        arch = eyeriss_like()
        workload = ConvLayer(
            "conv_s2", c=4, m=8, p=5, q=5, r=3, s=3, stride_h=2, dilation_w=2
        ).workload()
    else:
        _, arch, workload = next(p for p in _presets() if p[0] == name)
    mapspace = make_mapspace(arch, workload, "ruby-s")
    engine = BatchEvaluator(Evaluator(arch, workload), layout=mapspace.batch_layout())
    batch = mapspace.sample_batch(random.Random(20261017), 400)
    assert batch.pos.strides[0] != 0
    live = _live_rows(engine, batch)
    assert live.size
    if name != "matvec":
        assert any(batch.mapping_at(int(i)).has_imperfect_loops() for i in live)
    _assert_level_parity(engine, batch, live)


def test_level_traffic_parity_single_row():
    """One live row at a time: every array is a single column wide."""
    _, arch, workload = next(p for p in _presets() if p[0] == "eyeriss")
    mapspace = make_mapspace(arch, workload, "ruby-s")
    engine = BatchEvaluator(Evaluator(arch, workload), layout=mapspace.batch_layout())
    batch = mapspace.sample_batch(random.Random(7), 60)
    live = _live_rows(engine, batch)
    assert live.size
    for row in live[:10]:
        _assert_level_parity(engine, batch, np.array([row]))


def test_level_traffic_parity_past_one_batch():
    """More live rows than ``DEFAULT_BATCH_SIZE`` are priced in blocks."""
    _, arch, workload = next(p for p in _presets() if p[0] == "eyeriss")
    mapspace = make_mapspace(arch, workload, "ruby-s")
    engine = BatchEvaluator(Evaluator(arch, workload), layout=mapspace.batch_layout())
    batch = mapspace.sample_batch(random.Random(11), 200)
    live = _live_rows(engine, batch)
    assert live.size
    _assert_level_parity(
        engine, batch, np.resize(live, 2 * DEFAULT_BATCH_SIZE + 3)
    )


def test_traffic_plan_covers_bypass_and_laneless_tensors():
    """The matvec layout has a lane-less, single-boundary tensor."""
    arch, workload = _matvec_preset()
    plan = BatchEvaluator(Evaluator(arch, workload)).layout.traffic_plan
    by_name = dict(zip((t.name for t in workload.tensors), plan.tensors))
    assert by_name["A"].segments is None
    assert by_name["A"].parents.tolist() == [0] and by_name["A"].children.size == 0
    assert by_name["x"].segments is not None and by_name["y"].segments is not None
