"""Throughput benchmark for the vectorized batch evaluation engine.

Acceptance criteria from the batch-engine PR:

* the toy exhaustive sweep must run at >= 5x the scalar evaluator's
  mappings/sec through the batch path, and
* batched random search on a real ResNet-50 layer must be no slower than
  the scalar loop, and
* pricing the conv5_expand PFM exhaustive sweep's enumerated rows from
  per-chain tables must run >= 1.2x faster than the column walk over the
  same batches,

with results bit-identical in both cases (asserted here too — a fast
wrong answer is not a speedup). Measured numbers land in the untracked
``build/bench/BENCH_batch_eval.json``, which ``make bench-record``
appends to the regression ledger. Run via ``make bench-batch``.
"""

from __future__ import annotations

import json
import time

import pytest

pytest.importorskip("numpy")

from conftest import BenchRecord, best_of, run_once

from repro.arch import eyeriss_like, toy_glb_architecture
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.factory import make_mapspace, pfm_mapspace
from repro.model import BatchEvaluator, Evaluator
from repro.model.batch import PartialBoundEngine
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.loop import RunLedger
from repro.search.random_search import RandomSearch
from repro.problem.gemm import vector_workload
from repro.zoo.resnet50 import RESNET50_LAYERS

_record = BenchRecord("batch_eval")

def test_toy_exhaustive_sweep_5x(benchmark):
    """The headline criterion: >= 5x on the toy exhaustive sweep."""
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    mapspace = make_mapspace(arch, workload, "ruby")

    def sweep(use_batch):
        return ExhaustiveSearch(
            mapspace,
            Evaluator(arch, workload),
            objective="edp",
            use_batch=use_batch,
        ).run()

    rounds = 3
    scalar, scalar_s = best_of(lambda: sweep(False), rounds)
    batched, batched_s = best_of(lambda: sweep(True), rounds)
    run_once(benchmark, lambda: sweep(True))
    assert scalar.best_metric == batched.best_metric
    assert scalar.num_evaluated == batched.num_evaluated
    scalar_rate = scalar.num_evaluated / scalar_s
    batched_rate = batched.num_evaluated / batched_s
    speedup = batched_rate / scalar_rate
    print(
        f"\ntoy exhaustive ({scalar.num_evaluated} mappings): "
        f"scalar {scalar_rate:,.0f}/s, batch {batched_rate:,.0f}/s "
        f"-> {speedup:.1f}x "
        f"(pruned {batched.stats['batch']['pruned']})"
    )
    _record(
        "toy_exhaustive_ruby_v100",
        {
            "num_mappings": scalar.num_evaluated,
            "scalar_mappings_per_sec": round(scalar_rate, 1),
            "batch_mappings_per_sec": round(batched_rate, 1),
            "speedup": round(speedup, 2),
            "pruned": batched.stats["batch"]["pruned"],
        },
    )
    assert speedup >= 5.0


def test_resnet_layer_random_search_not_slower(benchmark):
    """Batch >= scalar throughput on a real conv layer's random search."""
    arch = eyeriss_like()
    by_name = {layer.name: layer for layer, _ in RESNET50_LAYERS}
    workload = by_name["conv3_3x3"].workload()
    constraints = eyeriss_row_stationary()

    def search(use_batch):
        return RandomSearch(
            make_mapspace(arch, workload, "ruby-s", constraints),
            Evaluator(arch, workload),
            max_evaluations=400,
            patience=None,
            seed=17,
            use_batch=use_batch,
        ).run()

    rounds = 2
    scalar, scalar_s = best_of(lambda: search(False), rounds)
    batched, batched_s = best_of(lambda: search(True), rounds)
    run_once(benchmark, lambda: search(True))
    assert scalar.best_metric == batched.best_metric
    scalar_rate = scalar.num_evaluated / scalar_s
    batched_rate = batched.num_evaluated / batched_s
    speedup = batched_rate / scalar_rate
    print(
        f"\nconv3_3x3 random search ({scalar.num_evaluated} draws): "
        f"scalar {scalar_rate:,.0f}/s, batch {batched_rate:,.0f}/s "
        f"-> {speedup:.1f}x"
    )
    _record(
        "resnet50_conv3_3x3_random_ruby_s",
        {
            "num_mappings": scalar.num_evaluated,
            "scalar_mappings_per_sec": round(scalar_rate, 1),
            "batch_mappings_per_sec": round(batched_rate, 1),
            "speedup": round(speedup, 2),
        },
    )
    assert batched_rate >= scalar_rate


def test_conv5_expand_table_pricing_1_2x(benchmark):
    """Table pricing of enumerated rows: the column walk's sweep, faster.

    Both sides price the batches of the conv5_expand PFM sweep (446,145
    candidates) in enumeration order against the running incumbent, as
    ``ExhaustiveSearch`` does; only the ``evaluate_batch`` calls are
    timed (the walk's time includes packing the rows it reads).
    """
    arch = eyeriss_like()
    by_name = {layer.name: layer for layer, _ in RESNET50_LAYERS}
    workload = by_name["conv5_expand"].workload()
    space = pfm_mapspace(arch, workload, constraints=eyeriss_row_stationary())
    evaluator = Evaluator(arch, workload)
    engine = BatchEvaluator(evaluator, layout=space.batch_layout())
    tables = PartialBoundEngine(engine, space.dim_chain_menus())

    def sweep(use_tables):
        ledger = RunLedger(evaluator, "exhaustive", "edp", engine=engine)
        priced_s = 0.0
        with ledger:
            for batch in space.iter_batches():
                start = time.perf_counter()
                outcome = engine.evaluate_batch(
                    batch,
                    incumbent=ledger.best_metric,
                    prune=True,
                    tables=tables if use_tables else None,
                )
                priced_s += time.perf_counter() - start
                ledger.record_batch(batch, outcome)
        result = ledger.result("exhausted")
        return result, priced_s

    def best(use_tables, rounds=3):
        runs = [sweep(use_tables) for _ in range(rounds)]
        return runs[-1][0], min(priced_s for _, priced_s in runs)

    walked, walk_s = best(False)
    priced, table_s = best(True)
    run_once(benchmark, lambda: sweep(True))
    speedup = walk_s / table_s
    print(
        f"\nconv5_expand pfm sweep ({priced.num_evaluated} candidates, "
        f"{priced.stats['batch']['candidates']} priced rows): column walk "
        f"{walk_s:.3f}s, tables {table_s:.3f}s -> {speedup:.1f}x"
    )
    _record(
        "resnet50_conv5_expand_table_pricing",
        {
            "num_mappings": priced.num_evaluated,
            "priced_rows": priced.stats["batch"]["candidates"],
            "column_walk_s": round(walk_s, 4),
            "table_s": round(table_s, 4),
            "speedup": round(speedup, 2),
        },
    )
    assert priced.best_metric == walked.best_metric
    assert priced.num_evaluated == walked.num_evaluated
    assert priced.curve == walked.curve
    assert priced.stats["batch"] == walked.stats["batch"]
    assert speedup >= 1.2


def test_results_file_is_valid_json():
    """The trajectory file the next PR will diff against must parse."""
    if not _record.path.exists():
        pytest.skip("benchmarks above did not run")
    data = json.loads(_record.path.read_text())
    assert data["benchmark"] == "batch_eval"
    assert data["cases"]
