"""Throughput benchmark for the vectorized batch evaluation engine.

Acceptance criteria from the batch-engine PR:

* the toy exhaustive sweep must run at >= 5x the scalar evaluator's
  mappings/sec through the batch path, and
* batched random search on a real ResNet-50 layer must be no slower than
  the scalar loop, and
* pricing the conv5_expand PFM exhaustive sweep's enumerated rows from
  per-chain tables must run >= 1.2x faster than the column walk over the
  same batches, and
* enumerating that sweep's batches in factored head x tail steps must run
  >= 2x faster than the flat unravel it replaced,

with results bit-identical in every case (asserted here too — a fast
wrong answer is not a speedup). Run via ``make bench-batch``.
"""

from __future__ import annotations

import time

import pytest

np = pytest.importorskip("numpy")

from conftest import best_of, run_once

from repro.arch import eyeriss_like, toy_glb_architecture
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.factory import make_mapspace, pfm_mapspace
from repro.model import BatchEvaluator, Evaluator
from repro.model.batch import PartialBoundEngine
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.loop import RunLedger
from repro.search.random_search import RandomSearch
from repro.utils.batching import DEFAULT_BATCH_SIZE
from repro.problem.gemm import vector_workload
from repro.zoo.resnet50 import RESNET50_LAYERS


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
    assert priced.best_metric == walked.best_metric
    assert priced.num_evaluated == walked.num_evaluated
    assert priced.curve == walked.curve
    assert priced.stats["batch"] == walked.stats["batch"]
    assert speedup >= 1.2


def _flat_unravel_batches(space, batch_size=DEFAULT_BATCH_SIZE, step=2048):
    """``(menu_rows, ordinals, span)`` of every batch of ``space.iter_batches()``,
    the way the enumeration made them before it factored its steps.

    The flat enumeration's step loop, for the one empty prefix: each step
    takes ``step`` flat indices, finds their prefix block, unravels them
    one divmod per dim, gathers every row's per-dim fanout bounds and
    capacity extents, keeps the rows that fit and numbers them; the rows
    are then cut into batches. Kept here only as the reference the
    factored enumeration is timed against.
    """
    layout = space.batch_layout()
    levels = layout.capacity_levels
    spatial = [o for o, slot in enumerate(space.slots) if slot.spatial]
    caps = np.array([space.slots[o].fanout_cap for o in spatial], np.int64)
    tables = [
        np.array([chain.bounds for chain in menu], np.int64)
        for _, menu in space.dim_chain_menus()
    ]
    # Per dim: its chains' bounds at the spatial slots (dims whose chains
    # all have 1 there never change a fanout product), and their tile
    # extents at each bounded level (shared when every chain has the same).
    fans = [(d, table[:, spatial]) for d, table in enumerate(tables)]
    fans = [(d, fan) for d, fan in fans if (fan > 1).any()]
    extents = [
        np.stack(
            [table[:, list(info["cols"])].prod(axis=1) for _, info in levels],
            axis=1,
        )
        for table in tables
    ]
    shared = [ext[0] if (ext == ext[0]).all() else None for ext in extents]
    num_dims = len(tables)
    radix = np.array([[len(table) for table in tables]], np.int64)
    ends = np.cumsum(radix.prod(axis=1))
    starts = ends - radix.prod(axis=1)
    base = np.zeros((1, num_dims + 2), np.int64)
    total = int(ends[-1])
    held = np.empty((0, num_dims + 2), np.int64)
    resolved = seen = 0
    for a in range(0, total, step):
        flat = np.arange(a, min(a + step, total))
        pid = np.searchsorted(ends, flat, side="right")
        local = flat - starts[pid]
        idx = base[pid]
        for d in reversed(range(num_dims)):
            local, digit = np.divmod(local, radix[pid, d])
            idx[:, d] += digit
        used = np.ones((len(idx), len(caps)), np.int64)
        for d, fan in fans:
            used *= fan[idx[:, d]]
            np.minimum(used, caps + 1, out=used)
        idx = idx[(used <= caps).all(axis=1)]
        count = len(idx)
        idx[:, -1] = np.arange(seen, seen + count)
        seen += count
        if count:
            ext = [
                table[idx[:, d]] if same is None else same
                for d, (table, same) in enumerate(zip(extents, shared))
            ]
            idx = idx[
                layout.fits_capacity(
                    [[e[..., j] for e in ext] for j in range(len(levels))],
                    count,
                )
            ]
        held = np.concatenate([held, idx])
        full = len(held) - len(held) % batch_size
        for cut in range(0, full, batch_size):
            part = held[cut:cut + batch_size]
            end = int(part[-1, -1]) + 1
            yield part[:, :num_dims], part[:, -1] - resolved, end - resolved
            resolved = end
        held = held[full:]
    if len(held) or seen > resolved:
        yield held[:, :num_dims], held[:, -1] - resolved, seen - resolved


def test_conv5_expand_factored_enumeration_2x(benchmark):
    """Factored enumeration: the conv5_expand PFM sweep's batches, 2x faster.

    Both sides enumerate the capacity-feasible rows of the sweep (446,145
    fanout-feasible candidates) into the same batches: ``iter_batches``
    in head x tail steps, and the flat unravel it replaced. Only the
    enumeration is timed; nothing is priced.
    """
    by_name = {layer.name: layer for layer, _ in RESNET50_LAYERS}
    workload = by_name["conv5_expand"].workload()
    space = pfm_mapspace(
        eyeriss_like(), workload, constraints=eyeriss_row_stationary()
    )

    def factored():
        return [
            (batch.menu_rows, batch.ordinals, batch.span)
            for batch in space.iter_batches()
        ]

    def flat():
        return list(_flat_unravel_batches(space))

    want, flat_s = best_of(flat, 3)
    got, factored_s = best_of(factored, 3)
    run_once(benchmark, factored)
    speedup = flat_s / factored_s
    rows = sum(len(menu_rows) for menu_rows, _, _ in got)
    print(
        f"\nconv5_expand pfm enumeration ({len(got)} batches, {rows} rows): "
        f"flat unravel {flat_s:.3f}s, factored {factored_s:.3f}s "
        f"-> {speedup:.1f}x"
    )
    assert len(got) == len(want)
    for (rows_a, ords_a, span_a), (rows_b, ords_b, span_b) in zip(got, want):
        assert np.array_equal(rows_a, rows_b)
        assert np.array_equal(ords_a, ords_b)
        assert span_a == span_b
    assert sum(span for _, _, span in got) == 446_145
    assert speedup >= 2.0
