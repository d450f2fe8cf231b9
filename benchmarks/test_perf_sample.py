"""Sampler benchmark: packed-row sampling against the per-candidate oracle.

Random search draws its candidates with ``MapSpace.sample_batch``: per
draw, one slot walk whose integer draws are ``random.Random``'s
``getrandbits`` rejection loop written inline, one chain-table lookup per
dimension (chain ids with their bounds, remainders and loop-cell bits)
and one read of each level's loops from the OR of those bits; per batch,
one NumPy gather of the rows by chain id and one position scatter. The
sampler it replaced drew each candidate slot by slot, assembled a
``Mapping`` and packed the list (``per_candidate_sample`` +
``pack_mappings``, kept in ``repro.verify`` as the oracle of the RNG
stream). On four ResNet-50 layers' Eyeriss mapspaces, PFM and Ruby-S (the
paper's Fig. 10 spaces), ``sample_batch`` must draw bit-identical arrays
from equal seeds at >= 4x the oracle's draws per second.

Run with: pytest benchmarks/test_perf_sample.py --benchmark-only -s
"""

from __future__ import annotations

import random
import time

import numpy as np
from conftest import run_once

from repro.arch import eyeriss_like
from repro.mapspace import MapspaceKind
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.generator import MapSpace
from repro.model.batch import pack_mappings
from repro.verify.invariants import per_candidate_sample
from repro.zoo.resnet50 import resnet50_representative

LAYERS = ("conv1_7x7", "conv2_3x3", "conv4_expand", "conv5_3x3")
KINDS = (MapspaceKind.PFM, MapspaceKind.RUBY_S)
DRAWS = 2_000
SEED = 1
MIN_SPEEDUP = 4.0


def _spaces():
    """Fresh mapspaces, so both samplers start with cold memos."""
    arch, constraints = eyeriss_like(), eyeriss_row_stationary()
    layers = {layer.name: layer for layer, _ in resnet50_representative()}
    return [
        (f"{name}/{kind.value}", MapSpace(arch, layers[name], kind, constraints))
        for name in LAYERS
        for kind in KINDS
    ]


def _best_of(rounds, *draws):
    """Best seconds of each ``draw`` over fresh spaces, and its batches.

    The draws alternate within each round, so a noisy neighbour slows
    both sides alike.
    """
    best = [float("inf")] * len(draws)
    batches = [None] * len(draws)
    for _ in range(rounds):
        for k, draw in enumerate(draws):
            spaces = _spaces()
            start = time.perf_counter()
            batches[k] = [(label, draw(space)) for label, space in spaces]
            best[k] = min(best[k], time.perf_counter() - start)
    return best, batches


def test_sample_batch_4x_per_candidate(benchmark):
    """>= 4x the per-candidate sampler's draws per second, same arrays."""

    def oracle(space):
        rng = random.Random(SEED)
        mappings = [per_candidate_sample(space, rng) for _ in range(DRAWS)]
        return pack_mappings(space.batch_layout(), mappings)

    def fast(space):
        return space.sample_batch(random.Random(SEED), DRAWS)

    (oracle_s, fast_s), (want, got) = run_once(
        benchmark, lambda: _best_of(3, oracle, fast)
    )
    for (label, batch), (_, expected) in zip(got, want):
        for name in ("bounds", "rems", "pos", "fallback"):
            assert np.array_equal(
                getattr(batch, name), getattr(expected, name)
            ), f"{label}: {name} differs from the per-candidate sampler"
    draws = DRAWS * len(got)
    speedup = oracle_s / fast_s
    print(
        f"\nsample_batch {draws / fast_s:,.0f} draws/s vs per-candidate "
        f"{draws / oracle_s:,.0f} draws/s: {speedup:.2f}x "
        f"(gate {MIN_SPEEDUP:.0f}x)"
    )
    assert speedup >= MIN_SPEEDUP
