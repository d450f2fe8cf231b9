"""Unit tests for MapSpace sampling, assembly, and enumeration."""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from repro.arch import eyeriss_like, toy_glb_architecture
from repro.exceptions import MapspaceError
from repro.mapping import is_valid_mapping
from repro.mapping.validity import capacity_violations
from repro.mapspace import (
    ConstraintSet,
    MapspaceKind,
    build_slots,
    make_mapspace,
    pfm_mapspace,
    ruby_mapspace,
    ruby_s_mapspace,
    ruby_t_mapspace,
)
from repro.mapspace import generator
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.obs import MetricsRegistry, obs_scope
from repro.problem import GemmLayer
from repro.zoo.resnet50 import RESNET50_LAYERS


class TestMapspaceKind:
    def test_flags(self):
        assert not MapspaceKind.PFM.spatial_imperfect
        assert not MapspaceKind.PFM.temporal_imperfect
        assert MapspaceKind.RUBY.spatial_imperfect
        assert MapspaceKind.RUBY.temporal_imperfect
        assert MapspaceKind.RUBY_S.spatial_imperfect
        assert not MapspaceKind.RUBY_S.temporal_imperfect
        assert not MapspaceKind.RUBY_T.spatial_imperfect
        assert MapspaceKind.RUBY_T.temporal_imperfect

    def test_from_string(self):
        assert MapspaceKind("ruby-s") is MapspaceKind.RUBY_S


class TestSampling:
    @pytest.mark.parametrize("kind", ["pfm", "ruby", "ruby-s", "ruby-t"])
    def test_samples_structurally_sound(self, toy_arch, vector100, kind):
        # Generated mappings always cover dims exactly and fit the fanout;
        # capacity violations are allowed (the mapspace includes invalid
        # mappings that the validity filter removes — the paper's step 2).
        from repro.mapping.validity import check_mapping

        space = make_mapspace(toy_arch, vector100, kind)
        rng = random.Random(0)
        some_valid = False
        for _ in range(100):
            mapping = space.sample(rng)
            violations = check_mapping(mapping, toy_arch, vector100)
            for violation in violations:
                assert "capacity" in violation or "partition" in violation, violation
            some_valid = some_valid or not violations
        assert some_valid

    def test_pfm_never_imperfect(self, toy_arch, vector100):
        space = pfm_mapspace(toy_arch, vector100)
        rng = random.Random(1)
        for _ in range(200):
            assert not space.sample(rng).has_imperfect_loops()

    def test_ruby_s_only_spatial_imperfect(self, toy_arch, vector100):
        space = ruby_s_mapspace(toy_arch, vector100)
        rng = random.Random(1)
        found = False
        for _ in range(200):
            mapping = space.sample(rng)
            assert not mapping.has_imperfect_temporal()
            found = found or mapping.has_imperfect_spatial()
        assert found

    def test_ruby_t_only_temporal_imperfect(self, toy_arch, vector100):
        space = ruby_t_mapspace(toy_arch, vector100)
        rng = random.Random(1)
        found = False
        for _ in range(200):
            mapping = space.sample(rng)
            assert not mapping.has_imperfect_spatial()
            found = found or mapping.has_imperfect_temporal()
        assert found

    def test_ruby_both_kinds_appear(self, toy_arch, vector100):
        space = ruby_mapspace(toy_arch, vector100)
        rng = random.Random(1)
        spatial = temporal = False
        for _ in range(300):
            mapping = space.sample(rng)
            spatial = spatial or mapping.has_imperfect_spatial()
            temporal = temporal or mapping.has_imperfect_temporal()
        assert spatial and temporal

    def test_reproducible_with_seed(self, toy_arch, vector100):
        space = ruby_s_mapspace(toy_arch, vector100)
        a = [m.canonical_key() for m in space.sample_many(20, random.Random(9))]
        b = [m.canonical_key() for m in space.sample_many(20, random.Random(9))]
        assert a == b

    def test_multi_dim_fanout_shared(self, eyeriss, small_conv):
        # Joint spatial allocation across all dims never exceeds the mesh.
        space = ruby_s_mapspace(eyeriss, small_conv)
        rng = random.Random(4)
        for _ in range(100):
            mapping = space.sample(rng)
            nest = mapping.level_nest("GlobalBuffer")
            assert nest.spatial_allocation_on_axis(0) <= 14
            assert nest.spatial_allocation_on_axis(1) <= 12

    def test_simba_spatial_dim_restriction_respected(self, simba, small_gemm):
        space = ruby_s_mapspace(simba, small_gemm)
        rng = random.Random(4)
        for _ in range(100):
            mapping = space.sample(rng)
            for nest in mapping.levels:
                for loop in nest.spatial:
                    if loop.bound > 1:
                        assert loop.dim in {"C", "M", "K"}


class TestConstraints:
    def test_spatial_dim_constraint(self, toy_arch, small_gemm):
        constraints = ConstraintSet.build(
            spatial_dims={"GlobalBuffer": {"M"}}
        )
        space = ruby_s_mapspace(toy_arch, small_gemm, constraints)
        rng = random.Random(2)
        for _ in range(100):
            mapping = space.sample(rng)
            for nest in mapping.levels:
                for loop in nest.spatial:
                    if loop.bound > 1:
                        assert loop.dim == "M"

    def test_max_spatial_cap(self, toy_arch, vector100):
        constraints = ConstraintSet.build(max_spatial={"GlobalBuffer": 3})
        space = ruby_s_mapspace(toy_arch, vector100, constraints)
        rng = random.Random(2)
        for _ in range(100):
            mapping = space.sample(rng)
            assert mapping.level_nest("GlobalBuffer").spatial_allocation <= 3

    def test_fixed_permutation(self, toy_arch, small_gemm):
        constraints = ConstraintSet.build(
            fixed_permutations={"GlobalBuffer": ("K", "M", "N")}
        )
        space = pfm_mapspace(toy_arch, small_gemm, constraints)
        rng = random.Random(2)
        for _ in range(50):
            mapping = space.sample(rng)
            dims = [l.dim for l in mapping.level_nest("GlobalBuffer").temporal]
            positions = {d: i for i, d in enumerate(dims)}
            ordered = [d for d in ("K", "M", "N") if d in positions]
            assert ordered == sorted(ordered, key=positions.get)

    def test_temporal_dim_constraint(self, toy_arch, small_gemm):
        constraints = ConstraintSet.build(
            temporal_dims={"GlobalBuffer": {"M"}}
        )
        space = pfm_mapspace(toy_arch, small_gemm, constraints)
        rng = random.Random(2)
        for _ in range(50):
            mapping = space.sample(rng)
            for loop in mapping.level_nest("GlobalBuffer").temporal:
                if loop.bound > 1:
                    assert loop.dim == "M"


class TestEnumeration:
    def test_enumeration_covers_sampling(self, linear_arch9, vector100):
        from repro.problem.gemm import vector_workload

        w = vector_workload("v20", 20)
        space = ruby_s_mapspace(linear_arch9, w)
        enumerated = {m.canonical_key() for m in space.enumerate_mappings()}
        rng = random.Random(0)
        for _ in range(300):
            assert space.sample(rng).canonical_key() in enumerated

    def test_limit_respected(self, linear_arch9, vector100):
        space = ruby_mapspace(linear_arch9, vector100)
        assert len(list(space.enumerate_mappings(limit=10))) == 10

    def test_enumerated_all_valid(self, linear_arch9):
        from repro.problem.gemm import vector_workload

        w = vector_workload("v12", 12)
        space = ruby_s_mapspace(linear_arch9, w)
        for mapping in space.enumerate_mappings():
            assert is_valid_mapping(mapping, linear_arch9, w)


class TestGenomeOps:
    def test_resample_dim_changes_only_that_dim(self, eyeriss, small_conv):
        space = ruby_s_mapspace(eyeriss, small_conv)
        rng = random.Random(0)
        chains = space.sample_chains(rng)
        updated = space.resample_dim(chains, "M", rng)
        for dim in chains:
            if dim != "M":
                assert updated[dim] is chains[dim]

    def test_remaining_budgets_nonnegative(self, eyeriss, small_conv):
        space = ruby_s_mapspace(eyeriss, small_conv)
        rng = random.Random(0)
        chains = space.sample_chains(rng)
        for budget in space.remaining_budgets(chains).values():
            assert budget >= 0

    def test_chains_within_fanout_holds_for_samples(self, eyeriss, small_conv):
        space = ruby_s_mapspace(eyeriss, small_conv)
        rng = random.Random(0)
        for _ in range(50):
            assert space.chains_within_fanout(space.sample_chains(rng))


class TestSlots:
    def test_eyeriss_has_two_spatial_slots(self, eyeriss):
        slots = build_slots(eyeriss)
        spatial = [s for s in slots if s.spatial]
        assert len(spatial) == 2
        assert {s.axis for s in spatial} == {0, 1}
        assert sorted(s.fanout_cap for s in spatial) == [12, 14]

    def test_linear_has_one_spatial_slot(self, linear_arch9):
        slots = build_slots(linear_arch9)
        spatial = [s for s in slots if s.spatial]
        assert len(spatial) == 1
        assert spatial[0].fanout_cap == 9

    def test_simba_two_fanouts(self, simba):
        slots = build_slots(simba)
        spatial = [s for s in slots if s.spatial]
        # GLB->PE (1D) plus the PE's 4x4 lane mesh (2D) = 3 spatial slots.
        assert len(spatial) == 3

    def test_slot_allows(self, eyeriss):
        constraints = ConstraintSet.build(
            spatial_dims={"GlobalBuffer": {"Q"}}
        )
        slots = build_slots(eyeriss, constraints)
        spatial = [s for s in slots if s.spatial]
        assert all(s.allows("Q") and not s.allows("P") for s in spatial)


def _itertools_packer(space, prefixes, batch_size, tags=None, capacity=True):
    """The per-candidate packer that the vectorized enumeration replaced.

    Maps each menu-index prefix row back to chains (a pinned index to
    its menu chain, ``-1`` to the whole menu), walks ``itertools.product``
    over those per-dimension choices, checks the joint fanout one
    candidate at a time, drops the candidates whose assembled mapping
    fails the scalar capacity check (with ``capacity``), and fills batch
    rows one by one. Kept here as the row-for-row oracle: returns
    ``(batches, count)``, one ``(size, bounds, rems, tags, ordinals)`` per
    batch (``ordinals`` being each row's position among all
    fanout-feasible candidates) and the fanout-feasible count.
    """
    dims = list(space.workload.dim_names)
    menus = [menu for _, menu in space.dim_chain_menus()]
    caps = [
        (offset, slot.fanout_cap)
        for offset, slot in enumerate(space.slots)
        if slot.spatial
    ]
    rows = []
    count = 0
    for index, prefix in enumerate(np.asarray(prefixes).tolist()):
        per_dim = [
            [menu[k]] if k >= 0 else menu for menu, k in zip(menus, prefix)
        ]
        for combo in itertools.product(*per_dim):
            if not all(
                math.prod(chain.bounds[offset] for chain in combo) <= cap
                for offset, cap in caps
            ):
                continue
            count += 1
            if not capacity or _fits(space, combo):
                tag = tags[index] if tags is not None else 0
                rows.append((combo, tag, count - 1))
    batches = []
    for start in range(0, len(rows), batch_size):
        chunk = rows[start:start + batch_size]
        shape = (len(chunk), len(space.slots), len(dims))
        bounds = np.ones(shape, dtype=np.int64)
        rems = np.ones(shape, dtype=np.int64)
        for row, (combo, _, _) in enumerate(chunk):
            for d, chain in enumerate(combo):
                bounds[row, :, d] = chain.bounds
                rems[row, :, d] = chain.remainders
        row_tags = (
            np.array([tag for _, tag, _ in chunk], dtype=np.int64)
            if tags is not None
            else None
        )
        ordinals = [ordinal for _, _, ordinal in chunk]
        batches.append((len(chunk), bounds, rems, row_tags, ordinals))
    return batches, count


_FITS = {}


def _fits(space, combo):
    """Scalar ``check_mapping`` capacity verdict of one chain combination
    (memoized: the packing tests replay the same candidates per batch
    size)."""
    key = (id(space), tuple((c.bounds, c.remainders) for c in combo))
    if key not in _FITS:
        mapping = space.assemble({c.dim: c for c in combo}, rng=None)
        _FITS[key] = (
            space,
            not capacity_violations(mapping, space.arch, space.workload),
        )
    return _FITS[key][1]


def _assert_packs_like_oracle(
    space, prefixes, batch_size, tags=None, capacity=True
):
    registry = MetricsRegistry()
    with obs_scope(registry):
        got = list(
            space.iter_prefix_batches(
                prefixes, batch_size=batch_size, tags=tags, capacity=capacity
            )
        )
    want, count = _itertools_packer(
        space, prefixes, batch_size, tags, capacity
    )
    # A call whose trailing candidates all fail capacity ends with an
    # empty batch that carries their span.
    if got and not got[-1].size and len(got) == len(want) + 1:
        assert got[-1].tags is None or got[-1].tags.size == 0
    else:
        assert len(got) == len(want)
    # The spans partition the fanout-feasible candidates.
    assert sum(batch.candidates for batch in got) == count
    grid_pos = space.batch_layout().grid_pos
    resolved = 0
    for batch, (size, bounds, rems, row_tags, ordinals) in zip(got, want):
        assert batch.size == size
        assert batch.bounds.dtype == batch.rems.dtype == np.int64
        assert np.array_equal(batch.bounds, bounds)
        assert np.array_equal(batch.rems, rems)
        assert [resolved + batch.ordinal(i) for i in range(size)] == ordinals
        resolved += batch.candidates
        if row_tags is None:
            assert batch.tags is None
        else:
            assert np.array_equal(batch.tags, row_tags)
        assert batch.pos.shape == bounds.shape
        assert batch.pos.strides[0] == 0
        assert np.array_equal(batch.pos[0], grid_pos)
        assert batch.fallback.shape == (size,)
        assert not batch.fallback.any()
    counters = registry.snapshot()["counters"]
    assert sum(counters.get("mapspace.batches", {}).values()) == len(got)
    assert sum(counters.get("mapspace.candidates", {}).values()) == sum(
        size for size, *_ in want
    )
    return got


def _prefix_cases(space, rng, full_count):
    """Named lists of menu-index prefix rows: flat, partial, fully pinned,
    mixed, infeasible."""
    menus = [menu for _, menu in space.dim_chain_menus()]
    free = [-1] * len(menus)

    def pick(menu):
        return rng.choice(range(len(menu)))

    partial = [[k] + free[1:] for k in range(6)] + [
        [pick(menus[0]), pick(menus[1])] + free[2:] for _ in range(6)
    ]
    full = [[pick(menu) for menu in menus] for _ in range(full_count)]
    # A two-dim prefix already over a fanout cap, and a full completion.
    infeasible = next(
        pair
        for pair in (
            [pick(menus[0]), pick(menus[1])] for _ in range(100_000)
        )
        if not space.chains_within_fanout(
            {menu[k].dim: menu[k] for menu, k in zip(menus, pair)}
        )
    )
    infeasible_full = infeasible + [pick(menu) for menu in menus][2:]
    mixed = full[:5] + partial[:3] + full[5:] + [free] + partial[3:]
    cases = {
        "flat": [free],
        "partial": partial,
        "pinned": full,
        "mixed": mixed,
        "infeasible": [infeasible + free[2:], infeasible_full],
    }
    cases = {name: np.array(rows, np.int64) for name, rows in cases.items()}
    cases["empty"] = np.empty((0, len(menus)), np.int64)
    return cases


class TestPackedEnumerationParity:
    """iter_prefix_batches equals the per-candidate walk it replaced."""

    @pytest.mark.parametrize("batch_size", [1, 7, 512])
    @pytest.mark.parametrize("kind", list(MapspaceKind))
    def test_toy_spaces(self, kind, batch_size):
        space = make_mapspace(
            toy_glb_architecture(num_pes=6, glb_bytes=1024),
            GemmLayer("g", m=6, n=5, k=4).workload(),
            kind.value,
        )
        rng = random.Random(batch_size)
        for name, prefixes in _prefix_cases(space, rng, 40).items():
            tags = (
                [1000 - i for i in range(len(prefixes))]
                if name == "mixed"
                else None
            )
            for capacity in (True, False):
                got = _assert_packs_like_oracle(
                    space, prefixes, batch_size, tags, capacity
                )
                if name in ("infeasible", "empty"):
                    assert got == []

    @pytest.mark.parametrize("batch_size", [1, 7, 512])
    def test_eyeriss_conv5_expand(self, batch_size):
        workload = {
            layer.name: layer for layer, _ in RESNET50_LAYERS
        }["conv5_expand"].workload()
        space = pfm_mapspace(
            eyeriss_like(), workload, constraints=eyeriss_row_stationary()
        )
        lens = {dim: len(menu) for dim, menu in space.dim_chain_menus()}
        rng = random.Random(7)

        def row(*pinned):
            return [
                rng.choice(range(lens[dim])) if dim in pinned else -1
                for dim in lens
            ]

        prefixes = [row(*lens) for _ in range(300)]
        prefixes[100:100] = [row("C", "M") for _ in range(20)]
        prefixes.insert(50, row("M"))
        tags = list(range(len(prefixes)))
        _assert_packs_like_oracle(
            space, np.array(prefixes, np.int64), batch_size, tags
        )


class TestPackedEnumerationSmallSteps(TestPackedEnumerationParity):
    """The same parity with 1- and 5-cell enumeration steps.

    Steps that small split every prefix's block into many head blocks,
    leave the tail empty whenever the innermost free menu is wider than
    a step, and put fully pinned prefixes and tags on step boundaries.
    """

    @pytest.fixture(autouse=True, params=[1, 5], ids=["cells1", "cells5"])
    def _step_cells(self, request, monkeypatch):
        monkeypatch.setattr(generator, "_INDEX_CHUNK", request.param)


def _toy_gemm_space(kind="pfm"):
    return make_mapspace(
        toy_glb_architecture(num_pes=6, glb_bytes=1024),
        GemmLayer("g", m=6, n=5, k=4).workload(),
        kind,
    )


class TestPrefixRows:
    """Menu-index prefix rows are checked where they enter, and
    ``block_fits`` decides partial prefixes as ``chains_within_fanout``."""

    @pytest.mark.parametrize(
        "rows",
        [
            [[16, 0, 0]],  # M's PFM menu has 16 chains
            [[0, 0]],
            [[0.0, 0.0, 0.0]],
            [[-2, 0, 0]],
            [0, 0, 0],
            [[0, 0, None]],
        ],
        ids=["past-menu", "narrow", "float", "below-free", "1-d", "object"],
    )
    def test_bad_rows_raise(self, rows):
        space = _toy_gemm_space()
        with pytest.raises(MapspaceError):
            space.count_completions(rows)
        with pytest.raises(MapspaceError):
            list(space.iter_prefix_batches(rows))

    @pytest.mark.parametrize("kind", list(MapspaceKind))
    def test_block_fits_skips_free_dims(self, kind):
        space = _toy_gemm_space(kind.value)
        menus = space.dim_chain_menus()
        rng = np.random.default_rng(5)
        verdicts = set()
        for _ in range(60):
            pinned = rng.random(len(menus)) < 0.6
            rows = np.stack(
                [rng.integers(0, len(menu), 32) for _, menu in menus], axis=1
            )
            index = [
                rows[:, d] if pinned[d] else None for d in range(len(menus))
            ]
            if pinned.sum() == 1:
                # One pinned chain for the whole block, given as an int.
                d = int(np.flatnonzero(pinned)[0])
                rows[:, d] = rows[0, d]
                index[d] = int(rows[0, d])
            fit, room = space.block_fits(index, (len(rows),), capacity=False)
            want = [
                space.chains_within_fanout(
                    {
                        dim: menu[k]
                        for (dim, menu), k, on in zip(menus, row, pinned)
                        if on
                    }
                )
                for row in rows.tolist()
            ]
            assert np.array_equal(fit, want)
            assert room.all()
            verdicts.update(want)
        assert verdicts == {True, False}


def _batch_digest(space):
    """sha256 over every batch's row count, ``menu_rows``, ``ordinals``
    and ``span`` of ``space.iter_batches()``."""
    digest = hashlib.sha256()
    for batch in space.iter_batches():
        digest.update(np.int64(batch.size).tobytes())
        digest.update(np.ascontiguousarray(batch.menu_rows, np.int64).tobytes())
        digest.update(np.ascontiguousarray(batch.ordinals, np.int64).tobytes())
        digest.update(np.int64(batch.span).tobytes())
    return digest.hexdigest()


class TestConv5ExpandGolden:
    """The conv5_expand PFM sweep's batches, pinned byte for byte.

    The digest was taken from the flat-unravel enumeration that the
    factored head x tail steps replaced.
    """

    def test_batches_and_count(self):
        workload = {
            layer.name: layer for layer, _ in RESNET50_LAYERS
        }["conv5_expand"].workload()
        space = pfm_mapspace(
            eyeriss_like(), workload, constraints=eyeriss_row_stationary()
        )
        assert _batch_digest(space) == (
            "97b80fb0373a7d6fa3419909454316d966945931386a4ae1b55c95018a7c18e4"
        )
        assert space.count_completions() == 446_145
