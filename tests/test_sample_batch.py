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
from repro.exceptions import MapspaceError
from repro.mapspace import ConstraintSet, MapspaceKind, allocation
from repro.mapspace.allocation import ChainTable
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.generator import MapSpace, _swaps
from repro.model import Evaluator, pack_mappings
from repro.obs import MetricsRegistry, obs_scope
from repro.problem import GemmLayer
from repro.search import (
    GeneticSearch,
    ParetoSearch,
    RandomSearch,
)
from repro.search.loop import RunLedger, batch_engine_for
from repro.search.pareto_search import _dominates, _dominates_xy
from repro.model.eval_cache import EvaluationCache
from repro.verify.invariants import (
    _FloatOnlyRandom,
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
    # Every fixture, plus the refused float-only RNG.
    assert checked == len(_sample_parity_fixtures(seed)) + 1
    assert violations == []


@pytest.mark.parametrize(
    "label", [label for label, _ in _sample_parity_fixtures(0)]
)
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


def test_zero_draws_make_an_empty_batch_and_leave_the_rng_alone():
    space = _toy_space(explore_bypass=True)
    rng = random.Random(4)
    state = rng.getstate()
    batch = space.sample_batch(rng, 0)
    shape = (0, len(space.slots), len(space.workload.dim_names))
    assert batch.bounds.shape == batch.rems.shape == batch.pos.shape == shape
    assert batch.fallback.shape == (0,)
    assert rng.getstate() == state


def test_samples_counter_counts_one_per_draw():
    space = _toy_space()
    registry = MetricsRegistry()
    with obs_scope(registry):
        space.sample_batch(random.Random(0), 37)
        space.sample(random.Random(0))
        space.sample_many(5, random.Random(0))
    counters = registry.snapshot()["counters"]
    assert sum(counters["mapspace.samples"].values()) == 43


# -- the inlined integer draw -------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_inlined_draw_replays_randbelow(seed):
    """The sampler's integer draw below ``n``, ``r = getrandbits(k)`` until
    ``r < n`` with ``k = n.bit_length()`` (``_swaps`` precomputes ``k``
    for the shuffles' ``j <= k`` form), equals ``random.Random._randbelow``
    value for value and leaves the same state."""
    rng, oracle = random.Random(seed), random.Random(seed)
    for n in range(1, 4097):
        bits = n.bit_length()
        r = rng.getrandbits(bits)
        while r >= n:
            r = rng.getrandbits(bits)
        assert r == oracle._randbelow(n)
    assert rng.getstate() == oracle.getstate()
    for k, bits in _swaps(4097):
        j = rng.getrandbits(bits)
        while j > k:
            j = rng.getrandbits(bits)
        assert j == oracle._randbelow(k + 1)
    assert rng.getstate() == oracle.getstate()


def test_divisor_memo_holds_each_draws_bit_lengths():
    space = _eyeriss_space("conv1_7x7", MapspaceKind.RUBY_S)
    space.sample_batch(random.Random(0), 300)
    memo = space.allocator._divisor_memo
    assert memo
    for (residue, cap), (opts, count, bits, cap_bits) in memo.items():
        assert opts == tuple(d for d in range(1, cap + 1) if residue % d == 0)
        assert (count, bits, cap_bits) == (
            len(opts), len(opts).bit_length(), cap.bit_length()
        )


@pytest.mark.parametrize(
    "entry", ["sample_batch", "sample_chains", "resample_dim", "assemble",
              "sample_chain"],
)
def test_float_only_rng_is_refused_before_any_draw(entry):
    space = _toy_space(explore_bypass=True)
    chains = space.sample_chains(random.Random(0))
    call = {
        "sample_batch": lambda rng: space.sample_batch(rng, 3),
        "sample_chains": space.sample_chains,
        "resample_dim": lambda rng: space.resample_dim(chains, "M", rng),
        "assemble": lambda rng: space.assemble(chains, rng),
        "sample_chain": lambda rng: space.allocator.sample_chain(
            "M", 12, rng, {}
        ),
    }[entry]
    rng = _FloatOnlyRandom(3)
    state = rng.getstate()
    with pytest.raises(MapspaceError, match="_FloatOnlyRandom"):
        call(rng)
    assert rng.getstate() == state


def test_system_random_is_accepted():
    space = _toy_space()
    assert space.sample_batch(random.SystemRandom(), 5).size == 5
    assert set(space.sample_chains(random.SystemRandom())) == set(
        space.workload.dim_names
    )


# -- every Fig. 10 space -----------------------------------------------------

_FIG10_SPACES = [
    (workload.name, kind)
    for workload, _ in resnet50_representative()
    for kind in (MapspaceKind.PFM, MapspaceKind.RUBY_S)
]


def _assert_chunks_replay_the_oracle(space, seed, chunks):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    batches = [space.sample_batch(rng, n) for n in chunks]
    want = [per_candidate_sample(space, oracle_rng) for _ in range(sum(chunks))]
    oracle = pack_mappings(space.batch_layout(), want)
    for name in ("bounds", "rems", "pos", "fallback"):
        got = np.concatenate([getattr(batch, name) for batch in batches])
        assert np.array_equal(got, getattr(oracle, name)), name
    drawn = [batch.mapping_at(i) for batch in batches for i in range(batch.size)]
    assert drawn == want
    assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("layer,kind", _FIG10_SPACES)
def test_every_fig10_space_replays_the_oracle(layer, kind):
    _assert_chunks_replay_the_oracle(
        _eyeriss_space(layer, kind), seed=1, chunks=(1, 7, 192)
    )


@pytest.mark.parametrize("kind", [MapspaceKind.PFM, MapspaceKind.RUBY_S])
def test_chain_table_resets_keep_the_stream(kind, monkeypatch):
    """With the table bound lowered to 8 chains, the tables are cleared
    between calls (ids drawn in one call stay valid to its end) and the
    rows and stream still match the oracle on every Fig. 10 layer."""
    clears = []
    clear = ChainTable.clear

    def counting_clear(table):
        clears.append(table)
        clear(table)

    monkeypatch.setattr(allocation, "_CHAIN_MEMO_LIMIT", 8)
    for layer, _ in resnet50_representative():
        space = _eyeriss_space(layer.name, kind)
        monkeypatch.setattr(ChainTable, "clear", counting_clear)
        _assert_chunks_replay_the_oracle(space, seed=1, chunks=(1, 7, 192, 7))
        monkeypatch.setattr(ChainTable, "clear", clear)
        # The last two calls each started from full tables.
        assert len(clears) == 2 * len(space.workload.dim_names)
        clears.clear()


def test_sample_parity_holds_across_table_resets(monkeypatch):
    """``sample_chains`` and ``resample_dim`` (the allocator's own tables)
    cross resets too: the whole invariant at a 16-chain bound."""
    monkeypatch.setattr(allocation, "_CHAIN_MEMO_LIMIT", 16)
    checked, violations = check_sample_parity(1)
    assert checked == len(_sample_parity_fixtures(1)) + 1
    assert violations == []


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
                   batch_size=512, use_batch=True):
    """The per-candidate random search: sample ``Mapping``s, pack the list,
    then walk the priced rows one candidate at a time."""
    engine = batch_engine_for(space, evaluator, use_batch)
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
                    ledger.improved(
                        metric, lambda e=evaluation: e, base + i + 1
                    )
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
def test_patience_stops_exactly_after_a_mid_chunk_improvement(
    use_batch, set_batch_size
):
    set_batch_size(16)
    space = _toy_space(MapspaceKind.RUBY_S)
    evaluator = Evaluator(space.arch, space.workload)
    kwargs = dict(max_evaluations=5000, patience=40)
    got = RandomSearch(space, evaluator, seed=7, use_batch=use_batch,
                       **kwargs).run()
    want, chunk_ends, _ = _oracle_random(
        space, evaluator, 7, kwargs["max_evaluations"], kwargs["patience"],
        batch_size=16, use_batch=use_batch,
    )
    _assert_same_run(got, want)
    assert got.terminated_by == "patience"
    assert got.num_evaluated < kwargs["max_evaluations"]
    # An improvement strictly inside a chunk, so the patience count has to
    # restart mid-chunk rather than at a chunk edge.
    assert any(point.evaluations not in chunk_ends for point in got.curve)


def test_cache_attached_engine_looks_up_only_row_wise(set_batch_size):
    """A kernel engine over a cached evaluator never looks the cache up
    and matches an uncached run; a row-wise run looks up once per
    candidate, in the per-candidate oracle's order."""
    space = _eyeriss_space("conv5_expand", MapspaceKind.RUBY_S)

    class RecordingCache(EvaluationCache):
        def get(self, key):
            self.keys.append(key)
            return super().get(key)

    def cached():
        cache = RecordingCache()
        cache.keys = []
        return Evaluator(space.arch, space.workload, cache=cache), cache.keys

    set_batch_size(256)
    kwargs = dict(max_evaluations=1500, patience=600)
    evaluator, keys = cached()
    got = RandomSearch(space, evaluator, seed=1, **kwargs).run()
    want = RandomSearch(space, Evaluator(space.arch, space.workload), seed=1,
                        **kwargs).run()
    _assert_same_run(got, want)
    assert keys == []

    set_batch_size(128)
    kwargs = dict(max_evaluations=400, patience=None)
    evaluator, got_keys = cached()
    got = RandomSearch(space, evaluator, seed=1, use_batch=False,
                       **kwargs).run()
    evaluator, want_keys = cached()
    want, _, _ = _oracle_random(
        space, evaluator, 1, kwargs["max_evaluations"], kwargs["patience"],
        batch_size=128, use_batch=False)
    _assert_same_run(got, want)
    assert len(got_keys) == got.num_evaluated
    assert got_keys == want_keys


# -- goldens ----------------------------------------------------------------

#: Random and genetic runs on one toy Ruby space with bypass
#: exploration, as ``(best metric, best energy, best cycles, evaluated,
#: curve)`` with floats in ``float.hex`` form, plus the Pareto frontier as
#: ``(energy, cycles)`` pairs. Recorded before the sampler's hot path was
#: rewritten; the rewrite keeps the RNG stream, so every search must still
#: reproduce them bit for bit. A change to the cost model (not to sampling)
#: is the one legitimate reason to re-record them.
_GOLDENS = {
    "random": (
        "0x1.2e7abe8aa3207p+18", "0x1.e3f797443833ep+13", 20, 1500,
        (
            (2, "0x1.cc8b0cb3f77e0p+20"), (20, "0x1.59684986f99e8p+20"),
            (37, "0x1.d015011af637dp+18"), (229, "0x1.343accccccccdp+18"),
            (938, "0x1.3409ff3e5b8c7p+18"), (1203, "0x1.2e7abe8aa3207p+18"),
        ),
    ),
    "genetic": (
        "0x1.73a43ca0166f9p+18", "0x1.ef85a62ac894cp+13", 24, 112,
        ((7, "0x1.a75751833e6b0p+19"), (34, "0x1.73a43ca0166f9p+18")),
    ),
}
_PARETO_GOLDEN = (
    (
        ("0x1.e68e1a10bd458p+13", 48), ("0x1.e6c8a96ce63b5p+13", 32),
        ("0x1.e8bad385f0192p+13", 24), ("0x1.ed2ae147ae148p+13", 20),
    ),
    800,
)


def _golden_setup():
    arch = toy_glb_architecture(num_pes=6, glb_bytes=4096)
    workload = GemmLayer("g", m=6, n=5, k=4).workload()
    space = MapSpace(arch, workload, MapspaceKind.RUBY, explore_bypass=True)
    return space, Evaluator(arch, workload)


@pytest.mark.parametrize("searcher", sorted(_GOLDENS))
def test_searches_reproduce_their_goldens(searcher, set_batch_size):
    set_batch_size(128)
    space, evaluator = _golden_setup()
    search = {
        "random": lambda: RandomSearch(
            space, evaluator, max_evaluations=1500, patience=400, seed=3,
        ),
        "genetic": lambda: GeneticSearch(
            space, evaluator, population_size=16, max_evaluations=112,
            seed=3,
        ),
    }[searcher]
    result = search().run()
    assert (
        result.best_metric.hex(),
        result.best.energy_pj.hex(),
        result.best.cycles,
        result.num_evaluated,
        tuple((p.evaluations, p.best_metric.hex()) for p in result.curve),
    ) == _GOLDENS[searcher]


def test_pareto_search_reproduces_its_golden(set_batch_size):
    set_batch_size(128)
    space, evaluator = _golden_setup()
    result = ParetoSearch(
        space, evaluator, max_evaluations=800, seed=3
    ).run()
    assert (
        tuple((e.energy_pj.hex(), e.cycles) for e in result.frontier),
        result.num_evaluated,
    ) == _PARETO_GOLDEN
