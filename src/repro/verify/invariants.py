"""Metamorphic invariants of the mapspace / evaluation stack.

Where :mod:`repro.verify.differential` asks "do all the evaluation paths
agree on this one mapping?", this module asks structural questions whose
answers are known a priori:

* **PFM containment** — every perfect-factorization mapping also lives in
  the Ruby mapspace (canonical-key set containment) and prices identically
  no matter which space produced it;
* **Counting consistency** — the :mod:`repro.mapspace.chain_count` closed
  forms match :meth:`DimAllocator.enumerate_chains` chain-by-chain, and
  the enumeration-based mapspace size never exceeds the closed-form upper
  bound;
* **Cache transparency** — a cache hit and ``evaluate_fresh`` both
  reproduce the uncached evaluation exactly;
* **Prune parity** — batch evaluation with lower-bound pruning on and off
  agrees on every surviving row, never prunes the best row, and every
  pruned row's true metric is at or above the incumbent;
* **Enumeration count parity** — the scalar chain enumeration emits each
  candidate exactly once (unique signatures), and its count matches both
  the prefix-tree closed-form count and the candidates the batched path's
  spans cover — the differential check behind removing the scalar path's
  vestigial dedup set — and the packed rows are, in order, the scalar
  candidates that fit capacity;
* **Capacity prefilter** — every candidate the enumeration drops before
  packing fails the scalar capacity check, and every packed one passes
  it, on all four kinds with and without fixed permutations;
* **Leaf exactness** — enumerated rows priced from the per-chain tables
  (the exhaustive sweep's and the branch-and-bound leaf pricing)
  equal the column walk on the same rows packed, bit for bit, in
  validity, pruning, cycles, energy, metric and utilization, and in the
  batch counts a run reports;
* **Branch-bound parity** — the hierarchical branch-and-bound searcher
  finds the bit-identical best mapping (same signature, energy, and
  cycles) as exhaustive enumeration on toy and Eyeriss-preset mapspaces,
  regardless of its warm-start seed;
* **Sample parity** — :meth:`MapSpace.sample_batch` draws the same rows,
  fallback flags and mappings, and leaves the RNG in the same state, as
  the per-candidate sampler it replaced (:func:`per_candidate_sample`:
  slot-by-slot chains, ``Mapping`` assembly, :func:`pack_mappings`), and
  ``sample_chains`` / ``resample_dim`` draw the oracle's chains; a
  ``random.Random`` subclass that overrides ``random()`` only (whose
  integer stream the sampler's inlined draw cannot follow) is refused
  before any draw, with its RNG untouched;
* **Seed determinism** — each of the five searchers run twice from one
  seed produces the same trajectory, and a best-of-seeds
  :func:`~repro.search.campaign.search_job` finds the same best metric
  under fork and spawn start methods.

Each invariant is a seed-deterministic callable returning a list of
violation strings, so the CLI can run them without Hypothesis; the
property-test layer re-drives the same callables under generated inputs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.arch import toy_glb_architecture, toy_linear_architecture
from repro.arch.eyeriss import eyeriss_like
from repro.energy.accelergy import estimate_energy_table
from repro.exceptions import MapspaceError
from repro.mapping.loop import Loop
from repro.mapping.nest import LevelNest, Mapping
from repro.mapping.validity import capacity_violations
from repro.mapspace.allocation import DimAllocator, DimChain, assign_remainders
from repro.mapspace.chain_count import count_dim_chains, mapspace_upper_bound
from repro.mapspace.constraints import ConstraintSet
from repro.mapspace.counting import count_mapspace_size
from repro.mapspace.generator import MapSpace, MapspaceKind
from repro.mapspace.slots import build_slots
from repro.model.eval_cache import EvaluationCache
from repro.model.evaluator import Evaluator
from repro.problem import GemmLayer
from repro.problem.gemm import vector_workload
from repro.search import (
    BranchBoundSearch,
    ExhaustiveSearch,
    GeneticSearch,
    ParetoSearch,
    RandomSearch,
)
from repro.search.branch_bound import DEFAULT_LEAF_WIDTH
from repro.search.campaign import CampaignJob, search_job
from repro.utils.mathx import ceil_div, divisors

#: Multiprocessing start methods the determinism invariant compares.
START_METHODS = ("fork", "spawn")


@dataclass
class InvariantReport:
    """Aggregate outcome of one invariant sweep."""

    checked: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"invariants: {sum(self.checked.values())} checks across "
            f"{len(self.checked)} invariants  "
            f"violations={len(self.violations)}  "
            f"elapsed={self.elapsed_s:.1f}s"
        ]
        for name, count in sorted(self.checked.items()):
            lines.append(f"  {name}: {count}")
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation}")
        return "\n".join(lines)


def _toy_setup(seed: int):
    """Small shared fixture: toy GLB arch + a GEMM small enough to count."""
    rng = random.Random(seed)
    arch = toy_glb_architecture(num_pes=6, glb_bytes=4096)
    m, n, k = rng.choice(((4, 3, 2), (6, 2, 2), (5, 3, 2)))
    workload = GemmLayer("g", m=m, n=n, k=k).workload()
    return rng, arch, workload


def check_pfm_containment(
    seed: int = 0, enumeration_limit: int = 20_000
) -> Tuple[int, List[str]]:
    """PFM mappings are contained in and score identically inside Ruby.

    Enumerates the PFM space of a small GEMM, requires every canonical key
    to appear in each Ruby variant's enumeration, and prices the PFM
    mapping against its Ruby twin (same canonical key) exactly.
    """
    _, arch, workload = _toy_setup(seed)
    table = estimate_energy_table(arch)
    evaluator = Evaluator(arch, workload, table)
    pfm = {
        m.canonical_key(): m
        for m in MapSpace(
            arch, workload, MapspaceKind.PFM
        ).enumerate_mappings(limit=enumeration_limit)
    }
    checked = 0
    violations: List[str] = []
    for kind in (MapspaceKind.RUBY_S, MapspaceKind.RUBY_T, MapspaceKind.RUBY):
        ruby = {
            m.canonical_key(): m
            for m in MapSpace(arch, workload, kind).enumerate_mappings(
                limit=enumeration_limit
            )
        }
        missing = set(pfm) - set(ruby)
        if missing:
            violations.append(
                f"pfm-containment: {len(missing)} PFM mappings absent from "
                f"{kind.value} ({workload.name})"
            )
        for key, mapping in pfm.items():
            twin = ruby.get(key)
            if twin is None:
                continue
            checked += 1
            mine = evaluator.evaluate_fresh(mapping)
            theirs = evaluator.evaluate_fresh(twin)
            if (
                mine.valid != theirs.valid
                or mine.energy_pj != theirs.energy_pj
                or mine.cycles != theirs.cycles
            ):
                violations.append(
                    f"pfm-containment: canonical twin prices differently in "
                    f"{kind.value}: {key}"
                )
    return checked, violations


def check_counting_consistency(seed: int = 0) -> Tuple[int, List[str]]:
    """Closed-form chain counts match allocator enumeration exactly.

    Also checks the whole-mapspace enumeration count never exceeds the
    closed-form upper bound (permutations/bypass off on both sides).
    """
    rng, arch, _ = _toy_setup(seed)
    slots = build_slots(arch)
    checked = 0
    violations: List[str] = []
    sizes = rng.sample((3, 4, 5, 6, 7, 9, 11, 12), 4)
    for kind in MapspaceKind:
        allocator = DimAllocator(
            slots, kind.spatial_imperfect, kind.temporal_imperfect
        )
        for size in sizes:
            checked += 1
            enumerated = sum(1 for _ in allocator.enumerate_chains("D", size))
            closed = count_dim_chains(slots, kind, "D", size)
            if enumerated != closed:
                violations.append(
                    f"counting: {kind.value} D={size}: closed form {closed} "
                    f"!= enumerated {enumerated}"
                )
    linear = toy_linear_architecture(9)
    for size in (9, 12):
        workload = vector_workload("v", size)
        for kind in MapspaceKind:
            checked += 1
            counted = count_mapspace_size(
                linear, workload, kind, count_valid=False
            )
            bound = mapspace_upper_bound(linear, {"D": size}, kind)
            if counted.raw > bound:
                violations.append(
                    f"counting: {kind.value} D={size}: enumerated size "
                    f"{counted.raw} exceeds closed-form bound {bound}"
                )
    return checked, violations


def check_cache_transparency(
    seed: int = 0, samples: int = 25
) -> Tuple[int, List[str]]:
    """Cache hits and ``evaluate_fresh`` reproduce the uncached result."""
    rng, arch, workload = _toy_setup(seed)
    table = estimate_energy_table(arch)
    plain = Evaluator(arch, workload, table)
    cache = EvaluationCache()
    cached = Evaluator(arch, workload, table, cache=cache)
    space = MapSpace(arch, workload, MapspaceKind.RUBY, explore_bypass=True)
    checked = 0
    violations: List[str] = []
    for mapping in space.sample_many(samples, rng):
        checked += 1
        baseline = plain.evaluate(mapping)
        first = cached.evaluate(mapping)
        second = cached.evaluate(mapping)
        fresh = cached.evaluate_fresh(mapping)
        for label, other in (
            ("miss", first), ("hit", second), ("fresh", fresh)
        ):
            if (
                baseline.valid != other.valid
                or baseline.energy_pj != other.energy_pj
                or baseline.cycles != other.cycles
                or baseline.utilization != other.utilization
            ):
                violations.append(
                    f"cache-transparency: {label} diverges from uncached on "
                    f"{mapping.signature()}"
                )
    if cache.hits == 0:
        violations.append("cache-transparency: repeated lookups never hit")
    return checked, violations


def check_prune_parity(
    seed: int = 0, samples: int = 64
) -> Tuple[int, List[str]]:
    """Batch pruning must be lossless: same winner, consistent rows."""
    from repro.model.batch import BatchEvaluator, PRUNE_MARGIN, pack_mappings

    rng, arch, workload = _toy_setup(seed)
    table = estimate_energy_table(arch)
    engine = BatchEvaluator(Evaluator(arch, workload, table))
    if not engine.vectorize:
        return 0, []  # row-wise engine: nothing to compare
    space = MapSpace(arch, workload, MapspaceKind.RUBY)
    # A draw can land on all-invalid mappings (infinite metric everywhere),
    # which would make the parity check vacuous — resample until at least
    # one finite row anchors the incumbent.
    for _ in range(8):
        mappings = space.sample_many(samples, rng)
        batch = pack_mappings(engine.layout, mappings)
        free = engine.evaluate_batch(batch, prune=False)
        metrics = [float(m) for m in free.metric]
        finite = [m for m in metrics if m != float("inf")]
        if finite:
            break
    else:
        return 0, [
            "prune-parity: no valid mapping found in "
            f"{8 * samples} samples; cannot anchor an incumbent"
        ]
    incumbent = min(finite)
    pruned = engine.evaluate_batch(batch, incumbent=incumbent, prune=True)
    checked = 0
    violations: List[str] = []
    best_row = metrics.index(incumbent)
    if bool(pruned.pruned[best_row]):
        violations.append(
            f"prune-parity: best row {best_row} (metric {incumbent}) was "
            "pruned against its own incumbent"
        )
    for row in range(len(mappings)):
        checked += 1
        if bool(pruned.pruned[row]):
            if metrics[row] < incumbent - PRUNE_MARGIN:
                violations.append(
                    f"prune-parity: row {row} pruned but its true metric "
                    f"{metrics[row]} beats the incumbent {incumbent}"
                )
            continue
        if metrics[row] != float(pruned.metric[row]):
            violations.append(
                f"prune-parity: row {row} metric differs with pruning on "
                f"({float(pruned.metric[row])}) vs off ({metrics[row]})"
            )
        if bool(free.valid[row]) != bool(pruned.valid[row]):
            violations.append(
                f"prune-parity: row {row} validity differs with pruning "
                "on vs off"
            )
    return checked, violations


def _packed_positions(space: MapSpace) -> Tuple[Dict[int, Any], int]:
    """Every packed row of ``space.iter_batches`` by candidate number.

    Returns ``({position: signature}, resolved)``: each row at its
    0-based position in the enumeration (its batch's start plus its
    ordinal), and the sum of the batches' spans.
    """
    packed: Dict[int, Any] = {}
    resolved = 0
    for batch in space.iter_batches(batch_size=512):
        for i in range(batch.size):
            packed[resolved + batch.ordinal(i)] = batch.mapping_at(i).signature()
        resolved += batch.candidates
    return packed, resolved


def check_enumeration_count_parity(seed: int = 0) -> Tuple[int, List[str]]:
    """Scalar enumeration, batched packing, and the closed count agree.

    The scalar exhaustive path used to carry a signature dedup set; this
    check is the evidence it was vestigial: chain enumeration emits each
    candidate exactly once (distinct chain combinations produce distinct
    cells, hence distinct signatures), so the scalar and closed counts
    must match, and the batched path's spans must sum to them. Beyond the
    counts, the packed rows must be, in order, exactly the scalar
    candidates that pass ``check_mapping``'s capacity rule, each
    materializing to the scalar enumeration's mapping at its position,
    which guards the vectorized packer and its capacity prefilter against
    the ``Mapping`` path row for row.
    """
    _, arch, workload = _toy_setup(seed)
    checked = 0
    violations: List[str] = []
    for kind in MapspaceKind:
        checked += 1
        space = MapSpace(arch, workload, kind)
        mappings = list(space.enumerate_mappings(limit=200_000))
        signatures = [m.signature() for m in mappings]
        scalar_count = len(signatures)
        unique_count = len(set(signatures))
        if scalar_count != unique_count:
            violations.append(
                f"count-parity: {kind.value} scalar enumeration emitted "
                f"{scalar_count - unique_count} duplicate signatures"
            )
        closed_count = space.count_completions()
        if scalar_count != closed_count:
            violations.append(
                f"count-parity: {kind.value} scalar enumeration count "
                f"{scalar_count} != closed-form count {closed_count}"
            )
        packed, resolved = _packed_positions(space)
        if resolved != scalar_count:
            violations.append(
                f"count-parity: {kind.value} batched spans cover "
                f"{resolved} candidates vs {scalar_count} scalar candidates"
            )
        fitting = [
            position
            for position, mapping in enumerate(mappings)
            if not capacity_violations(mapping, arch, workload)
        ]
        if sorted(packed) != fitting:
            violations.append(
                f"count-parity: {kind.value} batched path packed "
                f"{len(packed)} rows vs {len(fitting)} scalar candidates "
                "that fit capacity"
            )
        mismatch = next(
            (
                position
                for position in fitting
                if packed.get(position) != signatures[position]
            ),
            None,
        )
        if mismatch is not None:
            violations.append(
                f"count-parity: {kind.value} packed candidate {mismatch} "
                "does not materialize to the scalar enumeration's mapping"
            )
    return checked, violations


def check_capacity_prefilter(seed: int = 0) -> Tuple[int, List[str]]:
    """Every candidate enumeration drops unpacked fails capacity.

    :meth:`MapSpace.iter_prefix_batches` decides capacity on menu indices
    and never packs a candidate that fails it. On all four mapspace kinds,
    with the canonical loop order and with a fixed permutation at every
    level, each candidate missing from the packed rows must fail the
    scalar ``check_mapping`` on capacity, and each packed one must pass
    it.
    """
    _, arch, workload = _toy_setup(seed)
    order = tuple(reversed(workload.dim_names))
    fixed = ConstraintSet.build(
        fixed_permutations={level.name: order for level in arch.levels}
    )
    checked = 0
    violations: List[str] = []
    for constraints, label in ((None, "canonical"), (fixed, "fixed-permutation")):
        for kind in MapspaceKind:
            space = MapSpace(arch, workload, kind, constraints=constraints)
            packed, _ = _packed_positions(space)
            for position, mapping in enumerate(
                space.enumerate_mappings(limit=200_000)
            ):
                checked += 1
                fails = bool(capacity_violations(mapping, arch, workload))
                if fails == (position in packed):
                    violations.append(
                        f"capacity-prefilter: {kind.value} {label} candidate "
                        f"{position} "
                        + (
                            "fails capacity but was packed"
                            if fails
                            else "fits capacity but was dropped"
                        )
                    )
                    break
    return checked, violations


def _leaf_fixtures(seed: int):
    """(label, mapspace, evaluator) fixtures for leaf exactness: the toy
    GLB GEMM in all four kinds, and Ruby-S spaces of a 12x10x8 GEMM on
    toy16 and on Eyeriss (whose spatial levels make the spatial-only
    multipliers differ from the full ones)."""
    _, arch, workload = _toy_setup(seed)
    table = estimate_energy_table(arch)
    fixtures = [
        (f"toy/{kind.value}", MapSpace(arch, workload, kind),
         Evaluator(arch, workload, table))
        for kind in MapspaceKind
    ]
    gemm = GemmLayer("g12x10x8", m=12, n=10, k=8).workload()
    for name, other in (
        ("toy16", toy_linear_architecture(16)), ("eyeriss", eyeriss_like())
    ):
        fixtures.append(
            (
                f"{name}/ruby-s",
                MapSpace(other, gemm, MapspaceKind.RUBY_S),
                Evaluator(other, gemm, estimate_energy_table(other)),
            )
        )
    return fixtures


def check_leaf_exactness(
    seed: int = 0, max_rows: int = 20_480
) -> Tuple[int, List[str]]:
    """Table pricing of enumerated rows equals the column walk exactly.

    On each fixture, every enumerated batch (up to ``max_rows`` rows) is
    priced twice against one incumbent, with pruning on: from the
    per-chain tables of a :class:`PartialBoundEngine`, and by the column
    walk over the same rows packed. Validity, pruning, fallback, cycles,
    energy, metric and utilization must match bit for bit, and so must
    the batch counts (batches, candidates, pruned, infeasible) a run
    derives from the outcomes. The incumbent follows the walk's best
    metric, so pruning is exercised as the sweep goes.
    """
    from repro.model.batch import (
        BatchEvaluator,
        MappingBatch,
        PartialBoundEngine,
        pack_menu_rows,
    )
    from repro.search.loop import BatchCounts

    checked = 0
    violations: List[str] = []
    fields = (
        "valid", "pruned", "fallback", "metric", "energy_pj", "cycles",
        "utilization",
    )
    for label, space, evaluator in _leaf_fixtures(seed):
        layout = space.batch_layout()
        engine = BatchEvaluator(evaluator, layout=layout)
        if not engine.vectorize:
            continue
        tables = PartialBoundEngine(engine, space.dim_chain_menus())
        counts = {"tables": BatchCounts(), "walk": BatchCounts()}
        incumbent = float("inf")
        rows = 0
        for batch in space.iter_batches():
            if rows >= max_rows:
                break
            rows += batch.size
            checked += batch.size
            bounds, rems = pack_menu_rows(
                layout, batch.menu_tables, batch.menu_rows
            )
            packed = MappingBatch(
                layout=layout, bounds=bounds, rems=rems, pos=batch.pos,
                fallback=batch.fallback, span=batch.span,
                ordinals=batch.ordinals,
            )
            outcomes = {
                "tables": engine.evaluate_batch(
                    batch, incumbent=incumbent, prune=True, tables=tables
                ),
                "walk": engine.evaluate_batch(
                    packed, incumbent=incumbent, prune=True
                ),
            }
            for name, outcome in outcomes.items():
                counts[name] += BatchCounts.of(outcome, batch)
            got, want = outcomes["tables"], outcomes["walk"]
            differ = [
                name
                for name in fields
                if not np.array_equal(
                    getattr(got, name), getattr(want, name),
                    equal_nan=getattr(want, name).dtype.kind == "f",
                )
            ]
            if differ:
                violations.append(
                    f"leaf-exactness: {label}: table pricing differs from "
                    f"the column walk in {', '.join(differ)} on a batch of "
                    f"{batch.size} rows"
                )
                break
            if want.metric.size:
                incumbent = min(incumbent, float(want.metric.min()))
        if counts["tables"].payload() != counts["walk"].payload():
            violations.append(
                f"leaf-exactness: {label}: batch counts differ "
                f"({counts['tables'].payload()} vs {counts['walk'].payload()})"
            )
    return checked, violations


def _per_candidate_chain(
    allocator: DimAllocator,
    dim: str,
    size: int,
    rng: random.Random,
    budgets: Dict[int, int],
) -> DimChain:
    """One dimension's chain, drawn slot by slot with fresh divisor lists."""
    inner_to_outer: List[int] = []
    residue = size
    for offset in range(len(allocator.slots) - 1, -1, -1):
        slot = allocator.slots[offset]
        bound = 1
        if offset == 0:
            bound, residue = residue, 1
        elif residue != 1 and slot.allows(dim):
            cap = residue
            if slot.spatial:
                cap = min(cap, max(1, budgets.get(offset, 1)))
            options = [d for d in divisors(residue) if d <= cap]
            imperfect = (
                allocator.spatial_imperfect
                if slot.spatial
                else allocator.temporal_imperfect
            )
            if not imperfect:
                bound = rng.choice(options)
            elif allocator.sampling == "uniform":
                bound = rng.randint(1, cap)
            else:
                roll = rng.random()
                if roll < 0.4:
                    bound = rng.randint(1, cap)
                elif roll < 0.8:
                    bound = rng.choice(options)
                else:
                    bound = cap
            residue = ceil_div(residue, bound)
        if slot.spatial and bound > 1:
            budgets[offset] = budgets.get(offset, 1) // bound
        inner_to_outer.append(bound)
    bounds = tuple(reversed(inner_to_outer))
    return DimChain(dim, bounds, assign_remainders(size, bounds))


def per_candidate_sample(space: MapSpace, rng: random.Random) -> Mapping:
    """The per-candidate sampler :meth:`MapSpace.sample_batch` replaced.

    Kept as the oracle of its RNG stream and rows: the perfect-allocator
    roll, the dim shuffle, slot-by-slot chains, ``Loop``/``LevelNest``
    assembly with each level's temporal shuffle and fixed-permutation
    sort, then the bypass rolls, all through ``random.Random``'s own
    ``random``, ``choice``, ``randint`` and ``shuffle`` — none of it
    shared with the mapspace's inlined draws, chain tables or loop-order
    helper.
    """
    allocator = space.allocator
    if (
        space._perfect_allocator is not None
        and rng.random() < space.PERFECT_SEED_PROBABILITY
    ):
        allocator = space._perfect_allocator
    budgets = {
        offset: slot.fanout_cap
        for offset, slot in enumerate(space.slots)
        if slot.spatial
    }
    dims = list(space.workload.dim_names)
    rng.shuffle(dims)
    chains = {
        dim: _per_candidate_chain(
            allocator, dim, space.workload.size(dim), rng, budgets
        )
        for dim in dims
    }
    nests: List[LevelNest] = []
    for level_index, level in enumerate(space.arch.levels):
        temporal: List[Loop] = []
        spatial: List[Loop] = []
        for offset, slot in enumerate(space.slots):
            if slot.level_index != level_index:
                continue
            for dim in space.workload.dim_names:
                bound = chains[dim].bounds[offset]
                remainder = chains[dim].remainders[offset]
                if bound == 1 and remainder == 1:
                    continue
                loop = Loop(
                    dim, bound, remainder, spatial=slot.spatial, axis=slot.axis
                )
                (spatial if slot.spatial else temporal).append(loop)
        rng.shuffle(temporal)
        fixed = space.constraints.permutation(level.name)
        if fixed:
            priority = {dim: i for i, dim in enumerate(fixed)}
            temporal = sorted(
                temporal, key=lambda loop: priority.get(loop.dim, len(priority))
            )
        nests.append(LevelNest(level.name, tuple(temporal), tuple(spatial)))
    mapping = Mapping(levels=tuple(nests))
    if space.explore_bypass and space._bypass_candidates:
        bypass = [
            pair
            for pair in space._bypass_candidates
            if rng.random() < space.BYPASS_PROBABILITY
        ]
        if bypass:
            mapping = mapping.with_bypass(bypass)
    return mapping


class _FloatOnlyRandom(random.Random):
    """A ``random.Random`` that overrides ``random()``.

    CPython then draws its integers through
    ``_randbelow_without_getrandbits``, a different rejection loop than
    the default ``getrandbits`` one, so the sampler must refuse it.
    """

    def random(self) -> float:
        return super().random()


def _sample_parity_fixtures(seed: int):
    """(label, mapspace) pairs covering every sampling branch."""
    from repro.mapspace.constraints import eyeriss_row_stationary
    from repro.zoo.resnet50 import resnet50_representative

    _, arch, workload = _toy_setup(seed)
    fixtures = [
        (kind.value, MapSpace(arch, workload, kind)) for kind in MapspaceKind
    ]
    fixtures.append((
        "ruby+bypass",
        MapSpace(arch, workload, MapspaceKind.RUBY, explore_bypass=True),
    ))
    fixtures.append((
        "ruby-s+uniform",
        MapSpace(arch, workload, MapspaceKind.RUBY_S, sampling="uniform"),
    ))
    fixed = ConstraintSet.build(
        fixed_permutations={
            level.name: tuple(reversed(workload.dim_names))[:2]
            for level in arch.levels
        }
    )
    fixtures.append((
        "ruby+fixed-permutations",
        MapSpace(arch, workload, MapspaceKind.RUBY, constraints=fixed),
    ))
    layers = resnet50_representative()
    layer, _ = layers[seed % len(layers)]
    fixtures += [
        (
            f"eyeriss:{layer.name}:{kind.value}",
            MapSpace(eyeriss_like(), layer, kind, eyeriss_row_stationary()),
        )
        for kind in (MapspaceKind.PFM, MapspaceKind.RUBY_S)
    ]
    return fixtures


def _float_only_rng_refused(seed: int) -> List[str]:
    """Every sampling entry point refuses a :class:`_FloatOnlyRandom`
    with a :class:`MapspaceError` naming it, before drawing anything."""
    _, arch, workload = _toy_setup(seed)
    space = MapSpace(arch, workload, MapspaceKind.RUBY, explore_bypass=True)
    chains = space.sample_chains(random.Random(seed))
    dim = space.workload.dim_names[0]
    calls = {
        "sample_batch": lambda rng: space.sample_batch(rng, 4),
        "sample_chains": space.sample_chains,
        "resample_dim": lambda rng: space.resample_dim(chains, dim, rng),
        "assemble": lambda rng: space.assemble(chains, rng),
    }
    violations = []
    for name, call in calls.items():
        rng = _FloatOnlyRandom(seed)
        state = rng.getstate()
        try:
            call(rng)
        except MapspaceError as error:
            if _FloatOnlyRandom.__name__ not in str(error):
                violations.append(f"{name} refused it without naming the class")
        else:
            violations.append(f"{name} drew from it instead of refusing it")
        if rng.getstate() != state:
            violations.append(f"{name} drew from it before refusing it")
    return violations


def _chain_parity(space: MapSpace, rng, oracle_rng, draws: int) -> List[str]:
    """``sample_chains`` + ``resample_dim`` against :func:`_per_candidate_chain`.

    Each round draws whole chains, then re-draws one dimension; the dicts
    (in iteration order) must match, and so must the RNG states.
    """
    names = list(space.workload.dim_names)
    for _ in range(draws):
        chains = space.sample_chains(rng)
        allocator = space.allocator
        if (
            space._perfect_allocator is not None
            and oracle_rng.random() < space.PERFECT_SEED_PROBABILITY
        ):
            allocator = space._perfect_allocator
        budgets = {
            offset: slot.fanout_cap
            for offset, slot in enumerate(space.slots)
            if slot.spatial
        }
        dims = list(names)
        oracle_rng.shuffle(dims)
        want = {
            dim: _per_candidate_chain(
                allocator, dim, space.workload.size(dim), oracle_rng, budgets
            )
            for dim in dims
        }
        if list(chains.items()) != list(want.items()):
            return ["sample_chains drew different chains than the oracle"]
        dim = names[rng.randrange(len(names))]
        if names[oracle_rng.randrange(len(names))] != dim:
            return ["the RNG streams diverged before resample_dim"]
        got = space.resample_dim(chains, dim, rng)
        want[dim] = _per_candidate_chain(
            space.allocator,
            dim,
            space.workload.size(dim),
            oracle_rng,
            space.remaining_budgets(want, exclude=dim),
        )
        if list(got.items()) != list(want.items()):
            return [f"resample_dim re-drew {dim} differently than the oracle"]
    if rng.getstate() != oracle_rng.getstate():
        return [
            "sample_chains/resample_dim left the RNG in a different state "
            "than the oracle"
        ]
    return []


def check_sample_parity(
    seed: int = 0, samples: int = 64
) -> Tuple[int, List[str]]:
    """``sample_batch`` replays the per-candidate sampler row for row.

    For each fixture, one ``sample_batch`` call and ``samples`` calls of
    :func:`per_candidate_sample` packed by :func:`pack_mappings` start
    from equal RNGs; the packed arrays, ``fallback``, every
    ``mapping_at(i)`` and the final RNG state must all match. Then
    ``sample_chains`` and ``resample_dim`` are held to
    :func:`_per_candidate_chain` the same way (:func:`_chain_parity`).
    One more fixture, ``ruby+bypass+float-only-rng``, checks that an RNG
    whose integer stream the sampler cannot follow is refused untouched
    (:func:`_float_only_rng_refused`).
    """
    from repro.model.batch import pack_mappings

    checked = 0
    violations: List[str] = []
    for label, space in _sample_parity_fixtures(seed):
        checked += 1
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        batch = space.sample_batch(rng, samples)
        mappings = [
            per_candidate_sample(space, oracle_rng) for _ in range(samples)
        ]
        oracle = pack_mappings(space.batch_layout(), mappings)
        for name in ("bounds", "rems", "pos", "fallback"):
            if not np.array_equal(getattr(batch, name), getattr(oracle, name)):
                violations.append(
                    f"sample-parity: {label} {name} rows differ from the "
                    "per-candidate sampler's packed rows"
                )
        row = next(
            (i for i in range(samples) if batch.mapping_at(i) != mappings[i]),
            None,
        )
        if row is not None:
            violations.append(
                f"sample-parity: {label} row {row} materializes to a "
                "different mapping than the per-candidate sampler drew"
            )
        if rng.getstate() != oracle_rng.getstate():
            violations.append(
                f"sample-parity: {label} left the RNG in a different state "
                "than the per-candidate sampler"
            )
        violations += [
            f"sample-parity: {label} {problem}"
            for problem in _chain_parity(
                space, random.Random(seed + 1), random.Random(seed + 1),
                samples // 4,
            )
        ]
    checked += 1
    violations += [
        f"sample-parity: ruby+bypass+float-only-rng {problem}"
        for problem in _float_only_rng_refused(seed)
    ]
    return checked, violations


def _parity_fixtures(seed: int):
    """(label, mapspace, evaluator, use_batch, leaf_width) fixtures for
    branch-bound parity: the vectorized engine on two toy kinds and
    Eyeriss, and the row-wise engine on NoC+static energy, a
    bandwidth-limited DRAM and ``use_batch=False``. The 12x10x8 GEMM with
    64-cell leaves builds sibling blocks that branch on a free dimension
    other than the first, so a block sliced along the wrong axis moves
    the optimum the parallel walk reports."""
    _, toy_arch, toy_workload = _toy_setup(seed)
    toy_table = estimate_energy_table(toy_arch)

    def toy(label, kind=MapspaceKind.PFM, arch=toy_arch, use_batch=True,
            **options):
        return (
            label,
            MapSpace(arch, toy_workload, kind),
            Evaluator(arch, toy_workload, toy_table, **options),
            use_batch,
            DEFAULT_LEAF_WIDTH,
        )

    dram, *inner = toy_arch.levels
    limited = toy_arch.with_levels(
        [replace(dram, bandwidth_words_per_cycle=2.0), *inner]
    )
    fixtures = [
        toy(f"toy/{kind.value}", kind)
        for kind in (MapspaceKind.PFM, MapspaceKind.RUBY_S)
    ]
    fixtures += [
        toy("toy/pfm/noc+static", include_noc=True, include_static=True),
        toy("toy/pfm/bandwidth", arch=limited),
        toy("toy/pfm/no-batch", use_batch=False),
    ]
    eyeriss = eyeriss_like()
    gemm = GemmLayer("g8x4x4", m=8, n=4, k=4).workload()
    eyeriss_table = estimate_energy_table(eyeriss)
    fixtures.append(
        (
            "eyeriss/pfm",
            MapSpace(eyeriss, gemm, MapspaceKind.PFM),
            Evaluator(eyeriss, gemm, eyeriss_table),
            True,
            DEFAULT_LEAF_WIDTH,
        )
    )
    small_glb = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    gemm = GemmLayer("g12x10x8", m=12, n=10, k=8).workload()
    fixtures.append(
        (
            "toy/pfm/g12x10x8/leaf64",
            MapSpace(small_glb, gemm, MapspaceKind.PFM),
            Evaluator(small_glb, gemm, estimate_energy_table(small_glb)),
            True,
            64,
        )
    )
    return fixtures


def check_branch_bound_parity(seed: int = 0) -> Tuple[int, List[str]]:
    """Branch-and-bound matches exhaustive search on the optimum exactly.

    On each fixture the B&B searcher must reach the bit-identical best
    EDP that full enumeration finds, from two different warm-start seeds —
    the pruning bound is admissible, so the warm start only affects speed,
    never the answer. The comparison is on the metric, not the mapping
    signature: mapspaces routinely hold several co-optimal mappings, and
    which one a searcher reports depends on visit order (enumeration order
    for exhaustive, best-first heap order for B&B). The row-wise fixtures
    hold the same bounds to evaluators whose extra terms the kernels do
    not model.

    The parallel searcher (``workers=2``, subtree work-sharing over a
    shared incumbent) is held to the same standard: cross-process cuts
    keep the serial prune margin and the driver re-prices every worker
    claim, so the optimum must be bit-identical regardless of incumbent
    race timing.
    """
    checked = 0
    violations: List[str] = []
    for label, space, evaluator, use_batch, leaf_width in _parity_fixtures(
        seed
    ):
        checked += 1
        exhaustive = ExhaustiveSearch(
            space, evaluator, limit=200_000, use_batch=use_batch
        ).run()
        options = dict(use_batch=use_batch, leaf_width=leaf_width)
        runs = [
            BranchBoundSearch(space, evaluator, seed=s, **options).run()
            for s in (seed, seed + 1)
        ]
        runs.append(
            BranchBoundSearch(
                space, evaluator, seed=seed, workers=2, **options
            ).run()
        )
        keys = []
        for result in (exhaustive, *runs):
            best = result.best
            keys.append(
                best.metric("edp") if best is not None else None
            )
        if any(key != keys[0] for key in keys[1:]):
            violations.append(
                f"branch-bound-parity: {label}: best EDP diverges from "
                f"exhaustive (exhaustive={keys[0]!r}, "
                f"bnb={keys[1]!r}/{keys[2]!r}, parallel={keys[3]!r})"
            )
    return checked, violations


def _searcher_runs(seed: int):
    """(name, run-callable) pairs for the five searchers, tiny budgets.

    Together the legs cover every mapspace kind."""
    _, arch, workload = _toy_setup(seed)
    table = estimate_energy_table(arch)

    def fixture(kind: MapspaceKind):
        space = MapSpace(arch, workload, kind)
        return space, Evaluator(arch, workload, table)

    def random_run():
        space, evaluator = fixture(MapspaceKind.RUBY)
        return RandomSearch(
            space, evaluator, max_evaluations=200, patience=None, seed=seed
        ).run()

    def exhaustive_run():
        space, evaluator = fixture(MapspaceKind.PFM)
        return ExhaustiveSearch(space, evaluator, limit=20_000).run()

    def genetic_run():
        space, evaluator = fixture(MapspaceKind.RUBY_T)
        return GeneticSearch(
            space, evaluator, population_size=8, max_evaluations=40, seed=seed
        ).run()

    def pareto_run():
        space, evaluator = fixture(MapspaceKind.RUBY)
        return ParetoSearch(space, evaluator, max_evaluations=150, seed=seed).run()

    def branch_bound_run():
        space, evaluator = fixture(MapspaceKind.RUBY_S)
        return BranchBoundSearch(space, evaluator, seed=seed).run()

    return [
        ("random", random_run),
        ("exhaustive", exhaustive_run),
        ("branch-bound", branch_bound_run),
        ("genetic", genetic_run),
        ("pareto", pareto_run),
    ]


def _result_fingerprint(result) -> Tuple:
    frontier = getattr(result, "frontier", None)
    if frontier is not None:
        front_key = tuple(
            (e.mapping.signature(), e.energy_pj, e.cycles) for e in frontier
        )
        return (None, front_key, getattr(result, "num_evaluated", None))
    best = result.best
    best_key = (
        (best.mapping.signature(), best.energy_pj, best.cycles)
        if best is not None
        else None
    )
    return (best_key, None, getattr(result, "num_evaluated", None))


def check_seed_determinism(seed: int = 0) -> Tuple[int, List[str]]:
    """Each searcher run twice from one seed retraces itself exactly."""
    checked = 0
    violations: List[str] = []
    for name, run in _searcher_runs(seed):
        checked += 1
        if _result_fingerprint(run()) != _result_fingerprint(run()):
            violations.append(
                f"seed-determinism: {name} search diverged between two runs "
                f"with seed {seed}"
            )
    return checked, violations


def check_parallel_start_methods(
    seed: int = 0, max_evaluations: int = 240, workers: int = 2
) -> Tuple[int, List[str]]:
    """A best-of-seeds job over a fork pool and over a spawn pool finds
    the same best mapping."""
    import multiprocessing

    _, arch, workload = _toy_setup(seed)
    job = CampaignJob(
        "start-method-determinism", arch, workload,
        max_evaluations=max_evaluations,
        seeds=tuple(range(seed, seed + workers)),
    )
    available = multiprocessing.get_all_start_methods()
    fingerprints: Dict[str, Tuple] = {}
    for method in (m for m in START_METHODS if m in available):
        best = search_job(job, workers=workers, start_method=method).best
        fingerprints[method] = (
            (best.mapping.signature(), best.energy_pj, best.cycles)
            if best is not None
            else None
        )
    if len(set(fingerprints.values())) > 1:
        return len(fingerprints), [
            "start-method-determinism: best-of-seeds best differs across "
            + ", ".join(sorted(fingerprints))
        ]
    return len(fingerprints), []


#: The invariant registry, in the order the CLI reports them.
INVARIANTS: Tuple[Tuple[str, Callable[[int], Tuple[int, List[str]]]], ...] = (
    ("pfm-containment", check_pfm_containment),
    ("counting-consistency", check_counting_consistency),
    ("cache-transparency", check_cache_transparency),
    ("prune-parity", check_prune_parity),
    ("count-parity", check_enumeration_count_parity),
    ("capacity-prefilter", check_capacity_prefilter),
    ("leaf-exactness", check_leaf_exactness),
    ("sample-parity", check_sample_parity),
    ("branch-bound-parity", check_branch_bound_parity),
    ("seed-determinism", check_seed_determinism),
    ("start-method-determinism", check_parallel_start_methods),
)


def run_invariants(
    seed: int = 0,
    include_parallel: bool = True,
    only: Optional[List[str]] = None,
) -> InvariantReport:
    """Run the metamorphic invariant suite.

    ``include_parallel=False`` skips the fork/spawn comparison (the one
    invariant that spins up worker processes — the quick CLI profile keeps
    it, CI smoke under constrained runners may not want it). ``only``
    restricts to a subset of invariant names.
    """
    started = time.monotonic()
    report = InvariantReport()
    for name, check in INVARIANTS:
        if only is not None and name not in only:
            continue
        if name == "start-method-determinism" and not include_parallel:
            continue
        checked, violations = check(seed)
        report.checked[name] = checked
        report.violations += violations
    report.elapsed_s = time.monotonic() - started
    return report
