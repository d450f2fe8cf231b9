"""Differential verification: cross-check every evaluation path.

The repo prices a mapping four ways — the scalar
:class:`~repro.model.evaluator.Evaluator`, cached
:class:`~repro.model.eval_cache.EvaluationCache` hits, the vectorized
:class:`~repro.model.batch.BatchEvaluator`, and (for toy-sized iteration
spaces) the ground-truth :mod:`~repro.model.reference_sim` walker. The
paper's headline numbers rest on these paths agreeing bit for bit, so this
package keeps an always-on oracle harness over them:

* :mod:`repro.verify.strategies` — seed-deterministic case generators
  (random workloads, preset architectures, valid remaindered mappings,
  adversarial corners) plus reusable Hypothesis strategies built on them;
* :mod:`repro.verify.differential` — the differential runner: evaluates
  each generated mapping through every path, compares access counts,
  energy, cycles, and EDP under the documented tolerance policy, and
  shrinks any divergence to a minimal serialized counterexample;
* :mod:`repro.verify.invariants` — metamorphic invariants: PFM ⊂ Ruby
  containment, counting closed forms vs enumeration, cache-hit
  equivalence, batch/prune parity, and seed determinism of the searchers.

Surfaced as ``repro verify [--quick|--deep]`` and ``make verify-diff``;
see ``docs/verification.md`` for the oracle hierarchy and replay workflow.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".strategies": (
        "VerifyCase",
        "adversarial_cases",
        "eq5_chain",
        "preset_architecture",
        "preset_architecture_names",
        "random_case",
        "random_workload",
    ),
    ".differential": (
        "CaseReport",
        "DifferentialConfig",
        "DifferentialReport",
        "Divergence",
        "compare_case",
        "replay_counterexample",
        "run_differential",
        "shrink_case",
    ),
    ".invariants": ("InvariantReport", "run_invariants"),
})
