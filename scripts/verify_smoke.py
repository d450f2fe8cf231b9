#!/usr/bin/env python
"""End-to-end self-test of the differential harness (``make verify-smoke``).

A verification harness that never fires is indistinguishable from one
that cannot fire, so this smoke checks both directions:

1. a small quick-profile sweep (clean code) finds zero divergences while
   actually exercising every path, including reference-sim cross-checks;
2. with an off-by-one intentionally injected (a monkeypatched wrapper —
   the real code is untouched), the same sweep catches the corruption,
   shrinks it to a smaller mapping, and dumps a counterexample JSON.
   Two faults run in turn: one in the scalar evaluator's access-count
   pipeline, one in the batch kernel's traffic stage;
3. replaying each dump while its corruption is live still diverges;
   replaying it after the patch is removed reports clean, through the
   API and through ``repro verify --replay`` — the dump is a genuinely
   executable artifact;
4. the CLI exits with the VerificationError code (9) while corrupted and
   0 when clean.

Runs in well under a minute; exits nonzero on any failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

import repro.model.evaluator as evaluator_module  # noqa: E402
from repro.exceptions import VerificationError  # noqa: E402
from repro.model.access_counts import AccessCounts  # noqa: E402
from repro.model.batch import BatchEvaluator  # noqa: E402
from repro.verify.differential import (  # noqa: E402
    DifferentialConfig,
    replay_counterexample,
    run_differential,
)

#: Sweep size for the smoke: big enough to include every adversarial case
#: plus sampled ones, small enough to finish in seconds.
SMOKE_CASES = 80
SMOKE_REF_SIM = 20


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


def smoke_config(dump_dir: str | None = None) -> DifferentialConfig:
    return DifferentialConfig(
        cases=SMOKE_CASES,
        seed=0,
        min_ref_sim=SMOKE_REF_SIM,
        dump_dir=dump_dir,
        max_divergent_cases=1,
    )


def inject_scalar_off_by_one():
    """Monkeypatch the evaluator's access-count hook with a +1 corruption.

    Patches the name as imported into ``repro.model.evaluator`` — a
    scratch wrapper, not the real implementation — so the scalar/cached
    paths (which route through the evaluator) corrupt while the batch
    kernels and the differential runner's direct analytical call stay
    clean. Returns a callable that removes the fault.
    """
    real = evaluator_module.compute_access_counts

    def corrupted(arch, workload, mapping):
        counts = real(arch, workload, mapping)
        reads = dict(counts.reads)
        if reads:
            key = sorted(reads)[0]
            reads[key] += 1  # the off-by-one
        return AccessCounts(reads=reads, writes=dict(counts.writes))

    evaluator_module.compute_access_counts = corrupted

    def restore():
        evaluator_module.compute_access_counts = real

    return restore


def inject_batch_off_by_one():
    """Monkeypatch the batch traffic stage with a +1 on level 0's reads.

    Wraps ``BatchEvaluator._traffic``, so only the batch-single and
    batch-packed paths see the corruption; the scalar evaluator, the
    cache and the reference simulator stay clean. Returns a callable
    that removes the fault.
    """
    real = BatchEvaluator._traffic

    def corrupted(self, bounds, rems, pos, live):
        reads, writes = real(self, bounds, rems, pos, live)
        reads[0] += 1  # the off-by-one
        return reads, writes

    BatchEvaluator._traffic = corrupted

    def restore():
        BatchEvaluator._traffic = real

    return restore


#: (label, injector, paths a caught divergence must name) per fault.
FAULTS = (
    ("scalar access counts", inject_scalar_off_by_one, None),
    ("batch traffic stage", inject_batch_off_by_one,
     {"batch-single", "batch-packed"}),
)


def loop_count(mapping) -> int:
    return sum(
        1 for p in mapping.placed_loops() if p.loop.bound > 1
    )


def cli_verify(*extra: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "verify", *extra],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )


def check_fault(label, inject, paths) -> None:
    """Steps 2 and 3 of the module docstring for one injected fault."""
    with tempfile.TemporaryDirectory() as tmp:
        restore = inject()
        try:
            corrupted = run_differential(smoke_config(dump_dir=tmp))
            check(
                not corrupted.ok,
                f"injected off-by-one in the {label} was NOT caught",
            )
            check(
                corrupted.counterexample_paths,
                f"{label}: divergence found but no counterexample dumped",
            )
            dump = corrupted.counterexample_paths[0]
            shrunk = corrupted.divergent[0].case
            # The shrinker must have made progress: the dump records the
            # original mapping only when it differs from the shrunk one.
            payload = json.loads(Path(dump).read_text())
            check(
                "original_mapping" in payload,
                f"{label}: counterexample was not shrunk below the original "
                "mapping",
            )
            check(
                payload["divergences"],
                f"{label}: counterexample dump carries no divergences",
            )
            if paths is not None:
                seen = {d["path"] for d in payload["divergences"]}
                check(
                    seen <= paths,
                    f"{label}: divergence on unexpected paths {sorted(seen)}",
                )
            print(
                f"{label} fault caught: {len(corrupted.divergent)} case "
                f"shrunk to {loop_count(shrunk.mapping)} nontrivial loops, "
                f"dumped to {Path(dump).name}"
            )

            # 3a. Replay while corrupted: still diverges.
            replay = replay_counterexample(dump)
            check(
                not replay.ok,
                f"{label}: replayed counterexample does not diverge under "
                "the fault",
            )
        finally:
            restore()

        # 3b. Replay after restoration: clean (API and CLI agree).
        replay = replay_counterexample(dump)
        check(
            replay.ok,
            f"{label}: replayed counterexample still diverges after the "
            f"fault was removed: {[d.describe() for d in replay.divergences]}",
        )
        result = cli_verify("--replay", dump)
        check(
            result.returncode == 0,
            f"{label}: CLI replay of a clean counterexample exited "
            f"{result.returncode}: {result.stderr}",
        )
        print(f"{label} replay: diverges under fault, clean after restoration")


def main() -> None:
    # 1. Clean sweep: all paths agree, and the sweep is not vacuous.
    clean = run_differential(smoke_config())
    check(clean.ok, f"clean sweep diverged:\n{clean.summary()}")
    check(
        clean.cases_checked >= SMOKE_CASES,
        f"clean sweep only ran {clean.cases_checked} cases",
    )
    check(
        clean.ref_sim_checks >= SMOKE_REF_SIM,
        f"only {clean.ref_sim_checks} reference-sim cross-checks ran",
    )
    for path in ("scalar", "cache", "batch-single", "batch-packed"):
        check(
            clean.path_counts.get(path, 0) > 0,
            f"path {path} never exercised",
        )
    print(
        f"clean sweep: {clean.cases_checked} cases, "
        f"{clean.ref_sim_checks} ref-sim checks, no divergence"
    )

    # 2-3. Each injected off-by-one must be caught, shrunk, dumped and
    # replayed.
    for label, inject, paths in FAULTS:
        check_fault(label, inject, paths)

    # 4. CLI exit codes: clean run exits 0 (tiny case budget for speed).
    result = cli_verify("--quick", "--seed", "0", "--cases", "40",
                        "--no-parallel", "--dump-dir", tempfile.gettempdir())
    check(
        result.returncode == 0,
        f"clean CLI verify exited {result.returncode}: {result.stderr}",
    )
    check(
        VerificationError.exit_code == 9,
        "VerificationError exit code drifted from the documented 9",
    )
    print("cli: clean verify exits 0; VerificationError maps to exit 9")
    print("verify smoke: OK")


if __name__ == "__main__":
    main()
