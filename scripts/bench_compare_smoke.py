#!/usr/bin/env python
"""End-to-end smoke test for the benchmark regression gate
(``make bench-compare``).

Records throwaway ledgers with ``repro bench record`` against a fake
benchmark (``tests/fake_bench.py``: a ``BENCHMARK.json`` whose command
prints canned result lines) and checks that ``repro bench compare``
draws the line where each metric's bound puts it:

1. two identical runs compare clean (exit 0);
2. a move just past one metric's bound trips the gate (exit 1):
   ``edp_ratio`` up 6% against its 5% bound, though ``wall_s`` up 6%
   is inside its 25%;
3. moves inside every bound pass (exit 0): ``wall_s`` up 20% (bound
   25%), ``mappings_per_s`` down 20% (bound 25%), ``edp_ratio`` up 4%
   (bound 5%);
4. a one-record ledger refuses to compare (exit 10,
   ``BenchLedgerError``) rather than reporting a hollow pass;
5. a run that fails its output checks records nothing (exit 10, the
   ledger unchanged).

The real ledger is ``BENCH_HISTORY.jsonl`` at the repo root, appended
by ``repro bench record`` from the repo's own ``BENCHMARK.json``.

Runs in a few seconds; exits nonzero on any failure.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from repro.cli import main as cli_main  # noqa: E402
from tests.fake_bench import (  # noqa: E402
    layer_metrics, result, run_metrics, write_benchmark,
)


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


def plan(wall: float = 1.0, edp: float = 1.0, rate: float = 1.0,
         failed: int = 0) -> dict:
    """One workload whose untraced runs scale the fake's baseline
    ``wall_s``, ``edp_ratio`` and ``mappings_per_s`` by these factors."""
    return {
        "alpha": {
            "0": [result(run_metrics(2.0 * wall, 0.8 * edp, 1000.0 * rate),
                         failed=failed)],
            "1": [result(layer_metrics())],
        }
    }


def record(ledger: Path, tag: str, **scale) -> int:
    write_benchmark(Path.cwd(), plan(**scale))
    return cli_main(
        ["bench", "record", "--ledger", str(ledger), "--note", tag]
    )


def ledger_of(tmp: Path, name: str, *runs: dict) -> Path:
    """A ledger with one record per ``runs`` entry (scale factors)."""
    ledger = tmp / f"{name}.jsonl"
    for i, scale in enumerate(runs):
        code = record(ledger, f"{name}-{i}", **scale)
        check(code == 0, f"bench record ({name}-{i}) exited {code}")
    return ledger


def compare(ledger: Path) -> int:
    return cli_main(["bench", "compare", "--ledger", str(ledger)])


def main() -> None:
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        os.chdir(tmp)

        # -- 1. identical runs compare clean ---------------------------
        code = compare(ledger_of(tmp, "steady", {}, {}))
        check(code == 0, f"identical runs flagged (exit {code})")
        print("steady: identical runs compare clean (exit 0)")

        # -- 2. one metric past its own bound trips the gate -----------
        code = compare(ledger_of(tmp, "regressed", {}, {"edp": 1.06, "wall": 1.06}))
        check(code == 1, f"edp_ratio +6% past its 5% bound not caught (exit {code})")
        print("gate: edp_ratio +6% trips its 5% bound (exit 1)")

        # -- 3. moves inside every bound pass --------------------------
        code = compare(ledger_of(
            tmp, "noisy", {}, {"wall": 1.2, "rate": 0.8, "edp": 1.04}
        ))
        check(code == 0, f"moves inside every bound tripped the gate (exit {code})")
        print("noise: wall_s +20%, mappings_per_s -20%, edp_ratio +4% pass (exit 0)")

        # -- 4. nothing to compare is an error, not a pass -------------
        code = compare(ledger_of(tmp, "lonely", {}))
        check(code == 10, f"one-record ledger exited {code}, want 10")
        print("ledger: single record refuses to compare (exit 10)")

        # -- 5. a failed run records nothing ---------------------------
        ledger = ledger_of(tmp, "failed", {})
        before = ledger.read_bytes()
        code = record(ledger, "failed-run", failed=1)
        check(code == 10, f"failed run exited {code}, want 10")
        check(ledger.read_bytes() == before, "failed run appended a record")
        print("record: a failed run appends nothing (exit 10)")
        os.chdir(REPO)

    print("OK: bench-compare smoke passed")


if __name__ == "__main__":
    main()
