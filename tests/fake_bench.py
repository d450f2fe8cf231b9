"""A stand-in benchmark for the ledger tests: canned result lines.

:func:`write_benchmark` writes a ``BENCHMARK.json`` whose ``command`` is
this file, plus the ``plan.json`` it replays. Run as that command
(``--workload W --seconds S --trace T``), it prints the next output
planned for ``W`` at ``T`` and exits with that output's status; calls
step through the plan's list (the last output repeats), counted in
``calls.json`` beside the spec.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "edp_ratio", "unit": "ratio", "better": "lower", "bound": 0.05},
    {"name": "mappings_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]
PER_LAYER = [
    {"name": "batch.kernel_s", "unit": "s", "better": "lower"},
    {"name": "bound.child_s", "unit": "s", "better": "lower"},
]


def result(metrics, failed=0):
    """One planned output: a result line reporting ``metrics``."""
    return {"exit": 0, "lines": [json.dumps({
        "correct": failed == 0, "attempted": 2, "failed": failed,
        "metrics": {k: {"value": v, "unit": "?"} for k, v in metrics.items()},
    })]}


def run_metrics(wall_s=2.0, edp_ratio=0.8, mappings_per_s=1000.0):
    return {"wall_s": wall_s, "edp_ratio": edp_ratio,
            "mappings_per_s": mappings_per_s}


def layer_metrics(kernel_s=0.5, child_s=0.1):
    return {"batch.kernel_s": kernel_s, "bound.child_s": child_s}


def steady_plan(workloads=("alpha", "beta"), scale=1.0):
    """Every run reports the same numbers; ``scale`` worsens every timing
    and throughput by that factor."""
    return {w: {"0": [result(run_metrics(2.0 * scale, 0.8, 1000.0 / scale))],
                "1": [result(layer_metrics(0.5 * scale, 0.1 * scale))]}
            for w in workloads}


def write_benchmark(root, plan, end_to_end=None):
    """Write ``BENCHMARK.json`` and ``plan.json`` (workload -> trace "0" /
    "1" -> outputs) into ``root``; return the spec's path."""
    root = Path(root)
    (root / "plan.json").write_text(json.dumps(plan))
    (root / "calls.json").unlink(missing_ok=True)
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps({
        "command": [sys.executable, str(Path(__file__).resolve())],
        "paths": [],
        "run_seconds": 1,
        "workloads": [{"name": name} for name in plan],
        "end_to_end": END_TO_END if end_to_end is None else end_to_end,
        "per_layer": PER_LAYER,
    }))
    return path


def main() -> int:
    parser = argparse.ArgumentParser()
    for flag in ("--workload", "--seconds", "--trace"):
        parser.add_argument(flag, required=True)
    args = parser.parse_args()
    calls_path = Path("calls.json")
    calls = json.loads(calls_path.read_text()) if calls_path.exists() else {}
    key = f"{args.workload}/{args.trace}"
    outputs = json.loads(Path("plan.json").read_text())[args.workload][args.trace]
    output = outputs[min(calls.get(key, 0), len(outputs) - 1)]
    calls[key] = calls.get(key, 0) + 1
    calls_path.write_text(json.dumps(calls))
    print("\n".join(output["lines"]))
    return output["exit"]


if __name__ == "__main__":
    sys.exit(main())
