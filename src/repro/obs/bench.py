"""Benchmark regression ledger: record ``BENCHMARK.json``'s workloads, compare.

``BENCHMARK.json`` at the repo root is the one definition of what is
measured: the command that runs one workload, the workloads, and per
metric its unit, which direction is better and — end-to-end metrics
only — the relative bound by which a change may worsen it.

* :func:`record_benchmarks` runs every workload :data:`RUNS` times
  untraced (each end-to-end metric keeps the median) and once traced
  (the per-layer metrics), then appends one machine-tagged record of
  ``(workload, metric, kind, value, unit, better, bound)`` entries to
  the ``BENCH_HISTORY.jsonl`` ledger — journal framing
  (:class:`repro.io.journal.Journal`), so reads are torn-tail tolerant
  and the file is append-only history. A failed or malformed run
  raises :class:`BenchLedgerError` and appends nothing.
* :func:`compare_ledger` diffs the newest record against its baseline
  (the most recent earlier record from the same machine when one
  exists — cross-machine timing comparisons are noise) and gates each
  end-to-end entry on its own bound; per-layer deltas are reported,
  never gated.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.exceptions import BenchLedgerError
from repro.io.journal import Journal

#: Ledger record schema version. Schema-1 records (the retired
#: micro-benchmark payloads) stay in the file as history and are skipped.
LEDGER_SCHEMA = 2

#: Untraced runs per workload; each end-to-end metric keeps their median.
RUNS = 3

#: Metric kinds: the spec's lists, indexed by the run's ``--trace`` flag.
KINDS = ("end_to_end", "per_layer")


def machine_fingerprint() -> Dict[str, Any]:
    """Identity tag for a ledger record: timings only compare within one
    machine/python, so the baseline picker needs to know where a record
    came from."""
    return {
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def _run(spec: Dict[str, Any], workload: str, trace: int) -> Dict[str, float]:
    """One run of ``workload``: the metrics of its result line (the last
    line of its output), all declared for the run's kind."""
    argv = [
        *spec["command"], "--workload", workload,
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    print(f"bench: {workload} --trace {trace}", file=sys.stderr, flush=True)
    proc = subprocess.run(argv, capture_output=True, text=True)
    where = f"workload {workload} (--trace {trace})"
    if proc.returncode:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        raise BenchLedgerError(f"{where} exited {proc.returncode}: {tail}")
    last = (proc.stdout.strip().splitlines() or ["(no output)"])[-1]
    try:
        result = json.loads(last)
        values = {name: m["value"] for name, m in result["metrics"].items()}
        failed = result.get("failed", 0) > 0 or result.get("correct") is False
    except (ValueError, KeyError, TypeError, AttributeError):
        raise BenchLedgerError(
            f"{where}: last line is not a result: {last!r}"
        ) from None
    if failed:
        raise BenchLedgerError(
            f"{where} failed {result.get('failed')} output checks"
        )
    unknown = set(values) - {m["name"] for m in spec[KINDS[trace]]}
    if unknown:
        raise BenchLedgerError(
            f"{where} reports metrics BENCHMARK.json does not declare as "
            f"{KINDS[trace]}: {sorted(unknown)}"
        )
    if not all(type(v) in (int, float) for v in values.values()):
        raise BenchLedgerError(f"{where}: non-numeric metric in {values!r}")
    return values


def record_benchmarks(
    ledger_path: Union[str, Path], note: Optional[str] = None
) -> Dict[str, Any]:
    """Run every workload of ``BENCHMARK.json`` in the working directory
    and append one ledger record; return it. Raises
    :class:`BenchLedgerError`, appending nothing, when the spec is
    unreadable or any run fails."""
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        raise BenchLedgerError(
            f"cannot read BENCHMARK.json: {error}"
        ) from None
    entries: List[Dict[str, Any]] = []
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = [_run(spec, workload, 0) for _ in range(RUNS)]
        traced = [_run(spec, workload, 1)]
        for kind, runs in zip(KINDS, (untraced, traced)):
            for metric in spec[kind]:
                name = metric["name"]
                values = [run[name] for run in runs if name in run]
                if values:
                    entries.append({
                        "workload": workload, "metric": name, "kind": kind,
                        "value": float(statistics.median(values)),
                        "unit": metric["unit"], "better": metric["better"],
                        "bound": metric.get("bound"),
                    })
    record: Dict[str, Any] = {
        "kind": "bench",
        "schema": LEDGER_SCHEMA,
        "time": time.time(),
        "machine": machine_fingerprint(),
        "entries": entries,
    }
    if note:
        record["note"] = note
    Journal(ledger_path).append(record)
    return record


@dataclass
class BenchDelta:
    """One metric's baseline-vs-current movement."""

    workload: str
    metric: str
    kind: str
    baseline: float
    current: float
    better: str
    bound: Optional[float]  # None: reported, never gated
    unit: str = ""

    @property
    def change(self) -> float:
        """Signed relative change, positive = better."""
        if self.baseline == 0:
            return 0.0
        gain = self.current - self.baseline
        if self.better != "higher":
            gain = -gain
        return gain / abs(self.baseline)

    @property
    def regressed(self) -> bool:
        return self.bound is not None and self.change < -self.bound

    @property
    def improved(self) -> bool:
        return self.bound is not None and self.change > self.bound

    @property
    def key(self) -> Tuple[str, str]:
        return (self.workload, self.metric)


@dataclass
class BenchComparison:
    """The outcome of :func:`compare_ledger`."""

    same_machine: bool
    deltas: List[BenchDelta]  # end-to-end: gated on their bounds
    layer_deltas: List[BenchDelta]  # per-layer: reported only
    missing: List[Tuple[str, str]]  # in baseline, absent now
    added: List[Tuple[str, str]]  # new now, absent in baseline

    @property
    def regressions(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.improved]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def mover(self) -> Optional[BenchDelta]:
        """The layer that moved: the per-layer seconds entry that moved
        the most seconds. Counts and fractions never name it, and neither
        does a relative change: near zero (a fraction crossing it, a
        layer that takes microseconds) it is noise, not a layer moving.
        """
        return max(
            (d for d in self.layer_deltas if d.unit == "s"),
            key=lambda d: abs(d.current - d.baseline),
            default=None,
        )


def read_ledger(ledger_path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Current-schema bench records from the ledger, oldest first
    (journal framing: torn trailing lines are tolerated; foreign kinds
    and older schemas skipped)."""
    path = Path(ledger_path)
    if not path.exists():
        return []
    return [
        r for r in Journal(path).read()
        if r.get("kind") == "bench" and r.get("schema") == LEDGER_SCHEMA
    ]


def compare_ledger(
    ledger_path: Union[str, Path],
    prefer_same_machine: bool = True,
) -> BenchComparison:
    """Diff the newest ledger record against its baseline.

    The baseline is the most recent earlier record from the same host
    (when ``prefer_same_machine`` and one exists); otherwise the most
    recent earlier record outright. Raises :class:`BenchLedgerError`
    when the ledger holds fewer than two records — there is nothing to
    compare, which is different from "no regression".
    """
    records = read_ledger(ledger_path)
    if len(records) < 2:
        raise BenchLedgerError(
            f"ledger {ledger_path} holds {len(records)} schema-"
            f"{LEDGER_SCHEMA} bench record(s); need at least two to "
            "compare (run `repro bench record` first)"
        )
    current = records[-1]
    earlier = records[:-1]
    baseline = None
    if prefer_same_machine:
        host = current.get("machine", {}).get("host")
        for candidate in reversed(earlier):
            if candidate.get("machine", {}).get("host") == host:
                baseline = candidate
                break
    if baseline is None:
        baseline = earlier[-1]

    def index(record: Dict[str, Any]) -> Dict[Tuple[str, str], Dict]:
        return {(e["workload"], e["metric"]): e for e in record["entries"]}

    base_entries = index(baseline)
    curr_entries = index(current)
    deltas = [
        BenchDelta(
            *key, kind=e["kind"], baseline=base_entries[key]["value"],
            current=e["value"], better=e["better"], bound=e["bound"],
            unit=e.get("unit", ""),
        )
        for key, e in curr_entries.items()
        if key in base_entries
    ]
    return BenchComparison(
        same_machine=(
            baseline.get("machine", {}).get("host")
            == current.get("machine", {}).get("host")
        ),
        deltas=[d for d in deltas if d.kind == KINDS[0]],
        layer_deltas=[d for d in deltas if d.kind == KINDS[1]],
        missing=sorted(k for k in base_entries if k not in curr_entries),
        added=sorted(k for k in curr_entries if k not in base_entries),
    )


def format_comparison(comparison: BenchComparison) -> str:
    """Human-readable comparison table (what ``repro bench compare``
    prints)."""

    def row(delta: BenchDelta) -> str:
        label = f"{delta.workload}/{delta.metric}"
        return (
            f"{label:<44} {delta.baseline:>12.4g} {delta.current:>12.4g} "
            f"{delta.change:>+7.1%}"
        )

    header = (
        f"{'workload/metric':<44} {'baseline':>12} {'current':>12} "
        f"{'change':>8}"
    )
    lines = [f"{header}  {'bound':>5}  verdict"]
    for delta in comparison.deltas:
        verdict = (
            "REGRESSED" if delta.regressed
            else "improved" if delta.improved else "ok"
        )
        bound = "-" if delta.bound is None else f"{delta.bound:.0%}"
        lines.append(f"{row(delta)}  {bound:>5}  {verdict}")
    if comparison.layer_deltas:
        lines.append(f"per-layer (not gated)\n{header}")
        lines.extend(row(delta) for delta in comparison.layer_deltas)
    for key in comparison.missing:
        lines.append(f"{'/'.join(key):<44} (present in baseline only)")
    for key in comparison.added:
        lines.append(f"{'/'.join(key):<44} (new metric, no baseline)")
    if not comparison.same_machine:
        lines.append(
            "note: baseline is from a different machine; "
            "timing deltas are unreliable"
        )
    mover = comparison.mover
    if mover is not None:
        lines.append(
            f"the layer that moved: {mover.workload}/{mover.metric} "
            f"{mover.change:+.1%} ({mover.current - mover.baseline:+.4g} s)"
        )
    lines.append(
        f"{len(comparison.deltas)} compared, "
        f"{len(comparison.regressions)} regressed, "
        f"{len(comparison.improvements)} improved"
    )
    return "\n".join(lines)
