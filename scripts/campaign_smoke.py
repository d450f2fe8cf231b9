#!/usr/bin/env python
"""End-to-end smoke test for fault-tolerant campaigns (``make campaign-smoke``).

Exercises the full robustness story against the toy suite on the 16-PE
linear architecture:

1. run an uninterrupted reference campaign;
2. start the same campaign on a second journal with a hang injected at
   a mid-campaign job, SIGKILL it while that job sleeps, and resume it
   (without the fault plan) — per-job best EDP must match the reference
   exactly;
3. run with an injected worker crash and an injected always-raising job —
   the crash must be retried to success, the raiser quarantined, and the
   campaign must still exit 0;
4. run the fig13 DeepBench sweep directly, with ``--journal``, and again
   on that journal (a replay) — all three must print byte-identical
   reports; their wall times are printed, not checked;
5. start a 2-worker parallel branch-and-bound search and SIGKILL one of
   its worker processes — the search must exit with code 5 (a
   ``WorkerError``) within 30 s and leave no worker process behind.

Runs in a few tens of seconds; exits nonzero on any mismatch.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

BASE_CMD = [
    sys.executable,
    "-m",
    "repro",
    "campaign",
    "run",
    "--suite",
    "toy",
    "--arch",
    "toy16",
    "--kinds",
    "ruby-s",
    "--seeds",
    "1",
    "--budget",
    "150",
    "--workers",
    "2",
]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run(cmd, **kwargs):
    return subprocess.run(cmd, env=_env(), cwd=REPO, **kwargs)


def _job_results(journal: Path) -> dict:
    """Latest terminal record per job_id -> (status, edp)."""
    results = {}
    for line in journal.read_text().splitlines():
        record = json.loads(line)
        if record.get("kind") != "job":
            continue
        if record.get("status") not in ("ok", "quarantined"):
            continue
        edp = (record.get("metrics") or {}).get("edp")
        results[record["job_id"]] = (record["status"], edp)
    return results


def _count_terminal(journal: Path) -> int:
    if not journal.exists():
        return 0
    count = 0
    for line in journal.read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail from the SIGKILL — exactly what resume tolerates
        if record.get("kind") == "job" and record.get("status") in (
            "ok",
            "quarantined",
        ):
            count += 1
    return count


def step_reference(workdir: Path) -> dict:
    journal = workdir / "reference.jsonl"
    proc = _run(BASE_CMD + ["--journal", str(journal)], capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"reference campaign failed:\n{proc.stderr.decode()}")
    results = _job_results(journal)
    print(f"[1/5] reference campaign: {len(results)} jobs ok")
    return results


#: The job held asleep on its first attempt while step 2 kills the
#: campaign, and for how long. It starts only after two earlier jobs have
#: finished on the two workers, so the kill (sent once two terminal
#: records are journaled) always lands while it sleeps, however fast the
#: other jobs run; no ``--timeout`` is set, so the job would still finish
#: with its normal result.
HELD_JOB = "toy:fig8_d127:ruby-s"
HOLD_S = 3.0


def step_kill_and_resume(workdir: Path, reference: dict) -> None:
    journal = workdir / "interrupted.jsonl"
    plan_path = workdir / "hold.json"
    plan_path.write_text(json.dumps({
        "schema": 1,
        "faults": [
            {"job": HELD_JOB, "attempt": 0, "kind": "hang",
             "seconds": HOLD_S},
        ],
    }))
    proc = subprocess.Popen(
        BASE_CMD + ["--journal", str(journal), "--fault-plan", str(plan_path)],
        env=_env(),
        cwd=REPO,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline and _count_terminal(journal) < 2:
        if proc.poll() is not None:
            sys.exit("campaign finished before it could be interrupted")
        time.sleep(0.05)
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    interrupted = _count_terminal(journal)
    if interrupted >= len(reference) or HELD_JOB in _job_results(journal):
        sys.exit("campaign finished before it could be interrupted")
    print(f"[2/5] SIGKILLed campaign after {interrupted} jobs, while "
          f"{HELD_JOB} slept; resuming")

    resumed = _run(
        [
            sys.executable, "-m", "repro", "campaign", "resume",
            "--journal", str(journal),
        ],
        capture_output=True,
    )
    if resumed.returncode != 0:
        sys.exit(f"resume failed:\n{resumed.stderr.decode()}")
    results = _job_results(journal)
    if set(results) != set(reference):
        sys.exit(
            f"resume job set mismatch: {sorted(set(reference) ^ set(results))}"
        )
    for job_id, (status, edp) in sorted(results.items()):
        ref_status, ref_edp = reference[job_id]
        if status != "ok" or ref_status != "ok" or edp != ref_edp:
            sys.exit(
                f"resume parity violated for {job_id}: "
                f"{status}/{edp} vs reference {ref_status}/{ref_edp}"
            )
    print(f"      resumed campaign matches reference on all "
          f"{len(results)} jobs (best EDP identical)")


def step_faults(workdir: Path, reference: dict) -> None:
    crash_job = "toy:fig8_d96:ruby-s"
    doomed_job = "toy:table1_d23:ruby-s"
    plan = {
        "schema": 1,
        "faults": [
            {"job": crash_job, "attempt": 0, "kind": "crash"},
        ]
        + [
            {
                "job": doomed_job,
                "attempt": attempt,
                "kind": "raise",
                "message": "injected smoke fault",
            }
            for attempt in range(3)
        ],
    }
    plan_path = workdir / "faults.json"
    plan_path.write_text(json.dumps(plan))
    journal = workdir / "faulty.jsonl"
    proc = _run(
        BASE_CMD
        + [
            "--journal", str(journal),
            "--fault-plan", str(plan_path),
            "--backoff", "0.05",
        ],
        capture_output=True,
    )
    if proc.returncode != 0:
        sys.exit(
            f"fault-injected campaign aborted (exit {proc.returncode}):\n"
            f"{proc.stderr.decode()}"
        )
    results = _job_results(journal)
    status, edp = results[crash_job]
    if status != "ok" or edp != reference[crash_job][1]:
        sys.exit(f"crashed job not retried to parity: {status}/{edp}")
    if results[doomed_job][0] != "quarantined":
        sys.exit(f"doomed job not quarantined: {results[doomed_job]}")
    ok = sum(1 for status, _ in results.values() if status == "ok")
    print(
        f"[3/5] fault injection: crash retried to identical EDP, "
        f"raiser quarantined ({ok} ok / 1 quarantined)"
    )


def step_experiment_parity(workdir: Path) -> None:
    experiment = [
        sys.executable, "-m", "repro", "experiment", "fig13",
        "--suite", "deepbench", "--budget", "300",
    ]
    journal = workdir / "fig13.jsonl"
    outputs = {}
    walls = {}
    for label, extra in (
        ("direct", []),
        ("journaled", ["--journal", str(journal)]),
        ("replayed", ["--journal", str(journal)]),
    ):
        started = time.perf_counter()
        proc = _run(experiment + extra, capture_output=True)
        walls[label] = time.perf_counter() - started
        if proc.returncode != 0:
            sys.exit(f"{label} fig13 run failed:\n{proc.stderr.decode()}")
        outputs[label] = proc.stdout
    for label in ("journaled", "replayed"):
        if outputs[label] != outputs["direct"]:
            sys.exit(
                f"fig13 {label} output differs from the direct run:\n"
                f"--- direct\n{outputs['direct'].decode()}\n"
                f"--- {label}\n{outputs[label].decode()}"
            )
    print("[4/5] fig13 deepbench: direct, journaled and replayed runs "
          "print identical reports")
    print("      wall s: " + ", ".join(
        f"{label} {seconds:.2f}" for label, seconds in walls.items()
    ))


#: A search that runs well over 3 s on two workers (about 14 s on a
#: 2-core x86 host), so the kill lands while units are in flight.
KILL_SEARCH = [
    sys.executable, "-m", "repro", "search", "--arch", "eyeriss",
    "--row-stationary", "--conv", "C=1024,M=256,P=14,Q=14,R=1,S=1",
    "--kind", "ruby-s", "--searcher", "branch-bound", "--workers", "2",
    "--seed", "0",
]


def _children(pid: int) -> list:
    found = subprocess.run(
        ["pgrep", "-P", str(pid)], capture_output=True, text=True
    )
    return [int(line) for line in found.stdout.split()]


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def step_worker_kill() -> None:
    proc = subprocess.Popen(
        KILL_SEARCH, env=_env(), cwd=REPO,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    workers: list = []
    deadline = time.monotonic() + 60
    while len(workers) < 2 and time.monotonic() < deadline:
        if proc.poll() is not None:
            sys.exit("search finished before its workers could be killed")
        workers = _children(proc.pid)
        time.sleep(0.05)
    if len(workers) < 2:
        proc.kill()
        sys.exit("search started no workers within 60 s")
    os.kill(workers[0], signal.SIGKILL)
    try:
        _, stderr = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        stragglers = set(workers) | set(_children(proc.pid))
        proc.kill()
        for pid in stragglers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        sys.exit("search hung after one of its workers was SIGKILLed")
    if proc.returncode != 5:
        sys.exit(
            f"killed-worker search exited {proc.returncode}, expected 5:\n"
            f"{stderr.decode()}"
        )
    survivors = [pid for pid in workers if _alive(pid)]
    if survivors:
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        sys.exit(f"worker processes outlived the search: {survivors}")
    print("[5/5] SIGKILLed one branch-and-bound worker: the search exited 5 "
          "and no worker outlived it")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="campaign-smoke-") as tmp:
        workdir = Path(tmp)
        reference = step_reference(workdir)
        step_kill_and_resume(workdir, reference)
        step_faults(workdir, reference)
        step_experiment_parity(workdir)
    step_worker_kill()
    print("campaign smoke: OK")


if __name__ == "__main__":
    main()
