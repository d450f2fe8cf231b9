"""Append-only JSONL journal for long-running campaigns.

One JSON record per line. Appends are flushed and fsynced so a completed
job's record survives a SIGKILL of the driver; reads tolerate a torn
trailing line (the one write that *was* in flight when the process died)
by dropping it, while corruption anywhere else fails loudly.

Record kinds used by :mod:`repro.search.campaign`:

* ``{"kind": "campaign", "config": {...}, "jobs": [...]}`` — written once
  at the start of a fresh campaign; re-appended with ``"resumed": true``
  on every resume so the file is its own audit trail.
* ``{"kind": "attempt", "job_id": ..., "attempt": n, "error": {...}}`` —
  one per failed attempt (timeout, crash, or recorded exception).
* ``{"kind": "heartbeat", "event": "start" | "retry" | "timeout" | "ok" |
  "quarantine", "job_id": ..., "attempt": n}`` — lifecycle breadcrumbs for
  live status tooling; never consulted by resume.
* ``{"kind": "job", "job_id": ..., "status": "ok" | "quarantined", ...}``
  — the terminal record; resume skips jobs that have one.

Timestamped records carry both ``time`` (wall clock) and ``monotonic_s``
(``time.monotonic()``); durations should be computed from the latter,
which is immune to wall-clock jumps within one driver process.

Span traces (:mod:`repro.obs.tracing`) reuse this framing — one JSON
object per line with a ``schema`` field, torn-tail-tolerant reads — but
stream through their own flushed (not fsynced) handle, since spans are
diagnostics rather than checkpoints.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.exceptions import CampaignError, SpecError

logger = logging.getLogger(__name__)

JOURNAL_SCHEMA = 1

#: Statuses that mean "this job needs no further work on resume".
TERMINAL_STATUSES = ("ok", "quarantined")


def terminal_records(
    records: List[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Latest terminal (``kind == "job"``) record per job id in ``records``."""
    terminal: Dict[str, Dict[str, Any]] = {}
    for record in records:
        if record.get("kind") == "job" and record.get("status") in TERMINAL_STATUSES:
            terminal[record["job_id"]] = record
    return terminal


class Journal:
    """An append-only JSONL file of campaign records."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        # In-process append serialization. Single appends are one
        # O_APPEND write each, but the mapper service shares one Journal
        # across worker threads, and interleaved open/write/fsync
        # sequences through one instance must not tear each other's
        # lines. Cross-process writers still rely on O_APPEND atomicity
        # of the single line write.
        self._lock = threading.Lock()

    def exists(self) -> bool:
        return self.path.exists()

    def _open(self, mode: str):
        """Open the journal file; a path that cannot be opened (a
        directory, no permission) is a :class:`SpecError`."""
        try:
            return open(self.path, mode)
        except OSError as error:
            raise SpecError(
                f"journal {self.path}: cannot open "
                f"({error.strerror or error})"
            ) from error

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record as a single fsynced JSON line.

        The line is written with one ``write`` call and fsynced before
        returning, so a driver killed right after :meth:`append` still
        leaves the record recoverable on disk. Appends through one
        :class:`Journal` instance are thread-safe.
        """
        record = dict(record)
        record.setdefault("schema", JOURNAL_SCHEMA)
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self.path.parent and not self.path.parent.exists():
                self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._open("a") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())

    def read(self) -> List[Dict[str, Any]]:
        """All records, oldest first; a torn trailing line is dropped.

        A line that fails to parse anywhere *except* the end of the file
        means real corruption and raises :class:`CampaignError` — silently
        skipping it could resurrect half a campaign's state.
        """
        if not self.exists():
            return []
        with self._open("r") as handle:
            lines = handle.read().splitlines()
        records: List[Dict[str, Any]] = []
        for number, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                if number == len(lines) - 1:
                    logger.warning(
                        "journal %s: dropping torn trailing line %d "
                        "(interrupted write)",
                        self.path,
                        number + 1,
                    )
                    break
                raise CampaignError(
                    f"journal {self.path}: corrupt record on line "
                    f"{number + 1}: {error}"
                ) from error
        return records

    def read_incremental(
        self, offset: int = 0
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Records appended at or after byte ``offset``; returns
        ``(records, new_offset)``.

        Only complete (newline-terminated) lines are consumed: a torn
        trailing line — the one write in flight if the driver dies — is
        left unconsumed, so the *next* poll picks it up once the
        terminator lands. This is what live followers
        (``campaign status --follow``) use instead of re-reading the
        whole journal every poll. ``new_offset`` is the byte position
        after the last consumed line; pass it back on the next call.

        Appends are single fsynced writes, so a newline-terminated line
        that still fails to parse is real corruption, not a torn write,
        and raises :class:`CampaignError`.
        """
        if not self.exists():
            return [], offset
        with self._open("rb") as handle:
            handle.seek(offset)
            data = handle.read()
        records: List[Dict[str, Any]] = []
        consumed = 0
        while True:
            newline = data.find(b"\n", consumed)
            if newline < 0:
                break
            line = data[consumed:newline]
            consumed = newline + 1
            if not line.strip():
                continue
            try:
                records.append(json.loads(line.decode("utf-8")))
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                raise CampaignError(
                    f"journal {self.path}: corrupt record at byte "
                    f"{offset + consumed - len(line) - 1}: {error}"
                ) from error
        return records, offset + consumed

    def terminal_jobs(self) -> Dict[str, Dict[str, Any]]:
        """Latest terminal (``kind == "job"``) record per job id."""
        return terminal_records(self.read())

    def header(self) -> Dict[str, Any]:
        """The most recent campaign header record (config + job list)."""
        headers = [r for r in self.read() if r.get("kind") == "campaign"]
        if not headers:
            raise CampaignError(
                f"journal {self.path}: no campaign header record"
            )
        return headers[-1]
