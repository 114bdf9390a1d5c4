"""Crash-consistent job journal: accepted jobs survive a daemon restart.

One JSON file per job (``job-<id>.json``), rewritten *atomically* (temp +
``os.replace``, the :meth:`repro.par.cache.PaRCache.put` idiom) at every
state transition -- so any file the replay scan finds is a complete,
parseable snapshot of one job at some point in its life, never a torn
write.  The encoding is :func:`repro.service.spec.canonical_dumps`: plain
JSON with sorted keys, the same canonical form the job keys and result
digests hash -- what the journal stores is exactly what the service hashed.

Entry schema (all JSON-able)::

    {"id": str, "key": str, "class": str, "spec": {...},      # identity
     "state": "accepted" | "running" | "completed" | "failed",
     "attempts": int, "submitted_ts": float, "updated_ts": float,
     "seq": int,                                              # id counter
     "result": {...}?,                                        # completed
     "error": str?}                                           # failed

Replay semantics (:meth:`JobJournal.replay`): ``accepted`` and ``running``
entries are the daemon's debt -- jobs the service said yes to but never
finished -- and are re-queued; ``completed`` entries re-seed the result
table (their results serve duplicate submissions without recompute);
``failed`` entries are kept for status queries only.  A corrupt entry is
absorbed -- counted, reported as a ``journal-corrupt-entry`` recovery
event, never fatal -- because a journal that refuses to replay after a
crash is worse than one missing a job.  The ``service.journal`` fault
point covers the write path (kind ``io``); dropped journal writes degrade
durability, never availability, mirroring the cache's absorb-and-count
contract.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..obs import metrics as obs_metrics
from ..util.resilience import inject, record_event
from .spec import canonical_dumps

__all__ = ["JobJournal"]

#: States a replay re-queues: accepted-but-unfinished work is never lost.
_PENDING_STATES = ("accepted", "running")


class JobJournal:
    """Directory-backed journal with atomic per-job snapshot writes."""

    def __init__(self, directory: Union[str, Path]) -> None:
        """Create (if needed) and wrap ``directory``."""
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.writes = 0
        self.dropped_writes = 0
        self.corrupt_entries = 0

    def _path(self, job_id: str) -> Path:
        return self.directory / f"job-{job_id}.json"

    # -- write path ---------------------------------------------------------

    def record(
        self,
        entry: Dict[str, Any],
        events: Optional[List[Dict[str, Any]]] = None,
    ) -> bool:
        """Atomically persist one job snapshot; ``False`` if dropped.

        A failed write (full disk, unwritable directory, injected
        ``service.journal`` fault) is absorbed: the daemon keeps serving
        from memory and the drop is counted in :meth:`stats` /
        ``service.journal_dropped_writes`` -- durability degrades,
        availability does not.
        """
        tmp = None
        try:
            fault = inject("service.journal")
            if fault is not None:
                raise OSError(
                    f"injected journal write fault ({fault}) for {entry.get('id')}"
                )
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(canonical_dumps(entry))
            os.replace(tmp, self._path(str(entry["id"])))
            self.writes += 1
            return True
        except OSError as exc:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            self.dropped_writes += 1
            obs_metrics.add("service.journal_dropped_writes")
            record_event(
                events,
                "journal-write-dropped",
                site="service.journal",
                job=entry.get("id"),
                error=f"{type(exc).__name__}: {exc}",
            )
            return False

    # -- read / replay path -------------------------------------------------

    def load(self, job_id: str) -> Optional[Dict[str, Any]]:
        """One job's latest snapshot, or ``None`` (missing or corrupt)."""
        try:
            with open(self._path(job_id), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def entries(
        self, events: Optional[List[Dict[str, Any]]] = None
    ) -> List[Dict[str, Any]]:
        """Every readable snapshot, sorted by sequence number then id.

        Corrupt or truncated files are skipped and counted; each is
        reported once as a ``journal-corrupt-entry`` recovery event.
        """
        out: List[Dict[str, Any]] = []
        for path in sorted(self.directory.glob("job-*.json")):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    entry = json.load(fh)
                if not isinstance(entry, dict) or "id" not in entry:
                    raise ValueError("journal entry is not a job snapshot")
            except (OSError, ValueError) as exc:
                self.corrupt_entries += 1
                obs_metrics.add("service.journal_corrupt_entries")
                record_event(
                    events,
                    "journal-corrupt-entry",
                    site="service.journal",
                    file=path.name,
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            out.append(entry)
        out.sort(key=lambda e: (e.get("seq", 0), str(e.get("id"))))
        return out

    def replay(
        self, events: Optional[List[Dict[str, Any]]] = None
    ) -> Dict[str, List[Dict[str, Any]]]:
        """Classify every entry for a restarting daemon.

        Returns ``{"pending": [...], "completed": [...], "failed": [...]}``;
        ``pending`` (accepted/running) must be re-queued, ``completed``
        re-seeds the result table, ``failed`` is kept for status queries.
        """
        out: Dict[str, List[Dict[str, Any]]] = {
            "pending": [],
            "completed": [],
            "failed": [],
        }
        for entry in self.entries(events=events):
            state = entry.get("state")
            if state in _PENDING_STATES:
                out["pending"].append(entry)
            elif state == "completed":
                out["completed"].append(entry)
            elif state == "failed":
                out["failed"].append(entry)
            else:
                self.corrupt_entries += 1
                record_event(
                    events,
                    "journal-corrupt-entry",
                    site="service.journal",
                    job=entry.get("id"),
                    error=f"unknown state {state!r}",
                )
        return out

    def stats(self) -> Dict[str, int]:
        """Write/drop/corruption tallies (all zero on a healthy journal)."""
        return {
            "writes": self.writes,
            "dropped_writes": self.dropped_writes,
            "corrupt_entries": self.corrupt_entries,
        }
