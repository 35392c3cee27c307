"""Crash-safe campaign checkpointing.

A campaign's progress lives in two JSONL journals inside the checkpoint
directory:

* ``checkpoint.jsonl`` — one record per *completed* task: its content-derived
  key, label, attempt history, and the JSON-encoded result.  A killed
  campaign restarted with ``resume=True`` replays this journal and re-runs
  only the missing cells; because every cell is a deterministic function of
  its parameters, the resumed campaign's aggregate output is byte-identical
  to an uninterrupted run.
* ``quarantine.jsonl`` — one record per task that exhausted its retry budget,
  with the full failure taxonomy (kind, error, traceback, backoff waits) so
  a campaign postmortem needs no log spelunking.

Both journals are **append-only** during a run: each record lands through
:func:`repro.persist.atomic_append_jsonl` — one fsynced ``O_APPEND`` write,
O(record) instead of the full-file rewrite the first implementation paid per
cell.  A kill mid-append can at worst leave one torn *trailing* line, which
the loader tolerates (and which the next append truncates away before
writing).  Within one run the executor journals each task key once, so the
journal only needs **compaction** — last-wins dedup by key, rewritten
through :func:`repro.persist.atomic_write_jsonl`'s temp-then-rename path —
when a resume finds it dirty; a crash at any point during that compaction
leaves either the old appended journal or the new compacted one on disk,
never a mix.  The storage chaos engine (:mod:`repro.chaos`) explores a
simulated kill at every persist operation of a campaign run and asserts
the resume after it stays byte-identical; the resume itself (and so this
compaction) is not killed.

The journal is single-writer by design: one campaign process owns a
checkpoint directory at a time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.persist import (
    JsonlReport,
    atomic_append_jsonl,
    atomic_write_jsonl,
    read_jsonl_report,
)

__all__ = ["CHECKPOINT_SCHEMA_VERSION", "CampaignCheckpoint"]

CHECKPOINT_SCHEMA_VERSION = 1


def _valid_records(report: JsonlReport) -> List[Dict[str, Any]]:
    return [
        r for r in report.records
        if isinstance(r, dict)
        and r.get("schema_version") == CHECKPOINT_SCHEMA_VERSION
    ]


class CampaignCheckpoint:
    """Journal of completed and quarantined tasks for one campaign.

    ``resume=False`` starts a fresh journal (truncating any stale one in the
    directory); ``resume=True`` loads the existing records so the executor
    can skip already-completed tasks.  On resume, a journal left dirty by a
    crash — torn tail, or duplicate keys from a cell that completed twice
    around a kill — is healed by an immediate compaction, so the post-resume
    on-disk state is always clean.  ``load_report`` keeps the tolerant-read
    evidence (torn/skipped line counts per journal) for postmortems: a torn
    *tail* is the expected post-crash state, torn *interior* lines are real
    corruption and are surfaced, never silently dropped.
    """

    def __init__(
        self, directory: Union[str, Path], resume: bool = False
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "checkpoint.jsonl"
        self.quarantine_path = self.directory / "quarantine.jsonl"
        self._records: List[Dict[str, Any]] = []
        self._quarantine: List[Dict[str, Any]] = []
        self.load_report: Dict[str, JsonlReport] = {}
        if resume:
            ckpt_report = read_jsonl_report(self.path)
            quarantine_report = read_jsonl_report(self.quarantine_path)
            self.load_report = {
                "checkpoint": ckpt_report,
                "quarantine": quarantine_report,
            }
            self._records = _valid_records(ckpt_report)
            self._quarantine = [
                r for r in quarantine_report.records if isinstance(r, dict)
            ]
            if not ckpt_report.clean or self._has_duplicate_keys():
                self.compact()
            if not quarantine_report.clean:
                atomic_write_jsonl(self.quarantine_path, self._quarantine)
        else:
            atomic_write_jsonl(self.path, self._records)
            atomic_write_jsonl(self.quarantine_path, self._quarantine)

    # -- completed tasks --------------------------------------------------------

    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Completed records keyed by task key (last record wins)."""
        return {str(r["key"]): r for r in self._records if "key" in r}

    def record_completed(
        self,
        key: str,
        label: str,
        result: Any,
        attempts: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        """Journal one completed task; durable before this returns."""
        record = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "key": key,
            "label": label,
            "attempts": list(attempts or []),
            "result": result,
        }
        self._records.append(record)
        atomic_append_jsonl(self.path, record)

    def compact(self) -> None:
        """Rewrite the completed-task journal deduplicated, crash-safely.

        Last-wins dedup by key, preserving first-seen order; the rewrite
        goes through the atomic temp-then-rename path, so a kill at any
        point leaves either the old appended journal or the new compacted
        one — both fully parseable, both containing every completed task.
        """
        deduped = list(self.completed().values())
        self._records = deduped
        atomic_write_jsonl(self.path, deduped)

    def _has_duplicate_keys(self) -> bool:
        keys = [str(r.get("key")) for r in self._records]
        return len(keys) != len(set(keys))

    # -- quarantined tasks ------------------------------------------------------

    def quarantined(self) -> List[Dict[str, Any]]:
        return list(self._quarantine)

    def record_quarantined(
        self, key: str, label: str, attempts: List[Dict[str, Any]]
    ) -> None:
        """Journal one task that exhausted its retries; durable on return."""
        record = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "key": key,
            "label": label,
            "attempts": list(attempts),
        }
        self._quarantine.append(record)
        atomic_append_jsonl(self.quarantine_path, record)
