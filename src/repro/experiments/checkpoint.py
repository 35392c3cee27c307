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

Both journals are **append-only**: each record lands through
:func:`repro.persist.atomic_append_jsonl` — one fsynced ``O_APPEND`` write,
O(record) instead of the full-file rewrite the first implementation paid per
cell.  A kill mid-append can at worst leave one torn *trailing* line, which
the loader skips and the next append truncates away before writing, on
resume exactly as mid-run.  Within one run the executor journals each task
key once; should a key appear twice (a cell that completed around a kill),
:meth:`CampaignCheckpoint.completed` resolves it last-wins, so a resume
never rewrites the journal.

The journal is single-writer by design: one campaign process owns a
checkpoint directory at a time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.persist import atomic_append_jsonl, atomic_write_jsonl, read_jsonl

__all__ = ["CHECKPOINT_SCHEMA_VERSION", "CampaignCheckpoint"]

CHECKPOINT_SCHEMA_VERSION = 1


def _valid_records(records: List[Any]) -> List[Dict[str, Any]]:
    return [
        r for r in records
        if isinstance(r, dict)
        and r.get("schema_version") == CHECKPOINT_SCHEMA_VERSION
    ]


class CampaignCheckpoint:
    """Journal of completed and quarantined tasks for one campaign.

    ``resume=False`` starts a fresh journal (truncating any stale one in the
    directory); ``resume=True`` loads the existing records so the executor
    can skip already-completed tasks.  Resuming only reads: a torn tail left
    by a crash is healed by the next append, and a key journalled twice
    resolves last-wins.
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
        if resume:
            self._records = _valid_records(read_jsonl(self.path))
            self._quarantine = [
                r for r in read_jsonl(self.quarantine_path)
                if isinstance(r, dict)
            ]
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
