"""Crash-safe campaign checkpointing.

A campaign's progress lives in two JSONL journals inside the checkpoint
directory:

* ``checkpoint.jsonl`` — one record per *completed* task: its content-derived
  key, label, and the JSON-encoded result.  A killed campaign restarted with
  ``resume=True`` replays this journal and re-runs only the missing cells;
  because every cell is a deterministic function of its parameters, the
  resumed campaign's aggregate output is byte-identical to an uninterrupted
  run.  Only ``key`` and ``result`` are read back, so journals that still
  carry the older per-record ``attempts`` list resume unchanged.
* ``quarantine.jsonl`` — one record per task that raised: its key, label,
  and the exception's type, message and traceback, so a campaign
  postmortem needs no log spelunking.  It is written, never read back: a
  resume re-runs a quarantined cell like any other missing one.

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
from typing import Any, Dict, List, Union

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

    ``resume=False`` starts fresh journals (truncating any stale ones in the
    directory); ``resume=True`` loads the completed records so the executor
    can skip those tasks.  Resuming only reads: a torn tail left by a crash
    is healed by the next append, and a key journalled twice resolves
    last-wins.
    """

    def __init__(
        self, directory: Union[str, Path], resume: bool = False
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "checkpoint.jsonl"
        self.quarantine_path = self.directory / "quarantine.jsonl"
        self._records: List[Dict[str, Any]] = []
        if resume:
            self._records = _valid_records(read_jsonl(self.path))
        else:
            atomic_write_jsonl(self.path, [])
            atomic_write_jsonl(self.quarantine_path, [])

    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Completed records keyed by task key (last record wins)."""
        return {str(r["key"]): r for r in self._records if "key" in r}

    def record_completed(self, key: str, label: str, result: Any) -> None:
        """Journal one completed task; durable before this returns."""
        record = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "key": key,
            "label": label,
            "result": result,
        }
        self._records.append(record)
        atomic_append_jsonl(self.path, record)

    def record_quarantined(
        self, key: str, label: str, error: Dict[str, str]
    ) -> None:
        """Journal one task that raised, with its error; durable on return."""
        atomic_append_jsonl(self.quarantine_path, {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "key": key,
            "label": label,
            **error,
        })
