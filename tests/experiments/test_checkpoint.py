"""Tests for the crash-safe campaign checkpoint journal and persist helpers."""

import json

import pytest

from repro.experiments.checkpoint import CHECKPOINT_SCHEMA_VERSION, CampaignCheckpoint
from repro.persist import (
    atomic_write_jsonl,
    atomic_write_text,
    read_jsonl,
)


# ---------------------------------------------------------------------------
# persist primitives
# ---------------------------------------------------------------------------

def test_atomic_write_text_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "artifact.json"
    atomic_write_text(target, "one")
    atomic_write_text(target, "two")
    assert target.read_text(encoding="utf-8") == "two"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_atomic_write_text_creates_parent_dirs(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    atomic_write_text(target, "deep")
    assert target.read_text(encoding="utf-8") == "deep"


def test_atomic_write_failure_cleans_temp_and_keeps_old(tmp_path):
    target = tmp_path / "artifact.json"
    atomic_write_text(target, "old")

    class Unserialisable:
        pass

    with pytest.raises(TypeError):
        atomic_write_jsonl(target, [{"bad": Unserialisable()}])
    assert target.read_text(encoding="utf-8") == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_read_jsonl_tolerates_torn_tail(tmp_path):
    path = tmp_path / "journal.jsonl"
    lines = [json.dumps({"i": 0}), json.dumps({"i": 1}), '{"i": 2, "tor']
    path.write_text("\n".join(lines), encoding="utf-8")
    assert read_jsonl(path) == [{"i": 0}, {"i": 1}]
    assert read_jsonl(tmp_path / "missing.jsonl") == []


# ---------------------------------------------------------------------------
# CampaignCheckpoint
# ---------------------------------------------------------------------------

def test_fresh_checkpoint_truncates_stale_journals(tmp_path):
    first = CampaignCheckpoint(tmp_path)
    first.record_completed("k1", "cell", {"x": 1}, [])
    assert CampaignCheckpoint(tmp_path, resume=True).completed().keys() == {"k1"}

    fresh = CampaignCheckpoint(tmp_path, resume=False)
    assert fresh.completed() == {}
    assert read_jsonl(tmp_path / "checkpoint.jsonl") == []


def test_resume_replays_completed_and_quarantined(tmp_path):
    journal = CampaignCheckpoint(tmp_path)
    journal.record_completed("k1", "cell-1", {"metric": 1.5},
                             [{"attempt": 1, "outcome": "ok"}])
    journal.record_quarantined("k2", "cell-2",
                               [{"attempt": 1, "outcome": "timeout"}])

    resumed = CampaignCheckpoint(tmp_path, resume=True)
    completed = resumed.completed()
    assert completed["k1"]["result"] == {"metric": 1.5}
    assert completed["k1"]["schema_version"] == CHECKPOINT_SCHEMA_VERSION
    assert [q["key"] for q in resumed.quarantined()] == ["k2"]


def test_resume_ignores_foreign_schema_records(tmp_path):
    path = tmp_path / "checkpoint.jsonl"
    records = [
        {"schema_version": CHECKPOINT_SCHEMA_VERSION, "key": "good", "label": "",
         "attempts": [], "result": 1},
        {"schema_version": 99, "key": "future", "result": 2},
        ["not", "a", "record"],
    ]
    path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
    )
    resumed = CampaignCheckpoint(tmp_path, resume=True)
    assert set(resumed.completed()) == {"good"}


def test_journal_survives_kill_between_records(tmp_path):
    """Every record_completed leaves a fully-parseable journal on disk."""
    journal = CampaignCheckpoint(tmp_path)
    for i in range(5):
        journal.record_completed(f"k{i}", "", {"i": i}, [])
        on_disk = read_jsonl(tmp_path / "checkpoint.jsonl")
        assert len(on_disk) == i + 1
        assert all(isinstance(r, dict) and "result" in r for r in on_disk)
    # No temp droppings from the atomic writes.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "checkpoint.jsonl", "quarantine.jsonl",
    ]


# ---------------------------------------------------------------------------
# append-only journal + compaction
# ---------------------------------------------------------------------------

def test_records_append_without_rewriting_earlier_lines(tmp_path):
    """Journalling is O(record): earlier bytes never change between appends."""
    journal = CampaignCheckpoint(tmp_path)
    path = tmp_path / "checkpoint.jsonl"
    journal.record_completed("k0", "", {"i": 0}, [])
    first = path.read_bytes()
    journal.record_completed("k1", "", {"i": 1}, [])
    assert path.read_bytes()[: len(first)] == first


def test_resume_heals_torn_tail_and_duplicates(tmp_path):
    journal = CampaignCheckpoint(tmp_path)
    journal.record_completed("a", "", {"v": 1}, [])
    journal.record_completed("a", "", {"v": 2}, [])
    path = tmp_path / "checkpoint.jsonl"
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"torn": ')  # mid-append kill
    resumed = CampaignCheckpoint(tmp_path, resume=True)
    assert resumed.completed()["a"]["result"] == {"v": 2}
    # The post-resume journal is compacted clean: one line, no fragment.
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["result"] == {"v": 2}
    assert resumed.load_report["checkpoint"].torn_tail


def test_resume_keeps_clean_journal_byte_identical(tmp_path):
    """No gratuitous rewrites: a clean journal is left untouched on resume."""
    journal = CampaignCheckpoint(tmp_path)
    journal.record_completed("a", "", {"v": 1}, [])
    journal.record_quarantined("q", "", [{"attempt": 1, "outcome": "timeout"}])
    ckpt_bytes = (tmp_path / "checkpoint.jsonl").read_bytes()
    quarantine_bytes = (tmp_path / "quarantine.jsonl").read_bytes()
    CampaignCheckpoint(tmp_path, resume=True)
    assert (tmp_path / "checkpoint.jsonl").read_bytes() == ckpt_bytes
    assert (tmp_path / "quarantine.jsonl").read_bytes() == quarantine_bytes
