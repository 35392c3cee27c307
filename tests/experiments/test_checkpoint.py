"""Tests for the crash-safe campaign checkpoint journal and persist helpers.

Durability is pinned here by targeted tests, one per way a write can go
wrong (a full disk mid-write, a short write, a torn tail left by a kill),
and end to end by ``test_resume_determinism.py``'s real SIGKILL.  Faults
are injected by monkeypatching ``os.write``, which is the only call that
moves bytes in :mod:`repro.persist`.
"""

import errno
import json
import os

import pytest

from repro.errors import PersistError
from repro.experiments.checkpoint import CHECKPOINT_SCHEMA_VERSION, CampaignCheckpoint
from repro.persist import (
    atomic_append_jsonl,
    atomic_write_json,
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


def test_atomic_write_failure_cleans_temp_and_keeps_old(tmp_path, monkeypatch):
    target = tmp_path / "artifact.json"
    atomic_write_json(target, {"generation": 1})

    def full_disk(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", full_disk)
    with pytest.raises(PersistError) as err:
        atomic_write_json(target, {"generation": 2})
    monkeypatch.undo()
    assert err.value.errno == errno.ENOSPC
    assert err.value.partial_bytes == 0
    assert json.loads(target.read_text(encoding="utf-8")) == {"generation": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_enospc_on_write_surfaces_partial_byte_count(tmp_path, monkeypatch):
    # The disk fills after half the payload is written: the error reports
    # how far the write got, and no partial target is ever exposed.
    real_write = os.write
    calls = []

    def fills_up(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data[: len(data) // 2])

    monkeypatch.setattr(os, "write", fills_up)
    with pytest.raises(PersistError) as err:
        atomic_write_text(tmp_path / "a.txt", "x" * 64)
    monkeypatch.undo()
    assert err.value.errno == errno.ENOSPC
    assert err.value.partial_bytes == 32
    assert list(tmp_path.iterdir()) == []


def test_failed_json_write_leaves_previous_content(tmp_path, monkeypatch):
    # The temp file is complete but fsync fails: the error propagates, the
    # previous generation stays readable and the temp file is removed.
    target = tmp_path / "state.json"
    atomic_write_json(target, {"generation": 1})

    def failing_fsync(fd):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError) as err:
        atomic_write_json(target, {"generation": 2})
    monkeypatch.undo()
    assert err.value.errno == errno.EIO
    assert json.loads(target.read_text(encoding="utf-8")) == {"generation": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


def test_short_writes_are_finished_by_the_loop(tmp_path, monkeypatch):
    real_write = os.write
    calls = []

    def half_write(fd, data):
        calls.append(len(data))
        return real_write(fd, data[: max(1, len(data) // 2)])

    monkeypatch.setattr(os, "write", half_write)
    atomic_append_jsonl(tmp_path / "a.jsonl", {"payload": "x" * 64})
    atomic_write_text(tmp_path / "b.txt", "y" * 64)
    monkeypatch.undo()
    assert read_jsonl(tmp_path / "a.jsonl") == [{"payload": "x" * 64}]
    assert (tmp_path / "b.txt").read_text(encoding="utf-8") == "y" * 64
    assert len(calls) > 2


def test_read_jsonl_tolerates_torn_tail(tmp_path, caplog):
    path = tmp_path / "journal.jsonl"
    lines = [json.dumps({"i": 0}), json.dumps({"i": 1}), '{"i": 2, "tor']
    path.write_text("\n".join(lines), encoding="utf-8")
    with caplog.at_level("WARNING", logger="repro.persist"):
        assert read_jsonl(path) == [{"i": 0}, {"i": 1}]
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: torn trailing line (crash mid-append?); kept 2 complete "
        "record(s)"
    ]
    assert read_jsonl(tmp_path / "missing.jsonl") == []


def test_interior_corruption_is_reported_not_swallowed(tmp_path, caplog):
    path = tmp_path / "journal.jsonl"
    path.write_text('{"a": 1}\nnot json at all\n{"b": 2}\n', encoding="utf-8")
    with caplog.at_level("WARNING", logger="repro.persist"):
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 1 and "corruption" in messages[0]


def test_next_append_drops_a_torn_fragment(tmp_path):
    path = tmp_path / "journal.jsonl"
    atomic_append_jsonl(path, {"complete": 1})
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"doomed": tr')  # a writer killed mid-record
    atomic_append_jsonl(path, {"after": 2})
    assert path.read_text(encoding="utf-8") == (
        '{"complete": 1}\n{"after": 2}\n'
    )


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
# append-only journal
# ---------------------------------------------------------------------------

def test_records_append_without_rewriting_earlier_lines(tmp_path):
    """Journalling is O(record): earlier bytes never change between appends."""
    journal = CampaignCheckpoint(tmp_path)
    path = tmp_path / "checkpoint.jsonl"
    journal.record_completed("k0", "", {"i": 0}, [])
    first = path.read_bytes()
    journal.record_completed("k1", "", {"i": 1}, [])
    assert path.read_bytes()[: len(first)] == first


def test_resume_reads_duplicates_last_wins_and_next_append_heals(tmp_path, caplog):
    journal = CampaignCheckpoint(tmp_path)
    journal.record_completed("a", "", {"v": 1}, [])
    journal.record_completed("a", "", {"v": 2}, [])
    path = tmp_path / "checkpoint.jsonl"
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"torn": ')  # mid-append kill
    resumed = CampaignCheckpoint(tmp_path, resume=True)
    assert resumed.completed()["a"]["result"] == {"v": 2}
    resumed.record_completed("b", "", {"v": 3}, [])
    caplog.clear()
    with caplog.at_level("WARNING", logger="repro.persist"):
        records = read_jsonl(path)
    assert caplog.records == []
    assert [(r["key"], r["result"]) for r in records] == [
        ("a", {"v": 1}), ("a", {"v": 2}), ("b", {"v": 3}),
    ]
    again = CampaignCheckpoint(tmp_path, resume=True).completed()
    assert {k: r["result"] for k, r in again.items()} == {
        "a": {"v": 2}, "b": {"v": 3},
    }


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
