"""FaultyFS fault semantics, schedule determinism, and persist hardening."""

import errno
import json

import pytest

from repro.chaos import ChaosCrash, FaultSchedule, FaultSpec, FaultyFS
from repro.chaos.testing import faulty_fs
from repro.errors import ConfigError, PersistError
from repro.persist import (
    atomic_append_jsonl,
    atomic_write_json,
    atomic_write_text,
    read_jsonl,
    read_jsonl_report,
    use_fs,
)


# ---------------------------------------------------------------------------
# FaultyFS fault kinds
# ---------------------------------------------------------------------------

def test_passthrough_records_every_op(tmp_path):
    with faulty_fs() as fs:
        atomic_write_text(tmp_path / "a.txt", "hello")
    ops = [rec.op for rec in fs.ops]
    # temp open + write + fsync + replace + parent-dir open + parent fsync
    assert ops == ["open", "write", "fsync", "replace", "open", "fsync"]
    assert (tmp_path / "a.txt").read_text() == "hello"


def test_enospc_on_write_surfaces_partial_byte_count(tmp_path):
    spec = FaultSpec(kind="enospc", op="write")
    with faulty_fs(spec):
        with pytest.raises(PersistError) as err:
            atomic_write_text(tmp_path / "a.txt", "hello")
    assert err.value.errno == errno.ENOSPC
    assert err.value.partial_bytes == 0
    # The atomic write never exposes a partial target file.
    assert not (tmp_path / "a.txt").exists()


def test_short_write_is_retried_to_completion(tmp_path):
    # Every write is cut in half, repeatedly; the persist loop must keep
    # re-issuing the remainder until the payload is fully on disk.
    spec = FaultSpec(kind="short", op="write", once=False)
    with faulty_fs(spec) as fs:
        atomic_append_jsonl(tmp_path / "a.jsonl", {"payload": "x" * 64})
    assert read_jsonl(tmp_path / "a.jsonl") == [{"payload": "x" * 64}]
    assert sum(1 for rec in fs.ops if rec.op == "write") > 1


def test_eio_on_fsync_propagates(tmp_path):
    spec = FaultSpec(kind="eio", op="fsync")
    with faulty_fs(spec):
        with pytest.raises(OSError) as err:
            atomic_write_text(tmp_path / "a.txt", "hello")
    assert err.value.errno == errno.EIO


def test_crash_freezes_the_disk(tmp_path):
    with pytest.raises(ChaosCrash):
        with faulty_fs(crash_at=3):
            atomic_write_text(tmp_path / "a.txt", "first")
            atomic_write_text(tmp_path / "b.txt", "second")
    # Ops 0-2 are a.txt's temp open/write/fsync; the crash lands before the
    # replace, so neither target file ever appears...
    assert not (tmp_path / "a.txt").exists()
    assert not (tmp_path / "b.txt").exists()


def test_dead_fs_rejects_all_later_mutations(tmp_path):
    fs = FaultyFS(crash_at=0)
    with pytest.raises(ChaosCrash):
        with use_fs(fs):
            atomic_write_text(tmp_path / "a.txt", "x")
    assert fs.dead
    with pytest.raises(ChaosCrash):
        with use_fs(fs):
            atomic_write_text(tmp_path / "b.txt", "y")


def test_torn_write_leaves_a_half_payload(tmp_path):
    target = tmp_path / "a.jsonl"
    atomic_append_jsonl(target, {"complete": 1})
    size_before = target.stat().st_size
    with pytest.raises(ChaosCrash):
        with faulty_fs(crash_at=1, crash_mode="torn"):
            # op 0 is the append's open; op 1 the write, now half-delivered.
            atomic_append_jsonl(target, {"doomed": "x" * 80})
    torn_size = target.stat().st_size
    assert size_before < torn_size < size_before + 82
    report = read_jsonl_report(target)
    assert report.records == [{"complete": 1}]
    assert report.torn_tail and report.skipped_interior == 0


def test_next_append_heals_a_torn_tail(tmp_path):
    target = tmp_path / "a.jsonl"
    atomic_append_jsonl(target, {"complete": 1})
    with pytest.raises(ChaosCrash):
        with faulty_fs(crash_at=1, crash_mode="torn"):
            atomic_append_jsonl(target, {"doomed": True})
    atomic_append_jsonl(target, {"after": 2})
    # The torn fragment is truncated away, never promoted to an interior
    # line: the journal reads clean end to end.
    report = read_jsonl_report(target)
    assert report.records == [{"complete": 1}, {"after": 2}]
    assert report.clean


def test_interior_corruption_is_reported_not_swallowed(tmp_path, caplog):
    target = tmp_path / "a.jsonl"
    target.write_text('{"a": 1}\nnot json at all\n{"b": 2}\n',
                      encoding="utf-8")
    with caplog.at_level("WARNING", logger="repro.persist"):
        report = read_jsonl_report(target)
    assert report.records == [{"a": 1}, {"b": 2}]
    assert report.skipped_interior == 1
    assert not report.torn_tail
    assert not report.clean
    assert any("corruption" in r.getMessage() for r in caplog.records)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def _ops_after(schedule, tmp_path, name="a.jsonl"):
    fs = FaultyFS(schedule=schedule)
    with use_fs(fs):
        for i in range(6):
            try:
                atomic_append_jsonl(tmp_path / name, {"i": i})
            except (OSError, PersistError):
                pass
    return fs


def test_spec_nth_counts_matching_ops_only(tmp_path):
    spec = FaultSpec(kind="eio", op="fsync", nth=3)
    schedule = FaultSchedule(specs=[spec])
    _ops_after(schedule, tmp_path)
    injected = schedule.injected_summary()
    assert [e["kind"] for e in injected] == ["eio"]
    assert injected[0]["op"] == "fsync"


def test_spec_once_retires_after_first_fire(tmp_path):
    always = FaultSpec(kind="eio", op="fsync", once=False)
    one_shot = FaultSpec(kind="eio", op="fsync", once=True)
    assert len(_ops_after(FaultSchedule(specs=[always]),
                          tmp_path).schedule.injected) == 6
    assert len(_ops_after(FaultSchedule(specs=[one_shot]),
                          tmp_path, "b.jsonl").schedule.injected) == 1


def test_rate_faults_replay_from_the_seed(tmp_path):
    def run(seed, name):
        schedule = FaultSchedule(rates={"eio": 0.4}, seed=seed)
        _ops_after(schedule, tmp_path, name)
        return [
            (e["kind"], e["index"], e["op"])
            for e in schedule.injected_summary()
        ]

    first = run(7, "a.jsonl")
    again = run(7, "b.jsonl")
    other = run(8, "c.jsonl")
    assert first == again
    assert first  # 0.4 over ~18 ops: statistically certain to fire
    assert first != other


def test_schedule_round_trips_through_json(tmp_path):
    schedule = FaultSchedule(
        specs=[FaultSpec(kind="enospc", op="write", path_substring="x",
                         nth=2, once=False)],
        rates={"eio": 0.1},
        rate_paths=("status",),
        seed=9,
    )
    plan_path = tmp_path / "plan.json"
    atomic_write_json(plan_path, schedule.to_jsonable())
    loaded = FaultSchedule.load(plan_path)
    assert loaded.to_jsonable() == schedule.to_jsonable()


def test_schedule_validation():
    with pytest.raises(ConfigError):
        FaultSpec(kind="lightning")
    with pytest.raises(ConfigError):
        FaultSchedule(rates={"eio": 1.5})
    with pytest.raises(ConfigError):
        FaultSchedule(rates={"eio": 0.6, "enospc": 0.6})
    with pytest.raises(ConfigError):
        FaultSchedule.load("/nonexistent/plan.json")


def test_faulty_fs_rejects_specs_and_schedule_together():
    with pytest.raises(ValueError):
        with faulty_fs(FaultSpec(kind="eio"), schedule=FaultSchedule()):
            pass


# ---------------------------------------------------------------------------
# JSON write atomicity under injected faults
# ---------------------------------------------------------------------------

def test_failed_json_write_leaves_previous_content(tmp_path):
    target = tmp_path / "state.json"
    atomic_write_json(target, {"generation": 1})
    spec = FaultSpec(kind="enospc", op="write")
    with faulty_fs(spec):
        with pytest.raises(PersistError):
            atomic_write_json(target, {"generation": 2})
    assert json.loads(target.read_text(encoding="utf-8")) == {"generation": 1}
    # No orphaned temp file survives the failed attempt either.
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
