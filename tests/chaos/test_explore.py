"""Crash-point exploration: coverage, recovery invariants, SIGKILL fidelity."""

import json

import pytest

from repro.chaos import ChaosWorkload, enumerate_ops, explore_crash_points
from repro.chaos.explore import _check_recovery, _journal_snapshot
from repro.chaos.workload import _FAILING_LABEL


# One tiny cell per protocol; no failing cell in the micro workload so the
# per-test sweeps stay fast.  The full workload (both seeds + quarantine
# cell) runs in CI's chaos-smoke job and in the nightly full sweep.
MICRO = ChaosWorkload(seeds=(1,), include_failing_cell=False)


def test_workload_is_deterministic(tmp_path):
    first = MICRO.run(tmp_path / "one")
    second = MICRO.run(tmp_path / "two")
    assert first == second
    assert b"deluge:seed=1" in first and b"lr-seluge:seed=1" in first


def test_enumerate_ops_covers_every_journal(tmp_path):
    ops, csv = enumerate_ops(MICRO, tmp_path / "base")
    paths = " ".join(rec.path for rec in ops)
    assert "checkpoint.jsonl" in paths
    assert "quarantine.jsonl" in paths
    assert "results.jsonl" in paths
    assert "aggregate.csv" in paths
    assert csv.startswith(b"label,")


def test_full_sweep_recovers_at_every_point(tmp_path):
    report = explore_crash_points(MICRO, tmp_path, modes=("before",))
    assert report.points, "sweep explored nothing"
    assert len(report.points) == report.total_ops
    assert report.ok, report.summary()
    # Passing point directories are pruned; only the baseline remains.
    assert report.kept_dirs == []
    assert [p.name for p in tmp_path.iterdir()] == ["baseline"]


def test_torn_sweep_recovers_at_every_write(tmp_path):
    report = explore_crash_points(MICRO, tmp_path, modes=("torn",))
    assert report.points, "no write ops explored"
    assert all(p.op == "write" for p in report.points)
    assert report.ok, report.summary()


def test_quarantine_survives_crash_points(tmp_path):
    # The full workload's scripted-failure cell exercises the quarantine
    # journal; sample the op space rather than sweep it to stay quick.
    workload = ChaosWorkload(seeds=(1,))
    report = explore_crash_points(workload, tmp_path, modes=("before",),
                                  stride=7)
    assert report.points
    assert report.ok, report.summary()
    baseline_csv = (tmp_path / "baseline" / "aggregate.csv").read_text()
    assert _FAILING_LABEL in baseline_csv


def test_sigkill_point_dies_by_signal_and_recovers(tmp_path):
    # One real SIGKILL spot check: full process-death fidelity for the
    # priciest persist op (a mid-campaign checkpoint append write).
    ops, _csv = enumerate_ops(MICRO, tmp_path / "base")
    target = next(
        rec.index for rec in ops
        if rec.op == "write" and rec.path.endswith("checkpoint.jsonl")
    )
    report = explore_crash_points(
        MICRO, tmp_path / "sweep", modes=("before",),
        crash_action="sigkill", indices=[target],
    )
    assert len(report.points) == 1
    assert report.points[0].crashed
    assert report.ok, report.summary()


def test_detects_a_corrupted_recovery(tmp_path):
    # The explorer must be falsifiable: hand it a directory whose journal
    # gained an interior corruption and whose CSV drifted, and every
    # violated invariant must be named.
    root = tmp_path / "run"
    baseline_csv = MICRO.run(root)
    pre = _journal_snapshot(MICRO, root)
    ckpt = MICRO.checkpoint_dir(root) / "checkpoint.jsonl"
    lines = ckpt.read_text(encoding="utf-8").splitlines(True)
    lines.insert(1, "garbage not json\n")
    ckpt.write_text("".join(lines), encoding="utf-8")
    MICRO.csv_path(root).write_text("label\nwrong\n", encoding="utf-8")

    problems = _check_recovery(MICRO, root, baseline_csv, pre)
    text = " | ".join(problems)
    assert "differs from uninterrupted baseline" in text
    assert "interior line" in text


def test_report_serialises(tmp_path):
    report = explore_crash_points(MICRO, tmp_path, modes=("before",),
                                  stride=50)
    data = report.to_jsonable()
    assert data["schema_version"] == 1
    assert data["points_checked"] == len(report.points)
    assert data["ok"] is True
    json.dumps(data)  # must be JSON-clean for the CI artifact


def test_explore_rejects_bad_arguments(tmp_path):
    with pytest.raises(ValueError):
        explore_crash_points(MICRO, tmp_path, modes=("sideways",))
    with pytest.raises(ValueError):
        explore_crash_points(MICRO, tmp_path, crash_action="meteor")
    with pytest.raises(ValueError):
        explore_crash_points(MICRO, tmp_path, stride=0)
