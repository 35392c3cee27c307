"""Exit-code and wiring tests for the ``python -m repro.chaos`` CLI."""

import json

from repro.chaos.__main__ import main


def test_explore_samples_and_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main([
        "explore", "--work-dir", str(tmp_path / "work"),
        "--seeds", "1", "--no-failing-cell",
        "--modes", "before", "--stride", "25",
        "--report", str(report_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all recovered" in out
    data = json.loads(report_path.read_text(encoding="utf-8"))
    assert data["ok"] is True
    assert data["points_checked"] >= 1


def test_inject_survivable_fault_exits_zero(tmp_path, capsys):
    rc = main([
        "inject", "--work-dir", str(tmp_path / "work"),
        "--seeds", "1", "--no-failing-cell",
        "--fault", "enospc::results.jsonl",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "campaign survived" in out
    assert "enospc" in out
    # The faulted cell is quarantined and degrades to a nan row.
    csv = (tmp_path / "work" / "aggregate.csv").read_text(encoding="utf-8")
    assert ",NO,nan,nan\n" in csv


def test_inject_fatal_fault_exits_one(tmp_path, capsys):
    rc = main([
        "inject", "--work-dir", str(tmp_path / "work"),
        "--seeds", "1", "--no-failing-cell",
        "--fault", "eio:fsync:checkpoint.jsonl",
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "campaign died" in out


def test_inject_rate_schedule_is_reported(tmp_path, capsys):
    main([
        "inject", "--work-dir", str(tmp_path / "work"),
        "--seeds", "1", "--no-failing-cell",
        "--rate", "eio=0.0",  # rate layer armed, but never fires
    ])
    out = capsys.readouterr().out
    assert "injected faults: none" in out
    assert "campaign survived" in out


def test_bad_inputs_exit_two(tmp_path, capsys):
    work = str(tmp_path / "work")
    assert main(["inject", "--work-dir", work, "--fault", "meteor"]) == 2
    assert main(["inject", "--work-dir", work, "--fault", "eio:a:b:c:d"]) == 2
    assert main(["inject", "--work-dir", work, "--rate", "eio=lots"]) == 2
    assert main(["inject", "--work-dir", work,
                 "--schedule", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()
