"""Report renderings and the perfbench gate."""

import json
from pathlib import Path

import pytest

from repro.obs.events import EventLog
from repro.obs.manifest import RunManifest
from repro.obs.report import (
    TOLERANCE,
    bench_compare,
    diff_report,
    load_perf_baseline,
    manifest_summary,
    read_perf_output,
    trace_summary,
)

REPO = Path(__file__).resolve().parents[2]


def _manifest(**overrides):
    base = dict(
        tool="test.tool",
        seed=3,
        config={"protocol": "lr-seluge", "k": 8},
        metrics={"latency_s": 40.0, "completed": 1.0},
        timings={"wall_s": 0.25},
        counters={"tx_data": 120, "mystery_counter": 2},
    )
    base.update(overrides)
    return RunManifest(**base)


def test_manifest_summary_annotates_counters_from_the_catalogue():
    text = manifest_summary(_manifest())
    assert "tool:        test.tool" in text
    assert "protocol=lr-seluge" in text
    assert "latency_s=40" in text
    # Known counters carry unit + help; orphans are called out.
    assert "data packets transmitted" in text
    assert "(not in catalogue)" in text


def test_diff_report_no_differences():
    text = diff_report(_manifest(), _manifest(), "base", "cand")
    assert "no differences" in text
    assert "base: test.tool" in text


def test_diff_report_renders_deltas():
    a = _manifest()
    b = _manifest(counters={"tx_data": 100, "mystery_counter": 2})
    text = diff_report(a, b)
    assert "1 differing quantities" in text
    assert "counters.tx_data" in text
    assert "-20" in text


def test_trace_summary_counts_kinds_and_spans(tmp_path):
    log = EventLog()
    log.instant(1.0, "tx_data", node=1)
    log.instant(2.0, "tx_data", node=2)
    log.begin(0.0, "span_page", node=1, key=0)
    log.end(4.0, "span_page", node=1, key=0)
    path = tmp_path / "run.trace.jsonl"
    log.write_jsonl(path)
    text = trace_summary(path)
    assert "3 events" in text
    assert "tx_data" in text
    assert "span_page" in text
    assert "4.0" in text  # the span's mean duration


def test_trace_summary_reports_flushed_open_spans(tmp_path):
    log = EventLog()
    log.begin(1.0, "span_page", node=1, key=0)
    log.flush_open_spans(5.0)
    path = tmp_path / "run.trace.jsonl"
    log.write_jsonl(path)
    text = trace_summary(path)
    assert "1 open spans flushed" in text


BASELINE = {
    "onehop-decode": {"digest": "d-one", "wall_s": 2.0,
                      "events_per_s": 20000.0},
    "grid-contention": {"digest": "d-grid", "wall_s": 3.0,
                        "events_per_s": 17000.0},
}


def _runs(tmp_path, perf_output, **onehop):
    """One synthetic run per baseline workload, at the baseline figures,
    with ``onehop`` overriding the onehop-decode run."""
    paths = []
    for workload, base in BASELINE.items():
        fields = dict(workload=workload, wall_s=base["wall_s"],
                      events_per_s=base["events_per_s"],
                      digest=base["digest"])
        if workload == "onehop-decode":
            fields.update(onehop)
        paths.append(perf_output(tmp_path / f"{workload}.perf.out", **fields))
    return [read_perf_output(path) for path in paths]


def test_read_perf_output_takes_the_last_two_lines(tmp_path, perf_output):
    run = read_perf_output(perf_output(tmp_path / "a.out", wall_s=2.5,
                                       events_per_s=18000.0, digest="x"))
    assert run["workload"] == "onehop-decode"
    assert run["digest"] == "x"
    assert run["correct"] is True and run["failed"] == 0
    assert run["wall_s"] == 2.5 and run["events_per_s"] == 18000.0


def test_bench_compare_gates_on_regression(tmp_path, perf_output):
    ok, text = bench_compare(BASELINE, _runs(tmp_path, perf_output))
    assert ok and text.endswith("PASS")

    # Speed-ups never fail: the baseline is a floor, not a pin.
    ok, _ = bench_compare(BASELINE, _runs(tmp_path, perf_output,
                                          wall_s=0.5, events_per_s=90000.0))
    assert ok

    # 26 % slower in either metric fails; 24 % does not.
    ok, text = bench_compare(BASELINE, _runs(tmp_path, perf_output,
                                             wall_s=2.0 * 1.26))
    assert not ok and "wall_s above baseline" in text and "FAIL" in text
    ok, text = bench_compare(BASELINE, _runs(tmp_path, perf_output,
                                             events_per_s=20000.0 * 0.74))
    assert not ok and "events_per_s below baseline" in text
    ok, _ = bench_compare(BASELINE, _runs(tmp_path, perf_output,
                                          wall_s=2.0 * 1.24,
                                          events_per_s=20000.0 * 0.76))
    assert ok


def test_bench_compare_fails_incorrect_runs(tmp_path, perf_output):
    ok, text = bench_compare(BASELINE, _runs(tmp_path, perf_output,
                                             correct=False))
    assert not ok and "not correct" in text
    ok, _ = bench_compare(BASELINE, _runs(tmp_path, perf_output, failed=1))
    assert not ok


def test_bench_compare_notes_a_changed_digest(tmp_path, perf_output):
    ok, text = bench_compare(BASELINE, _runs(tmp_path, perf_output,
                                             digest="d-new"))
    assert ok
    assert "digest d-one -> d-new" in text


def test_bench_compare_rejects_unknown_and_missing_workloads(tmp_path,
                                                             perf_output):
    runs = _runs(tmp_path, perf_output)
    with pytest.raises(ValueError, match="no run for baseline workload"):
        bench_compare(BASELINE, runs[:1])
    stray = read_perf_output(perf_output(tmp_path / "x.out",
                                         workload="grid-recorded"))
    with pytest.raises(ValueError, match="not in the baseline"):
        bench_compare(BASELINE, runs + [stray])


def test_perf_inputs_reject_malformed_files(tmp_path, perf_output):
    one_line = tmp_path / "one.out"
    one_line.write_text(json.dumps({"correct": True}) + "\n")
    good = Path(perf_output(tmp_path / "ok.out")).read_text()
    truncated = tmp_path / "trunc.out"
    truncated.write_text(good[:-20])  # cuts into the result line
    for bad in (one_line, truncated):
        with pytest.raises(ValueError, match="malformed perfbench output"):
            read_perf_output(bad)
    with pytest.raises(FileNotFoundError):
        read_perf_output(tmp_path / "absent.out")

    for payload in ([1, 2], {}, {"onehop-decode": {"digest": "d",
                                                   "wall_s": 0.0,
                                                   "events_per_s": 1.0}}):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="malformed baseline"):
            load_perf_baseline(path)


def test_tolerance_equals_the_benchmark_bounds():
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert TOLERANCE == bounds["wall_s"] == bounds["events_per_s"]


def test_committed_baseline_covers_every_benchmark_workload():
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    baseline = load_perf_baseline(REPO / "BENCH_perf.json")
    assert sorted(baseline) == sorted(w["name"] for w in declared["workloads"])
