"""Report renderings and the CI perf-smoke entry point."""

import json

import pytest

from repro.obs.events import EventLog
from repro.obs.manifest import RunManifest
from repro.obs.report import (
    bench_compare,
    diff_report,
    manifest_summary,
    run_perf_smoke,
    trace_summary,
)


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


def test_manifest_summary_includes_profile_table():
    profile = {"handlers": [{"name": "radio.Radio._finish", "calls": 10,
                             "total_s": 0.01, "mean_us": 1000.0,
                             "max_us": 2000.0}]}
    text = manifest_summary(_manifest(profile=profile))
    assert "event-loop profile" in text
    assert "radio.Radio._finish" in text


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


def test_run_perf_smoke_writes_all_artifacts(tmp_path):
    bench_path = tmp_path / "BENCH_sim_core.json"
    manifest_path = tmp_path / "perf.manifest.json"
    trace_path = tmp_path / "perf.trace.jsonl"
    chrome_path = tmp_path / "perf.chrome.json"
    bench, report = run_perf_smoke(
        bench_path, manifest_out=manifest_path, trace_out=trace_path,
        chrome_out=chrome_path, seed=1, receivers=2, image_kib=4,
    )
    assert bench["name"] == "sim_core_perf_smoke"
    assert bench["completed"] is True
    assert bench["events"] > 0
    assert bench["events_per_s"] > 0
    assert len(bench["top_handlers"]) >= 1
    assert "event-loop profile" in report

    written = json.loads(bench_path.read_text())
    assert written["config"]["receivers"] == 2

    manifest = RunManifest.load(manifest_path)
    assert manifest.tool == "repro.obs.perf-smoke"
    assert manifest.metrics["completed"] == 1.0
    assert manifest.profile is not None
    assert manifest.trace_file == str(trace_path)

    from repro.obs.events import load_jsonl
    header, events = load_jsonl(trace_path)
    assert header["events"] == len(events) > 0
    chrome = json.loads(chrome_path.read_text())
    assert any(e["ph"] == "X" for e in chrome["traceEvents"])


def test_trace_summary_reports_flushed_open_spans(tmp_path):
    log = EventLog()
    log.begin(1.0, "span_page", node=1, key=0)
    log.flush_open_spans(5.0)
    path = tmp_path / "run.trace.jsonl"
    log.write_jsonl(path)
    text = trace_summary(path)
    assert "1 open spans flushed" in text


def test_run_perf_smoke_repeats_report_the_median(tmp_path):
    bench_path = tmp_path / "BENCH.json"
    bench, _report = run_perf_smoke(bench_path, seed=1, receivers=2,
                                    image_kib=2, repeats=3)
    assert bench["repeats"] == 3
    assert len(bench["wall_samples_s"]) == 3
    # wall_samples_s is rounded for the artifact; events_per_s comes from
    # the unrounded median, so compare within rounding noise.
    median = sorted(bench["wall_samples_s"])[1]
    assert bench["events_per_s"] == pytest.approx(
        bench["events"] / median, rel=1e-3)


def test_bench_compare_gates_on_regression():
    base = {"events_per_s": 1000.0, "events": 500, "git_rev": "aaa"}
    same = {"events_per_s": 990.0, "events": 500, "git_rev": "bbb"}
    ok, text = bench_compare(same, base)
    assert ok and "PASS" in text

    slow = {"events_per_s": 700.0, "events": 500}
    ok, text = bench_compare(slow, base)
    assert not ok and "FAIL" in text

    # Speedups never fail: the baseline is a floor, not a pin.
    fast = {"events_per_s": 5000.0, "events": 500}
    ok, _ = bench_compare(fast, base)
    assert ok

    # Tolerance is adjustable.
    ok, _ = bench_compare(slow, base, tolerance=0.5)
    assert ok


def test_run_perf_smoke_warmup_and_history(tmp_path):
    bench_path = tmp_path / "BENCH.json"
    history_path = tmp_path / "history.jsonl"
    bench, _report = run_perf_smoke(
        bench_path, seed=1, receivers=2, image_kib=2, warmup=1,
        history_out=history_path,
    )
    assert bench["warmup"] == 1

    from repro.obs.perf import config_key, load_history
    records = load_history(history_path)
    assert len(records) == 1
    assert records[0]["events_per_s"] == bench["events_per_s"]
    assert records[0]["config_key"] == config_key(bench["config"])

    with pytest.raises(ValueError):
        run_perf_smoke(bench_path, warmup=-1)
    with pytest.raises(ValueError):
        run_perf_smoke(bench_path, repeats=0)


def test_run_perf_smoke_grid_topology(tmp_path):
    bench_path = tmp_path / "BENCH_grid.json"
    bench, report = run_perf_smoke(
        bench_path, seed=1, image_kib=2, topology="grid:3x3:2",
    )
    assert bench["name"] == "sim_grid_perf_smoke"
    assert bench["config"]["topology"] == "grid:3x3:2"
    assert "receivers" not in bench["config"]
    assert bench["completed"] is True
    assert "event-loop profile" in report


def test_run_perf_smoke_excludes_first_call_outliers(tmp_path):
    """Each handler's first call per repeat lands in the warmup bucket, so
    max_us reflects steady-state cost, not one-time lazy init."""
    bench, _report = run_perf_smoke(tmp_path / "BENCH.json", seed=1,
                                    receivers=2, image_kib=2)
    for handler in bench["top_handlers"]:
        # With warmup_calls=1 the steady-state call count excludes one call
        # per handler; a handler observed only once contributes no stats.
        assert handler["calls"] >= 1
        assert handler["max_us"] >= handler["mean_us"] > 0


def test_bench_compare_notes_workload_changes_and_empty_baselines(tmp_path):
    base = {"events_per_s": 1000.0, "events": 500}
    changed = {"events_per_s": 900.0, "events": 800}
    ok, text = bench_compare(changed, base)
    assert ok and "workload changed" in text

    ok, text = bench_compare(changed, {"events_per_s": 0.0})
    assert ok and "skipping gate" in text

    # File inputs round-trip like dicts do.
    cur_path = tmp_path / "cur.json"
    base_path = tmp_path / "base.json"
    cur_path.write_text(json.dumps(changed))
    base_path.write_text(json.dumps(base))
    ok, text = bench_compare(cur_path, base_path)
    assert ok and "ratio:" in text


def _bench_with_handlers(eps, handlers, events=500):
    return {
        "events_per_s": eps,
        "events": events,
        "top_handlers": [
            {"name": name, "calls": 10, "total_s": mean_us * 10 / 1e6,
             "mean_us": mean_us, "max_us": mean_us * 2}
            for name, mean_us in handlers
        ],
    }


def test_bench_compare_per_handler_warn_and_fail():
    base = _bench_with_handlers(1000.0, [("radio", 100.0), ("timer", 50.0)])

    warned = _bench_with_handlers(1000.0, [("radio", 140.0), ("timer", 50.0)])
    ok, text = bench_compare(warned, base)
    assert ok
    assert "WARN handler radio" in text
    assert "FAIL handler" not in text

    # A handler blowing through the fail limit sinks the gate even when the
    # aggregate throughput still passes.
    regressed = _bench_with_handlers(1000.0, [("radio", 200.0),
                                              ("timer", 50.0)])
    ok, text = bench_compare(regressed, base)
    assert not ok
    assert "FAIL handler radio" in text
    assert "+100%" in text

    # Speedups are never flagged.
    faster = _bench_with_handlers(1000.0, [("radio", 20.0), ("timer", 50.0)])
    ok, text = bench_compare(faster, base)
    assert ok and "handler" not in text.replace("per-handler", "")


def test_bench_compare_handler_gate_skipped_on_workload_change():
    base = _bench_with_handlers(1000.0, [("radio", 100.0)], events=500)
    changed = _bench_with_handlers(1000.0, [("radio", 500.0)], events=900)
    ok, text = bench_compare(changed, base)
    assert ok  # no per-handler comparison across different workloads
    assert "per-handler gate skipped (workload changed)" in text


def test_bench_compare_handler_limits_adjustable():
    base = _bench_with_handlers(1000.0, [("radio", 100.0)])
    hot = _bench_with_handlers(1000.0, [("radio", 160.0)])
    ok, text = bench_compare(hot, base, handler_fail=0.65)
    assert ok and "WARN handler radio" in text  # 60% > warn, < raised fail
    ok, text = bench_compare(hot, base, handler_warn=0.7, handler_fail=0.8)
    assert ok and "WARN handler" not in text
    ok, _text = bench_compare(hot, base, handler_fail=0.5)
    assert not ok


def test_run_perf_smoke_degrades_when_history_disk_fails(tmp_path):
    from repro.chaos.schedule import FaultSpec
    from repro.chaos.testing import faulty_fs

    bench_path = tmp_path / "BENCH.json"
    history_path = tmp_path / "history.jsonl"
    spec = FaultSpec(kind="enospc", path_substring="history.jsonl",
                     once=False)
    with faulty_fs(spec):
        bench, _report = run_perf_smoke(bench_path, seed=1, receivers=2,
                                        image_kib=2,
                                        history_out=history_path)
    # The measurement is intact and on disk; only the trajectory append is
    # noted as degraded.
    assert "no space left" in bench["history_degraded"]
    assert not history_path.exists()
    written = json.loads(bench_path.read_text())
    assert written["history_degraded"] == bench["history_degraded"]
    assert written["events"] > 0


def test_run_perf_smoke_appends_history_when_disk_is_healthy(tmp_path):
    bench_path = tmp_path / "BENCH.json"
    history_path = tmp_path / "history.jsonl"
    bench, _report = run_perf_smoke(bench_path, seed=1, receivers=2,
                                    image_kib=2, history_out=history_path)
    assert "history_degraded" not in bench
    from repro.obs.perf import load_history
    assert len(load_history(history_path)) == 1
