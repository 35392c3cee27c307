"""Flight-trace analyzer: wavefront, stalls, link matrix, JSON artifact."""

from __future__ import annotations

import json

from repro.obs.analyze import analyze_events, analyze_jsonl, render_analysis
from repro.obs.events import TraceEvent


def _ev(ts, kind, node=None, **detail):
    return TraceEvent(ts=ts, kind=kind, node=node, detail=detail)


def test_analysis_of_a_real_run(flight_run):
    run = flight_run(protocol="lr-seluge", receivers=3, loss=0.2)
    analysis = analyze_events(run.log)
    assert analysis["type"] == "flight_analysis"
    assert analysis["nodes"] == 4
    assert analysis["completed"] == 3
    (hop1,) = analysis["wavefront"]
    assert hop1["hop"] == 1 and hop1["completed"] == hop1["nodes"] == 3
    assert hop1["t_first"] <= hop1["t_median"] <= hop1["t_last"]
    assert analysis["links"]
    for row in analysis["links"]:
        assert 0.0 <= row["loss_rate"] <= 1.0
        assert row["rx"] + row["lost"] > 0
    assert any(row["lost"] > 0 for row in analysis["links"])
    assert not analysis["stalls"]["incomplete_nodes"]


def test_stall_detection_and_stuck_nodes():
    events = [
        _ev(0.0, "flight_topology", None, base=0, hops={"0": 0, "1": 1, "2": 1}),
        _ev(1.0, "unit_complete", 1, unit=0),
        _ev(2.0, "unit_complete", 1, unit=1),
        _ev(3.0, "unit_complete", 1, unit=2),
        # 97-second gap against a ~1s median page cadence: a stall.
        _ev(100.0, "unit_complete", 1, unit=3),
        _ev(101.0, "node_complete", 1, total=4),
        # node 2 never completes and stops making progress at t=2.
        _ev(2.0, "unit_complete", 2, unit=0),
    ]
    analysis = analyze_events(events)
    (stall,) = analysis["stalls"]["events"]
    assert stall["node"] == 1 and stall["before_unit"] == 3
    assert stall["gap_s"] == 97.0
    (stuck,) = analysis["stalls"]["incomplete_nodes"]
    assert stuck["node"] == 2
    assert stuck["units_complete"] == 1
    assert stuck["stuck_for_s"] == 99.0


def test_unknown_hops_bucket_separately():
    events = [
        _ev(0.0, "flight_topology", None, base=0, hops={"0": 0, "1": 1}),
        _ev(1.0, "node_complete", 1, total=1),
        _ev(2.0, "node_complete", 5, total=1),  # not in the hop map
    ]
    analysis = analyze_events(events)
    hops = {w["hop"]: w for w in analysis["wavefront"]}
    assert hops[1]["completed"] == 1
    assert hops[None]["completed"] == 1


def test_analyze_jsonl_writes_the_artifact(flight_run, tmp_path):
    run = flight_run(protocol="lr-seluge", receivers=2)
    trace_path = tmp_path / "run.trace.jsonl"
    out_path = tmp_path / "analysis.json"
    run.log.write_jsonl(trace_path)
    analysis = analyze_jsonl(trace_path, out=out_path)
    assert analysis["trace_file"] == str(trace_path)
    persisted = json.loads(out_path.read_text(encoding="utf-8"))
    assert persisted == analysis


def test_render_analysis_is_human_readable(flight_run):
    run = flight_run(protocol="lr-seluge", receivers=2, loss=0.2)
    text = render_analysis(analyze_events(run.log))
    assert "completion wavefront" in text
    assert "per-link delivery matrix" in text
    assert "nodes:      3 (2 completed" in text
