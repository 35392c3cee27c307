"""Causal tracer: DAG reconstruction, critical paths, attribution, CLI."""

from __future__ import annotations

import json

import pytest

from repro.obs.__main__ import main
from repro.obs.causal import (
    WAIT_CATEGORIES,
    analyze_causal_jsonl,
    attribute_run,
    build_dag,
    comparison_report,
    critical_path,
    render_attribution,
    render_why,
)
from repro.obs.events import EventLog, TraceEvent
from repro.obs.invariants import check_events

from tests.obs.test_flight import FLIGHT_KINDS

RECORDER_KINDS = FLIGHT_KINDS | {"causal_decode"}


def _ev(ts, kind, node=None, **detail):
    return TraceEvent(ts=ts, kind=kind, node=node, detail=detail)


def _meta(node, base=False):
    return _ev(0.0, "flight_meta", node=node, protocol="deluge", base=base,
               total_units=1, secured=False, profile="arq-union")


def _frame(ts, node, seq, fkind, enq, end, rx=(), **rest):
    """Frame ``(node, seq)``: on air ``ts``..``end``, delivered to ``rx``."""
    # detail "kind" (the frame kind) collides with the event-kind kwarg.
    detail = {"frame": (node, seq), "kind": fkind, "enq": enq, "end": end,
              "rx": list(rx), "lost": [], **rest}
    return TraceEvent(ts=ts, kind="frame", node=node, detail=detail)


# ---------------------------------------------------------------------------
# Live traces: every protocol's causal stream is well-formed end to end
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["deluge", "seluge", "lr-seluge",
                                      "rateless"])
def test_causal_run_satisfies_causal_invariants(causal_run, protocol):
    run = causal_run(protocol=protocol, receivers=3, loss=0.15)
    assert run.result.completed
    report = check_events(run.log)
    assert report.ok, report.summary()
    assert report.checked["causal_monotone"] > 0


@pytest.mark.parametrize("protocol", ["deluge", "seluge", "lr-seluge"])
def test_full_attribution_on_lossy_one_hop(causal_run, protocol):
    """Critical paths reach the base root: >= 95% latency attributed."""
    run = causal_run(protocol=protocol, receivers=4, loss=0.2)
    assert run.result.completed
    analysis = attribute_run(run.log)
    assert analysis["completed"] == 4
    assert analysis["min_attribution"] >= 0.95
    # every second between root and completion lands in a named category
    for node in analysis["nodes"]:
        assert node["completed"]
        assert set(node["categories"]) <= set(WAIT_CATEGORIES)


def test_critical_path_edges_telescope(causal_run):
    """Edges partition [root, completion]: contiguous and monotone."""
    run = causal_run(protocol="lr-seluge", receivers=3, loss=0.2)
    dag = build_dag(run.log)
    node = dag.receivers()[0]
    cp = critical_path(dag, node)
    assert cp is not None
    assert cp.root_ts <= cp.t_end
    prev_end = cp.root_ts
    for edge in cp.edges:
        assert edge.t_from == pytest.approx(prev_end)
        assert edge.t_to >= edge.t_from
        assert edge.category in WAIT_CATEGORIES
        prev_end = edge.t_to
    assert prev_end == pytest.approx(cp.t_end)
    assert sum(cp.categories().values()) == pytest.approx(cp.attributed_s)


def test_causal_recorder_does_not_perturb_the_run(causal_run, flight_run):
    """With the recorders detached the event stream and counters are
    byte-identical: the recorders only ever *add* their own kinds."""
    from repro.experiments.scenarios import OneHopScenario, run_scenario
    from repro.sim.engine import Simulator
    from repro.sim.trace import TraceRecorder

    def run_plain():
        sim = Simulator()
        log = EventLog()
        trace = TraceRecorder(sink=log)
        result = run_scenario(OneHopScenario(
            protocol="lr-seluge", loss_rate=0.2, receivers=3,
            image_size=3000, k=8, n=12, seed=9,
        ), sim=sim, trace=trace)
        log.flush_open_spans(sim.now)
        return result, log, trace

    plain_result, plain_log, plain_trace = run_plain()
    causal = causal_run(protocol="lr-seluge", receivers=3, loss=0.2, seed=9)

    assert causal.result.latency == plain_result.latency
    assert causal.trace.counters == plain_trace.counters
    plain_kinds = {e.kind for e in plain_log.events}
    assert not plain_kinds & RECORDER_KINDS
    unrecorded = [e.to_dict() for e in causal.log.events
                  if e.kind not in RECORDER_KINDS]
    assert unrecorded == [e.to_dict() for e in plain_log.events]
    assert any(e.kind == "causal_decode" for e in causal.log.events)


def test_grid_smoke_direction_matches_paper(causal_run):
    """On the lossy grid, LR-Seluge's critical paths wait less on
    retransmission than Deluge's — the paper's loss-resilience claim."""
    waits = {}
    for protocol in ("deluge", "lr-seluge"):
        run = causal_run(protocol=protocol, topology="grid:4x4:4",
                         image_size=8192, k=16, n=24, seed=3,
                         max_time=12000.0)
        assert run.result.completed
        analysis = attribute_run(run.log)
        assert analysis["min_attribution"] >= 0.95
        waits[protocol] = analysis["categories"]["retransmission"]
    assert waits["lr-seluge"] < waits["deluge"]


# ---------------------------------------------------------------------------
# Synthetic DAGs: the walk and the invariants, exactly
# ---------------------------------------------------------------------------

def _tiny_trace():
    """Base 0 advertises, node 1 requests, base serves, node 1 decodes."""
    return [
        _meta(0, base=True),
        _meta(1),
        # base ADV (0, 0): enqueued 1.0, on air 1.2, delivered 1.3
        _frame(1.2, 0, 0, "adv", 1.0, 1.3, rx=[1],
               cause={"trigger": "trickle", "uc": 1}),
        # node 1 SNACK (1, 0): armed by the ADV at 1.3, fires 2.3, airs 2.4
        _frame(2.4, 1, 0, "snack", 2.3, 2.5, rx=[0],
               cause={"trigger": "request", "reason": "first_request",
                      "armed": 1.3, "parent": (0, 0)}),
        # base DATA (0, 1): armed by the SNACK at 2.5, enqueued 3.0, airs 3.1
        _frame(3.1, 0, 1, "data", 3.0, 3.4, rx=[1], unit=0,
               cause={"trigger": "serve", "unit": 0, "parent": (1, 0),
                      "armed": 2.5}),
        _ev(3.4, "causal_decode", node=1, unit=0, frame=(0, 1), need=8,
            of=8),
        _ev(3.4, "unit_complete", node=1, unit=0),
        _ev(3.4, "node_complete", node=1, total=1),
    ]


def test_synthetic_walk_categories_and_attribution():
    dag = build_dag(_tiny_trace())
    cp = critical_path(dag, 1)
    assert cp is not None
    assert not cp.truncated
    assert cp.root_ts == 0.0           # rooted at the base advertisement
    assert cp.attribution == 1.0
    cats = cp.categories()
    assert cats["trickle"] == pytest.approx(1.0)         # 0.0 -> adv enq
    assert cats["request_backoff"] == pytest.approx(1.0)  # armed -> snack enq
    assert cats["serve_pacing"] == pytest.approx(0.5)     # snack rx -> data enq
    assert cats["airtime"] == pytest.approx(0.1 + 0.1 + 0.3)
    assert cats["mac"] == pytest.approx(0.2 + 0.1 + 0.1)
    assert cats["retransmission"] == 0.0
    assert cp.per_unit()[0]  # every edge explains page 0


def test_frame_ids_round_trip_through_jsonl(tmp_path):
    """A written and reloaded trace (ids and parents become JSON lists)
    rebuilds the same DAG and critical path as the in-memory one."""
    from repro.obs.events import load_jsonl

    _header, loaded = load_jsonl(_write_trace(tmp_path, _tiny_trace()))
    assert loaded[2].detail["frame"] == [0, 0]
    fresh, reread = build_dag(_tiny_trace()), build_dag(loaded)
    assert set(reread.tx) == set(fresh.tx) == {(0, 0), (1, 0), (0, 1)}
    assert reread.rx == fresh.rx
    assert reread.decodes == fresh.decodes
    assert critical_path(reread, 1) == critical_path(fresh, 1)


def test_synthetic_trace_passes_causal_invariants():
    report = check_events(_tiny_trace())
    assert report.ok, report.summary()
    # three caused frames, their three deliveries, one parented decode
    assert report.checked["causal_monotone"] == 7


def test_delivery_before_air_violates_monotonicity():
    events = _tiny_trace()
    # frame (0, 1) airs at 3.1 but its record claims delivery at 3.0
    events[4].detail["end"] = 3.0
    report = check_events(events)
    assert any(v.invariant == "causal_monotone" for v in report.violations)


def test_decode_parented_on_undelivered_frame_violates_monotonicity():
    events = _tiny_trace()
    events[4].detail["rx"] = []
    report = check_events(events)
    kinds = {v.invariant for v in report.violations}
    assert "causal_monotone" in kinds


def test_cause_parent_after_tx_violates_monotonicity():
    events = _tiny_trace()
    # SNACK claims frame (0, 1) (airs at 3.1, *after* this tx) caused it
    events[3] = _frame(2.4, 1, 0, "snack", 2.3, 2.5, rx=[0],
                       cause={"trigger": "request",
                              "reason": "first_request", "armed": 1.3,
                              "parent": (0, 1)})
    report = check_events(events)
    assert any(v.invariant == "causal_monotone" for v in report.violations)


def test_walk_truncates_on_mac_dropped_parent():
    """A retry parented on a frame that never aired roots early (no loop,
    no invented time) and is flagged truncated."""
    events = [
        _meta(1),
        # (1, 7) was MAC-dropped: no frame record
        _frame(5.0, 1, 10, "snack", 4.9, 5.05, rx=[0],
               cause={"trigger": "request", "reason": "retry", "armed": 4.0,
                      "parent": (1, 7)}),
        _frame(5.2, 0, 11, "data", 5.1, 5.3, rx=[1], unit=0,
               cause={"trigger": "serve", "unit": 0, "parent": (1, 10),
                      "armed": 5.05}),
        _ev(5.3, "causal_decode", node=1, unit=0, frame=(0, 11), need=8,
            of=8),
        _ev(5.3, "node_complete", node=1, total=1),
    ]
    dag = build_dag(events)
    cp = critical_path(dag, 1)
    assert cp is not None
    assert cp.truncated
    assert cp.root_ts == pytest.approx(4.0)  # the retry arm, not t=0
    assert cp.categories()["retransmission"] > 0


def test_attribute_run_reports_incomplete_nodes():
    events = _tiny_trace()
    events.append(_meta(2))
    analysis = attribute_run(events)
    assert analysis["completed"] == 1
    stuck = [n for n in analysis["nodes"] if n["node"] == 2]
    assert stuck == [{"node": 2, "completed": False}]
    assert "never completed: 2" in render_attribution(analysis)


# ---------------------------------------------------------------------------
# Reports and persistence
# ---------------------------------------------------------------------------

def test_analyze_causal_jsonl_persists_json(causal_run, tmp_path):
    run = causal_run(protocol="seluge", receivers=2)
    trace = tmp_path / "run.trace.jsonl"
    run.log.write_jsonl(trace)
    out = tmp_path / "causal.json"
    analysis = analyze_causal_jsonl(trace, out=out)
    assert analysis["type"] == "causal_analysis"
    assert analysis["protocol"] == "seluge"
    assert analysis["profile"] == "arq-union-auth"
    on_disk = json.loads(out.read_text(encoding="utf-8"))
    assert on_disk == analysis


def test_render_why_names_the_waits(causal_run):
    run = causal_run(protocol="lr-seluge", receivers=3, loss=0.2)
    dag = build_dag(run.log)
    node = dag.receivers()[-1]
    cp = critical_path(dag, node)
    text = render_why(dag, cp)
    assert f"node {node} completed at" in text
    assert "longest wait" in text
    assert "%" in text


def test_comparison_report_has_one_column_per_run(causal_run):
    analyses = [attribute_run(causal_run(protocol=p, receivers=2).log)
                for p in ("deluge", "lr-seluge")]
    table = comparison_report(analyses)
    assert "deluge" in table and "lr-seluge" in table
    assert "retransmission" in table or "request_backoff" in table


def test_chrome_trace_exports_causal_kinds(causal_run):
    """Frame records and decodes land on the Perfetto timeline, under the
    'frame' and 'causal' categories."""
    run = causal_run(protocol="deluge", receivers=2)
    doc = run.log.to_chrome_trace()
    by_cat = {}
    for e in doc["traceEvents"]:
        by_cat.setdefault(e.get("cat"), set()).add(e["name"])
    assert by_cat["causal"] == {"causal_decode"}
    assert by_cat["frame"] == {"frame"}
    frame = next(e for e in doc["traceEvents"] if e["name"] == "frame")
    assert {"frame", "rx", "lost", "cause"} <= set(frame["args"])
    json.dumps(doc)  # frame ids and loss pairs serialise


# ---------------------------------------------------------------------------
# CLI exit-code contract
# ---------------------------------------------------------------------------

def _write_trace(tmp_path, events, name="run.trace.jsonl"):
    log = EventLog()
    log.events.extend(events)
    path = tmp_path / name
    log.write_jsonl(path)
    return str(path)


def test_cli_critical_path_passes_gate(tmp_path, capsys):
    trace = _write_trace(tmp_path, _tiny_trace())
    out = tmp_path / "causal.json"
    assert main(["critical-path", trace, "--min-attribution", "0.95",
                 "--out", str(out)]) == 0
    assert "attribution" in capsys.readouterr().out
    assert json.loads(out.read_text(encoding="utf-8"))["completed"] == 1


def test_cli_critical_path_json_output(tmp_path, capsys):
    trace = _write_trace(tmp_path, _tiny_trace())
    assert main(["critical-path", trace, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "causal_analysis"


def test_cli_critical_path_gates_on_attribution_and_completion(tmp_path,
                                                               capsys):
    # no completed receivers -> exit 1
    empty = _write_trace(tmp_path, [_meta(0, base=True), _meta(1)],
                         name="empty.jsonl")
    assert main(["critical-path", empty]) == 1
    assert "no completed receivers" in capsys.readouterr().err
    # missing file -> exit 2
    assert main(["critical-path", str(tmp_path / "absent.jsonl")]) == 2


def test_cli_critical_path_compares_multiple_traces(tmp_path, capsys):
    a = _write_trace(tmp_path, _tiny_trace(), name="a.jsonl")
    b = _write_trace(tmp_path, _tiny_trace(), name="b.jsonl")
    out = tmp_path / "both.json"
    assert main(["critical-path", a, b, "--out", str(out)]) == 0
    assert "by protocol" in capsys.readouterr().out
    assert len(json.loads(out.read_text(encoding="utf-8"))) == 2


def test_cli_why_explains_a_node(tmp_path, capsys):
    trace = _write_trace(tmp_path, _tiny_trace())
    assert main(["why", trace, "--node", "1"]) == 0
    assert "node 1 completed at" in capsys.readouterr().out


def test_cli_why_rejects_unknown_node_and_non_causal_trace(tmp_path, capsys):
    trace = _write_trace(tmp_path, _tiny_trace())
    assert main(["why", trace, "--node", "42"]) == 2
    assert "does not appear" in capsys.readouterr().err
    plain = _write_trace(tmp_path, [
        _ev(1.0, "node_complete", node=1, total=1),
    ], name="plain.jsonl")
    assert main(["why", plain, "--node", "1"]) == 2
    assert "--causal-trace" in capsys.readouterr().err
    # a flight-only trace has frame records but no cause stamps
    flight_only = _write_trace(tmp_path, [
        _meta(0, base=True), _meta(1),
        _frame(1.2, 0, 0, "adv", 1.0, 1.3, rx=[1]),
        _ev(1.3, "node_complete", node=1, total=1),
    ], name="flight.jsonl")
    assert main(["why", flight_only, "--node", "1"]) == 2
    assert "--causal-trace" in capsys.readouterr().err


def test_cli_why_incomplete_node_exits_one(tmp_path, capsys):
    events = _tiny_trace()
    events.append(_meta(2))
    trace = _write_trace(tmp_path, events)
    assert main(["why", trace, "--node", "2"]) == 1
    assert "never completed" in capsys.readouterr().out


def test_cli_analyze_json_is_machine_readable(flight_run, tmp_path, capsys):
    run = flight_run(protocol="deluge", receivers=2)
    trace = tmp_path / "run.trace.jsonl"
    run.log.write_jsonl(trace)
    assert main(["analyze", str(trace), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "flight_analysis"
