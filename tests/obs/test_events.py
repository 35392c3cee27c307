"""Structured event log: spans, JSONL round trips, Chrome trace export."""

import json

import pytest

from repro.obs.events import (
    SUPPORTED_SCHEMA_VERSIONS,
    TRACE_SCHEMA_VERSION,
    EventLog,
    TraceEvent,
    load_jsonl,
)


def test_instant_events_append():
    log = EventLog()
    log.instant(1.0, "tx_data", node=3, detail={"unit": 0})
    log.instant(2.0, "rx_lost")
    assert len(log) == 2
    first = log.events[0]
    assert first.ph == "i"
    assert first.node == 3
    assert first.detail == {"unit": 0}
    assert log.events[1].node is None


def test_span_begin_end_emits_one_complete_event():
    log = EventLog()
    log.begin(1.0, "span_page", node=2, key=0, detail={"unit": 0})
    log.end(3.5, "span_page", node=2, key=0, detail={"ok": True})
    assert len(log) == 1
    span = log.events[0]
    assert span.ph == "X"
    assert span.ts == 1.0
    assert span.dur == 2.5
    assert span.detail == {"unit": 0, "ok": True}  # begin+end detail merged


def test_duplicate_begin_restarts_the_span():
    log = EventLog()
    log.begin(1.0, "span_page", node=2, key=0)
    log.begin(4.0, "span_page", node=2, key=0)  # e.g. assembly restarted
    log.end(5.0, "span_page", node=2, key=0)
    assert [e.ts for e in log.events] == [4.0]
    assert log.events[0].dur == 1.0


def test_unmatched_end_degrades_to_instant():
    log = EventLog()
    log.end(2.0, "span_page", node=1, key=7)
    assert len(log) == 1
    assert log.events[0].ph == "i"


def test_spans_are_keyed_by_kind_node_and_key():
    log = EventLog()
    log.begin(1.0, "span_page", node=1, key=0)
    log.begin(2.0, "span_page", node=2, key=0)   # other node: distinct span
    log.end(3.0, "span_page", node=2, key=0)
    assert len(log.spans("span_page")) == 1
    assert log.spans("span_page")[0].node == 2
    assert log.flush_open_spans(9.0) == 1        # node 1's span still open


def test_flush_open_spans_marks_and_clears():
    log = EventLog()
    log.begin(1.0, "span_disseminate", node=4)
    log.begin(2.0, "span_page", node=4, key=0)
    flushed = log.flush_open_spans(10.0)
    assert flushed == 2
    opens = [e for e in log.events if e.detail.get("open")]
    assert len(opens) == 2
    assert all(e.ph == "X" for e in opens)
    assert [e.ts for e in opens] == [1.0, 2.0]   # flushed in start order
    assert log.flush_open_spans(11.0) == 0       # nothing left


def test_jsonl_round_trip(tmp_path):
    log = EventLog()
    log.instant(1.0, "tx_data", node=1, detail={"unit": 2})
    log.begin(2.0, "span_page", node=1, key=0)
    log.end(4.0, "span_page", node=1, key=0)
    path = tmp_path / "run.trace.jsonl"
    log.write_jsonl(path)
    header, events = load_jsonl(path)
    assert header["schema_version"] == TRACE_SCHEMA_VERSION
    assert header["events"] == 2
    assert events == list(log.events)


def test_load_jsonl_rejects_bad_headers(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_jsonl(empty)

    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text('{"ts": 1.0, "kind": "tx_data"}\n')
    with pytest.raises(ValueError, match="not a trace header"):
        load_jsonl(headerless)

    future = tmp_path / "future.jsonl"
    future.write_text(json.dumps({
        "type": "header", "schema_version": TRACE_SCHEMA_VERSION + 1,
        "events": 0, "dropped": 0,
    }) + "\n")
    with pytest.raises(ValueError, match="unsupported trace schema"):
        load_jsonl(future)


def test_schema_v1_and_v2_traces_are_rejected(tmp_path):
    # Schema v3 logs each aired frame once, as a ``frame`` record named by
    # its (sender, seq) id; the v1/v2 frame kinds (link_tx, causal_tx,
    # causal_rx, causal_loss) and their global frame numbers have no reader
    # left, so older traces fail loudly instead of replaying half-empty.
    assert TRACE_SCHEMA_VERSION == 3
    assert SUPPORTED_SCHEMA_VERSIONS == frozenset({3})
    for version in (1, 2):
        path = tmp_path / f"v{version}.trace.jsonl"
        path.write_text(json.dumps({
            "type": "header", "schema_version": version, "events": 1,
        }) + "\n" + json.dumps(
            {"ts": 0.5, "kind": "link_tx", "ph": "i", "node": 0,
             "detail": {"kind": "data", "unit": 0}}) + "\n")
        with pytest.raises(ValueError, match="unsupported trace schema"):
            load_jsonl(path)


def test_trace_event_dict_round_trip():
    event = TraceEvent(ts=1.5, kind="span_page", ph="X", node=3, dur=2.0,
                       detail={"unit": 1})
    assert TraceEvent.from_dict(event.to_dict()) == event
    sparse = TraceEvent(ts=0.0, kind="tx_adv")
    data = sparse.to_dict()
    assert "node" not in data and "dur" not in data and "detail" not in data
    assert TraceEvent.from_dict(data) == sparse


def test_of_kind_and_spans_queries():
    log = EventLog()
    log.instant(1.0, "tx_data")
    log.instant(2.0, "tx_adv")
    log.begin(1.0, "span_page", key=0)
    log.end(2.0, "span_page", key=0)
    assert [e.kind for e in log.of_kind("tx_data")] == ["tx_data"]
    assert len(log.spans()) == 1
    assert log.spans("span_disseminate") == []


def test_header_counts_flushed_open_spans():
    log = EventLog()
    log.begin(1.0, "span_page", node=1, key=0)
    assert log.header()["open_spans_flushed"] == 0
    assert log.flush_open_spans(3.0) == 1
    header = log.header()
    assert header["open_spans_flushed"] == 1
    (span,) = log.spans("span_page")
    assert span.detail["open"] is True
