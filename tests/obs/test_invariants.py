"""Invariant checker: clean runs hold, injected violations are pinpointed."""

from __future__ import annotations

import pytest

from repro.obs.events import EventLog, TraceEvent
from repro.obs.invariants import INVARIANTS, check_events, check_jsonl


def _ev(ts, kind, node=None, **detail):
    return TraceEvent(ts=ts, kind=kind, node=node, detail=detail)


def _data_tx(ts, node, unit, seq=0):
    # detail "kind" (the frame kind) collides with the event-kind kwarg above.
    return TraceEvent(ts=ts, kind="frame", node=node,
                      detail={"frame": (node, seq), "kind": "data",
                              "size": 83, "enq": ts, "end": ts + 0.05,
                              "unit": unit, "rx": [], "lost": []})


# ---------------------------------------------------------------------------
# Clean end-to-end runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["deluge", "seluge", "lr-seluge"])
def test_clean_runs_satisfy_every_invariant(flight_run, protocol):
    run = flight_run(protocol=protocol, receivers=3, loss=0.15)
    assert run.result.completed
    report = check_events(run.log)
    assert report.ok, report.summary()
    assert report.events_seen == len(run.log)
    assert report.checked["pages_sequential"] > 0
    assert report.checked["complete_means_all_pages"] > 0
    assert report.checked["serve_only_decoded"] > 0
    if protocol in ("seluge", "lr-seluge"):
        assert report.checked["auth_before_buffer"] > 0
    else:
        # The unsecured baseline (Deluge) is exempt from the auth
        # invariant, not clean by accident — nothing was checked.
        assert report.checked["auth_before_buffer"] == 0
    if protocol == "lr-seluge":
        assert report.checked["tracker_monotone"] > 0


def test_check_jsonl_roundtrip(flight_run, tmp_path):
    run = flight_run(protocol="lr-seluge", receivers=2)
    path = tmp_path / "run.trace.jsonl"
    run.log.write_jsonl(path)
    report = check_jsonl(path)
    assert report.ok, report.summary()
    assert report.events_seen == len(run.log)


def test_assert_invariants_fixture(flight_run, assert_invariants):
    run = flight_run(protocol="seluge", receivers=2)
    report = assert_invariants(run.log)
    assert report.ok


def test_tampered_trace_is_flagged_with_location(flight_run):
    """Appending one unauthenticated buffer event to a real trace trips the
    checker, and the violation carries the offending event's coordinates."""
    run = flight_run(protocol="lr-seluge", receivers=2)
    run.log.instant(123.25, "pkt_buffered", 2,
                    {"src": 0, "version": 2, "unit": 0, "index": 63})
    report = check_events(run.log)
    assert not report.ok
    (violation,) = report.of_invariant("auth_before_buffer")
    assert violation.ts == 123.25
    assert violation.node == 2
    assert violation.kind == "pkt_buffered"
    assert "index=63" in violation.message
    assert "node 2" in violation.render()


# ---------------------------------------------------------------------------
# Hand-crafted traces, one invariant at a time
# ---------------------------------------------------------------------------

def test_auth_before_buffer_needs_prior_auth():
    events = [
        _ev(0.0, "flight_meta", 1, base=False, secured=True),
        _ev(1.0, "pkt_auth_ok", 1, src=0, version=2, unit=0, index=3),
        _ev(1.0, "pkt_buffered", 1, src=0, version=2, unit=0, index=3),
        _ev(2.0, "pkt_buffered", 1, src=0, version=2, unit=0, index=4),
    ]
    report = check_events(events)
    assert report.checked["auth_before_buffer"] == 2
    (v,) = report.violations
    assert v.invariant == "auth_before_buffer"
    assert (v.ts, v.node, v.kind) == (2.0, 1, "pkt_buffered")


def test_auth_before_buffer_exempts_unsecured_nodes():
    events = [
        _ev(0.0, "flight_meta", 1, base=False, secured=False),
        _ev(1.0, "pkt_buffered", 1, src=0, version=2, unit=0, index=4),
    ]
    report = check_events(events)
    assert report.ok
    assert report.checked["auth_before_buffer"] == 0


def test_tracker_monotone_catches_a_rising_distance():
    events = [
        _ev(1.0, "tracker_snapshot", 1, unit=0, trigger="sent",
            distances={"2": 5, "3": 4}),
        _ev(2.0, "tracker_snapshot", 1, unit=0, trigger="sent",
            distances={"2": 6, "3": 3}),
    ]
    report = check_events(events)
    (v,) = report.of_invariant("tracker_monotone")
    assert "neighbor 2" in v.message and "5 -> 6" in v.message


def test_tracker_monotone_exempts_the_snack_requester():
    events = [
        _ev(1.0, "tracker_snapshot", 1, unit=0, trigger="sent",
            distances={"2": 2}),
        _ev(2.0, "tracker_snapshot", 1, unit=0, trigger="snack", requester=2,
            distances={"2": 9}),
    ]
    assert check_events(events).ok


def test_tracker_state_resets_on_crash():
    events = [
        _ev(1.0, "tracker_snapshot", 1, unit=0, trigger="sent",
            distances={"2": 2}),
        _ev(2.0, "fault_crash", 1),
        _ev(3.0, "tracker_snapshot", 1, unit=0, trigger="sent",
            distances={"2": 9}),
    ]
    assert check_events(events).ok


def test_serve_only_decoded_flags_premature_service():
    events = [
        _ev(0.0, "flight_meta", 1, base=False, secured=True),
        _ev(1.0, "unit_complete", 1, unit=0),
        _data_tx(2.0, 1, unit=0),
        _data_tx(3.0, 1, unit=1, seq=1),
    ]
    report = check_events(events)
    assert report.checked["serve_only_decoded"] == 2
    (v,) = report.of_invariant("serve_only_decoded")
    assert (v.ts, v.node) == (3.0, 1)


def test_serve_only_decoded_exempts_base_and_outsiders():
    events = [
        _ev(0.0, "flight_meta", 0, base=True, secured=True),
        _data_tx(1.0, 0, unit=7),
        # node 9 never emitted flight_meta (e.g. an attacker rig): untracked.
        _data_tx(2.0, 9, unit=7),
    ]
    report = check_events(events)
    assert report.ok
    assert report.checked["serve_only_decoded"] == 1  # only the base tx


def test_serve_only_decoded_judges_a_frame_at_its_air_start():
    """A frame record is written when the frame leaves the air; the sender
    adopting a new version while it was on the air does not count."""
    events = [
        _ev(0.0, "flight_meta", 1, base=False, secured=True),
        _ev(1.0, "unit_complete", 1, unit=0),
        _ev(2.02, "version_adopted", 1, version=3),
        _data_tx(2.0, 1, unit=0),     # on the air 2.0 .. 2.05
    ]
    report = check_events(events)
    assert report.ok, report.summary()
    assert report.checked["serve_only_decoded"] == 1


def test_pages_sequential_flags_a_skip():
    events = [
        _ev(1.0, "unit_complete", 1, unit=0),
        _ev(2.0, "unit_complete", 1, unit=2),
    ]
    (v,) = check_events(events).of_invariant("pages_sequential")
    assert "completed unit 2, expected unit 1" in v.message


def test_pages_sequential_honours_reboot_resume():
    events = [
        _ev(1.0, "unit_complete", 1, unit=0),
        _ev(2.0, "unit_complete", 1, unit=1),
        _ev(3.0, "fault_reboot", 1, resume_unit=1),
        _ev(4.0, "unit_complete", 1, unit=1),
        _ev(5.0, "unit_complete", 1, unit=2),
    ]
    assert check_events(events).ok


def test_pages_sequential_restarts_on_version_adoption():
    events = [
        _ev(1.0, "unit_complete", 1, unit=0),
        _ev(2.0, "version_adopted", 1, version=3),
        _ev(3.0, "unit_complete", 1, unit=0),
    ]
    assert check_events(events).ok


def test_complete_means_all_pages():
    events = [
        _ev(1.0, "unit_complete", 1, unit=0),
        _ev(2.0, "node_complete", 1, total=3),
    ]
    (v,) = check_events(events).of_invariant("complete_means_all_pages")
    assert "1/3 units" in v.message


def test_report_summary_lists_checks_and_violations():
    events = [
        _ev(1.0, "unit_complete", 1, unit=0),
        _ev(2.0, "node_complete", 1, total=3),
    ]
    report = check_events(events)
    text = report.summary()
    assert "2 events" in text
    for name in INVARIANTS:
        assert name in text
    assert "1 violation(s)" in text

    clean = check_events([_ev(1.0, "unit_complete", 1, unit=0)])
    assert "all invariants hold" in clean.summary()


def test_check_events_accepts_an_event_log():
    log = EventLog()
    log.instant(1.0, "unit_complete", 1, {"unit": 0})
    report = check_events(log)
    assert report.events_seen == 1 and report.ok


# ---------------------------------------------------------------------------
# replay_never_rebuffered
# ---------------------------------------------------------------------------

def test_replay_never_rebuffered_flags_double_buffer():
    events = [
        _ev(1.0, "pkt_buffered", 2, version=2, unit=0, index=3),
        _ev(2.0, "pkt_buffered", 2, version=2, unit=0, index=3),
    ]
    report = check_events(events)
    assert [v.invariant for v in report.violations] == ["replay_never_rebuffered"]


def test_replay_never_rebuffered_allows_distinct_packets():
    events = [
        _ev(1.0, "pkt_buffered", 2, version=2, unit=0, index=3),
        _ev(2.0, "pkt_buffered", 2, version=2, unit=0, index=4),
        _ev(3.0, "pkt_buffered", 3, version=2, unit=0, index=3),  # other node
    ]
    report = check_events(events)
    assert report.ok
    assert report.checked["replay_never_rebuffered"] == 3


def test_replay_never_rebuffered_honours_reboot_resume():
    # Units at or above the resume point were lost with RAM: refetching
    # them after the reboot is legitimate, refetching persisted ones is not.
    events = [
        _ev(1.0, "pkt_buffered", 2, version=2, unit=1, index=0),
        _ev(2.0, "fault_crash", 2),
        _ev(3.0, "fault_reboot", 2, resume_unit=1),
        _ev(4.0, "pkt_buffered", 2, version=2, unit=1, index=0),
    ]
    assert check_events(events).ok


def test_replay_never_rebuffered_resets_on_version_adoption():
    events = [
        _ev(1.0, "pkt_buffered", 2, version=2, unit=0, index=0),
        _ev(2.0, "version_adopted", 2, version=3),
        _ev(3.0, "pkt_buffered", 2, version=3, unit=0, index=0),
    ]
    assert check_events(events).ok
