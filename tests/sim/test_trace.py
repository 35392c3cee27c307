"""Unit tests for the trace recorder."""

from types import SimpleNamespace

from repro.sim.trace import LOSS_CAUSES, LOSS_COUNTERS, Observer, TraceRecorder


def test_counters_accumulate():
    t = TraceRecorder()
    t.count("tx", 2)
    t.count("tx")
    assert t.counters["tx"] == 3
    assert t.snapshot() == {"tx": 3}


def test_snapshot_is_a_copy():
    t = TraceRecorder()
    t.count("a")
    snap = t.snapshot()
    assert type(snap) is dict
    t.count("a")
    assert snap["a"] == 1
    snap["a"] = 99
    assert t.counters["a"] == 2


def test_record_counts_without_keeping_records_by_default():
    t = TraceRecorder()
    t.record(1.0, "rx", node=3, unit=2)
    assert t.counters["rx"] == 1
    assert t.sink is None


def test_record_keeps_records_when_enabled():
    from repro.obs.events import EventLog

    log = EventLog()
    t = TraceRecorder(sink=log)
    t.record(1.5, "rx", node=3, unit=2, index=7)
    t.record(2.0, "tx", node=4)
    assert len(log) == 2
    rx = log.of_kind("rx")[0]
    assert rx.ts == 1.5
    assert rx.node == 3
    assert rx.detail == {"unit": 2, "index": 7}


class RecordingSink:
    """Captures the TraceSink calls the recorder forwards."""

    def __init__(self):
        self.calls = []

    def instant(self, ts, kind, node=None, detail=None):
        self.calls.append(("instant", ts, kind, node, detail))

    def begin(self, ts, kind, node=None, key=None, detail=None):
        self.calls.append(("begin", ts, kind, node, key, detail))

    def end(self, ts, kind, node=None, key=None, detail=None):
        self.calls.append(("end", ts, kind, node, key, detail))


def test_record_forwards_instants_to_the_sink():
    sink = RecordingSink()
    t = TraceRecorder(sink=sink)
    t.record(1.0, "rx", node=3, unit=2)
    t.record(2.0, "tx")
    assert sink.calls == [
        ("instant", 1.0, "rx", 3, {"unit": 2}),
        ("instant", 2.0, "tx", None, None),
    ]
    assert t.counters["rx"] == 1  # counting still happens


def test_spans_forward_to_the_sink_and_count_completions():
    sink = RecordingSink()
    t = TraceRecorder(sink=sink)
    t.span_begin(1.0, "span_page", node=2, key=0, unit=0)
    assert t.counters.get("span_page", 0) == 0  # begins are not completions
    t.span_end(3.0, "span_page", node=2, key=0)
    assert t.counters["span_page"] == 1
    assert sink.calls == [
        ("begin", 1.0, "span_page", 2, 0, {"unit": 0}),
        ("end", 3.0, "span_page", 2, 0, None),
    ]


def test_spans_without_a_sink_are_no_ops():
    t = TraceRecorder()
    t.span_begin(1.0, "span_page", node=2, key=0)
    t.span_end(3.0, "span_page", node=2, key=0)
    # Nothing to open or close, but the completion still counts: counters
    # must not depend on whether an event log is attached.
    assert t.counters["span_page"] == 1


def test_counter_snapshot_does_not_depend_on_the_sink():
    """Attaching an event log (``--trace-out``) must not change the counters
    a run reports, span completions included."""
    from repro.experiments.scenarios import OneHopScenario, run_scenario
    from repro.obs.events import EventLog

    scenario = OneHopScenario(protocol="lr-seluge", receivers=3,
                              loss_rate=0.15, image_size=3000, k=8, n=12,
                              seed=9)
    bare = TraceRecorder()
    run_scenario(scenario, trace=bare)
    logged = TraceRecorder(sink=EventLog())
    run_scenario(scenario, trace=logged)
    assert bare.snapshot()["span_page"] > 0
    assert bare.snapshot() == logged.snapshot()


# -- the observation seam -------------------------------------------------------


class Calls(Observer):
    """Logs the hooks it overrides, tagged with its own name."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def on_frame(self, ts, frame, start, delivered, lost):
        self.log.append((self.name, start, ts, delivered, lost))


def _frame(frame_id=7, size=10):
    return SimpleNamespace(frame_id=frame_id, size_bytes=size,
                           kind=SimpleNamespace(metric_name="tx_data",
                                                value="data"),
                           payload=None, sender=1)


def test_outcomes_count_then_reach_observers_flight_first():
    log = []
    t = TraceRecorder(flight=Calls("flight", log), causal=Calls("causal", log))
    # The airing is counted at once; the radio counts deliveries and losses
    # itself, and observers hear of them once per frame, at frame end.
    from repro.net.packet import Frame, FrameKind

    t.tx(0.9, Frame(kind=FrameKind.DATA, sender=1, size_bytes=10,
                    payload=None))
    assert t.counters["tx_data"] == 1
    assert t.counters["tx_data_bytes"] == 10
    assert log == []
    t.frame_end(1.0, _frame(), 0.9, [2], [(3, "collision")])
    assert log == [("flight", 0.9, 1.0, [2], [(3, "collision")]),
                   ("causal", 0.9, 1.0, [2], [(3, "collision")])]


def test_every_loss_cause_has_its_own_counter():
    t = TraceRecorder()
    for cause in LOSS_CAUSES:
        t.count(LOSS_COUNTERS[cause])
    assert t.snapshot() == {name: 1 for name in LOSS_COUNTERS.values()}


def test_current_frame_lasts_from_the_mark_to_frame_end():
    t = TraceRecorder()
    assert t.current_frame(2) is None
    # What the radio's delivery loop writes: the frame, then the receiver.
    t.rx_frame = 42
    t.rx_node = 2
    assert t.current_frame(2) == 42
    assert t.current_frame(3) is None
    t.frame_end(1.0, _frame(frame_id=42), 0.9, [2], [])
    assert t.current_frame(2) is None


def test_tracker_snapshots_the_policy_only_when_observed():
    class Policy:
        snapshots = 0

        def snapshot(self):
            self.snapshots += 1
            return {"pending": 1}

    policy = Policy()
    TraceRecorder().tracker(1.0, 0, 1, "sent", policy, index=3)
    assert policy.snapshots == 0

    seen = []

    class Tracker(Observer):
        def on_tracker(self, ts, node, unit, trigger, state, requester,
                       index, via):
            seen.append((trigger, state, requester, index, via))

    TraceRecorder(flight=Tracker()).tracker(1.0, 0, 1, "sent", policy,
                                            index=3)
    assert policy.snapshots == 1
    assert seen == [("sent", {"pending": 1}, None, 3, None)]


def test_tx_counts_per_kind_bytes_and_unit():
    """The per-kind names are built once per recorder; the counters they
    key are the catalogue's ``tx_<kind>``, ``tx_<kind>_bytes`` and
    ``tx_<kind>_unit_<n>`` names."""
    from repro.net.packet import Frame, FrameKind

    t = TraceRecorder()
    unit2 = SimpleNamespace(unit=2)
    for kind, size, payload in [(FrameKind.DATA, 40, unit2),
                                (FrameKind.DATA, 30, unit2),
                                (FrameKind.DATA, 20, SimpleNamespace(unit=3)),
                                (FrameKind.ADV, 10, None)]:
        t.tx(0.0, Frame(kind=kind, sender=1, size_bytes=size,
                        payload=payload))
    assert t.snapshot() == {
        "tx_data": 3, "tx_data_bytes": 90, "tx_data_unit_2": 2,
        "tx_data_unit_3": 1, "tx_adv": 1, "tx_adv_bytes": 10,
        "tx_total": 4, "tx_total_bytes": 100,
    }
