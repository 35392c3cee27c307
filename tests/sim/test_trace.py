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
    # Deliveries and losses are counted one by one; observers hear of them
    # once per frame, at frame end.
    t.rx(2, _frame())
    t.rx_done()
    t.count(LOSS_COUNTERS["collision"])
    assert log == []
    t.frame_end(1.0, _frame(), 0.9, [2], [(3, "collision")])
    assert log == [("flight", 0.9, 1.0, [2], [(3, "collision")]),
                   ("causal", 0.9, 1.0, [2], [(3, "collision")])]
    assert t.counters["rx_delivered"] == 1
    assert t.counters["rx_delivered_bytes"] == 10
    assert t.counters["rx_collision"] == 1


def test_every_loss_cause_has_its_own_counter():
    t = TraceRecorder()
    for cause in LOSS_CAUSES:
        t.count(LOSS_COUNTERS[cause])
    assert t.snapshot() == {name: 1 for name in LOSS_COUNTERS.values()}


def test_current_frame_lasts_from_rx_to_rx_done():
    t = TraceRecorder()
    assert t.current_frame(2) is None
    t.rx(2, _frame(frame_id=42))
    assert t.current_frame(2) == 42
    assert t.current_frame(3) is None
    t.rx_done()
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
