"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import PerturbedSimulator, Simulator


def test_initial_state(sim):
    assert sim.now == 0.0
    assert sim.pending_events == 0
    assert sim.processed_events == 0


def test_events_run_in_time_order(sim):
    seen = []
    sim.schedule(3.0, seen.append, "c")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0


def test_simultaneous_events_run_in_scheduling_order(sim):
    seen = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_run_until_stops_and_advances_clock(sim):
    seen = []
    sim.schedule(1.0, seen.append, 1)
    sim.schedule(5.0, seen.append, 5)
    executed = sim.run(until=2.0)
    assert executed == 1
    assert seen == [1]
    assert sim.now == 2.0  # clock advanced to the boundary
    sim.run()
    assert seen == [1, 5]


def test_cancelled_event_does_not_fire(sim):
    seen = []
    event = sim.schedule(1.0, seen.append, "x")
    event.cancel()
    sim.run()
    assert seen == []
    assert sim.pending_events == 0


def test_cancel_is_idempotent(sim):
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_schedule_in_past_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.5, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


@pytest.mark.parametrize("make", [Simulator, lambda: PerturbedSimulator(3)],
                         ids=["fifo", "perturbed"])
def test_nan_times_rejected(make):
    """A NaN time compares false both ways; it must not slip past the
    past-time guard and run first with ``now = nan``."""
    sim = make()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), lambda: None)
    seen = []
    sim.schedule_at(1.0, seen.append, "one")
    sim.schedule_at(0.5, seen.append, "half")
    sim.run()
    assert seen == ["half", "one"]
    assert sim.now == 1.0
    assert sim.heap_stats()["heap_len"] == 0


@pytest.mark.parametrize("delay", [float("nan"), -1e-9], ids=["nan", "negative"])
def test_rejected_delay_leaves_heap_unchanged(delay):
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    before = sim.heap_stats()
    with pytest.raises(SimulationError):
        sim.schedule(delay, lambda: None)
    assert sim.heap_stats() == before
    assert sim.run() == 1


def test_events_scheduled_during_run_execute(sim):
    seen = []

    def outer():
        seen.append("outer")
        sim.schedule(1.0, seen.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert seen == ["outer", "inner"]
    assert sim.now == 2.0


def test_max_events_bound(sim):
    def reschedule():
        sim.schedule(1.0, reschedule)

    sim.schedule(1.0, reschedule)
    executed = sim.run(max_events=10)
    assert executed == 10


def test_run_not_reentrant(sim):
    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_idle_guard():
    sim = Simulator()

    def reschedule():
        sim.schedule(0.1, reschedule)

    sim.schedule(0.1, reschedule)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=50)


def test_processed_events_accumulates(sim):
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.processed_events == 5


def test_pending_events_counts_live_only(sim):
    events = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
    assert sim.pending_events == 10
    for ev in events[:4]:
        ev.cancel()
    assert sim.pending_events == 6
    sim.run()
    assert sim.pending_events == 0
    assert sim.processed_events == 6


def test_pending_events_is_o1_not_a_scan(sim):
    """pending_events must not iterate the queue (it's called per chunk in
    hot loops): reading it many times with a large queue stays instant."""
    for i in range(5000):
        sim.schedule(1.0 + i * 0.001, lambda: None)
    for _ in range(10000):
        assert sim.pending_events == 5000


def test_compaction_purges_cancelled_events(sim):
    events = [sim.schedule(10.0 + i, lambda: None) for i in range(100)]
    assert len(sim._queue) == 100
    for ev in events[:80]:
        ev.cancel()
    # compaction fires whenever tombstones exceed half the heap, so the
    # queue stays within a small factor of the live count (not 100)
    assert len(sim._queue) < 2 * 20 + 10
    assert sim.pending_events == 20
    fired = []
    sim.schedule(5.0, fired.append, 1)
    sim.run()
    assert fired == [1]
    assert sim.processed_events == 21


def test_cancel_after_execution_does_not_corrupt_count(sim):
    """Timers often cancel handles that already fired (e.g. a periodic
    process stopping itself): that must not decrement the live count."""
    ev = sim.schedule(1.0, lambda: None)
    later = sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    ev.cancel()  # already executed: must be a no-op
    ev.cancel()
    assert sim.pending_events == 1
    sim.run()
    assert sim.processed_events == 2
    later.cancel()  # executed too: still a no-op
    assert sim.pending_events == 0


class CountingProfiler:
    """Minimal SimProfiler: a deterministic clock and a call log."""

    def __init__(self):
        self.ticks = 0
        self.records = []

    def clock(self):
        self.ticks += 1
        return float(self.ticks)

    def record(self, fn, args, elapsed, heap_len):
        self.records.append((fn, args, elapsed, heap_len))


def test_profiler_hook_sees_every_executed_event(sim):
    profiler = CountingProfiler()
    sim.set_profiler(profiler)
    seen = []
    append = seen.append
    sim.schedule(1.0, append, "a")
    cancelled = sim.schedule(2.0, append, "never")
    cancelled.cancel()
    sim.schedule(3.0, append, "b")
    sim.run()
    assert seen == ["a", "b"]
    # Exactly one record per *executed* event; cancelled events cost nothing.
    assert len(profiler.records) == 2
    assert profiler.ticks == 4  # clock read before and after each handler
    for fn, event_args, elapsed, heap_len in profiler.records:
        assert fn is append
        assert event_args in (("a",), ("b",))  # scheduled args, for kind buckets
        assert elapsed == 1.0  # deterministic clock: end - start
        assert heap_len >= 0


def test_profiler_can_be_detached(sim):
    profiler = CountingProfiler()
    sim.set_profiler(profiler)
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert len(profiler.records) == 1
    sim.set_profiler(None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert len(profiler.records) == 1  # no longer observed


def test_heap_stats_reports_queue_shape(sim):
    stats = sim.heap_stats()
    assert stats == {"pending": 0, "heap_len": 0, "cancelled_garbage": 0,
                     "compactions": 0}
    events = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
    events[0].cancel()
    stats = sim.heap_stats()
    assert stats["pending"] == 9
    assert stats["heap_len"] == 10       # tombstone still queued
    assert stats["cancelled_garbage"] == 1
    sim.run()
    assert sim.heap_stats()["pending"] == 0


def test_heap_stats_counts_compactions(sim):
    events = [sim.schedule(10.0 + i, lambda: None) for i in range(100)]
    for ev in events[:80]:
        ev.cancel()
    stats = sim.heap_stats()
    assert stats["compactions"] >= 1
    assert stats["heap_len"] < 100


def test_cancel_inside_handler_of_same_timestamp(sim):
    """An event may cancel a sibling scheduled for the same instant."""
    fired = []
    second = sim.schedule(1.0, fired.append, 2)

    def first():
        fired.append(1)
        second.cancel()

    # 'first' was scheduled after 'second' -> runs second at t=1.0?  No:
    # insertion order is the tiebreak, so re-schedule first ahead of it.
    third = sim.schedule(0.5, first)
    sim.run()
    assert fired == [1]
    assert sim.pending_events == 0
    assert third is not None


# ---------------------------------------------------------------------------
# Watchdog (SimulationRunawayError)
# ---------------------------------------------------------------------------

def test_watchdog_max_events_raises_runaway():
    from repro.errors import SimulationRunawayError

    sim = Simulator(max_events=50)

    def respawn():
        sim.schedule(sim.now + 0.1, respawn)

    sim.schedule(0.1, respawn)
    with pytest.raises(SimulationRunawayError) as excinfo:
        sim.run()
    assert excinfo.value.events == 50
    assert excinfo.value.heap_stats["pending"] >= 0


def test_watchdog_max_sim_time_raises_before_executing_late_event():
    from repro.errors import SimulationRunawayError

    sim = Simulator(max_sim_time=10.0)
    fired = []
    sim.schedule(5.0, fired.append, "early")
    sim.schedule(50.0, fired.append, "late")
    with pytest.raises(SimulationRunawayError) as excinfo:
        sim.run()
    assert fired == ["early"]
    assert excinfo.value.sim_time == 5.0


def test_watchdog_distinct_from_run_budget():
    """run(max_events=N) is a cooperative budget, not a watchdog failure."""
    sim = Simulator(max_events=100)

    def respawn():
        sim.schedule(sim.now + 0.1, respawn)

    sim.schedule(0.1, respawn)
    assert sim.run(max_events=10) == 10  # returns control, no exception


def test_default_watchdog_is_inherited_and_restorable():
    from repro.errors import SimulationRunawayError
    from repro.sim.engine import get_default_watchdog, set_default_watchdog

    saved = get_default_watchdog()
    try:
        set_default_watchdog(5, None)
        sim = Simulator()

        def respawn():
            sim.schedule(sim.now + 0.1, respawn)

        sim.schedule(0.1, respawn)
        with pytest.raises(SimulationRunawayError):
            sim.run()
        # An explicit argument overrides the process default.
        assert Simulator(max_events=10**9)._watchdog_events == 10**9
    finally:
        set_default_watchdog(*saved)
    assert get_default_watchdog() == saved
