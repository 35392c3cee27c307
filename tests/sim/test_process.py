"""Unit tests for Timer, PeriodicProcess and event postponement."""

import pytest

from repro.errors import SimulationError
from repro.sim.process import PeriodicProcess, Timer


def test_timer_fires_with_args(sim):
    seen = []
    timer = Timer(sim, lambda a, b: seen.append((a, b)))
    timer.start(2.0, "x", 1)
    assert timer.armed
    assert timer.expires_at == 2.0
    sim.run()
    assert seen == [("x", 1)]
    assert not timer.armed


def test_timer_restart_replaces_pending_expiry(sim):
    seen = []
    timer = Timer(sim, seen.append)
    timer.start(1.0, "first")
    timer.start(3.0, "second")
    sim.run()
    assert seen == ["second"]
    assert sim.now == 3.0


def test_timer_restart_later_moves_the_one_pending_event(sim):
    seen = []
    timer = Timer(sim, lambda: seen.append(sim.now))
    sim.schedule(1.0, timer.start, 4.0)     # at t=1: a deadline of 5
    timer.start(2.0)
    timer.start(3.0)
    assert sim.heap_stats() == {"pending": 2, "heap_len": 2,
                                "cancelled_garbage": 0, "compactions": 0}
    sim.run()
    assert seen == [5.0]
    assert sim.processed_events == 2        # the restart and one expiry
    assert sim.heap_stats()["heap_len"] == 0


def test_timer_restart_earlier_still_fires_early(sim):
    seen = []
    timer = Timer(sim, lambda: seen.append(sim.now))
    timer.start(5.0)
    timer.start(1.0)
    assert timer.expires_at == 1.0
    sim.run()
    assert seen == [1.0]
    assert sim.processed_events == 1


def test_timer_cancel_after_postpone_never_fires(sim):
    seen = []
    timer = Timer(sim, seen.append)
    timer.start(1.0, "x")
    timer.start(2.0, "y")
    timer.cancel()
    assert not timer.armed
    sim.run()
    assert seen == []
    assert sim.pending_events == 0 and sim.processed_events == 0


def test_timer_rearms_after_a_rejected_restart(sim):
    seen = []
    timer = Timer(sim, lambda: seen.append(sim.now))
    timer.start(2.0)
    with pytest.raises(SimulationError):
        timer.start(float("nan"))
    assert not timer.armed
    timer.start(3.0)
    sim.run()
    assert seen == [3.0]


def test_postpone_rejects_earlier_nan_and_finished_events(sim):
    event = sim.schedule(2.0, lambda: None)
    for time in (1.5, float("nan")):
        with pytest.raises(SimulationError):
            event.postpone(time)
    assert event.time == 2.0
    event.postpone(2.0)                     # the same time is allowed
    sim.run()
    with pytest.raises(SimulationError):
        event.postpone(3.0)                 # executed
    cancelled = sim.schedule(1.0, lambda: None)
    cancelled.cancel()
    with pytest.raises(SimulationError):
        cancelled.postpone(4.0)
    assert sim.processed_events == 1


def test_timer_cancel(sim):
    seen = []
    timer = Timer(sim, seen.append)
    timer.start(1.0, "x")
    timer.cancel()
    sim.run()
    assert seen == []


def test_timer_cancel_when_idle_is_noop(sim):
    timer = Timer(sim, lambda: None)
    timer.cancel()
    assert not timer.armed


def test_timer_can_rearm_from_callback(sim):
    seen = []
    timer = Timer(sim, lambda: None)

    def fire():
        seen.append(sim.now)
        if len(seen) < 3:
            timer.start(1.0)

    timer._fn = fire
    timer.start(1.0)
    sim.run()
    assert seen == [1.0, 2.0, 3.0]


def test_periodic_process_fixed_interval(sim):
    ticks = []
    proc = PeriodicProcess(sim, lambda: ticks.append(sim.now), interval=2.0)
    sim.run(until=7.0)
    assert ticks == [2.0, 4.0, 6.0]
    proc.stop()
    sim.run(until=20.0)
    assert len(ticks) == 3


def test_periodic_process_callable_interval(sim):
    gaps = iter([1.0, 2.0, 4.0, 100.0])
    ticks = []
    PeriodicProcess(sim, lambda: ticks.append(sim.now), interval=lambda: next(gaps))
    sim.run(until=8.0)
    assert ticks == [1.0, 3.0, 7.0]


def test_periodic_process_start_delay(sim):
    ticks = []
    PeriodicProcess(sim, lambda: ticks.append(sim.now), interval=5.0, start_delay=1.0)
    sim.run(until=12.0)
    assert ticks == [1.0, 6.0, 11.0]


def test_periodic_stop_from_callback(sim):
    ticks = []
    proc = None

    def tick():
        ticks.append(sim.now)
        if len(ticks) == 2:
            proc.stop()

    proc = PeriodicProcess(sim, tick, interval=1.0)
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0]
