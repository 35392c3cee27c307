"""Core discrete-event engine.

The engine is a classic calendar queue built on :mod:`heapq`.  Events are
totally ordered by ``(time, sequence)`` so that simultaneous events execute in
scheduling order, which keeps runs deterministic for a fixed seed.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from repro.errors import SimulationError, SimulationRunawayError

__all__ = [
    "Event",
    "SimProfiler",
    "Simulator",
    "set_default_watchdog",
    "get_default_watchdog",
    "current_simulator",
]

# Process-wide watchdog defaults picked up by every Simulator constructed
# without explicit limits.  Campaign executor workers set these once at
# bootstrap (before any simulation runs) so a livelocked protocol raises a
# structured SimulationRunawayError instead of hanging the worker forever;
# interactive use leaves them off.
_DEFAULT_WATCHDOG: Tuple[Optional[int], Optional[float]] = (None, None)


def set_default_watchdog(
    max_events: Optional[int] = None, max_sim_time: Optional[float] = None
) -> None:
    """Set process-wide watchdog limits inherited by new Simulators."""
    global _DEFAULT_WATCHDOG
    _DEFAULT_WATCHDOG = (max_events, max_sim_time)


def get_default_watchdog() -> Tuple[Optional[int], Optional[float]]:
    """The ``(max_events, max_sim_time)`` defaults new Simulators inherit."""
    return _DEFAULT_WATCHDOG


# Weak reference to the most recently *running* Simulator in this process.
# Telemetry heartbeat threads (repro.obs.telemetry) sample processed_events /
# now through this without any runner plumbing; a weakref keeps the engine
# from pinning finished simulations alive.
_CURRENT_SIM: "Optional[weakref.ref[Simulator]]" = None


def current_simulator() -> "Optional[Simulator]":
    """The simulator currently (or most recently) inside :meth:`Simulator.run`.

    Returns ``None`` when no simulator has run in this process or the last
    one has been garbage-collected.  Reads are lock-free: ``now`` and
    ``processed_events`` are single attribute loads, safe to sample from a
    heartbeat thread even while the run loop is executing.
    """
    ref = _CURRENT_SIM
    return ref() if ref is not None else None


class SimProfiler(Protocol):
    """What the engine needs from a profiler.

    Its one consumer is the ``Tracer`` in ``perfbench/ledger.py``, which
    charges each handler call to a layer of the stack.  Defined
    structurally so the engine never imports a profiler: any object with a
    monotonic ``clock`` and a ``record`` hook works.  With no profiler
    installed the run loop pays exactly one ``is None`` check per event —
    the zero-overhead-when-disabled contract.
    """

    def clock(self) -> float: ...

    def record(self, fn: Callable[..., Any], args: Tuple[Any, ...],
               elapsed: float, heap_len: int) -> None: ...


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and may be cancelled
    with :meth:`cancel`; cancelled events stay in the heap but are skipped
    when popped (lazy deletion).  The owning simulator keeps live/cancelled
    counters so cancellation garbage can be compacted away.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing; safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        # Cancelling an already-executed event (timers commonly hold stale
        # references) must not perturb the simulator's live-event counter;
        # execution severs the back-reference.
        if self._sim is not None:
            self._sim._note_cancelled()
            self._sim = None

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state}, fn={self.fn!r})"


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, handler, arg1, arg2)
        sim.run(until=100.0)

    The simulator never advances past ``until`` and executes events in strict
    ``(time, insertion order)`` order.

    ``max_events`` / ``max_sim_time`` are watchdog guards: exceeding either
    raises :class:`SimulationRunawayError` (with heap statistics attached)
    rather than letting a livelocked protocol spin forever.  They default to
    the process-wide values from :func:`set_default_watchdog`, which the
    campaign executor turns on inside its workers.  Unlike the ``max_events``
    *argument* of :meth:`run` — a per-call budget that returns control — the
    watchdog is a hard failure.
    """

    def __init__(
        self,
        max_events: Optional[int] = None,
        max_sim_time: Optional[float] = None,
    ) -> None:
        default_events, default_time = _DEFAULT_WATCHDOG
        self._queue: List[Event] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._running: bool = False
        self._processed: int = 0
        self._live: int = 0        # queued, not-yet-cancelled events
        self._cancelled: int = 0   # lazy-deletion garbage still in the heap
        self._compactions: int = 0
        self._profiler: Optional[SimProfiler] = None
        self._watchdog_events = max_events if max_events is not None else default_events
        self._watchdog_time = max_sim_time if max_sim_time is not None else default_time

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of queued, not-yet-cancelled events (O(1))."""
        return self._live

    def set_profiler(self, profiler: Optional[SimProfiler]) -> None:
        """Install (or with None, remove) a per-event profiling hook.

        The profiler's ``clock`` brackets each handler call and ``record``
        receives the handler, its scheduled arguments, its elapsed wall
        time, and the heap length.  The argument tuple lets a profiler
        attribute cost per event *kind* (e.g. which packet type a radio
        delivery carried) without the engine knowing any domain types.
        Wall time is measurement *about* the simulation, never an input to
        it — simulated time stays exclusively on :attr:`now`.
        """
        self._profiler = profiler

    def heap_stats(self) -> Dict[str, int]:
        """Occupancy and compaction statistics for the event heap."""
        return {
            "pending": self._live,
            "heap_len": len(self._queue),
            "cancelled_garbage": self._cancelled,
            "compactions": self._compactions,
        }

    def _note_cancelled(self) -> None:
        self._live -= 1
        self._cancelled += 1
        # Long runs cancel far more timers than ever fire; once garbage
        # dominates the heap, rebuild it so memory stays proportional to the
        # live event count.
        if self._cancelled * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        self._queue = [e for e in self._queue if not e.cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0
        self._compactions += 1

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        event = Event(time, self._seq, fn, args, sim=self)
        self._seq += 1
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the number of events executed by this call.  When ``until`` is
        given, time is advanced to exactly ``until`` even if the queue drains
        earlier, so back-to-back ``run`` calls observe monotonic time.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        global _CURRENT_SIM
        _CURRENT_SIM = weakref.ref(self)
        executed = 0
        profiler = self._profiler
        try:
            while self._queue:
                event = self._queue[0]
                if event.cancelled:
                    heapq.heappop(self._queue)
                    self._cancelled -= 1
                    continue
                if until is not None and event.time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                if (
                    self._watchdog_time is not None
                    and event.time > self._watchdog_time
                ):
                    raise SimulationRunawayError(
                        f"simulation exceeded max_sim_time="
                        f"{self._watchdog_time} (next event at t={event.time:.3f})",
                        events=self._processed,
                        sim_time=self._now,
                        heap_stats=self.heap_stats(),
                    )
                heapq.heappop(self._queue)
                self._live -= 1
                event._sim = None  # late cancel() must not double-count
                self._now = event.time
                if profiler is None:
                    event.fn(*event.args)
                else:
                    start = profiler.clock()
                    event.fn(*event.args)
                    profiler.record(
                        event.fn, event.args,
                        profiler.clock() - start, len(self._queue),
                    )
                executed += 1
                self._processed += 1
                if (
                    self._watchdog_events is not None
                    and self._processed >= self._watchdog_events
                ):
                    raise SimulationRunawayError(
                        f"simulation exceeded max_events="
                        f"{self._watchdog_events} at t={self._now:.3f}",
                        events=self._processed,
                        sim_time=self._now,
                        heap_stats=self.heap_stats(),
                    )
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return executed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain; guard against runaway loops."""
        executed = self.run(max_events=max_events)
        if self._live > 0 and executed >= max_events:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events"
            )
        return executed
