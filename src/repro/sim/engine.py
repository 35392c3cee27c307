"""Core discrete-event engine.

The engine is a binary heap built on :mod:`heapq`.  The heap holds
``(time, key, event)`` tuples; the key is a FIFO sequence number, so events
are totally ordered by ``(time, sequence)`` and simultaneous events execute
in scheduling order, which keeps runs deterministic for a fixed seed.
Because ``(time, key)`` is unique, tuple comparison never reaches the
:class:`Event` and ``heapq`` orders entries entirely in C.

A pending event can be moved to a later time with :meth:`Event.postpone`
(a restarted :class:`~repro.sim.process.Timer` does this).  The move draws
the event's new key at that moment, exactly when cancel-and-reschedule
would draw it, so events run in the same order as they would under
cancel-and-reschedule.  The event's heap entry stays where it was: when that
stale entry reaches the front, :meth:`Simulator.run` re-queues it at the
event's new ``(time, key)`` with one ``heapreplace``, calls no handler and
counts no event.  A postponed event therefore never leaves garbage behind,
and one cancelled after its postponement is dropped from its new place.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from repro.errors import SimulationError, SimulationRunawayError
from repro.sim.rng import derive_seed

__all__ = [
    "Event",
    "PerturbedSimulator",
    "SimProfiler",
    "Simulator",
    "set_default_watchdog",
    "get_default_watchdog",
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
    counters so cancellation garbage can be compacted away.  A pending event
    may also be moved later with :meth:`postpone`.

    Events are not comparable: the heap orders ``(time, key, event)``
    entries by their unique ``(time, key)`` prefix.  ``key`` is the event's
    current tie-break key; a queued entry whose key differs is stale.
    """

    __slots__ = ("time", "key", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: "Optional[Simulator]" = None,
        key: int = 0,
    ) -> None:
        self.time = time
        self.key = key
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

    def postpone(self, time: float) -> None:
        """Move this pending event to absolute ``time``, not before its own.

        The event gets a new tie-break key drawn at this call, so it runs in
        the place a cancel followed by ``schedule_at(time, ...)`` would give
        it; unlike that pair, it leaves no cancelled entry in the heap.
        Raises :class:`SimulationError` for an earlier or NaN ``time`` and
        for an event that has run or been cancelled.
        """
        sim = self._sim
        if sim is None:
            raise SimulationError(
                "cannot postpone an event that has run or been cancelled")
        # ``not >=`` so a NaN time, which compares false both ways, is
        # rejected too.
        if not time >= self.time:
            raise SimulationError(
                f"cannot postpone event at t={self.time} to earlier t={time}")
        sim._postpone(self, time)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, {state}, fn={self.fn!r})"


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
        self._queue: List[Tuple[float, int, Event]] = []
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
        # In place: the run loop holds a reference to the queue.
        self._queue[:] = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0
        self._compactions += 1

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        # ``not >=`` so a NaN delay is rejected too.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        time = self._now + delay
        key = self._sequence_key()
        event = Event(time, fn, args, self, key)
        heapq.heappush(self._queue, (time, key, event))
        self._live += 1
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        # Written as ``not >=`` so a NaN time, which compares false both
        # ways, is rejected too.
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        key = self._sequence_key()
        event = Event(time, fn, args, self, key)
        heapq.heappush(self._queue, (time, key, event))
        self._live += 1
        return event

    def _sequence_key(self) -> int:
        """The next tie-break key: the FIFO counter.

        Drawn once per schedule and once per postponement.  Keys must be
        unique so that no two heap entries compare equal on ``(time, key)``.
        Subclasses may override this to permute ties.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def _postpone(self, event: Event, time: float) -> None:
        key = self._sequence_key()
        if time == event.time and key < event.key:
            # Only a permuted tie-break draws a key below the event's own.
            # The queued entry could then sort after the event's new place,
            # so rewrite it now instead of re-queueing it lazily.
            queue = self._queue
            for index, entry in enumerate(queue):
                if entry[2] is event:
                    queue[index] = (time, key, event)
                    break
            heapq.heapify(queue)
        event.time = time
        event.key = key

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the number of events executed by this call.  When ``until`` is
        given, time is advanced to exactly ``until`` even if the queue drains
        earlier, so back-to-back ``run`` calls observe monotonic time.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        executed = 0
        profiler = self._profiler
        queue = self._queue
        heappop, heapreplace = heapq.heappop, heapq.heapreplace
        try:
            while queue:
                time, key, event = queue[0]
                if key != event.key:
                    # Postponed: move the entry to the event's new place,
                    # also when the event was cancelled since, so that its
                    # garbage is dropped there and not ahead of its turn.
                    heapreplace(queue, (event.time, event.key, event))
                    continue
                if event.cancelled:
                    heappop(queue)
                    self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                if (
                    self._watchdog_time is not None
                    and time > self._watchdog_time
                ):
                    raise SimulationRunawayError(
                        f"simulation exceeded max_sim_time="
                        f"{self._watchdog_time} (next event at t={time:.3f})",
                        events=self._processed,
                        sim_time=self._now,
                        heap_stats=self.heap_stats(),
                    )
                heappop(queue)
                self._live -= 1
                event._sim = None  # late cancel() must not double-count
                self._now = time
                if profiler is None:
                    event.fn(*event.args)
                else:
                    start = profiler.clock()
                    event.fn(*event.args)
                    profiler.record(
                        event.fn, event.args,
                        profiler.clock() - start, len(queue),
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


class PerturbedSimulator(Simulator):
    """A :class:`Simulator` whose same-timestamp tie-break is permuted.

    ``perturbation`` selects the permutation: each event's sequence key
    becomes ``(keyed_hash(perturbation, counter) << 40) | counter``, so
    events at distinct times run exactly as before (time dominates the heap
    order), while events at the same time run in a pseudo-random order that
    is a pure function of the perturbation seed and each event's scheduling
    index.  The counter in the low bits keeps keys unique even on a 64-bit
    hash collision, preserving the engine's total order.

    Correct protocol code must not depend on FIFO ties: simultaneity is a
    float coincidence.  ``tests/sim/test_sanitize.py`` runs small scenarios
    under several perturbations and requires identical results (DESIGN.md
    section 13).  Production runs use the plain :class:`Simulator`, so this
    override never touches the hot path.
    """

    def __init__(self, perturbation: int) -> None:
        super().__init__()
        self.perturbation = int(perturbation)

    def _sequence_key(self) -> int:
        counter = super()._sequence_key()
        priority = derive_seed(self.perturbation, f"tiebreak/{counter}")
        return (priority << 40) | counter
