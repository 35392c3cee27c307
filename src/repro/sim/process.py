"""Timer helpers layered on the event engine.

:class:`Timer` is a restartable one-shot timer — the workhorse for protocol
timeouts (request retries, round timers).  :class:`PeriodicProcess` repeats a
callback at a fixed or callable-supplied interval until stopped.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple, Union

from repro.sim.engine import Event, Simulator

__all__ = ["Timer", "PeriodicProcess"]


class Timer:
    """A one-shot timer that can be (re)started and cancelled.

    At most one expiry is ever pending.  Restarting an armed timer to the
    same or a later expiry postpones the pending event
    (:meth:`~repro.sim.engine.Event.postpone`): its tie-break key is drawn
    at the restart, so it fires exactly where cancel-and-reschedule would
    fire it, and the heap holds no dead entry for the old expiry.  A restart
    to an earlier expiry cancels the pending event and schedules a new one.
    """

    def __init__(self, sim: Simulator, fn: Callable[..., Any]) -> None:
        self._sim = sim
        self._fn = fn
        self._event: Optional[Event] = None
        self._args: Tuple[Any, ...] = ()

    @property
    def armed(self) -> bool:
        """True while an expiry is pending."""
        return self._event is not None and not self._event.cancelled

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute expiry time, or None when idle."""
        if self.armed:
            return self._event.time
        return None

    def start(self, delay: float, *args: Any) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        self._args = args
        event = self._event
        if event is not None:
            time = self._sim.now + delay
            if time >= event.time:
                event.postpone(time)
                return
            self.cancel()
        self._event = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Disarm the timer; no-op when idle."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._fn(*self._args)


class PeriodicProcess:
    """Invoke a callback every ``interval`` seconds until :meth:`stop`.

    ``interval`` may be a float or a zero-argument callable returning the next
    gap, which supports jittered schedules (e.g. Trickle-like behaviour).
    """

    def __init__(
        self,
        sim: Simulator,
        fn: Callable[[], Any],
        interval: Union[float, Callable[[], float]],
        start_delay: Optional[float] = None,
    ) -> None:
        self._sim = sim
        self._fn = fn
        self._interval = interval
        self._event: Optional[Event] = None
        self._stopped = False
        first = start_delay if start_delay is not None else self._next_interval()
        self._event = sim.schedule(first, self._tick)

    def _next_interval(self) -> float:
        if callable(self._interval):
            return self._interval()
        return self._interval

    def _tick(self) -> None:
        if self._stopped:
            return
        self._fn()
        if not self._stopped:
            self._event = self._sim.schedule(self._next_interval(), self._tick)

    def stop(self) -> None:
        """Stop the process; the pending tick (if any) is cancelled."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None
