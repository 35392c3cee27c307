"""Schedule perturbation: deterministic shuffles of same-timestamp order.

The production engine orders events by ``(time, seq)`` where ``seq`` is a
FIFO counter, so simultaneous events run in scheduling order.  Correct
protocol code must not *depend* on that order — simultaneity is a float
coincidence, and the planned batched/vectorised engine will not preserve
FIFO ties.  :class:`PerturbedSimulator` replaces the FIFO counter with a
keyed pseudo-random priority, producing a different — but fully
deterministic — permutation of every same-timestamp group for each
``perturbation`` seed.  Running the same scenario under several seeds and
comparing digests is therefore a dynamic race detector for event-order
dependence.

The class lives outside :mod:`repro.sim.engine` on purpose: the engine hot
path stays untouched, keeping the zero-overhead-when-disabled contract that
the perfbench gate (``python -m repro.obs bench-compare``) enforces.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Optional

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator
from repro.sim.rng import derive_seed

__all__ = ["HandlerContext", "PerturbedSimulator"]


class HandlerContext:
    """Tracks which object's handler the engine is currently executing.

    The RNG tripwire needs to know, at ``RngRegistry.get`` time, *whose*
    event is running.  :class:`PerturbedSimulator` wraps every scheduled
    callback to publish its owner here.  Owners are labelled stably:
    objects with a ``node_id`` become ``"node/<id>"``; everything else gets
    ``"<ClassName>#<k>"`` with ``k`` assigned in first-seen order (which is
    itself deterministic for a deterministic run).  Timer/periodic-process
    wrappers are unwrapped to the object owning their callback, so a draw
    from a node's timer is attributed to the node, not the timer.
    """

    SETUP = "setup"

    def __init__(self) -> None:
        self.current: str = self.SETUP
        self._anon_ids: Dict[int, str] = {}
        self._anon_counts: Dict[str, int] = {}

    def label_for(self, fn: Callable[..., Any]) -> str:
        owner = self._resolve_owner(fn)
        if owner is None:
            name = getattr(fn, "__qualname__", getattr(fn, "__name__", "?"))
            return f"function/{name}"
        node_id = getattr(owner, "node_id", None)
        if isinstance(node_id, int):
            return f"node/{node_id}"
        key = id(owner)
        label = self._anon_ids.get(key)
        if label is None:
            cls = type(owner).__name__
            index = self._anon_counts.get(cls, 0)
            self._anon_counts[cls] = index + 1
            label = f"{cls}#{index}"
            self._anon_ids[key] = label
        return label

    @staticmethod
    def _resolve_owner(fn: Callable[..., Any]) -> Optional[object]:
        """The object whose state ``fn`` runs against, unwrapping timers."""
        hops = 0
        owner = getattr(fn, "__self__", None)
        # Timer._fire / PeriodicProcess._tick hold the real callback in
        # ``_fn``; follow that chain (bounded) to the protocol object.
        while owner is not None and hops < 4:
            inner = getattr(owner, "_fn", None)
            inner_owner = getattr(inner, "__self__", None)
            if inner_owner is None:
                break
            owner = inner_owner
            hops += 1
        return owner

    def enter(self, fn: Callable[..., Any]) -> str:
        previous = self.current
        self.current = self.label_for(fn)
        return previous

    def exit(self, previous: str) -> None:
        self.current = previous


class PerturbedSimulator(Simulator):
    """A :class:`Simulator` whose same-timestamp tie-break is permuted.

    ``perturbation`` selects the permutation: each scheduled event's
    sequence key becomes ``(keyed_hash(perturbation, counter) << 40) |
    counter``, so events at *distinct* times run exactly as before (time
    dominates the heap order), while events at the *same* time run in a
    pseudo-random order that is a pure function of the perturbation seed
    and each event's scheduling index.  The counter in the low bits keeps
    keys unique even on a (vanishingly unlikely) 64-bit hash collision,
    preserving the engine's total-order guarantee.

    An optional :class:`HandlerContext` wraps every callback so the RNG
    tripwire can attribute stream draws to the executing node.  The wrapper
    costs one closure per event — acceptable for sanitizer runs, never paid
    by production simulations (which use the plain :class:`Simulator`).
    """

    def __init__(
        self,
        perturbation: int,
        max_events: Optional[int] = None,
        max_sim_time: Optional[float] = None,
        context: Optional[HandlerContext] = None,
    ) -> None:
        super().__init__(max_events=max_events, max_sim_time=max_sim_time)
        self.perturbation = int(perturbation)
        self.context = context
        self._counter = 0

    def _perturbed_seq(self) -> int:
        counter = self._counter
        self._counter += 1
        priority = derive_seed(self.perturbation, f"tiebreak/{counter}")
        return (priority << 40) | counter

    def schedule_at(
        self, time: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        # Mirrors Simulator.schedule_at but assigns the perturbed sequence
        # key at construction (heapq has no decrease-key, so fixing the key
        # up after the push would mean an O(n) heap search).
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        if self.context is not None:
            fn = _context_wrapper(self.context, fn)
        event = Event(time, self._perturbed_seq(), fn, args, sim=self)
        self._seq += 1  # keep the FIFO counter advancing for introspection
        heapq.heappush(self._queue, event)
        self._live += 1
        return event


def _context_wrapper(
    context: HandlerContext, fn: Callable[..., Any]
) -> Callable[..., Any]:
    def run(*args: Any) -> None:
        previous = context.enter(fn)
        try:
            fn(*args)
        finally:
            context.exit(previous)

    # Keep the original reachable for diagnostics and owner resolution.
    run.__wrapped__ = fn  # type: ignore[attr-defined]
    return run
