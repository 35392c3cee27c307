"""Order oracle for the event engine.

``NaiveSimulator`` keeps every queued entry in a plain list and, at each
step, takes the minimum by ``(time, key)``.  It applies the engine's
documented bookkeeping literally: a cancel of a queued event turns it into
garbage and compacts once garbage is more than half the queue, a cancelled
entry that reaches the front is dropped, and ``run(until=...)`` stops before
the first live entry past ``until`` and then advances time to ``until``.
A postponement gives the entry its new time and the next key in place — the
order cancel-and-reschedule gives, with no garbage — and is rejected for an
earlier or NaN time and for an executed or cancelled entry.

Hypothesis generates programs that interleave schedules with tied times,
cancels and postponements (of queued, executed and already-cancelled
events, to the same, later, earlier and NaN times, from the driver and from
inside handlers), nested schedules made by handlers, and bounded or
unbounded runs.  The engine must execute the same events in the same order,
accept and reject the same postponements, and report the same
``heap_stats()`` and ``now`` after every step, for the FIFO
:class:`Simulator` and for :class:`PerturbedSimulator`.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import PerturbedSimulator, Simulator
from repro.sim.rng import derive_seed


class _Entry:
    __slots__ = ("time", "key", "fn", "args", "cancelled", "executed")

    def __init__(self, time, key, fn, args):
        self.time = time
        self.key = key
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.executed = False

    def cancel(self, sim):
        if self.cancelled:
            return
        self.cancelled = True
        if not self.executed:
            sim.live -= 1
            sim.garbage += 1
            if sim.garbage * 2 > len(sim.queue):
                sim.queue = [e for e in sim.queue if not e.cancelled]
                sim.garbage = 0
                sim.compactions += 1


class NaiveSimulator:
    def __init__(self, key=lambda counter: counter):
        self.key = key
        self.queue = []
        self.now = 0.0
        self.counter = 0
        self.live = 0
        self.garbage = 0
        self.compactions = 0

    def schedule(self, delay, fn, *args):
        entry = _Entry(self.now + delay, self.key(self.counter), fn, args)
        self.counter += 1
        self.queue.append(entry)
        self.live += 1
        return entry

    def cancel(self, entry):
        entry.cancel(self)

    def postpone(self, entry, time):
        if entry.cancelled or entry.executed:
            raise SimulationError("not pending")
        if not time >= entry.time:
            raise SimulationError("earlier")
        entry.time = time
        entry.key = self.key(self.counter)
        self.counter += 1

    def run(self, until=None):
        while self.queue:
            head = min(self.queue, key=lambda e: (e.time, e.key))
            if head.cancelled:
                self.queue.remove(head)
                self.garbage -= 1
                continue
            if until is not None and head.time > until:
                break
            self.queue.remove(head)
            self.live -= 1
            head.executed = True
            self.now = head.time
            head.fn(*head.args)
        if until is not None and self.now < until:
            self.now = until

    def heap_stats(self):
        return {
            "pending": self.live,
            "heap_len": len(self.queue),
            "cancelled_garbage": self.garbage,
            "compactions": self.compactions,
        }


class _Engine:
    """Adapts a real simulator to the driver's schedule/cancel/run calls."""

    def __init__(self, sim):
        self.sim = sim
        self.schedule = sim.schedule
        self.run = sim.run
        self.heap_stats = sim.heap_stats

    @property
    def now(self):
        return self.sim.now

    @staticmethod
    def cancel(event):
        event.cancel()

    @staticmethod
    def postpone(event, time):
        event.postpone(time)


def play(sim, program):
    """Run ``program`` on ``sim``; return the execution log and snapshots."""
    handles = []
    log = []
    snapshots = []

    def postpone(target, extra):
        if handles:
            handle = handles[target % len(handles)]
            try:
                sim.postpone(handle, handle.time + extra)
            except SimulationError:
                log.append(("rejected", target % len(handles)))

    def fire(label, children, cancels, postpones):
        log.append((label, sim.now))
        for delay, grandchildren, child_cancels, child_postpones in children:
            add(delay, grandchildren, child_cancels, child_postpones)
        for target in cancels:
            if handles:
                sim.cancel(handles[target % len(handles)])
        for target, extra in postpones:
            postpone(target, extra)

    def add(delay, children, cancels, postpones):
        handles.append(sim.schedule(delay, fire, len(handles), children,
                                    cancels, postpones))

    for op in program:
        if op[0] == "add":
            add(*op[1:])
        elif op[0] == "cancel":
            if handles:
                sim.cancel(handles[op[1] % len(handles)])
        elif op[0] == "postpone":
            postpone(*op[1:])
        else:
            sim.run(until=None if op[1] is None else sim.now + op[1])
        snapshots.append((sim.heap_stats(), sim.now, len(log)))
    sim.run()
    snapshots.append((sim.heap_stats(), sim.now, len(log)))
    return log, snapshots


delays = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 1.0, 2.5])
# How far a postponement moves an event: mostly to the same time (a tie
# with every other event there) or later, sometimes earlier or to NaN,
# which must be rejected.
extras = st.sampled_from([0.0, 0.0, 0.0, 0.25, 1.0, 1.0, -0.25, float("nan")])
targets = st.integers(min_value=0, max_value=200)
postpones = st.lists(st.tuples(targets, extras), max_size=2)
leaf = st.tuples(delays, st.just(()), st.lists(targets, max_size=2), postpones)
inner = st.tuples(delays, st.lists(leaf, max_size=3),
                  st.lists(targets, max_size=2), postpones)
ops = st.one_of(
    st.tuples(st.just("add"), delays, st.lists(inner, max_size=2),
              st.lists(targets, max_size=2), postpones),
    st.tuples(st.just("cancel"), targets),
    st.tuples(st.just("cancel"), targets),
    st.tuples(st.just("postpone"), targets, extras),
    st.tuples(st.just("postpone"), targets, extras),
    st.tuples(st.just("run"), st.one_of(st.none(), delays)),
)
programs = st.lists(ops, min_size=1, max_size=60)


@settings(max_examples=150, deadline=None)
@given(program=programs)
# A postponed event cancelled before its stale heap entry surfaces: the
# engine once dropped that garbage ahead of an earlier-keyed live event,
# and ``heap_stats()`` after a bounded run disagreed.
@example(program=[("add", 0.5, [], [], []), ("add", 0.5, [], [], []),
                  ("postpone", 0, 0.0), ("add", 0.0, [], [0], []),
                  ("run", 0.0)])
def test_simulator_matches_naive_order(program):
    assert play(_Engine(Simulator()), program) == play(NaiveSimulator(), program)


@settings(max_examples=60, deadline=None)
@given(program=programs, perturbation=st.integers(min_value=1, max_value=50))
def test_perturbed_simulator_matches_naive_order(program, perturbation):
    def key(counter):
        return (derive_seed(perturbation, f"tiebreak/{counter}") << 40) | counter

    assert (play(_Engine(PerturbedSimulator(perturbation)), program)
            == play(NaiveSimulator(key), program))


def test_programs_reach_compaction_and_nested_schedules():
    """A fixed program exercising what the generated ones are for."""
    program = [("add", 1.0, [(0.0, [(0.0, (), [], [])], [0], [])], [], [])] * 6
    program += [("cancel", i) for i in range(1, 6)]
    program += [("run", 0.5), ("run", None)]
    engine = _Engine(Simulator())
    log, snapshots = play(engine, program)
    assert (log, snapshots) == play(NaiveSimulator(), program)
    assert engine.sim.heap_stats()["compactions"] >= 1
    assert len(log) > 1


@pytest.mark.parametrize("perturbation", [None, 1, 2, 3])
def test_programs_reach_same_time_postponements(perturbation):
    """Same-time postponements among ties, from the driver and from a
    handler, around a compaction; under a permuted tie-break some draw a
    key below the event's own."""
    program = [("add", 1.0, [], [], [])] * 6
    program += [("add", 0.5, [], [], [(i, 0.0) for i in range(6)])]
    program += [("add", 2.5, [], [], [])] * 8
    program += [("postpone", i, 0.0) for i in (0, 2, 4)]
    program += [("postpone", 1, 1.0), ("postpone", 3, -0.25), ("cancel", 5),
                ("postpone", 5, 0.0)]
    program += [("cancel", i) for i in range(7, 15)]
    program += [("run", None), ("postpone", 1, 0.0)]
    if perturbation is None:
        engine, naive = _Engine(Simulator()), NaiveSimulator()
    else:
        def key(counter):
            return ((derive_seed(perturbation, f"tiebreak/{counter}") << 40)
                    | counter)

        engine = _Engine(PerturbedSimulator(perturbation))
        naive = NaiveSimulator(key)
    log, snapshots = play(engine, program)
    assert (log, snapshots) == play(naive, program)
    assert engine.sim.heap_stats()["compactions"] >= 1
    assert {("rejected", 1), ("rejected", 3), ("rejected", 5)} <= set(log)
